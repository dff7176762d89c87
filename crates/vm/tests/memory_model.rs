//! Reference-model test for [`Memory`]: random operation sequences run
//! against the real paged memory and against a flat model (a byte array
//! and a mapped flag per byte), which must agree on every value and every
//! `OutOfBounds` fault. Snapshot-style (`share_pages` + `clone`) and plain
//! clones join the run as further instances, so writes on either side of a
//! clone must stay invisible to the other. File reads
//! (`write_file_unchecked`, which installs file views) join as well.

use bastion_vm::mem::PAGE_SIZE;
use bastion_vm::{MemIo, Memory, OutOfBounds};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// First page of the window the operations address.
const BASE: u64 = 16 * PAGE_SIZE;
/// Pages in the window.
const PAGES: u64 = 5;
/// Operations also reach this far outside the window on either side.
const MARGIN: u64 = 64;
/// The most clones alive at once.
const MAX_INSTANCES: usize = 3;
/// The model spans `[LO, HI)`, which holds every byte an operation
/// reaches.
const LO: u64 = BASE - 2 * PAGE_SIZE;
const HI: u64 = BASE + (PAGES + 4) * PAGE_SIZE;

/// Length of the file that file reads copy from.
const FILE_LEN: u64 = 4 * PAGE_SIZE;

/// The file that file reads copy from: one per process, as a VFS
/// fixture is.
fn file() -> &'static Arc<Vec<u8>> {
    static FILE: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    FILE.get_or_init(|| Arc::new((0..FILE_LEN).map(|i| (i * 31 % 251) as u8 + 1).collect()))
}

/// The flat model: every byte's value and whether it is mapped.
#[derive(Clone)]
struct Model {
    bytes: Vec<u8>,
    mapped: Vec<bool>,
}

/// Index of `addr` in the model's arrays.
fn at(addr: u64) -> usize {
    assert!((LO..HI).contains(&addr), "{addr:#x} outside the model");
    (addr - LO) as usize
}

impl Model {
    fn new() -> Self {
        Model {
            bytes: vec![0; (HI - LO) as usize],
            mapped: vec![false; (HI - LO) as usize],
        }
    }

    fn map(&mut self, start: u64, len: u64) {
        self.mapped[at(start)..at(start + len)].fill(true);
    }

    /// Unmapping zeroes the range, so a re-map reads zeros.
    fn unmap(&mut self, start: u64, len: u64) {
        let r = at(start)..at(start + len);
        self.mapped[r.clone()].fill(false);
        self.bytes[r].fill(0);
    }

    fn check(&self, addr: u64, len: u64, write: bool) -> Result<(), OutOfBounds> {
        if self.mapped[at(addr)..at(addr + len)].iter().all(|&m| m) {
            Ok(())
        } else {
            Err(OutOfBounds { addr, write })
        }
    }

    fn read_unchecked(&self, addr: u64, len: u64) -> Vec<u8> {
        self.bytes[at(addr)..at(addr + len)].to_vec()
    }

    fn write_unchecked(&mut self, addr: u64, buf: &[u8]) {
        self.bytes[at(addr)..at(addr) + buf.len()].copy_from_slice(buf);
    }

    fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, OutOfBounds> {
        self.check(addr, len, false)?;
        Ok(self.read_unchecked(addr, len))
    }

    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfBounds> {
        self.check(addr, buf.len() as u64, true)?;
        self.write_unchecked(addr, buf);
        Ok(())
    }
}

/// Draws from one random word.
struct Draw(u64);

impl Draw {
    fn take(&mut self, n: u64) -> u64 {
        let v = self.0 % n;
        self.0 /= n;
        v
    }

    /// An address in the window or its margins, biased towards page
    /// boundaries so accesses straddle pages and region ends.
    fn addr(&mut self) -> u64 {
        if self.take(2) == 0 {
            let page = BASE + self.take(PAGES + 1) * PAGE_SIZE;
            page + self.take(17) - 8
        } else {
            BASE - MARGIN + self.take(PAGES * PAGE_SIZE + 2 * MARGIN)
        }
    }

    /// A length for a mapping change: sub-page, one page or several.
    fn len(&mut self) -> u64 {
        match self.take(3) {
            0 => 1 + self.take(300),
            1 => PAGE_SIZE,
            _ => 1 + self.take(2 * PAGE_SIZE),
        }
    }
}

/// Applies the operation encoded by `word` to instance `i` (or, for a
/// clone, to a new instance) and asserts the memory agrees with its model.
fn apply(mems: &mut Vec<(Memory, Model)>, word: u64) {
    let mut d = Draw(word);
    let i = d.take(mems.len() as u64) as usize;
    let op = d.take(15);
    let value = d.0;
    let (m, model) = &mut mems[i];
    match op {
        0 => {
            let (start, len) = (d.addr(), d.len());
            m.map_region(start, len);
            model.map(start, len);
        }
        1 => {
            let (start, len) = (d.addr(), d.len());
            m.unmap_region(start, len);
            model.unmap(start, len);
        }
        2 => {
            // brk: shrink a region to an unaligned end, then regrow it.
            let (end, grow) = (d.addr(), d.len());
            let top = BASE + PAGES * PAGE_SIZE;
            if end < top {
                m.unmap_region(end, top - end);
                model.unmap(end, top - end);
            }
            m.map_region(end, grow);
            model.map(end, grow);
        }
        3 => {
            let a = d.addr();
            let want = model.read(a, 1).map(|b| b[0]);
            assert_eq!(m.read_u8(a), want, "read_u8 {a:#x}");
        }
        4 => {
            let a = d.addr();
            let want = model
                .read(a, 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()));
            assert_eq!(m.read_u64(a), want, "read_u64 {a:#x}");
        }
        5 => {
            let a = d.addr();
            let v = value as u8;
            assert_eq!(m.write_u8(a, v), model.write(a, &[v]), "write_u8 {a:#x}");
        }
        6 => {
            let a = d.addr();
            let v = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let want = model.write(a, &v.to_le_bytes());
            assert_eq!(m.write_u64(a, v), want, "write_u64 {a:#x}");
        }
        7 => {
            let (a, len) = (d.addr(), d.take(2 * PAGE_SIZE));
            let mut buf = vec![0u8; len as usize];
            let got = m.read(a, &mut buf).map(|()| buf);
            assert_eq!(got, model.read(a, len), "read {a:#x}+{len}");
        }
        8 => {
            let (a, len) = (d.addr(), d.take(2 * PAGE_SIZE));
            let buf: Vec<u8> = (0..len).map(|k| (value >> (k % 57)) as u8).collect();
            assert_eq!(m.write(a, &buf), model.write(a, &buf), "write {a:#x}+{len}");
        }
        9 => {
            let (a, len) = (d.addr(), d.take(64));
            let buf: Vec<u8> = (0..len).map(|k| (value >> (k % 57)) as u8 | 1).collect();
            m.write_unchecked(a, &buf);
            model.write_unchecked(a, &buf);
        }
        10 => {
            let (a, len) = (d.addr(), d.take(2 * PAGE_SIZE));
            let mut buf = vec![0u8; len as usize];
            m.read_unchecked(a, &mut buf);
            assert_eq!(
                buf,
                model.read_unchecked(a, len),
                "read_unchecked {a:#x}+{len}"
            );
        }
        11 => {
            m.prune_zero_pages();
        }
        12 => {
            let (a, len) = (d.addr(), d.take(2 * PAGE_SIZE));
            assert_eq!(m.is_mapped(a, len), model.check(a, len, false).is_ok());
        }
        13 => {
            // A file `read`: checked like `sys_read`, then whole pages
            // become views of the file.
            let (a, len) = (d.addr(), d.take(3 * PAGE_SIZE));
            let start = d.take(FILE_LEN - len + 1);
            let src = &file()[start as usize..(start + len) as usize];
            if model.write(a, src).is_ok() {
                assert!(m.is_mapped(a, len), "file read {a:#x}+{len}");
                m.write_file_unchecked(a, file(), start as usize, len as usize);
            }
        }
        _ => {
            // A snapshot (pages shared) or a plain deep copy.
            if d.take(2) == 0 {
                m.share_pages();
            }
            let twin = (m.clone(), model.clone());
            if mems.len() < MAX_INSTANCES {
                mems.push(twin);
            } else {
                mems[(i + 1) % MAX_INSTANCES] = twin;
            }
        }
    }
}

/// Every byte of the window, read through the checked byte path.
fn assert_window_agrees(m: &Memory, model: &Model) {
    for a in BASE - MARGIN..BASE + PAGES * PAGE_SIZE + MARGIN {
        assert_eq!(m.read_u8(a), model.read(a, 1).map(|b| b[0]), "byte {a:#x}");
    }
}

proptest! {
    #[test]
    fn memory_matches_the_flat_model(
        mapped in (0u64..PAGES * PAGE_SIZE, 1u64..3 * PAGE_SIZE),
        words in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        let mut m = Memory::new();
        let mut model = Model::new();
        m.map_region(BASE + mapped.0, mapped.1);
        model.map(BASE + mapped.0, mapped.1);
        let mut mems = vec![(m, model)];
        for &w in &words {
            apply(&mut mems, w);
        }
        for (m, model) in &mems {
            assert_window_agrees(m, model);
        }
    }
}
