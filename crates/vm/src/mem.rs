//! Sparse paged memory.
//!
//! A flat 64-bit address space backed by 4 KiB pages allocated on demand,
//! with an explicit *mapped region* set: access to unmapped addresses
//! faults, which is how the simulated kernel's `mmap`/`munmap`/`brk`
//! manipulate the address space and how wild attacker writes can crash a
//! victim rather than silently succeeding.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Multiply-shift hasher for page numbers. Page indices are
/// attacker-influenced only through `mmap` of a simulated process, so a
/// DoS-resistant hash buys nothing here and SipHash is pure overhead on
/// the interpreter's per-load/store page lookup.
#[derive(Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The high bits carry the entropy after the multiply; HashMap keys
        // buckets off the low bits.
        self.0.rotate_left(32)
    }
}

/// Page number → index of its slot in [`Memory::slots`].
type PageIndex = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// The bytes of one page.
type PageBytes = [u8; PAGE_SIZE as usize];

/// One resident backing page.
///
/// A page is `Own` while no other `Memory` can see it, so a store is a
/// plain write. [`Memory::share_pages`] turns owned pages into `Shared`
/// ones right before a clone that is meant to share them (a snapshot or a
/// fork child); the first store to a shared page copies it back into an
/// owned one (copy-on-write). Only that break pays for reference counting.
///
/// A `File` page is a read-only view of the 4 KiB at byte offset `.1` of a
/// file's contents, installed by [`Memory::write_file_unchecked`] (a file
/// `read` that covers the whole page) instead of a copy. It reads like the
/// copy would; the first store copies it into an owned page, and
/// `share_pages` copies it into a shared one, so page accounting sees
/// exactly what the copy would have made. The offset is a `u32` so that
/// `Page` stays 16 bytes; a view past 4 GiB is copied instead.
#[derive(Debug, Clone)]
enum Page {
    Own(Box<PageBytes>),
    Shared(Arc<PageBytes>),
    File(Arc<Vec<u8>>, u32),
}

impl Page {
    #[inline]
    fn bytes(&self) -> &PageBytes {
        match self {
            Page::Own(b) => b,
            Page::Shared(a) => a,
            Page::File(data, at) => {
                let at = *at as usize;
                data[at..at + PAGE_SIZE as usize]
                    .try_into()
                    .expect("a file view spans one page")
            }
        }
    }

    #[inline]
    fn bytes_mut(&mut self) -> &mut PageBytes {
        if !matches!(self, Page::Own(_)) {
            *self = Page::Own(Box::new(*self.bytes()));
        }
        match self {
            Page::Own(b) => b,
            _ => unreachable!("the page was just made private"),
        }
    }
}

/// Entries in the guest TLB (direct-mapped, indexed by the page number's
/// low bits). 32 and 64 entries ran no faster on the Figure 3 grid or the
/// webserve fleet, and every `Memory` (each process and snapshot) carries
/// its own TLB.
const TLB_SIZE: usize = 16;

/// Tag of an empty TLB entry. No page number reaches it
/// (`u64::MAX / PAGE_SIZE` is the largest).
const NO_PAGE: u64 = u64::MAX;

/// TLB slot value of a mapped page with no backing page yet (reads as
/// zeros). Out of range of any `slots` index.
const NOT_RESIDENT: u32 = u32::MAX;

/// One guest TLB entry: what a load or store needs to know about a page
/// to skip the region map and the page index.
///
/// An entry exists only while bytes `[0, limit)` of page `tag` lie inside
/// one mapped region, so a hit on an access that ends at or below `limit`
/// proves the access is mapped. `slot` mirrors the page index: a page
/// insert updates the entry, and a slot renumbering or an unmap flushes
/// the TLB. Whether a store may write in place is read off the page
/// itself ([`Page::Own`]), which the store has to load anyway.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    /// Page number, or [`NO_PAGE`].
    tag: u64,
    /// Index into [`Memory::slots`], or [`NOT_RESIDENT`].
    slot: u32,
    /// Mapped prefix of the page in bytes (at most [`PAGE_SIZE`]).
    limit: u16,
}

impl TlbEntry {
    const EMPTY: TlbEntry = TlbEntry {
        tag: NO_PAGE,
        slot: NOT_RESIDENT,
        limit: 0,
    };

    /// Whether this entry covers the `len` bytes at `addr`.
    #[inline(always)]
    fn covers(self, addr: u64, len: u64) -> bool {
        self.tag == addr / PAGE_SIZE
            && (addr % PAGE_SIZE).saturating_add(len) <= u64::from(self.limit)
    }
}

/// An access outside any mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds {
    /// The faulting address.
    pub addr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {:#x}",
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for OutOfBounds {}

/// Minimal byte-addressed access interface shared by the VM (direct memory
/// access) and the monitor (remote access through the ptrace simulation),
/// so the shadow-table logic in [`crate::shadow`] is written once.
pub trait MemIo {
    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds>;

    /// Writes `buf` at `addr`.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfBounds>;

    /// Reads a little-endian u64.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    #[inline]
    fn read_u64(&self, addr: u64) -> Result<u64, OutOfBounds> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// [`MemIo::read_u64`] for a caller that holds the memory mutably, so
    /// a [`Memory`] may fill its TLB on a miss (the guest's own loads and
    /// the shadow table's write-path probes).
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    #[inline]
    fn load_u64(&mut self, addr: u64) -> Result<u64, OutOfBounds> {
        self.read_u64(addr)
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    #[inline]
    fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), OutOfBounds> {
        self.write(addr, &v.to_le_bytes())
    }
}

/// The sparse paged address space of one process.
///
/// `Clone` deep-copies owned pages and shares shared ones and file
/// views; call [`Memory::share_pages`] first when the clone should share
/// everything.
/// A clone keeps the TLB, whose slot numbers carry over with the pages.
///
/// `Memory` is `Sync`: the TLB is filled only through `&mut self` (stores,
/// [`Memory::load_u8`], [`Memory::load_u64`] and [`MemIo::load_u64`]), so
/// a process shared between worlds behind an `Arc` can be read from any
/// thread. Reads through `&self` probe the TLB but never fill it.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page number → slot in `slots`.
    index: PageIndex,
    /// Resident pages with their page numbers. Slots are renumbered only
    /// when pages are dropped (`prune_zero_pages`, `unmap_region`), which
    /// flushes `tlb`.
    slots: Vec<(u64, Page)>,
    /// The guest TLB in front of `regions` and `index`; see [`TlbEntry`].
    /// Loads and stores that hit touch nothing else; `&mut` misses fill it.
    tlb: [TlbEntry; TLB_SIZE],
    /// Mapped regions as `(start, len)`, sorted by start (disjoint,
    /// coalesced on insert).
    regions: Vec<(u64, u64)>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            index: PageIndex::default(),
            slots: Vec::new(),
            tlb: [TlbEntry::EMPTY; TLB_SIZE],
            regions: Vec::new(),
        }
    }
}

impl Memory {
    /// Creates an empty, fully unmapped address space.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Maps `[start, start+len)`; overlapping and adjacent maps are
    /// coalesced into one region, so a re-map can never shrink an existing
    /// mapping and a nested map can never shadow its enclosing region from
    /// the `is_mapped` probe. Mapping only adds mapped bytes, so every TLB
    /// entry stays valid.
    pub fn map_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut new_start = start;
        let mut new_end = start.saturating_add(len);
        // Absorb every region overlapping or touching [new_start, new_end):
        // those in `lo..hi`, the regions starting at or below `new_end`
        // whose end reaches `new_start`.
        let hi = self.regions.partition_point(|&(rs, _)| rs <= new_end);
        let mut lo = hi;
        while lo > 0 {
            let (rs, rl) = self.regions[lo - 1];
            let re = rs + rl;
            if re < new_start {
                break;
            }
            new_start = new_start.min(rs);
            new_end = new_end.max(re);
            lo -= 1;
        }
        self.regions
            .splice(lo..hi, [(new_start, new_end - new_start)]);
    }

    /// The region with the greatest start at or below `addr`, if any.
    #[inline]
    fn region_at_or_below(&self, addr: u64) -> Option<(u64, u64)> {
        match self.regions.partition_point(|&(rs, _)| rs <= addr) {
            0 => None,
            i => Some(self.regions[i - 1]),
        }
    }

    /// Unmaps any region starting inside `[start, start+len)` and trims
    /// regions overlapping the range (byte-exact). The range's contents are
    /// gone: pages wholly inside it are dropped and the part of a page it
    /// covers is zeroed, so a later re-map reads zeros, as after munmap.
    /// Flushes the TLB (through `retain_pages`).
    pub fn unmap_region(&mut self, start: u64, len: u64) {
        let end = start.saturating_add(len);
        let mut rebuilt = Vec::with_capacity(self.regions.len() + 1);
        for &(rs, rl) in &self.regions {
            let re = rs + rl;
            if re <= start || rs >= end {
                rebuilt.push((rs, rl));
                continue;
            }
            if rs < start {
                rebuilt.push((rs, start - rs));
            }
            if re > end {
                rebuilt.push((end, re - end));
            }
        }
        self.regions = rebuilt;
        self.retain_pages(|page, p| {
            let ps = page * PAGE_SIZE;
            let pe = ps.saturating_add(PAGE_SIZE);
            let (lo, hi) = (start.max(ps), end.min(pe));
            if lo >= hi {
                return true;
            }
            if lo == ps && hi == pe {
                return false;
            }
            p.bytes_mut()[(lo - ps) as usize..(hi - ps) as usize].fill(0);
            true
        });
    }

    /// Whether every byte of `[addr, addr+len)` is mapped. An access
    /// within one page that hits the TLB skips the region map.
    #[inline]
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        if len == 0 || self.tlb_entry(addr / PAGE_SIZE).covers(addr, len) {
            return true;
        }
        let end = addr.saturating_add(len);
        let mut cur = addr;
        while cur < end {
            let Some((rs, rl)) = self.region_at_or_below(cur) else {
                return false;
            };
            let re = rs + rl;
            if cur >= re {
                return false;
            }
            cur = re;
        }
        true
    }

    /// Length of the longest fully mapped prefix of `[addr, addr+len)`.
    /// Returns 0 if `addr` itself is unmapped. Backs partial remote reads
    /// (`process_vm_readv` may return fewer bytes than requested).
    pub fn mapped_prefix_len(&self, addr: u64, len: u64) -> u64 {
        let end = addr.saturating_add(len);
        let mut cur = addr;
        while cur < end {
            let Some((rs, rl)) = self.region_at_or_below(cur) else {
                break;
            };
            let re = rs + rl;
            if cur >= re {
                break;
            }
            cur = re.min(end);
        }
        cur - addr
    }

    /// All mapped regions as `(start, len)` pairs.
    pub fn regions(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.regions.iter().copied()
    }

    /// Number of backing pages currently in the page table.
    pub fn resident_pages(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Number of resident pages whose backing store is shared with at least
    /// one other `Memory` (a live snapshot or fork sibling) and would be
    /// copied on the next write. File views do not count, as the copies
    /// they stand for would not.
    pub fn shared_pages(&self) -> u64 {
        self.slots
            .iter()
            .filter(|(_, p)| matches!(p, Page::Shared(a) if Arc::strong_count(a) > 1))
            .count() as u64
    }

    /// Makes every owned page (and every file view) shareable, so that the
    /// next `clone` shares all pages with this `Memory` instead of copying
    /// the owned ones. Slots keep their numbers, so the TLB stays valid.
    pub fn share_pages(&mut self) {
        for (_, p) in &mut self.slots {
            if !matches!(p, Page::Shared(_)) {
                *p = Page::Shared(Arc::new(*p.bytes()));
            }
        }
    }

    /// Drops every all-zero backing page. Semantics-preserving: absent pages
    /// read as zeros (`read_unchecked`) and mapping checks consult the
    /// region set, never the page table. Called on snapshot so a checkpoint
    /// neither pins dead zero pages nor diverges in `resident_pages` from a
    /// world that never dirtied them. Returns the number of pages reclaimed.
    pub fn prune_zero_pages(&mut self) -> u64 {
        let before = self.slots.len();
        self.retain_pages(|_, p| p.bytes().iter().any(|&b| b != 0));
        (before - self.slots.len()) as u64
    }

    /// Keeps the pages `keep` returns true for (it may also edit them),
    /// then renumbers the slots and flushes the TLB.
    fn retain_pages(&mut self, mut keep: impl FnMut(u64, &mut Page) -> bool) {
        self.slots.retain_mut(|(page, p)| keep(*page, p));
        self.index.clear();
        for (slot, &(page, _)) in self.slots.iter().enumerate() {
            self.index.insert(page, slot as u32);
        }
        self.flush_tlb();
    }

    fn flush_tlb(&mut self) {
        self.tlb = [TlbEntry::EMPTY; TLB_SIZE];
    }

    /// The TLB entry `page` maps to (its tag may be another page's).
    #[inline(always)]
    fn tlb_entry(&self, page: u64) -> TlbEntry {
        self.tlb[page as usize % TLB_SIZE]
    }

    /// Installs `page`'s TLB entry if the page starts inside a mapped
    /// region; the entry covers the part of the page that region maps.
    fn fill_tlb(&mut self, page: u64) {
        let ps = page * PAGE_SIZE;
        let Some((rs, rl)) = self.region_at_or_below(ps) else {
            return;
        };
        let re = rs + rl;
        if re <= ps {
            return;
        }
        self.tlb[page as usize % TLB_SIZE] = TlbEntry {
            tag: page,
            slot: self.index.get(&page).copied().unwrap_or(NOT_RESIDENT),
            limit: (re - ps).min(PAGE_SIZE) as u16,
        };
    }

    /// Slot of a resident page, through the TLB when it holds the page.
    #[inline]
    fn slot(&self, page: u64) -> Option<usize> {
        let e = self.tlb_entry(page);
        if e.tag == page {
            return (e.slot != NOT_RESIDENT).then_some(e.slot as usize);
        }
        self.index.get(&page).map(|&s| s as usize)
    }

    /// A resident page's bytes; `None` reads as zeros.
    #[inline]
    fn page(&self, page: u64) -> Option<&PageBytes> {
        self.slot(page).map(|s| self.slots[s].1.bytes())
    }

    /// A page's bytes for writing: allocates an absent page and copies a
    /// shared one or a file view.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut PageBytes {
        let slot = match self.slot(page) {
            Some(s) => s,
            None => self.insert_page(page, Page::Own(Box::new([0u8; PAGE_SIZE as usize]))),
        };
        self.slots[slot].1.bytes_mut()
    }

    /// Adds `p` as the backing page of the absent `page` and returns its
    /// slot, updating the page's TLB entry, if any.
    fn insert_page(&mut self, page: u64, p: Page) -> usize {
        let s = self.slots.len();
        self.slots.push((page, p));
        self.index.insert(page, s as u32);
        let entry = &mut self.tlb[page as usize % TLB_SIZE];
        if entry.tag == page {
            entry.slot = s as u32;
        }
        s
    }

    /// Raw read that ignores the region map (used by the attack framework's
    /// "arbitrary read" primitive and by fault-tolerant monitor probes).
    /// Copies page-sized chunks, one page lookup per page touched.
    pub fn read_unchecked(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            match self.page(page) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// [`Memory::read_unchecked`] of `len` bytes appended to `out`, one
    /// page-sized extend per page touched, so a caller building a buffer
    /// never zero-fills bytes it is about to overwrite.
    pub fn read_unchecked_into(&self, addr: u64, len: usize, out: &mut Vec<u8>) {
        out.reserve(len);
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (len - done).min(PAGE_SIZE as usize - off);
            match self.page(page) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            done += n;
        }
    }

    /// Raw write that ignores the region map (attacker primitive).
    /// Copies page-sized chunks, one page lookup per page touched.
    pub fn write_unchecked(&mut self, addr: u64, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
    }

    /// Writes `file[start..start + len]` at `addr` like
    /// [`Memory::write_unchecked`], except that a destination page the
    /// range covers whole becomes a read-only view of the file's bytes
    /// (one `Arc` clone) instead of a copy; the partial pages at either end
    /// are copied. Ignores the region map, so a caller that must fault
    /// checks [`Memory::is_mapped`] first.
    ///
    /// # Panics
    /// If `start + len` exceeds the file's length.
    pub fn write_file_unchecked(
        &mut self,
        addr: u64,
        file: &Arc<Vec<u8>>,
        start: usize,
        len: usize,
    ) {
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (len - done).min(PAGE_SIZE as usize - off);
            let src = &file[start + done..start + done + n];
            match u32::try_from(start + done) {
                Ok(at) if n == PAGE_SIZE as usize => {
                    let view = Page::File(Arc::clone(file), at);
                    match self.slot(page) {
                        Some(s) => self.slots[s].1 = view,
                        None => {
                            self.insert_page(page, view);
                        }
                    }
                }
                _ => self.page_mut(page)[off..off + n].copy_from_slice(src),
            }
            done += n;
        }
    }

    /// Reads one byte: one TLB probe on a hit. A miss does not fill the
    /// TLB; [`Memory::load_u8`] does.
    ///
    /// # Errors
    /// Fails if the byte is unmapped.
    #[inline(always)]
    pub fn read_u8(&self, addr: u64) -> Result<u8, OutOfBounds> {
        let e = self.tlb_entry(addr / PAGE_SIZE);
        if e.covers(addr, 1) {
            return Ok(self.hit_u8(e, addr));
        }
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// [`Memory::read_u8`] that fills the TLB on a miss: the guest's own
    /// byte loads.
    ///
    /// # Errors
    /// Fails if the byte is unmapped.
    #[inline(always)]
    pub fn load_u8(&mut self, addr: u64) -> Result<u8, OutOfBounds> {
        let e = self.tlb_entry(addr / PAGE_SIZE);
        if e.covers(addr, 1) {
            return Ok(self.hit_u8(e, addr));
        }
        let mut b = [0u8; 1];
        self.read_miss(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte: one TLB probe on a hit to an owned page.
    ///
    /// # Errors
    /// Fails if the byte is unmapped.
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), OutOfBounds> {
        let e = self.tlb_entry(addr / PAGE_SIZE);
        if e.covers(addr, 1) {
            if let Some(p) = self.hit_page_mut(e) {
                p[(addr % PAGE_SIZE) as usize] = v;
                return Ok(());
            }
        }
        self.write_miss(addr, &[v])
    }

    /// The page behind a TLB hit; `None` reads as zeros.
    #[inline(always)]
    fn hit_page(&self, e: TlbEntry) -> Option<&PageBytes> {
        self.slots.get(e.slot as usize).map(|(_, p)| p.bytes())
    }

    /// The byte at `addr` behind a TLB hit `e` that covers it.
    #[inline(always)]
    fn hit_u8(&self, e: TlbEntry, addr: u64) -> u8 {
        self.hit_page(e)
            .map_or(0, |p| p[(addr % PAGE_SIZE) as usize])
    }

    /// The word at `addr` behind a TLB hit `e` that covers it.
    #[inline(always)]
    fn hit_u64(&self, e: TlbEntry, addr: u64) -> u64 {
        let off = (addr % PAGE_SIZE) as usize;
        self.hit_page(e).map_or(0, |p| {
            u64::from_le_bytes(p[off..off + 8].try_into().unwrap())
        })
    }

    /// The page behind a TLB hit if a store may write it in place: it is
    /// resident and owned. Other stores take the miss path.
    #[inline(always)]
    fn hit_page_mut(&mut self, e: TlbEntry) -> Option<&mut PageBytes> {
        match &mut self.slots.get_mut(e.slot as usize)?.1 {
            Page::Own(p) => Some(p),
            Page::Shared(_) | Page::File(..) => None,
        }
    }

    /// A load that missed the TLB: the region check and page lookups of
    /// [`MemIo::read`], then a TLB fill for the page at `addr`.
    #[cold]
    #[inline(never)]
    fn read_miss(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds> {
        self.read(addr, buf)?;
        self.fill_tlb(addr / PAGE_SIZE);
        Ok(())
    }

    /// A store that missed the TLB or found the page absent, shared or a
    /// file view: the region check, page allocation and copy-on-write
    /// break of [`MemIo::write`], then a TLB fill for the page at `addr`.
    #[cold]
    #[inline(never)]
    fn write_miss(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfBounds> {
        self.write(addr, buf)?;
        self.fill_tlb(addr / PAGE_SIZE);
        Ok(())
    }
}

impl MemIo for Memory {
    #[inline]
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds> {
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(OutOfBounds { addr, write: false });
        }
        self.read_unchecked(addr, buf);
        Ok(())
    }

    #[inline]
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfBounds> {
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(OutOfBounds { addr, write: true });
        }
        self.write_unchecked(addr, buf);
        Ok(())
    }

    #[inline(always)]
    fn read_u64(&self, addr: u64) -> Result<u64, OutOfBounds> {
        let e = self.tlb_entry(addr / PAGE_SIZE);
        if e.covers(addr, 8) {
            return Ok(self.hit_u64(e, addr));
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    #[inline(always)]
    fn load_u64(&mut self, addr: u64) -> Result<u64, OutOfBounds> {
        let e = self.tlb_entry(addr / PAGE_SIZE);
        if e.covers(addr, 8) {
            return Ok(self.hit_u64(e, addr));
        }
        let mut b = [0u8; 8];
        self.read_miss(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    #[inline(always)]
    fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), OutOfBounds> {
        let e = self.tlb_entry(addr / PAGE_SIZE);
        if e.covers(addr, 8) {
            if let Some(p) = self.hit_page_mut(e) {
                let off = (addr % PAGE_SIZE) as usize;
                p[off..off + 8].copy_from_slice(&v.to_le_bytes());
                return Ok(());
            }
        }
        self.write_miss(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        let mut b = [0u8; 4];
        assert!(m.read(0x1000, &mut b).is_err());
        assert!(m.write(0x1000, &b).is_err());
        m.map_region(0x1000, 0x1000);
        assert!(m.read(0x1000, &mut b).is_ok());
        assert!(m.write(0x1000, &b).is_ok());
    }

    #[test]
    fn rw_roundtrip_across_page_boundary() {
        let mut m = Memory::new();
        m.map_region(0, 2 * PAGE_SIZE);
        let data: Vec<u8> = (0..=255).collect();
        let addr = PAGE_SIZE - 100;
        m.write(addr, &data).unwrap();
        let mut back = vec![0u8; 256];
        m.read(addr, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn u64_helpers() {
        let mut m = Memory::new();
        m.map_region(0x2000, 0x100);
        m.write_u64(0x2008, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(0x2008).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn spanning_two_regions_is_mapped() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.map_region(0x2000, 0x1000);
        assert!(m.is_mapped(0x1800, 0x1000));
        assert!(!m.is_mapped(0x2800, 0x1000));
    }

    #[test]
    fn unmap_trims_and_splits() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.unmap_region(0x2000, 0x1000);
        assert!(m.is_mapped(0x1000, 0x1000));
        assert!(!m.is_mapped(0x2000, 1));
        assert!(m.is_mapped(0x3000, 0x1000));
    }

    #[test]
    fn unchecked_access_never_faults() {
        let mut m = Memory::new();
        m.write_unchecked(0xdead_0000, b"hi");
        let mut b = [0u8; 2];
        m.read_unchecked(0xdead_0000, &mut b);
        assert_eq!(&b, b"hi");
        // And a read of never-written memory yields zeros.
        m.read_unchecked(0xffff_ffff_0000, &mut b);
        assert_eq!(&b, &[0, 0]);
    }

    #[test]
    fn appending_read_matches_the_slice_read_across_pages() {
        let mut m = Memory::new();
        let src: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8 + 1).collect();
        // Spans a written page, a never-written page and a written page.
        m.write_unchecked(0x1f00, &src[..256]);
        m.write_unchecked(0x3000, &src[256..]);
        let len = 0x3000 - 0x1f00 + 2744;
        let mut want = vec![0u8; len];
        m.read_unchecked(0x1f00, &mut want);
        let mut got = b"head".to_vec();
        m.read_unchecked_into(0x1f00, len, &mut got);
        assert_eq!(&got[..4], b"head");
        assert_eq!(&got[4..], &want[..]);
        assert_eq!(&got[4..260], &src[..256]);
        assert!(got[260..4 + 0x1100].iter().all(|&b| b == 0));
    }

    #[test]
    fn mapped_prefix_len_stops_at_gaps() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.map_region(0x2000, 0x1000); // contiguous with the first
        assert_eq!(m.mapped_prefix_len(0x1800, 0x100), 0x100);
        assert_eq!(m.mapped_prefix_len(0x2f00, 0x1000), 0x100);
        assert_eq!(m.mapped_prefix_len(0x4000, 64), 0);
        assert_eq!(m.mapped_prefix_len(0x1000, 0x4000), 0x2000);
    }

    #[test]
    fn zero_length_access_is_ok() {
        let m = Memory::new();
        assert!(m.is_mapped(0x1234, 0));
    }

    #[test]
    fn remap_inside_existing_region_does_not_shrink_it() {
        // Regression: `regions` is keyed by start, so a bare insert of
        // (0x1000, 0x1000) over (0x1000, 0x3000) used to shrink the map.
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.map_region(0x1000, 0x1000);
        assert!(m.is_mapped(0x1000, 0x3000));
        assert!(m.is_mapped(0x3000, 0x1000));
    }

    #[test]
    fn nested_map_does_not_hide_enclosing_region() {
        // Regression: a later-start overlapping insert used to be the entry
        // `range(..=cur).next_back()` found, hiding the enclosing region.
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.map_region(0x2000, 0x100);
        assert!(m.is_mapped(0x2800, 0x800));
        assert!(m.is_mapped(0x1000, 0x3000));
        assert!(!m.is_mapped(0x4000, 1));
    }

    #[test]
    fn bridging_map_coalesces_into_one_region() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.map_region(0x3000, 0x1000);
        assert!(!m.is_mapped(0x2000, 0x100));
        m.map_region(0x1800, 0x2000); // bridges the gap, overlapping both
        assert!(m.is_mapped(0x1000, 0x3000));
        assert_eq!(m.regions().collect::<Vec<_>>(), vec![(0x1000, 0x3000)]);
    }

    #[test]
    fn cloned_memory_shares_pages_until_written() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.write_u64(0x1000, 1).unwrap();
        m.write_u64(0x2000, 2).unwrap();
        m.share_pages();
        let mut c = m.clone();
        assert_eq!(m.shared_pages(), 2);
        assert_eq!(c.shared_pages(), 2);
        // Writing through the clone copies only the touched page and never
        // disturbs the original.
        c.write_u64(0x1000, 99).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 1);
        assert_eq!(c.read_u64(0x1000).unwrap(), 99);
        assert_eq!(m.shared_pages(), 1);
        assert_eq!(c.read_u64(0x2000).unwrap(), 2);
    }

    #[test]
    fn plain_clone_is_isolated_from_later_writes() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x2000);
        m.write_u64(0x1000, 1).unwrap();
        m.write_u64(0x2000, 2).unwrap();
        let mut c = m.clone();
        assert_eq!((m.shared_pages(), c.shared_pages()), (0, 0));
        c.write_u64(0x1000, 10).unwrap();
        m.write_u64(0x2000, 20).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 1);
        assert_eq!(c.read_u64(0x1000).unwrap(), 10);
        assert_eq!(m.read_u64(0x2000).unwrap(), 20);
        assert_eq!(c.read_u64(0x2000).unwrap(), 2);
    }

    #[test]
    fn tlb_stays_coherent_when_prune_renumbers_slots() {
        let mut m = Memory::new();
        m.map_region(0, 0x40 * PAGE_SIZE);
        // Page 0x00 takes slot 0 and is pruned, so every later slot moves
        // down by one.
        m.write_u64(0, 0).unwrap();
        m.write_u64(PAGE_SIZE, 1).unwrap();
        m.write_u64(0x11 * PAGE_SIZE, 0x11).unwrap();
        m.write_u64(0x22 * PAGE_SIZE, 0x22).unwrap();
        for page in [1u64, 0x11, 0x22] {
            assert_eq!(m.load_u64(page * PAGE_SIZE).unwrap(), page);
        }
        assert_eq!(m.prune_zero_pages(), 1);
        for page in [1u64, 0x11, 0x22] {
            assert_eq!(m.load_u64(page * PAGE_SIZE).unwrap(), page);
            m.write_u8(page * PAGE_SIZE + 8, page as u8).unwrap();
        }
        for page in [0x22u64, 0x11, 1] {
            assert_eq!(m.load_u8(page * PAGE_SIZE + 8).unwrap(), page as u8);
            assert_eq!(m.load_u64(page * PAGE_SIZE).unwrap(), page);
        }
        assert_eq!(m.load_u64(0).unwrap(), 0);
    }

    #[test]
    fn tlb_stays_coherent_across_a_cow_break() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.write_u64(0x1000, 1).unwrap();
        assert_eq!(m.load_u64(0x1000).unwrap(), 1); // the TLB holds the page
        m.share_pages();
        let snap = m.clone();
        // The store copies the shared page into the same slot; the TLB's
        // slot must now reach the private copy, not the shared one.
        m.write_u64(0x1000, 2).unwrap();
        assert_eq!(m.load_u64(0x1000).unwrap(), 2);
        m.write_u8(0x1001, 0xff).unwrap();
        assert_eq!(m.load_u64(0x1000).unwrap(), 0xff02);
        assert_eq!(snap.read_u64(0x1000).unwrap(), 1);
        assert_eq!(m.shared_pages(), 0);
    }

    #[test]
    fn unmap_then_remap_reads_zeros() {
        // Regression: unmap kept the backing pages, so a MAP_FIXED-style
        // re-map of the same range read the old bytes back.
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.write_u64(0x2000, 0xdead_beef).unwrap();
        m.write_u64(0x1ff8, 7).unwrap(); // below the unmapped range
        m.write_u64(0x3800, 9).unwrap(); // page partly unmapped
        m.unmap_region(0x2000, 0x1800);
        assert_eq!(m.resident_pages(), 2, "the wholly unmapped page is dropped");
        m.map_region(0x1000, 0x3000);
        assert_eq!(m.load_u64(0x2000).unwrap(), 0);
        assert_eq!(m.load_u64(0x3000).unwrap(), 0);
        assert_eq!(m.load_u64(0x3800).unwrap(), 9);
        assert_eq!(m.load_u64(0x37f8).unwrap(), 0);
        assert_eq!(m.load_u64(0x1ff8).unwrap(), 7);
    }

    #[test]
    fn unmap_of_a_shared_page_leaves_the_sibling_intact() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.write_u64(0x1000, 5).unwrap();
        m.write_u64(0x1800, 6).unwrap();
        m.share_pages();
        let snap = m.clone();
        m.unmap_region(0x1800, 0x800);
        m.map_region(0x1800, 0x800);
        assert_eq!(m.load_u64(0x1800).unwrap(), 0);
        assert_eq!(m.load_u64(0x1000).unwrap(), 5);
        assert_eq!(snap.read_u64(0x1800).unwrap(), 6);
    }

    #[test]
    fn prune_zero_pages_reclaims_and_preserves_reads() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.write_u64(0x1000, 7).unwrap();
        m.write_u64(0x2000, 7).unwrap();
        m.write_u64(0x2000, 0).unwrap(); // page dirtied, then zeroed
        m.write_u64(0x3000, 0).unwrap(); // page dirtied with zeros only
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.prune_zero_pages(), 2);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.load_u64(0x1000).unwrap(), 7);
        assert_eq!(m.load_u64(0x2000).unwrap(), 0);
        assert_eq!(m.load_u64(0x3000).unwrap(), 0);
        assert!(m.is_mapped(0x2000, 8));
    }

    #[test]
    fn only_mutable_loads_fill_the_tlb() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x2000);
        let filled = |m: &Memory| m.tlb.iter().filter(|e| e.tag != NO_PAGE).count();
        assert_eq!((m.read_u64(0x1000), m.read_u8(0x2000)), (Ok(0), Ok(0)));
        assert_eq!(filled(&m), 0);
        assert_eq!((m.load_u64(0x1000), m.load_u8(0x2000)), (Ok(0), Ok(0)));
        assert_eq!(filled(&m), 2);
    }

    #[test]
    fn tlb_is_flushed_by_unmap() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        assert_eq!(m.load_u64(0x1800), Ok(0)); // fills the TLB
        assert!(m.is_mapped(0x1800, 8));
        m.unmap_region(0x1000, 0x1000);
        assert!(!m.is_mapped(0x1800, 8));
        assert!(m.load_u64(0x1800).is_err());
        m.map_region(0x1000, 0x800);
        assert!(m.is_mapped(0x1000, 0x800));
        assert!(!m.is_mapped(0x1800, 8));
        assert!(m.write_u8(0x1800, 1).is_err());
    }

    #[test]
    fn tlb_covers_only_the_mapped_prefix_of_a_page() {
        // A brk-like region ending mid-page: the TLB entry must stop at the
        // region's end, and growing the region must extend it.
        let mut m = Memory::new();
        m.map_region(0x1000, 0x100);
        m.write_u64(0x10f8, 7).unwrap();
        assert_eq!(m.load_u64(0x10f8), Ok(7));
        assert_eq!(
            m.load_u64(0x10f9),
            Err(OutOfBounds {
                addr: 0x10f9,
                write: false
            })
        );
        assert!(m.write_u8(0x1100, 1).is_err());
        m.map_region(0x1100, 0x100);
        m.write_u8(0x1100, 1).unwrap();
        assert_eq!(m.load_u64(0x10f9), Ok(1 << 56));
        m.unmap_region(0x1080, 0x180);
        assert!(m.load_u8(0x1080).is_err());
        assert_eq!(m.load_u64(0x10f8 - 0x80), Ok(0));
    }

    #[test]
    fn unchecked_write_to_a_cached_absent_page_updates_the_tlb() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        assert_eq!(m.load_u64(0x1000), Ok(0)); // TLB: mapped, not resident
        m.write_unchecked(0x1008, &9u64.to_le_bytes());
        assert_eq!(m.load_u64(0x1008), Ok(9));
        m.write_u64(0x1000, 1).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.load_u64(0x1000), Ok(1));
    }

    #[test]
    fn unchecked_write_outside_the_mapping_installs_no_tlb_entry() {
        let mut m = Memory::new();
        m.write_unchecked(0x5000, &[1]);
        assert!(m.load_u8(0x5000).is_err());
        assert!(m.write_u8(0x5000, 2).is_err());
        m.map_region(0x5000, 1);
        assert_eq!(m.load_u8(0x5000), Ok(1));
        assert!(m.load_u8(0x5001).is_err());
    }

    #[test]
    fn store_after_share_pages_breaks_the_share() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.write_u64(0x1000, 1).unwrap(); // TLB entry for an owned page
        m.share_pages();
        let snap = m.clone();
        m.write_u8(0x1000, 2).unwrap();
        assert_eq!(m.read_u64(0x1000), Ok(2));
        assert_eq!(snap.read_u64(0x1000), Ok(1));
        assert_eq!(snap.shared_pages(), 0);
    }

    /// A file whose bytes are never zero, so no page of it prunes.
    fn file(len: usize) -> Arc<Vec<u8>> {
        Arc::new((0..len).map(|i| (i * 31 % 251) as u8 + 1).collect())
    }

    /// Pages of `m` that are file views.
    fn file_views(m: &Memory) -> usize {
        m.slots
            .iter()
            .filter(|(_, p)| matches!(p, Page::File(..)))
            .count()
    }

    /// Two memories holding `file[start..start + len]` at `addr`: one
    /// through file views, one through the copy path.
    fn view_and_copy(file: &Arc<Vec<u8>>, addr: u64, start: usize, len: usize) -> (Memory, Memory) {
        let (mut view, mut copy) = (Memory::new(), Memory::new());
        for m in [&mut view, &mut copy] {
            m.map_region(addr & !(PAGE_SIZE - 1), 6 * PAGE_SIZE);
        }
        view.write_file_unchecked(addr, file, start, len);
        copy.write_unchecked(addr, &file[start..start + len]);
        (view, copy)
    }

    #[test]
    fn page_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Page>(), 16);
    }

    #[test]
    fn file_views_read_like_the_copy_path() {
        let f = file(8 * PAGE_SIZE as usize);
        let base = 0x10_0000u64;
        for off in [0u64, 1, 3480, 4095] {
            for start in [0usize, 7, 3 * PAGE_SIZE as usize + 13] {
                let len = 4 * PAGE_SIZE as usize - 200;
                let addr = base + off;
                let (view, copy) = view_and_copy(&f, addr, start, len);
                let whole = (addr + len as u64) / PAGE_SIZE - addr.div_ceil(PAGE_SIZE);
                assert_eq!(file_views(&view) as u64, whole, "off {off} start {start}");
                assert_eq!(view.resident_pages(), copy.resident_pages());
                let end = base + 6 * PAGE_SIZE;
                for a in base..end {
                    assert_eq!(view.read_u8(a), copy.read_u8(a), "read_u8 {a:#x}");
                }
                for page in 1..6 {
                    for a in (base + page * PAGE_SIZE - 8)..=(base + page * PAGE_SIZE) {
                        assert_eq!(view.read_u64(a), copy.read_u64(a), "read_u64 {a:#x}");
                    }
                }
                let (mut got, mut want) = (Vec::new(), Vec::new());
                view.read_unchecked_into(addr, len, &mut got);
                copy.read_unchecked_into(addr, len, &mut want);
                assert_eq!(got, want);
                assert_eq!(&got[..], &f[start..start + len]);
                let mut got = vec![0u8; (end - base) as usize];
                let mut want = got.clone();
                view.read(base, &mut got).unwrap();
                copy.read(base, &mut want).unwrap();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn a_store_into_a_file_view_copies_only_that_page() {
        let f = file(4 * PAGE_SIZE as usize);
        let before = f.to_vec();
        let mut m = Memory::new();
        m.map_region(0x1000, 3 * PAGE_SIZE);
        m.write_file_unchecked(0x1000, &f, 0, 3 * PAGE_SIZE as usize);
        assert_eq!(
            m.read_u64(0x2000),
            Ok(u64::from_le_bytes(f[0x1000..0x1008].try_into().unwrap()))
        );
        m.write_u8(0x2001, 0).unwrap();
        assert_eq!(file_views(&m), 2);
        assert_eq!(m.read_u8(0x2001), Ok(0));
        assert_eq!(m.read_u8(0x2000), Ok(f[0x1000]));
        m.write_u64(0x1ff8, 7).unwrap(); // the last 8 bytes of page 1
        assert_eq!(file_views(&m), 1);
        assert_eq!(m.read_u64(0x1ff8), Ok(7));
        assert_eq!(m.read_u8(0x3000), Ok(f[0x2000]));
        assert_eq!(*f, before, "the file's bytes are untouched");
        assert_eq!(Arc::strong_count(&f), 2, "one view left");
    }

    #[test]
    fn share_pages_accounts_file_views_like_copies() {
        let f = file(8 * PAGE_SIZE as usize);
        let (mut view, mut copy) = view_and_copy(&f, 0x10_0000 + 3480, 7, 5 * PAGE_SIZE as usize);
        assert_eq!((view.shared_pages(), copy.shared_pages()), (0, 0));
        view.share_pages();
        copy.share_pages();
        assert_eq!(file_views(&view), 0);
        let (view2, copy2) = (view.clone(), copy.clone());
        assert_eq!(view.shared_pages(), copy.shared_pages());
        assert_eq!(view.resident_pages(), copy.resident_pages());
        assert_eq!(view2.shared_pages(), copy2.shared_pages());
        assert_eq!(view2.resident_pages(), copy2.resident_pages());
        assert_eq!(view.shared_pages(), 6);
        assert_eq!(Arc::strong_count(&f), 1, "shared pages hold copies");
    }

    #[test]
    fn prune_and_unmap_work_over_file_views() {
        // Page 1 of the file is all zeros, so its view prunes as a copy of
        // it would.
        let mut bytes = file(4 * PAGE_SIZE as usize).to_vec();
        bytes[PAGE_SIZE as usize..2 * PAGE_SIZE as usize].fill(0);
        let f = Arc::new(bytes);
        let (mut view, mut copy) = view_and_copy(&f, 0x10_0000, 0, 4 * PAGE_SIZE as usize);
        assert_eq!(file_views(&view), 4);
        assert_eq!(view.prune_zero_pages(), copy.prune_zero_pages());
        assert_eq!(view.resident_pages(), 3);
        // Unmap half of page 2 and all of page 3, then map them back.
        for m in [&mut view, &mut copy] {
            m.unmap_region(0x10_2800, 0x1800);
            m.map_region(0x10_2800, 0x1800);
        }
        assert_eq!(view.resident_pages(), copy.resident_pages());
        assert_eq!(file_views(&view), 1, "page 0 is still a view");
        let (mut got, mut want) = (vec![0u8; 0x4000], vec![0u8; 0x4000]);
        view.read(0x10_0000, &mut got).unwrap();
        copy.read(0x10_0000, &mut want).unwrap();
        assert_eq!(got, want);
        assert_eq!(&got[0x2000..0x2800], &f[0x2000..0x2800]);
        assert!(got[0x2800..].iter().all(|&b| b == 0));
        assert_eq!(
            f[0x2800],
            (0x2800 * 31 % 251) as u8 + 1,
            "the file is untouched"
        );
    }
}
