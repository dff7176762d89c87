//! The BASTION shadow-memory hash table (paper §7.1).
//!
//! An open-addressing hash table living *inside the protected application's
//! address space* under a segment base (`$gs` in the paper). It holds two
//! kinds of entries:
//!
//! * **value entries** — the legitimate value of a sensitive variable,
//!   keyed by the variable's address (written by `ctx_write_mem`);
//! * **binding entries** — which constant or which variable address is
//!   bound to argument position X of a callsite, keyed by the callsite
//!   address and position (written by `ctx_bind_mem_X`/`ctx_bind_const_X`).
//!
//! The logic is implemented over the [`MemIo`] trait so the *same code*
//! runs inline in the application (through direct memory access) and in
//! the monitor (through the `process_vm_readv` simulation), exactly like
//! the paper's shared shadow region.

use crate::mem::{MemIo, OutOfBounds};
use serde::{Deserialize, Serialize};

/// Entry slot count (power of two).
pub const SHADOW_CAPACITY: u64 = 1 << 15;
/// Bytes per entry: key, meta, value.
pub const ENTRY_SIZE: u64 = 24;
/// Total region size in bytes.
pub const SHADOW_REGION_SIZE: u64 = SHADOW_CAPACITY * ENTRY_SIZE;

const KIND_VALUE: u64 = 1;
const KIND_BIND_MEM: u64 = 2;
const KIND_BIND_CONST: u64 = 3;
const BIND_TAG: u64 = 1 << 63;
/// Meta layout: kind in bits 0..8, size in bits 8..16, entry checksum in
/// bits 16..24 (computed over key, kind|size, and value by
/// [`entry_sum`]). The checksum lets monitor-side readers detect shadow
/// corruption (bit flips, hostile scribbles) instead of trusting the
/// mapping blindly.
const META_SUM_SHIFT: u64 = 16;
const META_LOW_MASK: u64 = 0xffff;

/// 8-bit integrity checksum over one shadow entry. A mixed (splitmix-style)
/// fold so a single flipped bit anywhere in (key, kind|size, value)
/// changes the sum with high probability.
fn entry_sum(key: u64, kindsize: u64, value: u64) -> u64 {
    let mut x = key ^ value.rotate_left(17) ^ (kindsize << 1) ^ 0xB5A1_C3D9_7E4F_0253;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x & 0xff
}

/// Why a checked shadow read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowError {
    /// The shadow mapping itself faulted.
    Fault(OutOfBounds),
    /// An entry failed its integrity checksum.
    Corrupt {
        /// Address of the corrupt entry.
        addr: u64,
    },
}

impl From<OutOfBounds> for ShadowError {
    fn from(e: OutOfBounds) -> Self {
        ShadowError::Fault(e)
    }
}

impl std::fmt::Display for ShadowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShadowError::Fault(e) => write!(f, "shadow mapping fault at {:#x}", e.addr),
            ShadowError::Corrupt { addr } => {
                write!(f, "shadow entry at {addr:#x} failed its checksum")
            }
        }
    }
}

/// A runtime argument binding recorded for a callsite position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Binding {
    /// Position is bound to the sensitive variable at this address.
    Mem(u64),
    /// Position is bound to this constant.
    Const(i64),
}

/// Descriptor of a shadow region mapped at `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowTable {
    /// Base address of the region (the `$gs` segment base).
    pub base: u64,
}

impl ShadowTable {
    /// Creates a descriptor for a region at `base`.
    pub fn new(base: u64) -> Self {
        ShadowTable { base }
    }

    fn slot_addr(&self, slot: u64) -> u64 {
        self.base + (slot & (SHADOW_CAPACITY - 1)) * ENTRY_SIZE
    }

    fn hash(key: u64) -> u64 {
        // Fibonacci hashing; good dispersion for address-shaped keys.
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
    }

    fn bind_key(callsite: u64, pos: u8) -> u64 {
        // Position in bits 62..60 under the tag, callsite in the low 60
        // bits with any bits above 59 XOR-folded back in. Injective for
        // every canonical code address (callsite < 2^60). The previous
        // `callsite << 3` packing silently shifted the top callsite bits
        // out under BIND_TAG — any callsite ≥ 2^60 aliased its low-bits
        // twin at the same position, returning the wrong binding.
        const MASK: u64 = (1 << 60) - 1;
        BIND_TAG | (u64::from(pos & 7) << 60) | ((callsite & MASK) ^ (callsite >> 60))
    }

    /// Probes for `key`, reading each slot's key word with `word`; returns
    /// the address of its entry or of the first empty slot. The write paths
    /// read through [`MemIo::load_u64`], so a guest memory fills its TLB.
    fn probe(
        &self,
        key: u64,
        mut word: impl FnMut(u64) -> Result<u64, OutOfBounds>,
    ) -> Result<(u64, bool), OutOfBounds> {
        let mut slot = Self::hash(key);
        for _ in 0..SHADOW_CAPACITY {
            let ea = self.slot_addr(slot);
            let k = word(ea)?;
            if k == key {
                return Ok((ea, true));
            }
            if k == 0 {
                return Ok((ea, false));
            }
            slot = slot.wrapping_add(1);
        }
        // Table full: overwrite the home slot (bounded memory, like a real
        // fixed-size metadata store under pressure).
        Ok((self.slot_addr(Self::hash(key)), false))
    }

    /// `ctx_write_mem`: refresh the shadow copy of the `size`-byte variable
    /// at `addr` with `value`.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself.
    pub fn write_value<M: MemIo>(
        &self,
        mem: &mut M,
        addr: u64,
        value: u64,
        size: u8,
    ) -> Result<(), OutOfBounds> {
        let (ea, _) = self.probe(addr, |ea| mem.load_u64(ea))?;
        let kindsize = KIND_VALUE | (u64::from(size) << 8);
        mem.write_u64(ea, addr)?;
        mem.write_u64(
            ea + 8,
            kindsize | (entry_sum(addr, kindsize, value) << META_SUM_SHIFT),
        )?;
        mem.write_u64(ea + 16, value)
    }

    /// Reads the shadow copy of the variable at `addr`, if one exists.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself.
    pub fn read_value<M: MemIo>(
        &self,
        mem: &M,
        addr: u64,
    ) -> Result<Option<(u64, u8)>, OutOfBounds> {
        let (ea, found) = self.probe(addr, |ea| mem.read_u64(ea))?;
        if !found {
            return Ok(None);
        }
        let meta = mem.read_u64(ea + 8)?;
        if meta & 0xff != KIND_VALUE {
            return Ok(None);
        }
        let size = ((meta >> 8) & 0xff) as u8;
        Ok(Some((mem.read_u64(ea + 16)?, size)))
    }

    /// `ctx_bind_mem_X`: bind the variable at `var_addr` to position `pos`
    /// of callsite `callsite`.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself.
    pub fn bind_mem<M: MemIo>(
        &self,
        mem: &mut M,
        callsite: u64,
        pos: u8,
        var_addr: u64,
    ) -> Result<(), OutOfBounds> {
        let key = Self::bind_key(callsite, pos);
        let (ea, _) = self.probe(key, |ea| mem.load_u64(ea))?;
        mem.write_u64(ea, key)?;
        mem.write_u64(
            ea + 8,
            KIND_BIND_MEM | (entry_sum(key, KIND_BIND_MEM, var_addr) << META_SUM_SHIFT),
        )?;
        mem.write_u64(ea + 16, var_addr)
    }

    /// `ctx_bind_const_X`: bind constant `value` to position `pos` of
    /// callsite `callsite`.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself.
    pub fn bind_const<M: MemIo>(
        &self,
        mem: &mut M,
        callsite: u64,
        pos: u8,
        value: i64,
    ) -> Result<(), OutOfBounds> {
        let key = Self::bind_key(callsite, pos);
        let (ea, _) = self.probe(key, |ea| mem.load_u64(ea))?;
        mem.write_u64(ea, key)?;
        mem.write_u64(
            ea + 8,
            KIND_BIND_CONST | (entry_sum(key, KIND_BIND_CONST, value as u64) << META_SUM_SHIFT),
        )?;
        mem.write_u64(ea + 16, value as u64)
    }

    /// Fetches the binding for `(callsite, pos)`, if any.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself.
    pub fn get_binding<M: MemIo>(
        &self,
        mem: &M,
        callsite: u64,
        pos: u8,
    ) -> Result<Option<Binding>, OutOfBounds> {
        let key = Self::bind_key(callsite, pos);
        let (ea, found) = self.probe(key, |ea| mem.read_u64(ea))?;
        if !found {
            return Ok(None);
        }
        let meta = mem.read_u64(ea + 8)?;
        let value = mem.read_u64(ea + 16)?;
        Ok(match meta & 0xff {
            KIND_BIND_MEM => Some(Binding::Mem(value)),
            KIND_BIND_CONST => Some(Binding::Const(value as i64)),
            _ => None,
        })
    }

    /// [`ShadowTable::probe`] with integrity checking: every slot the probe
    /// path visits is validated, not just the final one. Without this, a
    /// single flipped bit in a stored *key* silently diverts the probe past
    /// the real entry to an empty slot — the entry "vanishes" and the bytes
    /// it shadows would escape verification entirely.
    fn probe_checked<M: MemIo>(&self, mem: &M, key: u64) -> Result<(u64, bool), ShadowError> {
        let mut slot = Self::hash(key);
        for visited in 1..=SHADOW_CAPACITY {
            let ea = self.slot_addr(slot);
            let k = mem.read_u64(ea)?;
            if k == key {
                bastion_obs::sketch_observe("shadow.probe_len", visited);
                return Ok((ea, true));
            }
            let meta = mem.read_u64(ea + 8)?;
            let value = mem.read_u64(ea + 16)?;
            if k == 0 {
                // An empty-looking slot with live metadata is an occupied
                // slot whose key was wiped.
                if meta != 0 || value != 0 {
                    return Err(ShadowError::Corrupt { addr: ea });
                }
                bastion_obs::sketch_observe("shadow.probe_len", visited);
                return Ok((ea, false));
            }
            // A foreign slot redirects the probe; verify it really is a
            // healthy foreign entry before trusting the redirection.
            let kindsize = meta & META_LOW_MASK;
            if (meta >> META_SUM_SHIFT) & 0xff != entry_sum(k, kindsize, value) {
                return Err(ShadowError::Corrupt { addr: ea });
            }
            slot = slot.wrapping_add(1);
        }
        Ok((self.slot_addr(Self::hash(key)), false))
    }

    /// Reads an entry at `ea` and verifies its checksum against `key`.
    fn read_entry_checked<M: MemIo>(
        &self,
        mem: &M,
        ea: u64,
        key: u64,
    ) -> Result<(u64, u64), ShadowError> {
        let meta = mem.read_u64(ea + 8)?;
        let value = mem.read_u64(ea + 16)?;
        let kindsize = meta & META_LOW_MASK;
        if (meta >> META_SUM_SHIFT) & 0xff != entry_sum(key, kindsize, value) {
            return Err(ShadowError::Corrupt { addr: ea });
        }
        Ok((kindsize, value))
    }

    /// [`ShadowTable::read_value`] with integrity checking: the monitor's
    /// variant. A checksum mismatch is reported as corruption instead of
    /// being trusted.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself, and reports entries
    /// that fail their checksum.
    pub fn read_value_checked<M: MemIo>(
        &self,
        mem: &M,
        addr: u64,
    ) -> Result<Option<(u64, u8)>, ShadowError> {
        let (ea, found) = self.probe_checked(mem, addr)?;
        if !found {
            return Ok(None);
        }
        let (kindsize, value) = self.read_entry_checked(mem, ea, addr)?;
        if kindsize & 0xff != KIND_VALUE {
            return Ok(None);
        }
        Ok(Some((value, ((kindsize >> 8) & 0xff) as u8)))
    }

    /// [`ShadowTable::get_binding`] with integrity checking: the monitor's
    /// variant.
    ///
    /// # Errors
    /// Propagates faults on the shadow region itself, and reports entries
    /// that fail their checksum.
    pub fn get_binding_checked<M: MemIo>(
        &self,
        mem: &M,
        callsite: u64,
        pos: u8,
    ) -> Result<Option<Binding>, ShadowError> {
        let key = Self::bind_key(callsite, pos);
        let (ea, found) = self.probe_checked(mem, key)?;
        if !found {
            return Ok(None);
        }
        let (kindsize, value) = self.read_entry_checked(mem, ea, key)?;
        Ok(match kindsize & 0xff {
            KIND_BIND_MEM => Some(Binding::Mem(value)),
            KIND_BIND_CONST => Some(Binding::Const(value as i64)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;

    fn setup() -> (Memory, ShadowTable) {
        let mut mem = Memory::new();
        let base = 0x5800_0000_0000;
        mem.map_region(base, SHADOW_REGION_SIZE);
        (mem, ShadowTable::new(base))
    }

    #[test]
    fn value_roundtrip_and_update() {
        let (mut mem, t) = setup();
        t.write_value(&mut mem, 0x7fff_1000, 42, 8).unwrap();
        assert_eq!(t.read_value(&mem, 0x7fff_1000).unwrap(), Some((42, 8)));
        t.write_value(&mut mem, 0x7fff_1000, 99, 8).unwrap();
        assert_eq!(t.read_value(&mem, 0x7fff_1000).unwrap(), Some((99, 8)));
        assert_eq!(t.read_value(&mem, 0x7fff_2000).unwrap(), None);
    }

    #[test]
    fn bindings_are_per_callsite_and_position() {
        let (mut mem, t) = setup();
        t.bind_mem(&mut mem, 0x40_1000, 3, 0x7fff_0008).unwrap();
        t.bind_const(&mut mem, 0x40_1000, 1, -1).unwrap();
        t.bind_const(&mut mem, 0x40_2000, 1, 7).unwrap();
        assert_eq!(
            t.get_binding(&mem, 0x40_1000, 3).unwrap(),
            Some(Binding::Mem(0x7fff_0008))
        );
        assert_eq!(
            t.get_binding(&mem, 0x40_1000, 1).unwrap(),
            Some(Binding::Const(-1))
        );
        assert_eq!(
            t.get_binding(&mem, 0x40_2000, 1).unwrap(),
            Some(Binding::Const(7))
        );
        assert_eq!(t.get_binding(&mem, 0x40_2000, 2).unwrap(), None);
    }

    #[test]
    fn many_entries_survive_collisions() {
        let (mut mem, t) = setup();
        for i in 0..2000u64 {
            t.write_value(&mut mem, 0x1_0000 + i * 8, i * 3, 8).unwrap();
        }
        for i in 0..2000u64 {
            assert_eq!(
                t.read_value(&mem, 0x1_0000 + i * 8).unwrap(),
                Some((i * 3, 8))
            );
        }
    }

    #[test]
    fn high_address_callsites_do_not_alias() {
        // Under the old `callsite << 3` packing these two callsites mapped
        // to the same key at the same position (the high bits shifted out
        // under BIND_TAG), so the second bind clobbered the first.
        let (mut mem, t) = setup();
        let low = 0x40_1000u64;
        let high = (1u64 << 60) | low;
        t.bind_const(&mut mem, low, 2, 111).unwrap();
        t.bind_const(&mut mem, high, 2, 222).unwrap();
        assert_eq!(
            t.get_binding(&mem, low, 2).unwrap(),
            Some(Binding::Const(111))
        );
        assert_eq!(
            t.get_binding(&mem, high, 2).unwrap(),
            Some(Binding::Const(222))
        );
    }

    #[test]
    fn byte_sized_entries_keep_their_size() {
        let (mut mem, t) = setup();
        t.write_value(&mut mem, 0x9000, 0x41, 1).unwrap();
        assert_eq!(t.read_value(&mem, 0x9000).unwrap(), Some((0x41, 1)));
    }

    /// Locates the slot holding `key` by scanning the region (test-only).
    fn find_entry(mem: &Memory, t: &ShadowTable, key: u64) -> u64 {
        for slot in 0..SHADOW_CAPACITY {
            let ea = t.base + slot * ENTRY_SIZE;
            if mem.read_u64(ea).unwrap() == key {
                return ea;
            }
        }
        panic!("entry not found");
    }

    #[test]
    fn checked_reads_match_unchecked_on_intact_entries() {
        let (mut mem, t) = setup();
        t.write_value(&mut mem, 0x7fff_1000, 42, 8).unwrap();
        t.bind_mem(&mut mem, 0x40_1000, 3, 0x7fff_1000).unwrap();
        t.bind_const(&mut mem, 0x40_1000, 1, -5).unwrap();
        assert_eq!(
            t.read_value_checked(&mem, 0x7fff_1000).unwrap(),
            Some((42, 8))
        );
        assert_eq!(t.read_value_checked(&mem, 0x7fff_2000).unwrap(), None);
        assert_eq!(
            t.get_binding_checked(&mem, 0x40_1000, 3).unwrap(),
            Some(Binding::Mem(0x7fff_1000))
        );
        assert_eq!(
            t.get_binding_checked(&mem, 0x40_1000, 1).unwrap(),
            Some(Binding::Const(-5))
        );
        assert_eq!(t.get_binding_checked(&mem, 0x40_1000, 2).unwrap(), None);
    }

    #[test]
    fn checked_reads_detect_value_corruption() {
        let (mut mem, t) = setup();
        t.write_value(&mut mem, 0x7fff_1000, 42, 8).unwrap();
        let ea = find_entry(&mem, &t, 0x7fff_1000);
        let v = mem.read_u64(ea + 16).unwrap();
        mem.write_u64(ea + 16, v ^ (1 << 13)).unwrap();
        // The unchecked reader happily returns the corrupted value; the
        // checked reader reports it.
        assert_eq!(
            t.read_value(&mem, 0x7fff_1000).unwrap(),
            Some((42 ^ (1 << 13), 8))
        );
        assert_eq!(
            t.read_value_checked(&mem, 0x7fff_1000),
            Err(ShadowError::Corrupt { addr: ea })
        );
    }

    #[test]
    fn checked_reads_detect_meta_corruption() {
        let (mut mem, t) = setup();
        t.bind_const(&mut mem, 0x40_1000, 2, 7).unwrap();
        let key = ShadowTable::bind_key(0x40_1000, 2);
        let ea = find_entry(&mem, &t, key);
        // Flip the binding kind from const to mem — an attack that would
        // redirect argument validation to an attacker-chosen address.
        let meta = mem.read_u64(ea + 8).unwrap();
        mem.write_u64(ea + 8, (meta & !0xff) | 2).unwrap();
        assert!(matches!(
            t.get_binding_checked(&mem, 0x40_1000, 2),
            Err(ShadowError::Corrupt { .. })
        ));
    }

    #[test]
    fn checked_probe_detects_key_corruption() {
        let (mut mem, t) = setup();
        t.write_value(&mut mem, 0x7fff_1000, 42, 8).unwrap();
        let ea = find_entry(&mem, &t, 0x7fff_1000);
        // Flip one key bit: the plain probe now misses the entry entirely
        // (the byte it shadows would silently escape verification), but the
        // checked probe refuses to walk past an inconsistent slot.
        let k = mem.read_u64(ea).unwrap();
        mem.write_u64(ea, k ^ (1 << 21)).unwrap();
        assert_eq!(t.read_value(&mem, 0x7fff_1000).unwrap(), None);
        assert!(matches!(
            t.read_value_checked(&mem, 0x7fff_1000),
            Err(ShadowError::Corrupt { .. })
        ));
    }

    #[test]
    fn checked_probe_detects_wiped_key() {
        let (mut mem, t) = setup();
        t.write_value(&mut mem, 0x7fff_1000, 42, 8).unwrap();
        let ea = find_entry(&mem, &t, 0x7fff_1000);
        // Zero the key: the slot now looks empty to the plain probe, but
        // its live metadata betrays the wipe.
        mem.write_u64(ea, 0).unwrap();
        assert_eq!(t.read_value(&mem, 0x7fff_1000).unwrap(), None);
        assert!(matches!(
            t.read_value_checked(&mem, 0x7fff_1000),
            Err(ShadowError::Corrupt { .. })
        ));
    }

    #[test]
    fn rebinding_restamps_the_checksum() {
        let (mut mem, t) = setup();
        t.bind_const(&mut mem, 0x40_1000, 1, 7).unwrap();
        t.bind_const(&mut mem, 0x40_1000, 1, 8).unwrap();
        assert_eq!(
            t.get_binding_checked(&mem, 0x40_1000, 1).unwrap(),
            Some(Binding::Const(8))
        );
    }
}
