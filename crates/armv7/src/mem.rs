//! Physical memory with TrustZone partitioning.
//!
//! Memory is "a mapping from word-aligned addresses to 32-bit values"
//! (paper §5.1). A TrustZone-aware memory controller tags regions as secure
//! and rejects non-secure accesses to them (§3.3); the Komodo bootloader
//! reserves one such region for the monitor and the secure page pool.
//!
//! The model also counts word accesses, which feeds the monitor's cycle
//! accounting for Table 3.

use crate::error::{MemFault, MemFaultKind};
use crate::fxhash::FxHashSet;
use crate::word::{page_aligned, page_base, word_aligned, Addr, Word, WORDS_PER_PAGE, WORD_BYTES};

/// Security attribute of an access, as driven onto the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessAttrs {
    /// Whether the access is issued with the secure attribute.
    pub secure: bool,
    /// Whether the access comes from privileged execution.
    pub privileged: bool,
}

impl AccessAttrs {
    /// Secure privileged access (the monitor).
    pub const MONITOR: AccessAttrs = AccessAttrs {
        secure: true,
        privileged: true,
    };
    /// Secure unprivileged access (enclave user mode).
    pub const ENCLAVE: AccessAttrs = AccessAttrs {
        secure: true,
        privileged: false,
    };
    /// Non-secure access (normal-world OS or application, or a device).
    pub const NORMAL: AccessAttrs = AccessAttrs {
        secure: false,
        privileged: true,
    };
}

/// A contiguous RAM region.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Region {
    base: Addr,
    words: Vec<Word>,
    /// Secure regions are invisible to non-secure accesses.
    secure: bool,
}

impl Region {
    fn len_bytes(&self) -> u32 {
        (self.words.len() as u32) * WORD_BYTES
    }

    fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && (addr - self.base) < self.len_bytes()
    }
}

/// Physical memory: a set of disjoint RAM regions plus access counters.
#[derive(Clone, Debug)]
pub struct PhysMem {
    regions: Vec<Region>,
    /// Number of word reads since construction (cycle accounting input).
    pub reads: u64,
    /// Number of word writes since construction.
    pub writes: u64,
    /// Page bases whose decoded contents the fetch accelerator holds;
    /// writes into these bump [`PhysMem::code_gen`]. Host-side state, not
    /// part of the architectural memory contents.
    code_watch: FxHashSet<Addr>,
    /// Generation counter bumped by every write into a watched page; the
    /// accelerator compares it to detect stale decoded code.
    code_gen: u64,
}

/// Architectural equality: region contents and access counters. The code
/// watch is host-side accelerator bookkeeping and deliberately excluded —
/// two machines that executed identically compare equal regardless of
/// whether the fetch accelerator was on.
impl PartialEq for PhysMem {
    fn eq(&self, other: &Self) -> bool {
        self.regions == other.regions && self.reads == other.reads && self.writes == other.writes
    }
}

impl PhysMem {
    /// An empty physical address space.
    pub fn new() -> PhysMem {
        PhysMem {
            regions: Vec::new(),
            reads: 0,
            writes: 0,
            code_watch: FxHashSet::default(),
            code_gen: 0,
        }
    }

    /// Adds a zero-initialised RAM region.
    ///
    /// # Panics
    ///
    /// Panics if the region is unaligned, empty, overflows the address
    /// space, or overlaps an existing region — these are platform
    /// construction errors, not runtime conditions.
    pub fn add_region(&mut self, base: Addr, size: u32, secure: bool) {
        assert!(word_aligned(base) && word_aligned(size) && size > 0);
        assert!(base.checked_add(size - 1).is_some(), "region overflow");
        for r in &self.regions {
            let r_end = r.base as u64 + r.len_bytes() as u64;
            let end = base as u64 + size as u64;
            assert!(
                (base as u64) >= r_end || end <= r.base as u64,
                "region overlap"
            );
        }
        self.regions.push(Region {
            base,
            words: vec![0; (size / WORD_BYTES) as usize],
            secure,
        });
    }

    /// Zeroes every region's contents and resets the access counters and
    /// code watch, keeping the region allocations — the memory half of the
    /// fast re-boot path. A reset memory is indistinguishable (contents,
    /// counters, equality) from one freshly built with the same
    /// [`PhysMem::add_region`] calls; only the host-side allocations are
    /// reused. The code generation stays monotone so any decode cache
    /// still holding pre-reset contents observes a bump.
    pub fn reset_contents(&mut self) {
        for r in &mut self.regions {
            r.words.fill(0);
        }
        self.reads = 0;
        self.writes = 0;
        self.code_watch.clear();
        self.code_gen = self.code_gen.wrapping_add(1);
    }

    /// Whether `addr` lies in a secure region.
    pub fn is_secure(&self, addr: Addr) -> bool {
        self.regions.iter().any(|r| r.contains(addr) && r.secure)
    }

    /// Whether `addr` is backed by RAM at all.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.regions.iter().any(|r| r.contains(addr))
    }

    fn region_for(&self, addr: Addr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    fn region_for_mut(&mut self, addr: Addr) -> Option<&mut Region> {
        self.regions.iter_mut().find(|r| r.contains(addr))
    }

    /// Reads the word at physical address `addr` with bus attributes
    /// `attrs`, enforcing TrustZone partitioning.
    pub fn read(&mut self, addr: Addr, attrs: AccessAttrs) -> Result<Word, MemFault> {
        if !word_aligned(addr) {
            return Err(MemFault::new(addr, MemFaultKind::Unaligned, false));
        }
        let r = self
            .region_for(addr)
            .ok_or(MemFault::new(addr, MemFaultKind::Unmapped, false))?;
        if r.secure && !attrs.secure {
            return Err(MemFault::new(addr, MemFaultKind::SecurityViolation, false));
        }
        self.reads += 1;
        let r = self.region_for(addr).expect("checked above");
        Ok(r.words[((addr - r.base) / WORD_BYTES) as usize])
    }

    /// Observer read: the word at `addr` if word-aligned and RAM-backed,
    /// without bumping the access counters or enforcing bus attributes.
    /// For host-side observers only (e.g. the flight recorder assembling
    /// a page-DB transition event) — architectural accesses must use
    /// [`PhysMem::read`] so the counters and TrustZone checks apply.
    pub fn peek(&self, addr: Addr) -> Option<Word> {
        if !word_aligned(addr) {
            return None;
        }
        let r = self.region_for(addr)?;
        Some(r.words[((addr - r.base) / WORD_BYTES) as usize])
    }

    /// Writes the word at physical address `addr`.
    pub fn write(&mut self, addr: Addr, val: Word, attrs: AccessAttrs) -> Result<(), MemFault> {
        if !word_aligned(addr) {
            return Err(MemFault::new(addr, MemFaultKind::Unaligned, true));
        }
        let secure_region = match self.region_for(addr) {
            Some(r) => r.secure,
            None => return Err(MemFault::new(addr, MemFaultKind::Unmapped, true)),
        };
        if secure_region && !attrs.secure {
            return Err(MemFault::new(addr, MemFaultKind::SecurityViolation, true));
        }
        self.writes += 1;
        let r = self.region_for_mut(addr).expect("checked above");
        let base = r.base;
        r.words[((addr - base) / WORD_BYTES) as usize] = val;
        if !self.code_watch.is_empty() && self.code_watch.contains(&page_base(addr)) {
            self.code_gen = self.code_gen.wrapping_add(1);
        }
        Ok(())
    }

    /// Whether `words` consecutive word accesses starting at `addr` with
    /// bus attributes `attrs` would all succeed: `addr` aligned, the whole
    /// span inside one RAM region, and the region's TrustZone partition
    /// admitting `attrs`. Side-effect free (no counters move), so the
    /// multi-word fast path can vet every word before committing any.
    pub(crate) fn span_accessible(&self, addr: Addr, words: u32, attrs: AccessAttrs) -> bool {
        if !word_aligned(addr) || words == 0 {
            return false;
        }
        let Some(last) = addr.checked_add((words - 1) * WORD_BYTES) else {
            return false;
        };
        match self.region_for(addr) {
            Some(r) => r.contains(last) && (!r.secure || attrs.secure),
            None => false,
        }
    }

    /// Records `n` word reads in one batch — the superblock runner's
    /// accounting for the instruction fetches its trace replays, each of
    /// which the uncached path would have performed as a counted
    /// [`PhysMem::read`].
    #[inline]
    pub(crate) fn note_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Registers the page at `page` (a page base) for write monitoring on
    /// behalf of the fetch accelerator: any subsequent write into it bumps
    /// [`PhysMem::code_gen`].
    pub(crate) fn watch_code_page(&mut self, page: Addr) {
        debug_assert!(page_aligned(page));
        self.code_watch.insert(page);
    }

    /// Drops all watched pages (the accelerator has dropped its copies).
    /// The generation counter is left monotone.
    pub(crate) fn clear_code_watch(&mut self) {
        self.code_watch.clear();
    }

    /// Current code-page write generation (see [`PhysMem::watch_code_page`]).
    #[inline]
    pub(crate) fn code_gen(&self) -> u64 {
        self.code_gen
    }

    /// Raw snapshot of one fully-RAM-backed page for decode-cache fill:
    /// the page's words and whether its region is secure. Bypasses the
    /// access counters and attribute checks — callers must re-impose both
    /// (the accelerator does) to stay architecturally invisible.
    pub(crate) fn code_page_snapshot(&self, page: Addr) -> Option<(&[Word], bool)> {
        debug_assert!(page_aligned(page));
        let r = self.region_for(page)?;
        let start = ((page - r.base) / WORD_BYTES) as usize;
        let end = start + WORDS_PER_PAGE;
        if end > r.words.len() {
            return None; // Page straddles the region end; stay uncached.
        }
        Some((&r.words[start..end], r.secure))
    }

    /// Reads a byte (for guest `LDRB`); the containing word is read and the
    /// byte extracted little-endian, as on ARM.
    pub fn read_byte(&mut self, addr: Addr, attrs: AccessAttrs) -> Result<u8, MemFault> {
        let w = self.read(addr & !3, attrs)?;
        Ok((w >> ((addr & 3) * 8)) as u8)
    }

    /// Writes a byte (for guest `STRB`) with read-modify-write of the word.
    pub fn write_byte(&mut self, addr: Addr, val: u8, attrs: AccessAttrs) -> Result<(), MemFault> {
        let aligned = addr & !3;
        let w = self.read(aligned, attrs)?;
        let shift = (addr & 3) * 8;
        let nw = (w & !(0xffu32 << shift)) | ((val as u32) << shift);
        self.write(aligned, nw, attrs)
    }

    /// Copies `words.len()` words into memory starting at `addr` (loader
    /// and test convenience; monitor-attributed).
    pub fn load_words(&mut self, addr: Addr, words: &[Word]) -> Result<(), MemFault> {
        for (i, w) in words.iter().enumerate() {
            self.write(addr + (i as u32) * WORD_BYTES, *w, AccessAttrs::MONITOR)?;
        }
        Ok(())
    }

    /// Reads `n` words starting at `addr` (test convenience).
    pub fn dump_words(&mut self, addr: Addr, n: usize) -> Result<Vec<Word>, MemFault> {
        (0..n)
            .map(|i| self.read(addr + (i as u32) * WORD_BYTES, AccessAttrs::MONITOR))
            .collect()
    }
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        let mut m = PhysMem::new();
        m.add_region(0x0000_0000, 0x1_0000, false);
        m.add_region(0x8000_0000, 0x1_0000, true);
        m
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(0x100, 0xdeadbeef, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.read(0x100, AccessAttrs::NORMAL).unwrap(), 0xdeadbeef);
    }

    #[test]
    fn normal_world_blocked_from_secure() {
        let mut m = mem();
        m.write(0x8000_0000, 7, AccessAttrs::MONITOR).unwrap();
        let err = m.read(0x8000_0000, AccessAttrs::NORMAL).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::SecurityViolation);
        let err = m.write(0x8000_0004, 1, AccessAttrs::NORMAL).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::SecurityViolation);
        // The secret is untouched.
        assert_eq!(m.read(0x8000_0000, AccessAttrs::MONITOR).unwrap(), 7);
    }

    #[test]
    fn enclave_attrs_reach_secure() {
        let mut m = mem();
        m.write(0x8000_0000, 9, AccessAttrs::ENCLAVE).unwrap();
        assert_eq!(m.read(0x8000_0000, AccessAttrs::ENCLAVE).unwrap(), 9);
    }

    #[test]
    fn unmapped_and_unaligned_fault() {
        let mut m = mem();
        assert_eq!(
            m.read(0x4000_0000, AccessAttrs::MONITOR).unwrap_err().kind,
            MemFaultKind::Unmapped
        );
        assert_eq!(
            m.read(0x102, AccessAttrs::MONITOR).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
    }

    #[test]
    fn byte_access_little_endian() {
        let mut m = mem();
        m.write(0x200, 0x0403_0201, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.read_byte(0x200, AccessAttrs::NORMAL).unwrap(), 0x01);
        assert_eq!(m.read_byte(0x203, AccessAttrs::NORMAL).unwrap(), 0x04);
        m.write_byte(0x201, 0xff, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.read(0x200, AccessAttrs::NORMAL).unwrap(), 0x0403_ff01);
    }

    #[test]
    fn access_counters_increment() {
        let mut m = mem();
        let r0 = m.reads;
        let w0 = m.writes;
        m.write(0x100, 1, AccessAttrs::NORMAL).unwrap();
        m.read(0x100, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.reads, r0 + 1);
        assert_eq!(m.writes, w0 + 1);
        // Faulting accesses do not count.
        let _ = m.read(0x8000_0000, AccessAttrs::NORMAL);
        assert_eq!(m.reads, r0 + 1);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let mut m = PhysMem::new();
        m.add_region(0, 0x1000, false);
        m.add_region(0x800, 0x1000, false);
    }

    #[test]
    fn load_dump_roundtrip() {
        let mut m = mem();
        m.load_words(0x400, &[1, 2, 3]).unwrap();
        assert_eq!(m.dump_words(0x400, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn code_watch_generation_tracks_writes_into_watched_pages() {
        let mut m = mem();
        assert_eq!(m.code_gen(), 0);
        m.write(0x1000, 1, AccessAttrs::NORMAL).unwrap(); // Unwatched.
        assert_eq!(m.code_gen(), 0);
        m.watch_code_page(0x1000);
        m.write(0x1ffc, 2, AccessAttrs::NORMAL).unwrap(); // Same page.
        assert_eq!(m.code_gen(), 1);
        m.write_byte(0x1003, 0xab, AccessAttrs::NORMAL).unwrap(); // RMW path.
        assert_eq!(m.code_gen(), 2);
        m.write(0x2000, 3, AccessAttrs::NORMAL).unwrap(); // Next page.
        assert_eq!(m.code_gen(), 2);
        m.clear_code_watch();
        m.write(0x1000, 4, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.code_gen(), 2, "cleared watch must stop bumping");
    }

    #[test]
    fn code_page_snapshot_is_raw_and_bounded() {
        let mut m = mem();
        m.write(0x1004, 42, AccessAttrs::NORMAL).unwrap();
        let r0 = m.reads;
        let (words, secure) = m.code_page_snapshot(0x1000).unwrap();
        assert_eq!(words.len(), WORDS_PER_PAGE);
        assert_eq!(words[1], 42);
        assert!(!secure);
        assert!(m.code_page_snapshot(0x8000_0000).unwrap().1);
        assert_eq!(m.reads, r0, "snapshots must not count as reads");
        assert!(m.code_page_snapshot(0x4000_0000).is_none());
    }

    #[test]
    fn peek_is_counter_free_and_attribute_blind() {
        let mut m = mem();
        m.write(0x1004, 42, AccessAttrs::NORMAL).unwrap();
        let (r0, w0) = (m.reads, m.writes);
        assert_eq!(m.peek(0x1004), Some(42));
        assert_eq!(m.peek(0x8000_0000), Some(0), "secure RAM is peekable");
        assert_eq!(m.peek(0x1002), None, "unaligned");
        assert_eq!(m.peek(0x4000_0000), None, "unmapped");
        assert_eq!((m.reads, m.writes), (r0, w0), "peek must not count");
    }

    #[test]
    fn span_accessible_vets_every_word_without_counting() {
        let mut m = PhysMem::new();
        m.add_region(0x1000, 0x1000, false);
        m.add_region(0x2000, 0x1000, true);
        let ok = |m: &PhysMem, a, n, attrs| m.span_accessible(a, n, attrs);
        assert!(
            ok(&m, 0x1ff0, 4, AccessAttrs::NORMAL),
            "ends on the last word"
        );
        assert!(
            !ok(&m, 0x1ff4, 4, AccessAttrs::MONITOR),
            "runs into the next region"
        );
        assert!(!ok(&m, 0x1ff2, 1, AccessAttrs::NORMAL), "unaligned");
        assert!(
            !ok(&m, 0x2000, 1, AccessAttrs::NORMAL),
            "secure frame, non-secure access"
        );
        assert!(ok(&m, 0x2000, 15, AccessAttrs::ENCLAVE));
        assert!(!ok(&m, 0x3ffc, 2, AccessAttrs::MONITOR), "runs off RAM");
        assert!(!ok(&m, 0xffff_fffc, 2, AccessAttrs::MONITOR), "wraps");
        assert_eq!((m.reads, m.writes), (0, 0), "vetting must not count");
    }

    #[test]
    fn equality_ignores_code_watch_state() {
        let mut a = mem();
        let mut b = mem();
        a.write(0x100, 9, AccessAttrs::NORMAL).unwrap();
        b.write(0x100, 9, AccessAttrs::NORMAL).unwrap();
        a.watch_code_page(0x1000);
        assert_eq!(a, b, "watch bookkeeping must be invisible to equality");
        b.write(0x104, 1, AccessAttrs::NORMAL).unwrap();
        assert_ne!(a, b);
    }
}
