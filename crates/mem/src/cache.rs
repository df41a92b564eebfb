//! Set-associative L1 data cache with HTM support bits.
//!
//! The L1 is the speculative-versioning store of the best-effort HTM (the
//! paper's RTM-like baseline): each line carries
//!
//! * a MESI [`CoherenceState`],
//! * an **SM** (speculatively modified) bit marking write-set lines, and
//! * a **spec-received** bit marking lines obtained through a `SpecResp`
//!   and still pending validation (they also count as write-set lines,
//!   §III-A).
//!
//! Replacement is LRU but *favours* keeping write-set blocks, as the paper
//! notes real RTM replacement does; evicting an SM or spec-received line is
//! reported to the caller, which turns it into a capacity abort.
//!
//! Commit and abort clear every SM and spec-received bit at once (a flash
//! operation in hardware). The cache remembers which sets may hold such
//! lines, so both cost what the transaction touched, not the whole L1.

use crate::addr::LineAddr;
use crate::digest::{Digest, ElementHashes};
use crate::line::Line;
use chats_snap::Snap;
use std::fmt;

/// MESI stable states as seen by the private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceState {
    /// Not present / no permissions.
    Invalid,
    /// Read permission, possibly other sharers.
    Shared,
    /// Read/write permission, clean, no other copies.
    Exclusive,
    /// Read/write permission, dirty.
    Modified,
}

impl CoherenceState {
    /// `true` when the state grants store permission.
    #[must_use]
    pub fn is_writable(self) -> bool {
        matches!(self, CoherenceState::Exclusive | CoherenceState::Modified)
    }

    /// `true` when the state grants load permission.
    #[must_use]
    pub fn is_readable(self) -> bool {
        !matches!(self, CoherenceState::Invalid)
    }
}

/// One resident cache line.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Which line this is.
    pub addr: LineAddr,
    /// MESI state.
    pub state: CoherenceState,
    /// Current (possibly speculative) data.
    pub data: Line,
    /// Speculatively modified inside the running transaction (write set).
    pub sm: bool,
    /// Received via `SpecResp` and not yet validated.
    pub spec_received: bool,
    lru: u64,
}

/// What [`Cache::insert`] displaced, if anything.
#[derive(Debug, Clone)]
pub enum EvictOutcome {
    /// A way was free; nothing was displaced.
    None,
    /// `victim` was evicted to make room. The caller must inspect its `sm`
    /// and `spec_received` bits: displacing transactional state aborts the
    /// transaction, and `Modified` non-transactional data must be written
    /// back.
    Evicted(CacheEntry),
}

/// A set-associative write-back cache.
///
/// # Example
///
/// ```
/// use chats_mem::{Cache, CoherenceState, Line, LineAddr};
/// let mut c = Cache::new(4, 2);
/// c.insert(LineAddr(1), CoherenceState::Shared, Line::zeroed());
/// assert!(c.lookup(LineAddr(1)).is_some());
/// assert!(c.lookup(LineAddr(2)).is_none());
/// ```
pub struct Cache {
    sets: usize,
    ways: usize,
    entries: Vec<Vec<CacheEntry>>,
    lru_clock: u64,
    /// Commitment hash per set; every method that changes a set marks it.
    set_hashes: ElementHashes,
    /// One bit per set that may hold an SM or spec-received line: set
    /// wherever a set is written or a `&mut CacheEntry` handed out,
    /// cleared by commit and abort. Derived from `entries`, so it is
    /// neither hashed nor serialized.
    spec_sets: Vec<u64>,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field(
                "resident",
                &self.entries.iter().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Cache {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Cache {
            sets,
            ways,
            entries: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            lru_clock: 0,
            set_hashes: ElementHashes::default(),
            spec_sets: vec![0; sets.div_ceil(64)],
        }
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        addr.set_index(self.sets)
    }

    /// Immutable lookup; does not touch LRU order.
    pub fn lookup(&self, addr: LineAddr) -> Option<&CacheEntry> {
        self.entries[self.set_of(addr)]
            .iter()
            .find(|e| e.addr == addr && e.state.is_readable())
    }

    /// Mutable lookup; refreshes LRU order.
    pub fn lookup_mut(&mut self, addr: LineAddr) -> Option<&mut CacheEntry> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set = self.set_of(addr);
        let entry = self.entries[set]
            .iter_mut()
            .find(|e| e.addr == addr && e.state.is_readable());
        if let Some(e) = entry {
            self.set_hashes.mark(set);
            self.spec_sets[set / 64] |= 1 << (set % 64);
            e.lru = clock;
            Some(e)
        } else {
            None
        }
    }

    /// Inserts (or overwrites) a line, choosing a victim if the set is full.
    ///
    /// Victim selection prefers, in order: an invalid way, the LRU line that
    /// is *not* part of the write set, then the LRU line overall. The caller
    /// decides what an eviction means (writeback, capacity abort, ...).
    pub fn insert(&mut self, addr: LineAddr, state: CoherenceState, data: Line) -> EvictOutcome {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set = self.set_of(addr);
        let ways = self.ways;
        self.set_hashes.mark(set);
        self.spec_sets[set / 64] |= 1 << (set % 64);
        let lines = &mut self.entries[set];

        if let Some(e) = lines.iter_mut().find(|e| e.addr == addr) {
            e.state = state;
            e.data = data;
            e.lru = clock;
            return EvictOutcome::None;
        }

        let fresh = CacheEntry {
            addr,
            state,
            data,
            sm: false,
            spec_received: false,
            lru: clock,
        };

        if lines.len() < ways {
            lines.push(fresh);
            return EvictOutcome::None;
        }

        // Full set: evict. Prefer non-write-set LRU victims.
        let victim_idx = lines
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.sm && !e.spec_received)
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("full set has at least one way")
            });
        let victim = std::mem::replace(&mut lines[victim_idx], fresh);
        EvictOutcome::Evicted(victim)
    }

    /// Drops a line entirely (external invalidation). Returns the removed
    /// entry so the caller can inspect its transactional bits and data.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheEntry> {
        let set = self.set_of(addr);
        let lines = &mut self.entries[set];
        let idx = lines.iter().position(|e| e.addr == addr)?;
        self.set_hashes.mark(set);
        Some(lines.swap_remove(idx))
    }

    /// Conditional gang invalidation of all speculative lines (write set
    /// and spec-received), as on transaction abort. Visits only the sets
    /// that may hold them.
    pub fn drop_speculative(&mut self) {
        debug_assert!(self.speculative_lines_are_tracked());
        for (w, word) in self.spec_sets.iter_mut().enumerate() {
            for i in set_bits(w, std::mem::take(word)) {
                let set = &mut self.entries[i];
                let before = set.len();
                set.retain(|e| !e.sm && !e.spec_received);
                if set.len() != before {
                    self.set_hashes.mark(i);
                }
            }
        }
    }

    /// Clears the SM and spec-received bits of every line (transaction
    /// commit): speculative data becomes the committed, `Modified` version.
    /// Visits only the sets that may hold speculative lines.
    pub fn commit_speculative(&mut self) {
        debug_assert!(self.speculative_lines_are_tracked());
        for (w, word) in self.spec_sets.iter_mut().enumerate() {
            for i in set_bits(w, std::mem::take(word)) {
                for e in &mut self.entries[i] {
                    if e.sm || e.spec_received {
                        e.sm = false;
                        e.spec_received = false;
                        e.state = CoherenceState::Modified;
                        self.set_hashes.mark(i);
                    }
                }
            }
        }
    }

    /// The write set as the abort path trains the write predictor with
    /// it: SM lines that were not received speculatively, in (set, way)
    /// order — the order [`Cache::iter`] would yield them in.
    pub fn speculative_writes(&self) -> impl Iterator<Item = &CacheEntry> {
        self.spec_sets
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(w, word))
            .flat_map(|i| &self.entries[i])
            .filter(|e| e.sm && !e.spec_received)
    }

    /// The invariant behind the set bitmap: no SM or spec-received line
    /// sits in an unmarked set.
    fn speculative_lines_are_tracked(&self) -> bool {
        self.entries.iter().enumerate().all(|(i, set)| {
            self.spec_sets[i / 64] & (1 << (i % 64)) != 0
                || set.iter().all(|e| !e.sm && !e.spec_received)
        })
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.iter().flatten()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Folds this cache's state into a commitment: geometry and LRU clock
    /// every time, then one hash per set, re-hashing only the sets changed
    /// since the last fold (every set when `from_scratch`). Covers exactly
    /// what the `Snap` encoding writes.
    pub fn digest(&mut self, d: &mut Digest, from_scratch: bool) {
        d.u64(self.sets as u64);
        d.u64(self.ways as u64);
        d.u64(self.lru_clock);
        let entries = &self.entries;
        self.set_hashes
            .fold(d, entries.len(), from_scratch, |i, w| entries[i].save(w));
    }
}

/// The indices of the sets whose bits are set in word `w` of a set
/// bitmap, ascending.
fn set_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(w * 64 + bit)
    })
}

impl chats_snap::Snap for CoherenceState {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u8(match self {
            CoherenceState::Invalid => 0,
            CoherenceState::Shared => 1,
            CoherenceState::Exclusive => 2,
            CoherenceState::Modified => 3,
        });
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(match r.u8()? {
            0 => CoherenceState::Invalid,
            1 => CoherenceState::Shared,
            2 => CoherenceState::Exclusive,
            3 => CoherenceState::Modified,
            t => return Err(r.err(format!("bad CoherenceState tag {t}"))),
        })
    }
}

impl chats_snap::Snap for CacheEntry {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.addr.save(w);
        self.state.save(w);
        self.data.save(w);
        self.sm.save(w);
        self.spec_received.save(w);
        w.u64(self.lru);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(CacheEntry {
            addr: chats_snap::Snap::load(r)?,
            state: chats_snap::Snap::load(r)?,
            data: chats_snap::Snap::load(r)?,
            sm: chats_snap::Snap::load(r)?,
            spec_received: chats_snap::Snap::load(r)?,
            lru: r.u64()?,
        })
    }
}

// Entries are saved in stored (set, way) order, not sorted: way order
// inside a set is deterministic machine state (commitments hash the sets
// in this encoding), so it must survive a round-trip exactly.
// The `lru` stamps and `lru_clock` travel verbatim for the same reason.
// The speculative-set bitmap is not saved: `load` rebuilds it from the
// entries.
impl chats_snap::Snap for Cache {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.sets as u64);
        w.u64(self.ways as u64);
        self.entries.save(w);
        w.u64(self.lru_clock);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        let sets = usize::load(r)?;
        let ways = usize::load(r)?;
        if sets == 0 || ways == 0 {
            return Err(r.err("cache geometry must be non-zero"));
        }
        let entries: Vec<Vec<CacheEntry>> = chats_snap::Snap::load(r)?;
        if entries.len() != sets || entries.iter().any(|s| s.len() > ways) {
            return Err(r.err("cache entries do not fit the recorded geometry"));
        }
        let mut spec_sets = vec![0; sets.div_ceil(64)];
        for (i, set) in entries.iter().enumerate() {
            if set.iter().any(|e| e.sm || e.spec_received) {
                spec_sets[i / 64] |= 1 << (i % 64);
            }
        }
        Ok(Cache {
            sets,
            ways,
            entries,
            lru_clock: r.u64()?,
            set_hashes: ElementHashes::default(),
            spec_sets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    fn cache() -> Cache {
        Cache::new(2, 2)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Shared, Line::splat(9));
        let e = c.lookup(LineAddr(0)).unwrap();
        assert_eq!(e.state, CoherenceState::Shared);
        assert_eq!(e.data, Line::splat(9));
    }

    #[test]
    fn miss_is_none() {
        assert!(cache().lookup(LineAddr(3)).is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Shared, Line::splat(1));
        let out = c.insert(LineAddr(0), CoherenceState::Modified, Line::splat(2));
        assert!(matches!(out, EvictOutcome::None));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(LineAddr(0)).unwrap().data, Line::splat(2));
    }

    #[test]
    fn eviction_picks_lru() {
        let mut c = cache();
        // Lines 0, 2, 4 all map to set 0 of a 2-set cache.
        c.insert(LineAddr(0), CoherenceState::Shared, Line::zeroed());
        c.insert(LineAddr(2), CoherenceState::Shared, Line::zeroed());
        c.lookup_mut(LineAddr(0)); // refresh 0, making 2 the LRU
        let out = c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
        match out {
            EvictOutcome::Evicted(v) => assert_eq!(v.addr, LineAddr(2)),
            EvictOutcome::None => panic!("expected an eviction"),
        }
        assert!(c.lookup(LineAddr(0)).is_some());
        assert!(c.lookup(LineAddr(4)).is_some());
    }

    #[test]
    fn replacement_favours_write_set() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(0)).unwrap().sm = true; // oldest, but in write set
        c.insert(LineAddr(2), CoherenceState::Shared, Line::zeroed());
        let out = c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
        match out {
            EvictOutcome::Evicted(v) => assert_eq!(v.addr, LineAddr(2), "SM line must survive"),
            EvictOutcome::None => panic!("expected an eviction"),
        }
        assert!(c.lookup(LineAddr(0)).is_some());
    }

    #[test]
    fn full_sm_set_still_evicts_something() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(0)).unwrap().sm = true;
        c.insert(LineAddr(2), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(2)).unwrap().sm = true;
        let out = c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
        match out {
            EvictOutcome::Evicted(v) => assert!(v.sm, "victim had to be a write-set line"),
            EvictOutcome::None => panic!("expected an eviction"),
        }
    }

    #[test]
    fn gang_invalidation_drops_only_speculative() {
        let mut c = Cache::new(4, 2);
        c.insert(LineAddr(0), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(0)).unwrap().sm = true;
        c.insert(LineAddr(1), CoherenceState::Shared, Line::zeroed());
        c.insert(LineAddr(2), CoherenceState::Exclusive, Line::zeroed());
        c.lookup_mut(LineAddr(2)).unwrap().spec_received = true;
        let dropped: Vec<LineAddr> = c
            .iter()
            .filter(|e| e.sm || e.spec_received)
            .map(|e| e.addr)
            .collect();
        assert_eq!(dropped, vec![LineAddr(0), LineAddr(2)]);
        c.drop_speculative();
        for line in dropped {
            assert!(c.lookup(line).is_none());
        }
        assert!(c.lookup(LineAddr(1)).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn commit_clears_bits_and_marks_modified() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Exclusive, Line::splat(3));
        {
            let e = c.lookup_mut(LineAddr(0)).unwrap();
            e.sm = true;
            e.spec_received = true;
        }
        c.commit_speculative();
        let e = c.lookup(LineAddr(0)).unwrap();
        assert!(!e.sm && !e.spec_received);
        assert_eq!(e.state, CoherenceState::Modified);
        assert_eq!(e.data, Line::splat(3), "commit must not change data");
    }

    #[test]
    fn invalidate_returns_entry() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Modified, Line::splat(4));
        let gone = c.invalidate(LineAddr(0)).unwrap();
        assert_eq!(gone.data, Line::splat(4));
        assert!(c.lookup(LineAddr(0)).is_none());
        assert!(c.invalidate(LineAddr(0)).is_none());
    }

    #[test]
    fn state_predicates() {
        assert!(CoherenceState::Modified.is_writable());
        assert!(CoherenceState::Exclusive.is_writable());
        assert!(!CoherenceState::Shared.is_writable());
        assert!(!CoherenceState::Invalid.is_readable());
        assert!(CoherenceState::Shared.is_readable());
    }

    /// The incremental digest, then the from-scratch one, of `c`.
    fn digests(c: &mut Cache) -> (u64, u64) {
        let (mut inc, mut reference) = (Digest::new(), Digest::new());
        c.digest(&mut inc, false);
        c.digest(&mut reference, true);
        (inc.value(), reference.value())
    }

    #[test]
    fn every_mutating_method_marks_what_it_changes() {
        let mut c = cache();
        type Step = (&'static str, fn(&mut Cache));
        let steps: [Step; 8] = [
            ("insert", |c| {
                c.insert(LineAddr(0), CoherenceState::Exclusive, Line::splat(1));
                c.insert(LineAddr(1), CoherenceState::Shared, Line::splat(2));
            }),
            ("lookup_mut", |c| {
                c.lookup_mut(LineAddr(0)).unwrap().sm = true
            }),
            ("lookup_mut miss", |c| {
                assert!(c.lookup_mut(LineAddr(4)).is_none())
            }),
            ("commit_speculative", Cache::commit_speculative),
            ("evicting insert", |c| {
                c.insert(LineAddr(2), CoherenceState::Shared, Line::zeroed());
                c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
            }),
            ("drop_speculative", |c| {
                c.lookup_mut(LineAddr(4)).unwrap().spec_received = true;
                let _ = digests(c);
                c.drop_speculative();
            }),
            ("drop_speculative of a write-set line", |c| {
                c.lookup_mut(LineAddr(1)).unwrap().sm = true;
                let _ = digests(c);
                c.drop_speculative();
                assert!(c.lookup(LineAddr(1)).is_none());
            }),
            ("invalidate", |c| {
                assert!(c.invalidate(LineAddr(2)).is_some())
            }),
        ];
        let mut last = digests(&mut c).0;
        for (what, step) in steps {
            step(&mut c);
            let (inc, reference) = digests(&mut c);
            assert_eq!(inc, reference, "{what} changed a set without marking it");
            assert_ne!(inc, last, "{what} changed nothing");
            last = inc;
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        Cache::new(0, 1);
    }
}
