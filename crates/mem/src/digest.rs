//! Incremental state digests: per-element hash caches with dirty marks.
//!
//! A state commitment folds the machine's state into one 64-bit value.
//! Most of that state sits in a few large structures — the L1 sets, the
//! directory lines, the backing-store lines — of which one epoch touches
//! only a few percent. Each such structure keeps an [`ElementHashes`]:
//! one cached hash per element plus a dirty bit, set by the structure's
//! own `&mut` methods (the only way to change a private element). A
//! commitment then re-serializes and re-hashes only the dirty elements and
//! folds the cached hashes, in index order, into a [`Digest`].
//!
//! The cache is allocated by the first fold, so a structure whose owner
//! never takes a commitment pays one branch per mark and no memory. A
//! fold with `from_scratch` set ignores every cached hash: that is the
//! reference the incremental result must always equal.

use crate::fasthash::FxHasher;
use chats_snap::SnapWriter;
use std::hash::Hasher;

/// Hashes a byte slice with the simulator's deterministic hasher.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// A running commitment: an ordered fold of part and element hashes.
#[derive(Debug, Default)]
pub struct Digest {
    acc: FxHasher,
    /// Reused serialization buffer for parts and elements.
    scratch: SnapWriter,
}

impl Digest {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Digest {
        Digest::default()
    }

    /// Folds in one value.
    pub fn u64(&mut self, v: u64) {
        self.acc.write_u64(v);
    }

    /// Serializes one part of the state with `save` and folds in the hash
    /// of its bytes.
    pub fn part(&mut self, save: impl FnOnce(&mut SnapWriter)) {
        self.scratch.clear();
        save(&mut self.scratch);
        self.acc.write_u64(hash_bytes(self.scratch.bytes()));
    }

    /// The fold so far. Folding may continue afterwards.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.acc.finish()
    }
}

/// One cached hash and one dirty bit per element of a large structure.
///
/// Elements are addressed by index. The owner calls [`ElementHashes::mark`]
/// whenever it changes element `i` and [`ElementHashes::fold`] to commit.
/// Elements past the cached range (the structure grew since the last fold)
/// are hashed anyway, so marking them is unnecessary.
///
/// Element hashes are folded in runs of 64 (one dirty-bitmap word), and
/// each run's fold is cached too: a commitment costs one mix per run plus
/// the runs that hold a changed element, not one mix per element.
#[derive(Debug, Clone, Default)]
pub struct ElementHashes {
    /// Cached hash per element; empty until the first fold.
    hashes: Vec<u64>,
    /// Cached fold of each run of 64 element hashes.
    runs: Vec<u64>,
    /// One bit per cached element: changed since the last fold.
    dirty: Vec<u64>,
}

impl ElementHashes {
    /// Marks element `i` as changed. A no-op before the first fold and
    /// past the cached range.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if let Some(w) = self.dirty.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    /// Brings the hashes of elements `0..n` up to date and folds them into
    /// `d` in index order. `save(i, w)` serializes element `i`; it runs for
    /// every marked or new element, or for all of them when `from_scratch`.
    pub fn fold(
        &mut self,
        d: &mut Digest,
        n: usize,
        from_scratch: bool,
        mut save: impl FnMut(usize, &mut SnapWriter),
    ) {
        let cached = if from_scratch {
            0
        } else {
            self.hashes.len().min(n)
        };
        let runs = n.div_ceil(64);
        self.hashes.resize(n, 0);
        self.runs.resize(runs, 0);
        self.dirty.resize(runs, 0);
        for run in 0..runs {
            let (start, end) = (run * 64, n.min(run * 64 + 64));
            let mut marked = std::mem::take(&mut self.dirty[run]);
            if marked != 0 || end > cached {
                while marked != 0 {
                    let i = start + marked.trailing_zeros() as usize;
                    marked &= marked - 1;
                    if i < cached {
                        self.rehash(i, &mut d.scratch, &mut save);
                    }
                }
                for i in cached.max(start)..end {
                    self.rehash(i, &mut d.scratch, &mut save);
                }
                let mut h = FxHasher::default();
                for &e in &self.hashes[start..end] {
                    h.write_u64(e);
                }
                self.runs[run] = h.finish();
            }
            d.u64(self.runs[run]);
        }
    }

    fn rehash(
        &mut self,
        i: usize,
        scratch: &mut SnapWriter,
        save: &mut impl FnMut(usize, &mut SnapWriter),
    ) {
        scratch.clear();
        save(i, scratch);
        self.hashes[i] = hash_bytes(scratch.bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(h: &mut ElementHashes, data: &[u64], from_scratch: bool) -> u64 {
        let mut d = Digest::new();
        h.fold(&mut d, data.len(), from_scratch, |i, w| w.u64(data[i]));
        d.value()
    }

    #[test]
    fn marked_changes_match_a_fold_from_scratch() {
        let mut data = vec![1u64, 2, 3, 4, 5];
        let mut h = ElementHashes::default();
        let first = fold(&mut h, &data, false);
        assert_eq!(first, fold(&mut ElementHashes::default(), &data, true));
        data[3] = 40;
        h.mark(3);
        let second = fold(&mut h, &data, false);
        assert_ne!(first, second);
        assert_eq!(second, fold(&mut ElementHashes::default(), &data, true));
    }

    #[test]
    fn an_unmarked_change_is_missed_and_the_reference_catches_it() {
        let mut data = vec![7u64; 130];
        let mut h = ElementHashes::default();
        let before = fold(&mut h, &data, false);
        data[129] = 8;
        assert_eq!(
            fold(&mut h, &data, false),
            before,
            "the cache trusts its marks"
        );
        assert_ne!(fold(&mut h, &data, true), before);
    }

    #[test]
    fn growth_hashes_new_elements_without_marks() {
        // 100 elements fill one run and part of a second; growing to 200
        // extends that partial run and adds two more.
        let mut data: Vec<u64> = (0..100).collect();
        let mut h = ElementHashes::default();
        fold(&mut h, &data, false);
        data.extend(100..200);
        data[7] = 0;
        h.mark(7);
        h.mark(150); // past the cached range: harmless
        assert_eq!(
            fold(&mut h, &data, false),
            fold(&mut ElementHashes::default(), &data, true)
        );
    }

    #[test]
    fn marks_before_the_first_fold_allocate_nothing() {
        let mut h = ElementHashes::default();
        h.mark(1_000_000);
        assert!(h.hashes.is_empty() && h.dirty.is_empty());
    }
}
