//! The blocking full-map MESI directory.
//!
//! One request is in flight per line at a time; requests arriving for a
//! busy line queue and are replayed when the line unblocks. This avoids
//! transient protocol states while preserving the conflict and forwarding
//! behaviour CHATS depends on (see DESIGN.md §6, decision 4).

use crate::msg::Request;
use chats_core::fasthash::{FastHashMap, FastHashSet};
use chats_mem::{BackingStore, Digest, ElementHashes, Line, LineAddr};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Stable directory state of one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No private copies.
    Uncached,
    /// Read-only copies at the listed cores.
    Shared(Vec<usize>),
    /// Exclusively owned (E or M) by one core.
    Owned(usize),
}

/// Per-line directory bookkeeping.
#[derive(Debug)]
pub struct DirLine {
    /// Coherence state.
    pub state: DirState,
    /// A request is being serviced for this line.
    pub busy: bool,
    /// Requests waiting for the line to unblock.
    pub queue: VecDeque<Request>,
    /// Invalidation acks still expected for the in-flight request.
    pub pending_invs: usize,
    /// Some sharer refused to invalidate (power transaction): nack the
    /// requester when the remaining acks arrive.
    pub inv_refused: bool,
    /// Sharers that acknowledged the in-flight invalidation round.
    pub invalidated: Vec<usize>,
}

impl DirLine {
    fn new() -> DirLine {
        DirLine {
            state: DirState::Uncached,
            busy: false,
            queue: VecDeque::new(),
            pending_invs: 0,
            inv_refused: false,
            invalidated: Vec::new(),
        }
    }
}

/// Direct-mapped span of the per-line directory state. Every registry
/// workload's footprint fits here; a `DirLine` for a hotter-than-that
/// address space spills into the hash map.
const DENSE_DIR_LINES: usize = 1 << 15;

/// The directory plus the inclusive backing store behind it.
///
/// The per-line state for low line addresses lives in a direct-mapped
/// `Vec<DirLine>` grown on first touch: `line_mut` — executed once per
/// protocol message — is a bounds check and an index, no hashing. An
/// untouched dense slot holds `DirState::Uncached`, which is exactly what
/// the map-based lookup reported for an absent entry, so the two layouts
/// are observationally identical.
#[derive(Debug)]
pub struct Directory {
    /// Lines `0..DENSE_DIR_LINES`, grown lazily to the highest touched.
    dense: Vec<DirLine>,
    /// Lines at or above `DENSE_DIR_LINES`.
    spill: FastHashMap<LineAddr, DirLine>,
    /// Committed value of every line (the folded L2/L3/DRAM level).
    pub store: BackingStore,
    /// Warm bits for the dense span: one bit per line, set once the line
    /// has been accessed (LLC-warm); cold lines pay the memory latency.
    warm_bits: Vec<u64>,
    /// Warm lines at or above `DENSE_DIR_LINES`.
    warm_spill: FastHashSet<LineAddr>,
    /// Commitment hash per dense line (its `DirLine` and warm bit);
    /// `line_mut` and `touch` mark the line they hand out or warm.
    line_hashes: ElementHashes,
}

impl Directory {
    /// An empty directory over zeroed memory.
    pub fn new() -> Directory {
        Directory {
            dense: Vec::new(),
            spill: FastHashMap::default(),
            store: BackingStore::new(),
            warm_bits: Vec::new(),
            warm_spill: FastHashSet::default(),
            line_hashes: ElementHashes::default(),
        }
    }

    /// Mutable per-line entry, created on demand.
    #[inline]
    pub fn line_mut(&mut self, addr: LineAddr) -> &mut DirLine {
        let idx = addr.index();
        if (idx as usize) < DENSE_DIR_LINES {
            let idx = idx as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, DirLine::new);
            }
            self.line_hashes.mark(idx);
            &mut self.dense[idx]
        } else {
            self.spill.entry(addr).or_insert_with(DirLine::new)
        }
    }

    /// Immutable per-line state (Uncached if never touched).
    #[inline]
    pub fn state_of(&self, addr: LineAddr) -> DirState {
        let idx = addr.index();
        if (idx as usize) < DENSE_DIR_LINES {
            match self.dense.get(idx as usize) {
                Some(l) => l.state.clone(),
                None => DirState::Uncached,
            }
        } else {
            self.spill
                .get(&addr)
                .map(|l| l.state.clone())
                .unwrap_or(DirState::Uncached)
        }
    }

    /// Marks a line warm; returns `true` if it was cold (first touch ⇒
    /// memory latency applies).
    #[inline]
    pub fn touch(&mut self, addr: LineAddr) -> bool {
        let idx = addr.index();
        if (idx as usize) < DENSE_DIR_LINES {
            let (word, bit) = (idx as usize / 64, idx % 64);
            if word >= self.warm_bits.len() {
                self.warm_bits.resize(word + 1, 0);
            }
            let cold = self.warm_bits[word] & (1u64 << bit) == 0;
            if cold {
                self.warm_bits[word] |= 1u64 << bit;
                self.line_hashes.mark(idx as usize);
            }
            cold
        } else {
            self.warm_spill.insert(addr)
        }
    }

    /// Committed data of a line.
    pub fn read(&self, addr: LineAddr) -> Line {
        self.store.read_line(addr)
    }
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Snap for DirState {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            DirState::Uncached => w.u8(0),
            DirState::Shared(cores) => {
                w.u8(1);
                cores.save(w);
            }
            DirState::Owned(core) => {
                w.u8(2);
                core.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => DirState::Uncached,
            1 => DirState::Shared(Snap::load(r)?),
            2 => DirState::Owned(Snap::load(r)?),
            t => return Err(r.err(format!("DirState tag must be 0..=2, got {t}"))),
        })
    }
}

impl Snap for DirLine {
    fn save(&self, w: &mut SnapWriter) {
        self.state.save(w);
        self.busy.save(w);
        self.queue.save(w);
        self.pending_invs.save(w);
        self.inv_refused.save(w);
        self.invalidated.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(DirLine {
            state: Snap::load(r)?,
            busy: Snap::load(r)?,
            queue: Snap::load(r)?,
            pending_invs: Snap::load(r)?,
            inv_refused: Snap::load(r)?,
            invalidated: Snap::load(r)?,
        })
    }
}

impl Directory {
    /// Serializes the full directory: per-line state (dense span in index
    /// order, spill in sorted-key order), the backing store, and the warm
    /// bits. The dense span's grown length is part of the stream — restore
    /// reproduces the exact geometry, keeping subsequent snapshots of the
    /// restored machine byte-identical to the uninterrupted run's.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.dense.save(w);
        self.spill.save(w);
        self.store.save(w);
        self.warm_bits.save(w);
        self.warm_spill.save(w);
    }

    /// Restores state captured by [`Directory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a malformed stream or spill keys inside the dense span.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let dense: Vec<DirLine> = Snap::load(r)?;
        if dense.len() > DENSE_DIR_LINES {
            return Err(r.err(format!(
                "dense directory span {} exceeds the {DENSE_DIR_LINES}-line maximum",
                dense.len()
            )));
        }
        let spill: FastHashMap<LineAddr, DirLine> = Snap::load(r)?;
        if let Some(k) = spill
            .keys()
            .find(|a| (a.index() as usize) < DENSE_DIR_LINES)
        {
            return Err(r.err(format!(
                "spill directory line {k} belongs to the dense span"
            )));
        }
        let store: BackingStore = Snap::load(r)?;
        let warm_bits: Vec<u64> = Snap::load(r)?;
        let warm_spill: FastHashSet<LineAddr> = Snap::load(r)?;
        if let Some(k) = warm_spill
            .iter()
            .find(|a| (a.index() as usize) < DENSE_DIR_LINES)
        {
            return Err(r.err(format!("spill warm bit {k} belongs to the dense span")));
        }
        self.dense = dense;
        self.spill = spill;
        self.store = store;
        self.warm_bits = warm_bits;
        self.warm_spill = warm_spill;
        self.line_hashes = ElementHashes::default();
        Ok(())
    }

    /// Folds the directory into a commitment: the dense span's size and
    /// the spill maps every time, then one hash per dense line (`DirLine`
    /// plus warm bit), re-hashing only lines handed out by `line_mut` or
    /// warmed by `touch` since the last fold (every line when
    /// `from_scratch`), then the backing store. Covers exactly what
    /// [`Directory::save_state`] writes.
    pub fn digest(&mut self, d: &mut Digest, from_scratch: bool) {
        d.part(|w| {
            w.u64(self.dense.len() as u64);
            self.spill.save(w);
            w.u64(self.warm_bits.len() as u64);
            self.warm_spill.save(w);
        });
        let Directory {
            dense,
            warm_bits,
            line_hashes,
            store,
            ..
        } = self;
        // A slot past the grown span reads as a fresh line, so growing the
        // span leaves the hashes of the slots it fills in unchanged.
        let fresh = DirLine::new();
        let n = dense.len().max(warm_bits.len() * 64);
        line_hashes.fold(d, n, from_scratch, |i, w| {
            dense.get(i).unwrap_or(&fresh).save(w);
            let warm = warm_bits
                .get(i / 64)
                .is_some_and(|b| b >> (i % 64) & 1 == 1);
            warm.save(w);
        });
        store.digest(d, from_scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_lines_are_uncached() {
        let d = Directory::new();
        assert_eq!(d.state_of(LineAddr(9)), DirState::Uncached);
        assert_eq!(
            d.state_of(LineAddr(DENSE_DIR_LINES as u64 + 9)),
            DirState::Uncached
        );
    }

    #[test]
    fn touch_reports_cold_once() {
        let mut d = Directory::new();
        assert!(d.touch(LineAddr(1)), "first touch is cold");
        assert!(!d.touch(LineAddr(1)), "second touch is warm");
        let far = LineAddr(u64::MAX - 3);
        assert!(d.touch(far), "first spill touch is cold");
        assert!(!d.touch(far), "second spill touch is warm");
    }

    #[test]
    fn line_mut_creates_and_persists() {
        let mut d = Directory::new();
        d.line_mut(LineAddr(2)).state = DirState::Owned(3);
        assert_eq!(d.state_of(LineAddr(2)), DirState::Owned(3));
    }

    /// The incremental digest, then the from-scratch one, of `d`.
    fn digests(d: &mut Directory) -> (u64, u64) {
        let (mut inc, mut reference) = (Digest::new(), Digest::new());
        d.digest(&mut inc, false);
        d.digest(&mut reference, true);
        (inc.value(), reference.value())
    }

    #[test]
    fn every_mutating_method_marks_what_it_changes() {
        use chats_mem::Addr;
        let mut d = Directory::new();
        type Step = (&'static str, fn(&mut Directory));
        let steps: [Step; 8] = [
            ("line_mut", |d| {
                d.line_mut(LineAddr(3)).state = DirState::Owned(1)
            }),
            ("line_mut again", |d| d.line_mut(LineAddr(3)).busy = true),
            ("touch", |d| assert!(d.touch(LineAddr(2)))),
            ("touch past the span", |d| assert!(d.touch(LineAddr(200)))),
            ("store write_word", |d| d.store.write_word(Addr(17), 9)),
            ("store write_line", |d| {
                d.store.write_line(LineAddr(2), Line::splat(4))
            }),
            ("store write_word again", |d| {
                d.store.write_word(Addr(18), 5)
            }),
            ("spill", |d| {
                d.line_mut(LineAddr(DENSE_DIR_LINES as u64 + 9)).busy = true;
                d.touch(LineAddr(DENSE_DIR_LINES as u64 + 9));
            }),
        ];
        let mut last = digests(&mut d).0;
        for (what, step) in steps {
            step(&mut d);
            let (inc, reference) = digests(&mut d);
            assert_eq!(inc, reference, "{what} changed a line without marking it");
            assert_ne!(inc, last, "{what} changed nothing");
            last = inc;
        }
        // A restore replaces every line behind the caches' back: nothing
        // cached may survive it.
        let mut w = SnapWriter::new();
        d.save_state(&mut w);
        let saved = w.into_bytes();
        d.line_mut(LineAddr(3)).state = DirState::Shared(vec![0, 2]);
        d.store.write_word(Addr(17), 10);
        let _ = digests(&mut d);
        d.restore_state(&mut SnapReader::new(&saved)).unwrap();
        let (inc, reference) = digests(&mut d);
        assert_eq!(inc, reference, "restore left stale hashes behind");
        assert_eq!(inc, last);
    }

    #[test]
    fn dense_and_spill_lines_are_independent() {
        let mut d = Directory::new();
        let below = LineAddr(DENSE_DIR_LINES as u64 - 1);
        let above = LineAddr(DENSE_DIR_LINES as u64);
        d.line_mut(below).state = DirState::Owned(1);
        d.line_mut(above).state = DirState::Shared(vec![0, 2]);
        assert_eq!(d.state_of(below), DirState::Owned(1));
        assert_eq!(d.state_of(above), DirState::Shared(vec![0, 2]));
        // Growing the dense span did not invent state for neighbours.
        assert_eq!(d.state_of(LineAddr(5)), DirState::Uncached);
    }
}
