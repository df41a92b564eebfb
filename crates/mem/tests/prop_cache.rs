//! Property tests for the L1 model against simple reference models.

use chats_mem::{Addr, Cache, CoherenceState, Digest, EvictOutcome, Line, LineAddr};
use chats_snap::{Snap, SnapReader, SnapWriter};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64), // line, value splat
    Invalidate(u64),
    Lookup(u64),
    MarkSm(u64),
    Drop,
    Commit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..64, any::<u64>()).prop_map(|(l, v)| Op::Insert(l, v)),
        2 => (0u64..64).prop_map(Op::Invalidate),
        4 => (0u64..64).prop_map(Op::Lookup),
        2 => (0u64..64).prop_map(Op::MarkSm),
        1 => Just(Op::Drop),
        1 => Just(Op::Commit),
    ]
}

/// One step of the lockstep test: every way the simulator changes an L1.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u8, u64), // line, state tag, value splat
    Touch(u64),           // `lookup_mut` that changes no bit
    SetSm(u64, bool),
    SetSpec(u64, bool),
    Invalidate(u64),
    Commit,
    Drop,
    RoundTrip, // `Snap` save then load
}

fn state_of(tag: u8) -> CoherenceState {
    match tag % 3 {
        0 => CoherenceState::Shared,
        1 => CoherenceState::Exclusive,
        _ => CoherenceState::Modified,
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0u64..300, any::<u8>(), any::<u64>()).prop_map(|(l, s, v)| Step::Insert(l, s, v)),
        2 => (0u64..300).prop_map(Step::Touch),
        4 => (0u64..300, any::<bool>()).prop_map(|(l, b)| Step::SetSm(l, b)),
        3 => (0u64..300, any::<bool>()).prop_map(|(l, b)| Step::SetSpec(l, b)),
        2 => (0u64..300).prop_map(Step::Invalidate),
        1 => Just(Step::Commit),
        1 => Just(Step::Drop),
        1 => Just(Step::RoundTrip),
    ]
}

/// One way of [`RefCache`]: a `CacheEntry` with its LRU stamp in view.
#[derive(Debug, Clone)]
struct RefEntry {
    addr: LineAddr,
    state: CoherenceState,
    data: Line,
    sm: bool,
    spec_received: bool,
    lru: u64,
}

/// The L1 with commit, abort and the predictor's write-set walk done over
/// every set, as they were before the cache tracked speculative sets.
struct RefCache {
    sets: usize,
    ways: usize,
    entries: Vec<Vec<RefEntry>>,
    lru_clock: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> RefCache {
        RefCache {
            sets,
            ways,
            entries: vec![Vec::new(); sets],
            lru_clock: 0,
        }
    }

    fn lookup_mut(&mut self, addr: LineAddr) -> Option<&mut RefEntry> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let e = self.entries[addr.set_index(self.sets)]
            .iter_mut()
            .find(|e| e.addr == addr && e.state.is_readable())?;
        e.lru = clock;
        Some(e)
    }

    fn insert(&mut self, addr: LineAddr, state: CoherenceState, data: Line) {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let ways = self.ways;
        let lines = &mut self.entries[addr.set_index(self.sets)];
        if let Some(e) = lines.iter_mut().find(|e| e.addr == addr) {
            e.state = state;
            e.data = data;
            e.lru = clock;
            return;
        }
        let fresh = RefEntry {
            addr,
            state,
            data,
            sm: false,
            spec_received: false,
            lru: clock,
        };
        if lines.len() < ways {
            lines.push(fresh);
            return;
        }
        let victim = (0..lines.len())
            .filter(|&i| !lines[i].sm && !lines[i].spec_received)
            .min_by_key(|&i| lines[i].lru)
            .or_else(|| (0..lines.len()).min_by_key(|&i| lines[i].lru))
            .expect("full set has at least one way");
        lines[victim] = fresh;
    }

    fn invalidate(&mut self, addr: LineAddr) {
        let lines = &mut self.entries[addr.set_index(self.sets)];
        if let Some(i) = lines.iter().position(|e| e.addr == addr) {
            lines.swap_remove(i);
        }
    }

    fn commit(&mut self) {
        for e in self.entries.iter_mut().flatten() {
            if e.sm || e.spec_received {
                e.sm = false;
                e.spec_received = false;
                e.state = CoherenceState::Modified;
            }
        }
    }

    fn drop_speculative(&mut self) {
        for set in &mut self.entries {
            set.retain(|e| !e.sm && !e.spec_received);
        }
    }

    fn speculative_writes(&self) -> Vec<LineAddr> {
        self.entries
            .iter()
            .flatten()
            .filter(|e| e.sm && !e.spec_received)
            .map(|e| e.addr)
            .collect()
    }

    /// The `Snap` encoding a `Cache` in this state writes.
    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.sets as u64);
        w.u64(self.ways as u64);
        w.u64(self.entries.len() as u64);
        for set in &self.entries {
            w.u64(set.len() as u64);
            for e in set {
                e.addr.save(&mut w);
                e.state.save(&mut w);
                e.data.save(&mut w);
                e.sm.save(&mut w);
                e.spec_received.save(&mut w);
                w.u64(e.lru);
            }
        }
        w.u64(self.lru_clock);
        w.into_bytes()
    }
}

fn encode(c: &Cache) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.save(&mut w);
    w.into_bytes()
}

fn decode(bytes: &[u8]) -> Cache {
    Cache::load(&mut SnapReader::new(bytes)).expect("a saved cache loads")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache agrees with a reference map on every lookup: a resident
    /// line always has the last value written for it; a reported eviction
    /// always removes exactly that victim.
    #[test]
    fn cache_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut cache = Cache::new(4, 2);
        // Reference: line -> (value, sm)
        let mut reference: HashMap<u64, (u64, bool)> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(l, v) => {
                    match cache.insert(LineAddr(l), CoherenceState::Exclusive, Line::splat(v)) {
                        EvictOutcome::Evicted(victim) => {
                            let gone = reference.remove(&victim.addr.index());
                            prop_assert!(gone.is_some(), "evicted a non-resident line");
                        }
                        EvictOutcome::None => {}
                    }
                    reference.insert(l, (v, reference.get(&l).map(|e| e.1).unwrap_or(false)));
                }
                Op::Invalidate(l) => {
                    let got = cache.invalidate(LineAddr(l)).is_some();
                    let expect = reference.remove(&l).is_some();
                    prop_assert_eq!(got, expect);
                }
                Op::Lookup(l) => {
                    match (cache.lookup(LineAddr(l)), reference.get(&l)) {
                        (Some(e), Some((v, _))) => {
                            prop_assert_eq!(e.data.read(Addr(0)), *v);
                        }
                        (None, None) => {}
                        (got, want) => {
                            prop_assert!(false, "residency mismatch on {l}: cache={:?} ref={:?}",
                                got.map(|e| e.addr), want);
                        }
                    }
                }
                Op::MarkSm(l) => {
                    if let Some(e) = cache.lookup_mut(LineAddr(l)) {
                        e.sm = true;
                    }
                    if let Some(r) = reference.get_mut(&l) {
                        r.1 = true;
                    }
                }
                Op::Drop => {
                    let dropped: Vec<LineAddr> = cache
                        .iter()
                        .filter(|e| e.sm || e.spec_received)
                        .map(|e| e.addr)
                        .collect();
                    cache.drop_speculative();
                    for d in &dropped {
                        prop_assert!(cache.lookup(*d).is_none(), "{d:?} survived the drop");
                        let r = reference.remove(&d.index());
                        prop_assert!(matches!(r, Some((_, true))),
                            "gang invalidation dropped a non-speculative line");
                    }
                    // Nothing speculative may survive.
                    prop_assert!(reference.values().all(|(_, sm)| !sm));
                }
                Op::Commit => {
                    cache.commit_speculative();
                    for r in reference.values_mut() {
                        r.1 = false;
                    }
                }
            }
            // Geometry invariant: never more than ways lines per set.
            prop_assert!(cache.len() <= cache.sets() * cache.ways());
            prop_assert_eq!(cache.len(), reference.len());
        }
    }

    /// Commit, abort and the predictor's write-set walk visit only the sets
    /// the cache tracked as possibly speculative; in lockstep with a
    /// reference that walks every set, after every step the two hold the
    /// same entries in the same way order (the same `Snap` bytes), yield
    /// the same `speculative_writes()` sequence and have the same digest.
    #[test]
    fn tracked_sets_match_the_full_walk(
        sets in prop_oneof![Just(1usize), Just(4usize), Just(70usize)],
        ways in 1usize..4,
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let mut cache = Cache::new(sets, ways);
        let mut reference = RefCache::new(sets, ways);
        for (n, step) in steps.into_iter().enumerate() {
            match step {
                Step::Insert(l, s, v) => {
                    cache.insert(LineAddr(l), state_of(s), Line::splat(v));
                    reference.insert(LineAddr(l), state_of(s), Line::splat(v));
                }
                Step::Touch(l) => {
                    let got = cache.lookup_mut(LineAddr(l)).is_some();
                    prop_assert_eq!(got, reference.lookup_mut(LineAddr(l)).is_some());
                }
                Step::SetSm(l, b) => {
                    if let Some(e) = cache.lookup_mut(LineAddr(l)) {
                        e.sm = b;
                    }
                    if let Some(e) = reference.lookup_mut(LineAddr(l)) {
                        e.sm = b;
                    }
                }
                Step::SetSpec(l, b) => {
                    if let Some(e) = cache.lookup_mut(LineAddr(l)) {
                        e.spec_received = b;
                    }
                    if let Some(e) = reference.lookup_mut(LineAddr(l)) {
                        e.spec_received = b;
                    }
                }
                Step::Invalidate(l) => {
                    cache.invalidate(LineAddr(l));
                    reference.invalidate(LineAddr(l));
                }
                Step::Commit => {
                    cache.commit_speculative();
                    reference.commit();
                }
                Step::Drop => {
                    cache.drop_speculative();
                    reference.drop_speculative();
                }
                Step::RoundTrip => cache = decode(&encode(&cache)),
            }
            let expected = reference.encode();
            prop_assert!(encode(&cache) == expected, "entries differ after step {n}");
            let writes: Vec<LineAddr> = cache.speculative_writes().map(|e| e.addr).collect();
            prop_assert_eq!(writes, reference.speculative_writes(), "step {}", n);
            let (mut got, mut want) = (Digest::new(), Digest::new());
            cache.digest(&mut got, false);
            decode(&expected).digest(&mut want, true);
            prop_assert_eq!(got.value(), want.value(), "digest differs after step {}", n);
        }
    }

    /// Speculative lines are never silently lost: as long as every insert
    /// into a set with speculative lines leaves at least one non-SM way,
    /// the SM lines survive all traffic.
    #[test]
    fn write_set_lines_are_sticky(
        sm_line in 0u64..4,
        clean_lines in proptest::collection::vec(0u64..32, 1..40),
    ) {
        let mut cache = Cache::new(4, 2);
        cache.insert(LineAddr(sm_line), CoherenceState::Modified, Line::splat(1));
        cache.lookup_mut(LineAddr(sm_line)).unwrap().sm = true;
        for l in clean_lines {
            // Never collide exactly with the SM line.
            let l = if l == sm_line { l + 32 } else { l };
            cache.insert(LineAddr(l), CoherenceState::Shared, Line::zeroed());
            prop_assert!(
                cache.lookup(LineAddr(sm_line)).is_some(),
                "SM line displaced by a clean fill"
            );
        }
    }
}
