//! What epoch state commitments cost the simulator.
//!
//! At every epoch boundary the commitment layer re-hashes the small
//! sections of the machine state whole and, of the big structures, only
//! the L1 sets and memory lines the epoch touched (see
//! `chats_machine::commit`); between boundaries it costs a dirty mark per
//! changed set or line. This module measures that cost directly: the
//! same workload cell is run with commitments off and with commitments
//! armed at an interval, in interleaved pairs on one host, and the
//! throughput loss is reported as the median of the pairs' losses.
//!
//! One contended run records only about ten epochs at the default
//! interval, so each arm repeats the run until the armed arm records at
//! least [`MIN_EPOCHS`]; shorter arms measure host noise, not hashing.
//!
//! The contract the gate enforces: **at the default interval
//! ([`chats_machine::DEFAULT_COMMIT_INTERVAL`]) the overhead stays under
//! 5%** — cheap enough that long-running campaigns can leave commitments
//! armed permanently, which is what makes checkpoint verification and
//! divergence dissection free to deploy.

use crate::baseline::{contended_program_for_bench, workload_mix, Case, CaseKind, Measurement};
use chats_core::PolicyConfig;
use chats_machine::{Machine, Tuning, DEFAULT_COMMIT_INTERVAL};
use chats_runner::Json;
use chats_sim::SystemConfig;
use chats_tvm::Vm;
use std::collections::BTreeMap;
use std::time::Instant;

/// Epoch commitments the armed arm must record, summed over its runs.
pub const MIN_EPOCHS: u64 = 100;

/// One cell measured both ways, commitments off vs armed at `interval`,
/// in interleaved pairs: `off[i]` and `on[i]` ran back to back.
#[derive(Debug, Clone)]
pub struct OverheadMeasurement {
    /// `workload/system`, matching the baseline mix labels.
    pub name: String,
    /// The armed epoch interval in cycles.
    pub interval: u64,
    /// Back-to-back runs of the cell in one arm.
    pub runs: u32,
    /// Epoch commitments one armed arm records (sanity: > 0, or the
    /// armed arm never hashed anything and the measurement is vacuous).
    pub epochs: u64,
    /// The arms with commitments off, one per pair.
    pub off: Vec<Measurement>,
    /// The arms with commitments armed, one per pair.
    pub on: Vec<Measurement>,
}

impl OverheadMeasurement {
    /// Fractional throughput loss of each pair, in round order:
    /// `1 - on.events_per_sec / off.events_per_sec`. Negative values
    /// (armed arm measured faster) are host noise.
    #[must_use]
    pub fn pair_overheads(&self) -> Vec<f64> {
        self.off
            .iter()
            .zip(&self.on)
            .map(|(off, on)| 1.0 - on.events_per_sec() / off.events_per_sec().max(1e-9))
            .collect()
    }

    /// The median pair's loss: what the gate bounds (only in the positive
    /// direction).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        median(self.pair_overheads())
    }

    /// The smallest and the largest pair loss.
    #[must_use]
    pub fn spread(&self) -> (f64, f64) {
        let pairs = self.pair_overheads();
        let lo = pairs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = pairs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }

    /// Median events/sec of the arms with commitments off.
    #[must_use]
    pub fn events_per_sec_off(&self) -> f64 {
        median(self.off.iter().map(Measurement::events_per_sec).collect())
    }

    /// Median events/sec of the armed arms.
    #[must_use]
    pub fn events_per_sec_on(&self) -> f64 {
        median(self.on.iter().map(Measurement::events_per_sec).collect())
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Measures commitment overhead on the contended kernel — the cell with
/// the highest events/sec of the mix, i.e. the *least* simulation work
/// per cycle to amortize the hash against, which makes it the worst case
/// for relative overhead.
///
/// An untimed armed run first counts the epochs one run records, which
/// sets the runs per arm. Each pair then interleaves the runs of its two
/// arms one for one, alternating which goes first, so host drift within
/// the pair hits both arms alike.
#[must_use]
pub fn measure_overhead(interval: u64, quick: bool) -> OverheadMeasurement {
    let pairs = if quick { 5 } else { 9 };
    let case = contended_case();
    let per_run = run_once(&case, Some(interval)).1;
    let runs = u32::try_from(MIN_EPOCHS.div_ceil(per_run.max(1))).unwrap_or(u32::MAX);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut epochs = 0u64;
    for pair in 0..pairs {
        let (mut off_arm, mut on_arm) = (None, None);
        epochs = 0;
        for run in 0..runs {
            let armed_first = (pair + run) % 2 == 1;
            for armed in [armed_first, !armed_first] {
                if armed {
                    let (m, e) = run_once(&case, Some(interval));
                    absorb(&mut on_arm, m);
                    epochs += e;
                } else {
                    absorb(&mut off_arm, run_once(&case, None).0);
                }
            }
        }
        off.push(off_arm.expect("an arm has at least one run"));
        on.push(on_arm.expect("an arm has at least one run"));
    }
    assert!(
        off.iter().zip(&on).all(|(a, b)| a.events == b.events),
        "arming commitments must not change the simulation"
    );
    OverheadMeasurement {
        name: case.name(),
        interval,
        runs,
        epochs,
        off,
        on,
    }
}

/// Adds one run to an arm's running total.
fn absorb(arm: &mut Option<Measurement>, run: Measurement) {
    match arm {
        None => *arm = Some(run),
        Some(a) => {
            a.events += run.events;
            a.cycles += run.cycles;
            a.instructions += run.instructions;
            a.commits += run.commits;
            a.wall += run.wall;
            a.peak_rss_kb = a.peak_rss_kb.max(run.peak_rss_kb);
        }
    }
}

/// The contended cell of the baseline mix (its `inner` is not used: the
/// runs per arm follow from [`MIN_EPOCHS`]).
fn contended_case() -> Case {
    workload_mix(true)
        .into_iter()
        .find(|c| matches!(c.kind, CaseKind::Contended))
        .expect("baseline mix always has the contended cell")
}

/// One timed run of the contended cell, with commitments armed at
/// `interval` when given. Returns the run's measurement and the epochs
/// it recorded.
fn run_once(case: &Case, interval: Option<u64>) -> (Measurement, u64) {
    let CaseKind::Contended = case.kind else {
        unreachable!("overhead bench runs the contended cell only");
    };
    let sys = SystemConfig::default();
    let prog = contended_program_for_bench();
    let mut m = Machine::new(
        sys,
        PolicyConfig::for_system(case.system),
        Tuning::default(),
        3,
    );
    for t in 0..sys.core.cores {
        m.load_thread(t, Vm::new(prog.clone(), t as u64));
    }
    let t0 = Instant::now();
    if let Some(n) = interval {
        m.set_commit_interval(n);
    }
    let stats = m.run(2_000_000_000).expect("contended kernel completes");
    let wall = t0.elapsed();
    let run = Measurement {
        name: case.name(),
        cores: sys.core.cores,
        events: stats.events,
        cycles: stats.cycles,
        instructions: stats.instructions,
        commits: stats.commits,
        wall,
        peak_rss_kb: crate::baseline::peak_rss_kb(),
    };
    (run, m.commitment_chain().len() as u64)
}

/// Serializes the measurement (and the gate it was held to) as the
/// `commit_overhead` section of `BENCH_simcore.json`.
#[must_use]
pub fn overhead_json(m: &OverheadMeasurement, max_overhead: f64) -> Json {
    let mut root = BTreeMap::new();
    root.insert("name".to_string(), Json::Str(m.name.clone()));
    root.insert("interval".to_string(), Json::U64(m.interval));
    root.insert("runs".to_string(), Json::U64(u64::from(m.runs)));
    root.insert("epochs".to_string(), Json::U64(m.epochs));
    root.insert(
        "events_per_sec_off".to_string(),
        Json::F64(m.events_per_sec_off()),
    );
    root.insert(
        "events_per_sec_on".to_string(),
        Json::F64(m.events_per_sec_on()),
    );
    root.insert("overhead".to_string(), Json::F64(m.overhead()));
    root.insert(
        "pair_overheads".to_string(),
        Json::Arr(m.pair_overheads().into_iter().map(Json::F64).collect()),
    );
    root.insert("max_overhead".to_string(), Json::F64(max_overhead));
    Json::Obj(root)
}

/// Reads the gate ceiling from a committed `BENCH_simcore.json`: the
/// `commit_overhead.max_overhead` field when present, else `fallback`.
#[must_use]
pub fn gate_ceiling(doc: &Json, fallback: f64) -> f64 {
    doc.get("commit_overhead")
        .and_then(|s| s.get("max_overhead"))
        .and_then(Json::as_f64)
        .unwrap_or(fallback)
}

/// Gates a measurement: the median pair's overhead must stay under
/// `max_overhead`, and the armed arm must actually have hashed at least
/// one epoch. Returns a human-readable report with the pairs' spread;
/// `Err` with the same report when the gate trips.
///
/// # Errors
///
/// Returns the report when the measured overhead exceeds the ceiling or
/// the armed arm recorded no epochs.
pub fn check_overhead(m: &OverheadMeasurement, max_overhead: f64) -> Result<String, String> {
    let (lo, hi) = m.spread();
    let report = format!(
        "{}: {:.0} ev/s off vs {:.0} ev/s armed @ interval {} \
         ({} runs, {} epochs per arm) -> overhead {:+.2}% \
         (median of {} pairs, spread {:+.2}% .. {:+.2}%; ceiling {:.2}%)",
        m.name,
        m.events_per_sec_off(),
        m.events_per_sec_on(),
        m.interval,
        m.runs,
        m.epochs,
        m.overhead() * 100.0,
        m.off.len(),
        lo * 100.0,
        hi * 100.0,
        max_overhead * 100.0
    );
    if m.epochs == 0 {
        return Err(format!(
            "{report}\narmed run recorded no epoch commitments; the measurement is vacuous"
        ));
    }
    if m.overhead() > max_overhead {
        return Err(format!(
            "{report}\ncommitment hashing regressed past the ceiling"
        ));
    }
    Ok(report)
}

/// The default overhead ceiling: 5% at [`DEFAULT_COMMIT_INTERVAL`].
pub const DEFAULT_MAX_OVERHEAD: f64 = 0.05;

/// Re-exported so callers gate at the canonical interval without
/// depending on `chats-machine` directly.
pub const DEFAULT_INTERVAL: u64 = DEFAULT_COMMIT_INTERVAL;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fake(eps: f64) -> Measurement {
        Measurement {
            name: "contended/chats".to_string(),
            cores: 16,
            events: (eps * 0.1) as u64,
            cycles: 0,
            instructions: 0,
            commits: 0,
            wall: Duration::from_millis(100),
            peak_rss_kb: 1,
        }
    }

    fn fake_overhead(off_eps: f64, on_eps: f64, epochs: u64) -> OverheadMeasurement {
        fake_pairs(&[(off_eps, on_eps)], epochs)
    }

    fn fake_pairs(pairs: &[(f64, f64)], epochs: u64) -> OverheadMeasurement {
        OverheadMeasurement {
            name: "contended/chats".to_string(),
            interval: DEFAULT_INTERVAL,
            runs: 10,
            epochs,
            off: pairs.iter().map(|p| fake(p.0)).collect(),
            on: pairs.iter().map(|p| fake(p.1)).collect(),
        }
    }

    #[test]
    fn gate_reads_the_median_pair_and_reports_the_spread() {
        // One noisy pair (+30%) among four near zero: the median holds.
        let m = fake_pairs(
            &[
                (1_000_000.0, 990_000.0),
                (1_000_000.0, 700_000.0),
                (1_000_000.0, 1_010_000.0),
                (1_000_000.0, 980_000.0),
                (1_000_000.0, 1_000_000.0),
            ],
            100,
        );
        assert!((m.overhead() - 0.01).abs() < 1e-9, "{}", m.overhead());
        let (lo, hi) = m.spread();
        assert!((lo + 0.01).abs() < 1e-3 && (hi - 0.3).abs() < 1e-3);
        let report = check_overhead(&m, 0.10).unwrap();
        assert!(report.contains("median of 5 pairs"), "{report}");
        // A majority of slow pairs trips it.
        let slow = fake_pairs(
            &[
                (1_000_000.0, 850_000.0),
                (1_000_000.0, 860_000.0),
                (1_000_000.0, 1_000_000.0),
            ],
            100,
        );
        assert!(check_overhead(&slow, 0.10).is_err());
    }

    #[test]
    fn gate_accepts_small_overhead_and_rejects_large() {
        // 2% loss: under the 5% ceiling.
        let ok = check_overhead(&fake_overhead(1_000_000.0, 980_000.0, 10), 0.05);
        assert!(ok.is_ok(), "{ok:?}");
        // 12% loss: over.
        let bad = check_overhead(&fake_overhead(1_000_000.0, 880_000.0, 10), 0.05);
        assert!(bad.unwrap_err().contains("regressed"));
        // Armed-faster (noise) passes.
        let noise = check_overhead(&fake_overhead(1_000_000.0, 1_010_000.0, 10), 0.05);
        assert!(noise.is_ok(), "{noise:?}");
    }

    #[test]
    fn zero_epochs_is_a_vacuous_measurement() {
        let bad = check_overhead(&fake_overhead(1_000_000.0, 1_000_000.0, 0), 0.05);
        assert!(bad.unwrap_err().contains("vacuous"));
    }

    #[test]
    fn ceiling_comes_from_the_committed_document() {
        let doc = Json::parse(r#"{"commit_overhead": {"max_overhead": 0.07}}"#).unwrap();
        assert!((gate_ceiling(&doc, 0.05) - 0.07).abs() < 1e-12);
        let empty = Json::parse("{}").unwrap();
        assert!((gate_ceiling(&empty, 0.05) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn overhead_json_round_trips() {
        let doc = overhead_json(&fake_overhead(1_000_000.0, 980_000.0, 10), 0.05);
        let back = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("epochs").and_then(Json::as_u64), Some(10));
        let pairs = back.get("pair_overheads").and_then(Json::as_arr).unwrap();
        assert_eq!(pairs.len(), 1);
    }
}
