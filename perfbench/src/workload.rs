//! What every workload shares: the iteration record and the headline
//! arithmetic.

use crate::exact::Exact;
use crate::trace::Ctx;
use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::Machine;
use chats_stats::{amean, RunStats};
use chats_workloads::RunConfig;

/// What one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Iter {
    /// Exact values: counts, outcomes, accuracy. Must repeat.
    pub exact: Exact,
    /// CPU seconds of each set-up sample.
    pub setup: Vec<f64>,
    /// Span whose total is the time spent simulating.
    pub sim_span: &'static str,
    /// Events simulated inside `sim_span`.
    pub events: u64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// `run_set` wall time minus `RunReport::busy`, summed (seconds).
    pub runner_overhead: f64,
    /// Epochs the commit probe's armed run recorded.
    pub probe_epochs: u64,
}

impl Iter {
    /// Counts an operation, and a failure when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records attempted/failed among the exact values.
    pub fn seal(&mut self) {
        self.exact.put("attempted", self.attempted);
        self.exact.put("failed", self.failed);
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Runs the workload's operations once; this is the timed part.
    fn iteration(&mut self, ctx: &mut Ctx) -> Iter;
    /// Extra calls that measure single layers, run after the timed part
    /// when tracing.
    fn probes(&mut self, ctx: &mut Ctx, it: &mut Iter);
}

/// The paper's abstract: CHATS −22% execution time and −34% aborts
/// against the baseline, PCHATS −16% and −49% against Power.
pub const PAPER_HEADLINE: [f64; 4] = [22.0, 16.0, 34.0, 49.0];

/// Headline reductions in percent, computed the way `figures headline`
/// computes them: per workload `(base, chats, power, pchats)` statistics;
/// arithmetic-mean execution-time ratios and pooled abort ratios. Rows
/// follow [`PAPER_HEADLINE`]. Without Power runs the PCHATS rows are NaN.
#[must_use]
pub fn headline(cells: &[[Option<&RunStats>; 4]]) -> [f64; 4] {
    let mut time = [Vec::new(), Vec::new()];
    let mut aborts = [(0u64, 0u64); 2];
    for c in cells {
        for (k, (new, old)) in [(c[1], c[0]), (c[3], c[2])].into_iter().enumerate() {
            if let (Some(new), Some(old)) = (new, old) {
                time[k].push(new.cycles as f64 / old.cycles as f64);
                aborts[k].0 += new.total_aborts();
                aborts[k].1 += old.total_aborts();
            }
        }
    }
    let t = |k: usize| {
        if time[k].is_empty() {
            f64::NAN
        } else {
            (1.0 - amean(&time[k])) * 100.0
        }
    };
    let a = |k: usize| {
        if time[k].is_empty() {
            f64::NAN
        } else {
            (1.0 - aborts[k].0 as f64 / aborts[k].1.max(1) as f64) * 100.0
        }
    };
    [t(0), t(1), a(0), a(1)]
}

/// Mean absolute difference from the paper over the rows that were
/// measured (non-NaN).
#[must_use]
pub fn headline_err_pp(ours: &[f64; 4]) -> f64 {
    let rows: Vec<f64> = ours
        .iter()
        .zip(PAPER_HEADLINE)
        .filter(|(o, _)| !o.is_nan())
        .map(|(o, p)| (o - p).abs())
        .collect();
    amean(&rows)
}

/// Times `Machine::new` for each system on `cfg`'s hardware.
pub fn probe_machine_new(ctx: &mut Ctx, systems: &[HtmSystem], cfg: &RunConfig) {
    for &s in systems {
        let mut sys = cfg.system;
        sys.core.cores = cfg.threads;
        let m = ctx.span("machine.new", |_| {
            Machine::new(sys, PolicyConfig::for_system(s), cfg.tuning, cfg.seed)
        });
        drop(m);
    }
}

/// FNV-1a over `bytes`: a fingerprint of rendered output.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, aborts: u64) -> RunStats {
        let mut s = RunStats {
            cycles,
            ..RunStats::default()
        };
        s.aborts.insert("conflict".into(), aborts);
        s
    }

    #[test]
    fn headline_matches_hand_arithmetic() {
        let (b, c, p, pc) = (stats(100, 10), stats(80, 6), stats(200, 20), stats(150, 10));
        let h = headline(&[[Some(&b), Some(&c), Some(&p), Some(&pc)]]);
        let want = [20.0, 25.0, 40.0, 50.0];
        for (g, w) in h.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{h:?}");
        }
        // |20-22| + |25-16| + |40-34| + |50-49| = 18 over 4 rows.
        assert!((headline_err_pp(&h) - 4.5).abs() < 1e-9);
    }

    #[test]
    fn rows_without_runs_are_left_out() {
        let (b, c) = (stats(100, 10), stats(80, 6));
        let h = headline(&[[Some(&b), Some(&c), None, None]]);
        assert!(h[1].is_nan() && h[3].is_nan());
        // |20-22| + |40-34| over 2 rows.
        assert!((headline_err_pp(&h) - 4.0).abs() < 1e-9);
    }
}
