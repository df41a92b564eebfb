//! `token-storm`: `evm-token-storm` at paper scale (16 cores × 6500 =
//! 104k user transactions) under CHATS and under the Baseline.
//!
//! One long contended run in which the simulator core does almost all of
//! the work, used in two different ways: CHATS forwards along chains and
//! validates, the Baseline aborts far more often and falls back to the
//! global lock. Each run is checked exactly against the sequential
//! ground truth the workload replays at set-up.

use crate::exact::Counts;
use crate::trace::Ctx;
use crate::workload::{headline, headline_err_pp, probe_machine_new, Iter, Workload};
use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::RunProgress;
use chats_sim::SimRng;
use chats_stats::RunStats;
use chats_workloads::{prepare_run, registry, PreparedRun, RunConfig};

/// Cycles simulated between two reference slices.
pub const STRIDE: u64 = 250_000;
/// `prepare_run` calls per system and iteration (the set-up samples).
const SETUP_REPS: usize = 2;
const SYSTEMS: [(HtmSystem, &str); 2] = [
    (HtmSystem::Chats, "chats"),
    (HtmSystem::Baseline, "baseline"),
];

pub struct TokenStorm {
    seed: u64,
}

impl TokenStorm {
    pub fn new(seed: u64) -> TokenStorm {
        TokenStorm { seed }
    }
}

/// Runs a prepared machine to completion in [`STRIDE`]-cycle
/// `machine.run` spans, each inside an `outer` span when one is named,
/// with a reference slice after each.
pub fn run_strided(
    ctx: &mut Ctx,
    prep: &mut PreparedRun,
    max_cycles: u64,
    outer: Option<&'static str>,
) -> Result<RunStats, String> {
    let mut at = 0;
    loop {
        at += STRIDE;
        let mut run = |c: &mut Ctx| c.span("machine.run", |_| prep.machine.run_to(at, max_cycles));
        let step = match outer {
            Some(name) => ctx.span(name, run),
            None => run(ctx),
        };
        ctx.gap();
        match step {
            Ok(RunProgress::Paused { .. }) => {}
            Ok(RunProgress::Done(stats)) => return Ok(stats),
            Err(e) => return Err(e.to_string()),
        }
    }
}

impl Workload for TokenStorm {
    fn iteration(&mut self, ctx: &mut Ctx) -> Iter {
        let mut it = Iter {
            sim_span: "machine.run",
            ..Iter::default()
        };
        let w = registry::by_name("evm-token-storm").expect("registered workload");
        let cfg = RunConfig::paper().with_seed(self.seed);
        let mut counts = Counts::default();
        let mut runs = Vec::new();
        for (system, label) in SYSTEMS {
            let policy = PolicyConfig::for_system(system);
            let mut prep = None;
            for _ in 0..SETUP_REPS {
                let (p, secs) = ctx.timed("workloads.prepare", |_| {
                    prepare_run(w.as_ref(), policy, &cfg)
                });
                it.setup.push(secs);
                prep = Some(p);
                ctx.gap();
            }
            let mut prep = prep.expect("at least one set-up");
            let stats = match run_strided(ctx, &mut prep, cfg.max_cycles, None) {
                Ok(s) => s,
                Err(e) => {
                    it.op(false);
                    it.problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let checked = ctx.span("workloads.check", |_| (prep.checker)(&prep.machine));
            it.op(checked.is_ok());
            if let Err(e) = checked {
                it.problems.push(format!("{label}: {e}"));
            }
            it.events += stats.events;
            counts.add(&stats);
            it.exact.put(format!("{label}.cycles"), stats.cycles);
            it.exact.put(format!("{label}.commits"), stats.commits);
            it.exact
                .put(format!("{label}.aborts"), stats.total_aborts());
            it.exact
                .put(format!("{label}.fallbacks"), stats.fallback_acquisitions);
            it.exact
                .put(format!("{label}.forwardings"), stats.forwardings);
            runs.push(stats);
        }
        if let [chats, base] = runs.as_slice() {
            let err = headline_err_pp(&headline(&[[Some(base), Some(chats), None, None]]));
            it.exact.put("paper_headline_err_pp", format!("{err:.6}"));
        }
        counts.write(&mut it.exact);
        it
    }

    fn probes(&mut self, ctx: &mut Ctx, _it: &mut Iter) {
        let cfg = RunConfig::paper().with_seed(self.seed);
        probe_machine_new(ctx, &SYSTEMS.map(|(s, _)| s), &cfg);
        let w = registry::by_name("evm-token-storm").expect("registered workload");
        let mut rng = SimRng::seed_from(cfg.seed);
        let setup = ctx.span("workloads.setup", |_| {
            w.setup(cfg.threads, cfg.seed, &mut rng)
        });
        drop(setup);
        ctx.gap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{recorded, DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "paper-scale simulation: run with --release"
    )]
    fn the_chats_run_reproduces_the_recorded_counts() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let cfg = RunConfig::paper().with_seed(seed);
            let w = registry::by_name("evm-token-storm").unwrap();
            let mut prep =
                prepare_run(w.as_ref(), PolicyConfig::for_system(HtmSystem::Chats), &cfg);
            let stats = prep.machine.run(cfg.max_cycles).unwrap();
            (prep.checker)(&prep.machine).unwrap();
            let want = recorded(crate::RECORDED, "token-storm", seed).unwrap();
            assert_eq!(
                stats.cycles.to_string(),
                want.0["chats.cycles"],
                "seed {seed}"
            );
            assert_eq!(
                stats.total_aborts().to_string(),
                want.0["chats.aborts"],
                "seed {seed}"
            );
        }
    }
}
