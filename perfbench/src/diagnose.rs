//! `diagnose`: what a user runs to explain a run.
//!
//! * Perturbed dissections: side B under `lossy-noc`, commitment interval
//!   256, paper scale, CHATS, on six workloads. Each must pin side B's
//!   first fault injection.
//! * One identical pair, which must come out identical.
//! * A `checkpoint` → `restore` → finish round trip, which must end
//!   exactly where the uninterrupted run ends.
//! * A traced profile (`VecSink` + `Timeline::rebuild`) of a token-storm
//!   run, whose timeline must count the run's commits.
//!
//! Commitment hashing, snapshots, lockstep replay and trace sinks do most
//! of the work here and none in the other two workloads.
//!
//! Known defect, counted and not hidden: at the default seed, kmeans-h
//! pins a `CoreStep` at cycle 295 on core 0 with `fault_injected_here`
//! false, at intervals 64 and 256 (1024 and 4096 pin the injection
//! itself). That pair counts as one failed operation.

use crate::exact::Counts;
use crate::token_storm::run_strided;
use crate::trace::Ctx;
use crate::workload::{headline, headline_err_pp, probe_machine_new, Iter, Workload};
use chats_check::{dissect, DissectOutcome, DissectRequest, DissectSide, FaultPlan};
use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::RunProgress;
use chats_obs::{Timeline, VecSink};
use chats_sim::SimRng;
use chats_stats::RunStats;
use chats_workloads::{prepare_run, registry, PreparedRun, RunConfig};

/// Dissected workloads.
const DISSECTED: [&str; 6] = [
    "genome",
    "intruder",
    "kmeans-h",
    "labyrinth",
    "yada",
    "cadd",
];
/// Workload of the identical pair, the round trip and the commit probe.
const PAIRED: &str = "kmeans-h";
/// Commitment interval of every dissection.
const INTERVAL: u64 = 256;

pub struct Diagnose {
    seed: u64,
}

impl Diagnose {
    pub fn new(seed: u64) -> Diagnose {
        Diagnose { seed }
    }

    fn cfg(&self) -> RunConfig {
        RunConfig::paper().with_seed(self.seed)
    }
}

fn chats() -> PolicyConfig {
    PolicyConfig::for_system(HtmSystem::Chats)
}

/// `prepare_run`, timed as one set-up sample.
fn prepare(
    ctx: &mut Ctx,
    it: &mut Iter,
    name: &str,
    policy: PolicyConfig,
    cfg: &RunConfig,
) -> PreparedRun {
    let w = registry::by_name(name).expect("registered workload");
    let (prep, secs) = ctx.timed("workloads.prepare", |_| {
        prepare_run(w.as_ref(), policy, cfg)
    });
    it.setup.push(secs);
    prep
}

/// Runs `prep` to the end and checks its final memory, as one
/// operation; a completed run joins `counts`.
fn finish(
    ctx: &mut Ctx,
    it: &mut Iter,
    counts: &mut Counts,
    label: &str,
    mut prep: PreparedRun,
    max_cycles: u64,
) -> Option<RunStats> {
    let stats = match ctx.span("machine.run", |_| prep.machine.run(max_cycles)) {
        Ok(s) => s,
        Err(e) => {
            it.op(false);
            it.problems.push(format!("{label}: {e}"));
            return None;
        }
    };
    it.events += stats.events;
    counts.add(&stats);
    let checked = ctx.span("workloads.check", |_| (prep.checker)(&prep.machine));
    it.op(checked.is_ok());
    match checked {
        Ok(()) => Some(stats),
        Err(e) => {
            it.problems.push(format!("{label}: {e}"));
            None
        }
    }
}

impl Diagnose {
    /// Each dissected workload run directly: clean and under `lossy-noc`
    /// (the two sides of its dissection) and, for STAMP, under the
    /// Baseline. Returns the clean CHATS statistics of [`PAIRED`].
    fn direct_runs(&self, ctx: &mut Ctx, it: &mut Iter, counts: &mut Counts) -> Option<RunStats> {
        let cfg = self.cfg();
        let lossy = cfg.clone().with_faults(FaultPlan::lossy_noc());
        let base = PolicyConfig::for_system(HtmSystem::Baseline);
        let mut cells = Vec::new();
        let mut paired = None;
        for name in DISSECTED {
            let micro = registry::by_name(name).is_some_and(|w| w.is_micro());
            let prep = prepare(ctx, it, name, chats(), &cfg);
            let clean = finish(ctx, it, counts, name, prep, cfg.max_cycles);
            let prep = prepare(ctx, it, name, chats(), &lossy);
            let faulted = finish(ctx, it, counts, name, prep, lossy.max_cycles);
            if let (Some(c), Some(f)) = (&clean, &faulted) {
                it.exact.put(format!("{name}.cycles"), c.cycles);
                it.exact.put(format!("{name}.lossy_cycles"), f.cycles);
            }
            if !micro {
                let prep = prepare(ctx, it, name, base, &cfg);
                let b = finish(ctx, it, counts, name, prep, cfg.max_cycles);
                cells.push((b, clean.clone()));
            }
            if name == PAIRED {
                paired.clone_from(&clean);
            }
            ctx.gap();
        }
        let rows: Vec<[Option<&RunStats>; 4]> = cells
            .iter()
            .map(|(b, c)| [b.as_ref(), c.as_ref(), None, None])
            .collect();
        let err = headline_err_pp(&headline(&rows));
        it.exact.put("paper_headline_err_pp", format!("{err:.6}"));
        paired
    }

    fn dissections(&self, ctx: &mut Ctx, it: &mut Iter) {
        let cfg = self.cfg();
        let side = |label: &str, config: RunConfig| DissectSide {
            label: label.to_string(),
            config,
        };
        let (mut epochs, mut replayed, mut matched) = (0u64, 0u64, 0u64);
        for name in DISSECTED {
            let req = DissectRequest {
                workload: name.to_string(),
                policy: chats(),
                interval: INTERVAL,
                a: side("clean", cfg.clone()),
                b: side("lossy-noc", cfg.clone().with_faults(FaultPlan::lossy_noc())),
            };
            let report = ctx.span("check.dissect", |_| dissect(&req));
            let pinned = match report {
                Ok(r) => {
                    epochs += r.epochs_a + r.epochs_b;
                    match r.outcome {
                        DissectOutcome::Diverged(d) => {
                            replayed += d.events_replayed;
                            d.event.map(|e| {
                                it.exact.put(
                                    format!("dissect.{name}.pin"),
                                    format!(
                                        "cycle{}-core{}-injected:{}",
                                        e.time,
                                        e.core.map_or("-".to_string(), |c| c.to_string()),
                                        e.fault_injected_here
                                    ),
                                );
                                e.fault_injected_here
                            })
                        }
                        DissectOutcome::Identical { .. } => None,
                    }
                }
                Err(e) => {
                    it.problems.push(format!("dissect {name}: {e}"));
                    None
                }
            };
            let hit = pinned == Some(true);
            matched += u64::from(hit);
            it.op(hit);
            if pinned.is_none() {
                it.exact.put(format!("dissect.{name}.pin"), "none");
            }
            ctx.gap();
        }
        let req = DissectRequest {
            workload: PAIRED.to_string(),
            policy: chats(),
            interval: INTERVAL,
            a: side("a", cfg.clone()),
            b: side("b", cfg),
        };
        let report = ctx.span("check.dissect", |_| dissect(&req));
        let identical = match report {
            Ok(r) => {
                epochs += r.epochs_a + r.epochs_b;
                matches!(r.outcome, DissectOutcome::Identical { .. })
            }
            Err(e) => {
                it.problems.push(format!("identical pair: {e}"));
                false
            }
        };
        it.op(identical);
        it.exact.put("dissect.identical", identical);
        it.exact.put("commit.epochs", epochs);
        it.exact.put("check.events_replayed", replayed);
        it.exact.put("check.pins_matched", matched);
        it.exact.put("check.pairs_perturbed", DISSECTED.len());
        ctx.gap();
    }

    /// Checkpoint halfway, restore into a fresh machine, finish; the
    /// result must equal the uninterrupted run's.
    fn round_trip(
        &self,
        ctx: &mut Ctx,
        it: &mut Iter,
        counts: &mut Counts,
        whole: Option<&RunStats>,
    ) {
        let cfg = self.cfg();
        let Some(whole) = whole else {
            it.op(false);
            return;
        };
        let half = whole.cycles / 2 / INTERVAL * INTERVAL;
        let mut first = prepare(ctx, it, PAIRED, chats(), &cfg);
        let paused = ctx.span("machine.run", |_| {
            first.machine.run_to(half, cfg.max_cycles)
        });
        if !matches!(paused, Ok(RunProgress::Paused { .. })) {
            it.op(false);
            it.problems
                .push(format!("round trip: no pause at cycle {half}"));
            return;
        }
        let bytes = ctx.span("snap.checkpoint", |_| first.machine.checkpoint());
        drop(first);
        ctx.gap();
        let mut second = prepare(ctx, it, PAIRED, chats(), &cfg);
        let restored = ctx.span("snap.restore", |_| second.machine.restore(&bytes));
        if let Err(e) = restored {
            it.op(false);
            it.problems.push(format!("round trip: restore failed: {e}"));
            return;
        }
        it.exact.put("snap.state_bytes", bytes.len());
        let end = finish(ctx, it, counts, "round trip", second, cfg.max_cycles);
        if end.is_some() && end.as_ref() != Some(whole) {
            // `finish` counted the operation; its result is still wrong.
            it.failed += 1;
            it.problems
                .push("round trip: restored run ended differently".to_string());
        }
        ctx.gap();
    }

    /// A traced token-storm run, rebuilt into a timeline.
    fn profile(&self, ctx: &mut Ctx, it: &mut Iter, counts: &mut Counts) {
        let cfg = self.cfg();
        let mut prep = prepare(ctx, it, "evm-token-storm", chats(), &cfg);
        prep.machine.set_trace_sink(Box::new(VecSink::new()));
        let stats = match run_strided(ctx, &mut prep, cfg.max_cycles, Some("obs.traced_run")) {
            Ok(s) => s,
            Err(e) => {
                it.op(false);
                it.problems.push(format!("traced run: {e}"));
                return;
            }
        };
        let events = VecSink::into_events(prep.machine.take_trace_sink().expect("sink installed"));
        let timeline = ctx.span("obs.timeline", |_| Timeline::rebuild(&events, stats.cycles));
        let checked = ctx.span("workloads.check", |_| (prep.checker)(&prep.machine));
        let ok = checked.is_ok() && timeline.commits() == stats.commits;
        it.op(ok);
        if !ok {
            it.problems.push(format!(
                "traced run: check {checked:?}, timeline commits {} vs {}",
                timeline.commits(),
                stats.commits
            ));
        }
        it.exact.put("obs.trace_events", events.len());
        it.exact.put("token.cycles", stats.cycles);
        it.events += stats.events;
        counts.add(&stats);
        drop(events);
        ctx.gap();
    }
}

impl Workload for Diagnose {
    fn iteration(&mut self, ctx: &mut Ctx) -> Iter {
        let mut it = Iter {
            sim_span: "machine.run",
            ..Iter::default()
        };
        let mut counts = Counts::default();
        let paired = self.direct_runs(ctx, &mut it, &mut counts);
        self.dissections(ctx, &mut it);
        self.round_trip(ctx, &mut it, &mut counts, paired.as_ref());
        self.profile(ctx, &mut it, &mut counts);
        counts.write(&mut it.exact);
        it
    }

    fn probes(&mut self, ctx: &mut Ctx, it: &mut Iter) {
        let cfg = self.cfg();
        probe_machine_new(ctx, &[HtmSystem::Chats], &cfg);
        for name in DISSECTED.iter().chain(&["evm-token-storm"]) {
            let w = registry::by_name(name).expect("registered workload");
            let mut rng = SimRng::seed_from(cfg.seed);
            let setup = ctx.span("workloads.setup", |_| {
                w.setup(cfg.threads, cfg.seed, &mut rng)
            });
            drop(setup);
        }
        ctx.gap();
        // Commitment cost: the paired workload armed at the dissection
        // interval against the same run unarmed.
        let w = registry::by_name(PAIRED).expect("registered workload");
        let mut armed = prepare_run(w.as_ref(), chats(), &cfg);
        armed.machine.set_commit_interval(INTERVAL);
        let ok = ctx
            .span("commit.armed_run", |_| armed.machine.run(cfg.max_cycles))
            .is_ok();
        it.probe_epochs = armed.machine.commitment_chain().len() as u64;
        ctx.gap();
        let mut unarmed = prepare_run(w.as_ref(), chats(), &cfg);
        let ok = ok
            && ctx
                .span("commit.unarmed_run", |_| {
                    unarmed.machine.run(cfg.max_cycles)
                })
                .is_ok();
        ctx.gap();
        // Trace cost: the profiled token-storm run without a sink.
        let t = registry::by_name("evm-token-storm").expect("registered workload");
        let mut plain = prepare_run(t.as_ref(), chats(), &cfg);
        let ok =
            ok && run_strided(ctx, &mut plain, cfg.max_cycles, Some("obs.untraced_run")).is_ok();
        if !ok {
            it.problems.push("probe runs failed".to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{recorded, DEFAULT_SEED};

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "paper-scale simulation: run with --release"
    )]
    fn the_kmeans_h_mis_pin_is_the_recorded_one() {
        let cfg = RunConfig::paper().with_seed(DEFAULT_SEED);
        let side = |config: RunConfig| DissectSide {
            label: String::new(),
            config,
        };
        let report = dissect(&DissectRequest {
            workload: PAIRED.to_string(),
            policy: chats(),
            interval: INTERVAL,
            a: side(cfg.clone()),
            b: side(cfg.clone().with_faults(FaultPlan::lossy_noc())),
        })
        .unwrap();
        let DissectOutcome::Diverged(d) = report.outcome else {
            panic!("a perturbed pair must diverge");
        };
        let e = d.event.expect("a pinned event");
        let pin = format!(
            "cycle{}-core{}-injected:{}",
            e.time,
            e.core.unwrap(),
            e.fault_injected_here
        );
        let want = recorded(crate::RECORDED, "diagnose", cfg.seed).unwrap();
        assert_eq!(pin, want.0["dissect.kmeans-h.pin"]);
    }
}
