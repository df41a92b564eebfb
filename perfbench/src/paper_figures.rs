//! `paper-figures`: every table and figure of the paper at paper scale.
//!
//! Many short simulations (about 9 ms each) across all twelve workloads
//! and six systems, through `Harness` over a `Runner` with one worker
//! and the disk cache off. Here the runner, job identity and rendering
//! layers do real work, and no other workload exercises them.
//!
//! `Harness` reads cells at the paper's configuration, which fixes the
//! seed, so the figures are always rendered at the paper's seed. The
//! benchmark's `--seed` goes into a second copy of the headline grid
//! (the nine STAMP workloads under Baseline, CHATS, Power and PCHATS),
//! run through its own runner; `paper_headline_err_pp` is the headline
//! computed on that grid, so accuracy is checked on seeds nobody tuned
//! against.

use crate::exact::Counts;
use crate::trace::Ctx;
use crate::workload::{fnv1a, headline, headline_err_pp, probe_machine_new, Iter, Workload};
use chats_bench::{figures, Harness, Scale};
use chats_core::{HtmSystem, PolicyConfig};
use chats_runner::{experiments, JobOutcome, JobSet, JobSpec, Runner, RunnerConfig};
use chats_sim::SimRng;
use chats_stats::RunStats;
use chats_workloads::{prepare_run, registry, RunConfig};

/// Jobs per warm call; a reference slice runs between calls.
const CHUNK: usize = 4;
/// Grid constructions per iteration (the set-up samples).
const SETUP_REPS: usize = 10;
/// The systems of the headline rows, in [`headline`]'s cell order.
const HEADLINE_SYSTEMS: [HtmSystem; 4] = [
    HtmSystem::Baseline,
    HtmSystem::Chats,
    HtmSystem::Power,
    HtmSystem::Pchats,
];

pub struct PaperFigures {
    seed: u64,
}

impl PaperFigures {
    pub fn new(seed: u64) -> PaperFigures {
        PaperFigures { seed }
    }
}

/// One worker, disk cache off: every job executes, nothing is written.
fn runner() -> Runner {
    Runner::new(RunnerConfig {
        jobs: 1,
        use_cache: false,
        quiet: true,
        ..RunnerConfig::default()
    })
}

/// The experiment sets behind the rendered figures (every set but the
/// smart-contract one, which no figure reads).
fn figure_sets() -> Vec<&'static str> {
    experiments::available()
        .iter()
        .copied()
        .filter(|id| *id != "evm")
        .collect()
}

/// The paper-scale figure grid and the seeded headline grid.
fn grids(seed: u64) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let paper = experiments::union(figure_sets(), Scale::Paper)
        .expect("every listed experiment set exists")
        .iter()
        .cloned()
        .collect();
    let cfg = RunConfig::paper().with_seed(seed);
    let seeded = registry::stamp()
        .iter()
        .flat_map(|w| {
            HEADLINE_SYSTEMS
                .iter()
                .map(|&s| JobSpec::new(w.name(), PolicyConfig::for_system(s), cfg.clone()))
        })
        .collect();
    (paper, seeded)
}

/// Headline cells for the STAMP workloads, read through `stats`.
fn headline_of(stats: impl Fn(&JobSpec) -> Option<RunStats>, cfg: &RunConfig) -> [f64; 4] {
    let cells: Vec<[Option<RunStats>; 4]> = registry::stamp()
        .iter()
        .map(|w| {
            HEADLINE_SYSTEMS.map(|s| {
                stats(&JobSpec::new(
                    w.name(),
                    PolicyConfig::for_system(s),
                    cfg.clone(),
                ))
            })
        })
        .collect();
    let refs: Vec<[Option<&RunStats>; 4]> = cells
        .iter()
        .map(|c| [0, 1, 2, 3].map(|i| c[i].as_ref()))
        .collect();
    headline(&refs)
}

/// The four `value` cells of the rendered headline table, in percent.
fn rendered_headline(csv: &str) -> Option<[f64; 4]> {
    let vals: Vec<f64> = csv
        .lines()
        .skip(1)
        .filter_map(|l| l.split(',').nth(1))
        .filter_map(|v| v.trim_end_matches('%').parse().ok())
        .collect();
    <[f64; 4]>::try_from(vals).ok()
}

/// Runs `specs` through `runner` four at a time, a reference slice after
/// each call, and adds the results to `it` and `counts`.
fn warm(ctx: &mut Ctx, it: &mut Iter, counts: &mut Counts, runner: &Runner, specs: &[JobSpec]) {
    for chunk in specs.chunks(CHUNK) {
        let mut set = JobSet::new();
        for s in chunk {
            set.push(s.clone());
        }
        let report = ctx.span("runner.run_set", |_| runner.run_set(&set));
        let overhead = report.wall.saturating_sub(report.busy()).as_secs_f64();
        it.runner_overhead += overhead;
        for (spec, rec) in chunk.iter().zip(&report.records) {
            it.op(matches!(rec.outcome, JobOutcome::Executed));
            match report.stats_for(spec) {
                Some(st) => {
                    counts.add(st);
                    it.events += st.events;
                }
                None => it
                    .problems
                    .push(format!("{}: {}", rec.label, rec.outcome.label())),
            }
        }
        ctx.gap();
    }
}

impl Workload for PaperFigures {
    fn iteration(&mut self, ctx: &mut Ctx) -> Iter {
        let mut it = Iter {
            sim_span: "runner.run_set",
            ..Iter::default()
        };
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let (g, secs) = ctx.timed("runner.grid", |_| grids(self.seed));
            it.setup.push(secs);
            built = Some(g);
            ctx.gap();
        }
        let (paper, seeded) = built.expect("at least one set-up");

        let h = Harness::with_runner(Scale::Paper, runner());
        let seeded_runner = runner();
        let mut counts = Counts::default();
        warm(ctx, &mut it, &mut counts, h.runner(), &paper);
        warm(ctx, &mut it, &mut counts, &seeded_runner, &seeded);
        it.exact.put("runner.jobs", paper.len() + seeded.len());

        let mut rendered = String::new();
        let mut headline_csv = String::new();
        for id in figures::available() {
            let table = ctx.span("bench.render", |_| figures::run_by_name(&h, id));
            it.op(!table.is_empty());
            let csv = table.to_csv();
            if id == "headline" {
                headline_csv.clone_from(&csv);
            }
            rendered.push_str(&csv);
            ctx.gap();
        }
        // Cells resolved through the runner: every warmed job, plus every
        // cell of the grids `run_by_name` warms before it renders.
        let cells = paper.len()
            + seeded.len()
            + figures::available()
                .iter()
                .filter_map(|id| experiments::set(id, Scale::Paper))
                .map(|s| s.len())
                .sum::<usize>();
        it.exact.put("runner.cells", cells);
        it.exact
            .put("render.fnv", format!("{:016x}", fnv1a(rendered.as_bytes())));

        match rendered_headline(&headline_csv) {
            Some(shown) => {
                let err = headline_err_pp(&shown);
                it.exact.put("render.headline_err_pp", format!("{err:.6}"));
                // Our arithmetic over the same memo must give the table.
                let ours = headline_of(|s| h.runner().run_one(s).ok(), &RunConfig::paper());
                for (row, (o, s)) in ours.iter().zip(shown).enumerate() {
                    if (o - s).abs() > 0.05 + 1e-9 {
                        it.problems
                            .push(format!("headline row {row}: table {s}, recomputed {o}"));
                    }
                }
            }
            None => it.problems.push("headline table did not parse".to_string()),
        }
        let seeded_cfg = RunConfig::paper().with_seed(self.seed);
        let ours = headline_of(|s| seeded_runner.run_one(s).ok(), &seeded_cfg);
        it.exact.put(
            "paper_headline_err_pp",
            format!("{:.6}", headline_err_pp(&ours)),
        );
        counts.write(&mut it.exact);
        it
    }

    fn probes(&mut self, ctx: &mut Ctx, it: &mut Iter) {
        let (paper, seeded) = grids(self.seed);
        let ids = ctx.span("runner.job_id", |_| {
            paper
                .iter()
                .chain(&seeded)
                .map(|s| s.id().0)
                .fold(0u64, |a, b| a ^ b)
        });
        std::hint::black_box(ids);
        // Inside the runner the workload and machine layers run out of
        // reach; one CHATS cell per workload measures them directly.
        let cfg = RunConfig::paper();
        probe_machine_new(ctx, &chats_runner::MAIN_SYSTEMS, &cfg);
        for w in registry::all() {
            let mut rng = SimRng::seed_from(cfg.seed);
            let setup = ctx.span("workloads.setup", |_| {
                w.setup(cfg.threads, cfg.seed, &mut rng)
            });
            drop(setup);
            let policy = PolicyConfig::for_system(HtmSystem::Chats);
            let mut prep = ctx.span("workloads.prepare", |_| {
                prepare_run(w.as_ref(), policy, &cfg)
            });
            let ok = prep.machine.run(cfg.max_cycles).is_ok()
                && ctx
                    .span("workloads.check", |_| (prep.checker)(&prep.machine))
                    .is_ok();
            if !ok {
                it.problems
                    .push(format!("probe run of {} failed", w.name()));
            }
            ctx.gap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rendered_headline_parses() {
        let csv = "metric,value,paper\na,37.5%,22%\nb,20.1%,16%\nc,66.9%,34%\nd,53.4%,49%\n";
        assert_eq!(rendered_headline(csv), Some([37.5, 20.1, 66.9, 53.4]));
        assert_eq!(rendered_headline("metric,value,paper\n"), None);
    }

    #[test]
    fn the_figure_grid_has_its_known_size() {
        let (paper, seeded) = grids(1);
        assert_eq!(paper.len(), 504);
        assert_eq!(seeded.len(), registry::stamp().len() * 4);
        assert!(seeded.iter().all(|s| s.config.seed == 1));
    }
}
