//! The CHATS simulator's benchmark.
//!
//! ```text
//! chats-perfbench --workload W --seed N --seconds S --trace 0|1
//! chats-perfbench --workload W --seed N --print-exact
//! ```
//!
//! Repeats the workload's operations for `S` seconds, checks every
//! output, and prints as the last line of standard output one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A readable table goes to standard error. `--print-exact`
//! runs the workload once and prints its exact values in the format of
//! `recorded.txt`. See README.md for the workloads, the metrics and how
//! host time is normalised.

mod diagnose;
mod exact;
mod host;
mod metrics;
mod paper_figures;
mod token_storm;
mod trace;
mod workload;

use exact::{differences, recorded, Exact};
use host::{cpu_now, median, reference_factor, Reference};
use metrics::{result_line, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_times, to_jsonl, Ctx};
use workload::{Iter, Workload};

const USAGE: &str = "\
usage: chats-perfbench --workload W --seed N --seconds S --trace 0|1
       chats-perfbench --workload W --seed N --print-exact

workloads: paper-figures, token-storm, diagnose";

const RECORDED: &str = include_str!("../recorded.txt");

const WORKLOADS: [&str; 3] = ["paper-figures", "token-storm", "diagnose"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_exact: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_exact = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--print-exact" => print_exact = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = seed.ok_or("--seed is required")?;
    if print_exact {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            print_exact,
        });
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = trace.ok_or("--trace is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        print_exact,
    })
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "paper-figures" => Box::new(paper_figures::PaperFigures::new(seed)),
        "token-storm" => Box::new(token_storm::TokenStorm::new(seed)),
        "diagnose" => Box::new(diagnose::Diagnose::new(seed)),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

/// One measured iteration.
struct Record {
    it: Iter,
    /// Raw CPU seconds of the operations (reference slices left out).
    ops: f64,
    /// Raw wall seconds of the operations, slices left out.
    wall: f64,
    /// Raw seconds → reference seconds.
    factor: f64,
    /// Raw CPU seconds per span name: of the timed part, and with probes.
    timed: BTreeMap<&'static str, f64>,
    totals: BTreeMap<&'static str, f64>,
    slice_median: f64,
    /// Self time per span name, when spans were recorded.
    self_times: Option<BTreeMap<&'static str, f64>>,
}

impl Record {
    fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chats-perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !host::single_arena() {
        eprintln!("chats-perfbench: could not limit malloc to one arena");
    }
    let mut wl = build(&args.workload, args.seed);
    let mut ctx = Ctx::new(Reference::new(), false);
    if args.print_exact {
        let mut it = wl.iteration(&mut ctx);
        it.seal();
        print!("{}", exact::render(&args.workload, args.seed, &it.exact));
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    let origin = cpu_now();
    let mut records: Vec<Record> = Vec::new();
    let mut spans_out = String::new();
    let mut peak_rss = 0.0;
    loop {
        // Traced runs alternate iterations with and without spans, so the
        // spans' own cost shows.
        let record_spans = args.trace && records.len().is_multiple_of(2);
        ctx.start_iteration(record_spans);
        let w0 = Instant::now();
        let c0 = cpu_now();
        let mut it = wl.iteration(&mut ctx);
        let cpu = cpu_now() - c0;
        let wall = w0.elapsed().as_secs_f64();
        let slices: f64 = ctx.slices.iter().sum();
        let factor = reference_factor(&ctx.slices);
        let slice_median = median(&ctx.slices);
        let timed = ctx.totals.clone();
        // What one run of the workload costs a user: the process peak
        // through the first iteration. Later iterations start on heaps
        // the earlier ones left behind, and their peaks creep upwards.
        if records.is_empty() {
            peak_rss = host::peak_rss_mb();
        }
        if args.trace {
            ctx.start_probes();
            wl.probes(&mut ctx, &mut it);
        }
        it.seal();
        if record_spans {
            spans_out.push_str(&to_jsonl(records.len(), &ctx.spans, origin));
        }
        records.push(Record {
            it,
            ops: cpu - slices,
            wall: wall - slices,
            factor,
            timed,
            totals: ctx.totals.clone(),
            slice_median,
            self_times: record_spans.then(|| self_times(&ctx.spans)),
        });
        let elapsed = start.elapsed().as_secs_f64();
        let per_iteration = elapsed / records.len() as f64;
        let enough = records.len() >= if args.trace { 2 } else { 1 };
        if enough && elapsed + per_iteration > args.seconds as f64 {
            break;
        }
    }

    let mut problems = Vec::new();
    let first = records[0].it.exact.clone();
    for (i, r) in records.iter().enumerate().skip(1) {
        for d in differences(&r.it.exact, &first) {
            problems.push(format!("iteration {i} differs from iteration 0: {d}"));
        }
    }
    if let Some(want) = recorded(RECORDED, &args.workload, args.seed) {
        for d in differences(&first, &want) {
            problems.push(format!(
                "recorded value for seed {} differs: {d}",
                args.seed
            ));
        }
    }
    for r in &records {
        problems.extend(r.it.problems.iter().cloned());
    }
    problems.sort();
    problems.dedup();
    let attempted: u64 = records.iter().map(|r| r.it.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.it.failed).sum();

    let (table, values) = if args.trace {
        (PER_LAYER, per_layer(&records, &first))
    } else {
        (END_TO_END, end_to_end(&records, &first, peak_rss))
    };
    for (name, v) in &values {
        if !v.is_finite() {
            problems.push(format!("metric {name} is not a number"));
        }
    }
    let values: BTreeMap<&str, f64> = values
        .into_iter()
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        .map(|(k, v)| (k, if v.is_finite() { v + 0.0 } else { 0.0 }))
        .collect();

    eprintln!(
        "{} seed {}: {} iterations, {:.1} s",
        args.workload,
        args.seed,
        records.len(),
        start.elapsed().as_secs_f64()
    );
    for (name, unit) in table {
        eprintln!("  {name:<28} {:>18.6} {unit}", values[name]);
    }
    eprintln!("  failed / attempted           {failed} / {attempted}");
    eprintln!(
        "  raw medians: cpu {:.6} s, wall {:.6} s, reference slice {:.0} ns",
        med(&records, |r| r.ops),
        med(&records, |r| r.wall),
        med(&records, |r| r.slice_median * 1e9)
    );
    for p in &problems {
        eprintln!("  WRONG: {p}");
    }
    if args.trace {
        if let Some(path) = write_spans(&args.workload, args.seed, &spans_out) {
            eprintln!("  spans: {}", path.display());
        }
        print_self_times(&records);
    }
    println!(
        "{}",
        result_line(problems.is_empty(), attempted, failed, table, &values)
    );
    ExitCode::SUCCESS
}

/// Median over iterations of `f`.
fn med(records: &[Record], f: impl Fn(&Record) -> f64) -> f64 {
    median(&records.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(records: &[Record], first: &Exact, peak_rss: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("wall_s", med(records, |r| r.ops * r.factor));
    m.insert(
        "setup_s",
        med(records, |r| {
            r.it.setup.iter().sum::<f64>() / r.it.setup.len().max(1) as f64 * r.factor
        }),
    );
    m.insert(
        "sim_events_per_s",
        med(records, |r| {
            let secs = r.timed.get(r.it.sim_span).copied().unwrap_or(0.0);
            r.it.events as f64 / (secs * r.factor)
        }),
    );
    m.insert("peak_rss_mb", peak_rss);
    m.insert("sim_cycles", first.num("sim_cycles"));
    m.insert("paper_headline_err_pp", first.num("paper_headline_err_pp"));
    m
}

fn per_layer(records: &[Record], first: &Exact) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let time = |name: &'static str| med(records, |r| r.total(name) * r.factor);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    m.insert("runner.jobs", first.num("runner.jobs"));
    m.insert("runner.cells", first.num("runner.cells"));
    m.insert("runner.job_id_s", time("runner.job_id"));
    m.insert(
        "runner.overhead_s",
        med(records, |r| r.it.runner_overhead * r.factor),
    );
    m.insert("bench.render_s", time("bench.render"));
    m.insert("workloads.setup_s", time("workloads.setup"));
    m.insert("workloads.prepare_s", time("workloads.prepare"));
    m.insert("workloads.check_s", time("workloads.check"));
    m.insert("machine.new_s", time("machine.new"));
    let run_s = med(records, |r| {
        r.timed.get(r.it.sim_span).copied().unwrap_or(0.0) * r.factor
    });
    m.insert("machine.run_s", run_s);
    let events = records[0].it.events as f64;
    m.insert("machine.ns_per_event", ratio(run_s * 1e9, events));

    for key in [
        "sim.events",
        "tvm.instructions",
        "noc.flits",
        "noc.messages",
        "core.tx_attempts",
        "core.commits",
        "core.aborts",
        "core.forwardings",
        "core.fallbacks",
        "core.nacks",
        "commit.epochs",
        "snap.state_bytes",
        "check.events_replayed",
        "obs.trace_events",
    ] {
        m.insert(key, first.num(key));
    }
    m.insert(
        "core.commit_ratio",
        ratio(first.num("core.commits"), first.num("core.tx_attempts")),
    );
    m.insert(
        "core.validation_ok_ratio",
        ratio(
            first.num("core.validations_ok"),
            first.num("core.validations"),
        ),
    );

    let armed = time("commit.armed_run");
    let unarmed = time("commit.unarmed_run");
    let probe_epochs = records[0].it.probe_epochs as f64;
    m.insert("commit.armed_run_s", armed);
    m.insert(
        "commit.ns_per_epoch",
        ratio((armed - unarmed) * 1e9, probe_epochs),
    );
    m.insert("snap.checkpoint_s", time("snap.checkpoint"));
    m.insert("snap.restore_s", time("snap.restore"));
    m.insert("check.dissect_s", time("check.dissect"));
    m.insert(
        "check.pin_match_ratio",
        ratio(
            first.num("check.pins_matched"),
            first.num("check.pairs_perturbed"),
        ),
    );

    let traced = time("obs.traced_run");
    let untraced = time("obs.untraced_run");
    m.insert("obs.traced_run_s", traced);
    m.insert("obs.trace_overhead_ratio", ratio(traced, untraced));
    m.insert("obs.timeline_s", time("obs.timeline"));
    m.insert(
        "obs.ns_per_trace_event",
        ratio((traced - untraced) * 1e9, first.num("obs.trace_events")),
    );

    m.insert("host.ref_slice_ns", med(records, |r| r.slice_median * 1e9));
    m.insert("host.raw_wall_s", med(records, |r| r.wall));
    m.insert("host.raw_cpu_s", med(records, |r| r.ops));
    let (on, off): (Vec<&Record>, Vec<&Record>) =
        records.iter().partition(|r| r.self_times.is_some());
    let norm = |rs: &[&Record]| median(&rs.iter().map(|r| r.ops * r.factor).collect::<Vec<_>>());
    m.insert("host.span_overhead_ratio", ratio(norm(&on), norm(&off)));

    for (metric, prefixes) in SHARES {
        let share = median(
            &on.iter()
                .map(|r| {
                    let st = r.self_times.as_ref().expect("recorded iteration");
                    let layer: f64 = st
                        .iter()
                        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
                        .map(|(_, v)| v)
                        .sum();
                    ratio(layer, r.ops)
                })
                .collect::<Vec<_>>(),
        );
        m.insert(metric, share);
    }
    m
}

/// Share metrics: self time of the named layers over the iteration.
const SHARES: [(&str, &[&str]); 5] = [
    ("share.machine", &["machine."]),
    ("share.runner", &["runner."]),
    ("share.bench", &["bench."]),
    ("share.workloads", &["workloads."]),
    ("share.diagnosis", &["commit.", "snap.", "check.", "obs."]),
];

/// Writes the recorded spans as JSON lines under the build directory.
fn write_spans(workload: &str, seed: u64, jsonl: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("  spans not written to {}: {e}", path.display());
            None
        }
    }
}

/// Self time per span name, summed over the recorded iterations.
fn print_self_times(records: &[Record]) {
    let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
    let mut ops = 0.0;
    for r in records {
        if let Some(st) = &r.self_times {
            ops += r.ops;
            for (k, v) in st {
                *sum.entry(k).or_default() += v;
            }
        }
    }
    eprintln!("  self time of the timed part (raw CPU s, share):");
    for (k, v) in sum {
        eprintln!("    {k:<24} {v:>10.4} {:>7.1}%", 100.0 * v / ops.max(1e-12));
    }
}
