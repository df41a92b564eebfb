//! Metric names and units, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

use chats_runner::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("paper_headline_err_pp", "pp"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer that does not run
/// on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.jobs", "count"),
    ("runner.cells", "count"),
    ("runner.job_id_s", "s"),
    ("runner.overhead_s", "s"),
    ("bench.render_s", "s"),
    ("workloads.setup_s", "s"),
    ("workloads.prepare_s", "s"),
    ("workloads.check_s", "s"),
    ("machine.new_s", "s"),
    ("machine.run_s", "s"),
    ("machine.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("tvm.instructions", "count"),
    ("noc.flits", "count"),
    ("noc.messages", "count"),
    ("core.tx_attempts", "count"),
    ("core.commits", "count"),
    ("core.aborts", "count"),
    ("core.commit_ratio", "ratio"),
    ("core.forwardings", "count"),
    ("core.validation_ok_ratio", "ratio"),
    ("core.fallbacks", "count"),
    ("core.nacks", "count"),
    ("commit.epochs", "count"),
    ("commit.armed_run_s", "s"),
    ("commit.ns_per_epoch", "ns"),
    ("snap.state_bytes", "bytes"),
    ("snap.checkpoint_s", "s"),
    ("snap.restore_s", "s"),
    ("check.dissect_s", "s"),
    ("check.events_replayed", "count"),
    ("check.pin_match_ratio", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.traced_run_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.timeline_s", "s"),
    ("obs.ns_per_trace_event", "ns"),
    ("host.ref_slice_ns", "ns"),
    ("host.raw_wall_s", "s"),
    ("host.raw_cpu_s", "s"),
    ("host.span_overhead_ratio", "ratio"),
    ("share.machine", "ratio"),
    ("share.runner", "ratio"),
    ("share.bench", "ratio"),
    ("share.workloads", "ratio"),
    ("share.diagnosis", "ratio"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
///
/// # Panics
///
/// Panics if `values` misses a metric of `table` or holds one it does not
/// list: the set printed is fixed by the table.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    assert_eq!(
        values.len(),
        table.len(),
        "metric set differs from its table"
    );
    let metrics = table
        .iter()
        .map(|(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Json::F64(v));
            m.insert("unit".to_string(), Json::Str((*unit).to_string()));
            ((*name).to_string(), Json::Obj(m))
        })
        .collect();
    let mut top = BTreeMap::new();
    top.insert("correct".to_string(), Json::Bool(correct));
    top.insert("attempted".to_string(), Json::U64(attempted));
    top.insert("failed".to_string(), Json::U64(failed));
    top.insert("metrics".to_string(), Json::Obj(metrics));
    Json::Obj(top).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A name starts with a letter or digit and has at most 64 letters,
    /// digits, `_`, `.` and `-`.
    #[must_use]
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit has 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    #[must_use]
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_fits_the_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("s per event"));
    }

    #[test]
    fn names_are_used_once() {
        let mut seen = BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_parses_back() {
        let values = END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect();
        let line = result_line(true, 3, 1, END_TO_END, &values);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
