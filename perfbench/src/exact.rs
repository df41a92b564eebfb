//! Exact values and the guard that keeps them exact.
//!
//! Every simulated statistic is deterministic, so every iteration of a
//! run must reproduce the first iteration's values, and a run at a seed
//! listed in `recorded.txt` must reproduce the recorded values. A change
//! that alters the simulated schedule then fails the run loudly instead
//! of reading as a change of speed.

use chats_stats::RunStats;
use std::collections::BTreeMap;
use std::fmt::Display;

/// The seed `RunConfig::paper` uses: the paper's configuration.
#[cfg(test)]
pub const DEFAULT_SEED: u64 = 0xC4A75;
/// A seed nobody tuned against, recorded so later claims can be checked
/// on it.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 4242;

/// Exact values of one iteration, by key, rendered as text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact(pub BTreeMap<String, String>);

impl Exact {
    /// Records `key = value`.
    pub fn put(&mut self, key: impl Into<String>, value: impl Display) {
        self.0.insert(key.into(), value.to_string());
    }

    /// The value of `key` as a number; 0 when absent.
    #[must_use]
    pub fn num(&self, key: &str) -> f64 {
        self.0.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }
}

/// Sums of the simulator's counters over a workload's simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub cycles: u64,
    pub events: u64,
    pub instructions: u64,
    pub flits: u64,
    pub messages: u64,
    pub tx_attempts: u64,
    pub commits: u64,
    pub aborts: u64,
    pub forwardings: u64,
    pub validations: u64,
    pub validations_ok: u64,
    pub fallbacks: u64,
    pub nacks: u64,
}

impl Counts {
    /// Adds one run's statistics.
    pub fn add(&mut self, s: &RunStats) {
        self.cycles += s.cycles;
        self.events += s.events;
        self.instructions += s.instructions;
        self.flits += s.flits;
        self.messages += s.control_messages + s.data_messages;
        self.tx_attempts += s.tx_attempts;
        self.commits += s.commits;
        self.aborts += s.total_aborts();
        self.forwardings += s.forwardings;
        self.validations += s.validation_attempts;
        self.validations_ok += s.validations_ok;
        self.fallbacks += s.fallback_acquisitions;
        self.nacks += s.nacks;
    }

    /// Writes the counts under their per-layer metric names.
    pub fn write(&self, ex: &mut Exact) {
        ex.put("sim_cycles", self.cycles);
        ex.put("sim.events", self.events);
        ex.put("tvm.instructions", self.instructions);
        ex.put("noc.flits", self.flits);
        ex.put("noc.messages", self.messages);
        ex.put("core.tx_attempts", self.tx_attempts);
        ex.put("core.commits", self.commits);
        ex.put("core.aborts", self.aborts);
        ex.put("core.forwardings", self.forwardings);
        ex.put("core.validations", self.validations);
        ex.put("core.validations_ok", self.validations_ok);
        ex.put("core.fallbacks", self.fallbacks);
        ex.put("core.nacks", self.nacks);
    }
}

/// The recorded values for `(workload, seed)`, if that pair is recorded.
///
/// # Panics
///
/// Panics on a malformed line of `recorded.txt`, which is part of the
/// benchmark's source.
#[must_use]
pub fn recorded(text: &str, workload: &str, seed: u64) -> Option<Exact> {
    let mut out = Exact::default();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 4, "recorded.txt: malformed line {line:?}");
        let s: u64 = f[1]
            .parse()
            .unwrap_or_else(|_| panic!("recorded.txt: bad seed in {line:?}"));
        if f[0] == workload && s == seed {
            out.put(f[2], f[3]);
        }
    }
    (!out.0.is_empty()).then_some(out)
}

/// Differences between `got` and `want`, one line each; empty when equal.
#[must_use]
pub fn differences(got: &Exact, want: &Exact) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = got.0.keys().chain(want.0.keys()).collect();
    keys.into_iter()
        .filter_map(|k| {
            let (g, w) = (got.0.get(k), want.0.get(k));
            (g != w).then(|| {
                format!(
                    "{k}: got {}, expected {}",
                    g.map_or("nothing", String::as_str),
                    w.map_or("nothing", String::as_str)
                )
            })
        })
        .collect()
}

/// Renders `ex` as `recorded.txt` lines for `(workload, seed)`.
#[must_use]
pub fn render(workload: &str, seed: u64, ex: &Exact) -> String {
    ex.0.iter()
        .map(|(k, v)| format!("{workload} {seed} {k} {v}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::RECORDED;
    const WORKLOADS: [&str; 3] = ["paper-figures", "token-storm", "diagnose"];

    #[test]
    fn both_seeds_are_recorded_with_the_same_keys() {
        for w in WORKLOADS {
            let a = recorded(RECORDED, w, DEFAULT_SEED).unwrap_or_else(|| panic!("{w}"));
            let b = recorded(RECORDED, w, HELD_OUT_SEED).unwrap_or_else(|| panic!("{w}"));
            let ka: Vec<_> = a.0.keys().collect();
            let kb: Vec<_> = b.0.keys().collect();
            assert_eq!(ka, kb, "{w}: seeds record different keys");
            assert!(a.num("sim_cycles") > 0.0, "{w}");
            assert!(a.num("paper_headline_err_pp") > 0.0, "{w}");
            // Different seeds make different schedules.
            assert_ne!(a.0["sim_cycles"], b.0["sim_cycles"], "{w}");
        }
    }

    #[test]
    fn the_default_seed_records_the_known_values() {
        let pf = recorded(RECORDED, "paper-figures", DEFAULT_SEED).unwrap();
        // The headline as `figures headline` renders it at the paper's
        // configuration: 37.5 / 20.1 / 66.9 / 53.4% against 22 / 16 /
        // 34 / 49%.
        assert_eq!(pf.0["render.headline_err_pp"], "14.225000");
        assert_eq!(pf.0["runner.jobs"], "540");
        let dg = recorded(RECORDED, "diagnose", DEFAULT_SEED).unwrap();
        // The known mis-pin on kmeans-h (see README.md).
        assert_eq!(
            dg.0["dissect.kmeans-h.pin"],
            "cycle295-core0-injected:false"
        );
        assert_eq!(dg.0["failed"], "1");
    }

    #[test]
    fn differences_name_each_key() {
        let mut a = Exact::default();
        a.put("x", 1);
        a.put("y", 2);
        let mut b = a.clone();
        assert!(differences(&a, &b).is_empty());
        b.put("y", 3);
        b.put("z", 4);
        let d = differences(&a, &b);
        assert_eq!(d.len(), 2);
        assert!(d[0].starts_with("y: got 2, expected 3"));
        assert!(d[1].starts_with("z: got nothing"));
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut a = Exact::default();
        a.put("sim_cycles", 12);
        a.put("core.commits", 3);
        let text = render("token-storm", 9, &a);
        assert_eq!(recorded(&text, "token-storm", 9), Some(a));
        assert_eq!(recorded(&text, "token-storm", 10), None);
    }
}
