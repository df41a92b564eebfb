//! Incremental commitments against their from-scratch reference.
//!
//! A commitment re-hashes only the L1 sets, directory lines and memory
//! lines marked dirty since the previous one. A mutation that escapes its
//! dirty mark leaves a stale hash behind: the chain then brackets the
//! wrong epoch and dissection pins the wrong event. This suite runs the
//! dissected workloads at paper scale, clean and under `lossy-noc`, and
//! asserts that the incremental commitment equals the fold with every
//! element re-hashed:
//!
//! * at every 256-cycle boundary of a whole armed run,
//! * right after a checkpoint is restored into a machine whose hash
//!   caches are warm from a later state,
//! * after every event of one single-stepped epoch from there.
//!
//! Release builds only: debug builds already assert the same equality at
//! every boundary of every armed run, and paper scale is slow unoptimized.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, RunProgress, StateCommitment};
use chats_workloads::{prepare_run, registry, FaultPlan, RunConfig};

const INTERVAL: u64 = 256;
/// The boundary checkpointed, restored and single-stepped from.
const CHECKPOINT_AT: u64 = 16 * INTERVAL;
const WORKLOADS: [&str; 6] = [
    "genome",
    "intruder",
    "kmeans-h",
    "labyrinth",
    "yada",
    "cadd",
];

/// The incremental commitment, then the reference over the same state.
fn both(m: &mut Machine) -> (StateCommitment, StateCommitment) {
    let incremental = m.state_commitment();
    (incremental, m.state_commitment_from_scratch())
}

fn check(name: &str, cfg: &RunConfig, tag: &str) {
    let w = registry::by_name(name).expect("known workload");
    let mut m = prepare_run(w.as_ref(), PolicyConfig::for_system(HtmSystem::Chats), cfg).machine;
    m.set_commit_interval(INTERVAL);

    // A whole armed run: each pause has the boundary's incremental
    // commitment on the chain.
    let mut checkpoint = None;
    let mut next = INTERVAL;
    loop {
        match m.run_to(next, cfg.max_cycles).expect("run completes") {
            RunProgress::Done(_) => break,
            RunProgress::Paused { at } => {
                let entry = *m.commitment_chain().last().expect("boundary recorded");
                let reference = m.state_commitment_from_scratch();
                assert_eq!(
                    (entry.full, entry.arch),
                    (reference.full, reference.arch),
                    "{tag}: chain entry at boundary {} (paused at {at})",
                    entry.boundary
                );
                if at == CHECKPOINT_AT {
                    checkpoint = Some((m.checkpoint(), reference));
                }
                next = at + INTERVAL;
            }
        }
    }
    let (bytes, at_checkpoint) = checkpoint.expect("run reaches the checkpoint boundary");

    // Restore over the finished machine: every cached hash is now stale.
    m.restore(&bytes).expect("checkpoint restores");
    let (incremental, reference) = both(&mut m);
    assert_eq!(incremental, reference, "{tag}: right after restore");
    assert_eq!(incremental, at_checkpoint, "{tag}: restored state");

    // One epoch, one event at a time.
    let mut steps = 0;
    while let Some((t, ev)) = m.step_one().expect("no stall") {
        let (incremental, reference) = both(&mut m);
        assert_eq!(
            incremental, reference,
            "{tag}: after step {steps} at cycle {t} ({ev:?})"
        );
        steps += 1;
        if t >= CHECKPOINT_AT + INTERVAL {
            break;
        }
    }
    assert!(steps > 0, "{tag}: the stepped epoch is empty");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation: run with --release"
)]
fn incremental_commitments_equal_the_reference() {
    for name in WORKLOADS {
        let clean = RunConfig::paper();
        check(name, &clean, &format!("{name} clean"));
        let lossy = clean.with_faults(FaultPlan::lossy_noc());
        check(name, &lossy, &format!("{name} lossy-noc"));
    }
}
