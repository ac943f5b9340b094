//! End-to-end differential profiling (DESIGN.md §2.14):
//!
//! 1. A distributed (2-rank) ping-pong run exported to Chrome JSON and
//!    reloaded through `traceload` must diff against its live counterpart
//!    to exactly zero — timestamps, module spans, spawn edges, and rank
//!    pids (10+r) all survive the roundtrip, so the aligned DAGs match.
//! 2. With the modeled link latency doubled (`NetConfig::latency`; every
//!    frame of the 2-rank ping-pong, reliable-layer acks included, rides
//!    the MPI channel), the differ must rank the `mpi` module as the top
//!    module contributor and report a positive wall/path delta — the
//!    acceptance self-test for automated regression attribution.
//!
//! Trace and metrics state are process-global, so everything runs inside
//! one `#[test]` in sequence.

use std::sync::Arc;

use hiper_bench::traceload::parse_chrome_trace;
use hiper_mpi::MpiModule;
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;
use hiper_trace::chrome::chrome_trace_json;
use hiper_trace::diff::{DiffInput, DiffOptions, TraceDiff};
use hiper_trace::TraceData;

/// Ping-pong rounds per traced run. Long enough that doubling the modeled
/// MPI latency (~2 x 40us x ROUNDS of wire time) dwarfs SPMD
/// startup/teardown jitter in the wall-clock delta.
const ROUNDS: usize = 400;

/// One 2-rank ping-pong run over `net`.
fn pingpong(net: NetConfig) {
    let done = SpmdBuilder::new(2).net(net).workers_per_rank(2).run(
        |_r, t| {
            let mpi = MpiModule::new(t);
            (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
        },
        move |env, mpi| {
            mpi.barrier();
            for _ in 0..ROUNDS {
                if env.rank == 0 {
                    mpi.send::<u8>(1, 1, &[]);
                    let _ = mpi.recv::<u8>(Some(1), Some(2));
                } else {
                    let _ = mpi.recv::<u8>(Some(0), Some(1));
                    mpi.send::<u8>(0, 2, &[]);
                }
            }
            true
        },
    );
    assert_eq!(done, vec![true, true]);
}

/// One traced [`pingpong`] run, returning the drained trace.
fn traced_pingpong(net: NetConfig) -> TraceData {
    let _ = hiper_trace::drain(); // discard anything before the window
    hiper_trace::set_enabled(true);
    pingpong(net);
    hiper_trace::set_enabled(false);
    hiper_trace::drain()
}

#[test]
fn chrome_roundtrip_self_diffs_to_zero_and_slowdown_is_attributed() {
    // Give the rings room: a traced ping-pong rep is tens of thousands of
    // events per worker. Parsed at first ring registration, so this must
    // run before any runtime exists in this process.
    std::env::set_var("HIPER_TRACE_BUF", "262144");
    // An untraced warm-up, so the process's first-run start-up costs fall
    // outside the base run the slowed run is compared against.
    pingpong(NetConfig::default());

    // --- Phase 1: Chrome-JSON roundtrip of a distributed trace. ---
    let live = traced_pingpong(NetConfig::default());
    assert!(
        live.tracks.iter().any(|t| t.rank == Some(1)),
        "distributed run produces rank-tagged tracks"
    );
    assert_eq!(
        live.tracks.iter().map(|t| t.dropped).sum::<u64>(),
        0,
        "roundtrip test needs a lossless trace; raise HIPER_TRACE_BUF"
    );
    let reloaded = parse_chrome_trace(&chrome_trace_json(&live)).expect("reload Chrome JSON");
    let base = DiffInput::from_trace("pingpong", &live);
    let cand = DiffInput::from_trace("pingpong", &reloaded);
    assert!(!base.partial());
    assert!(base.dag.tasks > 0, "DAG recovered from the live trace");
    assert!(
        base.modules.keys().any(|k| k.starts_with("mpi")),
        "mpi module spans present: {:?}",
        base.modules.keys().collect::<Vec<_>>()
    );

    let diff = TraceDiff::build(&base, &cand, DiffOptions::default());
    assert_eq!(diff.wall_delta_ns, 0, "wall clock survives the roundtrip");
    assert_eq!(
        diff.path_delta_ns, 0,
        "critical path survives the roundtrip"
    );
    assert!(
        diff.ranked.is_empty(),
        "self-diff has no nonzero contributors: {:?}",
        diff.ranked
    );
    assert!(diff.alignment.exact, "task DAGs align exactly");
    assert!((diff.alignment.fraction - 1.0).abs() < 1e-12);
    assert!(diff.path_kinds.iter().all(|k| k.delta_ns == 0));
    assert!(diff.modules.iter().all(|m| m.delta_total_ns == 0));
    assert!(diff.workers.iter().all(|w| w.delta_ns == 0));

    // --- Phase 2: inject a deterministic 2x link-latency slowdown. ---
    let default = NetConfig::default();
    let slowed = traced_pingpong(NetConfig {
        latency: 2 * default.latency,
        ..default
    });
    let slow = DiffInput::from_trace("pingpong-slow", &slowed);

    let diff = TraceDiff::build(&base, &slow, DiffOptions::default());
    assert!(
        diff.wall_delta_ns > 0,
        "doubled MPI latency slows the run: {} ns",
        diff.wall_delta_ns
    );
    assert!(diff.path_delta_ns > 0, "and lengthens the critical path");
    // The acceptance criterion: the doctored module op is ranked the top
    // module contributor.
    let top_module = diff
        .ranked
        .iter()
        .find(|c| c.category == "module")
        .expect("a module contributor is ranked");
    assert!(
        top_module.name.starts_with("mpi"),
        "doubled MPI latency attributed to the mpi module, got {:?} (ranked: {:?})",
        top_module.name,
        diff.ranked
            .iter()
            .map(|c| (c.category, c.name.clone(), c.delta_ns))
            .collect::<Vec<_>>()
    );
    assert!(top_module.delta_ns > 0, "the mpi module got slower");
    assert_eq!(
        diff.modules[0].name.split(':').next(),
        Some("mpi"),
        "module table ranks mpi first: {:?}",
        diff.modules
            .iter()
            .map(|m| (m.name.clone(), m.delta_total_ns))
            .collect::<Vec<_>>()
    );
    let md = diff.to_markdown();
    assert!(md.contains("Top contributors"));
    assert!(md.contains("mpi"));
}
