//! Attribution self-tests: a change injected into one layer moves that
//! layer's metric and the end-to-end metric it explains, and leaves the
//! metrics of other layers where they were.

use std::sync::Mutex;

use hiper_perfbench::stats::percentile;
use hiper_perfbench::{run, Config, Outcome, Workload};

/// The tests measure time, so they must not share the cores.
static SERIAL: Mutex<()> = Mutex::new(());

/// Short traced runs of `base` and `changed`, alternated so that drift in
/// the host's speed falls on both sides alike.
fn alternate(base: &Config, changed: &Config) -> (Vec<Outcome>, Vec<Outcome>) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    (0..9)
        .map(|_| {
            let pair = (run(base), run(changed));
            assert_eq!(pair.0.run.failed + pair.1.run.failed, 0);
            pair
        })
        .unzip()
}

/// The median of `metric` over `runs`.
fn median(runs: &[Outcome], metric: &str) -> f64 {
    let values: Vec<f64> = runs
        .iter()
        .map(|o| {
            o.per_layer()
                .into_iter()
                .chain(o.end_to_end())
                .find(|m| m.name == metric)
                .unwrap_or_else(|| panic!("no metric {metric}"))
                .value
        })
        .collect();
    percentile(&values, 0.5)
}

fn traced(workload: Workload) -> Config {
    let mut cfg = Config::new(workload, 11, 0.6, true);
    cfg.sessions = 2;
    cfg
}

#[test]
fn doubling_latency_moves_rtt_by_the_added_wire_time_only() {
    let base_cfg = traced(Workload::Pingpong);
    let mut slow_cfg = base_cfg.clone();
    slow_cfg.net.latency *= 2;
    let (base, slow) = alternate(&base_cfg, &slow_cfg);
    // Two hops per round trip, each 40 µs longer.
    let added = 2.0 * base_cfg.net.latency.as_secs_f64() * 1e6;
    let rise = (median(&slow, "rep_ms_p50") - median(&base, "rep_ms_p50")) * 1e3;
    let (gap0, gap1) = (
        median(&base, "netsim.floor_gap_us"),
        median(&slow, "netsim.floor_gap_us"),
    );
    println!("rtt rise {rise:.1} µs; floor gap {gap0:.1} -> {gap1:.1} µs");
    assert!(
        (rise - added).abs() < 0.25 * added,
        "rtt rose {rise:.1} µs, expected about {added:.1} µs"
    );
    // At least three quarters of the rise is the modeled wire time.
    assert!(
        (gap1 - gap0).abs() < 0.25 * added,
        "floor gap moved from {gap0:.1} to {gap1:.1} µs"
    );
}

#[test]
fn quadrupling_grain_moves_task_time_but_not_ready_to_start() {
    let base_cfg = traced(Workload::Taskgraph);
    let mut heavy_cfg = base_cfg.clone();
    heavy_cfg.grain_rounds *= 4;
    let (base, heavy) = alternate(&base_cfg, &heavy_cfg);
    let (task0, task1) = (
        median(&base, "app.task_us_p50"),
        median(&heavy, "app.task_us_p50"),
    );
    let (r0, r1) = (
        median(&base, "runtime.ready_to_start_us_p50"),
        median(&heavy, "runtime.ready_to_start_us_p50"),
    );
    println!("task {task0} -> {task1} µs; ready-to-start {r0} -> {r1} µs");
    assert!(
        task1 > 2.0 * task0,
        "app.task_us_p50 went from {task0} to {task1} µs"
    );
    // The added compute (~0.3 µs per task) is small beside the runtime's
    // per-task cost, so the wait for a worker barely changes.
    assert!(
        r1 < 1.25 * r0 + 0.5,
        "runtime.ready_to_start_us_p50 went from {r0} to {r1} µs"
    );
}
