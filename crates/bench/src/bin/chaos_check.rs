//! Chaos harness: real workloads under a grid of fault plans.
//!
//! Runs ISx and UTS (plus an MPI collective storm and a crash/restart
//! checkpoint cycle) under deterministic fault injection — seeded random
//! drops, duplicates, reorders, latency jitter and a transient rank kill —
//! and asserts that every faulty run produces **bit-identical results** to
//! the fault-free baseline: reliable delivery must hide the chaos
//! completely. Also measures the fault-free scheduler fan-out path against
//! the recorded `BENCH_sched_hotpath.json` baseline to show the error
//! plumbing adds no measurable overhead. Writes `BENCH_chaos.json`.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin chaos_check [-- --seed N] [--stats] [--trace out.json]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_bench::isx::{self, IsxParams};
use hiper_bench::supervised::{self, SupervisedOutcome};
use hiper_bench::util::{
    metrics_session, print_net_stats, print_rank_stats, print_reliable_stats, stats_enabled,
    trace_session,
};
use hiper_bench::uts::{self, UtsParams};
use hiper_checkpoint::CheckpointModule;
use hiper_mpi::{MpiModule, ReduceOp};
use hiper_netsim::{
    FaultPlan, KillSpec, NetConfig, NetStatsSnapshot, RecoveryError, ReliableTransport,
    RetryConfig, SpmdBuilder, SupervisedCtx, SupervisorHarness,
};
use hiper_runtime::{api, RetryPolicy, Runtime, RuntimeBuilder, SchedulerModule, TaskError};
use hiper_shmem::{ShmemModule, ShmemWorld};

/// Fan-out medians recorded in BENCH_sched_hotpath.json (release, this
/// container class); the overhead gate compares against it.
const HOTPATH_FANOUT_BASELINE_MS: f64 = 1.8394;

/// One run's observables: per-rank payload digest + wire/retry counters.
struct RunOutcome {
    /// Scenario-specific result bytes, concatenated per rank in rank order.
    digest: Vec<Vec<u64>>,
    /// Wall-clock for the cluster run.
    elapsed: Duration,
    /// Reliable-layer retransmissions summed over ranks.
    retries: u64,
    /// Cluster-wide wire counters.
    net: NetStatsSnapshot,
}

fn arg_seed() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The fault-plan grid every workload runs under. `None` is the baseline;
/// each armed plan must reproduce its digests exactly.
fn plan_grid(seed: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("fault-free", None),
        (
            "drop10+jitter",
            Some(
                FaultPlan::seeded(seed)
                    .drop_p(0.10)
                    .jitter(Duration::from_micros(200)),
            ),
        ),
        (
            "drop+dup+reorder+jitter",
            Some(
                FaultPlan::seeded(seed ^ 0x5eed)
                    .drop_p(0.10)
                    .dup_p(0.05)
                    .reorder_p(0.10)
                    .jitter(Duration::from_micros(300)),
            ),
        ),
        (
            "transient-rank-kill",
            Some(FaultPlan::seeded(seed ^ 0xdead).kill(
                1,
                Duration::from_millis(5),
                Some(Duration::from_millis(60)),
            )),
        ),
    ]
}

fn build(nranks: usize, plan: &Option<FaultPlan>) -> SpmdBuilder {
    let b = SpmdBuilder::new(nranks)
        .net(NetConfig::default())
        .workers_per_rank(2);
    match plan {
        Some(p) => b.faults(p.clone()),
        None => b,
    }
}

// ---------------------------------------------------------------------
// Scenario: ISx bucket sort (SHMEM)
// ---------------------------------------------------------------------

fn run_isx(label: &str, plan: &Option<FaultPlan>) -> RunOutcome {
    let nranks = 4;
    let params = IsxParams {
        keys_per_rank: 4096,
        key_max: 1 << 16,
        ..Default::default()
    };
    let world = ShmemWorld::new(nranks, 1 << 20);
    let retries = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&retries);
    let net: Arc<parking_lot::Mutex<Option<NetStatsSnapshot>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let n2 = Arc::clone(&net);
    let show_stats = stats_enabled();
    let label = label.to_string();
    let t0 = Instant::now();
    let digest = build(nranks, plan).run(
        move |_r, t| {
            let shmem = ShmemModule::new(world.clone(), t);
            (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
        },
        move |env, shmem| {
            let result = isx::run_hiper(&shmem, &params);
            shmem.barrier_all();
            r2.fetch_add(shmem.raw().retries(), Ordering::Relaxed);
            if env.rank == 0 {
                *n2.lock() = Some(env.transport.net_stats());
                if show_stats {
                    print_rank_stats(&format!("isx/{} rank 0", label), &env.runtime);
                    print_net_stats(&format!("isx/{}", label), &env.transport);
                    print_reliable_stats(&format!("isx/{} rank 0", label), shmem.raw().reliable());
                }
            }
            result.sorted
        },
    );
    let net = net.lock().take().expect("rank 0 always reports");
    RunOutcome {
        digest,
        elapsed: t0.elapsed(),
        retries: retries.load(Ordering::Relaxed),
        net,
    }
}

// ---------------------------------------------------------------------
// Scenario: UTS tree counting (SHMEM work stealing)
// ---------------------------------------------------------------------

fn run_uts(label: &str, plan: &Option<FaultPlan>) -> RunOutcome {
    let nranks = 2;
    let params = UtsParams {
        max_depth: 11,
        ..Default::default()
    };
    let world = ShmemWorld::new(nranks, 1 << 22);
    let expected = uts::seq_count(&params);
    let retries = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&retries);
    let net: Arc<parking_lot::Mutex<Option<NetStatsSnapshot>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let n2 = Arc::clone(&net);
    let show_stats = stats_enabled();
    let label = label.to_string();
    let t0 = Instant::now();
    let digest = build(nranks, plan).run(
        move |_r, t| {
            let shmem = ShmemModule::new(world.clone(), t);
            (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
        },
        move |env, shmem| {
            let result = uts::run_hiper(&shmem, &params);
            shmem.barrier_all();
            assert_eq!(
                result.global_count, expected,
                "UTS count must match the sequential oracle"
            );
            r2.fetch_add(shmem.raw().retries(), Ordering::Relaxed);
            if env.rank == 0 {
                *n2.lock() = Some(env.transport.net_stats());
                if show_stats {
                    print_net_stats(&format!("uts/{}", label), &env.transport);
                    print_reliable_stats(&format!("uts/{} rank 0", label), shmem.raw().reliable());
                }
            }
            vec![result.global_count, result.local_count]
        },
    );
    let net = net.lock().take().expect("rank 0 always reports");
    RunOutcome {
        digest,
        elapsed: t0.elapsed(),
        retries: retries.load(Ordering::Relaxed),
        net,
    }
}

// ---------------------------------------------------------------------
// Scenario: MPI collective storm
// ---------------------------------------------------------------------

fn run_mpi_storm(label: &str, plan: &Option<FaultPlan>) -> RunOutcome {
    let nranks = 4;
    let retries = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&retries);
    let net: Arc<parking_lot::Mutex<Option<NetStatsSnapshot>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let n2 = Arc::clone(&net);
    let show_stats = stats_enabled();
    let label = label.to_string();
    let t0 = Instant::now();
    let digest = build(nranks, plan).run(
        move |_r, t| {
            let mpi = MpiModule::new(t);
            (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
        },
        move |env, mpi| {
            let mut digest = Vec::new();
            for round in 0..10u64 {
                let sum = mpi.allreduce(&[env.rank as u64 + round], ReduceOp::Sum);
                digest.push(sum[0]);
                let parts: Vec<Vec<u64>> = (0..env.nranks)
                    .map(|d| vec![(env.rank * 100 + d) as u64 + round])
                    .collect();
                let got = mpi.alltoallv(parts);
                digest.extend(got.into_iter().flatten());
                mpi.barrier();
            }
            r2.fetch_add(mpi.raw().retries(), Ordering::Relaxed);
            if env.rank == 0 {
                *n2.lock() = Some(env.transport.net_stats());
                if show_stats {
                    print_net_stats(&format!("mpi/{}", label), &env.transport);
                    print_reliable_stats(&format!("mpi/{} rank 0", label), mpi.raw().reliable());
                }
            }
            digest
        },
    );
    let net = net.lock().take().expect("rank 0 always reports");
    RunOutcome {
        digest,
        elapsed: t0.elapsed(),
        retries: retries.load(Ordering::Relaxed),
        net,
    }
}

// ---------------------------------------------------------------------
// Scenario: crash + restart from the latest checkpoint
// ---------------------------------------------------------------------

fn run_checkpoint_restart() -> bool {
    let dir = std::env::temp_dir().join("hiper_chaos_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let payload: Vec<u8> = (0u32..4096).flat_map(|i| i.to_le_bytes()).collect();
    {
        // First life: checkpoint three versions, then "crash".
        let ckpt = CheckpointModule::new(dir.clone());
        let rt = RuntimeBuilder::new(hiper_platform::autogen::figure2(2))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .expect("checkpoint platform");
        let c = Arc::clone(&ckpt);
        let data = payload.clone();
        rt.block_on(move || {
            c.checkpoint("chaos", 1, vec![0xAA; 64]).wait();
            c.checkpoint("chaos", 2, vec![0xBB; 64]).wait();
            c.checkpoint("chaos", 9, data).wait();
        });
        rt.shutdown();
    }
    // Second life: restart from whatever survived.
    let ckpt = CheckpointModule::new(dir);
    let rt = RuntimeBuilder::new(hiper_platform::autogen::figure2(2))
        .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
        .build()
        .expect("checkpoint platform");
    let c = Arc::clone(&ckpt);
    let ok = rt.block_on(move || {
        let fut = c.restore_latest("chaos").expect("snapshots survived");
        let (version, data) = fut.get().expect("snapshot intact");
        version == 9 && data == payload
    });
    rt.shutdown();
    ok
}

// ---------------------------------------------------------------------
// Recovery grid: kill-mid-run, restore from checkpoint, replay
// ---------------------------------------------------------------------

/// Runs ISx and UTS with a seeded rank kill mid-run: the recovered run's
/// digest must be bit-identical to the fault-free supervised baseline, and
/// a second run from the same seed must reproduce it again (determinism).
/// Returns (pass, per-scenario JSON fragments).
fn run_recovery_grid(seed: u64) -> (bool, Vec<String>) {
    let rounds = 3u64;
    let mut pass = true;
    let mut json = Vec::new();
    for (name, nranks, runner) in [
        (
            "isx",
            4usize,
            supervised::run_supervised_isx as fn(Option<KillSpec>, u64) -> SupervisedOutcome,
        ),
        (
            "uts",
            2usize,
            supervised::run_supervised_uts as fn(Option<KillSpec>, u64) -> SupervisedOutcome,
        ),
    ] {
        let kill = KillSpec::seeded(seed ^ name.len() as u64, nranks, rounds);
        let baseline = runner(None, rounds);
        let killed = runner(Some(kill.clone()), rounds);
        let killed2 = runner(Some(kill.clone()), rounds);
        let identical = killed.digest == baseline.digest;
        let deterministic = killed2.digest == killed.digest;
        let recovered = killed.recoveries >= 1 && killed.ranks_recovered >= 1;
        let ok = identical && deterministic && recovered;
        pass &= ok;
        println!(
            "  recovery/{:<6} kill rank {} at point {:?}: {:>7.1} ms  recoveries={} {}",
            name,
            kill.rank,
            kill.at_points,
            killed.elapsed.as_secs_f64() * 1e3,
            killed.recoveries,
            if ok {
                "OK"
            } else if !identical {
                "DIGEST MISMATCH"
            } else if !deterministic {
                "NON-DETERMINISTIC"
            } else {
                "NO RECOVERY DRIVEN"
            }
        );
        json.push(format!(
            "        {{ \"scenario\": \"{}\", \"victim\": {}, \"kill_points\": {:?}, \"ms\": {:.2}, \"recoveries\": {}, \"identical_to_baseline\": {}, \"deterministic\": {} }}",
            name,
            kill.rank,
            kill.at_points,
            killed.elapsed.as_secs_f64() * 1e3,
            killed.recoveries,
            identical,
            deterministic
        ));
    }
    (pass, json)
}

/// Degradation scenario: kill a rank that never checkpointed. The recovery
/// must fail terminally (`NoCheckpoint`), the peer must see the typed
/// `Unreachable` error within its retry budget, and — when
/// `HIPER_WATCHDOG_FILE` is set (the CI artifact path) — a flight record is
/// dumped for post-mortem. Returns true when the degradation is clean.
fn run_degradation() -> bool {
    use std::sync::atomic::AtomicBool;
    let dir = std::env::temp_dir().join("hiper_chaos_degrade");
    let _ = std::fs::remove_dir_all(&dir);
    let h_main = SupervisorHarness::new(
        2,
        Some(KillSpec {
            rank: 0,
            at_points: vec![1],
        }),
        3,
    );
    let dead = Arc::new(AtomicBool::new(false));
    let outcomes = SpmdBuilder::new(2)
        .platform(|_| hiper_platform::autogen::figure2(1))
        .run(
            move |rank, transport| {
                let ckpt = CheckpointModule::new(dir.join(format!("r{}", rank)));
                let cfg = RetryConfig {
                    timeout: Duration::from_millis(1),
                    backoff: 2.0,
                    max_timeout: Duration::from_millis(4),
                    max_attempts: 4,
                };
                let ep = ReliableTransport::new(transport, "chaos", cfg);
                ep.register_handler(hiper_netsim::Channel::APP, Box::new(|_| {}));
                (
                    vec![Arc::clone(&ckpt) as Arc<dyn SchedulerModule>],
                    (ckpt, ep),
                )
            },
            move |env, (ckpt, ep)| {
                h_main.register(
                    env.rank,
                    env.runtime.clone(),
                    Arc::clone(&ep),
                    env.transport.engine(),
                );
                if env.rank == 1 {
                    while !dead.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    ep.send(
                        0,
                        hiper_netsim::Channel::APP,
                        1,
                        bytes::Bytes::from_static(b"ping"),
                    );
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while Instant::now() < deadline && ep.health().is_ok() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return ep.health().is_err();
                }
                let ctx = SupervisedCtx::new(Arc::clone(&h_main), ckpt, env.rank);
                let out = ctx.run_supervised(|_| {}, |_| ctx.crash_point());
                dead.store(true, Ordering::Release);
                matches!(out, Err(RecoveryError::NoCheckpoint))
            },
        );
    outcomes.iter().all(|&ok| ok)
}

// ---------------------------------------------------------------------
// Overhead gate: fault-free scheduler fan-out vs the recorded baseline
// ---------------------------------------------------------------------

/// A scope wrapping one fan-out rep: plain `finish` or `finish_supervised`.
type FanoutScope = fn(&mut dyn FnMut()) -> Result<(), TaskError>;

/// Median wall time of a fault-free 8x1000 fan-out run inside `scope`.
fn measure_fanout_ms(scope: FanoutScope) -> f64 {
    let rt = Runtime::new(hiper_platform::autogen::smp(4));
    let reps = 30;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps + 5 {
        let acc = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&acc);
        let rt2 = rt.clone();
        let t0 = Instant::now();
        rt2.block_on(move || {
            scope(&mut || {
                for _ in 0..8 {
                    let a = Arc::clone(&a);
                    api::async_(move || {
                        for _ in 0..1000 {
                            let a = Arc::clone(&a);
                            api::async_(move || {
                                a.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            })
            .expect("no task panicked");
        });
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(acc.load(Ordering::Relaxed), 8000);
        if rep >= 5 {
            samples.push(dt);
        }
    }
    rt.shutdown();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let trace = trace_session();
    let _metrics = metrics_session();
    let traced = trace.is_some();
    let seed = arg_seed();
    let recovery_only = std::env::args().any(|a| a == "--recovery");
    println!("chaos_check: seed {:#x}", seed);

    if recovery_only {
        // CI recovery job: just the kill-mid-run grid + the degradation
        // scenario (flight-record artifact via HIPER_WATCHDOG_FILE).
        let (grid_ok, _) = run_recovery_grid(seed);
        let degrade_ok = run_degradation();
        println!(
            "  degradation (kill with no checkpoint): {}",
            if degrade_ok { "OK" } else { "FAILED" }
        );
        let pass = grid_ok && degrade_ok;
        println!(
            "\nchaos_check --recovery: {}",
            if pass { "PASS" } else { "FAIL" }
        );
        if !pass {
            std::process::exit(1);
        }
        return;
    }

    let mut scenario_json = Vec::new();
    let mut all_pass = true;

    for (scenario, runner) in [
        ("isx", run_isx as fn(&str, &Option<FaultPlan>) -> RunOutcome),
        ("uts", run_uts as fn(&str, &Option<FaultPlan>) -> RunOutcome),
        (
            "mpi-collectives",
            run_mpi_storm as fn(&str, &Option<FaultPlan>) -> RunOutcome,
        ),
    ] {
        let mut baseline: Option<Vec<Vec<u64>>> = None;
        let mut plan_json = Vec::new();
        for (label, plan) in plan_grid(seed) {
            let out = runner(label, &plan);
            let identical = match &baseline {
                None => {
                    baseline = Some(out.digest.clone());
                    true
                }
                Some(base) => *base == out.digest,
            };
            all_pass &= identical;
            println!(
                "  {:<16} {:<24} {:>8.1} ms  retries={:<5} dropped={:<5} dup={:<4} {}",
                scenario,
                label,
                out.elapsed.as_secs_f64() * 1e3,
                out.retries,
                out.net.dropped,
                out.net.duplicated,
                if identical { "OK" } else { "MISMATCH" }
            );
            plan_json.push(format!(
                "        {{ \"plan\": \"{}\", \"ms\": {:.2}, \"retries\": {}, \"dropped\": {}, \"duplicated\": {}, \"identical_to_baseline\": {} }}",
                label,
                out.elapsed.as_secs_f64() * 1e3,
                out.retries,
                out.net.dropped,
                out.net.duplicated,
                identical
            ));
        }
        scenario_json.push(format!(
            "    \"{}\": [\n{}\n    ]",
            scenario,
            plan_json.join(",\n")
        ));
    }

    // UTS oracle: the fault-free digest must also match the sequential count.
    let oracle = uts::seq_count(&UtsParams {
        max_depth: 11,
        ..Default::default()
    });
    println!("  uts sequential oracle: {} nodes", oracle);

    let ckpt_ok = run_checkpoint_restart();
    all_pass &= ckpt_ok;
    println!(
        "  checkpoint crash/restart from latest snapshot: {}",
        if ckpt_ok { "OK" } else { "FAILED" }
    );

    let (recovery_ok, recovery_json) = run_recovery_grid(seed);
    all_pass &= recovery_ok;
    let degrade_ok = run_degradation();
    all_pass &= degrade_ok;
    println!(
        "  degradation (kill with no checkpoint): {}",
        if degrade_ok { "OK" } else { "FAILED" }
    );

    if traced {
        // Tracing inflates every timing; the overhead gate and the recorded
        // numbers are only meaningful untraced. The correctness grid above
        // still counts.
        drop(trace);
        println!(
            "\nchaos_check: {} (traced run: overhead gate and BENCH_chaos.json skipped)",
            if all_pass { "PASS" } else { "FAIL" }
        );
        if !all_pass {
            std::process::exit(1);
        }
        return;
    }

    // Two overhead gates with different jobs:
    //
    // * The *absolute* gate compares the plain fan-out median against the
    //   recorded hot-path baseline. On shared hardware a co-tenant can
    //   inflate every sample by 30-40% for minutes at a time, so this gate
    //   is deliberately coarse — 1.5x catches a genuinely broken hot path
    //   while the statistics-aware `perf_gate` binary (median + IQR noise
    //   allowance per workload) remains the precise regression tripwire.
    // * The *supervision* gate is the one this benchmark exists for:
    //   `finish_supervised` with no faults must stay within 30% of the
    //   plain fan-out **measured seconds apart in the same process**.
    //   Pairing the two medians cancels host noise — both move together —
    //   so the ratio is tight even when the absolute numbers wobble.
    //
    // An over-gate absolute result re-measures up to twice, spaced out so
    // a single co-tenant burst cannot straddle every attempt; the best
    // median wins.
    let gated = |scope: FanoutScope| {
        let mut best = f64::INFINITY;
        for attempt in 0..3 {
            best = best.min(measure_fanout_ms(scope));
            if best <= HOTPATH_FANOUT_BASELINE_MS * 1.30 {
                break;
            }
            if attempt < 2 {
                std::thread::sleep(Duration::from_millis(400));
            }
        }
        best
    };

    let fanout_ms = gated(|body| api::finish(body));
    let overhead_pct = (fanout_ms / HOTPATH_FANOUT_BASELINE_MS - 1.0) * 100.0;
    let overhead_ok = fanout_ms <= HOTPATH_FANOUT_BASELINE_MS * 1.50;
    all_pass &= overhead_ok;
    println!(
        "  fanout_8x1000 median: {:.3} ms (baseline {:.3} ms, {:+.1}%) {}",
        fanout_ms,
        HOTPATH_FANOUT_BASELINE_MS,
        overhead_pct,
        if overhead_ok { "OK" } else { "REGRESSION" }
    );

    // Supervision but no faults: the same fan-out under a retry policy.
    let fanout_sup_ms =
        gated(|body| api::finish_supervised(&RetryPolicy::transient(3), |_attempt| body()));
    let sup_pct = (fanout_sup_ms / fanout_ms - 1.0) * 100.0;
    let sup_ok = fanout_sup_ms <= fanout_ms * 1.30;
    all_pass &= sup_ok;
    println!(
        "  fanout_8x1000 supervised median: {:.3} ms (vs plain {:.3} ms, {:+.1}%) {}",
        fanout_sup_ms,
        fanout_ms,
        sup_pct,
        if sup_ok { "OK" } else { "REGRESSION" }
    );

    let json = format!(
        "{{\n  \"benchmark\": \"crates/bench/src/bin/chaos_check.rs\",\n  \"seed\": {},\n  \"scenarios\": {{\n{}\n  }},\n  \"checkpoint_restart_ok\": {},\n  \"recovery\": {{\n    \"grid\": [\n{}\n    ],\n    \"degradation_ok\": {},\n    \"pass\": {}\n  }},\n  \"overhead\": {{\n    \"fanout_baseline_ms\": {},\n    \"fanout_measured_ms\": {:.4},\n    \"fanout_supervised_ms\": {:.4},\n    \"overhead_pct\": {:.1},\n    \"supervised_vs_plain_pct\": {:.1},\n    \"abs_gate_pct\": 50,\n    \"supervised_gate_pct\": 30,\n    \"pass\": {}\n  }},\n  \"pass\": {}\n}}\n",
        seed,
        scenario_json.join(",\n"),
        ckpt_ok,
        recovery_json.join(",\n"),
        degrade_ok,
        recovery_ok && degrade_ok,
        HOTPATH_FANOUT_BASELINE_MS,
        fanout_ms,
        fanout_sup_ms,
        overhead_pct,
        sup_pct,
        overhead_ok && sup_ok,
        all_pass
    );
    std::fs::write("BENCH_chaos.json", &json).expect("cannot write BENCH_chaos.json");
    println!(
        "\nchaos_check: {} (BENCH_chaos.json written)",
        if all_pass { "PASS" } else { "FAIL" }
    );
    if !all_pass {
        std::process::exit(1);
    }
}
