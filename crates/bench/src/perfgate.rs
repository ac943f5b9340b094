//! The performance regression gate: canonical microbench workloads
//! (scheduler fanout, MPI ping-pong, ISx), robust summary statistics
//! (median + interquartile range), and the noise-aware baseline comparison
//! the `perf_gate` binary applies in CI.
//!
//! The compare rule is deliberately conservative for noisy shared runners:
//! a metric regresses only when
//!
//! ```text
//! current.median > baseline.median * (1 + slack_pct/100)
//!                  + iqr_mult * (baseline.iqr + current.iqr)
//! ```
//!
//! i.e. the median must move past a relative slack *plus* a multiple of the
//! combined spread of both measurements. A genuinely slower scheduler fails
//! the gate; a noisy rep does not. The comparison is pure logic over two
//! summaries, so the doctored-baseline test exercises exactly the code CI
//! runs.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hiper_mpi::MpiModule;
use hiper_netsim::{Channel, Cluster, NetConfig, SpmdBuilder};
use hiper_platform::autogen;
use hiper_platform::json::Json;
use hiper_runtime::{api, Runtime, SchedulerModule};
use hiper_shmem::{ShmemModule, ShmemWorld};
use hiper_trace::diff::{DiffInput, DiffOptions, TraceDiff};

use crate::isx::{self, IsxParams};

/// Default relative slack (percent) before a median move counts.
pub const DEFAULT_SLACK_PCT: f64 = 10.0;
/// Default multiplier on combined IQR noise.
pub const DEFAULT_IQR_MULT: f64 = 3.0;
/// The gate's workloads, in baseline-metric order.
pub const GATE_BENCHES: [&str; 5] = [
    "fanout_ms",
    "isx_ms",
    "msg_churn_ms",
    "pingpong_ms",
    "spawn_churn_ms",
];

/// Robust summary of one metric's repeated measurements (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Median of the samples (ms).
    pub median: f64,
    /// Interquartile range, q75 - q25 (ms).
    pub iqr: f64,
    /// Number of samples summarized.
    pub reps: usize,
}

/// Sorts `samples` (ms) and reduces them to median + IQR.
pub fn summarize_ms(mut samples: Vec<f64>) -> MetricSummary {
    assert!(!samples.is_empty(), "cannot summarize zero samples");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| {
        let idx = ((samples.len() - 1) as f64 * p).round() as usize;
        samples[idx]
    };
    MetricSummary {
        median: q(0.5),
        iqr: (q(0.75) - q(0.25)).max(0.0),
        reps: samples.len(),
    }
}

/// One metric's verdict from a baseline comparison.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Metric name (e.g. `fanout_ms`).
    pub metric: String,
    /// Checked-in baseline summary.
    pub baseline: MetricSummary,
    /// Freshly measured summary (`None` when the metric vanished from the
    /// current run — itself a gate failure).
    pub current: Option<MetricSummary>,
    /// The threshold the current median was held against (ms).
    pub limit_ms: f64,
    /// True when this metric fails the gate.
    pub regressed: bool,
}

/// The regression predicate; see the module docs for the rule.
pub fn is_regression(
    baseline: &MetricSummary,
    current: &MetricSummary,
    slack_pct: f64,
    iqr_mult: f64,
) -> bool {
    current.median > regression_limit(baseline, current, slack_pct, iqr_mult)
}

/// The threshold the current median must stay at or under.
pub fn regression_limit(
    baseline: &MetricSummary,
    current: &MetricSummary,
    slack_pct: f64,
    iqr_mult: f64,
) -> f64 {
    baseline.median * (1.0 + slack_pct / 100.0) + iqr_mult * (baseline.iqr + current.iqr)
}

/// Compares every baseline metric against the current run. Metrics missing
/// from `current` fail (the gate must not silently narrow); metrics new in
/// `current` are ignored here and picked up when the baseline is updated.
pub fn compare(
    baseline: &BTreeMap<String, MetricSummary>,
    current: &BTreeMap<String, MetricSummary>,
    slack_pct: f64,
    iqr_mult: f64,
) -> Vec<GateCheck> {
    baseline
        .iter()
        .map(|(name, base)| match current.get(name) {
            Some(cur) => {
                let limit = regression_limit(base, cur, slack_pct, iqr_mult);
                GateCheck {
                    metric: name.clone(),
                    baseline: *base,
                    current: Some(*cur),
                    limit_ms: limit,
                    regressed: cur.median > limit,
                }
            }
            None => GateCheck {
                metric: name.clone(),
                baseline: *base,
                current: None,
                limit_ms: base.median,
                regressed: true,
            },
        })
        .collect()
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// One scheduler fanout: 8 producers × 1000 tiny consumers — the
/// spawn/wake/steal hot path. The `trace_overhead` and `metrics_overhead`
/// bins time this same body with their instrumentation off and on.
pub fn fanout(rt: &Runtime) {
    let acc = Arc::new(AtomicU64::new(0));
    let a = Arc::clone(&acc);
    rt.block_on(move || {
        api::finish(|| {
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
    assert_eq!(acc.load(Ordering::Relaxed), 8000);
}

/// Times `reps` runs of [`fanout`] on `rt` after `warmup` untimed ones;
/// returns (min, median, max) ms.
pub fn time_fanout(rt: &Runtime, warmup: usize, reps: usize) -> (f64, f64, f64) {
    for _ in 0..warmup {
        fanout(rt);
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            fanout(rt);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (
        samples[0],
        samples[samples.len() / 2],
        samples[samples.len() - 1],
    )
}

/// [`fanout`] on a 4-worker SMP runtime. Raw per-rep samples (ms).
pub fn fanout_samples(reps: usize) -> Vec<f64> {
    let rt = Runtime::new(autogen::smp(4));
    for _ in 0..2 {
        fanout(&rt);
    }
    let samples = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            fanout(&rt);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rt.shutdown();
    samples
}

/// MPI ping-pong: 50 empty-message round trips between 2 netsim ranks —
/// module taskification + simulated-interconnect latency path. Raw per-rep
/// samples (ms).
pub fn pingpong_samples(reps: usize) -> Vec<f64> {
    const ROUNDS: usize = 50;
    let per_rank = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_r, t| {
                let mpi = MpiModule::new(t);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            move |env, mpi| {
                let mut samples = Vec::new();
                for rep in 0..reps + 1 {
                    mpi.barrier();
                    let t0 = Instant::now();
                    for _ in 0..ROUNDS {
                        if env.rank == 0 {
                            mpi.send::<u8>(1, 1, &[]);
                            let _ = mpi.recv::<u8>(Some(1), Some(2));
                        } else {
                            let _ = mpi.recv::<u8>(Some(0), Some(1));
                            mpi.send::<u8>(0, 2, &[]);
                        }
                    }
                    // First lap is warmup (handler registration, first
                    // steals); drop it.
                    if rep > 0 {
                        samples.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                samples
            },
        );
    per_rank[0].clone()
}

/// ISx bucket sort, 2 SHMEM ranks × 2 workers, 4096 keys/rank — the
/// all-to-all + local-sort composite the paper's Fig. 5 scales up. Raw
/// per-rep samples (ms).
pub fn isx_samples(reps: usize) -> Vec<f64> {
    let params = IsxParams {
        keys_per_rank: 4096,
        key_max: 1 << 16,
        ..Default::default()
    };
    let heap = (params.keys_per_rank * 2 * 8 + (1 << 16)).next_power_of_two();
    let world = ShmemWorld::new(2, heap);
    let per_rank = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            move |_r, t| {
                let shmem = ShmemModule::new(world.clone(), t);
                (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
            },
            move |_env, shmem| {
                let raw = Arc::clone(shmem.raw());
                let watermark = raw.alloc_watermark();
                let mut samples = Vec::new();
                for rep in 0..reps + 1 {
                    shmem.barrier_all();
                    raw.reset_alloc(watermark);
                    shmem.barrier_all();
                    let t0 = Instant::now();
                    let result = isx::run_hiper(&shmem, &params);
                    shmem.barrier_all();
                    let dt = t0.elapsed().as_secs_f64() * 1e3;
                    assert!(isx::verify(&raw, &params, &result));
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                samples
            },
        );
    per_rank[0].clone()
}

/// Spawn churn: the per-task *allocation* path, as opposed to the search
/// path `fanout_samples` stresses. Three phases on a 4-worker SMP runtime:
///
/// 1. a future-based recursive fib(21) with a sequential cutoff at 10 —
///    ~376 `spawn_future` + help-first `get` round trips, i.e. a
///    promise/continuation storm;
/// 2. a single-producer burst of 4000 empty tasks under one finish scope —
///    the spawn/execute slab-recycling cycle with nothing else in the way;
/// 3. a grain-1 `forasync` over 50k iterations — saturated fine-grained
///    loop where eager splitting would publish ~one task per iteration.
pub fn run_spawn_churn(reps: usize) -> MetricSummary {
    summarize_ms(spawn_churn_samples(reps))
}

/// Raw per-rep samples (ms) for the spawn-churn workload.
pub fn spawn_churn_samples(reps: usize) -> Vec<f64> {
    fn fib_seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_seq(n - 1) + fib_seq(n - 2)
        }
    }
    fn fib(rt: &Runtime, n: u64) -> u64 {
        if n < 10 {
            return fib_seq(n);
        }
        let rt2 = rt.clone();
        let upper = rt.spawn_future(move || fib(&rt2, n - 1));
        let lower = fib(rt, n - 2);
        upper.get() + lower
    }
    let rt = Runtime::new(autogen::smp(4));
    let one = |rt: &Runtime| {
        let rt2 = rt.clone();
        rt.block_on(move || {
            assert_eq!(fib(&rt2, 21), 10946);
            api::finish(|| {
                for _ in 0..4000 {
                    api::async_(|| {});
                }
            })
            .expect("no task panicked");
            let acc = Arc::new(AtomicU64::new(0));
            let a = Arc::clone(&acc);
            rt2.forasync_1d(50_000, 1, move |_| {
                a.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed), 50_000);
        });
    };
    for _ in 0..2 {
        one(&rt);
    }
    let samples = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            one(&rt);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rt.shutdown();
    samples
}

/// Message churn: a 4-rank all-to-all storm of tiny tagged messages over
/// the raw transport — no module layer in the way, so the sample isolates
/// the netsim hot path the sharded delivery engine serves: concurrent send
/// admission from four threads, timing-wheel insertion/pop, and handler
/// dispatch. This is the gate metric for the small-message throughput the
/// coalescing and zero-copy work targets. Raw per-rep samples (ms).
pub fn msg_churn_samples(reps: usize) -> Vec<f64> {
    const RANKS: usize = 4;
    const MSGS: u64 = 250; // per (src, dst) pair per rep
    let cluster = Cluster::start(RANKS, NetConfig::default());
    let delivered = Arc::new(AtomicU64::new(0));
    for r in 0..RANKS {
        let d = Arc::clone(&delivered);
        cluster.transport(r).register_handler(
            Channel::APP,
            Box::new(move |_| {
                d.fetch_add(1, Ordering::Relaxed);
            }),
        );
    }
    let payload = bytes::Bytes::from_static(&[0x5a; 16]);
    let per_rep = (RANKS * (RANKS - 1)) as u64 * MSGS;
    // One burst: every rank floods every other rank from its own thread,
    // then the caller waits for all `per_rep` deliveries of that lap.
    let one = |lap: u64| {
        std::thread::scope(|s| {
            for src in 0..RANKS {
                let t = cluster.transport(src);
                let payload = payload.clone();
                s.spawn(move || {
                    for i in 0..MSGS {
                        for dst in 0..RANKS {
                            if dst != src {
                                t.send(dst, Channel::APP, i, payload.clone());
                            }
                        }
                    }
                });
            }
        });
        let target = (lap + 1) * per_rep;
        while delivered.load(Ordering::Relaxed) < target {
            std::thread::yield_now();
        }
    };
    let mut lap = 0u64;
    for _ in 0..2 {
        one(lap);
        lap += 1;
    }
    let samples = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            one(lap);
            lap += 1;
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    cluster.stop();
    samples
}

/// Raw samples for one named gate workload; `None` for unknown names.
pub fn bench_samples(bench: &str, reps: usize) -> Option<Vec<f64>> {
    match bench {
        "fanout_ms" => Some(fanout_samples(reps)),
        "pingpong_ms" => Some(pingpong_samples(reps)),
        "isx_ms" => Some(isx_samples(reps)),
        "msg_churn_ms" => Some(msg_churn_samples(reps)),
        "spawn_churn_ms" => Some(spawn_churn_samples(reps)),
        _ => None,
    }
}

/// Runs the full gate suite, returning raw per-rep samples per metric.
pub fn run_all_samples(reps: usize) -> BTreeMap<String, Vec<f64>> {
    GATE_BENCHES
        .iter()
        .map(|&b| (b.to_string(), bench_samples(b, reps).unwrap()))
        .collect()
}

// ---------------------------------------------------------------------
// Differential profiling — baseline profiles and regression attribution
// ---------------------------------------------------------------------

/// Where the gate keeps `bench`'s baseline profile under `dir`.
pub fn profile_path(dir: &Path, bench: &str) -> PathBuf {
    dir.join(format!("{}.profile.json", bench))
}

/// Runs one traced + metered rep of `bench` and extracts its compact
/// profile. Tracing and metrics are force-enabled for the window and
/// restored after; events drained before the window are discarded so the
/// profile covers exactly this rep (plus its in-process warmups — both
/// baseline and candidate record them identically, so the DAGs align).
pub fn record_profile(bench: &str) -> Result<DiffInput, String> {
    if !GATE_BENCHES.contains(&bench) {
        return Err(format!("unknown gate benchmark: {}", bench));
    }
    let metrics_were_on = hiper_metrics::enabled();
    let _ = hiper_trace::drain(); // discard whatever came before the window
    let before = hiper_metrics::snapshot();
    hiper_metrics::set_enabled(true);
    hiper_trace::set_enabled(true);
    let ran = bench_samples(bench, 1).is_some();
    hiper_trace::set_enabled(false);
    hiper_metrics::set_enabled(metrics_were_on);
    let data = hiper_trace::drain();
    debug_assert!(ran);
    let delta = hiper_metrics::snapshot().delta_since(&before);
    let mut profile = DiffInput::from_trace(bench, &data);
    profile.apply_metrics(&delta);
    Ok(profile)
}

/// Records and writes a baseline profile for every gate workload
/// (`perf_gate --update-baseline` calls this so a later failing run has
/// something to diff against). Returns the files written.
pub fn record_baseline_profiles(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {}", dir.display(), e))?;
    let mut written = Vec::new();
    for bench in GATE_BENCHES {
        let profile = record_profile(bench)?;
        let path = profile_path(dir, bench);
        fs::write(&path, profile.to_json())
            .map_err(|e| format!("write {}: {}", path.display(), e))?;
        written.push(path);
    }
    Ok(written)
}

/// One failing benchmark's differential-profiling verdict.
#[derive(Debug)]
pub struct Attribution {
    /// The benchmark that regressed.
    pub bench: String,
    /// The structured diff (baseline profile vs a fresh traced rep).
    pub diff: TraceDiff,
    /// `ATTRIBUTION_<bench>.md` body.
    pub markdown: String,
    /// `ATTRIBUTION_<bench>.json` body.
    pub json: String,
}

/// Re-runs a failing benchmark traced and diffs it against the stored
/// baseline profile. The baseline is read *before* the expensive traced
/// rep so a missing profile fails fast.
pub fn attribute_regression(
    bench: &str,
    trace_dir: &Path,
    top: usize,
) -> Result<Attribution, String> {
    let base_path = profile_path(trace_dir, bench);
    let text = fs::read_to_string(&base_path).map_err(|e| {
        format!(
            "no baseline profile {} (re-run perf_gate --update-baseline): {}",
            base_path.display(),
            e
        )
    })?;
    let base = DiffInput::parse_json(&text)
        .map_err(|e| format!("parse {}: {}", base_path.display(), e))?;
    let cand = record_profile(bench)?;
    let diff = TraceDiff::build(&base, &cand, DiffOptions { top });
    Ok(Attribution {
        bench: bench.to_string(),
        markdown: diff.to_markdown(),
        json: diff.to_json(),
        diff,
    })
}

// ---------------------------------------------------------------------
// JSON (de)serialization — baseline files and BENCH_perf_gate.json
// ---------------------------------------------------------------------

/// Serializes summaries into the gate's JSON document.
pub fn gate_json(metrics: &BTreeMap<String, MetricSummary>) -> String {
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Json::from("perf_gate"));
    let mut m = BTreeMap::new();
    for (name, s) in metrics {
        let mut entry = BTreeMap::new();
        entry.insert("median_ms".to_string(), Json::Number(s.median));
        entry.insert("iqr_ms".to_string(), Json::Number(s.iqr));
        entry.insert("reps".to_string(), Json::from(s.reps));
        m.insert(name.clone(), Json::Object(entry));
    }
    doc.insert("metrics".to_string(), Json::Object(m));
    let mut out = Json::Object(doc).pretty();
    out.push('\n');
    out
}

/// Serializes raw per-rep samples into the gate's JSON document: each
/// metric carries its summary plus a `samples_ms` array, so a CI artifact
/// records exactly what the medians were computed from. `parse_gate_json`
/// ignores the extra key, keeping old baselines readable.
pub fn gate_json_with_samples(samples: &BTreeMap<String, Vec<f64>>) -> String {
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Json::from("perf_gate"));
    let mut m = BTreeMap::new();
    for (name, raw) in samples {
        let s = summarize_ms(raw.clone());
        let mut entry = BTreeMap::new();
        entry.insert("median_ms".to_string(), Json::Number(s.median));
        entry.insert("iqr_ms".to_string(), Json::Number(s.iqr));
        entry.insert("reps".to_string(), Json::from(s.reps));
        entry.insert(
            "samples_ms".to_string(),
            Json::Array(raw.iter().map(|&v| Json::Number(v)).collect()),
        );
        m.insert(name.clone(), Json::Object(entry));
    }
    doc.insert("metrics".to_string(), Json::Object(m));
    let mut out = Json::Object(doc).pretty();
    out.push('\n');
    out
}

/// Parses a gate JSON document back into summaries.
pub fn parse_gate_json(text: &str) -> Result<BTreeMap<String, MetricSummary>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("missing metrics object")?;
    let mut out = BTreeMap::new();
    for (name, entry) in metrics {
        let field = |k: &str| {
            entry
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {} missing {}", name, k))
        };
        out.insert(
            name.clone(),
            MetricSummary {
                median: field("median_ms")?,
                iqr: field("iqr_ms")?,
                reps: field("reps")? as usize,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> MetricSummary {
        MetricSummary {
            median,
            iqr,
            reps: 9,
        }
    }

    #[test]
    fn summarize_is_robust_to_outliers() {
        let m = summarize_ms(vec![1.0, 1.1, 0.9, 1.0, 100.0]);
        assert_eq!(m.median, 1.0);
        assert_eq!(m.reps, 5);
        assert!(m.iqr < 100.0);
    }

    #[test]
    fn regression_requires_clearing_slack_and_noise() {
        // 10% slack, 3x IQR: 1.0ms baseline with 0.05 IQR -> limit 1.25.
        let base = s(1.0, 0.05);
        assert!(!is_regression(&base, &s(1.24, 0.0), 10.0, 3.0));
        assert!(is_regression(&base, &s(1.26, 0.0), 10.0, 3.0));
        // Wide current-run noise raises the limit.
        assert!(!is_regression(&base, &s(1.5, 0.1), 10.0, 3.0));
    }

    #[test]
    fn compare_flags_missing_metric() {
        let mut base = BTreeMap::new();
        base.insert("fanout_ms".to_string(), s(1.0, 0.1));
        let checks = compare(&base, &BTreeMap::new(), 10.0, 3.0);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].regressed);
        assert!(checks[0].current.is_none());
    }

    #[test]
    fn json_roundtrip() {
        let mut metrics = BTreeMap::new();
        metrics.insert("fanout_ms".to_string(), s(1.2345, 0.0678));
        metrics.insert("isx_ms".to_string(), s(20.5, 1.25));
        let text = gate_json(&metrics);
        let parsed = parse_gate_json(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        let f = parsed["fanout_ms"];
        assert!((f.median - 1.2345).abs() < 1e-9);
        assert!((f.iqr - 0.0678).abs() < 1e-9);
        assert_eq!(f.reps, 9);
    }

    #[test]
    fn samples_json_stays_summary_compatible() {
        let mut samples = BTreeMap::new();
        samples.insert("fanout_ms".to_string(), vec![3.0, 1.0, 2.0]);
        let text = gate_json_with_samples(&samples);
        assert!(text.contains("samples_ms"));
        let parsed = parse_gate_json(&text).unwrap();
        assert_eq!(parsed["fanout_ms"].median, 2.0);
        assert_eq!(parsed["fanout_ms"].reps, 3);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_gate_json("{}").is_err());
        assert!(parse_gate_json("{\"metrics\": {\"x\": {}}}").is_err());
    }
}
