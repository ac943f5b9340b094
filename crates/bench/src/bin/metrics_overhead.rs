//! Measures what the metrics registry costs: the spawn-heavy fanout
//! workload (`perfgate::fanout`) run with metrics disabled and enabled, plus the raw per-record
//! histogram cost, written to `BENCH_metrics_overhead.json`.
//!
//! The disabled numbers back the acceptance bar: every instrumented site
//! guards its clock reads behind one relaxed load of the global enable
//! flag, so the disabled median must sit within 2% of the enabled=never
//! hot path (`BENCH_sched_hotpath.json` territory).
//!
//! ```text
//! cargo run --release -p hiper-bench --bin metrics_overhead -- [out.json]
//! ```

use std::time::Instant;

use hiper_bench::perfgate::time_fanout;
use hiper_platform::autogen;
use hiper_runtime::Runtime;

/// ns per `Histogram::record` call (enabled path) over `n` calls.
fn record_cost(n: u64) -> f64 {
    let h = hiper_metrics::histogram("hiper_bench_record_cost_ns");
    let t0 = Instant::now();
    for i in 0..n {
        h.record(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_metrics_overhead.json".to_string());
    let warmup = hiper_bench::util::env_param("HIPER_WARMUP", 5);
    let reps = hiper_bench::util::env_param("HIPER_REPS", 31);

    let rt = Runtime::new(autogen::smp(4));

    hiper_metrics::set_enabled(false);
    let (dis_min, dis_med, dis_max) = time_fanout(&rt, warmup, reps);

    hiper_metrics::set_enabled(true);
    let record_ns = record_cost(10_000_000);
    let (en_min, en_med, en_max) = time_fanout(&rt, warmup, reps);
    hiper_metrics::set_enabled(false);

    rt.shutdown();

    let overhead_pct = (en_med / dis_med - 1.0) * 100.0;
    let json = format!(
        "{{\n  \"bench\": \"metrics_overhead\",\n  \"workload\": \"fanout_8x1000_producer_consumer\",\n  \"workers\": 4,\n  \"reps\": {reps},\n  \"disabled\": {{ \"min_ms\": {dis_min:.4}, \"median_ms\": {dis_med:.4}, \"max_ms\": {dis_max:.4} }},\n  \"enabled\": {{ \"min_ms\": {en_min:.4}, \"median_ms\": {en_med:.4}, \"max_ms\": {en_max:.4}, \"record_ns\": {record_ns:.3} }},\n  \"enabled_over_disabled_pct\": {overhead_pct:.2}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write results");
    print!("{}", json);
    println!("wrote {}", out);
}
