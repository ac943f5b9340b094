//! Measures what tracing costs: the spawn-heavy fanout workload (the perf
//! gate's `fanout_ms` body, `perfgate::fanout`) run with tracing disabled
//! and enabled, plus the raw per-emit cost, written to
//! `BENCH_trace_overhead.json`.
//!
//! The disabled numbers are the ones that matter for the "zero cost when
//! off" claim: every instrumentation site is one relaxed atomic load when
//! the flag is clear, so the disabled median must sit within noise of the
//! uninstrumented baseline (`BENCH_sched_hotpath.json`).
//!
//! ```text
//! cargo run --release -p hiper-bench --bin trace_overhead -- [out.json]
//! ```

use std::time::Instant;

use hiper_bench::perfgate::time_fanout;
use hiper_platform::autogen;
use hiper_runtime::Runtime;
use hiper_trace::EventKind;

/// ns per call of `emit` (or its disabled-path check) over `n` calls.
fn emit_cost(n: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        hiper_trace::emit(EventKind::Pop, i, 0, 0);
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trace_overhead.json".to_string());
    let warmup = hiper_bench::util::env_param("HIPER_WARMUP", 5);
    let reps = hiper_bench::util::env_param("HIPER_REPS", 31);

    let rt = Runtime::new(autogen::smp(4));

    hiper_trace::set_enabled(false);
    let disabled_emit_ns = emit_cost(10_000_000);
    let (dis_min, dis_med, dis_max) = time_fanout(&rt, warmup, reps);

    hiper_trace::set_enabled(true);
    let enabled_emit_ns = emit_cost(10_000_000);
    let (en_min, en_med, en_max) = time_fanout(&rt, warmup, reps);
    hiper_trace::set_enabled(false);
    let data = hiper_trace::drain();
    let events = data.len();
    let dropped = data.dropped();

    rt.shutdown();

    let overhead_pct = (en_med / dis_med - 1.0) * 100.0;
    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"workload\": \"fanout_8x1000_producer_consumer\",\n  \"workers\": 4,\n  \"reps\": {reps},\n  \"disabled\": {{ \"min_ms\": {dis_min:.4}, \"median_ms\": {dis_med:.4}, \"max_ms\": {dis_max:.4}, \"emit_ns\": {disabled_emit_ns:.3} }},\n  \"enabled\": {{ \"min_ms\": {en_min:.4}, \"median_ms\": {en_med:.4}, \"max_ms\": {en_max:.4}, \"emit_ns\": {enabled_emit_ns:.3}, \"events_drained\": {events}, \"events_dropped\": {dropped} }},\n  \"enabled_over_disabled_pct\": {overhead_pct:.2}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write results");
    print!("{}", json);
    println!("wrote {}", out);
}
