//! Shared harness utilities: repetition with confidence intervals and
//! paper-style table printing.

use std::time::Instant;

/// Summary statistics over repeated timings.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean wall-clock seconds.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (seconds).
    pub ci95: f64,
    /// Number of repetitions.
    pub reps: usize,
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.mean >= 1.0 {
            write!(f, "{:7.3} s ±{:.3}", self.mean, self.ci95)
        } else {
            write!(f, "{:7.2} ms ±{:.2}", self.mean * 1e3, self.ci95 * 1e3)
        }
    }
}

/// Times `f` `reps` times (after `warmup` unrecorded runs) and reports the
/// mean with a 95% confidence interval, as in the paper ("all tests are
/// repeated ... error bars represent 95% confidence intervals").
pub fn time_reps(reps: usize, warmup: usize, mut f: impl FnMut()) -> Timing {
    assert!(reps >= 1);
    for _ in 0..warmup {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples)
}

/// Mean + 95% CI of raw samples.
pub fn summarize(samples: &[f64]) -> Timing {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    // t-value ≈ 1.96 for large n; use a small-sample table for the usual
    // rep counts.
    let t = match samples.len() {
        0 | 1 => 0.0,
        2 => 12.71,
        3 => 4.30,
        4 => 3.18,
        5 => 2.78,
        6 => 2.57,
        7 => 2.45,
        8 => 2.36,
        9 => 2.31,
        10 => 2.26,
        _ => 1.96,
    };
    Timing {
        mean,
        ci95: t * (var / n).sqrt(),
        reps: samples.len(),
    }
}

/// Prints a paper-style results table: one row per x-value (node count),
/// one column per implementation.
pub fn print_table(title: &str, xlabel: &str, columns: &[&str], rows: &[(usize, Vec<Timing>)]) {
    println!("\n=== {} ===", title);
    print!("{:>8}", xlabel);
    for c in columns {
        print!("  {:>22}", c);
    }
    println!();
    for (x, timings) in rows {
        print!("{:>8}", x);
        for t in timings {
            print!("  {:>22}", t.to_string());
        }
        println!();
    }
}

/// Reads an integer benchmark parameter from the environment (so harness
/// scale can be adjusted without recompiling), with a default.
pub fn env_param(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Starts a tracing session when `--trace <out.json>` (or `HIPER_TRACE`)
/// was given. Hold the returned guard for the whole run; dropping it drains
/// all rings and writes the Chrome-trace file.
pub fn trace_session() -> Option<hiper_trace::TraceSession> {
    hiper_trace::session_from_env_args()
}

/// Starts a metrics session when `--metrics[=FILE]` (or `HIPER_METRICS`)
/// was given. Hold the returned guard for the whole run; dropping it
/// disables collection and writes the OpenMetrics dump to the file (or
/// stderr when no file was named).
pub fn metrics_session() -> Option<hiper_metrics::MetricsSession> {
    hiper_metrics::session_from_env_args()
}

/// True when `--stats` was passed (or `HIPER_STATS` is set to anything but
/// `0`): harness binaries then print per-rank scheduler and module counters.
pub fn stats_enabled() -> bool {
    std::env::args().any(|a| a == "--stats")
        || std::env::var("HIPER_STATS").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Prints one rank's scheduler counters ([`SchedStatsSnapshot`] Display)
/// and per-module call/time totals to stderr, prefixed with `tag`.
///
/// [`SchedStatsSnapshot`]: hiper_runtime::SchedStatsSnapshot
pub fn print_rank_stats(tag: &str, rt: &hiper_runtime::Runtime) {
    eprintln!("[stats {}] sched: {}", tag, rt.sched_stats());
    for (module, calls, total) in rt.module_stats().snapshot() {
        eprintln!(
            "[stats {}] module {}: {} calls, {:?} total",
            tag, module, calls, total
        );
    }
    let dropped = hiper_trace::rings_dropped();
    if dropped > 0 {
        eprintln!(
            "[stats {}] trace: WARNING {} event(s) dropped by ring wraparound \
             (trace incomplete; raise HIPER_TRACE_BUF)",
            tag, dropped
        );
    }
}

/// Prints the cluster-wide network counters ([`NetStatsSnapshot`] Display)
/// to stderr, prefixed with `tag`. Under fault injection this includes
/// dropped/duplicated wire messages and handler panics.
///
/// [`NetStatsSnapshot`]: hiper_netsim::NetStatsSnapshot
pub fn print_net_stats(tag: &str, transport: &hiper_netsim::Transport) {
    eprintln!("[stats {}] net: {}", tag, transport.net_stats());
}

/// Prints one endpoint's reliable-layer counters
/// ([`ReliableStatsSnapshot`] Display: retries, coalesced frames,
/// piggybacked/standalone acks, payload copies avoided) to stderr,
/// prefixed with `tag`.
///
/// [`ReliableStatsSnapshot`]: hiper_netsim::ReliableStatsSnapshot
pub fn print_reliable_stats(tag: &str, transport: &hiper_netsim::ReliableTransport) {
    eprintln!("[stats {}] reliable: {}", tag, transport.stats());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn summarize_single_sample() {
        let t = summarize(&[0.5]);
        assert_eq!(t.mean, 0.5);
        assert_eq!(t.ci95, 0.0);
    }

    #[test]
    fn summarize_constant_samples_has_zero_ci() {
        let t = summarize(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(t.mean, 1.0);
        assert!(t.ci95 < 1e-12);
    }

    #[test]
    fn summarize_known_variance() {
        let t = summarize(&[1.0, 3.0]);
        assert_eq!(t.mean, 2.0);
        // s = sqrt(2), se = 1, t=12.71
        assert!((t.ci95 - 12.71).abs() < 1e-9);
    }

    #[test]
    fn time_reps_measures() {
        let t = time_reps(3, 1, || std::thread::sleep(Duration::from_millis(5)));
        assert!(t.mean >= 0.004, "{:?}", t);
        assert_eq!(t.reps, 3);
    }

    #[test]
    fn env_param_default_and_override() {
        assert_eq!(env_param("HIPER_BENCH_NO_SUCH_VAR", 7), 7);
        std::env::set_var("HIPER_BENCH_TEST_VAR", "42");
        assert_eq!(env_param("HIPER_BENCH_TEST_VAR", 7), 42);
    }

    #[test]
    fn timing_display_switches_units() {
        let ms = Timing {
            mean: 0.05,
            ci95: 0.001,
            reps: 3,
        };
        assert!(ms.to_string().contains("ms"));
        let s = Timing {
            mean: 2.0,
            ci95: 0.1,
            reps: 3,
        };
        assert!(s.to_string().contains(" s "));
    }
}
