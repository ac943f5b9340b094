//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <taskgraph|pingpong|isx|lossy_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line is a JSON object with the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics, and the spans
//! are written to `perfbench/out/spans-<workload>-<seed>.tsv`. The exit code
//! is nonzero when any output check failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hiper_perfbench::{run, spans, Config, Metric, Workload};

/// A run that has not finished this long after its measured time is hung.
const HANG_GRACE: Duration = Duration::from_secs(90);

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Config::new(workload, seed, seconds, trace))
}

fn print_metric(m: &Metric, alias: Option<(String, &str, f64)>) {
    let alias = alias.map_or(String::new(), |(name, unit, v)| {
        format!("  ({name} = {v} {unit})")
    });
    println!(
        "metric {} = {} {} n={}{alias}",
        m.name, m.value, m.unit, m.n
    );
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <taskgraph|pingpong|isx|lossy_churn> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // A lost message or wakeup would block forever: fail loudly instead.
    let limit = Duration::from_secs_f64(cfg.seconds) + HANG_GRACE;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; counting the run as failed");
        std::process::exit(3);
    });

    let mut out = run(&cfg);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} sessions={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.sessions
    );
    println!("host {}", out.host.line());
    for (i, (setup, p50)) in out.setup_s.iter().zip(&out.session_p50_ms).enumerate() {
        println!("session {i} setup_s={setup} rep_ms_p50={p50}");
    }

    let metrics = if cfg.trace {
        out.run.attempted += 1;
        match spans::validate(&out.run.spans) {
            Ok(sum) => println!(
                "spans {} roots {} reps {} valid",
                sum.spans, sum.roots, sum.reps
            ),
            Err(e) => out.run.fail(1, || format!("span set invalid: {e}")),
        }
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.tsv",
            cfg.workload.name(),
            cfg.seed
        ));
        let header = [
            format!("workload={} seed={}", cfg.workload.name(), cfg.seed),
            format!("host {}", out.host.line()),
        ];
        if let Err(e) = spans::write_file(&path, &header, &out.run.spans) {
            println!("spans not written to {}: {e}", path.display());
        } else {
            println!("spans written to {}", path.display());
        }
        out.per_layer()
    } else {
        out.end_to_end()
    };
    for m in &metrics {
        print_metric(m, if cfg.trace { None } else { out.alias(m) });
    }
    println!(
        "failed_frac = {} ({} failed of {} attempted)",
        out.failed_frac(),
        out.run.failed,
        out.run.attempted
    );
    for f in &out.run.failures {
        println!("FAILED: {f}");
    }
    println!("{}", out.result_json(&metrics));
    if out.run.failed > 0 || out.run.attempted == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
