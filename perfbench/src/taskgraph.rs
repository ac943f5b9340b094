//! `taskgraph`: a Task-Bench-style 1-D stencil DAG on one 2-worker runtime.
//!
//! Task (t, i) waits on (t-1, i-1..=i+1) through `spawn_await_all` and a
//! promise per task, and does `grain_rounds` splitmix rounds. Almost all
//! the time goes to the runtime and deque layers (spawn, promise
//! put→continuation, wake, steal); no network layer runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_runtime::{Future, Promise, Runtime};

use crate::spans::{now_ns, Tracer};
use crate::stats::{percentile, Acc};
use crate::{mix, Config, Counters, Session};

pub const COLS: usize = 16;
pub const STEPS: usize = 500;
pub const TASKS: usize = COLS * STEPS;
pub const WORKERS: usize = 2;
const WARMUP_REPS: usize = 5;

/// The task body: folds the three upstream values and runs `rounds` mixes.
pub fn cell(left: u64, centre: u64, right: u64, rounds: u32) -> u64 {
    let mut x = left.rotate_left(7) ^ centre ^ right.rotate_left(19);
    for _ in 0..rounds {
        x = mix(x);
    }
    x
}

/// The input row (step -1) for a seed.
pub fn inputs(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|i| mix(seed ^ i.wrapping_mul(0x9e37_79b9)))
        .collect()
}

/// Serial oracle: every task's value, row-major.
pub fn oracle(init: &[u64], rounds: u32) -> Vec<u64> {
    let mut vals = vec![0u64; TASKS];
    for t in 0..STEPS {
        for i in 0..COLS {
            let up = |j: usize| {
                if t == 0 {
                    init[j]
                } else {
                    vals[(t - 1) * COLS + j]
                }
            };
            let l = if i > 0 { up(i - 1) } else { 0 };
            let r = if i + 1 < COLS { up(i + 1) } else { 0 };
            vals[t * COLS + i] = cell(l, up(i), r, rounds);
        }
    }
    vals
}

/// Per-task cells shared between the spawning task and the task bodies.
struct Grid {
    init: Vec<u64>,
    vals: Vec<AtomicU64>,
    /// Traced reps only: when the task's body started, and when it put its
    /// promise (after its value was stored).
    start_ns: Vec<AtomicU64>,
    put_ns: Vec<AtomicU64>,
    /// Traced reps only: compute time of the mixing rounds.
    compute_ns: Vec<AtomicU64>,
    end_ns: Vec<AtomicU64>,
}

impl Grid {
    /// Zeroes every value so a task that never ran cannot pass the check
    /// with the previous rep's output.
    fn clear(&self) {
        for v in &self.vals {
            v.store(0, Ordering::Relaxed);
        }
    }
}

fn zeros() -> Vec<AtomicU64> {
    (0..TASKS).map(|_| AtomicU64::new(0)).collect()
}

fn task(grid: &Grid, t: usize, i: usize, rounds: u32, traced: bool, done: Promise<()>) {
    let k = t * COLS + i;
    if traced {
        grid.start_ns[k].store(now_ns(), Ordering::Relaxed);
    }
    let up = |j: usize| {
        if t == 0 {
            grid.init[j]
        } else {
            grid.vals[(t - 1) * COLS + j].load(Ordering::Relaxed)
        }
    };
    let l = if i > 0 { up(i - 1) } else { 0 };
    let r = if i + 1 < COLS { up(i + 1) } else { 0 };
    let c = up(i);
    let c0 = if traced { now_ns() } else { 0 };
    let v = cell(l, c, r, rounds);
    if traced {
        grid.compute_ns[k].store(now_ns() - c0, Ordering::Relaxed);
    }
    // Promise put/get orders these stores before every dependent's loads.
    grid.vals[k].store(v, Ordering::Relaxed);
    if traced {
        grid.put_ns[k].store(now_ns(), Ordering::Relaxed);
    }
    done.put(());
    if traced {
        grid.end_ns[k].store(now_ns(), Ordering::Relaxed);
    }
}

/// Spawns the whole DAG under one finish. Returns false if a task failed.
fn rep(rt: &Runtime, grid: &Arc<Grid>, rounds: u32, tr: &mut Tracer, acc: &mut Acc) -> bool {
    let traced = tr.traced();
    let mut spawn_ns = Vec::with_capacity(if traced { TASKS } else { 0 });
    tr.open("runtime.finish");
    let ok = rt
        .finish(|| {
            tr.open("runtime.spawn");
            let mut prev: Vec<Future<()>> = Vec::new();
            let mut row: Vec<Future<()>> = Vec::with_capacity(COLS);
            for t in 0..STEPS {
                for i in 0..COLS {
                    let deps = if t == 0 {
                        &prev[..0]
                    } else {
                        &prev[i.saturating_sub(1)..(i + 2).min(COLS)]
                    };
                    let done = Promise::new();
                    row.push(done.future());
                    let grid = Arc::clone(grid);
                    let s0 = if traced { now_ns() } else { 0 };
                    rt.spawn_await_all(deps, move || task(&grid, t, i, rounds, traced, done));
                    if traced {
                        spawn_ns.push((now_ns() - s0) as f64);
                    }
                }
                prev = std::mem::replace(&mut row, Vec::with_capacity(COLS));
            }
            tr.close();
        })
        .is_ok();
    let finish_end = now_ns();
    let finish_ns = tr.close();
    if traced {
        let ld = |v: &[AtomicU64], k: usize| v[k].load(Ordering::Relaxed);
        let mut r2s = Vec::with_capacity(TASKS - COLS);
        let mut compute = Vec::with_capacity(TASKS);
        let mut busy = 0u64;
        let mut last_end = 0u64;
        for t in 0..STEPS {
            for i in 0..COLS {
                let k = t * COLS + i;
                let start = ld(&grid.start_ns, k);
                if t > 0 {
                    let ready = (i.saturating_sub(1)..(i + 2).min(COLS))
                        .map(|j| ld(&grid.put_ns, (t - 1) * COLS + j))
                        .max()
                        .unwrap_or(start);
                    r2s.push(start.saturating_sub(ready) as f64 / 1e3);
                }
                compute.push(ld(&grid.compute_ns, k) as f64 / 1e3);
                busy += ld(&grid.put_ns, k) - start;
                last_end = last_end.max(ld(&grid.end_ns, k));
            }
        }
        acc.push("runtime.spawn_ns", percentile(&spawn_ns, 0.5));
        acc.push("runtime.ready_to_start_us", percentile(&r2s, 0.5));
        acc.push("runtime.ready_to_start_us_tail", percentile(&r2s, 0.9));
        acc.push("app.task_us", percentile(&compute, 0.5));
        acc.push(
            "runtime.finish_tail_ms",
            finish_end.saturating_sub(last_end) as f64 / 1e6,
        );
        acc.add("busy_ns", busy as f64);
        acc.add("capacity_ns", (WORKERS as u64 * finish_ns) as f64);
    }
    ok
}

pub fn session(cfg: &Config, budget: Duration) -> Session {
    let t0 = Instant::now();
    let rt = Runtime::new(hiper_platform::autogen::smp(WORKERS));
    let init = inputs(cfg.seed);
    let expect = oracle(&init, cfg.grain_rounds);
    let grid = Arc::new(Grid {
        init,
        vals: zeros(),
        start_ns: zeros(),
        put_ns: zeros(),
        compute_ns: zeros(),
        end_ns: zeros(),
    });
    let (rounds, trace, every) = (cfg.grain_rounds, cfg.trace, cfg.workload.trace_every());
    let rt2 = rt.clone();
    let out = rt.block_on(move || {
        let rt = rt2;
        let mut s = Session::default();
        let mut tr = Tracer::new(0);
        let check = |s: &mut Session, ok: bool| {
            let bad = if ok {
                grid.vals
                    .iter()
                    .zip(&expect)
                    .filter(|(v, e)| v.load(Ordering::Relaxed) != **e)
                    .count()
            } else {
                TASKS
            };
            s.attempted += TASKS as u64;
            s.fail(bad as u64, || {
                format!("{bad} of {TASKS} stencil cells differ from the oracle")
            });
        };
        for _ in 0..WARMUP_REPS {
            grid.clear();
            let ok = rep(&rt, &grid, rounds, &mut tr, &mut s.acc);
            check(&mut s, ok);
        }
        s.setup_s = t0.elapsed().as_secs_f64();
        let deadline = Instant::now() + budget;
        let mut n = 0u64;
        while Instant::now() < deadline {
            let traced = trace && n % every == 1;
            tr.begin_rep(n, traced);
            grid.clear();
            let before = traced.then(|| Counters::read(&rt, None, None));
            tr.open("rep");
            let r0 = Instant::now();
            let ok = rep(&rt, &grid, rounds, &mut tr, &mut s.acc);
            let ms = r0.elapsed().as_secs_f64() * 1e3;
            tr.close();
            if let Some(before) = before {
                before.delta_into(&Counters::read(&rt, None, None), &mut s.acc);
                s.acc.add("reps", 1.0);
            }
            s.record_rep(ms, traced);
            check(&mut s, ok);
            n += 1;
        }
        s.spans = tr.into_spans();
        s
    });
    rt.shutdown();
    out
}
