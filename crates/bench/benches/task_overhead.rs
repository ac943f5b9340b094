//! Component-level microbenchmarks of the runtime core: task spawn/execute
//! throughput, finish-scope cost, promise/future latency, forasync, and the
//! raw work-stealing deque.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use hiper_platform::autogen;
use hiper_runtime::{api, Promise, Runtime};

fn bench_spawn_finish(c: &mut Criterion) {
    let rt = Runtime::new(autogen::smp(2));
    let rt2 = rt.clone();
    c.bench_function("finish_1000_empty_tasks", |b| {
        b.iter(|| {
            rt2.block_on(|| {
                api::finish(|| {
                    for _ in 0..1000 {
                        api::async_(|| {});
                    }
                })
                .expect("no task panicked");
            })
        })
    });
    rt.shutdown();
}

fn bench_promise_roundtrip(c: &mut Criterion) {
    let rt = Runtime::new(autogen::smp(2));
    let rt2 = rt.clone();
    c.bench_function("promise_put_get_chain_100", |b| {
        b.iter(|| {
            rt2.block_on(|| {
                let mut fut = {
                    let p = Promise::new();
                    let f = p.future();
                    p.put(0u64);
                    f
                };
                for _ in 0..100 {
                    fut = api::async_future_await(&fut, || 1u64);
                }
                fut.get()
            })
        })
    });
    rt.shutdown();
}

fn bench_forasync(c: &mut Criterion) {
    let rt = Runtime::new(autogen::smp(2));
    let rt2 = rt.clone();
    c.bench_function("forasync_100k_grain_512", |b| {
        b.iter(|| {
            let acc = Arc::new(AtomicU64::new(0));
            let a = Arc::clone(&acc);
            rt2.block_on(move || {
                api::forasync_1d(100_000, 512, move |i| {
                    a.fetch_add(i as u64, Ordering::Relaxed);
                });
            });
            acc.load(Ordering::Relaxed)
        })
    });
    rt.shutdown();
}

fn bench_deque(c: &mut Criterion) {
    c.bench_function("deque_push_pop_1000", |b| {
        let (w, _s) = hiper_deque::new_deque();
        b.iter(|| {
            for i in 0..1000u64 {
                w.push(i);
            }
            let mut sum = 0u64;
            while let Some(v) = w.pop() {
                sum += v;
            }
            sum
        })
    });
    c.bench_function("deque_steal_1000", |b| {
        let (w, s) = hiper_deque::new_deque();
        b.iter(|| {
            for i in 0..1000u64 {
                w.push(i);
            }
            let mut sum = 0u64;
            while let Some(v) = s.steal().success() {
                sum += v;
            }
            sum
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_spawn_finish, bench_promise_roundtrip, bench_forasync, bench_deque
}
criterion_main!(benches);
