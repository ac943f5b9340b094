//! Stress tests for the targeted wake/park protocol.
//!
//! The invariants under test:
//!
//! 1. **No lost wakeups.** A `wake_one` that claims a registered worker must
//!    actually get that worker out of `park`, no matter how the registration,
//!    the park, and the wake interleave. The parks below use a 10-second
//!    timeout and assert an *explicit* wake, so a lost signal fails the
//!    assertion rather than being papered over by the timeout.
//! 2. **Silent spawn fast path.** `Scheduler::wake` on the spawn path must
//!    not take the idle mutex or signal any condvar while no worker is
//!    parked. Every wake decision is counted (`wake_signals_sent` vs
//!    `wakes_skipped`), so the counters prove which path ran.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hiper_platform::autogen;
use hiper_runtime::{Runtime, WakeHub};

/// One spawner racing one parker on a bare hub, 100 consecutive rounds.
/// Each round the parker registers, re-checks a "work" flag, and parks; the
/// spawner publishes work and calls `wake_one`. Whatever the interleaving,
/// the parker must either see the flag on its re-check or be explicitly
/// woken — a bare 10 s timeout means a wakeup was lost.
#[test]
fn no_lost_wakeup_100_rounds() {
    for round in 0..100 {
        let hub = Arc::new(WakeHub::new(1));
        let work = Arc::new(AtomicBool::new(false));

        let parker = {
            let hub = Arc::clone(&hub);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                hub.register_idle(0);
                if work.load(Ordering::Acquire) {
                    // Re-check saw the spawn: absorb any wake aimed at us.
                    hub.cancel_idle(0);
                    return true;
                }
                hub.park(0, Duration::from_secs(10))
            })
        };
        let spawner = {
            let hub = Arc::clone(&hub);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                work.store(true, Ordering::Release);
                hub.wake_one()
            })
        };

        let parker_ok = parker.join().unwrap();
        let woke = spawner.join().unwrap();
        assert!(
            parker_ok,
            "round {round}: parker timed out — wakeup lost (spawner woke={woke})"
        );
    }
}

/// Many spawner/parker pairs hammering one hub concurrently: every claimed
/// wake must land, and the idle set must end empty.
#[test]
fn concurrent_wake_one_claims_are_never_lost() {
    const WORKERS: usize = 4;
    const ROUNDS: usize = 50;
    for _ in 0..ROUNDS {
        let hub = Arc::new(WakeHub::new(WORKERS));
        let sleepers: Vec<_> = (0..WORKERS)
            .map(|id| {
                let hub = Arc::clone(&hub);
                thread::spawn(move || {
                    hub.register_idle(id);
                    hub.park(id, Duration::from_secs(10))
                })
            })
            .collect();
        while hub.idle_count() < WORKERS {
            thread::yield_now();
        }
        let wakers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let hub = Arc::clone(&hub);
                thread::spawn(move || hub.wake_one())
            })
            .collect();
        let claimed = wakers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&woke| woke)
            .count();
        assert_eq!(
            claimed, WORKERS,
            "every waker had a registered sleeper to claim"
        );
        for s in sleepers {
            assert!(s.join().unwrap(), "registered sleeper was never woken");
        }
        assert_eq!(hub.idle_count(), 0);
    }
}

/// End-to-end: external spawns racing parked workers for 100 consecutive
/// finish scopes. Completion of every scope (without tripping the long-park
/// assertion windows above) is the pass condition.
#[test]
fn runtime_spawn_park_race_100_scopes() {
    let rt = Runtime::new(autogen::smp(4));
    let hits = Arc::new(AtomicU64::new(0));
    for round in 0u64..100 {
        let before = hits.load(Ordering::Relaxed);
        rt.finish(|| {
            for _ in 0..32 {
                let hits = Arc::clone(&hits);
                rt.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .expect("no task panicked");
        assert_eq!(
            hits.load(Ordering::Relaxed),
            before + 32,
            "round {round}: finish returned before all tasks ran"
        );
    }
    rt.shutdown();
}

/// The spawn fast path takes no lock and signals nobody when every worker is
/// busy. A single-worker runtime spawns from its own (running) worker, so no
/// worker is ever parked at spawn time: the wake counters must show the
/// skipped path overwhelmingly, and the snapshot totals must account for
/// every wake decision.
#[test]
fn spawn_fast_path_skips_wakes_when_nobody_parked() {
    const TASKS: u64 = 2000;
    let rt = Runtime::new(autogen::smp(1));
    let ran = Arc::new(AtomicU64::new(0));
    rt.block_on({
        let ran = Arc::clone(&ran);
        move || {
            let rt = Runtime::current().unwrap();
            rt.finish(|| {
                for _ in 0..TASKS {
                    let ran = Arc::clone(&ran);
                    rt.spawn(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .expect("no task panicked");
        }
    });
    assert_eq!(ran.load(Ordering::Relaxed), TASKS);
    let snap = rt.sched_stats();
    // The only worker was running the spawning task itself, so virtually
    // every one of the >= TASKS wake decisions must have found nobody parked
    // and taken the lock-free skip path. A handful of sends are legitimate
    // (the external block_on submission racing the worker's park).
    assert!(
        snap.wakes_skipped >= TASKS,
        "expected >= {TASKS} skipped wakes, got {}",
        snap.wakes_skipped
    );
    assert!(
        snap.wake_signals_sent <= 16,
        "expected almost no wakes sent with a single busy worker, got {}",
        snap.wake_signals_sent
    );
    rt.shutdown();
}

/// Batched raids show up in the counters. External spawns land in the place
/// injector; a drain that finds more than one task there moves a batch and
/// banks the extras, which is exactly what `batch_steals` counts. Both
/// workers are held on a latch while the test thread enqueues every task,
/// so the first drain after the release is guaranteed a full injector —
/// with free workers, the drains can keep pace with the spawner and only
/// ever find one task.
#[test]
fn batch_steals_are_counted() {
    const TASKS: u64 = 4000;
    const WORKERS: u64 = 2;
    let rt = Runtime::new(autogen::smp(WORKERS as usize));
    let ran = Arc::new(AtomicU64::new(0));
    let latched = Arc::new(AtomicU64::new(0));
    let release = Arc::new(AtomicBool::new(false));
    // `finish` on the test thread: every spawn inside is an external spawn
    // (injector path).
    let before = rt
        .finish(|| {
            for _ in 0..WORKERS {
                let latched = Arc::clone(&latched);
                let release = Arc::clone(&release);
                rt.spawn(move || {
                    latched.fetch_add(1, Ordering::AcqRel);
                    while !release.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                });
            }
            while latched.load(Ordering::Acquire) < WORKERS {
                thread::yield_now();
            }
            let before = rt.sched_stats();
            for _ in 0..TASKS {
                let ran = Arc::clone(&ran);
                rt.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            release.store(true, Ordering::Release);
            before
        })
        .expect("no task panicked");
    assert_eq!(ran.load(Ordering::Relaxed), TASKS);
    let snap = rt.sched_stats();
    assert_eq!(snap.tasks_executed, TASKS + WORKERS);
    let delta = snap.diff(&before);
    assert!(
        delta.batch_steals > 0,
        "draining a full injector must produce at least one batched drain: {delta}"
    );
    rt.shutdown();
}
