//! `isx`: the ISx integer sort with 2 ranks × 1 worker and 2^18 keys per
//! rank (2 MiB per rank). The benchmark drives the phases of
//! `isx::run_hiper` itself through public calls, so each phase is timed on
//! its own: key generation, bucketize tasks under `finish`, two
//! `alltoall64`, `put64` tasks under `finish`, `barrier_all`, local sort.
//! Few, large, bandwidth-bound messages: a different use of netsim than
//! pingpong, plus the SHMEM layer and the app's own sort.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hiper_bench::isx::{self as app, IsxParams, IsxResult};
use hiper_netsim::{NetConfig, RankEnv, SpmdBuilder};
use hiper_runtime::{api, SchedulerModule};
use hiper_shmem::{ShmemModule, ShmemWorld};

use crate::spans::Tracer;
use crate::{derive, Config, Counters, Session};

pub const RANKS: usize = 2;
pub const KEYS_PER_RANK: usize = 1 << 18;
const KEY_MAX: u64 = 1 << 23;
/// Receive capacity per rank, as in `run_hiper`.
const CAPACITY: usize = 2 * KEYS_PER_RANK;
const HEAP_BYTES: usize = 8 * CAPACITY + (1 << 20);
const BUCKETIZE_TASKS: usize = 4;
const WARMUP_REPS: usize = 3;

/// Serial oracle: the sorted keys rank `me` must end up with.
fn expected(params: &IsxParams, me: usize) -> Vec<u64> {
    let mut mine: Vec<u64> = (0..RANKS)
        .flat_map(|r| {
            app::bucketize(&app::generate_keys(params, r), params.key_max, RANKS).swap_remove(me)
        })
        .collect();
    mine.sort_unstable();
    mine
}

pub fn session(cfg: &Config, budget: Duration) -> Session {
    let t0 = Instant::now();
    let params = IsxParams {
        keys_per_rank: KEYS_PER_RANK,
        key_max: KEY_MAX,
        seed: derive(cfg.seed, 2),
    };
    let world = ShmemWorld::new(RANKS, HEAP_BYTES);
    let (trace, every, net) = (cfg.trace, cfg.workload.trace_every(), cfg.net);
    let mut ranks = SpmdBuilder::new(RANKS).net(net).workers_per_rank(1).run(
        move |_, transport| {
            let shmem = ShmemModule::new(world.clone(), transport);
            (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
        },
        move |env, shmem| rank_main(&env, &shmem, &params, net, t0, budget, (trace, every)),
    );
    let other = ranks.pop().expect("two ranks");
    let mut s = ranks.pop().expect("two ranks");
    s.merge(other);
    s
}

/// One sort. Returns the rank's sorted keys and its rep time in ms.
fn rep(
    env: &RankEnv,
    shmem: &Arc<ShmemModule>,
    params: &IsxParams,
    recv_off: usize,
    net: &NetConfig,
    tr: &mut Tracer,
    s: &mut Session,
) -> (Vec<u64>, f64) {
    let raw = Arc::clone(shmem.raw());
    let me = env.rank;
    tr.open("rep");
    let r0 = Instant::now();

    tr.open("isx.keygen");
    let keys = Arc::new(app::generate_keys(params, me));
    let keygen_ns = tr.close();

    tr.open("isx.bucketize");
    let partials = Arc::new(Mutex::new(Vec::with_capacity(BUCKETIZE_TASKS)));
    let chunk = keys.len().div_ceil(BUCKETIZE_TASKS);
    let ok = api::finish(|| {
        for c in 0..BUCKETIZE_TASKS {
            let (keys, partials) = (Arc::clone(&keys), Arc::clone(&partials));
            let key_max = params.key_max;
            api::async_(move || {
                let part = &keys[c * chunk..((c + 1) * chunk).min(keys.len())];
                let part = app::bucketize(part, key_max, RANKS);
                partials
                    .lock()
                    .expect("a bucketize task panicked")
                    .push((c, part));
            });
        }
    });
    let mut parts = std::mem::take(&mut *partials.lock().expect("a bucketize task panicked"));
    parts.sort_by_key(|(c, _)| *c);
    let mut buckets = vec![Vec::new(); RANKS];
    for (_, part) in parts {
        for (d, mut b) in part.into_iter().enumerate() {
            buckets[d].append(&mut b);
        }
    }
    let bucketize_ns = tr.close();

    let counts: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
    tr.open("shmem.alltoall64");
    let counts_to_me = shmem.alltoall64(counts);
    let a2a_count_ns = tr.close();
    let total: u64 = counts_to_me.iter().sum();
    let offsets: Vec<u64> = counts_to_me
        .iter()
        .scan(0u64, |acc, c| {
            let off = *acc;
            *acc += c;
            Some(off)
        })
        .collect();
    tr.open("shmem.alltoall64");
    let my_offsets = shmem.alltoall64(offsets);
    let a2a_offset_ns = tr.close();

    tr.open("shmem.put_phase");
    let fits = (total as usize) <= CAPACITY;
    let put_ok = api::finish(|| {
        for (dst, bucket) in buckets.iter().enumerate() {
            if !bucket.is_empty() && fits {
                let (raw, bucket) = (Arc::clone(&raw), bucket.clone());
                let off = recv_off + 8 * my_offsets[dst] as usize;
                api::async_(move || raw.put64(dst, off, &bucket));
            }
        }
    });
    let put_ns = tr.close();

    tr.open("shmem.barrier_all");
    shmem.barrier_all();
    let barrier_ns = tr.close();

    tr.open("isx.sort");
    let n = (total as usize).min(CAPACITY);
    let mut bytes = vec![0u8; n * 8];
    raw.heap().read_bytes(recv_off, &mut bytes);
    let mut sorted = vec![0u64; n];
    hiper_netsim::pod::read_into(&bytes, &mut sorted);
    sorted.sort_unstable();
    let sort_ns = tr.close();

    let ms = r0.elapsed().as_secs_f64() * 1e3;
    tr.close();

    if !fits || ok.is_err() || put_ok.is_err() {
        s.fail(1, || {
            format!("rank {me}: receive overflow ({total} keys) or a task failed")
        });
    }
    if tr.traced() {
        let us = |ns: u64| ns as f64 / 1e3;
        s.acc.push("isx.keygen_ms", us(keygen_ns) / 1e3);
        s.acc.push("isx.bucketize_ms", us(bucketize_ns) / 1e3);
        s.acc.push("shmem.alltoall64_us", us(a2a_count_ns));
        s.acc.push("shmem.alltoall64_us", us(a2a_offset_ns));
        s.acc.push("shmem.put_phase_ms", us(put_ns) / 1e3);
        s.acc.push("shmem.barrier_us", us(barrier_ns));
        s.acc.push("isx.sort_ms", us(sort_ns) / 1e3);
        // Modeled floor of the put phase: the slowest destination's
        // latency plus its computed wire bytes over the link bandwidth.
        let floor_s = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(dst, b)| {
                let lat = if dst == me {
                    net.self_latency
                } else {
                    net.latency
                };
                lat.as_secs_f64() + (64 + 8 + 8 * b.len()) as f64 / net.bandwidth
            })
            .fold(0.0, f64::max);
        s.acc
            .push("shmem.put_phase_over_floor", put_ns as f64 / 1e9 / floor_s);
        s.acc.add(
            "logical_msgs",
            buckets.iter().filter(|b| !b.is_empty()).count() as f64,
        );
    }
    (sorted, ms)
}

fn rank_main(
    env: &RankEnv,
    shmem: &Arc<ShmemModule>,
    params: &IsxParams,
    net: NetConfig,
    t0: Instant,
    budget: Duration,
    (trace, every): (bool, u64),
) -> Session {
    let mut s = Session::default();
    let mut tr = Tracer::new(env.rank);
    let raw = Arc::clone(shmem.raw());
    let recv_off = raw.malloc64(CAPACITY).offset;
    let want = expected(params, env.rank);
    let reliable = raw.reliable();
    let engine = (env.rank == 0).then_some(&env.transport);
    let mut last = Vec::new();
    let check = |s: &mut Session, got: &[u64]| {
        s.attempted += 1;
        if got != want {
            s.fail(1, || {
                format!("rank {}: sorted keys differ from the oracle", env.rank)
            });
        }
        // Zero the receive buffer so a lost put cannot pass with old keys.
        // No peer puts here again before the next rep's alltoall64.
        raw.heap().write_bytes(recv_off, &vec![0u8; 8 * CAPACITY]);
    };
    for _ in 0..WARMUP_REPS {
        let (got, _) = rep(env, shmem, params, recv_off, &net, &mut tr, &mut s);
        check(&mut s, &got);
        last = got;
    }
    s.setup_s = t0.elapsed().as_secs_f64();
    let deadline = Instant::now() + budget;
    for n in 0u64.. {
        // Rank 0 decides for both whether another rep fits the budget.
        let go = u64::from(env.rank == 0 && Instant::now() < deadline);
        if shmem.sum_to_all_u64(vec![go])[0] == 0 {
            break;
        }
        let traced = trace && n % every == 1;
        tr.begin_rep(n, traced);
        let before = traced.then(|| Counters::read(&env.runtime, engine, Some(reliable)));
        let (got, ms) = rep(env, shmem, params, recv_off, &net, &mut tr, &mut s);
        if let Some(before) = before {
            let after = Counters::read(&env.runtime, engine, Some(reliable));
            before.delta_into(&after, &mut s.acc);
            if env.rank == 0 {
                s.acc.add("reps", 1.0);
            }
        }
        if env.rank == 0 {
            s.record_rep(ms, traced);
        }
        check(&mut s, &got);
        last = got;
    }
    // The library's own validator, on the last sort.
    let result = IsxResult {
        sorted: last,
        generated: KEYS_PER_RANK,
    };
    s.attempted += 1;
    if !app::verify(&raw, params, &result) {
        s.fail(1, || {
            format!("rank {}: isx::verify rejected the sort", env.rank)
        });
    }
    if let Err(e) = shmem.raw().health() {
        s.fail(1, || format!("rank {}: {e}", env.rank));
    }
    s.spans = tr.into_spans();
    s
}
