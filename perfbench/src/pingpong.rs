//! `pingpong`: MPI `send`/`recv` round trips of an 8-byte counter between
//! 2 ranks × 1 worker on the default network model. The echo increments
//! the counter and the sender checks it. One message is in flight at a
//! time, so the round trip is latency-bound: it loads the netsim engine's
//! wake path and MPI matching while the runtime is nearly idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_mpi::MpiModule;
use hiper_netsim::{RankEnv, SpmdBuilder};
use hiper_runtime::SchedulerModule;

use crate::spans::{now_ns, Tracer};
use crate::{derive, Config, Counters, Session};

const RANKS: usize = 2;
const WARMUP_ROUNDS: u64 = 300;
const PING: u64 = 1;
const STOP: u64 = 2;

pub fn session(cfg: &Config, budget: Duration) -> Session {
    let t0 = Instant::now();
    // Counters stay far below u64::MAX however long the run.
    let first = derive(cfg.seed, 1) >> 16;
    let (trace, every) = (cfg.trace, cfg.workload.trace_every());
    let mut ranks = SpmdBuilder::new(RANKS)
        .net(cfg.net)
        .workers_per_rank(1)
        .run(
            |_, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            move |env, mpi| {
                let tracing = (trace, every);
                let mut s = if env.rank == 0 {
                    pinger(&env, &mpi, first, t0, budget, tracing)
                } else {
                    echoer(&env, &mpi, tracing)
                };
                if let Err(e) = mpi.raw().health() {
                    s.fail(1, || format!("rank {}: {e}", env.rank));
                }
                s
            },
        );
    let echo = ranks.pop().expect("two ranks");
    let mut s = ranks.pop().expect("two ranks");
    s.merge(echo);
    s
}

fn pinger(
    env: &RankEnv,
    mpi: &MpiModule,
    first: u64,
    t0: Instant,
    budget: Duration,
    (trace, every): (bool, u64),
) -> Session {
    let mut s = Session::default();
    let mut tr = Tracer::new(0);
    let reliable = mpi.raw().reliable();
    let mut counter = first;
    let check = |s: &mut Session, sent: u64, got: &[u64]| {
        s.attempted += 1;
        if got != [sent + 1] {
            s.fail(1, || format!("sent {sent}, echo returned {got:?}"));
        }
    };
    for _ in 0..WARMUP_ROUNDS {
        mpi.send::<u64>(1, PING, &[counter]);
        let (got, _, _) = mpi.recv::<u64>(Some(1), Some(PING));
        check(&mut s, counter, &got);
        counter += 1;
    }
    s.setup_s = t0.elapsed().as_secs_f64();
    let deadline = Instant::now() + budget;
    let mut n = 0u64;
    while Instant::now() < deadline {
        let traced = trace && n % every == 1;
        tr.begin_rep(n, traced);
        let before =
            traced.then(|| Counters::read(&env.runtime, Some(&env.transport), Some(reliable)));
        tr.open("rep");
        let r0 = Instant::now();
        tr.open("mpi.send");
        mpi.send::<u64>(1, PING, &[counter]);
        let send_ns = tr.close();
        tr.open("mpi.recv");
        let (got, _, _) = mpi.recv::<u64>(Some(1), Some(PING));
        let recv_ns = tr.close();
        let ms = r0.elapsed().as_secs_f64() * 1e3;
        tr.close();
        if let Some(before) = before {
            let after = Counters::read(&env.runtime, Some(&env.transport), Some(reliable));
            before.delta_into(&after, &mut s.acc);
            s.acc.push("mpi.send_us", send_ns as f64 / 1e3);
            s.acc.push("mpi.recv_us", recv_ns as f64 / 1e3);
            s.acc.add("reps", 1.0);
            s.acc.add("logical_msgs", 2.0);
        }
        s.record_rep(ms, traced);
        check(&mut s, counter, &got);
        counter += 1;
        n += 1;
    }
    mpi.send::<u64>(1, STOP, &[0]);
    s.spans = tr.into_spans();
    s
}

/// Echoes until told to stop. Round `k` after warmup is traced exactly when
/// the pinger traces its round `k`.
fn echoer(env: &RankEnv, mpi: &MpiModule, (trace, every): (bool, u64)) -> Session {
    let mut s = Session::default();
    let mut tr = Tracer::new(env.rank);
    for k in 0u64.. {
        let n = k.checked_sub(WARMUP_ROUNDS);
        let traced = trace && n.is_some_and(|n| n % every == 1);
        tr.begin_rep(n.unwrap_or(0), traced);
        let before = traced.then(|| Counters::read(&env.runtime, None, Some(mpi.raw().reliable())));
        tr.open("echo");
        tr.open("mpi.recv");
        let (got, _, tag) = mpi.recv::<u64>(Some(0), None);
        tr.close();
        if tag == STOP {
            tr.close();
            break;
        }
        let e0 = now_ns();
        tr.open("app.echo");
        let reply = match got[..] {
            [v] => v + 1,
            _ => {
                s.fail(1, || format!("echo received {} words, want 1", got.len()));
                0
            }
        };
        tr.close();
        tr.open("mpi.send");
        mpi.send::<u64>(0, PING, &[reply]);
        tr.close();
        let echo_ns = now_ns() - e0;
        tr.close();
        if let Some(before) = before {
            let after = Counters::read(&env.runtime, None, Some(mpi.raw().reliable()));
            before.delta_into(&after, &mut s.acc);
            s.acc.push("mpi.echo_us", echo_ns as f64 / 1e3);
        }
    }
    s.spans = tr.into_spans();
    s
}
