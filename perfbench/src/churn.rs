//! `lossy_churn`: windows of 256 × 16-byte MPI `isend`/`irecv` each way
//! between 2 ranks × 1 worker, under a seeded fault plan that drops,
//! duplicates and reorders 0.2% of wire messages each. It is the only
//! workload on which the reliable layer runs (framing, coalescing, acks,
//! retransmit, hold-back). Every message carries a sequence number per
//! (source, tag), and the receiver checks exactly-once FIFO delivery.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hiper_mpi::{MpiModule, RecvStatus};
use hiper_netsim::{FaultPlan, RankEnv, SpmdBuilder};
use hiper_runtime::{Future, SchedulerModule};

use crate::spans::{now_ns, Tracer};
use crate::stats::percentile;
use crate::{derive, mix, Config, Counters, Session};

pub const RANKS: usize = 2;
pub const WINDOW: usize = 256;
const TAGS: u64 = 4;
const FAULT_P: f64 = 0.002;
const WARMUP_REPS: usize = 1;

/// Per-(source, tag) exactly-once FIFO check for one source: the k-th
/// message received on a tag must carry sequence number k. A duplicate
/// shows as a number already seen, a loss or reordering as one ahead.
#[derive(Debug, Clone)]
struct Fifo {
    next: Vec<u64>,
}

impl Fifo {
    fn new(tags: usize) -> Fifo {
        Fifo {
            next: vec![0; tags],
        }
    }

    /// Checks the next message received on `tag`; the expected number
    /// advances either way, so one bad message counts once.
    fn accept(&mut self, tag: u64, seq: u64) -> Result<(), String> {
        let want = self
            .next
            .get_mut(tag as usize)
            .ok_or_else(|| format!("unexpected tag {tag}"))?;
        let expect = *want;
        *want += 1;
        if seq == expect {
            Ok(())
        } else {
            Err(format!("tag {tag}: received seq {seq}, expected {expect}"))
        }
    }
}

/// The check word a message from `src` with `tag` and `seq` must carry.
fn check_word(seed: u64, src: usize, tag: u64, seq: u64) -> u64 {
    mix(seed ^ ((src as u64) << 56) ^ (tag << 48) ^ seq)
}

fn encode(seq: u64, check: u64) -> Bytes {
    let mut b = Vec::with_capacity(16);
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&check.to_le_bytes());
    Bytes::from(b)
}

/// Inputs of one rank: the tag of each message in a window it sends.
fn tags_of(seed: u64, src: usize) -> Vec<u64> {
    (0..WINDOW as u64)
        .map(|j| mix(seed ^ ((src as u64) << 32) ^ j) % TAGS)
        .collect()
}

struct Inputs {
    seed: u64,
    tags: [Vec<u64>; RANKS],
}

/// Each session draws its own fault pattern, so a run's pooled reps and
/// median set-up time do not hinge on where one pattern's drops fall.
pub fn session(cfg: &Config, index: u64, budget: Duration) -> Session {
    let t0 = Instant::now();
    let seed = derive(cfg.seed, 3);
    let inputs = Arc::new(Inputs {
        seed,
        tags: [tags_of(seed, 0), tags_of(seed, 1)],
    });
    let plan = FaultPlan::seeded(derive(derive(cfg.seed, 4), index))
        .drop_p(FAULT_P)
        .dup_p(FAULT_P)
        .reorder_p(FAULT_P);
    let (trace, every) = (cfg.trace, cfg.workload.trace_every());
    let mut ranks = SpmdBuilder::new(RANKS)
        .net(cfg.net)
        .faults(plan)
        .workers_per_rank(1)
        .run(
            |_, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            move |env, mpi| rank_main(&env, &mpi, &inputs, t0, budget, (trace, every)),
        );
    let other = ranks.pop().expect("two ranks");
    let mut s = ranks.pop().expect("two ranks");
    s.merge(other);
    s
}

/// Per-rank sequence state that persists across windows.
struct Streams {
    send_seq: Vec<u64>,
    fifo: Fifo,
}

/// Posts one window's receives and sends and waits for all of them.
/// Returns the receives, to be checked after the clock stops.
fn window(
    mpi: &MpiModule,
    me: usize,
    inp: &Inputs,
    st: &mut Streams,
    tr: &mut Tracer,
    s: &mut Session,
) -> Vec<Future<RecvStatus>> {
    let peer = 1 - me;
    let traced = tr.traced();
    let mut call_ns = Vec::with_capacity(if traced { WINDOW } else { 0 });

    tr.open("mpi.irecv_post");
    let recvs: Vec<_> = inp.tags[peer]
        .iter()
        .map(|&tag| {
            let c0 = if traced { now_ns() } else { 0 };
            let f = mpi.irecv_bytes(Some(peer), Some(tag));
            if traced {
                call_ns.push((now_ns() - c0) as f64);
            }
            f
        })
        .collect();
    tr.close();
    let irecv_p50 = percentile(&call_ns, 0.5);
    call_ns.clear();

    tr.open("mpi.isend_post");
    let sends: Vec<_> = inp.tags[me]
        .iter()
        .map(|&tag| {
            let seq = &mut st.send_seq[tag as usize];
            let payload = encode(*seq, check_word(inp.seed, me, tag, *seq));
            *seq += 1;
            let c0 = if traced { now_ns() } else { 0 };
            let f = mpi.isend_bytes(peer, tag, payload);
            if traced {
                call_ns.push((now_ns() - c0) as f64);
            }
            f
        })
        .collect();
    tr.close();

    tr.open("mpi.window_wait");
    for f in sends.iter() {
        f.wait();
    }
    for f in recvs.iter() {
        f.wait();
    }
    let wait_ns = tr.close();

    if traced {
        s.acc.push("mpi.irecv_ns", irecv_p50);
        s.acc.push("mpi.isend_ns", percentile(&call_ns, 0.5));
        s.acc.push("mpi.window_wait_ms", wait_ns as f64 / 1e6);
        s.acc.add("logical_msgs", WINDOW as f64);
    }
    recvs
}

/// One rep: a window. Returns the rep time in ms; every message is
/// checked after the clock stops.
fn rep(
    mpi: &MpiModule,
    me: usize,
    inp: &Inputs,
    st: &mut Streams,
    tr: &mut Tracer,
    s: &mut Session,
) -> f64 {
    tr.open("rep");
    let r0 = Instant::now();
    let recvs = window(mpi, me, inp, st, tr, s);
    let ms = r0.elapsed().as_secs_f64() * 1e3;
    tr.close();
    let peer = 1 - me;
    for (f, &tag) in recvs.iter().zip(&inp.tags[peer]) {
        s.attempted += 1;
        let verdict = match f.result() {
            Err(e) => Err(format!("receive failed: {e}")),
            Ok(m) if m.src != peer || m.tag != tag || m.data.len() != 16 => Err(format!(
                "received {} bytes from {} with tag {}, expected 16 from {peer} with tag {tag}",
                m.data.len(),
                m.src,
                m.tag
            )),
            Ok(msg) => {
                let word =
                    |i: usize| u64::from_le_bytes(msg.data[i..i + 8].try_into().expect("8 bytes"));
                let (seq, check) = (word(0), word(8));
                st.fifo.accept(tag, seq).and_then(|()| {
                    (check == check_word(inp.seed, peer, tag, seq))
                        .then_some(())
                        .ok_or_else(|| format!("tag {tag} seq {seq}: payload corrupted"))
                })
            }
        };
        if let Err(what) = verdict {
            s.fail(1, || format!("rank {me}: {what}"));
        }
    }
    ms
}

fn rank_main(
    env: &RankEnv,
    mpi: &MpiModule,
    inp: &Inputs,
    t0: Instant,
    budget: Duration,
    (trace, every): (bool, u64),
) -> Session {
    let mut s = Session::default();
    let mut tr = Tracer::new(env.rank);
    let mut st = Streams {
        send_seq: vec![0; TAGS as usize],
        fifo: Fifo::new(TAGS as usize),
    };
    let reliable = mpi.raw().reliable();
    let engine = (env.rank == 0).then_some(&env.transport);
    for _ in 0..WARMUP_REPS {
        rep(mpi, env.rank, inp, &mut st, &mut tr, &mut s);
    }
    s.setup_s = t0.elapsed().as_secs_f64();
    let deadline = Instant::now() + budget;
    for n in 0u64.. {
        // Rank 0 decides for both whether another window fits the budget.
        let go = u64::from(env.rank == 0 && Instant::now() < deadline);
        if mpi.bcast::<u64>(0, &[go]) != [1] {
            break;
        }
        let traced = trace && n % every == 1;
        tr.begin_rep(n, traced);
        let before = traced.then(|| Counters::read(&env.runtime, engine, Some(reliable)));
        let ms = rep(mpi, env.rank, inp, &mut st, &mut tr, &mut s);
        if let Some(before) = before {
            before.delta_into(
                &Counters::read(&env.runtime, engine, Some(reliable)),
                &mut s.acc,
            );
            if env.rank == 0 {
                s.acc.add("reps", 1.0);
            }
        }
        if env.rank == 0 {
            s.record_rep(ms, traced);
        }
    }
    if let Err(e) = mpi.raw().health() {
        s.fail(1, || format!("rank {}: {e}", env.rank));
    }
    s.spans = tr.into_spans();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_flags_duplicates_losses_and_reordering_once_each() {
        let mut f = Fifo::new(2);
        assert!(f.accept(0, 0).is_ok());
        assert!(f.accept(1, 0).is_ok());
        assert!(f.accept(0, 0).is_err(), "duplicate");
        // After the duplicate consumed slot 1, seq 1 arrives late.
        assert!(f.accept(0, 1).is_err(), "late");
        assert!(f.accept(1, 2).is_err(), "lost seq 1");
        assert!(f.accept(5, 0).is_err(), "unknown tag");
    }

    #[test]
    fn check_words_differ_by_source_tag_and_seq() {
        let w = check_word(7, 0, 1, 2);
        assert_ne!(w, check_word(7, 1, 1, 2));
        assert_ne!(w, check_word(7, 0, 2, 2));
        assert_ne!(w, check_word(7, 0, 1, 3));
    }
}
