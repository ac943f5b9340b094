//! End-to-end tracing: run a forasync workload plus an MPI ping-pong under
//! an enabled trace session, write the Chrome trace-event JSON, parse it
//! back, and verify the invariants a timeline viewer needs — B/E pairing
//! and monotone timestamps per (pid, tid) track, worker tracks under the
//! runtime process (rankless runtimes under pid 1, per-rank runtimes under
//! pid 10 + rank), and per-rank network tracks under the netsim process.

use std::collections::BTreeMap;
use std::sync::Arc;

use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::platform::json::Json;
use hiper::prelude::*;

#[test]
fn traced_run_produces_valid_chrome_json() {
    let path = std::env::temp_dir().join(format!("hiper_trace_it_{}.json", std::process::id()));
    let session = hiper::trace::TraceSession::start(&path);

    // Local task + forasync workload on a 2-worker runtime. The explicit
    // spawns pin the task-span count: forasync splits adaptively (it only
    // publishes tasks when a worker is idle), so its span count varies.
    let rt = Runtime::new(hiper::platform::autogen::smp(2));
    rt.block_on(|| {
        finish(|| {
            for _ in 0..64 {
                async_(|| {
                    std::hint::black_box(0);
                });
            }
            forasync_1d(10_000, 256, |i| {
                std::hint::black_box(i);
            });
        })
        .expect("no task panicked");
    });
    rt.shutdown();

    // MPI ping-pong across a 2-rank simulated cluster.
    SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                for round in 0..10u64 {
                    if env.rank == 0 {
                        mpi.send(1, 1, &[round]);
                        let _ = mpi.recv::<u64>(Some(1), Some(2));
                    } else {
                        let _ = mpi.recv::<u64>(Some(0), Some(1));
                        mpi.send(0, 2, &[round]);
                    }
                }
                mpi.barrier();
            },
        );

    let data = session.finish().expect("trace file written");
    assert!(!data.is_empty(), "traced run recorded no events");

    let text = std::fs::read_to_string(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 100, "suspiciously small trace");

    // Per-(pid, tid) track state: last ts, open B/E stack, lossiness.
    struct Track {
        last_ts: f64,
        stack: Vec<String>,
        lossy: bool,
    }
    let mut tracks: BTreeMap<(u64, u64), Track> = BTreeMap::new();
    let mut runtime_task_spans = 0u64;
    let mut net_sends = 0u64;
    let mut net_delivers = 0u64;
    let mut module_spans = 0u64;
    let mut sched_instants = 0u64;

    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(Json::as_str).expect("event name");
        let ph = ev.get("ph").and_then(Json::as_str).expect("event ph");
        let pid = ev.get("pid").and_then(Json::as_f64).expect("event pid") as u64;
        if ph == "M" {
            continue;
        }
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("event {} ({}) has no ts", i, name));
        let track = tracks.entry((pid, tid)).or_insert(Track {
            last_ts: f64::NEG_INFINITY,
            stack: Vec::new(),
            lossy: false,
        });
        assert!(
            ts >= track.last_ts,
            "event {} ({}) goes back in time on pid {} tid {}: {} < {}",
            i,
            name,
            pid,
            tid,
            ts,
            track.last_ts
        );
        track.last_ts = ts;
        if name == "dropped events" {
            track.lossy = true;
        }
        match ph {
            "B" => track.stack.push(name.to_string()),
            "E" => {
                let open = track.stack.pop();
                match open {
                    Some(open) => {
                        assert_eq!(
                            open, name,
                            "event {}: E closes a different B on pid {} tid {}",
                            i, pid, tid
                        );
                        if pid == 1 && name == "task" {
                            runtime_task_spans += 1;
                        }
                        // Module spans run on rank worker threads, which
                        // now export under per-rank pids (10 + rank).
                        if pid >= 10 && name.contains("mpi") {
                            module_spans += 1;
                        }
                    }
                    None => assert!(
                        track.lossy,
                        "event {}: E \"{}\" with no open B on pid {} tid {}",
                        i, name, pid, tid
                    ),
                }
            }
            "X" => {
                if pid == 2 {
                    net_sends += 1;
                }
            }
            "i" | "I" => {
                if pid == 2 && name == "deliver" {
                    net_delivers += 1;
                }
                if pid == 1 && (name == "pop" || name == "steal" || name == "injector") {
                    sched_instants += 1;
                }
            }
            other => panic!("event {}: unexpected ph {:?}", i, other),
        }
    }
    for ((pid, tid), track) in &tracks {
        assert!(
            track.stack.is_empty() || track.lossy,
            "pid {} tid {}: {} unclosed span(s)",
            pid,
            tid,
            track.stack.len()
        );
    }

    // The layers the issue demands all show up: per-worker task execution,
    // scheduler transitions, module spans, and per-rank network traffic.
    assert!(
        runtime_task_spans > 50,
        "task spans: {}",
        runtime_task_spans
    );
    assert!(sched_instants > 0, "no pop/steal/injector instants");
    assert!(module_spans > 0, "no mpi module spans");
    assert!(net_sends >= 20, "net sends: {}", net_sends);
    assert!(net_delivers >= 20, "net delivers: {}", net_delivers);
    let runtime_tracks = tracks.keys().filter(|(pid, _)| *pid == 1).count();
    let net_tracks = tracks.keys().filter(|(pid, _)| *pid == 2).count();
    let ranked_pids: std::collections::BTreeSet<u64> = tracks
        .keys()
        .filter(|(pid, _)| *pid >= 10)
        .map(|(pid, _)| *pid)
        .collect();
    assert!(runtime_tracks >= 2, "worker tracks: {}", runtime_tracks);
    assert_eq!(net_tracks, 2, "one netsim track per rank");
    assert_eq!(
        ranked_pids.len(),
        2,
        "one runtime process per rank: {:?}",
        ranked_pids
    );
}
