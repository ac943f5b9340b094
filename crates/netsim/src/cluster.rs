//! SPMD cluster launcher: one HiPER runtime per simulated rank, one OS
//! thread driving each rank's `main`, all connected through a shared
//! [`DeliveryEngine`].

use std::sync::Arc;

use bytes::Bytes;
use hiper_platform::PlatformConfig;
use hiper_runtime::{Runtime, RuntimeBuilder, SchedulerModule};

use crate::engine::{DeliveryEngine, Handler, NetConfig};
use crate::message::{Channel, Message, Rank};

/// A rank's endpoint on the simulated interconnect. Cheap to clone.
#[derive(Clone)]
pub struct Transport {
    engine: Arc<DeliveryEngine>,
    rank: Rank,
}

impl Transport {
    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total ranks in the cluster.
    pub fn nranks(&self) -> usize {
        self.engine.ranks()
    }

    /// Sends an active message to `dst`. The causal parent span is taken
    /// from the calling thread's current traced task (0 when untraced).
    pub fn send(&self, dst: Rank, channel: Channel, tag: u64, payload: Bytes) {
        self.send_span(dst, channel, tag, payload, hiper_trace::current_task());
    }

    /// Sends an active message with an explicit causal parent span —
    /// reliable transports use this so retransmits carry the span captured
    /// at the *logical* send.
    pub fn send_span(&self, dst: Rank, channel: Channel, tag: u64, payload: Bytes, span: u64) {
        self.send_framed(dst, channel, tag, Bytes::new(), payload, span);
    }

    /// Sends a framed active message: `header` is a protocol prefix carried
    /// separately from `payload` so framing never copies the payload (the
    /// reliable layer's zero-copy DATA path). Both segments count toward
    /// the modeled wire size.
    pub fn send_framed(
        &self,
        dst: Rank,
        channel: Channel,
        tag: u64,
        header: Bytes,
        payload: Bytes,
        span: u64,
    ) {
        self.engine.send(Message {
            src: self.rank,
            dst,
            channel,
            tag,
            header,
            payload,
            span,
            due_ns: 0,
        });
    }

    /// Registers this rank's handler for `channel`. Handlers run on the
    /// delivery-engine thread and must be cheap; spawn onto the rank's
    /// runtime for anything heavier.
    pub fn register_handler(&self, channel: Channel, handler: Handler) {
        self.engine.register_handler(self.rank, channel, handler);
    }

    /// The network model in force.
    pub fn net_config(&self) -> NetConfig {
        self.engine.config()
    }

    /// Traffic counters for the whole cluster.
    pub fn net_stats(&self) -> crate::engine::NetStatsSnapshot {
        self.engine.stats.snapshot()
    }

    /// The shared delivery engine. Recovery drivers use this to sever and
    /// restore a rank (`set_rank_down`) and to subscribe to rank events.
    pub fn engine(&self) -> &Arc<DeliveryEngine> {
        &self.engine
    }
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Transport(rank {}/{})", self.rank, self.nranks())
    }
}

/// Everything a rank's `main` function gets.
pub struct RankEnv {
    /// This rank.
    pub rank: Rank,
    /// Total ranks.
    pub nranks: usize,
    /// The rank's HiPER runtime.
    pub runtime: Runtime,
    /// The rank's interconnect endpoint.
    pub transport: Transport,
}

/// A running simulated cluster (advanced use; most callers want
/// [`SpmdBuilder`]).
pub struct Cluster {
    engine: Arc<DeliveryEngine>,
}

impl Cluster {
    /// Starts the delivery engine for `nranks` ranks.
    pub fn start(nranks: usize, net: NetConfig) -> Cluster {
        Cluster {
            engine: DeliveryEngine::start(nranks, net),
        }
    }

    /// Starts the delivery engine with an armed fault plan.
    pub fn start_with_faults(
        nranks: usize,
        net: NetConfig,
        faults: Option<crate::FaultPlan>,
    ) -> Cluster {
        Cluster {
            engine: DeliveryEngine::start_with_faults(nranks, net, faults),
        }
    }

    /// Endpoint for `rank`.
    pub fn transport(&self, rank: Rank) -> Transport {
        assert!(rank < self.engine.ranks());
        Transport {
            engine: Arc::clone(&self.engine),
            rank,
        }
    }

    /// Stops the delivery engine and drops its handler table. Handler
    /// closures commonly capture the endpoint that registered them, which
    /// itself references the engine — clearing the table here breaks that
    /// cycle so a finished run's endpoints can actually drop.
    pub fn stop(&self) {
        self.engine.stop();
        self.engine.clear_handlers();
    }
}

/// Builder for SPMD runs: `N` ranks, each with its own runtime and modules,
/// each executing the same `main`.
pub struct SpmdBuilder {
    nranks: usize,
    net: NetConfig,
    faults: Option<crate::FaultPlan>,
    platform: Box<dyn Fn(Rank) -> PlatformConfig + Send + Sync>,
}

impl SpmdBuilder {
    /// An SPMD run over `nranks` ranks, 2 workers per rank by default.
    pub fn new(nranks: usize) -> SpmdBuilder {
        assert!(nranks > 0);
        SpmdBuilder {
            nranks,
            net: NetConfig::default(),
            faults: None,
            platform: Box::new(|_| hiper_platform::autogen::smp(2)),
        }
    }

    /// Sets the network model.
    pub fn net(mut self, net: NetConfig) -> SpmdBuilder {
        self.net = net;
        self
    }

    /// Arms a fault-injection plan for the run (chaos testing). Modules
    /// built on the transport switch to reliable acked delivery when the
    /// plan is active; an inactive plan changes nothing.
    pub fn faults(mut self, plan: crate::FaultPlan) -> SpmdBuilder {
        self.faults = Some(plan);
        self
    }

    /// Sets the number of workers in every rank's runtime (shorthand for
    /// [`platform`](Self::platform) with `autogen::smp(workers)`).
    pub fn workers_per_rank(mut self, workers: usize) -> SpmdBuilder {
        self.platform = Box::new(move |_| hiper_platform::autogen::smp(workers));
        self
    }

    /// Sets the per-rank platform model.
    pub fn platform(
        mut self,
        f: impl Fn(Rank) -> PlatformConfig + Send + Sync + 'static,
    ) -> SpmdBuilder {
        self.platform = Box::new(f);
        self
    }

    /// Launches the cluster.
    ///
    /// For every rank: `setup(rank, transport)` produces the modules to
    /// register plus arbitrary rank state `T` (typically the module handles
    /// the application will call); then `main(env, state)` runs as the
    /// rank's program on its runtime. Returns every rank's result, indexed
    /// by rank.
    pub fn run<T, R>(
        self,
        setup: impl Fn(Rank, Transport) -> (Vec<Arc<dyn SchedulerModule>>, T) + Send + Sync + 'static,
        main: impl Fn(RankEnv, T) -> R + Send + Sync + 'static,
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        let cluster = Cluster::start_with_faults(self.nranks, self.net, self.faults);
        let setup = Arc::new(setup);
        let main = Arc::new(main);
        let platform = Arc::new(self.platform);
        let nranks = self.nranks;
        // Finalize barrier (the upcxx::finalize / MPI_Finalize semantics):
        // no rank tears its runtime down until every rank's main has
        // returned, so late-arriving remote requests (e.g. UPC++ rpcs) can
        // still be serviced.
        let exit_gate = Arc::new((parking_lot::Mutex::new(0usize), parking_lot::Condvar::new()));

        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let transport = cluster.transport(rank);
                let setup = Arc::clone(&setup);
                let main = Arc::clone(&main);
                let platform = Arc::clone(&platform);
                let exit_gate = Arc::clone(&exit_gate);
                std::thread::Builder::new()
                    .name(format!("hiper-rank-{}", rank))
                    .spawn(move || {
                        // Tag the rank-main thread (and, transitively, the
                        // workers its runtime spawns) with the simulated
                        // rank so trace tracks can be attributed per rank.
                        hiper_trace::set_ambient_rank(rank);
                        let (modules, state) = setup(rank, transport.clone());
                        let mut builder = RuntimeBuilder::new(platform(rank));
                        for m in modules {
                            builder = builder.module(m);
                        }
                        let runtime = builder
                            .build()
                            .unwrap_or_else(|e| panic!("rank {}: {}", rank, e));
                        let env = RankEnv {
                            rank,
                            nranks,
                            runtime: runtime.clone(),
                            transport,
                        };
                        let rt = runtime.clone();
                        let result = rt.block_on(move || main(env, state));
                        {
                            let (count, cond) = &*exit_gate;
                            let mut done = count.lock();
                            *done += 1;
                            if *done == nranks {
                                cond.notify_all();
                            } else {
                                while *done < nranks {
                                    cond.wait(&mut done);
                                }
                            }
                        }
                        runtime.shutdown();
                        result
                    })
                    .expect("failed to spawn rank thread")
            })
            .collect();

        let results: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect();
        cluster.stop();
        results
    }

    /// Launches a module-free cluster: `main` gets only the [`RankEnv`].
    pub fn run_simple<R>(self, main: impl Fn(RankEnv) -> R + Send + Sync + 'static) -> Vec<R>
    where
        R: Send + 'static,
    {
        self.run(|_, _| (Vec::new(), ()), move |env, ()| main(env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiper_runtime::Promise;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn ranks_run_and_return_in_order() {
        let results = SpmdBuilder::new(4)
            .net(NetConfig::instant())
            .workers_per_rank(1)
            .run_simple(|env| env.rank * 10);
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ping_pong_roundtrip() {
        // Rank 0 sends to rank 1, rank 1 echoes back, rank 0 waits on a
        // future satisfied by the echo. Ranks register APP handlers in
        // setup.
        let results = SpmdBuilder::new(2).workers_per_rank(1).run(
            |_rank, transport| {
                // State: a promise slot the handler fills.
                let slot: Arc<parking_lot::Mutex<Option<Promise<u64>>>> =
                    Arc::new(parking_lot::Mutex::new(None));
                let slot2 = Arc::clone(&slot);
                let t2 = transport.clone();
                transport.register_handler(
                    Channel::APP,
                    Box::new(move |m| {
                        if m.tag < 100 {
                            // Echo with tag+100.
                            t2.send(m.src, Channel::APP, m.tag + 100, m.payload);
                        } else if let Some(p) = slot2.lock().take() {
                            p.put(m.tag);
                        }
                    }),
                );
                (Vec::new(), slot)
            },
            |env, slot| {
                if env.rank == 0 {
                    let p = Promise::new();
                    let f = p.future();
                    *slot.lock() = Some(p);
                    env.transport
                        .send(1, Channel::APP, 7, Bytes::from_static(b"ping"));
                    f.get()
                } else {
                    // Rank 1 just lingers long enough to echo.
                    std::thread::sleep(Duration::from_millis(50));
                    0
                }
            },
        );
        assert_eq!(results[0], 107);
    }

    #[test]
    fn all_ranks_share_one_engine() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let _ = SpmdBuilder::new(3)
            .net(NetConfig::instant())
            .workers_per_rank(1)
            .run(
                move |_rank, transport| {
                    let c = Arc::clone(&c);
                    transport.register_handler(
                        Channel::APP,
                        Box::new(move |_| {
                            c.fetch_add(1, Ordering::SeqCst);
                        }),
                    );
                    (Vec::new(), ())
                },
                |env, ()| {
                    // Everyone messages everyone (including self).
                    for dst in 0..env.nranks {
                        env.transport.send(dst, Channel::APP, 0, Bytes::new());
                    }
                    std::thread::sleep(Duration::from_millis(60));
                },
            );
        assert_eq!(counter.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn runtime_tasks_work_inside_rank_main() {
        let results = SpmdBuilder::new(2)
            .net(NetConfig::instant())
            .workers_per_rank(2)
            .run_simple(|env| {
                let rank = env.rank;
                hiper_runtime::api::finish(|| {
                    for _ in 0..10 {
                        hiper_runtime::api::async_(move || {
                            std::hint::black_box(rank);
                        });
                    }
                })
                .expect("no task panicked");
                let f = hiper_runtime::api::async_future(move || rank + 1);
                f.get()
            });
        assert_eq!(results, vec![1, 2]);
    }
}
