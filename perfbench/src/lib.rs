//! The repository benchmark: four workloads that each load a different
//! layer of the HiPER stack, measured end to end untraced and per layer
//! from a traced run.
//!
//! Every workload runs in one process with 2 worker threads in total. The
//! benchmark measures each layer from outside: it times the calls its own
//! code makes into each layer's public functions and reads the public
//! counter snapshots (`Runtime::sched_stats`, `Runtime::module_stats`,
//! `Transport::net_stats`, `ReliableTransport::stats`) as deltas at rep
//! boundaries.

pub mod host;
pub mod spans;
pub mod stats;

mod churn;
mod isx;
mod pingpong;
mod taskgraph;

use std::collections::BTreeMap;
use std::time::Duration;

use hiper_netsim::{
    NetConfig, NetStatsSnapshot, ReliableStatsSnapshot, ReliableTransport, Transport,
};
use hiper_runtime::{Runtime, SchedStatsSnapshot};

use host::HostShape;
use spans::Span;
use stats::{percentile, ratio, Acc};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Taskgraph,
    Pingpong,
    Isx,
    LossyChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Taskgraph,
        Workload::Pingpong,
        Workload::Isx,
        Workload::LossyChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Taskgraph => "taskgraph",
            Workload::Pingpong => "pingpong",
            Workload::Isx => "isx",
            Workload::LossyChurn => "lossy_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// In a traced run, every `trace_every()`-th rep is traced and the rest
    /// are not, so tracing overhead is measured against interleaved reps.
    /// Pingpong's reps are single round trips, so it traces fewer of them
    /// to keep the span file small.
    pub fn trace_every(self) -> u64 {
        match self {
            Workload::Pingpong => 16,
            _ => 2,
        }
    }

    /// Operations one rep completes: stencil tasks, round trips, sorted keys
    /// or delivered messages.
    pub fn work_per_rep(self) -> f64 {
        match self {
            Workload::Taskgraph => taskgraph::TASKS as f64,
            Workload::Pingpong => 1.0,
            Workload::Isx => (isx::RANKS * isx::KEYS_PER_RANK) as f64,
            Workload::LossyChurn => (churn::RANKS * churn::WINDOW) as f64,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Every input, oracle and fault-plan seed derives from this.
    pub seed: u64,
    /// Measured time, split evenly over the sessions.
    pub seconds: f64,
    pub trace: bool,
    /// Each session sets the workload up anew and then measures.
    pub sessions: usize,
    /// Network model of the multi-rank workloads.
    pub net: NetConfig,
    /// Splitmix rounds per taskgraph task.
    pub grain_rounds: u32,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            // Rep times differ by up to a tenth between sessions (how the
            // workers happen to interleave), so a run pools many of them.
            sessions: 20,
            net: NetConfig::default(),
            grain_rounds: 20,
        }
    }
}

/// Stateless splitmix64 finalizer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent seed for input stream `stream` of the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_add(0x5eed)))
}

/// What one session of a workload produced.
#[derive(Debug, Default)]
pub struct Session {
    pub setup_s: f64,
    /// Untraced rep times.
    pub reps_ms: Vec<f64>,
    /// Traced rep times (only in a traced run).
    pub traced_reps_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    pub acc: Acc,
    pub spans: Vec<Span>,
}

impl Session {
    pub fn record_rep(&mut self, ms: f64, traced: bool) {
        if traced {
            self.traced_reps_ms.push(ms);
        } else {
            self.reps_ms.push(ms);
        }
    }

    /// Counts `n` failed operations (nothing when `n` is 0).
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    fn merge(&mut self, mut other: Session) {
        self.reps_ms.append(&mut other.reps_ms);
        self.traced_reps_ms.append(&mut other.traced_reps_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.append(&mut other.failures);
        self.acc.merge(other.acc);
        self.spans.append(&mut other.spans);
    }
}

/// The public counter snapshots of one rank, read at a rep boundary.
pub(crate) struct Counters {
    sched: SchedStatsSnapshot,
    /// Module name → (calls, nanoseconds).
    modules: BTreeMap<String, (u64, u64)>,
    /// Engine-wide, so read on one rank only.
    net: Option<NetStatsSnapshot>,
    reliable: Option<ReliableStatsSnapshot>,
}

impl Counters {
    pub(crate) fn read(
        rt: &Runtime,
        net: Option<&Transport>,
        reliable: Option<&ReliableTransport>,
    ) -> Counters {
        Counters {
            sched: rt.sched_stats(),
            modules: rt
                .module_stats()
                .snapshot()
                .into_iter()
                .map(|(name, calls, total)| (name, (calls, total.as_nanos() as u64)))
                .collect(),
            net: net.map(Transport::net_stats),
            reliable: reliable.map(|r| r.stats()),
        }
    }

    /// Adds the deltas from `self` to `later` into `acc`.
    pub(crate) fn delta_into(&self, later: &Counters, acc: &mut Acc) {
        let d = later.sched.diff(&self.sched);
        acc.add("tasks", d.tasks_executed as f64);
        acc.add("pops", d.pops as f64);
        // Injector drains count as steals, as in `steals_per_task`.
        acc.add("steals", (d.steals + d.injector_hits) as f64);
        acc.add("batch_steals", d.batch_steals as f64);
        acc.add("parks", d.parks as f64);
        acc.add("wakes_sent", d.wake_signals_sent as f64);
        acc.add("slab_hits", d.slab_hits as f64);
        acc.add("slab_misses", d.slab_misses as f64);
        for (module, calls, ns) in [
            ("mpi", "mpi_calls", "mpi_ns"),
            ("shmem", "shmem_calls", "shmem_ns"),
        ] {
            let get = |m: &BTreeMap<String, (u64, u64)>| m.get(module).copied().unwrap_or((0, 0));
            let ((c0, n0), (c1, n1)) = (get(&self.modules), get(&later.modules));
            acc.add(calls, c1.saturating_sub(c0) as f64);
            acc.add(ns, n1.saturating_sub(n0) as f64);
        }
        if let (Some(a), Some(b)) = (&self.net, &later.net) {
            acc.add("wire_msgs", b.messages.saturating_sub(a.messages) as f64);
            acc.add(
                "contention",
                b.shard_contention.saturating_sub(a.shard_contention) as f64,
            );
            acc.add("dropped", b.dropped.saturating_sub(a.dropped) as f64);
            acc.add(
                "duplicated",
                b.duplicated.saturating_sub(a.duplicated) as f64,
            );
        }
        if let (Some(a), Some(b)) = (&self.reliable, &later.reliable) {
            acc.add("retries", b.retries.saturating_sub(a.retries) as f64);
            acc.add(
                "coalesced",
                b.frames_coalesced.saturating_sub(a.frames_coalesced) as f64,
            );
            let acks = |r: &ReliableStatsSnapshot| r.acks_piggybacked + r.acks_flushed;
            acc.add("acks", acks(b).saturating_sub(acks(a)) as f64);
        }
    }
}

/// Runs `cfg.sessions` sessions of the workload and pools their reps.
pub fn run(cfg: &Config) -> Outcome {
    let sessions = cfg.sessions.max(1);
    let budget = Duration::from_secs_f64(cfg.seconds / sessions as f64);
    let mut setup_s = Vec::with_capacity(sessions);
    let mut session_p50_ms = Vec::with_capacity(sessions);
    let mut all = Session::default();
    for session in 0..sessions as u64 {
        let mut s = match cfg.workload {
            Workload::Taskgraph => taskgraph::session(cfg, budget),
            Workload::Pingpong => pingpong::session(cfg, budget),
            Workload::Isx => isx::session(cfg, budget),
            Workload::LossyChurn => churn::session(cfg, session, budget),
        };
        // Every session's tracers restart their span and rep numbering.
        for span in &mut s.spans {
            span.id |= session << 56;
            if span.parent != 0 {
                span.parent |= session << 56;
            }
            span.rep |= session << 40;
        }
        setup_s.push(s.setup_s);
        session_p50_ms.push(percentile(&s.reps_ms, 0.5));
        all.merge(s);
    }
    Outcome {
        cfg: cfg.clone(),
        host: HostShape::detect(),
        setup_s,
        session_p50_ms,
        run: all,
    }
}

/// A reported metric: name, unit, value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

/// End-to-end metrics, the same names on every workload. A rep is one
/// DAG (taskgraph), one round trip (pingpong), one sort (isx) or one
/// window (lossy_churn); work is tasks, round trips, keys or messages.
///
/// The rep time's p90 is not among them: on lossy_churn it falls where
/// windows that met a retransmit timeout begin (about one in seven), so it
/// does not repeat from run to run. It is reported per layer instead.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("rep_ms_p50", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics. A metric of a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("rep_ms_p90", "ms"),
    ("runtime.spawn_ns_p50", "ns"),
    ("runtime.ready_to_start_us_p50", "us"),
    ("runtime.ready_to_start_us_p90", "us"),
    ("runtime.busy_frac", "frac"),
    ("runtime.finish_tail_ms", "ms"),
    ("runtime.parks_per_ktask", "count/ktask"),
    ("runtime.wakes_sent_per_ktask", "count/ktask"),
    ("runtime.slab_hit_ratio", "ratio"),
    ("runtime.self_frac", "frac"),
    ("deque.pops", "count/rep"),
    ("deque.steals", "count/rep"),
    ("deque.batch_steals", "count/rep"),
    ("deque.steal_ratio", "ratio"),
    ("netsim.floor_gap_us", "us"),
    ("netsim.wire_msgs_per_msg", "ratio"),
    ("netsim.shard_contention_per_kmsg", "count/kmsg"),
    ("netsim.dropped", "count"),
    ("netsim.duplicated", "count"),
    ("netsim.reliable.retries_per_kmsg", "count/kmsg"),
    ("netsim.reliable.retries_per_drop", "ratio"),
    ("netsim.reliable.coalesced_frac", "frac"),
    ("netsim.reliable.acks_per_msg", "ratio"),
    ("mpi.send_us_p50", "us"),
    ("mpi.recv_us_p50", "us"),
    ("mpi.echo_us_p50", "us"),
    ("mpi.isend_ns_p50", "ns"),
    ("mpi.irecv_ns_p50", "ns"),
    ("mpi.window_wait_ms_p50", "ms"),
    ("mpi.module_us_per_call", "us"),
    ("mpi.self_frac", "frac"),
    ("shmem.alltoall64_us_p50", "us"),
    ("shmem.put_phase_ms_p50", "ms"),
    ("shmem.put_phase_over_floor", "ratio"),
    ("shmem.barrier_us_p50", "us"),
    ("shmem.module_us_per_call", "us"),
    ("shmem.self_frac", "frac"),
    ("app.task_us_p50", "us"),
    ("app.self_frac", "frac"),
    ("isx.keygen_ms_p50", "ms"),
    ("isx.bucketize_ms_p50", "ms"),
    ("isx.sort_ms_p50", "ms"),
    ("trace_overhead_pct", "%"),
    ("failed_frac", "frac"),
];

/// Everything one benchmark invocation measured.
#[derive(Debug)]
pub struct Outcome {
    pub cfg: Config,
    pub host: HostShape,
    pub setup_s: Vec<f64>,
    /// Median untraced rep time of each session.
    pub session_p50_ms: Vec<f64>,
    pub run: Session,
}

impl Outcome {
    pub fn failed_frac(&self) -> f64 {
        ratio(self.run.failed as f64, self.run.attempted as f64)
    }

    /// The median over sessions of each session's median untraced rep.
    /// Now and then a session runs at half speed from start to end (both
    /// busy threads landed on one core); this median moves by one rank
    /// for such a session, where a median of the pooled reps would move by
    /// all of its reps.
    pub fn rep_ms_p50(&self) -> f64 {
        percentile(&self.session_p50_ms, 0.5)
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let reps = &self.run.reps_ms;
        let p50 = self.rep_ms_p50();
        let values = [
            (percentile(&self.setup_s, 0.5), self.setup_s.len()),
            (p50, reps.len()),
            (
                ratio(self.cfg.workload.work_per_rep() * 1e3, p50),
                reps.len(),
            ),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, n))| Metric {
                name,
                unit,
                value,
                n,
            })
            .collect()
    }

    /// The workload's own name for an end-to-end metric, with the value in
    /// that name's unit (e.g. pingpong's `rep_ms_p50` is `rtt_us_p50`).
    pub fn alias(&self, m: &Metric) -> Option<(String, &'static str, f64)> {
        use Workload::*;
        let w = self.cfg.workload;
        match (m.name, w) {
            ("work_per_s", Taskgraph) => Some(("tasks_per_s".into(), "1/s", m.value)),
            ("work_per_s", Pingpong) => Some(("round_trips_per_s".into(), "1/s", m.value)),
            ("work_per_s", Isx) => Some(("keys_per_s".into(), "1/s", m.value)),
            ("work_per_s", LossyChurn) => Some(("msgs_per_s".into(), "1/s", m.value)),
            (name, Pingpong) if name.starts_with("rep_ms_") => {
                Some((name.replace("rep_ms_", "rtt_us_"), "us", m.value * 1e3))
            }
            _ => None,
        }
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        let acc = &self.run.acc;
        let s = |k: &str| acc.sum(k);
        let fracs = if self.run.spans.is_empty() {
            BTreeMap::new()
        } else {
            spans::self_fracs(&self.run.spans)
        };
        let frac = |layer: &str| fracs.get(layer).copied().unwrap_or(0.0);
        let msgs = s("logical_msgs");
        let untraced_p50 = self.rep_ms_p50();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = match name {
                    "rep_ms_p90" => (percentile(&self.run.reps_ms, 0.9), self.run.reps_ms.len()),
                    "runtime.busy_frac" => (ratio(s("busy_ns"), s("capacity_ns")), 0),
                    "runtime.parks_per_ktask" => (ratio(s("parks") * 1e3, s("tasks")), 0),
                    "runtime.wakes_sent_per_ktask" => (ratio(s("wakes_sent") * 1e3, s("tasks")), 0),
                    "runtime.slab_hit_ratio" => {
                        (ratio(s("slab_hits"), s("slab_hits") + s("slab_misses")), 0)
                    }
                    "runtime.self_frac" => (frac("runtime"), 0),
                    "deque.pops" => (ratio(s("pops"), s("reps")), 0),
                    "deque.steals" => (ratio(s("steals"), s("reps")), 0),
                    "deque.batch_steals" => (ratio(s("batch_steals"), s("reps")), 0),
                    "deque.steal_ratio" => (ratio(s("steals"), s("pops") + s("steals")), 0),
                    "netsim.floor_gap_us" if self.cfg.workload == Workload::Pingpong => {
                        let floor_us = 2.0 * self.cfg.net.latency.as_secs_f64() * 1e6;
                        (untraced_p50 * 1e3 - floor_us, self.run.reps_ms.len())
                    }
                    "netsim.floor_gap_us" => (0.0, 0),
                    "netsim.wire_msgs_per_msg" => (ratio(s("wire_msgs"), msgs), 0),
                    "netsim.shard_contention_per_kmsg" => {
                        (ratio(s("contention") * 1e3, s("wire_msgs")), 0)
                    }
                    "netsim.dropped" => (s("dropped"), 0),
                    "netsim.duplicated" => (s("duplicated"), 0),
                    "netsim.reliable.retries_per_kmsg" => (ratio(s("retries") * 1e3, msgs), 0),
                    "netsim.reliable.retries_per_drop" => (ratio(s("retries"), s("dropped")), 0),
                    "netsim.reliable.coalesced_frac" => (ratio(s("coalesced"), msgs), 0),
                    "netsim.reliable.acks_per_msg" => (ratio(s("acks"), msgs), 0),
                    "mpi.module_us_per_call" => (ratio(s("mpi_ns") / 1e3, s("mpi_calls")), 0),
                    "mpi.self_frac" => (frac("mpi"), 0),
                    "shmem.module_us_per_call" => (ratio(s("shmem_ns") / 1e3, s("shmem_calls")), 0),
                    "shmem.self_frac" => (frac("shmem"), 0),
                    "app.self_frac" => (frac("app"), 0),
                    "trace_overhead_pct" => {
                        let traced = percentile(&self.run.traced_reps_ms, 0.5);
                        let untraced = percentile(&self.run.reps_ms, 0.5);
                        (
                            (ratio(traced, untraced) - 1.0) * 100.0,
                            self.run.traced_reps_ms.len(),
                        )
                    }
                    "failed_frac" => (self.failed_frac(), 0),
                    "runtime.ready_to_start_us_p90" => {
                        let k = "runtime.ready_to_start_us_tail";
                        (acc.pct(k, 0.5), acc.count(k))
                    }
                    _ => {
                        // `<stem>_p50`, or a per-rep ratio sampled under its own name.
                        let stem = name.strip_suffix("_p50").unwrap_or(name);
                        (acc.pct(stem, 0.5), acc.count(stem))
                    }
                };
                Metric {
                    name,
                    unit,
                    value,
                    n,
                }
            })
            .collect()
    }

    /// The last line of the benchmark's output.
    pub fn result_json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.run.failed == 0 && self.run.attempted > 0,
            self.run.attempted.max(1),
            self.run.failed,
            body.join(", ")
        )
    }
}
