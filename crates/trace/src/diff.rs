//! Differential profiling: aligns two same-workload traces (baseline vs
//! candidate) and attributes the wall-clock delta to concrete causes —
//! per-segment shifts on the critical path (compute / module / pop-wait /
//! steal-wait / wire / blocked-on-remote), per-module:op time-share moves,
//! per-worker utilization deltas, and spawn→begin queue-latency
//! distribution shifts (DESIGN.md §2.14).
//!
//! The unit of comparison is a [`DiffInput`]: a compact per-run profile
//! projected from a [`ProfileAnalysis`] by [`DiffInput::from_analysis`]
//! ([`DiffInput::from_trace`] builds the analysis of drained [`TraceData`]
//! or re-loaded Chrome JSON first), optionally refined with a
//! machine-readable metrics snapshot via [`DiffInput::apply_metrics`].
//! Profiles serialize to a few KB of JSON — cheap enough to commit next to
//! the perf-gate baseline — and two of them diff without re-reading the
//! source traces.
//!
//! Alignment is structural, not positional: task ids differ across runs,
//! so tasks are matched by a signature hashed from their spawn-tree path
//! (root ordinal, then each child's spawn ordinal under its parent),
//! modules by their interned `module:op` labels, and workers by role (a
//! rank's n-th busiest worker in each run). A diff of a trace against
//! itself is exactly zero everywhere — the self-test the roundtrip suite
//! pins.

use std::collections::BTreeMap;
use std::fmt;

use hiper_metrics::{HistogramSnapshot, MetricsSnapshot};
use hiper_platform::json::Json;

use crate::analysis::{ProfileAnalysis, SegmentKind, TaskRecord};
use crate::{fmt_ns, TraceData};

/// The runtime's spawn→begin latency histogram; when a metrics snapshot
/// carries it, [`DiffInput::apply_metrics`] prefers it over the
/// trace-derived histogram (metrics see every task, rings can wrap).
pub const QUEUE_LATENCY_METRIC: &str = "hiper_task_queue_latency_ns";

/// Critical-path segment kinds in report order.
pub const PATH_KINDS: [SegmentKind; 6] = [
    SegmentKind::Compute,
    SegmentKind::Module,
    SegmentKind::PopWait,
    SegmentKind::StealWait,
    SegmentKind::Wire,
    SegmentKind::BlockedOnRemote,
];

fn kind_index(kind: SegmentKind) -> usize {
    PATH_KINDS.iter().position(|&k| k == kind).unwrap_or(0)
}

/// Per-`module:op` aggregates for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleStat {
    /// Completed spans, counted at every nesting level.
    pub calls: u64,
    /// Total span time across all tracks (concurrent spans sum).
    pub total_ns: u64,
    /// Overlap of this module's spans with the critical path.
    pub path_ns: u64,
    /// Task owning the largest on-path slice (0 = none).
    pub path_task: u64,
    /// Rank of that slice (`None` for rankless traces).
    pub path_rank: Option<usize>,
}

/// One worker's busy aggregate. A diff pairs workers by rank and busy
/// order, not by label: thread names say nothing about a worker's role.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Simulated rank (`None` for rankless tracks).
    pub rank: Option<usize>,
    /// Thread label.
    pub label: String,
    /// Tasks that began here.
    pub tasks: u64,
    /// Time inside top-level task spans.
    pub busy_ns: u64,
}

/// Structural signature of a run's task DAG. Each task hashes its
/// spawn-tree path (parent signature + its spawn ordinal among siblings),
/// so two runs of the same workload produce the same signature multiset
/// even though raw task ids differ.
#[derive(Debug, Clone, Default)]
pub struct DagSignature {
    /// Tasks in the DAG.
    pub tasks: u64,
    /// Order-independent fold (xor) of all task signatures.
    pub digest: u64,
    /// Sorted per-task signatures. Empty when the profile was re-loaded
    /// from compact JSON (only the digest survives serialization).
    pub sigs: Vec<u64>,
}

/// A compact, diffable profile of one run.
#[derive(Debug, Clone, Default)]
pub struct DiffInput {
    /// Run label (bench name or trace file stem).
    pub label: String,
    /// First-to-last event timestamp.
    pub wall_ns: u64,
    /// Events analyzed.
    pub events: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Message delivers with no matching send.
    pub orphan_delivers: u64,
    /// Critical-path wall time (0 when no complete task).
    pub path_total_ns: u64,
    /// Path time per segment kind, indexed like [`PATH_KINDS`].
    pub path_kind_ns: [u64; 6],
    /// Path time per rank (distributed traces).
    pub per_rank_path_ns: Vec<(usize, u64)>,
    /// Rank holding the most path time.
    pub straggler_rank: Option<usize>,
    /// Per-`module:op` aggregates.
    pub modules: BTreeMap<String, ModuleStat>,
    /// Per-worker busy aggregates, sorted by `(rank, label)`.
    pub workers: Vec<WorkerStat>,
    /// Spawn→begin queue latency distribution.
    pub queue: HistogramSnapshot,
    /// Task-DAG structural signature.
    pub dag: DagSignature,
}

/// FNV-1a fold step, the signature hash.
fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn dag_signatures(tasks: &BTreeMap<u64, TaskRecord>) -> Vec<u64> {
    // The DAG holds the tasks whose spawn or begin was traced (a record
    // joined only from an end or acquisition event has no place in it).
    let traced = |r: &TaskRecord| r.spawn_ts != 0 || r.begin_ts != 0;
    // Children sorted by spawn time: the ordinal is the structural
    // position, stable across runs of a deterministic workload.
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut roots: Vec<(u64, u64)> = Vec::new();
    for (&id, rec) in tasks.iter().filter(|(_, r)| traced(r)) {
        let key = rec.spawn_ts.max(rec.begin_ts);
        if rec.parent != 0 && tasks.get(&rec.parent).is_some_and(traced) {
            children.entry(rec.parent).or_default().push((key, id));
        } else {
            roots.push((key, id));
        }
    }
    roots.sort_unstable();
    for list in children.values_mut() {
        list.sort_unstable();
    }
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let mut sigs: BTreeMap<u64, u64> = BTreeMap::new();
    // Worklist from the roots down; parent signatures are always resolved
    // before children because the spawn tree is acyclic (cycle-garbled
    // tasks simply never get a signature and fall out of the multiset).
    let mut work: Vec<u64> = Vec::with_capacity(tasks.len());
    for (ordinal, &(_, id)) in roots.iter().enumerate() {
        sigs.insert(id, fnv(SEED, ordinal as u64));
        work.push(id);
    }
    while let Some(id) = work.pop() {
        let parent_sig = sigs[&id];
        if let Some(kids) = children.get(&id) {
            for (ordinal, &(_, kid)) in kids.iter().enumerate() {
                if let std::collections::btree_map::Entry::Vacant(slot) = sigs.entry(kid) {
                    slot.insert(fnv(parent_sig, ordinal as u64));
                    work.push(kid);
                }
            }
        }
    }
    let mut out: Vec<u64> = sigs.into_values().collect();
    out.sort_unstable();
    out
}

impl DiffInput {
    /// Extracts a diffable profile from drained trace data.
    pub fn from_trace(label: &str, data: &TraceData) -> DiffInput {
        DiffInput::from_analysis(label, &ProfileAnalysis::build(data))
    }

    /// Projects an analysis into a diffable profile.
    pub fn from_analysis(label: &str, analysis: &ProfileAnalysis) -> DiffInput {
        let mut out = DiffInput {
            label: label.to_string(),
            wall_ns: analysis.wall_ns,
            events: analysis.events,
            dropped: analysis.dropped,
            orphan_delivers: analysis.orphan_delivers,
            queue: analysis.queue_latency.clone(),
            ..DiffInput::default()
        };
        for (key, m) in &analysis.modules {
            out.modules.insert(
                key.clone(),
                ModuleStat {
                    calls: m.calls,
                    total_ns: m.total_ns,
                    ..ModuleStat::default()
                },
            );
        }

        // Workers that ran tasks, keyed (rank, label); tracks sharing a key
        // (threads of successive runtimes in one process) sum.
        let mut workers: BTreeMap<(Option<usize>, &str), WorkerStat> = BTreeMap::new();
        for w in analysis
            .workers
            .iter()
            .filter(|w| w.tasks > 0 || w.busy_ns > 0)
        {
            let stat = workers
                .entry((w.rank, &w.label))
                .or_insert_with(|| WorkerStat {
                    rank: w.rank,
                    label: w.label.clone(),
                    ..WorkerStat::default()
                });
            stat.tasks += w.tasks;
            stat.busy_ns += w.busy_ns;
        }
        out.workers = workers.into_values().collect();

        // Critical path: kind totals plus labeled on-path module overlap.
        // Module-split slices tile the path (analysis invariant), so
        // overlapping *every* compute/module path slice against the owner
        // track's labeled top-level spans recovers exactly the path's
        // module time, now with names attached.
        if let Some(cp) = &analysis.critical_path {
            out.path_total_ns = cp.total_ns;
            out.per_rank_path_ns = cp.per_rank_ns.clone();
            out.straggler_rank = cp.straggler_rank;
            for seg in &cp.segments {
                out.path_kind_ns[kind_index(seg.kind)] += seg.dur_ns;
                if !matches!(seg.kind, SegmentKind::Compute | SegmentKind::Module) {
                    continue;
                }
                let Some(spans) = analysis
                    .tasks
                    .get(&seg.task)
                    .filter(|rec| rec.begin_ts != 0)
                    .and_then(|rec| analysis.module_spans.get(rec.track))
                else {
                    continue;
                };
                let (s, e) = (seg.start_ns, seg.start_ns + seg.dur_ns);
                for (is, ie, key) in spans {
                    let ov = (*ie).min(e).saturating_sub((*is).max(s));
                    if ov == 0 {
                        continue;
                    }
                    let stat = out.modules.entry(key.clone()).or_default();
                    stat.path_ns += ov;
                    if seg.task != 0 && stat.path_task == 0 {
                        stat.path_task = seg.task;
                        stat.path_rank = seg.rank;
                    }
                }
            }
        }

        let sigs = dag_signatures(&analysis.tasks);
        out.dag = DagSignature {
            tasks: sigs.len() as u64,
            digest: sigs.iter().fold(0u64, |acc, &s| acc ^ s),
            sigs,
        };
        out
    }

    /// True when this profile came from a lossy trace: the critical path
    /// and DAG alignment below it are PARTIAL.
    pub fn partial(&self) -> bool {
        self.dropped > 0 || self.orphan_delivers > 0
    }

    /// Refines the profile with a machine-readable metrics snapshot (a
    /// per-run *delta*, see [`hiper_metrics::MetricsSnapshot::delta_since`]):
    /// the runtime's queue-latency histogram replaces the trace-derived one
    /// when present, since metrics see every task while rings can wrap.
    pub fn apply_metrics(&mut self, snap: &MetricsSnapshot) {
        if let Some(h) = snap.merged_histogram(QUEUE_LATENCY_METRIC) {
            if h.count > 0 {
                self.queue = h;
            }
        }
    }

    /// Serializes the profile to JSON (the `*.profile.json` the perf gate
    /// stores next to its baseline). Per-task signatures do not survive —
    /// only the order-independent digest — keeping the file a few KB.
    pub fn to_json(&self) -> String {
        let mut doc = BTreeMap::new();
        doc.insert("hiper_profile".to_string(), Json::from("v1"));
        doc.insert("label".to_string(), Json::from(self.label.as_str()));
        let n = |v: u64| Json::Number(v as f64);
        doc.insert("wall_ns".to_string(), n(self.wall_ns));
        doc.insert("events".to_string(), n(self.events));
        doc.insert("dropped".to_string(), n(self.dropped));
        doc.insert("orphan_delivers".to_string(), n(self.orphan_delivers));
        doc.insert("path_total_ns".to_string(), n(self.path_total_ns));
        let mut kinds = BTreeMap::new();
        for (i, &k) in PATH_KINDS.iter().enumerate() {
            kinds.insert(k.name().to_string(), n(self.path_kind_ns[i]));
        }
        doc.insert("path_kind_ns".to_string(), Json::Object(kinds));
        doc.insert(
            "per_rank_path_ns".to_string(),
            Json::Array(
                self.per_rank_path_ns
                    .iter()
                    .map(|&(r, ns)| Json::Array(vec![n(r as u64), n(ns)]))
                    .collect(),
            ),
        );
        if let Some(r) = self.straggler_rank {
            doc.insert("straggler_rank".to_string(), n(r as u64));
        }
        let mut modules = BTreeMap::new();
        for (name, m) in &self.modules {
            let mut obj = BTreeMap::new();
            obj.insert("calls".to_string(), n(m.calls));
            obj.insert("total_ns".to_string(), n(m.total_ns));
            obj.insert("path_ns".to_string(), n(m.path_ns));
            obj.insert("path_task".to_string(), n(m.path_task));
            if let Some(r) = m.path_rank {
                obj.insert("path_rank".to_string(), n(r as u64));
            }
            modules.insert(name.clone(), Json::Object(obj));
        }
        doc.insert("modules".to_string(), Json::Object(modules));
        doc.insert(
            "workers".to_string(),
            Json::Array(
                self.workers
                    .iter()
                    .map(|w| {
                        let mut obj = BTreeMap::new();
                        if let Some(r) = w.rank {
                            obj.insert("rank".to_string(), n(r as u64));
                        }
                        obj.insert("label".to_string(), Json::from(w.label.as_str()));
                        obj.insert("tasks".to_string(), n(w.tasks));
                        obj.insert("busy_ns".to_string(), n(w.busy_ns));
                        Json::Object(obj)
                    })
                    .collect(),
            ),
        );
        let mut queue = BTreeMap::new();
        queue.insert("count".to_string(), n(self.queue.count));
        queue.insert("sum".to_string(), n(self.queue.sum));
        queue.insert("max".to_string(), n(self.queue.max));
        queue.insert(
            "buckets".to_string(),
            Json::Array(
                self.queue
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| Json::Array(vec![n(i as u64), n(c)]))
                    .collect(),
            ),
        );
        doc.insert("queue_latency_ns".to_string(), Json::Object(queue));
        let mut dag = BTreeMap::new();
        dag.insert("tasks".to_string(), n(self.dag.tasks));
        // The digest uses all 64 bits; hex text keeps it exact through the
        // f64-only JSON number type.
        dag.insert(
            "digest".to_string(),
            Json::from(format!("{:016x}", self.dag.digest)),
        );
        doc.insert("dag".to_string(), Json::Object(dag));
        let mut out = Json::Object(doc).pretty();
        out.push('\n');
        out
    }

    /// Parses a profile written by [`DiffInput::to_json`].
    pub fn parse_json(text: &str) -> Result<DiffInput, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("hiper_profile").and_then(Json::as_str).is_none() {
            return Err("not a hiper profile (missing hiper_profile marker)".into());
        }
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut out = DiffInput {
            label: doc
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            wall_ns: num(&doc, "wall_ns"),
            events: num(&doc, "events"),
            dropped: num(&doc, "dropped"),
            orphan_delivers: num(&doc, "orphan_delivers"),
            path_total_ns: num(&doc, "path_total_ns"),
            straggler_rank: doc
                .get("straggler_rank")
                .and_then(Json::as_f64)
                .map(|r| r as usize),
            ..DiffInput::default()
        };
        if let Some(kinds) = doc.get("path_kind_ns").and_then(Json::as_object) {
            for (i, &k) in PATH_KINDS.iter().enumerate() {
                out.path_kind_ns[i] =
                    kinds.get(k.name()).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            }
        }
        for pair in doc
            .get("per_rank_path_ns")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let pair = pair.as_array().unwrap_or(&[]);
            if let (Some(r), Some(ns)) = (
                pair.first().and_then(Json::as_f64),
                pair.get(1).and_then(Json::as_f64),
            ) {
                out.per_rank_path_ns.push((r as usize, ns as u64));
            }
        }
        if let Some(modules) = doc.get("modules").and_then(Json::as_object) {
            for (name, m) in modules {
                out.modules.insert(
                    name.clone(),
                    ModuleStat {
                        calls: num(m, "calls"),
                        total_ns: num(m, "total_ns"),
                        path_ns: num(m, "path_ns"),
                        path_task: num(m, "path_task"),
                        path_rank: m
                            .get("path_rank")
                            .and_then(Json::as_f64)
                            .map(|r| r as usize),
                    },
                );
            }
        }
        for w in doc.get("workers").and_then(Json::as_array).unwrap_or(&[]) {
            out.workers.push(WorkerStat {
                rank: w.get("rank").and_then(Json::as_f64).map(|r| r as usize),
                label: w
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                tasks: num(w, "tasks"),
                busy_ns: num(w, "busy_ns"),
            });
        }
        if let Some(q) = doc.get("queue_latency_ns") {
            out.queue.count = num(q, "count");
            out.queue.sum = num(q, "sum");
            out.queue.max = num(q, "max");
            for pair in q.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
                let pair = pair.as_array().unwrap_or(&[]);
                let i = pair.first().and_then(Json::as_f64).unwrap_or(0.0) as usize;
                let c = pair.get(1).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                if i < out.queue.buckets.len() {
                    out.queue.buckets[i] = c;
                }
            }
        }
        if let Some(dag) = doc.get("dag") {
            out.dag.tasks = num(dag, "tasks");
            out.dag.digest = dag
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The diff
// ---------------------------------------------------------------------

/// How well the two task DAGs align.
#[derive(Debug, Clone, Default)]
pub struct Alignment {
    /// Tasks in the baseline DAG.
    pub base_tasks: u64,
    /// Tasks in the candidate DAG.
    pub cand_tasks: u64,
    /// Structural signatures present in both multisets (0 when either
    /// side carries only a digest).
    pub matched: u64,
    /// Matched fraction of the larger DAG; with digest-only profiles this
    /// is 1.0 on digest+count equality, else 0.0.
    pub fraction: f64,
    /// Digests (and task counts) are identical.
    pub exact: bool,
}

fn align(base: &DagSignature, cand: &DagSignature) -> Alignment {
    let mut out = Alignment {
        base_tasks: base.tasks,
        cand_tasks: cand.tasks,
        exact: base.digest == cand.digest && base.tasks == cand.tasks,
        ..Alignment::default()
    };
    let denom = base.tasks.max(cand.tasks);
    if !base.sigs.is_empty() && !cand.sigs.is_empty() {
        // Both sorted: multiset intersection in one pass.
        let (mut i, mut j, mut matched) = (0usize, 0usize, 0u64);
        while i < base.sigs.len() && j < cand.sigs.len() {
            match base.sigs[i].cmp(&cand.sigs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    matched += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        out.matched = matched;
        out.fraction = if denom == 0 {
            1.0
        } else {
            matched as f64 / denom as f64
        };
    } else {
        out.fraction = if out.exact { 1.0 } else { 0.0 };
        out.matched = if out.exact { base.tasks } else { 0 };
    }
    out
}

/// One segment kind's before/after on the critical path.
#[derive(Debug, Clone)]
pub struct KindDelta {
    /// Segment kind label.
    pub name: &'static str,
    /// Baseline path ns.
    pub base_ns: u64,
    /// Candidate path ns.
    pub cand_ns: u64,
    /// Candidate minus baseline; positive = slower.
    pub delta_ns: i64,
}

/// One module's before/after.
#[derive(Debug, Clone)]
pub struct ModuleShift {
    /// `module` or `module:op`.
    pub name: String,
    /// Baseline aggregates (default when the module is new).
    pub base: ModuleStat,
    /// Candidate aggregates (default when the module vanished).
    pub cand: ModuleStat,
    /// Whole-trace span-time delta (candidate minus baseline).
    pub delta_total_ns: i64,
    /// On-critical-path overlap delta.
    pub delta_path_ns: i64,
    /// Share of baseline wall time.
    pub base_share: f64,
    /// Share of candidate wall time.
    pub cand_share: f64,
}

/// One worker role's utilization before/after: the rank's n-th busiest
/// worker in each run.
#[derive(Debug, Clone)]
pub struct WorkerShift {
    /// Simulated rank.
    pub rank: Option<usize>,
    /// Baseline thread label (empty when the candidate has more workers).
    pub base_label: String,
    /// Candidate thread label (empty when the baseline has more workers).
    pub cand_label: String,
    /// Baseline busy ns.
    pub base_busy_ns: u64,
    /// Candidate busy ns.
    pub cand_busy_ns: u64,
    /// Busy delta (candidate minus baseline).
    pub delta_ns: i64,
    /// Baseline busy / baseline wall.
    pub base_util: f64,
    /// Candidate busy / candidate wall.
    pub cand_util: f64,
}

/// Spawn→begin latency distribution shift.
#[derive(Debug, Clone, Default)]
pub struct QueueShift {
    /// Baseline distribution.
    pub base: HistogramSnapshot,
    /// Candidate distribution.
    pub cand: HistogramSnapshot,
    /// p50 shift in ns (candidate minus baseline).
    pub d_p50: i64,
    /// p90 shift in ns.
    pub d_p90: i64,
    /// p99 shift in ns.
    pub d_p99: i64,
    /// Mean shift in ns.
    pub d_mean: f64,
}

/// One ranked contributor to the wall-clock delta.
#[derive(Debug, Clone)]
pub struct Contributor {
    /// `critical-path`, `module`, or `queue`.
    pub category: &'static str,
    /// What moved (segment kind, `module:op`, or quantile).
    pub name: String,
    /// Baseline ns.
    pub base_ns: u64,
    /// Candidate ns.
    pub cand_ns: u64,
    /// Candidate minus baseline; positive = the candidate is slower here.
    pub delta_ns: i64,
    /// |delta| over |the run-level delta being attributed|.
    pub share: f64,
    /// Where on the timeline the shift sits.
    pub location: String,
}

/// Knobs for [`TraceDiff::build`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Ranked contributors to keep.
    pub top: usize,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions { top: 10 }
    }
}

/// The full differential profile of candidate vs baseline.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Baseline run label.
    pub base_label: String,
    /// Candidate run label.
    pub cand_label: String,
    /// Wall-clock delta (candidate minus baseline).
    pub wall_delta_ns: i64,
    /// Critical-path total delta.
    pub path_delta_ns: i64,
    /// Either side's trace was lossy — treat the attribution as PARTIAL.
    pub partial: bool,
    /// Task-DAG alignment quality.
    pub alignment: Alignment,
    /// Per-kind critical-path deltas, in [`PATH_KINDS`] order.
    pub path_kinds: Vec<KindDelta>,
    /// Per-module shifts, sorted by |total delta| descending.
    pub modules: Vec<ModuleShift>,
    /// Per-worker utilization shifts, sorted by |busy delta| descending.
    pub workers: Vec<WorkerShift>,
    /// Queue-latency distribution shift.
    pub queue: QueueShift,
    /// Straggler rank before/after.
    pub straggler: (Option<usize>, Option<usize>),
    /// Top contributors to the wall-clock delta, |delta| descending.
    pub ranked: Vec<Contributor>,
}

fn d(cand: u64, base: u64) -> i64 {
    cand as i64 - base as i64
}

impl TraceDiff {
    /// Diffs two profiles of the same workload.
    pub fn build(base: &DiffInput, cand: &DiffInput, opts: DiffOptions) -> TraceDiff {
        let mut out = TraceDiff {
            base_label: base.label.clone(),
            cand_label: cand.label.clone(),
            wall_delta_ns: d(cand.wall_ns, base.wall_ns),
            path_delta_ns: d(cand.path_total_ns, base.path_total_ns),
            partial: base.partial() || cand.partial(),
            alignment: align(&base.dag, &cand.dag),
            straggler: (base.straggler_rank, cand.straggler_rank),
            ..TraceDiff::default()
        };

        for (i, &k) in PATH_KINDS.iter().enumerate() {
            out.path_kinds.push(KindDelta {
                name: k.name(),
                base_ns: base.path_kind_ns[i],
                cand_ns: cand.path_kind_ns[i],
                delta_ns: d(cand.path_kind_ns[i], base.path_kind_ns[i]),
            });
        }

        let share_of = |ns: u64, wall: u64| {
            if wall == 0 {
                0.0
            } else {
                ns as f64 / wall as f64
            }
        };
        let names: std::collections::BTreeSet<&String> =
            base.modules.keys().chain(cand.modules.keys()).collect();
        for name in names {
            let b = base.modules.get(name).cloned().unwrap_or_default();
            let c = cand.modules.get(name).cloned().unwrap_or_default();
            out.modules.push(ModuleShift {
                name: name.clone(),
                delta_total_ns: d(c.total_ns, b.total_ns),
                delta_path_ns: d(c.path_ns, b.path_ns),
                base_share: share_of(b.total_ns, base.wall_ns),
                cand_share: share_of(c.total_ns, cand.wall_ns),
                base: b,
                cand: c,
            });
        }
        out.modules
            .sort_by_key(|m| std::cmp::Reverse(m.delta_total_ns.unsigned_abs()));

        // Workers pair by role, not thread name: within each rank the
        // busiest baseline worker meets the busiest candidate worker and so
        // on down, so work that moved between threads diffs to zero.
        let ranks: std::collections::BTreeSet<Option<usize>> = base
            .workers
            .iter()
            .chain(&cand.workers)
            .map(|w| w.rank)
            .collect();
        for rank in ranks {
            let by_busy = |list: &[WorkerStat]| {
                let mut v: Vec<WorkerStat> =
                    list.iter().filter(|w| w.rank == rank).cloned().collect();
                v.sort_by(|a, b| {
                    b.busy_ns
                        .cmp(&a.busy_ns)
                        .then_with(|| a.label.cmp(&b.label))
                });
                v
            };
            let (bs, cs) = (by_busy(&base.workers), by_busy(&cand.workers));
            for i in 0..bs.len().max(cs.len()) {
                let b = bs.get(i).cloned().unwrap_or_default();
                let c = cs.get(i).cloned().unwrap_or_default();
                out.workers.push(WorkerShift {
                    rank,
                    delta_ns: d(c.busy_ns, b.busy_ns),
                    base_util: share_of(b.busy_ns, base.wall_ns),
                    cand_util: share_of(c.busy_ns, cand.wall_ns),
                    base_busy_ns: b.busy_ns,
                    cand_busy_ns: c.busy_ns,
                    base_label: b.label,
                    cand_label: c.label,
                });
            }
        }
        out.workers
            .sort_by_key(|w| std::cmp::Reverse(w.delta_ns.unsigned_abs()));

        out.queue = QueueShift {
            d_p50: d(cand.queue.quantile(0.50), base.queue.quantile(0.50)),
            d_p90: d(cand.queue.quantile(0.90), base.queue.quantile(0.90)),
            d_p99: d(cand.queue.quantile(0.99), base.queue.quantile(0.99)),
            d_mean: cand.queue.mean() - base.queue.mean(),
            base: base.queue.clone(),
            cand: cand.queue.clone(),
        };

        // Ranked attribution. The denominator is the critical-path delta
        // when both runs have one (that is the number a regression moves),
        // else the raw wall delta. Module entries use whole-trace span
        // time — a slowed op shows up there even when the path walk
        // charges the stall to wire/blocked segments — and carry their
        // path location. The aggregate `module` path kind is left out of
        // the ranking (per-module entries subsume it); worker busy deltas
        // stay in their own table since they sum concurrent work and
        // would double-count against path segments.
        let denom = if base.path_total_ns > 0 && cand.path_total_ns > 0 {
            out.path_delta_ns.unsigned_abs()
        } else {
            out.wall_delta_ns.unsigned_abs()
        };
        let share = |delta: i64| {
            if denom == 0 {
                0.0
            } else {
                delta.unsigned_abs() as f64 / denom as f64
            }
        };
        let mut ranked: Vec<Contributor> = Vec::new();
        for kd in &out.path_kinds {
            if kd.delta_ns == 0 || kd.name == SegmentKind::Module.name() {
                continue;
            }
            ranked.push(Contributor {
                category: "critical-path",
                name: kd.name.to_string(),
                base_ns: kd.base_ns,
                cand_ns: kd.cand_ns,
                delta_ns: kd.delta_ns,
                share: share(kd.delta_ns),
                location: "critical path".to_string(),
            });
        }
        for m in &out.modules {
            if m.delta_total_ns == 0 {
                continue;
            }
            let location = if m.base.path_ns > 0 || m.cand.path_ns > 0 {
                let stat = if m.cand.path_ns > 0 { &m.cand } else { &m.base };
                match stat.path_rank {
                    Some(r) => format!("critical path (task {}, rank {})", stat.path_task, r),
                    None => format!("critical path (task {})", stat.path_task),
                }
            } else {
                "off-path".to_string()
            };
            ranked.push(Contributor {
                category: "module",
                name: m.name.clone(),
                base_ns: m.base.total_ns,
                cand_ns: m.cand.total_ns,
                delta_ns: m.delta_total_ns,
                share: share(m.delta_total_ns),
                location,
            });
        }
        if out.queue.base.count > 0 && out.queue.cand.count > 0 && out.queue.d_p90 != 0 {
            ranked.push(Contributor {
                category: "queue",
                name: "spawn->begin p90".to_string(),
                base_ns: out.queue.base.quantile(0.90),
                cand_ns: out.queue.cand.quantile(0.90),
                delta_ns: out.queue.d_p90,
                share: share(out.queue.d_p90),
                location: "scheduler queues".to_string(),
            });
        }
        ranked.sort_by(|a, b| {
            b.delta_ns
                .unsigned_abs()
                .cmp(&a.delta_ns.unsigned_abs())
                .then_with(|| a.name.cmp(&b.name))
        });
        ranked.truncate(opts.top);
        out.ranked = ranked;
        out
    }

    /// Renders the attribution report as markdown (`ATTRIBUTION_*.md`).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let pm = fmt_delta;
        s.push_str(&format!(
            "# Differential profile: `{}` -> `{}`\n\n",
            self.base_label, self.cand_label
        ));
        if self.partial {
            s.push_str(
                "> **PARTIAL**: at least one trace lost events (ring wraparound or \
                 orphan message delivers); attributions below are a lower bound.\n\n",
            );
        }
        s.push_str(&format!(
            "- wall-clock delta: {} | critical-path delta: {}\n",
            pm(self.wall_delta_ns),
            pm(self.path_delta_ns)
        ));
        s.push_str(&format!(
            "- DAG alignment: {}/{} vs {} tasks matched ({:.1}%{})\n",
            self.alignment.matched,
            self.alignment.base_tasks,
            self.alignment.cand_tasks,
            100.0 * self.alignment.fraction,
            if self.alignment.exact { ", exact" } else { "" }
        ));
        if self.straggler.0 != self.straggler.1 {
            s.push_str(&format!(
                "- straggler rank moved: {:?} -> {:?}\n",
                self.straggler.0, self.straggler.1
            ));
        }
        s.push('\n');

        s.push_str("## Top contributors\n\n");
        if self.ranked.is_empty() {
            s.push_str("No nonzero contributors — the runs are identical at this resolution.\n\n");
        } else {
            s.push_str(
                "| # | category | what | baseline | candidate | delta | share | location |\n",
            );
            s.push_str(
                "|---|----------|------|----------|-----------|-------|-------|----------|\n",
            );
            for (i, c) in self.ranked.iter().enumerate() {
                s.push_str(&format!(
                    "| {} | {} | `{}` | {} | {} | {} | {:.1}% | {} |\n",
                    i + 1,
                    c.category,
                    c.name,
                    fmt_ns(c.base_ns),
                    fmt_ns(c.cand_ns),
                    pm(c.delta_ns),
                    100.0 * c.share,
                    c.location
                ));
            }
            s.push('\n');
        }

        s.push_str("## Critical-path segments\n\n");
        s.push_str(
            "| kind | baseline | candidate | delta |\n|------|----------|-----------|-------|\n",
        );
        for k in &self.path_kinds {
            s.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                k.name,
                fmt_ns(k.base_ns),
                fmt_ns(k.cand_ns),
                pm(k.delta_ns)
            ));
        }
        s.push('\n');

        if !self.modules.is_empty() {
            s.push_str("## Module attribution (whole-trace span time, ranked)\n\n");
            s.push_str(
                "| module:op | calls | baseline | candidate | delta | on-path delta | share of wall |\n\
                 |-----------|-------|----------|-----------|-------|---------------|---------------|\n",
            );
            for m in &self.modules {
                s.push_str(&format!(
                    "| `{}` | {} -> {} | {} | {} | {} | {} | {:.1}% -> {:.1}% |\n",
                    m.name,
                    m.base.calls,
                    m.cand.calls,
                    fmt_ns(m.base.total_ns),
                    fmt_ns(m.cand.total_ns),
                    pm(m.delta_total_ns),
                    pm(m.delta_path_ns),
                    100.0 * m.base_share,
                    100.0 * m.cand_share
                ));
            }
            s.push('\n');
        }

        if !self.workers.is_empty() {
            s.push_str("## Worker utilization\n\n");
            s.push_str(
                "| rank | baseline worker | candidate worker | baseline busy | candidate busy | delta | util |\n\
                 |------|-----------------|------------------|---------------|----------------|-------|------|\n",
            );
            for w in &self.workers {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {:.1}% -> {:.1}% |\n",
                    w.rank.map_or("-".to_string(), |r| r.to_string()),
                    w.base_label,
                    w.cand_label,
                    fmt_ns(w.base_busy_ns),
                    fmt_ns(w.cand_busy_ns),
                    pm(w.delta_ns),
                    100.0 * w.base_util,
                    100.0 * w.cand_util
                ));
            }
            s.push('\n');
        }

        if self.queue.base.count > 0 || self.queue.cand.count > 0 {
            s.push_str("## Queue latency (spawn->begin)\n\n");
            s.push_str(
                "| | baseline | candidate | delta |\n|---|----------|-----------|-------|\n",
            );
            s.push_str(&format!(
                "| samples | {} | {} | {} |\n",
                self.queue.base.count,
                self.queue.cand.count,
                pm(d(self.queue.cand.count, self.queue.base.count))
            ));
            s.push_str(&format!(
                "| mean | {} | {} | {} |\n",
                fmt_ns(self.queue.base.mean() as u64),
                fmt_ns(self.queue.cand.mean() as u64),
                fmt_delta(self.queue.d_mean as i64)
            ));
            for (q, dq) in [
                (0.50, self.queue.d_p50),
                (0.90, self.queue.d_p90),
                (0.99, self.queue.d_p99),
            ] {
                s.push_str(&format!(
                    "| p{:.0} | {} | {} | {} |\n",
                    q * 100.0,
                    fmt_ns(self.queue.base.quantile(q)),
                    fmt_ns(self.queue.cand.quantile(q)),
                    pm(dq)
                ));
            }
            s.push('\n');
        }
        s
    }

    /// Renders the attribution as JSON (`ATTRIBUTION_*.json`).
    pub fn to_json(&self) -> String {
        let n = |v: u64| Json::Number(v as f64);
        let i = |v: i64| Json::Number(v as f64);
        let mut doc = BTreeMap::new();
        doc.insert("hiper_diff".to_string(), Json::from("v1"));
        doc.insert("base".to_string(), Json::from(self.base_label.as_str()));
        doc.insert(
            "candidate".to_string(),
            Json::from(self.cand_label.as_str()),
        );
        doc.insert("wall_delta_ns".to_string(), i(self.wall_delta_ns));
        doc.insert("path_delta_ns".to_string(), i(self.path_delta_ns));
        doc.insert("partial".to_string(), Json::Bool(self.partial));
        let mut alignment = BTreeMap::new();
        alignment.insert("base_tasks".to_string(), n(self.alignment.base_tasks));
        alignment.insert("cand_tasks".to_string(), n(self.alignment.cand_tasks));
        alignment.insert("matched".to_string(), n(self.alignment.matched));
        alignment.insert(
            "fraction".to_string(),
            Json::Number(self.alignment.fraction),
        );
        alignment.insert("exact".to_string(), Json::Bool(self.alignment.exact));
        doc.insert("alignment".to_string(), Json::Object(alignment));
        let mut kinds = BTreeMap::new();
        for k in &self.path_kinds {
            let mut obj = BTreeMap::new();
            obj.insert("base_ns".to_string(), n(k.base_ns));
            obj.insert("cand_ns".to_string(), n(k.cand_ns));
            obj.insert("delta_ns".to_string(), i(k.delta_ns));
            kinds.insert(k.name.to_string(), Json::Object(obj));
        }
        doc.insert("path_kinds".to_string(), Json::Object(kinds));
        doc.insert(
            "ranked".to_string(),
            Json::Array(
                self.ranked
                    .iter()
                    .map(|c| {
                        let mut obj = BTreeMap::new();
                        obj.insert("category".to_string(), Json::from(c.category));
                        obj.insert("name".to_string(), Json::from(c.name.as_str()));
                        obj.insert("base_ns".to_string(), n(c.base_ns));
                        obj.insert("cand_ns".to_string(), n(c.cand_ns));
                        obj.insert("delta_ns".to_string(), i(c.delta_ns));
                        obj.insert("share".to_string(), Json::Number(c.share));
                        obj.insert("location".to_string(), Json::from(c.location.as_str()));
                        Json::Object(obj)
                    })
                    .collect(),
            ),
        );
        doc.insert(
            "modules".to_string(),
            Json::Array(
                self.modules
                    .iter()
                    .map(|m| {
                        let mut obj = BTreeMap::new();
                        obj.insert("name".to_string(), Json::from(m.name.as_str()));
                        obj.insert("base_total_ns".to_string(), n(m.base.total_ns));
                        obj.insert("cand_total_ns".to_string(), n(m.cand.total_ns));
                        obj.insert("delta_total_ns".to_string(), i(m.delta_total_ns));
                        obj.insert("delta_path_ns".to_string(), i(m.delta_path_ns));
                        Json::Object(obj)
                    })
                    .collect(),
            ),
        );
        doc.insert(
            "workers".to_string(),
            Json::Array(
                self.workers
                    .iter()
                    .map(|w| {
                        let mut obj = BTreeMap::new();
                        if let Some(r) = w.rank {
                            obj.insert("rank".to_string(), n(r as u64));
                        }
                        obj.insert("base_label".to_string(), Json::from(w.base_label.as_str()));
                        obj.insert("cand_label".to_string(), Json::from(w.cand_label.as_str()));
                        obj.insert("base_busy_ns".to_string(), n(w.base_busy_ns));
                        obj.insert("cand_busy_ns".to_string(), n(w.cand_busy_ns));
                        obj.insert("delta_ns".to_string(), i(w.delta_ns));
                        Json::Object(obj)
                    })
                    .collect(),
            ),
        );
        let mut queue = BTreeMap::new();
        queue.insert("d_p50_ns".to_string(), i(self.queue.d_p50));
        queue.insert("d_p90_ns".to_string(), i(self.queue.d_p90));
        queue.insert("d_p99_ns".to_string(), i(self.queue.d_p99));
        queue.insert("d_mean_ns".to_string(), Json::Number(self.queue.d_mean));
        doc.insert("queue".to_string(), Json::Object(queue));
        let mut out = Json::Object(doc).pretty();
        out.push('\n');
        out
    }
}

fn fmt_delta(ns: i64) -> String {
    if ns < 0 {
        format!("-{}", fmt_ns(ns.unsigned_abs()))
    } else {
        format!("+{}", fmt_ns(ns.unsigned_abs()))
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{EventKind, TraceEvent};
    use crate::{TraceData, TrackData};

    fn e(ts: u64, kind: EventKind, a: u64, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            a,
            b,
            c,
        }
    }

    /// Two ranks ping-ponging with labeled module spans: rank 0's body
    /// task 1 spends [250, 950] in `mpi:recv`; rank 1's task 2 spends
    /// [420, 580] in `mpi:send`. Msg 10 flies 300->400, msg 11 600->700.
    /// `scale` stretches every module span's tail by that factor (the
    /// synthetic stand-in for a slowed module op).
    fn pingpong(scale: u64) -> TraceData {
        let m = crate::intern("mpi");
        let recv = crate::intern("recv");
        let send = crate::intern("send");
        let stretch = |base: u64, start: u64| start + (base - start) * scale;
        TraceData {
            tracks: vec![
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(50, EventKind::TaskSpawn, 1, 0, 0),
                        e(100, EventKind::TaskBegin, 1, 0, 0),
                        e(250, EventKind::ModuleEnter, m, recv, 0),
                        e(stretch(950, 250), EventKind::ModuleExit, m, recv, 0),
                        e(stretch(1000, 250), EventKind::TaskEnd, 1, 0, 0),
                    ],
                    dropped: 0,
                    rank: Some(0),
                },
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(120, EventKind::TaskSpawn, 2, 0, 0),
                        e(150, EventKind::TaskBegin, 2, 0, 0),
                        e(420, EventKind::ModuleEnter, m, send, 0),
                        e(580, EventKind::ModuleExit, m, send, 0),
                        e(820, EventKind::TaskEnd, 2, 0, 0),
                    ],
                    dropped: 0,
                    rank: Some(1),
                },
                TrackData {
                    label: "netsim-engine".into(),
                    events: vec![
                        e(300, EventKind::MsgSend, 1, 1, 10),
                        e(400, EventKind::MsgDeliver, 1, 1, 10),
                        e(600, EventKind::MsgSend, 2, 1 << 32, 11),
                        e(stretch(700, 600), EventKind::MsgDeliver, 2, 1 << 32, 11),
                    ],
                    dropped: 0,
                    rank: None,
                },
            ],
        }
    }

    #[test]
    fn self_diff_is_exactly_zero() {
        let input = DiffInput::from_trace("run", &pingpong(1));
        let diff = TraceDiff::build(&input, &input, DiffOptions::default());
        assert_eq!(diff.wall_delta_ns, 0);
        assert_eq!(diff.path_delta_ns, 0);
        assert!(
            diff.ranked.is_empty(),
            "no nonzero contributor: {:?}",
            diff.ranked
        );
        assert!(diff.path_kinds.iter().all(|k| k.delta_ns == 0));
        assert!(diff.modules.iter().all(|m| m.delta_total_ns == 0));
        assert!(diff.workers.iter().all(|w| w.delta_ns == 0));
        assert!(diff.alignment.exact);
        assert!((diff.alignment.fraction - 1.0).abs() < 1e-12);
        assert!(!diff.partial);
    }

    #[test]
    fn module_slowdown_is_attributed_to_the_module() {
        let base = DiffInput::from_trace("base", &pingpong(1));
        let cand = DiffInput::from_trace("cand", &pingpong(2));
        let diff = TraceDiff::build(&base, &cand, DiffOptions::default());
        assert!(diff.wall_delta_ns > 0, "stretched run is slower");
        let top_module = diff
            .ranked
            .iter()
            .find(|c| c.category == "module")
            .expect("module contributor present");
        assert_eq!(top_module.name, "mpi:recv", "ranked: {:?}", diff.ranked);
        assert!(top_module.delta_ns > 0);
        assert_eq!(diff.modules[0].name, "mpi:recv");
        assert!(
            top_module.location.contains("critical path"),
            "slowed module sits on the path: {}",
            top_module.location
        );
        // Alignment still matches: the DAG shape did not change.
        assert!(diff.alignment.exact);
    }

    #[test]
    fn on_path_module_time_matches_path_module_total() {
        let input = DiffInput::from_trace("run", &pingpong(1));
        let per_label: u64 = input.modules.values().map(|m| m.path_ns).sum();
        let kind_total = input.path_kind_ns[kind_index(SegmentKind::Module)];
        assert_eq!(
            per_label, kind_total,
            "labeled on-path module time tiles the path's module segments"
        );
        assert!(kind_total > 0, "the recv span sits on the path");
    }

    #[test]
    fn profile_json_roundtrip_diffs_to_zero() {
        let live = DiffInput::from_trace("run", &pingpong(1));
        let loaded = DiffInput::parse_json(&live.to_json()).expect("parse profile back");
        let diff = TraceDiff::build(&live, &loaded, DiffOptions::default());
        assert_eq!(diff.wall_delta_ns, 0);
        assert!(diff.ranked.is_empty(), "{:?}", diff.ranked);
        // The reloaded side carries only the digest; equality still holds.
        assert!(diff.alignment.exact);
        assert!((diff.alignment.fraction - 1.0).abs() < 1e-12);
        assert_eq!(loaded.dag.tasks, live.dag.tasks);
        assert_eq!(loaded.dag.digest, live.dag.digest);
        assert_eq!(loaded.queue.count, live.queue.count);
        assert_eq!(loaded.workers, live.workers);
    }

    #[test]
    fn metrics_snapshot_overrides_queue_histogram() {
        let mut input = DiffInput::from_trace("run", &pingpong(1));
        let trace_count = input.queue.count;
        assert!(trace_count > 0);
        let h = hiper_metrics::histogram("hiper_task_queue_latency_ns");
        h.record(1 << 14);
        h.record(1 << 14);
        h.record(1 << 14);
        let snap = hiper_metrics::snapshot();
        input.apply_metrics(&snap);
        assert!(
            input.queue.count >= 3,
            "metrics histogram replaced the trace-derived one"
        );
    }

    #[test]
    fn queue_latency_counts_a_spawn_traced_after_its_begin_track() {
        // Task 7 begins on track 0; its spawn sits on track 1, which the
        // walk reaches only after the begin.
        let data = TraceData {
            tracks: vec![
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(300, EventKind::TaskBegin, 7, 0, 0),
                        e(400, EventKind::TaskEnd, 7, 0, 0),
                    ],
                    dropped: 0,
                    rank: None,
                },
                TrackData {
                    label: "main".into(),
                    events: vec![e(100, EventKind::TaskSpawn, 7, 0, 0)],
                    dropped: 0,
                    rank: None,
                },
            ],
        };
        let input = DiffInput::from_trace("run", &data);
        assert_eq!(input.queue.count, 1);
        assert_eq!(input.queue.sum, 200);
    }

    #[test]
    fn workers_pair_by_busy_order_not_thread_name() {
        // The same work moved from worker-0 to worker-1 between the runs.
        let worker = |label: &str, tasks: u64, busy_ns: u64| WorkerStat {
            rank: Some(0),
            label: label.into(),
            tasks,
            busy_ns,
        };
        let base = DiffInput {
            wall_ns: 1_000,
            workers: vec![
                worker("hiper-worker-0", 90, 800),
                worker("hiper-worker-1", 10, 100),
            ],
            ..DiffInput::default()
        };
        let cand = DiffInput {
            wall_ns: 1_000,
            workers: vec![
                worker("hiper-worker-0", 10, 100),
                worker("hiper-worker-1", 90, 800),
            ],
            ..DiffInput::default()
        };
        let diff = TraceDiff::build(&base, &cand, DiffOptions::default());
        assert_eq!(diff.workers.len(), 2);
        assert!(
            diff.workers.iter().all(|w| w.delta_ns == 0),
            "{:?}",
            diff.workers
        );
        let busiest = diff
            .workers
            .iter()
            .find(|w| w.base_busy_ns == 800)
            .expect("busiest role present");
        assert_eq!(busiest.base_label, "hiper-worker-0");
        assert_eq!(busiest.cand_label, "hiper-worker-1");
        let md = diff.to_markdown();
        assert!(
            md.contains("| 0 | hiper-worker-0 | hiper-worker-1 |"),
            "{md}"
        );
    }

    #[test]
    fn dag_signatures_ignore_task_ids() {
        // Same shape, shifted ids and timestamps: signatures must match.
        let shape = |id0: u64, t0: u64| {
            let mut tasks = BTreeMap::new();
            tasks.insert(
                id0,
                TaskRecord {
                    parent: 0,
                    spawn_ts: t0,
                    begin_ts: t0 + 1,
                    ..TaskRecord::default()
                },
            );
            for k in 0..3u64 {
                tasks.insert(
                    id0 + 1 + k,
                    TaskRecord {
                        parent: id0,
                        spawn_ts: t0 + 10 + k,
                        begin_ts: t0 + 20 + k,
                        ..TaskRecord::default()
                    },
                );
            }
            dag_signatures(&tasks)
        };
        assert_eq!(shape(1, 100), shape(501, 9_000));
        // A different shape (one child moved under another) diverges.
        let mut tasks = BTreeMap::new();
        tasks.insert(
            1,
            TaskRecord {
                parent: 0,
                spawn_ts: 100,
                begin_ts: 101,
                ..TaskRecord::default()
            },
        );
        tasks.insert(
            2,
            TaskRecord {
                parent: 1,
                spawn_ts: 110,
                begin_ts: 120,
                ..TaskRecord::default()
            },
        );
        tasks.insert(
            3,
            TaskRecord {
                parent: 2,
                spawn_ts: 111,
                begin_ts: 121,
                ..TaskRecord::default()
            },
        );
        tasks.insert(
            4,
            TaskRecord {
                parent: 1,
                spawn_ts: 112,
                begin_ts: 122,
                ..TaskRecord::default()
            },
        );
        assert_ne!(shape(1, 100), dag_signatures(&tasks));
    }

    #[test]
    fn partial_traces_are_flagged() {
        let mut data = pingpong(1);
        data.tracks[2].events.remove(2); // lose the send of msg 11
        data.tracks[2].dropped = 1;
        let base = DiffInput::from_trace("base", &pingpong(1));
        let cand = DiffInput::from_trace("cand", &data);
        assert!(cand.partial());
        let diff = TraceDiff::build(&base, &cand, DiffOptions::default());
        assert!(diff.partial);
        assert!(diff.to_markdown().contains("PARTIAL"));
    }

    #[test]
    fn markdown_and_json_render() {
        let base = DiffInput::from_trace("base", &pingpong(1));
        let cand = DiffInput::from_trace("cand", &pingpong(3));
        let diff = TraceDiff::build(&base, &cand, DiffOptions { top: 5 });
        let md = diff.to_markdown();
        assert!(md.contains("Top contributors"));
        assert!(md.contains("mpi:recv"));
        assert!(md.contains("Critical-path segments"));
        let json = diff.to_json();
        let doc = Json::parse(&json).expect("valid json");
        assert_eq!(doc.get("hiper_diff").and_then(Json::as_str), Some("v1"));
        assert!(doc
            .get("ranked")
            .and_then(Json::as_array)
            .is_some_and(|r| !r.is_empty()));
        assert!(diff.ranked.len() <= 5);
    }
}
