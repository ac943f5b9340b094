//! Spans recorded by the benchmark around its own calls into each layer,
//! the span file they are written to, and its validator.
//!
//! A span has a name (`<layer>.<call>`, or `rep`/`echo` for a rep's root),
//! a start, an end and a parent; all spans of one rep share a rep id. The
//! spans of one root form a sequential call tree on one thread, so a
//! span's self time (its duration minus what its children cover) summed
//! over the tree equals the root's wall time.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic, shared by
/// every thread, so timestamps from different workers compare).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const OPEN: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub rep: u64,
    pub rank: u32,
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: its name up to the first dot, with
    /// the benchmark's own code (rep roots and `isx.*` phases) as `app`.
    pub fn layer(&self) -> &str {
        match self.name.split('.').next().unwrap_or("") {
            "rep" | "echo" | "isx" => "app",
            layer => layer,
        }
    }
}

/// Records the spans of one thread (one rank's main task). Spans open and
/// close in LIFO order; only reps marked traced record anything.
#[derive(Debug)]
pub struct Tracer {
    rank: u32,
    rep: u64,
    on: bool,
    next: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(rank: usize) -> Tracer {
        Tracer {
            rank: rank as u32,
            rep: 0,
            on: false,
            next: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts rep `rep`; spans are recorded until the next call only when
    /// `traced` is set.
    pub fn begin_rep(&mut self, rep: u64, traced: bool) {
        debug_assert!(self.stack.is_empty(), "rep began inside an open span");
        self.rep = rep;
        self.on = traced;
    }

    pub fn traced(&self) -> bool {
        self.on
    }

    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let id = ((self.rank as u64) << 48) | self.next;
        self.next += 1;
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            rep: self.rep,
            rank: self.rank,
            id,
            parent,
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: OPEN,
        });
    }

    /// Closes the innermost open span and returns its duration in ns (0
    /// in an untraced rep).
    pub fn close(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let i = self.stack.pop().expect("close without a matching open");
        let span = &mut self.spans[i];
        span.end_ns = now_ns();
        span.end_ns - span.start_ns
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as text: `#` header lines, then one tab-separated
/// `rep rank id parent name start_ns end_ns` line per span (`-` for an end
/// that was never recorded).
pub fn write_file(
    path: &std::path::Path,
    header: &[String],
    spans: &[Span],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for line in header {
        writeln!(out, "# {line}")?;
    }
    for s in spans {
        let end = if s.end_ns == OPEN {
            "-".to_string()
        } else {
            s.end_ns.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.rep, s.rank, s.id, s.parent, s.name, s.start_ns, end
        )?;
    }
    out.flush()
}

/// Parses a span file written by [`write_file`].
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 {
            return Err(format!("line {}: {} fields, want 7", n + 1, f.len()));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("line {}: {e}", n + 1));
        spans.push(Span {
            rep: num(f[0])?,
            rank: num(f[1])? as u32,
            id: num(f[2])?,
            parent: num(f[3])?,
            name: f[4].to_string(),
            start_ns: num(f[5])?,
            end_ns: if f[6] == "-" { OPEN } else { num(f[6])? },
        });
    }
    Ok(spans)
}

/// What a valid span set contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub spans: usize,
    pub roots: usize,
    pub reps: usize,
}

/// Checks that every span closed, every parent exists in the same rep and
/// encloses its child, siblings do not overlap, and each root's self times
/// add up to its wall time.
pub fn validate(spans: &[Span]) -> Result<Summary, String> {
    let mut by_id: HashMap<u64, &Span> = HashMap::with_capacity(spans.len());
    for s in spans {
        if s.end_ns == OPEN {
            return Err(format!("span {} ({}) never closed", s.id, s.name));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut roots = Vec::new();
    for s in spans {
        if s.parent == 0 {
            roots.push(s);
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has missing parent {}", s.id, s.name, s.parent))?;
        if p.rep != s.rep {
            return Err(format!(
                "span {} is in rep {}, its parent in rep {}",
                s.id, s.rep, p.rep
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) is not enclosed by its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
        children.entry(s.parent).or_default().push(s);
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|s| s.start_ns);
        if let Some(w) = kids.windows(2).find(|w| w[1].start_ns < w[0].end_ns) {
            return Err(format!("sibling spans {} and {} overlap", w[0].id, w[1].id));
        }
    }
    let selfs = self_times(spans, &children);
    for r in &roots {
        let mut total = 0u64;
        let mut stack = vec![*r];
        while let Some(s) = stack.pop() {
            total += selfs[&s.id];
            stack.extend(children.get(&s.id).into_iter().flatten());
        }
        if total != r.dur_ns() {
            return Err(format!(
                "root {}: self times sum to {total} ns, wall is {} ns",
                r.id,
                r.dur_ns()
            ));
        }
    }
    let reps: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.rep).collect();
    Ok(Summary {
        spans: spans.len(),
        roots: roots.len(),
        reps: reps.len(),
    })
}

fn self_times(spans: &[Span], children: &HashMap<u64, Vec<&Span>>) -> HashMap<u64, u64> {
    spans
        .iter()
        .map(|s| {
            let covered: u64 = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|c| c.dur_ns())
                .sum();
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Each layer's share of the roots' wall time, by self time. Call only on
/// a validated span set.
pub fn self_fracs(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let selfs = self_times(spans, &children);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::dur_ns)
        .sum();
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer().to_string()).or_insert(0.0) += selfs[&s.id] as f64;
    }
    for v in out.values_mut() {
        *v = crate::stats::ratio(*v, wall as f64);
    }
    out
}
