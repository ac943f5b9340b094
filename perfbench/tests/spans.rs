//! The span file: what a traced run writes validates, and the validator
//! rejects each kind of malformed span set.

use hiper_perfbench::spans::{self, Span};
use hiper_perfbench::{run, Config, Workload};

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        rep: 1,
        rank: 0,
        id,
        parent,
        name: format!("layer.s{id}"),
        start_ns,
        end_ns,
    }
}

/// A root with two sequential children, the first with one child.
fn good() -> Vec<Span> {
    vec![
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 2, 15, 20),
        span(4, 1, 50, 90),
    ]
}

#[test]
fn traced_runs_write_valid_span_files() {
    for workload in [
        Workload::Taskgraph,
        Workload::Pingpong,
        Workload::Isx,
        Workload::LossyChurn,
    ] {
        let mut cfg = Config::new(workload, 7, 0.6, true);
        cfg.sessions = 2;
        let out = run(&cfg);
        assert_eq!(out.run.failed, 0, "{:?}: {:?}", workload, out.run.failures);
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("spans-{}.tsv", workload.name()));
        spans::write_file(&path, &["test".to_string()], &out.run.spans).unwrap();
        let back = spans::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, out.run.spans);
        let sum = spans::validate(&back).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            sum.reps > 0 && sum.roots >= sum.reps,
            "{}: {sum:?}",
            workload.name()
        );
        let total: f64 = spans::self_fracs(&back).values().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: self fractions sum to {total}",
            workload.name()
        );
    }
}

#[test]
fn validator_accepts_a_sequential_call_tree() {
    let sum = spans::validate(&good()).unwrap();
    assert_eq!((sum.spans, sum.roots, sum.reps), (4, 1, 1));
    let fracs = spans::self_fracs(&good());
    assert_eq!(fracs["layer"], 1.0);
}

/// Turns the valid span set into an invalid one.
type Breakage = fn(&mut [Span]);

#[test]
fn validator_rejects_malformed_span_sets() {
    let cases: [(&str, Breakage); 7] = [
        ("unclosed", |s| {
            s[3] = spans::parse("1\t0\t4\t1\tx\t50\t-").unwrap().remove(0)
        }),
        ("ends before start", |s| s[3].end_ns = 45),
        ("missing parent", |s| s[2].parent = 99),
        ("parent in another rep", |s| s[3].rep = 2),
        ("child outside parent", |s| s[3].end_ns = 101),
        ("overlapping siblings", |s| s[3].start_ns = 30),
        ("duplicate id", |s| s[3].id = 2),
    ];
    for (what, break_it) in cases {
        let mut s = good();
        break_it(&mut s);
        assert!(spans::validate(&s).is_err(), "{what} was accepted");
    }
}

#[test]
fn parse_rejects_short_lines() {
    assert!(spans::parse("1\t2\t3").is_err());
    assert!(spans::parse("# header only\n").unwrap().is_empty());
}
