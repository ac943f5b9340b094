//! `BENCHMARK.json` at the repository root declares the metrics and
//! workloads this benchmark prints; the two must not drift apart.

use hiper_perfbench::{Workload, END_TO_END, PER_LAYER};
use hiper_platform::json::Json;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_printed_ones() {
    let b = declared();
    assert_eq!(
        names_and_units(b.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(b.get("per_layer").unwrap()),
        owned(&PER_LAYER)
    );
}

#[test]
fn declared_workloads_all_run() {
    let b = declared();
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}
