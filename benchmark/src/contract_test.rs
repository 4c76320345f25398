//! `BENCHMARK.json` against what the binary emits: every declared name is
//! well-formed, carries a unit, and comes out of a `--smoke` run with that
//! unit — and nothing undeclared does.

use std::time::Instant;

use tyxe_obs::json::{self, Json};

use crate::report::measure;
use crate::workloads::WORKLOADS;
use crate::Args;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`: {item:?}"))
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no `{key}` list"))
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// 1 to 16 of `[A-Za-z0-9_/%.-]`.
fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn declared_metrics(spec: &Json, key: &str) -> Vec<(String, String)> {
    list(spec, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let spec = spec();
    let mut names: Vec<String> = Vec::new();
    for w in list(&spec, "workloads") {
        names.push(field(w, "name").to_string());
        assert!(field(w, "why").len() <= 200 && !field(w, "why").contains('\n'));
    }
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in declared_metrics(&spec, key) {
            assert!(well_formed_unit(&unit), "{name}: unit `{unit}`");
            names.push(name);
        }
    }
    for name in &names {
        assert!(well_formed_name(name), "name `{name}`");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is declared twice");

    for m in list(&spec, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_num).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            field(m, "name")
        );
        assert!(["lower", "higher"].contains(&field(m, "better")));
    }
    assert!(
        declared_metrics(&spec, "end_to_end").contains(&("setup_s".to_string(), "s".to_string())),
        "setup_s [s] must be an end-to-end metric"
    );
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_num)
        .expect("run_seconds");
    assert_eq!(
        seconds,
        crate::run::RUN_SECONDS,
        "run_seconds and RUN_SECONDS disagree"
    );
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let spec = spec();
    let declared_workloads: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    // One thread runs all ten: the traced runs switch a process-global on.
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: crate::run::RUN_SECONDS,
                trace,
                smoke: true,
                out: String::new(),
            };
            let measured = measure(&args, Instant::now()).expect("smoke run");
            assert!(
                measured.correct,
                "{workload} trace {trace}: {:?}",
                measured.run.failures
            );
            let emitted: Vec<(String, String)> = measured
                .metrics
                .iter()
                .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
                .collect();
            assert_eq!(emitted, declared_metrics(&spec, key), "{workload} {key}");
            for (name, _, value) in &measured.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            if !trace {
                for (name, _, value) in &measured.metrics {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end metric {name} is {value}"
                    );
                }
            }
        }
    }
}
