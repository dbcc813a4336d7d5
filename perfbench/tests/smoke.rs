//! Smoke-sized runs of every workload, the metric-name rules, and the
//! negative tests: a corrupted answer must count as an error.

use perfbench::tier::{self, CellRecord, Window};
use perfbench::{
    eval, run, valid_metric_name, Options, Outcome, Scale, Workload, E2E_METRICS, LAYER_METRICS,
};
use rasa_sim::serve::{GemmRequest, GemmServer, ServeConfig};
use rasa_sim::{JsonValue, ToJson, WireResponse};
use rasa_workloads::LayerSpec;
use std::time::Duration;

fn smoke(workload: Workload, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: 7,
        window: Duration::from_millis(900),
        trace,
        scale: Scale::smoke(),
    })
    .unwrap_or_else(|error| panic!("{} failed: {error}", workload.name()))
}

/// The metric names and units of a printed result line.
fn printed_metrics(outcome: &Outcome, names: &[(&str, &str)]) -> Vec<(String, String)> {
    let line = outcome.result_line(names).expect("every metric measured");
    let result = JsonValue::parse(&line).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{line}: failed {}, broken checks {:?}",
        outcome.failed,
        outcome.broken_checks
    );
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            assert!(metric.get("value").and_then(JsonValue::as_f64).is_some());
            let unit = metric
                .get("unit")
                .and_then(JsonValue::as_str)
                .expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn expected(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|(name, unit)| ((*name).to_string(), (*unit).to_string()))
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, false);
        assert!(outcome.attempted > 0, "{}", workload.name());
        assert_eq!(
            printed_metrics(&outcome, E2E_METRICS),
            expected(E2E_METRICS),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn every_traced_workload_prints_every_layer_metric() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, true);
        assert_eq!(
            printed_metrics(&outcome, LAYER_METRICS),
            expected(LAYER_METRICS),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn metric_names_and_units_follow_the_rules() {
    let all: Vec<&(&str, &str)> = E2E_METRICS.iter().chain(LAYER_METRICS).collect();
    for (name, unit) in &all {
        assert!(valid_metric_name(name), "bad metric name {name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
    let mut names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
    assert!(!valid_metric_name("_leading"));
    assert!(!valid_metric_name("has space"));
    assert!(valid_metric_name("router.hit_us"));
}

#[test]
fn the_registered_benchmark_lists_exactly_these_metrics() {
    let text = std::fs::read_to_string(perfbench::repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let document = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        document
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|metric| {
                let field = |f: &str| {
                    metric
                        .get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), expected(E2E_METRICS));
    assert_eq!(listed("per_layer"), expected(LAYER_METRICS));
    let workloads: Vec<String> = document
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn a_corrupted_tier_answer_counts_as_an_error() {
    let designs = tier::designs();
    let layer = LayerSpec::fc("DLRM-1", 512, 1024, 1024).with_batch(8);
    let server = GemmServer::new(ServeConfig::default(), &designs).unwrap();
    let answer = server
        .submit(GemmRequest::new(designs[0].clone(), layer.clone()))
        .unwrap()
        .wait()
        .unwrap();
    server.shutdown();
    let response = WireResponse {
        id: 1,
        shard: 0,
        batch_size: 1,
        report: (*answer.report).clone(),
    };
    let window = |response: WireResponse| {
        let mut window = Window::default();
        window.cells.insert(
            (0, layer.name().to_string()),
            CellRecord {
                design: 0,
                layer: layer.clone(),
                response,
                count: 5,
            },
        );
        window
    };
    let scale = Scale::smoke();
    assert_eq!(
        tier::verify(&window(response.clone()), &scale, 1).unwrap(),
        (0, 1)
    );

    let mut corrupted = response;
    corrupted.report.core_cycles += 1;
    assert!(!tier::answer_matches(
        &answer.report.summary().to_json().to_string_compact(),
        &corrupted
    ));
    let (wrong, verified) = tier::verify(&window(corrupted), &scale, 1).unwrap();
    assert_eq!(
        (wrong, verified),
        (5, 1),
        "every answer of the cell is wrong"
    );
}

#[test]
fn a_corrupted_evaluation_cell_breaks_the_digest() {
    let scale = Scale::smoke();
    let suite = eval::build_suite(&scale).unwrap();
    suite.fig5_runtime().unwrap();
    suite.fig7_batch().unwrap();
    suite.fig1_toy().unwrap();
    let expected = eval::expected_digest(&scale).unwrap();
    assert_eq!(eval::digest(&suite).unwrap(), expected);

    // The same cells with one simulated statistic changed.
    let mut cells = suite.runner().dump_cache_json();
    let JsonValue::Array(list) = &mut cells else {
        panic!("cache dump is an array");
    };
    let JsonValue::Object(members) = &mut list[0] else {
        panic!("a cell is an object");
    };
    let report = &mut members
        .iter_mut()
        .find(|(name, _)| name == "report")
        .unwrap()
        .1;
    let JsonValue::Object(fields) = report else {
        panic!("a report is an object");
    };
    let cycles = &mut fields
        .iter_mut()
        .find(|(name, _)| name == "core_cycles")
        .unwrap()
        .1;
    *cycles = JsonValue::number_from_u64(cycles.as_u64().unwrap() + 1);
    let corrupted = eval::build_suite(&scale).unwrap();
    corrupted.runner().warm_start_json(&cells).unwrap();
    let (count, digest) = eval::digest(&corrupted).unwrap();
    assert_eq!(count, expected.0);
    assert_ne!(
        digest, expected.1,
        "a changed statistic must change the digest"
    );
}
