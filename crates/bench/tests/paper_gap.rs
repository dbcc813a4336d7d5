//! Pins the reproduction's measured-vs-paper gap: the full-fidelity
//! evaluation must reproduce every value of `golden/paper_gap.json`
//! ([`rasa_bench::paper_gap`]) within `TOLERANCE`. A deliberate change is
//! re-blessed by copying the regenerated document the failure prints over
//! the golden file.

use rasa_sim::{ExperimentSuite, JsonValue};

/// How far any ratio or normalized runtime may move.
const TOLERANCE: f64 = 0.005;

const GOLDEN: &str = include_str!("../../../golden/paper_gap.json");

/// Appends to `drift` one line per member of `golden` that `measured` lacks
/// or moved past the tolerance, and per member `measured` adds.
fn compare(path: &str, golden: &JsonValue, measured: &JsonValue, drift: &mut Vec<String>) {
    match (golden, measured) {
        (JsonValue::Object(pinned), JsonValue::Object(now)) => {
            for (key, value) in pinned {
                match measured.get(key) {
                    Some(now) => compare(&format!("{path}/{key}"), value, now, drift),
                    None => drift.push(format!("{path}/{key}: gone")),
                }
            }
            for (key, _) in now {
                if golden.get(key).is_none() {
                    drift.push(format!("{path}/{key}: new"));
                }
            }
        }
        (JsonValue::Number(_), JsonValue::Number(_)) => {
            let (pinned, now) = (golden.as_f64().unwrap(), measured.as_f64().unwrap());
            if (pinned - now).abs() > TOLERANCE {
                drift.push(format!("{path}: {pinned} -> {now}"));
            }
        }
        _ if golden == measured => {}
        _ => drift.push(format!("{path}: {golden:?} -> {measured:?}")),
    }
}

#[test]
fn the_paper_gap_stays_where_it_is_pinned() {
    let suite = ExperimentSuite::builder()
        .with_matmul_cap(None)
        .build()
        .unwrap();
    let measured = rasa_bench::paper_gap(&suite).unwrap();
    let golden = JsonValue::parse(GOLDEN).unwrap();
    let mut drift = Vec::new();
    compare("", &golden, &measured, &mut drift);
    assert!(
        drift.is_empty(),
        "the paper gap moved by more than {TOLERANCE}:\n{}\n\nregenerated golden/paper_gap.json:\n{}",
        drift.join("\n"),
        measured.to_string_pretty()
    );
}
