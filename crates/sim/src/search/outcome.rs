//! The deterministic result document of a search run.
//!
//! A [`SearchOutcome`] contains only configuration-determined data — the
//! strategy, the space, the baseline anchor, per-generation progress and
//! the final frontier. Execution-dependent observations (wall-clock
//! times, and cache hit counters, which depend on what the runner already
//! held) are deliberately excluded, so the JSON
//! rendering is byte-identical across runs with the same seed: the
//! property the CI golden diff and the determinism proptest lock down.

use super::{EvaluatedDesign, SearchSpace};
use crate::json::{JsonValue, ToJson};
use std::fmt;

/// One generation's snapshot in a [`SearchOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationRecord {
    /// Generation index (0 = the initial draw / the only batch).
    pub generation: usize,
    /// Evaluations requested by this generation (revisits included).
    pub evaluations: usize,
    /// Frontier size after the generation.
    pub frontier_size: usize,
    /// Best (smallest) normalized runtime on the frontier so far.
    pub best_normalized_runtime: f64,
}

/// The complete, deterministic result of one strategy run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Strategy name (`grid`, `random`, `evolve`, or a custom strategy's).
    pub strategy: String,
    /// Workload the candidates were evaluated on.
    pub workload: String,
    /// The searched space.
    pub space: SearchSpace,
    /// The paper-baseline anchor (normalized runtime exactly 1).
    pub baseline: EvaluatedDesign,
    /// Evaluations requested across the run, revisits included.
    pub requested_evaluations: usize,
    /// Distinct genotypes evaluated.
    pub distinct_evaluated: usize,
    /// Per-generation progress, in order.
    pub generations: Vec<GenerationRecord>,
    /// The final non-dominated set, best normalized runtime first.
    pub frontier: Vec<EvaluatedDesign>,
}

impl SearchOutcome {
    /// The frontier member names, in frontier order.
    #[must_use]
    pub fn frontier_names(&self) -> Vec<&str> {
        self.frontier.iter().map(|m| m.name.as_str()).collect()
    }

    /// The frontier member with the best normalized runtime, if any.
    #[must_use]
    pub fn fastest(&self) -> Option<&EvaluatedDesign> {
        self.frontier.first()
    }
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "design-space search ({}) on {}: {} candidates, {} evaluations ({} distinct)",
            self.strategy,
            self.workload,
            self.space.len(),
            self.requested_evaluations,
            self.distinct_evaluated
        )?;
        writeln!(
            f,
            "baseline {}: {} cycles, {:.3} mm2, {:.3e} J",
            self.baseline.name,
            self.baseline.core_cycles,
            self.baseline.objectives.area_mm2,
            self.baseline.objectives.energy_joules
        )?;
        if self.generations.len() > 1 {
            writeln!(
                f,
                "{:>4} {:>11} {:>9} {:>10}",
                "gen", "evaluations", "frontier", "best norm"
            )?;
            for record in &self.generations {
                writeln!(
                    f,
                    "{:>4} {:>11} {:>9} {:>10.3}",
                    record.generation,
                    record.evaluations,
                    record.frontier_size,
                    record.best_normalized_runtime
                )?;
            }
        }
        writeln!(f, "pareto frontier ({} points):", self.frontier.len())?;
        writeln!(
            f,
            "{:>26} {:>12} {:>10} {:>10} {:>12}",
            "design", "cycles", "norm", "area mm2", "energy J"
        )?;
        for member in &self.frontier {
            writeln!(
                f,
                "{:>26} {:>12} {:>10.3} {:>10.3} {:>12.3e}",
                member.name,
                member.core_cycles,
                member.objectives.normalized_runtime,
                member.objectives.area_mm2,
                member.objectives.energy_joules
            )?;
        }
        Ok(())
    }
}

impl ToJson for EvaluatedDesign {
    fn to_json(&self) -> JsonValue {
        let mut members = vec![
            ("name".into(), JsonValue::string(&self.name)),
            ("pe".into(), JsonValue::string(self.genotype.pe.label())),
            (
                "control".into(),
                JsonValue::string(self.genotype.control.label()),
            ),
            (
                "max_tk".into(),
                JsonValue::number_from_usize(self.genotype.max_tk),
            ),
            (
                "rows".into(),
                JsonValue::number_from_usize(self.genotype.rows()),
            ),
            (
                "cols".into(),
                JsonValue::number_from_usize(self.genotype.cols),
            ),
            (
                "max_in_flight".into(),
                JsonValue::number_from_usize(self.genotype.max_in_flight),
            ),
        ];
        // Joint-space designs carry their kernel axes; hardware-only
        // documents (including every pinned golden) stay byte-identical.
        if let Some(kernel) = self.genotype.kernel {
            members.push((
                "kernel".into(),
                JsonValue::Object(vec![
                    (
                        "block_m".into(),
                        JsonValue::number_from_usize(kernel.block.m),
                    ),
                    (
                        "block_n".into(),
                        JsonValue::number_from_usize(kernel.block.n),
                    ),
                    (
                        "matmul_order".into(),
                        JsonValue::string(kernel.matmul_order.label()),
                    ),
                    (
                        "loop_order".into(),
                        JsonValue::string(kernel.loop_order.label()),
                    ),
                    ("unroll".into(), JsonValue::Bool(kernel.unroll)),
                ]),
            ));
        }
        members.extend([
            (
                "core_cycles".into(),
                JsonValue::number_from_u64(self.core_cycles),
            ),
            (
                "normalized_runtime".into(),
                JsonValue::number_from_f64(self.objectives.normalized_runtime),
            ),
            (
                "area_mm2".into(),
                JsonValue::number_from_f64(self.objectives.area_mm2),
            ),
            (
                "energy_joules".into(),
                JsonValue::number_from_f64(self.objectives.energy_joules),
            ),
        ]);
        JsonValue::Object(members)
    }
}

impl ToJson for SearchSpace {
    fn to_json(&self) -> JsonValue {
        let mut members = vec![
            (
                "pe_variants".into(),
                JsonValue::Array(
                    self.pe_variants()
                        .iter()
                        .map(|pe| JsonValue::string(pe.label()))
                        .collect(),
                ),
            ),
            (
                "control_schemes".into(),
                JsonValue::Array(
                    self.control_schemes()
                        .iter()
                        .map(|scheme| JsonValue::string(scheme.label()))
                        .collect(),
                ),
            ),
            (
                "geometries".into(),
                JsonValue::Array(
                    self.geometries()
                        .iter()
                        .map(|&(max_tk, cols)| {
                            JsonValue::Array(vec![
                                JsonValue::number_from_usize(max_tk),
                                JsonValue::number_from_usize(cols),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "in_flight_depths".into(),
                JsonValue::Array(
                    self.in_flight_depths()
                        .iter()
                        .map(|&depth| JsonValue::number_from_usize(depth))
                        .collect(),
                ),
            ),
            (
                "clock_ratio".into(),
                JsonValue::number_from_u64(u64::from(self.clock_ratio())),
            ),
        ];
        // The kernel axes appear only for joint spaces, so hardware-only
        // search documents (and the pinned golden) keep their exact bytes.
        if let Some(axes) = self.kernel_axes() {
            members.push((
                "kernel_axes".into(),
                JsonValue::Object(vec![
                    (
                        "blocks".into(),
                        JsonValue::Array(
                            axes.blocks
                                .iter()
                                .map(|block| {
                                    JsonValue::Array(vec![
                                        JsonValue::number_from_usize(block.m),
                                        JsonValue::number_from_usize(block.n),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "matmul_orders".into(),
                        JsonValue::Array(
                            axes.matmul_orders
                                .iter()
                                .map(|order| JsonValue::string(order.label()))
                                .collect(),
                        ),
                    ),
                    (
                        "loop_orders".into(),
                        JsonValue::Array(
                            axes.loop_orders
                                .iter()
                                .map(|order| JsonValue::string(order.label()))
                                .collect(),
                        ),
                    ),
                    (
                        "unroll".into(),
                        JsonValue::Array(axes.unroll.iter().map(|&u| JsonValue::Bool(u)).collect()),
                    ),
                    (
                        "combinations".into(),
                        JsonValue::number_from_usize(axes.combinations()),
                    ),
                    (
                        "cost_pruned".into(),
                        JsonValue::number_from_usize(self.kernel_cost_pruned()),
                    ),
                    (
                        "survivors".into(),
                        JsonValue::number_from_usize(self.kernel_candidates().len()),
                    ),
                ]),
            ));
        }
        members.push((
            "candidates".into(),
            JsonValue::number_from_usize(self.len()),
        ));
        JsonValue::Object(members)
    }
}

impl ToJson for GenerationRecord {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "generation".into(),
                JsonValue::number_from_usize(self.generation),
            ),
            (
                "evaluations".into(),
                JsonValue::number_from_usize(self.evaluations),
            ),
            (
                "frontier_size".into(),
                JsonValue::number_from_usize(self.frontier_size),
            ),
            (
                "best_normalized_runtime".into(),
                JsonValue::number_from_f64(self.best_normalized_runtime),
            ),
        ])
    }
}

impl ToJson for SearchOutcome {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("strategy".into(), JsonValue::string(&self.strategy)),
            ("workload".into(), JsonValue::string(&self.workload)),
            ("space".into(), self.space.to_json()),
            ("baseline".into(), self.baseline.to_json()),
            (
                "requested_evaluations".into(),
                JsonValue::number_from_usize(self.requested_evaluations),
            ),
            (
                "distinct_evaluated".into(),
                JsonValue::number_from_usize(self.distinct_evaluated),
            ),
            (
                "generations".into(),
                JsonValue::Array(self.generations.iter().map(ToJson::to_json).collect()),
            ),
            (
                "frontier".into(),
                JsonValue::Array(self.frontier.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{DesignSearch, ExhaustiveGrid};
    use crate::ExperimentRunner;
    use rasa_workloads::LayerSpec;

    fn grid_outcome() -> SearchOutcome {
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(32))
            .build()
            .unwrap();
        let layer = LayerSpec::fc("TINY-FC", 32, 64, 64);
        DesignSearch::new(&runner, SearchSpace::paper(), layer)
            .run(&ExhaustiveGrid)
            .unwrap()
    }

    #[test]
    fn json_document_round_trips_byte_identically() {
        let outcome = grid_outcome();
        let json = outcome.to_json();
        let text = json.to_string_pretty();
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed.to_string_pretty(), text);
        // Headline members are present and well-typed.
        assert_eq!(
            reparsed.get("strategy").and_then(JsonValue::as_str),
            Some("grid")
        );
        assert_eq!(
            reparsed
                .get("space")
                .and_then(|s| s.get("candidates"))
                .and_then(JsonValue::as_u64),
            Some(14)
        );
        let frontier = reparsed
            .get("frontier")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(frontier.len(), outcome.frontier.len());
        assert!(frontier[0].get("normalized_runtime").is_some());
    }

    #[test]
    fn kernel_members_appear_only_for_joint_documents() {
        // Hardware-only documents must not gain any kernel member — the
        // pinned golden/search.json depends on that — while joint documents
        // must describe both the axes and each design's chosen kernel.
        let hardware_only = grid_outcome().to_json().to_string_pretty();
        assert!(!hardware_only.contains("\"kernel\""));
        assert!(!hardware_only.contains("\"kernel_axes\""));

        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(32))
            .build()
            .unwrap();
        let layer = LayerSpec::fc("TINY-FC", 32, 64, 64);
        let space = SearchSpace::builder()
            .with_geometries(vec![(32, 16)])
            .with_in_flight_depths(vec![2])
            .with_kernel_axes()
            .build()
            .unwrap();
        let outcome = DesignSearch::new(&runner, space, layer)
            .run(&ExhaustiveGrid)
            .unwrap();
        let json = outcome.to_json();
        let axes = json
            .get("space")
            .and_then(|s| s.get("kernel_axes"))
            .unwrap();
        assert_eq!(
            axes.get("combinations").and_then(JsonValue::as_u64),
            Some(40)
        );
        assert_eq!(axes.get("survivors").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            axes.get("cost_pruned").and_then(JsonValue::as_u64),
            Some(38)
        );
        let frontier = json.get("frontier").and_then(JsonValue::as_array).unwrap();
        let first_kernel = frontier[0].get("kernel").unwrap();
        assert_eq!(
            first_kernel.get("loop_order").and_then(JsonValue::as_str),
            Some("k-innermost")
        );
        assert_eq!(first_kernel.get("unroll"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn display_summarizes_the_run() {
        let outcome = grid_outcome();
        let text = outcome.to_string();
        assert!(text.contains("design-space search (grid) on TINY-FC"));
        assert!(text.contains("pareto frontier"));
        assert!(text.contains("BASELINE"));
        assert!(outcome
            .frontier_names()
            .contains(&outcome.fastest().unwrap().name.as_str()));
    }
}
