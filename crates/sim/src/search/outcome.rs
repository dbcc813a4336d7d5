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
use crate::json::{json_document, JsonSink, ToJson};
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
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        let genotype = &self.genotype;
        sink.begin_object();
        sink.field("name", &self.name);
        sink.field("pe", genotype.pe.label());
        sink.field("control", genotype.control.label());
        sink.field("max_tk", &genotype.max_tk);
        sink.field("rows", &genotype.rows());
        sink.field("cols", &genotype.cols);
        sink.field("max_in_flight", &genotype.max_in_flight);
        // Joint-space designs carry their kernel axes; hardware-only
        // documents (including every pinned golden) stay byte-identical.
        if let Some(kernel) = genotype.kernel {
            sink.member("kernel");
            sink.begin_object();
            sink.field("block_m", &kernel.block.m);
            sink.field("block_n", &kernel.block.n);
            sink.field("matmul_order", kernel.matmul_order.label());
            sink.field("loop_order", kernel.loop_order.label());
            sink.field("unroll", &kernel.unroll);
            sink.end_object();
        }
        sink.field("core_cycles", &self.core_cycles);
        sink.field("normalized_runtime", &self.objectives.normalized_runtime);
        sink.field("area_mm2", &self.objectives.area_mm2);
        sink.field("energy_joules", &self.objectives.energy_joules);
        sink.end_object();
    }
}

/// Writes `labels` as an array of strings.
fn label_array<S: JsonSink, T: Copy>(sink: &mut S, labels: &[T], label: fn(T) -> &'static str) {
    sink.begin_array();
    for &item in labels {
        sink.str(label(item));
    }
    sink.end_array();
}

impl ToJson for SearchSpace {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.member("pe_variants");
        label_array(sink, self.pe_variants(), |pe| pe.label());
        sink.member("control_schemes");
        label_array(sink, self.control_schemes(), |scheme| scheme.label());
        sink.field("geometries", self.geometries());
        sink.field("in_flight_depths", self.in_flight_depths());
        sink.field("clock_ratio", &u64::from(self.clock_ratio()));
        // The kernel axes appear only for joint spaces, so hardware-only
        // search documents (and the pinned golden) keep their exact bytes.
        if let Some(axes) = self.kernel_axes() {
            sink.member("kernel_axes");
            sink.begin_object();
            let blocks: Vec<_> = axes.blocks.iter().map(|block| (block.m, block.n)).collect();
            sink.field("blocks", &blocks);
            sink.member("matmul_orders");
            label_array(sink, &axes.matmul_orders, |order| order.label());
            sink.member("loop_orders");
            label_array(sink, &axes.loop_orders, |order| order.label());
            sink.field("unroll", &axes.unroll);
            sink.field("combinations", &axes.combinations());
            sink.field("cost_pruned", &self.kernel_cost_pruned());
            sink.field("survivors", &self.kernel_candidates().len());
            sink.end_object();
        }
        sink.field("candidates", &self.len());
        sink.end_object();
    }
}

json_document!(GenerationRecord {
    "generation" => generation: usize,
    "evaluations" => evaluations: usize,
    "frontier_size" => frontier_size: usize,
    "best_normalized_runtime" => best_normalized_runtime: f64,
});

json_document!(SearchOutcome: encode {
    "strategy" => strategy,
    "workload" => workload,
    "space" => space,
    "baseline" => baseline,
    "requested_evaluations" => requested_evaluations,
    "distinct_evaluated" => distinct_evaluated,
    "generations" => generations,
    "frontier" => frontier,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
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
