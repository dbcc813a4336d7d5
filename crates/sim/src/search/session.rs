//! The evaluation engine behind every search strategy.
//!
//! A [`DesignSearch`] binds a [`SearchSpace`] and a workload to a shared
//! [`ExperimentRunner`]; running a [`SearchStrategy`] opens a
//! [`SearchSession`] the strategy drives. The session owns candidate
//! evaluation: batches are deduplicated, materialized into
//! [`SimJob`](crate::SimJob)s and run through the runner's memoizing
//! pipeline — so a genotype revisited in a later generation is a
//! cell-cache hit, never a re-simulation — and every result feeds the
//! [`ParetoFrontier`].

use super::{
    EvaluatedDesign, GenerationRecord, Genotype, Objectives, ParetoFrontier, SearchOutcome,
    SearchSpace, SearchStrategy,
};
use crate::{DesignPoint, ExperimentRunner, SimError, SimJob, SimReport};
use rasa_workloads::LayerSpec;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A configured design-space search: space + workload + runner.
///
/// ```no_run
/// use rasa_sim::search::{DesignSearch, ExhaustiveGrid, SearchSpace};
/// use rasa_sim::ExperimentRunner;
/// use rasa_workloads::WorkloadSuite;
///
/// # fn main() -> Result<(), rasa_sim::SimError> {
/// let runner = ExperimentRunner::builder()
///     .with_matmul_cap(Some(256))
///     .build()?;
/// let layer = WorkloadSuite::mlperf().layer("DLRM-2").unwrap().clone();
/// let search = DesignSearch::new(&runner, SearchSpace::paper(), layer);
/// let outcome = search.run(&ExhaustiveGrid)?;
/// assert!(!outcome.frontier.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DesignSearch<'a> {
    runner: &'a ExperimentRunner,
    space: SearchSpace,
    workload: LayerSpec,
}

impl<'a> DesignSearch<'a> {
    /// Binds a space and a workload to a runner. The runner's kernel
    /// settings (matmul cap, streaming transport) apply to every
    /// evaluation, and its cell cache is shared with anything else the
    /// runner serves.
    #[must_use]
    pub fn new(runner: &'a ExperimentRunner, space: SearchSpace, workload: LayerSpec) -> Self {
        DesignSearch {
            runner,
            space,
            workload,
        }
    }

    /// The design space being searched.
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The workload every candidate is evaluated on.
    #[must_use]
    pub fn workload(&self) -> &LayerSpec {
        &self.workload
    }

    /// Runs a strategy to completion and returns the deterministic
    /// outcome. The paper baseline is always evaluated first as the
    /// normalization anchor (one extra cell, shared with any candidate
    /// that materializes to the same configuration).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for invalid strategy
    /// parameters (checked before any simulation is spent) and propagates
    /// simulation errors.
    pub fn run(&self, strategy: &dyn SearchStrategy) -> Result<SearchOutcome, SimError> {
        strategy.validate()?;
        let mut session = SearchSession::begin(self.runner, &self.space, &self.workload)?;
        strategy.run(&mut session)?;
        Ok(session.finish(strategy.name(), self.space.clone()))
    }
}

/// The mutable state a [`SearchStrategy`] drives: candidate evaluation,
/// the frontier, and the generation log.
#[derive(Debug)]
pub struct SearchSession<'a> {
    space: &'a SearchSpace,
    runner: &'a ExperimentRunner,
    workload: &'a LayerSpec,
    baseline: EvaluatedDesign,
    baseline_report: Arc<SimReport>,
    evaluated: HashMap<Genotype, EvaluatedDesign>,
    requested_evaluations: usize,
    frontier: ParetoFrontier,
    generations: Vec<GenerationRecord>,
}

impl<'a> SearchSession<'a> {
    /// Opens a session: simulates the paper-baseline anchor and prepares
    /// the empty frontier.
    fn begin(
        runner: &'a ExperimentRunner,
        space: &'a SearchSpace,
        workload: &'a LayerSpec,
    ) -> Result<Self, SimError> {
        let baseline_report =
            runner.run_job(&SimJob::new(DesignPoint::baseline(), workload.clone()))?;
        let baseline_genotype = Genotype {
            pe: rasa_systolic::PeVariant::Baseline,
            control: rasa_systolic::ControlScheme::Base,
            max_tk: rasa_systolic::SystolicConfig::paper_baseline().max_tk(),
            cols: rasa_systolic::SystolicConfig::paper_baseline().max_tn(),
            max_in_flight: rasa_systolic::SystolicConfig::paper_baseline().max_in_flight(),
            clock_ratio: rasa_systolic::SystolicConfig::paper_baseline().clock_ratio(),
            kernel: None,
        };
        let baseline = EvaluatedDesign {
            genotype: baseline_genotype,
            name: baseline_report.design.clone(),
            core_cycles: baseline_report.core_cycles,
            objectives: Objectives {
                normalized_runtime: 1.0,
                area_mm2: baseline_report.power.area.total(),
                energy_joules: baseline_report.power.energy.total(),
            },
        };
        Ok(SearchSession {
            space,
            runner,
            workload,
            baseline,
            baseline_report,
            evaluated: HashMap::new(),
            requested_evaluations: 0,
            frontier: ParetoFrontier::new(),
            generations: Vec::new(),
        })
    }

    /// The space being searched (for sampling and mutation).
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        self.space
    }

    /// The baseline anchor every candidate is normalized against.
    #[must_use]
    pub fn baseline(&self) -> &EvaluatedDesign {
        &self.baseline
    }

    /// The frontier accumulated so far.
    #[must_use]
    pub fn frontier(&self) -> &ParetoFrontier {
        &self.frontier
    }

    /// Genotype evaluations requested so far, revisits included.
    #[must_use]
    pub fn requested_evaluations(&self) -> usize {
        self.requested_evaluations
    }

    /// Distinct genotypes evaluated so far.
    #[must_use]
    pub fn distinct_evaluated(&self) -> usize {
        self.evaluated.len()
    }

    /// Evaluates a batch of genotypes and returns their results in input
    /// order.
    ///
    /// Duplicates *within* the batch are collapsed before submission (so
    /// each distinct genotype costs one runner lookup and one frontier
    /// insertion, and a batch larger than the runner's LRU bound never
    /// re-simulates a duplicate it evicted), while genotypes revisited
    /// *across* batches are looked up through the runner again —
    /// deliberately, so the memoizing cell cache (not a session-private
    /// shortcut) serves the repeat and its [`crate::CacheStats`] hit
    /// counters record the reuse.
    ///
    /// # Errors
    ///
    /// Propagates materialization and simulation errors.
    pub fn evaluate(&mut self, genotypes: &[Genotype]) -> Result<Vec<EvaluatedDesign>, SimError> {
        self.requested_evaluations += genotypes.len();
        let mut batch: Vec<Genotype> = Vec::new();
        for genotype in genotypes {
            if !batch.contains(genotype) {
                batch.push(*genotype);
            }
        }
        let jobs = batch
            .iter()
            .map(|genotype| {
                let mut job = SimJob::new(genotype.materialize()?, self.workload.clone());
                // Joint-space candidates carry an explicit kernel (under
                // the runner's cap, so joint and hardware-only cells stay
                // comparable); hardware-only candidates keep the runner's
                // default kernel and its legacy cache keys.
                if let Some(kernel) = genotype.kernel_config(self.runner.matmul_cap())? {
                    job = job.with_kernel(kernel);
                }
                Ok(job)
            })
            .collect::<Result<Vec<SimJob>, SimError>>()?;
        let reports = self.runner.run_jobs(&jobs)?;
        for (genotype, report) in batch.iter().zip(&reports) {
            let evaluation = self.evaluation(*genotype, report);
            self.frontier.insert(evaluation.clone());
            self.evaluated.insert(*genotype, evaluation);
        }
        Ok(genotypes
            .iter()
            .map(|genotype| self.evaluated[genotype].clone())
            .collect())
    }

    fn evaluation(&self, genotype: Genotype, report: &SimReport) -> EvaluatedDesign {
        EvaluatedDesign {
            genotype,
            name: report.design.clone(),
            core_cycles: report.core_cycles,
            objectives: Objectives {
                normalized_runtime: report.normalized_runtime_vs(&self.baseline_report),
                area_mm2: report.power.area.total(),
                energy_joules: report.power.energy.total(),
            },
        }
    }

    /// A scalar fitness for selection: the mean of the three objectives,
    /// each normalized to the baseline (smaller is better). Purely a
    /// tie-breaker between mutually non-dominating designs; dominance
    /// always wins first (see [`compare`](Self::compare)).
    #[must_use]
    pub fn fitness(&self, design: &EvaluatedDesign) -> f64 {
        let base = &self.baseline.objectives;
        (design.objectives.normalized_runtime
            + design.objectives.area_mm2 / base.area_mm2.max(f64::MIN_POSITIVE)
            + design.objectives.energy_joules / base.energy_joules.max(f64::MIN_POSITIVE))
            / 3.0
    }

    /// Deterministic selection order: dominance first, then scalar
    /// [`fitness`](Self::fitness), then name. `Ordering::Less` means `a`
    /// is the better design.
    #[must_use]
    pub fn compare(&self, a: &EvaluatedDesign, b: &EvaluatedDesign) -> Ordering {
        if a.objectives.dominates(&b.objectives) {
            Ordering::Less
        } else if b.objectives.dominates(&a.objectives) {
            Ordering::Greater
        } else {
            self.fitness(a)
                .total_cmp(&self.fitness(b))
                .then_with(|| a.name.cmp(&b.name))
        }
    }

    /// Closes one generation: records how many evaluations it requested
    /// and snapshots the frontier state.
    pub fn record_generation(&mut self, evaluations: usize) {
        self.generations.push(GenerationRecord {
            generation: self.generations.len(),
            evaluations,
            frontier_size: self.frontier.len(),
            best_normalized_runtime: self
                .frontier
                .fastest()
                .map_or(1.0, |best| best.objectives.normalized_runtime),
        });
    }

    fn finish(self, strategy: &'static str, space: SearchSpace) -> SearchOutcome {
        SearchOutcome {
            strategy: strategy.to_string(),
            workload: self.workload.name().to_string(),
            space,
            baseline: self.baseline,
            requested_evaluations: self.requested_evaluations,
            distinct_evaluated: self.evaluated.len(),
            generations: self.generations,
            frontier: self.frontier.members().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{Evolutionary, ExhaustiveGrid, RandomSampling};
    use rasa_systolic::{ControlScheme, PeVariant};
    use rasa_workloads::LayerSpec;

    fn tiny_layer() -> LayerSpec {
        LayerSpec::fc("TINY-FC", 32, 64, 64)
    }

    fn capped_runner() -> ExperimentRunner {
        ExperimentRunner::builder()
            .with_matmul_cap(Some(32))
            .build()
            .unwrap()
    }

    #[test]
    fn grid_search_covers_the_whole_space() {
        let runner = capped_runner();
        let space = SearchSpace::paper();
        let search = DesignSearch::new(&runner, space.clone(), tiny_layer());
        assert_eq!(search.space(), &space);
        assert_eq!(search.workload().name(), "TINY-FC");
        let outcome = search.run(&ExhaustiveGrid).unwrap();
        assert_eq!(outcome.distinct_evaluated, 14);
        assert_eq!(outcome.requested_evaluations, 14);
        assert_eq!(outcome.generations.len(), 1);
        assert!(!outcome.frontier.is_empty());
        // The baseline anchors normalization at exactly 1.
        assert_eq!(outcome.baseline.name, "BASELINE");
        assert!((outcome.baseline.objectives.normalized_runtime - 1.0).abs() < 1e-12);
        // Every frontier member is a space candidate and none dominates
        // another.
        for member in &outcome.frontier {
            assert!(space.candidates().contains(&member.genotype));
            for other in &outcome.frontier {
                assert!(!member.objectives.dominates(&other.objectives) || member == other);
            }
        }
    }

    #[test]
    fn random_and_evolutionary_runs_are_seed_deterministic() {
        let layer = tiny_layer();
        for strategy in [RandomSampling::new(6, 13), RandomSampling::new(6, 14)] {
            let a = DesignSearch::new(&capped_runner(), SearchSpace::explorer(), layer.clone())
                .run(&strategy)
                .unwrap();
            let b = DesignSearch::new(&capped_runner(), SearchSpace::explorer(), layer.clone())
                .run(&strategy)
                .unwrap();
            assert_eq!(a, b);
        }
        let strategy = Evolutionary::new(4, 2, 99);
        let a = DesignSearch::new(&capped_runner(), SearchSpace::explorer(), layer.clone())
            .run(&strategy)
            .unwrap();
        let b = DesignSearch::new(&capped_runner(), SearchSpace::explorer(), layer)
            .run(&strategy)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.generations.len(), 3, "init + 2 generations");
        assert_eq!(a.requested_evaluations, 4 * 3);
    }

    #[test]
    fn session_compare_prefers_dominating_designs() {
        let runner = capped_runner();
        let space = SearchSpace::builder()
            .with_pe_variants(vec![PeVariant::Baseline])
            .with_control_schemes(vec![ControlScheme::Base, ControlScheme::Pipe])
            .build()
            .unwrap();
        let layer = tiny_layer();
        let mut session = SearchSession::begin(&runner, &space, &layer).unwrap();
        let designs = session.evaluate(space.candidates()).unwrap();
        // Same geometry, same area; PIPE is strictly faster at equal or
        // lower energy, so it dominates BASE on this layer.
        let base = designs.iter().find(|d| d.name == "BASELINE").unwrap();
        let pipe = designs.iter().find(|d| d.name == "RASA-PIPE").unwrap();
        assert_eq!(session.compare(pipe, base), Ordering::Less);
        assert_eq!(session.compare(base, pipe), Ordering::Greater);
        assert_eq!(session.compare(base, base), Ordering::Equal);
        assert!(session.fitness(pipe) < session.fitness(base));
        assert_eq!(session.distinct_evaluated(), 2);
        assert_eq!(session.requested_evaluations(), 2);
        assert_eq!(session.baseline().name, "BASELINE");
        assert_eq!(session.space(), &space);
    }

    #[test]
    fn within_batch_duplicates_are_collapsed() {
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(32))
            .build()
            .unwrap();
        let space = SearchSpace::paper();
        let layer = tiny_layer();
        let mut session = SearchSession::begin(&runner, &space, &layer).unwrap();
        let genotype = space.candidates()[1];
        let results = session.evaluate(&[genotype, genotype, genotype]).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(session.requested_evaluations(), 3);
        assert_eq!(session.distinct_evaluated(), 1);
        // One cell for the baseline anchor, one for the candidate; the
        // in-batch duplicates never reached the runner.
        assert_eq!(runner.cache_stats().misses, 2);
    }
}
