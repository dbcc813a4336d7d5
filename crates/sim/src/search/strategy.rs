//! Pluggable search strategies.
//!
//! A [`SearchStrategy`] drives a [`SearchSession`]: it decides *which*
//! genotypes to evaluate and in what order, while the session owns the
//! evaluation pipeline and the frontier. Three strategies ship built in —
//! [`ExhaustiveGrid`], seeded [`RandomSampling`] and a seeded
//! [`Evolutionary`] loop (per-axis mutation plus tournament selection).
//! All three are deterministic: for a fixed strategy configuration and
//! workload, repeated runs request the identical evaluation sequence and
//! therefore produce the identical outcome.

use super::{EvaluatedDesign, SearchSession};
use crate::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A design-space exploration policy over a [`SearchSession`].
pub trait SearchStrategy: std::fmt::Debug {
    /// Stable strategy name (used in logs, JSON documents and the CLI).
    fn name(&self) -> &'static str;

    /// Checks the strategy parameters without running anything.
    /// [`DesignSearch::run`](super::DesignSearch::run) calls this before
    /// the baseline anchor is simulated, so misconfigured runs fail before
    /// any simulation work is spent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for unusable parameters.
    fn validate(&self) -> Result<(), SimError> {
        Ok(())
    }

    /// Runs the strategy to completion on a session.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    fn run(&self, session: &mut SearchSession<'_>) -> Result<(), SimError>;
}

/// Evaluates every valid candidate of the space, in enumeration order, as
/// one batch — the ground truth the sampling strategies are
/// judged against (tractable thanks to the runner's memoizing cache and
/// the capped steady-state simulation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveGrid;

impl SearchStrategy for ExhaustiveGrid {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn run(&self, session: &mut SearchSession<'_>) -> Result<(), SimError> {
        let all = session.space().candidates().to_vec();
        session.evaluate(&all)?;
        session.record_generation(all.len());
        Ok(())
    }
}

/// Seeded uniform sampling: `samples` independent draws from the
/// candidate list, evaluated as one batch (duplicates collapse
/// in-batch, so the distinct count may be lower).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSampling {
    /// Number of draws.
    pub samples: usize,
    /// RNG seed; equal seeds reproduce the draw sequence exactly.
    pub seed: u64,
}

impl RandomSampling {
    /// A sampler drawing `samples` candidates under `seed`.
    #[must_use]
    pub const fn new(samples: usize, seed: u64) -> Self {
        RandomSampling { samples, seed }
    }
}

impl SearchStrategy for RandomSampling {
    fn name(&self) -> &'static str {
        "random"
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.samples == 0 {
            return Err(SimError::InvalidExperiment {
                reason: "random sampling needs at least one sample".to_string(),
            });
        }
        Ok(())
    }

    fn run(&self, session: &mut SearchSession<'_>) -> Result<(), SimError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let draws: Vec<_> = (0..self.samples)
            .map(|_| session.space().sample(&mut rng))
            .collect();
        session.evaluate(&draws)?;
        session.record_generation(draws.len());
        Ok(())
    }
}

/// A seeded evolutionary/hill-climbing loop.
///
/// Generation 0 is `population` uniform draws; each later generation
/// breeds `population` children by tournament selection (dominance first,
/// scalar fitness as the tie-break — see [`SearchSession::compare`])
/// followed by per-axis mutation with validity repair
/// ([`super::SearchSpace::mutate`]). Children are evaluated as one
/// batch per generation; revisited genotypes are answered by the
/// runner's cell cache rather than re-simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evolutionary {
    /// Individuals per generation.
    pub population: usize,
    /// Breeding generations after the initial draw.
    pub generations: usize,
    /// RNG seed; equal seeds reproduce selection and mutation exactly.
    pub seed: u64,
    /// Per-axis mutation probability (0..=1).
    pub mutation_rate: f64,
    /// Individuals drawn per tournament (at least 1).
    pub tournament: usize,
}

impl Evolutionary {
    /// Default per-axis mutation probability.
    pub const DEFAULT_MUTATION_RATE: f64 = 0.35;
    /// Default tournament size (binary tournament).
    pub const DEFAULT_TOURNAMENT: usize = 2;

    /// An evolutionary search with the default mutation rate and
    /// tournament size.
    #[must_use]
    pub const fn new(population: usize, generations: usize, seed: u64) -> Self {
        Evolutionary {
            population,
            generations,
            seed,
            mutation_rate: Evolutionary::DEFAULT_MUTATION_RATE,
            tournament: Evolutionary::DEFAULT_TOURNAMENT,
        }
    }

    /// Overrides the per-axis mutation probability.
    #[must_use]
    pub const fn with_mutation_rate(mut self, rate: f64) -> Self {
        self.mutation_rate = rate;
        self
    }

    /// Overrides the tournament size.
    #[must_use]
    pub const fn with_tournament(mut self, tournament: usize) -> Self {
        self.tournament = tournament;
        self
    }

    /// Tournament selection: the best of `tournament` uniform draws from
    /// the current population, under the session's deterministic
    /// comparison.
    fn select<'p>(
        &self,
        session: &SearchSession<'_>,
        population: &'p [EvaluatedDesign],
        rng: &mut StdRng,
    ) -> &'p EvaluatedDesign {
        let mut best = &population[rng.gen_range(0..population.len())];
        for _ in 1..self.tournament {
            let challenger = &population[rng.gen_range(0..population.len())];
            if session.compare(challenger, best).is_lt() {
                best = challenger;
            }
        }
        best
    }
}

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolve"
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.population == 0 {
            return Err(SimError::InvalidExperiment {
                reason: "evolutionary search needs a population of at least 1".to_string(),
            });
        }
        if self.tournament == 0 {
            return Err(SimError::InvalidExperiment {
                reason: "tournament size must be at least 1".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(SimError::InvalidExperiment {
                reason: format!(
                    "mutation rate must be within 0..=1, got {}",
                    self.mutation_rate
                ),
            });
        }
        Ok(())
    }

    fn run(&self, session: &mut SearchSession<'_>) -> Result<(), SimError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let initial: Vec<_> = (0..self.population)
            .map(|_| session.space().sample(&mut rng))
            .collect();
        let mut population = session.evaluate(&initial)?;
        session.record_generation(initial.len());
        for _ in 0..self.generations {
            let children: Vec<_> = (0..self.population)
                .map(|_| {
                    let parent = self.select(session, &population, &mut rng);
                    session
                        .space()
                        .mutate(&parent.genotype, &mut rng, self.mutation_rate)
                })
                .collect();
            population = session.evaluate(&children)?;
            session.record_generation(children.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{DesignSearch, SearchSpace};
    use crate::ExperimentRunner;
    use rasa_workloads::LayerSpec;

    fn run(strategy: &dyn SearchStrategy) -> Result<crate::search::SearchOutcome, SimError> {
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(32))
            .build()?;
        let layer = LayerSpec::fc("TINY-FC", 32, 64, 64);
        DesignSearch::new(&runner, SearchSpace::paper(), layer).run(strategy)
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(ExhaustiveGrid.name(), "grid");
        assert_eq!(RandomSampling::new(4, 0).name(), "random");
        assert_eq!(Evolutionary::new(4, 1, 0).name(), "evolve");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            run(&RandomSampling::new(0, 1)),
            Err(SimError::InvalidExperiment { .. })
        ));
        assert!(matches!(
            run(&Evolutionary::new(0, 1, 1)),
            Err(SimError::InvalidExperiment { .. })
        ));
        assert!(matches!(
            run(&Evolutionary::new(2, 1, 1).with_tournament(0)),
            Err(SimError::InvalidExperiment { .. })
        ));
        assert!(matches!(
            run(&Evolutionary::new(2, 1, 1).with_mutation_rate(1.5)),
            Err(SimError::InvalidExperiment { .. })
        ));
        // Parameter validation happens before any simulation: a rejected
        // run must leave the runner's cache untouched (not even the
        // baseline anchor cell).
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(32))
            .build()
            .unwrap();
        let layer = LayerSpec::fc("TINY-FC", 32, 64, 64);
        let result =
            DesignSearch::new(&runner, SearchSpace::paper(), layer).run(&RandomSampling::new(0, 1));
        assert!(result.is_err());
        assert_eq!(runner.cache_stats().misses, 0, "no simulation was spent");
    }

    #[test]
    fn random_sampling_respects_the_draw_budget() {
        let outcome = run(&RandomSampling::new(10, 21)).unwrap();
        assert_eq!(outcome.requested_evaluations, 10);
        assert!(outcome.distinct_evaluated <= 10);
        assert!(outcome.distinct_evaluated >= 1);
        assert_eq!(outcome.generations.len(), 1);
        assert_eq!(outcome.generations[0].evaluations, 10);
    }

    #[test]
    fn evolutionary_generations_are_logged_in_order() {
        let outcome = run(&Evolutionary::new(3, 4, 5)).unwrap();
        assert_eq!(outcome.generations.len(), 5);
        for (index, record) in outcome.generations.iter().enumerate() {
            assert_eq!(record.generation, index);
            assert_eq!(record.evaluations, 3);
            assert!(record.frontier_size >= 1);
        }
        // The best normalized runtime can only improve over generations.
        for pair in outcome.generations.windows(2) {
            assert!(pair[1].best_normalized_runtime <= pair[0].best_normalized_runtime + 1e-12);
        }
    }
}
