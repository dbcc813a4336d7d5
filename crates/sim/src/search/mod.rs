//! Deterministic design-space search with a Pareto frontier.
//!
//! The paper evaluates eight hand-picked design points; this module turns
//! the simulation stack into an automated exploration engine over the full
//! parameterized space:
//!
//! * [`SearchSpace`] — four hardware axes over
//!   [`rasa_systolic::SystolicConfig`] parameters (PE variant, control
//!   scheme, logical-K × column geometry, engine in-flight depth),
//!   optionally crossed with the [`KernelAxes`] of the generated
//!   micro-kernel (register-block shape, matmul order, loop order,
//!   unroll) for joint hardware × kernel search, with validity filtering,
//!   a cost-model pre-filter that discards dominated kernel combinations
//!   before any simulation, and deterministic candidate enumeration;
//! * [`SearchStrategy`] implementations — [`ExhaustiveGrid`], seeded
//!   [`RandomSampling`] and a seeded [`Evolutionary`] loop (per-axis
//!   mutation + tournament selection);
//! * evaluation through the shared, memoizing
//!   [`ExperimentRunner`](crate::ExperimentRunner): revisited genotypes
//!   are answered by the cell cache instead of re-simulated;
//! * a multi-objective [`ParetoFrontier`] over (normalized runtime,
//!   area mm², energy joules) with dominance pruning and deterministic
//!   tie-breaking.
//!
//! **Determinism is a hard requirement**: for a fixed seed, strategy
//! configuration and workload, repeated runs produce identical
//! [`SearchOutcome`]s and byte-identical JSON documents
//! ([`SearchOutcome::to_json`](crate::ToJson) excludes every
//! execution-dependent observation), which is what lets the `design_search`
//! binary join the CI golden-results regression scheme.

mod outcome;
mod pareto;
mod session;
mod space;
mod strategy;

pub use outcome::{GenerationRecord, SearchOutcome};
pub use pareto::{EvaluatedDesign, FrontierInsert, Objectives, ParetoFrontier};
pub use session::{DesignSearch, SearchSession};
pub use space::{Genotype, KernelAxes, KernelGenotype, SearchSpace, SearchSpaceBuilder};
pub use strategy::{Evolutionary, ExhaustiveGrid, RandomSampling, SearchStrategy};
