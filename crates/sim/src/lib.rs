//! # rasa-sim — end-to-end simulation facade and experiment runners
//!
//! This crate ties the whole reproduction stack together:
//!
//! 1. a workload (a Table I layer or an arbitrary GEMM) is lowered to a
//!    tiled `rasa_*` instruction trace by `rasa-trace`;
//! 2. the trace runs on the out-of-order core of `rasa-cpu`, which drives
//!    the `rasa-systolic` matrix engine configured for one **design point**
//!    (the baseline or one of the seven RASA designs of the evaluation);
//! 3. the resulting cycle counts and engine activity feed the `rasa-power`
//!    area/energy model;
//! 4. the [`ExperimentSuite`] repeats this over the workload × design matrix
//!    to regenerate every figure and table of the paper's evaluation
//!    (Fig. 1, Fig. 2, Fig. 5, Fig. 6, Fig. 7 and the area/energy numbers).
//!
//! ## Example
//!
//! ```
//! use rasa_sim::{DesignPoint, Simulator};
//! use rasa_numeric::GemmShape;
//!
//! # fn main() -> Result<(), rasa_sim::SimError> {
//! let gemm = GemmShape::new(128, 128, 128);
//! let base = Simulator::new(DesignPoint::baseline())?.run_gemm(gemm)?;
//! let rasa = Simulator::new(DesignPoint::rasa_dmdb_wls())?.run_gemm(gemm)?;
//! assert!(rasa.core_cycles < base.core_cycles);
//! assert!(rasa.normalized_runtime_vs(&base) < 1.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cache;
mod designs;
mod error;
mod experiments;
pub mod json;
mod key;
pub mod net;
pub mod prof;
mod report;
mod runner;
pub mod search;
pub mod serve;
mod simulator;

pub use cache::{InsertOutcome, LruCache};
pub use designs::DesignPoint;
pub use error::SimError;
pub use experiments::{
    AreaEnergyResult, AreaEnergyRow, BlockingAblationResult, BlockingAblationRow,
    CpuAblationResult, CpuAblationRow, ExperimentSuite, ExperimentSuiteBuilder, Fig1Result,
    Fig2Result, Fig5Result, Fig5Row, Fig6Result, Fig6Row, Fig7Result, Fig7Row,
};
pub use json::{FromJson, JsonError, JsonValue, ToJson};
pub use key::CellKey;
pub use net::{NetClient, NetError, Router, ShardServer, WireRequest, WireResponse};
pub use report::{PipelineStats, SimReport, SimSummary, WorkloadRun};
pub use runner::{
    CacheStats, ExperimentRunner, ExperimentRunnerBuilder, ExperimentSpec, SimJob,
    DEFAULT_CACHE_CAPACITY,
};
pub use search::{
    DesignSearch, EvaluatedDesign, Evolutionary, ExhaustiveGrid, Genotype, ParetoFrontier,
    RandomSampling, SearchOutcome, SearchSpace, SearchStrategy,
};
pub use serve::{
    GemmRequest, GemmResponse, GemmServer, LatencySummary, RequestLatency, ResponseHandle,
    ServeConfig, ServeStats,
};
pub use simulator::Simulator;
