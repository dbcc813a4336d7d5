//! # rasa — Register-Aware Systolic Array matrix engine for CPUs
//!
//! This is the facade crate of the RASA reproduction workspace (DAC 2021,
//! "RASA: Efficient Register-Aware Systolic Array Matrix Engine for CPU").
//! It re-exports every sub-crate under a stable module path so that examples
//! and downstream users only need a single dependency:
//!
//! * [`isa`] — tile registers and the `rasa_tl`/`rasa_ts`/`rasa_mm` ISA;
//! * [`numeric`] — BF16/FP32 arithmetic, matrices, reference GEMM, im2col;
//! * [`systolic`] — the systolic-array matrix engine (functional + timing);
//! * [`cpu`] — the trace-driven out-of-order core hosting the engine;
//! * [`trace`] — AMX-style kernel/trace generation for GEMMs and convs;
//! * [`workloads`] — the MLPerf-derived layers of Table I;
//! * [`power`] — the analytical area/energy model;
//! * [`sim`] — end-to-end simulation, design points and experiment runners.
//!
//! ## Quickstart
//!
//! ```
//! use rasa::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate a small GEMM on the baseline design and on RASA-DMDB-WLS.
//! let gemm = GemmShape::new(256, 256, 256);
//! let baseline = Simulator::new(DesignPoint::baseline())?.run_gemm(gemm)?;
//! let rasa = Simulator::new(DesignPoint::rasa_dmdb_wls())?.run_gemm(gemm)?;
//! assert!(rasa.core_cycles < baseline.core_cycles);
//! # Ok(())
//! # }
//! ```

pub use rasa_cpu as cpu;
pub use rasa_isa as isa;
pub use rasa_numeric as numeric;
pub use rasa_power as power;
pub use rasa_sim as sim;
pub use rasa_systolic as systolic;
pub use rasa_trace as trace;
pub use rasa_workloads as workloads;

/// Commonly used types, re-exported for one-line imports in examples and
/// downstream code.
pub mod prelude {
    pub use rasa_cpu::{CoreRun, CpuConfig, CpuCore, CpuStats, StreamStats};
    pub use rasa_isa::{
        Instruction, IsaConfig, MemRef, Program, ProgramBuilder, ProgramSegment, TileReg,
    };
    pub use rasa_numeric::{gemm_bf16_fp32, gemm_f32, Bf16, ConvShape, GemmShape, Matrix};
    pub use rasa_power::{AreaModel, EnergyModel, PowerReport};
    pub use rasa_sim::net::{NetClient, Router, RouterConfig, ShardServer, WireRequest};
    pub use rasa_sim::search::{
        DesignSearch, Evolutionary, ExhaustiveGrid, ParetoFrontier, RandomSampling, SearchOutcome,
        SearchSpace, SearchStrategy,
    };
    pub use rasa_sim::serve::{GemmRequest, GemmResponse, GemmServer, ServeConfig};
    pub use rasa_sim::{
        CacheStats, DesignPoint, ExperimentRunner, ExperimentRunnerBuilder, ExperimentSpec,
        ExperimentSuite, ExperimentSuiteBuilder, FromJson, JsonValue, PipelineStats, SimJob,
        SimReport, SimSummary, Simulator, ToJson, WorkloadRun,
    };
    pub use rasa_systolic::{
        ControlScheme, FunctionalArray, MatrixEngine, PeVariant, SystolicConfig, TileDims,
    };
    pub use rasa_trace::{GemmKernelConfig, GemmTraceStream, TraceGenerator};
    pub use rasa_workloads::{LayerSpec, MlperfWorkload, WorkloadSuite};
}
