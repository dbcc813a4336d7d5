//! # rasa-cpu — trace-driven out-of-order CPU model hosting the RASA engine
//!
//! The RASA paper evaluates its matrix engine inside a CPU pipeline using
//! MacSim, a trace-driven cycle-level simulator configured "similar to
//! Intel's Skylake": 2 GHz, 16 pipeline stages, a 97-entry ROB and a
//! 4-wide fetch/issue/retire front end, with the assumption that the core is
//! never stalled by memory. This crate is the from-scratch substitute for
//! that substrate.
//!
//! The model executes a [`rasa_isa::Program`] (produced by `rasa-trace`)
//! through a simplified but faithful out-of-order pipeline:
//!
//! * in-order rename/dispatch bounded by ROB and reservation-station
//!   capacity and the front-end width;
//! * out-of-order issue to ALU, load/store, vector and matrix-engine ports
//!   once register dependencies resolve (full bypass network);
//! * the matrix engine is the [`rasa_systolic::MatrixEngine`] scheduler,
//!   driven in program order and running in its own (slower) clock domain;
//! * idealized memory: tile and scalar loads have a fixed pipelined latency
//!   and never miss, matching the paper's methodology;
//! * in-order retirement.
//!
//! Time advances through an **event-driven scheduler** (see [`SchedStats`]
//! and the `sched` module): completions live in a binary heap, consumers
//! subscribe to their producers at rename, and the core simulates only
//! cycles on which the pipeline can move — which is what makes
//! full-fidelity runs of the large Table I layers cheap. The original
//! cycle-stepping loop is retained as [`CpuCore::run_reference`] and the
//! two are bit-identical on every program (enforced by parity tests).
//!
//! ## Example
//!
//! ```
//! use rasa_cpu::{CpuConfig, CpuCore};
//! use rasa_isa::{IsaConfig, MemRef, ProgramBuilder, TileReg};
//! use rasa_systolic::{ControlScheme, MatrixEngine, PeVariant, SystolicConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new(IsaConfig::amx_like());
//! let (c, a, w) = (TileReg::new(0)?, TileReg::new(6)?, TileReg::new(4)?);
//! b.tile_load(c, MemRef::tile(0x0, 64));
//! b.tile_load(a, MemRef::tile(0x400, 64));
//! b.tile_load(w, MemRef::tile(0x800, 64));
//! b.matmul(c, a, w);
//! b.tile_store(MemRef::tile(0x0, 64), c);
//! let program = b.finish()?;
//!
//! let engine = MatrixEngine::new(SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Base)?);
//! let mut core = CpuCore::new(CpuConfig::skylake_like(), engine);
//! let stats = core.run(&program)?;
//! assert_eq!(stats.retired_instructions, 5);
//! assert!(stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod config;
mod core;
mod error;
mod sched;
mod spec;
mod stats;

pub use config::CpuConfig;
pub use core::{CoreRun, CpuCore};
pub use error::CpuError;
pub use sched::SchedStats;
pub use spec::{
    MemoStats, MemoView, SpecCheckpoint, SpecDelta, SpecMemo, SpeculativeRun, MEMO_STATES,
    MEMO_TRANSITIONS,
};
pub use stats::{CpuStats, StreamStats};
