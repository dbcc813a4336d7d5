//! # rasa-isa — tile-register ISA substrate for the RASA matrix engine
//!
//! This crate defines the architectural state and instruction set that the
//! rest of the workspace builds on. It mirrors the interface assumed by the
//! RASA paper (DAC 2021), which is itself modelled after Intel AMX:
//!
//! * eight architectural **tile registers** (`treg0`–`treg7`), each holding
//!   16 rows of 64 bytes (1 KB) — see [`TileGeometry`] and [`IsaConfig`];
//! * three matrix instructions: `rasa_tl` (tile load), `rasa_ts` (tile
//!   store) and `rasa_mm` (matrix multiply-accumulate) — see
//!   [`Instruction`];
//! * scalar/control overhead instructions so that generated traces look like
//!   real micro-kernels rather than bare matrix-op streams.
//!
//! The crate is intentionally free of any timing or micro-architectural
//! behaviour: it only describes *what* the instructions are and which
//! architectural registers they read and write. Timing lives in
//! `rasa-systolic` (matrix engine) and `rasa-cpu` (out-of-order core).
//!
//! ## Example
//!
//! ```
//! use rasa_isa::{IsaConfig, ProgramBuilder, TileReg, MemRef};
//!
//! # fn main() -> Result<(), rasa_isa::IsaError> {
//! let isa = IsaConfig::amx_like();
//! let mut b = ProgramBuilder::new(isa);
//! let c0 = TileReg::new(0)?;
//! let a0 = TileReg::new(6)?;
//! let b0 = TileReg::new(4)?;
//! b.tile_load(c0, MemRef::tile(0x1000, 64));
//! b.tile_load(a0, MemRef::tile(0x2000, 64));
//! b.tile_load(b0, MemRef::tile(0x3000, 64));
//! b.matmul(c0, a0, b0);
//! b.tile_store(MemRef::tile(0x1000, 64), c0);
//! let program = b.finish()?;
//! assert_eq!(program.len(), 5);
//! assert_eq!(program.count_matmuls(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod config;
mod dtype;
mod error;
mod instruction;
mod memref;
mod program;
mod regs;
mod tile;

pub use config::IsaConfig;
pub use dtype::DataType;
pub use error::IsaError;
pub use instruction::{Instruction, InstructionKind};
pub use memref::MemRef;
pub use program::{Program, ProgramBuilder, ProgramSegment, ProgramStats};
pub use regs::{GprReg, RegSet, TileReg, NUM_GPR_REGS, NUM_TILE_REGS};
pub use tile::{TileGeometry, TileShape};
