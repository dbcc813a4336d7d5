//! # rasa-trace — instruction-trace generation for the RASA matrix engine
//!
//! The paper drives its simulator with traces of LIBXSMM's AMX micro-kernels
//! captured through Intel SDE. Neither is available here, so this crate is
//! the from-scratch substitute: it emits [`rasa_isa::Program`]s directly
//! from GEMM and convolution shapes, using the same 2 A-tile × 2 B-tile × 4
//! accumulator register blocking that the paper's Algorithm 1 illustrates
//! (and that LIBXSMM-style AMX kernels use in practice).
//!
//! What matters for the RASA evaluation is the *instruction mix* and the
//! *tile-register reuse pattern*, because consecutive `rasa_mm` instructions
//! that name the same clean weight register are exactly the opportunities
//! the WLBP/WLS optimizations exploit. The generated kernels reproduce that
//! structure:
//!
//! * the B (weight) registers `treg4`/`treg5` are each used by two
//!   consecutive `rasa_mm` instructions per K step (≈50 % reuse);
//! * accumulators `treg0`–`treg3` stay live across the whole K loop;
//! * A tiles stream through `treg6`/`treg7`;
//! * optional scalar pointer-bump and loop-branch overhead can be emitted to
//!   make the traces look like real compiled kernels.
//!
//! ## Example
//!
//! ```
//! use rasa_trace::TraceGenerator;
//! use rasa_numeric::GemmShape;
//!
//! let generator = TraceGenerator::amx_like();
//! let program = generator.gemm(GemmShape::new(64, 64, 64), "toy")?;
//! // 4 M-tiles × 2 K-tiles × 4 N-tiles = 32 rasa_mm instructions.
//! assert_eq!(program.count_matmuls(), 32);
//! # Ok::<(), rasa_trace::TraceError>(())
//! ```

#![deny(missing_docs)]

mod avx;
mod config;
mod error;
mod generator;
mod scheme;
mod stream;

pub use config::{GemmKernelConfig, MatmulOrder};
pub use error::TraceError;
pub use generator::TraceGenerator;
pub use scheme::{KernelScheme, KernelSchemeBuilder, LoopOrder};
pub use stream::{GemmTraceStream, DEFAULT_SEGMENT_SIZE};
