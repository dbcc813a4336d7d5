//! First-class kernel schemes: the searchable axes of the generated
//! micro-kernel and a validating builder that assembles them into a
//! [`GemmKernelConfig`].
//!
//! Historically the kernel was a frozen constant — every trace came from the
//! hard-coded Algorithm-1 configuration. The scheme lifts each structural
//! choice of the micro-kernel into data so the joint hardware × kernel design
//! space can be searched:
//!
//! * **register-block shape** ([`RegisterBlock`]) — how many A/B tiles are
//!   held live per block, beyond the fixed 2×2;
//! * **matmul order** ([`MatmulOrder`]) — weight-paired vs interleaved
//!   emission inside a K step;
//! * **loop order** ([`LoopOrder`]) — whether accumulators stay register
//!   resident across the whole K reduction or spill around every K step;
//! * **scalar-overhead model** — how many pointer-bump/loop-bookkeeping
//!   scalar ops accompany each K step (a fully unrolled kernel has none).

use crate::config::{GemmKernelConfig, MatmulOrder};
use crate::TraceError;
use rasa_numeric::{RegisterBlock, TilingConfig};
use std::fmt;

/// Placement of the K (reduction) loop relative to the register block.
///
/// The generated loop nest is always `for n-block { for m-block { … } }`;
/// what varies is whether the accumulator tiles of a block survive the whole
/// reduction in registers or are spilled and reloaded around every K step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum LoopOrder {
    /// K is the innermost loop (Algorithm 1): accumulators are loaded once
    /// per block, stay register resident across the whole reduction, and are
    /// stored once. Minimal C traffic.
    #[default]
    KInnermost,
    /// The tile loops are innermost: every K step reloads and writes back
    /// the block's accumulator tiles. Same `rasa_mm` count, `2·m·n` extra
    /// tile moves per K step — the memory-bound end of the loop-order axis.
    NInnermost,
}

impl LoopOrder {
    /// Short label used in search output and ablation tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            LoopOrder::KInnermost => "k-innermost",
            LoopOrder::NInnermost => "n-innermost",
        }
    }
}

impl fmt::Display for LoopOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The structural axes of a generated micro-kernel beyond its tiling: the
/// register-block shape, loop order and scalar-overhead model.
///
/// The default scheme reproduces the paper's Algorithm 1 exactly (2×2 block,
/// K innermost, three scalar ops + one branch per K step);
/// [`GemmKernelConfig`]s carrying the default scheme generate byte-identical
/// traces to every release before schemes existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelScheme {
    /// Register-block shape (A tiles × B tiles held live per block).
    pub block: RegisterBlock,
    /// Accumulator residency across the K reduction.
    pub loop_order: LoopOrder,
    /// Scalar pointer-bump/bookkeeping ops emitted per K step when scalar
    /// overhead is enabled (Algorithm 1 models three; a software-pipelined
    /// kernel may need fewer, a fully unrolled one none).
    pub scalar_ops_per_step: u8,
}

impl KernelScheme {
    /// The Algorithm-1 scheme: 2×2 block, K innermost, three scalar ops per
    /// step. The single source of truth for the default
    /// kernel — [`GemmKernelConfig::amx_like`] derives from it.
    #[must_use]
    pub fn algorithm_one() -> Self {
        KernelScheme::default()
    }

    /// Tile registers the scheme's register block occupies.
    #[must_use]
    pub const fn tile_regs_needed(&self) -> usize {
        self.block.tile_regs_needed()
    }

    /// Whether this is the default Algorithm-1 scheme (the compatibility
    /// fast path: default-scheme kernels render legacy cache keys and JSON).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == KernelScheme::default()
    }

    /// Validates the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidKernel`] when the register block has a
    /// zero dimension.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.block.m == 0 || self.block.n == 0 {
            return Err(TraceError::InvalidKernel {
                reason: format!(
                    "register block dimensions must be non-zero, got {}",
                    self.block
                ),
            });
        }
        Ok(())
    }
}

impl Default for KernelScheme {
    fn default() -> Self {
        KernelScheme {
            block: RegisterBlock::algorithm_one(),
            loop_order: LoopOrder::KInnermost,
            scalar_ops_per_step: 3,
        }
    }
}

impl fmt::Display for KernelScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} block, {}, {} scalar ops/step",
            self.block, self.loop_order, self.scalar_ops_per_step
        )
    }
}

/// Builder assembling every kernel axis into a validated
/// [`GemmKernelConfig`].
///
/// Unset axes fall back to the Algorithm-1 defaults, so
/// `KernelSchemeBuilder::new().build()` is exactly
/// [`GemmKernelConfig::amx_like`]:
///
/// ```
/// use rasa_trace::{KernelSchemeBuilder, GemmKernelConfig, LoopOrder};
///
/// assert_eq!(KernelSchemeBuilder::new().build()?, GemmKernelConfig::amx_like());
/// let unrolled = KernelSchemeBuilder::new()
///     .with_block(1, 3)
///     .with_loop_order(LoopOrder::NInnermost)
///     .without_scalar_overhead()
///     .build()?;
/// assert_eq!(unrolled.scheme.block.tile_regs_needed(), 7);
/// # Ok::<(), rasa_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelSchemeBuilder {
    block: Option<RegisterBlock>,
    matmul_order: Option<MatmulOrder>,
    loop_order: Option<LoopOrder>,
    scalar_ops_per_step: Option<u8>,
    emit_scalar_overhead: Option<bool>,
    max_matmuls: Option<usize>,
}

impl KernelSchemeBuilder {
    /// A builder with every axis at its Algorithm-1 default.
    #[must_use]
    pub fn new() -> Self {
        KernelSchemeBuilder::default()
    }

    /// Sets the register-block shape (default 2×2).
    #[must_use]
    pub const fn with_block(mut self, m: usize, n: usize) -> Self {
        self.block = Some(RegisterBlock { m, n });
        self
    }

    /// Sets the intra-block `rasa_mm` emission order.
    #[must_use]
    pub const fn with_matmul_order(mut self, order: MatmulOrder) -> Self {
        self.matmul_order = Some(order);
        self
    }

    /// Sets the accumulator-residency loop order.
    #[must_use]
    pub const fn with_loop_order(mut self, order: LoopOrder) -> Self {
        self.loop_order = Some(order);
        self
    }

    /// Sets the number of scalar bookkeeping ops per K step (default 3).
    #[must_use]
    pub const fn with_scalar_ops_per_step(mut self, ops: u8) -> Self {
        self.scalar_ops_per_step = Some(ops);
        self
    }

    /// Disables scalar overhead entirely — a fully unrolled kernel.
    #[must_use]
    pub const fn without_scalar_overhead(mut self) -> Self {
        self.emit_scalar_overhead = Some(false);
        self
    }

    /// Caps the number of `rasa_mm` instructions emitted.
    #[must_use]
    pub const fn with_max_matmuls(mut self, cap: usize) -> Self {
        self.max_matmuls = Some(cap);
        self
    }

    /// Builds the validated kernel configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidKernel`] when any axis is invalid (zero
    /// block dimension, zero cap).
    pub fn build(self) -> Result<GemmKernelConfig, TraceError> {
        let kernel = GemmKernelConfig {
            tiling: TilingConfig::default(),
            emit_scalar_overhead: self.emit_scalar_overhead.unwrap_or(true),
            max_matmuls: self.max_matmuls,
            matmul_order: self.matmul_order.unwrap_or_default(),
            scheme: KernelScheme {
                block: self.block.unwrap_or_default(),
                loop_order: self.loop_order.unwrap_or_default(),
                scalar_ops_per_step: self.scalar_ops_per_step.unwrap_or(3),
            },
        };
        kernel.validate()?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_is_the_amx_kernel() {
        let built = KernelSchemeBuilder::new().build().unwrap();
        assert_eq!(built, GemmKernelConfig::amx_like());
        assert!(built.scheme.is_default());
    }

    #[test]
    fn builder_covers_every_axis() {
        let k = KernelSchemeBuilder::new()
            .with_block(3, 1)
            .with_matmul_order(MatmulOrder::Interleaved)
            .with_loop_order(LoopOrder::NInnermost)
            .with_scalar_ops_per_step(1)
            .with_max_matmuls(64)
            .build()
            .unwrap();
        assert_eq!(k.scheme.block, RegisterBlock::new(3, 1).unwrap());
        assert_eq!(k.matmul_order, MatmulOrder::Interleaved);
        assert_eq!(k.scheme.loop_order, LoopOrder::NInnermost);
        assert_eq!(k.scheme.scalar_ops_per_step, 1);
        assert_eq!(k.max_matmuls, Some(64));
        assert!(!k.scheme.is_default());
    }

    #[test]
    fn invalid_axes_rejected() {
        assert!(KernelSchemeBuilder::new().with_block(0, 2).build().is_err());
        assert!(KernelSchemeBuilder::new().with_block(2, 0).build().is_err());
        assert!(KernelSchemeBuilder::new()
            .with_max_matmuls(0)
            .build()
            .is_err());
    }

    #[test]
    fn scheme_register_footprint() {
        assert_eq!(KernelScheme::algorithm_one().tile_regs_needed(), 8);
        let s = KernelScheme {
            block: RegisterBlock::new(1, 2).unwrap(),
            ..KernelScheme::default()
        };
        assert_eq!(s.tile_regs_needed(), 5);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn loop_order_labels() {
        assert_eq!(LoopOrder::default(), LoopOrder::KInnermost);
        assert_eq!(LoopOrder::NInnermost.label(), "n-innermost");
        assert_eq!(LoopOrder::KInnermost.to_string(), "k-innermost");
    }

    #[test]
    fn scheme_display_mentions_every_axis() {
        let s = KernelScheme {
            loop_order: LoopOrder::NInnermost,
            scalar_ops_per_step: 1,
            ..KernelScheme::default()
        };
        assert_eq!(s.to_string(), "2x2 block, n-innermost, 1 scalar ops/step");
    }
}
