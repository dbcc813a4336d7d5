use crate::scheme::KernelScheme;
use crate::TraceError;
use rasa_numeric::TilingConfig;
use std::fmt;

/// The order in which the four `rasa_mm` instructions of a 2×2 register
/// block are emitted within one K step.
///
/// The order controls how much *consecutive* weight-register reuse the trace
/// exposes, which is precisely what the WLBP/WLS optimizations feed on — so
/// it is the knob of the kernel-blocking ablation (`ablation_blocking`):
///
/// * [`MatmulOrder::WeightPaired`] — Algorithm 1's order
///   (`C0·A0·B0, C1·A1·B0, C2·A0·B1, C3·A1·B1`): each weight register is
///   used by two consecutive instructions, a 50 % consecutive-reuse rate.
/// * [`MatmulOrder::Interleaved`] — the weight registers alternate every
///   instruction (`C0·A0·B0, C2·A0·B1, C1·A1·B0, C3·A1·B1`): zero
///   consecutive reuse, so WLBP degenerates to PIPE while WLS still hides
///   the loads via the shadow buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum MatmulOrder {
    /// Algorithm-1 order: two consecutive uses of each weight register.
    #[default]
    WeightPaired,
    /// Alternate weight registers every instruction (no consecutive reuse).
    Interleaved,
}

impl MatmulOrder {
    /// Short label used in ablation tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            MatmulOrder::WeightPaired => "weight-paired",
            MatmulOrder::Interleaved => "interleaved",
        }
    }
}

impl fmt::Display for MatmulOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Configuration of the generated GEMM kernel.
///
/// The defaults reproduce the structure of the paper's Algorithm 1: a 2×2
/// register block (four accumulators, two A tiles, two B tiles) with the K
/// loop innermost, plus a light sprinkle of scalar overhead so the trace
/// resembles a real compiled micro-kernel rather than a bare `rasa_mm`
/// stream. The structural axes beyond the tiling live in the embedded
/// [`KernelScheme`]; non-default schemes are assembled with
/// [`crate::KernelSchemeBuilder`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GemmKernelConfig {
    /// Register-tile dimensions (TM/TK/TN), normally derived from the ISA.
    pub tiling: TilingConfig,
    /// Whether to emit scalar pointer-bump instructions and loop branches.
    pub emit_scalar_overhead: bool,
    /// Optional cap on the number of `rasa_mm` instructions emitted; the
    /// block walk ends with the register block that reaches the cap (see
    /// [`crate::WalkPlan::blocks`]). Used to keep
    /// cycle-level simulations of very large layers tractable — the caller
    /// can extrapolate using the true tile count.
    pub max_matmuls: Option<usize>,
    /// Emission order of the `rasa_mm` instructions inside a register block
    /// (the consecutive-weight-reuse ablation knob).
    pub matmul_order: MatmulOrder,
    /// Structural kernel axes: register-block shape, loop order and
    /// scalar-overhead model.
    pub scheme: KernelScheme,
}

impl GemmKernelConfig {
    /// The default Algorithm-1-style kernel for the AMX-like tiling,
    /// derived from the scheme builder's defaults — the single source of
    /// truth every layer's default kernel collapses onto.
    #[must_use]
    pub fn amx_like() -> Self {
        crate::KernelSchemeBuilder::new()
            .build()
            .expect("the Algorithm-1 defaults are valid")
    }

    /// Returns a copy with a different intra-block `rasa_mm` emission order.
    #[must_use]
    pub const fn with_matmul_order(mut self, order: MatmulOrder) -> Self {
        self.matmul_order = order;
        self
    }

    /// Returns a copy with a matmul cap installed.
    #[must_use]
    pub const fn with_max_matmuls(mut self, cap: usize) -> Self {
        self.max_matmuls = Some(cap);
        self
    }

    /// Returns a copy without scalar overhead (pure matrix-op trace).
    #[must_use]
    pub const fn without_scalar_overhead(mut self) -> Self {
        self.emit_scalar_overhead = false;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidKernel`] when a tile dimension is zero,
    /// the cap is zero, or the scheme is invalid.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.tiling.tm == 0 || self.tiling.tk == 0 || self.tiling.tn == 0 {
            return Err(TraceError::InvalidKernel {
                reason: format!("tile dimensions must be non-zero, got {}", self.tiling),
            });
        }
        if self.max_matmuls == Some(0) {
            return Err(TraceError::InvalidKernel {
                reason: "matmul cap must be at least one".to_string(),
            });
        }
        self.scheme.validate()
    }
}

/// Hand-written so the rendering doubles as the kernel half of the runner's
/// semantic cell key: default-scheme kernels print exactly the pre-scheme
/// derived text (keeping every pinned golden cache key byte-stable), while
/// any non-default scheme appends its axes — so two configs that differ in
/// any axis can never render the same key.
impl fmt::Debug for GemmKernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GemmKernelConfig {{ tiling: {:?}, emit_scalar_overhead: {:?}, max_matmuls: {:?}, matmul_order: {:?}",
            self.tiling, self.emit_scalar_overhead, self.max_matmuls, self.matmul_order
        )?;
        if !self.scheme.is_default() {
            write!(f, ", scheme: {:?}", self.scheme)?;
        }
        write!(f, " }}")
    }
}

impl Default for GemmKernelConfig {
    fn default() -> Self {
        GemmKernelConfig::amx_like()
    }
}

impl fmt::Display for GemmKernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} register-blocked kernel, {}{}{}",
            self.scheme.block,
            self.tiling,
            if self.emit_scalar_overhead {
                ", scalar overhead"
            } else {
                ""
            },
            match self.max_matmuls {
                Some(cap) => format!(", capped at {cap} rasa_mm, {} order", self.matmul_order),
                None => format!(", {} order", self.matmul_order),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopOrder;

    #[test]
    fn defaults_match_amx() {
        let c = GemmKernelConfig::default();
        assert_eq!(c.tiling, TilingConfig::amx());
        assert!(c.emit_scalar_overhead);
        assert_eq!(c.max_matmuls, None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders() {
        let c = GemmKernelConfig::amx_like()
            .with_max_matmuls(100)
            .without_scalar_overhead();
        assert_eq!(c.max_matmuls, Some(100));
        assert!(!c.emit_scalar_overhead);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = GemmKernelConfig::amx_like();
        c.max_matmuls = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_mentions_cap() {
        let c = GemmKernelConfig::amx_like().with_max_matmuls(7);
        assert!(c.to_string().contains("capped at 7"));
        assert!(c.to_string().contains("weight-paired"));
    }

    #[test]
    fn debug_key_is_legacy_stable_for_the_default_scheme() {
        // The golden cache keys embed this exact rendering — a kernel whose
        // scheme is Algorithm 1 must keep printing the pre-scheme text.
        let k = GemmKernelConfig::amx_like().with_max_matmuls(256);
        assert_eq!(
            format!("{k:?}"),
            "GemmKernelConfig { tiling: TilingConfig { tm: 16, tk: 32, tn: 16 }, \
             emit_scalar_overhead: true, max_matmuls: Some(256), matmul_order: WeightPaired }"
        );
    }

    #[test]
    fn debug_key_distinguishes_non_default_schemes() {
        let base = GemmKernelConfig::amx_like();
        let mut narrow = base;
        narrow.scheme.block = rasa_numeric::RegisterBlock::new(1, 2).unwrap();
        let mut spilled = base;
        spilled.scheme.loop_order = LoopOrder::NInnermost;
        let keys = [
            format!("{base:?}"),
            format!("{narrow:?}"),
            format!("{spilled:?}"),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        assert!(keys[1].contains("scheme:"));
        assert!(!keys[0].contains("scheme:"));
    }

    #[test]
    fn matmul_order_builder_and_labels() {
        assert_eq!(MatmulOrder::default(), MatmulOrder::WeightPaired);
        assert_eq!(MatmulOrder::Interleaved.label(), "interleaved");
        let c = GemmKernelConfig::amx_like().with_matmul_order(MatmulOrder::Interleaved);
        assert_eq!(c.matmul_order, MatmulOrder::Interleaved);
        assert!(c.to_string().contains("interleaved"));
    }
}
