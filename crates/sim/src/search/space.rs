//! The parameterized design space a search explores.
//!
//! A [`SearchSpace`] is four hardware axes over [`SystolicConfig`]
//! parameters — PE variant, control scheme, array geometry and engine
//! in-flight depth — optionally crossed with the kernel axes of the
//! generated micro-kernel ([`KernelAxes`]: register-block shape, matmul
//! order, loop order, unroll). Validity rules prune the raw cross product:
//! Weight Load Skip needs double-buffered PEs, the logical K extent must
//! fold evenly into the variant's multipliers-per-PE, the array must still
//! fit the register tile the trace generator emits, and a kernel's register
//! block must fit the ISA tile-register budget. In joint mode a cost-model
//! pre-filter additionally discards kernel combinations whose
//! instruction-class costs are dominated by another combination destined
//! for the same hardware genotype, so obviously wasteful kernels never
//! reach full simulation. The surviving [`Genotype`]s are enumerated once,
//! in a deterministic axis-major order, so every strategy (and every
//! seeded random draw) indexes the same list.

use crate::{DesignPoint, SimError};
use rand::rngs::StdRng;
use rand::Rng;
use rasa_cpu::CpuConfig;
use rasa_isa::IsaConfig;
use rasa_numeric::RegisterBlock;
use rasa_systolic::{ControlScheme, PeVariant, SystolicConfig};
use rasa_trace::{GemmKernelConfig, KernelSchemeBuilder, LoopOrder, MatmulOrder};
use std::fmt;

/// The kernel half of a joint genotype: the searchable structural axes of
/// the generated micro-kernel.
///
/// `None` on a [`Genotype`] means the candidate runs the scheme-derived
/// default kernel (hardware-only search); `Some` carries an explicit choice
/// of register-block shape, intra-block `rasa_mm` emission order,
/// accumulator-residency loop order and unrolling (a fully unrolled kernel
/// emits no scalar loop overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelGenotype {
    /// Register-block shape (A tiles × B tiles held live per block).
    pub block: RegisterBlock,
    /// Intra-block `rasa_mm` emission order.
    pub matmul_order: MatmulOrder,
    /// Accumulator residency across the K reduction.
    pub loop_order: LoopOrder,
    /// Fully unrolled kernel: no scalar pointer-bump/branch overhead.
    pub unroll: bool,
}

impl Default for KernelGenotype {
    fn default() -> Self {
        KernelGenotype {
            block: RegisterBlock::algorithm_one(),
            matmul_order: MatmulOrder::WeightPaired,
            loop_order: LoopOrder::KInnermost,
            unroll: false,
        }
    }
}

impl KernelGenotype {
    /// Whether this is the Algorithm-1 kernel the hardware-only search
    /// runs implicitly.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == KernelGenotype::default()
    }

    /// Compact deterministic label: the block shape plus `-il`
    /// (interleaved order), `-ni` (N-innermost loop) and `-u` (unrolled)
    /// markers exactly when the axis deviates from Algorithm 1. The
    /// default kernel's label is plain `2x2`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = self.block.to_string();
        if self.matmul_order != MatmulOrder::WeightPaired {
            label.push_str("-il");
        }
        if self.loop_order != LoopOrder::KInnermost {
            label.push_str("-ni");
        }
        if self.unroll {
            label.push_str("-u");
        }
        label
    }

    /// Tile registers this kernel's register block occupies.
    #[must_use]
    pub const fn tile_regs_needed(&self) -> usize {
        self.block.tile_regs_needed()
    }

    /// Instruction-class cost proxies per useful `rasa_mm`, counted from
    /// the instructions the trace generator emits for one interior register
    /// block per K step:
    /// `(memory, scalar)` — operand loads plus per-K-step accumulator
    /// spill traffic, and modeled scalar bookkeeping (three pointer bumps
    /// plus a branch per K step unless unrolled). Matrix work is exactly
    /// one `rasa_mm` per unit of work for every kernel, so it never
    /// differentiates candidates.
    #[must_use]
    pub fn cost_proxies(&self) -> (f64, f64) {
        let acc = (self.block.m * self.block.n) as f64;
        let loads = (self.block.m + self.block.n) as f64 / acc;
        let spill = match self.loop_order {
            LoopOrder::KInnermost => 0.0,
            LoopOrder::NInnermost => 2.0,
        };
        let scalar = if self.unroll { 0.0 } else { 4.0 / acc };
        (loads + spill, scalar)
    }

    /// Cost-model dominance between two kernels destined for the *same*
    /// hardware genotype: `other` is at least as cheap in every
    /// instruction class and strictly cheaper in one. The matmul order
    /// never enters the proxies (it changes the reuse *pattern*, not any
    /// count), so order variants are never pruned against each other —
    /// ranking them takes full simulation.
    #[must_use]
    pub fn is_cost_dominated_by(&self, other: &KernelGenotype) -> bool {
        let (mem_a, scalar_a) = self.cost_proxies();
        let (mem_b, scalar_b) = other.cost_proxies();
        mem_b <= mem_a && scalar_b <= scalar_a && (mem_b < mem_a || scalar_b < scalar_a)
    }

    /// Materializes the kernel genotype into a validated
    /// [`GemmKernelConfig`] carrying `matmul_cap`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] when the axes are invalid (never for a
    /// genotype drawn from a built space).
    pub fn to_kernel_config(
        &self,
        matmul_cap: Option<usize>,
    ) -> Result<GemmKernelConfig, SimError> {
        let mut builder = KernelSchemeBuilder::new()
            .with_block(self.block.m, self.block.n)
            .with_matmul_order(self.matmul_order)
            .with_loop_order(self.loop_order);
        if self.unroll {
            builder = builder.without_scalar_overhead();
        }
        if let Some(cap) = matmul_cap {
            builder = builder.with_max_matmuls(cap);
        }
        Ok(builder.build()?)
    }
}

impl fmt::Display for KernelGenotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The kernel axes of a joint search space: the values crossed into every
/// hardware genotype when kernel search is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAxes {
    /// Register-block shapes.
    pub blocks: Vec<RegisterBlock>,
    /// Intra-block `rasa_mm` emission orders.
    pub matmul_orders: Vec<MatmulOrder>,
    /// Accumulator-residency loop orders.
    pub loop_orders: Vec<LoopOrder>,
    /// Unroll choices (`true` = fully unrolled, no scalar overhead).
    pub unroll: Vec<bool>,
}

impl Default for KernelAxes {
    /// Every register block that fits the 8-register AMX-like budget,
    /// both matmul orders, both loop orders, rolled and unrolled.
    fn default() -> Self {
        KernelAxes {
            blocks: vec![
                RegisterBlock::algorithm_one(),
                RegisterBlock { m: 1, n: 2 },
                RegisterBlock { m: 2, n: 1 },
                RegisterBlock { m: 1, n: 3 },
                RegisterBlock { m: 3, n: 1 },
            ],
            matmul_orders: vec![MatmulOrder::WeightPaired, MatmulOrder::Interleaved],
            loop_orders: vec![LoopOrder::KInnermost, LoopOrder::NInnermost],
            unroll: vec![false, true],
        }
    }
}

impl KernelAxes {
    /// Raw cross-product size before the cost-model pre-filter.
    #[must_use]
    pub fn combinations(&self) -> usize {
        self.blocks.len() * self.matmul_orders.len() * self.loop_orders.len() * self.unroll.len()
    }

    /// Axis-major enumeration (block → order → loop order → unroll).
    fn enumerate(&self) -> Vec<KernelGenotype> {
        let mut combos = Vec::with_capacity(self.combinations());
        for &block in &self.blocks {
            for &matmul_order in &self.matmul_orders {
                for &loop_order in &self.loop_orders {
                    for &unroll in &self.unroll {
                        combos.push(KernelGenotype {
                            block,
                            matmul_order,
                            loop_order,
                            unroll,
                        });
                    }
                }
            }
        }
        combos
    }
}

/// One point of a [`SearchSpace`]: a complete, materializable systolic
/// configuration choice.
///
/// The geometry is stored as the **logical** K extent (`max_tk`, the K
/// positions the array covers, i.e. `rows × multipliers_per_pe`) rather
/// than physical rows, so the same geometry value is comparable across PE
/// variants — exactly the paper's convention of halving the rows of
/// double-multiplier arrays to keep the multiplier budget constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Genotype {
    /// Processing-element variant.
    pub pe: PeVariant,
    /// Control/pipelining scheme.
    pub control: ControlScheme,
    /// Logical K extent of the array (`rows × multipliers_per_pe`).
    pub max_tk: usize,
    /// Physical PE columns (the N extent).
    pub cols: usize,
    /// Engine in-flight window (`rasa_mm` instructions tracked at once) —
    /// the "buffer depth" axis.
    pub max_in_flight: usize,
    /// CPU cycles per engine cycle (fixed per space, not an axis).
    pub clock_ratio: u32,
    /// Kernel half of the genotype: `None` in hardware-only spaces (the
    /// scheme-derived default kernel), `Some` in joint spaces.
    pub kernel: Option<KernelGenotype>,
}

impl Genotype {
    /// Physical PE rows this genotype materializes to.
    ///
    /// Meaningful only for valid genotypes (`max_tk` divisible by the
    /// variant's multipliers per PE); rounds down otherwise.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.max_tk / self.pe.multipliers_per_pe()
    }

    /// The deterministic design name: the paper label for paper-convention
    /// genotypes (`RASA-DMDB-WLS`, `BASELINE`, …), with explicit geometry
    /// (`@K64N32`) and in-flight (`+Q2`) suffixes exactly when the genotype
    /// deviates from the paper's 32-K × 16-N array and depth-8 window.
    #[must_use]
    pub fn label(&self) -> String {
        let reference = SystolicConfig::paper_baseline();
        let mut label = match (self.pe, self.control) {
            (PeVariant::Baseline, ControlScheme::Base) => "BASELINE".to_string(),
            (PeVariant::Baseline, c) => format!("RASA-{}", c.label()),
            (p, c) => format!("RASA-{}-{}", p.label(), c.label()),
        };
        if self.max_tk != reference.max_tk() || self.cols != reference.max_tn() {
            label.push_str(&format!("@K{}N{}", self.max_tk, self.cols));
        }
        if self.max_in_flight != reference.max_in_flight() {
            label.push_str(&format!("+Q{}", self.max_in_flight));
        }
        if let Some(kernel) = &self.kernel {
            if !kernel.is_default() {
                label.push_str(&format!("*{}", kernel.label()));
            }
        }
        label
    }

    /// The kernel override this genotype carries, materialized as a
    /// validated [`GemmKernelConfig`] carrying `matmul_cap` — `None` when
    /// the genotype runs the runner's default kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] when the kernel axes are invalid (never
    /// for a genotype drawn from a built space).
    pub fn kernel_config(
        &self,
        matmul_cap: Option<usize>,
    ) -> Result<Option<GemmKernelConfig>, SimError> {
        match &self.kernel {
            None => Ok(None),
            Some(kernel) => Ok(Some(kernel.to_kernel_config(matmul_cap)?)),
        }
    }

    /// Materializes the genotype into a simulatable [`DesignPoint`] (with
    /// the evaluation's Skylake-like host core).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] when `max_tk` does not fold
    /// into the variant's multipliers per PE, and [`SimError::Design`] when
    /// the systolic configuration itself is invalid.
    pub fn materialize(&self) -> Result<DesignPoint, SimError> {
        if self.max_tk % self.pe.multipliers_per_pe() != 0 {
            return Err(SimError::InvalidExperiment {
                reason: format!(
                    "genotype K extent {} does not fold into {} multipliers per PE",
                    self.max_tk,
                    self.pe.multipliers_per_pe()
                ),
            });
        }
        let systolic = SystolicConfig::new(
            self.rows(),
            self.cols,
            self.pe,
            self.control,
            self.clock_ratio,
        )?
        .with_max_in_flight(self.max_in_flight);
        Ok(DesignPoint::new(
            self.label(),
            systolic,
            CpuConfig::skylake_like(),
        ))
    }
}

impl fmt::Display for Genotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The four-axis design space. Built with [`SearchSpace::builder`] (or the
/// [`paper`](SearchSpace::paper) / [`explorer`](SearchSpace::explorer)
/// presets); immutable afterwards, with the valid candidate list
/// pre-enumerated in deterministic axis-major order (variant → scheme →
/// geometry → depth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    pe_variants: Vec<PeVariant>,
    control_schemes: Vec<ControlScheme>,
    /// `(max_tk, cols)` pairs: logical K extent × physical columns.
    geometries: Vec<(usize, usize)>,
    in_flight_depths: Vec<usize>,
    clock_ratio: u32,
    /// Minimum logical K extent: the register tile's K dimension (the
    /// engine rejects tiles taller than the array).
    tile_k: usize,
    /// Minimum column count: the register tile's N dimension.
    tile_n: usize,
    /// Kernel axes when the space searches the joint hardware × kernel
    /// space; `None` for hardware-only spaces.
    kernel_axes: Option<KernelAxes>,
    /// Kernel combinations surviving the cost-model pre-filter (empty in
    /// hardware-only spaces), in deterministic axis-major order.
    kernel_candidates: Vec<KernelGenotype>,
    candidates: Vec<Genotype>,
}

impl SearchSpace {
    /// Starts building a space (kubecl-style typed config builder).
    #[must_use]
    pub fn builder() -> SearchSpaceBuilder {
        SearchSpaceBuilder::default()
    }

    /// The paper's own design space: every PE variant × control scheme at
    /// the evaluated geometry (logical 32-K × 16 columns, in-flight 8) —
    /// 14 valid candidates carrying the paper's design names.
    #[must_use]
    pub fn paper() -> Self {
        SearchSpace::builder()
            .build()
            .expect("paper space is always valid")
    }

    /// A wider exploration space: the paper combinations crossed with
    /// larger-than-paper geometries and shallow/deep in-flight windows —
    /// the default space of the `design_search` binary.
    #[must_use]
    pub fn explorer() -> Self {
        SearchSpace::builder()
            .with_geometries(vec![(32, 16), (64, 16), (32, 32)])
            .with_in_flight_depths(vec![2, 8])
            .build()
            .expect("explorer space is always valid")
    }

    /// The [`explorer`](SearchSpace::explorer) space crossed with the
    /// default [`KernelAxes`]: the joint hardware × kernel space behind
    /// `design_search --kernel-axes`.
    #[must_use]
    pub fn explorer_joint() -> Self {
        SearchSpace::builder()
            .with_geometries(vec![(32, 16), (64, 16), (32, 32)])
            .with_in_flight_depths(vec![2, 8])
            .with_kernel_axes()
            .build()
            .expect("joint explorer space is always valid")
    }

    /// The PE-variant axis.
    #[must_use]
    pub fn pe_variants(&self) -> &[PeVariant] {
        &self.pe_variants
    }

    /// The control-scheme axis.
    #[must_use]
    pub fn control_schemes(&self) -> &[ControlScheme] {
        &self.control_schemes
    }

    /// The geometry axis as `(max_tk, cols)` pairs.
    #[must_use]
    pub fn geometries(&self) -> &[(usize, usize)] {
        &self.geometries
    }

    /// The in-flight-depth axis.
    #[must_use]
    pub fn in_flight_depths(&self) -> &[usize] {
        &self.in_flight_depths
    }

    /// CPU cycles per engine cycle for every candidate.
    #[must_use]
    pub const fn clock_ratio(&self) -> u32 {
        self.clock_ratio
    }

    /// The kernel axes when this space searches the joint hardware ×
    /// kernel space (`None` for hardware-only spaces).
    #[must_use]
    pub fn kernel_axes(&self) -> Option<&KernelAxes> {
        self.kernel_axes.as_ref()
    }

    /// Whether the space crosses kernel axes into every hardware genotype.
    #[must_use]
    pub fn is_joint(&self) -> bool {
        self.kernel_axes.is_some()
    }

    /// Kernel combinations surviving the cost-model pre-filter, in
    /// deterministic axis-major order (empty for hardware-only spaces).
    #[must_use]
    pub fn kernel_candidates(&self) -> &[KernelGenotype] {
        &self.kernel_candidates
    }

    /// Kernel combinations the cost-model pre-filter discarded before any
    /// simulation: raw axis cross product minus the survivors (0 for
    /// hardware-only spaces).
    #[must_use]
    pub fn kernel_cost_pruned(&self) -> usize {
        self.kernel_axes
            .as_ref()
            .map_or(0, |axes| axes.combinations() - self.kernel_candidates.len())
    }

    /// All valid candidates, in deterministic axis-major enumeration order.
    #[must_use]
    pub fn candidates(&self) -> &[Genotype] {
        &self.candidates
    }

    /// The number of valid candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the space has no valid candidate (never true for a built
    /// space; kept for API symmetry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Whether a genotype satisfies every validity rule of this space:
    /// scheme supported by the variant, K extent folding evenly into the
    /// multipliers per PE, an array at least as large as the register tile
    /// the trace generator emits, and a kernel half matching the space's
    /// mode — absent in hardware-only spaces, one of the cost-filter
    /// survivors in joint spaces.
    #[must_use]
    pub fn is_valid(&self, genotype: &Genotype) -> bool {
        let kernel_ok = match (&self.kernel_axes, &genotype.kernel) {
            (None, None) => true,
            (Some(_), Some(kernel)) => self.kernel_candidates.contains(kernel),
            _ => false,
        };
        kernel_ok
            && genotype.control.is_supported_by(genotype.pe)
            && genotype.max_tk % genotype.pe.multipliers_per_pe() == 0
            && genotype.max_tk >= self.tile_k
            && genotype.cols >= self.tile_n
    }

    /// Draws a uniformly random candidate (by enumeration index).
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> Genotype {
        self.candidates[rng.gen_range(0..self.candidates.len())]
    }

    /// Mutates a parent genotype: each axis is independently resampled
    /// from its axis values with probability `rate`, then the result is
    /// repaired back into validity (an unsupported control scheme falls
    /// back to the first axis scheme the new variant supports; if no
    /// repair produces a valid genotype the mutation collapses to the
    /// parent). RNG draws happen in a fixed order, so the operation is
    /// deterministic for a given seed state.
    #[must_use]
    pub fn mutate(&self, parent: &Genotype, rng: &mut StdRng, rate: f64) -> Genotype {
        let mut child = *parent;
        if rng.gen::<f64>() < rate {
            child.pe = self.pe_variants[rng.gen_range(0..self.pe_variants.len())];
        }
        if rng.gen::<f64>() < rate {
            child.control = self.control_schemes[rng.gen_range(0..self.control_schemes.len())];
        }
        if rng.gen::<f64>() < rate {
            let (max_tk, cols) = self.geometries[rng.gen_range(0..self.geometries.len())];
            child.max_tk = max_tk;
            child.cols = cols;
        }
        if rng.gen::<f64>() < rate {
            child.max_in_flight =
                self.in_flight_depths[rng.gen_range(0..self.in_flight_depths.len())];
        }
        if let (Some(axes), Some(mut kernel)) = (&self.kernel_axes, child.kernel) {
            if rng.gen::<f64>() < rate {
                kernel.block = axes.blocks[rng.gen_range(0..axes.blocks.len())];
            }
            if rng.gen::<f64>() < rate {
                kernel.matmul_order =
                    axes.matmul_orders[rng.gen_range(0..axes.matmul_orders.len())];
            }
            if rng.gen::<f64>() < rate {
                kernel.loop_order = axes.loop_orders[rng.gen_range(0..axes.loop_orders.len())];
            }
            if rng.gen::<f64>() < rate {
                kernel.unroll = axes.unroll[rng.gen_range(0..axes.unroll.len())];
            }
            // Repair: a combination the cost-model pre-filter pruned snaps
            // to the survivor sharing the most-significant mutated axes.
            if !self.kernel_candidates.contains(&kernel) {
                kernel = *self
                    .kernel_candidates
                    .iter()
                    .find(|s| s.block == kernel.block && s.matmul_order == kernel.matmul_order)
                    .or_else(|| {
                        self.kernel_candidates
                            .iter()
                            .find(|s| s.matmul_order == kernel.matmul_order)
                    })
                    .unwrap_or(&self.kernel_candidates[0]);
            }
            child.kernel = Some(kernel);
        }
        if !self.is_valid(&child) {
            if let Some(scheme) = self
                .control_schemes
                .iter()
                .find(|scheme| scheme.is_supported_by(child.pe))
            {
                child.control = *scheme;
            }
            if !self.is_valid(&child) {
                child = *parent;
            }
        }
        child
    }
}

impl fmt::Display for SearchSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} PE variants x {} schemes x {} geometries x {} depths",
            self.pe_variants.len(),
            self.control_schemes.len(),
            self.geometries.len(),
            self.in_flight_depths.len(),
        )?;
        if self.kernel_axes.is_some() {
            write!(
                f,
                " x {} kernel schemes ({} cost-dominated pruned)",
                self.kernel_candidates.len(),
                self.kernel_cost_pruned()
            )?;
        }
        write!(f, " = {} valid candidates", self.candidates.len())
    }
}

/// Builder for [`SearchSpace`]: optional axes, validated and enumerated at
/// [`build`](Self::build).
#[derive(Debug, Default)]
pub struct SearchSpaceBuilder {
    pe_variants: Option<Vec<PeVariant>>,
    control_schemes: Option<Vec<ControlScheme>>,
    geometries: Option<Vec<(usize, usize)>>,
    in_flight_depths: Option<Vec<usize>>,
    clock_ratio: Option<u32>,
    kernel_axes: Option<KernelAxes>,
}

impl SearchSpaceBuilder {
    /// Restricts the PE-variant axis (default: all four variants).
    #[must_use]
    pub fn with_pe_variants(mut self, variants: Vec<PeVariant>) -> Self {
        self.pe_variants = Some(variants);
        self
    }

    /// Restricts the control-scheme axis (default: all four schemes).
    #[must_use]
    pub fn with_control_schemes(mut self, schemes: Vec<ControlScheme>) -> Self {
        self.control_schemes = Some(schemes);
        self
    }

    /// Sets the geometry axis as `(max_tk, cols)` pairs (default: the
    /// paper's logical 32-K × 16 columns only).
    #[must_use]
    pub fn with_geometries(mut self, geometries: Vec<(usize, usize)>) -> Self {
        self.geometries = Some(geometries);
        self
    }

    /// Sets the in-flight-depth axis (default: the paper's depth of 8).
    #[must_use]
    pub fn with_in_flight_depths(mut self, depths: Vec<usize>) -> Self {
        self.in_flight_depths = Some(depths);
        self
    }

    /// Overrides the CPU-to-engine clock ratio (default 4, the paper's
    /// 500 MHz array under a 2 GHz core).
    #[must_use]
    pub fn with_clock_ratio(mut self, ratio: u32) -> Self {
        self.clock_ratio = Some(ratio);
        self
    }

    /// Enables joint hardware × kernel search with the default
    /// [`KernelAxes`] (every register block fitting the tile-register
    /// budget, both matmul orders, both loop orders, rolled and unrolled).
    #[must_use]
    pub fn with_kernel_axes(self) -> Self {
        self.with_custom_kernel_axes(KernelAxes::default())
    }

    /// Enables joint hardware × kernel search over explicit kernel axes.
    #[must_use]
    pub fn with_custom_kernel_axes(mut self, axes: KernelAxes) -> Self {
        self.kernel_axes = Some(axes);
        self
    }

    /// Validates the axes and enumerates the candidate list. In joint
    /// mode the kernel axes are validated against the ISA tile-register
    /// budget, then the cost-model pre-filter discards every kernel
    /// combination dominated (per unit of matrix work, in every
    /// instruction class) by another combination destined for the same
    /// hardware genotype — those kernels can never win and are pruned
    /// before any simulation is spent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for an empty axis, a zero
    /// dimension/depth/ratio, a geometry smaller than the register tile,
    /// a kernel register block exceeding the ISA tile-register budget,
    /// or a space whose filtered cross product is empty.
    pub fn build(self) -> Result<SearchSpace, SimError> {
        let invalid = |reason: String| SimError::InvalidExperiment { reason };
        let reference = SystolicConfig::paper_baseline();
        let pe_variants = self.pe_variants.unwrap_or_else(|| PeVariant::all().into());
        let control_schemes = self
            .control_schemes
            .unwrap_or_else(|| ControlScheme::all().into());
        let geometries = self
            .geometries
            .unwrap_or_else(|| vec![(reference.max_tk(), reference.max_tn())]);
        let in_flight_depths = self
            .in_flight_depths
            .unwrap_or_else(|| vec![reference.max_in_flight()]);
        let clock_ratio = self.clock_ratio.unwrap_or(reference.clock_ratio());
        if pe_variants.is_empty()
            || control_schemes.is_empty()
            || geometries.is_empty()
            || in_flight_depths.is_empty()
        {
            return Err(invalid("every search axis needs at least one value".into()));
        }
        if clock_ratio == 0 {
            return Err(invalid("clock ratio must be at least 1".into()));
        }
        if in_flight_depths.contains(&0) {
            return Err(invalid("in-flight depth must be at least 1".into()));
        }
        // The trace generator emits AMX-like register tiles; an array
        // smaller than one tile cannot execute the trace at all, so such
        // geometries are configuration errors rather than filterable
        // candidates.
        let tile = GemmKernelConfig::amx_like().tiling;
        for &(max_tk, cols) in &geometries {
            if max_tk < tile.tk || cols < tile.tn {
                return Err(invalid(format!(
                    "geometry K{max_tk}xN{cols} cannot hold the {}x{} register tile",
                    tile.tk, tile.tn
                )));
            }
        }

        // Kernel axes: the register block must fit the ISA tile-register
        // budget (accumulators + A tiles + B tiles), exactly the rule the
        // trace generator enforces at emission time — an oversized block
        // is a configuration error, not a filterable candidate.
        let mut kernel_candidates = Vec::new();
        if let Some(axes) = &self.kernel_axes {
            if axes.blocks.is_empty()
                || axes.matmul_orders.is_empty()
                || axes.loop_orders.is_empty()
                || axes.unroll.is_empty()
            {
                return Err(invalid("every kernel axis needs at least one value".into()));
            }
            let budget = IsaConfig::amx_like().num_tile_regs();
            for block in &axes.blocks {
                if block.m == 0 || block.n == 0 {
                    return Err(invalid(format!(
                        "kernel register block {block} has a zero dimension"
                    )));
                }
                if block.tile_regs_needed() > budget {
                    return Err(invalid(format!(
                        "kernel register block {block} needs {} tile registers, \
                         the ISA provides {budget}",
                        block.tile_regs_needed()
                    )));
                }
            }
            // Cost-model pre-filter: every kernel combination is destined
            // for every hardware genotype, so a combination dominated in
            // every per-matmul instruction-class proxy by another can
            // never beat it on any candidate and is dropped here, before
            // any simulation.
            let combos = axes.enumerate();
            kernel_candidates = combos
                .iter()
                .filter(|combo| !combos.iter().any(|other| combo.is_cost_dominated_by(other)))
                .copied()
                .collect();
        }

        let mut space = SearchSpace {
            pe_variants,
            control_schemes,
            geometries,
            in_flight_depths,
            clock_ratio,
            tile_k: tile.tk,
            tile_n: tile.tn,
            kernel_axes: self.kernel_axes,
            kernel_candidates,
            candidates: Vec::new(),
        };
        let kernel_options: Vec<Option<KernelGenotype>> = if space.kernel_axes.is_some() {
            space.kernel_candidates.iter().copied().map(Some).collect()
        } else {
            vec![None]
        };
        for &pe in &space.pe_variants {
            for &control in &space.control_schemes {
                for &(max_tk, cols) in &space.geometries {
                    for &max_in_flight in &space.in_flight_depths {
                        for &kernel in &kernel_options {
                            let genotype = Genotype {
                                pe,
                                control,
                                max_tk,
                                cols,
                                max_in_flight,
                                clock_ratio: space.clock_ratio,
                                kernel,
                            };
                            if space.is_valid(&genotype) {
                                space.candidates.push(genotype);
                            }
                        }
                    }
                }
            }
        }
        if space.candidates.is_empty() {
            return Err(invalid(
                "no valid candidate survives the validity filter".into(),
            ));
        }
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_space_enumerates_the_fourteen_named_designs() {
        let space = SearchSpace::paper();
        assert_eq!(space.len(), 14);
        assert!(!space.is_empty());
        let labels: Vec<String> = space.candidates().iter().map(Genotype::label).collect();
        for expected in [
            "BASELINE",
            "RASA-PIPE",
            "RASA-WLBP",
            "RASA-DM-PIPE",
            "RASA-DM-WLBP",
            "RASA-DB-WLS",
            "RASA-DMDB-WLBP",
            "RASA-DMDB-WLS",
        ] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}");
        }
        // No WLS without double buffering ever enumerates.
        assert!(space.candidates().iter().all(|g| space.is_valid(g)));
        assert!(space.to_string().contains("14 valid candidates"));
    }

    #[test]
    fn labels_suffix_non_paper_geometry_and_depth() {
        let genotype = Genotype {
            pe: PeVariant::Dmdb,
            control: ControlScheme::Wls,
            max_tk: 64,
            cols: 32,
            max_in_flight: 2,
            clock_ratio: 4,
            kernel: None,
        };
        assert_eq!(genotype.label(), "RASA-DMDB-WLS@K64N32+Q2");
        assert_eq!(genotype.to_string(), genotype.label());
        let paper = Genotype {
            max_tk: 32,
            cols: 16,
            max_in_flight: 8,
            ..genotype
        };
        assert_eq!(paper.label(), "RASA-DMDB-WLS");
    }

    #[test]
    fn materialize_follows_the_row_convention() {
        let space = SearchSpace::explorer();
        for genotype in space.candidates() {
            let design = genotype.materialize().unwrap();
            let systolic = design.systolic();
            assert_eq!(systolic.max_tk(), genotype.max_tk);
            assert_eq!(systolic.max_tn(), genotype.cols);
            assert_eq!(systolic.max_in_flight(), genotype.max_in_flight);
            assert_eq!(design.name(), genotype.label());
            // Double-multiplier variants halve the physical rows.
            assert_eq!(
                systolic.rows(),
                genotype.max_tk / genotype.pe.multipliers_per_pe()
            );
        }
    }

    #[test]
    fn odd_k_extent_does_not_fold_into_dm() {
        let genotype = Genotype {
            pe: PeVariant::Dm,
            control: ControlScheme::Pipe,
            max_tk: 34,
            cols: 16,
            max_in_flight: 8,
            clock_ratio: 4,
            kernel: None,
        };
        assert_eq!(genotype.rows(), 17);
        assert!(genotype.materialize().is_ok(), "34 folds into 2");
        let odd = Genotype {
            max_tk: 33,
            ..genotype
        };
        assert!(matches!(
            odd.materialize(),
            Err(SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn builder_rejects_degenerate_axes() {
        assert!(SearchSpace::builder()
            .with_pe_variants(vec![])
            .build()
            .is_err());
        assert!(SearchSpace::builder()
            .with_in_flight_depths(vec![0])
            .build()
            .is_err());
        assert!(SearchSpace::builder().with_clock_ratio(0).build().is_err());
        // A geometry smaller than the 32x16 register tile is rejected
        // outright rather than silently filtered.
        assert!(SearchSpace::builder()
            .with_geometries(vec![(16, 16)])
            .build()
            .is_err());
        assert!(SearchSpace::builder()
            .with_geometries(vec![(32, 8)])
            .build()
            .is_err());
        // An all-invalid cross product is rejected.
        assert!(SearchSpace::builder()
            .with_pe_variants(vec![PeVariant::Baseline])
            .with_control_schemes(vec![ControlScheme::Wls])
            .build()
            .is_err());
    }

    #[test]
    fn sampling_and_mutation_stay_inside_the_space() {
        let space = SearchSpace::explorer();
        let mut rng = StdRng::seed_from_u64(11);
        let mut genotype = space.sample(&mut rng);
        for _ in 0..200 {
            assert!(space.is_valid(&genotype));
            assert!(space.candidates().contains(&genotype));
            genotype = space.mutate(&genotype, &mut rng, 0.7);
        }
    }

    #[test]
    fn mutation_is_deterministic_for_a_seed() {
        let space = SearchSpace::explorer();
        let walk = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut genotype = space.sample(&mut rng);
            let mut path = vec![genotype];
            for _ in 0..32 {
                genotype = space.mutate(&genotype, &mut rng, 0.5);
                path.push(genotype);
            }
            path
        };
        assert_eq!(walk(3), walk(3));
        assert_ne!(walk(3), walk(4), "different seeds should diverge");
    }

    #[test]
    fn joint_space_crosses_the_kernel_survivors_into_every_hardware_point() {
        let hardware = SearchSpace::explorer();
        let joint = SearchSpace::explorer_joint();
        assert!(joint.is_joint());
        assert!(!hardware.is_joint());
        // Cost pre-filter: of the 5×2×2×2 = 40 raw combinations, the 2×2
        // K-innermost unrolled kernel dominates every narrower block,
        // every spilling loop order and every rolled kernel in both
        // instruction-class proxies — only the matmul-order variants
        // (which the cost model cannot rank) survive.
        assert_eq!(joint.kernel_axes().unwrap().combinations(), 40);
        assert_eq!(joint.kernel_cost_pruned(), 38);
        let survivors = joint.kernel_candidates();
        assert_eq!(survivors.len(), 2);
        for survivor in survivors {
            assert_eq!(survivor.block, RegisterBlock::algorithm_one());
            assert_eq!(survivor.loop_order, LoopOrder::KInnermost);
            assert!(survivor.unroll);
        }
        assert_eq!(survivors[0].matmul_order, MatmulOrder::WeightPaired);
        assert_eq!(survivors[1].matmul_order, MatmulOrder::Interleaved);
        // Every hardware point appears once per surviving kernel.
        assert_eq!(joint.len(), hardware.len() * survivors.len());
        assert!(joint.candidates().iter().all(|g| joint.is_valid(g)));
        assert!(joint
            .candidates()
            .iter()
            .all(|g| g.kernel.is_some_and(|k| survivors.contains(&k))));
        // A hardware-only genotype is invalid in the joint space and vice
        // versa.
        assert!(!joint.is_valid(&hardware.candidates()[0]));
        assert!(!hardware.is_valid(&joint.candidates()[0]));
        assert!(joint.to_string().contains("2 kernel schemes"));
        assert!(joint.to_string().contains("38 cost-dominated pruned"));
    }

    #[test]
    fn kernel_cost_model_ranks_what_it_can_and_abstains_where_it_cannot() {
        let base = KernelGenotype::default();
        assert!(base.is_default());
        assert_eq!(base.cost_proxies(), (1.0, 1.0));
        assert_eq!(base.tile_regs_needed(), 8);
        // Unrolling strictly removes scalar work at equal memory traffic.
        let unrolled = KernelGenotype {
            unroll: true,
            ..base
        };
        assert!(base.is_cost_dominated_by(&unrolled));
        assert!(!unrolled.is_cost_dominated_by(&base));
        // Spilling accumulators every K step strictly adds memory traffic.
        let spilled = KernelGenotype {
            loop_order: LoopOrder::NInnermost,
            ..base
        };
        assert!(spilled.is_cost_dominated_by(&base));
        // Narrow blocks amortize loads and scalar work over fewer matmuls.
        let narrow = KernelGenotype {
            block: RegisterBlock { m: 1, n: 2 },
            ..base
        };
        assert!(narrow.is_cost_dominated_by(&base));
        // The matmul order changes no instruction count: the model
        // abstains, full simulation decides.
        let interleaved = KernelGenotype {
            matmul_order: MatmulOrder::Interleaved,
            ..base
        };
        assert!(!interleaved.is_cost_dominated_by(&base));
        assert!(!base.is_cost_dominated_by(&interleaved));
        // A kernel never dominates itself.
        assert!(!base.is_cost_dominated_by(&base));
    }

    #[test]
    fn kernel_genotypes_label_and_materialize() {
        let base = KernelGenotype::default();
        assert_eq!(base.label(), "2x2");
        let exotic = KernelGenotype {
            block: RegisterBlock { m: 1, n: 3 },
            matmul_order: MatmulOrder::Interleaved,
            loop_order: LoopOrder::NInnermost,
            unroll: true,
        };
        assert_eq!(exotic.label(), "1x3-il-ni-u");
        assert_eq!(exotic.to_string(), exotic.label());

        let config = exotic.to_kernel_config(Some(128)).unwrap();
        assert_eq!(config.scheme.block, RegisterBlock { m: 1, n: 3 });
        assert_eq!(config.matmul_order, MatmulOrder::Interleaved);
        assert_eq!(config.scheme.loop_order, LoopOrder::NInnermost);
        assert!(!config.emit_scalar_overhead);
        assert_eq!(config.max_matmuls, Some(128));
        // The default kernel genotype materializes to the default kernel.
        let default_config = base.to_kernel_config(None).unwrap();
        assert_eq!(default_config, GemmKernelConfig::amx_like());

        // Genotype labels suffix exactly the non-default kernels.
        let joint = SearchSpace::explorer_joint();
        let unrolled_paper = joint
            .candidates()
            .iter()
            .find(|g| g.label() == "RASA-DMDB-WLS*2x2-u")
            .expect("the unrolled paper-geometry candidate exists");
        assert_eq!(
            unrolled_paper.kernel.unwrap().matmul_order,
            MatmulOrder::WeightPaired
        );
        let mut with_default_kernel = *unrolled_paper;
        with_default_kernel.kernel = Some(KernelGenotype::default());
        assert_eq!(with_default_kernel.label(), "RASA-DMDB-WLS");
        assert_eq!(
            with_default_kernel
                .kernel_config(Some(64))
                .unwrap()
                .unwrap(),
            GemmKernelConfig::amx_like().with_max_matmuls(64)
        );
        assert!(Genotype {
            kernel: None,
            ..with_default_kernel
        }
        .kernel_config(Some(64))
        .unwrap()
        .is_none());
    }

    #[test]
    fn joint_mutation_stays_inside_the_space_and_is_deterministic() {
        let space = SearchSpace::explorer_joint();
        let mut rng = StdRng::seed_from_u64(23);
        let mut genotype = space.sample(&mut rng);
        for _ in 0..300 {
            assert!(space.is_valid(&genotype), "left the space: {genotype:?}");
            assert!(space.candidates().contains(&genotype));
            genotype = space.mutate(&genotype, &mut rng, 0.7);
        }
        let walk = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut genotype = space.sample(&mut rng);
            let mut path = vec![genotype];
            for _ in 0..32 {
                genotype = space.mutate(&genotype, &mut rng, 0.5);
                path.push(genotype);
            }
            path
        };
        assert_eq!(walk(7), walk(7));
        assert_ne!(walk(7), walk(8), "different seeds should diverge");
        // Both matmul orders remain reachable through mutation.
        let orders: std::collections::HashSet<_> = walk(7)
            .iter()
            .chain(walk(8).iter())
            .map(|g| g.kernel.unwrap().matmul_order)
            .collect();
        assert_eq!(orders.len(), 2);
    }

    #[test]
    fn kernel_axes_are_validated_against_the_register_budget() {
        // A 3×2 block needs 6 + 3 + 2 = 11 tile registers; the AMX-like
        // ISA provides 8 — a configuration error, not a filterable
        // candidate.
        let oversized = KernelAxes {
            blocks: vec![RegisterBlock { m: 3, n: 2 }],
            ..KernelAxes::default()
        };
        assert!(matches!(
            SearchSpace::builder()
                .with_custom_kernel_axes(oversized)
                .build(),
            Err(SimError::InvalidExperiment { .. })
        ));
        let zero = KernelAxes {
            blocks: vec![RegisterBlock { m: 0, n: 2 }],
            ..KernelAxes::default()
        };
        assert!(SearchSpace::builder()
            .with_custom_kernel_axes(zero)
            .build()
            .is_err());
        let empty = KernelAxes {
            unroll: vec![],
            ..KernelAxes::default()
        };
        assert!(SearchSpace::builder()
            .with_custom_kernel_axes(empty)
            .build()
            .is_err());
    }

    #[test]
    fn mutation_repairs_unsupported_schemes() {
        // A space where WLS exists but Baseline PEs do not support it: the
        // repair path must land on a supported scheme, never the parent's
        // invalid combination.
        let space = SearchSpace::builder()
            .with_pe_variants(vec![PeVariant::Baseline, PeVariant::Dmdb])
            .with_control_schemes(vec![ControlScheme::Wlbp, ControlScheme::Wls])
            .build()
            .unwrap();
        let parent = Genotype {
            pe: PeVariant::Dmdb,
            control: ControlScheme::Wls,
            max_tk: 32,
            cols: 16,
            max_in_flight: 8,
            clock_ratio: 4,
            kernel: None,
        };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let child = space.mutate(&parent, &mut rng, 1.0);
            assert!(space.is_valid(&child), "invalid child {child:?}");
        }
    }
}
