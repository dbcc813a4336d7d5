use crate::{GemmKernelConfig, LoopOrder, MatmulOrder, TraceError, WalkPlan};
use rasa_isa::{GprReg, IsaConfig, MemRef, Program, ProgramBuilder, TileReg};
use rasa_numeric::{ConvShape, GemmShape};
use std::ops::Range;

/// Base addresses used for the three operand matrices in generated traces.
/// The exact values are irrelevant to the timing model (memory never
/// stalls); they only need to be distinct and stable so that traces are
/// reproducible.
const A_BASE: u64 = 0x1000_0000;
const B_BASE: u64 = 0x2000_0000;
const C_BASE: u64 = 0x3000_0000;
/// Row stride (bytes) used for the tile loads/stores in generated traces.
const TILE_STRIDE: u64 = 64;
/// Bytes reserved per tile in the synthetic address map.
const TILE_BYTES: u64 = 1024;

/// Generates `rasa_*` instruction traces for GEMM and convolution layers
/// using an AMX-style 2×2 register-blocked micro-kernel.
///
/// See the crate documentation for the kernel structure. The generator is
/// deterministic: the same shape always produces the same program.
#[derive(Debug, Clone, Copy)]
pub struct TraceGenerator {
    isa: IsaConfig,
    kernel: GemmKernelConfig,
}

impl TraceGenerator {
    /// Generator for the paper's AMX-like ISA and default kernel.
    #[must_use]
    pub fn amx_like() -> Self {
        TraceGenerator {
            isa: IsaConfig::amx_like(),
            kernel: GemmKernelConfig::amx_like(),
        }
    }

    /// Creates a generator for a custom ISA/kernel combination.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidKernel`] when the kernel configuration is
    /// invalid, its tile dimensions exceed what the ISA's tile registers can
    /// hold, or the ISA has fewer tile registers than the kernel's register
    /// block occupies (`m·n` accumulators + `n` weight + `m` activation
    /// tiles — eight for the default 2×2 blocking).
    pub fn new(isa: IsaConfig, kernel: GemmKernelConfig) -> Result<Self, TraceError> {
        kernel.validate()?;
        if kernel.tiling.tm > isa.tm() || kernel.tiling.tk > isa.tk() || kernel.tiling.tn > isa.tn()
        {
            return Err(TraceError::InvalidKernel {
                reason: format!(
                    "kernel tiling {} exceeds the ISA tile capacity {}x{}x{}",
                    kernel.tiling,
                    isa.tm(),
                    isa.tk(),
                    isa.tn()
                ),
            });
        }
        let regs_needed = kernel.scheme.tile_regs_needed();
        if isa.num_tile_regs() < regs_needed {
            return Err(TraceError::InvalidKernel {
                reason: format!(
                    "the {} register-blocked kernel needs {} tile registers, the isa has {}",
                    kernel.scheme.block,
                    regs_needed,
                    isa.num_tile_regs()
                ),
            });
        }
        Ok(TraceGenerator { isa, kernel })
    }

    /// The ISA configuration traces are generated for.
    #[must_use]
    pub const fn isa(&self) -> &IsaConfig {
        &self.isa
    }

    /// The kernel configuration.
    #[must_use]
    pub const fn kernel(&self) -> &GemmKernelConfig {
        &self.kernel
    }

    /// Returns a generator with a different kernel configuration.
    ///
    /// # Errors
    ///
    /// Same validation as [`TraceGenerator::new`].
    pub fn with_kernel(&self, kernel: GemmKernelConfig) -> Result<Self, TraceError> {
        TraceGenerator::new(self.isa, kernel)
    }

    fn a_addr(&self, mi: usize, ki: usize, k_tiles: usize) -> u64 {
        A_BASE + ((mi * k_tiles + ki) as u64) * TILE_BYTES
    }

    fn b_addr(&self, ki: usize, ni: usize, n_tiles: usize) -> u64 {
        B_BASE + ((ki * n_tiles + ni) as u64) * TILE_BYTES
    }

    fn c_addr(&self, mi: usize, ni: usize, n_tiles: usize) -> u64 {
        C_BASE + ((mi * n_tiles + ni) as u64) * TILE_BYTES
    }

    /// Emits reduction steps `steps` of block `block` of `plan`'s walk;
    /// `0..plan.steps()` is the whole block (accumulator loads, the K
    /// reduction loop, accumulator stores). The block shape, loop order and
    /// scalar-overhead model all come from the kernel scheme; the default
    /// scheme reproduces the pre-scheme 2×2 Algorithm-1 sequence byte for
    /// byte. Shared by the materialized [`TraceGenerator::gemm`] path and
    /// the streaming cursor, so both emit the identical instruction
    /// sequence.
    pub(crate) fn emit_steps(
        &self,
        b: &mut ProgramBuilder,
        plan: &WalkPlan,
        block: usize,
        steps: Range<usize>,
    ) {
        let (_, kt, nt) = plan.grid;
        let (m_here, n_here) = plan.tile_ranges(block);
        // Register allocation generalizing Algorithm 1: accumulators first,
        // then the weight (B) tiles, then the activation (A) tiles — for the
        // default 2×2 block exactly C=treg0..3, B=treg4..5, A=treg6..7.
        let block = self.kernel.scheme.block;
        let treg =
            |i: usize| TileReg::new(i as u8).expect("validated register blocks fit the tile file");
        let c_reg = |m_idx: usize, n_idx: usize| treg(m_idx * n_here.len() + n_idx);
        let b_reg = |n_idx: usize| treg(block.m * block.n + n_idx);
        let a_reg = |m_idx: usize| treg(block.m * block.n + block.n + m_idx);
        let a_ptr = GprReg::new(1).expect("valid gpr");
        let b_ptr = GprReg::new(2).expect("valid gpr");
        let k_counter = GprReg::new(3).expect("valid gpr");
        let scalar_regs = [a_ptr, b_ptr, k_counter];

        // Accumulator residency: K-innermost keeps the block's C tiles live
        // across the whole reduction; N-innermost spills and reloads them
        // around every K step.
        let resident = self.kernel.scheme.loop_order == LoopOrder::KInnermost;
        for ki in steps {
            if !resident || ki == 0 {
                for (m_idx, mi) in m_here.clone().enumerate() {
                    for (n_idx, ni) in n_here.clone().enumerate() {
                        b.tile_load(
                            c_reg(m_idx, n_idx),
                            MemRef::tile(self.c_addr(mi, ni, nt), TILE_STRIDE),
                        );
                    }
                }
            }

            // One iteration of the reduction loop consumes one K tile.
            match self.kernel.matmul_order {
                MatmulOrder::WeightPaired => {
                    // Algorithm 1: each weight register feeds a run of
                    // consecutive rasa_mm instructions, and the A tiles
                    // loaded under the first weight are reused by all later
                    // weights.
                    for (n_idx, ni) in n_here.clone().enumerate() {
                        b.tile_load(
                            b_reg(n_idx),
                            MemRef::tile(self.b_addr(ki, ni, nt), TILE_STRIDE),
                        );
                        for (m_idx, mi) in m_here.clone().enumerate() {
                            if n_idx == 0 {
                                b.tile_load(
                                    a_reg(m_idx),
                                    MemRef::tile(self.a_addr(mi, ki, kt), TILE_STRIDE),
                                );
                            }
                            b.matmul(c_reg(m_idx, n_idx), a_reg(m_idx), b_reg(n_idx));
                        }
                    }
                }
                MatmulOrder::Interleaved => {
                    // Load every operand tile up front, then emit the
                    // rasa_mm instructions alternating weight registers (no
                    // consecutive reuse).
                    for (n_idx, ni) in n_here.clone().enumerate() {
                        b.tile_load(
                            b_reg(n_idx),
                            MemRef::tile(self.b_addr(ki, ni, nt), TILE_STRIDE),
                        );
                    }
                    for (m_idx, mi) in m_here.clone().enumerate() {
                        b.tile_load(
                            a_reg(m_idx),
                            MemRef::tile(self.a_addr(mi, ki, kt), TILE_STRIDE),
                        );
                        for n_idx in 0..n_here.len() {
                            b.matmul(c_reg(m_idx, n_idx), a_reg(m_idx), b_reg(n_idx));
                        }
                    }
                }
            }

            if self.kernel.emit_scalar_overhead {
                // Pointer bumps for the A/B streams and the loop bookkeeping
                // of the K loop, sized by the scheme's scalar-overhead
                // model.
                for op in 0..self.kernel.scheme.scalar_ops_per_step as usize {
                    let r = scalar_regs[op % scalar_regs.len()];
                    b.scalar_alu(r, &[r]);
                }
                b.branch(ki + 1 != kt);
            }

            if !resident || ki + 1 == kt {
                // Write the accumulators back.
                for (m_idx, mi) in m_here.clone().enumerate() {
                    for (n_idx, ni) in n_here.clone().enumerate() {
                        b.tile_store(
                            MemRef::tile(self.c_addr(mi, ni, nt), TILE_STRIDE),
                            c_reg(m_idx, n_idx),
                        );
                    }
                }
            }
        }
    }

    /// Emits the tiled GEMM trace for `shape`.
    ///
    /// The loop nest is `for n-block { for m-block { load C; for k { … };
    /// store C } }` with the scheme's register blocking (2×2 by default),
    /// which keeps each B tile register live across consecutive `rasa_mm`
    /// instructions — the reuse pattern WLBP and WLS exploit. The program's
    /// buffer is sized once, from the plan's block lengths.
    ///
    /// The streaming counterpart, a [`TraceGenerator::gemm_blocks`] cursor
    /// over the same [`WalkPlan`], emits the identical instruction sequence
    /// as bounded [`rasa_isa::ProgramSegment`]s without materializing the
    /// whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM and
    /// [`TraceError::Emit`] if the emitted program fails ISA validation
    /// (which would be a generator bug).
    pub fn gemm(&self, shape: GemmShape, name: &str) -> Result<Program, TraceError> {
        let plan = self.plan(shape)?;
        let len = (0..plan.blocks()).map(|block| plan.block_len(block)).sum();
        let mut b = ProgramBuilder::new(self.isa);
        b.set_name(name).reserve(len);
        for block in 0..plan.blocks() {
            self.emit_steps(&mut b, &plan, block, 0..plan.steps());
        }
        debug_assert_eq!(b.len(), len, "the plan sizes the program");
        Ok(b.finish()?)
    }

    /// Emits the trace for a convolution layer lowered to a GEMM via im2col
    /// (`M = N·outY·outX`, `K = C·R·S`, `N = K_filters`), the same lowering
    /// the paper relies on for the ResNet50 layers of Table I.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] when the convolution shape is invalid.
    pub fn conv(&self, conv: &ConvShape, name: &str) -> Result<Program, TraceError> {
        conv.validate()?;
        self.gemm(conv.to_gemm(), name)
    }
}

impl Default for TraceGenerator {
    fn default() -> Self {
        TraceGenerator::amx_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::{block_pieces, concat, matmuls};
    use rasa_isa::InstructionKind;
    use std::collections::HashMap;

    #[test]
    fn exact_shape_matmul_count() {
        let g = TraceGenerator::amx_like();
        // 64/16 = 4 M tiles, 64/32 = 2 K tiles, 64/16 = 4 N tiles.
        let p = g.gemm(GemmShape::new(64, 64, 64), "exact").unwrap();
        assert_eq!(p.count_matmuls(), 32);
        assert_eq!(g.plan(GemmShape::new(64, 64, 64)).unwrap().matmuls(), 32);
        assert_eq!(p.name(), "exact");
    }

    #[test]
    fn ragged_shape_matmul_count() {
        let g = TraceGenerator::amx_like();
        // 50→4 M tiles, 70→3 K tiles, 40→3 N tiles = 36 tiles.
        let shape = GemmShape::new(50, 70, 40);
        let p = g.gemm(shape, "ragged").unwrap();
        assert_eq!(p.count_matmuls(), 36);
        assert_eq!(p.count_matmuls(), g.plan(shape).unwrap().matmuls());
    }

    #[test]
    fn algorithm_one_structure_for_a_single_block() {
        // M = N = 32, K = 32: one 2×2 register block with a single K step —
        // exactly Algorithm 1 (4 C loads, 2 B loads, 2 A loads, 4 mm, 4
        // stores).
        let g = TraceGenerator::new(
            IsaConfig::amx_like(),
            GemmKernelConfig::amx_like().without_scalar_overhead(),
        )
        .unwrap();
        let p = g.gemm(GemmShape::new(32, 32, 32), "alg1").unwrap();
        assert_eq!(p.count_matmuls(), 4);
        assert_eq!(p.stats().tile_loads, 4 + 2 + 2);
        assert_eq!(p.stats().tile_stores, 4);
        // Two weight-reuse pairs, as in the paper's listing.
        assert_eq!(p.weight_reuse_pairs(), 2);
    }

    #[test]
    fn weight_reuse_is_about_half_for_large_gemms() {
        let g = TraceGenerator::amx_like();
        let p = g.gemm(GemmShape::new(256, 256, 256), "reuse").unwrap();
        let mm = p.count_matmuls();
        let reuse = p.weight_reuse_pairs();
        let rate = reuse as f64 / mm as f64;
        assert!(rate > 0.45 && rate < 0.55, "reuse rate {rate}");
    }

    #[test]
    fn programs_are_valid_and_deterministic() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(100, 90, 80);
        let p1 = g.gemm(shape, "det").unwrap();
        let p2 = g.gemm(shape, "det").unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn matmul_cap_truncates_but_stays_valid() {
        let g = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::amx_like().with_max_matmuls(10))
            .unwrap();
        let shape = GemmShape::new(512, 512, 512);
        let p = g.gemm(shape, "capped").unwrap();
        let full = g.plan(shape).unwrap().matmuls();
        assert!(p.count_matmuls() >= 10);
        // The cap is honoured at register-block granularity.
        assert!(p.count_matmuls() <= 10 + 4 * 16);
        assert!(p.count_matmuls() < full);
    }

    #[test]
    fn scalar_overhead_toggles() {
        let with = TraceGenerator::amx_like()
            .gemm(GemmShape::new(64, 64, 64), "with")
            .unwrap();
        let without = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::amx_like().without_scalar_overhead())
            .unwrap()
            .gemm(GemmShape::new(64, 64, 64), "without")
            .unwrap();
        assert!(with.stats().scalar_ops > 0);
        assert!(with.stats().branches > 0);
        assert_eq!(without.stats().scalar_ops, 0);
        assert_eq!(without.stats().branches, 0);
        assert_eq!(with.count_matmuls(), without.count_matmuls());
    }

    #[test]
    fn single_tile_gemm() {
        let g = TraceGenerator::amx_like();
        let p = g.gemm(GemmShape::new(7, 5, 3), "tiny").unwrap();
        assert_eq!(p.count_matmuls(), 1);
        // 1 C load, 1 B load, 1 A load, 1 store.
        assert_eq!(p.stats().tile_loads, 3);
        assert_eq!(p.stats().tile_stores, 1);
    }

    #[test]
    fn tall_skinny_and_short_wide_shapes() {
        let g = TraceGenerator::amx_like();
        // DLRM-2-like: large M, small N.
        let p = g.gemm(GemmShape::new(512, 1024, 64), "dlrm2ish").unwrap();
        assert_eq!(p.count_matmuls(), 32 * 32 * 4);
        // Single-row GEMM (batch 1 FC layer).
        let p = g.gemm(GemmShape::new(1, 1024, 64), "batch1").unwrap();
        assert_eq!(p.count_matmuls(), 32 * 4);
    }

    #[test]
    fn conv_trace_uses_lowered_dimensions() {
        let g = TraceGenerator::amx_like();
        // ResNet50-1: 1×1 conv → GEMM M=32·56·56, K=64, N=64.
        let conv = ConvShape::new(32, 64, 56, 56, 64, 1, 1, 1, 0);
        let expected = g.plan(conv.to_gemm()).unwrap().matmuls();
        let g_capped = g
            .with_kernel(GemmKernelConfig::amx_like().with_max_matmuls(500))
            .unwrap();
        let p = g_capped.conv(&conv, "resnet50-1").unwrap();
        assert!(p.count_matmuls() <= 600);
        assert!(expected > p.count_matmuls());
        assert_eq!(expected, (32 * 56 * 56usize).div_ceil(16) * 2 * 4);
    }

    #[test]
    fn invalid_conv_rejected() {
        let g = TraceGenerator::amx_like();
        let bad = ConvShape::new(0, 64, 56, 56, 64, 1, 1, 1, 0);
        assert!(g.conv(&bad, "bad").is_err());
    }

    #[test]
    fn empty_gemm_rejected() {
        let g = TraceGenerator::amx_like();
        assert!(g.gemm(GemmShape::new(0, 32, 16), "empty").is_err());
        assert!(g.plan(GemmShape::new(0, 32, 16)).is_err());
    }

    #[test]
    fn overflowing_tile_counts_are_shape_errors() {
        // 2^59 M tiles × 2^58 K tiles: the tile count, and a capped
        // column's matmul count, wrap to 0 in release arithmetic.
        let huge = GemmShape::new(1 << 63, 1 << 63, 16);
        let capped = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::amx_like().with_max_matmuls(4096))
            .unwrap();
        for g in [TraceGenerator::amx_like(), capped] {
            let err = g.plan(huge).unwrap_err();
            assert!(matches!(err, TraceError::Shape(_)), "{err}");
            assert!(err.to_string().contains("overflow"), "{err}");
        }
        // The largest grid that fits still counts.
        let edge = GemmShape::new(1 << 35, 1 << 37, 16);
        let plan = TraceGenerator::amx_like().plan(edge).unwrap();
        assert_eq!(plan.matmuls(), 1 << 63);
    }

    #[test]
    fn kernel_validation_against_isa() {
        // A tiling larger than the ISA tile capacity is rejected.
        let too_big = GemmKernelConfig {
            tiling: rasa_numeric::TilingConfig::new(32, 32, 16).unwrap(),
            emit_scalar_overhead: false,
            max_matmuls: None,
            matmul_order: Default::default(),
            scheme: Default::default(),
        };
        assert!(TraceGenerator::new(IsaConfig::amx_like(), too_big).is_err());
        // Too few registers for the 2×2 blocking.
        let small_isa = IsaConfig::new(
            rasa_isa::TileGeometry::amx(),
            4,
            rasa_isa::DataType::Bf16,
            rasa_isa::DataType::Fp32,
        )
        .unwrap();
        assert!(TraceGenerator::new(small_isa, GemmKernelConfig::amx_like()).is_err());
    }

    #[test]
    fn interleaved_order_removes_consecutive_weight_reuse() {
        let shape = GemmShape::new(128, 128, 128);
        let paired = TraceGenerator::amx_like().gemm(shape, "paired").unwrap();
        let interleaved = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::amx_like().with_matmul_order(MatmulOrder::Interleaved))
            .unwrap()
            .gemm(shape, "interleaved")
            .unwrap();
        // Same amount of work either way…
        assert_eq!(paired.count_matmuls(), interleaved.count_matmuls());
        // …but only the Algorithm-1 order exposes consecutive weight reuse.
        assert!(paired.weight_reuse_pairs() * 2 >= paired.count_matmuls() - 8);
        assert_eq!(interleaved.weight_reuse_pairs(), 0);
    }

    #[test]
    fn register_block_shapes_preserve_work_and_change_traffic() {
        use crate::KernelSchemeBuilder;
        let shape = GemmShape::new(96, 64, 96);
        let default = TraceGenerator::amx_like().gemm(shape, "blk22").unwrap();
        for (m, n) in [(1, 1), (1, 2), (2, 1), (3, 1), (1, 3)] {
            let kernel = KernelSchemeBuilder::new().with_block(m, n).build().unwrap();
            let g = TraceGenerator::new(IsaConfig::amx_like(), kernel).unwrap();
            let p = g.gemm(shape, "blk").unwrap();
            // Every block shape performs the identical multiply work…
            assert_eq!(p.count_matmuls(), default.count_matmuls(), "block {m}x{n}");
            // …while narrower blocks re-load operands more often.
            if (m, n) != (2, 2) {
                assert!(
                    p.stats().tile_loads > default.stats().tile_loads,
                    "block {m}x{n} should load more tiles than 2x2"
                );
            }
        }
    }

    #[test]
    fn oversized_register_block_rejected_by_the_isa() {
        use crate::KernelSchemeBuilder;
        // 3×2 needs 6 + 3 + 2 = 11 tile registers; the AMX-like ISA has 8.
        let kernel = KernelSchemeBuilder::new().with_block(3, 2).build().unwrap();
        assert!(TraceGenerator::new(IsaConfig::amx_like(), kernel).is_err());
    }

    #[test]
    fn n_innermost_spills_accumulators_every_k_step() {
        use crate::{KernelSchemeBuilder, LoopOrder};
        let shape = GemmShape::new(64, 128, 64);
        let resident = TraceGenerator::amx_like().gemm(shape, "kin").unwrap();
        let spilled = TraceGenerator::new(
            IsaConfig::amx_like(),
            KernelSchemeBuilder::new()
                .with_loop_order(LoopOrder::NInnermost)
                .build()
                .unwrap(),
        )
        .unwrap()
        .gemm(shape, "nin")
        .unwrap();
        assert_eq!(resident.count_matmuls(), spilled.count_matmuls());
        // 4 K tiles per block: the spilled order stores accumulators once
        // per K step instead of once per block.
        assert_eq!(
            spilled.stats().tile_stores,
            4 * resident.stats().tile_stores
        );
        assert!(spilled.stats().tile_loads > resident.stats().tile_loads);
    }

    #[test]
    fn scalar_overhead_model_scales_with_ops_per_step() {
        use crate::KernelSchemeBuilder;
        let shape = GemmShape::new(64, 64, 64);
        let lean = TraceGenerator::new(
            IsaConfig::amx_like(),
            KernelSchemeBuilder::new()
                .with_scalar_ops_per_step(1)
                .build()
                .unwrap(),
        )
        .unwrap()
        .gemm(shape, "lean")
        .unwrap();
        let default = TraceGenerator::amx_like().gemm(shape, "fat").unwrap();
        assert_eq!(default.stats().scalar_ops, 3 * lean.stats().scalar_ops);
        assert_eq!(default.stats().branches, lean.stats().branches);
    }

    #[test]
    fn capped_block_count_is_the_walk_gemm_emits() {
        // The capped walk is the shortest prefix of the uncapped walk whose
        // rasa_mm count reaches the cap (checked after each block), and the
        // capped `gemm` emits exactly that prefix.
        use crate::KernelSchemeBuilder;
        // Even, ragged in M, ragged in N, ragged in both.
        let shapes = [
            GemmShape::new(64, 64, 96),
            GemmShape::new(200, 64, 192),
            GemmShape::new(192, 70, 200),
            GemmShape::new(150, 40, 130),
        ];
        for (m, n) in [(2, 2), (1, 3), (3, 1)] {
            let kernel = KernelSchemeBuilder::new().with_block(m, n).build().unwrap();
            let full = TraceGenerator::new(IsaConfig::amx_like(), kernel).unwrap();
            for shape in shapes {
                let program = full.gemm(shape, "full").unwrap();
                let blocks = full.plan(shape).unwrap().blocks();
                // Running (rasa_mm, instruction) totals after each block.
                let mut prefix = vec![(0, 0)];
                for (block, piece) in block_pieces(&full, shape, 0..blocks).iter().enumerate() {
                    let (mm, len) = prefix[block];
                    prefix.push((mm + matmuls(piece.instructions()), len + piece.len()));
                }
                let total = prefix[blocks].0;
                assert_eq!(total, program.count_matmuls());
                // Caps inside and on the edge of the first blocks, the
                // ragged last block of the first column, the first block of
                // the second column and the last block, then past the walk.
                let column = kernel.scheme.block.m_blocks(shape.m.div_ceil(16));
                let mut caps = vec![total + 1, 10 * total];
                for block in [0, 1, column - 1, column, blocks - 1] {
                    caps.extend([prefix[block].0 + 1, prefix[block + 1].0]);
                }
                for cap in caps {
                    let expected = (1..=blocks).find(|&b| prefix[b].0 >= cap).unwrap_or(blocks);
                    let capped = full.with_kernel(kernel.with_max_matmuls(cap)).unwrap();
                    let what = format!("block {m}x{n}, {shape:?}, cap {cap}");
                    assert_eq!(capped.plan(shape).unwrap().blocks(), expected, "{what}");
                    let trace = capped.gemm(shape, "capped").unwrap();
                    assert_eq!(trace.count_matmuls(), prefix[expected].0, "{what}");
                    assert_eq!(
                        trace.instructions(),
                        &program.instructions()[..prefix[expected].1],
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_strides_differ_only_in_memory_addresses() {
        // The premise of the simulator's steady-state fast-forward, at both
        // of its levels: every stride-aligned window of the uniform block
        // region, and every step of each block's uniform step range, emits
        // the same instructions up to memory addresses, which the timing
        // model never reads.
        use crate::KernelSchemeBuilder;
        use rasa_isa::Instruction;
        fn strip(inst: Instruction) -> Instruction {
            match inst {
                Instruction::TileLoad { dst, src, base } => Instruction::TileLoad {
                    dst,
                    src: MemRef { base: 0, ..src },
                    base,
                },
                Instruction::TileStore { dst, src, base } => Instruction::TileStore {
                    dst: MemRef { base: 0, ..dst },
                    src,
                    base,
                },
                other => other,
            }
        }
        // Even in every dimension, then ragged in M, in N and K, and in M
        // and N for some block shapes only; the fifth has a ragged M with
        // long columns, so its first column's interior is the longer run;
        // the last has eight reduction steps per block, ragged in M and N.
        let shapes = [
            GemmShape::new(192, 64, 192),
            GemmShape::new(200, 64, 192),
            GemmShape::new(192, 70, 200),
            GemmShape::new(150, 40, 130),
            GemmShape::new(400, 64, 40),
            GemmShape::new(40, 250, 40),
        ];
        let (mut compared, mut first_column_runs, mut compared_steps) = (0, 0, 0);
        let (mut compared_pieces, mut shared_pieces) = (0, 0);
        for (m, n) in [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1)] {
            for loop_order in [LoopOrder::KInnermost, LoopOrder::NInnermost] {
                for matmul_order in [MatmulOrder::WeightPaired, MatmulOrder::Interleaved] {
                    for (scalar, cap) in (0..3).flat_map(|s| [(s, None), (s, Some(100))]) {
                        let builder = KernelSchemeBuilder::new()
                            .with_block(m, n)
                            .with_loop_order(loop_order)
                            .with_matmul_order(matmul_order);
                        let builder = match scalar {
                            0 => builder,
                            1 => builder.with_scalar_ops_per_step(1),
                            _ => builder.without_scalar_overhead(),
                        };
                        let mut kernel = builder.build().unwrap();
                        kernel.max_matmuls = cap;
                        let g = TraceGenerator::new(IsaConfig::amx_like(), kernel).unwrap();
                        // Pieces are compared across every shape and cap of
                        // the block shape, loop order, matmul order and
                        // scalar model.
                        let mut pieces = HashMap::new();
                        for shape in shapes {
                            compared_steps += repeated_steps_match(&g, shape, strip);
                            let (cmp, shared) = pieces_repeat(&g, shape, strip, &mut pieces);
                            compared_pieces += cmp;
                            shared_pieces += shared;
                            let plan = g.plan(shape).unwrap();
                            let (period, uniform_end) = (plan.period(), plan.uniform_end());
                            assert_eq!(uniform_end % period, 0);
                            assert!(uniform_end <= plan.blocks());
                            if shape.m.div_ceil(16) % m != 0 && period == 1 && uniform_end > 1 {
                                first_column_runs += 1;
                            }
                            for stride in [period, 2 * period, 3 * period] {
                                if stride > uniform_end {
                                    continue;
                                }
                                let window = |lo: usize| -> Vec<Instruction> {
                                    concat(&block_pieces(&g, shape, lo..lo + stride))
                                        .into_iter()
                                        .map(strip)
                                        .collect()
                                };
                                let first = window(0);
                                let mut lo = stride;
                                while lo + stride <= uniform_end {
                                    assert_eq!(
                                        window(lo),
                                        first,
                                        "kernel {kernel}, {shape:?}, stride {stride} at {lo}"
                                    );
                                    compared += 1;
                                    lo += stride;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(compared > 1000, "only {compared} windows compared");
        assert!(
            first_column_runs >= 100,
            "only {first_column_runs} first-column runs"
        );
        assert!(
            compared_steps > 5_000,
            "only {compared_steps} steps compared"
        );
        assert!(
            compared_pieces > 20_000 && shared_pieces > 10_000,
            "only {compared_pieces} pieces compared, {shared_pieces} across shapes"
        );
    }

    /// Checks the premise of the simulator's memo of fed pieces: every
    /// piece a walk feeds — a whole block, a run of its first steps, one
    /// step, or the rest of a block after a skip — emits the same
    /// instructions up to memory addresses (`strip`) as every earlier piece
    /// with the same [`crate::PieceKey`] in `seen`, which spans the shapes
    /// and caps of one kernel. Covers the first blocks, the ragged last
    /// block of the first column, the first block of the last column and
    /// the last block of the walk. Returns how many pieces it compared, and
    /// how many of them matched a piece of another shape.
    fn pieces_repeat(
        g: &TraceGenerator,
        shape: GemmShape,
        strip: fn(rasa_isa::Instruction) -> rasa_isa::Instruction,
        seen: &mut HashMap<crate::PieceKey, (GemmShape, Vec<rasa_isa::Instruction>)>,
    ) -> (usize, usize) {
        let plan = g.plan(shape).unwrap();
        let (kt, uniform, walk) = (plan.steps(), plan.repeated_steps(), plan.blocks());
        let column = g.kernel().scheme.block.m_blocks(shape.m.div_ceil(16));
        let last_column = (walk - 1) / column * column;
        let mut blocks = vec![0, 1, column - 1, last_column, walk - 1];
        blocks.retain(|&block| block < walk);
        blocks.dedup();
        // Cuts of one block: its steps up to each cut are fed as one piece,
        // and `Some(skip)` moves the cursor to step `skip` of the uniform
        // range first.
        let mut cut_lists: Vec<Vec<(Option<usize>, usize)>> =
            vec![vec![(None, kt)], (1..=kt).map(|end| (None, end)).collect()];
        for head in [2, kt / 2, 9, 11] {
            if head > 0 && head < kt {
                cut_lists.push(vec![(None, head), (None, kt)]);
                if head >= uniform.start && head < uniform.end {
                    cut_lists.push(vec![(None, head), (Some(uniform.end), kt)]);
                }
            }
        }
        let (mut compared, mut shared) = (0, 0);
        for block in blocks {
            for cuts in &cut_lists {
                let mut stream = g.gemm_blocks(plan);
                stream.skip_blocks(block).unwrap();
                for &(skip, end) in cuts {
                    if let Some(step) = skip {
                        stream.skip_to(step).unwrap();
                    }
                    let key = stream.piece_to(end).unwrap();
                    let segment = stream.steps_to(end).unwrap().unwrap();
                    let stripped: Vec<_> =
                        segment.instructions().iter().copied().map(strip).collect();
                    let (first, instructions) =
                        seen.entry(key).or_insert((shape, stripped.clone()));
                    assert_eq!(
                        *instructions,
                        stripped,
                        "kernel {}, {key:?}: {shape:?} block {block} differs from {first:?}",
                        g.kernel()
                    );
                    compared += 1;
                    shared += usize::from(*first != shape);
                }
                assert_eq!(stream.cursor_block(), block + 1, "the block is done");
            }
        }
        (compared, shared)
    }

    /// Checks that every step of each block's uniform step range emits the
    /// same instructions up to memory addresses (`strip`), as many as
    /// `WalkPlan::step_len` reports, that each step emits the
    /// `WalkPlan::piece_len` of its one step and each block
    /// `WalkPlan::block_len` instructions, and that no uniform step emits
    /// the not-taken loop branch or, under K-innermost, an accumulator load
    /// or store. Returns how many steps it compared.
    fn repeated_steps_match(
        g: &TraceGenerator,
        shape: GemmShape,
        strip: fn(rasa_isa::Instruction) -> rasa_isa::Instruction,
    ) -> usize {
        use rasa_isa::Instruction;
        let plan = g.plan(shape).unwrap();
        let (uniform, kt) = (plan.repeated_steps(), plan.steps());
        assert!(
            uniform.end < kt || uniform.is_empty(),
            "{uniform:?} of {kt}"
        );
        let resident = g.kernel().scheme.loop_order == LoopOrder::KInnermost;
        let mut compared = 0;
        let mut stream = g.gemm_blocks(plan);
        for block in 0..plan.blocks() {
            let step_len = plan.step_len(block);
            let steps: Vec<Vec<Instruction>> = (1..=kt)
                .map(|end| {
                    let segment = stream.steps_to(end).unwrap().unwrap();
                    assert_eq!(segment.len(), plan.piece_len(block, end - 1..end));
                    segment.instructions().iter().copied().map(strip).collect()
                })
                .collect();
            assert_eq!(stream.cursor_block(), block + 1);
            let what = format!("kernel {}, {shape:?}, block {block}", g.kernel());
            let emitted: usize = steps.iter().map(Vec::len).sum();
            assert_eq!(emitted, plan.block_len(block), "{what}");
            assert!(
                emitted <= plan.block_len(0),
                "{what}: block 0 is the widest"
            );
            for k in uniform.clone() {
                assert_eq!(steps[k], steps[uniform.start], "{what}, step {k}");
                assert_eq!(steps[k].len(), step_len, "{what}, step {k}");
                for inst in &steps[k] {
                    assert_ne!(*inst, Instruction::Branch { taken: false }, "{what}");
                    let accumulator = match inst {
                        Instruction::TileStore { .. } => true,
                        Instruction::TileLoad { dst, .. } => {
                            dst.index() < g.kernel().scheme.block.m * g.kernel().scheme.block.n
                        }
                        _ => false,
                    };
                    assert!(!(resident && accumulator), "{what}, step {k}: {inst}");
                }
                compared += 1;
            }
        }
        compared
    }

    #[test]
    fn loads_precede_every_matmul_operand() {
        // Spot-check the program order property the builder validates: the
        // B register of every matmul was loaded earlier in the trace.
        let g = TraceGenerator::amx_like();
        let p = g.gemm(GemmShape::new(48, 96, 48), "order").unwrap();
        let mut loaded = [false; 8];
        for inst in p.iter() {
            if inst.kind() == InstructionKind::TileLoad {
                for w in inst.tile_writes().iter() {
                    loaded[w.index()] = true;
                }
            }
            if let rasa_isa::Instruction::MatMul { a, b, .. } = inst {
                assert!(loaded[a.index()]);
                assert!(loaded[b.index()]);
            }
        }
    }
}
