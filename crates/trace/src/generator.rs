use crate::{GemmKernelConfig, LoopOrder, MatmulOrder, TraceError};
use rasa_isa::{GprReg, IsaConfig, MemRef, Program, ProgramBuilder, TileReg};
use rasa_numeric::{ConvShape, GemmShape, NumericError, TileGrid};

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
#[derive(Debug, Clone)]
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

    /// The total number of `rasa_mm` instructions a full (uncapped) trace of
    /// `shape` contains: one per (M, K, N) register tile.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM, or one with more
    /// register tiles than `usize` counts.
    pub fn matmul_count(&self, shape: GemmShape) -> Result<usize, TraceError> {
        let (mt, kt, nt) = self.tile_dims(shape)?;
        Ok(mt * kt * nt)
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

    /// The (mt, kt, nt) tile grid of a shape under this generator's tiling.
    /// Its tile count `mt·kt·nt` is checked to fit in `usize`, so every
    /// product of fewer grid dimensions fits too.
    pub(crate) fn tile_dims(&self, shape: GemmShape) -> Result<(usize, usize, usize), TraceError> {
        let grid = TileGrid::new(shape, self.kernel.tiling)?;
        let dims = (grid.m_tiles(), grid.k_tiles(), grid.n_tiles());
        checked_product(shape, &[dims.0, dims.1, dims.2])?;
        Ok(dims)
    }

    /// The number of register blocks a trace of `shape` walks: every
    /// trace, materialized or streamed, is exactly blocks
    /// `0..block_count`. Blocks are ordered n-block-major: linear index
    /// `nb * mb_count + mb`, with the block shape taken from the kernel
    /// scheme (2×2 by default).
    ///
    /// A matmul cap shortens the walk to the blocks up to and including
    /// the first one that brings the emitted `rasa_mm` count to the cap, so
    /// the last block may overshoot it; a cap past the whole trace leaves
    /// the walk whole.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM, or one whose tile
    /// counts overflow `usize`.
    pub fn block_count(&self, shape: GemmShape) -> Result<usize, TraceError> {
        let (mt, kt, nt) = self.tile_dims(shape)?;
        let block = self.kernel.scheme.block;
        let column = block.m_blocks(mt);
        let walk = block.n_blocks(nt) * column;
        let Some(cap) = self.kernel.max_matmuls else {
            return Ok(walk);
        };
        // The full-width columns the cap covers whole, then the rows of the
        // next column up to the block that reaches it.
        let column_matmuls = checked_product(shape, &[kt, mt, block.n])?;
        let columns = (cap / column_matmuls).min(nt / block.n);
        let width = (nt - columns * block.n).min(block.n);
        if width == 0 {
            return Ok(walk);
        }
        let rows = (cap - columns * column_matmuls)
            .div_ceil(checked_product(shape, &[kt, width, block.m])?);
        Ok(columns * column + rows.min(column))
    }

    /// The periodic structure of `shape`'s block walk, as `(period,
    /// uniform_end)`: blocks `[0, uniform_end)` are a run of identical
    /// `period`-block windows — the same instructions once memory
    /// addresses are stripped — inside the (possibly capped) walk
    /// `0..block_count`.
    ///
    /// The walk is n-block-major: a column of row blocks per block-width
    /// tile column. An N that does not divide by the block width makes the
    /// whole last column ragged, and it lies past `uniform_end`. An M that
    /// does not divide by the block height makes the last block of every
    /// column ragged; the run is then whichever spans more periods — whole
    /// columns (period one column), or the full blocks inside the first
    /// column (period one block).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM.
    pub fn uniform_blocks(&self, shape: GemmShape) -> Result<(usize, usize), TraceError> {
        let (mt, _, nt) = self.tile_dims(shape)?;
        let walk = self.block_count(shape)?;
        let block = self.kernel.scheme.block;
        let column = block.m_blocks(mt);
        if mt % block.m == 0 {
            return Ok((1, (nt / block.n * column).min(walk)));
        }
        let columns = (nt / block.n).min(walk / column);
        let first_column = (mt / block.m).min(walk);
        if columns >= first_column {
            Ok((column, columns * column))
        } else {
            Ok((1, first_column))
        }
    }

    /// Emits one register block (accumulator loads, the K reduction loop,
    /// accumulator stores) for the block at `(nb, mb)`. The block shape, loop
    /// order and scalar-overhead model all come from the kernel scheme; the
    /// default scheme reproduces the pre-scheme 2×2 Algorithm-1 sequence
    /// byte for byte. Shared by the materialized [`TraceGenerator::gemm`]
    /// path and the streaming segmenter, so both emit the identical
    /// instruction sequence.
    pub(crate) fn emit_register_block(
        &self,
        b: &mut ProgramBuilder,
        (mt, kt, nt): (usize, usize, usize),
        nb: usize,
        mb: usize,
    ) {
        // Register allocation generalizing Algorithm 1: accumulators first,
        // then the weight (B) tiles, then the activation (A) tiles — for the
        // default 2×2 block exactly C=treg0..3, B=treg4..5, A=treg6..7.
        let block = self.kernel.scheme.block;
        let acc = block.m * block.n;
        let c_regs: Vec<usize> = (0..acc).collect();
        let b_regs: Vec<usize> = (acc..acc + block.n).collect();
        let a_regs: Vec<usize> = (acc + block.n..acc + block.n + block.m).collect();
        let treg =
            |i: usize| TileReg::new(i as u8).expect("validated register blocks fit the tile file");
        let a_ptr = GprReg::new(1).expect("valid gpr");
        let b_ptr = GprReg::new(2).expect("valid gpr");
        let k_counter = GprReg::new(3).expect("valid gpr");
        let scalar_regs = [a_ptr, b_ptr, k_counter];

        let n_here: Vec<usize> = (block.n * nb..(block.n * nb + block.n).min(nt)).collect();
        let m_here: Vec<usize> = (block.m * mb..(block.m * mb + block.m).min(mt)).collect();
        let c_reg_of = |m_idx: usize, n_idx: usize| treg(c_regs[m_idx * n_here.len() + n_idx]);

        // Accumulator-residency windows: K-innermost keeps the block's C
        // tiles live across the whole reduction (one window); N-innermost
        // spills and reloads them around every K step (kt one-step windows).
        let windows: Vec<(usize, usize)> = match self.kernel.scheme.loop_order {
            LoopOrder::KInnermost => vec![(0, kt)],
            LoopOrder::NInnermost => (0..kt).map(|k| (k, k + 1)).collect(),
        };

        for (k_begin, k_end) in windows {
            // Load the accumulator tiles for this residency window.
            for (m_idx, &mi) in m_here.iter().enumerate() {
                for (n_idx, &ni) in n_here.iter().enumerate() {
                    b.tile_load(
                        c_reg_of(m_idx, n_idx),
                        MemRef::tile(self.c_addr(mi, ni, nt), TILE_STRIDE),
                    );
                }
            }

            // Reduction loop: each iteration consumes one K tile.
            for ki in k_begin..k_end {
                match self.kernel.matmul_order {
                    MatmulOrder::WeightPaired => {
                        // Algorithm 1: each weight register feeds a run of
                        // consecutive rasa_mm instructions, and the A tiles
                        // loaded under the first weight are reused by all
                        // later weights.
                        for (n_idx, &ni) in n_here.iter().enumerate() {
                            b.tile_load(
                                treg(b_regs[n_idx]),
                                MemRef::tile(self.b_addr(ki, ni, nt), TILE_STRIDE),
                            );
                            for (m_idx, &mi) in m_here.iter().enumerate() {
                                if n_idx == 0 {
                                    b.tile_load(
                                        treg(a_regs[m_idx]),
                                        MemRef::tile(self.a_addr(mi, ki, kt), TILE_STRIDE),
                                    );
                                }
                                b.matmul(
                                    c_reg_of(m_idx, n_idx),
                                    treg(a_regs[m_idx]),
                                    treg(b_regs[n_idx]),
                                );
                            }
                        }
                    }
                    MatmulOrder::Interleaved => {
                        // Load every operand tile up front, then emit the
                        // rasa_mm instructions alternating weight
                        // registers (no consecutive reuse).
                        for (n_idx, &ni) in n_here.iter().enumerate() {
                            b.tile_load(
                                treg(b_regs[n_idx]),
                                MemRef::tile(self.b_addr(ki, ni, nt), TILE_STRIDE),
                            );
                        }
                        for (m_idx, &mi) in m_here.iter().enumerate() {
                            b.tile_load(
                                treg(a_regs[m_idx]),
                                MemRef::tile(self.a_addr(mi, ki, kt), TILE_STRIDE),
                            );
                            #[allow(clippy::needless_range_loop)]
                            // b_regs and c_reg_of share the index
                            for n_idx in 0..n_here.len() {
                                b.matmul(
                                    c_reg_of(m_idx, n_idx),
                                    treg(a_regs[m_idx]),
                                    treg(b_regs[n_idx]),
                                );
                            }
                        }
                    }
                }

                if self.kernel.emit_scalar_overhead {
                    // Pointer bumps for the A/B streams and the loop
                    // bookkeeping of the K loop, sized by the scheme's
                    // scalar-overhead model.
                    for op in 0..self.kernel.scheme.scalar_ops_per_step as usize {
                        let r = scalar_regs[op % scalar_regs.len()];
                        b.scalar_alu(r, &[r]);
                    }
                    b.branch(ki + 1 != kt);
                }
            }

            // Write the window's accumulators back.
            for (m_idx, &mi) in m_here.iter().enumerate() {
                for (n_idx, &ni) in n_here.iter().enumerate() {
                    b.tile_store(
                        MemRef::tile(self.c_addr(mi, ni, nt), TILE_STRIDE),
                        c_reg_of(m_idx, n_idx),
                    );
                }
            }
        }
    }

    /// Emits the tiled GEMM trace for `shape`.
    ///
    /// The loop nest is `for n-block { for m-block { load C; for k { … };
    /// store C } }` with the scheme's register blocking (2×2 by default),
    /// which keeps each B tile register live across consecutive `rasa_mm`
    /// instructions — the reuse pattern WLBP and WLS exploit.
    ///
    /// The streaming counterpart, [`TraceGenerator::gemm_blocks`] over
    /// `0..block_count`, emits the identical instruction sequence as bounded
    /// [`rasa_isa::ProgramSegment`]s without materializing the whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM and
    /// [`TraceError::Emit`] if the emitted program fails ISA validation
    /// (which would be a generator bug).
    pub fn gemm(&self, shape: GemmShape, name: &str) -> Result<Program, TraceError> {
        let dims = self.tile_dims(shape)?;
        let column = self.kernel.scheme.block.m_blocks(dims.0);

        let mut b = ProgramBuilder::new(self.isa);
        b.set_name(name);

        for block in 0..self.block_count(shape)? {
            self.emit_register_block(&mut b, dims, block / column, block % column);
        }

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

/// The product of `factors`, or a [`TraceError::Shape`] naming `shape`
/// when it overflows `usize`.
fn checked_product(shape: GemmShape, factors: &[usize]) -> Result<usize, TraceError> {
    factors
        .iter()
        .try_fold(1usize, |product, &factor| product.checked_mul(factor))
        .ok_or_else(|| {
            TraceError::Shape(NumericError::InvalidTiling {
                reason: format!("the tile counts of {shape} overflow usize"),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_isa::InstructionKind;

    #[test]
    fn exact_shape_matmul_count() {
        let g = TraceGenerator::amx_like();
        // 64/16 = 4 M tiles, 64/32 = 2 K tiles, 64/16 = 4 N tiles.
        let p = g.gemm(GemmShape::new(64, 64, 64), "exact").unwrap();
        assert_eq!(p.count_matmuls(), 32);
        assert_eq!(g.matmul_count(GemmShape::new(64, 64, 64)).unwrap(), 32);
        assert_eq!(p.name(), "exact");
    }

    #[test]
    fn ragged_shape_matmul_count() {
        let g = TraceGenerator::amx_like();
        // 50→4 M tiles, 70→3 K tiles, 40→3 N tiles = 36 tiles.
        let shape = GemmShape::new(50, 70, 40);
        let p = g.gemm(shape, "ragged").unwrap();
        assert_eq!(p.count_matmuls(), 36);
        assert_eq!(p.count_matmuls(), g.matmul_count(shape).unwrap());
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
        let full = g.matmul_count(shape).unwrap();
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
        let expected = g.matmul_count(conv.to_gemm()).unwrap();
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
        assert!(g.matmul_count(GemmShape::new(0, 32, 16)).is_err());
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
            for result in [
                g.matmul_count(huge),
                g.block_count(huge),
                g.uniform_blocks(huge).map(|(period, _)| period),
            ] {
                let err = result.unwrap_err();
                assert!(matches!(err, TraceError::Shape(_)), "{err}");
                assert!(err.to_string().contains("overflow"), "{err}");
            }
        }
        // The largest grid that fits still counts.
        let edge = GemmShape::new(1 << 35, 1 << 37, 16);
        assert_eq!(
            TraceGenerator::amx_like().matmul_count(edge).unwrap(),
            1 << 63
        );
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
                let blocks = full.block_count(shape).unwrap();
                // Running (rasa_mm, instruction) totals after each block.
                let mut prefix = vec![(0, 0)];
                for block in 0..blocks {
                    let segment = full
                        .gemm_blocks(shape, "block", block..block + 1, usize::MAX)
                        .unwrap()
                        .next()
                        .unwrap()
                        .unwrap();
                    let (mm, len) = prefix[block];
                    prefix.push((mm + segment.count_matmuls(), len + segment.len()));
                }
                let total = prefix[blocks].0;
                assert_eq!(total, program.count_matmuls());
                // Caps inside and on the edge of the first blocks, the
                // ragged last block of the first column, the first block of
                // the second column and the last block, then past the walk.
                let (mt, _, _) = full.tile_dims(shape).unwrap();
                let column = kernel.scheme.block.m_blocks(mt);
                let mut caps = vec![total + 1, 10 * total];
                for block in [0, 1, column - 1, column, blocks - 1] {
                    caps.extend([prefix[block].0 + 1, prefix[block + 1].0]);
                }
                for cap in caps {
                    let expected = (1..=blocks).find(|&b| prefix[b].0 >= cap).unwrap_or(blocks);
                    let capped = full.with_kernel(kernel.with_max_matmuls(cap)).unwrap();
                    let what = format!("block {m}x{n}, {shape:?}, cap {cap}");
                    assert_eq!(capped.block_count(shape).unwrap(), expected, "{what}");
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
        // The premise of the simulator's steady-state fast-forward: every
        // stride-aligned window of the uniform region emits the same
        // instructions up to memory addresses, which the timing model
        // never reads.
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
        // and N for some block shapes only; the last has a ragged M with
        // long columns, so its first column's interior is the longer run.
        let shapes = [
            GemmShape::new(192, 64, 192),
            GemmShape::new(200, 64, 192),
            GemmShape::new(192, 70, 200),
            GemmShape::new(150, 40, 130),
            GemmShape::new(400, 64, 40),
        ];
        let (mut compared, mut first_column_runs) = (0, 0);
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
                        for shape in shapes {
                            let (period, uniform_end) = g.uniform_blocks(shape).unwrap();
                            assert_eq!(uniform_end % period, 0);
                            assert!(uniform_end <= g.block_count(shape).unwrap());
                            let (mt, _, _) = g.tile_dims(shape).unwrap();
                            if mt % m != 0 && period == 1 && uniform_end > 1 {
                                first_column_runs += 1;
                            }
                            for stride in [period, 2 * period, 3 * period] {
                                let window = |lo: usize| -> Vec<Instruction> {
                                    g.gemm_blocks(shape, "window", lo..lo + stride, usize::MAX)
                                        .unwrap()
                                        .flat_map(|segment| {
                                            segment.unwrap().instructions().to_vec()
                                        })
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
