//! The register-block walk of one GEMM under one kernel, worked out once.

use crate::{LoopOrder, TraceError, TraceGenerator};
use rasa_numeric::{GemmShape, NumericError, RegisterBlock, TileGrid};
use std::ops::Range;

/// Where a trace of one shape walks and where that walk repeats: built
/// once per shape by [`TraceGenerator::plan`], which validates the tile
/// grid, and read by the materialized trace, the streaming cursor
/// ([`TraceGenerator::gemm_blocks`]) and the simulator's fast-forward.
///
/// The walk visits register blocks `0..blocks()` n-block-major: block `b`
/// is row block `b % column` of block column `b / column`, a column being
/// the row blocks of one block-width strip of N tiles. Each block runs the
/// K loop, reduction steps `0..steps()`. Two levels of the walk repeat
/// identically up to memory addresses, which the timing model never reads:
///
/// * **blocks** — `[0, uniform_end())` is a run of identical
///   `period()`-block windows;
/// * **reduction steps** — every block repeats steps `repeated_steps()`
///   (all but its first and last), each `step_len(block)` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPlan {
    /// Register tiles along M, K and N.
    pub(crate) grid: (usize, usize, usize),
    block: RegisterBlock,
    /// Row blocks per block column.
    column: usize,
    blocks: usize,
    period: usize,
    uniform_end: usize,
    /// Whether a block's accumulators stay resident across its K loop
    /// (K-innermost) instead of being spilled around every step.
    resident: bool,
    /// Scalar instructions per step: pointer bumps and the loop branch.
    scalar: usize,
}

impl WalkPlan {
    /// Register blocks walked: the whole walk, or under a matmul cap the
    /// blocks up to and including the first one that brings the emitted
    /// `rasa_mm` count to the cap (so the last block may overshoot it; a
    /// cap past the whole trace leaves the walk whole).
    #[must_use]
    pub const fn blocks(&self) -> usize {
        self.blocks
    }

    /// Blocks per period of the uniform run.
    ///
    /// An N that does not divide by the block width makes the whole last
    /// column ragged, past the run. An M that does not divide by the block
    /// height makes the last block of every column ragged; the run is then
    /// whichever spans more periods — whole columns (period one column),
    /// or the full blocks inside the first column (period one block).
    #[must_use]
    pub const fn period(&self) -> usize {
        self.period
    }

    /// Where the uniform run of blocks ends: a multiple of
    /// [`WalkPlan::period`], at most [`WalkPlan::blocks`].
    #[must_use]
    pub const fn uniform_end(&self) -> usize {
        self.uniform_end
    }

    /// Reduction steps per block (the K tile count).
    #[must_use]
    pub const fn steps(&self) -> usize {
        self.grid.1
    }

    /// The reduction steps every block repeats identically up to memory
    /// addresses: all but the first and the last. Under K-innermost the
    /// first step also loads the block's accumulators and the last one
    /// stores them; with scalar overhead the last step's loop branch is the
    /// one not taken. The range is the same for every block, ragged edge
    /// blocks included (theirs repeat a narrower step), and empty when a
    /// block has fewer than three steps.
    #[must_use]
    pub fn repeated_steps(&self) -> Range<usize> {
        1..self.steps().saturating_sub(1).max(1)
    }

    /// `rasa_mm` instructions in the whole (uncapped) walk: one per (M, K,
    /// N) register tile.
    #[must_use]
    pub const fn matmuls(&self) -> usize {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// Row tiles × column tiles of block `block` of the walk (fewer in a
    /// ragged edge block).
    #[must_use]
    pub fn tiles(&self, block: usize) -> (usize, usize) {
        let (rows, cols) = self.tile_ranges(block);
        (rows.len(), cols.len())
    }

    /// Instructions one uniform reduction step of block `block` emits: its
    /// A and B tile loads and `rasa_mm`s, the accumulator loads and stores
    /// N-innermost spills around every step, and the scalar overhead.
    #[must_use]
    pub fn step_len(&self, block: usize) -> usize {
        let (rows, cols) = self.tiles(block);
        let spills = if self.resident { 0 } else { 2 * rows * cols };
        rows + cols + rows * cols + spills + self.scalar
    }

    /// Instructions block `block` emits: its reduction steps, and the loads
    /// and stores of its accumulators when they stay resident. Block 0 is
    /// the widest block of the walk.
    #[must_use]
    pub fn block_len(&self, block: usize) -> usize {
        self.piece_len(block, 0..self.steps())
    }

    /// Instructions reduction steps `steps` of block `block` emit: the
    /// steps, and the loads of resident accumulators when they include the
    /// block's first step and their stores when they include its last.
    #[must_use]
    pub fn piece_len(&self, block: usize, steps: Range<usize>) -> usize {
        let (rows, cols) = self.tiles(block);
        let ends = usize::from(steps.start == 0) + usize::from(steps.end == self.steps());
        let accumulators = if self.resident { ends * rows * cols } else { 0 };
        steps.len() * self.step_len(block) + accumulators
    }

    /// The M tiles and N tiles block `block` covers.
    pub(crate) fn tile_ranges(&self, block: usize) -> (Range<usize>, Range<usize>) {
        let (mt, _, nt) = self.grid;
        let (nb, mb) = (block / self.column, block % self.column);
        let (m, n) = (self.block.m, self.block.n);
        (m * mb..(m * mb + m).min(mt), n * nb..(n * nb + n).min(nt))
    }
}

impl TraceGenerator {
    /// The walk a trace of `shape` takes under this generator's kernel:
    /// its tile grid, (capped) block count and repeating structure.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM, or one whose tile
    /// counts overflow `usize`.
    pub fn plan(&self, shape: GemmShape) -> Result<WalkPlan, TraceError> {
        let kernel = self.kernel();
        let grid = TileGrid::new(shape, kernel.tiling)?;
        let (mt, kt, nt) = (grid.m_tiles(), grid.k_tiles(), grid.n_tiles());
        // Every product of fewer grid dimensions fits once this one does.
        checked_product(shape, &[mt, kt, nt])?;
        let block = kernel.scheme.block;
        let column = block.m_blocks(mt);
        let walk = block.n_blocks(nt) * column;
        let blocks = match kernel.max_matmuls {
            None => walk,
            Some(cap) => {
                // The full-width columns the cap covers whole, then the
                // rows of the next column up to the block that reaches it.
                let column_matmuls = checked_product(shape, &[kt, mt, block.n])?;
                let columns = (cap / column_matmuls).min(nt / block.n);
                let width = (nt - columns * block.n).min(block.n);
                if width == 0 {
                    walk
                } else {
                    let rows = (cap - columns * column_matmuls)
                        .div_ceil(checked_product(shape, &[kt, width, block.m])?);
                    columns * column + rows.min(column)
                }
            }
        };
        let (period, uniform_end) = if mt % block.m == 0 {
            (1, (nt / block.n * column).min(blocks))
        } else {
            let columns = (nt / block.n).min(blocks / column);
            let first_column = (mt / block.m).min(blocks);
            if columns >= first_column {
                (column, columns * column)
            } else {
                (1, first_column)
            }
        };
        let scalar = if kernel.emit_scalar_overhead {
            usize::from(kernel.scheme.scalar_ops_per_step) + 1
        } else {
            0
        };
        Ok(WalkPlan {
            grid: (mt, kt, nt),
            block,
            column,
            blocks,
            period,
            uniform_end,
            resident: kernel.scheme.loop_order == LoopOrder::KInnermost,
            scalar,
        })
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
