//! Streaming trace generation: bounded [`ProgramSegment`]s instead of one
//! materialized [`rasa_isa::Program`].
//!
//! The materialized [`TraceGenerator::gemm`] path holds the entire
//! instruction trace in memory — O(workload) — and forces the consumer to
//! wait for the whole trace before simulating a single cycle. The streaming
//! path decouples production from consumption: a [`GemmTraceStream`] walks
//! the same n-block-major register-block order and hands out validated
//! segments of roughly `segment_size` instructions, so the resident
//! footprint is O(segment) however large the workload, and a consumer (the
//! resumable `rasa-cpu` core) can simulate each segment as soon as it is
//! generated.
//!
//! Two invariants make the stream a drop-in replacement for the
//! materialized path:
//!
//! * **identical sequence** — segments are cut only at register-block
//!   boundaries and both paths share the same block emitter, so
//!   concatenating the segments reproduces [`TraceGenerator::gemm`]'s
//!   instruction sequence byte for byte, matmul-cap truncation included
//!   (both walk exactly the blocks of [`TraceGenerator::block_count`]);
//! * **carried validation** — segments are validated by the shared
//!   [`rasa_isa::ProgramBuilder`] segmenter with register state carried
//!   across segments, so a streamed trace is exactly as well-formed as its
//!   materialized counterpart.
//!
//! [`TraceGenerator::gemm_blocks`] is the one entry point: it opens a
//! stream over a range of register blocks (a *shard*; `0..block_count` is
//! the whole walk). Shards partition the block walk, so
//! generating `[0..b1)`, `[b1..b2)`, … and concatenating the results in
//! order reproduces the full sequence — the granularity at which
//! `rasa-sim` feeds a run around the block strides it fast-forwards.
//!
//! Inside a block the stream is a **step cursor**: [`GemmTraceStream::steps_to`]
//! emits the block's reduction steps up to a given one as a segment, and
//! [`GemmTraceStream::skip_to`] moves past steps of the block's uniform
//! range ([`TraceGenerator::uniform_steps`]) without emitting them — what
//! `rasa-sim` does for the steps it fast-forwards. One builder carries the
//! whole block, so the steps after a skip still validate against the
//! accumulator and operand loads of the block's first step.
//!
//! Every `steps_to` feed has a [`PieceKey`] ([`GemmTraceStream::piece_to`]):
//! the block's shape in tiles, the number of steps and whether the piece
//! opens or closes the block. Two feeds with equal keys emit the same
//! instructions up to memory addresses, whatever block, shape or cap of one
//! kernel they come from — so `rasa-sim` can recall what feeding a piece did
//! instead of generating it again, and [`GemmTraceStream::pass_to`] moves
//! the cursor past a recalled piece without emitting it.

use crate::generator::uniform_step_range;
use crate::{TraceError, TraceGenerator};
use rasa_isa::{IsaConfig, ProgramBuilder, ProgramSegment};
use rasa_numeric::GemmShape;
use std::ops::Range;

/// Default target size (in instructions) of a streamed segment.
///
/// Large enough that per-segment overhead (validation bookkeeping, core
/// feed calls) is negligible, small enough that a stream of the
/// largest Table I layer keeps three orders of magnitude less trace
/// resident than the materialized path.
pub const DEFAULT_SEGMENT_SIZE: usize = 8192;

/// What one [`GemmTraceStream::steps_to`] feed emits, up to memory
/// addresses: a run of reduction steps of one register block.
///
/// A step emits the block's A and B tile loads, its `rasa_mm`s and its
/// scalar overhead, all sized by the block's rows and columns; the block's
/// first step also loads the accumulators, and its last one takes the loop
/// branch not taken and stores them. Under one kernel, two feeds with equal
/// keys therefore emit the same instructions once addresses are stripped,
/// across the blocks of a walk and across shapes and caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PieceKey {
    /// Row tiles × column tiles of the block (fewer in a ragged edge
    /// block).
    pub block: (usize, usize),
    /// Reduction steps emitted.
    pub steps: usize,
    /// Whether the piece starts at the block's first step.
    pub opens_block: bool,
    /// Whether the piece ends with the block's last step.
    pub closes_block: bool,
}

/// A resumable walk over a GEMM trace's register blocks, emitting bounded
/// segments in program order. Created by [`TraceGenerator::gemm_blocks`].
#[derive(Debug, Clone)]
pub struct GemmTraceStream {
    generator: TraceGenerator,
    name: String,
    dims: (usize, usize, usize),
    mb_count: usize,
    /// Blocks not yet emitted whole; the cursor is in the first of them.
    blocks: Range<usize>,
    /// The cursor's next reduction step in block `blocks.start` (0 at a
    /// block boundary).
    step: usize,
    emitted: usize,
    segment_size: usize,
    builder: ProgramBuilder,
}

impl GemmTraceStream {
    fn new(
        generator: &TraceGenerator,
        shape: GemmShape,
        name: &str,
        blocks: Range<usize>,
        segment_size: usize,
    ) -> Result<Self, TraceError> {
        if segment_size == 0 {
            return Err(TraceError::Stream {
                reason: "segment size must be at least one instruction".to_string(),
            });
        }
        // A kernel scheme may pin its preferred streaming granularity;
        // otherwise the caller's segment size applies.
        let segment_size = generator
            .kernel()
            .scheme
            .segment_size
            .unwrap_or(segment_size);
        let dims = generator.tile_dims(shape)?;
        let (mt, _, _) = dims;
        let total_blocks = generator.block_count(shape)?;
        if blocks.start > blocks.end || blocks.end > total_blocks {
            return Err(TraceError::Stream {
                reason: format!(
                    "block range {}..{} is outside the trace's {total_blocks} register blocks",
                    blocks.start, blocks.end
                ),
            });
        }
        Ok(GemmTraceStream {
            generator: generator.clone(),
            name: name.to_string(),
            dims,
            mb_count: generator.kernel().scheme.block.m_blocks(mt),
            blocks,
            step: 0,
            emitted: 0,
            segment_size,
            builder: ProgramBuilder::new(*generator.isa()),
        })
    }

    /// The target segment size in instructions (segments may exceed it by
    /// at most one register block, the cut granularity).
    #[must_use]
    pub const fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// `rasa_mm` instructions emitted so far.
    #[must_use]
    pub const fn emitted_matmuls(&self) -> usize {
        self.emitted
    }

    /// Register blocks not yet emitted whole, the cursor's included (0 once
    /// the walk has finished).
    #[must_use]
    pub fn blocks_remaining(&self) -> usize {
        self.blocks.len()
    }

    /// The ISA configuration the stream emits for.
    #[must_use]
    pub fn isa(&self) -> &IsaConfig {
        self.generator.isa()
    }

    /// Workload / kernel identifier carried into reports.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reduction steps per register block (the K tile count).
    #[must_use]
    pub const fn block_steps(&self) -> usize {
        self.dims.1
    }

    /// Instructions one uniform reduction step of the cursor's block emits
    /// (fewer in a ragged edge block; 0 once the walk has finished).
    #[must_use]
    pub fn step_instructions(&self) -> usize {
        if self.blocks.is_empty() {
            return 0;
        }
        let (rows, cols) = self.block_tiles();
        self.generator.block_step_instructions(rows, cols)
    }

    /// The index of the cursor's block in the stream's block range (its
    /// end once the walk has finished).
    #[must_use]
    pub const fn cursor_block(&self) -> usize {
        self.blocks.start
    }

    /// The key of the piece [`GemmTraceStream::steps_to`] would emit up to
    /// reduction step `end`, or `None` when it would emit no step.
    #[must_use]
    pub fn piece_to(&self, end: usize) -> Option<PieceKey> {
        let end = end.min(self.dims.1);
        if self.blocks.is_empty() || end <= self.step {
            return None;
        }
        Some(PieceKey {
            block: self.block_tiles(),
            steps: end - self.step,
            opens_block: self.step == 0,
            closes_block: end == self.dims.1,
        })
    }

    /// Moves the cursor exactly as [`GemmTraceStream::steps_to`] would,
    /// without emitting the steps. The builder then never sees them: a
    /// stream that passes the start of a block without its end cannot emit
    /// the rest of that block, whose steps read the accumulators it would
    /// have loaded.
    pub fn pass_to(&mut self, end: usize) {
        if !self.blocks.is_empty() {
            self.step = self.step.max(end.min(self.dims.1));
            if self.step == self.dims.1 {
                self.blocks.start += 1;
                self.step = 0;
            }
        }
    }

    /// Moves the cursor from a block boundary past the next `blocks`
    /// register blocks without emitting them.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Stream`] when the cursor is inside a block or
    /// fewer blocks remain.
    pub fn skip_blocks(&mut self, blocks: usize) -> Result<(), TraceError> {
        if self.step != 0 || blocks > self.blocks.len() {
            return Err(TraceError::Stream {
                reason: format!(
                    "cannot skip {blocks} blocks from step {} with {} blocks left",
                    self.step,
                    self.blocks.len()
                ),
            });
        }
        self.blocks.start += blocks;
        Ok(())
    }

    /// Row tiles × column tiles of the cursor's block.
    fn block_tiles(&self) -> (usize, usize) {
        let (mt, _, nt) = self.dims;
        let block = self.generator.kernel().scheme.block;
        let (nb, mb) = self.block();
        (
            (mt - block.m * mb).min(block.m),
            (nt - block.n * nb).min(block.n),
        )
    }

    /// The cursor's block as `(n-block, m-block)` coordinates.
    const fn block(&self) -> (usize, usize) {
        (
            self.blocks.start / self.mb_count,
            self.blocks.start % self.mb_count,
        )
    }

    /// Emits the cursor's block up to reduction step `end` (clamped to the
    /// block) into the builder, moving to the next block at its end.
    fn emit_to(&mut self, end: usize) {
        let end = end.min(self.dims.1);
        if self.step < end {
            let block = self.block();
            self.generator
                .emit_steps(&mut self.builder, self.dims, block, self.step..end);
            self.step = end;
        }
        if self.step == self.dims.1 {
            self.blocks.start += 1;
            self.step = 0;
        }
    }

    /// Drains the builder into a validated segment, if it holds any
    /// instruction.
    fn flush(&mut self) -> Result<Option<ProgramSegment>, TraceError> {
        if self.builder.is_empty() {
            return Ok(None);
        }
        let segment = self.builder.finish_segment()?;
        self.emitted += segment.count_matmuls();
        Ok(Some(segment))
    }

    /// Produces the next segment, or `None` when the stream is exhausted:
    /// the rest of the cursor's block, then whole blocks until the segment
    /// target is reached.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Emit`] when a segment fails ISA validation
    /// (a generator bug, surfaced rather than panicking).
    pub fn next_segment(&mut self) -> Result<Option<ProgramSegment>, TraceError> {
        while !self.blocks.is_empty() && self.builder.len() < self.segment_size {
            self.emit_to(self.dims.1);
        }
        self.flush()
    }

    /// Emits the cursor's block from its next step up to reduction step
    /// `end` (clamped to [`GemmTraceStream::block_steps`]) as one segment;
    /// `None` when that is no step. Reaching the block's end moves the
    /// cursor to step 0 of the next block.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Emit`] when the segment fails ISA validation.
    pub fn steps_to(&mut self, end: usize) -> Result<Option<ProgramSegment>, TraceError> {
        if !self.blocks.is_empty() {
            self.emit_to(end);
        }
        self.flush()
    }

    /// Moves the cursor to reduction step `step` of its block without
    /// emitting the steps in between, all of which must lie in the block's
    /// uniform range. Their tile writes go to registers the block's first
    /// step already wrote, so the carried validation state stays exact.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Stream`] when the walk has finished or the
    /// skipped steps leave the uniform range.
    pub fn skip_to(&mut self, step: usize) -> Result<(), TraceError> {
        let uniform = uniform_step_range(self.dims.1);
        if self.blocks.is_empty()
            || step < self.step
            || self.step < uniform.start
            || step > uniform.end
        {
            return Err(TraceError::Stream {
                reason: format!(
                    "cannot skip from step {} to step {step}: only steps {}..{} of a block repeat",
                    self.step, uniform.start, uniform.end
                ),
            });
        }
        self.step = step;
        Ok(())
    }
}

/// Iterator convenience: `for segment in stream { … }` over
/// [`GemmTraceStream::next_segment`] results.
impl Iterator for GemmTraceStream {
    type Item = Result<ProgramSegment, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_segment().transpose()
    }
}

impl TraceGenerator {
    /// Opens a streaming trace over a range of `shape`'s register blocks —
    /// a *shard* of the full walk (see [`TraceGenerator::block_count`] for
    /// the block indexing), emitted as validated segments of roughly
    /// `segment_size` instructions. Over `0..block_count` the stream is
    /// the same instruction sequence as [`TraceGenerator::gemm`]
    /// (including matmul-cap truncation), and shards over a partition of
    /// `0..block_count` concatenate, in order, to that sequence. A kernel
    /// scheme carrying a segment size hint overrides `segment_size`.
    ///
    /// Segment indices and instruction offsets are shard-local. A matmul
    /// cap bounds the walk itself, so shards of a capped trace partition
    /// its shorter `0..block_count`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Shape`] for an empty GEMM and
    /// [`TraceError::Stream`] for a zero segment size or an out-of-range
    /// block range.
    pub fn gemm_blocks(
        &self,
        shape: GemmShape,
        name: &str,
        blocks: Range<usize>,
        segment_size: usize,
    ) -> Result<GemmTraceStream, TraceError> {
        GemmTraceStream::new(self, shape, name, blocks, segment_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_isa::Program;

    /// A stream over the whole block walk of `shape`.
    fn whole(
        g: &TraceGenerator,
        shape: GemmShape,
        name: &str,
        segment_size: usize,
    ) -> Result<GemmTraceStream, TraceError> {
        g.gemm_blocks(shape, name, 0..g.block_count(shape)?, segment_size)
    }

    fn reassemble(mut stream: GemmTraceStream, name: &str) -> Program {
        let mut segments = Vec::new();
        while let Some(segment) = stream.next_segment().unwrap() {
            segments.push(segment);
        }
        Program::from_segments(segments, name).unwrap()
    }

    #[test]
    fn stream_reproduces_the_materialized_trace() {
        let g = TraceGenerator::amx_like();
        for (m, k, n) in [(64, 64, 64), (50, 70, 40), (7, 5, 3), (1, 1024, 64)] {
            let shape = GemmShape::new(m, k, n);
            let program = g.gemm(shape, "parity").unwrap();
            for segment_size in [1, 64, 1 << 20] {
                let stream = whole(&g, shape, "parity", segment_size).unwrap();
                assert_eq!(stream.name(), "parity");
                assert_eq!(stream.isa(), g.isa());
                let rebuilt = reassemble(stream, "parity");
                assert_eq!(rebuilt, program, "{m}x{k}x{n} @ {segment_size}");
            }
        }
    }

    #[test]
    fn stream_honours_the_matmul_cap_exactly() {
        let g = TraceGenerator::amx_like()
            .with_kernel(crate::GemmKernelConfig::amx_like().with_max_matmuls(10))
            .unwrap();
        let shape = GemmShape::new(512, 512, 512);
        let program = g.gemm(shape, "capped").unwrap();
        let rebuilt = reassemble(whole(&g, shape, "capped", 32).unwrap(), "capped");
        assert_eq!(rebuilt, program);
        assert!(rebuilt.count_matmuls() < g.matmul_count(shape).unwrap());
    }

    #[test]
    fn segments_are_bounded_and_cut_at_block_boundaries() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(256, 128, 256);
        let segment_size = 200;
        let mut stream = whole(&g, shape, "bounded", segment_size).unwrap();
        assert_eq!(stream.segment_size(), segment_size);
        // One register block is 4 C loads + kt K-steps (≤ 12 instructions
        // each at kt = 4) + 4 stores: the overshoot bound.
        let max_block = 4 + 4 * 12 + 4;
        let mut total = 0usize;
        let mut count = 0usize;
        while let Some(segment) = stream.next_segment().unwrap() {
            assert!(!segment.is_empty());
            assert!(
                segment.len() < segment_size + max_block,
                "segment of {} instructions",
                segment.len()
            );
            assert_eq!(segment.index(), count);
            assert_eq!(segment.first_instruction(), total);
            total += segment.len();
            count += 1;
        }
        assert_eq!(stream.blocks_remaining(), 0);
        assert_eq!(total, g.gemm(shape, "bounded").unwrap().len());
        assert!(count > 1, "expected a multi-segment stream");
    }

    #[test]
    fn matmul_counts_agree_between_stream_count_and_materialized_paths() {
        // Satellite: `matmul_count` vs actually emitted `rasa_mm`s on both
        // gemm and conv paths, capped and uncapped, shared with the
        // streaming parity machinery.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(100, 90, 80);
        let predicted = g.matmul_count(shape).unwrap();
        assert_eq!(g.gemm(shape, "mm").unwrap().count_matmuls(), predicted);
        let mut streamed = 0usize;
        let mut stream = whole(&g, shape, "mm", 128).unwrap();
        while let Some(segment) = stream.next_segment().unwrap() {
            streamed += segment.count_matmuls();
        }
        assert_eq!(streamed, predicted);
        assert_eq!(stream.emitted_matmuls(), predicted);

        // Conv: the lowered GEMM drives both the count and the emission.
        let conv = rasa_numeric::ConvShape::new(4, 16, 14, 14, 32, 3, 3, 1, 1);
        let predicted = g.matmul_count(conv.to_gemm()).unwrap();
        assert_eq!(g.conv(&conv, "conv").unwrap().count_matmuls(), predicted);
        let streamed: usize = whole(&g, conv.to_gemm(), "conv", 256)
            .unwrap()
            .map(|s| s.unwrap().count_matmuls())
            .sum();
        assert_eq!(streamed, predicted);

        // Capped: emitted counts match between paths but undershoot the
        // full tiling, overshooting the cap by at most one register block.
        let capped = g
            .with_kernel(crate::GemmKernelConfig::amx_like().with_max_matmuls(64))
            .unwrap();
        let program = capped.gemm(shape, "capped").unwrap();
        let streamed: usize = whole(&capped, shape, "capped", 128)
            .unwrap()
            .map(|s| s.unwrap().count_matmuls())
            .sum();
        assert_eq!(streamed, program.count_matmuls());
        assert!((64..64 + 4).contains(&streamed));
        assert!(streamed < predicted);
    }

    #[test]
    fn stream_parity_holds_for_non_default_schemes() {
        use crate::{KernelSchemeBuilder, LoopOrder, MatmulOrder};
        let shape = GemmShape::new(80, 70, 60);
        for kernel in [
            KernelSchemeBuilder::new().with_block(1, 2).build().unwrap(),
            KernelSchemeBuilder::new().with_block(3, 1).build().unwrap(),
            KernelSchemeBuilder::new()
                .with_loop_order(LoopOrder::NInnermost)
                .with_matmul_order(MatmulOrder::Interleaved)
                .build()
                .unwrap(),
        ] {
            let g = TraceGenerator::amx_like().with_kernel(kernel).unwrap();
            let program = g.gemm(shape, "scheme-parity").unwrap();
            for segment_size in [1, 96, 1 << 20] {
                let stream = whole(&g, shape, "scheme-parity", segment_size).unwrap();
                let rebuilt = reassemble(stream, "scheme-parity");
                assert_eq!(rebuilt, program, "kernel {kernel} @ {segment_size}");
            }
        }
    }

    #[test]
    fn scheme_segment_hint_overrides_the_caller() {
        use crate::KernelSchemeBuilder;
        let kernel = KernelSchemeBuilder::new()
            .with_segment_size(64)
            .build()
            .unwrap();
        let g = TraceGenerator::amx_like().with_kernel(kernel).unwrap();
        let stream = whole(&g, GemmShape::new(64, 64, 64), "hinted", 1 << 20).unwrap();
        assert_eq!(stream.segment_size(), 64);
        // The hint only changes segmentation, never the sequence.
        let rebuilt = reassemble(stream, "hinted");
        let plain = TraceGenerator::amx_like()
            .with_kernel(KernelSchemeBuilder::new().build().unwrap())
            .unwrap()
            .gemm(GemmShape::new(64, 64, 64), "hinted")
            .unwrap();
        assert_eq!(rebuilt, plain);
    }

    #[test]
    fn shards_partition_the_full_walk() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(200, 96, 120);
        let blocks = g.block_count(shape).unwrap();
        assert!(blocks >= 5);
        let full = g.gemm(shape, "sharded").unwrap();

        // Concatenate three uneven shards' instructions in order.
        let cuts = [0, 2, blocks / 2, blocks];
        let mut instructions = Vec::new();
        for pair in cuts.windows(2) {
            let shard = g
                .gemm_blocks(shape, "sharded", pair[0]..pair[1], 64)
                .unwrap();
            for segment in shard {
                instructions.extend_from_slice(segment.unwrap().instructions());
            }
        }
        assert_eq!(instructions.as_slice(), full.instructions());
    }

    #[test]
    fn invalid_stream_configurations_are_rejected() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(64, 64, 64);
        let blocks = g.block_count(shape).unwrap();
        assert!(matches!(
            g.gemm_blocks(shape, "bad", 0..blocks, 0),
            Err(TraceError::Stream { .. })
        ));
        assert!(matches!(
            g.gemm_blocks(shape, "bad", 0..blocks + 1, 64),
            Err(TraceError::Stream { .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 3..1;
        assert!(g.gemm_blocks(shape, "bad", reversed, 64).is_err());
        assert!(g
            .gemm_blocks(GemmShape::new(0, 1, 1), "bad", 0..0, 64)
            .is_err());
    }

    #[test]
    fn skipped_steps_leave_the_rest_of_the_walk_unchanged() {
        // A cursor that skips part of a block's uniform steps emits exactly
        // what the unskipped stream emits after them — validated against
        // the block's first-step loads — and then the later blocks whole.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let full = g.gemm(shape, "full").unwrap();
        let mut stream = whole(&g, shape, "skip", 1 << 20).unwrap();
        assert_eq!(stream.block_steps(), 8);
        assert_eq!(g.uniform_steps(shape).unwrap(), 1..7);
        // Default 2×2 step: 2 B and 2 A loads, 4 rasa_mm, 3 scalar ops and
        // the loop branch.
        let step = stream.step_instructions();
        assert_eq!(step, 12);
        let head = stream.steps_to(3).unwrap().unwrap();
        assert_eq!(head.len(), 4 + 3 * step);
        stream.skip_to(6).unwrap();
        let tail = stream.steps_to(stream.block_steps()).unwrap().unwrap();
        assert_eq!(stream.blocks_remaining(), 3);
        let rest = stream.next_segment().unwrap().unwrap();
        assert!(stream.next_segment().unwrap().is_none());
        let skipped = head.len() + 3 * step;
        let block_end = skipped + tail.len();
        assert_eq!(head.instructions(), &full.instructions()[..head.len()]);
        assert_eq!(
            tail.instructions(),
            &full.instructions()[skipped..block_end]
        );
        assert_eq!(rest.instructions(), &full.instructions()[block_end..]);
        // A ragged block repeats a narrower step: 1 row by 2 columns.
        let mut edge = g.gemm_blocks(shape, "edge", 1..2, 1 << 20).unwrap();
        assert_eq!(edge.step_instructions(), 2 + 1 + 2 + 3 + 1);
        edge.steps_to(8).unwrap();
        assert_eq!(edge.step_instructions(), 0, "the walk has finished");
    }

    #[test]
    fn skips_outside_the_uniform_steps_are_rejected() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let mut stream = whole(&g, shape, "skip", 1 << 20).unwrap();
        // Step 0 loads the accumulators, so no skip may start there…
        assert!(matches!(stream.skip_to(3), Err(TraceError::Stream { .. })));
        stream.steps_to(2).unwrap();
        // …nor run backwards or into the last step, which stores them.
        assert!(stream.skip_to(1).is_err());
        assert!(stream.skip_to(8).is_err());
        stream.skip_to(7).unwrap();
        stream.skip_to(7).unwrap();
        assert_eq!(stream.steps_to(8).unwrap().unwrap().len(), 12 + 4);
        // Nor past the end of the walk.
        let mut one = g.gemm_blocks(shape, "one", 0..1, 1 << 20).unwrap();
        one.steps_to(8).unwrap();
        assert!(one.skip_to(0).is_err());
    }

    #[test]
    fn passed_pieces_and_skipped_blocks_move_the_cursor_like_emitting() {
        // `piece_to` keys what `steps_to` would emit, `pass_to` moves the
        // cursor exactly as it would, and `skip_blocks` passes whole blocks
        // from a boundary; emitting resumes on the walk's own instructions.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let full = g.gemm(shape, "full").unwrap();
        let mut stream = whole(&g, shape, "pass", 1 << 20).unwrap();
        let head = PieceKey {
            block: (2, 2),
            steps: 3,
            opens_block: true,
            closes_block: false,
        };
        assert_eq!(stream.piece_to(3), Some(head));
        let block = 4 + 8 * 12 + 4;
        assert_eq!(stream.steps_to(3).unwrap().unwrap().len(), 4 + 3 * 12);
        stream.pass_to(8);
        assert_eq!(stream.cursor_block(), 1);
        // Block 1 is the ragged one-row block of the first column.
        let edge = stream.piece_to(8).unwrap();
        assert_eq!(
            (edge.block, edge.steps, edge.opens_block, edge.closes_block),
            ((1, 2), 8, true, true)
        );
        assert!(stream.skip_blocks(1).is_ok());
        assert_eq!(stream.cursor_block(), 2);
        stream.steps_to(1).unwrap();
        assert!(stream.skip_blocks(1).is_err(), "not at a block boundary");
        stream.pass_to(8);
        assert!(stream.skip_blocks(2).is_err(), "past the end of the walk");
        let last = stream.next_segment().unwrap().unwrap();
        assert!(stream.next_segment().unwrap().is_none());
        // The two edge blocks before it: 2 accumulators, 8 steps of 9.
        let edge_len = 2 + 8 * 9 + 2;
        assert_eq!(
            last.instructions(),
            &full.instructions()[block + 2 * edge_len..]
        );
        assert_eq!(stream.piece_to(8), None, "the walk has finished");
    }

    #[test]
    fn empty_block_range_yields_no_segments() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(64, 64, 64);
        let mut shard = g.gemm_blocks(shape, "empty", 2..2, 64).unwrap();
        assert!(shard.next_segment().unwrap().is_none());
        assert!(shard.next_segment().unwrap().is_none(), "stays exhausted");
        assert_eq!(shard.blocks_remaining(), 0);
    }
}
