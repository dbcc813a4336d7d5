//! Streaming trace generation: a cursor over a GEMM trace's register-block
//! walk that emits bounded [`ProgramSegment`]s instead of one materialized
//! [`rasa_isa::Program`].
//!
//! The materialized [`TraceGenerator::gemm`] path holds the entire
//! instruction trace in memory — O(workload) — and forces the consumer to
//! wait for the whole trace before simulating a single cycle. A
//! [`GemmTraceStream`] walks the same n-block-major register-block order
//! and emits it piece by piece, so the resident footprint is at most one
//! register block however large the workload, and a consumer (the
//! resumable `rasa-cpu` core) can simulate each piece as soon as it is
//! generated.
//!
//! Two invariants make the stream a drop-in replacement for the
//! materialized path:
//!
//! * **identical sequence** — both paths share the same block emitter and
//!   walk exactly the blocks of one [`WalkPlan`], so concatenating the
//!   pieces of a whole walk reproduces [`TraceGenerator::gemm`]'s
//!   instruction sequence byte for byte, matmul-cap truncation included;
//! * **carried validation** — pieces are validated by the shared
//!   [`rasa_isa::ProgramBuilder`] segmenter with register state carried
//!   across pieces, so a streamed trace is exactly as well-formed as its
//!   materialized counterpart.
//!
//! [`TraceGenerator::gemm_blocks`] opens the cursor at the first block of a
//! [`WalkPlan`]. Inside a block it is a **step cursor**:
//! [`GemmTraceStream::steps_to`] emits the block's reduction steps up to a
//! given one as a segment (up to the block's last step emits the rest of
//! the block and moves to the next), and [`GemmTraceStream::skip_to`]
//! moves past steps of the block's uniform range
//! ([`WalkPlan::repeated_steps`]) without emitting them — what `rasa-sim`
//! does for the steps it fast-forwards. One builder carries the whole
//! block, so the steps after a skip still validate against the accumulator
//! and operand loads of the block's first step. Between blocks,
//! [`GemmTraceStream::skip_blocks`] moves past whole blocks, the strides
//! `rasa-sim` fast-forwards; every block validates on its own, so the walk
//! resumes at any block.
//!
//! Every `steps_to` feed has a [`PieceKey`] ([`GemmTraceStream::piece_to`]):
//! the block's shape in tiles, the number of steps and whether the piece
//! opens or closes the block. Two feeds with equal keys emit the same
//! instructions up to memory addresses, whatever block, shape or cap of one
//! kernel they come from — so `rasa-sim` can recall what feeding a piece did
//! instead of generating it again, and [`GemmTraceStream::pass_to`] moves
//! the cursor past a recalled piece without emitting it. A cursor builds
//! its trace builder when it first emits, so one that only moves allocates
//! nothing. An emitting cursor reserves each piece's instructions
//! ([`WalkPlan::piece_len`]) before it emits them, and its builder lends
//! the piece ([`ProgramBuilder::finish_segment`]), so it allocates only when
//! a piece is longer than any before it.

use crate::{TraceError, TraceGenerator, WalkPlan};
use rasa_isa::{ProgramBuilder, ProgramSegment};

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

/// A resumable cursor over a GEMM trace's register-block walk, emitting
/// it piece by piece in program order. Created by
/// [`TraceGenerator::gemm_blocks`].
#[derive(Debug, Clone)]
pub struct GemmTraceStream {
    generator: TraceGenerator,
    plan: WalkPlan,
    /// The cursor's block ([`WalkPlan::blocks`] once the walk has
    /// finished).
    block: usize,
    /// The cursor's next reduction step in its block (0 at a block
    /// boundary).
    step: usize,
    /// Built when the cursor first emits, at the start of a block: a
    /// cursor that passes a block's first steps never emits the rest of
    /// that block ([`GemmTraceStream::pass_to`]).
    builder: Option<ProgramBuilder>,
}

impl GemmTraceStream {
    /// The walk the cursor moves along.
    #[must_use]
    pub const fn plan(&self) -> &WalkPlan {
        &self.plan
    }

    /// The index of the cursor's block in the walk (the walk's block count
    /// once it has finished).
    #[must_use]
    pub const fn cursor_block(&self) -> usize {
        self.block
    }

    /// The key of the piece [`GemmTraceStream::steps_to`] would emit up to
    /// reduction step `end`, or `None` when it would emit no step.
    #[must_use]
    pub fn piece_to(&self, end: usize) -> Option<PieceKey> {
        let steps = self.plan.steps();
        let end = end.min(steps);
        if self.block >= self.plan.blocks() || end <= self.step {
            return None;
        }
        Some(PieceKey {
            block: self.plan.tiles(self.block),
            steps: end - self.step,
            opens_block: self.step == 0,
            closes_block: end == steps,
        })
    }

    /// Moves the cursor exactly as [`GemmTraceStream::steps_to`] would,
    /// without emitting the steps. The builder then never sees them: a
    /// stream that passes the start of a block without its end cannot emit
    /// the rest of that block, whose steps read the accumulators it would
    /// have loaded.
    pub fn pass_to(&mut self, end: usize) {
        if self.block < self.plan.blocks() {
            self.step = self.step.max(end.min(self.plan.steps()));
            if self.step == self.plan.steps() {
                self.block += 1;
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
        let left = self.plan.blocks() - self.block;
        if self.step != 0 || blocks > left {
            return Err(TraceError::Stream {
                reason: format!(
                    "cannot skip {blocks} blocks from step {} with {left} blocks left",
                    self.step
                ),
            });
        }
        self.block += blocks;
        Ok(())
    }

    /// Emits the cursor's block from its next step up to reduction step
    /// `end` (clamped to [`WalkPlan::steps`]) as one segment, lent by the
    /// cursor's builder until the next emit; `None` when that is no step.
    /// Reaching the block's end moves the cursor to step 0 of the next
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Emit`] when the segment fails ISA validation
    /// (a generator bug, surfaced rather than panicking).
    pub fn steps_to(&mut self, end: usize) -> Result<Option<&ProgramSegment>, TraceError> {
        if self.piece_to(end).is_none() {
            return Ok(None);
        }
        let end = end.min(self.plan.steps());
        let isa = *self.generator.isa();
        let (block, step) = (self.block, self.step);
        self.pass_to(end);
        let builder = self.builder.get_or_insert_with(|| ProgramBuilder::new(isa));
        let len = self.plan.piece_len(block, step..end);
        builder.reserve(len);
        self.generator
            .emit_steps(builder, &self.plan, block, step..end);
        let segment = builder.finish_segment()?;
        debug_assert_eq!(segment.len(), len, "the plan sizes every piece");
        Ok(Some(segment))
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
        let uniform = self.plan.repeated_steps();
        if self.block >= self.plan.blocks()
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

impl TraceGenerator {
    /// Opens a cursor at the first register block of `plan`'s walk, which
    /// must be this generator's plan of the shape ([`TraceGenerator::plan`]).
    /// Emitting the whole walk with [`GemmTraceStream::steps_to`] produces
    /// the same instruction sequence as [`TraceGenerator::gemm`], matmul-cap
    /// truncation included.
    #[must_use]
    pub const fn gemm_blocks(&self, plan: WalkPlan) -> GemmTraceStream {
        GemmTraceStream {
            generator: *self,
            plan,
            block: 0,
            step: 0,
            builder: None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rasa_isa::{Instruction, InstructionKind, Program};
    use rasa_numeric::GemmShape;
    use std::ops::Range;

    /// A cursor at the first block of `shape`'s walk.
    pub(crate) fn cursor(g: &TraceGenerator, shape: GemmShape) -> GemmTraceStream {
        g.gemm_blocks(g.plan(shape).unwrap())
    }

    /// Blocks `blocks` of `shape`'s walk as whole-block pieces, the cursor
    /// moved to the first of them with [`GemmTraceStream::skip_blocks`].
    pub(crate) fn block_pieces(
        g: &TraceGenerator,
        shape: GemmShape,
        blocks: Range<usize>,
    ) -> Vec<ProgramSegment> {
        let mut stream = cursor(g, shape);
        stream.skip_blocks(blocks.start).unwrap();
        blocks
            .map(|_| {
                let steps = stream.plan().steps();
                stream.steps_to(steps).unwrap().unwrap().clone()
            })
            .collect()
    }

    /// The pieces' instructions, concatenated in order.
    pub(crate) fn concat(pieces: &[ProgramSegment]) -> Vec<Instruction> {
        pieces
            .iter()
            .flat_map(|piece| piece.instructions().iter().copied())
            .collect()
    }

    /// The `rasa_mm` instructions among `instructions`.
    pub(crate) fn matmuls(instructions: &[Instruction]) -> usize {
        instructions
            .iter()
            .filter(|inst| inst.kind() == InstructionKind::MatMul)
            .count()
    }

    /// The whole walk of `shape`, block by block.
    fn walk(g: &TraceGenerator, shape: GemmShape) -> Vec<ProgramSegment> {
        block_pieces(g, shape, 0..g.plan(shape).unwrap().blocks())
    }

    fn assert_reproduces(g: &TraceGenerator, shape: GemmShape, program: &Program) {
        let pieces = walk(g, shape);
        assert_eq!(
            concat(&pieces).as_slice(),
            program.instructions(),
            "{shape:?}"
        );
    }

    #[test]
    fn stream_reproduces_the_materialized_trace() {
        let g = TraceGenerator::amx_like();
        for (m, k, n) in [(64, 64, 64), (50, 70, 40), (7, 5, 3), (1, 1024, 64)] {
            let shape = GemmShape::new(m, k, n);
            assert_reproduces(&g, shape, &g.gemm(shape, "parity").unwrap());
            // Pieces of one reduction step each are the same sequence (a
            // piece to the block's end counts the steps left in it).
            let mut stream = cursor(&g, shape);
            let kt = stream.plan().steps();
            let mut steps = Vec::new();
            while let Some(rest) = stream.piece_to(kt) {
                steps.push(
                    stream
                        .steps_to(kt - rest.steps + 1)
                        .unwrap()
                        .unwrap()
                        .clone(),
                );
            }
            let program = g.gemm(shape, "parity").unwrap();
            assert_eq!(concat(&steps).as_slice(), program.instructions());
        }
    }

    #[test]
    fn stream_honours_the_matmul_cap_exactly() {
        let g = TraceGenerator::amx_like()
            .with_kernel(crate::GemmKernelConfig::amx_like().with_max_matmuls(10))
            .unwrap();
        let shape = GemmShape::new(512, 512, 512);
        let program = g.gemm(shape, "capped").unwrap();
        assert_reproduces(&g, shape, &program);
        assert!(program.count_matmuls() < g.plan(shape).unwrap().matmuls());
    }

    #[test]
    fn segments_are_bounded_and_cut_at_block_boundaries() {
        // A whole-block piece is one register block: 4 C loads, kt K-steps
        // of 12 instructions (8 in the ragged last column: one B tile) and
        // 4 stores, at kt = 4.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(256, 128, 240);
        let mut stream = cursor(&g, shape);
        assert_eq!(stream.plan().steps(), 4);
        let (mut total, mut count) = (0usize, 0usize);
        while let Some(piece) = stream.steps_to(4).unwrap().map(ProgramSegment::len) {
            let expected = if stream.cursor_block() > 56 {
                2 + 4 * 9 + 2
            } else {
                4 + 4 * 12 + 4
            };
            assert_eq!(piece, expected, "block {count}");
            total += piece;
            count += 1;
            assert_eq!(stream.cursor_block(), count);
        }
        assert_eq!(count, stream.plan().blocks());
        assert_eq!(stream.cursor_block(), count);
        assert_eq!(total, g.gemm(shape, "bounded").unwrap().len());
    }

    #[test]
    fn matmul_counts_agree_between_stream_count_and_materialized_paths() {
        // The plan's `rasa_mm` count vs those actually emitted on both gemm
        // and conv paths, capped and uncapped.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(100, 90, 80);
        let predicted = g.plan(shape).unwrap().matmuls();
        assert_eq!(g.gemm(shape, "mm").unwrap().count_matmuls(), predicted);
        assert_eq!(matmuls(&concat(&walk(&g, shape))), predicted);

        // Conv: the lowered GEMM drives both the count and the emission.
        let conv = rasa_numeric::ConvShape::new(4, 16, 14, 14, 32, 3, 3, 1, 1);
        let predicted = g.plan(conv.to_gemm()).unwrap().matmuls();
        assert_eq!(g.conv(&conv, "conv").unwrap().count_matmuls(), predicted);
        assert_eq!(matmuls(&concat(&walk(&g, conv.to_gemm()))), predicted);

        // Capped: emitted counts match between paths but undershoot the
        // full tiling, overshooting the cap by at most one register block.
        let capped = g
            .with_kernel(crate::GemmKernelConfig::amx_like().with_max_matmuls(64))
            .unwrap();
        let program = capped.gemm(shape, "capped").unwrap();
        let streamed = matmuls(&concat(&walk(&capped, shape)));
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
            assert_reproduces(&g, shape, &g.gemm(shape, "scheme-parity").unwrap());
        }
    }

    #[test]
    fn skipped_blocks_resume_the_walk_at_any_block() {
        // Every block validates on its own, so a cursor moved past any
        // number of blocks emits the rest of the walk unchanged: runs of
        // blocks started at uneven cuts concatenate to the full trace.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(200, 96, 120);
        let blocks = g.plan(shape).unwrap().blocks();
        assert!(blocks >= 5);
        let full = g.gemm(shape, "full").unwrap();
        let cuts = [0, 2, blocks / 2, blocks];
        let mut instructions = Vec::new();
        for pair in cuts.windows(2) {
            instructions.extend(concat(&block_pieces(&g, shape, pair[0]..pair[1])));
        }
        assert_eq!(instructions.as_slice(), full.instructions());
    }

    #[test]
    fn invalid_stream_configurations_are_rejected() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(64, 64, 64);
        let mut stream = cursor(&g, shape);
        let blocks = stream.plan().blocks();
        assert!(matches!(
            stream.skip_blocks(blocks + 1),
            Err(TraceError::Stream { .. })
        ));
        assert_eq!(stream.cursor_block(), 0, "a rejected skip moves nothing");
        assert!(matches!(
            g.plan(GemmShape::new(0, 1, 1)),
            Err(TraceError::Shape(_))
        ));
    }

    #[test]
    fn skipped_steps_leave_the_rest_of_the_walk_unchanged() {
        // A cursor that skips part of a block's uniform steps emits exactly
        // what the unskipped stream emits after them — validated against
        // the block's first-step loads — and then the later blocks whole.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let full = g.gemm(shape, "full").unwrap();
        let plan = g.plan(shape).unwrap();
        let mut stream = g.gemm_blocks(plan);
        assert_eq!(plan.steps(), 8);
        assert_eq!(plan.repeated_steps(), 1..7);
        // Default 2×2 step: 2 B and 2 A loads, 4 rasa_mm, 3 scalar ops and
        // the loop branch.
        let step = plan.step_len(0);
        assert_eq!(step, 12);
        let head = stream.steps_to(3).unwrap().unwrap().clone();
        assert_eq!(head.len(), 4 + 3 * step);
        stream.skip_to(6).unwrap();
        let tail = stream.steps_to(plan.steps()).unwrap().unwrap().clone();
        assert_eq!(stream.cursor_block(), 1);
        let mut rest = Vec::new();
        while let Some(piece) = stream.steps_to(8).unwrap() {
            rest.extend_from_slice(piece.instructions());
        }
        let skipped = head.len() + 3 * step;
        let block_end = skipped + tail.len();
        assert_eq!(head.instructions(), &full.instructions()[..head.len()]);
        assert_eq!(
            tail.instructions(),
            &full.instructions()[skipped..block_end]
        );
        assert_eq!(rest.as_slice(), &full.instructions()[block_end..]);
        // A ragged block repeats a narrower step: 1 row by 2 columns, and
        // 1 by 1 in the corner.
        assert_eq!(plan.blocks(), 4);
        assert_eq!(plan.tiles(1), (1, 2));
        assert_eq!(plan.step_len(1), 2 + 1 + 2 + 3 + 1);
        assert_eq!(plan.tiles(3), (1, 1));
        assert_eq!(plan.step_len(3), 1 + 1 + 1 + 3 + 1);
    }

    #[test]
    fn skips_outside_the_uniform_steps_are_rejected() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let mut stream = cursor(&g, shape);
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
        let mut last = cursor(&g, shape);
        last.skip_blocks(3).unwrap();
        last.steps_to(8).unwrap();
        assert!(last.skip_to(0).is_err());
    }

    #[test]
    fn passed_pieces_and_skipped_blocks_move_the_cursor_like_emitting() {
        // `piece_to` keys what `steps_to` would emit, `pass_to` moves the
        // cursor exactly as it would, and `skip_blocks` passes whole blocks
        // from a boundary; emitting resumes on the walk's own instructions.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let full = g.gemm(shape, "full").unwrap();
        let mut stream = cursor(&g, shape);
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
        let last = stream.steps_to(8).unwrap().unwrap().clone();
        assert!(stream.steps_to(8).unwrap().is_none());
        // The two edge blocks before it: 2 accumulators, 8 steps of 9.
        let edge_len = 2 + 8 * 9 + 2;
        assert_eq!(
            last.instructions(),
            &full.instructions()[block + 2 * edge_len..]
        );
        assert_eq!(stream.piece_to(8), None, "the walk has finished");
    }

    #[test]
    fn a_cursor_builds_its_builder_when_it_first_emits() {
        // A cursor that only moves — past pieces, steps and blocks — holds
        // no trace builder; the first piece it emits opens a block and
        // validates on a fresh one.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(40, 250, 40);
        let mut stream = cursor(&g, shape);
        stream.pass_to(3);
        stream.skip_to(6).unwrap();
        stream.pass_to(8);
        stream.skip_blocks(1).unwrap();
        assert!(stream.builder.is_none());
        let piece = stream.steps_to(8).unwrap().unwrap().clone();
        assert!(stream.builder.is_some());
        assert_eq!(piece.instructions(), concat(&block_pieces(&g, shape, 2..3)));
    }

    #[test]
    fn empty_block_range_yields_no_segments() {
        // A cursor moved past the last block has no blocks left to emit.
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(64, 64, 64);
        let mut stream = cursor(&g, shape);
        let blocks = stream.plan().blocks();
        stream.skip_blocks(blocks).unwrap();
        assert!(stream.steps_to(2).unwrap().is_none());
        assert!(stream.steps_to(2).unwrap().is_none(), "stays exhausted");
        assert_eq!(stream.cursor_block(), blocks);
        assert!(block_pieces(&g, shape, 3..3).is_empty());
    }
}
