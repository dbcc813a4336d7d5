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
//! `rasa-sim` feeds a run around the steady-state stretch it fast-forwards.

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

/// A resumable walk over a GEMM trace's register blocks, emitting bounded
/// segments in program order. Created by [`TraceGenerator::gemm_blocks`].
#[derive(Debug, Clone)]
pub struct GemmTraceStream {
    generator: TraceGenerator,
    name: String,
    dims: (usize, usize, usize),
    mb_count: usize,
    blocks: Range<usize>,
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

    /// Register blocks not yet emitted (0 once the walk has finished).
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

    /// Produces the next segment, or `None` when the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Emit`] when a segment fails ISA validation
    /// (a generator bug, surfaced rather than panicking).
    pub fn next_segment(&mut self) -> Result<Option<ProgramSegment>, TraceError> {
        // Emit whole register blocks until the segment target is reached
        // or the block range is exhausted.
        while !self.blocks.is_empty() && self.builder.len() < self.segment_size {
            let block = self.blocks.start;
            self.blocks.start += 1;
            let nb = block / self.mb_count;
            let mb = block % self.mb_count;
            self.generator
                .emit_register_block(&mut self.builder, self.dims, nb, mb);
        }
        if self.builder.is_empty() {
            return Ok(None);
        }
        let segment = self.builder.finish_segment()?;
        self.emitted += segment.count_matmuls();
        Ok(Some(segment))
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
    fn empty_block_range_yields_no_segments() {
        let g = TraceGenerator::amx_like();
        let shape = GemmShape::new(64, 64, 64);
        let mut shard = g.gemm_blocks(shape, "empty", 2..2, 64).unwrap();
        assert!(shard.next_segment().unwrap().is_none());
        assert!(shard.next_segment().unwrap().is_none(), "stays exhausted");
        assert_eq!(shard.blocks_remaining(), 0);
    }
}
