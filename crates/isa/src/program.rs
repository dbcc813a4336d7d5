use crate::{
    GprReg, Instruction, InstructionKind, IsaConfig, IsaError, MemRef, RegSet, TileReg,
    NUM_TILE_REGS,
};
use std::fmt;

/// Aggregate instruction-mix statistics for a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Number of `rasa_tl` instructions.
    pub tile_loads: usize,
    /// Number of `rasa_ts` instructions.
    pub tile_stores: usize,
    /// Number of `rasa_mm` instructions.
    pub matmuls: usize,
    /// Number of `rasa_tz` instructions.
    pub tile_zeros: usize,
    /// Number of scalar ALU / scalar load instructions.
    pub scalar_ops: usize,
    /// Number of vector FMA instructions (AVX baseline traces).
    pub vector_ops: usize,
    /// Number of branches.
    pub branches: usize,
    /// Number of no-ops.
    pub nops: usize,
}

impl ProgramStats {
    /// Total number of instructions counted.
    #[must_use]
    pub const fn total(&self) -> usize {
        self.tile_loads
            + self.tile_stores
            + self.matmuls
            + self.tile_zeros
            + self.scalar_ops
            + self.vector_ops
            + self.branches
            + self.nops
    }

    fn record(&mut self, kind: InstructionKind) {
        match kind {
            InstructionKind::TileLoad => self.tile_loads += 1,
            InstructionKind::TileStore => self.tile_stores += 1,
            InstructionKind::MatMul => self.matmuls += 1,
            InstructionKind::TileZero => self.tile_zeros += 1,
            InstructionKind::ScalarAlu | InstructionKind::ScalarLoad => self.scalar_ops += 1,
            InstructionKind::VectorFma => self.vector_ops += 1,
            InstructionKind::Branch => self.branches += 1,
            InstructionKind::Nop => self.nops += 1,
        }
    }
}

impl fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions ({} mm, {} tl, {} ts, {} tz, {} scalar, {} vector, {} branch, {} nop)",
            self.total(),
            self.matmuls,
            self.tile_loads,
            self.tile_stores,
            self.tile_zeros,
            self.scalar_ops,
            self.vector_ops,
            self.branches,
            self.nops
        )
    }
}

/// A bounded, validated chunk of a larger instruction stream.
///
/// Segments are produced by [`ProgramBuilder::finish_segment`]: the builder
/// validates the buffered instructions against the register state carried
/// over from earlier segments, so a sequence of segments is exactly as
/// well-formed as the equivalent one-shot [`Program`] — without any single
/// owner ever holding the whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSegment {
    isa: IsaConfig,
    instructions: Vec<Instruction>,
}

impl ProgramSegment {
    /// The ISA configuration the segment was built against.
    #[must_use]
    pub const fn isa(&self) -> &IsaConfig {
        &self.isa
    }

    /// The instructions of this segment, in program order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions in the segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the segment holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }
}

impl<'a> IntoIterator for &'a ProgramSegment {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

/// An immutable, validated instruction trace.
///
/// A `Program` is what the trace generators in `rasa-trace` produce and what
/// the CPU model in `rasa-cpu` consumes. Construction goes through
/// [`ProgramBuilder`], which validates that every tile register read was
/// previously written (either by the program or declared as a live-in).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    isa: IsaConfig,
    instructions: Vec<Instruction>,
    stats: ProgramStats,
    name: String,
}

impl Program {
    /// The ISA configuration the program was built against.
    #[must_use]
    pub const fn isa(&self) -> &IsaConfig {
        &self.isa
    }

    /// The instructions, in program order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Instruction-mix statistics.
    #[must_use]
    pub const fn stats(&self) -> &ProgramStats {
        &self.stats
    }

    /// Number of `rasa_mm` instructions (the unit the paper reasons about).
    #[must_use]
    pub const fn count_matmuls(&self) -> usize {
        self.stats.matmuls
    }

    /// Human-readable program name (workload / kernel identifier).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counts, among consecutive pairs of `rasa_mm` instructions, how many
    /// reuse the same weight (B) tile register with no intervening write to
    /// it. This is the upper bound on RASA-WLBP bypass opportunities in the
    /// trace and is useful for sanity-checking generated kernels.
    #[must_use]
    pub fn weight_reuse_pairs(&self) -> usize {
        let mut reuse = 0;
        let mut last_weight: Option<TileReg> = None;
        let mut dirty = [false; NUM_TILE_REGS];
        for inst in &self.instructions {
            for w in inst.tile_writes().iter() {
                dirty[w.index()] = true;
            }
            if let Instruction::MatMul { b, .. } = inst {
                if last_weight == Some(*b) && !dirty[b.index()] {
                    reuse += 1;
                }
                dirty[b.index()] = false;
                last_weight = Some(*b);
            }
        }
        reuse
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

/// Builder for [`Program`]s with convenience emitters for each instruction.
///
/// The builder tracks which tile registers have been written so that
/// [`ProgramBuilder::finish`] can reject programs that read undefined
/// registers — a common bug class in hand-written kernel generators.
///
/// For streaming producers the builder doubles as a **segmenter**:
/// [`ProgramBuilder::finish_segment`] validates the buffered instructions
/// and lends them as one [`ProgramSegment`], carrying the written-register
/// state (and the global instruction offset) forward so later segments may
/// read registers defined by earlier ones — exactly as a single validated
/// [`Program`] would allow. The lent segment's buffer and the builder's
/// trade places at every flush, so a builder that emits piece after piece
/// stops allocating once both have grown to its largest piece;
/// [`ProgramBuilder::reserve`] grows the buffer ahead of a known piece.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    isa: IsaConfig,
    instructions: Vec<Instruction>,
    live_in: [bool; NUM_TILE_REGS],
    /// Set by [`ProgramBuilder::set_name`]; a program left unnamed is
    /// `"unnamed"`.
    name: Option<String>,
    /// Instructions already flushed into segments (the global offset of the
    /// first buffered instruction).
    flushed_instructions: usize,
    /// The segment the last [`ProgramBuilder::finish_segment`] lent.
    flushed: ProgramSegment,
}

/// Validates `instructions` against the carried written-register state,
/// updating it in place, and returns their instruction-mix statistics.
/// `base_index` offsets the reported error indices so streaming errors point
/// at the global stream position.
fn validate_instructions(
    isa: &IsaConfig,
    written: &mut [bool; NUM_TILE_REGS],
    instructions: &[Instruction],
    base_index: usize,
) -> Result<ProgramStats, IsaError> {
    let mut stats = ProgramStats::default();
    for (offset, inst) in instructions.iter().enumerate() {
        let index = base_index + offset;
        for r in inst.tile_reads().iter().chain(inst.tile_writes().iter()) {
            if r.index() >= isa.num_tile_regs() {
                return Err(IsaError::InvalidProgram {
                    index,
                    reason: format!(
                        "{r} exceeds the configured register count {}",
                        isa.num_tile_regs()
                    ),
                });
            }
        }
        for r in inst.tile_reads().iter() {
            if !written[r.index()] {
                return Err(IsaError::InvalidProgram {
                    index,
                    reason: format!("{inst} reads {r} before any write"),
                });
            }
        }
        for w in inst.tile_writes().iter() {
            written[w.index()] = true;
        }
        stats.record(inst.kind());
    }
    Ok(stats)
}

impl ProgramBuilder {
    /// Creates a builder for the given ISA configuration.
    #[must_use]
    pub fn new(isa: IsaConfig) -> Self {
        ProgramBuilder {
            isa,
            instructions: Vec::new(),
            live_in: [false; NUM_TILE_REGS],
            name: None,
            flushed_instructions: 0,
            flushed: ProgramSegment {
                isa,
                instructions: Vec::new(),
            },
        }
    }

    /// Sets the program name used in reports.
    pub fn set_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = Some(name.into());
        self
    }

    /// Declares `reg` as live on entry (defined before the program starts),
    /// suppressing the undefined-read validation for it.
    pub fn declare_live_in(&mut self, reg: TileReg) -> &mut Self {
        self.live_in[reg.index()] = true;
        self
    }

    /// Appends an arbitrary instruction.
    pub fn push(&mut self, inst: Instruction) -> &mut Self {
        self.instructions.push(inst);
        self
    }

    /// Emits `rasa_tl dst, [src]`.
    pub fn tile_load(&mut self, dst: TileReg, src: MemRef) -> &mut Self {
        self.push(Instruction::TileLoad {
            dst,
            src,
            base: None,
        })
    }

    /// Emits `rasa_ts [dst], src`.
    pub fn tile_store(&mut self, dst: MemRef, src: TileReg) -> &mut Self {
        self.push(Instruction::TileStore {
            dst,
            src,
            base: None,
        })
    }

    /// Emits `rasa_mm acc, a, b`.
    pub fn matmul(&mut self, acc: TileReg, a: TileReg, b: TileReg) -> &mut Self {
        self.push(Instruction::MatMul { acc, a, b })
    }

    /// Emits `rasa_tz dst`.
    pub fn tile_zero(&mut self, dst: TileReg) -> &mut Self {
        self.push(Instruction::TileZero { dst })
    }

    /// Emits a scalar ALU instruction.
    pub fn scalar_alu(&mut self, dst: GprReg, srcs: &[GprReg]) -> &mut Self {
        self.push(Instruction::ScalarAlu {
            dst,
            srcs: srcs.iter().copied().collect::<RegSet<GprReg>>(),
        })
    }

    /// Emits a branch (loop back-edge when `taken`).
    pub fn branch(&mut self, taken: bool) -> &mut Self {
        self.push(Instruction::Branch { taken })
    }

    /// Emits a vector FMA (AVX baseline).
    pub fn vector_fma(&mut self, dst: u8, src1: u8, src2: u8) -> &mut Self {
        self.push(Instruction::VectorFma { dst, src1, src2 })
    }

    /// Makes room for `additional` more instructions in the buffer.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.instructions.reserve(additional);
        self
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether no instructions have been emitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Validates the buffered instructions and lends them as a
    /// [`ProgramSegment`], carrying the written-register state forward so
    /// later segments (or a final [`finish`](Self::finish)) may read
    /// registers defined here. The buffer starts afresh in the previous
    /// segment's buffer, and the segment's is the next flush's: flushing
    /// allocates nothing, and emitting only once a segment is longer than
    /// both have been. Flushing an empty buffer lends an empty segment,
    /// which is valid but rarely useful.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidProgram`] under the same rules as
    /// [`finish`](Self::finish); error indices are global stream positions.
    pub fn finish_segment(&mut self) -> Result<&ProgramSegment, IsaError> {
        std::mem::swap(&mut self.instructions, &mut self.flushed.instructions);
        self.instructions.clear();
        validate_instructions(
            &self.isa,
            &mut self.live_in,
            &self.flushed.instructions,
            self.flushed_instructions,
        )?;
        self.flushed_instructions += self.flushed.len();
        Ok(&self.flushed)
    }

    /// Validates the emitted instructions and produces a [`Program`].
    ///
    /// On a builder that already flushed segments, this finishes only the
    /// remaining (unflushed) tail — register reads resolved by earlier
    /// segments still validate, because the written-register state carries
    /// across [`finish_segment`](Self::finish_segment) calls.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidProgram`] if any instruction reads a tile
    /// register that has not been written earlier in the program (and was
    /// not declared live-in), or if a tile register index exceeds the ISA's
    /// register count.
    pub fn finish(self) -> Result<Program, IsaError> {
        let mut written = self.live_in;
        let stats = validate_instructions(
            &self.isa,
            &mut written,
            &self.instructions,
            self.flushed_instructions,
        )?;
        Ok(Program {
            isa: self.isa,
            instructions: self.instructions,
            stats,
            name: self.name.unwrap_or_else(|| "unnamed".to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn treg(i: u8) -> TileReg {
        TileReg::new(i).unwrap()
    }

    /// Builds the exact instruction sequence of Algorithm 1 in the paper.
    fn algorithm_one() -> Program {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        b.set_name("algorithm-1");
        // Step 1: load C tiles.
        for i in 0..4u8 {
            b.tile_load(treg(i), MemRef::tile(0x1000 + u64::from(i) * 0x400, 64));
        }
        // Step 2: compute partial sums.
        b.tile_load(treg(4), MemRef::tile(0x8000, 64)); // BTile0
        b.tile_load(treg(6), MemRef::tile(0x9000, 64)); // ATile0
        b.matmul(treg(0), treg(6), treg(4));
        b.tile_load(treg(7), MemRef::tile(0x9400, 64)); // ATile1
        b.matmul(treg(1), treg(7), treg(4));
        b.tile_load(treg(5), MemRef::tile(0x8400, 64)); // BTile1
        b.matmul(treg(2), treg(6), treg(5));
        b.matmul(treg(3), treg(7), treg(5));
        // Step 3: store C tiles.
        for i in 0..4u8 {
            b.tile_store(MemRef::tile(0x1000 + u64::from(i) * 0x400, 64), treg(i));
        }
        b.finish().expect("algorithm 1 is a valid program")
    }

    #[test]
    fn algorithm_one_statistics() {
        let p = algorithm_one();
        assert_eq!(p.len(), 16);
        assert_eq!(p.count_matmuls(), 4);
        assert_eq!(p.stats().tile_loads, 8);
        assert_eq!(p.stats().tile_stores, 4);
        assert_eq!(p.stats().total(), 16);
        assert_eq!(p.name(), "algorithm-1");
    }

    #[test]
    fn algorithm_one_weight_reuse() {
        // Lines 9/11 reuse treg4 and lines 13/14 reuse treg5: two reuse pairs.
        let p = algorithm_one();
        assert_eq!(p.weight_reuse_pairs(), 2);
    }

    #[test]
    fn undefined_read_is_rejected() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        b.matmul(treg(0), treg(6), treg(4));
        let err = b.finish().unwrap_err();
        assert!(matches!(err, IsaError::InvalidProgram { index: 0, .. }));
    }

    #[test]
    fn live_in_suppresses_undefined_read() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        b.declare_live_in(treg(0));
        b.declare_live_in(treg(4));
        b.declare_live_in(treg(6));
        b.matmul(treg(0), treg(6), treg(4));
        assert!(b.finish().is_ok());
    }

    #[test]
    fn register_out_of_configured_range_rejected() {
        // An ISA configured with only 4 tile registers rejects treg4+.
        let isa = IsaConfig::new(
            crate::TileGeometry::amx(),
            4,
            crate::DataType::Bf16,
            crate::DataType::Fp32,
        )
        .unwrap();
        let mut b = ProgramBuilder::new(isa);
        b.tile_load(treg(5), MemRef::tile(0, 64));
        assert!(b.finish().is_err());
    }

    #[test]
    fn weight_reuse_interrupted_by_reload() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        b.tile_load(treg(4), MemRef::tile(0x400, 64));
        b.tile_load(treg(6), MemRef::tile(0x800, 64));
        b.matmul(treg(0), treg(6), treg(4));
        // Reloading the weight register between the two matmuls kills reuse.
        b.tile_load(treg(4), MemRef::tile(0xc00, 64));
        b.matmul(treg(0), treg(6), treg(4));
        let p = b.finish().unwrap();
        assert_eq!(p.weight_reuse_pairs(), 0);
    }

    #[test]
    fn program_iteration() {
        let p = algorithm_one();
        assert_eq!(p.iter().count(), p.len());
        assert_eq!((&p).into_iter().count(), p.len());
        assert!(!p.is_empty());
    }

    #[test]
    fn segments_carry_register_state_and_reassemble() {
        // Split Algorithm 1 at an arbitrary point: the second segment reads
        // registers written in the first, which must validate through the
        // carried state.
        let whole = algorithm_one();
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        let mut segments = Vec::new();
        for (i, inst) in whole.iter().enumerate() {
            b.push(*inst);
            if i % 5 == 4 {
                segments.push(b.finish_segment().unwrap().clone());
            }
        }
        segments.push(b.finish_segment().unwrap().clone());
        assert_eq!(segments.len(), 4);
        for s in &segments {
            assert_eq!(s.isa(), &isa);
            assert_eq!(s.iter().count(), s.len());
        }
        // Concatenated in order, the segments are the materialized program.
        let rebuilt: Vec<Instruction> = segments
            .iter()
            .flat_map(|s| s.instructions().iter().copied())
            .collect();
        assert_eq!(rebuilt.as_slice(), whole.instructions());
    }

    #[test]
    fn segment_validation_reports_global_indices() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        b.tile_load(treg(4), MemRef::tile(0x400, 64));
        b.finish_segment().unwrap();
        // treg6 was never written in any segment: rejected with the global
        // stream index (2), not the segment-local one (0).
        b.matmul(treg(0), treg(6), treg(4));
        let err = b.finish_segment().unwrap_err();
        assert!(matches!(err, IsaError::InvalidProgram { index: 2, .. }));
    }

    #[test]
    fn finish_after_segments_validates_the_tail() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        b.tile_load(treg(4), MemRef::tile(0x400, 64));
        b.tile_load(treg(6), MemRef::tile(0x800, 64));
        b.finish_segment().unwrap();
        // The tail reads registers defined in the flushed segment.
        b.matmul(treg(0), treg(6), treg(4));
        let tail = b.finish().unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.count_matmuls(), 1);
    }

    #[test]
    fn finished_segments_reuse_their_buffers() {
        // Flushes lend segments whose buffers trade places with the
        // builder's: once both have grown, the same two buffers serve
        // every later segment of at most that length.
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        let mut buffers = Vec::new();
        for round in 0..6u64 {
            for i in 0..4u8 {
                b.tile_load(treg(i), MemRef::tile(round * 0x1000 + u64::from(i), 64));
            }
            let segment = b.finish_segment().unwrap();
            assert_eq!(segment.len(), 4);
            buffers.push(segment.instructions().as_ptr());
        }
        assert_eq!(buffers[2..], [buffers[0], buffers[1]].repeat(2));
        // A failed flush reports the global stream index it failed at.
        b.matmul(treg(0), treg(1), treg(2));
        assert!(b.finish_segment().is_ok());
        b.matmul(treg(0), treg(6), treg(1));
        let err = b.finish_segment().unwrap_err();
        assert!(matches!(err, IsaError::InvalidProgram { index: 25, .. }));
    }

    #[test]
    fn empty_segment_is_valid() {
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        let s = b.finish_segment().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        let s = b.finish_segment().unwrap();
        assert_eq!(s.into_iter().count(), 1);
    }

    #[test]
    fn stats_display_mentions_matmuls() {
        let p = algorithm_one();
        let s = p.stats().to_string();
        assert!(s.contains("4 mm"));
        assert!(s.contains("16 instructions"));
    }
}
