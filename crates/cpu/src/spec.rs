//! Fast-forward of a streaming core run through its periodic steady state.
//!
//! The interior of a tiled GEMM trace is a long run of identical strides of
//! register blocks: the same instructions stride after stride, with only
//! their memory addresses changed — and the timing model never reads an
//! address. A [`crate::CoreRun`] is `Clone` and pauses at exact pipeline
//! boundaries, so a run can be checkpointed between strides
//! ([`SpeculativeRun::checkpoint`]). Past the warm-up transient, consecutive
//! boundaries differ by a constant translation: every time-valued field
//! advanced by the same number of cycles, every sequence-valued field by the
//! same number of instructions and `rasa_mm`s ([`SpecDelta`]). A probe
//! confirms this bit for bit ([`SpecCheckpoint::shifted_matches`]).
//!
//! Because the core model's scheduling is translation-covariant, a
//! confirmed delta then describes every further stride of the same work:
//! each advances the boundary by the same delta and accumulates the same
//! statistics. [`SpeculativeRun::fast_forward`] therefore skips `n` strides
//! in O(1) — it shifts the boundary state by `n` deltas
//! ([`CpuCore::shift_boundary`](crate::CpuCore)) and folds in `n` copies of
//! the confirmed stride's statistics. The result is exact, not sampled: it
//! is bit-identical to feeding those strides one by one.
//!
//! Where the uniform strides lie is a property of the trace, so that policy
//! lives in the simulator crate; this module provides the mechanism and its
//! accounting.

use crate::core::{CoreRun, CpuCore};
use crate::{CpuError, CpuStats, SchedStats, StreamStats};
use rasa_isa::{IsaConfig, ProgramSegment};

/// A cloned boundary state of a [`SpeculativeRun`], together with the
/// statistics the run accumulated since its previous checkpoint.
#[derive(Debug, Clone)]
pub struct SpecCheckpoint {
    core: CpuCore,
    run: CoreRun,
    /// Position in the run's sequence of checkpoints (the first is 1).
    ordinal: u64,
    /// Architectural statistics of the work since the previous checkpoint.
    cpu: CpuStats,
    /// Scheduler counters of the work since the previous checkpoint.
    sched: SchedStats,
}

impl SpecCheckpoint {
    /// `(core cycle, rename sequence, engine submissions)` position of the
    /// checkpointed boundary.
    fn position(&self) -> (u64, u64, u64) {
        (
            self.run.current_cycle(),
            self.run.next_sequence(),
            self.core.engine().submitted(),
        )
    }

    /// Whether advancing this checkpoint by `delta` reproduces `other`'s
    /// boundary state bit for bit — the periodicity test a probe runs
    /// before trusting a delta.
    ///
    /// When this holds, `other` is an exact translation of `self`; and
    /// because the core model's scheduling is translation-covariant,
    /// feeding both the same uniform work keeps them translated copies. So
    /// every further stride of that work advances the state by `delta` and
    /// accumulates `delta`'s statistics, which is what makes
    /// [`SpeculativeRun::fast_forward`] exact.
    #[must_use]
    pub fn shifted_matches(&self, delta: &SpecDelta, other: &SpecCheckpoint) -> bool {
        let mut core = self.core.clone();
        let mut run = self.run.clone();
        core.shift_boundary(&mut run, delta.cycles, delta.instructions, delta.matmuls);
        core.boundary_matches(&run, &other.core, &other.run)
    }
}

/// One stride of a periodic steady state: how far the boundary state
/// advances per stride of identical work, and what the stride accumulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecDelta {
    /// Core cycles per stride.
    pub cycles: u64,
    /// Rename sequences (instructions) per stride.
    pub instructions: u64,
    /// Engine submissions (`rasa_mm`s) per stride.
    pub matmuls: u64,
    /// Architectural statistics of one stride.
    pub cpu: CpuStats,
    /// Scheduler counters of one stride.
    pub sched: SchedStats,
}

impl SpecDelta {
    /// The stride from `from` to `to`, or `None` when the pair cannot
    /// describe one: `to` must be the checkpoint taken right after `from`
    /// (so its statistics cover exactly the work between them) and strictly
    /// later in both time and sequence, and the cycle delta must be a whole
    /// number of engine cycles (otherwise engine-clock state cannot shift
    /// exactly).
    #[must_use]
    pub fn between(from: &SpecCheckpoint, to: &SpecCheckpoint) -> Option<SpecDelta> {
        debug_assert_eq!(
            from.run.clock_ratio(),
            to.run.clock_ratio(),
            "checkpoints of the same run share a clock ratio"
        );
        let (from_cycle, from_seq, from_mm) = from.position();
        let (to_cycle, to_seq, to_mm) = to.position();
        if to.ordinal != from.ordinal + 1
            || to_cycle <= from_cycle
            || to_seq <= from_seq
            || to_mm < from_mm
        {
            return None;
        }
        let cycles = to_cycle - from_cycle;
        if cycles % from.run.clock_ratio() != 0 {
            return None;
        }
        Some(SpecDelta {
            cycles,
            instructions: to_seq - from_seq,
            matmuls: to_mm - from_mm,
            cpu: to.cpu,
            sched: to.sched,
        })
    }
}

/// A streaming core run that can fast-forward through its periodic steady
/// state.
///
/// Owns the `(CpuCore, CoreRun)` pair and the fold-in-order statistics
/// accumulators. Its statistics are **bit-identical** to feeding the same
/// instruction stream sequentially, however many strides it skips. See the
/// module docs for the argument.
#[derive(Debug)]
pub struct SpeculativeRun {
    core: CpuCore,
    run: CoreRun,
    cpu: CpuStats,
    sched: SchedStats,
    stream: StreamStats,
    checkpoints: u64,
}

impl SpeculativeRun {
    /// Opens a streaming run on `core` against `isa`.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuCore::begin_run`] errors.
    pub fn begin(mut core: CpuCore, isa: &IsaConfig) -> Result<Self, CpuError> {
        let run = core.begin_run(isa)?;
        Ok(SpeculativeRun {
            core,
            run,
            cpu: CpuStats::default(),
            sched: SchedStats::default(),
            stream: StreamStats::default(),
            checkpoints: 0,
        })
    }

    /// Feeds one validated segment into the run.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuCore::feed_segment`] errors.
    pub fn feed_segment(&mut self, segment: &ProgramSegment) -> Result<(), CpuError> {
        self.core.feed_segment(&mut self.run, segment)
    }

    /// Captures the current boundary, folding the statistics accumulated
    /// since the previous checkpoint into the run's totals and recording
    /// them in the checkpoint.
    pub fn checkpoint(&mut self) -> SpecCheckpoint {
        let (cpu, sched, stream) = self.core.take_interval_stats(&mut self.run);
        self.cpu.accumulate(&cpu);
        self.sched.accumulate(&sched);
        self.stream.accumulate(&stream);
        self.checkpoints += 1;
        SpecCheckpoint {
            core: self.core.clone(),
            run: self.run.clone(),
            ordinal: self.checkpoints,
            cpu,
            sched,
        }
    }

    /// Skips `strides` further strides of the work `delta` was measured on,
    /// in O(1).
    ///
    /// The run must be paused at the checkpoint `delta` ends at (the `to`
    /// of [`SpecDelta::between`], confirmed by
    /// [`SpecCheckpoint::shifted_matches`]), with nothing fed since, and the
    /// next `strides` strides of the stream must be that same work: the
    /// same instructions up to memory addresses. Feeding them would then
    /// advance the boundary by `strides` deltas and accumulate `strides`
    /// copies of the stride's statistics, so this shifts the boundary state
    /// and folds those statistics directly. The skipped instructions count
    /// as fed, so `fed_instructions` matches a sequential run.
    pub fn fast_forward(&mut self, delta: &SpecDelta, strides: u64) {
        debug_assert_eq!(
            self.run.stream_stats().fed_instructions,
            0,
            "fast-forward starts right at a checkpoint"
        );
        let engine_period = delta.cycles / self.run.clock_ratio();
        self.core.shift_boundary(
            &mut self.run,
            delta.cycles * strides,
            delta.instructions * strides,
            delta.matmuls * strides,
        );
        self.cpu
            .accumulate(&delta.cpu.repeated(strides, engine_period));
        self.sched.accumulate(&delta.sched.repeated(strides));
        self.stream.fed_instructions += delta.instructions * strides;
        self.stream.fast_forwarded_strides += strides;
    }

    /// Finalizes the run, drains the pipeline to quiescence and returns the
    /// accumulated `(CpuStats, SchedStats, StreamStats)` — the architectural
    /// and scheduler counters bit-identical to the sequential streamed
    /// execution of the same instruction stream.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuCore::run_to_quiescence`] errors.
    pub fn finish(mut self) -> Result<(CpuStats, SchedStats, StreamStats), CpuError> {
        let tail = self.core.run_to_quiescence(self.run)?;
        self.cpu.accumulate(&tail);
        self.sched.accumulate(self.core.sched_stats());
        self.stream.accumulate(self.core.stream_stats());
        Ok((self.cpu, self.sched, self.stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuConfig;
    use rasa_isa::{IsaConfig, MemRef, ProgramBuilder, TileReg};
    use rasa_systolic::{ControlScheme, MatrixEngine, PeVariant, SystolicConfig};

    fn treg(i: u8) -> TileReg {
        TileReg::new(i).unwrap()
    }

    fn core(pe: PeVariant, scheme: ControlScheme) -> CpuCore {
        let engine = MatrixEngine::new(SystolicConfig::paper(pe, scheme).unwrap());
        CpuCore::new(CpuConfig::skylake_like(), engine)
    }

    /// `total` instruction blocks: k-steps of the Algorithm-1 micro-kernel
    /// (4 tile loads + 4 matmuls touching the same registers every
    /// iteration — the periodic steady state fast-forward relies on). The
    /// first block additionally loads the four accumulators; all later
    /// blocks are identical up to addresses, which carry no timing.
    fn trace_blocks(total: usize) -> Vec<ProgramSegment> {
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        let mut out = Vec::new();
        for k in 0..total {
            if k == 0 {
                for i in 0..4u8 {
                    b.tile_load(treg(i), MemRef::tile(u64::from(i) * 0x400, 64));
                }
            }
            let base = 0x10_000 + (k as u64) * 0x2000;
            b.tile_load(treg(4), MemRef::tile(base, 64));
            b.tile_load(treg(6), MemRef::tile(base + 0x400, 64));
            b.matmul(treg(0), treg(6), treg(4));
            b.tile_load(treg(7), MemRef::tile(base + 0x800, 64));
            b.matmul(treg(1), treg(7), treg(4));
            b.tile_load(treg(5), MemRef::tile(base + 0xc00, 64));
            b.matmul(treg(2), treg(6), treg(5));
            b.matmul(treg(3), treg(7), treg(5));
            out.push(b.finish_segment().unwrap());
        }
        out
    }

    /// Warms up eight blocks, probes block by block for a confirmed delta,
    /// fast-forwards to `tail` blocks before the end, feeds those and
    /// returns the run's statistics plus the strides it skipped.
    fn fast_forwarded(
        pe: PeVariant,
        scheme: ControlScheme,
        blocks: &[ProgramSegment],
        tail: usize,
    ) -> (CpuStats, SchedStats, StreamStats, usize) {
        let mut spec = SpeculativeRun::begin(core(pe, scheme), &IsaConfig::amx_like()).unwrap();
        for block in &blocks[..8] {
            spec.feed_segment(block).unwrap();
        }
        let mut seed = spec.checkpoint();
        let mut next = 8;
        let delta = loop {
            spec.feed_segment(&blocks[next]).unwrap();
            next += 1;
            let cp = spec.checkpoint();
            if let Some(delta) = SpecDelta::between(&seed, &cp) {
                if seed.shifted_matches(&delta, &cp) {
                    break delta;
                }
            }
            assert!(next < 16, "no periodic delta on {pe:?}/{scheme:?}");
            seed = cp;
        };
        let strides = blocks.len() - tail - next;
        spec.fast_forward(&delta, strides as u64);
        for block in &blocks[next + strides..] {
            spec.feed_segment(block).unwrap();
        }
        let (cpu, sched, stream) = spec.finish().unwrap();
        (cpu, sched, stream, strides)
    }

    #[test]
    fn fast_forward_reproduces_sequential_stats_bit_for_bit() {
        let blocks = trace_blocks(64);
        let total_instructions: usize = blocks.iter().map(ProgramSegment::len).sum();
        for (pe, scheme) in [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Baseline, ControlScheme::Wlbp),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ] {
            let mut golden = core(pe, scheme);
            let mut run = golden.begin_run(&IsaConfig::amx_like()).unwrap();
            for block in &blocks {
                golden.feed_segment(&mut run, block).unwrap();
            }
            let golden_cpu = golden.run_to_quiescence(run).unwrap();
            // With no tail the final counters, engine horizon included,
            // come from the fast-forward alone.
            for tail in [0, 4] {
                let (cpu, sched, stream, strides) = fast_forwarded(pe, scheme, &blocks, tail);
                let what = format!("{pe:?}/{scheme:?}, tail {tail}");
                assert_eq!(cpu, golden_cpu, "{what}");
                assert_eq!(sched, *golden.sched_stats(), "{what}");
                assert_eq!(stream.fast_forwarded_strides, strides as u64);
                assert_eq!(stream.fed_instructions, total_instructions as u64);
            }
        }
    }

    #[test]
    fn delta_between_rejects_non_advancing_or_ragged_pairs() {
        let blocks = trace_blocks(3);
        let mut spec = SpeculativeRun::begin(
            core(PeVariant::Baseline, ControlScheme::Base),
            &IsaConfig::amx_like(),
        )
        .unwrap();
        spec.feed_segment(&blocks[0]).unwrap();
        let a = spec.checkpoint();
        // Same checkpoint twice: no advance, no delta.
        assert!(SpecDelta::between(&a, &a.clone()).is_none());
        spec.feed_segment(&blocks[1]).unwrap();
        let b = spec.checkpoint();
        // Reversed order is rejected.
        assert!(SpecDelta::between(&b, &a).is_none());
        if let Some(delta) = SpecDelta::between(&a, &b) {
            assert!(delta.cycles > 0 && delta.instructions > 0);
            assert_eq!(delta.cycles % 4, 0, "paper configs run a 4:1 clock ratio");
            // A paused run has renamed everything it was fed.
            assert_eq!(delta.instructions, blocks[1].len() as u64);
        }
        // A checkpoint that skips one in between covers two strides of
        // statistics, so it cannot describe one.
        spec.feed_segment(&blocks[2]).unwrap();
        let c = spec.checkpoint();
        assert!(SpecDelta::between(&a, &c).is_none());
    }
}
