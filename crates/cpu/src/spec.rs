//! Fast-forward of a streaming core run through its periodic steady state.
//!
//! The interior of a tiled GEMM trace repeats at two levels: the reduction
//! steps inside each register block, and strides of whole register blocks.
//! Each repeat is the same instructions as the last with only their memory
//! addresses changed — and the timing model never reads an address. A
//! [`crate::CoreRun`] pauses at exact pipeline boundaries, so a run can be
//! checkpointed between repeats ([`SpeculativeRun::checkpoint`]). A
//! [`SpecCheckpoint`] holds the boundary's position, the run's cumulative
//! statistics and a fingerprint of the boundary state that does not change
//! under translation: times relative to the run's cycle, engine times
//! relative to the engine clock, sequences relative to the next rename and
//! the engine's submission count, dead values normalized. Past the warm-up
//! transient, consecutive boundaries differ by a constant translation:
//! every time-valued field advanced by the same number of cycles, every
//! sequence-valued field by the same number of instructions and `rasa_mm`s
//! ([`SpecDelta`]). Equal fingerprints confirm this bit for bit
//! ([`SpecCheckpoint::shifted_matches`]).
//!
//! Because the core model's scheduling is translation-covariant, a
//! confirmed delta then describes every further repeat of the same work:
//! each advances the boundary by the same delta and accumulates the same
//! statistics. [`SpeculativeRun::fast_forward`] therefore skips `n` repeats
//! in O(1) — it shifts the boundary state by `n` deltas
//! ([`CpuCore::shift_boundary`](crate::CpuCore)) and folds in `n` copies of
//! the confirmed repeat's statistics. The result is exact, not sampled: it
//! is bit-identical to feeding that work instruction by instruction.
//!
//! A delta is taken between any two checkpoints of a run
//! ([`SpecDelta::between`]), from their cumulative statistics, so the
//! levels nest: a block stride measured around the reduction steps it
//! fast-forwarded inside is as exact as one fed step by step, because the
//! boundaries it starts and ends at are the sequential run's.
//!
//! Where the repeating work lies is a property of the trace, so that policy
//! lives in the simulator crate; this module provides the mechanism and its
//! accounting.

use crate::core::{CoreRun, CpuCore, Fingerprint};
use crate::{CpuError, CpuStats, SchedStats, StreamStats};
use rasa_isa::{IsaConfig, ProgramSegment};

/// A paused boundary of a [`SpeculativeRun`]: where it lies, what the run
/// had accumulated by then, and a translation-invariant fingerprint of the
/// boundary state. [`SpeculativeRun::checkpoint`] refills one in place, so
/// a prober reuses its buffers instead of cloning the core.
#[derive(Debug, Clone, Default)]
pub struct SpecCheckpoint {
    /// `(core cycle, rename sequence, engine submissions)` of the boundary.
    position: (u64, u64, u64),
    /// Core cycles per engine cycle of the run.
    clock_ratio: u64,
    /// The run's architectural statistics up to the boundary.
    cpu: CpuStats,
    /// The run's scheduler counters up to the boundary.
    sched: SchedStats,
    /// The boundary state, relative to the position.
    fingerprint: Fingerprint,
}

impl SpecCheckpoint {
    /// Whether `other`, a later checkpoint of the same run, is paused at an
    /// exact translation of this boundary: every time advanced by the
    /// cycles of [`SpecDelta::between`] the two, every sequence by its
    /// instructions and `rasa_mm`s — the periodicity test a probe runs
    /// before trusting a delta. It is fingerprint equality.
    ///
    /// When this holds, and because the core model's scheduling is
    /// translation-covariant, feeding both boundaries the same uniform work
    /// keeps them translated copies. So every further repeat of that work
    /// advances the state by the delta and accumulates the delta's
    /// statistics, which is what makes [`SpeculativeRun::fast_forward`]
    /// exact.
    #[must_use]
    pub fn shifted_matches(&self, other: &SpecCheckpoint) -> bool {
        self.fingerprint == other.fingerprint
    }
}

/// One repeat of a periodic steady state: how far the boundary state
/// advances per repeat of identical work, and what the repeat accumulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecDelta {
    /// Core cycles per repeat.
    pub cycles: u64,
    /// Rename sequences (instructions) per repeat.
    pub instructions: u64,
    /// Engine submissions (`rasa_mm`s) per repeat.
    pub matmuls: u64,
    /// Architectural statistics of one repeat.
    pub cpu: CpuStats,
    /// Scheduler counters of one repeat.
    pub sched: SchedStats,
}

impl SpecDelta {
    /// The repeat from `from` to `to`, two checkpoints of one run, or
    /// `None` when the pair cannot describe one: `to` must be strictly
    /// later in both time and sequence, and the cycle delta a whole number
    /// of engine cycles (otherwise engine-clock state cannot shift
    /// exactly). Its statistics are everything the run accumulated between
    /// the two, whatever lay in between: other checkpoints, or the
    /// fast-forwards of a nested level.
    #[must_use]
    pub fn between(from: &SpecCheckpoint, to: &SpecCheckpoint) -> Option<SpecDelta> {
        let (from_cycle, from_seq, from_mm) = from.position;
        let (to_cycle, to_seq, to_mm) = to.position;
        if to_cycle <= from_cycle || to_seq <= from_seq || to_mm < from_mm {
            return None;
        }
        debug_assert_eq!(
            from.clock_ratio, to.clock_ratio,
            "checkpoints of the same run share a clock ratio"
        );
        let cycles = to_cycle - from_cycle;
        if cycles % to.clock_ratio != 0 {
            return None;
        }
        Some(SpecDelta {
            cycles,
            instructions: to_seq - from_seq,
            matmuls: to_mm - from_mm,
            cpu: to.cpu.since(&from.cpu),
            sched: to.sched.since(&from.sched),
        })
    }
}

/// A streaming core run that can fast-forward through its periodic steady
/// state.
///
/// Owns the `(CpuCore, CoreRun)` pair and the fold-in-order statistics
/// accumulators. Its statistics are **bit-identical** to feeding the same
/// instruction stream sequentially, however much it skips. See the module
/// docs for the argument.
#[derive(Debug)]
pub struct SpeculativeRun {
    core: CpuCore,
    run: CoreRun,
    cpu: CpuStats,
    sched: SchedStats,
    stream: StreamStats,
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

    /// Captures the current boundary into `into`, reusing its buffer: the
    /// boundary's position, the run's statistics so far and the boundary's
    /// fingerprint. The run must be paused between feeds.
    pub fn checkpoint(&mut self, into: &mut SpecCheckpoint) {
        let (cpu, sched, stream) = self.core.take_interval_stats(&mut self.run);
        self.cpu.accumulate(&cpu);
        self.sched.accumulate(&sched);
        self.stream.accumulate(&stream);
        into.position = (
            self.run.current_cycle(),
            self.run.next_sequence(),
            self.core.engine().submitted(),
        );
        into.clock_ratio = self.run.clock_ratio();
        into.cpu = self.cpu;
        into.sched = self.sched;
        self.core.fingerprint(&self.run, &mut into.fingerprint);
    }

    /// Skips `strides` further repeats of the work `delta` was measured on,
    /// in O(1).
    ///
    /// The run must be paused at the checkpoint `delta` ends at (the `to`
    /// of [`SpecDelta::between`], confirmed by
    /// [`SpecCheckpoint::shifted_matches`]), with nothing fed since, and the
    /// next `strides` repeats of the stream must be that same work: the
    /// same instructions up to memory addresses. Feeding them would then
    /// advance the boundary by `strides` deltas and accumulate `strides`
    /// copies of the repeat's statistics, so this shifts the boundary state
    /// and folds those statistics directly. The skipped instructions count
    /// as fed, so `fed_instructions` matches a sequential run, and each
    /// skipped repeat counts as one fast-forwarded stride.
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

    /// Warms up eight blocks, then probes block by block until one block's
    /// boundary translates the previous one, leaving `seed` and `cp` at
    /// the two. Returns the confirmed delta and the first block not fed.
    fn probe(
        spec: &mut SpeculativeRun,
        blocks: &[ProgramSegment],
        seed: &mut SpecCheckpoint,
        cp: &mut SpecCheckpoint,
    ) -> (SpecDelta, usize) {
        for block in &blocks[..8] {
            spec.feed_segment(block).unwrap();
        }
        spec.checkpoint(seed);
        for (next, block) in blocks.iter().enumerate().take(16).skip(8) {
            spec.feed_segment(block).unwrap();
            spec.checkpoint(cp);
            if let Some(delta) = SpecDelta::between(seed, cp).filter(|_| seed.shifted_matches(cp)) {
                return (delta, next + 1);
            }
            std::mem::swap(seed, cp);
        }
        panic!("no periodic delta within 16 blocks");
    }

    /// Probes for a confirmed delta, fast-forwards to `tail` blocks before
    /// the end, feeds those and returns the run's statistics plus the
    /// strides it skipped.
    fn fast_forwarded(
        pe: PeVariant,
        scheme: ControlScheme,
        blocks: &[ProgramSegment],
        tail: usize,
    ) -> (CpuStats, SchedStats, StreamStats, usize) {
        let mut spec = SpeculativeRun::begin(core(pe, scheme), &IsaConfig::amx_like()).unwrap();
        let (mut seed, mut cp) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        let (delta, next) = probe(&mut spec, blocks, &mut seed, &mut cp);
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
        let (mut a, mut b) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        spec.feed_segment(&blocks[0]).unwrap();
        spec.checkpoint(&mut a);
        // Same checkpoint twice: no advance, no delta.
        assert!(SpecDelta::between(&a, &a.clone()).is_none());
        spec.feed_segment(&blocks[1]).unwrap();
        spec.checkpoint(&mut b);
        // Reversed order is rejected.
        assert!(SpecDelta::between(&b, &a).is_none());
        match SpecDelta::between(&a, &b) {
            Some(delta) => {
                assert!(delta.cycles > 0 && delta.instructions > 0);
                assert_eq!(delta.cycles % 4, 0, "paper configs run a 4:1 clock ratio");
                // A paused run has renamed everything it was fed.
                assert_eq!(delta.instructions, blocks[1].len() as u64);
            }
            // A ragged pair: not a whole number of engine cycles apart.
            None => assert_ne!(b.position.0 % 4, a.position.0 % 4),
        }
    }

    #[test]
    fn deltas_span_any_two_checkpoints() {
        // A delta between checkpoints two repeats apart is two repeats'
        // worth: positions and additive counters double, and the engine's
        // completion horizon is the later checkpoint's — however many
        // checkpoints were taken in between.
        let blocks = trace_blocks(24);
        let mut spec = SpeculativeRun::begin(
            core(PeVariant::Dmdb, ControlScheme::Wls),
            &IsaConfig::amx_like(),
        )
        .unwrap();
        let (mut seed, mut cp) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        let (one, next) = probe(&mut spec, &blocks, &mut seed, &mut cp);
        spec.feed_segment(&blocks[next]).unwrap();
        let mut later = SpecCheckpoint::default();
        spec.checkpoint(&mut later);
        assert!(cp.shifted_matches(&later), "the steady state holds");
        let two = SpecDelta::between(&seed, &later).unwrap();
        // The next repeat is the same work, its horizon one period on.
        let mut next_one = one;
        next_one.cpu.engine.last_completion_cycle += one.cycles / 4;
        assert_eq!(SpecDelta::between(&cp, &later), Some(next_one));
        assert_eq!(
            (two.cycles, two.instructions, two.matmuls),
            (2 * one.cycles, 2 * one.instructions, 2 * one.matmuls)
        );
        let mut doubled = one.cpu.repeated(2, 0);
        doubled.engine.last_completion_cycle = later.cpu.engine.last_completion_cycle;
        assert_eq!(two.cpu, doubled);
        assert_eq!(two.sched, one.sched.repeated(2));
        assert_eq!(
            two.cpu.engine.last_completion_cycle,
            one.cpu.engine.last_completion_cycle + one.cycles / 4
        );
    }
}
