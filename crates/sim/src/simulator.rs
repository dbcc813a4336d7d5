use crate::prof::{self, Stage};
use crate::{DesignPoint, PipelineStats, SimError, SimReport};
use rasa_cpu::{CpuCore, CpuStats, SchedStats, SpecDelta, SpeculativeRun, StreamStats};
use rasa_isa::{Program, ProgramSegment};
use rasa_numeric::GemmShape;
use rasa_power::{EngineActivitySummary, PowerReport};
use rasa_systolic::MatrixEngine;
use rasa_trace::{
    GemmKernelConfig, ProgramSource, TraceError, TraceGenerator, DEFAULT_SEGMENT_SIZE,
};
use rasa_workloads::LayerSpec;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::mpsc;

/// Default cap on the number of `rasa_mm` instructions simulated per
/// workload. The Table I layers contain up to hundreds of thousands of
/// register tiles; simulating a few thousand reaches steady state, and the
/// full-workload runtime is extrapolated at the observed throughput (the
/// [`SimReport`] records both numbers).
pub(crate) const DEFAULT_MATMUL_CAP: usize = 4096;

/// Segments buffered in the bounded producer→consumer channel of a
/// streamed run. Together with the shard wave this bounds the resident
/// trace to a handful of segments, whatever the workload size.
const STREAM_CHANNEL_SEGMENTS: usize = 4;

/// Register-block shards generated concurrently per wave when an uncapped
/// trace is fanned out over the worker pool. Small on purpose: a streamed
/// cell may itself be one job of an already-parallel experiment matrix.
const SHARD_WAVE: usize = 4;

/// Strides the fast-forward probe tries for a confirmed periodic state
/// delta before giving up and running the rest of the cell sequentially.
const SPEC_PROBE_STRIDES: usize = 8;

/// The deterministic fast-forward schedule of a cell: how many register
/// blocks one stride spans and where the uniform (periodic) region of the
/// block walk ends.
#[derive(Debug, Clone, Copy)]
struct SpecPlan {
    /// Register blocks per stride — a multiple of the block walk's
    /// structural period, so every stride carries identical work.
    stride_blocks: usize,
    /// Blocks `>= uniform_end` (a ragged final block column) are never
    /// skipped; they are fed sequentially after the fast-forward.
    uniform_end: usize,
}

/// End-to-end simulator for one design point.
///
/// A `Simulator` owns the trace generator and the CPU/engine configuration;
/// each `run_*` call generates the workload trace, executes it on a fresh
/// core and returns a [`SimReport`].
///
/// By default the trace→simulate path is a **streaming pipeline**: a
/// producer thread generates bounded instruction segments (in parallel
/// register-block shards when the trace is uncapped) into a bounded
/// channel while the resumable core consumes them, so trace generation
/// overlaps timing simulation and the resident trace stays O(segment)
/// instead of O(workload). The simulated statistics are bit-identical to
/// the materialized path ([`Simulator::with_streaming`]`(false)`), which is
/// retained for A/B comparisons; [`SimReport::pipeline`] records which path
/// ran and what it kept resident.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: DesignPoint,
    generator: TraceGenerator,
    streaming: bool,
    segment_size: usize,
    speculation: bool,
}

impl Simulator {
    /// Creates a simulator for a design point with the default trace
    /// generator, matmul cap and streaming pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the kernel configuration is invalid
    /// for the ISA (it never is for the built-in design points).
    pub fn new(design: DesignPoint) -> Result<Self, SimError> {
        // The scheme-derived default kernel (capped): every layer that needs
        // "the" kernel goes through `GemmKernelConfig::default()`.
        let generator = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::default().with_max_matmuls(DEFAULT_MATMUL_CAP))?;
        Ok(Simulator {
            design,
            generator,
            streaming: true,
            segment_size: DEFAULT_SEGMENT_SIZE,
            speculation: true,
        })
    }

    /// Overrides the cap on simulated `rasa_mm` instructions (`None` removes
    /// it and simulates every tile of the workload).
    ///
    /// The cap lives in the kernel configuration — the single source of
    /// truth the trace generator, the cache keys and
    /// [`Simulator::matmul_cap`] all read.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the resulting kernel configuration is
    /// invalid (a cap of zero).
    pub fn with_matmul_cap(mut self, cap: Option<usize>) -> Result<Self, SimError> {
        let mut kernel = *self.generator.kernel();
        kernel.max_matmuls = cap;
        self.generator = self.generator.with_kernel(kernel)?;
        Ok(self)
    }

    /// Overrides the full kernel configuration (tiling, scalar overhead,
    /// `rasa_mm` emission order and cap) used to generate traces — the hook
    /// the kernel-blocking ablation uses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the kernel configuration is invalid for
    /// the ISA.
    pub fn with_kernel(mut self, kernel: GemmKernelConfig) -> Result<Self, SimError> {
        self.generator = self.generator.with_kernel(kernel)?;
        Ok(self)
    }

    /// Selects the streaming pipeline (default) or the materialized
    /// generate-then-simulate path. Both produce bit-identical simulated
    /// statistics; the materialized path is the A/B reference for the
    /// streaming pipeline's memory and overlap gains.
    #[must_use]
    pub const fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Overrides the target streamed-segment size in instructions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for a zero segment size.
    pub fn with_segment_size(mut self, segment_size: usize) -> Result<Self, SimError> {
        if segment_size == 0 {
            return Err(SimError::InvalidExperiment {
                reason: "segment size must be at least one instruction".to_string(),
            });
        }
        self.segment_size = segment_size;
        Ok(self)
    }

    /// Enables (default) or disables steady-state fast-forward for
    /// streamed, uncapped runs. Fast-forward is a wall-clock optimization
    /// only: the simulated statistics are bit-identical either way, which
    /// the parity tests and CI enforce.
    #[must_use]
    pub const fn with_speculation(mut self, speculation: bool) -> Self {
        self.speculation = speculation;
        self
    }

    /// Whether runs may fast-forward through their periodic steady state.
    #[must_use]
    pub const fn is_speculative(&self) -> bool {
        self.speculation
    }

    /// The design point being simulated.
    #[must_use]
    pub const fn design(&self) -> &DesignPoint {
        &self.design
    }

    /// The configured matmul cap, if any — read from the kernel
    /// configuration, its single source of truth.
    #[must_use]
    pub fn matmul_cap(&self) -> Option<usize> {
        self.generator.kernel().max_matmuls
    }

    /// Whether runs use the streaming pipeline.
    #[must_use]
    pub const fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// The target streamed-segment size in instructions.
    #[must_use]
    pub const fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// Simulates an arbitrary GEMM.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and CPU errors.
    pub fn run_gemm(&self, shape: GemmShape) -> Result<SimReport, SimError> {
        let name = format!("GEMM-{}x{}x{}", shape.m, shape.k, shape.n);
        self.run_shape(shape, &name)
    }

    /// Simulates one DNN layer (convolutions are lowered via im2col).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and CPU errors.
    pub fn run_layer(&self, layer: &LayerSpec) -> Result<SimReport, SimError> {
        self.run_shape(layer.gemm_shape(), layer.name())
    }

    /// Simulates one DNN layer on the cycle-stepping **reference** core
    /// ([`CpuCore::run_reference`]) instead of the event-driven scheduler.
    ///
    /// The architectural statistics (`report.cpu`) must be bit-identical to
    /// [`Simulator::run_layer`]; the scheduler counters (`report.sched`)
    /// are zero because the reference loop does not use the event heap.
    /// This exists for parity checks and the `run_all` timing comparison.
    /// The reference core always consumes a materialized program.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and CPU errors.
    pub fn run_layer_reference(&self, layer: &LayerSpec) -> Result<SimReport, SimError> {
        let shape = layer.gemm_shape();
        let gen = prof::time(Stage::TraceGen);
        let program = self.generator.gemm(shape, layer.name())?;
        drop(gen);
        let total = self.generator.matmul_count(shape)?;
        self.run_program_on(&program, total as u64, layer.name(), true)
    }

    /// Generates and simulates `shape` under this simulator's configured
    /// pipeline (streamed or materialized).
    fn run_shape(&self, shape: GemmShape, name: &str) -> Result<SimReport, SimError> {
        let total = self.generator.matmul_count(shape)? as u64;
        if self.streaming {
            if let Some(plan) = self.spec_plan(shape)? {
                return self.run_speculative(shape, name, total, plan);
            }
            self.run_streamed(shape, name, total)
        } else {
            let gen = prof::time(Stage::TraceGen);
            let program = self.generator.gemm(shape, name)?;
            drop(gen);
            self.run_program_on(&program, total, name, false)
        }
    }

    /// Runs an already-generated program, extrapolating to `total_matmuls`
    /// when the program is a truncated trace of a larger workload.
    ///
    /// # Errors
    ///
    /// Propagates CPU-model errors.
    pub fn run_program(
        &self,
        program: &Program,
        total_matmuls: u64,
        workload: &str,
    ) -> Result<SimReport, SimError> {
        self.run_program_on(program, total_matmuls, workload, false)
    }

    fn run_program_on(
        &self,
        program: &Program,
        total_matmuls: u64,
        workload: &str,
        reference: bool,
    ) -> Result<SimReport, SimError> {
        let engine = MatrixEngine::new(*self.design.systolic());
        let mut core = CpuCore::new(*self.design.cpu(), engine);
        let cpu_stats = if reference {
            core.run_reference(program)?
        } else {
            core.run(program)?
        };
        let sched = *core.sched_stats();
        // Both materialized paths hold (and feed) the whole program at
        // once: one segment, everything resident.
        let pipeline = PipelineStats {
            streamed: false,
            segments: 1,
            fed_instructions: program.len() as u64,
            peak_resident_instructions: program.len() as u64,
            ..PipelineStats::default()
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, workload))
    }

    /// The streaming trace→simulate pipeline: a producer thread generates
    /// bounded segments into a bounded channel while the resumable core
    /// consumes them. Uncapped traces are additionally fanned out as
    /// register-block shards generated in parallel waves through the rayon
    /// pool, so a single heavy `--full` workload no longer serializes its
    /// whole trace generation behind one thread.
    fn run_streamed(
        &self,
        shape: GemmShape,
        name: &str,
        total_matmuls: u64,
    ) -> Result<SimReport, SimError> {
        let engine = MatrixEngine::new(*self.design.systolic());
        let mut core = CpuCore::new(*self.design.cpu(), engine);
        let generator = &self.generator;
        let segment_size = self.effective_segment_size();
        let blocks = generator.block_count(shape)?;
        // Shards only pay off when the trace is uncapped (the cap is a
        // sequential prefix property) and wide enough to split.
        let shard_blocks = if generator.kernel().max_matmuls.is_none() && blocks > SHARD_WAVE {
            Some(self.blocks_per_shard(shape, segment_size)?)
        } else {
            None
        };

        let (cpu_stats, sched, stream) = std::thread::scope(
            |scope| -> Result<(CpuStats, SchedStats, StreamStats), SimError> {
                let (tx, rx) = mpsc::sync_channel::<Result<ProgramSegment, TraceError>>(
                    STREAM_CHANNEL_SEGMENTS,
                );
                scope.spawn(move || {
                    let outcome = produce_segments(
                        generator,
                        shape,
                        name,
                        blocks,
                        shard_blocks,
                        segment_size,
                        &tx,
                    );
                    if let Err(error) = outcome {
                        // The consumer surfaces the error; if it already
                        // hung up, there is nobody left to care.
                        let _ = tx.send(Err(error));
                    }
                });
                let mut run = core.begin_run(generator.isa())?;
                for message in rx {
                    let segment = message?;
                    core.feed_segment(&mut run, &segment)?;
                }
                let cpu_stats = core.run_to_quiescence(run)?;
                Ok((cpu_stats, *core.sched_stats(), *core.stream_stats()))
            },
        )?;

        let pipeline = PipelineStats {
            streamed: true,
            segments: stream.segments,
            fed_instructions: stream.fed_instructions,
            peak_resident_instructions: stream.peak_resident as u64,
            ..PipelineStats::default()
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, name))
    }

    /// The deterministic fast-forward schedule for `shape`, or `None` when
    /// the cell must run sequentially: fast-forward is off, the trace is
    /// capped (the cap is a sequential prefix property), or the uniform
    /// block region is too short to hold a warm-up stride, a probe and a
    /// skipped stride.
    fn spec_plan(&self, shape: GemmShape) -> Result<Option<SpecPlan>, SimError> {
        if !self.speculation || self.generator.kernel().max_matmuls.is_some() {
            return Ok(None);
        }
        let (period, uniform_end) = self.generator.uniform_blocks(shape)?;
        // One stride spans a shard's worth of blocks (a couple of
        // segments), rounded up to a whole number of periods so every
        // stride carries identical work.
        let target = self.blocks_per_shard(shape, self.effective_segment_size())?;
        let stride_blocks = target.div_ceil(period) * period;
        // Worth it only when the uniform region holds the warm-up stride,
        // two probe strides (a first comparison and one retry) and at
        // least one skipped stride.
        if uniform_end < stride_blocks * 4 {
            return Ok(None);
        }
        Ok(Some(SpecPlan {
            stride_blocks,
            uniform_end,
        }))
    }

    /// Generates blocks `[lo, hi)` of `shape` and feeds them into the run.
    fn feed_blocks(
        &self,
        spec: &mut SpeculativeRun,
        shape: GemmShape,
        name: &str,
        lo: usize,
        hi: usize,
    ) -> Result<(), SimError> {
        let mut shard = self
            .generator
            .gemm_blocks(shape, name, lo..hi, self.segment_size)?;
        while let Some(segment) = shard.next_segment()? {
            spec.feed_segment(&segment)?;
        }
        Ok(())
    }

    /// The fast-forward pipeline for streamed, uncapped cells.
    ///
    /// Protocol (mechanism in `rasa_cpu::SpeculativeRun`): warm up one
    /// stride, then probe stride by stride until one stride boundary is an
    /// exact translation of its predecessor — a *confirmed* periodic
    /// [`SpecDelta`]. Every remaining whole stride of the uniform region is
    /// then the same work with only its addresses changed, so the run skips
    /// them in O(1): it shifts the boundary state by that many deltas and
    /// folds in that many copies of the confirmed stride's statistics. The
    /// rest — the partial last stride and any ragged column — feeds
    /// sequentially.
    ///
    /// The schedule derives only from the shape and segment size — never
    /// from thread timing — so the statistics, including the fast-forward
    /// counters, are deterministic; and the architectural statistics are
    /// bit-identical to the sequential streamed path, because the core
    /// model's scheduling is translation-covariant and its timing never
    /// reads an address.
    fn run_speculative(
        &self,
        shape: GemmShape,
        name: &str,
        total_matmuls: u64,
        plan: SpecPlan,
    ) -> Result<SimReport, SimError> {
        let engine = MatrixEngine::new(*self.design.systolic());
        let core = CpuCore::new(*self.design.cpu(), engine);
        let blocks = self.generator.block_count(shape)?;
        let stride = plan.stride_blocks;
        let mut spec = SpeculativeRun::begin(core, self.generator.isa())?;

        // Warm-up: one stride to move the pipeline off the cold-start
        // transient before probing.
        self.feed_blocks(&mut spec, shape, name, 0, stride)?;
        let mut next = stride;

        // Probe: slide stride by stride until a boundary is an exact
        // translation of its predecessor (see
        // `SpecCheckpoint::shifted_matches`).
        let mut seed = spec.checkpoint();
        let mut delta = None;
        for _ in 0..SPEC_PROBE_STRIDES {
            if next + stride > plan.uniform_end {
                break;
            }
            self.feed_blocks(&mut spec, shape, name, next, next + stride)?;
            next += stride;
            let cp = spec.checkpoint();
            delta = SpecDelta::between(&seed, &cp).filter(|d| seed.shifted_matches(d, &cp));
            if delta.is_some() {
                break;
            }
            seed = cp;
        }

        // Fast-forward over every remaining whole stride of the uniform
        // region.
        if let Some(delta) = delta {
            let strides = (plan.uniform_end - next) / stride;
            spec.fast_forward(&delta, strides as u64);
            next += strides * stride;
        }

        // Sequential tail: the uniform remainder plus any ragged column.
        if next < blocks {
            self.feed_blocks(&mut spec, shape, name, next, blocks)?;
        }
        let (cpu_stats, sched, stream) = spec.finish()?;
        let pipeline = PipelineStats {
            streamed: true,
            segments: stream.segments,
            fed_instructions: stream.fed_instructions,
            peak_resident_instructions: stream.peak_resident as u64,
            spec_forks: stream.fast_forwarded_strides,
            spec_commits: stream.fast_forwarded_strides,
            spec_replays: 0,
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, name))
    }

    /// Register blocks per generation shard: sized so one shard amounts to
    /// a couple of segments, derived deterministically from the shape (so
    /// segment boundaries — and hence pipeline statistics — do not depend
    /// on the machine's parallelism).
    fn blocks_per_shard(&self, shape: GemmShape, segment_size: usize) -> Result<usize, SimError> {
        let kt = rasa_numeric::TileGrid::new(shape, self.generator.kernel().tiling)?.k_tiles();
        // The scheme's own estimate of one full register block — the single
        // source of truth shared with the fast-forward strides.
        let block_len = self.generator.kernel().block_len_estimate(kt);
        Ok((2 * segment_size).div_ceil(block_len).max(1))
    }

    /// The segment size streams actually use: a kernel scheme carrying a
    /// segment-size hint overrides the simulator's configured size, so the
    /// shard and fast-forward schedules must be derived from the same value.
    fn effective_segment_size(&self) -> usize {
        self.generator
            .kernel()
            .scheme
            .segment_size
            .unwrap_or(self.segment_size)
    }

    fn report(
        &self,
        cpu_stats: CpuStats,
        sched: SchedStats,
        pipeline: PipelineStats,
        total_matmuls: u64,
        workload: &str,
    ) -> SimReport {
        let simulated_matmuls = cpu_stats.retired_matmuls;
        let simulated_cycles = cpu_stats.cycles;
        let core_cycles = if simulated_matmuls > 0 && total_matmuls > simulated_matmuls {
            // Extrapolate at the observed steady-state throughput.
            let per_mm = simulated_cycles as f64 / simulated_matmuls as f64;
            (per_mm * total_matmuls as f64).round() as u64
        } else {
            simulated_cycles
        };

        let activity = EngineActivitySummary::from_engine_stats(&cpu_stats.engine);
        let power = PowerReport::new(self.design.systolic(), &activity, simulated_cycles);

        SimReport {
            design: self.design.name().to_string(),
            workload: workload.to_string(),
            core_cycles,
            simulated_core_cycles: simulated_cycles,
            simulated_matmuls,
            total_matmuls: total_matmuls.max(simulated_matmuls),
            runtime_seconds: self.design.cpu().cycles_to_seconds(core_cycles),
            cpu: cpu_stats,
            sched,
            pipeline,
            power,
        }
    }
}

/// Producer half of the streaming pipeline: pushes the trace of `shape`
/// into `tx` as validated segments, either sequentially or as
/// wave-parallel register-block shards. A send failure means the consumer
/// hung up (success or error); either way there is nothing left to do.
fn produce_segments(
    generator: &TraceGenerator,
    shape: GemmShape,
    name: &str,
    blocks: usize,
    shard_blocks: Option<usize>,
    segment_size: usize,
    tx: &mpsc::SyncSender<Result<ProgramSegment, TraceError>>,
) -> Result<(), TraceError> {
    let Some(shard_blocks) = shard_blocks else {
        let mut stream = generator.gemm_stream(shape, name, segment_size)?;
        loop {
            let gen = prof::time(Stage::TraceGen);
            let segment = stream.next_segment()?;
            drop(gen);
            let Some(segment) = segment else {
                return Ok(());
            };
            if tx.send(Ok(segment)).is_err() {
                return Ok(());
            }
        }
    };

    // Wave-parallel sharding: generate SHARD_WAVE shards concurrently,
    // then forward their segments in block order while the core simulates.
    // Memory stays bounded by (wave + channel) segments.
    let mut start = 0usize;
    while start < blocks {
        let ranges: Vec<Range<usize>> = (0..SHARD_WAVE)
            .map(|i| {
                let lo = (start + i * shard_blocks).min(blocks);
                let hi = (start + (i + 1) * shard_blocks).min(blocks);
                lo..hi
            })
            .filter(|r| !r.is_empty())
            .collect();
        start = (start + SHARD_WAVE * shard_blocks).min(blocks);
        let gen = prof::time(Stage::TraceGen);
        let wave: Result<Vec<Vec<ProgramSegment>>, TraceError> = ranges
            .par_iter()
            .map(|range| {
                generator
                    .gemm_blocks(shape, name, range.clone(), segment_size)?
                    .collect()
            })
            .collect();
        drop(gen);
        for shard in wave? {
            for segment in shard {
                if tx.send(Ok(segment)).is_err() {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_workloads::WorkloadSuite;

    #[test]
    fn small_gemm_runs_exactly() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        let report = sim.run_gemm(GemmShape::new(64, 64, 64)).unwrap();
        assert_eq!(report.total_matmuls, 32);
        assert_eq!(report.simulated_matmuls, 32);
        assert!(!report.is_extrapolated());
        // 32 serialized matmuls at 380 core cycles each dominate the run.
        assert!(report.core_cycles > 32 * 380);
        assert!(report.runtime_seconds > 0.0);
    }

    #[test]
    fn large_layer_is_extrapolated() {
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_matmul_cap(Some(512))
            .unwrap();
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap();
        let report = sim.run_layer(layer).unwrap();
        assert!(report.is_extrapolated());
        assert_eq!(
            report.total_matmuls,
            (512 / 16 * 1024 / 32 * 1024 / 16) as u64
        );
        assert!(report.core_cycles > report.simulated_core_cycles);
        assert_eq!(report.workload, "DLRM-1");
    }

    #[test]
    fn designs_preserve_the_expected_ordering_on_a_layer() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("BERT-1").unwrap();
        let mut cycles = Vec::new();
        for design in [
            DesignPoint::baseline(),
            DesignPoint::rasa_pipe(),
            DesignPoint::rasa_wlbp(),
            DesignPoint::rasa_dm_wlbp(),
            DesignPoint::rasa_db_wls(),
            DesignPoint::rasa_dmdb_wls(),
        ] {
            let sim = Simulator::new(design)
                .unwrap()
                .with_matmul_cap(Some(768))
                .unwrap();
            cycles.push(sim.run_layer(layer).unwrap().core_cycles);
        }
        for pair in cycles.windows(2) {
            assert!(pair[0] >= pair[1], "expected improvement: {cycles:?}");
        }
        // End-to-end speedup of the best design is large.
        assert!(cycles[0] as f64 / *cycles.last().unwrap() as f64 > 2.5);
    }

    #[test]
    fn reference_core_matches_event_driven_core() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-2").unwrap();
        for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
            let sim = Simulator::new(design)
                .unwrap()
                .with_matmul_cap(Some(256))
                .unwrap();
            let event = sim.run_layer(layer).unwrap();
            let reference = sim.run_layer_reference(layer).unwrap();
            assert_eq!(event.cpu, reference.cpu, "architectural stats diverge");
            assert_eq!(event.core_cycles, reference.core_cycles);
            // The event-driven core reports scheduler activity, the
            // reference loop reports none.
            assert!(event.sched.completion_events > 0);
            assert!(event.sched.skip_rate() > 0.0);
            assert_eq!(reference.sched, rasa_cpu::SchedStats::default());
            // The flat summary surfaces the event counts.
            let summary = event.summary();
            assert_eq!(summary.sched_events, event.sched.completion_events);
            assert_eq!(summary.visited_cycles, event.sched.visited_cycles);
        }
    }

    #[test]
    fn streamed_and_materialized_paths_are_bit_identical() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap();
        for (cap, segment_size) in [(Some(2000), 512), (None, 128)] {
            let sim = Simulator::new(DesignPoint::rasa_wlbp())
                .unwrap()
                .with_matmul_cap(cap)
                .unwrap()
                .with_segment_size(segment_size)
                .unwrap();
            // Keep the uncapped case tractable: a small GEMM with enough
            // register blocks to trigger the shard-parallel producer.
            let (streamed, materialized) = if cap.is_none() {
                let shape = GemmShape::new(256, 64, 256);
                assert!(sim.generator.block_count(shape).unwrap() > SHARD_WAVE);
                (
                    sim.run_gemm(shape).unwrap(),
                    sim.with_streaming(false).run_gemm(shape).unwrap(),
                )
            } else {
                (
                    sim.run_layer(layer).unwrap(),
                    sim.with_streaming(false).run_layer(layer).unwrap(),
                )
            };
            // Architectural and scheduler statistics are bit-identical;
            // only the pipeline diagnostics differ.
            assert_eq!(streamed.cpu, materialized.cpu);
            assert_eq!(streamed.sched, materialized.sched);
            assert_eq!(streamed.core_cycles, materialized.core_cycles);
            assert!(streamed.pipeline.streamed);
            assert!(!materialized.pipeline.streamed);
            assert_eq!(
                streamed.pipeline.fed_instructions,
                materialized.pipeline.fed_instructions
            );
            assert!(streamed.pipeline.segments > 1);
            assert_eq!(materialized.pipeline.segments, 1);
            // The whole point: the stream never holds the full trace.
            assert!(
                streamed.pipeline.peak_resident_instructions
                    < materialized.pipeline.peak_resident_instructions / 2,
                "streamed {} vs materialized {}",
                streamed.pipeline.peak_resident_instructions,
                materialized.pipeline.peak_resident_instructions
            );
        }
    }

    #[test]
    fn speculative_path_is_bit_identical_and_commits() {
        // The fast-forward invariant: skipping the periodic steady state
        // produces architectural and scheduler statistics bit-identical to
        // the sequential streamed path and the materialized path, and still
        // counts every skipped instruction as fed.
        let shape = GemmShape::new(256, 64, 512);
        for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
            let sim = Simulator::new(design)
                .unwrap()
                .with_matmul_cap(None)
                .unwrap()
                .with_segment_size(128)
                .unwrap();
            let speculative = sim.run_gemm(shape).unwrap();
            let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
            let materialized = sim.with_streaming(false).run_gemm(shape).unwrap();
            assert_eq!(speculative.cpu, sequential.cpu);
            assert_eq!(speculative.sched, sequential.sched);
            assert_eq!(speculative.cpu, materialized.cpu);
            assert_eq!(speculative.core_cycles, sequential.core_cycles);
            assert_eq!(
                speculative.pipeline.fed_instructions,
                sequential.pipeline.fed_instructions
            );
            // Fast-forward engaged: every skipped stride counts as a fork
            // and a commit, and nothing replays.
            assert!(speculative.pipeline.spec_forks > 0);
            assert_eq!(
                speculative.pipeline.spec_commits,
                speculative.pipeline.spec_forks
            );
            assert_eq!(speculative.pipeline.spec_replays, 0);
            assert_eq!(sequential.pipeline.spec_forks, 0);
        }
    }

    #[test]
    fn four_paths_are_bit_identical_on_a_non_default_kernel_scheme() {
        // Satellite of the kernel-scheme refactor: the fast-forwarded,
        // sequential-streamed, materialized and cycle-stepping reference
        // paths must agree bit for bit even when the kernel is nothing like
        // Algorithm 1 — a 1×3 block, interleaved matmuls, accumulators
        // spilled around every K step and a lean scalar model.
        use rasa_trace::{KernelSchemeBuilder, LoopOrder};
        let kernel = KernelSchemeBuilder::new()
            .with_block(1, 3)
            .with_matmul_order(rasa_trace::MatmulOrder::Interleaved)
            .with_loop_order(LoopOrder::NInnermost)
            .with_scalar_ops_per_step(1)
            .build()
            .unwrap();
        let layer = rasa_workloads::LayerSpec::fc("scheme-parity", 256, 64, 512);
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_kernel(kernel)
            .unwrap()
            .with_segment_size(128)
            .unwrap();
        let speculative = sim.run_layer(&layer).unwrap();
        let sequential = sim
            .clone()
            .with_speculation(false)
            .run_layer(&layer)
            .unwrap();
        let materialized = sim.clone().with_streaming(false).run_layer(&layer).unwrap();
        let reference = sim.run_layer_reference(&layer).unwrap();
        assert_eq!(speculative.cpu, sequential.cpu);
        assert_eq!(speculative.cpu, materialized.cpu);
        assert_eq!(speculative.cpu, reference.cpu);
        assert_eq!(speculative.core_cycles, reference.core_cycles);
        assert_eq!(speculative.sched, sequential.sched);
        // The non-default scheme still fast-forwards (the plan generalizes
        // beyond the 2×2 walk).
        assert!(speculative.pipeline.spec_forks > 0);
        assert_eq!(
            speculative.pipeline.spec_commits,
            speculative.pipeline.spec_forks
        );
    }

    #[test]
    fn speculative_runs_are_deterministic() {
        // The fast-forward schedule derives from the shape and segment size
        // alone — never from thread timing — so its counters are
        // reproducible.
        let sim = Simulator::new(DesignPoint::rasa_wlbp())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap()
            .with_segment_size(128)
            .unwrap();
        let shape = GemmShape::new(256, 64, 256);
        let a = sim.run_gemm(shape).unwrap();
        let b = sim.run_gemm(shape).unwrap();
        assert_eq!(a, b);
        assert!(a.pipeline.spec_forks > 0);
    }

    #[test]
    fn capped_runs_never_speculate() {
        // A matmul cap is a sequential-prefix property, so the planner
        // must refuse to skip ahead no matter how large the trace is.
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.is_speculative());
        let plan = sim.spec_plan(GemmShape::new(1024, 1024, 1024)).unwrap();
        assert!(plan.is_none());
    }

    #[test]
    fn plan_needs_warm_up_probe_and_one_skipped_stride() {
        // With one-instruction segments a stride is a single 2×2 block, so
        // a 2×8-tile GEMM holds exactly the four uniform strides a plan
        // needs; 2×6 tiles, or a ragged eighth column, hold only three.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap()
            .with_segment_size(1)
            .unwrap();
        let plan = sim.spec_plan(GemmShape::new(32, 64, 128)).unwrap().unwrap();
        assert_eq!((plan.stride_blocks, plan.uniform_end), (1, 4));
        for short in [GemmShape::new(32, 64, 96), GemmShape::new(32, 64, 112)] {
            assert!(sim.spec_plan(short).unwrap().is_none(), "{short:?}");
        }
    }

    #[test]
    fn short_traces_fall_back_to_sequential_streaming() {
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        let report = sim.run_gemm(GemmShape::new(64, 64, 64)).unwrap();
        assert_eq!(report.pipeline.spec_forks, 0);
    }

    #[test]
    fn streamed_pipeline_stats_are_deterministic() {
        // Segment boundaries derive from the shape and segment size alone,
        // never from scheduling, so repeated runs agree exactly.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap()
            .with_segment_size(300)
            .unwrap();
        let shape = GemmShape::new(192, 64, 192);
        let a = sim.run_gemm(shape).unwrap();
        let b = sim.run_gemm(shape).unwrap();
        assert_eq!(a, b);
        assert!(a.pipeline.segments > 1);
    }

    #[test]
    fn cap_can_be_removed() {
        let sim = Simulator::new(DesignPoint::rasa_wlbp())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        assert_eq!(sim.matmul_cap(), None);
        let report = sim.run_gemm(GemmShape::new(128, 128, 128)).unwrap();
        assert!(!report.is_extrapolated());
        assert_eq!(report.simulated_matmuls, 8 * 4 * 8);
    }

    #[test]
    fn matmul_cap_has_a_single_source_of_truth() {
        // The cap reported by the simulator is read from the kernel
        // configuration, so a kernel override cannot leave a stale copy.
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert_eq!(sim.matmul_cap(), Some(DEFAULT_MATMUL_CAP));
        let sim = sim
            .with_kernel(GemmKernelConfig::amx_like().with_max_matmuls(123))
            .unwrap();
        assert_eq!(sim.matmul_cap(), Some(123));
        let sim = sim.with_kernel(GemmKernelConfig::amx_like()).unwrap();
        assert_eq!(sim.matmul_cap(), None);
    }

    #[test]
    fn zero_cap_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.with_matmul_cap(Some(0)).is_err());
    }

    #[test]
    fn zero_segment_size_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(matches!(
            sim.with_segment_size(0),
            Err(SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn empty_gemm_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.run_gemm(GemmShape::new(0, 1, 1)).is_err());
    }
}
