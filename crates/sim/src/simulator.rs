use crate::prof::{self, Stage};
use crate::{DesignPoint, PipelineStats, SimError, SimReport};
use rasa_cpu::{CpuCore, CpuStats, SchedStats, SpecDelta, SpeculativeRun};
use rasa_isa::Program;
use rasa_numeric::GemmShape;
use rasa_power::{EngineActivitySummary, PowerReport};
use rasa_systolic::MatrixEngine;
use rasa_trace::{GemmKernelConfig, TraceGenerator, DEFAULT_SEGMENT_SIZE};
use rasa_workloads::LayerSpec;
use std::ops::Range;

/// Default cap on the number of `rasa_mm` instructions simulated per
/// workload. The Table I layers contain up to hundreds of thousands of
/// register tiles; simulating a few thousand reaches steady state, and the
/// full-workload runtime is extrapolated at the observed throughput (the
/// [`SimReport`] records both numbers).
pub(crate) const DEFAULT_MATMUL_CAP: usize = 4096;

/// Strides the fast-forward probe tries for a confirmed periodic state
/// delta before giving up and running the rest of the cell sequentially.
const SPEC_PROBE_STRIDES: usize = 8;

/// The deterministic fast-forward schedule of a cell: how many register
/// blocks one stride spans and where the uniform (periodic) region of the
/// block walk ends.
#[derive(Debug, Clone, Copy)]
struct SpecPlan {
    /// Register blocks per stride — one period of the block walk, so every
    /// stride carries identical work.
    stride_blocks: usize,
    /// Blocks `>= uniform_end` (a ragged block column, or the rest of a
    /// walk whose uniform run is its first column) are never skipped; they
    /// are fed sequentially after the fast-forward.
    uniform_end: usize,
}

/// End-to-end simulator for one design point.
///
/// A `Simulator` owns the trace generator and the CPU/engine configuration;
/// each `run_*` call generates the workload trace, executes it on a fresh
/// core and returns a [`SimReport`].
///
/// Every cell runs on **one synchronous path** on the calling thread: the
/// trace is generated as bounded instruction segments, each fed into the
/// resumable core as soon as it exists, so the resident trace stays
/// O(segment) instead of O(workload). Cells whose block walk settles into
/// a periodic steady state skip it exactly by fast-forward
/// ([`Simulator::with_speculation`]); the simulated statistics are
/// bit-identical either way. [`SimReport::pipeline`] records what the run
/// kept resident and how many strides it skipped.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: DesignPoint,
    generator: TraceGenerator,
    speculation: bool,
}

impl Simulator {
    /// Creates a simulator for a design point with the default trace
    /// generator and matmul cap, fast-forward enabled.
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
    /// `rasa_mm` emission order, cap and segment size hint) used to
    /// generate traces — the hook the kernel-blocking ablation uses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the kernel configuration is invalid for
    /// the ISA.
    pub fn with_kernel(mut self, kernel: GemmKernelConfig) -> Result<Self, SimError> {
        self.generator = self.generator.with_kernel(kernel)?;
        Ok(self)
    }

    /// Enables (default) or disables steady-state fast-forward.
    /// Fast-forward is a wall-clock optimization only: the simulated
    /// statistics are bit-identical either way, which the parity tests and
    /// CI enforce.
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

    /// Runs an already-generated program on the one-shot event-driven core
    /// ([`CpuCore::run`]), extrapolating to `total_matmuls` when the program
    /// is a truncated trace of a larger workload.
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
        // A materialized program is held (and fed) whole: one segment,
        // everything resident.
        let pipeline = PipelineStats {
            streamed: false,
            segments: 1,
            fed_instructions: program.len() as u64,
            peak_resident_instructions: program.len() as u64,
            ..PipelineStats::default()
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, workload))
    }

    /// Generates and simulates `shape` on the calling thread: an optional
    /// fast-forward prefix, then every remaining register block generated
    /// segment by segment straight into the core.
    ///
    /// Capped or not, the run covers exactly the blocks of
    /// [`TraceGenerator::block_count`]; without a fast-forward it feeds the
    /// segments of [`TraceGenerator::gemm_blocks`] over
    /// `0..block_count`.
    fn run_shape(&self, shape: GemmShape, name: &str) -> Result<SimReport, SimError> {
        let total_matmuls = self.generator.matmul_count(shape)? as u64;
        let blocks = self.generator.block_count(shape)?;
        let engine = MatrixEngine::new(*self.design.systolic());
        let core = CpuCore::new(*self.design.cpu(), engine);
        let mut run = SpeculativeRun::begin(core, self.generator.isa())?;
        let next = match self.spec_plan(shape)? {
            Some(plan) => self.fast_forward_prefix(&mut run, shape, name, plan)?,
            None => 0,
        };
        self.feed_blocks(&mut run, shape, name, next..blocks)?;
        let (cpu_stats, sched, stream) = run.finish()?;
        let pipeline = PipelineStats {
            streamed: true,
            segments: stream.segments,
            fed_instructions: stream.fed_instructions,
            peak_resident_instructions: stream.peak_resident as u64,
            spec_forks: stream.fast_forwarded_strides,
            spec_commits: stream.fast_forwarded_strides,
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, name))
    }

    /// The deterministic fast-forward schedule for `shape`, or `None` when
    /// the cell must run sequentially: fast-forward is off, or the uniform
    /// block region is too short to hold a warm-up stride, a probe and a
    /// skipped stride. One stride is one period of the block walk, capped
    /// or not.
    fn spec_plan(&self, shape: GemmShape) -> Result<Option<SpecPlan>, SimError> {
        if !self.speculation {
            return Ok(None);
        }
        let (stride_blocks, uniform_end) = self.generator.uniform_blocks(shape)?;
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

    /// Generates register blocks `blocks` of `shape` segment by segment and
    /// feeds each into the run as soon as it exists.
    fn feed_blocks(
        &self,
        run: &mut SpeculativeRun,
        shape: GemmShape,
        name: &str,
        blocks: Range<usize>,
    ) -> Result<(), SimError> {
        let mut stream = self
            .generator
            .gemm_blocks(shape, name, blocks, DEFAULT_SEGMENT_SIZE)?;
        loop {
            let gen = prof::time(Stage::TraceGen);
            let segment = stream.next_segment()?;
            drop(gen);
            let Some(segment) = segment else {
                return Ok(());
            };
            run.feed_segment(&segment)?;
        }
    }

    /// The fast-forward prefix of a cell; returns the first register block
    /// still to be fed.
    ///
    /// Protocol (mechanism in `rasa_cpu::SpeculativeRun`): warm up one
    /// stride, then probe stride by stride until one stride boundary is an
    /// exact translation of its predecessor — a *confirmed* periodic
    /// [`SpecDelta`]. Every remaining whole stride of the uniform region is
    /// then the same work with only its addresses changed, so the run skips
    /// them in O(1): it shifts the boundary state by that many deltas and
    /// folds in that many copies of the confirmed stride's statistics. The
    /// rest of the walk past the uniform region — a ragged column, or the
    /// columns after a ragged first one — is left to the sequential feed.
    ///
    /// The schedule derives only from the shape and the kernel, so the
    /// statistics, including the fast-forward counters, are deterministic;
    /// and the architectural statistics are bit-identical to feeding every
    /// block, because the core model's scheduling is translation-covariant
    /// and its timing never reads an address.
    fn fast_forward_prefix(
        &self,
        run: &mut SpeculativeRun,
        shape: GemmShape,
        name: &str,
        plan: SpecPlan,
    ) -> Result<usize, SimError> {
        let stride = plan.stride_blocks;

        // Warm-up: one stride to move the pipeline off the cold-start
        // transient before probing.
        self.feed_blocks(run, shape, name, 0..stride)?;
        let mut next = stride;

        // Probe: slide stride by stride until a boundary is an exact
        // translation of its predecessor (see
        // `SpecCheckpoint::shifted_matches`).
        let mut seed = run.checkpoint();
        let mut delta = None;
        for _ in 0..SPEC_PROBE_STRIDES {
            if next + stride > plan.uniform_end {
                break;
            }
            self.feed_blocks(run, shape, name, next..next + stride)?;
            next += stride;
            let cp = run.checkpoint();
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
            run.fast_forward(&delta, strides as u64);
            next += strides * stride;
        }
        Ok(next)
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
        }
    }

    /// The default kernel carrying `cap` and a `segment_size`-instruction
    /// segment hint — the one place a segment size is set.
    fn segmented(segment_size: usize, cap: Option<usize>) -> GemmKernelConfig {
        let mut kernel = rasa_trace::KernelSchemeBuilder::new()
            .with_segment_size(segment_size)
            .build()
            .unwrap();
        kernel.max_matmuls = cap;
        kernel
    }

    /// The materialized oracle: the whole trace generated up front by
    /// [`TraceGenerator::gemm`] and run on the one-shot core
    /// ([`CpuCore::run`]).
    fn materialized(sim: &Simulator, shape: GemmShape) -> SimReport {
        let program = sim.generator.gemm(shape, "oracle").unwrap();
        let total = sim.generator.matmul_count(shape).unwrap() as u64;
        sim.run_program(&program, total, "oracle").unwrap()
    }

    #[test]
    fn streamed_and_materialized_paths_are_bit_identical() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap();
        for (cap, segment_size) in [(Some(2000), 512), (None, 128)] {
            let sim = Simulator::new(DesignPoint::rasa_wlbp())
                .unwrap()
                .with_kernel(segmented(segment_size, cap))
                .unwrap();
            // Keep the uncapped case tractable: a small GEMM.
            let shape = if cap.is_none() {
                GemmShape::new(256, 64, 256)
            } else {
                layer.gemm_shape()
            };
            let streamed = sim.run_gemm(shape).unwrap();
            let materialized = materialized(&sim, shape);
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
    fn capped_cells_stream_exactly_the_gemm_stream_segments() {
        // Without a fast-forward a capped cell feeds blocks
        // `0..block_count`, which must cut the same segments as one
        // `gemm_blocks` stream over them.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_kernel(segmented(300, Some(700)))
            .unwrap()
            .with_speculation(false);
        let shape = GemmShape::new(512, 256, 512);
        let report = sim.run_gemm(shape).unwrap();
        let blocks = sim.generator.block_count(shape).unwrap();
        let mut stream = sim
            .generator
            .gemm_blocks(shape, "capped", 0..blocks, 1)
            .unwrap();
        let (mut segments, mut peak) = (0u64, 0u64);
        while let Some(segment) = stream.next_segment().unwrap() {
            segments += 1;
            peak = peak.max(segment.len() as u64);
        }
        assert!(report.is_extrapolated());
        assert_eq!(report.pipeline.segments, segments);
        assert!(report.pipeline.peak_resident_instructions >= peak);
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
                .with_kernel(segmented(128, None))
                .unwrap();
            let speculative = sim.run_gemm(shape).unwrap();
            let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
            let materialized = materialized(&sim, shape);
            assert_eq!(speculative.cpu, sequential.cpu);
            assert_eq!(speculative.sched, sequential.sched);
            assert_eq!(speculative.cpu, materialized.cpu);
            assert_eq!(speculative.core_cycles, sequential.core_cycles);
            assert_eq!(
                speculative.pipeline.fed_instructions,
                sequential.pipeline.fed_instructions
            );
            // Fast-forward engaged: every skipped stride counts as a fork
            // and a commit.
            assert!(speculative.pipeline.spec_forks > 0);
            assert_eq!(
                speculative.pipeline.spec_commits,
                speculative.pipeline.spec_forks
            );
            assert_eq!(sequential.pipeline.spec_forks, 0);
        }
    }

    #[test]
    fn fast_forwarded_and_sequential_reports_are_equal_results() {
        // The two executions of one cell differ only in how they ran, so
        // the reports compare equal while their pipelines differ.
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_kernel(segmented(128, None))
            .unwrap();
        let shape = GemmShape::new(256, 64, 512);
        let fast = sim.run_gemm(shape).unwrap();
        let sequential = sim.with_speculation(false).run_gemm(shape).unwrap();
        assert_ne!(fast.pipeline, sequential.pipeline);
        assert_eq!(fast, sequential);
        let mut drifted = sequential;
        drifted.cpu.cycles += 1;
        assert_ne!(fast, drifted);
    }

    #[test]
    fn four_paths_are_bit_identical_on_a_non_default_kernel_scheme() {
        // Satellite of the kernel-scheme refactor: the fast-forwarded,
        // sequential-streamed, one-shot materialized and cycle-stepping
        // reference paths must agree bit for bit even when the kernel is
        // nothing like Algorithm 1 — a 1×3 block, interleaved matmuls,
        // accumulators spilled around every K step and a lean scalar model.
        use rasa_trace::{KernelSchemeBuilder, LoopOrder};
        let kernel = KernelSchemeBuilder::new()
            .with_block(1, 3)
            .with_matmul_order(rasa_trace::MatmulOrder::Interleaved)
            .with_loop_order(LoopOrder::NInnermost)
            .with_scalar_ops_per_step(1)
            .with_segment_size(128)
            .build()
            .unwrap();
        let layer = rasa_workloads::LayerSpec::fc("scheme-parity", 256, 64, 512);
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_kernel(kernel)
            .unwrap();
        let speculative = sim.run_layer(&layer).unwrap();
        let sequential = sim
            .clone()
            .with_speculation(false)
            .run_layer(&layer)
            .unwrap();
        let materialized = materialized(&sim, layer.gemm_shape());
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
        // The fast-forward schedule derives from the shape and kernel
        // alone, so its counters are reproducible.
        let sim = Simulator::new(DesignPoint::rasa_wlbp())
            .unwrap()
            .with_kernel(segmented(128, None))
            .unwrap();
        let shape = GemmShape::new(256, 64, 256);
        let a = sim.run_gemm(shape).unwrap();
        let b = sim.run_gemm(shape).unwrap();
        assert_eq!(a, b);
        // Report equality skips the diagnostics; they must agree as well.
        assert_eq!(a.sched, b.sched);
        assert_eq!(a.pipeline, b.pipeline);
        assert!(a.pipeline.spec_forks > 0);
    }

    #[test]
    fn capped_cells_plan_and_fast_forward_exactly() {
        // The cap bounds the block walk itself, so a capped cell plans a
        // fast-forward over its shorter walk one block at a time, and the
        // skip reproduces both the sequential run and the capped trace on
        // the one-shot core bit for bit.
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.is_speculative());
        let shape = GemmShape::new(1024, 1024, 1024);
        let plan = sim.spec_plan(shape).unwrap().expect("a capped cell plans");
        let blocks = sim.generator.block_count(shape).unwrap();
        assert_eq!((plan.stride_blocks, plan.uniform_end), (1, blocks));
        let fast = sim.run_gemm(shape).unwrap();
        let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
        let materialized = materialized(&sim, shape);
        assert!(fast.is_extrapolated());
        assert!(fast.pipeline.spec_forks > 0);
        assert_eq!(sequential.pipeline.spec_forks, 0);
        for oracle in [&sequential, &materialized] {
            assert_eq!(fast.cpu, oracle.cpu);
            assert_eq!(fast.sched, oracle.sched);
            assert_eq!(fast.core_cycles, oracle.core_cycles);
            assert_eq!(
                fast.pipeline.fed_instructions,
                oracle.pipeline.fed_instructions
            );
        }
    }

    #[test]
    fn plan_needs_warm_up_probe_and_one_skipped_stride() {
        // A stride is one period of the block walk — here a single 2×2
        // block — so a 2×8-tile GEMM holds exactly the four uniform strides
        // a plan needs; 2×6 tiles, or a ragged eighth column, hold only
        // three.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
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
        // Segment boundaries derive from the shape and kernel alone, so
        // repeated runs agree exactly.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_kernel(segmented(300, None))
            .unwrap();
        let shape = GemmShape::new(192, 64, 192);
        let a = sim.run_gemm(shape).unwrap();
        let b = sim.run_gemm(shape).unwrap();
        assert_eq!(a, b);
        // Report equality skips the diagnostics; they must agree as well.
        assert_eq!(a.sched, b.sched);
        assert_eq!(a.pipeline, b.pipeline);
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
        // The kernel scheme's hint is the only segment size knob, and a
        // zero hint never reaches a stream.
        let mut kernel = GemmKernelConfig::amx_like();
        kernel.scheme.segment_size = Some(0);
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(matches!(sim.with_kernel(kernel), Err(SimError::Trace(_))));
    }

    #[test]
    fn empty_gemm_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.run_gemm(GemmShape::new(0, 1, 1)).is_err());
    }
}
