use crate::prof::{self, Stage};
use crate::{DesignPoint, PipelineStats, SimError, SimReport};
use rasa_cpu::{
    CpuCore, CpuStats, MemoStats, MemoView, SchedStats, SpecCheckpoint, SpecDelta, SpecMemo,
    SpeculativeRun, StreamStats,
};
use rasa_isa::Program;
use rasa_numeric::GemmShape;
use rasa_power::{AreaBreakdown, AreaModel, EnergyModel, EngineActivitySummary, PowerReport};
use rasa_systolic::MatrixEngine;
use rasa_trace::{
    GemmKernelConfig, GemmTraceStream, PieceKey, TraceError, TraceGenerator, WalkPlan,
};
use rasa_workloads::LayerSpec;
use std::sync::Arc;

/// Default cap on the number of `rasa_mm` instructions simulated per
/// workload. The Table I layers contain up to hundreds of thousands of
/// register tiles; simulating a few thousand reaches steady state, and the
/// full-workload runtime is extrapolated at the observed throughput (the
/// [`SimReport`] records both numbers).
pub(crate) const DEFAULT_MATMUL_CAP: usize = 4096;

/// Repeats (block strides, or reduction steps inside a block) a
/// fast-forward probe tries for a confirmed periodic state delta before it
/// gives up and feeds the rest of that level's uniform run sequentially.
const SPEC_PROBE_STRIDES: usize = 8;

/// The block strides a cell feeds before its first block probe, or `None`
/// when no stride is skipped: the uniform run must hold the warm-up, two
/// probe strides (a first comparison and one retry) and at least one
/// skipped stride. A stride is one period of the walk, capped or not, and
/// the warm-up spans about ⌈`rob_size` / instructions per stride⌉ of them
/// (one at least, the whole run at most), as a block warms up its
/// reduction steps.
fn warm_up_strides(plan: &WalkPlan, rob_size: usize) -> Option<usize> {
    let (period, run) = (plan.period(), plan.uniform_end() / plan.period());
    let stride = period * plan.block_len(0);
    (run >= 4).then(|| rob_size.div_ceil(stride.max(1)).clamp(1, run))
}

/// The reduction step block `block`'s in-block probe measures first: past
/// a warm-up of about ⌈`rob_size` / instructions per step⌉ steps, inside
/// the uniform steps. `None` when they do not hold that step, a probe step
/// and one skipped step; the block is then fed whole.
fn probe_step(plan: &WalkPlan, block: usize, rob_size: usize) -> Option<usize> {
    let uniform = plan.repeated_steps();
    let first = rob_size
        .div_ceil(plan.step_len(block).max(1))
        .max(uniform.start);
    (first + 2 <= uniform.end).then_some(first)
}

/// End-to-end simulator for one design point.
///
/// A `Simulator` owns the trace generator and the CPU/engine configuration;
/// each `run_*` call generates the workload trace, executes it on a fresh
/// core and returns a [`SimReport`].
///
/// Every cell runs on **one synchronous path** on the calling thread: the
/// trace is generated piece by piece, at most one register block at a
/// time, and each piece is fed into the resumable core as soon as it
/// exists, so the resident trace stays O(block) instead of O(workload).
/// Cells whose work settles into a periodic steady state — strides of
/// register blocks, and the reduction steps inside every block — skip it
/// exactly by fast-forward ([`Simulator::with_speculation`]); the
/// simulated statistics are bit-identical either way. [`SimReport::pipeline`] records what the run
/// kept resident and how many strides and steps it skipped.
///
/// With fast-forward on, the simulator also remembers what its machine
/// did: a [`SpecMemo`] of every transition its cells simulated, so a cell
/// that walks only known transitions is recalled instead of simulated,
/// with the same report. Clones share the memo; a builder call that
/// changes the kernel starts an empty one, and [`Simulator::memo_stats`]
/// reports its size.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: DesignPoint,
    generator: TraceGenerator,
    speculation: bool,
    memo: Arc<SpecMemo<PieceKey>>,
    /// The power model's label for the design's array, and the array's
    /// area breakdown: worked out once, as every report carries them.
    power_label: String,
    area: AreaBreakdown,
}

/// Why a cell's walk stopped before its report.
enum Halt {
    /// A recalling walk met a transition its memo does not hold.
    Missed,
    /// Trace generation or the core failed.
    Failed(SimError),
}

impl<E: Into<SimError>> From<E> for Halt {
    fn from(error: E) -> Self {
        Halt::Failed(error.into())
    }
}

/// One cell in flight: its run and the trace stream whose cursor walks the
/// cell's plan.
struct CellRun<'a> {
    sim: &'a Simulator,
    /// The memo a recalling run reads its whole walk through; `None` for a
    /// run with a core, which records as it goes.
    view: Option<&'a MemoView<'a, PieceKey>>,
    run: &'a mut SpeculativeRun,
    stream: GemmTraceStream,
    /// Reduction steps skipped inside blocks.
    skipped_steps: u64,
}

/// The seed and probe checkpoints of a cell's two probes, refilled in
/// place: the block probe's, and the in-block probe's, which every fed
/// block reuses.
#[derive(Default)]
struct Checkpoints {
    blocks: [SpecCheckpoint; 2],
    steps: [SpecCheckpoint; 2],
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
            power_label: design.systolic().label(),
            area: AreaModel::new().breakdown(design.systolic()),
            design,
            generator,
            speculation: true,
            memo: Arc::default(),
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
    pub fn with_matmul_cap(self, cap: Option<usize>) -> Result<Self, SimError> {
        let mut kernel = *self.generator.kernel();
        kernel.max_matmuls = cap;
        self.with_kernel(kernel)
    }

    /// Overrides the full kernel configuration (tiling, scalar overhead,
    /// `rasa_mm` emission order, cap and kernel scheme) used to generate
    /// traces — the hook the kernel-blocking ablation uses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the kernel configuration is invalid for
    /// the ISA.
    pub fn with_kernel(mut self, kernel: GemmKernelConfig) -> Result<Self, SimError> {
        self.generator = self.generator.with_kernel(kernel)?;
        // Another kernel is another machine: its transitions start afresh.
        self.memo = Arc::default();
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

    /// The kernel configuration traces are generated with.
    #[must_use]
    pub fn kernel(&self) -> &GemmKernelConfig {
        self.generator.kernel()
    }

    /// What the memo of simulated transitions holds (shared with clones).
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
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
        let total = self.generator.plan(shape)?.matmuls();
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
        // A materialized program is held (and fed) whole: one piece,
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
    /// block-level fast-forward prefix, then every remaining register block
    /// generated piece by piece straight into the core.
    ///
    /// The cell's [`WalkPlan`] is built once. Capped or not, the run walks
    /// exactly its blocks with one [`TraceGenerator::gemm_blocks`] cursor,
    /// and every feed is one *piece* — a range of one block's reduction
    /// steps ([`GemmTraceStream::steps_to`]). Without fast-forward each
    /// block is one piece, fed with no memo. With it, two levels skip work:
    ///
    /// * **blocks** ([`WalkPlan::period`], [`WalkPlan::uniform_end`]): warm
    ///   up about ⌈`rob_size` / instructions per stride⌉ strides of one
    ///   period each, probe stride by stride until one stride boundary is
    ///   an exact translation of its predecessor, then skip the remaining
    ///   whole strides of the uniform run;
    /// * **reduction steps** ([`WalkPlan::repeated_steps`]): inside every
    ///   block that is fed — the warm-up and probe strides, and every block
    ///   after the skip — warm up about ⌈`rob_size` / instructions per
    ///   step⌉ steps, probe step by step, then skip the rest of the block's
    ///   uniform steps. A block too short for that is one piece.
    ///
    /// Each probe tries at most `SPEC_PROBE_STRIDES` repeats. The schedule
    /// derives only from the shape, the kernel and the core configuration,
    /// so the statistics, fast-forward counters included, are
    /// deterministic; and the architectural statistics are bit-identical
    /// to feeding every instruction, because the core model's scheduling
    /// is translation-covariant and its timing never reads an address.
    ///
    /// **Recall.** With fast-forward on, the cell first walks that same
    /// schedule with no core: every piece, and the final drain, is recalled
    /// from the simulator's memo of transitions ([`SpeculativeRun::recall`]),
    /// read under one lock for the whole walk ([`SpecMemo::view`]), and no
    /// trace is generated: its cursor only moves, so it builds no trace
    /// builder. Only if the memo lacks one does the cell rerun the same
    /// plan from its start with a core, recording every piece it feeds and
    /// shifting past the recorded fixed points it meets. The walk, and so
    /// the report, `sched` and `pipeline` included, is the same either way.
    fn run_shape(&self, shape: GemmShape, name: &str) -> Result<SimReport, SimError> {
        let plan = self.generator.plan(shape)?;
        if self.speculation {
            // The view goes before the run with a core records.
            let view = self.memo.view();
            let mut recall = SpeculativeRun::recall(self.design.cpu(), self.design.systolic());
            if let Some(report) = self.walk(plan, name, &mut recall, Some(&view))? {
                return Ok(report);
            }
        }
        let engine = MatrixEngine::new(*self.design.systolic());
        let core = CpuCore::new(*self.design.cpu(), engine);
        let mut run = SpeculativeRun::begin(core, self.generator.isa())?;
        Ok(self
            .walk(plan, name, &mut run, None)?
            .expect("a run with a core never misses"))
    }

    /// Walks the cell of `plan` on `run`, a recalling run reading `view`
    /// or a run with a core; `None` when the recalling run missed a
    /// transition.
    fn walk(
        &self,
        plan: WalkPlan,
        name: &str,
        run: &mut SpeculativeRun,
        view: Option<&MemoView<'_, PieceKey>>,
    ) -> Result<Option<SimReport>, SimError> {
        let mut cell = CellRun {
            sim: self,
            view,
            run,
            stream: self.generator.gemm_blocks(plan),
            skipped_steps: 0,
        };
        let (cpu_stats, sched, stream, skipped_steps) = match cell.execute() {
            Ok(stats) => stats,
            Err(Halt::Missed) => return Ok(None),
            Err(Halt::Failed(error)) => return Err(error),
        };
        let pipeline = PipelineStats {
            streamed: true,
            segments: stream.segments,
            fed_instructions: stream.fed_instructions,
            peak_resident_instructions: stream.peak_resident as u64,
            spec_forks: stream.fast_forwarded_strides,
            spec_commits: stream.fast_forwarded_strides,
            spec_step_forks: skipped_steps,
        };
        Ok(Some(self.report(
            cpu_stats,
            sched,
            pipeline,
            plan.matmuls() as u64,
            name,
        )))
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
        let power = PowerReport {
            design: self.power_label.clone(),
            area: self.area,
            energy: EnergyModel::new().energy(self.design.systolic(), &activity),
            core_cycles: simulated_cycles,
        };

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

impl CellRun<'_> {
    /// The core's reorder-buffer size, which sets both warm-ups.
    fn rob_size(&self) -> usize {
        self.sim.design.cpu().rob_size
    }

    /// Walks the whole cell — the block-level fast-forward prefix, the
    /// remaining blocks, the drain — and returns its statistics and the
    /// reduction steps it skipped inside blocks.
    fn execute(&mut self) -> Result<(CpuStats, SchedStats, StreamStats, u64), Halt> {
        let plan = *self.stream.plan();
        let mut checkpoints = Checkpoints::default();
        let warm_up = warm_up_strides(&plan, self.rob_size()).filter(|_| self.sim.speculation);
        if let Some(strides) = warm_up {
            self.fast_forward_prefix(strides, &mut checkpoints)?;
        }
        self.feed_blocks_to(plan.blocks(), &mut checkpoints.steps)?;
        let stats = match self.view {
            Some(view) => self.run.recall_drain(view).ok_or(Halt::Missed)?,
            None if self.sim.speculation => self.run.finish_with(&self.sim.memo)?,
            None => self.run.finish()?,
        };
        Ok((stats.0, stats.1, stats.2, self.skipped_steps))
    }

    /// Feeds the register blocks from the stream's cursor up to block
    /// `end`, each probing its reduction steps with `steps`. Asking for a
    /// block past the end of the walk is an error, not a feed that never
    /// moves the cursor.
    fn feed_blocks_to(&mut self, end: usize, steps: &mut [SpecCheckpoint; 2]) -> Result<(), Halt> {
        while self.stream.cursor_block() < end {
            let block = self.stream.cursor_block();
            self.feed_block(steps)?;
            if self.stream.cursor_block() == block {
                return Err(Halt::Failed(SimError::Trace(TraceError::Stream {
                    reason: format!(
                        "cannot feed up to block {end}: the walk ends at block {block}"
                    ),
                })));
            }
        }
        Ok(())
    }

    /// Advances the cell through the cursor block's steps up to `end` as
    /// one piece — recalled from the memo when the run can, else generated
    /// and fed — and returns whether there was a step to feed. A run with
    /// a core recalls only pieces that leave its trace builder whole: a
    /// piece that opens a block without closing it is always fed. Without
    /// fast-forward the piece is fed and the memo left alone.
    fn feed(&mut self, end: usize) -> Result<bool, Halt> {
        let Some(piece) = self.stream.piece_to(end) else {
            return Ok(false);
        };
        let memo = &*self.sim.memo;
        let speculation = self.sim.speculation;
        let passable = self.run.is_recalling() || !piece.opens_block || piece.closes_block;
        if speculation && passable {
            let recalled = match self.view {
                Some(view) => self.run.recall_piece(view, piece),
                None => self.run.recall_piece(&memo.view(), piece),
            };
            if recalled {
                self.stream.pass_to(end);
                return Ok(true);
            }
        }
        if self.run.is_recalling() {
            return Err(Halt::Missed);
        }
        let gen = prof::time(Stage::TraceGen);
        let segment = self.stream.steps_to(end)?.expect("a piece holds a step");
        drop(gen);
        if speculation {
            self.run.feed_piece(memo, piece, segment)?;
        } else {
            self.run.feed_segment(segment)?;
        }
        Ok(true)
    }

    /// Probes repeat by repeat for a confirmed periodic [`SpecDelta`]:
    /// checkpoints the run into the seed, then, at most
    /// `SPEC_PROBE_STRIDES` times and while `feed_repeat` still feeds one,
    /// feeds a repeat and checkpoints it, until a boundary is an exact
    /// translation of its predecessor (`SpecCheckpoint::shifted_matches`).
    /// The run is then paused at the checkpoint the delta ends at, ready
    /// for `SpeculativeRun::fast_forward`.
    fn probe(
        &mut self,
        [seed, probe]: &mut [SpecCheckpoint; 2],
        mut feed_repeat: impl FnMut(&mut Self) -> Result<bool, Halt>,
    ) -> Result<Option<SpecDelta>, Halt> {
        self.run.checkpoint(seed);
        for _ in 0..SPEC_PROBE_STRIDES {
            if !feed_repeat(self)? {
                break;
            }
            self.run.checkpoint(probe);
            let delta = SpecDelta::between(seed, probe).filter(|_| seed.shifted_matches(probe));
            if delta.is_some() {
                return Ok(delta);
            }
            std::mem::swap(seed, probe);
        }
        Ok(None)
    }

    /// Feeds the register block at the stream's cursor, fast-forwarding
    /// through its uniform reduction steps when fast-forward is on and they
    /// hold a warm-up, a probe and one skipped step: the block is fed up to
    /// its first probe step, probed step by step, skipped to the end of its
    /// uniform steps and finished with its last step, which stores the
    /// accumulators. Any other block is one piece. The in-block probe
    /// refills `checkpoints`.
    fn feed_block(&mut self, checkpoints: &mut [SpecCheckpoint; 2]) -> Result<(), Halt> {
        let plan = *self.stream.plan();
        let uniform = plan.repeated_steps();
        let probe = probe_step(&plan, self.stream.cursor_block(), self.rob_size());
        if let Some(mut next) = probe.filter(|_| self.sim.speculation) {
            self.feed(next)?;
            let delta = self.probe(checkpoints, |cell| {
                // Leave at least one uniform step to skip.
                if next + 1 >= uniform.end {
                    return Ok(false);
                }
                next += 1;
                cell.feed(next)
            });
            if let Some(delta) = delta? {
                let skipped = uniform.end - next;
                self.stream.skip_to(uniform.end)?;
                self.run.fast_forward(&delta, skipped as u64);
                self.skipped_steps += skipped as u64;
            }
        }
        self.feed(plan.steps())?;
        Ok(())
    }

    /// The block-level fast-forward prefix of a cell, leaving the stream's
    /// cursor at the first register block still to be fed.
    ///
    /// Warm up `warm_up` strides to move the pipeline off the cold-start
    /// transient, then probe stride by stride. Once a delta is confirmed,
    /// every remaining whole stride of the uniform region is the same work
    /// with only its addresses changed, so the run skips them in O(1): it
    /// shifts the boundary state by that many deltas and folds in that
    /// many copies of the confirmed stride's statistics. The rest of the
    /// walk past the uniform region — a ragged column, or the columns after
    /// a ragged first one — is left to the sequential feed. Every block
    /// fed here fast-forwards inside itself too; the stride's delta, the
    /// difference of two cumulative checkpoints, spans those skips.
    fn fast_forward_prefix(
        &mut self,
        warm_up: usize,
        checkpoints: &mut Checkpoints,
    ) -> Result<(), Halt> {
        let plan = *self.stream.plan();
        let (stride, uniform_end) = (plan.period(), plan.uniform_end());
        let mut next = warm_up * stride;
        self.feed_blocks_to(next, &mut checkpoints.steps)?;
        let delta = self.probe(&mut checkpoints.blocks, |cell| {
            if next + stride > uniform_end {
                return Ok(false);
            }
            next += stride;
            cell.feed_blocks_to(next, &mut checkpoints.steps)?;
            Ok(true)
        })?;
        if let Some(delta) = delta {
            let strides = (uniform_end - next) / stride;
            self.run.fast_forward(&delta, strides as u64);
            self.stream.skip_blocks(strides * stride)?;
        }
        Ok(())
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

    /// The materialized oracle: the whole trace generated up front by
    /// [`TraceGenerator::gemm`] and run on the one-shot core
    /// ([`CpuCore::run`]).
    fn materialized(sim: &Simulator, shape: GemmShape) -> SimReport {
        let program = sim.generator.gemm(shape, "oracle").unwrap();
        let total = sim.generator.plan(shape).unwrap().matmuls() as u64;
        sim.run_program(&program, total, "oracle").unwrap()
    }

    #[test]
    fn streamed_and_materialized_paths_are_bit_identical() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap();
        for cap in [Some(2000), None] {
            let sim = Simulator::new(DesignPoint::rasa_wlbp())
                .unwrap()
                .with_matmul_cap(cap)
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
        // Without fast-forward a capped cell feeds every block of its walk
        // whole, as one piece: exactly the whole-block segments of a
        // `gemm_blocks` cursor over its plan, never more than one of them
        // resident, and it records nothing in the memo.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(Some(700))
            .unwrap()
            .with_speculation(false);
        let shape = GemmShape::new(512, 256, 512);
        let report = sim.run_gemm(shape).unwrap();
        let plan = sim.generator.plan(shape).unwrap();
        let mut stream = sim.generator.gemm_blocks(plan);
        let (mut segments, mut longest) = (0u64, 0u64);
        while let Some(block) = stream.steps_to(plan.steps()).unwrap() {
            segments += 1;
            longest = longest.max(block.len() as u64);
        }
        assert!(report.is_extrapolated());
        assert_eq!(segments, plan.blocks() as u64);
        assert_eq!(report.pipeline.segments, segments);
        assert!(report.pipeline.peak_resident_instructions <= longest);
        assert_eq!(sim.memo_stats(), MemoStats::default());
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
            .with_matmul_cap(None)
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
            .with_matmul_cap(None)
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
        let plan = sim.generator.plan(shape).unwrap();
        assert_eq!((plan.period(), plan.uniform_end()), (1, plan.blocks()));
        let rob = sim.design().cpu().rob_size;
        assert!(warm_up_strides(&plan, rob).is_some(), "a capped cell plans");
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
        let rob = sim.design().cpu().rob_size;
        let plan = |sim: &Simulator, shape| sim.generator.plan(shape).unwrap();
        let even = plan(&sim, GemmShape::new(32, 64, 128));
        assert_eq!((even.period(), even.uniform_end()), (1, 4));
        // Its 2×2 blocks of two steps are 32 instructions, so the 97-entry
        // ROB warms up over four of them before the first probe.
        assert_eq!(warm_up_strides(&even, rob), Some(4));
        for short in [GemmShape::new(32, 64, 96), GemmShape::new(32, 64, 112)] {
            assert_eq!(warm_up_strides(&plan(&sim, short), rob), None, "{short:?}");
        }
        // One shape per kind of walk: even M; a ragged M whose run is whole
        // columns, or the first column's full blocks; a ragged N; a cap
        // that ends inside a column; and 96 reduction steps per block.
        // Each pins its (block count, period, uniform end), the blocks fed
        // before the first block probe, and the cell's (pieces fed, strides
        // skipped, reduction steps skipped).
        for (shape, cap, walk, warm_up, work) in [
            ((192, 64, 192), None, (36, 1, 36), 4, (5, 31, 0)),
            ((200, 64, 192), None, (42, 7, 42), 7, (14, 4, 0)),
            ((400, 64, 40), None, (26, 1, 12), 4, (19, 7, 0)),
            ((192, 70, 200), None, (42, 1, 36), 3, (10, 32, 0)),
            ((192, 64, 192), Some(100), (13, 1, 13), 4, (5, 8, 0)),
            ((64, 3072, 80), None, (6, 1, 4), 1, (14, 336, 334)),
        ] {
            let sim = sim.clone().with_matmul_cap(cap).unwrap();
            let shape = GemmShape::new(shape.0, shape.1, shape.2);
            let plan = plan(&sim, shape);
            let warm_up_blocks = warm_up_strides(&plan, rob).map(|strides| strides * plan.period());
            let report = sim.run_gemm(shape).unwrap().pipeline;
            assert_eq!(
                (
                    (plan.blocks(), plan.period(), plan.uniform_end()),
                    warm_up_blocks,
                    (report.segments, report.spec_forks, report.spec_step_forks)
                ),
                (walk, Some(warm_up), work),
                "{shape:?} at cap {cap:?}"
            );
        }
    }

    #[test]
    fn blocks_fast_forward_their_uniform_reduction_steps() {
        // 96 reduction steps per block (BERT-2's K) on a walk of two full
        // columns and a ragged one: the block level skips the full
        // columns' interior, and every fed block — the warm-up and probe
        // strides, then the ragged column's narrower blocks — skips its
        // uniform steps. The statistics equal the sequential and
        // materialized runs bit for bit.
        let shape = GemmShape::new(64, 3072, 80);
        for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
            let sim = Simulator::new(design)
                .unwrap()
                .with_matmul_cap(None)
                .unwrap();
            let fast = sim.run_gemm(shape).unwrap();
            let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
            let materialized = materialized(&sim, shape);
            for oracle in [&sequential, &materialized] {
                assert_eq!(fast.cpu, oracle.cpu);
                assert_eq!(
                    fast.pipeline.fed_instructions,
                    oracle.pipeline.fed_instructions
                );
            }
            assert_eq!(fast.sched, sequential.sched);
            // Two full blocks and two ragged ones are fed, each skipping
            // all but the warm-up, one or more probes and the last step of
            // its 94 uniform ones; the skipped block stride adds one.
            let steps = fast.pipeline.spec_step_forks;
            assert!((4 * 70..=4 * 85).contains(&steps), "{steps} steps skipped");
            assert_eq!(fast.pipeline.spec_forks, steps + 2);
            assert_eq!(sequential.pipeline.spec_step_forks, 0);
            // The fed trace is a few steps per block, never a whole block;
            // the sequential run feeds its six blocks whole, wherever the
            // fast-forward cuts them.
            assert!(fast.pipeline.peak_resident_instructions < 200);
            assert_eq!(sequential.pipeline.segments, 6);
            assert_eq!(
                sequential.pipeline.peak_resident_instructions,
                4 + 96 * 12 + 4
            );
        }
    }

    #[test]
    fn step_plan_needs_warm_up_probe_and_one_skipped_step() {
        // The default core's 97-entry ROB holds about nine 12-instruction
        // 2×2 steps, so the first probe measures step 9 and a block needs
        // uniform steps 1..11 (twelve steps) to skip one; a ragged block's
        // 9-instruction steps (one row by two columns, the second block of
        // a three-row-tile column) need two more.
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        let rob = sim.design().cpu().rob_size;
        let plan = |m, k| sim.generator.plan(GemmShape::new(m, k, 32)).unwrap();
        assert_eq!(plan(32, 384).repeated_steps(), 1..11);
        assert_eq!(probe_step(&plan(32, 384), 0, rob), Some(9));
        assert_eq!(probe_step(&plan(32, 352), 0, rob), None);
        assert_eq!(plan(48, 448).step_len(1), 9);
        assert_eq!(probe_step(&plan(48, 448), 0, rob), Some(9));
        assert_eq!(probe_step(&plan(48, 448), 1, rob), Some(11));
        assert_eq!(probe_step(&plan(48, 416), 1, rob), None);
        // A block too short to skip a step is fed whole.
        let sim = sim.with_matmul_cap(None).unwrap();
        let short = sim.run_gemm(GemmShape::new(32, 352, 32)).unwrap();
        assert_eq!(short.pipeline.spec_forks, 0);
        let deep = sim.run_gemm(GemmShape::new(32, 3072, 32)).unwrap();
        assert!(deep.pipeline.spec_step_forks > 0);
        assert_eq!(deep.pipeline.spec_forks, deep.pipeline.spec_step_forks);
    }

    #[test]
    fn recalled_cells_report_what_simulated_cells_report() {
        // Repeated and near-repeated cells on one simulator walk known
        // transitions, so they are recalled from its memo; each report,
        // diagnostics included, is what a fresh simulator computes.
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        for shape in [
            GemmShape::new(64, 3072, 80),
            GemmShape::new(64, 3072, 80),
            GemmShape::new(64, 2048, 80),
            GemmShape::new(200, 64, 192),
            GemmShape::new(200, 96, 192),
        ] {
            let report = sim.run_gemm(shape).unwrap();
            let fresh = Simulator::new(DesignPoint::rasa_dmdb_wls())
                .unwrap()
                .with_matmul_cap(None)
                .unwrap()
                .run_gemm(shape)
                .unwrap();
            assert_eq!(report, fresh, "{shape:?}");
            assert_eq!(
                (report.sched, report.pipeline),
                (fresh.sched, fresh.pipeline)
            );
        }
        let memo = sim.memo_stats();
        assert_eq!((memo.recalls, memo.misses), (2, 3), "{memo:?}");
    }

    #[test]
    fn a_changed_kernel_never_recalls_the_old_kernels_transitions() {
        // A memo serves one machine: clones share it, `--speculation off`
        // leaves it alone, and a changed kernel or cap starts an empty one,
        // so nothing recorded under the old kernel is ever recalled.
        use rasa_trace::{KernelSchemeBuilder, MatmulOrder};
        let sim = Simulator::new(DesignPoint::rasa_wlbp())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        let shape = GemmShape::new(64, 3072, 80);
        sim.run_gemm(shape).unwrap();
        sim.clone().with_speculation(true).run_gemm(shape).unwrap();
        sim.clone().with_speculation(false).run_gemm(shape).unwrap();
        let held = sim.memo_stats();
        assert!(held.states > 0 && held.transitions > 0);
        assert_eq!((held.recalls, held.misses), (1, 1), "the clone recalled");
        let interleaved = KernelSchemeBuilder::new()
            .with_matmul_order(MatmulOrder::Interleaved)
            .build()
            .unwrap();
        for changed in [
            sim.clone().with_matmul_cap(Some(64)).unwrap(),
            sim.clone().with_kernel(interleaved).unwrap(),
        ] {
            assert_eq!(changed.memo_stats(), MemoStats::default());
            let report = changed.run_gemm(shape).unwrap();
            let memo = changed.memo_stats();
            assert_eq!((memo.recalls, memo.misses), (0, 1), "{}", changed.kernel());
            let fresh = Simulator::new(DesignPoint::rasa_wlbp())
                .unwrap()
                .with_kernel(*changed.kernel())
                .unwrap()
                .with_speculation(false)
                .run_gemm(shape)
                .unwrap();
            assert_eq!((report.cpu, report.sched), (fresh.cpu, fresh.sched));
        }
        assert_eq!(
            sim.memo_stats(),
            held,
            "the old machine's memo is untouched"
        );
    }

    #[test]
    fn feeding_past_the_walk_fails_instead_of_hanging() {
        // A warm-up or stride rule that overshoots the walk asks for blocks
        // the cursor never reaches: the feed fails with the walk's end, on a
        // run with a core and on a recalling one.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        let plan = sim.generator.plan(GemmShape::new(64, 64, 64)).unwrap();
        let overshoot = |run: &mut SpeculativeRun, view| {
            let mut cell = CellRun {
                sim: &sim,
                view,
                run,
                stream: sim.generator.gemm_blocks(plan),
                skipped_steps: 0,
            };
            let fed = cell.feed_blocks_to(plan.blocks() + 1, &mut Default::default());
            assert_eq!(cell.stream.cursor_block(), plan.blocks());
            match fed {
                Err(Halt::Failed(SimError::Trace(TraceError::Stream { reason }))) => {
                    assert!(reason.contains("ends at block"), "{reason}");
                }
                _ => panic!("feeding past the walk must fail"),
            }
        };
        let core = CpuCore::new(*sim.design.cpu(), MatrixEngine::new(*sim.design.systolic()));
        let mut run = SpeculativeRun::begin(core, sim.generator.isa()).unwrap();
        overshoot(&mut run, None);
        assert_eq!(run.finish().map(|stats| stats.0.retired_matmuls), Ok(32));
        // The walk is recorded now, so a recalling run recalls it whole
        // and then fails the same way.
        let mut recall = SpeculativeRun::recall(sim.design.cpu(), sim.design.systolic());
        overshoot(&mut recall, Some(&sim.memo.view()));
    }

    #[test]
    fn reports_carry_the_power_models_label_and_area() {
        // The label and area worked out once per simulator are what the
        // power model reports for each cell.
        let custom = DesignPoint::new(
            "custom",
            rasa_systolic::SystolicConfig::paper(
                rasa_systolic::PeVariant::Dm,
                rasa_systolic::ControlScheme::Pipe,
            )
            .unwrap(),
            rasa_cpu::CpuConfig::skylake_like(),
        );
        for design in [
            DesignPoint::baseline(),
            DesignPoint::rasa_dmdb_wls(),
            custom,
        ] {
            let report = Simulator::new(design.clone())
                .unwrap()
                .run_gemm(GemmShape::new(64, 64, 64))
                .unwrap();
            let activity = EngineActivitySummary::from_engine_stats(&report.cpu.engine);
            let power =
                PowerReport::new(design.systolic(), &activity, report.simulated_core_cycles);
            assert_eq!(report.power, power, "{}", design.name());
            assert_eq!(report.design, design.name());
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
        // Piece boundaries derive from the shape and kernel alone, so
        // repeated runs agree exactly.
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
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
    fn empty_gemm_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.run_gemm(GemmShape::new(0, 1, 1)).is_err());
    }
}
