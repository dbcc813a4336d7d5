use crate::sched::EventHeap;
use crate::stats::StreamStats;
use crate::{CpuConfig, CpuError, CpuStats, SchedStats};
use rasa_isa::{
    Instruction, InstructionKind, IsaConfig, Program, ProgramSegment, TileReg, NUM_GPR_REGS,
    NUM_TILE_REGS,
};
use rasa_systolic::{MatrixEngine, MmRequest, TileDims};
use std::collections::{HashMap, VecDeque};

/// Number of flat vector registers modelled for the AVX baseline traces.
const NUM_VEC_REGS: usize = 32;

/// A reorder-buffer entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RobEntry {
    kind: InstructionKind,
    issued: bool,
    complete_cycle: u64,
    retired: bool,
    /// Producer references (with multiplicity) that have not completed yet
    /// (event-driven path only). The instruction is ready to issue once
    /// this reaches zero.
    pending: u32,
    /// Sequences of younger instructions waiting on this entry's
    /// completion (event-driven path only; drained by the completion
    /// event, so always empty by the time the entry retires). The buffer
    /// is recycled through `CoreRun::spare_waiters`.
    waiters: Vec<u64>,
}

impl RobEntry {
    fn new(kind: InstructionKind) -> Self {
        RobEntry {
            kind,
            issued: false,
            complete_cycle: u64::MAX,
            retired: false,
            pending: 0,
            waiters: Vec::new(),
        }
    }
}

/// A reservation-station entry for the non-matrix functional units
/// (cycle-stepping reference loop only).
#[derive(Debug, Clone)]
struct RsEntry {
    rob_seq: u64,
    kind: InstructionKind,
    producers: Vec<u64>,
}

/// Events handed to the matrix engine in program order: tile-register
/// writes (for dirty-bit maintenance) and `rasa_mm` submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineEvent {
    Write(TileReg),
    Matmul {
        rob_seq: u64,
        weight: TileReg,
        tile: TileDims,
    },
}

/// Where a paused streaming run resumes inside its current cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RunPhase {
    /// At the top of a not-yet-simulated cycle.
    TopOfCycle,
    /// Mid-rename within the current cycle: retire and issue already ran,
    /// `renamed` instructions were dispatched so far, and `progress`
    /// records whether any stage moved this cycle.
    Rename { progress: bool, renamed: usize },
}

/// The explicit boundary state of a resumable (streaming) execution.
///
/// Created by [`CpuCore::begin_run`]; advanced by [`CpuCore::feed_segment`]
/// / [`CpuCore::feed_instructions`]; completed by
/// [`CpuCore::run_to_quiescence`]. Between feeds the run is **paused at an
/// exact pipeline boundary**: the core stops the moment rename wants an
/// instruction that has not been fed yet (mid-cycle, before any stall is
/// mis-counted), so the statistics of a segment-wise execution are
/// bit-identical to a one-shot [`CpuCore::run`] of the concatenated
/// trace — however the trace is sliced.
///
/// The state is checkpointable: `CoreRun` is `Clone`, and cloning it
/// together with its core (which owns the matrix engine) snapshots the
/// whole execution; both copies can then be driven independently and
/// produce identical results for identical remaining feeds.
#[derive(Debug, Clone)]
pub struct CoreRun {
    isa: IsaConfig,
    /// The core run id this run was opened under (see `CpuCore::run_id`).
    run_id: u64,
    config: CpuConfig,
    full_tile: TileDims,
    clock_ratio: u64,
    tile_writer: [Option<u64>; NUM_TILE_REGS],
    gpr_writer: [Option<u64>; NUM_GPR_REGS],
    vec_writer: [Option<u64>; NUM_VEC_REGS],
    rob: VecDeque<RobEntry>,
    rob_base: u64,
    next_seq: u64,
    rs_slots: Vec<(u64, InstructionKind)>,
    rs_unsorted: bool,
    rs_ready: usize,
    engine_events: VecDeque<EngineEvent>,
    events: EventHeap,
    /// Drained waiter buffers, handed to the next entry that gains a
    /// waiter so the steady state allocates no per-instruction lists.
    spare_waiters: Vec<Vec<u64>>,
    /// Fed-but-not-yet-renamed instructions (the resident window).
    pending: VecDeque<Instruction>,
    fed: usize,
    retired: usize,
    cycle: u64,
    phase: RunPhase,
    finalized: bool,
    done: bool,
    stats: CpuStats,
    sched: SchedStats,
    stream: StreamStats,
}

impl CoreRun {
    fn new(isa: &IsaConfig, run_id: u64, config: CpuConfig, clock_ratio: u64) -> Self {
        CoreRun {
            isa: *isa,
            run_id,
            config,
            full_tile: TileDims::new(isa.tm(), isa.tk(), isa.tn()),
            clock_ratio,
            tile_writer: [None; NUM_TILE_REGS],
            gpr_writer: [None; NUM_GPR_REGS],
            vec_writer: [None; NUM_VEC_REGS],
            rob: VecDeque::with_capacity(config.rob_size),
            rob_base: 0,
            next_seq: 0,
            rs_slots: Vec::with_capacity(config.rs_size),
            rs_unsorted: false,
            rs_ready: 0,
            engine_events: VecDeque::new(),
            events: EventHeap::default(),
            spare_waiters: Vec::new(),
            pending: VecDeque::new(),
            fed: 0,
            retired: 0,
            // The front end delivers the first instructions after the
            // pipeline depth has elapsed.
            cycle: config.frontend_depth,
            phase: RunPhase::TopOfCycle,
            finalized: false,
            done: false,
            stats: CpuStats::default(),
            sched: SchedStats::default(),
            stream: StreamStats::default(),
        }
    }

    /// Feed-side statistics (segments, peak resident instructions, pauses).
    #[must_use]
    pub const fn stream_stats(&self) -> &StreamStats {
        &self.stream
    }

    /// Whether the run has retired every fed instruction after
    /// finalization.
    #[must_use]
    pub const fn is_finished(&self) -> bool {
        self.done
    }

    /// Instructions fed but not yet renamed into the pipeline.
    #[must_use]
    pub fn pending_instructions(&self) -> usize {
        self.pending.len()
    }

    /// Instructions retired so far.
    #[must_use]
    pub const fn retired_instructions(&self) -> usize {
        self.retired
    }

    /// Current core cycle of the paused run (fast-forward support).
    pub(crate) const fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Next rename sequence of the paused run (fast-forward support).
    pub(crate) const fn next_sequence(&self) -> u64 {
        self.next_seq
    }

    /// Core cycles per engine cycle for this run (fast-forward support).
    pub(crate) const fn clock_ratio(&self) -> u64 {
        self.clock_ratio
    }

    /// Delivers every completion event due by `now`: each popped event
    /// wakes the instructions subscribed to that producer, moving
    /// fully-resolved reservation-station entries into the ready pool.
    fn drain_due(&mut self, now: u64) {
        while let Some((_, seq)) = self.events.pop_due(now) {
            self.sched.completion_events += 1;
            debug_assert!(seq >= self.rob_base, "completion for retired entry");
            let mut waiters = std::mem::take(&mut self.rob[(seq - self.rob_base) as usize].waiters);
            for &consumer in &waiters {
                self.sched.wakeups += 1;
                let entry = &mut self.rob[(consumer - self.rob_base) as usize];
                entry.pending -= 1;
                if entry.pending == 0 && !matches!(entry.kind, InstructionKind::MatMul) {
                    self.rs_ready += 1;
                }
            }
            if waiters.capacity() > 0 {
                waiters.clear();
                self.spare_waiters.push(waiters);
            }
        }
    }

    /// Registers `seq` as a waiter on `producer` if the producer has not
    /// completed by the current cycle, bumping `pending` per outstanding
    /// reference. An entry's first waiter reuses a drained buffer.
    fn subscribe(&mut self, seq: u64, producer: u64, pending: &mut u32) {
        if producer < self.rob_base {
            return; // retired, hence complete
        }
        let entry = &mut self.rob[(producer - self.rob_base) as usize];
        if entry.issued && entry.complete_cycle <= self.cycle {
            return; // already complete
        }
        if entry.waiters.capacity() == 0 {
            if let Some(spare) = self.spare_waiters.pop() {
                entry.waiters = spare;
            }
        }
        entry.waiters.push(seq);
        *pending += 1;
    }
}

/// Compares two ROB windows for scheduling equivalence at `cycle`: exact
/// equality except that the `complete_cycle` of *dead* entries (issued,
/// complete by `cycle`, waiters drained) is normalized away — its only
/// remaining use is a `complete_cycle <= cycle` test that stays true
/// forever, so any two dead timestamps are interchangeable.
fn rob_eq(a: &VecDeque<RobEntry>, b: &VecDeque<RobEntry>, cycle: u64) -> bool {
    let dead = |e: &RobEntry| e.issued && e.complete_cycle <= cycle && e.waiters.is_empty();
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.kind == y.kind
                && x.issued == y.issued
                && x.retired == y.retired
                && x.pending == y.pending
                && x.waiters == y.waiters
                && (x.complete_cycle == y.complete_cycle || (dead(x) && dead(y)))
        })
}

/// The trace-driven out-of-order core.
///
/// See the crate-level documentation for the modelled pipeline. A `CpuCore`
/// owns its [`MatrixEngine`]; [`CpuCore::run`] executes one program to
/// completion and returns the [`CpuStats`], leaving the engine statistics
/// accessible through [`CpuCore::engine`].
///
/// [`CpuCore::run`] advances time with an event-driven scheduler (see
/// [`SchedStats`] and the `sched` module docs): it steps a cycle only when
/// that cycle can make progress and otherwise jumps straight to the next
/// completion event from its event heap. The original cycle-stepping loop
/// is retained as [`CpuCore::run_reference`]; both produce bit-identical
/// [`CpuStats`] for every program.
///
/// The event-driven path is **resumable**: [`CpuCore::begin_run`] opens a
/// [`CoreRun`], [`CpuCore::feed_segment`] streams bounded instruction
/// chunks into it (the pipeline simulates as far as the fed trace allows,
/// then pauses at an exact boundary), and [`CpuCore::run_to_quiescence`]
/// drains it to completion. [`CpuCore::run`] is one-shot sugar over this
/// machinery, so the streamed and materialized paths cannot drift.
#[derive(Debug, Clone)]
pub struct CpuCore {
    config: CpuConfig,
    engine: MatrixEngine,
    sched: SchedStats,
    stream: StreamStats,
    /// Monotonic id of the most recent run (streaming or reference) on
    /// this core. A [`CoreRun`] records the id it was opened under, so
    /// feeding a run whose engine state this core no longer holds is
    /// rejected instead of silently corrupting statistics. Cloning the
    /// core (checkpointing) preserves the id, so a cloned run remains
    /// valid on its cloned core.
    run_id: u64,
}

impl CpuCore {
    /// Creates a core hosting the given matrix engine.
    #[must_use]
    pub fn new(config: CpuConfig, engine: MatrixEngine) -> Self {
        CpuCore {
            config,
            engine,
            sched: SchedStats::default(),
            stream: StreamStats::default(),
            run_id: 0,
        }
    }

    /// The core configuration.
    #[must_use]
    pub const fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The hosted matrix engine (and its statistics).
    #[must_use]
    pub const fn engine(&self) -> &MatrixEngine {
        &self.engine
    }

    /// Scheduler counters of the most recent [`CpuCore::run`] (zeroed by
    /// [`CpuCore::run_reference`], which does not use the event scheduler).
    #[must_use]
    pub const fn sched_stats(&self) -> &SchedStats {
        &self.sched
    }

    /// Feed-side counters of the most recent streaming run (or one-shot
    /// [`CpuCore::run`], which feeds the whole program as one segment).
    /// Zeroed by [`CpuCore::run_reference`].
    #[must_use]
    pub const fn stream_stats(&self) -> &StreamStats {
        &self.stream
    }

    /// Executes `program` to completion and returns the run statistics.
    ///
    /// The matrix engine is reset at the start of every run so a single core
    /// can be reused across workloads.
    ///
    /// Time advances event-driven: completion timestamps (functional-unit
    /// latencies, matrix-engine completions converted at the clock ratio)
    /// live in a binary heap, instructions subscribe to their producers'
    /// completions at rename, and the core simulates only cycles on which
    /// the pipeline can move, jumping over idle gaps in one step. The
    /// resulting [`CpuStats`] are bit-identical to
    /// [`CpuCore::run_reference`].
    ///
    /// This is one-shot sugar over the resumable streaming API: the whole
    /// program is fed as a single segment and the run is drained to
    /// quiescence. Feeding the same instructions in arbitrary bounded
    /// segments produces bit-identical statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::InvalidConfig`] for an invalid configuration and
    /// [`CpuError::Engine`] when the engine rejects an instruction (tile
    /// larger than the configured array).
    pub fn run(&mut self, program: &Program) -> Result<CpuStats, CpuError> {
        let mut run = self.begin_run(program.isa())?;
        self.feed_instructions(&mut run, program.instructions())?;
        self.run_to_quiescence(run)
    }

    /// Opens a resumable streaming run against `isa`, resetting the matrix
    /// engine and the scheduler counters.
    ///
    /// The returned [`CoreRun`] is bound to this core (which hosts the
    /// engine state): feed it with [`CpuCore::feed_segment`] /
    /// [`CpuCore::feed_instructions`] and complete it with
    /// [`CpuCore::run_to_quiescence`]. Interleaving two runs on one core
    /// is rejected — beginning a run (or executing [`CpuCore::run`] /
    /// [`CpuCore::run_reference`]) resets the engine and invalidates any
    /// outstanding run, and a run fed to a core other than the one that
    /// opened it (or a clone of it) returns [`CpuError::Stream`].
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::InvalidConfig`] for an invalid configuration.
    pub fn begin_run(&mut self, isa: &IsaConfig) -> Result<CoreRun, CpuError> {
        self.config.validate()?;
        self.engine.reset();
        self.sched = SchedStats::default();
        self.stream = StreamStats::default();
        self.run_id += 1;
        let clock_ratio = u64::from(self.engine.config().clock_ratio());
        Ok(CoreRun::new(isa, self.run_id, self.config, clock_ratio))
    }

    /// Rejects a run whose engine state this core no longer holds (opened
    /// on a different core, or invalidated by a later `begin_run` /
    /// `run_reference` resetting the engine).
    fn check_run(&self, run: &CoreRun) -> Result<(), CpuError> {
        if run.run_id != self.run_id {
            return Err(CpuError::Stream {
                reason: "run is not this core's active run (opened on another core or \
                         invalidated by a later run on this one)"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Feeds one validated segment into a streaming run and simulates as
    /// far as the fed trace allows (see [`CpuCore::feed_instructions`]).
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Stream`] when the segment's ISA differs from the
    /// run's or the run was already finalized, plus the errors of
    /// [`CpuCore::feed_instructions`].
    pub fn feed_segment(
        &mut self,
        run: &mut CoreRun,
        segment: &ProgramSegment,
    ) -> Result<(), CpuError> {
        if segment.isa() != &run.isa {
            return Err(CpuError::Stream {
                reason: "segment was built against a different isa than the run".to_string(),
            });
        }
        self.feed_instructions(run, segment.instructions())
    }

    /// Appends `instructions` to a streaming run's fetch buffer and
    /// advances the pipeline until it either needs instructions that have
    /// not been fed yet (pausing at an exact mid-cycle boundary) or all fed
    /// work is in flight.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Stream`] when the run was already finalized and
    /// [`CpuError::Engine`] when the engine rejects an instruction.
    pub fn feed_instructions(
        &mut self,
        run: &mut CoreRun,
        instructions: &[Instruction],
    ) -> Result<(), CpuError> {
        self.check_run(run)?;
        if run.finalized {
            return Err(CpuError::Stream {
                reason: "cannot feed a finalized run".to_string(),
            });
        }
        run.pending.extend(instructions.iter().copied());
        run.fed += instructions.len();
        if !instructions.is_empty() {
            run.stream.segments += 1;
            run.stream.fed_instructions += instructions.len() as u64;
            run.stream.peak_resident = run.stream.peak_resident.max(run.pending.len());
        }
        let result = self.advance(run);
        self.sched = run.sched;
        self.stream = run.stream;
        result
    }

    /// Finalizes a streaming run (no further feeds), drains the pipeline to
    /// quiescence and returns the run statistics — bit-identical to a
    /// one-shot [`CpuCore::run`] of the concatenated trace.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Engine`] when the engine rejects an instruction
    /// and [`CpuError::InvalidConfig`] on a pipeline deadlock (impossible
    /// for validated programs).
    pub fn run_to_quiescence(&mut self, mut run: CoreRun) -> Result<CpuStats, CpuError> {
        self.check_run(&run)?;
        run.finalized = true;
        self.advance(&mut run)?;
        debug_assert!(run.done, "a finalized run drains to completion");
        self.sched = run.sched;
        self.stream = run.stream;
        let mut stats = run.stats;
        if run.fed > 0 {
            stats.engine = *self.engine.stats();
        }
        Ok(stats)
    }

    // ---- Fast-forward support (used by `crate::SpeculativeRun`) --------

    /// Takes the statistics a paused run accumulated since the last take
    /// (or since `begin_run`), leaving the run's counters — and the hosted
    /// engine's — zeroed so the next interval accumulates from scratch.
    ///
    /// Folding the returned intervals in order with the `accumulate`
    /// methods reproduces the unsegmented counters bit for bit; this is
    /// what lets a fast-forward measure one stride's statistics and fold
    /// in repeats of them without double-counting.
    pub(crate) fn take_interval_stats(
        &mut self,
        run: &mut CoreRun,
    ) -> (CpuStats, SchedStats, StreamStats) {
        debug_assert!(
            self.check_run(run).is_ok(),
            "interval take on a foreign run"
        );
        let mut cpu = std::mem::take(&mut run.stats);
        cpu.engine = *self.engine.stats();
        self.engine.reset_stats();
        let sched = std::mem::take(&mut run.sched);
        let stream = std::mem::take(&mut run.stream);
        self.sched = run.sched;
        self.stream = run.stream;
        (cpu, sched, stream)
    }

    /// Shifts the paused boundary state of `(self, run)` forward by
    /// `cycles` core cycles, `seqs` rename sequences and `matmuls` engine
    /// submissions — the state a perfectly periodic execution would reach
    /// after that much more identical work. A probe checks one shift bit
    /// for bit against the real next boundary
    /// ([`CpuCore::boundary_matches`]) before a fast-forward trusts it.
    ///
    /// Time-valued fields move by `cycles` (the `u64::MAX` not-yet-issued
    /// sentinel excepted), sequence-valued fields by `seqs`, and the hosted
    /// engine by the corresponding engine-clock deltas. Requires a starved-
    /// rename pause boundary (empty fetch buffer) and a cycle delta that is
    /// a whole number of engine cycles.
    pub(crate) fn shift_boundary(
        &mut self,
        run: &mut CoreRun,
        cycles: u64,
        seqs: u64,
        matmuls: u64,
    ) {
        debug_assert!(
            run.pending.is_empty(),
            "shift only at a starved-rename boundary"
        );
        debug_assert_eq!(
            cycles % run.clock_ratio,
            0,
            "cycle delta must be whole engine cycles"
        );
        fn shift_writers(writers: &mut [Option<u64>], seqs: u64) {
            for seq in writers.iter_mut().flatten() {
                *seq += seqs;
            }
        }
        shift_writers(&mut run.tile_writer, seqs);
        shift_writers(&mut run.gpr_writer, seqs);
        shift_writers(&mut run.vec_writer, seqs);
        for entry in &mut run.rob {
            if entry.complete_cycle != u64::MAX {
                entry.complete_cycle += cycles;
            }
            for waiter in &mut entry.waiters {
                *waiter += seqs;
            }
        }
        run.rob_base += seqs;
        run.next_seq += seqs;
        for (seq, _) in &mut run.rs_slots {
            *seq += seqs;
        }
        for event in &mut run.engine_events {
            if let EngineEvent::Matmul { rob_seq, .. } = event {
                *rob_seq += seqs;
            }
        }
        run.events.shift(cycles, seqs);
        run.fed += seqs as usize;
        run.retired += seqs as usize;
        run.cycle += cycles;
        self.engine.shift_state(cycles / run.clock_ratio, matmuls);
    }

    /// Whether `(self, run)` and `(other, other_run)` are paused at exactly
    /// the same pipeline boundary: equal *dynamics* — everything that can
    /// influence any future scheduling decision — with statistics excluded.
    ///
    /// Two classes of semantically dead values are normalized rather than
    /// compared exactly:
    ///
    /// * writer-map slots whose producer has retired — `None` and any
    ///   retired sequence are interchangeable, because rename treats both
    ///   as "operand complete" and nothing else ever reads them;
    /// * the `complete_cycle` of a ROB entry that has issued, completed by
    ///   the current cycle and drained its waiters — every future read is
    ///   a `complete_cycle <= cycle` test that is invariantly true, so the
    ///   exact timestamp (often dating from a long-gone pipeline-fill
    ///   transient) cannot influence anything.
    ///
    /// The event heaps are compared through their canonical sorted view
    /// (heap layout is insertion-order dependent and has no semantic
    /// meaning).
    pub(crate) fn boundary_matches(
        &self,
        run: &CoreRun,
        other: &CpuCore,
        other_run: &CoreRun,
    ) -> bool {
        fn writers_eq<const N: usize>(
            a: &[Option<u64>; N],
            b: &[Option<u64>; N],
            rob_base: u64,
        ) -> bool {
            a.iter().zip(b.iter()).all(|(x, y)| {
                let complete = |slot: &Option<u64>| match slot {
                    None => true,
                    Some(seq) => *seq < rob_base,
                };
                x == y || (complete(x) && complete(y))
            })
        }
        run.cycle == other_run.cycle
            && run.rob_base == other_run.rob_base
            && run.next_seq == other_run.next_seq
            && run.fed == other_run.fed
            && run.retired == other_run.retired
            && run.phase == other_run.phase
            && run.finalized == other_run.finalized
            && run.done == other_run.done
            && run.pending.is_empty()
            && other_run.pending.is_empty()
            && run.rs_ready == other_run.rs_ready
            && run.rs_unsorted == other_run.rs_unsorted
            && run.rs_slots == other_run.rs_slots
            && rob_eq(&run.rob, &other_run.rob, run.cycle)
            && run.engine_events == other_run.engine_events
            && run.events.events_eq(&other_run.events)
            && writers_eq(&run.tile_writer, &other_run.tile_writer, run.rob_base)
            && writers_eq(&run.gpr_writer, &other_run.gpr_writer, run.rob_base)
            && writers_eq(&run.vec_writer, &other_run.vec_writer, run.rob_base)
            && self.engine.scheduling_state_eq(&other.engine)
    }

    /// The streaming pipeline loop: simulates cycles until the run
    /// completes (finalized and fully retired) or must pause for more
    /// instructions. Resumes exactly where the previous call paused —
    /// including mid-cycle, mid-rename — so the feed pattern cannot perturb
    /// the simulated statistics.
    fn advance(&mut self, run: &mut CoreRun) -> Result<(), CpuError> {
        if run.done {
            return Ok(());
        }
        if run.fed == 0 {
            // Nothing was ever fed: an empty finalized run completes with
            // default statistics (matching the one-shot empty-program
            // fast path); otherwise wait for the first segment.
            run.done = run.finalized;
            return Ok(());
        }

        loop {
            if matches!(run.phase, RunPhase::TopOfCycle) {
                run.sched.visited_cycles += 1;
                run.drain_due(run.cycle);

                let mut progress = false;

                // ---- Retire (in order) ---------------------------------
                let mut retired_this_cycle = 0;
                while retired_this_cycle < run.config.retire_width {
                    let Some(front) = run.rob.front() else { break };
                    if !(front.issued && front.complete_cycle <= run.cycle && !front.retired) {
                        break;
                    }
                    let entry = run.rob.pop_front().expect("front exists");
                    debug_assert!(entry.waiters.is_empty(), "waiters outlive completion");
                    run.rob_base += 1;
                    run.retired += 1;
                    retired_this_cycle += 1;
                    progress = true;
                    run.stats.retired_instructions += 1;
                    match entry.kind {
                        InstructionKind::MatMul => run.stats.retired_matmuls += 1,
                        InstructionKind::TileLoad | InstructionKind::TileStore => {
                            run.stats.retired_tile_memory_ops += 1;
                        }
                        _ => {}
                    }
                }
                if run.retired == run.fed {
                    // Everything fed has retired. A pause always fires at
                    // the first starved rename attempt, which precedes the
                    // final retirement by at least a cycle — so reaching
                    // this point mid-stream (unfinalized) is impossible.
                    debug_assert!(run.finalized, "drained an unfinalized run");
                    run.stats.cycles = run.cycle;
                    run.done = true;
                    return Ok(());
                }

                // ---- Issue to functional units --------------------------
                let mut issued_this_cycle = 0;
                let mut alu_used = 0;
                let mut lsu_used = 0;
                let mut vec_used = 0;

                // Matrix-engine events are processed in program order.
                while issued_this_cycle < run.config.issue_width {
                    match run.engine_events.front() {
                        Some(EngineEvent::Write(reg)) => {
                            self.engine.note_tile_write(*reg);
                            run.engine_events.pop_front();
                        }
                        Some(EngineEvent::Matmul {
                            rob_seq,
                            weight,
                            tile,
                        }) => {
                            let seq = *rob_seq;
                            if run.rob[(seq - run.rob_base) as usize].pending > 0 {
                                break;
                            }
                            let engine_ready = run.cycle.div_ceil(run.clock_ratio);
                            let request = MmRequest::ready_at(*weight, *tile, engine_ready);
                            self.engine
                                .submit(request)
                                .map_err(|source| CpuError::Engine {
                                    instruction_index: (seq) as usize,
                                    source,
                                })?;
                            // The engine reports the completion as a
                            // timestamped event; convert it to core cycles
                            // and schedule it.
                            for completion in self.engine.drain_completions() {
                                let complete = completion.complete_cycle * run.clock_ratio;
                                let idx = (seq - run.rob_base) as usize;
                                run.rob[idx].issued = true;
                                run.rob[idx].complete_cycle = complete;
                                run.events.push(complete, seq);
                            }
                            run.engine_events.pop_front();
                            issued_this_cycle += 1;
                            progress = true;
                            run.drain_due(run.cycle);
                        }
                        None => break,
                    }
                }

                // Ordinary reservation-station issue. The scan replicates
                // the reference loop exactly — ascending-sequence order at
                // scan start, `swap_remove` on issue (which perturbs the
                // in-scan order), port-first checks — but runs only when at
                // least one entry is actually ready.
                if issued_this_cycle < run.config.issue_width && run.rs_ready > 0 {
                    if run.rs_unsorted {
                        run.rs_slots.sort_unstable_by_key(|(seq, _)| *seq);
                        run.rs_unsorted = false;
                    }
                    let mut i = 0;
                    while i < run.rs_slots.len() && issued_this_cycle < run.config.issue_width {
                        let (seq, kind) = run.rs_slots[i];
                        let port_free = match kind {
                            InstructionKind::ScalarAlu
                            | InstructionKind::Branch
                            | InstructionKind::Nop
                            | InstructionKind::TileZero => alu_used < run.config.alu_units,
                            InstructionKind::TileLoad
                            | InstructionKind::TileStore
                            | InstructionKind::ScalarLoad => lsu_used < run.config.lsu_ports,
                            InstructionKind::VectorFma => vec_used < run.config.vector_units,
                            InstructionKind::MatMul => false,
                        };
                        if !port_free {
                            i += 1;
                            continue;
                        }
                        if run.rob[(seq - run.rob_base) as usize].pending > 0 {
                            i += 1;
                            continue;
                        }
                        let latency = match kind {
                            InstructionKind::ScalarAlu
                            | InstructionKind::Branch
                            | InstructionKind::Nop
                            | InstructionKind::TileZero => {
                                alu_used += 1;
                                run.config.alu_latency
                            }
                            InstructionKind::TileLoad => {
                                lsu_used += 1;
                                run.config.tile_load_latency
                            }
                            InstructionKind::TileStore => {
                                lsu_used += 1;
                                run.config.tile_store_latency
                            }
                            InstructionKind::ScalarLoad => {
                                lsu_used += 1;
                                run.config.scalar_load_latency
                            }
                            InstructionKind::VectorFma => {
                                vec_used += 1;
                                run.config.vector_latency
                            }
                            InstructionKind::MatMul => unreachable!("handled via engine events"),
                        };
                        let idx = (seq - run.rob_base) as usize;
                        run.rob[idx].issued = true;
                        run.rob[idx].complete_cycle = run.cycle + latency;
                        run.events.push(run.cycle + latency, seq);
                        run.rs_slots.swap_remove(i);
                        if i < run.rs_slots.len() {
                            run.rs_unsorted = true;
                        }
                        run.rs_ready -= 1;
                        issued_this_cycle += 1;
                        progress = true;
                        // Zero-latency units complete within this very
                        // cycle; wake their consumers so the rest of the
                        // scan sees them, exactly as the reference loop's
                        // fresh completion checks would.
                        run.drain_due(run.cycle);
                        // Do not advance `i`: swap_remove moved a new entry
                        // here.
                    }
                }

                run.phase = RunPhase::Rename {
                    progress,
                    renamed: 0,
                };
            }

            // ---- Rename / dispatch ----------------------------------
            // (Re-)entered mid-cycle after a pause: retire and issue for
            // this cycle already ran; `renamed`/`progress` carry over.
            let RunPhase::Rename {
                mut progress,
                mut renamed,
            } = run.phase
            else {
                unreachable!("phase was just set to Rename")
            };
            loop {
                if renamed >= run.config.fetch_width {
                    break;
                }
                let Some(&inst) = run.pending.front() else {
                    if run.finalized {
                        break;
                    }
                    // The fetch buffer ran dry mid-program: pause *before*
                    // probing ROB/RS occupancy, because the stall counters
                    // (and rename itself) depend on whether an instruction
                    // is available — exactly like the one-shot loop's
                    // `next_fetch < total` guard.
                    run.phase = RunPhase::Rename { progress, renamed };
                    run.stream.pauses += 1;
                    return Ok(());
                };
                if run.rob.len() >= run.config.rob_size {
                    run.stats.rob_full_stalls += 1;
                    break;
                }
                let kind = inst.kind();
                let needs_rs = !matches!(kind, InstructionKind::MatMul);
                if needs_rs && run.rs_slots.len() >= run.config.rs_size {
                    run.stats.rs_full_stalls += 1;
                    break;
                }
                let seq = run.next_seq;

                // Subscribe to the producers named by the current renaming
                // map: each incomplete producer gets this instruction on
                // its waiter list (with multiplicity — a producer feeding
                // two operands wakes this instruction twice, matching the
                // two pending references counted here).
                let mut pending: u32 = 0;
                for r in inst.tile_reads().iter() {
                    if let Some(p) = run.tile_writer[r.index()] {
                        run.subscribe(seq, p, &mut pending);
                    }
                }
                for r in inst.gpr_reads().iter() {
                    if let Some(p) = run.gpr_writer[r.index()] {
                        run.subscribe(seq, p, &mut pending);
                    }
                }
                if let Instruction::VectorFma { dst, src1, src2 } = inst {
                    for r in [dst, src1, src2] {
                        if let Some(p) = run.vec_writer[r as usize % NUM_VEC_REGS] {
                            run.subscribe(seq, p, &mut pending);
                        }
                    }
                }

                // Dispatch either to the matrix-engine event queue or the
                // RS.
                match inst {
                    Instruction::MatMul { acc, a: _, b } => {
                        run.engine_events.push_back(EngineEvent::Matmul {
                            rob_seq: seq,
                            weight: b,
                            tile: run.full_tile,
                        });
                        // The destination write is visible to the engine's
                        // dirty-bit logic after the instruction itself.
                        run.engine_events.push_back(EngineEvent::Write(acc));
                    }
                    _ => {
                        for w in inst.tile_writes().iter() {
                            run.engine_events.push_back(EngineEvent::Write(w));
                        }
                        // Sequences grow monotonically, so appending keeps
                        // the slot vector sorted.
                        run.rs_slots.push((seq, kind));
                        if pending == 0 {
                            run.rs_ready += 1;
                        }
                    }
                }

                // Update the renaming map with this instruction's writes.
                for w in inst.tile_writes().iter() {
                    run.tile_writer[w.index()] = Some(seq);
                }
                for w in inst.gpr_writes().iter() {
                    run.gpr_writer[w.index()] = Some(seq);
                }
                if let Instruction::VectorFma { dst, .. } = inst {
                    run.vec_writer[dst as usize % NUM_VEC_REGS] = Some(seq);
                }

                let mut entry = RobEntry::new(kind);
                entry.pending = pending;
                run.rob.push_back(entry);
                run.pending.pop_front();
                run.next_seq += 1;
                renamed += 1;
                progress = true;
            }
            run.phase = RunPhase::TopOfCycle;

            // ---- Advance time ---------------------------------------
            if progress {
                run.cycle += 1;
            } else {
                // Nothing moved: jump straight to the next completion
                // event. Every event still in the heap is strictly in the
                // future (due events were drained above), so the heap's
                // minimum is exactly the reference loop's "next completion
                // of an issued, incomplete ROB entry".
                match run.events.next_time() {
                    Some(wake) => {
                        debug_assert!(wake > run.cycle, "due events were drained");
                        run.sched.skipped_cycles += wake - run.cycle - 1;
                        run.cycle = wake;
                    }
                    None => {
                        // No instruction in flight can unblock us; this only
                        // happens if the program deadlocks, which a validated
                        // program cannot do — but guard against it anyway.
                        return Err(CpuError::InvalidConfig {
                            reason: "pipeline deadlock: no in-flight completion can unblock"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }

    /// Executes `program` with the original cycle-stepping pipeline loop.
    ///
    /// This is the pre-event-driven implementation, retained as the golden
    /// reference: it advances cycle by cycle (with the narrow ROB-only
    /// skip-ahead it always had), re-deriving readiness from scratch each
    /// step. [`CpuCore::run`] must produce bit-identical [`CpuStats`];
    /// parity tests and the `run_all` timing comparison rely on this
    /// method. Scheduler counters ([`CpuCore::sched_stats`]) are zeroed.
    ///
    /// # Errors
    ///
    /// Identical to [`CpuCore::run`].
    pub fn run_reference(&mut self, program: &Program) -> Result<CpuStats, CpuError> {
        self.config.validate()?;
        self.engine.reset();
        self.sched = SchedStats::default();
        self.stream = StreamStats::default();
        // The reference loop resets the engine too: any outstanding
        // streaming run's state is gone, so invalidate it.
        self.run_id += 1;

        let instructions = program.instructions();
        let total = instructions.len();
        let mut stats = CpuStats::default();
        if total == 0 {
            return Ok(stats);
        }

        let isa = program.isa();
        let full_tile = TileDims::new(isa.tm(), isa.tk(), isa.tn());
        let clock_ratio = u64::from(self.engine.config().clock_ratio());

        let mut tile_writer: [Option<u64>; NUM_TILE_REGS] = [None; NUM_TILE_REGS];
        let mut gpr_writer: [Option<u64>; NUM_GPR_REGS] = [None; NUM_GPR_REGS];
        let mut vec_writer: [Option<u64>; NUM_VEC_REGS] = [None; NUM_VEC_REGS];

        let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(self.config.rob_size);
        let mut rob_base: u64 = 0;
        let mut next_seq: u64 = 0;

        let mut rs: Vec<RsEntry> = Vec::with_capacity(self.config.rs_size);
        let mut engine_events: VecDeque<EngineEvent> = VecDeque::new();
        // Producers of each pending matmul, looked up when it reaches the
        // head of the engine-event queue.
        let mut matmul_producers: HashMap<u64, Vec<u64>> = HashMap::new();

        let mut next_fetch = 0usize;
        let mut retired = 0usize;
        let mut cycle: u64 = self.config.frontend_depth;

        let entry_completed = |rob: &VecDeque<RobEntry>, rob_base: u64, seq: u64, now: u64| {
            // Anything older than the ROB window has retired and is complete.
            if seq < rob_base {
                return true;
            }
            let entry = &rob[(seq - rob_base) as usize];
            entry.issued && entry.complete_cycle <= now
        };

        loop {
            let mut progress = false;

            // ---- Retire (in order) -------------------------------------
            let mut retired_this_cycle = 0;
            while retired_this_cycle < self.config.retire_width {
                let Some(front) = rob.front() else { break };
                if !(front.issued && front.complete_cycle <= cycle && !front.retired) {
                    break;
                }
                let entry = rob.pop_front().expect("front exists");
                rob_base += 1;
                retired += 1;
                retired_this_cycle += 1;
                progress = true;
                stats.retired_instructions += 1;
                match entry.kind {
                    InstructionKind::MatMul => stats.retired_matmuls += 1,
                    InstructionKind::TileLoad | InstructionKind::TileStore => {
                        stats.retired_tile_memory_ops += 1;
                    }
                    _ => {}
                }
            }
            if retired == total {
                stats.cycles = cycle;
                break;
            }

            // ---- Issue to functional units ------------------------------
            let mut issued_this_cycle = 0;
            let mut alu_used = 0;
            let mut lsu_used = 0;
            let mut vec_used = 0;

            // Matrix-engine events are processed in program order.
            while issued_this_cycle < self.config.issue_width {
                match engine_events.front() {
                    Some(EngineEvent::Write(reg)) => {
                        self.engine.note_tile_write(*reg);
                        engine_events.pop_front();
                    }
                    Some(EngineEvent::Matmul {
                        rob_seq,
                        weight,
                        tile,
                    }) => {
                        let seq = *rob_seq;
                        let producers = matmul_producers
                            .get(&seq)
                            .expect("producers recorded at rename");
                        let ready = producers
                            .iter()
                            .all(|&p| entry_completed(&rob, rob_base, p, cycle));
                        if !ready {
                            break;
                        }
                        let engine_ready = cycle.div_ceil(clock_ratio);
                        let request = MmRequest::ready_at(*weight, *tile, engine_ready);
                        let completion =
                            self.engine
                                .submit(request)
                                .map_err(|source| CpuError::Engine {
                                    instruction_index: (seq) as usize,
                                    source,
                                })?;
                        let idx = (seq - rob_base) as usize;
                        rob[idx].issued = true;
                        rob[idx].complete_cycle = completion.complete_cycle * clock_ratio;
                        matmul_producers.remove(&seq);
                        engine_events.pop_front();
                        issued_this_cycle += 1;
                        progress = true;
                    }
                    None => break,
                }
            }

            // Ordinary reservation-station issue, oldest first.
            if issued_this_cycle < self.config.issue_width && !rs.is_empty() {
                rs.sort_unstable_by_key(|e| e.rob_seq);
                let mut i = 0;
                while i < rs.len() && issued_this_cycle < self.config.issue_width {
                    let entry = &rs[i];
                    let port_free = match entry.kind {
                        InstructionKind::ScalarAlu
                        | InstructionKind::Branch
                        | InstructionKind::Nop
                        | InstructionKind::TileZero => alu_used < self.config.alu_units,
                        InstructionKind::TileLoad
                        | InstructionKind::TileStore
                        | InstructionKind::ScalarLoad => lsu_used < self.config.lsu_ports,
                        InstructionKind::VectorFma => vec_used < self.config.vector_units,
                        InstructionKind::MatMul => false,
                    };
                    if !port_free {
                        i += 1;
                        continue;
                    }
                    let ready = entry
                        .producers
                        .iter()
                        .all(|&p| entry_completed(&rob, rob_base, p, cycle));
                    if !ready {
                        i += 1;
                        continue;
                    }
                    let latency = match entry.kind {
                        InstructionKind::ScalarAlu
                        | InstructionKind::Branch
                        | InstructionKind::Nop
                        | InstructionKind::TileZero => {
                            alu_used += 1;
                            self.config.alu_latency
                        }
                        InstructionKind::TileLoad => {
                            lsu_used += 1;
                            self.config.tile_load_latency
                        }
                        InstructionKind::TileStore => {
                            lsu_used += 1;
                            self.config.tile_store_latency
                        }
                        InstructionKind::ScalarLoad => {
                            lsu_used += 1;
                            self.config.scalar_load_latency
                        }
                        InstructionKind::VectorFma => {
                            vec_used += 1;
                            self.config.vector_latency
                        }
                        InstructionKind::MatMul => unreachable!("handled via engine events"),
                    };
                    let seq = entry.rob_seq;
                    let idx = (seq - rob_base) as usize;
                    rob[idx].issued = true;
                    rob[idx].complete_cycle = cycle + latency;
                    rs.swap_remove(i);
                    issued_this_cycle += 1;
                    progress = true;
                    // Do not advance `i`: swap_remove moved a new entry here.
                }
            }

            // ---- Rename / dispatch --------------------------------------
            let mut renamed_this_cycle = 0;
            while renamed_this_cycle < self.config.fetch_width && next_fetch < total {
                if rob.len() >= self.config.rob_size {
                    stats.rob_full_stalls += 1;
                    break;
                }
                let inst = &instructions[next_fetch];
                let kind = inst.kind();
                let needs_rs = !matches!(kind, InstructionKind::MatMul);
                if needs_rs && rs.len() >= self.config.rs_size {
                    stats.rs_full_stalls += 1;
                    break;
                }
                let seq = next_seq;

                // Collect producers from the current renaming map.
                let mut producers = Vec::new();
                for r in inst.tile_reads().iter() {
                    if let Some(p) = tile_writer[r.index()] {
                        producers.push(p);
                    }
                }
                for r in inst.gpr_reads().iter() {
                    if let Some(p) = gpr_writer[r.index()] {
                        producers.push(p);
                    }
                }
                if let Instruction::VectorFma { dst, src1, src2 } = inst {
                    for r in [dst, src1, src2] {
                        if let Some(p) = vec_writer[*r as usize % NUM_VEC_REGS] {
                            producers.push(p);
                        }
                    }
                }

                // Dispatch either to the matrix-engine event queue or the RS.
                match inst {
                    Instruction::MatMul { acc, a: _, b } => {
                        engine_events.push_back(EngineEvent::Matmul {
                            rob_seq: seq,
                            weight: *b,
                            tile: full_tile,
                        });
                        matmul_producers.insert(seq, producers);
                        // The destination write is visible to the engine's
                        // dirty-bit logic after the instruction itself.
                        engine_events.push_back(EngineEvent::Write(*acc));
                    }
                    _ => {
                        for w in inst.tile_writes().iter() {
                            engine_events.push_back(EngineEvent::Write(w));
                        }
                        rs.push(RsEntry {
                            rob_seq: seq,
                            kind,
                            producers,
                        });
                    }
                }

                // Update the renaming map with this instruction's writes.
                for w in inst.tile_writes().iter() {
                    tile_writer[w.index()] = Some(seq);
                }
                for w in inst.gpr_writes().iter() {
                    gpr_writer[w.index()] = Some(seq);
                }
                if let Instruction::VectorFma { dst, .. } = inst {
                    vec_writer[*dst as usize % NUM_VEC_REGS] = Some(seq);
                }

                rob.push_back(RobEntry::new(kind));
                next_seq += 1;
                next_fetch += 1;
                renamed_this_cycle += 1;
                progress = true;
            }

            // ---- Advance time -------------------------------------------
            if progress {
                cycle += 1;
            } else {
                // Nothing moved: jump to the next completion event instead
                // of spinning cycle by cycle.
                //
                // Skip-ahead audit: deriving the wake cycle only from issued
                // ROB entries is sound for this pipeline. No-progress means
                // rename is blocked by a full ROB/RS (which only drains at
                // retire, i.e. after a completion), every RS entry and the
                // engine-event head are waiting on an incomplete producer,
                // and nothing retired — and by induction the oldest
                // unissued instruction only waits on *issued* producers, so
                // some in-flight completion exists unless the program is
                // truly finished or deadlocked. The minimum such completion
                // is therefore the exact next cycle on which any stage can
                // move; rename/RS-only progress before it is impossible.
                // The event-driven loop's heap jump relies on the same
                // argument, and the `skip_ahead_*` regression tests plus
                // the cross-crate parity proptests pin this behaviour.
                let next_completion = rob
                    .iter()
                    .filter(|e| e.issued && e.complete_cycle > cycle)
                    .map(|e| e.complete_cycle)
                    .min();
                match next_completion {
                    Some(c) => cycle = c,
                    None => {
                        // No instruction in flight can unblock us; this only
                        // happens if the program deadlocks, which a validated
                        // program cannot do — but guard against it anyway.
                        return Err(CpuError::InvalidConfig {
                            reason: "pipeline deadlock: no in-flight completion can unblock"
                                .to_string(),
                        });
                    }
                }
            }
        }

        // The reference loop consumes completions synchronously; drop the
        // event records the engine accumulated for event-driven hosts.
        self.engine.drain_completions();

        stats.engine = *self.engine.stats();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_isa::{GprReg, IsaConfig, MemRef, ProgramBuilder};
    use rasa_systolic::{ControlScheme, PeVariant, SystolicConfig};

    fn treg(i: u8) -> TileReg {
        TileReg::new(i).unwrap()
    }

    fn core(pe: PeVariant, scheme: ControlScheme) -> CpuCore {
        let engine = MatrixEngine::new(SystolicConfig::paper(pe, scheme).unwrap());
        CpuCore::new(CpuConfig::skylake_like(), engine)
    }

    /// Emits `k_steps` iterations of the Algorithm-1 micro-kernel (2 A × 2 B
    /// register blocking, 4 accumulators).
    fn microkernel_program(k_steps: usize) -> Program {
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        b.set_name("microkernel");
        for i in 0..4u8 {
            b.tile_load(treg(i), MemRef::tile(u64::from(i) * 0x400, 64));
        }
        for k in 0..k_steps {
            let base = 0x10_000 + (k as u64) * 0x2000;
            b.tile_load(treg(4), MemRef::tile(base, 64));
            b.tile_load(treg(6), MemRef::tile(base + 0x400, 64));
            b.matmul(treg(0), treg(6), treg(4));
            b.tile_load(treg(7), MemRef::tile(base + 0x800, 64));
            b.matmul(treg(1), treg(7), treg(4));
            b.tile_load(treg(5), MemRef::tile(base + 0xc00, 64));
            b.matmul(treg(2), treg(6), treg(5));
            b.matmul(treg(3), treg(7), treg(5));
        }
        for i in 0..4u8 {
            b.tile_store(MemRef::tile(u64::from(i) * 0x400, 64), treg(i));
        }
        b.finish().unwrap()
    }

    #[test]
    fn empty_program_runs_instantly() {
        let p = ProgramBuilder::new(IsaConfig::amx_like()).finish().unwrap();
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.retired_instructions, 0);
    }

    #[test]
    fn single_matmul_latency_includes_engine_and_frontend() {
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        b.tile_load(treg(0), MemRef::tile(0, 64));
        b.tile_load(treg(4), MemRef::tile(0x400, 64));
        b.tile_load(treg(6), MemRef::tile(0x800, 64));
        b.matmul(treg(0), treg(6), treg(4));
        let p = b.finish().unwrap();

        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        assert_eq!(stats.retired_instructions, 4);
        assert_eq!(stats.retired_matmuls, 1);
        // The run must at least cover the front end, the tile loads and the
        // 95-engine-cycle (380-core-cycle) matmul.
        assert!(stats.cycles >= 380);
        // …but not be absurdly long either.
        assert!(stats.cycles < 600);
    }

    #[test]
    fn all_instructions_retire_exactly_once() {
        let p = microkernel_program(8);
        let mut c = core(PeVariant::Baseline, ControlScheme::Wlbp);
        let stats = c.run(&p).unwrap();
        assert_eq!(stats.retired_instructions as usize, p.len());
        assert_eq!(stats.retired_matmuls as usize, p.count_matmuls());
        assert_eq!(stats.engine.matmuls as usize, p.count_matmuls());
    }

    #[test]
    fn pipelining_schemes_preserve_runtime_ordering() {
        let p = microkernel_program(32);
        let designs = [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Baseline, ControlScheme::Pipe),
            (PeVariant::Baseline, ControlScheme::Wlbp),
            (PeVariant::Dm, ControlScheme::Wlbp),
            (PeVariant::Db, ControlScheme::Wls),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ];
        let mut cycles = Vec::new();
        for (pe, scheme) in designs {
            let mut c = core(pe, scheme);
            cycles.push(c.run(&p).unwrap().cycles);
        }
        for pair in cycles.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "runtimes should improve monotonically: {cycles:?}"
            );
        }
        // The most aggressive design is far faster than the baseline.
        assert!(cycles[0] as f64 / *cycles.last().unwrap() as f64 > 2.5);
    }

    #[test]
    fn wlbp_bypasses_half_the_matmuls_on_algorithm1_blocking() {
        let p = microkernel_program(64);
        let mut c = core(PeVariant::Baseline, ControlScheme::Wlbp);
        let stats = c.run(&p).unwrap();
        // Each k-step has 4 matmuls of which 2 reuse the weight register.
        let rate = stats.engine.bypass_rate();
        assert!(rate > 0.40 && rate <= 0.55, "bypass rate {rate}");
    }

    #[test]
    fn scalar_dependencies_are_respected() {
        // A chain of dependent ALU instructions retires in bounded time and
        // the chain length is reflected in the cycle count.
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        let r0 = GprReg::new(0).unwrap();
        for _ in 0..64 {
            b.scalar_alu(r0, &[r0]);
        }
        let p = b.finish().unwrap();
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        assert_eq!(stats.retired_instructions, 64);
        // A fully serial 64-deep chain needs at least 64 execute cycles.
        assert!(stats.cycles >= 64);
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        for i in 0u16..256 {
            b.scalar_alu(GprReg::new((i % 16) as u8).unwrap(), &[]);
        }
        let p = b.finish().unwrap();
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        // 4-wide core on independent single-cycle ops: IPC well above 2.
        assert!(stats.ipc() > 2.0, "ipc {}", stats.ipc());
    }

    #[test]
    fn rob_pressure_is_reported_for_long_latency_chains() {
        // With the serialized BASE engine, matmuls back up and fill the ROB.
        let p = microkernel_program(64);
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        assert!(stats.rob_full_stalls > 0);
    }

    #[test]
    fn engine_rejection_is_reported() {
        // An ISA with a larger tile geometry produces tiles the paper-sized
        // array cannot hold.
        let isa = rasa_isa::IsaConfig::new(
            rasa_isa::TileGeometry::new(16, 128).unwrap(),
            8,
            rasa_isa::DataType::Bf16,
            rasa_isa::DataType::Fp32,
        )
        .unwrap();
        let mut b = ProgramBuilder::new(isa);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        b.tile_load(treg(4), MemRef::tile(0x400, 64));
        b.tile_load(treg(6), MemRef::tile(0x800, 64));
        b.matmul(treg(0), treg(6), treg(4));
        let p = b.finish().unwrap();
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let err = c.run(&p).unwrap_err();
        assert!(matches!(err, CpuError::Engine { .. }));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let engine = MatrixEngine::new(SystolicConfig::paper_baseline());
        let mut cfg = CpuConfig::skylake_like();
        cfg.rob_size = 0;
        let mut c = CpuCore::new(cfg, engine);
        let p = microkernel_program(1);
        assert!(matches!(c.run(&p), Err(CpuError::InvalidConfig { .. })));
    }

    #[test]
    fn core_is_reusable_across_runs() {
        let p = microkernel_program(4);
        let mut c = core(PeVariant::Dmdb, ControlScheme::Wls);
        let first = c.run(&p).unwrap();
        let second = c.run(&p).unwrap();
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.retired_instructions, second.retired_instructions);
    }

    #[test]
    fn vector_trace_executes() {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        for i in 0..64u8 {
            b.vector_fma(i % 8, 8 + (i % 8), 16 + (i % 8));
        }
        let p = b.finish().unwrap();
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        assert_eq!(stats.retired_instructions, 64);
        assert!(stats.cycles >= 64 / 2);
    }

    // ---- Event-driven scheduler parity and regression tests -------------

    /// Every paper design point, for the parity sweeps below.
    fn all_designs() -> [(PeVariant, ControlScheme); 6] {
        [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Baseline, ControlScheme::Pipe),
            (PeVariant::Baseline, ControlScheme::Wlbp),
            (PeVariant::Dm, ControlScheme::Wlbp),
            (PeVariant::Db, ControlScheme::Wls),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ]
    }

    fn assert_parity(program: &Program, what: &str) {
        for (pe, scheme) in all_designs() {
            let mut c = core(pe, scheme);
            let event = c.run(program).unwrap();
            let reference = c.run_reference(program).unwrap();
            assert_eq!(
                event, reference,
                "{what} on {pe:?}/{scheme:?}: event-driven stats diverge"
            );
        }
    }

    #[test]
    fn event_core_matches_reference_on_microkernels() {
        for k_steps in [1, 2, 7, 32] {
            assert_parity(&microkernel_program(k_steps), "microkernel");
        }
    }

    #[test]
    fn event_core_matches_reference_on_scalar_and_vector_mixes() {
        let isa = IsaConfig::amx_like();

        // Dependent ALU chain interleaved with independent work.
        let mut b = ProgramBuilder::new(isa);
        let r0 = GprReg::new(0).unwrap();
        for i in 0..48u16 {
            b.scalar_alu(r0, &[r0]);
            b.scalar_alu(GprReg::new((1 + i % 15) as u8).unwrap(), &[]);
            b.vector_fma((i % 8) as u8, 8 + (i % 8) as u8, 16 + (i % 8) as u8);
        }
        assert_parity(&b.finish().unwrap(), "scalar/vector mix");

        // Loads feeding stores through tile registers, with scalar loads.
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        for i in 0..32u8 {
            let reg = treg(i % 8);
            b.tile_load(reg, MemRef::tile(u64::from(i) * 0x400, 64));
            if i % 3 == 0 {
                b.push(Instruction::ScalarLoad {
                    dst: GprReg::new(i % 16).unwrap(),
                    base: Some(GprReg::new((i + 1) % 16).unwrap()),
                });
            }
            b.tile_store(MemRef::tile(u64::from(i) * 0x400, 64), reg);
        }
        assert_parity(&b.finish().unwrap(), "load/store mix");
    }

    #[test]
    fn event_core_matches_reference_under_tiny_buffers() {
        // Small ROB/RS force every stall path (rob_full, rs_full) and the
        // skip-ahead, so parity here covers the stall accounting too.
        let p = microkernel_program(12);
        for (rob_size, rs_size) in [(8, 4), (16, 2), (97, 60)] {
            for (pe, scheme) in all_designs() {
                let mut cfg = CpuConfig::skylake_like();
                cfg.rob_size = rob_size;
                cfg.rs_size = rs_size;
                let engine = MatrixEngine::new(SystolicConfig::paper(pe, scheme).unwrap());
                let mut c = CpuCore::new(cfg, engine);
                let event = c.run(&p).unwrap();
                let reference = c.run_reference(&p).unwrap();
                assert_eq!(
                    event, reference,
                    "ROB {rob_size} / RS {rs_size} on {pe:?}/{scheme:?}"
                );
                assert!(event.rob_full_stalls > 0 || rob_size == 97);
            }
        }
    }

    #[test]
    fn skip_ahead_wakes_rename_after_long_engine_gaps() {
        // Regression test for the skip-ahead audit (ISSUE 3): with the
        // serialized BASE engine and a tiny ROB, the core repeatedly jumps
        // over multi-hundred-cycle engine gaps while rename is blocked.
        // The jump must land exactly on the completion that unblocks
        // retirement so rename-only progress resumes without spinning or
        // overshooting: every instruction still retires, and the
        // event-driven and reference cores agree bit for bit.
        let p = microkernel_program(16);
        let mut cfg = CpuConfig::skylake_like();
        cfg.rob_size = 6; // smaller than one k-step's instruction count
        let engine = MatrixEngine::new(
            SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Base).unwrap(),
        );
        let mut c = CpuCore::new(cfg, engine);
        let event = c.run(&p).unwrap();
        let sched = *c.sched_stats();
        let reference = c.run_reference(&p).unwrap();
        assert_eq!(event, reference);
        assert_eq!(event.retired_instructions as usize, p.len());
        // The engine gaps dominate the run: most of the timeline is jumped
        // over, not stepped.
        assert!(
            sched.skipped_cycles > sched.visited_cycles,
            "expected mostly-skipped timeline, got {sched:?}"
        );
        // Each visited-but-blocked cycle contributes exactly one stall, so
        // the stall count stays far below the total cycle count (the spin
        // failure mode would count thousands).
        assert!(event.rob_full_stalls < sched.visited_cycles);
    }

    #[test]
    fn sched_stats_cover_the_whole_timeline() {
        let p = microkernel_program(8);
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let stats = c.run(&p).unwrap();
        let sched = *c.sched_stats();
        // Visited + skipped cycles tile the interval from the first fetch
        // to the final cycle exactly.
        assert_eq!(
            sched.visited_cycles + sched.skipped_cycles,
            stats.cycles - CpuConfig::skylake_like().frontend_depth + 1
        );
        // One completion event per issued instruction, one or more wakeups
        // per dependence edge that was in flight.
        assert_eq!(sched.completion_events, stats.retired_instructions);
        assert!(sched.wakeups > 0);
        assert!(sched.skip_rate() > 0.0);
        // The reference loop reports no scheduler activity.
        c.run_reference(&p).unwrap();
        assert_eq!(*c.sched_stats(), SchedStats::default());
    }

    // ---- Resumable (streaming) core tests -------------------------------

    /// Feeds `program` in segments of `chunk` instructions and drains the
    /// run, returning the statistics.
    fn run_chunked(core: &mut CpuCore, program: &Program, chunk: usize) -> CpuStats {
        let mut run = core.begin_run(program.isa()).unwrap();
        for slice in program.instructions().chunks(chunk) {
            core.feed_instructions(&mut run, slice).unwrap();
        }
        core.run_to_quiescence(run).unwrap()
    }

    #[test]
    fn segment_feeding_is_bit_identical_for_any_slicing() {
        // The feed pattern must be invisible: chunk sizes of 1 (maximal
        // pausing), a prime, and effectively-one-shot all reproduce the
        // one-shot statistics on every design, bit for bit.
        let p = microkernel_program(12);
        for (pe, scheme) in all_designs() {
            let mut c = core(pe, scheme);
            let oneshot = c.run(&p).unwrap();
            let oneshot_sched = *c.sched_stats();
            for chunk in [1, 7, p.len()] {
                let streamed = run_chunked(&mut c, &p, chunk);
                assert_eq!(streamed, oneshot, "chunk {chunk} on {pe:?}/{scheme:?}");
                assert_eq!(
                    *c.sched_stats(),
                    oneshot_sched,
                    "scheduler counters drift at chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn segment_feeding_matches_under_tiny_buffers() {
        // Stall accounting across pauses: a tiny ROB forces rob_full stalls
        // at rename, which must count identically however the trace is
        // sliced (the pause fires before any stall can be mis-attributed).
        let p = microkernel_program(16);
        let mut cfg = CpuConfig::skylake_like();
        cfg.rob_size = 6;
        cfg.rs_size = 4;
        let engine = MatrixEngine::new(
            SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Base).unwrap(),
        );
        let mut c = CpuCore::new(cfg, engine);
        let oneshot = c.run(&p).unwrap();
        assert!(oneshot.rob_full_stalls > 0);
        for chunk in [1, 3, 11] {
            assert_eq!(run_chunked(&mut c, &p, chunk), oneshot, "chunk {chunk}");
        }
    }

    #[test]
    fn stream_stats_track_feeding() {
        let p = microkernel_program(8);
        let mut c = core(PeVariant::Baseline, ControlScheme::Wlbp);

        // One-shot: a single segment, the whole program resident at once.
        c.run(&p).unwrap();
        let stream = *c.stream_stats();
        assert_eq!(stream.segments, 1);
        assert_eq!(stream.fed_instructions as usize, p.len());
        assert_eq!(stream.peak_resident, p.len());
        // Rename exhausts the buffer before finalization, so even the
        // one-shot path records exactly one starved-rename pause.
        assert_eq!(stream.pauses, 1);

        // Chunked: one segment per feed, peak resident bounded by the
        // chunk (the pipeline drains each chunk before pausing for more),
        // and one pause per starved rename.
        let chunk = 5;
        run_chunked(&mut c, &p, chunk);
        let stream = *c.stream_stats();
        assert_eq!(stream.segments as usize, p.len().div_ceil(chunk));
        assert_eq!(stream.fed_instructions as usize, p.len());
        assert!(
            stream.peak_resident <= 2 * chunk,
            "peak {} for chunk {chunk}",
            stream.peak_resident
        );
        assert!(stream.pauses >= stream.segments - 1);

        // The reference loop reports no streaming activity.
        c.run_reference(&p).unwrap();
        assert_eq!(*c.stream_stats(), StreamStats::default());
    }

    #[test]
    fn run_state_is_checkpointable() {
        // Clone (core, run) mid-stream; finishing the original and the
        // checkpoint with identical remaining feeds must agree bit for bit.
        let p = microkernel_program(10);
        let half = p.len() / 2;
        let mut c = core(PeVariant::Db, ControlScheme::Wls);
        let mut run = c.begin_run(p.isa()).unwrap();
        c.feed_instructions(&mut run, &p.instructions()[..half])
            .unwrap();

        let mut c2 = c.clone();
        let mut run2 = run.clone();
        assert!(!run2.is_finished());
        assert_eq!(run2.retired_instructions(), run.retired_instructions());

        c.feed_instructions(&mut run, &p.instructions()[half..])
            .unwrap();
        let original = c.run_to_quiescence(run).unwrap();
        c2.feed_instructions(&mut run2, &p.instructions()[half..])
            .unwrap();
        let resumed = c2.run_to_quiescence(run2).unwrap();
        assert_eq!(original, resumed);
        assert_eq!(original, c.run(&p).unwrap(), "and both match one-shot");
    }

    #[test]
    fn streaming_misuse_is_rejected() {
        let p = microkernel_program(1);
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);

        // Feeding after finalization: rebuild the run via run_to_quiescence
        // consuming it, so misuse means a fresh finalized-by-hand run.
        let mut run = c.begin_run(p.isa()).unwrap();
        run.finalized = true;
        assert!(matches!(
            c.feed_instructions(&mut run, p.instructions()),
            Err(CpuError::Stream { .. })
        ));

        // A segment against a different ISA is rejected.
        let other_isa = rasa_isa::IsaConfig::new(
            rasa_isa::TileGeometry::new(8, 64).unwrap(),
            8,
            rasa_isa::DataType::Bf16,
            rasa_isa::DataType::Fp32,
        )
        .unwrap();
        let mut b = rasa_isa::ProgramBuilder::new(other_isa);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        let segment = b.finish_segment().unwrap();
        let mut run = c.begin_run(p.isa()).unwrap();
        assert!(matches!(
            c.feed_segment(&mut run, &segment),
            Err(CpuError::Stream { .. })
        ));

        // An empty finalized run completes with default statistics, like
        // the one-shot empty-program fast path.
        let run = c.begin_run(p.isa()).unwrap();
        assert_eq!(run.pending_instructions(), 0);
        let stats = c.run_to_quiescence(run).unwrap();
        assert_eq!(stats, CpuStats::default());

        // A run fed to a core that did not open it — or to its own core
        // after a later run reset the engine — is rejected, not silently
        // mis-simulated.
        let mut other = core(PeVariant::Baseline, ControlScheme::Base);
        let mut run = c.begin_run(p.isa()).unwrap();
        assert!(matches!(
            other.feed_instructions(&mut run, p.instructions()),
            Err(CpuError::Stream { .. })
        ));
        c.run_reference(&p).unwrap(); // resets the engine mid-run
        assert!(matches!(
            c.feed_instructions(&mut run, p.instructions()),
            Err(CpuError::Stream { .. })
        ));
        assert!(matches!(
            c.run_to_quiescence(run),
            Err(CpuError::Stream { .. })
        ));
    }

    #[test]
    fn feed_segment_accepts_builder_segments() {
        // Drive the core directly from ProgramSegments (as the simulator's
        // producer/consumer pipeline does) and compare to one-shot.
        let p = microkernel_program(6);
        let mut b = rasa_isa::ProgramBuilder::new(IsaConfig::amx_like());
        let mut segments = Vec::new();
        for (i, inst) in p.iter().enumerate() {
            b.push(*inst);
            if i % 9 == 8 {
                segments.push(b.finish_segment().unwrap());
            }
        }
        segments.push(b.finish_segment().unwrap());

        let mut c = core(PeVariant::Dmdb, ControlScheme::Wls);
        let oneshot = c.run(&p).unwrap();
        let mut run = c.begin_run(p.isa()).unwrap();
        for segment in &segments {
            c.feed_segment(&mut run, segment).unwrap();
        }
        assert_eq!(c.run_to_quiescence(run).unwrap(), oneshot);
        assert_eq!(c.stream_stats().segments as usize, segments.len());
    }

    #[test]
    fn deadlock_guard_matches_reference() {
        // A single 0-latency-free program cannot deadlock; instead check
        // that both paths report the identical error for an engine
        // rejection mid-run (the only reachable error class).
        let isa = rasa_isa::IsaConfig::new(
            rasa_isa::TileGeometry::new(16, 128).unwrap(),
            8,
            rasa_isa::DataType::Bf16,
            rasa_isa::DataType::Fp32,
        )
        .unwrap();
        let mut b = ProgramBuilder::new(isa);
        b.tile_load(treg(0), MemRef::tile(0, 64));
        b.tile_load(treg(4), MemRef::tile(0x400, 64));
        b.tile_load(treg(6), MemRef::tile(0x800, 64));
        b.matmul(treg(0), treg(6), treg(4));
        let p = b.finish().unwrap();
        let mut c = core(PeVariant::Baseline, ControlScheme::Base);
        let event = c.run(&p).unwrap_err();
        let reference = c.run_reference(&p).unwrap_err();
        assert_eq!(event, reference);
    }
}
