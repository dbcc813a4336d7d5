use crate::{
    stage_durations, ControlScheme, EngineStats, MatmulTiming, StageWindow, SystolicConfig,
    SystolicError, TileDims,
};
use rasa_isa::{TileReg, NUM_TILE_REGS};
use std::collections::VecDeque;

/// One `rasa_mm` handed to the matrix engine.
///
/// The CPU model resolves register dependencies and tells the engine, in
/// engine cycles, when each operand class becomes available:
///
/// * `weight_ready` — when the B (stationary weight) tile register value is
///   readable, which gates Weight Load (and the WLS shadow prefetch);
/// * `input_ready` — when both the A tile and the C accumulator tile are
///   readable, which gates Feed First.
///
/// Splitting the two lets RASA-WLS start prefetching weights while the
/// accumulator of a dependent chain is still draining, exactly the behaviour
/// the shadow buffer exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmRequest {
    /// The weight (B) operand register, used for dirty-bit bypass tracking.
    pub weight_reg: TileReg,
    /// Logical tile dimensions of this instruction.
    pub tile: TileDims,
    /// Engine cycle at which the weight operand is available.
    pub weight_ready: u64,
    /// Engine cycle at which the A and C operands are available.
    pub input_ready: u64,
}

impl MmRequest {
    /// Creates a request whose operands are all ready at `ready`.
    #[must_use]
    pub const fn ready_at(weight_reg: TileReg, tile: TileDims, ready: u64) -> Self {
        MmRequest {
            weight_reg,
            tile,
            weight_ready: ready,
            input_ready: ready,
        }
    }
}

/// The engine's answer for one submitted [`MmRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmCompletion {
    /// Resolved sub-stage schedule.
    pub timing: MatmulTiming,
    /// Engine cycle at which the destination tile register holds the final
    /// accumulator values (equals `timing.complete_cycle()`).
    pub complete_cycle: u64,
}

/// A timestamped completion event recorded by the engine.
///
/// Every accepted [`MmRequest`] enqueues exactly one completion event; an
/// event-driven host drains them with [`MatrixEngine::drain_completions`]
/// and schedules its own wakeups from the timestamps instead of polling
/// engine state cycle by cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCompletion {
    /// Program-order submission index of the instruction (the engine's
    /// internal sequence counter at submit time).
    pub sequence: u64,
    /// Engine cycle at which the instruction's result is architecturally
    /// visible (its Drain end).
    pub complete_cycle: u64,
}

/// The RASA matrix engine scheduler.
///
/// The engine accepts `rasa_mm` instructions **in program order** and
/// resolves the start cycle of each sub-stage under the configured
/// RASA-Control scheme:
///
/// * **BASE** — an instruction may not load weights before the previous one
///   has fully drained.
/// * **PIPE** — Weight Load may overlap the previous instruction's Drain.
/// * **WLBP** — additionally, when the weight register is reused with a
///   clear dirty bit, Weight Load is skipped and Feed First may start as
///   soon as the previous instruction's Feed First has finished.
/// * **WLS** — additionally, when the weight register changes, the new
///   weights are prefetched into the shadow plane over dedicated links
///   while the previous instruction computes; Feed First then only waits
///   for the previous Feed First and for the prefetch wavefront to stay one
///   row ahead.
///
/// Dirty bits are maintained exactly as §IV-B describes: every tile-register
/// write reported through [`MatrixEngine::note_tile_write`] sets the bit;
/// installing a register as the stationary weight plane clears it.
///
/// ```
/// use rasa_systolic::{MatrixEngine, MmRequest, SystolicConfig, PeVariant, ControlScheme, TileDims};
/// use rasa_isa::TileReg;
///
/// let cfg = SystolicConfig::paper(PeVariant::Baseline, ControlScheme::Wlbp)?;
/// let mut engine = MatrixEngine::new(cfg);
/// let b = TileReg::new(4).expect("valid register");
/// let tile = TileDims::new(16, 32, 16);
/// let first = engine.submit(MmRequest::ready_at(b, tile, 0))?;
/// let second = engine.submit(MmRequest::ready_at(b, tile, 0))?;
/// // The second instruction reuses the weights: its Feed First starts right
/// // after the first one's Feed First (TM = 16 cycles later).
/// assert!(second.timing.weight_bypassed);
/// assert_eq!(second.timing.ff.start, first.timing.ff.start + 16);
/// # Ok::<(), rasa_systolic::SystolicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MatrixEngine {
    config: SystolicConfig,
    stats: EngineStats,
    sequence: u64,
    prev: Option<MatmulTiming>,
    installed_weights: Option<TileReg>,
    dirty: [bool; NUM_TILE_REGS],
    /// Engine cycle at which the (single) weight-load channel is free.
    wl_channel_free: u64,
    /// Completion cycles of the most recent in-flight instructions, bounded
    /// by the configuration's `max_in_flight`.
    in_flight: VecDeque<u64>,
    /// Completion events recorded by `submit` and not yet drained through
    /// [`MatrixEngine::drain_completions`].
    pending_completions: Vec<EngineCompletion>,
}

impl MatrixEngine {
    /// Creates an idle engine.
    #[must_use]
    pub fn new(config: SystolicConfig) -> Self {
        MatrixEngine {
            config,
            stats: EngineStats::default(),
            sequence: 0,
            prev: None,
            installed_weights: None,
            dirty: [true; NUM_TILE_REGS],
            wl_channel_free: 0,
            in_flight: VecDeque::new(),
            pending_completions: Vec::new(),
        }
    }

    /// The engine configuration.
    #[must_use]
    pub const fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub const fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The engine cycle at which all submitted work completes.
    #[must_use]
    pub fn busy_horizon(&self) -> u64 {
        self.stats.last_completion_cycle
    }

    /// Converts engine cycles to CPU core cycles using the configured clock
    /// ratio (the paper's array runs at 500 MHz under a 2 GHz core).
    #[must_use]
    pub fn core_cycles(&self, engine_cycles: u64) -> u64 {
        engine_cycles * u64::from(self.config.clock_ratio())
    }

    /// Records that `reg` was overwritten (by `rasa_tl`, `rasa_tz` or as a
    /// `rasa_mm` destination), setting its dirty bit. Must be called in
    /// program order relative to [`MatrixEngine::submit`].
    pub fn note_tile_write(&mut self, reg: TileReg) {
        self.dirty[reg.index()] = true;
        if self.installed_weights == Some(reg) {
            self.installed_weights = None;
        }
    }

    /// Resets all scheduling and dirty-bit state, keeping the configuration.
    pub fn reset(&mut self) {
        self.stats = EngineStats::default();
        self.sequence = 0;
        self.prev = None;
        self.installed_weights = None;
        self.dirty = [true; NUM_TILE_REGS];
        self.wl_channel_free = 0;
        self.in_flight.clear();
        self.pending_completions.clear();
    }

    /// Zeroes the accumulated statistics without touching any scheduling
    /// state. Used by segmented hosts that harvest per-interval counters and
    /// fold them externally via [`EngineStats::accumulate`].
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Number of `rasa_mm` instructions submitted so far (the sequence the
    /// next submission will be assigned).
    #[must_use]
    pub const fn submitted(&self) -> u64 {
        self.sequence
    }

    /// Shifts the engine's scheduling state `engine_cycles` later in time
    /// and `sequences` further along the instruction stream — the state a
    /// perfectly periodic execution would reach after that much more work.
    ///
    /// Time-valued fields move by `engine_cycles`; sequence-valued fields by
    /// `sequences`. The weight-load channel timestamp is only meaningful
    /// once a prefetch has used it, so a zero (never-used) channel stays
    /// zero. Statistics, configuration and register-identity state (the
    /// installed weight plane and dirty bits) are untouched.
    pub fn shift_state(&mut self, engine_cycles: u64, sequences: u64) {
        self.sequence += sequences;
        if let Some(prev) = self.prev {
            self.prev = Some(prev.shifted(engine_cycles, sequences));
        }
        if self.wl_channel_free != 0 {
            self.wl_channel_free += engine_cycles;
        }
        for completion in &mut self.in_flight {
            *completion += engine_cycles;
        }
        for event in &mut self.pending_completions {
            event.sequence += sequences;
            event.complete_cycle += engine_cycles;
        }
    }

    /// Whether another engine is in exactly the same *scheduling* state as
    /// this one: same position in the instruction stream, same resolved
    /// previous schedule, weight-plane installation, dirty bits, channel and
    /// in-flight occupancy, and same undrained completion events.
    /// Accumulated statistics are deliberately excluded — two engines that
    /// agree on this predicate schedule all future submissions identically.
    #[must_use]
    pub fn scheduling_state_eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.sequence == other.sequence
            && self.prev == other.prev
            && self.installed_weights == other.installed_weights
            && self.dirty == other.dirty
            && self.wl_channel_free == other.wl_channel_free
            && self.in_flight == other.in_flight
            && self.pending_completions == other.pending_completions
    }

    /// Drains the completion events recorded since the last call, in
    /// submission order. The buffer is drained in place, so later
    /// submissions reuse its allocation.
    ///
    /// Each accepted [`MmRequest`] records exactly one [`EngineCompletion`];
    /// an event-driven host (the `rasa-cpu` scheduler) pairs the drained
    /// events with its own bookkeeping and inserts the timestamps into its
    /// event heap rather than polling the engine for per-instruction state.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, EngineCompletion> {
        self.pending_completions.drain(..)
    }

    /// Submits the next `rasa_mm` in program order and returns its resolved
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::TileTooLarge`] / [`SystolicError::InvalidConfig`]
    /// when the tile does not fit the array.
    pub fn submit(&mut self, req: MmRequest) -> Result<MmCompletion, SystolicError> {
        req.tile.validate(&self.config)?;
        let d = stage_durations(&self.config, req.tile);
        let scheme = self.config.control();

        let can_bypass = scheme.supports_weight_bypass()
            && self.installed_weights == Some(req.weight_reg)
            && !self.dirty[req.weight_reg.index()];

        // Oldest in-flight instruction must have completed before a new one
        // may start occupying the array.
        let window_floor = if self.in_flight.len() >= self.config.max_in_flight() {
            *self.in_flight.front().expect("non-empty when at capacity")
        } else {
            0
        };

        let prev = self.prev;
        let prev_dr_end = prev.map_or(0, |p| p.dr.end);
        let prev_fs_end = prev.map_or(0, |p| p.fs.end);
        let prev_ff_end = prev.map_or(0, |p| p.ff.end);
        let prev_ff_start = prev.map_or(0, |p| p.ff.start);

        let mut weight_bypassed = false;
        let mut weight_prefetched = false;

        // Structural earliest Feed First (ignoring operand readiness), used
        // for the stall accounting below.
        let structural_ff;
        let (wl, ff_start) = if can_bypass {
            weight_bypassed = true;
            let structural = match scheme {
                // WLBP/WLS: FF may overlap the previous FS and DR.
                ControlScheme::Wlbp | ControlScheme::Wls => prev_ff_end,
                _ => unreachable!("bypass only offered by WLBP/WLS"),
            }
            .max(window_floor);
            structural_ff = structural;
            let ff_start = structural.max(req.input_ready);
            (StageWindow::skipped(ff_start), ff_start)
        } else {
            match scheme {
                ControlScheme::Base => {
                    let wl_start = req.weight_ready.max(prev_dr_end).max(window_floor);
                    let wl = StageWindow::new(wl_start, d.wl);
                    structural_ff = wl.end;
                    let ff_start = wl.end.max(req.input_ready);
                    (wl, ff_start)
                }
                ControlScheme::Pipe | ControlScheme::Wlbp => {
                    // Weight Load overlaps the previous Drain but not the
                    // previous compute (the baseline PEs share the vertical
                    // links between weights and partial sums).
                    let wl_start = req.weight_ready.max(prev_fs_end).max(window_floor);
                    let wl = StageWindow::new(wl_start, d.wl);
                    structural_ff = wl.end;
                    let ff_start = wl.end.max(req.input_ready);
                    (wl, ff_start)
                }
                ControlScheme::Wls => {
                    // Prefetch into the shadow plane on the dedicated links:
                    // the channel serializes loads, and the shadow plane of
                    // the previous instruction frees once its weights swap
                    // into the active plane at its Feed First start.
                    weight_prefetched = true;
                    let wl_start = req
                        .weight_ready
                        .max(self.wl_channel_free)
                        .max(prev_ff_start)
                        .max(window_floor);
                    let wl = StageWindow::new(wl_start, d.wl);
                    self.wl_channel_free = wl.end;
                    // Feed First only needs to stay one row behind the
                    // prefetch wavefront and wait for the previous Feed
                    // First to vacate row 0.
                    let structural = (wl.start + 1).max(prev_ff_end).max(window_floor);
                    structural_ff = structural;
                    let ff_start = structural.max(req.input_ready);
                    (wl, ff_start)
                }
            }
        };

        let ff = StageWindow::new(ff_start, d.ff);
        let fs = StageWindow::new(ff.end, d.fs);
        let dr = StageWindow::new(fs.end, d.dr);

        let timing = MatmulTiming {
            sequence: self.sequence,
            wl,
            ff,
            fs,
            dr,
            weight_bypassed,
            weight_prefetched,
        };

        // Weight-plane bookkeeping: a performed load installs the register
        // (clearing its dirty bit); a bypass leaves the installation as is.
        if !weight_bypassed {
            self.installed_weights = Some(req.weight_reg);
            self.dirty[req.weight_reg.index()] = false;
        }

        // Stall accounting.
        let operand_stall = ff_start.saturating_sub(structural_ff);
        let idle_floor = prev_dr_end.min(structural_ff);
        let structural_stall = structural_ff.saturating_sub(idle_floor);

        self.stats.matmuls += 1;
        if weight_bypassed {
            self.stats.weight_bypasses += 1;
        } else if weight_prefetched {
            self.stats.weight_prefetches += 1;
        } else {
            self.stats.full_weight_loads += 1;
        }
        self.stats.occupancy_cycles += timing.latency();
        self.stats.last_completion_cycle = self.stats.last_completion_cycle.max(dr.end);
        self.stats.total_macs += req.tile.macs() as u64;
        self.stats.operand_stall_cycles += operand_stall;
        self.stats.structural_stall_cycles += structural_stall;

        self.in_flight.push_back(dr.end);
        while self.in_flight.len() > self.config.max_in_flight() {
            self.in_flight.pop_front();
        }
        self.pending_completions.push(EngineCompletion {
            sequence: self.sequence,
            complete_cycle: dr.end,
        });
        self.sequence += 1;
        self.prev = Some(timing);

        Ok(MmCompletion {
            timing,
            complete_cycle: dr.end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeVariant;

    fn treg(i: u8) -> TileReg {
        TileReg::new(i).unwrap()
    }

    fn engine(pe: PeVariant, control: ControlScheme) -> MatrixEngine {
        MatrixEngine::new(SystolicConfig::paper(pe, control).unwrap())
    }

    const FULL: TileDims = TileDims::new(16, 32, 16);

    /// Submits `n` requests alternating between weight registers with the
    /// given period (period 1 = always the same register, 2 = B0 B0 B1 B1 …
    /// style reuse is period 2 with repeat 2, etc.).
    fn run_pattern(
        engine: &mut MatrixEngine,
        n: usize,
        regs: &[u8],
        repeat: usize,
    ) -> Vec<MmCompletion> {
        (0..n)
            .map(|i| {
                let reg = regs[(i / repeat) % regs.len()];
                engine
                    .submit(MmRequest::ready_at(treg(reg), FULL, 0))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn base_serializes_at_95_cycles() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Base);
        let done = run_pattern(&mut e, 3, &[4], 1);
        assert_eq!(done[0].complete_cycle, 95);
        assert_eq!(done[1].timing.wl.start, 95);
        assert_eq!(done[1].complete_cycle, 190);
        assert_eq!(done[2].complete_cycle, 285);
        // BASE never bypasses even though the register is reused: every
        // instruction pays a full weight load.
        assert_eq!(e.stats().full_weight_loads, 3);
        assert_eq!(e.stats().weight_bypasses, 0);
        assert_eq!(e.stats().matmuls, 3);
    }

    #[test]
    fn pipe_overlaps_drain_with_weight_load() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Pipe);
        let done = run_pattern(&mut e, 3, &[4, 5], 1);
        // Steady-state interval = WL + FF + FS = 79 cycles.
        assert_eq!(done[1].timing.wl.start, done[0].timing.fs.end);
        assert_eq!(done[1].timing.ff.start - done[0].timing.ff.start, 79);
        assert_eq!(done[2].timing.ff.start - done[1].timing.ff.start, 79);
    }

    #[test]
    fn wlbp_bypasses_on_clean_reuse() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Wlbp);
        let done = run_pattern(&mut e, 4, &[4], 1);
        assert!(!done[0].timing.weight_bypassed);
        for c in &done[1..] {
            assert!(c.timing.weight_bypassed);
        }
        // Bypassed instructions issue every TM = 16 cycles.
        assert_eq!(done[1].timing.ff.start - done[0].timing.ff.start, 16);
        assert_eq!(done[2].timing.ff.start - done[1].timing.ff.start, 16);
        assert!((e.stats().bypass_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wlbp_reverts_to_pipe_when_weights_change() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Wlbp);
        let done = run_pattern(&mut e, 4, &[4, 5], 1);
        // Registers alternate every instruction: no bypass is ever possible.
        assert!(done.iter().all(|c| !c.timing.weight_bypassed));
        assert_eq!(done[1].timing.ff.start - done[0].timing.ff.start, 79);
    }

    #[test]
    fn dirty_write_invalidates_bypass() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Wlbp);
        let first = e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        // A tile load overwrites the weight register between the two mm's.
        e.note_tile_write(treg(4));
        let second = e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        assert!(!second.timing.weight_bypassed);
        assert!(second.timing.ff.start - first.timing.ff.start > 16);
        // Writing an unrelated register does not hurt the next reuse.
        e.note_tile_write(treg(0));
        let third = e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        assert!(third.timing.weight_bypassed);
    }

    #[test]
    fn wls_hides_weight_load_behind_previous_compute() {
        let mut e = engine(PeVariant::Db, ControlScheme::Wls);
        // Algorithm-1 style reuse: B0 B0 B1 B1 B0 B0 …
        let done = run_pattern(&mut e, 6, &[4, 5], 2);
        // Odd instructions bypass, even ones prefetch (except the first).
        assert!(!done[0].timing.weight_bypassed);
        assert!(done[1].timing.weight_bypassed);
        assert!(done[2].timing.weight_prefetched);
        assert!(done[3].timing.weight_bypassed);
        // The prefetched loads never expose the 32-cycle WL as idle time:
        // the average interval stays well under the PIPE interval.
        let interval = (done[5].timing.ff.start - done[1].timing.ff.start) as f64 / 4.0;
        assert!(interval < 30.0, "interval {interval}");
        assert!(e.stats().weight_prefetches >= 2);
    }

    #[test]
    fn dmdb_wls_reaches_the_16_cycle_asymptote() {
        let mut e = engine(PeVariant::Dmdb, ControlScheme::Wls);
        let done = run_pattern(&mut e, 8, &[4, 5], 2);
        // After the pipeline warms up, every instruction issues 16 cycles
        // after the previous one — the 16/95 asymptote of Fig. 7.
        for pair in done.windows(2).skip(2) {
            assert_eq!(
                pair[1].timing.ff.start - pair[0].timing.ff.start,
                16,
                "steady state should issue every TM cycles"
            );
        }
    }

    #[test]
    fn operand_readiness_delays_feed_but_not_prefetch() {
        let mut e = engine(PeVariant::Db, ControlScheme::Wls);
        e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        // The next instruction's inputs (A/C) are late but its weights are
        // ready: the prefetch starts early, the feed waits for the inputs.
        let c = e
            .submit(MmRequest {
                weight_reg: treg(5),
                tile: FULL,
                weight_ready: 0,
                input_ready: 200,
            })
            .unwrap();
        assert!(c.timing.wl.start < 100);
        assert_eq!(c.timing.ff.start, 200);
        assert!(e.stats().operand_stall_cycles > 0);
    }

    #[test]
    fn scheme_ordering_on_a_realistic_pattern() {
        // 64 instructions with Algorithm-1 reuse (two consecutive uses per
        // weight register): the paper's ordering BASE > PIPE > WLBP >
        // DM-WLBP > DB-WLS >= DMDB-WLS must hold for the busy horizon.
        let mut horizons = Vec::new();
        let designs = [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Baseline, ControlScheme::Pipe),
            (PeVariant::Baseline, ControlScheme::Wlbp),
            (PeVariant::Dm, ControlScheme::Wlbp),
            (PeVariant::Db, ControlScheme::Wls),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ];
        for (pe, scheme) in designs {
            let mut e = engine(pe, scheme);
            run_pattern(&mut e, 64, &[4, 5], 2);
            horizons.push(e.busy_horizon());
        }
        for pair in horizons.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "expected monotone improvement, got {horizons:?}"
            );
        }
        // And the end points are meaningfully apart (roughly 95 vs ~16-24
        // cycles per instruction).
        assert!(horizons[0] > 3 * horizons[5]);
    }

    #[test]
    fn in_flight_limit_throttles_issue() {
        let cfg = SystolicConfig::paper(PeVariant::Dmdb, ControlScheme::Wls)
            .unwrap()
            .with_max_in_flight(1);
        let mut e = MatrixEngine::new(cfg);
        let a = e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        let b = e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        // With a single instruction in flight the second cannot start its
        // feed before the first completes.
        assert!(b.timing.ff.start >= a.complete_cycle);
    }

    #[test]
    fn oversized_tile_is_rejected() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Base);
        let bad = TileDims::new(16, 64, 16);
        assert!(e.submit(MmRequest::ready_at(treg(0), bad, 0)).is_err());
        // Statistics are untouched by the failed submission.
        assert_eq!(e.stats().matmuls, 0);
    }

    #[test]
    fn core_cycle_conversion_uses_clock_ratio() {
        let e = engine(PeVariant::Baseline, ControlScheme::Base);
        assert_eq!(e.core_cycles(95), 380);
    }

    #[test]
    fn reset_restores_idle_state() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Wlbp);
        run_pattern(&mut e, 4, &[4], 1);
        assert!(e.busy_horizon() > 0);
        e.reset();
        assert_eq!(e.busy_horizon(), 0);
        assert_eq!(e.stats().matmuls, 0);
        let c = e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        assert!(!c.timing.weight_bypassed);
        assert_eq!(c.timing.wl.start, 0);
    }

    #[test]
    fn completion_events_are_recorded_in_submission_order() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Base);
        let done = run_pattern(&mut e, 3, &[4], 1);
        let events: Vec<_> = e.drain_completions().collect();
        assert_eq!(events.len(), 3);
        for (i, (event, completion)) in events.iter().zip(&done).enumerate() {
            assert_eq!(event.sequence, i as u64);
            assert_eq!(event.complete_cycle, completion.complete_cycle);
        }
        // The queue drains: a second take returns nothing new.
        assert_eq!(e.drain_completions().len(), 0);
        e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        let events: Vec<_> = e.drain_completions().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].sequence, 3);
    }

    #[test]
    fn rejected_submissions_record_no_events_and_reset_clears_them() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Base);
        let bad = TileDims::new(16, 64, 16);
        assert!(e.submit(MmRequest::ready_at(treg(0), bad, 0)).is_err());
        assert_eq!(e.drain_completions().len(), 0);
        e.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        e.reset();
        assert_eq!(
            e.drain_completions().len(),
            0,
            "reset drops undrained events"
        );
    }

    #[test]
    fn shifted_engine_schedules_shifted_work_identically() {
        for (pe, scheme) in [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Baseline, ControlScheme::Pipe),
            (PeVariant::Baseline, ControlScheme::Wlbp),
            (PeVariant::Db, ControlScheme::Wls),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ] {
            let mut original = engine(pe, scheme);
            run_pattern(&mut original, 8, &[4, 5], 2);
            original.drain_completions();
            let mut shifted = original.clone();
            shifted.shift_state(1000, 7);
            // A request stream offset by the same time delta must resolve to
            // the same schedule offset by that delta (and sequence delta).
            for i in 0..6u64 {
                let reg = treg(4 + (i as u8 / 2) % 2);
                let base = original
                    .submit(MmRequest::ready_at(reg, FULL, 5000 + i * 20))
                    .unwrap();
                let moved = shifted
                    .submit(MmRequest::ready_at(reg, FULL, 6000 + i * 20))
                    .unwrap();
                assert_eq!(
                    moved.timing,
                    base.timing.shifted(1000, 7),
                    "{pe:?}/{scheme:?}"
                );
                assert_eq!(moved.complete_cycle, base.complete_cycle + 1000);
            }
        }
    }

    #[test]
    fn scheduling_state_eq_ignores_stats_only() {
        let mut a = engine(PeVariant::Dmdb, ControlScheme::Wls);
        run_pattern(&mut a, 6, &[4, 5], 2);
        let mut b = a.clone();
        assert!(a.scheduling_state_eq(&b));
        // Statistics are excluded: zeroing them does not break equality.
        b.reset_stats();
        assert!(a.scheduling_state_eq(&b));
        assert_eq!(*b.stats(), EngineStats::default());
        // Any scheduling divergence does break it.
        b.submit(MmRequest::ready_at(treg(4), FULL, 0)).unwrap();
        assert!(!a.scheduling_state_eq(&b));
        assert_eq!(b.submitted(), a.submitted() + 1);
    }

    #[test]
    fn partial_tiles_complete_faster() {
        let mut e = engine(PeVariant::Baseline, ControlScheme::Base);
        let small = TileDims::new(4, 32, 16);
        let c = e.submit(MmRequest::ready_at(treg(4), small, 0)).unwrap();
        assert_eq!(c.complete_cycle, 83);
    }
}
