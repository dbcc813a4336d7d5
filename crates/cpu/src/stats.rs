use rasa_systolic::EngineStats;
use std::fmt;

/// Statistics produced by one [`crate::CpuCore::run`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuStats {
    /// Total core cycles from the first fetch to the last retirement.
    pub cycles: u64,
    /// Instructions retired.
    pub retired_instructions: u64,
    /// `rasa_mm` instructions retired.
    pub retired_matmuls: u64,
    /// `rasa_tl` / `rasa_ts` instructions retired.
    pub retired_tile_memory_ops: u64,
    /// Cycles in which rename was blocked because the ROB was full.
    pub rob_full_stalls: u64,
    /// Cycles in which rename was blocked because the reservation station
    /// was full.
    pub rs_full_stalls: u64,
    /// Matrix-engine statistics (in engine cycles).
    pub engine: EngineStats,
}

impl CpuStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_instructions as f64 / self.cycles as f64
        }
    }

    /// Average core cycles between retired `rasa_mm` instructions — the
    /// quantity the paper's Fig. 5 runtime comparisons reduce to for
    /// GEMM-dominated workloads.
    #[must_use]
    pub fn cycles_per_matmul(&self) -> f64 {
        if self.retired_matmuls == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired_matmuls as f64
        }
    }

    /// Wall-clock runtime at the given core clock.
    #[must_use]
    pub fn runtime_seconds(&self, clock_ghz: f64) -> f64 {
        if clock_ghz <= 0.0 {
            return 0.0;
        }
        self.cycles as f64 / (clock_ghz * 1.0e9)
    }

    /// Folds the counters of a later execution interval into this one.
    ///
    /// Additive counters add; `cycles` is a timeline position (zero for
    /// intervals harvested mid-run, final for the quiescence interval) and
    /// takes the maximum, as does the engine horizon inside
    /// [`EngineStats::accumulate`]. Folding per-interval statistics in order
    /// reproduces an unsegmented run's counters exactly.
    pub fn accumulate(&mut self, interval: &CpuStats) {
        self.cycles = self.cycles.max(interval.cycles);
        self.retired_instructions += interval.retired_instructions;
        self.retired_matmuls += interval.retired_matmuls;
        self.retired_tile_memory_ops += interval.retired_tile_memory_ops;
        self.rob_full_stalls += interval.rob_full_stalls;
        self.rs_full_stalls += interval.rs_full_stalls;
        self.engine.accumulate(&interval.engine);
    }

    /// The counters a run accumulated between `earlier`, a snapshot of the
    /// same run, and this later snapshot: additive counters subtract,
    /// `cycles` (a timeline position) is this snapshot's, and the engine
    /// counters follow [`EngineStats::since`].
    #[must_use]
    pub fn since(&self, earlier: &CpuStats) -> CpuStats {
        CpuStats {
            cycles: self.cycles,
            retired_instructions: self.retired_instructions - earlier.retired_instructions,
            retired_matmuls: self.retired_matmuls - earlier.retired_matmuls,
            retired_tile_memory_ops: self.retired_tile_memory_ops - earlier.retired_tile_memory_ops,
            rob_full_stalls: self.rob_full_stalls - earlier.rob_full_stalls,
            rs_full_stalls: self.rs_full_stalls - earlier.rs_full_stalls,
            engine: self.engine.since(&earlier.engine),
        }
    }

    /// The counters of `strides` further executions of this interval, each
    /// `engine_period` engine cycles after the one before (see
    /// [`EngineStats::repeated`]). `cycles` is a timeline position, not a
    /// count: a run that skips ahead reads it from its shifted clock at
    /// quiescence, so the repeats carry none.
    #[must_use]
    pub fn repeated(&self, strides: u64, engine_period: u64) -> CpuStats {
        CpuStats {
            cycles: 0,
            retired_instructions: self.retired_instructions * strides,
            retired_matmuls: self.retired_matmuls * strides,
            retired_tile_memory_ops: self.retired_tile_memory_ops * strides,
            rob_full_stalls: self.rob_full_stalls * strides,
            rs_full_stalls: self.rs_full_stalls * strides,
            engine: self.engine.repeated(strides, engine_period),
        }
    }
}

/// Feed-side statistics of a streaming ([`crate::CoreRun`]) execution.
///
/// Like [`crate::SchedStats`] these describe the *simulator*, not the
/// simulated core: they are deterministic for a given feed pattern but are
/// kept out of [`CpuStats`] so the architectural statistics stay directly
/// comparable across one-shot, streamed and reference executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Segments (non-empty feed calls) delivered to the run.
    pub segments: u64,
    /// Total instructions fed.
    pub fed_instructions: u64,
    /// Peak number of fed instructions resident at once: the longest
    /// segment fed, which rename reads in place before the run pauses for
    /// the next. A one-shot [`crate::CpuCore::run`] feeds the whole program
    /// at once, so this equals the program length.
    pub peak_resident: usize,
    /// Times the run paused because its fed instructions ran out before
    /// finalization (i.e. rename wanted instructions not yet fed). Every
    /// feed ends in one such pause — including the single feed of a
    /// one-shot run — so this counts at least one per segment.
    pub pauses: u64,
    /// Strides a [`crate::SpeculativeRun`] skipped by fast-forwarding
    /// through its periodic steady state (zero for purely sequential
    /// runs). Their instructions count in `fed_instructions`, not in
    /// `segments`.
    pub fast_forwarded_strides: u64,
}

impl StreamStats {
    /// Folds the counters of a later execution interval into this one
    /// (`peak_resident` is a high-water mark and takes the maximum; the
    /// rest add).
    pub fn accumulate(&mut self, interval: &StreamStats) {
        self.segments += interval.segments;
        self.fed_instructions += interval.fed_instructions;
        self.peak_resident = self.peak_resident.max(interval.peak_resident);
        self.pauses += interval.pauses;
        self.fast_forwarded_strides += interval.fast_forwarded_strides;
    }
}

impl fmt::Display for CpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} instructions (IPC {:.2}), {} rasa_mm ({:.1} cycles/mm)",
            self.cycles,
            self.retired_instructions,
            self.ipc(),
            self.retired_matmuls,
            self.cycles_per_matmul()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = CpuStats {
            cycles: 1000,
            retired_instructions: 2500,
            retired_matmuls: 100,
            retired_tile_memory_ops: 300,
            ..CpuStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.cycles_per_matmul() - 10.0).abs() < 1e-12);
        assert!((s.runtime_seconds(2.0) - 0.5e-6).abs() < 1e-15);
        assert!(s.to_string().contains("IPC 2.50"));
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = CpuStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cycles_per_matmul(), 0.0);
        assert_eq!(s.runtime_seconds(0.0), 0.0);
    }
}
