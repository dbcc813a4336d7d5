use std::fmt;

/// Aggregate statistics collected by the [`crate::MatrixEngine`] over a run.
///
/// The counters distinguish *why* Weight Load latency was or was not paid on
/// each `rasa_mm`, which is the mechanism behind the runtime differences of
/// the RASA-Control schemes in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Number of `rasa_mm` instructions executed.
    pub matmuls: u64,
    /// Instructions whose Weight Load was skipped because the weight
    /// register was reused with a clear dirty bit (WLBP / WLS).
    pub weight_bypasses: u64,
    /// Instructions whose Weight Load was hidden behind a previous
    /// instruction via the shadow-buffer prefetch (WLS only).
    pub weight_prefetches: u64,
    /// Instructions that paid the full, exposed Weight Load latency.
    pub full_weight_loads: u64,
    /// Total engine cycles spent in each instruction's occupancy, summed
    /// over instructions (overlapping cycles are counted once per
    /// instruction; this is an occupancy metric, not a wall-clock one).
    pub occupancy_cycles: u64,
    /// Engine cycle at which the last instruction completed (wall-clock
    /// busy horizon).
    pub last_completion_cycle: u64,
    /// Total multiply-accumulate operations executed.
    pub total_macs: u64,
    /// Cycles an instruction's Feed First was delayed waiting for its
    /// operands (input/accumulator registers not ready).
    pub operand_stall_cycles: u64,
    /// Cycles an instruction's Feed First was delayed by the array itself
    /// (structural: previous instruction still occupying the stages it
    /// needs).
    pub structural_stall_cycles: u64,
}

impl EngineStats {
    /// Folds the counters of a later execution interval into this one.
    ///
    /// Additive counters add; `last_completion_cycle` is a horizon and takes
    /// the maximum. Folding the per-interval statistics of a segmented run
    /// in order reproduces the counters of the unsegmented run exactly.
    pub fn accumulate(&mut self, interval: &EngineStats) {
        self.matmuls += interval.matmuls;
        self.weight_bypasses += interval.weight_bypasses;
        self.weight_prefetches += interval.weight_prefetches;
        self.full_weight_loads += interval.full_weight_loads;
        self.occupancy_cycles += interval.occupancy_cycles;
        self.last_completion_cycle = self
            .last_completion_cycle
            .max(interval.last_completion_cycle);
        self.total_macs += interval.total_macs;
        self.operand_stall_cycles += interval.operand_stall_cycles;
        self.structural_stall_cycles += interval.structural_stall_cycles;
    }

    /// The counters of `strides` further executions of this interval, each
    /// `period` engine cycles after the one before — what a periodic steady
    /// state accumulates over a stretch it skips. Additive counters scale
    /// by `strides`; the horizon moves to the last execution's (an interval
    /// that submitted nothing has none to move).
    #[must_use]
    pub fn repeated(&self, strides: u64, period: u64) -> EngineStats {
        EngineStats {
            matmuls: self.matmuls * strides,
            weight_bypasses: self.weight_bypasses * strides,
            weight_prefetches: self.weight_prefetches * strides,
            full_weight_loads: self.full_weight_loads * strides,
            occupancy_cycles: self.occupancy_cycles * strides,
            last_completion_cycle: if self.matmuls == 0 {
                0
            } else {
                self.last_completion_cycle + strides * period
            },
            total_macs: self.total_macs * strides,
            operand_stall_cycles: self.operand_stall_cycles * strides,
            structural_stall_cycles: self.structural_stall_cycles * strides,
        }
    }

    /// Fraction of `rasa_mm` instructions that skipped Weight Load via the
    /// dirty-bit bypass.
    #[must_use]
    pub fn bypass_rate(&self) -> f64 {
        if self.matmuls == 0 {
            0.0
        } else {
            self.weight_bypasses as f64 / self.matmuls as f64
        }
    }

    /// Average issue-to-issue interval in engine cycles (wall-clock horizon
    /// divided by instruction count).
    #[must_use]
    pub fn average_interval(&self) -> f64 {
        if self.matmuls == 0 {
            0.0
        } else {
            self.last_completion_cycle as f64 / self.matmuls as f64
        }
    }

    /// Effective MACs per engine cycle over the busy horizon.
    #[must_use]
    pub fn macs_per_cycle(&self) -> f64 {
        if self.last_completion_cycle == 0 {
            0.0
        } else {
            self.total_macs as f64 / self.last_completion_cycle as f64
        }
    }

    /// Average PE utilization over the busy horizon given the array's peak
    /// MAC throughput per cycle.
    #[must_use]
    pub fn utilization(&self, peak_macs_per_cycle: usize) -> f64 {
        if peak_macs_per_cycle == 0 {
            0.0
        } else {
            self.macs_per_cycle() / peak_macs_per_cycle as f64
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rasa_mm ({} bypassed, {} prefetched, {} full WL), horizon {} cycles, {:.2} MACs/cycle",
            self.matmuls,
            self.weight_bypasses,
            self.weight_prefetches,
            self.full_weight_loads,
            self.last_completion_cycle,
            self.macs_per_cycle()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_no_instructions_are_zero() {
        let s = EngineStats::default();
        assert_eq!(s.bypass_rate(), 0.0);
        assert_eq!(s.average_interval(), 0.0);
        assert_eq!(s.macs_per_cycle(), 0.0);
        assert_eq!(s.utilization(512), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = EngineStats {
            matmuls: 10,
            weight_bypasses: 5,
            weight_prefetches: 2,
            full_weight_loads: 3,
            occupancy_cycles: 950,
            last_completion_cycle: 400,
            total_macs: 10 * 8192,
            operand_stall_cycles: 12,
            structural_stall_cycles: 30,
        };
        assert!((s.bypass_rate() - 0.5).abs() < 1e-12);
        assert!((s.average_interval() - 40.0).abs() < 1e-12);
        assert!((s.macs_per_cycle() - 204.8).abs() < 1e-9);
        assert!(s.utilization(512) > 0.39 && s.utilization(512) < 0.41);
        assert_eq!(s.utilization(0), 0.0);
        let text = s.to_string();
        assert!(text.contains("10 rasa_mm"));
        assert!(text.contains("5 bypassed"));
    }

    #[test]
    fn repeats_scale_counters_and_translate_the_horizon() {
        let stride = EngineStats {
            matmuls: 4,
            weight_bypasses: 2,
            weight_prefetches: 1,
            full_weight_loads: 1,
            occupancy_cycles: 300,
            last_completion_cycle: 1000,
            total_macs: 4 * 8192,
            operand_stall_cycles: 5,
            structural_stall_cycles: 7,
        };
        let three = stride.repeated(3, 64);
        assert_eq!(three.matmuls, 12);
        assert_eq!(three.weight_bypasses, 6);
        assert_eq!(three.occupancy_cycles, 900);
        assert_eq!(three.structural_stall_cycles, 21);
        // The horizon is the last repeat's, three periods on — not the
        // first stride's, which a plain fold would keep.
        assert_eq!(three.last_completion_cycle, 1000 + 3 * 64);
        let mut folded = stride;
        folded.accumulate(&three);
        assert_eq!(folded.last_completion_cycle, 1192);
        // An interval that submitted nothing has no horizon to move.
        assert_eq!(
            EngineStats::default().repeated(3, 64),
            EngineStats::default()
        );
    }
}
