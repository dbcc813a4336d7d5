use rasa_cpu::{CpuStats, SchedStats};
use rasa_power::PowerReport;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the trace reached the simulating core: as a stream of bounded
/// segments (every `run_gemm`/`run_layer` cell) or as one materialized
/// program (the `run_program` and reference-core oracles).
///
/// These are diagnostics of the *pipeline*, not of the simulated core —
/// deterministic for a given configuration (segment boundaries derive from
/// the shape and kernel alone), but carrying no architectural meaning. The
/// simulated statistics ([`SimReport::cpu`]) are bit-identical either way.
/// They stay in process: no document or wire payload carries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Whether the trace was streamed segment by segment (`false` for a
    /// materialized program).
    pub streamed: bool,
    /// Segments fed to the core (1 for a materialized run).
    pub segments: u64,
    /// Total instructions fed (the trace length).
    pub fed_instructions: u64,
    /// Peak instructions resident in the core's fetch buffer — the whole
    /// trace for a materialized run, roughly one segment for a streamed
    /// one. The streaming pipeline's memory headroom is the ratio of the
    /// two.
    pub peak_resident_instructions: u64,
    /// Strides skipped by fast-forwarding through the periodic steady
    /// state (zero when fast-forward was off or not applicable).
    pub spec_forks: u64,
    /// Skipped strides whose statistics were folded in — always equal to
    /// `spec_forks`, since a confirmed delta is exact.
    pub spec_commits: u64,
}

impl PipelineStats {
    /// Fraction of the trace resident at the peak (1.0 for a materialized
    /// run, ~segment/trace for a streamed one; 0 when nothing was fed).
    #[must_use]
    pub fn residency(&self) -> f64 {
        if self.fed_instructions == 0 {
            0.0
        } else {
            self.peak_resident_instructions as f64 / self.fed_instructions as f64
        }
    }
}

/// The result of simulating one workload on one design point.
///
/// A report is what was simulated: its JSON form (wire Responses, result
/// and warm-start documents) carries every field except [`sched`] and
/// [`pipeline`], which describe how this process executed the cell and
/// stay in process. Equality follows the JSON: two reports are equal when
/// they simulated the same result, however each was executed.
///
/// [`sched`]: SimReport::sched
/// [`pipeline`]: SimReport::pipeline
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Design name (e.g. `RASA-DMDB-WLS`).
    pub design: String,
    /// Workload name (e.g. `BERT-2`).
    pub workload: String,
    /// Core cycles for the **full** workload. When the trace was capped for
    /// tractability this is extrapolated from the simulated portion at the
    /// observed steady-state throughput.
    pub core_cycles: u64,
    /// Core cycles actually simulated.
    pub simulated_core_cycles: u64,
    /// `rasa_mm` instructions actually simulated.
    pub simulated_matmuls: u64,
    /// `rasa_mm` instructions the full workload contains.
    pub total_matmuls: u64,
    /// Wall-clock runtime of the full workload at the configured core clock.
    pub runtime_seconds: f64,
    /// Detailed CPU statistics of the simulated portion.
    pub cpu: CpuStats,
    /// Event-scheduler counters of the simulating core (all zero when the
    /// cycle-stepping reference core produced the report, or when the
    /// report was decoded from JSON). In process only.
    pub sched: SchedStats,
    /// Trace-transport diagnostics: streamed vs materialized, segment count
    /// and peak resident instructions (default when the report was decoded
    /// from JSON). In process only.
    pub pipeline: PipelineStats,
    /// Area/energy report of the simulated portion.
    pub power: PowerReport,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field is named, so a new one must be classified here: a
        // simulated result (compared) or an execution diagnostic (not).
        let Self {
            design,
            workload,
            core_cycles,
            simulated_core_cycles,
            simulated_matmuls,
            total_matmuls,
            runtime_seconds,
            cpu,
            sched: _,
            pipeline: _,
            power,
        } = self;
        *design == other.design
            && *workload == other.workload
            && *core_cycles == other.core_cycles
            && *simulated_core_cycles == other.simulated_core_cycles
            && *simulated_matmuls == other.simulated_matmuls
            && *total_matmuls == other.total_matmuls
            && *runtime_seconds == other.runtime_seconds
            && *cpu == other.cpu
            && *power == other.power
    }
}

impl SimReport {
    /// Whether the trace was truncated and the full-workload numbers are
    /// extrapolated.
    #[must_use]
    pub fn is_extrapolated(&self) -> bool {
        self.simulated_matmuls < self.total_matmuls
    }

    /// Runtime normalized to a baseline run of the same workload (the Fig. 5
    /// metric; < 1 means faster than the baseline).
    #[must_use]
    pub fn normalized_runtime_vs(&self, baseline: &SimReport) -> f64 {
        if baseline.core_cycles == 0 {
            return 0.0;
        }
        self.core_cycles as f64 / baseline.core_cycles as f64
    }

    /// Speedup over a baseline run of the same workload (> 1 means faster).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &SimReport) -> f64 {
        if self.core_cycles == 0 {
            return 0.0;
        }
        baseline.core_cycles as f64 / self.core_cycles as f64
    }

    /// Flattens the report into the serializable summary used for CSV/JSON
    /// export by the benchmark harness.
    #[must_use]
    pub fn summary(&self) -> SimSummary {
        SimSummary {
            design: self.design.clone(),
            workload: self.workload.clone(),
            core_cycles: self.core_cycles,
            simulated_matmuls: self.simulated_matmuls,
            total_matmuls: self.total_matmuls,
            runtime_seconds: self.runtime_seconds,
            ipc: self.cpu.ipc(),
            engine_bypass_rate: self.cpu.engine.bypass_rate(),
            area_mm2: self.power.area.total(),
            energy_joules: self.power.energy.total(),
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} core cycles ({} mm simulated of {}){}",
            self.design,
            self.workload,
            self.core_cycles,
            self.simulated_matmuls,
            self.total_matmuls,
            if self.is_extrapolated() {
                ", extrapolated"
            } else {
                ""
            }
        )
    }
}

/// A flat, serializable summary of a [`SimReport`] (one CSV row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Design name.
    pub design: String,
    /// Workload name.
    pub workload: String,
    /// Full-workload core cycles.
    pub core_cycles: u64,
    /// Simulated `rasa_mm` count.
    pub simulated_matmuls: u64,
    /// Full-workload `rasa_mm` count.
    pub total_matmuls: u64,
    /// Full-workload runtime in seconds.
    pub runtime_seconds: f64,
    /// Instructions per cycle of the simulated portion.
    pub ipc: f64,
    /// Fraction of `rasa_mm` instructions that bypassed Weight Load.
    pub engine_bypass_rate: f64,
    /// Array area in mm².
    pub area_mm2: f64,
    /// Estimated energy of the simulated portion in joules.
    pub energy_joules: f64,
}

impl SimSummary {
    /// The CSV header matching [`SimSummary::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> &'static str {
        "design,workload,core_cycles,simulated_matmuls,total_matmuls,runtime_seconds,ipc,engine_bypass_rate,area_mm2,energy_joules"
    }

    /// One CSV row (no trailing newline).
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.6e},{:.4},{:.4},{:.4},{:.6e}",
            self.design,
            self.workload,
            self.core_cycles,
            self.simulated_matmuls,
            self.total_matmuls,
            self.runtime_seconds,
            self.ipc,
            self.engine_bypass_rate,
            self.area_mm2,
            self.energy_joules
        )
    }
}

/// A labelled collection of reports for one workload across design points
/// (one Fig. 5 column group).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// One report per design point, in the order they were run.
    pub reports: Vec<SimReport>,
}

impl WorkloadRun {
    /// The baseline report (design named `BASELINE`), if present.
    #[must_use]
    pub fn baseline(&self) -> Option<&SimReport> {
        self.reports.iter().find(|r| r.design == "BASELINE")
    }

    /// Normalized runtime of every design against the workload's baseline.
    #[must_use]
    pub fn normalized_runtimes(&self) -> Vec<(String, f64)> {
        let Some(base) = self.baseline() else {
            return Vec::new();
        };
        self.reports
            .iter()
            .map(|r| (r.design.clone(), r.normalized_runtime_vs(base)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_power::EngineActivitySummary;
    use rasa_systolic::SystolicConfig;

    fn report(design: &str, workload: &str, cycles: u64) -> SimReport {
        let cfg = SystolicConfig::paper_baseline();
        SimReport {
            design: design.to_string(),
            workload: workload.to_string(),
            core_cycles: cycles,
            simulated_core_cycles: cycles,
            simulated_matmuls: 100,
            total_matmuls: 100,
            runtime_seconds: cycles as f64 / 2.0e9,
            cpu: CpuStats::default(),
            sched: SchedStats::default(),
            pipeline: PipelineStats::default(),
            power: PowerReport::new(&cfg, &EngineActivitySummary::default(), cycles),
        }
    }

    #[test]
    fn pipeline_stats_residency() {
        let streamed = PipelineStats {
            streamed: true,
            segments: 10,
            fed_instructions: 1000,
            peak_resident_instructions: 120,
            spec_forks: 8,
            spec_commits: 8,
        };
        assert!((streamed.residency() - 0.12).abs() < 1e-12);
        let materialized = PipelineStats {
            streamed: false,
            segments: 1,
            fed_instructions: 1000,
            peak_resident_instructions: 1000,
            ..PipelineStats::default()
        };
        assert!((materialized.residency() - 1.0).abs() < 1e-12);
        assert_eq!(PipelineStats::default().residency(), 0.0);
    }

    #[test]
    fn equality_ignores_execution_diagnostics() {
        let base = report("RASA-PIPE", "BERT-1", 1000);
        let mut executed = base.clone();
        executed.sched.completion_events = 77;
        executed.sched.visited_cycles = 500;
        executed.pipeline = PipelineStats {
            streamed: true,
            segments: 3,
            fed_instructions: 900,
            peak_resident_instructions: 300,
            spec_forks: 2,
            spec_commits: 2,
        };
        assert_eq!(executed, base, "diagnostics are not part of the result");
        let mut other = base.clone();
        other.cpu.cycles += 1;
        assert_ne!(other, base, "a simulated statistic is");
        let mut renamed = base.clone();
        renamed.workload = "BERT-2".to_string();
        assert_ne!(renamed, base);
    }

    #[test]
    fn normalization_and_speedup() {
        let base = report("BASELINE", "DLRM-1", 1000);
        let fast = report("RASA-DMDB-WLS", "DLRM-1", 200);
        assert!((fast.normalized_runtime_vs(&base) - 0.2).abs() < 1e-12);
        assert!((fast.speedup_vs(&base) - 5.0).abs() < 1e-12);
        assert!(!fast.is_extrapolated());
        assert!(fast.to_string().contains("RASA-DMDB-WLS"));
    }

    #[test]
    fn extrapolation_flag() {
        let mut r = report("BASELINE", "BERT-3", 500);
        r.total_matmuls = 1000;
        assert!(r.is_extrapolated());
        assert!(r.to_string().contains("extrapolated"));
    }

    #[test]
    fn summary_and_csv() {
        let r = report("RASA-PIPE", "BERT-1", 123_456);
        let s = r.summary();
        assert_eq!(s.design, "RASA-PIPE");
        assert_eq!(s.core_cycles, 123_456);
        let row = s.to_csv_row();
        assert!(row.starts_with("RASA-PIPE,BERT-1,123456"));
        assert_eq!(
            SimSummary::csv_header().split(',').count(),
            row.split(',').count()
        );
        // The Serialize/Deserialize bounds exist for downstream exporters;
        // assert them at compile time without pulling in a JSON dependency.
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<SimSummary>();
    }

    #[test]
    fn workload_run_normalization() {
        let run = WorkloadRun {
            workload: "DLRM-1".to_string(),
            reports: vec![
                report("BASELINE", "DLRM-1", 1000),
                report("RASA-WLBP", "DLRM-1", 700),
            ],
        };
        let normalized = run.normalized_runtimes();
        assert_eq!(normalized.len(), 2);
        assert!((normalized[1].1 - 0.7).abs() < 1e-12);
        assert!(run.baseline().is_some());

        let empty = WorkloadRun {
            workload: "x".to_string(),
            reports: vec![report("RASA-PIPE", "x", 10)],
        };
        assert!(empty.baseline().is_none());
        assert!(empty.normalized_runtimes().is_empty());
    }
}
