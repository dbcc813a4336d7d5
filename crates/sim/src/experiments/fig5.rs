//! Fig. 5: runtime of every RASA design on the Table I layers, normalized
//! to the baseline.
//!
//! The module is a declarative spec against the shared
//! [`ExperimentRunner`]: the nine Table I layers × the eight paper designs,
//! default kernel. All iteration and caching live in the runner.

use crate::{DesignPoint, ExperimentRunner, ExperimentSpec, SimError, WorkloadRun};
use rasa_workloads::LayerSpec;
use std::fmt;

/// One row of the Fig. 5 comparison: a workload and its normalized runtime
/// under every design.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload (Table I layer) name.
    pub workload: String,
    /// `(design name, normalized runtime)` pairs in design order; the
    /// baseline is 1.0 by construction.
    pub normalized: Vec<(String, f64)>,
}

/// The full Fig. 5 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Design names in presentation order.
    pub designs: Vec<String>,
    /// One row per Table I layer.
    pub rows: Vec<Fig5Row>,
    /// The underlying per-workload runs (kept so Fig. 6 and the area/energy
    /// table can be derived without re-simulating).
    pub runs: Vec<WorkloadRun>,
}

/// The declarative Fig. 5 matrix: the suite's (possibly filtered) Table I
/// layers × the eight paper designs.
pub(super) fn spec(workloads: &[LayerSpec]) -> ExperimentSpec {
    ExperimentSpec {
        name: "fig5",
        workloads: workloads.to_vec(),
        designs: DesignPoint::paper_designs(),
        kernel: None,
    }
}

pub(super) fn run(
    runner: &ExperimentRunner,
    workloads: &[LayerSpec],
) -> Result<Fig5Result, SimError> {
    let spec = spec(workloads);
    let design_names: Vec<String> = spec.designs.iter().map(|d| d.name().to_string()).collect();
    let runs = runner.run_spec(&spec)?;
    let rows = runs
        .iter()
        .map(|run| Fig5Row {
            workload: run.workload.clone(),
            normalized: run.normalized_runtimes(),
        })
        .collect();
    Ok(Fig5Result {
        designs: design_names,
        rows,
        runs,
    })
}

impl Fig5Result {
    /// The normalized runtime of `design` on `workload`, if present.
    #[must_use]
    pub fn normalized(&self, workload: &str, design: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload)
            .and_then(|r| r.normalized.iter().find(|(d, _)| d == design))
            .map(|(_, v)| *v)
    }

    /// The average normalized runtime of a design across all workloads.
    #[must_use]
    pub fn average_normalized(&self, design: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| {
                r.normalized
                    .iter()
                    .find(|(d, _)| d == design)
                    .map(|(_, v)| *v)
            })
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// The average runtime *reduction* of a design (the number the paper
    /// quotes: e.g. "WLBP reduces runtime by 30.9 % on average").
    #[must_use]
    pub fn average_reduction(&self, design: &str) -> Option<f64> {
        self.average_normalized(design).map(|n| 1.0 - n)
    }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 5 — runtime normalized to the baseline (lower is better)"
        )?;
        write!(f, "{:>12}", "layer")?;
        for d in &self.designs {
            write!(f, "{:>16}", d)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:>12}", row.workload)?;
            for (_, v) in &row.normalized {
                write!(f, "{v:>16.3}")?;
            }
            writeln!(f)?;
        }
        write!(f, "{:>12}", "average")?;
        for d in &self.designs {
            write!(
                f,
                "{:>16.3}",
                self.average_normalized(d).unwrap_or(f64::NAN)
            )?;
        }
        writeln!(f)?;
        write!(f, "{:>12}", "reduction")?;
        for d in &self.designs {
            write!(
                f,
                "{:>15.1}%",
                self.average_reduction(d).unwrap_or(f64::NAN) * 100.0
            )?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentSuite;

    /// A reduced-cap Fig. 5 run used by the unit tests (the full-cap run is
    /// exercised by the benchmark harness).
    fn quick_fig5() -> Fig5Result {
        ExperimentSuite::new()
            .with_matmul_cap(Some(192))
            .fig5_runtime()
            .expect("fig5 runs")
    }

    #[test]
    fn shape_and_baseline_normalization() {
        let r = quick_fig5();
        assert_eq!(r.designs.len(), 8);
        assert_eq!(r.rows.len(), 9);
        for row in &r.rows {
            assert_eq!(row.normalized.len(), 8);
            // The baseline is exactly 1.0 and every RASA design is at least
            // as fast.
            assert!((row.normalized[0].1 - 1.0).abs() < 1e-12);
            for (_, v) in &row.normalized[1..] {
                assert!(*v <= 1.0 + 1e-9, "{row:?}");
            }
        }
        assert!(r.normalized("DLRM-1", "RASA-WLBP").is_some());
        assert!(r.normalized("DLRM-1", "NOT-A-DESIGN").is_none());
        assert!(r.average_normalized("NOT-A-DESIGN").is_none());
    }

    #[test]
    fn average_reductions_follow_the_paper_ordering() {
        let r = quick_fig5();
        let pipe = r.average_reduction("RASA-PIPE").unwrap();
        let wlbp = r.average_reduction("RASA-WLBP").unwrap();
        let dm_wlbp = r.average_reduction("RASA-DM-WLBP").unwrap();
        let db_wls = r.average_reduction("RASA-DB-WLS").unwrap();
        let dmdb_wls = r.average_reduction("RASA-DMDB-WLS").unwrap();
        // Paper: 15.7 %, 30.9 %, 55.5 %, 78.1 %, 79.2 %. The exact values
        // depend on the trace and CPU substrate; the ordering and rough
        // magnitudes must hold.
        assert!(pipe > 0.05 && pipe < 0.35, "pipe {pipe}");
        assert!(wlbp > pipe, "wlbp {wlbp} <= pipe {pipe}");
        assert!(dm_wlbp > wlbp, "dm-wlbp {dm_wlbp} <= wlbp {wlbp}");
        assert!(db_wls > dm_wlbp, "db-wls {db_wls} <= dm-wlbp {dm_wlbp}");
        assert!(dmdb_wls >= db_wls - 0.02, "dmdb-wls {dmdb_wls}");
        assert!(dmdb_wls > 0.6 && dmdb_wls < 0.9, "dmdb-wls {dmdb_wls}");
        let text = r.to_string();
        assert!(text.contains("RASA-DMDB-WLS"));
        assert!(text.contains("reduction"));
    }

    #[test]
    fn relative_performance_is_workload_independent() {
        // The Fig. 5 caption notes the relative performance of the designs
        // is independent of the workload: check the ordering of WLBP vs
        // PIPE holds on every layer.
        let r = quick_fig5();
        for row in &r.rows {
            let get = |d: &str| {
                row.normalized
                    .iter()
                    .find(|(name, _)| name == d)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(get("RASA-PIPE") <= 1.0);
            assert!(
                get("RASA-WLBP") <= get("RASA-PIPE") + 1e-9,
                "{}",
                row.workload
            );
            assert!(
                get("RASA-DMDB-WLS") <= get("RASA-WLBP") + 1e-9,
                "{}",
                row.workload
            );
        }
    }
}
