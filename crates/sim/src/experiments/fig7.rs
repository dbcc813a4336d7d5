//! Fig. 7: batch-size sensitivity of RASA-DMDB-WLS.
//!
//! Declarative spec against the shared [`ExperimentRunner`]: the re-batched
//! FC layers (via [`BatchMatrix`]) × {baseline, RASA-DMDB-WLS}. The
//! runner's memoization means the baseline cells are shared with any other
//! experiment that already simulated them.

use crate::{DesignPoint, ExperimentRunner, ExperimentSpec, SimError};
use rasa_workloads::{fig7_batch_sizes, BatchMatrix, LayerSpec};
use std::fmt;

/// The theoretical best-case normalized runtime: a perfectly pipelined
/// `rasa_mm` every TM = 16 cycles against the 95-cycle baseline.
const ASYMPTOTE: f64 = 16.0 / 95.0;

/// One point of the Fig. 7 sweep: a layer at a batch size, with the runtime
/// of RASA-DMDB-WLS normalized to the baseline at the same batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// The FC layer being swept (Table I name, without the batch suffix).
    pub layer: String,
    /// Batch size.
    pub batch: usize,
    /// Normalized runtime (RASA-DMDB-WLS / baseline).
    pub normalized_runtime: f64,
}

crate::json::json_document!(Fig7Row: encode {
    "layer" => layer,
    "batch" => batch,
    "normalized_runtime" => normalized_runtime,
});

/// The full Fig. 7 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Batch sizes swept.
    pub batch_sizes: Vec<usize>,
    /// One row per (layer, batch) pair.
    pub rows: Vec<Fig7Row>,
    /// The theoretical best-case normalized runtime: a perfectly pipelined
    /// `rasa_mm` every TM = 16 cycles against the 95-cycle baseline,
    /// 16/95 ≈ 0.168.
    pub asymptote: f64,
}

/// The declarative Fig. 7 matrix: the FC layers among the suite's
/// (possibly filtered) Table I layers at every batch size up to
/// `max_batch`, against {baseline, RASA-DMDB-WLS}.
pub(super) fn spec(
    workloads: &[LayerSpec],
    max_batch: usize,
) -> Result<(ExperimentSpec, Vec<usize>), SimError> {
    let batch_sizes: Vec<usize> = fig7_batch_sizes()
        .into_iter()
        .filter(|&b| b <= max_batch)
        .collect();
    if batch_sizes.is_empty() {
        return Err(SimError::InvalidExperiment {
            reason: "fig7 batch ceiling excludes every batch size".to_string(),
        });
    }

    // The FC layers (DLRM and BERT); the convolutions are not part of the
    // paper's batch sweep.
    let fc_layers: Vec<LayerSpec> = workloads
        .iter()
        .filter(|l| matches!(l.kind(), rasa_workloads::LayerKind::Fc { .. }))
        .cloned()
        .collect();

    let spec = ExperimentSpec {
        name: "fig7",
        workloads: BatchMatrix::new(&fc_layers, &batch_sizes).collect(),
        designs: vec![DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()],
        kernel: None,
    };
    Ok((spec, batch_sizes))
}

pub(super) fn run(
    runner: &ExperimentRunner,
    workloads: &[LayerSpec],
    max_batch: usize,
) -> Result<Fig7Result, SimError> {
    let (spec, batch_sizes) = spec(workloads, max_batch)?;
    if spec.is_empty() {
        // A layer filter can exclude every FC layer; the batch sweep is
        // then simply empty rather than an error, so filtered runs of the
        // full evaluation still complete.
        return Ok(Fig7Result {
            batch_sizes,
            rows: Vec::new(),
            asymptote: ASYMPTOTE,
        });
    }
    let runs = runner.run_spec(&spec)?;
    let rows = runs
        .iter()
        .zip(&spec.workloads)
        .map(|(run, swept)| Fig7Row {
            layer: swept.base_name().to_string(),
            batch: swept.batch(),
            normalized_runtime: run.reports[1].normalized_runtime_vs(&run.reports[0]),
        })
        .collect();

    Ok(Fig7Result {
        batch_sizes,
        rows,
        asymptote: ASYMPTOTE,
    })
}

impl Fig7Result {
    /// The normalized runtime for a layer at a batch size, if present.
    #[must_use]
    pub fn normalized(&self, layer: &str, batch: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.layer == layer && r.batch == batch)
            .map(|r| r.normalized_runtime)
    }

    /// Layer names present in the sweep, in first-appearance order.
    #[must_use]
    pub fn layers(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for row in &self.rows {
            if !seen.contains(&row.layer) {
                seen.push(row.layer.clone());
            }
        }
        seen
    }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 7 — RASA-DMDB-WLS runtime normalized to the baseline vs batch size"
        )?;
        write!(f, "{:>10}", "layer\\batch")?;
        for b in &self.batch_sizes {
            write!(f, "{b:>8}")?;
        }
        writeln!(f)?;
        for layer in self.layers() {
            write!(f, "{layer:>10}")?;
            for &b in &self.batch_sizes {
                match self.normalized(&layer, b) {
                    Some(v) => write!(f, "{v:>8.3}")?,
                    None => write!(f, "{:>8}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "  perfect-pipelining asymptote: {:.3} (16/95)",
            self.asymptote
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentSuite;

    #[test]
    fn batch_sweep_flattens_below_16_and_approaches_the_asymptote() {
        // Keep the test cheap: two batch points per decade and a small cap.
        let suite = ExperimentSuite::new()
            .with_matmul_cap(Some(256))
            .with_fig7_max_batch(256);
        let r = suite.fig7_batch().unwrap();
        assert!((r.asymptote - 16.0 / 95.0).abs() < 1e-9);
        assert_eq!(r.layers().len(), 6);

        for layer in ["DLRM-1", "BERT-1"] {
            // Batches below the 16-row tile granularity all use the same
            // number of rasa_mm instructions → identical normalized runtime.
            let b1 = r.normalized(layer, 1).unwrap();
            let b8 = r.normalized(layer, 8).unwrap();
            let b16 = r.normalized(layer, 16).unwrap();
            assert!((b1 - b8).abs() < 0.02, "{layer}: {b1} vs {b8}");
            assert!((b8 - b16).abs() < 0.02, "{layer}: {b8} vs {b16}");

            // Larger batches approach (but never beat) the asymptote.
            let b256 = r.normalized(layer, 256).unwrap();
            assert!(b256 <= b1 + 1e-9);
            assert!(b256 >= r.asymptote - 0.02, "{layer}: {b256}");
            assert!(b256 < 0.45, "{layer}: {b256}");
        }
        assert!(r.normalized("DLRM-1", 1024).is_none());
        assert!(r.to_string().contains("asymptote"));
    }

    #[test]
    fn impossible_batch_ceiling_is_rejected() {
        let suite = ExperimentSuite::new().with_fig7_max_batch(0);
        assert!(matches!(
            suite.fig7_batch(),
            Err(SimError::InvalidExperiment { .. })
        ));
    }
}
