//! Experiment runners that regenerate every figure and table of the paper's
//! evaluation (§V).
//!
//! Each experiment module is a thin declarative layer over the shared
//! [`ExperimentRunner`](crate::ExperimentRunner): it contributes an
//! [`ExperimentSpec`](crate::ExperimentSpec) (which workloads × designs to
//! simulate, under which kernel) plus post-processing of the resulting
//! [`WorkloadRun`](crate::WorkloadRun)s into a plain-data result struct with
//! a `Display` implementation that prints a paper-style table. The runner
//! owns iteration and per-cell memoization, so results shared between
//! figures (Fig. 5 feeds Fig. 6 and the area/energy table; Fig. 7 re-uses
//! baseline cells across batch sizes) are simulated exactly once.

mod ablation;
mod area_energy;
mod fig1;
mod fig2;
mod fig5;
mod fig6;
mod fig7;

pub use ablation::{
    BlockingAblationResult, BlockingAblationRow, CpuAblationResult, CpuAblationRow,
};
pub use area_energy::{AreaEnergyResult, AreaEnergyRow};
pub use fig1::Fig1Result;
pub use fig2::Fig2Result;
pub use fig5::{Fig5Result, Fig5Row};
pub use fig6::{Fig6Result, Fig6Row};
pub use fig7::{Fig7Result, Fig7Row};

use crate::{ExperimentRunner, SimError};
use rasa_workloads::{LayerSpec, WorkloadSuite};
use std::sync::Arc;

/// Selects the Table I layers matching a `--layers`-style filter:
/// comma-separated tokens, each either a 1-based index into the Table I
/// order or a case-insensitive substring of a layer name. Presentation
/// order is preserved.
fn filter_layers(all: &[LayerSpec], filter: &str) -> Vec<LayerSpec> {
    let tokens: Vec<String> = filter
        .split(',')
        .map(|token| token.trim().to_ascii_lowercase())
        .filter(|token| !token.is_empty())
        .collect();
    all.iter()
        .enumerate()
        .filter(|(position, layer)| {
            tokens.iter().any(|token| match token.parse::<usize>() {
                Ok(index) => index == position + 1,
                Err(_) => layer.name().to_ascii_lowercase().contains(token),
            })
        })
        .map(|(_, layer)| layer.clone())
        .collect()
}

/// Facade over the full paper evaluation: one method per figure/table, all
/// executing through one shared, memoizing [`ExperimentRunner`].
///
/// `matmul_cap` bounds the number of `rasa_mm` instructions simulated per
/// workload/design pair; the full-workload runtime is extrapolated from the
/// simulated steady state (see [`crate::SimReport`]). The default of 4096
/// reproduces stable normalized runtimes in seconds of wall-clock time; the
/// experiment binaries expose a flag to raise it (or remove it entirely)
/// for full-fidelity runs.
///
/// Cloning the suite shares the underlying runner (and its cell cache);
/// reconfiguring via the `with_*` methods builds a fresh runner.
#[derive(Debug, Clone)]
pub struct ExperimentSuite {
    fig7_max_batch: usize,
    /// The Table I layers the matrix experiments run over — all nine by
    /// default, a subset under a layer filter.
    layers: Vec<LayerSpec>,
    /// The original filter expression, kept so reconfiguration rebuilds
    /// resolve it again.
    layer_filter: Option<String>,
    runner: Arc<ExperimentRunner>,
}

impl ExperimentSuite {
    /// Creates the suite with the default per-run matmul cap.
    #[must_use]
    pub fn new() -> Self {
        ExperimentSuite::builder()
            .build()
            .expect("default suite configuration is valid")
    }

    /// Starts building a suite (kubecl-style typed config builder).
    #[must_use]
    pub fn builder() -> ExperimentSuiteBuilder {
        ExperimentSuiteBuilder::default()
    }

    /// Overrides the per-run matmul cap (`None` simulates every tile),
    /// building a fresh runner (and cache).
    ///
    /// # Panics
    ///
    /// Panics on a cap of `Some(0)`; use
    /// [`ExperimentSuite::builder`] for fallible configuration.
    #[must_use]
    pub fn with_matmul_cap(self, cap: Option<usize>) -> Self {
        ExperimentSuite::builder()
            .with_matmul_cap(cap)
            .with_fig7_max_batch(self.fig7_max_batch)
            .with_speculation(self.runner.is_speculative())
            .with_layer_filter(self.layer_filter.clone())
            .build()
            .expect("matmul cap must be at least 1 (or None for uncapped)")
    }

    /// Restricts the Fig. 7 sweep to batch sizes up to `max_batch`
    /// (inclusive); the paper sweeps up to 1024.
    #[must_use]
    pub fn with_fig7_max_batch(mut self, max_batch: usize) -> Self {
        self.fig7_max_batch = max_batch;
        self
    }

    /// The configured matmul cap.
    #[must_use]
    pub fn matmul_cap(&self) -> Option<usize> {
        self.runner.matmul_cap()
    }

    /// The configured Fig. 7 batch ceiling.
    #[must_use]
    pub const fn fig7_max_batch(&self) -> usize {
        self.fig7_max_batch
    }

    /// The shared execution pipeline behind every experiment.
    #[must_use]
    pub fn runner(&self) -> &ExperimentRunner {
        &self.runner
    }

    /// The Table I layers the matrix experiments run over (all nine unless
    /// a layer filter narrowed them).
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Fig. 1: the 2×2 weight-stationary walkthrough (per-cycle utilization,
    /// 28.6 % average).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Design`] if the toy array configuration is
    /// rejected (it never is).
    pub fn fig1_toy(&self) -> Result<Fig1Result, SimError> {
        fig1::run()
    }

    /// Fig. 2: PE utilization versus TM for square arrays of several sizes.
    #[must_use]
    pub fn fig2_utilization(&self) -> Fig2Result {
        fig2::run()
    }

    /// Fig. 5: runtime of the baseline and the seven RASA designs on the
    /// nine Table I layers, normalized to the baseline.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig5_runtime(&self) -> Result<Fig5Result, SimError> {
        fig5::run(self.runner(), &self.layers)
    }

    /// Fig. 6: performance-per-area of the three RASA-Data designs (each
    /// with its best control scheme), derived from a Fig. 5 run (cached by
    /// the shared runner, so deriving after a Fig. 5 call costs nothing
    /// extra).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig6_ppa(&self) -> Result<Fig6Result, SimError> {
        let fig5 = self.fig5_runtime()?;
        Ok(fig6::from_fig5(&fig5))
    }

    /// Fig. 6 derived from an existing Fig. 5 result.
    #[must_use]
    pub fn fig6_from(&self, fig5: &Fig5Result) -> Fig6Result {
        fig6::from_fig5(fig5)
    }

    /// Fig. 7: batch-size sensitivity of RASA-DMDB-WLS on the FC layers.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fig7_batch(&self) -> Result<Fig7Result, SimError> {
        fig7::run(self.runner(), &self.layers, self.fig7_max_batch)
    }

    /// The §V area and energy-efficiency comparison of the RASA-Data
    /// designs, derived from a Fig. 5 run (cached by the shared runner).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn area_energy(&self) -> Result<AreaEnergyResult, SimError> {
        let fig5 = self.fig5_runtime()?;
        Ok(area_energy::from_fig5(&fig5))
    }

    /// Area/energy table derived from an existing Fig. 5 result.
    #[must_use]
    pub fn area_energy_from(&self, fig5: &Fig5Result) -> AreaEnergyResult {
        area_energy::from_fig5(fig5)
    }

    /// Ablation: sensitivity of the RASA-Control benefit to the consecutive
    /// weight-register reuse exposed by the micro-kernel emission order.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn ablation_blocking(&self) -> Result<BlockingAblationResult, SimError> {
        ablation::run_blocking(self.runner())
    }

    /// Ablation: sensitivity of the best design's speedup to the host CPU's
    /// reorder-buffer size and the engine:core clock ratio.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn ablation_cpu(&self) -> Result<CpuAblationResult, SimError> {
        ablation::run_cpu(self.runner())
    }
}

impl Default for ExperimentSuite {
    fn default() -> Self {
        ExperimentSuite::new()
    }
}

/// Builder for [`ExperimentSuite`], following the kubecl
/// `TilingSchemeBuilder` idiom: optional typed fields, validated at
/// [`build`](Self::build).
#[derive(Debug, Default)]
pub struct ExperimentSuiteBuilder {
    matmul_cap: Option<Option<usize>>,
    fig7_max_batch: Option<usize>,
    speculation: Option<bool>,
    layer_filter: Option<String>,
}

impl ExperimentSuiteBuilder {
    /// Caps the simulated `rasa_mm` instructions per workload/design pair
    /// (`None` simulates every tile).
    #[must_use]
    pub fn with_matmul_cap(mut self, cap: Option<usize>) -> Self {
        self.matmul_cap = Some(cap);
        self
    }

    /// Restricts the Fig. 7 sweep to batch sizes up to `max_batch`.
    #[must_use]
    pub fn with_fig7_max_batch(mut self, max_batch: usize) -> Self {
        self.fig7_max_batch = Some(max_batch);
        self
    }

    /// Enables (default) or disables steady-state fast-forward.
    #[must_use]
    pub fn with_speculation(mut self, speculation: bool) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Restricts the matrix experiments to the Table I layers matching
    /// `filter`: comma-separated tokens, each a 1-based Table I index or a
    /// case-insensitive substring of a layer name (`"DLRM"`, `"BERT-2"`,
    /// `"1,resnet50-3"`, …). `None` keeps all nine layers.
    #[must_use]
    pub fn with_layer_filter(mut self, filter: Option<String>) -> Self {
        self.layer_filter = filter;
        self
    }

    /// Validates the configuration and builds the suite (and its runner).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for a zero matmul cap or a
    /// layer filter matching no Table I layer.
    pub fn build(self) -> Result<ExperimentSuite, SimError> {
        let mut runner_builder = ExperimentRunner::builder();
        if let Some(cap) = self.matmul_cap {
            runner_builder = runner_builder.with_matmul_cap(cap);
        }
        if let Some(speculation) = self.speculation {
            runner_builder = runner_builder.with_speculation(speculation);
        }
        let runner = runner_builder.build()?;
        let all_layers = WorkloadSuite::mlperf().layers().to_vec();
        let layers = match &self.layer_filter {
            Some(filter) => {
                let selected = filter_layers(&all_layers, filter);
                if selected.is_empty() {
                    return Err(SimError::InvalidExperiment {
                        reason: format!("layer filter '{filter}' matches no Table I layer"),
                    });
                }
                selected
            }
            None => all_layers,
        };
        Ok(ExperimentSuite {
            fig7_max_batch: self.fig7_max_batch.unwrap_or(1024),
            layers,
            layer_filter: self.layer_filter,
            runner: Arc::new(runner),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_configuration() {
        let s = ExperimentSuite::new();
        assert_eq!(s.matmul_cap(), Some(4096));
        assert_eq!(s.fig7_max_batch(), 1024);
        let s = s.with_matmul_cap(Some(128)).with_fig7_max_batch(64);
        assert_eq!(s.matmul_cap(), Some(128));
        assert_eq!(s.fig7_max_batch(), 64);
        assert_eq!(s.runner().matmul_cap(), Some(128));
        let d = ExperimentSuite::default();
        assert_eq!(d.matmul_cap(), Some(4096));
        assert_eq!(d.fig7_max_batch(), 1024);
    }

    #[test]
    fn builder_covers_every_field() {
        let s = ExperimentSuite::builder()
            .with_matmul_cap(Some(96))
            .with_fig7_max_batch(32)
            .build()
            .unwrap();
        assert_eq!(s.matmul_cap(), Some(96));
        assert_eq!(s.fig7_max_batch(), 32);
        assert!(matches!(
            ExperimentSuite::builder().with_matmul_cap(Some(0)).build(),
            Err(SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn layer_filter_narrows_the_matrix() {
        // Tokens are substrings or 1-based Table I indices, comma-separated.
        let s = ExperimentSuite::builder()
            .with_matmul_cap(Some(96))
            .with_fig7_max_batch(16)
            .with_layer_filter(Some("dlrm,9".to_string()))
            .build()
            .unwrap();
        let names: Vec<&str> = s.layers().iter().map(|l| l.name()).collect();
        assert_eq!(names, ["DLRM-1", "DLRM-2", "DLRM-3", "BERT-3"]);
        let fig5 = s.fig5_runtime().unwrap();
        assert_eq!(fig5.rows.len(), 4);
        let fig7 = s.fig7_batch().unwrap();
        assert_eq!(fig7.layers().len(), 4, "fig7 sweeps the filtered FCs");

        // A conv-only filter leaves the FC batch sweep empty, not failing.
        let conv_only = ExperimentSuite::builder()
            .with_matmul_cap(Some(96))
            .with_fig7_max_batch(16)
            .with_layer_filter(Some("ResNet50-1".to_string()))
            .build()
            .unwrap();
        assert_eq!(conv_only.layers().len(), 1);
        assert!(conv_only.fig7_batch().unwrap().rows.is_empty());

        // A filter matching nothing is a configuration error.
        assert!(matches!(
            ExperimentSuite::builder()
                .with_layer_filter(Some("not-a-layer".to_string()))
                .build(),
            Err(SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn a_cold_evaluation_keeps_its_memos_compact() {
        // The evaluation at `--max-batch 64`, uncapped (perfbench's
        // `eval_full`) and at cap 256: 18 of its 156 cells simulated, the
        // other 138 recalled, and the memos' summed storage no more than
        // the 90 522 bytes they took when fingerprints were written word by
        // word and LEB128-encoded after. The work the walks did is pinned
        // too, summed over fig5's 72 reports: pieces and instructions fed,
        // block strides and reduction steps skipped, and the largest piece
        // held.
        for (cap, fed_instructions, spec_forks, spec_step_forks) in [
            (None, 34_797_568, 150_776, 3_744),
            (Some(256), 63_872, 3_080, 2_848),
        ] {
            let suite = ExperimentSuite::builder()
                .with_matmul_cap(cap)
                .with_fig7_max_batch(64)
                .build()
                .unwrap();
            suite.fig1_toy().unwrap();
            let fig5 = suite.fig5_runtime().unwrap();
            let _ = suite.area_energy_from(&fig5);
            suite.fig7_batch().unwrap();
            let pipelines: Vec<_> = fig5
                .runs
                .iter()
                .flat_map(|run| run.reports.iter().map(|report| report.pipeline))
                .collect();
            assert_eq!(pipelines.len(), 72);
            let sum =
                |field: fn(&crate::PipelineStats) -> u64| pipelines.iter().map(field).sum::<u64>();
            assert_eq!(
                (
                    sum(|p| p.segments),
                    sum(|p| p.fed_instructions),
                    sum(|p| p.spec_forks),
                    sum(|p| p.spec_step_forks),
                ),
                (424, fed_instructions, spec_forks, spec_step_forks),
                "cap {cap:?}"
            );
            let peak = pipelines.iter().map(|p| p.peak_resident_instructions);
            assert_eq!(peak.max(), Some(112), "cap {cap:?}");
            let (machines, memo) = suite.runner().memo_stats();
            assert_eq!(machines, 8);
            assert_eq!(
                (
                    memo.states,
                    memo.transitions,
                    memo.recalls,
                    memo.misses,
                    memo.midway_misses
                ),
                (62, 108, 138, 18, 0),
                "cap {cap:?}"
            );
            assert!(memo.bytes <= 90_522, "{memo:?}");
            let cache = suite.runner().cache_stats();
            assert_eq!(
                (cache.hits, cache.misses, cache.evictions),
                (0, 156, 0),
                "cap {cap:?}"
            );
        }
    }

    #[test]
    fn streaming_options_flow_to_the_runner() {
        // Fast-forward is the streamed path's one option.
        let s = ExperimentSuite::builder()
            .with_matmul_cap(Some(96))
            .with_speculation(false)
            .with_layer_filter(Some("BERT-1".to_string()))
            .build()
            .unwrap();
        assert!(!s.runner().is_speculative());
        // Reconfiguration rebuilds the runner but keeps the fast-forward
        // option and the resolved layer filter.
        let s = s.with_matmul_cap(Some(64));
        assert!(!s.runner().is_speculative());
        assert_eq!(s.layers().len(), 1);
        // Fast-forward is on by default.
        assert!(ExperimentSuite::new().runner().is_speculative());
    }

    #[test]
    fn clones_share_the_runner_cache() {
        let a = ExperimentSuite::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        let b = a.clone();
        a.fig1_toy().unwrap();
        assert_eq!(
            a.runner().cache_stats(),
            b.runner().cache_stats(),
            "clones observe the same cache"
        );
    }
}
