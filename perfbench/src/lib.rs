//! Outside-in benchmark of the RASA reproduction.
//!
//! Two workloads exercise the two ways the simulator is used:
//!
//! - `eval_full` regenerates the paper evaluation (Fig. 1/2/5/6/7 and the
//!   area/energy table) through [`rasa_sim::ExperimentSuite`], uncapped;
//! - `tier_cold` drives the sharded serving tier (two
//!   [`rasa_sim::ShardServer`]s behind a bound [`rasa_sim::Router`], all
//!   in this process over loopback TCP) with closed-loop
//!   [`rasa_sim::NetClient`]s, on traffic that misses every cache.
//!
//! Every number is taken from outside the program, by timing calls into
//! public functions. An untraced run reports the end-to-end metrics
//! ([`E2E_METRICS`]); a traced run reports per-layer metrics
//! ([`LAYER_METRICS`]) and writes its spans to `perfbench/out/`. See
//! `README.md` beside this crate for why each workload exists and which
//! end-to-end number each layer metric should move.

pub mod eval;
pub mod probe;
pub mod tier;
pub mod util;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Error type of a benchmark run: any failure aborts the run, which then
/// prints no result.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// End-to-end metrics of an untraced run, with their units.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("eval_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics of a traced run, with their units.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.ns_per_instr", "ns"),
    ("core.ns_per_instr", "ns"),
    ("core.skip_rate", "ratio"),
    ("sim.overlap_x", "ratio"),
    ("sim.spec_commit_rate", "ratio"),
    ("sim.peak_resident_instrs", "count"),
    ("sim.cell_ms", "ms"),
    ("runner.parallel_eff", "ratio"),
    ("runner.hit_rate", "ratio"),
    ("runner.evictions", "count"),
    ("serve.hit_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.mean_batch", "count"),
    ("json.encode_ns_per_byte", "ns/B"),
    ("json.parse_ns_per_byte", "ns/B"),
    ("json.response_bytes", "B"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("router.hit_us", "us"),
    ("router.front_us", "us"),
    ("router.miss_self_us", "us"),
    ("router.hit_rate", "ratio"),
    ("router.window_blocked", "count"),
    ("shard.rtt_us", "us"),
    ("shard.front_us", "us"),
    ("client.retries", "count"),
    ("client.connects", "count"),
    ("allocs_per_req", "count"),
    ("trace_overhead_frac", "ratio"),
    ("p99_ms", "ms"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole paper evaluation, uncapped.
    EvalFull,
    /// Uniform traffic over a universe larger than every cache: misses
    /// everywhere.
    TierCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::EvalFull, Workload::TierCold];

    /// The workload's command-line name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Workload::EvalFull => "eval_full",
            Workload::TierCold => "tier_cold",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::smoke`] shrinks every size so the tests finish quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// The evaluation's matmul cap (`None` = full fidelity).
    pub eval_matmul_cap: Option<usize>,
    /// Largest Fig. 7 batch size the evaluation sweeps.
    pub fig7_max_batch: usize,
    /// Evaluations run even when the time budget is already spent.
    pub min_evals: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Distinct tier cells re-simulated in process after the window.
    pub verify_sample: usize,
    /// Cells each layer probe of a traced run measures.
    pub probe_cells: usize,
    /// Timed calls per network and codec probe.
    pub probe_iters: usize,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub const fn full() -> Scale {
        Scale {
            eval_matmul_cap: None,
            fig7_max_batch: 64,
            min_evals: 3,
            setup_repeats: 5,
            verify_sample: 64,
            probe_cells: 8,
            probe_iters: 600,
        }
    }

    /// Sizes for the smoke tests.
    #[must_use]
    pub const fn smoke() -> Scale {
        Scale {
            eval_matmul_cap: Some(64),
            fig7_max_batch: 4,
            min_evals: 1,
            setup_repeats: 1,
            verify_sample: 4,
            probe_cells: 2,
            probe_iters: 100,
        }
    }
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Checks beyond per-operation answers (e.g. non-negative residuals)
    /// that did not hold.
    pub broken_checks: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context for the result: sample counts, percentiles, hit counts.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a note; `value` must already be JSON.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Fails the run's correctness when the residual `value` is negative
    /// by more than three times its standard `error`: a decomposition
    /// whose parts add up to more than the whole, beyond measurement noise.
    pub fn require_non_negative(&mut self, name: &str, value: f64, error: f64) {
        if value < -3.0 * error {
            self.broken_checks.push(format!(
                "residual {name} is negative ({value}, standard error {error})"
            ));
        }
    }

    /// `1 - failed/attempted`.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every answer and every check was right.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.broken_checks.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `names` with its unit.
    ///
    /// # Errors
    ///
    /// When a metric of `names` is missing or not finite (a harness bug).
    pub fn result_line(&self, names: &[(&str, &str)]) -> Result<String, BenchError> {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (index, (name, unit)) in names.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(have, _)| have == name)
                .map(|&(_, value)| value)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})").into());
            }
            let sep = if index == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )?;
        }
        line.push_str("}}");
        Ok(line)
    }

    /// The context line printed before the result: host, commit, seed and
    /// every note.
    #[must_use]
    pub fn context_line(&self, options: &Options) -> String {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let mut line = format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"host.cores\": {cores}, \"commit\": \"{}\"",
            options.workload.name(),
            options.trace,
            options.seed,
            util::commit_id(&repo_root()),
        );
        for (key, value) in &self.notes {
            let _ = write!(line, ", \"{key}\": {value}");
        }
        for check in &self.broken_checks {
            let _ = write!(line, ", \"broken_check\": \"{check}\"");
        }
        line.push('}');
        line
    }
}

/// The checkout root (the parent of this crate's directory).
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where a traced run writes its spans.
#[must_use]
pub fn spans_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", workload.name()))
}

/// Runs one workload.
///
/// # Errors
///
/// Any failure to set up, drive or tear down the workload.
pub fn run(options: &Options) -> Result<Outcome, BenchError> {
    match options.workload {
        Workload::EvalFull => eval::run(options),
        _ => tier::run(options),
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
