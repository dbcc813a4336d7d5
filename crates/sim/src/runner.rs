//! The shared experiment execution pipeline.
//!
//! Every figure and table of the paper's evaluation boils down to the same
//! operation: simulate a set of (workload, design) cells, possibly under a
//! custom kernel configuration, and post-process the resulting
//! [`SimReport`]s. The seed code hand-rolled that double loop in every
//! experiment module, re-simulating identical cells across figures (Fig. 5,
//! Fig. 6 and the area/energy table all need the same 9 × 8 grid, and the
//! Fig. 7 batch sweep re-runs the baseline at every batch size).
//!
//! [`ExperimentRunner`] centralizes the execution:
//!
//! * **Parallelism** — independent cells run concurrently on all cores via
//!   `rayon`-style parallel iterators; the simulation itself is
//!   deterministic, so parallel results are bit-identical to serial ones.
//! * **Memoization** — each cell result is cached under a key derived from
//!   the complete (design, workload, kernel) configuration, so a cell is
//!   simulated at most once per runner, however many experiments need it.
//! * **Declarative specs** — an [`ExperimentSpec`] names a workload set, a
//!   design set and an optional kernel override; the runner expands the
//!   cross product and returns one [`WorkloadRun`] per workload. Experiment
//!   modules reduce to spec + post-processing.
//!
//! Runners are built with the [`ExperimentRunnerBuilder`]
//! (`ExperimentRunner::builder()`), mirroring the typed config-builder
//! idiom of kubecl's `TilingScheme`.

use crate::cache::{InsertOutcome, LruCache};
use crate::json::{FromJson, JsonValue, ToJson};
use crate::key::CellKey;
use crate::prof::{self, Stage};
use crate::simulator::DEFAULT_MATMUL_CAP;
use crate::{DesignPoint, SimError, SimReport, Simulator, WorkloadRun};
use rasa_trace::GemmKernelConfig;
use rasa_workloads::LayerSpec;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on the number of memoized cells a runner keeps resident.
///
/// The paper matrices need well under a hundred cells; the bound only
/// matters under serving traffic, where distinct shapes churn through the
/// cache and the LRU policy keeps the hot set resident.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// One simulation cell: a workload on a design point, optionally under a
/// non-default kernel configuration.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The design point to simulate.
    pub design: DesignPoint,
    /// The workload to run.
    pub workload: LayerSpec,
    /// Kernel override; `None` uses the runner's default kernel with the
    /// runner's matmul cap.
    pub kernel: Option<GemmKernelConfig>,
}

impl SimJob {
    /// A job for `workload` on `design` with the runner's default kernel.
    #[must_use]
    pub fn new(design: DesignPoint, workload: LayerSpec) -> Self {
        SimJob {
            design,
            workload,
            kernel: None,
        }
    }

    /// Overrides the kernel configuration (emission order, tiling, cap).
    #[must_use]
    pub fn with_kernel(mut self, kernel: GemmKernelConfig) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// The kernel this job resolves to under a given default matmul cap:
    /// its explicit override, or the scheme-derived default kernel carrying
    /// the cap.
    #[must_use]
    pub fn resolved_kernel(&self, default_matmul_cap: Option<usize>) -> GemmKernelConfig {
        self.kernel.unwrap_or_else(|| GemmKernelConfig {
            max_matmuls: default_matmul_cap,
            ..GemmKernelConfig::default()
        })
    }

    /// The semantic identity of this job's simulation cell under a given
    /// default matmul cap: design + lowered GEMM shape + resolved kernel.
    ///
    /// This is the key [`ExperimentRunner`] memoizes under and the serving
    /// layer coalesces by, computable without a runner — the network
    /// router uses it to consistent-hash a request onto the shard whose
    /// cell cache is warm for the shape.
    ///
    /// The kernel half of the key is the kernel's `Debug` rendering, which
    /// covers every scheme axis (two kernels differing only in register
    /// block, loop order, scalar model or segment hint render differently)
    /// while default-scheme kernels keep the pre-scheme legacy text, so
    /// pinned golden cache dumps stay byte-stable.
    #[must_use]
    pub fn semantic_key(&self, default_matmul_cap: Option<usize>) -> String {
        let kernel = self.resolved_kernel(default_matmul_cap);
        render_semantic_key(&self.design, &self.workload, &kernel)
    }

    /// The interned form of [`semantic_key`](Self::semantic_key): the same
    /// bytes, rendered and hashed exactly once. This is what the runner
    /// memoizes under, the serving layer coalesces by and the router
    /// consistent-hashes — one rendering per request end-to-end.
    #[must_use]
    pub fn cell_key(&self, default_matmul_cap: Option<usize>) -> CellKey {
        CellKey::new(self.semantic_key(default_matmul_cap))
    }
}

/// Renders the semantic cell key text from borrowed parts — the single
/// definition of the key format, shared by [`SimJob::semantic_key`] and
/// the serving layer (which keys from a borrowed request without cloning
/// it into a job first).
pub(crate) fn render_semantic_key(
    design: &DesignPoint,
    workload: &LayerSpec,
    kernel: &GemmKernelConfig,
) -> String {
    format!("{design:?}|{:?}|{kernel:?}", workload.gemm_shape())
}

/// A declarative experiment: the (workload × design) matrix to simulate and
/// an optional kernel override shared by every cell.
///
/// Experiment modules build one of these and hand it to
/// [`ExperimentRunner::run_spec`]; the runner owns iteration order,
/// parallelism and caching, so the modules keep no loops of their own.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Human-readable experiment name (used in logs and error messages).
    pub name: &'static str,
    /// Workloads, in presentation order.
    pub workloads: Vec<LayerSpec>,
    /// Design points, in presentation order. The first design is the
    /// normalization baseline by convention.
    pub designs: Vec<DesignPoint>,
    /// Kernel override applied to every cell (`None` = runner default).
    pub kernel: Option<GemmKernelConfig>,
}

impl ExperimentSpec {
    /// Expands the (workload × design) cross product, workload-major: all
    /// designs of the first workload, then all designs of the second, …
    #[must_use]
    pub fn jobs(&self) -> Vec<SimJob> {
        self.workloads
            .iter()
            .flat_map(|workload| {
                self.designs.iter().map(|design| SimJob {
                    design: design.clone(),
                    workload: workload.clone(),
                    kernel: self.kernel,
                })
            })
            .collect()
    }

    /// The number of cells in the matrix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workloads.len() * self.designs.len()
    }

    /// Whether the matrix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cache effectiveness counters of an [`ExperimentRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells answered from the memoization cache.
    pub hits: u64,
    /// Cells that had to be simulated.
    pub misses: u64,
    /// Distinct cells currently cached.
    pub entries: usize,
    /// Cells evicted by the LRU bound since construction (or the last
    /// [`clear_cache`](ExperimentRunner::clear_cache)).
    pub evictions: u64,
    /// Maximum resident cells (the LRU capacity).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Parallel, memoizing executor for (workload × design) simulation
/// matrices. See the [crate docs](crate) for the motivation.
///
/// The runner is `Sync`: one runner can be shared by concurrent experiment
/// calls, and all of them share the cell cache. Two threads racing on the
/// same uncached cell may both simulate it; the simulation is
/// deterministic, so either result is valid and the duplicate work is
/// bounded by one cell.
#[derive(Debug)]
pub struct ExperimentRunner {
    matmul_cap: Option<usize>,
    parallel: bool,
    streaming: bool,
    segment_size: usize,
    speculation: bool,
    cache: Mutex<LruCache<CellKey, Arc<SimReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ExperimentRunner {
    /// A parallel runner with the default matmul cap.
    #[must_use]
    pub fn new() -> Self {
        ExperimentRunner::builder()
            .build()
            .expect("default runner configuration is valid")
    }

    /// Starts building a runner (kubecl-style typed config builder).
    #[must_use]
    pub fn builder() -> ExperimentRunnerBuilder {
        ExperimentRunnerBuilder::default()
    }

    /// The cap on simulated `rasa_mm` instructions per cell, if any.
    #[must_use]
    pub const fn matmul_cap(&self) -> Option<usize> {
        self.matmul_cap
    }

    /// Whether cells run concurrently (`false` = strict serial execution).
    #[must_use]
    pub const fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Whether cells run through the streaming trace→simulate pipeline
    /// (default) or the materialized path. Simulated statistics are
    /// bit-identical either way; only the [`crate::PipelineStats`]
    /// diagnostics differ.
    #[must_use]
    pub const fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// The target streamed-segment size in instructions.
    #[must_use]
    pub const fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// Whether streamed cells may fast-forward through their periodic
    /// steady state (default). Like the transport settings, fast-forward
    /// never changes a simulated statistic; it only saves wall-clock time.
    #[must_use]
    pub const fn is_speculative(&self) -> bool {
        self.speculation
    }

    /// Cache effectiveness counters since construction (or the last
    /// [`clear_cache`](Self::clear_cache)).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: cache.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: cache.capacity(),
        }
    }

    /// The maximum number of memoized cells kept resident.
    #[must_use]
    pub fn cache_capacity(&self) -> usize {
        self.cache.lock().expect("cache lock").capacity()
    }

    /// Drops every cached cell and resets the hit/miss/eviction counters.
    pub fn clear_cache(&self) {
        self.cache.lock().expect("cache lock").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Serializes the resident memoization cache as a JSON node: an array
    /// of `{"key", "report"}` objects sorted by key (so the document is
    /// deterministic even after parallel runs filled the cache in
    /// scheduler-dependent order).
    ///
    /// The `run_all` binary embeds this under `"cache": {"cells": ...}` in
    /// its `--json` results document; a later run can hand that document to
    /// [`warm_start_json`](Self::warm_start_json) to start with a hot
    /// cache.
    #[must_use]
    pub fn dump_cache_json(&self) -> JsonValue {
        let cache = self.cache.lock().expect("cache lock");
        let mut cells: Vec<(CellKey, JsonValue)> = cache
            .keys_by_recency()
            .into_iter()
            .map(|key| {
                let report = cache.peek(&key).expect("listed key is resident");
                (key, report.to_json())
            })
            .collect();
        drop(cache);
        // Keys serialize as their interned string form, so the document
        // is byte-identical to the pre-interning encoding.
        cells.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        JsonValue::Array(
            cells
                .into_iter()
                .map(|(key, report)| {
                    JsonValue::Object(vec![
                        ("key".into(), JsonValue::string(key.as_str())),
                        ("report".into(), report),
                    ])
                })
                .collect(),
        )
    }

    /// Warm-starts the memoization cache from a previously persisted
    /// document and returns the number of cells loaded.
    ///
    /// Accepts, in order of preference: a full `run_all --json` results
    /// document (cells under `"cache"."cells"`), an object with a
    /// `"cells"` member, or the bare cell array produced by
    /// [`dump_cache_json`](Self::dump_cache_json). Loaded cells count as
    /// neither hits nor misses; insertions beyond the capacity evict LRU
    /// cells as usual (and count as evictions). Keys embed the complete
    /// cell identity (design, lowered shape, kernel — including the matmul
    /// cap), so cells dumped under a different fidelity simply never match
    /// this runner's lookups: warm-starting is always safe, never wrong.
    ///
    /// The trace-transport settings (streaming on/off, segment size,
    /// speculation on/off and depth) are deliberately *not* part of the
    /// key — the simulated statistics are bit-identical across transports. A warmed cell therefore keeps the
    /// [`crate::PipelineStats`] diagnostics of the execution that
    /// originally produced it, which may describe a different transport
    /// than this runner's; every architectural metric is exact.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Json`] when the document holds no cell array or
    /// a cell fails to decode.
    pub fn warm_start_json(&self, document: &JsonValue) -> Result<usize, SimError> {
        let cells = document
            .get("cache")
            .and_then(|cache| cache.get("cells"))
            .or_else(|| document.get("cells"))
            .unwrap_or(document);
        let Some(cells) = cells.as_array() else {
            return Err(SimError::Json {
                reason: "warm-start document has no cache cell array".to_string(),
            });
        };
        let mut loaded = 0usize;
        for cell in cells {
            let key = cell
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| SimError::Json {
                    reason: "cache cell is missing its string 'key'".to_string(),
                })?
                .to_string();
            let report =
                SimReport::from_json(cell.get("report").ok_or_else(|| SimError::Json {
                    reason: format!("cache cell '{key}' is missing its 'report'"),
                })?)?;
            let outcome = self
                .cache
                .lock()
                .expect("cache lock")
                .insert(CellKey::new(key), Arc::new(report));
            if matches!(outcome, InsertOutcome::Evicted(..)) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            loaded += 1;
        }
        Ok(loaded)
    }

    /// The kernel a job resolves to: its explicit override, or the default
    /// kernel carrying the runner's matmul cap.
    fn resolve_kernel(&self, job: &SimJob) -> GemmKernelConfig {
        job.resolved_kernel(self.matmul_cap)
    }

    /// The semantic cache key of a job's simulation cell.
    ///
    /// Simulated cycle counts depend only on the design, the lowered GEMM
    /// shape and the kernel — not on the workload's display name — so the
    /// key is semantic: a re-batched `DLRM-1@b512` hits the cell `DLRM-1`
    /// already simulated at its native batch of 512. The derived Debug
    /// output covers every configuration field (floats print with
    /// round-trip precision), so the key is a complete identity of the
    /// cell. The serving layer batches requests by this same key, so
    /// requests coalesced into one batch share one simulation.
    ///
    /// The key comes back interned ([`CellKey`]): rendered and hashed
    /// once, reusable for cache probes, coalescing comparisons and ring
    /// placement without re-hashing.
    #[must_use]
    pub fn job_key(&self, job: &SimJob) -> CellKey {
        job.cell_key(self.matmul_cap)
    }

    /// Runs (or recalls) one cell under a key the caller already interned
    /// (`key` must be `self.job_key(job)`); the serving layer uses this to
    /// reuse the key it coalesced the batch by.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the underlying [`Simulator`].
    pub fn run_job_keyed(&self, job: &SimJob, key: &CellKey) -> Result<Arc<SimReport>, SimError> {
        debug_assert_eq!(key, &self.job_key(job), "key must belong to the job");
        let kernel = self.resolve_kernel(job);
        {
            let probe = prof::time(Stage::CacheProbe);
            let mut cache = self.cache.lock().expect("cache lock");
            let hit = cache.get(key).map(Arc::clone);
            drop(cache);
            drop(probe);
            if let Some(report) = hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Same numbers, possibly a different label: restamp the
                // workload name the caller asked for.
                return Ok(if report.workload == job.workload.name() {
                    report
                } else {
                    let mut relabelled = (*report).clone();
                    relabelled.workload = job.workload.name().to_string();
                    Arc::new(relabelled)
                });
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let simulate = prof::time(Stage::Simulate);
        let report = Arc::new(
            Simulator::new(job.design.clone())?
                .with_kernel(kernel)?
                .with_streaming(self.streaming)
                .with_segment_size(self.segment_size)?
                .with_speculation(self.speculation)
                .run_layer(&job.workload)?,
        );
        drop(simulate);
        let outcome = self
            .cache
            .lock()
            .expect("cache lock")
            .insert(key.clone(), Arc::clone(&report));
        if matches!(outcome, InsertOutcome::Evicted(..)) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Runs (or recalls) one cell.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the underlying [`Simulator`].
    pub fn run_job(&self, job: &SimJob) -> Result<Arc<SimReport>, SimError> {
        self.run_job_keyed(job, &self.job_key(job))
    }

    /// Runs a batch of cells, in parallel when the runner is parallel, and
    /// returns the reports in job order.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error in job order.
    pub fn run_jobs(&self, jobs: &[SimJob]) -> Result<Vec<Arc<SimReport>>, SimError> {
        if self.parallel {
            jobs.par_iter().map(|job| self.run_job(job)).collect()
        } else {
            jobs.iter().map(|job| self.run_job(job)).collect()
        }
    }

    /// Runs the full (workload × design) matrix of a spec and groups the
    /// reports into one [`WorkloadRun`] per workload (designs in spec
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for an empty matrix and
    /// propagates simulation errors.
    pub fn run_spec(&self, spec: &ExperimentSpec) -> Result<Vec<WorkloadRun>, SimError> {
        if spec.is_empty() {
            return Err(SimError::InvalidExperiment {
                reason: format!(
                    "experiment {} has an empty workload x design matrix",
                    spec.name
                ),
            });
        }
        let reports = self.run_jobs(&spec.jobs())?;
        Ok(reports
            .chunks(spec.designs.len())
            .zip(&spec.workloads)
            .map(|(chunk, workload)| WorkloadRun {
                workload: workload.name().to_string(),
                reports: chunk.iter().map(|r| (**r).clone()).collect(),
            })
            .collect())
    }

    /// Convenience wrapper: runs `workloads × designs` with the default
    /// kernel.
    ///
    /// # Errors
    ///
    /// Same as [`run_spec`](Self::run_spec).
    pub fn run_grid(
        &self,
        workloads: &[LayerSpec],
        designs: &[DesignPoint],
    ) -> Result<Vec<WorkloadRun>, SimError> {
        self.run_spec(&ExperimentSpec {
            name: "grid",
            workloads: workloads.to_vec(),
            designs: designs.to_vec(),
            kernel: None,
        })
    }
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        ExperimentRunner::new()
    }
}

/// Builder for [`ExperimentRunner`], following the kubecl
/// `TilingSchemeBuilder` idiom: optional typed fields, validated at
/// [`build`](Self::build).
#[derive(Debug, Default)]
pub struct ExperimentRunnerBuilder {
    matmul_cap: Option<Option<usize>>,
    parallel: Option<bool>,
    streaming: Option<bool>,
    segment_size: Option<usize>,
    speculation: Option<bool>,
    cache_capacity: Option<usize>,
}

impl ExperimentRunnerBuilder {
    /// Caps the simulated `rasa_mm` instructions per cell (`None` simulates
    /// every tile).
    #[must_use]
    pub fn with_matmul_cap(mut self, cap: Option<usize>) -> Self {
        self.matmul_cap = Some(cap);
        self
    }

    /// Selects parallel (default) or serial execution.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = Some(parallel);
        self
    }

    /// Forces strict serial execution (for determinism checks and
    /// debugging).
    #[must_use]
    pub fn serial(self) -> Self {
        self.with_parallel(false)
    }

    /// Selects the streaming trace→simulate pipeline (default) or the
    /// materialized path for every cell.
    #[must_use]
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = Some(streaming);
        self
    }

    /// Overrides the target streamed-segment size in instructions.
    #[must_use]
    pub fn with_segment_size(mut self, segment_size: usize) -> Self {
        self.segment_size = Some(segment_size);
        self
    }

    /// Enables (default) or disables steady-state fast-forward for
    /// streamed cells.
    #[must_use]
    pub fn with_speculation(mut self, speculation: bool) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Bounds the memoization cache to `capacity` resident cells (default
    /// [`DEFAULT_CACHE_CAPACITY`]); least-recently-used cells are evicted.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Validates the configuration and builds the runner.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidExperiment`] for a zero matmul cap or a
    /// zero cache capacity.
    pub fn build(self) -> Result<ExperimentRunner, SimError> {
        let matmul_cap = self.matmul_cap.unwrap_or(Some(DEFAULT_MATMUL_CAP));
        if matmul_cap == Some(0) {
            return Err(SimError::InvalidExperiment {
                reason: "matmul cap must be at least 1 (or None for uncapped)".to_string(),
            });
        }
        let cache_capacity = self.cache_capacity.unwrap_or(DEFAULT_CACHE_CAPACITY);
        if cache_capacity == 0 {
            return Err(SimError::InvalidExperiment {
                reason: "cache capacity must be at least 1".to_string(),
            });
        }
        let segment_size = self
            .segment_size
            .unwrap_or(rasa_trace::DEFAULT_SEGMENT_SIZE);
        if segment_size == 0 {
            return Err(SimError::InvalidExperiment {
                reason: "segment size must be at least one instruction".to_string(),
            });
        }
        Ok(ExperimentRunner {
            matmul_cap,
            parallel: self.parallel.unwrap_or(true),
            streaming: self.streaming.unwrap_or(true),
            segment_size,
            speculation: self.speculation.unwrap_or(true),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_workloads::WorkloadSuite;

    fn small_grid() -> (Vec<LayerSpec>, Vec<DesignPoint>) {
        let suite = WorkloadSuite::mlperf();
        let workloads = vec![
            suite.layer("DLRM-1").unwrap().clone(),
            suite.layer("BERT-1").unwrap().clone(),
        ];
        let designs = vec![DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
        (workloads, designs)
    }

    #[test]
    fn builder_validates_and_defaults() {
        let runner = ExperimentRunner::new();
        assert_eq!(runner.matmul_cap(), Some(4096));
        assert!(runner.is_parallel());
        let serial = ExperimentRunner::builder()
            .with_matmul_cap(Some(64))
            .serial()
            .build()
            .unwrap();
        assert_eq!(serial.matmul_cap(), Some(64));
        assert!(!serial.is_parallel());
        assert!(matches!(
            ExperimentRunner::builder().with_matmul_cap(Some(0)).build(),
            Err(SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn builder_plumbs_speculation_settings() {
        let runner = ExperimentRunner::new();
        assert!(runner.is_speculative());
        let tuned = ExperimentRunner::builder()
            .with_speculation(false)
            .build()
            .unwrap();
        assert!(!tuned.is_speculative());
    }

    #[test]
    fn spec_expands_workload_major() {
        let (workloads, designs) = small_grid();
        let spec = ExperimentSpec {
            name: "test",
            workloads,
            designs,
            kernel: None,
        };
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        assert_eq!(spec.len(), 4);
        assert!(!spec.is_empty());
        assert_eq!(jobs[0].workload.name(), "DLRM-1");
        assert_eq!(jobs[0].design.name(), "BASELINE");
        assert_eq!(jobs[1].workload.name(), "DLRM-1");
        assert_eq!(jobs[1].design.name(), "RASA-DMDB-WLS");
        assert_eq!(jobs[2].workload.name(), "BERT-1");
    }

    #[test]
    fn grid_results_group_by_workload_in_design_order() {
        let (workloads, designs) = small_grid();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        let runs = runner.run_grid(&workloads, &designs).unwrap();
        assert_eq!(runs.len(), 2);
        for (run, layer) in runs.iter().zip(&workloads) {
            assert_eq!(run.workload, layer.name());
            assert_eq!(run.reports.len(), 2);
            assert_eq!(run.reports[0].design, "BASELINE");
            assert_eq!(run.reports[1].design, "RASA-DMDB-WLS");
            assert!(run.baseline().is_some());
        }
    }

    #[test]
    fn cache_memoizes_identical_cells() {
        let (workloads, designs) = small_grid();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        let first = runner.run_grid(&workloads, &designs).unwrap();
        let stats = runner.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 4);

        let second = runner.run_grid(&workloads, &designs).unwrap();
        let stats = runner.cache_stats();
        assert_eq!(stats.misses, 4, "second run must be fully cached");
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(first, second);

        runner.clear_cache();
        let stats = runner.cache_stats();
        assert_eq!(
            stats,
            CacheStats {
                capacity: DEFAULT_CACHE_CAPACITY,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn bounded_cache_evicts_lru_and_re_misses() {
        let suite = WorkloadSuite::mlperf();
        let a = suite.layer("DLRM-1").unwrap().clone();
        let b = suite.layer("DLRM-2").unwrap().clone();
        let c = suite.layer("BERT-1").unwrap().clone();
        let design = DesignPoint::baseline();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(64))
            .with_cache_capacity(2)
            .serial()
            .build()
            .unwrap();
        assert_eq!(runner.cache_capacity(), 2);

        // Fill the two slots, then overflow: `a` is LRU and must go.
        runner
            .run_job(&SimJob::new(design.clone(), a.clone()))
            .unwrap();
        runner
            .run_job(&SimJob::new(design.clone(), b.clone()))
            .unwrap();
        runner
            .run_job(&SimJob::new(design.clone(), c.clone()))
            .unwrap();
        let stats = runner.cache_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1, "third insert must evict the LRU cell");
        assert_eq!(stats.entries, 2, "capacity bound must be respected");
        assert_eq!(stats.capacity, 2);

        // `b` and `c` are resident (hits); `a` was evicted and re-misses.
        runner.run_job(&SimJob::new(design.clone(), b)).unwrap();
        runner.run_job(&SimJob::new(design.clone(), c)).unwrap();
        assert_eq!(runner.cache_stats().hits, 2);
        runner.run_job(&SimJob::new(design, a)).unwrap();
        let stats = runner.cache_stats();
        assert_eq!(stats.misses, 4, "evicted cell must be re-simulated");
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn cache_warm_start_round_trips_through_json() {
        let (workloads, designs) = small_grid();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        let first = runner.run_grid(&workloads, &designs).unwrap();
        assert_eq!(runner.cache_stats().misses, 4);

        // Dump through text (as `run_all --json` would persist it) and
        // warm-start a fresh runner with the same fidelity.
        let text = JsonValue::Object(vec![(
            "cache".into(),
            JsonValue::Object(vec![("cells".into(), runner.dump_cache_json())]),
        )])
        .to_string_pretty();
        let document = JsonValue::parse(&text).unwrap();

        let warmed = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        assert_eq!(warmed.warm_start_json(&document).unwrap(), 4);
        let stats = warmed.cache_stats();
        assert_eq!(stats.entries, 4);
        assert_eq!((stats.hits, stats.misses), (0, 0), "loading is not a hit");

        // The warmed runner answers the whole grid from the cache, with
        // results identical to the original simulation.
        let second = warmed.run_grid(&workloads, &designs).unwrap();
        let stats = warmed.cache_stats();
        assert_eq!(stats.misses, 0, "warm-started grid must be fully cached");
        assert_eq!(stats.hits, 4);
        assert_eq!(first, second);

        // The bare array form loads too, and insertions respect the LRU
        // capacity bound.
        let tiny = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .with_cache_capacity(2)
            .build()
            .unwrap();
        assert_eq!(tiny.warm_start_json(&runner.dump_cache_json()).unwrap(), 4);
        let stats = tiny.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn warm_start_rejects_malformed_documents() {
        let runner = ExperimentRunner::new();
        for text in [
            "{\"schema\":\"rasa-run-all/1\"}",
            "[{\"report\":{}}]",
            "[{\"key\":\"k\"}]",
            "[{\"key\":\"k\",\"report\":{\"design\":\"X\"}}]",
        ] {
            let document = JsonValue::parse(text).unwrap();
            assert!(
                matches!(
                    runner.warm_start_json(&document),
                    Err(SimError::Json { .. })
                ),
                "{text} must be rejected"
            );
        }
        // A mismatched-fidelity dump loads fine but never hits: the key
        // embeds the kernel, so a lookup under this runner's cap misses.
        let (workloads, designs) = small_grid();
        let other = ExperimentRunner::builder()
            .with_matmul_cap(Some(64))
            .build()
            .unwrap();
        other
            .run_job(&SimJob::new(designs[0].clone(), workloads[0].clone()))
            .unwrap();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        assert_eq!(runner.warm_start_json(&other.dump_cache_json()).unwrap(), 1);
        runner
            .run_job(&SimJob::new(designs[0].clone(), workloads[0].clone()))
            .unwrap();
        assert_eq!(runner.cache_stats().misses, 1, "different cap, no hit");
    }

    #[test]
    fn zero_cache_capacity_is_rejected() {
        assert!(matches!(
            ExperimentRunner::builder().with_cache_capacity(0).build(),
            Err(SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn cache_key_is_semantic_not_nominal() {
        // A re-batched layer at its native batch lowers to the same GEMM,
        // so it must hit the cached cell — relabelled with the new name.
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap().clone();
        let rebatched = layer.with_batch(layer.batch());
        assert_ne!(layer.name(), rebatched.name());
        assert_eq!(layer.gemm_shape(), rebatched.gemm_shape());

        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        let design = DesignPoint::baseline();
        let original = runner.run_job(&SimJob::new(design.clone(), layer)).unwrap();
        let relabelled = runner
            .run_job(&SimJob::new(design, rebatched.clone()))
            .unwrap();
        let stats = runner.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(relabelled.workload, rebatched.name());
        assert_eq!(relabelled.core_cycles, original.core_cycles);
        assert_eq!(relabelled.cpu, original.cpu);
    }

    #[test]
    fn parallel_and_serial_results_are_bit_identical() {
        let (workloads, designs) = small_grid();
        let parallel = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        let serial = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .serial()
            .build()
            .unwrap();
        let p = parallel.run_grid(&workloads, &designs).unwrap();
        let s = serial.run_grid(&workloads, &designs).unwrap();
        assert_eq!(p, s);
    }

    #[test]
    fn kernel_overrides_key_the_cache_separately() {
        use rasa_trace::{GemmKernelConfig, MatmulOrder};
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap().clone();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();

        let mut paired = GemmKernelConfig::amx_like().with_matmul_order(MatmulOrder::WeightPaired);
        paired.max_matmuls = Some(96);
        let mut interleaved =
            GemmKernelConfig::amx_like().with_matmul_order(MatmulOrder::Interleaved);
        interleaved.max_matmuls = Some(96);

        let design = DesignPoint::rasa_wlbp();
        let a = runner
            .run_job(&SimJob::new(design.clone(), layer.clone()).with_kernel(paired))
            .unwrap();
        let b = runner
            .run_job(&SimJob::new(design.clone(), layer.clone()).with_kernel(interleaved))
            .unwrap();
        assert_eq!(
            runner.cache_stats().misses,
            2,
            "distinct kernels, distinct cells"
        );
        // WLBP benefits from paired weight reuse, so the orders must differ.
        assert!(a.core_cycles < b.core_cycles);

        // The default kernel at the runner cap resolves to the same cell as
        // the explicit weight-paired kernel above (amx_like's default
        // order), so both lookups are cache hits.
        let mut default_kernel = GemmKernelConfig::amx_like();
        default_kernel.max_matmuls = Some(96);
        let c = runner
            .run_job(&SimJob::new(design.clone(), layer.clone()))
            .unwrap();
        let d = runner
            .run_job(&SimJob::new(design, layer).with_kernel(default_kernel))
            .unwrap();
        assert_eq!(runner.cache_stats().misses, 2);
        assert_eq!(runner.cache_stats().hits, 2);
        assert_eq!(c, a);
        assert_eq!(c, d);
    }

    #[test]
    fn empty_spec_is_rejected() {
        let runner = ExperimentRunner::new();
        let err = runner.run_grid(&[], &[DesignPoint::baseline()]);
        assert!(matches!(err, Err(SimError::InvalidExperiment { .. })));
    }
}
