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
//! * **Memoization** — each cell result is cached under a key derived from
//!   the complete (design, workload, kernel) configuration, so a cell is
//!   simulated at most once per runner, however many experiments need it.
//!   Below the cells, the runner keeps one [`Simulator`] per machine
//!   (design and resolved kernel), whose memo of simulated transitions lets
//!   a new cell that repeats known work be recalled instead of simulated.
//! * **Declarative specs** — an [`ExperimentSpec`] names a workload set, a
//!   design set and an optional kernel override; the runner expands the
//!   cross product and returns one [`WorkloadRun`] per workload. Experiment
//!   modules reduce to spec + post-processing.
//!
//! Runners are built with the [`ExperimentRunnerBuilder`]
//! (`ExperimentRunner::builder()`), mirroring the typed config-builder
//! idiom of kubecl's `TilingScheme`.

use crate::cache::{InsertOutcome, SharedLru};
use crate::json::{FromJson, JsonValue, ToJson};
use crate::key::{CellKey, MachineKey};
use crate::prof::{self, Stage};
use crate::simulator::DEFAULT_MATMUL_CAP;
use crate::{DesignPoint, SimError, SimReport, Simulator, WorkloadRun};
use rasa_cpu::MemoStats;
use rasa_trace::GemmKernelConfig;
use rasa_workloads::LayerSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on the number of memoized cells a runner keeps resident.
///
/// The paper matrices need well under a hundred cells; the bound only
/// matters under serving traffic, where distinct shapes churn through the
/// cache and the LRU policy keeps the hot set resident.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Machines (design and resolved kernel) a runner keeps; the oldest goes
/// first. The paper evaluation runs eight.
const MACHINES: usize = 16;

/// One machine — a design under a resolved kernel — as a runner keeps it:
/// the simulator that owns its memo of transitions, and the text its
/// cells' keys share.
#[derive(Debug, Clone)]
struct Machine {
    sim: Arc<Simulator>,
    key: Arc<MachineKey>,
}

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
        self.cell().resolved_kernel(default_matmul_cap)
    }

    /// The job as the runner runs it.
    fn cell(&self) -> Cell<'_> {
        Cell {
            design: &self.design,
            workload: &self.workload,
            kernel: self.kernel,
        }
    }

    /// The semantic identity of this job's simulation cell under a given
    /// default matmul cap: design + lowered GEMM shape + resolved kernel.
    ///
    /// This is the key [`ExperimentRunner`] memoizes under, computable
    /// without a runner. (The network router routes on the design name
    /// and lowered shape instead — see
    /// [`WireRequest::route_key`](crate::net::WireRequest::route_key).)
    ///
    /// The kernel half of the key is the kernel's `Debug` rendering, which
    /// covers every scheme axis (two kernels differing only in register
    /// block, loop order or scalar model render differently)
    /// while default-scheme kernels keep the pre-scheme legacy text, so
    /// pinned golden cache dumps stay byte-stable.
    #[must_use]
    pub fn semantic_key(&self, default_matmul_cap: Option<usize>) -> String {
        self.cell().semantic_key(default_matmul_cap)
    }

    /// The interned form of [`semantic_key`](Self::semantic_key): the same
    /// bytes, rendered and hashed exactly once. This is what the runner
    /// memoizes under — one rendering per cell probe.
    #[must_use]
    pub fn cell_key(&self, default_matmul_cap: Option<usize>) -> CellKey {
        CellKey::new(self.semantic_key(default_matmul_cap))
    }
}

/// One cell as the runner runs it: a job's design and workload, borrowed
/// from the job or from a spec's matrix, and its kernel override.
#[derive(Clone, Copy)]
struct Cell<'a> {
    design: &'a DesignPoint,
    workload: &'a LayerSpec,
    kernel: Option<GemmKernelConfig>,
}

impl Cell<'_> {
    /// See [`SimJob::resolved_kernel`].
    fn resolved_kernel(&self, default_matmul_cap: Option<usize>) -> GemmKernelConfig {
        self.kernel.unwrap_or_else(|| GemmKernelConfig {
            max_matmuls: default_matmul_cap,
            ..GemmKernelConfig::default()
        })
    }

    /// See [`SimJob::semantic_key`].
    fn semantic_key(&self, default_matmul_cap: Option<usize>) -> String {
        let kernel = self.resolved_kernel(default_matmul_cap);
        format!(
            "{:?}|{:?}|{kernel:?}",
            self.design,
            self.workload.gemm_shape()
        )
    }
}

/// A declarative experiment: the (workload × design) matrix to simulate and
/// an optional kernel override shared by every cell.
///
/// Experiment modules build one of these and hand it to
/// [`ExperimentRunner::run_spec`]; the runner owns iteration order and
/// caching, so the modules keep no loops of their own.
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

/// Memoizing executor for (workload × design) simulation matrices. See the
/// [crate docs](crate) for the motivation.
///
/// A runner runs a batch's cells one after another on the calling thread,
/// so one evaluation's cache and memo use is the same on every run. The
/// runner is `Sync`: a shard's follower threads call
/// [`run_job`](Self::run_job) concurrently on one shared runner, and all of
/// them share the cell cache. Two threads racing on the same uncached cell
/// may both simulate it; the simulation is deterministic, so either result
/// is valid and the duplicate work is bounded by one cell.
#[derive(Debug)]
pub struct ExperimentRunner {
    matmul_cap: Option<usize>,
    speculation: bool,
    cache: SharedLru<CellKey, Arc<SimReport>>,
    /// The machines the runner has run, oldest first.
    machines: Mutex<Vec<Machine>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ExperimentRunner {
    /// A runner with the default matmul cap.
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

    /// Whether cells may fast-forward through their periodic steady state
    /// (default). Fast-forward never changes a simulated statistic; it
    /// only saves wall-clock time.
    #[must_use]
    pub const fn is_speculative(&self) -> bool {
        self.speculation
    }

    /// The machines. A panic while they were held is recovered as it
    /// stands: a push or a removal cannot leave the list half updated.
    fn machines(&self) -> MutexGuard<'_, Vec<Machine>> {
        self.machines.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The machine of `cell`'s design and resolved kernel, built on first
    /// use.
    fn machine(&self, cell: Cell<'_>) -> Result<Machine, SimError> {
        let (design, kernel) = (cell.design, cell.resolved_kernel(self.matmul_cap));
        let mut machines = self.machines();
        if let Some(machine) = machines
            .iter()
            .find(|machine| *machine.sim.kernel() == kernel && machine.sim.design() == design)
        {
            return Ok(machine.clone());
        }
        let sim = Simulator::new(design.clone())?
            .with_kernel(kernel)?
            .with_speculation(self.speculation);
        let machine = Machine {
            sim: Arc::new(sim),
            key: Arc::new(MachineKey::new(
                format!("{design:?}|"),
                format!("|{kernel:?}"),
            )),
        };
        if machines.len() == MACHINES {
            machines.remove(0);
        }
        machines.push(machine.clone());
        Ok(machine)
    }

    /// The memos of the machines the runner holds: how many machines,
    /// and the memos' summed [`MemoStats`].
    #[must_use]
    pub fn memo_stats(&self) -> (usize, MemoStats) {
        let machines = self.machines();
        let total = machines
            .iter()
            .map(|machine| machine.sim.memo_stats())
            .sum();
        (machines.len(), total)
    }

    /// Cache effectiveness counters since construction (or the last
    /// [`clear_cache`](Self::clear_cache)).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock();
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
        self.cache.lock().capacity()
    }

    /// Drops every cached cell and resets the hit/miss/eviction counters.
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Serializes the resident memoization cache as a JSON node: an array
    /// of `{"key", "report"}` objects sorted by key (so the document does
    /// not depend on the order the cells were run or warm-started in).
    ///
    /// The `run_all` binary embeds this under `"cache": {"cells": ...}` in
    /// its `--json` results document; a later run can hand that document to
    /// [`warm_start_json`](Self::warm_start_json) to start with a hot
    /// cache.
    #[must_use]
    pub fn dump_cache_json(&self) -> JsonValue {
        let cache = self.cache.lock();
        // Keys serialize as their text, so the document is byte-identical
        // to the pre-interning encoding.
        let mut cells: Vec<(String, JsonValue)> = cache
            .keys_by_recency()
            .into_iter()
            .map(|key| {
                let report = cache.peek(&key).expect("listed key is resident");
                (key.to_string(), report.to_json())
            })
            .collect();
        drop(cache);
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        JsonValue::Array(
            cells
                .into_iter()
                .map(|(key, report)| {
                    JsonValue::object([("key", key.to_json()), ("report", report)])
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
    /// Fast-forward on/off is deliberately *not* part of the key — the
    /// simulated statistics are bit-identical either way. A warmed cell
    /// therefore keeps the [`crate::PipelineStats`] diagnostics of the
    /// execution that originally produced it, which may describe a
    /// different fast-forward setting than this runner's; every
    /// architectural metric is exact.
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
                .insert(CellKey::new(key), Arc::new(report));
            if matches!(outcome, InsertOutcome::Evicted(..)) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            loaded += 1;
        }
        Ok(loaded)
    }

    /// The semantic cache key of a job's simulation cell.
    ///
    /// Simulated cycle counts depend only on the design, the lowered GEMM
    /// shape and the kernel — not on the workload's display name — so the
    /// key is semantic: a re-batched `DLRM-1@b512` hits the cell `DLRM-1`
    /// already simulated at its native batch of 512. The derived Debug
    /// output covers every configuration field (floats print with
    /// round-trip precision), so the key is a complete identity of the
    /// cell. The serving layer memoizes requests under this same key, so
    /// equal-shape requests share one simulation.
    ///
    /// The key comes back interned ([`CellKey`]): rendered and hashed
    /// once, reusable for cache probes and ring placement without
    /// re-hashing. It equals [`SimJob::cell_key`] under the runner's cap,
    /// but shares its design and kernel text with every cell of its
    /// machine.
    #[must_use]
    pub fn job_key(&self, job: &SimJob) -> CellKey {
        let cell = job.cell();
        self.machine_key(cell, &self.machine(cell))
    }

    /// The key of `cell` on `machine`, the machine its design and resolved
    /// kernel name (or a whole key when it has none: an invalid kernel).
    fn machine_key(&self, cell: Cell<'_>, machine: &Result<Machine, SimError>) -> CellKey {
        match machine {
            Ok(machine) => CellKey::cell(&machine.key, cell.workload.gemm_shape()),
            Err(_) => CellKey::new(cell.semantic_key(self.matmul_cap)),
        }
    }

    /// Runs (or recalls) one cell. A cache hit is restamped with the
    /// workload name this job asked for.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the underlying [`Simulator`].
    pub fn run_job(&self, job: &SimJob) -> Result<Arc<SimReport>, SimError> {
        self.run_cell(job.cell())
    }

    /// [`run_job`](Self::run_job) on a borrowed cell.
    fn run_cell(&self, cell: Cell<'_>) -> Result<Arc<SimReport>, SimError> {
        let machine = self.machine(cell);
        let key = self.machine_key(cell, &machine);
        {
            let probe = prof::time(Stage::CacheProbe);
            let hit = self.cache.lock().get(&key).map(Arc::clone);
            drop(probe);
            if let Some(report) = hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Same numbers, possibly a different label: restamp the
                // workload name the caller asked for.
                return Ok(if report.workload == cell.workload.name() {
                    report
                } else {
                    let mut relabelled = (*report).clone();
                    relabelled.workload = cell.workload.name().to_string();
                    Arc::new(relabelled)
                });
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let simulate = prof::time(Stage::Simulate);
        let report = Arc::new(machine?.sim.run_layer(cell.workload)?);
        drop(simulate);
        let outcome = self.cache.lock().insert(key, Arc::clone(&report));
        if matches!(outcome, InsertOutcome::Evicted(..)) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Runs a batch of cells in job order and returns their reports.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error in job order.
    pub fn run_jobs(&self, jobs: &[SimJob]) -> Result<Vec<Arc<SimReport>>, SimError> {
        jobs.iter().map(|job| self.run_job(job)).collect()
    }

    /// Runs the full (workload × design) matrix of a spec and groups the
    /// reports into one [`WorkloadRun`] per workload (designs in spec
    /// order). The cells run in [`ExperimentSpec::jobs`] order, straight
    /// from the spec's workloads and designs.
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
        spec.workloads
            .iter()
            .map(|workload| {
                let reports = spec
                    .designs
                    .iter()
                    .map(|design| {
                        self.run_cell(Cell {
                            design,
                            workload,
                            kernel: spec.kernel,
                        })
                    })
                    .collect::<Result<_, _>>()?;
                Ok(WorkloadRun {
                    workload: workload.name().to_string(),
                    reports,
                })
            })
            .collect()
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

    /// Enables (default) or disables steady-state fast-forward.
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
        Ok(ExperimentRunner {
            matmul_cap,
            speculation: self.speculation.unwrap_or(true),
            cache: SharedLru::new(cache_capacity),
            machines: Mutex::new(Vec::new()),
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
        let capped = ExperimentRunner::builder()
            .with_matmul_cap(Some(64))
            .build()
            .unwrap();
        assert_eq!(capped.matmul_cap(), Some(64));
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
        // The document carries no execution diagnostics, so warmed cells
        // hold the defaults.
        for report in second.iter().flat_map(|run| &run.reports) {
            assert_eq!(report.sched, rasa_cpu::SchedStats::default());
            assert_eq!(report.pipeline, crate::PipelineStats::default());
        }
        assert!(first[0].reports[0].pipeline.streamed);

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
    fn job_keys_are_the_jobs_cell_keys() {
        // A runner's key shares its machine's text, yet it is the job's
        // own key: same text, same hash, equal either way round.
        let (workloads, designs) = small_grid();
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(Some(96))
            .build()
            .unwrap();
        for layer in &workloads {
            for design in &designs {
                let job = SimJob::new(design.clone(), layer.clone());
                let (key, whole) = (runner.job_key(&job), job.cell_key(Some(96)));
                assert_eq!(key.text(), job.semantic_key(Some(96)));
                assert_eq!(key.hash64(), whole.hash64());
                assert_eq!(key, whole);
                assert_eq!(whole, key);
            }
        }
        assert_eq!(runner.memo_stats().0, 2, "one machine per design");
    }

    #[test]
    fn shape_text_is_the_shapes_debug_text() {
        for (m, k, n) in [
            (0, 0, 0),
            (1, 9, 10),
            (512, 1024, 1024),
            (401_604, 64, 99),
            (usize::MAX, usize::MAX, usize::MAX),
        ] {
            let shape = rasa_numeric::GemmShape::new(m, k, n);
            let text = crate::key::ShapeText::new(shape);
            assert_eq!(text.as_str(), format!("{shape:?}"));
        }
    }

    #[test]
    fn every_paper_designs_keys_are_its_whole_keys() {
        // A runner hashes its cells' keys on from their machine's design
        // state: for each paper design under the default kernel, capped or
        // not, the key is the whole key's text and hash, equal either way.
        let layers = [
            WorkloadSuite::mlperf().layer("BERT-1").unwrap().clone(),
            LayerSpec::fc("ragged", 7, 1000, 33),
        ];
        for cap in [Some(4096), Some(256), None] {
            let runner = ExperimentRunner::builder()
                .with_matmul_cap(cap)
                .build()
                .unwrap();
            for design in DesignPoint::paper_designs() {
                for layer in &layers {
                    let job = SimJob::new(design.clone(), layer.clone());
                    let (key, whole) = (runner.job_key(&job), CellKey::new(job.semantic_key(cap)));
                    assert_eq!(key.text(), whole.text());
                    assert_eq!(key.hash64(), whole.hash64(), "{whole}");
                    assert_eq!(key, whole);
                    assert_eq!(whole, key);
                }
            }
            assert_eq!(runner.memo_stats().0, 8, "one machine per design");
        }
    }

    #[test]
    fn the_oldest_machine_goes_first() {
        // One design under one more kernel cap than the runner keeps
        // machines: the first machine is dropped with its memo, so the
        // runner holds exactly the memos of the last `MACHINES` kernels,
        // and a new cell on the first kernel starts a fresh memo.
        let design = DesignPoint::rasa_dmdb_wls();
        let kernel = |cap: usize| GemmKernelConfig::amx_like().with_max_matmuls(cap);
        let job = |cap: usize, layer: &LayerSpec| {
            SimJob::new(design.clone(), layer.clone()).with_kernel(kernel(cap))
        };
        // What a fresh simulator of `cap`'s machine reports, and holds in
        // its memo, after running `layer`.
        let fresh = |cap: usize, layer: &LayerSpec| {
            let sim = Simulator::new(design.clone())
                .unwrap()
                .with_kernel(kernel(cap))
                .unwrap();
            let report = sim.run_layer(layer).unwrap();
            (report, sim.memo_stats())
        };
        let small = LayerSpec::fc("small", 64, 64, 64);
        let runner = ExperimentRunner::new();
        let caps = 1..=MACHINES + 1;
        for cap in caps.clone() {
            runner.run_job(&job(cap, &small)).unwrap();
        }
        let held: MemoStats = caps.clone().skip(1).map(|cap| fresh(cap, &small).1).sum();
        assert_eq!(runner.memo_stats(), (MACHINES, held));

        let other = LayerSpec::fc("other", 96, 64, 64);
        let report = runner.run_job(&job(1, &other)).unwrap();
        let (expected, memo) = fresh(1, &other);
        assert_eq!(*report, expected);
        assert_eq!(
            (report.sched, report.pipeline),
            (expected.sched, expected.pipeline)
        );
        let held: MemoStats = caps
            .skip(2)
            .map(|cap| fresh(cap, &small).1)
            .chain([memo])
            .sum();
        assert_eq!(runner.memo_stats(), (MACHINES, held));
    }

    /// Uncapped small-batch cells, three per machine, so later cells of a
    /// machine recall what earlier ones simulated.
    fn recalling_jobs() -> Vec<SimJob> {
        let suite = WorkloadSuite::mlperf();
        let layers =
            ["BERT-1", "BERT-2", "DLRM-2"].map(|name| suite.layer(name).unwrap().with_batch(4));
        let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
        designs
            .iter()
            .flat_map(|design| {
                layers
                    .iter()
                    .map(|layer| SimJob::new(design.clone(), layer.clone()))
            })
            .collect()
    }

    fn uncapped_runner() -> ExperimentRunner {
        ExperimentRunner::builder()
            .with_matmul_cap(None)
            .build()
            .unwrap()
    }

    #[test]
    fn concurrent_callers_get_a_single_callers_reports() {
        // Shard followers call `run_job` on one shared runner at once; each
        // of them must get what one caller gets from a fresh runner,
        // diagnostics included. Callers start every step together, and
        // their rotations put two cells of one machine in each step.
        const CALLERS: usize = 3;
        let jobs = recalling_jobs();
        let single = uncapped_runner().run_jobs(&jobs).unwrap();
        let shared = uncapped_runner();
        let step = std::sync::Barrier::new(CALLERS);
        let answers: Vec<Vec<(usize, Arc<SimReport>)>> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|caller| {
                    let (shared, jobs, step) = (&shared, &jobs, &step);
                    scope.spawn(move || {
                        (0..jobs.len())
                            .map(|i| (i + caller * 2) % jobs.len())
                            .map(|i| {
                                step.wait();
                                (i, shared.run_job(&jobs[i]).unwrap())
                            })
                            .collect()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|caller| caller.join().unwrap())
                .collect()
        });
        for (i, report) in answers.iter().flatten() {
            let expected = &single[*i];
            assert_eq!(**report, **expected, "{}", jobs[*i].workload.name());
            assert_eq!(
                (report.sched, report.pipeline),
                (expected.sched, expected.pipeline)
            );
        }
        assert_eq!(answers.iter().flatten().count(), CALLERS * jobs.len());
    }

    #[test]
    fn memo_use_is_the_same_on_every_run() {
        // A batch runs its cells in order, so which cells a machine's memo
        // recalls, and what the cache counts, never depends on timing:
        // each machine simulates its first cell and recalls the other two.
        let jobs = recalling_jobs();
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let runner = uncapped_runner();
                runner.run_jobs(&jobs).unwrap();
                (runner.memo_stats(), runner.cache_stats())
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let ((machines, memo), cache) = runs[0];
        assert_eq!(machines, 2);
        assert_eq!((memo.recalls, memo.misses, memo.midway_misses), (4, 2, 0));
        assert_eq!((cache.hits, cache.misses), (0, 6));
    }

    #[test]
    fn warm_start_accepts_documents_written_with_diagnostics() {
        // A cache document from before the diagnostics left the JSON:
        // one cell whose report carries `sched` and `pipeline`.
        use crate::json::tests::{legacy_report_without_diagnostics, LEGACY_DLRM2_REPORT};
        let runner = || {
            ExperimentRunner::builder()
                .with_matmul_cap(Some(256))
                .build()
                .unwrap()
        };
        let layer = WorkloadSuite::mlperf().layer("DLRM-2").unwrap().clone();
        let job = SimJob::new(DesignPoint::baseline(), layer);
        let warmed = runner();
        let cell = |report: &str| {
            format!(
                "{{\"cache\":{{\"cells\":[{{\"key\":{},\"report\":{report}}}]}}}}",
                JsonValue::string(warmed.job_key(&job).to_string())
            )
        };
        let legacy = JsonValue::parse(&cell(LEGACY_DLRM2_REPORT)).unwrap();
        assert_eq!(warmed.warm_start_json(&legacy).unwrap(), 1);
        let report = warmed.run_job(&job).unwrap();
        assert_eq!(warmed.cache_stats().hits, 1, "answered from the document");
        let cold = runner();
        assert_eq!(*report, *cold.run_job(&job).unwrap());
        // Dumped again, the cell is what a cold runner writes.
        let stripped = JsonValue::parse(&cell(&legacy_report_without_diagnostics())).unwrap();
        let dumped = warmed.dump_cache_json().to_string_compact();
        assert_eq!(dumped, cold.dump_cache_json().to_string_compact());
        assert_eq!(
            dumped,
            stripped
                .get("cache")
                .unwrap()
                .get("cells")
                .unwrap()
                .to_string_compact()
        );
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
    fn poisoned_locks_leave_jobs_correct() {
        // A panic while the cell cache or the machine list is held must
        // not fail every later job: the cache is cleared and used again,
        // the list used as it stands, and every answer is a fresh
        // runner's.
        use crate::cache::panic_holding;
        let (workloads, designs) = small_grid();
        let runner = || {
            ExperimentRunner::builder()
                .with_matmul_cap(Some(96))
                .build()
                .unwrap()
        };
        let job = |i: usize| SimJob::new(designs[i % 2].clone(), workloads[i / 2].clone());
        let (poisoned, fresh) = (runner(), runner());
        for i in 0..2 {
            assert_eq!(
                *poisoned.run_job(&job(i)).unwrap(),
                *fresh.run_job(&job(i)).unwrap()
            );
        }
        panic_holding(|| poisoned.cache.lock());
        assert_eq!(
            *poisoned.run_job(&job(0)).unwrap(),
            *fresh.run_job(&job(0)).unwrap()
        );
        let stats = poisoned.cache_stats();
        assert_eq!(
            (stats.misses, stats.entries),
            (3, 1),
            "the cleared cache re-simulated"
        );
        panic_holding(|| poisoned.machines.lock());
        assert_eq!(
            *poisoned.run_job(&job(3)).unwrap(),
            *fresh.run_job(&job(3)).unwrap()
        );
        assert_eq!(poisoned.memo_stats().0, 2, "one simulator per design");
    }

    #[test]
    fn one_simulator_serves_every_cell_of_a_machine() {
        // Cells of one design and kernel share a simulator, so a cell that
        // repeats known transitions is recalled: its report, diagnostics
        // included, is what a fresh simulator computes.
        let suite = WorkloadSuite::mlperf();
        let runner = uncapped_runner();
        let design = DesignPoint::rasa_dmdb_wls();
        for (i, name) in ["BERT-1", "BERT-2", "BERT-3", "DLRM-2"].iter().enumerate() {
            let layer = suite.layer(name).unwrap().with_batch(4);
            let report = runner
                .run_job(&SimJob::new(design.clone(), layer.clone()))
                .unwrap();
            let fresh = Simulator::new(design.clone())
                .unwrap()
                .with_matmul_cap(None)
                .unwrap()
                .run_layer(&layer)
                .unwrap();
            assert_eq!(*report, fresh, "{name}");
            assert_eq!(
                (report.sched, report.pipeline),
                (fresh.sched, fresh.pipeline)
            );
            let (machines, memo) = runner.memo_stats();
            assert_eq!(machines, 1);
            assert!(memo.states > 0, "{name}: the memo records after cell {i}");
        }
        let other = SimJob::new(
            DesignPoint::baseline(),
            suite.layer("BERT-1").unwrap().clone(),
        );
        runner.run_job(&other).unwrap();
        assert_eq!(runner.memo_stats().0, 2, "a second design, a second memo");
        let off = ExperimentRunner::builder()
            .with_speculation(false)
            .build()
            .unwrap();
        off.run_job(&other).unwrap();
        let (machines, memo) = off.memo_stats();
        assert_eq!(
            (machines, memo.states, memo.transitions),
            (1, 0, 0),
            "off touches no memo"
        );
    }

    #[test]
    fn empty_spec_is_rejected() {
        let runner = ExperimentRunner::new();
        let err = runner.run_grid(&[], &[DesignPoint::baseline()]);
        assert!(matches!(err, Err(SimError::InvalidExperiment { .. })));
    }
}
