//! # rasa-bench — benchmark harness regenerating every paper table and figure
//!
//! The crate has two faces:
//!
//! * **Experiment binaries** (`src/bin/*.rs`) — one per figure/table of the
//!   paper's evaluation. Each runs the corresponding
//!   [`rasa_sim::ExperimentSuite`] experiment and prints a paper-style table
//!   together with the values the paper reports, so the reproduction gap is
//!   visible at a glance. Run them with, e.g.
//!   `cargo run --release -p rasa-bench --bin fig5_runtime`.
//! * **Criterion benches** (`benches/*.rs`) — wall-clock benchmarks of the
//!   simulator itself (how long it takes to regenerate each experiment and
//!   how fast the matrix-engine scheduler is), run via `cargo bench`.
//!
//! The shared helpers here parse the tiny command-line interface of the
//! binaries and hold the paper's reference numbers.

#![deny(missing_docs)]

pub mod prof;

use rasa_sim::search::{Evolutionary, ExhaustiveGrid, RandomSampling, SearchStrategy};
use rasa_sim::serve::AdmissionControl;
use rasa_sim::ExperimentSuite;

/// The paper's reported average runtime reductions (Fig. 5), as fractions.
pub const PAPER_FIG5_REDUCTIONS: [(&str, f64); 5] = [
    ("RASA-PIPE", 0.157),
    ("RASA-WLBP", 0.309),
    ("RASA-DM-WLBP", 0.555),
    ("RASA-DB-WLS", 0.781),
    ("RASA-DMDB-WLS", 0.792),
];

/// The paper's reported area overheads over the baseline array.
pub const PAPER_AREA_OVERHEADS: [(&str, f64); 3] = [
    ("RASA-DB-WLS", 0.031),
    ("RASA-DM-WLBP", 0.026),
    ("RASA-DMDB-WLS", 0.055),
];

/// The paper's reported energy-efficiency improvements over the baseline.
pub const PAPER_ENERGY_EFFICIENCY: [(&str, f64); 3] = [
    ("RASA-DB-WLS", 4.38),
    ("RASA-DM-WLBP", 2.19),
    ("RASA-DMDB-WLS", 4.59),
];

/// The batch-size asymptote of Fig. 7 (16 / 95).
pub const PAPER_FIG7_ASYMPTOTE: f64 = 16.0 / 95.0;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinOptions {
    /// Cap on simulated `rasa_mm` instructions per workload/design pair
    /// (`None` = simulate every tile).
    pub matmul_cap: Option<usize>,
    /// Largest batch size for the Fig. 7 sweep.
    pub fig7_max_batch: usize,
    /// Run the experiment matrix on all cores (default) or serially.
    pub parallel: bool,
    /// For `run_all`: skip the serial re-run that cross-checks the parallel
    /// results and measures the speedup.
    pub skip_serial_check: bool,
    /// For `run_all` / `serve_soak`: write the JSON results document here.
    pub json_path: Option<String>,
    /// For `serve_soak`: number of concurrent closed-loop clients.
    pub clients: usize,
    /// For `serve_soak`: requests each client submits.
    pub requests_per_client: usize,
    /// For `serve_soak`: worker threads per design pool.
    pub workers_per_design: usize,
    /// For `serve_soak`: maximum requests coalesced into one batch.
    pub serve_max_batch: usize,
    /// For `serve_soak`: LRU bound on the shared memoization cache.
    pub cache_capacity: usize,
    /// For `serve_soak`: base seed of the deterministic traffic mix.
    pub seed: u64,
    /// For `serve_soak`: bound on queued requests per design pool.
    pub queue_capacity: usize,
    /// For `serve_soak`: what a full queue does to new submissions.
    pub admission: AdmissionControl,
    /// For `run_all`: warm-start the runner's cell cache from a previous
    /// `--json` results document before evaluating.
    pub warm_start_path: Option<String>,
    /// For `run_all`: the Table I layer used for the full-fidelity
    /// event-driven vs reference core timing comparison.
    pub timing_layer: String,
    /// For `run_all`: skip the evaluation and run only the timing
    /// comparison (the CI `--full` smoke step).
    pub timing_only: bool,
    /// For `run_all`: skip the timing comparison (repeat sweeps that do
    /// not need the full-fidelity reference re-run).
    pub no_timing: bool,
    /// Let cells fast-forward through their periodic steady state
    /// (`--speculation on`, the default) or feed every stride
    /// (`--speculation off`). Simulated statistics are bit-identical
    /// either way.
    pub speculation: bool,
    /// For `run_all` / `design_search` / `serve_soak`: write the
    /// machine-readable perf document (throughputs, speculation rates,
    /// serve latencies) here (`--bench PATH`).
    pub bench_path: Option<String>,
    /// For `run_all`: restrict the evaluation to the Table I layers
    /// matching this filter (comma-separated substrings or 1-based
    /// indices).
    pub layers: Option<String>,
    /// For `design_search`: the strategy to run (`grid`, `random` or
    /// `evolve`).
    pub strategy: String,
    /// For `design_search --strategy evolve`: individuals per generation.
    pub population: usize,
    /// For `design_search --strategy evolve`: breeding generations after
    /// the initial draw.
    pub generations: usize,
    /// For `design_search --strategy random`: number of seeded draws.
    pub samples: usize,
    /// For `design_search`: the Table I layer candidates are evaluated on.
    pub workload: String,
    /// For `design_search`: cross the hardware axes with the kernel axes
    /// (register-block shape, matmul order, loop order, unroll) and search
    /// the joint space (`--kernel-axes`).
    pub kernel_axes: bool,
    /// For `serve_soak`: drive a spawned router + worker-process tier over
    /// TCP instead of the in-process server (`--distributed`).
    pub distributed: bool,
    /// For `serve_soak --distributed`: number of worker processes.
    pub shards: usize,
    /// For `serve_soak --distributed`: kill one worker mid-run and prove
    /// zero lost requests (`--kill-worker`).
    pub kill_worker: bool,
    /// For `rasa-shardd` / `rasa-router`: the address to bind
    /// (`--listen`; port 0 picks an ephemeral port, the resolved address
    /// is printed on stdout).
    pub listen: String,
    /// For `rasa-router`: shard backend addresses in shard-id order
    /// (`--shard ADDR`, repeatable).
    pub shard_addrs: Vec<String>,
    /// For `rasa-router` / `serve_soak --distributed`: per-shard bound on
    /// in-flight requests (`--inflight`).
    pub inflight: usize,
    /// For `rasa-router` / `serve_soak --distributed`: virtual nodes per
    /// shard on the consistent-hash ring (`--vnodes`).
    pub vnodes: usize,
    /// For `rasa-router` / `serve_soak`: bound on the router's own result
    /// cache, probed before any shard is contacted (`--router-cache`;
    /// 0 disables it).
    pub router_cache: usize,
    /// For `serve_soak`: percentage of each run's requests treated as
    /// cache/pool warmup and excluded from the steady-state throughput
    /// metric (`--warmup PCT`).
    pub warmup_percent: usize,
    /// For `rasa-shardd`: this worker's shard id (`--shard-id`).
    pub shard_id: u32,
    /// `--help` / `-h` was given: print the binary's flag table and exit.
    pub help: bool,
}

impl Default for BinOptions {
    fn default() -> Self {
        BinOptions {
            matmul_cap: Some(4096),
            fig7_max_batch: 1024,
            parallel: true,
            skip_serial_check: false,
            json_path: None,
            clients: 8,
            requests_per_client: 32,
            workers_per_design: 2,
            serve_max_batch: 8,
            cache_capacity: 1024,
            seed: 42,
            queue_capacity: rasa_sim::DEFAULT_QUEUE_CAPACITY,
            admission: AdmissionControl::default(),
            warm_start_path: None,
            timing_layer: "ResNet50-2".to_string(),
            timing_only: false,
            no_timing: false,
            speculation: true,
            bench_path: None,
            layers: None,
            strategy: "grid".to_string(),
            population: 16,
            generations: 8,
            samples: 48,
            workload: "DLRM-2".to_string(),
            kernel_axes: false,
            distributed: false,
            shards: 4,
            kill_worker: false,
            listen: "127.0.0.1:0".to_string(),
            shard_addrs: Vec::new(),
            inflight: 32,
            vnodes: 64,
            router_cache: rasa_sim::net::DEFAULT_RESULT_CACHE_CAPACITY,
            warmup_percent: 20,
            shard_id: 0,
            help: false,
        }
    }
}

impl BinOptions {
    /// Parses the binaries' tiny CLI: `--cap N`, `--full` (no cap),
    /// `--max-batch N`, `--serial` (single-threaded execution),
    /// `--no-serial-check` (skip `run_all`'s serial cross-check),
    /// `--json PATH` (write the JSON results document),
    /// `--speculation on|off` (steady-state fast-forward) and
    /// `--layers FILTER` (comma-separated
    /// substrings or 1-based Table I indices), `--bench PATH` (write the
    /// machine-readable perf document), the `run_all` knobs
    /// `--warm-start PATH`, `--timing-layer NAME` and `--timing-only`, and
    /// the `serve_soak` knobs `--clients N`, `--requests N`, `--workers N`,
    /// `--batch N`, `--cache-capacity N`, `--queue-capacity N`,
    /// `--admission block|reject` and `--seed N`, and the `design_search`
    /// knobs `--strategy grid|random|evolve`, `--population N`,
    /// `--generations N`, `--samples N`, `--workload NAME` and
    /// `--kernel-axes` (joint hardware × kernel search), the
    /// distributed-serving knobs `--distributed`, `--shards N`,
    /// `--kill-worker`, `--inflight N`, `--vnodes N`, `--router-cache N`
    /// and `--warmup PCT`, and the
    /// `rasa-shardd` / `rasa-router` knobs `--listen ADDR`,
    /// `--shard ADDR` (repeatable) and `--shard-id N`. `--help` / `-h`
    /// sets [`BinOptions::help`] so a binary can print its flag table (see
    /// [`usage`]). Unknown arguments are ignored so the binaries can be
    /// run under criterion or other wrappers.
    #[must_use]
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        fn numeric<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> Option<T> {
            args.next().and_then(|v| v.parse().ok())
        }
        let mut options = BinOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--cap" => {
                    if let Some(value) = numeric(&mut args) {
                        options.matmul_cap = Some(value);
                    }
                }
                "--full" => options.matmul_cap = None,
                "--max-batch" => {
                    if let Some(value) = numeric(&mut args) {
                        options.fig7_max_batch = value;
                    }
                }
                "--serial" => options.parallel = false,
                "--no-serial-check" => options.skip_serial_check = true,
                "--json" => options.json_path = args.next(),
                "--clients" => {
                    if let Some(value) = numeric(&mut args) {
                        options.clients = value;
                    }
                }
                "--requests" => {
                    if let Some(value) = numeric(&mut args) {
                        options.requests_per_client = value;
                    }
                }
                "--workers" => {
                    if let Some(value) = numeric(&mut args) {
                        options.workers_per_design = value;
                    }
                }
                "--batch" => {
                    if let Some(value) = numeric(&mut args) {
                        options.serve_max_batch = value;
                    }
                }
                "--cache-capacity" => {
                    if let Some(value) = numeric(&mut args) {
                        options.cache_capacity = value;
                    }
                }
                "--seed" => {
                    if let Some(value) = numeric(&mut args) {
                        options.seed = value;
                    }
                }
                "--queue-capacity" => {
                    if let Some(value) = numeric(&mut args) {
                        options.queue_capacity = value;
                    }
                }
                "--admission" => match args.next().as_deref() {
                    Some("reject") => options.admission = AdmissionControl::Reject,
                    Some("block") => options.admission = AdmissionControl::Block,
                    _ => {}
                },
                "--warm-start" => options.warm_start_path = args.next(),
                "--speculation" => match args.next().as_deref() {
                    Some("on") => options.speculation = true,
                    Some("off") => options.speculation = false,
                    _ => {}
                },
                "--bench" => options.bench_path = args.next(),
                "--layers" => options.layers = args.next(),
                "--timing-layer" => {
                    if let Some(value) = args.next() {
                        options.timing_layer = value;
                    }
                }
                "--timing-only" => options.timing_only = true,
                "--no-timing" => options.no_timing = true,
                "--strategy" => {
                    if let Some(value) = args.next() {
                        options.strategy = value;
                    }
                }
                "--population" => {
                    if let Some(value) = numeric(&mut args) {
                        options.population = value;
                    }
                }
                "--generations" => {
                    if let Some(value) = numeric(&mut args) {
                        options.generations = value;
                    }
                }
                "--samples" => {
                    if let Some(value) = numeric(&mut args) {
                        options.samples = value;
                    }
                }
                "--workload" => {
                    if let Some(value) = args.next() {
                        options.workload = value;
                    }
                }
                "--kernel-axes" => options.kernel_axes = true,
                "--distributed" => options.distributed = true,
                "--shards" => {
                    if let Some(value) = numeric(&mut args) {
                        options.shards = value;
                    }
                }
                "--kill-worker" => options.kill_worker = true,
                "--listen" => {
                    if let Some(value) = args.next() {
                        options.listen = value;
                    }
                }
                "--shard" => {
                    if let Some(value) = args.next() {
                        options.shard_addrs.push(value);
                    }
                }
                "--inflight" => {
                    if let Some(value) = numeric(&mut args) {
                        options.inflight = value;
                    }
                }
                "--vnodes" => {
                    if let Some(value) = numeric(&mut args) {
                        options.vnodes = value;
                    }
                }
                "--router-cache" => {
                    if let Some(value) = numeric(&mut args) {
                        options.router_cache = value;
                    }
                }
                "--warmup" => {
                    if let Some(value) = numeric(&mut args) {
                        options.warmup_percent = value;
                    }
                }
                "--shard-id" => {
                    if let Some(value) = numeric(&mut args) {
                        options.shard_id = value;
                    }
                }
                "--help" | "-h" => options.help = true,
                _ => {}
            }
        }
        options
    }

    /// Parses the current process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        BinOptions::parse(std::env::args().skip(1))
    }

    /// Parses the current process arguments and, when `--help` / `-h` was
    /// given, prints `binary`'s flag table (see [`usage`]) to stdout and
    /// exits with status 0. Every experiment binary starts with this.
    #[must_use]
    pub fn from_env_or_usage(binary: &str) -> Self {
        let options = BinOptions::from_env();
        if options.help {
            print!("{}", usage(binary));
            std::process::exit(0);
        }
        options
    }

    /// Builds the boxed [`SearchStrategy`] these options select for the
    /// `design_search` binary: `--strategy grid` (the default), `random`
    /// (`--samples`, `--seed`) or `evolve` (`--population`,
    /// `--generations`, `--seed`).
    ///
    /// # Errors
    ///
    /// Returns [`rasa_sim::SimError::InvalidExperiment`] for an unknown
    /// strategy name.
    pub fn search_strategy(&self) -> Result<Box<dyn SearchStrategy>, rasa_sim::SimError> {
        match self.strategy.as_str() {
            "grid" => Ok(Box::new(ExhaustiveGrid)),
            "random" => Ok(Box::new(RandomSampling::new(self.samples, self.seed))),
            "evolve" => Ok(Box::new(Evolutionary::new(
                self.population,
                self.generations,
                self.seed,
            ))),
            other => Err(rasa_sim::SimError::InvalidExperiment {
                reason: format!("unknown search strategy '{other}' (grid|random|evolve)"),
            }),
        }
    }

    /// Builds the experiment suite these options describe.
    ///
    /// # Errors
    ///
    /// Returns [`rasa_sim::SimError::InvalidExperiment`] for unusable
    /// options (e.g. `--cap 0`), so the binaries report a clean error
    /// instead of panicking.
    pub fn suite(&self) -> Result<ExperimentSuite, rasa_sim::SimError> {
        ExperimentSuite::builder()
            .with_matmul_cap(self.matmul_cap)
            .with_fig7_max_batch(self.fig7_max_batch)
            .with_parallel(self.parallel)
            .with_speculation(self.speculation)
            .with_layer_filter(self.layers.clone())
            .build()
    }
}

/// One command-line flag of the experiment binaries: its spelling, value
/// placeholder, one-line description and the binaries that honour it.
/// [`usage`] renders the per-binary `--help` table from this registry, and
/// the README's flag table is regenerated from the same output, so the
/// three can never drift apart independently.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The flag itself, e.g. `--cap`.
    pub flag: &'static str,
    /// The value placeholder (`"N"`, `"PATH"`, …); empty for bare flags.
    pub value: &'static str,
    /// One-line description shown in `--help`.
    pub description: &'static str,
    /// Names of the binaries that honour the flag.
    pub binaries: &'static [&'static str],
}

/// The binaries that run an [`ExperimentSuite`] and therefore honour the
/// shared simulation flags (`--cap`, `--serial`, `--speculation`…).
pub const SUITE_BINARIES: &[&str] = &[
    "fig1_toy",
    "fig2_utilization",
    "fig5_runtime",
    "fig6_ppa",
    "fig7_batch",
    "table_area_energy",
    "ablation_blocking",
    "ablation_cpu",
    "run_all",
    "design_search",
];

/// Every flag of every experiment binary (except `bench_check`, which has
/// its own three-flag CLI documented in its `--help`).
pub const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        flag: "--cap",
        value: "N",
        description: "cap simulated rasa_mm instructions per cell (default 4096)",
        binaries: SUITE_BINARIES,
    },
    FlagSpec {
        flag: "--full",
        value: "",
        description: "remove the matmul cap (simulate every tile)",
        binaries: SUITE_BINARIES,
    },
    FlagSpec {
        flag: "--serial",
        value: "",
        description: "run the experiment matrix single-threaded",
        binaries: SUITE_BINARIES,
    },
    FlagSpec {
        flag: "--speculation",
        value: "on|off",
        description: "fast-forward through the periodic steady state (default on)",
        binaries: SUITE_BINARIES,
    },
    FlagSpec {
        flag: "--layers",
        value: "FILTER",
        description: "restrict Table I layers (comma-separated substrings or 1-based indices)",
        binaries: SUITE_BINARIES,
    },
    FlagSpec {
        flag: "--max-batch",
        value: "N",
        description: "largest batch size of the Fig. 7 sweep",
        binaries: &["fig7_batch", "run_all"],
    },
    FlagSpec {
        flag: "--no-serial-check",
        value: "",
        description: "skip the serial re-run that cross-checks the parallel results",
        binaries: &["run_all"],
    },
    FlagSpec {
        flag: "--warm-start",
        value: "PATH",
        description: "pre-load the cell cache from a previous --json document",
        binaries: &["run_all"],
    },
    FlagSpec {
        flag: "--timing-layer",
        value: "NAME",
        description: "Table I layer for the event-driven vs reference timing comparison",
        binaries: &["run_all"],
    },
    FlagSpec {
        flag: "--timing-only",
        value: "",
        description: "run only the timing comparison, skip the evaluation",
        binaries: &["run_all"],
    },
    FlagSpec {
        flag: "--no-timing",
        value: "",
        description: "skip the timing comparison",
        binaries: &["run_all"],
    },
    FlagSpec {
        flag: "--json",
        value: "PATH",
        description: "write the machine-readable results document",
        binaries: &["run_all", "design_search", "serve_soak"],
    },
    FlagSpec {
        flag: "--bench",
        value: "PATH",
        description: "write/update the machine-readable perf document",
        binaries: &["run_all", "design_search", "serve_soak"],
    },
    FlagSpec {
        flag: "--seed",
        value: "N",
        description: "base seed of the deterministic traffic / sampling",
        binaries: &["design_search", "serve_soak"],
    },
    FlagSpec {
        flag: "--strategy",
        value: "grid|random|evolve",
        description: "design-space search strategy",
        binaries: &["design_search"],
    },
    FlagSpec {
        flag: "--population",
        value: "N",
        description: "individuals per generation (--strategy evolve)",
        binaries: &["design_search"],
    },
    FlagSpec {
        flag: "--generations",
        value: "N",
        description: "breeding generations (--strategy evolve)",
        binaries: &["design_search"],
    },
    FlagSpec {
        flag: "--samples",
        value: "N",
        description: "seeded draws (--strategy random)",
        binaries: &["design_search"],
    },
    FlagSpec {
        flag: "--workload",
        value: "NAME",
        description: "Table I layer candidates are evaluated on",
        binaries: &["design_search"],
    },
    FlagSpec {
        flag: "--kernel-axes",
        value: "",
        description: "search the joint hardware x kernel space",
        binaries: &["design_search"],
    },
    FlagSpec {
        flag: "--clients",
        value: "N",
        description: "concurrent closed-loop clients",
        binaries: &["serve_soak"],
    },
    FlagSpec {
        flag: "--requests",
        value: "N",
        description: "requests each client submits",
        binaries: &["serve_soak"],
    },
    FlagSpec {
        flag: "--workers",
        value: "N",
        description: "worker threads per design pool",
        binaries: &["serve_soak", "rasa-shardd"],
    },
    FlagSpec {
        flag: "--batch",
        value: "N",
        description: "maximum requests coalesced into one batch",
        binaries: &["serve_soak", "rasa-shardd"],
    },
    FlagSpec {
        flag: "--cache-capacity",
        value: "N",
        description: "LRU bound on the memoization cell cache",
        binaries: &["serve_soak", "rasa-shardd"],
    },
    FlagSpec {
        flag: "--queue-capacity",
        value: "N",
        description: "bound on queued requests per design pool",
        binaries: &["serve_soak", "rasa-shardd"],
    },
    FlagSpec {
        flag: "--admission",
        value: "block|reject",
        description: "behaviour when a queue or in-flight window is full",
        binaries: &["serve_soak", "rasa-shardd", "rasa-router"],
    },
    FlagSpec {
        flag: "--cap",
        value: "N",
        description: "matmul cap per cell — must match across router and shards",
        binaries: &["serve_soak", "rasa-shardd", "rasa-router"],
    },
    FlagSpec {
        flag: "--full",
        value: "",
        description: "remove the matmul cap — must match across router and shards",
        binaries: &["rasa-shardd", "rasa-router"],
    },
    FlagSpec {
        flag: "--distributed",
        value: "",
        description: "spawn a router + worker-process tier and drive it over TCP",
        binaries: &["serve_soak"],
    },
    FlagSpec {
        flag: "--shards",
        value: "N",
        description: "worker processes in --distributed mode (default 4)",
        binaries: &["serve_soak"],
    },
    FlagSpec {
        flag: "--kill-worker",
        value: "",
        description: "kill one worker mid-run and prove zero lost requests",
        binaries: &["serve_soak"],
    },
    FlagSpec {
        flag: "--inflight",
        value: "N",
        description: "per-shard bound on in-flight requests at the router",
        binaries: &["serve_soak", "rasa-router"],
    },
    FlagSpec {
        flag: "--vnodes",
        value: "N",
        description: "virtual nodes per shard on the consistent-hash ring",
        binaries: &["serve_soak", "rasa-router"],
    },
    FlagSpec {
        flag: "--router-cache",
        value: "N",
        description: "LRU bound on the router-side result cache (0 disables it)",
        binaries: &["serve_soak", "rasa-router"],
    },
    FlagSpec {
        flag: "--warmup",
        value: "PCT",
        description: "percent of requests excluded from steady-state throughput (default 20)",
        binaries: &["serve_soak"],
    },
    FlagSpec {
        flag: "--listen",
        value: "ADDR",
        description: "bind address (port 0 = ephemeral; resolved address printed on stdout)",
        binaries: &["rasa-shardd", "rasa-router"],
    },
    FlagSpec {
        flag: "--shard",
        value: "ADDR",
        description: "shard backend address in shard-id order (repeatable)",
        binaries: &["rasa-router"],
    },
    FlagSpec {
        flag: "--shard-id",
        value: "N",
        description: "this worker's shard id, echoed in responses and health frames",
        binaries: &["rasa-shardd"],
    },
];

/// Renders `binary`'s `--help` text from the [`FLAGS`] registry.
#[must_use]
pub fn usage(binary: &str) -> String {
    let mut out = format!("Usage: {binary} [FLAGS]\n\nFlags (unknown arguments are ignored):\n");
    for spec in FLAGS {
        if !spec.binaries.contains(&binary) {
            continue;
        }
        let mut left = spec.flag.to_string();
        if !spec.value.is_empty() {
            left.push(' ');
            left.push_str(spec.value);
        }
        out.push_str(&format!("  {left:<26} {}\n", spec.description));
    }
    out.push_str("  --help, -h                 print this flag table and exit\n");
    out
}

/// Serializes `document` (pretty, trailing newline), proves the bytes
/// reload to the identical file (parse + re-serialize must be
/// byte-identical — the CI regression harness depends on this), and writes
/// them to `path`.
///
/// # Errors
///
/// Returns parse errors from the self-check and I/O errors from the write.
pub fn write_verified_json(
    path: &str,
    document: &rasa_sim::JsonValue,
) -> Result<(), Box<dyn std::error::Error>> {
    let text = document.to_string_pretty();
    let reloaded = rasa_sim::JsonValue::parse(&text)?;
    let round_tripped = reloaded.to_string_pretty();
    if round_tripped != text {
        return Err(format!(
            "JSON round-trip drifted for {path}: {} bytes reserialized to {} bytes",
            text.len(),
            round_tripped.len()
        )
        .into());
    }
    std::fs::write(path, &text)?;
    Ok(())
}

/// Reads a results file back into a document.
///
/// # Errors
///
/// Returns I/O errors and JSON parse errors.
pub fn read_json(path: &str) -> Result<rasa_sim::JsonValue, Box<dyn std::error::Error>> {
    Ok(rasa_sim::JsonValue::parse(&std::fs::read_to_string(path)?)?)
}

/// Replaces (or inserts) the `section` member of the machine-readable perf
/// document at `path` and writes it back, creating the document if absent.
///
/// Each binary owns one section (`"run_all"`, `"design_search"`,
/// `"serve_soak"`), so a perf-trajectory point like `BENCH_6.json` is
/// assembled by running the binaries in sequence with the same `--bench`
/// path. Unlike the golden results documents, the perf document records
/// wall-clock observations: it is machine-dependent by design and compared
/// only within a noise band (see the `bench_check` binary).
///
/// # Errors
///
/// Returns I/O errors, JSON parse errors, and an error when the existing
/// file is not a JSON object.
pub fn update_bench_section(
    path: &str,
    section: &str,
    value: rasa_sim::JsonValue,
) -> Result<(), Box<dyn std::error::Error>> {
    use rasa_sim::JsonValue;
    let mut members = match std::fs::read_to_string(path) {
        Ok(text) => match JsonValue::parse(&text)? {
            JsonValue::Object(members) => members,
            _ => return Err(format!("perf document {path} is not a JSON object").into()),
        },
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            vec![("schema".into(), JsonValue::string("rasa-bench/1"))]
        }
        Err(error) => return Err(error.into()),
    };
    match members.iter_mut().find(|(name, _)| name == section) {
        Some((_, existing)) => *existing = value,
        None => members.push((section.to_string(), value)),
    }
    write_verified_json(path, &JsonValue::Object(members))
}

/// Formats a `measured vs paper` comparison line used by the binaries.
#[must_use]
pub fn compare_line(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!(
        "  {label:<16} measured {measured:>8.3}{unit}   paper {paper:>8.3}{unit}   ratio {:.2}",
        if paper.abs() > f64::EPSILON {
            measured / paper
        } else {
            f64::NAN
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = BinOptions::default();
        assert_eq!(o.matmul_cap, Some(4096));
        assert_eq!(o.fig7_max_batch, 1024);
        assert!(o.parallel);
        assert!(!o.skip_serial_check);
    }

    #[test]
    fn parse_cap_and_full() {
        let o = BinOptions::parse(["--cap".to_string(), "512".to_string()]);
        assert_eq!(o.matmul_cap, Some(512));
        let o = BinOptions::parse(["--full".to_string()]);
        assert_eq!(o.matmul_cap, None);
        let o = BinOptions::parse([
            "--max-batch".to_string(),
            "64".to_string(),
            "--junk".to_string(),
        ]);
        assert_eq!(o.fig7_max_batch, 64);
        // Malformed values fall back to the default.
        let o = BinOptions::parse(["--cap".to_string(), "notanumber".to_string()]);
        assert_eq!(o.matmul_cap, Some(4096));
    }

    #[test]
    fn parse_execution_flags() {
        let o = BinOptions::parse(["--serial".to_string()]);
        assert!(!o.parallel);
        let o = BinOptions::parse(["--no-serial-check".to_string()]);
        assert!(o.skip_serial_check);
        assert!(o.parallel);
    }

    #[test]
    fn parse_serving_flags() {
        let args = [
            "--json",
            "out.json",
            "--clients",
            "3",
            "--requests",
            "7",
            "--workers",
            "2",
            "--batch",
            "16",
            "--cache-capacity",
            "9",
            "--seed",
            "123",
        ];
        let o = BinOptions::parse(args.iter().map(ToString::to_string));
        assert_eq!(o.json_path.as_deref(), Some("out.json"));
        assert_eq!(o.clients, 3);
        assert_eq!(o.requests_per_client, 7);
        assert_eq!(o.workers_per_design, 2);
        assert_eq!(o.serve_max_batch, 16);
        assert_eq!(o.cache_capacity, 9);
        assert_eq!(o.seed, 123);
        // Defaults when absent.
        let o = BinOptions::parse(std::iter::empty());
        assert_eq!(o.json_path, None);
        assert_eq!(o.clients, 8);
        assert_eq!(o.requests_per_client, 32);
        assert_eq!(o.workers_per_design, 2);
        assert_eq!(o.serve_max_batch, 8);
        assert_eq!(o.cache_capacity, 1024);
        assert_eq!(o.seed, 42);
        assert_eq!(o.queue_capacity, rasa_sim::DEFAULT_QUEUE_CAPACITY);
        assert_eq!(o.admission, AdmissionControl::Block);
        assert_eq!(o.warm_start_path, None);
        assert_eq!(o.timing_layer, "ResNet50-2");
        assert!(!o.timing_only);
    }

    #[test]
    fn parse_backpressure_and_timing_flags() {
        let args = [
            "--queue-capacity",
            "5",
            "--admission",
            "reject",
            "--warm-start",
            "prev.json",
            "--timing-layer",
            "DLRM-2",
            "--timing-only",
        ];
        let o = BinOptions::parse(args.iter().map(ToString::to_string));
        assert_eq!(o.queue_capacity, 5);
        assert_eq!(o.admission, AdmissionControl::Reject);
        assert_eq!(o.warm_start_path.as_deref(), Some("prev.json"));
        assert_eq!(o.timing_layer, "DLRM-2");
        assert!(o.timing_only);
        assert!(!o.no_timing);
        assert!(BinOptions::parse(["--no-timing".to_string()]).no_timing);
        // Unknown admission values keep the default.
        let o = BinOptions::parse(["--admission".to_string(), "banana".to_string()]);
        assert_eq!(o.admission, AdmissionControl::Block);
    }

    #[test]
    fn parse_streaming_flags() {
        // The streamed path's knobs: fast-forward and the layer filter.
        let o = BinOptions::parse(std::iter::empty());
        assert_eq!(o.layers, None);
        assert!(o.suite().unwrap().runner().is_speculative());
        let args = ["--speculation", "off", "--layers", "DLRM,9"];
        let o = BinOptions::parse(args.iter().map(ToString::to_string));
        assert_eq!(o.layers.as_deref(), Some("DLRM,9"));
        let s = o.suite().unwrap();
        assert!(!s.runner().is_speculative());
        assert_eq!(s.layers().len(), 4);
    }

    #[test]
    fn parse_speculation_flags() {
        let o = BinOptions::parse(std::iter::empty());
        assert!(o.speculation, "speculation is the default");
        assert_eq!(o.bench_path, None);
        let args = ["--speculation", "off", "--bench", "b.json"];
        let o = BinOptions::parse(args.iter().map(ToString::to_string));
        assert!(!o.speculation);
        assert_eq!(o.bench_path.as_deref(), Some("b.json"));
        let s = o.suite().unwrap();
        assert!(!s.runner().is_speculative());
        // Unknown values keep the default.
        let o = BinOptions::parse(["--speculation".to_string(), "banana".to_string()]);
        assert!(o.speculation);
    }

    #[test]
    fn parse_search_flags_and_build_strategies() {
        let o = BinOptions::parse(std::iter::empty());
        assert_eq!(o.strategy, "grid");
        assert_eq!(o.population, 16);
        assert_eq!(o.generations, 8);
        assert_eq!(o.samples, 48);
        assert_eq!(o.workload, "DLRM-2");
        assert!(!o.kernel_axes, "hardware-only search is the default");
        assert_eq!(o.search_strategy().unwrap().name(), "grid");

        let args = [
            "--strategy",
            "evolve",
            "--population",
            "12",
            "--generations",
            "4",
            "--samples",
            "20",
            "--workload",
            "BERT-1",
            "--seed",
            "7",
            "--kernel-axes",
        ];
        let o = BinOptions::parse(args.iter().map(ToString::to_string));
        assert_eq!(o.strategy, "evolve");
        assert_eq!(o.population, 12);
        assert_eq!(o.generations, 4);
        assert_eq!(o.samples, 20);
        assert_eq!(o.workload, "BERT-1");
        assert!(o.kernel_axes);
        assert_eq!(o.search_strategy().unwrap().name(), "evolve");

        let o = BinOptions::parse(["--strategy".to_string(), "random".to_string()]);
        assert_eq!(o.search_strategy().unwrap().name(), "random");
        let o = BinOptions::parse(["--strategy".to_string(), "banana".to_string()]);
        assert!(matches!(
            o.search_strategy(),
            Err(rasa_sim::SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn parse_distributed_flags() {
        let o = BinOptions::parse(std::iter::empty());
        assert!(!o.distributed);
        assert_eq!(o.shards, 4);
        assert!(!o.kill_worker);
        assert_eq!(o.listen, "127.0.0.1:0");
        assert!(o.shard_addrs.is_empty());
        assert_eq!(o.inflight, 32);
        assert_eq!(o.vnodes, 64);
        assert_eq!(o.shard_id, 0);
        assert!(!o.help);

        let args = [
            "--distributed",
            "--shards",
            "6",
            "--kill-worker",
            "--listen",
            "127.0.0.1:9000",
            "--shard",
            "127.0.0.1:9001",
            "--shard",
            "127.0.0.1:9002",
            "--inflight",
            "8",
            "--vnodes",
            "16",
            "--shard-id",
            "3",
        ];
        let o = BinOptions::parse(args.iter().map(ToString::to_string));
        assert!(o.distributed);
        assert_eq!(o.shards, 6);
        assert!(o.kill_worker);
        assert_eq!(o.listen, "127.0.0.1:9000");
        assert_eq!(o.shard_addrs, vec!["127.0.0.1:9001", "127.0.0.1:9002"]);
        assert_eq!(o.inflight, 8);
        assert_eq!(o.vnodes, 16);
        assert_eq!(o.shard_id, 3);
        assert!(BinOptions::parse(["--help".to_string()]).help);
        assert!(BinOptions::parse(["-h".to_string()]).help);
    }

    #[test]
    fn usage_lists_only_the_binarys_flags() {
        let soak = usage("serve_soak");
        assert!(soak.contains("--distributed"));
        assert!(soak.contains("--kill-worker"));
        assert!(soak.contains("--clients"));
        assert!(!soak.contains("--listen"), "--listen is a daemon flag");
        assert!(soak.contains("--cap"), "the soak honours the matmul cap");

        let shardd = usage("rasa-shardd");
        assert!(shardd.contains("--listen"));
        assert!(shardd.contains("--shard-id"));
        assert!(!shardd.contains("--distributed"));

        let router = usage("rasa-router");
        assert!(router.contains("--shard ADDR"));
        assert!(router.contains("--vnodes"));
        assert!(!router.contains("--shard-id"));

        let fig5 = usage("fig5_runtime");
        assert!(fig5.contains("--cap"));
        assert!(fig5.contains("--speculation"));
        assert!(!fig5.contains("--clients"));
        // Every usage ends with the --help line itself.
        for text in [&soak, &shardd, &router, &fig5] {
            assert!(text.contains("--help, -h"));
        }
    }

    #[test]
    fn every_flag_spec_names_a_real_binary() {
        let known: Vec<&str> = SUITE_BINARIES
            .iter()
            .copied()
            .chain(["serve_soak", "rasa-shardd", "rasa-router"])
            .collect();
        for spec in FLAGS {
            assert!(!spec.binaries.is_empty(), "{} has no binaries", spec.flag);
            for binary in spec.binaries {
                assert!(known.contains(binary), "{}: unknown {binary}", spec.flag);
            }
            assert!(spec.flag.starts_with("--"));
            assert!(!spec.description.is_empty());
        }
    }

    #[test]
    fn verified_json_write_and_read() {
        use rasa_sim::JsonValue;
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::string("smoke")),
            ("value".into(), JsonValue::number_from_f64(0.25)),
        ]);
        let path = std::env::temp_dir().join("rasa_bench_verified_json_test.json");
        let path = path.to_str().unwrap();
        write_verified_json(path, &doc).unwrap();
        let reloaded = read_json(path).unwrap();
        assert_eq!(reloaded, doc);
        // The on-disk bytes re-serialize identically.
        let bytes = std::fs::read_to_string(path).unwrap();
        assert_eq!(reloaded.to_string_pretty(), bytes);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_sections_accumulate_and_replace() {
        use rasa_sim::JsonValue;
        let path = std::env::temp_dir().join("rasa_bench_sections_test.json");
        let path = path.to_str().unwrap();
        std::fs::remove_file(path).ok();
        update_bench_section(path, "run_all", JsonValue::number_from_u64(1)).unwrap();
        update_bench_section(path, "serve_soak", JsonValue::number_from_u64(2)).unwrap();
        update_bench_section(path, "run_all", JsonValue::number_from_u64(3)).unwrap();
        let doc = read_json(path).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("rasa-bench/1")
        );
        assert_eq!(doc.get("run_all").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("serve_soak").and_then(JsonValue::as_u64), Some(2));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn suite_reflects_options() {
        let o = BinOptions {
            matmul_cap: Some(64),
            fig7_max_batch: 32,
            parallel: false,
            skip_serial_check: false,
            ..BinOptions::default()
        };
        let s = o.suite().unwrap();
        assert_eq!(s.matmul_cap(), Some(64));
        assert_eq!(s.fig7_max_batch(), 32);
        assert!(!s.runner().is_parallel());
    }

    #[test]
    fn paper_constants_are_sane() {
        assert_eq!(PAPER_FIG5_REDUCTIONS.len(), 5);
        assert!(PAPER_FIG5_REDUCTIONS
            .iter()
            .all(|(_, r)| *r > 0.0 && *r < 1.0));
        assert!(PAPER_ENERGY_EFFICIENCY.iter().all(|(_, e)| *e > 1.0));
        assert!((PAPER_FIG7_ASYMPTOTE - 0.168).abs() < 1e-3);
    }

    #[test]
    fn compare_line_formats() {
        let line = compare_line("RASA-WLBP", 0.35, 0.309, "");
        assert!(line.contains("RASA-WLBP"));
        assert!(line.contains("paper"));
    }
}
