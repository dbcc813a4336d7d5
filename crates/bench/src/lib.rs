//! # rasa-bench — the binaries regenerating every paper table and figure
//!
//! One experiment binary (`src/bin/*.rs`) per figure/table of the paper's
//! evaluation runs the corresponding [`rasa_sim::ExperimentSuite`]
//! experiment and prints a paper-style table together with the values the
//! paper reports, so the reproduction gap is visible at a glance. Run them
//! with, e.g. `cargo run --release -p rasa-bench --bin fig5_runtime`.
//! Beside them sit `run_all` (the whole evaluation), `design_search`, the
//! `serve_soak` harness and the `rasa-shardd` / `rasa-router` serving
//! daemons.
//!
//! The shared helpers here parse the binaries' command line against the
//! [`FLAGS`] registry and hold the paper's reference numbers. The
//! simulator's speed is measured by the separate `perfbench` package
//! registered in `BENCHMARK.json`, not by these binaries.

#![deny(missing_docs)]

use rasa_sim::search::{Evolutionary, ExhaustiveGrid, RandomSampling, SearchStrategy};
use rasa_sim::{ExperimentSuite, JsonValue, SimError};

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
    /// For `run_all` / `serve_soak`: write the JSON results document here.
    pub json_path: Option<String>,
    /// For `serve_soak`: number of concurrent closed-loop clients.
    pub clients: usize,
    /// For `serve_soak`: requests each client submits.
    pub requests_per_client: usize,
    /// For `serve_soak`: LRU bound on the shared memoization cache.
    pub cache_capacity: usize,
    /// For `serve_soak`: base seed of the deterministic traffic mix.
    pub seed: u64,
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
    /// For `rasa-router` / `serve_soak --distributed`: bound on the
    /// router's own result cache, probed before any shard is contacted
    /// (`--router-cache`; 0 disables it).
    pub router_cache: usize,
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
            json_path: None,
            clients: 8,
            requests_per_client: 32,
            cache_capacity: 1024,
            seed: 42,
            warm_start_path: None,
            timing_layer: "ResNet50-2".to_string(),
            timing_only: false,
            no_timing: false,
            speculation: true,
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
            router_cache: rasa_sim::net::DEFAULT_RESULT_CACHE_CAPACITY,
            shard_id: 0,
            help: false,
        }
    }
}

impl BinOptions {
    /// Parses `binary`'s command line against the [`FLAGS`] registry: every
    /// flag must be registered for `binary` (its `--help` table, see
    /// [`usage`]), and a flag with a value placeholder must be followed by
    /// a well-formed value (see [`FlagSpec::value`]). `--help` / `-h` sets
    /// [`BinOptions::help`] so the binary can print its flag table.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown flag, a missing value or
    /// a malformed value.
    pub fn parse(binary: &str, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn invalid(spec: &FlagSpec, value: &str) -> String {
            format!("{} {}: invalid value '{value}'", spec.flag, spec.value)
        }
        fn number<T: std::str::FromStr>(spec: &FlagSpec, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| invalid(spec, value))
        }
        let mut options = BinOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                options.help = true;
                continue;
            }
            let Some(spec) = FLAGS
                .iter()
                .find(|spec| spec.flag == arg && spec.binaries.contains(&binary))
            else {
                return Err(format!("unknown flag '{arg}'"));
            };
            let value = if spec.value.is_empty() {
                String::new()
            } else {
                match args.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => return Err(format!("{} {}: missing value", spec.flag, spec.value)),
                }
            };
            if spec.value.contains('|') && !spec.value.split('|').any(|choice| choice == value) {
                return Err(invalid(spec, &value));
            }
            match spec.flag {
                "--cap" => options.matmul_cap = Some(number(spec, &value)?),
                "--full" => options.matmul_cap = None,
                "--max-batch" => options.fig7_max_batch = number(spec, &value)?,
                "--json" => options.json_path = Some(value),
                "--clients" => options.clients = number(spec, &value)?,
                "--requests" => options.requests_per_client = number(spec, &value)?,
                "--cache-capacity" => options.cache_capacity = number(spec, &value)?,
                "--seed" => options.seed = number(spec, &value)?,
                "--warm-start" => options.warm_start_path = Some(value),
                "--speculation" => options.speculation = value == "on",
                "--layers" => options.layers = Some(value),
                "--timing-layer" => options.timing_layer = value,
                "--timing-only" => options.timing_only = true,
                "--no-timing" => options.no_timing = true,
                "--strategy" => options.strategy = value,
                "--population" => options.population = number(spec, &value)?,
                "--generations" => options.generations = number(spec, &value)?,
                "--samples" => options.samples = number(spec, &value)?,
                "--workload" => options.workload = value,
                "--kernel-axes" => options.kernel_axes = true,
                "--distributed" => options.distributed = true,
                "--shards" => options.shards = number(spec, &value)?,
                "--kill-worker" => options.kill_worker = true,
                "--listen" => options.listen = value,
                "--shard" => options.shard_addrs.push(value),
                "--router-cache" => options.router_cache = number(spec, &value)?,
                "--shard-id" => options.shard_id = number(spec, &value)?,
                other => unreachable!("FLAGS registers {other}, which parse does not handle"),
            }
        }
        Ok(options)
    }

    /// Parses the current process arguments for `binary`. With `--help` /
    /// `-h` it prints `binary`'s flag table (see [`usage`]) to stdout and
    /// exits with status 0; on a parse error it prints the error and the
    /// flag table to stderr and exits with status 2. Every binary of this
    /// crate starts with this.
    #[must_use]
    pub fn from_env_or_usage(binary: &str) -> Self {
        match BinOptions::parse(binary, std::env::args().skip(1)) {
            Ok(options) if options.help => {
                print!("{}", usage(binary));
                std::process::exit(0);
            }
            Ok(options) => options,
            Err(error) => {
                eprint!("{binary}: {error}\n\n{}", usage(binary));
                std::process::exit(2);
            }
        }
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
            .with_speculation(self.speculation)
            .with_layer_filter(self.layers.clone())
            .build()
    }
}

/// One command-line flag of the experiment binaries: its spelling, value
/// placeholder, one-line description and the binaries that honour it.
/// [`usage`] renders the per-binary `--help` table from this registry,
/// [`BinOptions::parse`] accepts exactly the flags it registers for a
/// binary, and the README's flag table is regenerated from the same
/// output, so the four can never drift apart independently.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The flag itself, e.g. `--cap`.
    pub flag: &'static str,
    /// The value placeholder (`"N"`, `"PATH"`, …); empty for bare flags.
    /// `N` takes a number and `a|b` exactly one of the alternatives.
    pub value: &'static str,
    /// One-line description shown in `--help`.
    pub description: &'static str,
    /// Names of the binaries that honour the flag.
    pub binaries: &'static [&'static str],
}

/// The binaries that run an [`ExperimentSuite`] and therefore honour the
/// shared simulation flags (`--cap`, `--full`, `--speculation`…).
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

/// Every flag of every binary in this crate.
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
        flag: "--cache-capacity",
        value: "N",
        description: "LRU bound on the memoization cell cache",
        binaries: &["serve_soak", "rasa-shardd"],
    },
    FlagSpec {
        flag: "--cap",
        value: "N",
        description: "default matmul cap per cell — must match across shards",
        binaries: &["serve_soak", "rasa-shardd"],
    },
    FlagSpec {
        flag: "--full",
        value: "",
        description: "remove the default matmul cap — must match across shards",
        binaries: &["serve_soak", "rasa-shardd"],
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
        flag: "--router-cache",
        value: "N",
        description: "LRU bound on the router-side result cache (0 disables it)",
        binaries: &["serve_soak", "rasa-router"],
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
    let mut out = format!("Usage: {binary} [FLAGS]\n\nFlags:\n");
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

/// The measured-vs-paper gap of `suite`'s evaluation, the document
/// `golden/paper_gap.json` pins at full fidelity (no matmul cap): under
/// `ratios`, measured / paper for every figure of
/// [`PAPER_FIG5_REDUCTIONS`], [`PAPER_AREA_OVERHEADS`] and
/// [`PAPER_ENERGY_EFFICIENCY`]; under `normalized_runtime`, every design's
/// runtime on every Table I layer, normalized to the baseline (Fig. 5).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn paper_gap(suite: &ExperimentSuite) -> Result<JsonValue, SimError> {
    let fig5 = suite.fig5_runtime()?;
    let table = suite.area_energy_from(&fig5);
    let object = |members: Vec<(String, JsonValue)>| JsonValue::Object(members);
    let ratios = |paper: &[(&str, f64)], measured: &dyn Fn(&str) -> Option<f64>| {
        object(
            paper
                .iter()
                .filter_map(|&(design, paper)| {
                    let ratio = measured(design)? / paper;
                    Some((design.to_string(), JsonValue::number_from_f64(ratio)))
                })
                .collect(),
        )
    };
    let row = |design: &str| table.row(design).cloned();
    let runtimes = fig5
        .designs
        .iter()
        .skip(1)
        .map(|design| {
            let layers = fig5
                .rows
                .iter()
                .filter_map(|row| {
                    let normalized = fig5.normalized(&row.workload, design)?;
                    Some((row.workload.clone(), JsonValue::number_from_f64(normalized)))
                })
                .collect();
            (design.clone(), object(layers))
        })
        .collect();
    let area = |d: &str| row(d).map(|r| r.area_overhead);
    let energy = |d: &str| row(d).map(|r| r.energy_efficiency);
    Ok(JsonValue::object([
        ("schema", JsonValue::string("rasa-paper-gap/1")),
        (
            "ratios",
            JsonValue::object([
                (
                    "fig5_reduction",
                    ratios(&PAPER_FIG5_REDUCTIONS, &|d| fig5.average_reduction(d)),
                ),
                ("area_overhead", ratios(&PAPER_AREA_OVERHEADS, &area)),
                (
                    "energy_efficiency",
                    ratios(&PAPER_ENERGY_EFFICIENCY, &energy),
                ),
            ]),
        ),
        ("normalized_runtime", object(runtimes)),
    ]))
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

    fn parse(binary: &str, args: &[&str]) -> Result<BinOptions, String> {
        BinOptions::parse(binary, args.iter().map(ToString::to_string))
    }

    #[test]
    fn default_options() {
        let o = BinOptions::default();
        assert_eq!(o.matmul_cap, Some(4096));
        assert_eq!(o.fig7_max_batch, 1024);
    }

    #[test]
    fn parse_cap_and_full() {
        let o = parse("run_all", &["--cap", "512"]).unwrap();
        assert_eq!(o.matmul_cap, Some(512));
        let o = parse("run_all", &["--full"]).unwrap();
        assert_eq!(o.matmul_cap, None);
        let o = parse("run_all", &["--max-batch", "64"]).unwrap();
        assert_eq!(o.fig7_max_batch, 64);
        // serve_soak forwards --full to the shards it spawns.
        let o = parse("serve_soak", &["--full"]).unwrap();
        assert_eq!(o.matmul_cap, None);
        // Malformed and missing values are errors, not the default cap.
        let error = parse("run_all", &["--cap", "abc"]).unwrap_err();
        assert!(error.contains("--cap") && error.contains("abc"), "{error}");
        assert!(parse("run_all", &["--cap"]).is_err());
        assert!(parse("run_all", &["--cap", "--full"]).is_err());
        assert!(parse("run_all", &["--json", "--no-timing"]).is_err());
        assert!(parse("serve_soak", &["--seed", "-1"]).is_err());
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        let error = parse("run_all", &["--max-batch", "64", "--junk"]).unwrap_err();
        assert!(error.contains("--junk"), "{error}");
        // A stale perf-document flag is an error, not a silent no-op.
        for binary in ["run_all", "design_search", "serve_soak"] {
            assert!(parse(binary, &["--bench", "out.json"]).is_err());
        }
        // A flag registered for another binary is unknown here.
        assert!(parse("fig5_runtime", &["--clients", "3"]).is_err());
        assert!(parse("rasa-router", &["--shard-id", "1"]).is_err());
        assert!(parse("serve_soak", &["--listen", "127.0.0.1:0"]).is_err());
    }

    #[test]
    fn every_registered_flag_parses_for_its_binaries() {
        // `N` gets a number, `a|b` its first alternative, and any other
        // placeholder (`PATH`, `NAME`, `ADDR`, …) its own text.
        for spec in FLAGS {
            let mut args = vec![spec.flag];
            match spec.value {
                "" => {}
                "N" => args.push("3"),
                choices => args.push(choices.split('|').next().unwrap()),
            }
            for binary in spec.binaries {
                let parsed = parse(binary, &args);
                assert!(parsed.is_ok(), "{binary} {args:?}: {parsed:?}");
            }
        }
    }

    #[test]
    fn parse_execution_flags() {
        // The retired execution flags are errors, not silent no-ops.
        for flag in ["serial", "no-serial-check"] {
            let flag = format!("--{flag}");
            for binary in SUITE_BINARIES {
                let error = parse(binary, &[&flag]).unwrap_err();
                assert!(error.contains(&flag), "{binary}: {error}");
            }
        }
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
            "--cache-capacity",
            "9",
            "--seed",
            "123",
        ];
        let o = parse("serve_soak", &args).unwrap();
        assert_eq!(o.json_path.as_deref(), Some("out.json"));
        assert_eq!(o.clients, 3);
        assert_eq!(o.requests_per_client, 7);
        assert_eq!(o.cache_capacity, 9);
        assert_eq!(o.seed, 123);
        // Defaults when absent.
        let o = parse("serve_soak", &[]).unwrap();
        assert_eq!(o.json_path, None);
        assert_eq!(o.clients, 8);
        assert_eq!(o.requests_per_client, 32);
        assert_eq!(o.cache_capacity, 1024);
        assert_eq!(o.seed, 42);
        assert_eq!(o.warm_start_path, None);
        assert_eq!(o.timing_layer, "ResNet50-2");
        assert!(!o.timing_only);
    }

    #[test]
    fn parse_backpressure_and_timing_flags() {
        // The router's workers are the tier's admission control: neither
        // the router nor the soak takes a window size or admission mode.
        for binary in ["rasa-router", "serve_soak", "rasa-shardd"] {
            assert!(parse(binary, &["--admission", "reject"]).is_err());
            assert!(parse(binary, &["--admission", "block"]).is_err());
            assert!(parse(binary, &["--inflight", "1"]).is_err());
        }
        let args = [
            "--warm-start",
            "prev.json",
            "--timing-layer",
            "DLRM-2",
            "--timing-only",
        ];
        let o = parse("run_all", &args).unwrap();
        assert_eq!(o.warm_start_path.as_deref(), Some("prev.json"));
        assert_eq!(o.timing_layer, "DLRM-2");
        assert!(o.timing_only);
        assert!(!o.no_timing);
        assert!(parse("run_all", &["--no-timing"]).unwrap().no_timing);
    }

    #[test]
    fn parse_streaming_flags() {
        // The streamed path's knobs: fast-forward and the layer filter.
        let o = parse("run_all", &[]).unwrap();
        assert_eq!(o.layers, None);
        assert!(o.suite().unwrap().runner().is_speculative());
        let o = parse("run_all", &["--speculation", "off", "--layers", "DLRM,9"]).unwrap();
        assert_eq!(o.layers.as_deref(), Some("DLRM,9"));
        let s = o.suite().unwrap();
        assert!(!s.runner().is_speculative());
        assert_eq!(s.layers().len(), 4);
    }

    #[test]
    fn parse_speculation_flags() {
        let o = parse("run_all", &[]).unwrap();
        assert!(o.speculation, "speculation is the default");
        let o = parse("run_all", &["--speculation", "off"]).unwrap();
        assert!(!o.speculation);
        let s = o.suite().unwrap();
        assert!(!s.runner().is_speculative());
        assert!(
            parse("run_all", &["--speculation", "on"])
                .unwrap()
                .speculation
        );
        // A typo is an error, not a silent "on".
        let error = parse("run_all", &["--speculation", "of"]).unwrap_err();
        assert!(
            error.contains("on|off") && error.contains("'of'"),
            "{error}"
        );
    }

    #[test]
    fn parse_search_flags_and_build_strategies() {
        let o = parse("design_search", &[]).unwrap();
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
        let o = parse("design_search", &args).unwrap();
        assert_eq!(o.strategy, "evolve");
        assert_eq!(o.population, 12);
        assert_eq!(o.generations, 4);
        assert_eq!(o.samples, 20);
        assert_eq!(o.workload, "BERT-1");
        assert!(o.kernel_axes);
        assert_eq!(o.search_strategy().unwrap().name(), "evolve");

        let o = parse("design_search", &["--strategy", "random"]).unwrap();
        assert_eq!(o.search_strategy().unwrap().name(), "random");
        assert!(parse("design_search", &["--strategy", "banana"]).is_err());
        let o = BinOptions {
            strategy: "banana".to_string(),
            ..BinOptions::default()
        };
        assert!(matches!(
            o.search_strategy(),
            Err(rasa_sim::SimError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn parse_distributed_flags() {
        let o = BinOptions::default();
        assert!(!o.distributed);
        assert_eq!(o.shards, 4);
        assert!(!o.kill_worker);
        assert_eq!(o.listen, "127.0.0.1:0");
        assert!(o.shard_addrs.is_empty());
        assert_eq!(o.shard_id, 0);
        assert!(!o.help);

        let args = ["--distributed", "--shards", "6", "--kill-worker"];
        let o = parse("serve_soak", &args).unwrap();
        assert!(o.distributed);
        assert_eq!(o.shards, 6);
        assert!(o.kill_worker);
        assert!(parse("serve_soak", &["--vnodes", "16"]).is_err());
        let args = [
            "--listen",
            "127.0.0.1:9000",
            "--shard",
            "127.0.0.1:9001",
            "--shard",
            "127.0.0.1:9002",
        ];
        let o = parse("rasa-router", &args).unwrap();
        assert_eq!(o.listen, "127.0.0.1:9000");
        assert_eq!(o.shard_addrs, vec!["127.0.0.1:9001", "127.0.0.1:9002"]);
        let o = parse("rasa-shardd", &["--shard-id", "3"]).unwrap();
        assert_eq!(o.shard_id, 3);
        assert!(parse("rasa-shardd", &["--help"]).unwrap().help);
        assert!(parse("fig1_toy", &["-h"]).unwrap().help);
    }

    #[test]
    fn usage_lists_only_the_binarys_flags() {
        let soak = usage("serve_soak");
        assert!(soak.contains("--distributed"));
        assert!(soak.contains("--kill-worker"));
        assert!(soak.contains("--clients"));
        assert!(!soak.contains("--listen"), "--listen is a daemon flag");
        assert!(soak.contains("--cap"), "the soak honours the matmul cap");
        assert!(soak.contains("--full"), "and forwards --full to the shards");
        assert!(
            !soak.contains("--vnodes"),
            "routing has no tuning parameter"
        );

        let shardd = usage("rasa-shardd");
        assert!(shardd.contains("--listen"));
        assert!(shardd.contains("--shard-id"));
        assert!(!shardd.contains("--distributed"));

        let router = usage("rasa-router");
        assert!(router.contains("--shard ADDR"));
        assert!(!router.contains("--shard-id"));
        // The router routes on the request alone: no shard configuration,
        // and its workers are its admission control.
        for flag in ["--cap", "--full", "--vnodes", "--inflight", "--admission"] {
            assert!(!router.contains(flag), "rasa-router lists {flag}");
        }
        let flags: Vec<&str> = router
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("--"))
            .map(|line| line.split([' ', ',']).next().unwrap())
            .collect();
        assert_eq!(flags, ["router-cache", "listen", "shard", "help"]);

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
    fn suite_reflects_options() {
        let o = BinOptions {
            matmul_cap: Some(64),
            fig7_max_batch: 32,
            ..BinOptions::default()
        };
        let s = o.suite().unwrap();
        assert_eq!(s.matmul_cap(), Some(64));
        assert_eq!(s.fig7_max_batch(), 32);
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
