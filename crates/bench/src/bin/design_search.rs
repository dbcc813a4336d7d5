//! Automated design-space search over `SystolicConfig` parameters.
//!
//! Explores the [`rasa_sim::search`] explorer space (every PE variant ×
//! control scheme crossed with paper/wide/tall geometries and shallow/deep
//! in-flight windows) on one Table I workload, with one of three seeded
//! strategies:
//!
//! * `--strategy grid` — exhaustive evaluation of every valid candidate;
//! * `--strategy random --samples N --seed S` — seeded uniform sampling;
//! * `--strategy evolve --population N --generations G --seed S` — seeded
//!   evolutionary loop (tournament selection + per-axis mutation).
//!
//! `--kernel-axes` additionally crosses every hardware point with the
//! kernel-scheme axes (register-block shape, matmul order, loop order,
//! unroll) that survive the cost-model pre-filter, searching the joint
//! hardware × kernel space.
//!
//! Candidates are evaluated through the memoizing `ExperimentRunner`, so
//! revisited genotypes are cell-cache hits. The run is fully deterministic
//! for a fixed seed: `--json PATH` writes a byte-stable document (same
//! seed ⇒ identical bytes — the property the CI golden diff enforces),
//! excluding every execution-dependent observation.

use rasa_sim::search::{DesignSearch, SearchSpace};
use rasa_sim::{ExperimentRunner, JsonValue, ToJson};
use rasa_workloads::WorkloadSuite;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("design_search");
    let suite = WorkloadSuite::mlperf();
    let Some(layer) = suite.layer(&options.workload) else {
        return Err(format!(
            "unknown --workload '{}' (expected a Table I layer name)",
            options.workload
        )
        .into());
    };
    let strategy = options.search_strategy()?;
    let runner = ExperimentRunner::builder()
        .with_matmul_cap(options.matmul_cap)
        .with_speculation(options.speculation)
        .build()?;
    let space = if options.kernel_axes {
        SearchSpace::explorer_joint()
    } else {
        SearchSpace::explorer()
    };
    println!(
        "searching {space} on {} ({}, cap {:?}, seed {})",
        layer.name(),
        strategy.name(),
        options.matmul_cap,
        options.seed
    );

    let start = Instant::now();
    let search = DesignSearch::new(&runner, space, layer.clone());
    let outcome = search.run(strategy.as_ref())?;
    let elapsed = start.elapsed().as_secs_f64();

    println!("{outcome}");
    let stats = runner.cache_stats();
    println!(
        "search in {elapsed:.2} s; {} cells simulated, {} served from cache ({:.0}% hit rate)",
        stats.misses,
        stats.hits,
        stats.hit_rate() * 100.0,
    );

    if let Some(path) = &options.json_path {
        // Only configuration-determined data enters the document (the wall
        // clock and cache counters above stay out), so a repeated run with
        // the same seed rewrites identical bytes.
        let mut option_members = vec![
            ("strategy".into(), JsonValue::string(&options.strategy)),
            ("workload".into(), JsonValue::string(&options.workload)),
            ("seed".into(), JsonValue::number_from_u64(options.seed)),
            (
                "population".into(),
                JsonValue::number_from_usize(options.population),
            ),
            (
                "generations".into(),
                JsonValue::number_from_usize(options.generations),
            ),
            (
                "samples".into(),
                JsonValue::number_from_usize(options.samples),
            ),
            (
                "matmul_cap".into(),
                options
                    .matmul_cap
                    .map_or(JsonValue::Null, JsonValue::number_from_usize),
            ),
        ];
        if options.kernel_axes {
            // Gated so the default hardware-only document — and the pinned
            // golden/search.json — keeps its exact bytes.
            option_members.push(("kernel_axes".into(), JsonValue::Bool(true)));
        }
        let document = JsonValue::Object(vec![
            ("schema".into(), JsonValue::string("rasa-design-search/1")),
            ("options".into(), JsonValue::Object(option_members)),
            ("search".into(), outcome.to_json()),
        ]);
        rasa_bench::write_verified_json(path, &document)?;
        println!("results written to {path} (round-trip verified)");
    }

    Ok(())
}
