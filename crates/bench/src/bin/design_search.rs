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
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("{outcome}");
    let stats = runner.cache_stats();
    println!(
        "search in {elapsed_ms:.1} ms; {} cells simulated, {} served from cache ({:.0}% hit rate)",
        stats.misses,
        stats.hits,
        stats.hit_rate() * 100.0,
    );

    if let Some(path) = &options.json_path {
        // Only configuration-determined data enters the document (the wall
        // clock and cache counters above stay out), so a repeated run with
        // the same seed rewrites identical bytes.
        let mut option_members = vec![
            ("strategy".into(), options.strategy.to_json()),
            ("workload".into(), options.workload.to_json()),
            ("seed".into(), options.seed.to_json()),
            ("population".into(), options.population.to_json()),
            ("generations".into(), options.generations.to_json()),
            ("samples".into(), options.samples.to_json()),
            ("matmul_cap".into(), options.matmul_cap.to_json()),
        ];
        if options.kernel_axes {
            // Gated so the default hardware-only document — and the pinned
            // golden/search.json — keeps its exact bytes.
            option_members.push(("kernel_axes".into(), JsonValue::Bool(true)));
        }
        let document = JsonValue::object([
            ("schema", "rasa-design-search/1".to_json()),
            ("options", JsonValue::Object(option_members)),
            ("search", outcome.to_json()),
        ]);
        rasa_bench::write_verified_json(path, &document)?;
        println!("results written to {path} (round-trip verified)");
    }

    Ok(())
}
