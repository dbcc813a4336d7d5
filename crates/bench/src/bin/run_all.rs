//! Runs the full paper evaluation (the EXPERIMENTS.md regeneration) as one
//! cached sweep through the shared `ExperimentRunner` and reports its wall
//! clock and cache counters. Pass `--json PATH` to persist the
//! deterministic result metrics as a JSON document (the file CI diffs
//! against `golden/results.json`). The document embeds the runner's
//! memoized cells under `"cache"`, and `--warm-start PATH` loads a
//! previous document's cells before evaluating, so repeat sweeps skip
//! every unchanged simulation.
//!
//! Every run finishes with a **full-fidelity timing comparison** of the
//! event-driven core scheduler against the retained cycle-stepping
//! reference loop on one Table I layer (`--timing-layer NAME`, default
//! `ResNet50-2`, the largest layer of the evaluation): the two must
//! produce bit-identical statistics, and the measured wall-clock speedup
//! is printed. `--timing-only` skips the evaluation and runs just this
//! comparison — the CI smoke step for the `--full` path.

use rasa_sim::{DesignPoint, ExperimentSuite, JsonValue, Simulator, ToJson};
use rasa_workloads::WorkloadSuite;
use std::time::{Duration, Instant};

struct EvaluationResults {
    fig1: rasa_sim::Fig1Result,
    fig2: rasa_sim::Fig2Result,
    fig5: rasa_sim::Fig5Result,
    fig6: rasa_sim::Fig6Result,
    area_energy: rasa_sim::AreaEnergyResult,
    fig7: rasa_sim::Fig7Result,
}

fn run_evaluation(suite: &ExperimentSuite) -> Result<EvaluationResults, rasa_sim::SimError> {
    let fig5 = suite.fig5_runtime()?;
    Ok(EvaluationResults {
        fig1: suite.fig1_toy()?,
        fig2: suite.fig2_utilization(),
        fig6: suite.fig6_from(&fig5),
        area_energy: suite.area_energy_from(&fig5),
        fig7: suite.fig7_batch()?,
        fig5,
    })
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs one Table I layer at full fidelity (no matmul cap) three ways —
/// the cycle-stepping reference core on a materialized trace, the
/// event-driven core fed the trace one whole register block at a time
/// (sequential streamed), and the same with the periodic steady state
/// fast-forwarded — asserts the architectural statistics are bit-identical
/// across all of them (with a byte-identical CpuStats JSON cross-check for
/// the CI parity step), and reports the measured wall-clock speedups, the
/// pieces fed, peak resident instructions and fast-forwarded strides.
fn timing_comparison(
    layer_name: &str,
    options: &rasa_bench::BinOptions,
) -> Result<(), Box<dyn std::error::Error>> {
    let suite = WorkloadSuite::mlperf();
    let Some(layer) = suite.layer(layer_name) else {
        return Err(format!(
            "unknown --timing-layer '{layer_name}' (expected a Table I layer name)"
        )
        .into());
    };
    println!("== Event-driven core timing (full fidelity, {layer_name}) ==");
    for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
        let name = design.name().to_string();
        let sim = Simulator::new(design)?.with_matmul_cap(None)?;

        let start = Instant::now();
        let streamed = sim.clone().with_speculation(false).run_layer(layer)?;
        let streamed_seconds = seconds(start.elapsed());
        let start = Instant::now();
        let reference = sim.run_layer_reference(layer)?;
        let reference_seconds = seconds(start.elapsed());
        if streamed.cpu != reference.cpu {
            return Err(format!(
                "event-driven core diverged from the reference on {layer_name} / {name}"
            )
            .into());
        }
        let streamed_json = streamed.cpu.to_json().to_string_pretty();
        if streamed_json != reference.cpu.to_json().to_string_pretty() {
            return Err(format!(
                "streamed CpuStats JSON drifted from the reference document on {layer_name} / {name}"
            )
            .into());
        }
        println!(
            "  {name:<14} {} rasa_mm, {} cycles: event-driven {:.3} s vs cycle-stepping {:.3} s = {:.2}x speedup",
            streamed.simulated_matmuls,
            streamed.core_cycles,
            streamed_seconds,
            reference_seconds,
            reference_seconds / streamed_seconds.max(1e-9),
        );
        println!(
            "  {:<14} {} completion events, {} cycles visited, {} skipped ({:.1}% of the timeline)",
            "",
            streamed.sched.completion_events,
            streamed.sched.visited_cycles,
            streamed.sched.skipped_cycles,
            streamed.sched.skip_rate() * 100.0,
        );
        println!(
            "  {:<14} {} blocks fed whole, peak resident {} of {} instructions ({:.2}% of the trace); CpuStats JSON byte-identical",
            "",
            streamed.pipeline.segments,
            streamed.pipeline.peak_resident_instructions,
            streamed.pipeline.fed_instructions,
            streamed.pipeline.residency() * 100.0,
        );

        if !options.speculation {
            continue;
        }
        // Fast-forward leg: skipping the periodic steady state must
        // reproduce the sequential streamed statistics bit for bit
        // (including the byte-identical CpuStats JSON); the wall-clock gain
        // over the sequential streamed run is its measured speedup.
        let start = Instant::now();
        let speculative = sim.run_layer(layer)?;
        let speculative_seconds = seconds(start.elapsed());
        if speculative.cpu != streamed.cpu || speculative.sched != streamed.sched {
            return Err(format!(
                "fast-forward diverged from the sequential streamed path on {layer_name} / {name}"
            )
            .into());
        }
        if speculative.cpu.to_json().to_string_pretty() != streamed_json {
            return Err(format!(
                "fast-forwarded CpuStats JSON drifted from the sequential document on {layer_name} / {name}"
            )
            .into());
        }
        let spec_speedup = streamed_seconds / speculative_seconds.max(1e-9);
        println!(
            "  {:<14} fast-forwarded {:.3} ms vs sequential streamed {:.3} ms = {:.2}x fast-forward speedup",
            "",
            speculative_seconds * 1e3,
            streamed_seconds * 1e3,
            spec_speedup,
        );
        println!(
            "  {:<14} {} strides fast-forwarded ({} of them reduction steps inside blocks); {} pieces fed (sequential streamed: {})",
            "",
            speculative.pipeline.spec_forks,
            speculative.pipeline.spec_step_forks,
            speculative.pipeline.segments,
            streamed.pipeline.segments,
        );
    }
    if options.speculation {
        println!("  statistics bit-identical across the reference core, the streamed core and the fast-forward");
    } else {
        println!("  statistics bit-identical across the reference core and the streamed core (fast-forward off)");
    }
    Ok(())
}

/// The deterministic slice of the evaluation, as a JSON document: every
/// metric here depends only on the simulated configuration (wall-clock
/// times and cache hit counts — which vary with the host and with a warm
/// start — are deliberately excluded, so CI can diff this file across
/// commits). It records what was simulated, not how: no execution
/// diagnostics and no fast-forward setting, so runs with and without
/// fast-forward write the same bytes.
fn results_document(
    options: &rasa_bench::BinOptions,
    results: &EvaluationResults,
    cache_cells: JsonValue,
) -> JsonValue {
    // One flat summary row per (workload, design) cell of the Fig. 5 grid:
    // the raw cycle/area/energy numbers behind every derived figure.
    let summaries: Vec<_> = results
        .fig5
        .runs
        .iter()
        .flat_map(|run| run.reports.iter().map(|report| report.summary()))
        .collect();
    let (fig5, area_energy, fig7) = (&results.fig5, &results.area_energy, &results.fig7);
    JsonValue::object([
        ("schema", "rasa-run-all/1".to_json()),
        (
            "options",
            JsonValue::object([
                ("matmul_cap", options.matmul_cap.to_json()),
                ("fig7_max_batch", options.fig7_max_batch.to_json()),
                ("layers", options.layers.to_json()),
            ]),
        ),
        (
            "fig5",
            JsonValue::object([
                ("designs", fig5.designs.to_json()),
                ("rows", fig5.rows.to_json()),
            ]),
        ),
        (
            "fig6",
            JsonValue::object([("rows", results.fig6.rows.to_json())]),
        ),
        (
            "area_energy",
            JsonValue::object([
                ("baseline_area_mm2", area_energy.baseline_area_mm2.to_json()),
                (
                    "baseline_die_fraction",
                    area_energy.baseline_die_fraction.to_json(),
                ),
                ("rows", area_energy.rows.to_json()),
            ]),
        ),
        (
            "fig7",
            JsonValue::object([
                ("asymptote", fig7.asymptote.to_json()),
                ("rows", fig7.rows.to_json()),
            ]),
        ),
        ("summaries", summaries.to_json()),
        // Every memoized cell, keyed by its semantic identity: the input
        // of `--warm-start` on a later run.
        ("cache", JsonValue::object([("cells", cache_cells)])),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("run_all");
    if options.timing_only {
        return timing_comparison(&options.timing_layer, &options);
    }
    let suite = options.suite()?;

    if let Some(path) = &options.warm_start_path {
        let document = rasa_bench::read_json(path)?;
        let loaded = suite.runner().warm_start_json(&document)?;
        println!("warm start: {loaded} cells loaded from {path}");
    }

    let start = Instant::now();
    let results = run_evaluation(&suite)?;
    let elapsed = start.elapsed();

    println!("== Fig. 1 ==");
    println!("{}", results.fig1);
    println!("== Fig. 2 ==");
    println!("{}", results.fig2);
    println!("== Fig. 5 ==");
    println!("{}", results.fig5);
    println!("== Fig. 6 ==");
    println!("{}", results.fig6);
    println!("== Area / energy ==");
    println!("{}", results.area_energy);
    println!("== Fig. 7 ==");
    println!("{}", results.fig7);

    let stats = suite.runner().cache_stats();
    println!("== Execution ==");
    println!(
        "full evaluation in {:.1} ms; {} cells simulated, {} served from cache ({:.0}% hit rate, {} evictions, {}/{} resident)",
        seconds(elapsed) * 1e3,
        stats.misses,
        stats.hits,
        stats.hit_rate() * 100.0,
        stats.evictions,
        stats.entries,
        stats.capacity,
    );

    if let Some(path) = &options.json_path {
        let document = results_document(&options, &results, suite.runner().dump_cache_json());
        rasa_bench::write_verified_json(path, &document)?;
        println!("results written to {path} (round-trip verified)");
    }

    if !options.no_timing {
        timing_comparison(&options.timing_layer, &options)?;
    }
    Ok(())
}
