//! Runs the full paper evaluation (the EXPERIMENTS.md regeneration) as one
//! cached parallel sweep through the shared `ExperimentRunner`, then
//! cross-checks the results against a fresh serial run and reports the
//! wall-clock speedup. Pass `--no-serial-check` to skip the cross-check,
//! `--serial` to run everything single-threaded in the first place, and
//! `--json PATH` to persist the deterministic result metrics as a JSON
//! document (the file CI diffs against `golden/results.json`). The
//! document embeds the runner's memoized cells under `"cache"`, and
//! `--warm-start PATH` loads a previous document's cells before
//! evaluating, so repeat sweeps skip every unchanged simulation.
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

/// Runs one Table I layer at full fidelity (no matmul cap) four ways —
/// fast-forwarded streamed (skipping the periodic steady state), sequential
/// streamed (event-driven core fed by the bounded-channel producer),
/// materialized event-driven, and the cycle-stepping reference — asserts
/// the architectural statistics are bit-identical across all of them (with
/// a byte-identical JSON cross-check for the CI parity step), and reports
/// the measured wall-clock speedups, segment counts, peak resident
/// instructions and fast-forwarded strides. Returns the per-design timing
/// rows for the machine-readable perf document.
fn timing_comparison(
    layer_name: &str,
    options: &rasa_bench::BinOptions,
) -> Result<Vec<JsonValue>, Box<dyn std::error::Error>> {
    let suite = WorkloadSuite::mlperf();
    let Some(layer) = suite.layer(layer_name) else {
        return Err(format!(
            "unknown --timing-layer '{layer_name}' (expected a Table I layer name)"
        )
        .into());
    };
    let stream = options.stream;
    let speculation = stream && options.speculation;
    let mut rows = Vec::new();
    println!("== Event-driven core timing (full fidelity, {layer_name}) ==");
    for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
        let name = design.name().to_string();
        let sim = Simulator::new(design)?
            .with_matmul_cap(None)?
            .with_segment_size(options.segment_size)?;

        let start = Instant::now();
        let materialized = sim.clone().with_streaming(false).run_layer(layer)?;
        let materialized_seconds = seconds(start.elapsed());
        let start = Instant::now();
        let reference = sim.run_layer_reference(layer)?;
        let reference_seconds = seconds(start.elapsed());
        if materialized.cpu != reference.cpu {
            return Err(format!(
                "event-driven core diverged from the reference on {layer_name} / {name}"
            )
            .into());
        }
        println!(
            "  {name:<14} {} rasa_mm, {} cycles: event-driven {:.3} s vs cycle-stepping {:.3} s = {:.2}x speedup",
            materialized.simulated_matmuls,
            materialized.core_cycles,
            materialized_seconds,
            reference_seconds,
            reference_seconds / materialized_seconds.max(1e-9),
        );
        println!(
            "  {:<14} {} completion events, {} cycles visited, {} skipped ({:.1}% of the timeline)",
            "",
            materialized.sched.completion_events,
            materialized.sched.visited_cycles,
            materialized.sched.skipped_cycles,
            materialized.sched.skip_rate() * 100.0,
        );

        let mut row = vec![
            ("design".to_string(), JsonValue::string(&name)),
            (
                "materialized_seconds".to_string(),
                JsonValue::number_from_f64(materialized_seconds),
            ),
            (
                "reference_seconds".to_string(),
                JsonValue::number_from_f64(reference_seconds),
            ),
        ];

        if !stream {
            rows.push(JsonValue::Object(row));
            continue;
        }
        // Streaming parity + overlap measurement: the sequential streamed
        // pipeline must reproduce the materialized run's architectural
        // *and* scheduler statistics bit for bit (byte-identical
        // serialized form), while generating the trace concurrently with —
        // and sharded ahead of — the simulation.
        let start = Instant::now();
        let streamed = sim.clone().with_speculation(false).run_layer(layer)?;
        let streamed_seconds = seconds(start.elapsed());
        if streamed.cpu != materialized.cpu || streamed.sched != materialized.sched {
            return Err(format!(
                "streamed pipeline diverged from the materialized path on {layer_name} / {name}"
            )
            .into());
        }
        let streamed_json = streamed.cpu.to_json().to_string_pretty();
        let materialized_json = materialized.cpu.to_json().to_string_pretty();
        if streamed_json != materialized_json {
            return Err(format!(
                "streamed CpuStats JSON drifted from the materialized document on {layer_name} / {name}"
            )
            .into());
        }
        println!(
            "  {:<14} streamed {:.3} s vs materialized {:.3} s = {:.2}x overlap speedup",
            "",
            streamed_seconds,
            materialized_seconds,
            materialized_seconds / streamed_seconds.max(1e-9),
        );
        println!(
            "  {:<14} {} segments, peak resident {} of {} instructions ({:.2}% of the materialized trace); CpuStats JSON byte-identical",
            "",
            streamed.pipeline.segments,
            streamed.pipeline.peak_resident_instructions,
            streamed.pipeline.fed_instructions,
            streamed.pipeline.residency() * 100.0,
        );
        row.push((
            "streamed_seconds".to_string(),
            JsonValue::number_from_f64(streamed_seconds),
        ));

        if !speculation {
            rows.push(JsonValue::Object(row));
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
            "  {:<14} fast-forwarded {:.3} s vs sequential streamed {:.3} s = {:.2}x fast-forward speedup",
            "", speculative_seconds, streamed_seconds, spec_speedup,
        );
        println!(
            "  {:<14} {} strides fast-forwarded; {} segments fed (sequential streamed: {})",
            "",
            speculative.pipeline.spec_forks,
            speculative.pipeline.segments,
            streamed.pipeline.segments,
        );
        row.extend([
            (
                "speculative_seconds".to_string(),
                JsonValue::number_from_f64(speculative_seconds),
            ),
            (
                "speculative_speedup".to_string(),
                JsonValue::number_from_f64(spec_speedup),
            ),
            (
                "spec_forks".to_string(),
                JsonValue::number_from_u64(speculative.pipeline.spec_forks),
            ),
            (
                "spec_commits".to_string(),
                JsonValue::number_from_u64(speculative.pipeline.spec_commits),
            ),
            (
                "spec_replays".to_string(),
                JsonValue::number_from_u64(speculative.pipeline.spec_replays),
            ),
            (
                "spec_commit_rate".to_string(),
                JsonValue::number_from_f64(speculative.pipeline.spec_commit_rate()),
            ),
        ]);
        rows.push(JsonValue::Object(row));
    }
    if speculation {
        println!("  statistics bit-identical across all cores, pipelines and the fast-forward");
    } else if stream {
        println!("  statistics bit-identical across all cores and pipelines (fast-forward off)");
    } else {
        println!("  statistics bit-identical across both cores (streamed pipeline not compared: --no-stream)");
    }
    Ok(rows)
}

/// The deterministic slice of the evaluation, as a JSON document: every
/// metric here depends only on the simulated configuration (wall-clock
/// times and cache hit counts — which vary with thread scheduling — are
/// deliberately excluded, so CI can diff this file across commits).
fn results_document(
    options: &rasa_bench::BinOptions,
    results: &EvaluationResults,
    cache_cells: JsonValue,
) -> JsonValue {
    let fig5_rows: Vec<JsonValue> = results
        .fig5
        .rows
        .iter()
        .map(|row| {
            JsonValue::Object(vec![
                ("workload".into(), JsonValue::string(&row.workload)),
                (
                    "normalized".into(),
                    JsonValue::Array(
                        row.normalized
                            .iter()
                            .map(|(design, value)| {
                                JsonValue::Array(vec![
                                    JsonValue::string(design),
                                    JsonValue::number_from_f64(*value),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let fig6_rows: Vec<JsonValue> = results
        .fig6
        .rows
        .iter()
        .map(|row| {
            JsonValue::Object(vec![
                ("design".into(), JsonValue::string(&row.design)),
                ("speedup".into(), JsonValue::number_from_f64(row.speedup)),
                (
                    "area_ratio".into(),
                    JsonValue::number_from_f64(row.area_ratio),
                ),
                (
                    "performance_per_area".into(),
                    JsonValue::number_from_f64(row.performance_per_area),
                ),
            ])
        })
        .collect();
    let area_energy_rows: Vec<JsonValue> = results
        .area_energy
        .rows
        .iter()
        .map(|row| {
            JsonValue::Object(vec![
                ("design".into(), JsonValue::string(&row.design)),
                ("area_mm2".into(), JsonValue::number_from_f64(row.area_mm2)),
                (
                    "area_overhead".into(),
                    JsonValue::number_from_f64(row.area_overhead),
                ),
                (
                    "energy_efficiency".into(),
                    JsonValue::number_from_f64(row.energy_efficiency),
                ),
            ])
        })
        .collect();
    let fig7_rows: Vec<JsonValue> = results
        .fig7
        .rows
        .iter()
        .map(|row| {
            JsonValue::Object(vec![
                ("layer".into(), JsonValue::string(&row.layer)),
                ("batch".into(), JsonValue::number_from_usize(row.batch)),
                (
                    "normalized_runtime".into(),
                    JsonValue::number_from_f64(row.normalized_runtime),
                ),
            ])
        })
        .collect();
    // One flat summary row per (workload, design) cell of the Fig. 5 grid:
    // the raw cycle/area/energy numbers behind every derived figure.
    let summaries: Vec<JsonValue> = results
        .fig5
        .runs
        .iter()
        .flat_map(|run| run.reports.iter())
        .map(|report| report.summary().to_json())
        .collect();
    JsonValue::Object(vec![
        ("schema".into(), JsonValue::string("rasa-run-all/1")),
        (
            "options".into(),
            JsonValue::Object(vec![
                (
                    "matmul_cap".into(),
                    options
                        .matmul_cap
                        .map_or(JsonValue::Null, JsonValue::number_from_usize),
                ),
                (
                    "fig7_max_batch".into(),
                    JsonValue::number_from_usize(options.fig7_max_batch),
                ),
                ("stream".into(), JsonValue::Bool(options.stream)),
                (
                    "segment_size".into(),
                    JsonValue::number_from_usize(options.segment_size),
                ),
                ("speculation".into(), JsonValue::Bool(options.speculation)),
                (
                    "layers".into(),
                    options
                        .layers
                        .as_deref()
                        .map_or(JsonValue::Null, JsonValue::string),
                ),
            ]),
        ),
        (
            "fig5".into(),
            JsonValue::Object(vec![
                (
                    "designs".into(),
                    JsonValue::Array(results.fig5.designs.iter().map(JsonValue::string).collect()),
                ),
                ("rows".into(), JsonValue::Array(fig5_rows)),
            ]),
        ),
        (
            "fig6".into(),
            JsonValue::Object(vec![("rows".into(), JsonValue::Array(fig6_rows))]),
        ),
        (
            "area_energy".into(),
            JsonValue::Object(vec![
                (
                    "baseline_area_mm2".into(),
                    JsonValue::number_from_f64(results.area_energy.baseline_area_mm2),
                ),
                (
                    "baseline_die_fraction".into(),
                    JsonValue::number_from_f64(results.area_energy.baseline_die_fraction),
                ),
                ("rows".into(), JsonValue::Array(area_energy_rows)),
            ]),
        ),
        (
            "fig7".into(),
            JsonValue::Object(vec![
                (
                    "asymptote".into(),
                    JsonValue::number_from_f64(results.fig7.asymptote),
                ),
                ("rows".into(), JsonValue::Array(fig7_rows)),
            ]),
        ),
        ("summaries".into(), JsonValue::Array(summaries)),
        // Every memoized cell, keyed by its semantic identity: the input
        // of `--warm-start` on a later run.
        (
            "cache".into(),
            JsonValue::Object(vec![("cells".into(), cache_cells)]),
        ),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("run_all");
    if options.timing_only {
        let timing_rows = timing_comparison(&options.timing_layer, &options)?;
        if let Some(path) = &options.bench_path {
            let section = JsonValue::Object(vec![("timing".into(), JsonValue::Array(timing_rows))]);
            rasa_bench::update_bench_section(path, "run_all", section)?;
            println!("perf document section 'run_all' written to {path}");
        }
        return Ok(());
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
    let mode = if suite.runner().is_parallel() {
        format!("parallel on {} threads", rayon::current_num_threads())
    } else {
        "serial".to_string()
    };
    println!("== Execution ==");
    println!(
        "full evaluation in {:.2} s ({mode}); {} cells simulated, {} served from cache ({:.0}% hit rate, {} evictions, {}/{} resident)",
        seconds(elapsed),
        stats.misses,
        stats.hits,
        stats.hit_rate() * 100.0,
        stats.evictions,
        stats.entries,
        stats.capacity,
    );
    // Aggregate trace-pipeline footprint across the Fig. 5 grid cells.
    let reports = || results.fig5.runs.iter().flat_map(|run| run.reports.iter());
    let segments: u64 = reports().map(|r| r.pipeline.segments).sum();
    let peak = reports()
        .map(|r| r.pipeline.peak_resident_instructions)
        .max()
        .unwrap_or(0);
    let fed = reports()
        .map(|r| r.pipeline.fed_instructions)
        .max()
        .unwrap_or(0);
    println!(
        "trace pipeline: {} across {} cells ({} segments of ~{} instructions, peak resident {} of a largest trace of {})",
        if suite.runner().is_streaming() {
            "streamed"
        } else {
            "materialized"
        },
        results.fig5.runs.len() * results.fig5.designs.len(),
        segments,
        suite.runner().segment_size(),
        peak,
        fed,
    );

    if let Some(path) = &options.json_path {
        let document = results_document(&options, &results, suite.runner().dump_cache_json());
        rasa_bench::write_verified_json(path, &document)?;
        println!("results written to {path} (round-trip verified)");
    }

    let timing_rows = if options.no_timing {
        Vec::new()
    } else {
        timing_comparison(&options.timing_layer, &options)?
    };

    if let Some(path) = &options.bench_path {
        // Wall-clock throughputs and speculation rates for the perf
        // trajectory. Unlike the results document these numbers are
        // machine-dependent; `bench_check` compares them within a noise
        // band only.
        let visited: u64 = reports().map(|r| r.sched.visited_cycles).sum();
        let skipped: u64 = reports().map(|r| r.sched.skipped_cycles).sum();
        let instructions: u64 = reports().map(|r| r.pipeline.fed_instructions).sum();
        let timeline = visited + skipped;
        let section = JsonValue::Object(vec![
            (
                "elapsed_seconds".into(),
                JsonValue::number_from_f64(seconds(elapsed)),
            ),
            (
                "cells_simulated".into(),
                JsonValue::number_from_u64(stats.misses),
            ),
            (
                "cells_per_second".into(),
                JsonValue::number_from_f64(stats.misses as f64 / seconds(elapsed).max(1e-9)),
            ),
            (
                "instructions_per_second".into(),
                JsonValue::number_from_f64(instructions as f64 / seconds(elapsed).max(1e-9)),
            ),
            (
                "visited_cycle_skip_rate".into(),
                JsonValue::number_from_f64(if timeline == 0 {
                    0.0
                } else {
                    skipped as f64 / timeline as f64
                }),
            ),
            ("timing".into(), JsonValue::Array(timing_rows)),
        ]);
        rasa_bench::update_bench_section(path, "run_all", section)?;
        println!("perf document section 'run_all' written to {path}");
    }

    if options.skip_serial_check || !suite.runner().is_parallel() {
        return Ok(());
    }

    // Fresh serial suite (empty cache): same matrix, one thread. The
    // simulation is deterministic, so the results must be bit-identical.
    let serial_suite = ExperimentSuite::builder()
        .with_matmul_cap(options.matmul_cap)
        .with_fig7_max_batch(options.fig7_max_batch)
        .with_streaming(options.stream)
        .with_segment_size(options.segment_size)
        .with_speculation(options.speculation)
        .with_layer_filter(options.layers)
        .serial()
        .build()?;
    let serial_start = Instant::now();
    let serial_results = run_evaluation(&serial_suite)?;
    let serial_elapsed = serial_start.elapsed();

    assert_eq!(results.fig5, serial_results.fig5, "fig5 parallel != serial");
    assert_eq!(results.fig6, serial_results.fig6, "fig6 parallel != serial");
    assert_eq!(results.fig7, serial_results.fig7, "fig7 parallel != serial");
    assert_eq!(
        results.area_energy, serial_results.area_energy,
        "area/energy parallel != serial"
    );

    println!(
        "serial cross-check in {:.2} s: results identical; parallel speedup {:.2}x",
        seconds(serial_elapsed),
        seconds(serial_elapsed) / seconds(elapsed).max(1e-9)
    );
    Ok(())
}
