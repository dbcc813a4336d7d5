//! The `eval_full` workload: the whole paper evaluation through
//! `ExperimentSuite`, repeated on fresh suites, each checked against the
//! recorded digest of every cell's simulated statistics.

use crate::tier::{sample_cells, Tier};
use crate::util::{self, LocalSpans, Rng, SpanLog};
use crate::{probe, BenchError, Options, Outcome, Scale};
use rasa_sim::{ExperimentSuite, FromJson, JsonValue, SimReport, ToJson, WireResponse};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `SimSummary` members the digest covers: every simulated statistic.
/// Scheduler and pipeline diagnostics (`sched_events`, `visited_cycles`,
/// `segments`, `peak_resident_instructions`, `spec_*`) describe how the
/// simulator ran, not what it simulated, so a speed-only change may move
/// them.
const DIGEST_MEMBERS: &[&str] = &[
    "design",
    "workload",
    "core_cycles",
    "simulated_matmuls",
    "total_matmuls",
    "runtime_seconds",
    "ipc",
    "engine_bypass_rate",
    "area_mm2",
    "energy_joules",
];

/// The recorded digests, keyed by scale (`full`, `smoke`).
const EXPECTED: &str = include_str!("../expected.json");

/// The digest recorded for `scale`: `(cells, hex digest)`.
///
/// # Errors
///
/// When `expected.json` holds no entry for the scale.
pub fn expected_digest(scale: &Scale) -> Result<(usize, String), BenchError> {
    let key = if *scale == Scale::full() {
        "full"
    } else {
        "smoke"
    };
    let entry = JsonValue::parse(EXPECTED)?
        .get("eval_full")
        .and_then(|all| all.get(key))
        .cloned()
        .ok_or_else(|| format!("expected.json records no eval_full digest for scale '{key}'"))?;
    let cells = entry
        .get("cells")
        .and_then(JsonValue::as_usize)
        .ok_or("expected.json: 'cells' is not a count")?;
    let digest = entry
        .get("digest")
        .and_then(JsonValue::as_str)
        .ok_or("expected.json: 'digest' is not a string")?;
    Ok((cells, digest.to_string()))
}

/// A fresh suite (fresh runner, empty cell cache) at `scale`.
///
/// # Errors
///
/// An invalid scale.
pub fn build_suite(scale: &Scale) -> Result<ExperimentSuite, BenchError> {
    Ok(ExperimentSuite::builder()
        .with_matmul_cap(scale.eval_matmul_cap)
        .with_fig7_max_batch(scale.fig7_max_batch)
        .build()?)
}

/// Suite builds per `setup_s` sample.
const SETUP_BATCH: usize = 4000;

/// One `setup_s` sample: building the suite (its runner, cell cache and
/// layer table). One build takes about a microsecond, so a sample times a
/// batch of builds and reports the mean of the batch.
fn setup_sample(scale: &Scale) -> Result<f64, BenchError> {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        drop(black_box(build_suite(scale)?));
    }
    Ok(start.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

const GROUPS: [&str; 4] = ["eval.fig1", "eval.fig2", "eval.fig5_fig6_area", "eval.fig7"];

/// Regenerates every figure and table, the independent groups in `order`.
fn evaluate(
    suite: &ExperimentSuite,
    order: &[usize; 4],
    mut spans: Option<(&mut LocalSpans<'_>, u64)>,
    eval_id: u64,
) -> Result<(), BenchError> {
    for &group in order {
        let start = Instant::now();
        match group {
            0 => drop(black_box(suite.fig1_toy()?)),
            1 => drop(black_box(suite.fig2_utilization())),
            2 => {
                let fig5 = suite.fig5_runtime()?;
                black_box(suite.fig6_from(&fig5));
                black_box(suite.area_energy_from(&fig5));
            }
            _ => drop(black_box(suite.fig7_batch()?)),
        }
        if let Some((spans, parent)) = spans.as_mut() {
            spans.record(GROUPS[group], start, Instant::now(), *parent, eval_id);
        }
    }
    Ok(())
}

/// The digest of every cell the suite's runner holds: FNV-1a over one
/// line per cell (key, then the `DIGEST_MEMBERS` of its `SimSummary`
/// JSON), in key order. Returns `(cells, hex digest)`.
///
/// # Errors
///
/// A cached report that does not decode.
pub fn digest(suite: &ExperimentSuite) -> Result<(usize, String), BenchError> {
    let cells = suite.runner().dump_cache_json();
    let cells = cells.as_array().ok_or("cache dump is not an array")?;
    let mut state = util::FNV_OFFSET;
    for cell in cells {
        let key = cell
            .get("key")
            .and_then(JsonValue::as_str)
            .ok_or("cache cell without a key")?;
        let report =
            SimReport::from_json(cell.get("report").ok_or("cache cell without a report")?)?;
        let line = format!("{key} {}\n", summary_digest_json(&report));
        state = util::fnv1a(state, line.as_bytes());
    }
    Ok((cells.len(), format!("{state:016x}")))
}

/// The digested members of a report's `SimSummary`, as compact JSON.
#[must_use]
fn summary_digest_json(report: &SimReport) -> String {
    match report.summary().to_json() {
        JsonValue::Object(members) => JsonValue::Object(
            members
                .into_iter()
                .filter(|(name, _)| DIGEST_MEMBERS.contains(&name.as_str()))
                .collect(),
        )
        .to_string_compact(),
        other => other.to_string_compact(),
    }
}

/// The evaluations of one window.
struct Evals {
    seconds: Vec<f64>,
    /// A `setup_s` sample taken before each evaluation, so the samples
    /// span the whole window.
    setups: Vec<f64>,
    cells: usize,
    attempted: u64,
    failed: u64,
    last: Option<ExperimentSuite>,
}

/// Runs evaluations until `duration` has passed and at least `min` ran.
fn evaluations(
    options: &Options,
    rng: &mut Rng,
    duration: Duration,
    min: usize,
    spans: Option<&SpanLog>,
) -> Result<Evals, BenchError> {
    let expected = expected_digest(&options.scale)?;
    let mut local = spans.map(SpanLog::local);
    let mut evals = Evals {
        seconds: Vec::new(),
        setups: Vec::new(),
        cells: 0,
        attempted: 0,
        failed: 0,
        last: None,
    };
    let start = Instant::now();
    while evals.seconds.len() < min || start.elapsed() < duration {
        evals.setups.push(setup_sample(&options.scale)?);
        let suite = build_suite(&options.scale)?;
        let mut order = [0, 1, 2, 3];
        rng.shuffle(&mut order);
        let eval_id = evals.attempted;
        let root = local.as_mut().map(LocalSpans::reserve);
        let t0 = Instant::now();
        evaluate(&suite, &order, local.as_mut().zip(root), eval_id)?;
        let t1 = Instant::now();
        if let (Some(spans), Some(root)) = (local.as_mut(), root) {
            spans.record_as(root, "eval.full", t0, t1, 0, eval_id);
        }
        evals.seconds.push((t1 - t0).as_secs_f64());
        evals.attempted += 1;
        let found = digest(&suite)?;
        if found != expected {
            evals.failed += 1;
            eprintln!(
                "eval_full: digest {} over {} cells, expected {} over {}",
                found.1, found.0, expected.1, expected.0
            );
        }
        evals.cells += found.0;
        evals.last = Some(suite);
    }
    if let Some(local) = local {
        local.flush();
    }
    Ok(evals)
}

/// Runs the `eval_full` workload.
///
/// # Errors
///
/// Harness failures; a wrong digest is counted, not raised.
pub fn run(options: &Options) -> Result<Outcome, BenchError> {
    let scale = options.scale;
    let mut out = Outcome::default();
    let mut rng = Rng::new(options.seed, 0);

    if !options.trace {
        let mut evals = evaluations(options, &mut rng, options.window, scale.min_evals, None)?;
        let peak_rss = util::peak_rss_mib()?;
        let n = evals.seconds.len();
        let total: f64 = evals.seconds.iter().sum();
        let median = util::median(&mut evals.seconds);
        out.attempted = evals.attempted;
        out.failed = evals.failed;
        out.metric("setup_s", util::median(&mut evals.setups));
        out.metric("eval_s", median);
        out.metric("req_per_s", evals.cells as f64 / total);
        out.metric("p50_ms", median * 1e3);
        out.metric("peak_rss_mb", peak_rss);
        out.metric("success_rate", out.success_rate());
        out.note("evaluations", n);
        out.note("cells_per_evaluation", evals.cells / n.max(1));
        out.note(
            "p50_ms",
            format!("{{\"percentile\": 50, \"samples\": {n}}}"),
        );
        return Ok(out);
    }

    // Traced run: untraced evaluations, traced ones, then the layer probes
    // (the serving-tier probes on a tier brought up for them).
    let log = SpanLog::new();
    let third = options.window / 3;
    let allocs_before = util::allocations();
    let mut untraced = evaluations(options, &mut rng, third, 1, None)?;
    let allocs = util::allocations() - allocs_before;
    let allocs_per_cell = allocs as f64 / untraced.cells.max(1) as f64;
    let traced = evaluations(options, &mut rng, third, 1, Some(&log))?;
    let after = evaluations(options, &mut rng, third, 1, None)?;
    untraced.seconds.extend(after.seconds);
    out.attempted = untraced.attempted + traced.attempted + after.attempted;
    out.failed = untraced.failed + traced.failed + after.failed;
    let runner = traced
        .last
        .as_ref()
        .expect("at least one evaluation")
        .runner()
        .cache_stats();

    let probes = probe::Probes::new(&log);
    let cells = sample_cells(options.workload, &scale, options.seed, scale.probe_cells);
    let reports = probes.core_layers(&mut out, &cells, scale.eval_matmul_cap)?;
    let responses: Vec<WireResponse> = reports
        .into_iter()
        .enumerate()
        .map(|(id, report)| WireResponse {
            id: id as u64,
            shard: 0,
            batch_size: 1,
            report,
        })
        .collect();
    probes.codec_layers(&mut out, &responses, scale.probe_iters)?;
    let tier = Tier::up()?;
    let router0 = tier.router.stats();
    let (probe_clients, _) = probes.net_layers(&mut out, &tier, &cells, scale.probe_iters)?;
    let router1 = tier.router.stats();
    tier.down();
    probes.serve_replay(&mut out, options, third.min(Duration::from_secs(2)))?;
    log.write_jsonl(&crate::spans_path(options.workload))?;

    // Too few evaluations for a p99: the slowest untraced one.
    let mut seconds = untraced.seconds.clone();
    seconds.sort_by(f64::total_cmp);
    let (tail, percentile) = util::supported_tail(&seconds);
    out.metric("p99_ms", tail * 1e3);
    out.note(
        "p99_ms",
        format!(
            "{{\"percentile\": {percentile}, \"samples\": {}}}",
            seconds.len()
        ),
    );

    let routed =
        (router1.cache_hits + router1.cache_misses) - (router0.cache_hits + router0.cache_misses);
    let mean = |evals: &Evals| evals.seconds.iter().sum::<f64>() / evals.seconds.len() as f64;
    out.metric("runner.hit_rate", runner.hit_rate());
    out.metric("runner.evictions", runner.evictions as f64);
    out.metric(
        "router.hit_rate",
        (router1.cache_hits - router0.cache_hits) as f64 / routed.max(1) as f64,
    );
    out.metric(
        "router.window_blocked",
        (router1.window_blocked - router0.window_blocked) as f64,
    );
    out.metric("client.retries", probe_clients.retries as f64);
    out.metric("client.connects", probe_clients.connects as f64);
    out.metric("allocs_per_req", allocs_per_cell);
    out.metric("trace_overhead_frac", mean(&traced) / mean(&untraced) - 1.0);
    Ok(out)
}
