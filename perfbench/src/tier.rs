//! The serving-tier workloads: an in-process loopback tier driven by
//! closed-loop clients at three cache temperatures.

use crate::util::{self, LocalSpans, Rng, SpanLog};
use crate::{probe, BenchError, Options, Outcome, Scale, Workload};
use rasa_sim::net::{ClientStats, RouterConfig, RouterStats, ShardConfig};
use rasa_sim::serve::{GemmRequest, GemmServer, ServeConfig};
use rasa_sim::{
    CacheStats, DesignPoint, NetClient, Router, ShardServer, ToJson, WireRequest, WireResponse,
};
use rasa_workloads::{table1_layers, LayerSpec};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// A request cell: an index into [`designs`] and the layer to simulate.
pub type Cell = (usize, LayerSpec);

/// The two designs every shard serves.
#[must_use]
pub fn designs() -> [DesignPoint; 2] {
    [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()]
}

/// Client threads (and connections) driving the tier: one per core, at
/// most two.
#[must_use]
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Batch sizes `1..=COLD_BATCHES` of the `tier_cold` universe: 9 Table I
/// layers × 4 096 batches × 2 designs = 73 728 cells, far beyond the
/// router's 256 and the shards' 2 × 1 024 cached cells.
const COLD_BATCHES: usize = 4096;

/// An endless, seeded request stream.
#[derive(Debug)]
pub enum Traffic {
    /// Uniform over `layers × 1..=batches × designs`.
    Uniform {
        /// Layers of the universe.
        layers: Vec<LayerSpec>,
        /// Largest batch size of the universe.
        batches: usize,
        /// Draws.
        rng: Rng,
    },
    /// Round-robin over fixed cells.
    Cycle {
        /// The cells.
        cells: Vec<Cell>,
        /// Next index.
        next: usize,
    },
}

impl Traffic {
    /// The request stream of `workload` for one client. `stream`
    /// decorrelates clients and phases of one seed.
    #[must_use]
    pub fn for_workload(workload: Workload, scale: &Scale, seed: u64, stream: u64) -> Traffic {
        match workload {
            Workload::TierCold => Traffic::Uniform {
                layers: table1_layers(),
                batches: COLD_BATCHES,
                rng: Rng::new(seed, stream),
            },
            Workload::EvalFull => Traffic::Cycle {
                cells: sample_cells(workload, scale, seed, scale.probe_cells),
                next: stream as usize,
            },
        }
    }

    /// The next request cell.
    pub fn next_cell(&mut self) -> Cell {
        match self {
            Traffic::Uniform {
                layers,
                batches,
                rng,
            } => {
                let layer = &layers[rng.below(layers.len())];
                let batch = 1 + rng.below(*batches);
                (rng.below(2), layer.with_batch(batch))
            }
            Traffic::Cycle { cells, next } => {
                *next += 1;
                cells[*next % cells.len()].clone()
            }
        }
    }
}

/// `n` cells of the workload's inputs chosen by `seed`: fresh cold draws,
/// or a sample of the Table I layers × both designs for the evaluation.
#[must_use]
pub fn sample_cells(workload: Workload, scale: &Scale, seed: u64, n: usize) -> Vec<Cell> {
    if workload == Workload::TierCold {
        let mut traffic = Traffic::for_workload(workload, scale, seed, 0x5A3B);
        return (0..n).map(|_| traffic.next_cell()).collect();
    }
    let mut cells: Vec<Cell> = table1_layers()
        .into_iter()
        .flat_map(|layer| [(0, layer.clone()), (1, layer)])
        .collect();
    Rng::new(seed, 0x5A3B).shuffle(&mut cells);
    cells.truncate(n);
    cells
}

/// Two shard servers behind a bound router, at default configuration.
#[derive(Debug)]
pub struct Tier {
    /// The shards, by id.
    pub shards: Vec<ShardServer>,
    /// Their addresses, by id.
    pub shard_addrs: Vec<String>,
    /// The bound router.
    pub router: Router,
    /// The router's address.
    pub addr: String,
}

impl Tier {
    /// Binds `ShardServer` ×2, then `Router` over them, on ephemeral
    /// loopback ports.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn up() -> Result<Tier, BenchError> {
        let designs = designs();
        let mut shards = Vec::new();
        let mut shard_addrs = Vec::new();
        for shard_id in 0..2 {
            let shard = ShardServer::bind(
                "127.0.0.1:0",
                ShardConfig {
                    shard_id,
                    serve: ServeConfig::default(),
                },
                &designs,
            )?;
            shard_addrs.push(shard.local_addr().to_string());
            shards.push(shard);
        }
        let router = Router::bind("127.0.0.1:0", &shard_addrs, RouterConfig::default())?;
        let addr = router
            .local_addr()
            .ok_or("a bound router has an address")?
            .to_string();
        Ok(Tier {
            shards,
            shard_addrs,
            router,
            addr,
        })
    }

    /// Stops the router, then every shard, joining all their threads.
    pub fn down(self) {
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }

    /// Cell-cache counters summed over the shards, read through
    /// `ShardServer::health`.
    #[must_use]
    pub fn shard_cache(&self) -> CacheStats {
        let mut cache = CacheStats::default();
        for shard in &self.shards {
            let health = shard.health();
            cache.hits += health.cache.hits;
            cache.misses += health.cache.misses;
            cache.evictions += health.cache.evictions;
        }
        cache
    }
}

/// The first answer seen for one cell, and how many answers it backs.
#[derive(Debug)]
pub struct CellRecord {
    /// Design index into [`designs`].
    pub design: usize,
    /// The requested layer.
    pub layer: LayerSpec,
    /// The first response received for the cell.
    pub response: WireResponse,
    /// Responses received for the cell.
    pub count: u64,
}

/// What one measured window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Client-observed latency of each answered request, seconds.
    pub latencies: Vec<f32>,
    /// Completion time of each answered request since the window start,
    /// seconds.
    pub finishes: Vec<f32>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, carried the wrong id, or disagreed with an
    /// earlier answer for the same cell.
    pub failed: u64,
    /// First answer per kept cell (see `keeps_cell`), keyed by (design,
    /// layer name).
    pub cells: BTreeMap<(usize, String), CellRecord>,
    /// Client counters summed over the clients.
    pub client: ClientStats,
    /// Traced windows only: requests the router answered from its result
    /// cache, requests it sent to a shard, and requests whose path the
    /// counter deltas could not split.
    pub split: [u64; 3],
    /// The first failure seen, if any.
    pub first_error: Option<String>,
    /// Peak resident set size of the process when the window ended, MiB.
    pub peak_rss_mib: f64,
}

impl Window {
    /// Mean client-observed latency in seconds.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        self.latencies.iter().map(|&s| f64::from(s)).sum::<f64>()
            / self.latencies.len().max(1) as f64
    }

    fn absorb(&mut self, other: Window) {
        self.latencies.extend(other.latencies);
        self.finishes.extend(other.finishes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.client.completed += other.client.completed;
        self.client.retries += other.client.retries;
        self.client.connects += other.client.connects;
        self.client.failed += other.client.failed;
        for (slot, n) in self.split.iter_mut().zip(other.split) {
            *slot += n;
        }
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        for (key, record) in other.cells {
            match self.cells.get_mut(&key) {
                Some(mine) => {
                    if mine.response.report != record.response.report {
                        self.failed += record.count;
                    }
                    mine.count += record.count;
                }
                None => {
                    self.cells.insert(key, record);
                }
            }
        }
    }
}

/// Whether the window keeps (and later re-simulates) a cell's answer: a
/// seeded one in 64 of the cells, so the client's memory stays flat
/// however many distinct cells it touches.
#[must_use]
fn keeps_cell(seed: u64, design: usize, name: &str) -> bool {
    let state = util::fnv1a(util::FNV_OFFSET, &seed.to_le_bytes());
    let state = util::fnv1a(state, &[design as u8]);
    util::fnv1a(state, name.as_bytes()) % 64 == 0
}

/// Drives `tier` with closed-loop clients for `duration`. With `spans`,
/// every request is recorded as a span named by the router path its
/// counter deltas show.
///
/// # Errors
///
/// Never for a failed request (those are counted); only for harness
/// failures.
pub fn drive(
    tier: &Tier,
    options: &Options,
    duration: Duration,
    phase: u64,
    spans: Option<&SpanLog>,
) -> Result<Window, BenchError> {
    let epoch = Instant::now();
    let windows: Vec<Window> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..client_count())
            .map(|client| {
                scope.spawn(move || {
                    let mut local = spans.map(SpanLog::local);
                    let window = Client {
                        tier,
                        options,
                        client,
                        epoch,
                        deadline: epoch + duration,
                    }
                    .run(phase * 16 + client as u64, &mut local);
                    if let Some(local) = local {
                        local.flush();
                    }
                    window
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    // Read before merging, so the merge's copies never count.
    let peak_rss_mib = util::peak_rss_mib()?;
    let mut merged = Window::default();
    for window in windows {
        merged.absorb(window);
    }
    merged.peak_rss_mib = peak_rss_mib;
    Ok(merged)
}

/// One closed-loop client of a window.
struct Client<'a> {
    tier: &'a Tier,
    options: &'a Options,
    client: usize,
    epoch: Instant,
    deadline: Instant,
}

impl Client<'_> {
    fn run(&self, stream: u64, spans: &mut Option<LocalSpans<'_>>) -> Window {
        let Options {
            workload,
            seed,
            scale,
            ..
        } = *self.options;
        let designs = designs();
        let mut traffic = Traffic::for_workload(workload, &scale, seed, stream);
        let mut window = Window::default();
        // Sized for the fastest workload, so no sample push reallocates
        // (untouched capacity is never resident).
        let capacity = (self.deadline - self.epoch).as_secs_f64() as usize * 40_000 + 1024;
        window.latencies.reserve(capacity);
        window.finishes.reserve(capacity);
        let mut net = NetClient::new(vec![self.tier.addr.clone()]);
        // First answer per layer name, per design: looked up by `&str`, so
        // the check allocates nothing per request.
        let mut seen: HashMap<String, [Option<(WireResponse, u64)>; 2]> = HashMap::new();
        let mut seq = 0u64;
        while Instant::now() < self.deadline {
            let (design, layer) = traffic.next_cell();
            let id = ((self.client as u64) << 48) | seq;
            seq += 1;
            let request = WireRequest::new(id, designs[design].name(), layer);
            let before = spans.as_ref().map(|_| self.tier.router.stats());
            let start = Instant::now();
            let outcome = net.request(&request);
            let end = Instant::now();
            window.attempted += 1;
            if let (Some(spans), Some(before)) = (spans.as_mut(), before) {
                let path = split_path(&before, &self.tier.router.stats());
                window.split[path] += 1;
                spans.record(SPLIT_SPANS[path], start, end, 0, id);
            }
            let response = match outcome {
                Ok(response) if response.id == id => response,
                Ok(response) => {
                    window.failed += 1;
                    window.first_error.get_or_insert_with(|| {
                        format!("answer id {} for request {id}", response.id)
                    });
                    continue;
                }
                Err(error) => {
                    window.failed += 1;
                    window.first_error.get_or_insert_with(|| error.to_string());
                    continue;
                }
            };
            let name = request.workload.name();
            match seen.get_mut(name).and_then(|slots| slots[design].as_mut()) {
                Some((first, count)) => {
                    if first.report != response.report {
                        window.failed += 1;
                        window
                            .first_error
                            .get_or_insert_with(|| format!("two different answers for {name}"));
                        continue;
                    }
                    *count += 1;
                }
                None if keeps_cell(seed, design, name) => {
                    seen.entry(name.to_string()).or_default()[design] = Some((response, 1));
                }
                None => {}
            }
            window.latencies.push((end - start).as_secs_f32());
            window.finishes.push((end - self.epoch).as_secs_f32());
        }
        window.client = net.stats();
        for (name, slots) in seen {
            for (design, slot) in slots.into_iter().enumerate() {
                if let Some((response, count)) = slot {
                    window.cells.insert(
                        (design, name.clone()),
                        CellRecord {
                            design,
                            layer: layer_named(&name),
                            response,
                            count,
                        },
                    );
                }
            }
        }
        window
    }
}

const SPLIT_SPANS: [&str; 3] = [
    "client.request.router_hit",
    "client.request.router_miss",
    "client.request.unsplit",
];

/// Rebuilds a tier cell's layer from its name: the universes only hold
/// re-batched Table I layers (`<base>@b<batch>`).
fn layer_named(name: &str) -> LayerSpec {
    let (base, batch) = name
        .split_once("@b")
        .expect("tier cells are re-batched layers");
    let batch: usize = batch.parse().expect("batch suffix is a number");
    table1_layers()
        .into_iter()
        .find(|layer| layer.name() == base)
        .expect("tier cells derive from Table I layers")
        .with_batch(batch)
}

/// 0 = router cache hit, 1 = sent to a shard, 2 = not attributable. The
/// request's own probe lands between the two snapshots, so when only one
/// counter moved, that counter is the request's path, whatever the other
/// client did meanwhile.
fn split_path(before: &RouterStats, after: &RouterStats) -> usize {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    match (hits, misses) {
        (1.., 0) => 0,
        (0, 1..) => 1,
        _ => 2,
    }
}

/// Whether a tier answer is byte-identical, as `SimSummary` JSON, to the
/// in-process answer `expected_summary_json`.
#[must_use]
pub fn answer_matches(expected_summary_json: &str, answer: &WireResponse) -> bool {
    answer.report.summary().to_json().to_string_compact() == expected_summary_json
}

/// Re-simulates the window's distinct cells (all of them, or a seeded
/// sample of `scale.verify_sample`) on an in-process `GemmServer` at the
/// shards' configuration, and returns how many answers were wrong.
///
/// # Errors
///
/// Harness failures: the in-process server could not be built or failed.
pub fn verify(window: &Window, scale: &Scale, seed: u64) -> Result<(u64, usize), BenchError> {
    let mut records: Vec<&CellRecord> = window.cells.values().collect();
    if records.len() > scale.verify_sample {
        Rng::new(seed, 0xC0DE).shuffle(&mut records);
        records.truncate(scale.verify_sample);
    }
    let designs = designs();
    let server = GemmServer::new(ServeConfig::default(), &designs)?;
    let mut wrong = 0;
    for record in &records {
        let local = server
            .submit(GemmRequest::new(
                designs[record.design].clone(),
                record.layer.clone(),
            ))?
            .wait()?;
        let expected = local.report.summary().to_json().to_string_compact();
        if !answer_matches(&expected, &record.response) {
            wrong += record.count;
        }
    }
    server.shutdown();
    Ok((wrong, records.len()))
}

/// Requests per slice of the window's completions.
const SLICE: usize = 1000;

/// The window's completions in time order, cut into consecutive slices of
/// [`SLICE`] requests: returns the median slice duration, the median of
/// the slices' own p99 latencies (each slice holds ten samples beyond its
/// p99), and the number of slices. A host stall that hits a few slices
/// moves neither median. A window of fewer than [`SLICE`] completions is
/// one slice, its duration scaled to [`SLICE`] requests and its tail the
/// highest percentile the sample supports; a ragged last slice is dropped.
fn slice_medians(window: &Window) -> (f64, f64, usize) {
    let mut done: Vec<(f32, f32)> = window
        .finishes
        .iter()
        .copied()
        .zip(window.latencies.iter().copied())
        .collect();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut durations, mut tails) = (Vec::new(), Vec::new());
    let mut start = 0.0;
    for slice in done.chunks(SLICE) {
        if slice.len() < SLICE && !durations.is_empty() {
            break;
        }
        let end = f64::from(slice[slice.len() - 1].0);
        durations.push((end - start) * SLICE as f64 / slice.len() as f64);
        start = end;
        let mut latencies: Vec<f64> = slice.iter().map(|&(_, l)| f64::from(l)).collect();
        latencies.sort_by(f64::total_cmp);
        tails.push(util::supported_tail(&latencies).0);
    }
    let slices = durations.len();
    (
        util::median(&mut durations),
        util::median(&mut tails),
        slices,
    )
}

/// Runs a tier workload.
///
/// # Errors
///
/// Harness failures (bind, verification server).
pub fn run(options: &Options) -> Result<Outcome, BenchError> {
    let scale = options.scale;
    let mut out = Outcome::default();

    let repeats = if options.trace {
        1
    } else {
        scale.setup_repeats.max(1)
    };
    let mut setups = Vec::new();
    let mut tier = None;
    for _ in 0..repeats {
        if let Some(previous) = tier.take() {
            Tier::down(previous);
        }
        let start = Instant::now();
        tier = Some(Tier::up()?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let tier = tier.expect("at least one set-up");
    out.note("clients", client_count());

    if !options.trace {
        let window = drive(&tier, options, options.window, 0, None)?;
        let peak_rss = window.peak_rss_mib;
        tier.down();
        finish_answers(&mut out, &window, &scale, options.seed)?;
        let n = window.latencies.len();
        if n == 0 {
            return Err(format!(
                "no request succeeded: {}",
                window.first_error.unwrap_or_default()
            )
            .into());
        }
        let (slice_seconds, _, _) = slice_medians(&window);
        let mut latencies: Vec<f64> = window.latencies.iter().map(|&s| f64::from(s)).collect();
        let wall = window.finishes.iter().copied().fold(0.0, f32::max);
        out.metric("setup_s", util::median(&mut setups));
        out.metric("eval_s", slice_seconds);
        out.metric("req_per_s", n as f64 / f64::from(wall));
        out.metric("p50_ms", util::median(&mut latencies) * 1e3);
        out.metric("peak_rss_mb", peak_rss);
        out.metric("success_rate", out.success_rate());
        out.note(
            "p50_ms",
            format!("{{\"percentile\": 50, \"samples\": {n}}}"),
        );
        out.note("setups", setups.len());
        return Ok(out);
    }

    // Traced run: untraced, traced and untraced windows of equal length
    // (the untraced ones bracket the traced one so warming does not pass
    // for tracing overhead), then the layer probes.
    let log = SpanLog::new();
    let third = options.window / 3;
    let allocs_before = util::allocations();
    let mut untraced = drive(&tier, options, third, 0, None)?;
    let allocs = util::allocations() - allocs_before;
    let allocs_per_req = allocs as f64 / untraced.attempted.max(1) as f64;
    let cache0 = tier.shard_cache();
    let router0 = tier.router.stats();
    let traced = drive(&tier, options, third, 1, Some(&log))?;
    let cache1 = tier.shard_cache();
    let router1 = tier.router.stats();
    untraced.absorb(drive(&tier, options, third, 2, None)?);

    let probes = probe::Probes::new(&log);
    let cells = sample_cells(options.workload, &scale, options.seed, scale.probe_cells);
    probes.core_layers(&mut out, &cells, ServeConfig::default().matmul_cap)?;
    let (probe_clients, probe_answers) =
        probes.net_layers(&mut out, &tier, &cells, scale.probe_iters)?;
    let responses: Vec<WireResponse> = traced
        .cells
        .values()
        .map(|record| record.response.clone())
        .chain(probe_answers)
        .take(4 * scale.probe_cells)
        .collect();
    probes.codec_layers(&mut out, &responses, scale.probe_iters)?;
    probes.serve_replay(&mut out, options, third.min(Duration::from_secs(2)))?;
    tier.down();
    log.write_jsonl(&crate::spans_path(options.workload))?;

    let (_, slice_p99, slices) = slice_medians(&untraced);
    out.metric("p99_ms", slice_p99 * 1e3);
    out.note(
        "p99_ms",
        format!(
            "{{\"percentile\": 99, \"samples_per_slice\": {}, \"slices\": {slices}, \"statistic\": \"median over slices\"}}",
            SLICE.min(untraced.latencies.len())
        ),
    );
    let routed =
        (router1.cache_hits + router1.cache_misses) - (router0.cache_hits + router0.cache_misses);
    out.metric(
        "router.hit_rate",
        (router1.cache_hits - router0.cache_hits) as f64 / routed.max(1) as f64,
    );
    out.metric(
        "router.window_blocked",
        (router1.window_blocked - router0.window_blocked) as f64,
    );
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    out.metric(
        "runner.hit_rate",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
    );
    out.metric(
        "runner.evictions",
        (cache1.evictions - cache0.evictions) as f64,
    );
    out.metric(
        "client.retries",
        (untraced.client.retries + traced.client.retries + probe_clients.retries) as f64,
    );
    out.metric(
        "client.connects",
        (untraced.client.connects + traced.client.connects + probe_clients.connects) as f64,
    );
    out.metric("allocs_per_req", allocs_per_req);
    out.metric(
        "trace_overhead_frac",
        traced.mean_latency() / untraced.mean_latency() - 1.0,
    );
    out.note(
        "router_split",
        format!(
            "{{\"hit\": {}, \"miss\": {}, \"unsplit\": {}}}",
            traced.split[0], traced.split[1], traced.split[2]
        ),
    );
    out.note("shard_lookups", lookups);
    let mut both = untraced;
    both.absorb(traced);
    finish_answers(&mut out, &both, &scale, options.seed)?;
    Ok(out)
}

/// Folds a window's answer checks into `out`: per-request failures plus
/// the in-process re-simulation.
fn finish_answers(
    out: &mut Outcome,
    window: &Window,
    scale: &Scale,
    seed: u64,
) -> Result<(), BenchError> {
    let (wrong, verified) = verify(window, scale, seed)?;
    out.attempted = window.attempted;
    out.failed = window.failed + wrong;
    out.note("kept_cells", window.cells.len());
    out.note("verified_cells", verified);
    if let Some(error) = &window.first_error {
        out.note("first_error", format!("{:?}", error));
    }
    Ok(())
}
