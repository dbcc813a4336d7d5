//! Soak-tests the GEMM serving layer: N closed-loop clients drive a
//! deterministic seeded mix of FC-layer shapes through a [`GemmServer`],
//! and the harness reports throughput, p50/p99 latency, cache
//! hit/eviction statistics and the time spent in each [`rasa_sim::prof`]
//! stage.
//!
//! Run with, e.g.:
//!
//! ```sh
//! cargo run --release -p rasa-bench --bin serve_soak -- \
//!     --clients 8 --requests 32 --cache-capacity 24 \
//!     --cap 256 --json soak.json
//! ```
//!
//! With `--distributed` the soak instead spawns a `rasa-router` and
//! `--shards N` `rasa-shardd` worker processes (the binaries must sit next
//! to `serve_soak`, i.e. build the full suite first) and drives the same
//! Zipf-skewed traffic through the wire protocol. `--kill-worker`
//! additionally kills one worker mid-run to prove the router's failover
//! loses zero requests. Every distinct simulated cell is then re-run on an
//! in-process [`GemmServer`] and its [`SimSummary`] JSON must match the
//! distributed answer byte for byte.
//!
//! The `--json` file is round-trip verified before it is written: the
//! serialized document must reload and re-serialize to byte-identical
//! output (the property the CI regression harness relies on).

use rasa_bench::BinOptions;
use rasa_sim::net::{ClientStats, NetClient, RouterHealth, WireRequest};
use rasa_sim::serve::{GemmRequest, GemmServer, LatencySummary, ServeConfig};
use rasa_sim::{prof, DesignPoint, FromJson, JsonValue, SimSummary, ToJson};
use rasa_workloads::{bert_layers, dlrm_layers, LayerSpec, TrafficGenerator};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One client's view of a completed in-process request.
struct Completion {
    design: String,
    workload: String,
    total_seconds: f64,
    simulate_seconds: f64,
    summary: SimSummary,
}

/// One client's view of a completed distributed request. The wire carries
/// no simulate time, so only the client-observed total latency is
/// available; the serialized summary is kept for the byte-identity
/// check against in-process serving.
struct DistCompletion {
    design: String,
    workload: String,
    layer: LayerSpec,
    total_seconds: f64,
    summary: SimSummary,
    summary_json: String,
}

/// A spawned `rasa-shardd` / `rasa-router` child. The child runs until its
/// stdin pipe closes ([`Daemon::stop`]) or it is killed outright
/// ([`Daemon::kill`], the failover drill); `Drop` kills as a backstop so
/// an error path never leaks worker processes.
struct Daemon {
    name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Daemon {
    /// Spawns `exe args...` and scrapes the `LISTENING <addr>` banner the
    /// serving daemons print as their first stdout line.
    fn spawn(
        exe: &Path,
        name: &str,
        args: &[String],
    ) -> Result<Daemon, Box<dyn std::error::Error>> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|error| format!("{name}: failed to spawn {}: {error}", exe.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner)?;
        let Some(addr) = banner.trim().strip_prefix("LISTENING ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(
                format!("{name}: expected 'LISTENING <addr>' banner, got {banner:?}").into(),
            );
        };
        Ok(Daemon {
            name: name.to_string(),
            addr: addr.to_string(),
            child,
            stdin,
        })
    }

    /// Hard-kills the child (the mid-run failover drill).
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful shutdown: closing the stdin pipe is the daemons' stop
    /// signal, so they drain, print their stderr summary and exit.
    fn stop(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Resolves a sibling binary of the running `serve_soak` executable.
fn sibling(name: &str) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or("current executable has no parent directory")?;
    let path = dir.join(name);
    if !path.exists() {
        return Err(format!(
            "{} not found next to serve_soak; build the binary suite first: cargo build --release -p rasa-bench --bins",
            path.display()
        )
        .into());
    }
    Ok(path)
}

/// The serving parameters shared by this soak, the spawned daemons and the
/// in-process verification server.
fn serve_config(options: &BinOptions) -> ServeConfig {
    ServeConfig {
        cache_capacity: options.cache_capacity,
        matmul_cap: options.matmul_cap,
    }
}

/// The `(layer, batch)` request universe: FC layers only, because the
/// serving mix re-batches them freely and they are the latency-critical
/// layers of the paper's recommendation/NLP story.
fn traffic_universe() -> (Vec<LayerSpec>, [usize; 3]) {
    let layers: Vec<LayerSpec> = dlrm_layers().into_iter().chain(bert_layers()).collect();
    (layers, [1usize, 8, 64])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("serve_soak");
    if options.clients == 0 || options.requests_per_client == 0 {
        return Err("--clients and --requests must both be at least 1".into());
    }
    if options.distributed {
        run_distributed(&options)
    } else {
        run_local(&options)
    }
}

fn run_local(options: &BinOptions) -> Result<(), Box<dyn std::error::Error>> {
    let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
    let server = GemmServer::new(serve_config(options), &designs)?;

    let (layers, batch_sizes) = traffic_universe();

    println!(
        "serve_soak: {} clients x {} requests over {} shapes x {} designs; cache capacity {}, seed {}",
        options.clients,
        options.requests_per_client,
        layers.len() * batch_sizes.len(),
        designs.len(),
        options.cache_capacity,
        options.seed,
    );

    prof::reset();
    prof::set_enabled(true);
    let soak_start = Instant::now();
    let completions: Vec<Completion> = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for client in 0..options.clients {
            let server = &server;
            let layers = &layers;
            let designs = &designs;
            clients.push(
                scope.spawn(move || -> Result<Vec<Completion>, rasa_sim::SimError> {
                    // Each client gets its own deterministic traffic stream.
                    let mut traffic =
                        TrafficGenerator::new(layers, &batch_sizes, options.seed + client as u64)
                            .expect("non-empty traffic universe");
                    let mut completions = Vec::with_capacity(options.requests_per_client);
                    for request_index in 0..options.requests_per_client {
                        let workload = traffic.next_request();
                        let design = designs[(client + request_index) % designs.len()].clone();
                        let response = server.submit(GemmRequest::new(design, workload))?.wait()?;
                        completions.push(Completion {
                            design: response.report.design.clone(),
                            workload: response.report.workload.clone(),
                            total_seconds: response.latency.total_seconds,
                            simulate_seconds: response.latency.simulate_seconds,
                            summary: response.report.summary(),
                        });
                    }
                    Ok(completions)
                }),
            );
        }
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
            .map(|all| all.into_iter().flatten().collect())
    })?;
    let wall_seconds = soak_start.elapsed().as_secs_f64();

    let serving = server.stats();
    let cache = server.cache_stats();
    server.shutdown();

    let totals: Vec<f64> = completions.iter().map(|c| c.total_seconds).collect();
    let simulates: Vec<f64> = completions.iter().map(|c| c.simulate_seconds).collect();
    let latency = LatencySummary::from_samples(&totals).expect("at least one completion");
    let simulate_latency = LatencySummary::from_samples(&simulates).expect("non-empty");
    let throughput = completions.len() as f64 / wall_seconds.max(1e-9);

    // Distinct simulated cells in deterministic (design, workload) order —
    // these numbers are seed-reproducible even though latencies are not.
    let cells: BTreeMap<(String, String), SimSummary> = completions
        .into_iter()
        .map(|c| ((c.design, c.workload), c.summary))
        .collect();

    println!(
        "completed {} requests in {:.2} s ({throughput:.0} req/s)",
        totals.len(),
        wall_seconds,
    );
    println!(
        "latency p50 {:.3} ms | p99 {:.3} ms | p99.9 {:.3} ms | max {:.3} ms (simulate p99 {:.3} ms)",
        latency.p50_seconds * 1e3,
        latency.p99_seconds * 1e3,
        latency.p999_seconds * 1e3,
        latency.max_seconds * 1e3,
        simulate_latency.p99_seconds * 1e3,
    );
    println!(
        "cache: {} hits, {} misses ({:.0}% hit rate), {} evictions, {}/{} resident",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.evictions,
        cache.entries,
        cache.capacity,
    );
    println!("{} distinct cells simulated", cells.len());
    // Wall-clock data, so it is printed but kept out of the --json document.
    let stages: Vec<String> = prof::snapshot()
        .iter()
        .map(|stage| {
            format!(
                "{} {} in {:.3} ms",
                stage.stage.name(),
                stage.count,
                stage.seconds() * 1e3
            )
        })
        .collect();
    println!("prof: {}", stages.join(", "));

    if let Some(path) = &options.json_path {
        let names: Vec<&str> = designs.iter().map(DesignPoint::name).collect();
        let document = JsonValue::object([
            ("schema", "rasa-serve-soak/1".to_json()),
            (
                "config",
                JsonValue::object([
                    ("clients", options.clients.to_json()),
                    ("requests_per_client", options.requests_per_client.to_json()),
                    ("cache_capacity", options.cache_capacity.to_json()),
                    ("matmul_cap", options.matmul_cap.to_json()),
                    ("seed", options.seed.to_json()),
                    ("designs", names.to_json()),
                ]),
            ),
            ("throughput_requests_per_second", throughput.to_json()),
            ("latency", latency.to_json()),
            ("simulate_latency", simulate_latency.to_json()),
            ("serving", serving.to_json()),
            ("cache", cache.to_json()),
            ("cells", cells.values().collect::<Vec<_>>().to_json()),
        ]);
        rasa_bench::write_verified_json(path, &document)?;
        println!("results written to {path} (round-trip verified)");
    }

    Ok(())
}

fn run_distributed(options: &BinOptions) -> Result<(), Box<dyn std::error::Error>> {
    if options.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if options.kill_worker && options.shards < 2 {
        return Err("--kill-worker needs --shards 2 or more (someone must survive)".into());
    }
    let shardd_exe = sibling("rasa-shardd")?;
    let router_exe = sibling("rasa-router")?;

    let mut serve_flags: Vec<String> = vec![
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--cache-capacity".into(),
        options.cache_capacity.to_string(),
    ];
    match options.matmul_cap {
        Some(cap) => serve_flags.extend(["--cap".into(), cap.to_string()]),
        None => serve_flags.push("--full".into()),
    }

    let mut workers = Vec::with_capacity(options.shards);
    for shard in 0..options.shards {
        let mut args = serve_flags.clone();
        args.extend(["--shard-id".into(), shard.to_string()]);
        workers.push(Daemon::spawn(
            &shardd_exe,
            &format!("rasa-shardd[{shard}]"),
            &args,
        )?);
    }
    let mut router_args: Vec<String> = vec![
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--router-cache".into(),
        options.router_cache.to_string(),
    ];
    for worker in &workers {
        router_args.extend(["--shard".into(), worker.addr.clone()]);
    }
    let router = Daemon::spawn(&router_exe, "rasa-router", &router_args)?;
    let router_addr = router.addr.clone();

    let (layers, batch_sizes) = traffic_universe();
    let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
    let total = options.clients * options.requests_per_client;

    println!(
        "serve_soak --distributed: router {router_addr} over {} shards; {} clients x {} requests over {} shapes x {} designs; seed {}{}",
        options.shards,
        options.clients,
        options.requests_per_client,
        layers.len() * batch_sizes.len(),
        designs.len(),
        options.seed,
        if options.kill_worker {
            " (killing one worker mid-run)"
        } else {
            ""
        },
    );

    // The failover drill: the designated victim is pulled from the worker
    // pool up front; a watcher thread hard-kills it once half the total
    // requests have completed. Its address stays registered with the
    // router, which must mark it dead and re-route its keys without
    // losing a single in-flight request.
    let victim = Mutex::new(if options.kill_worker {
        Some(workers.remove(0))
    } else {
        None
    });
    let completed = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let reroutes = AtomicU64::new(0);

    type ClientOutcome = Result<(Vec<DistCompletion>, ClientStats), String>;
    let soak_start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        if options.kill_worker {
            let victim = &victim;
            let completed = &completed;
            let aborted = &aborted;
            scope.spawn(move || loop {
                if aborted.load(Ordering::Relaxed) {
                    return;
                }
                if completed.load(Ordering::Relaxed) * 2 >= total {
                    if let Some(mut daemon) = victim.lock().expect("victim lock").take() {
                        let seen = completed.load(Ordering::Relaxed);
                        daemon.kill();
                        eprintln!(
                            "serve_soak: killed {} at {seen}/{total} completions ({:.2} s in)",
                            daemon.name,
                            soak_start.elapsed().as_secs_f64(),
                        );
                    }
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            });
        }
        let mut clients = Vec::new();
        for client in 0..options.clients {
            let router_addr = &router_addr;
            let layers = &layers;
            let designs = &designs;
            let completed = &completed;
            let aborted = &aborted;
            let reroutes = &reroutes;
            clients.push(scope.spawn(move || -> ClientOutcome {
                let mut net = NetClient::new(vec![router_addr.clone()]);
                let run = |net: &mut NetClient| -> Result<Vec<DistCompletion>, String> {
                    let mut traffic =
                        TrafficGenerator::new(layers, &batch_sizes, options.seed + client as u64)
                            .expect("non-empty traffic universe");
                    let mut completions = Vec::with_capacity(options.requests_per_client);
                    for request_index in 0..options.requests_per_client {
                        let workload = traffic.next_request();
                        let design = designs[(client + request_index) % designs.len()].name();
                        let id = ((client as u64) << 32) | request_index as u64;
                        let request = WireRequest::new(id, design, workload.clone());
                        let start = Instant::now();
                        // The client library already retries retryable
                        // failures with backoff; this outer loop covers
                        // the kill window, where a burst of re-routed
                        // requests can exhaust those retries while the
                        // router is still marking the shard dead. Bounded
                        // so a wedged tier fails loudly instead of
                        // hanging the soak.
                        let mut attempts = 0usize;
                        let response = loop {
                            match net.request(&request) {
                                Ok(response) => break response,
                                Err(error) if error.is_retryable() && attempts < 200 => {
                                    attempts += 1;
                                    reroutes.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                                Err(error) => {
                                    return Err(format!(
                                        "client {client} request {request_index}: {error}"
                                    ));
                                }
                            }
                        };
                        if response.id != id {
                            return Err(format!(
                                "client {client}: response id {} for request id {id}",
                                response.id
                            ));
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        let summary = response.report.summary();
                        completions.push(DistCompletion {
                            design: response.report.design.clone(),
                            workload: response.report.workload.clone(),
                            layer: workload,
                            total_seconds: start.elapsed().as_secs_f64(),
                            summary_json: summary.to_json().to_string(),
                            summary,
                        });
                    }
                    Ok(completions)
                };
                let result = run(&mut net);
                if result.is_err() {
                    aborted.store(true, Ordering::Relaxed);
                }
                result.map(|completions| (completions, net.stats()))
            }));
        }
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    let wall_seconds = soak_start.elapsed().as_secs_f64();

    let mut completions: Vec<DistCompletion> = Vec::with_capacity(total);
    let mut client_stats = ClientStats::default();
    for outcome in outcomes {
        let (batch, stats) =
            outcome.map_err(|error| format!("distributed soak failed: {error}"))?;
        completions.extend(batch);
        client_stats.completed += stats.completed;
        client_stats.retries += stats.retries;
        client_stats.connects += stats.connects;
        client_stats.failed += stats.failed;
    }

    // The zero-lost proof: every closed-loop client completed its full
    // request budget despite the mid-run kill.
    if completions.len() != total {
        return Err(format!("lost requests: {} of {total} completed", completions.len()).into());
    }
    println!(
        "zero lost requests: {total}/{total} completed in {wall_seconds:.2} s ({} library retries, {} re-route retries, {} connects)",
        client_stats.retries,
        reroutes.load(Ordering::Relaxed),
        client_stats.connects,
    );

    let totals: Vec<f64> = completions.iter().map(|c| c.total_seconds).collect();
    let latency = LatencySummary::from_samples(&totals).expect("at least one completion");
    let throughput = completions.len() as f64 / wall_seconds.max(1e-9);
    println!(
        "throughput {throughput:.0} req/s over {} concurrent client connections | latency p50 {:.3} ms | p99 {:.3} ms | p99.9 {:.3} ms | max {:.3} ms",
        options.clients,
        latency.p50_seconds * 1e3,
        latency.p99_seconds * 1e3,
        latency.p999_seconds * 1e3,
        latency.max_seconds * 1e3,
    );

    // Distinct cells in deterministic order. Cells answered by two shards
    // across the failover must agree byte for byte — shard-to-shard
    // consistency comes for free from deterministic simulation.
    let mut cells: BTreeMap<(String, String), DistCompletion> = BTreeMap::new();
    for completion in completions {
        let key = (completion.design.clone(), completion.workload.clone());
        if let Some(existing) = cells.get(&key) {
            if existing.summary_json != completion.summary_json {
                return Err(format!("shards disagree on cell ({}, {})", key.0, key.1).into());
            }
        } else {
            cells.insert(key, completion);
        }
    }

    // Probe the router once for the aggregate health picture: per-shard
    // cache churn plus the routing counters.
    let mut probe = NetClient::new(vec![router_addr]);
    let health_json = probe
        .health()
        .map_err(|error| format!("router health probe: {error}"))?;
    let health = RouterHealth::from_json(&health_json)?;
    for shard in &health.shards {
        println!(
            "shard {}: served {}, cache {} hits / {} misses / {} evictions, {}/{} resident",
            shard.shard,
            shard.served,
            shard.cache.hits,
            shard.cache.misses,
            shard.cache.evictions,
            shard.cache.entries,
            shard.cache.capacity,
        );
    }
    if !health.dead.is_empty() {
        println!("dead shards: {:?}", health.dead);
    }
    // A disabled result cache is never probed, so its counters say nothing.
    let result_cache = if options.router_cache == 0 {
        "result cache off".to_string()
    } else {
        format!(
            "result cache {} hits / {} misses ({:.0}% hit rate)",
            health.stats.cache_hits,
            health.stats.cache_misses,
            health.stats.cache_hit_rate() * 100.0,
        )
    };
    println!(
        "router: {} routed, {} failovers, {} marked dead, {result_cache}, per-shard {:?}",
        health.stats.routed,
        health.stats.failovers,
        health.stats.dead_marked,
        health.stats.per_shard,
    );
    if options.kill_worker && health.stats.dead_marked == 0 {
        println!("note: the victim died after the last request; no failover was exercised");
    }

    // Shut the tier down before the in-process verification run so the
    // soak never holds 2x the worker threads alive at once.
    router.stop();
    for worker in workers {
        worker.stop();
    }
    drop(victim);

    // The byte-identity proof: every distinct cell re-simulated on an
    // in-process server must serialize to the identical SimSummary JSON.
    let verifier = GemmServer::new(serve_config(options), &designs)?;
    let mut verified = 0usize;
    for ((design_name, workload_name), record) in &cells {
        let design = DesignPoint::by_name(design_name)
            .ok_or_else(|| format!("unknown design {design_name} in completed cell"))?;
        let response = verifier
            .submit(GemmRequest::new(design, record.layer.clone()))?
            .wait()?;
        let local_json = response.report.summary().to_json().to_string();
        if local_json != record.summary_json {
            return Err(format!(
                "cell ({design_name}, {workload_name}) differs between distributed and in-process serving:\n  distributed: {}\n  in-process:  {local_json}",
                record.summary_json,
            )
            .into());
        }
        verified += 1;
    }
    verifier.shutdown();
    println!("determinism: all {verified} distinct cells byte-identical to in-process serving");

    if let Some(path) = &options.json_path {
        let names: Vec<&str> = designs.iter().map(DesignPoint::name).collect();
        let summaries: Vec<_> = cells.values().map(|cell| &cell.summary).collect();
        let document = JsonValue::object([
            ("schema", "rasa-serve-soak-distributed/1".to_json()),
            (
                "config",
                JsonValue::object([
                    ("clients", options.clients.to_json()),
                    ("requests_per_client", options.requests_per_client.to_json()),
                    ("shards", options.shards.to_json()),
                    ("cache_capacity", options.cache_capacity.to_json()),
                    ("matmul_cap", options.matmul_cap.to_json()),
                    ("seed", options.seed.to_json()),
                    ("kill_worker", options.kill_worker.to_json()),
                    ("designs", names.to_json()),
                ]),
            ),
            ("throughput_requests_per_second", throughput.to_json()),
            ("concurrent_client_connections", options.clients.to_json()),
            ("latency", latency.to_json()),
            ("completed", total.to_json()),
            ("library_retries", client_stats.retries.to_json()),
            (
                "reroute_retries",
                reroutes.load(Ordering::Relaxed).to_json(),
            ),
            ("router", health.stats.to_json()),
            ("dead_shards", health.dead.to_json()),
            ("shard_health", health.shards.to_json()),
            ("verified_cells", verified.to_json()),
            ("cells", summaries.to_json()),
        ]);
        rasa_bench::write_verified_json(path, &document)?;
        println!("results written to {path} (round-trip verified)");
    }

    Ok(())
}
