//! Serving-layer tour: stand up a [`GemmServer`] over two design points,
//! push a burst of mixed GEMM traffic through it, and inspect the latency
//! breakdown and the bounded-LRU cache that lets equal shapes share one
//! simulation.
//!
//! Run with: `cargo run --release --example serving`

use rasa::prelude::*;
use rasa::sim::serve::{GemmRequest, GemmServer, LatencySummary, ServeConfig};
use rasa::sim::ToJson;
use rasa::workloads::TrafficGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------
    // 1. A server over two designs. It owns no thread: each request is
    //    answered on the submitting thread, through one bounded LRU
    //    cache of memoized simulation cells.
    // ---------------------------------------------------------------
    let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
    let server = GemmServer::new(
        ServeConfig {
            cache_capacity: 16,
            matmul_cap: Some(512),
        },
        &designs,
    )?;
    println!(
        "serving {} designs (cache capacity {})",
        server.designs().len(),
        server.cache_stats().capacity
    );

    // ---------------------------------------------------------------
    // 2. A deterministic burst: Zipf-skewed traffic over the DLRM FC
    //    layers at three batch sizes, alternating between the designs.
    // ---------------------------------------------------------------
    let layers = rasa::workloads::dlrm_layers();
    let mut traffic = TrafficGenerator::new(&layers, &[1, 16, 256], 7).expect("non-empty universe");
    let requests: Vec<GemmRequest> = (0..48)
        .map(|i| GemmRequest::new(designs[i % designs.len()].clone(), traffic.next_request()))
        .collect();
    let responses = server.run_batch(requests)?;

    // ---------------------------------------------------------------
    // 3. What did serving cost? End-to-end latency percentiles plus the
    //    cache counters (each hit reuses a cell an earlier request with
    //    the same shape simulated).
    // ---------------------------------------------------------------
    let latencies: Vec<f64> = responses.iter().map(|r| r.latency.total_seconds).collect();
    let summary = LatencySummary::from_samples(&latencies).expect("non-empty");
    println!(
        "48 requests served: p50 {:.3} ms, p99 {:.3} ms",
        summary.p50_seconds * 1e3,
        summary.p99_seconds * 1e3
    );
    let cache = server.cache_stats();
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {}/{} resident",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.evictions,
        cache.entries,
        cache.capacity
    );
    println!("stats as JSON: {}", server.stats().to_json());

    // A speedup spot-check straight from the served reports: the same
    // workload on both designs.
    let baseline = responses
        .iter()
        .find(|r| r.report.design == "BASELINE")
        .expect("baseline response");
    let rasa = responses
        .iter()
        .find(|r| {
            r.report.design == "RASA-DMDB-WLS" && r.report.workload == baseline.report.workload
        })
        .expect("matching RASA response");
    println!(
        "{}: RASA-DMDB-WLS speedup over baseline = {:.2}x",
        baseline.report.workload,
        rasa.report.speedup_vs(&baseline.report)
    );

    server.shutdown();
    Ok(())
}
