//! End-to-end smoke of the serving layer through the public facade: a
//! multi-client burst against a `GemmServer` with a deliberately tiny LRU
//! cache, cross-checked against direct simulation, plus a full JSON
//! round-trip of the served reports.

use rasa::prelude::*;
use rasa::sim::serve::{GemmRequest, GemmServer, ServeConfig};
use rasa::workloads::{LayerSpec, TrafficGenerator};

fn serving_designs() -> Vec<DesignPoint> {
    vec![DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()]
}

#[test]
fn served_reports_match_direct_simulation() {
    let designs = serving_designs();
    let server = GemmServer::new(
        ServeConfig {
            cache_capacity: 32,
            matmul_cap: Some(96),
        },
        &designs,
    )
    .unwrap();
    let layer = LayerSpec::fc("GEMM-160", 160, 160, 160);
    let responses = server
        .run_batch(
            designs
                .iter()
                .map(|design| GemmRequest::new(design.clone(), layer.clone()))
                .collect(),
        )
        .unwrap();
    server.shutdown();

    for (design, response) in designs.iter().zip(&responses) {
        let direct = Simulator::new(design.clone())
            .unwrap()
            .with_matmul_cap(Some(96))
            .unwrap()
            .run_layer(&layer)
            .unwrap();
        assert_eq!(
            *response.report,
            direct,
            "served result must equal direct simulation for {}",
            design.name()
        );
    }
    // And the architectural claim survives the serving path: RASA beats
    // the baseline on the same GEMM.
    assert!(responses[1].report.core_cycles < responses[0].report.core_cycles);
}

#[test]
fn concurrent_clients_with_tiny_cache_stay_consistent() {
    let designs = serving_designs();
    let server = GemmServer::new(
        ServeConfig {
            // Tiny on purpose: force LRU churn under concurrent traffic.
            cache_capacity: 4,
            matmul_cap: Some(64),
        },
        &designs,
    )
    .unwrap();
    let layers = rasa::workloads::dlrm_layers();

    std::thread::scope(|scope| {
        for client in 0..4u64 {
            let server = &server;
            let layers = &layers;
            let designs = &designs;
            scope.spawn(move || {
                let mut traffic = TrafficGenerator::new(layers, &[1, 8], client).unwrap();
                for i in 0..12 {
                    let design = designs[(client as usize + i) % designs.len()].clone();
                    let workload = traffic.next_request();
                    let response = server
                        .submit(GemmRequest::new(design.clone(), workload.clone()))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(response.report.design, design.name());
                    assert_eq!(response.report.workload, workload.name());
                    assert!(response.report.core_cycles > 0);
                }
            });
        }
    });

    let cache = server.cache_stats();
    let stats = server.stats();
    assert_eq!(stats.submitted, 48);
    assert_eq!(stats.completed, 48);
    assert!(cache.entries <= 4, "LRU bound violated: {}", cache.entries);
    assert_eq!(cache.capacity, 4);
    assert!(
        cache.evictions > 0,
        "12 distinct cells through 4 slots must evict"
    );
    assert_eq!(cache.hits + cache.misses, 48);
}

#[test]
fn served_report_json_round_trips_bytewise() {
    let server = GemmServer::new(
        ServeConfig {
            cache_capacity: 8,
            matmul_cap: Some(64),
        },
        &serving_designs(),
    )
    .unwrap();
    let layer = LayerSpec::fc("GEMM-96", 96, 96, 96);
    let response = server
        .submit(GemmRequest::new(DesignPoint::rasa_dmdb_wls(), layer))
        .unwrap()
        .wait()
        .unwrap();
    let cache = server.cache_stats();
    server.shutdown();

    // Report -> JSON text -> report is lossless…
    let text = response.report.to_json().to_string_pretty();
    let reloaded = SimReport::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
    assert_eq!(reloaded, *response.report);
    // …and text -> value -> text is byte-identical (the CI diff property).
    assert_eq!(JsonValue::parse(&text).unwrap().to_string_pretty(), text);

    let stats_text = cache.to_json().to_string_pretty();
    let stats_back = CacheStats::from_json(&JsonValue::parse(&stats_text).unwrap()).unwrap();
    assert_eq!(stats_back, cache);
}
