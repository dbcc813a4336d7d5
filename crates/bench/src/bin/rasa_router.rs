//! `rasa-router` — the rendezvous-hashing front of the distributed
//! serving tier.
//!
//! Binds a frame server (see `docs/WIRE_PROTOCOL.md`) and forwards every
//! request to the home shard of its route key (the design name and the
//! lowered shape the client sent), with dead-shard failover
//! (see [`rasa_sim::net::Router`]). Its event-loop workers bound the
//! requests in flight; the rest wait in the loop's queue. Shard backends
//! are passed as repeated `--shard ADDR` flags in shard-id order. The
//! router holds no shard configuration: the matmul cap is the shards'
//! business alone.
//!
//! Like `rasa-shardd`, the process prints `LISTENING <addr>` as its first
//! stdout line and runs until stdin reaches EOF.

use rasa_sim::net::{Router, RouterConfig};
use std::io::{Read, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("rasa-router");
    if options.shard_addrs.is_empty() {
        eprintln!("rasa-router: no shard backends; pass --shard ADDR at least once");
        std::process::exit(2);
    }
    let config = RouterConfig {
        result_cache_capacity: options.router_cache,
    };
    let router = Router::bind(&options.listen, &options.shard_addrs, config)?;
    let addr = router
        .local_addr()
        .expect("bind always attaches a listener");

    println!("LISTENING {addr}");
    std::io::stdout().flush()?;

    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    let stats = router.stats();
    eprintln!(
        "rasa-router routed={} failovers={} dead_marked={} cache_hits={} cache_misses={} per_shard={:?}",
        stats.routed,
        stats.failovers,
        stats.dead_marked,
        stats.cache_hits,
        stats.cache_misses,
        stats.per_shard,
    );
    router.shutdown();
    Ok(())
}
