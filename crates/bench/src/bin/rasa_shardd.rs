//! `rasa-shardd` — one TCP shard worker of the distributed serving tier.
//!
//! Wraps a [`rasa_sim::serve::GemmServer`] (all eight paper designs) in a
//! [`rasa_sim::net::ShardServer`], which simulates each request on the
//! follower thread that read it (one follower per available core). It
//! runs until stdin reaches EOF, so a parent process that spawned it with
//! a piped stdin stops it by closing the pipe (or by dying — the pipe
//! closes either way, so no orphaned worker outlives the harness).
//!
//! The first stdout line is `LISTENING <addr>` with the resolved address
//! (bind with `--listen 127.0.0.1:0` to let the OS pick a port). The
//! `serve_soak --distributed` harness scrapes this line; nothing else is
//! printed to stdout. A closing health summary goes to stderr.
//!
//! Run `rasa-shardd --help` for the flag table; the wire format is
//! specified in `docs/WIRE_PROTOCOL.md`.

use rasa_sim::net::{ShardConfig, ShardServer};
use rasa_sim::serve::ServeConfig;
use rasa_sim::DesignPoint;
use std::io::{Read, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = rasa_bench::BinOptions::from_env_or_usage("rasa-shardd");
    let config = ShardConfig {
        shard_id: options.shard_id,
        serve: ServeConfig {
            cache_capacity: options.cache_capacity,
            matmul_cap: options.matmul_cap,
        },
    };
    let designs = DesignPoint::paper_designs();
    let shard = ShardServer::bind(&options.listen, config, &designs)?;

    println!("LISTENING {}", shard.local_addr());
    std::io::stdout().flush()?;

    // Serve until the parent closes our stdin (or exits, which closes it
    // too). The read blocks without burning CPU.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    let health = shard.health();
    eprintln!(
        "rasa-shardd shard={} served={} cache hits={} misses={} evictions={}",
        health.shard, health.served, health.cache.hits, health.cache.misses, health.cache.evictions,
    );
    shard.shutdown();
    Ok(())
}
