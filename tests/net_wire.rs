//! Cross-crate checks of the networked serving tier through the public
//! facade: property tests of the framed wire protocol, rendezvous
//! routing, and a loopback shard/router/client integration proving
//! distributed answers are byte-identical to in-process serving — the
//! wire adds transport, never meaning.

use proptest::prelude::*;
use rasa::prelude::*;
use rasa::sim::net::hash::{preference_order, ring_point};
use rasa::sim::net::{
    AdmissionControl, ErrorCode, Frame, FrameDecoder, FrameKind, NetError, RouterConfig,
    ShardConfig, WireFailure, WireResponse, MAX_FRAME_LEN, WIRE_VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn small_layer(m: usize, k: usize, n: usize) -> LayerSpec {
    LayerSpec::fc(format!("GEMM-{m}x{k}x{n}"), m, k, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any request survives encode → decode bit-exactly, including through
    /// a buffer with trailing garbage (the decoder reports the consumed
    /// length, which is how the stream reader splits back-to-back frames).
    #[test]
    fn requests_round_trip_through_the_wire(
        id in any::<u64>(),
        m in 1usize..96,
        k in 1usize..96,
        n in 1usize..96,
        design_index in 0usize..2,
        garbage in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let design = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()][design_index].clone();
        let request = WireRequest::new(id, design.name(), small_layer(m, k, n));
        let frame = Frame::json(FrameKind::Request, &request.to_json());
        let mut bytes = frame.encode();
        let frame_len = bytes.len();
        bytes.extend_from_slice(&garbage);

        let (decoded, consumed) = Frame::decode(&bytes).expect("self-encoded frame decodes");
        prop_assert_eq!(consumed, frame_len);
        let reparsed = WireRequest::from_json(&decoded.payload_json().expect("payload is JSON"))
            .expect("payload decodes as a request");
        prop_assert_eq!(reparsed, request);
    }

    /// Corrupting the version byte is always rejected, and truncating a
    /// valid frame anywhere never panics — it asks for more bytes.
    #[test]
    fn corrupt_and_truncated_frames_are_rejected(
        id in any::<u64>(),
        version in 2u8..255,
        cut in 0usize..6,
    ) {
        let failure = WireFailure::new(id, ErrorCode::Internal, "x");
        let mut bytes = Frame::json(FrameKind::Error, &failure.to_json()).encode();

        let truncated = Frame::decode(&bytes[..bytes.len().saturating_sub(cut + 1)]);
        prop_assert!(truncated.is_err(), "truncated frame must not decode");

        bytes[4] = version; // the version byte follows the 4-byte length
        match Frame::decode(&bytes) {
            Err(NetError::BadVersion { got }) => prop_assert_eq!(got, version),
            other => prop_assert!(false, "expected BadVersion, got {:?}", other.map(|_| ())),
        }
    }

    /// The incremental decoder is split-point-invariant: a multi-frame
    /// byte stream chopped at arbitrary boundaries (including mid-header
    /// and mid-payload) decodes to exactly the frames the one-shot parser
    /// sees, in order — the invariant the readiness event loop rests on,
    /// since TCP readiness events deliver bytes at arbitrary boundaries.
    #[test]
    fn incremental_decoder_matches_one_shot_parser_at_any_split(
        id in any::<u64>(),
        m in 1usize..64,
        k in 1usize..64,
        n in 1usize..64,
        message_len in 0usize..48,
        chunk_sizes in proptest::collection::vec(1usize..17, 4..64),
    ) {
        // Three frames of different kinds and payload sizes, including an
        // empty-payload health probe (a frame that completes at its
        // header, the edge the incremental path must get right).
        let request = WireRequest::new(id, "BASELINE", small_layer(m, k, n));
        let failure = WireFailure::new(id, ErrorCode::Internal, "e".repeat(message_len));
        let frames = [
            Frame::json(FrameKind::Request, &request.to_json()),
            Frame::health_probe(),
            Frame::json(FrameKind::Error, &failure.to_json()),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&frame.encode());
        }

        // One-shot reference: decode the concatenated stream whole.
        let mut expected = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let (frame, consumed) = Frame::decode(&stream[offset..]).expect("whole-stream decode");
            expected.push(frame);
            offset += consumed;
        }

        // Incremental: the same bytes in arbitrary-size chunks (cycling
        // the generated sizes until the stream is exhausted).
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut chunk_index = 0;
        while offset < stream.len() {
            let size = chunk_sizes[chunk_index % chunk_sizes.len()].min(stream.len() - offset);
            chunk_index += 1;
            let chunk = &stream[offset..offset + size];
            offset += size;
            let mut fed = 0;
            while fed < chunk.len() {
                let (consumed, frame) = decoder.feed(&chunk[fed..]).expect("valid stream");
                fed += consumed;
                if let Some(frame) = frame {
                    decoded.push(frame);
                } else {
                    prop_assert_eq!(fed, chunk.len(), "no frame means the chunk was drained");
                }
            }
        }
        prop_assert!(!decoder.is_mid_frame(), "clean streams leave no partial frame");
        prop_assert_eq!(decoded, expected);
    }

    /// Rendezvous routing is deterministic and total: the same request
    /// always ranks the shards the same way, on any router over the same
    /// shard count, the order visits every shard exactly once, and it
    /// starts at the router's home shard.
    #[test]
    fn rendezvous_order_is_deterministic(
        shards in 1usize..9,
        m in 1usize..96,
        design_index in 0usize..2,
    ) {
        let design = ["BASELINE", "RASA-DMDB-WLS"][design_index];
        let request = WireRequest::new(0, design, small_layer(m, 64, 32));
        let point = request.route_key().hash64();
        let order = preference_order(point, shards);
        prop_assert_eq!(&preference_order(point, shards), &order, "routing must be stable");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..shards as u32).collect::<Vec<_>>());

        // Routers hold no placement state: two of them agree, and their
        // home shard is the order's first entry. No shard is dialled.
        let addrs: Vec<String> = (0..shards).map(|s| format!("127.0.0.1:{}", 1 + s)).collect();
        for _ in 0..2 {
            let router = Router::new(&addrs, RouterConfig::default()).unwrap();
            prop_assert_eq!(router.home_shard(&request).unwrap(), order[0]);
        }
    }
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    // A header claiming a body just over the cap must fail fast.
    let body_len = (MAX_FRAME_LEN + 3) as u32;
    let mut bytes = body_len.to_be_bytes().to_vec();
    bytes.extend_from_slice(&[WIRE_VERSION, 0x01]);
    match Frame::decode(&bytes) {
        Err(NetError::FrameTooLarge { len, max }) => {
            assert_eq!(len, MAX_FRAME_LEN + 1);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected FrameTooLarge, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn killing_a_shard_moves_only_its_keys() {
    let orders: Vec<Vec<u32>> = (0..400)
        .map(|i| preference_order(ring_point(format!("cell-{i}").as_bytes()), 4))
        .collect();
    let dead = orders[0][0];
    for order in &orders {
        let rerouted = order.iter().copied().find(|&shard| shard != dead);
        if order[0] == dead {
            assert_eq!(
                rerouted,
                Some(order[1]),
                "a dead home's keys go to their second entry"
            );
        } else {
            assert_eq!(rerouted, Some(order[0]), "living shards keep their keys");
        }
    }
}

/// The tentpole claim, end to end over real sockets: a router spread over
/// two shards serves the same bytes as a plain in-process `GemmServer`,
/// and keeps serving (consistently) after one shard dies mid-test.
#[test]
fn distributed_serving_is_byte_identical_and_survives_a_shard_death() {
    let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
    let serve = ServeConfig {
        cache_capacity: 16,
        matmul_cap: Some(96),
    };
    let shard_a = rasa::sim::net::ShardServer::bind(
        "127.0.0.1:0",
        ShardConfig { shard_id: 0, serve },
        &designs,
    )
    .unwrap();
    let shard_b = rasa::sim::net::ShardServer::bind(
        "127.0.0.1:0",
        ShardConfig { shard_id: 1, serve },
        &designs,
    )
    .unwrap();
    let addrs = vec![
        shard_a.local_addr().to_string(),
        shard_b.local_addr().to_string(),
    ];
    let router = Router::new(
        &addrs,
        RouterConfig {
            inflight_per_shard: 4,
            admission: AdmissionControl::Block,
            // The post-kill pass must actually reach the shards to prove
            // failover re-simulation; a result cache would answer the
            // replays without touching a socket.
            result_cache_capacity: 0,
        },
    )
    .unwrap();

    // Reference server: the same designs and cap, in process.
    let reference = GemmServer::new(serve, &designs).unwrap();

    // Grow the layer set until both shards own at least one key, so the
    // post-kill pass is guaranteed to hit the dead shard and exercise
    // failover (key placement is deterministic but shape-dependent).
    let mut layers: Vec<LayerSpec> = Vec::new();
    let mut owners = [false, false];
    for i in 0.. {
        let layer = small_layer(32 + 16 * i, 48, 32);
        let design = &designs[layers.len() % designs.len()];
        let request = WireRequest::new(0, design.name(), layer.clone());
        owners[router.home_shard(&request).unwrap() as usize] = true;
        layers.push(layer);
        if layers.len() >= 6 && owners == [true, true] {
            break;
        }
        assert!(i < 64, "64 shapes never landed on both shards");
    }
    let mut first_pass: Vec<WireResponse> = Vec::new();
    for (i, layer) in layers.iter().enumerate() {
        let design = &designs[i % designs.len()];
        let request = WireRequest::new(i as u64, design.name(), layer.clone());
        let response = router.route(&request).unwrap();
        assert_eq!(response.id, i as u64);

        let direct = reference
            .submit(GemmRequest::new(design.clone(), layer.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            response.report.summary().to_json().to_string(),
            direct.report.summary().to_json().to_string(),
            "distributed summary JSON must be byte-identical for {}",
            layer.name(),
        );
        first_pass.push(response);
    }

    // Kill one shard; every key must still be served, and re-simulated
    // cells must reproduce the identical bytes on the surviving shard.
    shard_a.shutdown();
    for (i, layer) in layers.iter().enumerate() {
        let design = &designs[i % designs.len()];
        let request = WireRequest::new(100 + i as u64, design.name(), layer.clone());
        let response = router.route(&request).unwrap();
        assert_eq!(response.shard, 1, "only shard 1 is left alive");
        assert_eq!(
            response.report.summary().to_json().to_string(),
            first_pass[i].report.summary().to_json().to_string(),
            "failover must not change the answer for {}",
            layer.name(),
        );
    }
    let stats = router.stats();
    assert_eq!(stats.routed, 2 * layers.len() as u64);
    assert!(stats.dead_marked >= 1, "the dead shard must be noticed");

    reference.shutdown();
    router.shutdown();
    shard_b.shutdown();
}

/// A corrupt byte stream pushed at a real server over a real socket: the
/// server answers with a typed `BadRequest` error frame and then closes
/// the connection — a desynced stream must never serve another request.
#[test]
fn corrupt_streams_are_answered_then_closed() {
    let designs = [DesignPoint::baseline()];
    let serve = ServeConfig {
        cache_capacity: 4,
        matmul_cap: Some(64),
    };
    let shard = rasa::sim::net::ShardServer::bind(
        "127.0.0.1:0",
        ShardConfig { shard_id: 0, serve },
        &designs,
    )
    .unwrap();

    // Two distinct corruptions: a bad version byte, and a declared body
    // length past the frame cap (rejected before any payload allocation).
    let bad_version = {
        let mut bytes = Frame::health_probe().encode();
        bytes[4] = 0x7f;
        bytes
    };
    let oversized = {
        let mut bytes = ((MAX_FRAME_LEN + 3) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[WIRE_VERSION, 0x01]);
        bytes
    };
    for corrupt in [bad_version, oversized] {
        let mut stream = TcpStream::connect(shard.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&corrupt).unwrap();
        let reply = Frame::read_from(&mut stream)
            .unwrap_or_else(|error| panic!("expected an error frame before close, got {error}"));
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        // ...then EOF: the server must hang up after the error frame.
        match Frame::read_from(&mut stream) {
            Err(NetError::Io { kind, .. }) => {
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected EOF after the error frame, got {other:?}"),
        }
    }
    shard.shutdown();
}

/// High-fanout loopback: one shard's event loop holds several hundred
/// concurrent connections at once — far beyond what thread-per-connection
/// could sustain cheaply — and every one of them gets a correct answer
/// while all the others stay open.
#[test]
fn one_event_loop_sustains_hundreds_of_concurrent_connections() {
    const CONNECTIONS: usize = 300;
    let designs = [DesignPoint::baseline()];
    let serve = ServeConfig {
        cache_capacity: 8,
        matmul_cap: Some(64),
    };
    let shard = rasa::sim::net::ShardServer::bind(
        "127.0.0.1:0",
        ShardConfig { shard_id: 0, serve },
        &designs,
    )
    .unwrap();

    // Open every connection before exchanging a single frame, so the full
    // fanout is concurrently resident in the event loop's slab.
    let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|i| {
            let stream = TcpStream::connect(shard.local_addr())
                .unwrap_or_else(|e| panic!("connection {i}: {e}"));
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream
        })
        .collect();

    // A health probe on every connection: each must be answered while the
    // other 299 stay open and idle.
    for (i, stream) in streams.iter_mut().enumerate() {
        Frame::health_probe().write_to(stream).unwrap();
        let reply = Frame::read_from(stream).unwrap_or_else(|e| panic!("connection {i}: {e}"));
        assert_eq!(reply.kind, FrameKind::Health);
    }

    // Real simulation traffic on a sample of the fanout, interleaved, to
    // prove the loop still dispatches work amid hundreds of idle peers.
    let layer = small_layer(32, 48, 32);
    for (i, stream) in streams.iter_mut().enumerate().step_by(29) {
        let request = WireRequest::new(i as u64, "BASELINE", layer.clone());
        Frame::json(FrameKind::Request, &request.to_json())
            .write_to(stream)
            .unwrap();
        let reply = Frame::read_from(stream).unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        let response = WireResponse::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(response.id, i as u64);
    }

    drop(streams);
    shard.shutdown();
}
