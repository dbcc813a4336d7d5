//! Cross-crate checks of the networked serving tier through the public
//! facade: property tests of the framed wire protocol, fuzzes of the
//! request and reply decoders, rendezvous routing, and a loopback
//! shard/router/client integration proving distributed answers are
//! byte-identical to in-process serving — the wire adds transport, never
//! meaning.

use proptest::prelude::*;
use rasa::prelude::*;
use rasa::sim::net::hash::{preference_order, ring_point};
use rasa::sim::net::{
    ErrorCode, Frame, FrameDecoder, FrameKind, HealthStatus, NetError, RouterConfig, RouterHealth,
    RouterStats, ShardConfig, WireFailure, WireResponse, MAX_FRAME_LEN, MAX_GEMM_K, WIRE_VERSION,
};
use rasa::sim::CacheStats;
use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

fn small_layer(m: usize, k: usize, n: usize) -> LayerSpec {
    LayerSpec::fc(format!("GEMM-{m}x{k}x{n}"), m, k, n)
}

/// Canonical Request payloads: an fc and a conv layer, so every numeric
/// member a request can carry appears in one of them.
fn canonical_request_payloads() -> Vec<String> {
    [
        WireRequest::new(7, "BASELINE", LayerSpec::fc("DLRM-1", 512, 1024, 1024)),
        WireRequest::new(
            8,
            "RASA-DMDB-WLS",
            LayerSpec::conv("ResNet50-2", ConvShape::new(32, 64, 56, 56, 64, 3, 3, 1, 1)),
        ),
    ]
    .iter()
    .map(|request| request.to_json().to_string_compact())
    .collect()
}

/// The byte range of every number token in a compact JSON document.
fn number_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let (mut spans, mut at, mut in_string) = (Vec::new(), 0, false);
    while at < bytes.len() {
        let byte = bytes[at];
        if in_string {
            match byte {
                b'\\' => at += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if byte == b'"' {
            in_string = true;
        } else if byte == b'-' || byte.is_ascii_digit() {
            let start = at;
            while at < bytes.len()
                && matches!(bytes[at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                at += 1;
            }
            spans.push(start..at);
            continue;
        }
        at += 1;
    }
    spans
}

/// Runs the decoders a shard and a router run on a request payload and
/// returns whether the request was accepted. None may panic, whatever the
/// bytes; an accepted request must also key, and reduce over at most
/// `MAX_GEMM_K`.
fn decode_hostile_payload(payload: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(payload) else {
        return false;
    };
    let Ok(document) = JsonValue::parse(text) else {
        return false;
    };
    let Ok(request) = WireRequest::from_json(&document) else {
        return false;
    };
    let _ = request.route_key();
    let gemm = request.workload.gemm_shape();
    assert!(gemm.k <= MAX_GEMM_K, "accepted {gemm} from {text}");
    true
}

/// The values every numeric member of a canonical payload is set to in
/// turn by the boundary fuzzes.
const BOUNDARY: [u64; 5] = [0, 1, 1 << 32, 1 << 63, u64::MAX];

/// `text` with the number token at each span replaced by each of `values`.
fn boundary_mutations(text: &str, values: &[u64]) -> Vec<String> {
    number_spans(text)
        .into_iter()
        .flat_map(|span| {
            values
                .iter()
                .map(move |value| format!("{}{value}{}", &text[..span.start], &text[span.end..]))
        })
        .collect()
}

/// Every numeric member of every canonical request, set in turn to each
/// boundary value and to either side of the reduction bound: the decoder
/// rejects what cannot lower, key or stay within `MAX_GEMM_K` (a conv
/// padding of 2^63 once overflowed inside conv validation) and never
/// panics.
#[test]
fn request_decoder_survives_boundary_numbers() {
    let bound = MAX_GEMM_K as u64;
    let values = [&BOUNDARY[..], &[bound, bound + 1]].concat();
    let (mut cases, mut accepted) = (0, 0);
    for text in canonical_request_payloads() {
        for mutated in boundary_mutations(&text, &values) {
            accepted += usize::from(decode_hostile_payload(mutated.as_bytes()));
            cases += 1;
        }
    }
    // Four fc members and ten conv members, each at every value.
    assert_eq!(cases, 14 * values.len());
    assert!(accepted > 0 && accepted < cases, "{accepted} of {cases}");
}

/// Canonical reply payloads, one of each kind a client or router decodes:
/// a shard's Response to request 7 (a real capped simulation), an Error,
/// a shard's Health and a router's Health nesting it.
fn canonical_reply_payloads() -> &'static [String; 4] {
    static PAYLOADS: OnceLock<[String; 4]> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let design = DesignPoint::baseline();
        let server = GemmServer::new(
            ServeConfig {
                cache_capacity: 4,
                matmul_cap: Some(64),
            },
            std::slice::from_ref(&design),
        )
        .unwrap();
        let layer = LayerSpec::fc("DLRM-1", 512, 1024, 1024);
        let report = server
            .submit(GemmRequest::new(design, layer))
            .unwrap()
            .wait()
            .unwrap()
            .report;
        let response = WireResponse {
            id: 7,
            shard: 2,
            batch_size: 1,
            report: (*report).clone(),
        };
        let failure = WireFailure::new(7, ErrorCode::Unavailable, "every shard is marked dead");
        let health = HealthStatus {
            shard: 2,
            designs: vec!["BASELINE".into(), "RASA-DMDB-WLS".into()],
            served: 41,
            cache: CacheStats {
                hits: 30,
                misses: 11,
                entries: 11,
                evictions: 2,
                capacity: 64,
            },
        };
        let router = RouterHealth {
            stats: RouterStats {
                routed: 9,
                remote_errors: 1,
                failovers: 2,
                dead_marked: 1,
                revived: 1,
                window_blocked: 0,
                cache_hits: 3,
                cache_misses: 6,
                per_shard: vec![4, 2],
            },
            dead: vec![1],
            shards: vec![health.clone()],
        };
        [
            response.to_json(),
            failure.to_json(),
            health.to_json(),
            router.to_json(),
        ]
        .map(|document| document.to_string_compact())
    })
}

/// Runs every reply-side decoder on a payload: the reply decoder of the
/// client and the library router (on a Response and on an Error frame),
/// then the failure and both health decoders. None may panic, whatever
/// the bytes.
fn decode_hostile_reply(payload: &[u8]) {
    for kind in [FrameKind::Response, FrameKind::Error] {
        let frame = Frame {
            kind,
            payload: payload.to_vec(),
        };
        let _ = WireResponse::from_reply(&frame, 7);
    }
    let Ok(text) = std::str::from_utf8(payload) else {
        return;
    };
    let Ok(document) = JsonValue::parse(text) else {
        return;
    };
    let _ = WireFailure::from_json(&document);
    let _ = HealthStatus::from_json(&document);
    let _ = RouterHealth::from_json(&document);
}

/// Every numeric member of every canonical reply, set in turn to each
/// boundary value, through every reply-side decoder: none panics.
#[test]
fn reply_decoders_survive_boundary_numbers() {
    let [response, failure, health, router] = canonical_reply_payloads();
    // The unmutated payloads are valid, each for its own decoder.
    let reply = |kind, payload: &String| Frame {
        kind,
        payload: payload.clone().into_bytes(),
    };
    let json = |payload: &String| JsonValue::parse(payload).unwrap();
    WireResponse::from_reply(&reply(FrameKind::Response, response), 7).unwrap();
    let err = WireResponse::from_reply(&reply(FrameKind::Error, failure), 7).unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::Unavailable,
                ..
            }
        ),
        "{err}"
    );
    HealthStatus::from_json(&json(health)).unwrap();
    RouterHealth::from_json(&json(router)).unwrap();

    let mut cases = 0;
    for text in canonical_reply_payloads() {
        for mutated in boundary_mutations(text, &BOUNDARY) {
            decode_hostile_reply(mutated.as_bytes());
            cases += 1;
        }
    }
    assert!(cases > 250, "only {cases} cases");
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

    /// A canonical request with one byte flipped or the payload cut short
    /// never panics a decoder.
    #[test]
    fn request_decoder_survives_corrupted_bytes(
        which in 0usize..2,
        site in any::<usize>(),
        bit in 0u32..8,
        truncate in any::<bool>(),
    ) {
        let mut payload = canonical_request_payloads().swap_remove(which).into_bytes();
        let at = site % payload.len();
        if truncate {
            payload.truncate(at);
        } else {
            payload[at] ^= 1 << bit;
        }
        let _ = decode_hostile_payload(&payload);
    }

    /// A canonical reply with one byte flipped or the payload cut short
    /// never panics a reply-side decoder.
    #[test]
    fn reply_decoders_survive_corrupted_bytes(
        which in 0usize..4,
        site in any::<usize>(),
        bit in 0u32..8,
        truncate in any::<bool>(),
    ) {
        let mut payload = canonical_reply_payloads()[which].clone().into_bytes();
        let at = site % payload.len();
        if truncate {
            payload.truncate(at);
        } else {
            payload[at] ^= 1 << bit;
        }
        decode_hostile_reply(&payload);
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
