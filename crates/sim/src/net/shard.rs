//! One TCP shard worker: a [`GemmServer`] behind the event-loop frame
//! server.
//!
//! A [`ShardServer`] binds a listener, multiplexes every connection on one
//! event-loop thread, and answers each decoded request frame with a
//! [`GemmServer::submit`] call on the loop worker that decoded it: one hop,
//! no further queue. The loop runs one worker per available core, because
//! its handlers simulate. The server's bounded LRU cell cache is what
//! makes a shard "warm": the router keeps sending the same route keys
//! here, and they keep hitting this shard's cache.
//!
//! The `rasa-shardd` binary is a thin wrapper over this type.

use crate::json::{FromJson, ToJson};
use crate::net::event_loop::EventLoop;
use crate::net::wire::{
    ErrorCode, Frame, FrameKind, HealthStatus, WireFailure, WireRequest, WireResponse,
};
use crate::net::NetError;
use crate::serve::{GemmServer, ServeConfig};
use crate::{DesignPoint, SimError};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Configuration of a [`ShardServer`].
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// This shard's id, echoed in responses and health frames so clients
    /// can attribute answers and cache churn per shard.
    pub shard_id: u32,
    /// Configuration of the wrapped [`GemmServer`].
    pub serve: ServeConfig,
}

struct ShardShared {
    server: GemmServer,
    shard_id: u32,
    /// Frames answered over the wire (requests, probes, error replies).
    served: AtomicU64,
}

/// A running TCP shard worker. Dropping it (or calling
/// [`shutdown`](ShardServer::shutdown)) stops the event loop and joins its
/// threads.
pub struct ShardServer {
    shared: Arc<ShardShared>,
    server: EventLoop,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("shard_id", &self.shared.shard_id)
            .field("addr", &self.local_addr())
            .finish_non_exhaustive()
    }
}

impl ShardServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving the given designs.
    ///
    /// # Errors
    ///
    /// [`SimError::Net`] when the bind fails, or any error of
    /// [`GemmServer::new`] (e.g. a zero cache capacity).
    pub fn bind(
        addr: &str,
        config: ShardConfig,
        designs: &[DesignPoint],
    ) -> Result<ShardServer, SimError> {
        let server = GemmServer::new(config.serve, designs)?;
        let shared = Arc::new(ShardShared {
            server,
            shard_id: config.shard_id,
            served: AtomicU64::new(0),
        });
        let handler_shared = Arc::clone(&shared);
        let server = EventLoop::bind(
            addr,
            &format!("rasa-shard-{}", config.shard_id),
            Arc::new(move |frame| {
                handler_shared.served.fetch_add(1, Ordering::SeqCst);
                answer(frame, &handler_shared)
            }),
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            false,
        )
        .map_err(SimError::from)?;
        Ok(ShardServer { shared, server })
    }

    /// The bound address (with the resolved port when binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// This shard's id.
    #[must_use]
    pub fn shard_id(&self) -> u32 {
        self.shared.shard_id
    }

    /// A point-in-time health snapshot, identical to what a health frame
    /// reports over the wire.
    #[must_use]
    pub fn health(&self) -> HealthStatus {
        self.shared.health()
    }

    /// Stops accepting and joins the event loop's threads (the explicit
    /// form of drop).
    pub fn shutdown(mut self) {
        self.server.stop_and_join();
    }
}

impl ShardShared {
    fn health(&self) -> HealthStatus {
        HealthStatus {
            shard: self.shard_id,
            designs: self.server.designs().to_vec(),
            served: self.served.load(Ordering::SeqCst),
            cache: self.server.cache_stats(),
        }
    }
}

/// Builds the reply frame for one inbound frame. Never panics: every
/// failure becomes an error frame.
fn answer(frame: &Frame, shared: &Arc<ShardShared>) -> Frame {
    match frame.kind {
        FrameKind::Health => Frame::json(FrameKind::Health, &shared.health().to_json()),
        FrameKind::Request => match decode_request(frame).and_then(|r| simulate(&r, shared)) {
            Ok(response) => Frame::json(FrameKind::Response, &response.to_json()),
            Err(failure) => Frame::json(FrameKind::Error, &failure.to_json()),
        },
        // A shard only ever receives requests and probes.
        FrameKind::Response | FrameKind::Error => Frame::json(
            FrameKind::Error,
            &WireFailure::new(
                0,
                ErrorCode::BadRequest,
                format!("unexpected {:?} frame on a shard", frame.kind),
            )
            .to_json(),
        ),
    }
}

fn decode_request(frame: &Frame) -> Result<WireRequest, WireFailure> {
    let json = frame
        .payload_json()
        .map_err(|e| WireFailure::new(0, ErrorCode::BadRequest, e.to_string()))?;
    WireRequest::from_json(&json)
        .map_err(|e| WireFailure::new(0, ErrorCode::BadRequest, e.to_string()))
}

/// Answers one decoded request through the shard's server.
fn simulate(request: &WireRequest, shared: &ShardShared) -> Result<WireResponse, WireFailure> {
    let fail = |code, message| WireFailure::new(request.id, code, message);
    let job = request.to_job().map_err(|error| match error {
        NetError::Remote { code, message } => fail(code, message),
        other => fail(ErrorCode::Internal, other.to_string()),
    })?;
    let response = shared
        .server
        .submit(job)
        .and_then(crate::serve::ResponseHandle::wait)
        .map_err(|error| match error {
            // The server's one `Serve` error: a design it does not serve.
            SimError::Serve { .. } => fail(ErrorCode::UnknownDesign, error.to_string()),
            _ => fail(ErrorCode::Simulation, error.to_string()),
        })?;
    Ok(WireResponse {
        id: request.id,
        shard: shared.shard_id,
        batch_size: 1,
        report: (*response.report).clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use rasa_workloads::LayerSpec;
    use std::net::TcpStream;

    fn tiny_config() -> ShardConfig {
        ShardConfig {
            shard_id: 7,
            serve: ServeConfig {
                matmul_cap: Some(8),
                ..ServeConfig::default()
            },
        }
    }

    fn request_over(stream: &mut TcpStream, frame: &Frame) -> Frame {
        frame.write_to(stream).unwrap();
        Frame::read_from(stream).unwrap()
    }

    #[test]
    fn shard_answers_requests_health_and_errors() {
        let designs = vec![DesignPoint::baseline()];
        let shard = ShardServer::bind("127.0.0.1:0", tiny_config(), &designs).unwrap();
        let mut conn = TcpStream::connect(shard.local_addr()).unwrap();

        // A real request round-trips with the shard id and echoed id.
        let request = WireRequest::new(42, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let reply = request_over(
            &mut conn,
            &Frame::json(FrameKind::Request, &request.to_json()),
        );
        assert_eq!(reply.kind, FrameKind::Response);
        let response = WireResponse::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(response.id, 42);
        assert_eq!(response.shard, 7);
        assert_eq!(response.report.workload, "DLRM-1");

        // A health probe reports the same snapshot as the local call.
        let reply = request_over(&mut conn, &Frame::health_probe());
        assert_eq!(reply.kind, FrameKind::Health);
        let health = HealthStatus::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(health.shard, 7);
        assert_eq!(health.designs, vec!["BASELINE".to_string()]);
        assert!(health.served >= 1);
        assert_eq!(health.cache.hits + health.cache.misses, 1);

        // An unknown design is a typed error frame, and the connection
        // survives it.
        let bad = WireRequest::new(43, "NO-SUCH", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let reply = request_over(&mut conn, &Frame::json(FrameKind::Request, &bad.to_json()));
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.id, 43);
        assert_eq!(failure.code, ErrorCode::UnknownDesign);

        // So is a paper design this shard does not serve.
        let unserved = WireRequest::new(44, "RASA-PIPE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let reply = request_over(
            &mut conn,
            &Frame::json(FrameKind::Request, &unserved.to_json()),
        );
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.id, 44);
        assert_eq!(
            failure.code,
            ErrorCode::UnknownDesign,
            "{}",
            failure.message
        );

        // A structurally broken request is BadRequest.
        let reply = request_over(
            &mut conn,
            &Frame::json(FrameKind::Request, &JsonValue::parse("{}").unwrap()),
        );
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.code, ErrorCode::BadRequest);

        shard.shutdown();
    }

    #[test]
    fn deeply_nested_frames_are_bad_requests_not_aborts() {
        // Before the parser had a depth cap, this frame overflowed a
        // worker's stack and aborted the whole process.
        let designs = vec![DesignPoint::baseline()];
        let shard = ShardServer::bind("127.0.0.1:0", tiny_config(), &designs).unwrap();
        let mut conn = TcpStream::connect(shard.local_addr()).unwrap();
        let nested = Frame {
            kind: FrameKind::Request,
            payload: vec![b'['; 10_000],
        };
        let reply = request_over(&mut conn, &nested);
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.code, ErrorCode::BadRequest);
        assert!(failure.message.contains("nesting"), "{}", failure.message);
        // The shard is still up and the connection still in sync.
        let reply = request_over(&mut conn, &Frame::health_probe());
        assert_eq!(reply.kind, FrameKind::Health);
        shard.shutdown();
    }

    #[test]
    fn invalid_conv_shapes_are_bad_requests_not_panics() {
        // A stride-0 conv once divided by zero while the worker rendered
        // its cell key, and overflowing shapes panicked there (debug) or
        // simulated a wrapped-around shape (release). Every one must now
        // be rejected by the decoder.
        let designs = vec![DesignPoint::baseline()];
        let shard = ShardServer::bind("127.0.0.1:0", tiny_config(), &designs).unwrap();
        let mut conn = TcpStream::connect(shard.local_addr()).unwrap();
        for (layer, what) in crate::net::wire::undecodable_layers() {
            let request = WireRequest::new(5, "BASELINE", layer);
            let reply = request_over(
                &mut conn,
                &Frame::json(FrameKind::Request, &request.to_json()),
            );
            assert_eq!(reply.kind, FrameKind::Error);
            let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
            assert_eq!(failure.code, ErrorCode::BadRequest, "{}", failure.message);
            assert!(failure.message.contains(what), "{}", failure.message);
            // The worker survived and the connection is still in sync.
            let reply = request_over(&mut conn, &Frame::health_probe());
            assert_eq!(reply.kind, FrameKind::Health);
        }
        shard.shutdown();
    }

    #[test]
    fn oversized_names_are_bad_requests() {
        use crate::net::wire::MAX_NAME_LEN;
        let designs = vec![DesignPoint::baseline()];
        let shard = ShardServer::bind("127.0.0.1:0", tiny_config(), &designs).unwrap();
        let mut conn = TcpStream::connect(shard.local_addr()).unwrap();
        let long = "n".repeat(64 * 1024);
        for request in [
            WireRequest::new(6, long.clone(), LayerSpec::fc("DLRM-1", 64, 128, 128)),
            WireRequest::new(6, "BASELINE", LayerSpec::fc(long, 64, 128, 128)),
        ] {
            let reply = request_over(
                &mut conn,
                &Frame::json(FrameKind::Request, &request.to_json()),
            );
            assert_eq!(reply.kind, FrameKind::Error);
            let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
            assert_eq!(failure.code, ErrorCode::BadRequest, "{}", failure.message);
        }
        // A name of exactly the cap still simulates, and comes back.
        let at_cap = "n".repeat(MAX_NAME_LEN);
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc(at_cap.clone(), 64, 128, 128));
        let reply = request_over(
            &mut conn,
            &Frame::json(FrameKind::Request, &request.to_json()),
        );
        let response = WireResponse::from_reply(&reply, 7).unwrap();
        assert_eq!(response.report.workload, at_cap);
        shard.shutdown();
    }

    /// A request is a design and a layer: a kernel override is a
    /// `bad_request` and simulates nothing, and a `null` kernel is
    /// answered exactly like no kernel.
    #[test]
    fn kernel_overrides_are_bad_requests() {
        use crate::net::wire::{request_frame_with_kernel, LEGACY_UNCAPPED_KERNEL};
        let designs = vec![DesignPoint::baseline()];
        let shard = ShardServer::bind("127.0.0.1:0", tiny_config(), &designs).unwrap();
        let mut conn = TcpStream::connect(shard.local_addr()).unwrap();
        let request = WireRequest::new(8, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let reply = request_over(
            &mut conn,
            &request_frame_with_kernel(&request, LEGACY_UNCAPPED_KERNEL),
        );
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.code, ErrorCode::BadRequest, "{}", failure.message);
        assert_eq!(shard.health().cache.misses, 0, "nothing was simulated");

        let with_null = request_over(&mut conn, &request_frame_with_kernel(&request, "null"));
        assert_eq!(with_null.kind, FrameKind::Response);
        let without = request_over(
            &mut conn,
            &Frame::json(FrameKind::Request, &request.to_json()),
        );
        assert_eq!(with_null, without);
        shard.shutdown();
    }

    #[test]
    fn shard_shutdown_joins_with_open_connections() {
        let designs = vec![DesignPoint::baseline()];
        let shard = ShardServer::bind("127.0.0.1:0", tiny_config(), &designs).unwrap();
        // An idle connection must not wedge shutdown.
        let idle = TcpStream::connect(shard.local_addr()).unwrap();
        shard.shutdown();
        drop(idle);
    }
}
