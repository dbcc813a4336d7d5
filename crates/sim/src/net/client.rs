//! A blocking client for shards and routers, with bounded retry/backoff.
//!
//! [`NetClient`] keeps one connection to one of its configured endpoints
//! (normally a single router; a list of shard addresses also works for
//! router-less deployments). On a transport failure it reconnects and
//! transparently retries the request up to four times, sleeping 20 ms
//! before the first retry and doubling the backoff before each next one.
//! Redials prefer the endpoint that last worked — after a transient drop
//! the client goes straight back to the peer that was just serving it —
//! and rotate to the next endpoint only when a dial itself fails.
//! Only **retryable** failures are retried (transport errors and the
//! `unavailable` remote code — see [`NetError::is_retryable`]); a
//! simulation error or protocol violation is returned immediately. Replies
//! decode through [`WireResponse::from_reply`], the decoder
//! [`Router::route`](crate::net::Router::route) uses too.
//!
//! Retrying a simulation request is always safe: the answer is a pure
//! function of the request, so a duplicate execution can change nothing
//! but cache temperature. This is what lets the distributed soak lose a
//! worker mid-run and still complete every request.

use crate::json::JsonValue;
use crate::net::wire::{Frame, FrameKind, WireFailure, WireRequest, WireResponse};
use crate::net::NetError;
use std::net::TcpStream;
use std::time::Duration;

/// Transparent retries per request after the first attempt.
const MAX_RETRIES: usize = 4;

/// Backoff before the first retry; doubles per subsequent retry.
const BASE_BACKOFF: Duration = Duration::from_millis(20);

/// Monotonic counters of one [`NetClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Requests answered successfully.
    pub completed: u64,
    /// Transparent retry attempts (each is one extra exchange).
    pub retries: u64,
    /// Connections (re-)established.
    pub connects: u64,
    /// Requests that failed even after all retries.
    pub failed: u64,
}

/// A blocking wire-protocol client with endpoint rotation and retry.
pub struct NetClient {
    endpoints: Vec<String>,
    /// Index of the endpoint to dial next: stays put across successful
    /// dials (sticky to the last endpoint that worked), advances only
    /// when a dial fails.
    next_endpoint: usize,
    conn: Option<TcpStream>,
    stats: ClientStats,
}

impl NetClient {
    /// A client over the given endpoints. Connections are established
    /// lazily on the first request.
    ///
    /// # Panics
    ///
    /// When `endpoints` is empty.
    #[must_use]
    pub fn new(endpoints: Vec<String>) -> NetClient {
        assert!(
            !endpoints.is_empty(),
            "a client needs at least one endpoint"
        );
        NetClient {
            endpoints,
            next_endpoint: 0,
            conn: None,
            stats: ClientStats::default(),
        }
    }

    /// A point-in-time snapshot of the client's counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Sends one simulation request and blocks for its answer, retrying
    /// retryable failures with exponential backoff and endpoint rotation.
    ///
    /// # Errors
    ///
    /// The last failure once retries are exhausted, or immediately for
    /// non-retryable failures ([`NetError::Remote`] simulation errors,
    /// protocol violations, version mismatches).
    pub fn request(&mut self, request: &WireRequest) -> Result<WireResponse, NetError> {
        let reply = self.exchange_with_retry(&Frame::document(FrameKind::Request, request))?;
        match WireResponse::from_reply(&reply, request.id) {
            Ok(response) => {
                self.stats.completed += 1;
                Ok(response)
            }
            Err(error) => {
                match error {
                    // A desynced stream must not serve the next request:
                    // drop the connection so the next attempt redials.
                    NetError::Protocol { .. } => self.conn = None,
                    NetError::Remote { .. } => self.stats.failed += 1,
                    _ => {}
                }
                Err(error)
            }
        }
    }

    /// Sends a health probe and returns the raw JSON payload of the reply
    /// — a `HealthStatus` document when the peer is a shard, a
    /// `RouterHealth` document when it is a router.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures, after the same retry policy as
    /// [`request`](Self::request).
    pub fn health(&mut self) -> Result<JsonValue, NetError> {
        let reply = self.exchange_with_retry(&Frame::health_probe())?;
        match reply.kind {
            FrameKind::Health => reply.payload_json(),
            other => {
                // As for an id mismatch: never reuse a suspect stream.
                self.conn = None;
                Err(NetError::Protocol {
                    reason: format!("peer answered a probe with a {other:?} frame"),
                })
            }
        }
    }

    /// One exchange with the retry/backoff/rotation policy applied to
    /// **transport** failures and retryable error frames. Error frames
    /// are returned (not unwrapped) so the caller keeps the typed code.
    fn exchange_with_retry(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let mut backoff = BASE_BACKOFF;
        let mut last = None;
        for attempt in 0..=MAX_RETRIES {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match self.exchange_once(frame) {
                Ok(reply) => {
                    // A retryable error frame (`unavailable`) is retried
                    // like a transport failure; any other reply returns.
                    let retryable = if reply.kind == FrameKind::Error && attempt < MAX_RETRIES {
                        reply
                            .decode_payload::<WireFailure>()
                            .ok()
                            .filter(|failure| failure.code.is_retryable())
                    } else {
                        None
                    };
                    match retryable {
                        Some(failure) => {
                            last = Some(NetError::Remote {
                                code: failure.code,
                                message: failure.message,
                            });
                        }
                        None => return Ok(reply),
                    }
                }
                Err(error) if error.is_retryable() => {
                    last = Some(error);
                }
                Err(error) => return Err(error),
            }
        }
        self.stats.failed += 1;
        Err(NetError::Unavailable {
            reason: match last {
                Some(error) => format!(
                    "{} attempts exhausted; last failure: {error}",
                    MAX_RETRIES + 1
                ),
                None => "no attempt could be made".to_string(),
            },
        })
    }

    /// One request/response exchange on the current connection, dialing
    /// when there is none. Redials go to the endpoint that last connected
    /// successfully; rotation to the next endpoint happens only when a
    /// dial fails — so a transient mid-exchange drop sends the client
    /// straight back to the peer that was just serving it. The reply is
    /// read with [`Frame::read_reply`]: a peer that sends more than the one
    /// reply it owes has its connection dropped.
    fn exchange_once(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        if self.conn.is_none() {
            let endpoint = &self.endpoints[self.next_endpoint % self.endpoints.len()];
            match TcpStream::connect(endpoint) {
                Ok(stream) => {
                    self.stats.connects += 1;
                    self.conn = Some(stream);
                }
                Err(e) => {
                    let error = NetError::Io {
                        kind: e.kind(),
                        reason: format!("connect {endpoint}: {e}"),
                    };
                    self.next_endpoint = (self.next_endpoint + 1) % self.endpoints.len();
                    return Err(error);
                }
            }
        }
        let stream = self.conn.as_mut().expect("connection just ensured");
        let outcome = match frame.write_to(stream) {
            Ok(()) => Frame::read_reply(stream),
            Err(error) => Err(error),
        };
        if outcome.is_err() {
            self.conn = None;
        }
        outcome
    }

    /// Test hook simulating a transient connection drop (e.g. a peer
    /// restart) without touching the endpoint cursor.
    #[cfg(test)]
    fn drop_connection_for_test(&mut self) {
        self.conn = None;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::net::shard::{ShardConfig, ShardServer};
    use crate::serve::ServeConfig;
    use crate::DesignPoint;
    use rasa_workloads::LayerSpec;
    use std::io::Write;

    fn spawn_shard(shard_id: u32) -> ShardServer {
        ShardServer::bind(
            "127.0.0.1:0",
            ShardConfig {
                shard_id,
                serve: ServeConfig {
                    matmul_cap: Some(8),
                    ..ServeConfig::default()
                },
            },
            &[DesignPoint::baseline()],
        )
        .unwrap()
    }

    #[test]
    fn client_requests_and_probes() {
        let shard = spawn_shard(3);
        let mut client = NetClient::new(vec![shard.local_addr().to_string()]);
        let request = WireRequest::new(11, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let response = client.request(&request).unwrap();
        assert_eq!(response.id, 11);
        assert_eq!(response.shard, 3);
        let health = client.health().unwrap();
        assert_eq!(health.get("shard").and_then(JsonValue::as_u64), Some(3));
        let stats = client.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.connects, 1, "both exchanges share one connection");
        assert_eq!(stats.retries, 0);
        shard.shutdown();
    }

    #[test]
    fn client_rotates_endpoints_past_a_dead_peer() {
        let shard = spawn_shard(0);
        // A port from a just-dropped listener: connecting to it fails.
        let dead_addr = {
            let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            dead.local_addr().unwrap().to_string()
        };
        let mut client = NetClient::new(vec![dead_addr, shard.local_addr().to_string()]);
        let request = WireRequest::new(1, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let response = client.request(&request).unwrap();
        assert_eq!(response.id, 1);
        let after_first = client.stats();
        assert!(after_first.retries >= 1, "first endpoint was dead");

        // Redial stickiness: after a transient drop the client must go
        // straight back to the endpoint that just worked — one fresh
        // connect, no retries, no detour through the dead endpoint.
        client.drop_connection_for_test();
        let request = WireRequest::new(2, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let response = client.request(&request).unwrap();
        assert_eq!(response.id, 2);
        let after_second = client.stats();
        assert_eq!(
            after_second.connects,
            after_first.connects + 1,
            "exactly one redial"
        );
        assert_eq!(
            after_second.retries, after_first.retries,
            "the redial preferred the last-successful endpoint"
        );
        shard.shutdown();
    }

    #[test]
    fn client_reports_non_retryable_errors_immediately() {
        let shard = spawn_shard(0);
        let mut client = NetClient::new(vec![shard.local_addr().to_string()]);
        let request = WireRequest::new(2, "NO-SUCH", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let err = client.request(&request).unwrap_err();
        assert!(matches!(err, NetError::Remote { .. }));
        assert_eq!(client.stats().retries, 0, "unknown design is not retried");
        assert_eq!(client.stats().failed, 1);
        shard.shutdown();
    }

    #[test]
    fn wrong_kind_replies_drop_the_connection() {
        // A rogue peer answering every frame with a Request frame: wrong
        // for a request and for a probe alike.
        let rogue = crate::net::event_loop::EventLoop::bind(
            "127.0.0.1:0",
            "rogue",
            std::sync::Arc::new(|_: &Frame| Frame {
                kind: FrameKind::Request,
                payload: b"{}".to_vec(),
            }),
            1,
            false,
        )
        .unwrap();
        let mut client = NetClient::new(vec![rogue.local_addr().to_string()]);
        let request = WireRequest::new(5, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        for connects in 1..=2 {
            let err = client.request(&request).unwrap_err();
            assert!(matches!(err, NetError::Protocol { .. }), "{err}");
            assert_eq!(client.stats().connects, connects, "each request redials");
        }
        let err = client.health().unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        assert_eq!(client.stats().connects, 3);
        client.health().unwrap_err();
        assert_eq!(client.stats().connects, 4, "the probe redials too");
        assert_eq!(
            client.stats().retries,
            0,
            "protocol violations are not retried"
        );
    }

    /// A peer in front of `shard` that serves `connections` connections
    /// one after another, relaying each request frame to the shard and
    /// writing the shard's encoded reply back with `reply`: the hook where
    /// a test splits or repeats it.
    pub(crate) fn relay_peer(
        shard: std::net::SocketAddr,
        connections: usize,
        reply: fn(&mut TcpStream, &[u8]),
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let relay = std::thread::spawn(move || {
            for client in listener.incoming().take(connections) {
                let mut client = client.unwrap();
                let mut upstream = TcpStream::connect(shard).unwrap();
                while let Ok(request) = Frame::read_from(&mut client) {
                    request.write_to(&mut upstream).unwrap();
                    let answer = Frame::read_from(&mut upstream).unwrap().encode();
                    reply(&mut client, &answer);
                }
            }
        });
        (addr, relay)
    }

    /// A reply that arrives in two pieces, split inside its header and
    /// sent 50 ms apart, is read whole on the same connection.
    #[test]
    fn replies_written_in_pieces_are_read_whole() {
        let shard = spawn_shard(4);
        let (addr, relay) = relay_peer(shard.local_addr(), 1, |stream, reply| {
            stream.write_all(&reply[..3]).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            stream.write_all(&reply[3..]).unwrap();
        });
        let mut client = NetClient::new(vec![addr]);
        for id in [1, 2] {
            let request = WireRequest::new(id, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
            let response = client.request(&request).unwrap();
            assert_eq!((response.id, response.shard), (id, 4));
        }
        let stats = client.stats();
        assert_eq!((stats.connects, stats.retries), (1, 0));
        drop(client);
        relay.join().unwrap();
        shard.shutdown();
    }

    /// A lockstep peer owes one reply per request: a peer that answers
    /// with two frames violates the protocol, its connection is dropped,
    /// and the next request redials.
    #[test]
    fn a_second_reply_frame_drops_the_connection() {
        let shard = spawn_shard(0);
        let (addr, relay) = relay_peer(shard.local_addr(), 2, |stream, reply| {
            stream.write_all(&[reply, reply].concat()).unwrap();
        });
        let mut client = NetClient::new(vec![addr]);
        let request = WireRequest::new(9, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        for connects in 1..=2 {
            let err = client.request(&request).unwrap_err();
            assert!(matches!(err, NetError::Protocol { .. }), "{err}");
            assert_eq!(client.stats().connects, connects, "each request redials");
        }
        assert_eq!(
            client.stats().retries,
            0,
            "protocol violations are not retried"
        );
        drop(client);
        relay.join().unwrap();
        shard.shutdown();
    }

    #[test]
    fn client_exhausts_retries_against_a_dead_world() {
        let dead_addr = {
            let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            dead.local_addr().unwrap().to_string()
        };
        let mut client = NetClient::new(vec![dead_addr]);
        let request = WireRequest::new(3, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let err = client.request(&request).unwrap_err();
        assert!(matches!(err, NetError::Unavailable { .. }), "{err}");
        assert_eq!(client.stats().failed, 1);
        assert_eq!(client.stats().retries, MAX_RETRIES as u64);
    }
}
