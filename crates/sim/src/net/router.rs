//! Shard-warm request routing with dead-shard failover.
//!
//! A [`Router`] forwards every request to the home shard of its **route
//! key** ([`WireRequest::route_key`]: the design name and the lowered GEMM
//! shape), ranked by rendezvous hashing ([`preference_order`]). Repeated
//! shapes therefore always land where the LRU cell cache is already warm.
//! The router computes everything from the request itself: it holds no
//! shard configuration and no placement structure.
//!
//! A transport failure on a fresh connection marks the shard dead and the
//! request is retried on the next shard in the key's
//! [`preference order`](preference_order) — deterministic, and
//! minimal-churn (only the dead shard's keys move). Requests are
//! idempotent pure simulations, so retrying on another shard can never
//! produce a different answer, only a colder cache. A pooled connection
//! that fails is redialled once first, because a shard that restarted on
//! its address leaves every pooled connection stale.
//! [`Router::health`] probes every shard, dead ones included, and a shard
//! that answers with its health is alive again.
//!
//! A bound router's admission control is its set of followers: each
//! reads a client's request and relays it itself, each connection has one
//! frame in flight, and requests beyond the followers wait in their
//! sockets. A relaying follower blocks on its shard round trip, so a
//! stalled shard parks every follower that reaches it; exchanges have no
//! deadline yet.
//!
//! The router relays bytes. It decodes a client's request only to compute
//! its route key, forwards the request frame unchanged, and returns the
//! shard's Response or Error frame unchanged once the frame kind and the
//! Response's canonical `{"id":<id>,` prefix check out. A reply that fails
//! the check is a [`NetError::Protocol`], and its connection is dropped
//! instead of pooled. The result cache holds a shard's Response payload
//! after that prefix, keyed by route key and workload name, so a hit
//! splices in the new id and answers the shard's own bytes. Equal route
//! keys name the same design and shape, so the cached bytes are correct
//! whatever fidelity the shards run at, as long as they agree on it.
//!
//! [`Router::bind`] additionally exposes the router itself as a frame
//! server (the `rasa-router` binary), answering health probes with a
//! [`RouterHealth`] aggregate that nests the [`HealthStatus`] of every
//! shard that answered — the per-shard cache-churn view the distributed
//! soak reports.

use crate::cache::SharedLru;
use crate::json::{array_member, member, u64_member, FromJson, JsonError, JsonValue, ToJson};
use crate::key::CellKey;
use crate::net::event_loop::EventLoop;
use crate::net::hash::preference_order;
use crate::net::wire::{
    ErrorCode, Frame, FrameKind, HealthStatus, WireFailure, WireRequest, WireResponse,
};
use crate::net::NetError;
use crate::prof::{self, Stage};
use crate::SimError;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bound on the router's own result cache (LRU over route keys and
    /// workload names), probed before any shard is contacted. `0` disables
    /// the cache. Cells are deterministic pure functions of their key (see
    /// DETERMINISM.md), so cached results never need invalidation.
    pub result_cache_capacity: usize,
}

/// Default bound on the router-side result cache.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 256;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            result_cache_capacity: DEFAULT_RESULT_CACHE_CAPACITY,
        }
    }
}

/// A monotonic snapshot of a router's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Requests answered with a response frame.
    pub routed: u64,
    /// Requests answered with a remote error frame.
    pub remote_errors: u64,
    /// Requests that had to leave their home shard for a failover target.
    pub failovers: u64,
    /// Times a shard was marked dead after a transport failure.
    pub dead_marked: u64,
    /// Times a dead shard answered a probe and was revived.
    pub revived: u64,
    /// Always 0: the per-shard in-flight windows whose waits it counted
    /// are gone. The member stays, here and in the JSON, because perfbench
    /// reports it as `router.window_blocked`, and that metric read 0 on
    /// `tier_cold` before the windows went too: at most 2 clients never
    /// filled a 32-slot window behind 8 router workers. The next benchmark
    /// change retires it.
    pub window_blocked: u64,
    /// Requests answered from the router's own result cache — no shard
    /// was contacted (these still count as `routed`).
    pub cache_hits: u64,
    /// Requests that missed the router's result cache and went to a
    /// shard. A disabled cache is never probed, so with it off this and
    /// `cache_hits` both stay 0.
    pub cache_misses: u64,
    /// Responses attributed to each shard, by shard id.
    pub per_shard: Vec<u64>,
}

impl RouterStats {
    /// Fraction of probed requests answered from the router's result
    /// cache; `0.0` when nothing was probed, as with the cache disabled.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

impl ToJson for RouterStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("routed".into(), JsonValue::number_from_u64(self.routed)),
            (
                "remote_errors".into(),
                JsonValue::number_from_u64(self.remote_errors),
            ),
            (
                "failovers".into(),
                JsonValue::number_from_u64(self.failovers),
            ),
            (
                "dead_marked".into(),
                JsonValue::number_from_u64(self.dead_marked),
            ),
            ("revived".into(), JsonValue::number_from_u64(self.revived)),
            (
                "window_blocked".into(),
                JsonValue::number_from_u64(self.window_blocked),
            ),
            (
                "cache_hits".into(),
                JsonValue::number_from_u64(self.cache_hits),
            ),
            (
                "cache_misses".into(),
                JsonValue::number_from_u64(self.cache_misses),
            ),
            (
                "per_shard".into(),
                JsonValue::Array(
                    self.per_shard
                        .iter()
                        .map(|&n| JsonValue::number_from_u64(n))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for RouterStats {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(RouterStats {
            routed: u64_member(value, "routed")?,
            remote_errors: u64_member(value, "remote_errors")?,
            failovers: u64_member(value, "failovers")?,
            dead_marked: u64_member(value, "dead_marked")?,
            revived: u64_member(value, "revived")?,
            window_blocked: u64_member(value, "window_blocked")?,
            cache_hits: u64_member(value, "cache_hits")?,
            cache_misses: u64_member(value, "cache_misses")?,
            per_shard: array_member(value, "per_shard", |n| {
                n.as_u64()
                    .ok_or_else(|| JsonError::decode("per_shard entry is not a u64"))
            })?,
        })
    }
}

/// What a router reports to a health probe: its own counters plus a fresh
/// health snapshot of every shard that answered one.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterHealth {
    /// The router's counters at snapshot time.
    pub stats: RouterStats,
    /// Shard ids currently marked dead.
    pub dead: Vec<u32>,
    /// Health snapshots of the shards that answered the probe.
    pub shards: Vec<HealthStatus>,
}

impl ToJson for RouterHealth {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("stats".into(), self.stats.to_json()),
            (
                "dead".into(),
                JsonValue::Array(
                    self.dead
                        .iter()
                        .map(|&s| JsonValue::number_from_u64(s.into()))
                        .collect(),
                ),
            ),
            (
                "shards".into(),
                JsonValue::Array(self.shards.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for RouterHealth {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(RouterHealth {
            stats: RouterStats::from_json(member(value, "stats")?)?,
            dead: array_member(value, "dead", |n| {
                n.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| JsonError::decode("dead entry is not a u32"))
            })?,
            shards: array_member(value, "shards", HealthStatus::from_json)?,
        })
    }
}

/// One shard backend: its address, liveness and connection pool.
struct Backend {
    shard: u32,
    addr: String,
    alive: AtomicBool,
    /// Idle connections to the shard. A request pops one (or dials a new
    /// one), uses it exclusively, and returns it once the reply checks out.
    pool: Mutex<Vec<TcpStream>>,
    routed: AtomicU64,
}

impl Backend {
    /// One request/reply exchange. A pooled connection is tried first; a
    /// transport failure on it (the shard may have restarted since it was
    /// pooled) is retried once on a fresh connection, and only a failure
    /// there is the shard's. The connection goes back to the pool only
    /// when `check` accepts the reply: a reply of the wrong kind or for
    /// another id means the stream is desynced, so it is dropped instead
    /// of serving the next request.
    fn exchange(
        &self,
        frame: &Frame,
        check: impl FnOnce(&Frame) -> Result<(), NetError>,
    ) -> Result<Frame, NetError> {
        let pooled = self.pool().pop();
        let (stream, reply) = match pooled.map(|stream| round_trip(stream, frame)) {
            Some(Ok(answered)) => answered,
            None | Some(Err(NetError::Io { .. })) => {
                let stream = TcpStream::connect(&self.addr).map_err(|e| NetError::Io {
                    kind: e.kind(),
                    reason: format!("connect {}: {e}", self.addr),
                })?;
                round_trip(stream, frame)?
            }
            Some(Err(other)) => return Err(other),
        };
        check(&reply)?;
        self.pool().push(stream);
        Ok(reply)
    }

    /// A health probe exchange: anything but a Health reply is a protocol
    /// violation from whatever now holds the shard's address.
    fn probe(&self) -> Result<Frame, NetError> {
        self.exchange(&Frame::health_probe(), |reply| match reply.kind {
            FrameKind::Health => Ok(()),
            other => Err(NetError::Protocol {
                reason: format!("shard answered a probe with a {other:?} frame"),
            }),
        })
    }

    /// Drops every pooled connection to a shard that failed.
    fn clear_pool(&self) {
        self.pool().clear();
    }

    /// The idle connections. A panic while they were held cannot have left
    /// the list half updated (a push, pop or clear), so a poisoned lock is
    /// recovered as it stands.
    fn pool(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Counters {
    routed: AtomicU64,
    remote_errors: AtomicU64,
    failovers: AtomicU64,
    dead_marked: AtomicU64,
    revived: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

struct RouterCore {
    config: RouterConfig,
    backends: Vec<Backend>,
    counters: Counters,
    /// The router's own result cache, probed before any shard: a shard's
    /// Response payload after its `{"id":<id>,` prefix, keyed by route key
    /// and workload name. `None` when disabled by configuration.
    result_cache: Option<SharedLru<ReplyKey, Arc<[u8]>>>,
}

/// What a shard's answer depends on: the request's route key and the
/// workload name its report carries.
type ReplyKey = (CellKey, String);

/// A rendezvous-hashing request router over N shard backends.
pub struct Router {
    core: Arc<RouterCore>,
    server: Option<EventLoop>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.core.backends.len())
            .field("listening", &self.local_addr())
            .field("config", &self.core.config)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Builds an in-process router over the given shard addresses (index =
    /// shard id). No listener is bound; use this form from tests, library
    /// callers and the soak harness.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidExperiment`] when `shard_addrs` is empty.
    pub fn new(shard_addrs: &[String], config: RouterConfig) -> Result<Router, SimError> {
        if shard_addrs.is_empty() {
            return Err(SimError::InvalidExperiment {
                reason: "a router needs at least one shard address".to_string(),
            });
        }
        let backends = shard_addrs
            .iter()
            .enumerate()
            .map(|(shard, addr)| Backend {
                shard: u32::try_from(shard).expect("shard count fits in u32"),
                addr: addr.clone(),
                alive: AtomicBool::new(true),
                pool: Mutex::new(Vec::new()),
                routed: AtomicU64::new(0),
            })
            .collect();
        let config_cache_capacity = config.result_cache_capacity;
        Ok(Router {
            core: Arc::new(RouterCore {
                config,
                backends,
                counters: Counters {
                    routed: AtomicU64::new(0),
                    remote_errors: AtomicU64::new(0),
                    failovers: AtomicU64::new(0),
                    dead_marked: AtomicU64::new(0),
                    revived: AtomicU64::new(0),
                    cache_hits: AtomicU64::new(0),
                    cache_misses: AtomicU64::new(0),
                },
                result_cache: (config_cache_capacity > 0)
                    .then(|| SharedLru::new(config_cache_capacity)),
            }),
            server: None,
        })
    }

    /// Builds the router **and** binds `addr` as a frame server for it —
    /// the form the `rasa-router` binary runs. Inbound request frames are
    /// relayed; health probes are answered with a [`RouterHealth`].
    ///
    /// # Errors
    ///
    /// Everything [`new`](Router::new) rejects, plus bind failures.
    pub fn bind(
        addr: &str,
        shard_addrs: &[String],
        config: RouterConfig,
    ) -> Result<Router, SimError> {
        let mut router = Router::new(shard_addrs, config)?;
        let core = Arc::clone(&router.core);
        let server = EventLoop::bind(
            addr,
            "rasa-router",
            Arc::new(move |frame| answer(frame, &core)),
            bound_workers(),
            false,
        )
        .map_err(SimError::from)?;
        router.server = Some(server);
        Ok(router)
    }

    /// The frame server's bound address. `None` for an in-process router.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(EventLoop::local_addr)
    }

    /// Routes one request to its shard (with failover) and returns the
    /// shard's answer: relayed exactly as the bound router relays a
    /// client's frame, and the reply decoded. The request is serialized
    /// only on a result-cache miss, once, for the shard.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for shard-reported failures (an unknown design
    /// among them); [`NetError::Unavailable`] when every shard is dead;
    /// [`NetError::Protocol`] when a shard answers with the wrong frame
    /// kind or id.
    pub fn route(&self, request: &WireRequest) -> Result<WireResponse, NetError> {
        let reply = self.core.relay(request, None)?;
        WireResponse::from_reply(&reply, request.id)
    }

    /// The home shard id for a request, before liveness filtering. Useful
    /// for asserting shard-warm placement in tests and reports.
    ///
    /// # Errors
    ///
    /// None: every request has a route key, so this always returns `Ok`.
    pub fn home_shard(&self, request: &WireRequest) -> Result<u32, NetError> {
        Ok(preference_order(request.route_key().hash64(), self.core.backends.len())[0])
    }

    /// A point-in-time snapshot of the router's counters.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.core.stats()
    }

    /// The router's health aggregate: its counters plus a fresh snapshot
    /// from every shard that answers a probe. Every shard is probed, dead
    /// ones included: a health reply marks a shard alive (reviving a dead
    /// one), a transport failure marks it dead, and any other failure
    /// leaves its state alone; only shards that answered are listed.
    #[must_use]
    pub fn health(&self) -> RouterHealth {
        self.core.health()
    }

    /// Stops the frame server, if one was bound (the explicit form of
    /// drop). An in-process router has nothing to stop.
    pub fn shutdown(mut self) {
        if let Some(mut server) = self.server.take() {
            server.stop_and_join();
        }
    }
}

impl RouterCore {
    /// Relays one request to its shard, with failover, and returns the
    /// shard's Response or Error frame unchanged. `frame` is the client's
    /// Request frame when there is one (the bound router's), and `request`
    /// that frame decoded; the router uses `request` only for the route
    /// key, the cache key and the id check. Without a frame, `request` is
    /// serialized into one after a result-cache miss, so a hit pays for no
    /// serialization it would never send.
    fn relay(&self, request: &WireRequest, frame: Option<&Frame>) -> Result<Frame, NetError> {
        let key: ReplyKey = (request.route_key(), request.workload.name().to_string());
        let prefix = WireResponse::payload_prefix(request.id);
        if let Some(tail) = self.probe_result_cache(&key) {
            return Ok(Frame {
                kind: FrameKind::Response,
                payload: [prefix.as_bytes(), &tail].concat(),
            });
        }
        let rendered;
        let frame = match frame {
            Some(frame) => frame,
            None => {
                rendered = Frame::json(FrameKind::Request, &request.to_json());
                &rendered
            }
        };
        let order = preference_order(key.0.hash64(), self.backends.len());
        let mut last_io: Option<NetError> = None;
        for (attempt, &shard) in order.iter().enumerate() {
            let backend = &self.backends[shard as usize];
            if !backend.alive.load(Ordering::SeqCst) {
                continue;
            }
            let outcome = backend.exchange(frame, |reply| check_reply(reply, &prefix));
            if attempt > 0 && matches!(outcome, Ok(_) | Err(NetError::Protocol { .. })) {
                self.counters.failovers.fetch_add(1, Ordering::SeqCst);
            }
            match outcome {
                Ok(reply) => {
                    if reply.kind == FrameKind::Error {
                        self.counters.remote_errors.fetch_add(1, Ordering::SeqCst);
                    } else {
                        backend.routed.fetch_add(1, Ordering::SeqCst);
                        self.counters.routed.fetch_add(1, Ordering::SeqCst);
                        self.store_result(key, &reply.payload[prefix.len()..]);
                    }
                    return Ok(reply);
                }
                // Transport failure: the shard is gone (or unreachable).
                // Mark it dead and fail over to the next shard in the
                // preference order. The request never reached a
                // simulation, or reached one whose answer is a pure
                // function of the request — either way the retry is safe.
                Err(NetError::Io { .. }) => {
                    if backend.alive.swap(false, Ordering::SeqCst) {
                        self.counters.dead_marked.fetch_add(1, Ordering::SeqCst);
                    }
                    backend.clear_pool();
                    last_io = Some(NetError::Io {
                        kind: std::io::ErrorKind::Other,
                        reason: format!("shard {shard} ({}) failed", backend.addr),
                    });
                }
                Err(other) => return Err(other),
            }
        }
        Err(NetError::Unavailable {
            reason: match last_io {
                Some(error) => format!("every shard in the preference order failed; last: {error}"),
                None => "every shard is marked dead".to_string(),
            },
        })
    }

    /// Probes the router-side result cache for the payload tail a shard
    /// answered for this cell and workload name. A hit answers without
    /// contacting any shard; the caller splices in the request's id, which
    /// makes the bytes identical to the shard's own answer.
    fn probe_result_cache(&self, key: &ReplyKey) -> Option<Arc<[u8]>> {
        let cache = self.result_cache.as_ref()?;
        let probe = prof::time(Stage::CacheProbe);
        let cached = cache.lock().get(key).map(Arc::clone);
        drop(probe);
        if cached.is_some() {
            self.counters.cache_hits.fetch_add(1, Ordering::SeqCst);
            self.counters.routed.fetch_add(1, Ordering::SeqCst);
        } else {
            self.counters.cache_misses.fetch_add(1, Ordering::SeqCst);
        }
        cached
    }

    /// Records a shard's answer, without its id prefix, in the result
    /// cache.
    fn store_result(&self, key: ReplyKey, tail: &[u8]) {
        if let Some(cache) = &self.result_cache {
            cache.lock().insert(key, Arc::from(tail));
        }
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.counters.routed.load(Ordering::SeqCst),
            remote_errors: self.counters.remote_errors.load(Ordering::SeqCst),
            failovers: self.counters.failovers.load(Ordering::SeqCst),
            dead_marked: self.counters.dead_marked.load(Ordering::SeqCst),
            revived: self.counters.revived.load(Ordering::SeqCst),
            window_blocked: 0,
            cache_hits: self.counters.cache_hits.load(Ordering::SeqCst),
            cache_misses: self.counters.cache_misses.load(Ordering::SeqCst),
            per_shard: self
                .backends
                .iter()
                .map(|b| b.routed.load(Ordering::SeqCst))
                .collect(),
        }
    }

    fn health(&self) -> RouterHealth {
        let mut shards = Vec::new();
        for backend in &self.backends {
            match backend.probe().and_then(|reply| {
                HealthStatus::from_json(&reply.payload_json()?).map_err(|e| NetError::Frame {
                    reason: format!("undecodable health payload: {e}"),
                })
            }) {
                // Only a Health reply proves a shard is (back) up.
                Ok(health) => {
                    if !backend.alive.swap(true, Ordering::SeqCst) {
                        self.counters.revived.fetch_add(1, Ordering::SeqCst);
                    }
                    shards.push(health);
                }
                Err(NetError::Io { .. }) => {
                    if backend.alive.swap(false, Ordering::SeqCst) {
                        self.counters.dead_marked.fetch_add(1, Ordering::SeqCst);
                    }
                    backend.clear_pool();
                }
                Err(_) => {}
            }
        }
        RouterHealth {
            stats: self.stats(),
            dead: self
                .backends
                .iter()
                .filter(|b| !b.alive.load(Ordering::SeqCst))
                .map(|b| b.shard)
                .collect(),
            shards,
        }
    }
}

/// The followers of a bound router: twice the core count, clamped to
/// 8–32. Handlers block on shard round trips rather than compute, so the
/// router runs more followers than cores.
fn bound_workers() -> usize {
    thread::available_parallelism().map_or(8, |n| (n.get() * 2).clamp(8, 32))
}

/// Writes `frame` to `stream` and reads one reply frame back.
fn round_trip(mut stream: TcpStream, frame: &Frame) -> Result<(TcpStream, Frame), NetError> {
    frame.write_to(&mut stream)?;
    let reply = Frame::read_from(&mut stream)?;
    Ok((stream, reply))
}

/// Accepts a shard's reply to the request whose Response payloads start
/// with `prefix`: a Response for that id, or an Error frame.
fn check_reply(reply: &Frame, prefix: &str) -> Result<(), NetError> {
    match reply.kind {
        FrameKind::Error => Ok(()),
        FrameKind::Response if reply.payload.starts_with(prefix.as_bytes()) => Ok(()),
        FrameKind::Response => Err(NetError::Protocol {
            reason: format!("a response payload does not start with {prefix}"),
        }),
        FrameKind::Request | FrameKind::Health => Err(NetError::Protocol {
            reason: format!("shard answered a request with a {:?} frame", reply.kind),
        }),
    }
}

/// The frame handler of a bound router: relay requests, aggregate health.
fn answer(frame: &Frame, core: &Arc<RouterCore>) -> Frame {
    match frame.kind {
        FrameKind::Health => Frame::json(FrameKind::Health, &core.health().to_json()),
        FrameKind::Request => {
            let request = match frame.payload_json().and_then(|json| {
                WireRequest::from_json(&json).map_err(|e| NetError::Frame {
                    reason: e.to_string(),
                })
            }) {
                Ok(request) => request,
                Err(error) => {
                    return Frame::json(
                        FrameKind::Error,
                        &WireFailure::new(0, ErrorCode::BadRequest, error.to_string()).to_json(),
                    );
                }
            };
            core.relay(&request, Some(frame)).unwrap_or_else(|error| {
                let code = match &error {
                    NetError::Remote { code, .. } => *code,
                    NetError::Unavailable { .. } | NetError::Io { .. } => ErrorCode::Unavailable,
                    _ => ErrorCode::Internal,
                };
                Frame::json(
                    FrameKind::Error,
                    &WireFailure::new(request.id, code, error.to_string()).to_json(),
                )
            })
        }
        FrameKind::Response | FrameKind::Error => Frame::json(
            FrameKind::Error,
            &WireFailure::new(
                0,
                ErrorCode::BadRequest,
                format!("unexpected {:?} frame on a router", frame.kind),
            )
            .to_json(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::shard::{ShardConfig, ShardServer};
    use crate::serve::ServeConfig;
    use crate::DesignPoint;
    use rasa_workloads::LayerSpec;

    /// A shard serving BASELINE and RASA-DMDB-WLS at default cap `cap`.
    fn bind_shard(addr: &str, shard_id: u32, cap: usize) -> ShardServer {
        let designs = vec![DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
        let config = ShardConfig {
            shard_id,
            serve: ServeConfig {
                matmul_cap: Some(cap),
                ..ServeConfig::default()
            },
        };
        ShardServer::bind(addr, config, &designs).unwrap()
    }

    fn spawn_shards(count: u32) -> (Vec<ShardServer>, Vec<String>) {
        let shards: Vec<ShardServer> = (0..count)
            .map(|shard_id| bind_shard("127.0.0.1:0", shard_id, 8))
            .collect();
        let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
        (shards, addrs)
    }

    fn uncached() -> RouterConfig {
        RouterConfig {
            result_cache_capacity: 0,
        }
    }

    /// One request frame over `conn`, and its decoded answer.
    fn exchange(conn: &mut TcpStream, request: &WireRequest) -> Result<WireResponse, NetError> {
        Frame::json(FrameKind::Request, &request.to_json())
            .write_to(conn)
            .unwrap();
        WireResponse::from_reply(&Frame::read_from(conn).unwrap(), request.id)
    }

    #[test]
    fn router_routes_to_the_home_shard() {
        let (shards, addrs) = spawn_shards(3);
        let router = Router::new(&addrs, RouterConfig::default()).unwrap();
        for pass in 0..2 {
            for i in 0..6 {
                let request = WireRequest::new(
                    6 * pass + i,
                    "BASELINE",
                    LayerSpec::fc(format!("L{i}"), 64, 64 + 32 * (i as usize % 3), 128),
                );
                let home = router.home_shard(&request).unwrap();
                let response = router.route(&request).unwrap();
                assert_eq!(response.id, 6 * pass + i);
                assert_eq!(response.shard, home, "request must land on its home shard");
                assert_eq!(response.report.workload, format!("L{i}"), "relabelled");
            }
        }
        let stats = router.stats();
        assert_eq!(stats.routed, 12);
        assert_eq!(stats.failovers, 0);
        // The first pass misses the router's result cache six times: L3–L5
        // reuse the shapes of L0–L2 under other names, so their home
        // shards answer them from their cell caches, relabelled. The
        // second pass repeats every name and never reaches a shard.
        assert_eq!(stats.cache_misses, 6);
        assert_eq!(stats.cache_hits, 6);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.per_shard.iter().sum::<u64>(), 6);
        let shard_hits: u64 = shards.iter().map(|s| s.health().cache.hits).sum();
        assert_eq!(shard_hits, 3);
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn protocol_violations_poison_the_backend_connection_pool() {
        // A rogue shard that echoes every frame back verbatim: answering
        // a request with a Request frame is a protocol violation, and the
        // stream that produced it is desynced by definition.
        let rogue = EventLoop::bind(
            "127.0.0.1:0",
            "rogue",
            Arc::new(|frame: &Frame| frame.clone()),
            1,
            false,
        )
        .unwrap();
        let addrs = vec![rogue.local_addr().to_string()];
        let router = Router::new(&addrs, RouterConfig::default()).unwrap();

        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("L", 64, 64, 128));
        let err = router.route(&request).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "got {err}");
        assert!(
            router.core.backends[0]
                .pool
                .lock()
                .expect("router pool lock")
                .is_empty(),
            "a desynced stream must not be returned to the pool"
        );
    }

    #[test]
    fn wrong_kind_probe_replies_neither_pool_nor_revive() {
        // A rogue peer answering every frame — probes included — with a
        // Request frame.
        let rogue = EventLoop::bind(
            "127.0.0.1:0",
            "rogue",
            Arc::new(|_: &Frame| Frame {
                kind: FrameKind::Request,
                payload: b"{}".to_vec(),
            }),
            1,
            false,
        )
        .unwrap();
        let addrs = vec![rogue.local_addr().to_string()];
        let router = Router::new(&addrs, RouterConfig::default()).unwrap();
        let backend = &router.core.backends[0];
        let pooled = || backend.pool.lock().expect("router pool lock").len();

        // A health aggregate skips the rogue and drops its connection, but
        // a protocol failure is no transport failure: it stays alive.
        let health = router.health();
        assert!(health.shards.is_empty());
        assert!(health.dead.is_empty());
        assert_eq!(pooled(), 0, "a wrong-kind probe reply must clear the pool");

        // Marked dead (as a transport failure would), the rogue now holds
        // the shard's address: its reply is no proof of a revived shard.
        backend.alive.store(false, Ordering::SeqCst);
        let health = router.health();
        assert!(health.shards.is_empty());
        assert_eq!(health.dead, vec![0]);
        assert!(!backend.alive.load(Ordering::SeqCst));
        assert_eq!(router.stats().revived, 0);
        assert_eq!(pooled(), 0);
    }

    #[test]
    fn result_cache_hits_replay_shard_identical_bytes() {
        let (shards, addrs) = spawn_shards(2);
        let caching = Router::new(&addrs, RouterConfig::default()).unwrap();
        let direct = Router::new(&addrs, uncached()).unwrap();

        // Warm the caching router, then compare a cache hit against a real
        // shard round trip for the same request: byte-identical JSON.
        let request = WireRequest::new(11, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let warm = caching.route(&request).unwrap();
        let hit = caching.route(&request).unwrap();
        let round_trip = direct.route(&request).unwrap();
        assert_eq!(caching.stats().cache_hits, 1);
        assert_eq!(direct.stats().cache_hits, 0, "disabled cache never hits");
        assert_eq!(
            direct.stats().cache_misses,
            0,
            "disabled cache never probes"
        );
        assert_eq!(
            hit.to_json().to_string_compact(),
            round_trip.to_json().to_string_compact(),
            "a cache hit must be indistinguishable from a shard round trip"
        );
        assert_eq!(
            warm.to_json().to_string_compact(),
            hit.to_json().to_string_compact()
        );

        // A same-shape request under a different workload name misses the
        // router's cache; the shard's cell cache answers it, relabelled,
        // and the bytes still match a shard round trip.
        let relabelled =
            WireRequest::new(12, "BASELINE", LayerSpec::fc("DLRM-1-alias", 64, 128, 128));
        let miss = caching.route(&relabelled).unwrap();
        let round_trip = direct.route(&relabelled).unwrap();
        assert_eq!(caching.stats().cache_hits, 1);
        assert_eq!(caching.stats().cache_misses, 2);
        assert_eq!(miss.report.workload, "DLRM-1-alias");
        assert_eq!(
            miss.to_json().to_string_compact(),
            round_trip.to_json().to_string_compact()
        );
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn poisoned_locks_leave_routing_correct() {
        // A panic while a router lock is held must not fail every later
        // request: the result cache is cleared and used again, and the
        // connection pool is used as it stands.
        use crate::cache::panic_holding;
        let (shards, addrs) = spawn_shards(1);
        let router = Router::new(&addrs, RouterConfig::default()).unwrap();
        let direct = Router::new(&addrs, uncached()).unwrap();
        let answer = |router: &Router, id, n| {
            let request = WireRequest::new(id, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, n));
            router
                .route(&request)
                .unwrap()
                .to_json()
                .to_string_compact()
        };
        let expected = answer(&direct, 21, 128);
        assert_eq!(answer(&router, 21, 128), expected);
        let cache = router.core.result_cache.as_ref().unwrap();
        panic_holding(|| cache.lock());
        assert_eq!(answer(&router, 21, 128), expected);
        assert_eq!(router.stats().cache_hits, 0, "the cleared cache missed");
        assert_eq!(answer(&router, 21, 128), expected);
        assert_eq!(router.stats().cache_hits, 1, "and caches again");

        panic_holding(|| router.core.backends[0].pool.lock());
        assert_eq!(answer(&router, 22, 96), answer(&direct, 22, 96));
        assert_eq!(router.core.backends[0].pool().len(), 1, "pooled again");
        for shard in shards {
            shard.shutdown();
        }
    }

    /// A request is a design and a layer: a bound router answers a kernel
    /// override with `bad_request` and routes nothing, and relays a request
    /// whose `kernel` is `null` exactly like one without.
    #[test]
    fn bound_router_answers_kernel_overrides_with_bad_request() {
        use crate::net::wire::{request_frame_with_kernel, LEGACY_UNCAPPED_KERNEL};
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let mut send = |frame: &Frame| {
            frame.write_to(&mut conn).unwrap();
            Frame::read_from(&mut conn).unwrap()
        };
        let request = WireRequest::new(2, "BASELINE", LayerSpec::fc("DLRM-1", 512, 1024, 1024));

        let reply = send(&request_frame_with_kernel(&request, LEGACY_UNCAPPED_KERNEL));
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(failure.code, ErrorCode::BadRequest, "{}", failure.message);
        let stats = router.stats();
        assert_eq!((stats.routed, stats.cache_misses), (0, 0), "nothing routed");
        assert_eq!(shards[0].health().served, 0);

        let with_null = send(&request_frame_with_kernel(&request, "null"));
        assert_eq!(with_null.kind, FrameKind::Response);
        let mut direct = TcpStream::connect(&addrs[0]).unwrap();
        Frame::json(FrameKind::Request, &request.to_json())
            .write_to(&mut direct)
            .unwrap();
        assert_eq!(with_null, Frame::read_from(&mut direct).unwrap());
        assert_eq!(router.stats().routed, 1);
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// A layer that reduces deeper than `MAX_GEMM_K` is a `bad_request` at
    /// the router and never reaches a shard; one at the bound is answered.
    #[test]
    fn bound_router_answers_deep_reductions_with_bad_request() {
        use crate::net::wire::MAX_GEMM_K;
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let deep = |k| WireRequest::new(6, "BASELINE", LayerSpec::fc("deep", 1, k, 1));
        match exchange(&mut conn, &deep(MAX_GEMM_K + 1)) {
            Err(NetError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::BadRequest, "{message}");
                assert!(message.contains("K = 32769"), "{message}");
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
        let stats = router.stats();
        assert_eq!((stats.routed, stats.cache_misses), (0, 0), "nothing routed");
        assert_eq!(shards[0].health().served, 0);
        let response = exchange(&mut conn, &deep(MAX_GEMM_K)).unwrap();
        assert_eq!(response.report.workload, "deep");
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// One request frame through a bound router and straight to a shard:
    /// the router forwards the shard's Response bytes, on a cache miss and
    /// on a cache hit that carries a new id.
    #[test]
    fn bound_router_forwards_shard_reply_bytes() {
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
        let mut via_router = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let mut direct = TcpStream::connect(&addrs[0]).unwrap();
        let exchange = |conn: &mut TcpStream, request: &WireRequest| {
            Frame::json(FrameKind::Request, &request.to_json())
                .write_to(conn)
                .unwrap();
            let reply = Frame::read_from(conn).unwrap();
            assert_eq!(reply.kind, FrameKind::Response);
            reply.payload
        };
        for id in [21, 22] {
            let request = WireRequest::new(id, "BASELINE", LayerSpec::fc("BERT-1", 64, 96, 128));
            assert_eq!(
                exchange(&mut via_router, &request),
                exchange(&mut direct, &request),
                "request {id}"
            );
        }
        let stats = router.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// A rogue shard answering request 7 with a genuine shard reply for id
    /// 70: the canonical prefix `{"id":7,` ends in a comma, so the router
    /// rejects it instead of taking `{"id":70` for a match.
    #[test]
    fn replies_for_another_id_are_protocol_violations() {
        let (shards, addrs) = spawn_shards(1);
        let layer = LayerSpec::fc("L", 64, 64, 128);
        let mut conn = TcpStream::connect(&addrs[0]).unwrap();
        Frame::json(
            FrameKind::Request,
            &WireRequest::new(70, "BASELINE", layer.clone()).to_json(),
        )
        .write_to(&mut conn)
        .unwrap();
        let answer_for_70 = Frame::read_from(&mut conn).unwrap();
        assert_eq!(answer_for_70.kind, FrameKind::Response);
        let rogue = EventLoop::bind(
            "127.0.0.1:0",
            "rogue",
            Arc::new(move |_: &Frame| answer_for_70.clone()),
            1,
            false,
        )
        .unwrap();
        let router = Router::bind(
            "127.0.0.1:0",
            &[rogue.local_addr().to_string()],
            RouterConfig::default(),
        )
        .unwrap();
        let pooled = || router.core.backends[0].pool.lock().unwrap().len();

        let request = WireRequest::new(7, "BASELINE", layer);
        let err = router.route(&request).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        assert_eq!(pooled(), 0, "a desynced stream must not be pooled");

        let mut client = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        Frame::json(FrameKind::Request, &request.to_json())
            .write_to(&mut client)
            .unwrap();
        let reply = Frame::read_from(&mut client).unwrap();
        assert_eq!(reply.kind, FrameKind::Error);
        let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!((failure.id, failure.code), (7, ErrorCode::Internal));
        assert_eq!(pooled(), 0);
        assert_eq!(router.stats().routed, 0);
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// A shard's Error frame reaches the client byte for byte, with the
    /// shard's own id, code and message, and counts as a remote error.
    #[test]
    fn shard_error_frames_pass_through_unchanged() {
        let failure = Frame::json(
            FrameKind::Error,
            &WireFailure::new(7, ErrorCode::Simulation, "rogue failure").to_json(),
        );
        let rogue_failure = failure.clone();
        let rogue = EventLoop::bind(
            "127.0.0.1:0",
            "rogue",
            Arc::new(move |_: &Frame| rogue_failure.clone()),
            1,
            false,
        )
        .unwrap();
        let router = Router::bind(
            "127.0.0.1:0",
            &[rogue.local_addr().to_string()],
            RouterConfig::default(),
        )
        .unwrap();
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("L", 64, 64, 128));
        let mut client = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        Frame::json(FrameKind::Request, &request.to_json())
            .write_to(&mut client)
            .unwrap();
        assert_eq!(Frame::read_from(&mut client).unwrap(), failure);
        assert_eq!(
            router.route(&request).unwrap_err(),
            NetError::Remote {
                code: ErrorCode::Simulation,
                message: "rogue failure".into(),
            }
        );
        let stats = router.stats();
        assert_eq!((stats.remote_errors, stats.routed), (2, 0));
        router.shutdown();
    }

    #[test]
    fn router_fails_over_and_revives() {
        let (mut shards, addrs) = spawn_shards(2);
        // The same request is routed repeatedly and must reach a shard
        // every time for the failover machinery to engage — disable the
        // result cache, which would otherwise answer the replays itself.
        let router = Router::new(&addrs, uncached()).unwrap();
        let request = WireRequest::new(1, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let home = router.home_shard(&request).unwrap();

        // Kill the home shard: the request must still complete, on the
        // other shard, and the death must be recorded.
        shards.remove(home as usize).shutdown();
        let response = router.route(&request).unwrap();
        assert_ne!(response.shard, home);
        let stats = router.stats();
        assert_eq!(stats.routed, 1);
        assert_eq!(stats.dead_marked, 1);
        assert_eq!(stats.failovers, 1);
        assert_eq!(router.health().dead, vec![home]);

        // Nothing to revive while the shard is down...
        assert_eq!(router.health().dead, vec![home]);
        assert_eq!(router.stats().revived, 0);
        // ...but a resurrected shard at the same address comes back on the
        // next health probe.
        let resurrected = bind_shard(&addrs[home as usize], home, 8);
        let health = router.health();
        assert!(health.dead.is_empty());
        assert_eq!(health.shards.len(), 2);
        let stats = router.stats();
        assert_eq!((stats.revived, stats.dead_marked), (1, 1));
        let response = router.route(&request).unwrap();
        assert_eq!(response.shard, home, "revived shard gets its keys back");
        resurrected.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// A bound router that marked its shard dead takes it back on the next
    /// health frame a client sends it, and routes to it again.
    #[test]
    fn health_frames_revive_a_recovered_shard() {
        let (mut shards, addrs) = spawn_shards(2);
        let router = Router::bind("127.0.0.1:0", &addrs, uncached()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let request = WireRequest::new(1, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let home = router.home_shard(&request).unwrap();

        shards.remove(home as usize).shutdown();
        assert_ne!(exchange(&mut conn, &request).unwrap().shard, home);
        assert_eq!(router.stats().dead_marked, 1);

        let resurrected = bind_shard(&addrs[home as usize], home, 8);
        Frame::health_probe().write_to(&mut conn).unwrap();
        let reply = Frame::read_from(&mut conn).unwrap();
        assert_eq!(reply.kind, FrameKind::Health);
        let health = RouterHealth::from_json(&reply.payload_json().unwrap()).unwrap();
        assert!(health.dead.is_empty(), "dead: {:?}", health.dead);
        assert_eq!(health.stats.revived, 1);
        assert_eq!(exchange(&mut conn, &request).unwrap().shard, home);

        router.shutdown();
        resurrected.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// A shard restarted on its address is not dead: the router's pooled
    /// connection to the old process fails, the exchange redials once, and
    /// the new process answers. Only a failed fresh dial marks a shard
    /// dead, so no health probe is needed.
    #[test]
    fn a_restarted_shard_is_redialled_not_marked_dead() {
        let (mut shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, uncached()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let request = |id| WireRequest::new(id, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        assert_eq!(exchange(&mut conn, &request(1)).unwrap().id, 1);

        shards.remove(0).shutdown();
        let restarted = bind_shard(&addrs[0], 0, 8);
        for id in 2..5 {
            assert_eq!(exchange(&mut conn, &request(id)).unwrap().id, id);
        }
        let stats = router.stats();
        assert_eq!(
            (stats.routed, stats.dead_marked, stats.failovers),
            (4, 0, 0)
        );
        assert_eq!(
            restarted.health().cache.misses,
            1,
            "the new process answered"
        );
        router.shutdown();
        restarted.shutdown();
    }

    #[test]
    fn router_surfaces_remote_errors_and_unavailability() {
        let (shards, addrs) = spawn_shards(2);
        let router = Router::new(&addrs, RouterConfig::default()).unwrap();
        let bad = WireRequest::new(5, "NO-SUCH", LayerSpec::fc("DLRM-1", 64, 128, 128));
        // The router does not resolve designs: an unknown one reaches its
        // home shard, whose `unknown_design` error comes back unchanged.
        let err = router.route(&bad).unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::UnknownDesign,
                ..
            }
        ));
        let stats = router.stats();
        assert_eq!((stats.remote_errors, stats.routed), (1, 0));
        for shard in shards {
            shard.shutdown();
        }
        // With every shard gone, routing reports unavailability.
        let request = WireRequest::new(6, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let err = router.route(&request).unwrap_err();
        assert!(matches!(err, NetError::Unavailable { .. }), "{err}");
        assert_eq!(router.stats().dead_marked, 2);
        // Once every shard is marked dead, a bound router answers with the
        // error frame WIRE_PROTOCOL.md dumps byte for byte.
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let reply = answer(
            &Frame::json(FrameKind::Request, &request.to_json()),
            &router.core,
        );
        let failure = WireFailure::new(
            7,
            ErrorCode::Unavailable,
            "no shard available: every shard is marked dead",
        );
        assert_eq!(reply, Frame::json(FrameKind::Error, &failure.to_json()));
    }

    /// Health payloads from before `serve` left a shard's health and
    /// `window_rejected` left the router's stats still decode: the
    /// decoders ignore both members.
    #[test]
    fn health_payloads_with_dropped_members_still_decode() {
        let shard = r#"{"shard":0,"designs":["BASELINE"],"served":5,"serve":{"submitted":4,"completed":4,"batches":4},"cache":{"hits":1,"misses":3,"entries":3,"evictions":0,"capacity":24}}"#;
        let legacy = format!(
            r#"{{"stats":{{"routed":4,"remote_errors":0,"failovers":0,"dead_marked":1,"revived":0,"window_blocked":0,"window_rejected":2,"cache_hits":0,"cache_misses":4,"per_shard":[4,0]}},"dead":[1],"shards":[{shard}]}}"#
        );
        let health = RouterHealth::from_json(&JsonValue::parse(&legacy).unwrap()).unwrap();
        assert_eq!(health.stats.routed, 4);
        assert_eq!(health.stats.per_shard, vec![4, 0]);
        assert_eq!(health.dead, vec![1]);
        let status = &health.shards[0];
        assert_eq!(
            *status,
            HealthStatus::from_json(&JsonValue::parse(shard).unwrap()).unwrap()
        );
        assert_eq!(
            (status.served, status.cache.hits + status.cache.misses),
            (5, 4)
        );
        let written = health.to_json().to_string_compact();
        assert!(!written.contains("serve\""), "{written}");
        assert!(!written.contains("window_rejected"), "{written}");
    }

    #[test]
    fn bound_router_serves_frames() {
        let (shards, addrs) = spawn_shards(2);
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
        let addr = router.local_addr().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();

        let request = WireRequest::new(9, "RASA-DMDB-WLS", LayerSpec::fc("BERT-1", 64, 128, 128));
        Frame::json(FrameKind::Request, &request.to_json())
            .write_to(&mut conn)
            .unwrap();
        let reply = Frame::read_from(&mut conn).unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        let response = WireResponse::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(response.id, 9);
        assert_eq!(response.report.design, "RASA-DMDB-WLS");

        // The router's health aggregates both shards.
        Frame::health_probe().write_to(&mut conn).unwrap();
        let reply = Frame::read_from(&mut conn).unwrap();
        assert_eq!(reply.kind, FrameKind::Health);
        let health = RouterHealth::from_json(&reply.payload_json().unwrap()).unwrap();
        assert_eq!(health.stats.routed, 1);
        assert_eq!(health.shards.len(), 2);
        assert!(health.dead.is_empty());

        // RouterHealth JSON round-trips.
        let text = health.to_json().to_string_compact();
        let back = RouterHealth::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, health);

        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn bound_router_answers_invalid_conv_shapes_with_bad_request() {
        // Routing renders the route key, which lowers the conv: a stride-0
        // shape once divided by zero there and panicked the worker, and
        // overflowing shapes panicked (debug) or wrapped (release).
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        for (layer, what) in crate::net::wire::undecodable_layers() {
            let request = WireRequest::new(3, "BASELINE", layer);
            Frame::json(FrameKind::Request, &request.to_json())
                .write_to(&mut conn)
                .unwrap();
            let reply = Frame::read_from(&mut conn).unwrap();
            assert_eq!(reply.kind, FrameKind::Error);
            let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
            assert_eq!(failure.code, ErrorCode::BadRequest, "{}", failure.message);
            assert!(failure.message.contains(what), "{}", failure.message);
            Frame::health_probe().write_to(&mut conn).unwrap();
            let reply = Frame::read_from(&mut conn).unwrap();
            assert_eq!(reply.kind, FrameKind::Health);
        }
        assert_eq!(router.stats().routed, 0, "nothing reached a shard");
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn bound_router_answers_oversized_names_with_bad_request() {
        // The result cache keys on, and holds, the workload name: a name
        // the decoder lets through is memory the cache pins.
        use crate::net::wire::MAX_NAME_LEN;
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let long = "n".repeat(64 * 1024);
        for request in [
            WireRequest::new(4, long.clone(), LayerSpec::fc("DLRM-1", 64, 128, 128)),
            WireRequest::new(4, "BASELINE", LayerSpec::fc(long, 64, 128, 128)),
        ] {
            match exchange(&mut conn, &request) {
                Err(NetError::Remote { code, message }) => {
                    assert_eq!(code, ErrorCode::BadRequest, "{message}");
                }
                other => panic!("expected bad_request, got {other:?}"),
            }
        }
        assert_eq!(router.stats().routed, 0, "nothing reached a shard");
        let at_cap = "n".repeat(MAX_NAME_LEN);
        let request = WireRequest::new(5, "BASELINE", LayerSpec::fc(at_cap.clone(), 64, 128, 128));
        assert_eq!(
            exchange(&mut conn, &request).unwrap().report.workload,
            at_cap
        );
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    /// The router's followers are its admission control: three times as
    /// many concurrent clients as a bound router has followers, all on one
    /// shard, wait in their sockets and every one gets its Response.
    #[test]
    fn bound_router_queues_excess_clients_on_its_workers() {
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, uncached()).unwrap();
        let conns: Vec<TcpStream> = (0..3 * bound_workers())
            .map(|_| TcpStream::connect(router.local_addr().unwrap()).unwrap())
            .collect();
        let start = std::sync::Barrier::new(conns.len());
        thread::scope(|scope| {
            for (id, mut conn) in (0..).zip(conns) {
                let start = &start;
                scope.spawn(move || {
                    let layer = LayerSpec::fc(format!("L{id}"), 64, 64 + 32 * (id % 4), 128);
                    let request = WireRequest::new(id as u64, "BASELINE", layer);
                    start.wait();
                    assert_eq!(exchange(&mut conn, &request).unwrap().id, id as u64);
                });
            }
        });
        let stats = router.stats();
        assert_eq!(stats.routed, 3 * bound_workers() as u64);
        assert_eq!(stats.window_blocked, 0);
        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn empty_shard_list_is_rejected() {
        let err = Router::new(&[], RouterConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidExperiment { .. }));
    }
}
