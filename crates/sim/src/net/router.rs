//! Shard-warm request routing with per-shard bounded in-flight windows.
//!
//! A [`Router`] owns a [`HashRing`] over N shard addresses and forwards
//! every request to the shard that owns its **semantic shape key** — the
//! same key the shard's runner memoizes cells under — so repeated shapes
//! always land where the LRU cell cache is already warm (see
//! [`WireRequest::shape_key`]).
//!
//! Two mechanisms bound and protect the fan-out:
//!
//! - **Per-shard in-flight windows** are the tier's admission control: at
//!   most `inflight_per_shard` requests may be outstanding to one shard;
//!   excess callers either block until a slot frees
//!   ([`AdmissionControl::Block`]) or are turned away with a retryable
//!   `overloaded` error ([`AdmissionControl::Reject`]). A slow shard
//!   therefore backpressures its own traffic instead of absorbing
//!   unbounded connections.
//! - **Dead-shard failover**: a transport failure marks the shard dead and
//!   the request is retried on the next shard in the ring's clockwise
//!   [`preference order`](HashRing::preference_order) — deterministic, and
//!   minimal-churn (only the dead shard's keys move). Requests are
//!   idempotent pure simulations, so retrying on another shard can never
//!   produce a different answer, only a colder cache.
//!   [`Router::revive_dead`] probes dead shards and puts recovered ones
//!   back on the ring.
//!
//! [`Router::bind`] additionally exposes the router itself as a frame
//! server (the `rasa-router` binary), answering health probes with a
//! [`RouterHealth`] aggregate that nests every live shard's
//! [`HealthStatus`] — the per-shard cache-churn view the distributed soak
//! reports.

use crate::cache::LruCache;
use crate::json::{FromJson, JsonError, JsonValue, ToJson};
use crate::key::CellKey;
use crate::net::event_loop::EventLoop;
use crate::net::hash::HashRing;
use crate::net::wire::{
    ErrorCode, Frame, FrameKind, HealthStatus, WireFailure, WireRequest, WireResponse,
};
use crate::net::NetError;
use crate::prof::{self, Stage};
use crate::SimError;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// What a caller does when its shard's in-flight window is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionControl {
    /// Block the caller until an in-flight request to that shard finishes.
    /// Backpressure propagates to the client.
    #[default]
    Block,
    /// Fail fast with a retryable `overloaded` error; the request never
    /// reaches the shard and is counted in [`RouterStats::window_rejected`].
    Reject,
}

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// Maximum requests concurrently outstanding to one shard.
    pub inflight_per_shard: usize,
    /// What happens when a shard's window is full: block the caller until
    /// a slot frees, or reject with a retryable `overloaded` error.
    pub admission: AdmissionControl,
    /// The default matmul cap the shards run with. Must match the shards'
    /// [`ServeConfig::matmul_cap`](crate::serve::ServeConfig::matmul_cap)
    /// so the routing key equals the shard's memoization key.
    pub matmul_cap: Option<usize>,
    /// Bound on the router's own result cache (LRU over cell keys), probed
    /// before any shard is contacted. `0` disables the cache. Cells are
    /// deterministic pure functions of their key (see DETERMINISM.md), so
    /// cached results never need invalidation.
    pub result_cache_capacity: usize,
}

/// Default bound on the router-side result cache.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 256;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            inflight_per_shard: 32,
            admission: AdmissionControl::Block,
            matmul_cap: crate::serve::ServeConfig::default().matmul_cap,
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
    /// Requests that waited for a full in-flight window (block mode).
    pub window_blocked: u64,
    /// Requests turned away by a full in-flight window (reject mode).
    pub window_rejected: u64,
    /// Requests answered from the router's own result cache — no shard
    /// was contacted (these still count as `routed`).
    pub cache_hits: u64,
    /// Requests that missed the router's result cache (or found it
    /// disabled) and went to a shard.
    pub cache_misses: u64,
    /// Responses attributed to each shard, by shard id.
    pub per_shard: Vec<u64>,
}

impl RouterStats {
    /// Fraction of routed requests answered from the router's result
    /// cache; `0.0` when nothing was probed.
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
                "window_rejected".into(),
                JsonValue::number_from_u64(self.window_rejected),
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
        let field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| JsonError::decode(format!("field '{name}' is not a u64")))
        };
        let per_shard = value
            .get("per_shard")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| JsonError::decode("field 'per_shard' is not an array"))?
            .iter()
            .map(|n| {
                n.as_u64()
                    .ok_or_else(|| JsonError::decode("per_shard entry is not a u64"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RouterStats {
            routed: field("routed")?,
            remote_errors: field("remote_errors")?,
            failovers: field("failovers")?,
            dead_marked: field("dead_marked")?,
            revived: field("revived")?,
            window_blocked: field("window_blocked")?,
            window_rejected: field("window_rejected")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            per_shard,
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
        let dead = value
            .get("dead")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| JsonError::decode("field 'dead' is not an array"))?
            .iter()
            .map(|n| {
                n.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| JsonError::decode("dead entry is not a u32"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shards = value
            .get("shards")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| JsonError::decode("field 'shards' is not an array"))?
            .iter()
            .map(HealthStatus::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RouterHealth {
            stats: RouterStats::from_json(
                value
                    .get("stats")
                    .ok_or_else(|| JsonError::decode("missing field 'stats'"))?,
            )?,
            dead,
            shards,
        })
    }
}

/// The in-flight window of one backend: a counting semaphore with
/// [`AdmissionControl`] semantics.
struct Window {
    in_flight: Mutex<usize>,
    space: Condvar,
    capacity: usize,
}

impl Window {
    fn new(capacity: usize) -> Window {
        Window {
            in_flight: Mutex::new(0),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Takes a slot. Returns whether the caller had to wait, or `None`
    /// when the window is full and `admission` is `Reject`.
    fn acquire(&self, admission: AdmissionControl) -> Option<bool> {
        let mut in_flight = self.in_flight.lock().expect("router window lock");
        let mut waited = false;
        while *in_flight >= self.capacity {
            match admission {
                AdmissionControl::Reject => return None,
                AdmissionControl::Block => {
                    waited = true;
                    in_flight = self.space.wait(in_flight).expect("router window wait");
                }
            }
        }
        *in_flight += 1;
        Some(waited)
    }

    fn release(&self) {
        let mut in_flight = self.in_flight.lock().expect("router window lock");
        *in_flight = in_flight.saturating_sub(1);
        drop(in_flight);
        self.space.notify_one();
    }
}

/// One shard backend: its address, liveness, window and connection pool.
struct Backend {
    shard: u32,
    addr: String,
    alive: AtomicBool,
    window: Window,
    /// Idle connections to the shard. A request pops one (or dials a new
    /// one), uses it exclusively, and returns it on clean completion.
    pool: Mutex<Vec<TcpStream>>,
    /// Retired reply-payload buffers, recycled into the next exchange's
    /// decode. Like the connection pool, its size is bounded by the
    /// number of concurrent exchanges (itself bounded by the in-flight
    /// window).
    scratch: Mutex<Vec<Vec<u8>>>,
    routed: AtomicU64,
}

impl Backend {
    /// One request/response exchange on a pooled or fresh connection,
    /// decoding the reply into a recycled buffer. Hand the reply back via
    /// [`reclaim`](Self::reclaim) once parsed.
    fn exchange(&self, frame: &Frame) -> Result<Frame, NetError> {
        let pooled = self.pool.lock().expect("router pool lock").pop();
        let mut stream = match pooled {
            Some(stream) => stream,
            None => TcpStream::connect(&self.addr).map_err(|e| NetError::Io {
                kind: e.kind(),
                reason: format!("connect {}: {e}", self.addr),
            })?,
        };
        frame.write_to(&mut stream)?;
        let mut buf = self
            .scratch
            .lock()
            .expect("router scratch lock")
            .pop()
            .unwrap_or_default();
        let reply = Frame::read_from_pooled(&mut stream, &mut buf)?;
        self.pool.lock().expect("router pool lock").push(stream);
        Ok(reply)
    }

    /// Drops every pooled connection. After a protocol violation the
    /// stream that carried it is desynced, and it already sits in the pool.
    fn clear_pool(&self) {
        self.pool.lock().expect("router pool lock").clear();
    }

    /// Returns a parsed reply's payload buffer to the scratch pool.
    fn reclaim(&self, reply: Frame) {
        self.scratch
            .lock()
            .expect("router scratch lock")
            .push(reply.into_payload());
    }
}

struct Counters {
    routed: AtomicU64,
    remote_errors: AtomicU64,
    failovers: AtomicU64,
    dead_marked: AtomicU64,
    revived: AtomicU64,
    window_blocked: AtomicU64,
    window_rejected: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

struct RouterCore {
    config: RouterConfig,
    ring: HashRing,
    backends: Vec<Backend>,
    counters: Counters,
    /// The router's own result cache, probed before any shard. `None`
    /// when disabled by configuration.
    result_cache: Option<Mutex<LruCache<CellKey, Arc<WireResponse>>>>,
}

/// A consistent-hashing request router over N shard backends.
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
        let ring = HashRing::new(shard_addrs.len(), config.vnodes);
        let backends = shard_addrs
            .iter()
            .enumerate()
            .map(|(shard, addr)| Backend {
                shard: u32::try_from(shard).expect("shard count fits in u32"),
                addr: addr.clone(),
                alive: AtomicBool::new(true),
                window: Window::new(config.inflight_per_shard),
                pool: Mutex::new(Vec::new()),
                scratch: Mutex::new(Vec::new()),
                routed: AtomicU64::new(0),
            })
            .collect();
        let config_cache_capacity = config.result_cache_capacity;
        Ok(Router {
            core: Arc::new(RouterCore {
                config,
                ring,
                backends,
                counters: Counters {
                    routed: AtomicU64::new(0),
                    remote_errors: AtomicU64::new(0),
                    failovers: AtomicU64::new(0),
                    dead_marked: AtomicU64::new(0),
                    revived: AtomicU64::new(0),
                    window_blocked: AtomicU64::new(0),
                    window_rejected: AtomicU64::new(0),
                    cache_hits: AtomicU64::new(0),
                    cache_misses: AtomicU64::new(0),
                },
                result_cache: (config_cache_capacity > 0)
                    .then(|| Mutex::new(LruCache::new(config_cache_capacity))),
            }),
            server: None,
        })
    }

    /// Builds the router **and** binds `addr` as a frame server for it —
    /// the form the `rasa-router` binary runs. Inbound request frames are
    /// routed; health probes are answered with a [`RouterHealth`].
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
        // Handlers block on shard round trips rather than compute, so the
        // router runs more workers than cores.
        let workers = thread::available_parallelism().map_or(8, |n| (n.get() * 2).clamp(8, 32));
        let server = EventLoop::bind(
            addr,
            "rasa-router",
            Arc::new(move |frame| answer(frame, &core)),
            workers,
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
    /// shard's answer.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for shard-reported failures (including window
    /// rejection in reject mode, as a retryable `overloaded`),
    /// [`NetError::Unavailable`] when every shard is dead or the named
    /// design does not exist (no key can be computed).
    pub fn route(&self, request: &WireRequest) -> Result<WireResponse, NetError> {
        self.core.route(request)
    }

    /// The home shard id for a request, before liveness filtering. Useful
    /// for asserting shard-warm placement in tests and reports.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] when the named design does not exist.
    pub fn home_shard(&self, request: &WireRequest) -> Result<u32, NetError> {
        let key = request.shape_key(self.core.config.matmul_cap)?;
        Ok(self
            .core
            .ring
            .route_point(key.hash64())
            .expect("constructor guarantees a non-empty ring"))
    }

    /// Probes every dead shard with a health frame and revives the ones
    /// that answer. Returns the revived shard ids.
    pub fn revive_dead(&self) -> Vec<u32> {
        self.core.revive_dead()
    }

    /// A point-in-time snapshot of the router's counters.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.core.stats()
    }

    /// The router's health aggregate: its counters plus a fresh snapshot
    /// from every shard that answers a probe (a shard that fails the
    /// probe is marked dead and omitted).
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
    fn route(&self, request: &WireRequest) -> Result<WireResponse, NetError> {
        let key = request.shape_key(self.config.matmul_cap)?;
        if let Some(cached) = self.probe_result_cache(&key, request) {
            return Ok(cached);
        }
        let order = self.ring.preference_order_point(key.hash64());
        // Serialized once: the frame is identical across failover
        // attempts, so re-encoding it per attempt would be pure waste.
        let request_frame = Frame::json(FrameKind::Request, &request.to_json());
        let mut last_io: Option<NetError> = None;
        for (attempt, &shard) in order.iter().enumerate() {
            let backend = &self.backends[shard as usize];
            if !backend.alive.load(Ordering::SeqCst) {
                continue;
            }
            match backend.window.acquire(self.config.admission) {
                Some(true) => {
                    self.counters.window_blocked.fetch_add(1, Ordering::SeqCst);
                }
                Some(false) => {}
                None => {
                    self.counters.window_rejected.fetch_add(1, Ordering::SeqCst);
                    return Err(NetError::Remote {
                        code: ErrorCode::Overloaded,
                        message: format!(
                            "router in-flight window for shard {shard} is at capacity {}",
                            self.config.inflight_per_shard
                        ),
                    });
                }
            }
            let outcome = backend.exchange(&request_frame);
            backend.window.release();
            match outcome {
                Ok(reply) => {
                    if attempt > 0 {
                        self.counters.failovers.fetch_add(1, Ordering::SeqCst);
                    }
                    let response = match self.parse_reply(&reply, request, backend) {
                        Ok(response) => response,
                        Err(error) => {
                            // A protocol violation (wrong frame kind, id
                            // mismatch) means the pooled stream is
                            // desynced: whatever bytes follow belong to the
                            // reply we failed to understand. It must not
                            // serve the next request.
                            if matches!(error, NetError::Protocol { .. }) {
                                backend.clear_pool();
                            }
                            return Err(error);
                        }
                    };
                    backend.reclaim(reply);
                    self.store_result(&key, &response);
                    return Ok(response);
                }
                // Transport failure: the shard is gone (or unreachable).
                // Mark it dead and fail over clockwise. The request never
                // reached a simulation, or reached one whose answer is a
                // pure function of the request — either way the retry is
                // safe.
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

    /// Probes the router-side result cache. A hit replays the cached
    /// response restamped for this request — the id becomes the caller's
    /// and the report is relabelled to the requested workload name,
    /// exactly what a shard with a warm cell would have answered — so no
    /// shard is contacted at all.
    fn probe_result_cache(&self, key: &CellKey, request: &WireRequest) -> Option<WireResponse> {
        let cache = self.result_cache.as_ref()?;
        let probe = prof::time(Stage::CacheProbe);
        let cached = cache
            .lock()
            .expect("router result cache lock")
            .get(key)
            .map(Arc::clone);
        drop(probe);
        match cached {
            Some(response) => {
                self.counters.cache_hits.fetch_add(1, Ordering::SeqCst);
                self.counters.routed.fetch_add(1, Ordering::SeqCst);
                let mut replay = (*response).clone();
                replay.id = request.id;
                if replay.report.workload != request.workload.name() {
                    replay.report.workload = request.workload.name().to_string();
                }
                Some(replay)
            }
            None => {
                self.counters.cache_misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Records a shard's answer in the result cache (the id and workload
    /// label are restamped per request on replay, so storing one
    /// exemplar per cell key is enough).
    fn store_result(&self, key: &CellKey, response: &WireResponse) {
        if let Some(cache) = &self.result_cache {
            cache
                .lock()
                .expect("router result cache lock")
                .insert(key.clone(), Arc::new(response.clone()));
        }
    }

    fn parse_reply(
        &self,
        reply: &Frame,
        request: &WireRequest,
        backend: &Backend,
    ) -> Result<WireResponse, NetError> {
        match reply.kind {
            FrameKind::Response => {
                let response = WireResponse::from_json(&reply.payload_json()?).map_err(|e| {
                    NetError::Frame {
                        reason: format!("undecodable response payload: {e}"),
                    }
                })?;
                if response.id != request.id {
                    return Err(NetError::Protocol {
                        reason: format!(
                            "response id {} does not match request id {}",
                            response.id, request.id
                        ),
                    });
                }
                backend.routed.fetch_add(1, Ordering::SeqCst);
                self.counters.routed.fetch_add(1, Ordering::SeqCst);
                Ok(response)
            }
            FrameKind::Error => {
                let failure = WireFailure::from_json(&reply.payload_json()?).map_err(|e| {
                    NetError::Frame {
                        reason: format!("undecodable error payload: {e}"),
                    }
                })?;
                self.counters.remote_errors.fetch_add(1, Ordering::SeqCst);
                Err(NetError::Remote {
                    code: failure.code,
                    message: failure.message,
                })
            }
            FrameKind::Request | FrameKind::Health => Err(NetError::Protocol {
                reason: format!("shard answered a request with a {:?} frame", reply.kind),
            }),
        }
    }

    fn revive_dead(&self) -> Vec<u32> {
        let mut revived = Vec::new();
        for backend in &self.backends {
            if backend.alive.load(Ordering::SeqCst) {
                continue;
            }
            // Only a Health reply proves a shard is back; any other kind
            // is a protocol violation from whatever now holds the address.
            match backend.exchange(&Frame::health_probe()) {
                Ok(reply) if reply.kind == FrameKind::Health => {
                    backend.alive.store(true, Ordering::SeqCst);
                    self.counters.revived.fetch_add(1, Ordering::SeqCst);
                    revived.push(backend.shard);
                }
                Ok(_) => backend.clear_pool(),
                Err(_) => {}
            }
        }
        revived
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.counters.routed.load(Ordering::SeqCst),
            remote_errors: self.counters.remote_errors.load(Ordering::SeqCst),
            failovers: self.counters.failovers.load(Ordering::SeqCst),
            dead_marked: self.counters.dead_marked.load(Ordering::SeqCst),
            revived: self.counters.revived.load(Ordering::SeqCst),
            window_blocked: self.counters.window_blocked.load(Ordering::SeqCst),
            window_rejected: self.counters.window_rejected.load(Ordering::SeqCst),
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
            if !backend.alive.load(Ordering::SeqCst) {
                continue;
            }
            match backend
                .exchange(&Frame::health_probe())
                .and_then(|reply| match reply.kind {
                    FrameKind::Health => {
                        HealthStatus::from_json(&reply.payload_json()?).map_err(|e| {
                            NetError::Frame {
                                reason: format!("undecodable health payload: {e}"),
                            }
                        })
                    }
                    other => Err(NetError::Protocol {
                        reason: format!("shard answered a probe with a {other:?} frame"),
                    }),
                }) {
                Ok(health) => shards.push(health),
                Err(NetError::Io { .. }) => {
                    if backend.alive.swap(false, Ordering::SeqCst) {
                        self.counters.dead_marked.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Err(NetError::Protocol { .. }) => backend.clear_pool(),
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

/// The frame handler of a bound router: route requests, aggregate health.
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
            match core.route(&request) {
                Ok(response) => Frame::json(FrameKind::Response, &response.to_json()),
                Err(error) => {
                    let code = match &error {
                        NetError::Remote { code, .. } => *code,
                        NetError::Unavailable { .. } | NetError::Io { .. } => {
                            ErrorCode::Unavailable
                        }
                        _ => ErrorCode::Internal,
                    };
                    Frame::json(
                        FrameKind::Error,
                        &WireFailure::new(request.id, code, error.to_string()).to_json(),
                    )
                }
            }
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
    use rasa_numeric::ConvShape;
    use rasa_workloads::LayerSpec;

    fn spawn_shards(count: u32) -> (Vec<ShardServer>, Vec<String>) {
        let designs = vec![DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
        let mut shards = Vec::new();
        let mut addrs = Vec::new();
        for shard_id in 0..count {
            let config = ShardConfig {
                shard_id,
                serve: ServeConfig {
                    matmul_cap: Some(8),
                    ..ServeConfig::default()
                },
            };
            let shard = ShardServer::bind("127.0.0.1:0", config, &designs).unwrap();
            addrs.push(shard.local_addr().to_string());
            shards.push(shard);
        }
        (shards, addrs)
    }

    fn router_config() -> RouterConfig {
        RouterConfig {
            matmul_cap: Some(8),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn router_routes_to_the_home_shard() {
        let (shards, addrs) = spawn_shards(3);
        let router = Router::new(&addrs, router_config()).unwrap();
        for i in 0..6 {
            let request = WireRequest::new(
                i,
                "BASELINE",
                LayerSpec::fc(format!("L{i}"), 64, 64 + 32 * (i as usize % 3), 128),
            );
            let home = router.home_shard(&request).unwrap();
            let response = router.route(&request).unwrap();
            assert_eq!(response.id, i);
            assert_eq!(response.shard, home, "request must land on its home shard");
            assert_eq!(response.report.workload, format!("L{i}"), "relabelled");
        }
        let stats = router.stats();
        assert_eq!(stats.routed, 6);
        assert_eq!(stats.failovers, 0);
        // The three repeated shapes (i = 3, 4, 5 reuse the shapes of
        // i = 0, 1, 2) are answered from the router's result cache and
        // never reach a shard.
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.cache_hits, 3);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.per_shard.iter().sum::<u64>(), 3);
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
        let router = Router::new(&addrs, router_config()).unwrap();

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
        let router = Router::new(&addrs, router_config()).unwrap();
        let backend = &router.core.backends[0];
        let pooled = || backend.pool.lock().expect("router pool lock").len();

        // A health aggregate skips the rogue and drops its connection.
        let health = router.health();
        assert!(health.shards.is_empty());
        assert_eq!(pooled(), 0, "a wrong-kind probe reply must clear the pool");

        // Marked dead (as a transport failure would), the rogue now holds
        // the shard's address: its reply is no proof of a revived shard.
        backend.alive.store(false, Ordering::SeqCst);
        assert!(router.revive_dead().is_empty());
        assert!(!backend.alive.load(Ordering::SeqCst));
        assert_eq!(router.stats().revived, 0);
        assert_eq!(pooled(), 0);
    }

    #[test]
    fn result_cache_hits_replay_shard_identical_bytes() {
        let (shards, addrs) = spawn_shards(2);
        let caching = Router::new(&addrs, router_config()).unwrap();
        let direct = Router::new(
            &addrs,
            RouterConfig {
                result_cache_capacity: 0,
                ..router_config()
            },
        )
        .unwrap();

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

        // A same-shape request under a different workload name and id is
        // still a hit, restamped exactly as the shard would have.
        let relabelled =
            WireRequest::new(12, "BASELINE", LayerSpec::fc("DLRM-1-alias", 64, 128, 128));
        let hit = caching.route(&relabelled).unwrap();
        let round_trip = direct.route(&relabelled).unwrap();
        assert_eq!(caching.stats().cache_hits, 2);
        assert_eq!(
            hit.to_json().to_string_compact(),
            round_trip.to_json().to_string_compact()
        );
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn router_fails_over_and_revives() {
        let (mut shards, addrs) = spawn_shards(2);
        // The same request is routed repeatedly and must reach a shard
        // every time for the failover machinery to engage — disable the
        // result cache, which would otherwise answer the replays itself.
        let router = Router::new(
            &addrs,
            RouterConfig {
                result_cache_capacity: 0,
                ..router_config()
            },
        )
        .unwrap();
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
        assert!(router.revive_dead().is_empty());
        // ...but a resurrected shard at the same address comes back.
        let designs = vec![DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
        let resurrected = ShardServer::bind(
            &addrs[home as usize],
            ShardConfig {
                shard_id: home,
                serve: ServeConfig {
                    matmul_cap: Some(8),
                    ..ServeConfig::default()
                },
            },
            &designs,
        )
        .unwrap();
        assert_eq!(router.revive_dead(), vec![home]);
        let response = router.route(&request).unwrap();
        assert_eq!(response.shard, home, "revived shard gets its keys back");
        resurrected.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn router_surfaces_remote_errors_and_unavailability() {
        let (shards, addrs) = spawn_shards(2);
        let router = Router::new(&addrs, router_config()).unwrap();
        let bad = WireRequest::new(5, "NO-SUCH", LayerSpec::fc("DLRM-1", 64, 128, 128));
        // An unknown design never reaches a shard: no key can be computed.
        let err = router.route(&bad).unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::UnknownDesign,
                ..
            }
        ));
        for shard in shards {
            shard.shutdown();
        }
        // With every shard gone, routing reports unavailability.
        let request = WireRequest::new(6, "BASELINE", LayerSpec::fc("DLRM-1", 64, 128, 128));
        let err = router.route(&request).unwrap_err();
        assert!(matches!(err, NetError::Unavailable { .. }), "{err}");
        assert_eq!(router.stats().dead_marked, 2);
    }

    #[test]
    fn bound_router_serves_frames() {
        let (shards, addrs) = spawn_shards(2);
        let router = Router::bind("127.0.0.1:0", &addrs, router_config()).unwrap();
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
        // Routing renders the cell key, which lowers the conv: a stride-0
        // shape once divided by zero there and panicked the worker.
        let (shards, addrs) = spawn_shards(1);
        let router = Router::bind("127.0.0.1:0", &addrs, router_config()).unwrap();
        let mut conn = TcpStream::connect(router.local_addr().unwrap()).unwrap();
        let stride_zero = ConvShape::new(1, 3, 8, 8, 4, 3, 3, 0, 1);
        let filter_too_large = ConvShape::new(1, 3, 4, 4, 4, 7, 7, 1, 1);
        for shape in [stride_zero, filter_too_large] {
            let request = WireRequest::new(3, "BASELINE", LayerSpec::conv("bad", shape));
            Frame::json(FrameKind::Request, &request.to_json())
                .write_to(&mut conn)
                .unwrap();
            let reply = Frame::read_from(&mut conn).unwrap();
            assert_eq!(reply.kind, FrameKind::Error);
            let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
            assert_eq!(failure.code, ErrorCode::BadRequest, "{}", failure.message);
            assert!(
                failure.message.contains("conv shape"),
                "{}",
                failure.message
            );
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
    fn reject_mode_windows_turn_requests_away() {
        // A window of capacity 1 in reject mode: a concurrent second
        // request must be rejected, not queued. Exercise the window
        // directly (deterministic, no timing).
        let window = Window::new(1);
        assert_eq!(window.acquire(AdmissionControl::Reject), Some(false));
        assert_eq!(window.acquire(AdmissionControl::Reject), None);
        window.release();
        assert_eq!(window.acquire(AdmissionControl::Reject), Some(false));
        window.release();
    }

    #[test]
    fn empty_shard_list_is_rejected() {
        let err = Router::new(&[], router_config()).unwrap_err();
        assert!(matches!(err, SimError::InvalidExperiment { .. }));
    }
}
