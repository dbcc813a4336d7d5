//! Networked sharded serving tier.
//!
//! This module turns the in-process [`GemmServer`](crate::serve::GemmServer)
//! into a small distributed system while preserving the byte-stability
//! guarantees of the rest of the crate:
//!
//! - [`wire`] — the length-prefixed framed protocol (version byte, frame
//!   kinds, max-frame guard) and the JSON payload types that ride in it.
//!   A request is a design name and a layer: shards simulate it with
//!   their default kernel at their configured fidelity, and kernel
//!   overrides stay in process ([`SimJob::with_kernel`](crate::SimJob::with_kernel)).
//! - [`hash`] — FNV-1a rendezvous hashing that ranks the shards for a
//!   request's route key, so repeated shapes always land where the LRU
//!   cell cache is already warm.
//! - [`shard`] — [`ShardServer`]: one TCP worker wrapping a `GemmServer`
//!   behind the shared event-loop frame server, simulating on the loop's
//!   workers.
//! - [`router`] — [`Router`]: rendezvous routing across N shards with
//!   dead-shard failover (a stale pooled connection is redialled once
//!   before a shard counts as dead). It relays bytes: a request frame
//!   goes to the shard unchanged, and the shard's reply comes back
//!   unchanged once its kind and id check out. It routes on the request
//!   alone and holds no shard configuration. A bound router's event-loop workers are the
//!   tier's admission control: requests beyond them wait in the loop's
//!   queue.
//! - [`client`] — [`NetClient`]: a blocking client library with bounded
//!   retry/backoff and endpoint rotation. It and the library router decode
//!   replies with one decoder, [`WireResponse::from_reply`].
//!
//! Servers run on a **readiness-based event loop**: one thread multiplexes
//! every connection over non-blocking sockets (a hand-rolled epoll binding
//! on Linux, a portable level-triggered poll fallback elsewhere), each
//! connection carrying an incremental [`wire::FrameDecoder`] so partial
//! frames survive across readiness events, with complete frames dispatched
//! to a worker pool whose size the owning server picks and whose handler
//! panics become `internal` error frames. There is no async runtime and no
//! new dependency — the crate keeps its zero-dependency stance. Responses
//! carry full [`SimReport`](crate::SimReport)s whose JSON is
//! byte-identical to what the same job produces in process
//! (`tests/net_wire.rs` proves it).
//!
//! See `docs/ARCHITECTURE.md` for where this tier sits in the crate map
//! (including the transport section: event loop, buffer lifecycle,
//! fallback matrix) and `docs/WIRE_PROTOCOL.md` for the byte-level frame
//! spec.

pub mod client;
mod event_loop;
pub mod hash;
pub mod router;
pub mod shard;
mod sys;
pub mod wire;

pub use client::{ClientStats, NetClient};
pub use router::{Router, RouterConfig, RouterHealth, RouterStats, DEFAULT_RESULT_CACHE_CAPACITY};
pub use shard::{ShardConfig, ShardServer};
pub use wire::{
    ErrorCode, Frame, FrameDecoder, FrameKind, HealthStatus, WireFailure, WireRequest,
    WireResponse, MAX_FRAME_LEN, MAX_GEMM_K, MAX_NAME_LEN, WIRE_VERSION,
};

use crate::SimError;
use std::fmt;
use std::io;

/// Errors produced by the networked serving tier.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The transport failed (connect, read or write).
    Io {
        /// The originating I/O error kind.
        kind: io::ErrorKind,
        /// Human-readable description of the transport failure.
        reason: String,
    },
    /// A frame violated the protocol (truncated, bad length, unknown kind
    /// or unparseable payload).
    Frame {
        /// Human-readable description of the framing violation.
        reason: String,
    },
    /// The peer declared a frame larger than [`wire::MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The peer speaks a protocol version this build does not.
    BadVersion {
        /// The version byte the peer sent.
        got: u8,
    },
    /// The peer answered with a frame the protocol state does not allow
    /// (e.g. a health reply to a simulation request).
    Protocol {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The peer answered with an error frame.
    Remote {
        /// The machine-readable failure category from the error frame.
        code: wire::ErrorCode,
        /// The human-readable message from the error frame.
        message: String,
    },
    /// No shard could be reached after exhausting retries and failover.
    Unavailable {
        /// Human-readable description of what was exhausted.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { kind, reason } => write!(f, "transport error ({kind:?}): {reason}"),
            NetError::Frame { reason } => write!(f, "framing error: {reason}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            NetError::BadVersion { got } => write!(
                f,
                "peer speaks wire version {got}, this build speaks {}",
                wire::WIRE_VERSION
            ),
            NetError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            NetError::Remote { code, message } => {
                write!(f, "remote error [{}]: {message}", code.as_str())
            }
            NetError::Unavailable { reason } => write!(f, "no shard available: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(value: io::Error) -> Self {
        NetError::Io {
            kind: value.kind(),
            reason: value.to_string(),
        }
    }
}

impl From<NetError> for SimError {
    fn from(value: NetError) -> Self {
        SimError::Net {
            reason: value.to_string(),
        }
    }
}

impl NetError {
    /// Whether a client may transparently retry the same request, possibly
    /// against another shard: transport failures and retryable remote
    /// codes are; protocol violations and simulation failures are not.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Io { .. } | NetError::Unavailable { .. } => true,
            NetError::Remote { code, .. } => code.is_retryable(),
            NetError::Frame { .. }
            | NetError::FrameTooLarge { .. }
            | NetError::BadVersion { .. }
            | NetError::Protocol { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_errors_display_and_convert() {
        let io_err = NetError::from(io::Error::new(io::ErrorKind::ConnectionRefused, "nope"));
        assert!(io_err.to_string().contains("transport"));
        assert!(io_err.is_retryable());

        let remote = NetError::Remote {
            code: wire::ErrorCode::Unavailable,
            message: "every shard is marked dead".into(),
        };
        assert!(remote.is_retryable());
        let remote = NetError::Remote {
            code: wire::ErrorCode::Simulation,
            message: "bad shape".into(),
        };
        assert!(!remote.is_retryable());

        let version = NetError::BadVersion { got: 9 };
        assert!(!version.is_retryable());
        assert!(version.to_string().contains("version 9"));

        let sim: SimError = version.into();
        assert!(matches!(sim, SimError::Net { .. }));
        assert!(sim.to_string().contains("network serving error"));
    }
}
