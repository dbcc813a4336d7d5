//! Request/response types of the serving layer.

use crate::{SimError, SimReport};
use std::sync::Arc;

/// Wall-clock latency breakdown of one served request, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestLatency {
    /// Time spent waiting before the simulation started. Always 0: the
    /// server answers on the submitting thread, so nothing queues.
    pub queue_seconds: f64,
    /// Wall-clock time of the simulation (or cache lookup).
    pub simulate_seconds: f64,
    /// End-to-end: submission to response delivery.
    pub total_seconds: f64,
}

/// The served result: a memoized [`SimReport`] plus serving metadata.
#[derive(Debug, Clone)]
pub struct GemmResponse {
    /// The simulation result, relabelled to the requested workload name.
    pub report: Arc<SimReport>,
    /// Wall-clock latency breakdown.
    pub latency: RequestLatency,
}

/// The answer to one request, returned by
/// [`GemmServer::submit`](crate::serve::GemmServer::submit) once the
/// request has been simulated (or recalled).
#[derive(Debug)]
pub struct ResponseHandle {
    pub(super) result: Result<GemmResponse, SimError>,
}

impl ResponseHandle {
    /// Takes the answer. Never blocks: `submit` already computed it.
    ///
    /// # Errors
    ///
    /// Propagates the simulation error for a failed request.
    pub fn wait(self) -> Result<GemmResponse, SimError> {
        self.result
    }
}
