//! Request/response types of the serving layer.

use crate::{DesignPoint, SimError, SimJob, SimReport};
use rasa_trace::GemmKernelConfig;
use rasa_workloads::LayerSpec;
use std::sync::Arc;

/// One GEMM query: a workload to run on a design point, optionally under a
/// non-default kernel. The serving analogue of a [`SimJob`].
#[derive(Debug, Clone)]
pub struct GemmRequest {
    /// The design point that must serve the request.
    pub design: DesignPoint,
    /// The workload to simulate.
    pub workload: LayerSpec,
    /// Kernel override (`None` uses the server's default kernel).
    pub kernel: Option<GemmKernelConfig>,
}

impl GemmRequest {
    /// A request for `workload` on `design` with the default kernel.
    #[must_use]
    pub fn new(design: DesignPoint, workload: LayerSpec) -> Self {
        GemmRequest {
            design,
            workload,
            kernel: None,
        }
    }

    /// Overrides the kernel configuration.
    #[must_use]
    pub fn with_kernel(mut self, kernel: GemmKernelConfig) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// The simulation job this request resolves to.
    #[must_use]
    pub fn into_job(self) -> SimJob {
        SimJob {
            design: self.design,
            workload: self.workload,
            kernel: self.kernel,
        }
    }
}

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
