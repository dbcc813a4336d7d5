//! The synchronous GEMM server: every request is answered on the thread
//! that submits it, through one shared memoizing runner.

use crate::serve::{GemmRequest, GemmResponse, RequestLatency, ResponseHandle, ServeStats};
use crate::simulator::DEFAULT_MATMUL_CAP;
use crate::{CacheStats, DesignPoint, ExperimentRunner, SimError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Configuration of a [`GemmServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bound on the shared runner's memoization cache (LRU-evicted).
    pub cache_capacity: usize,
    /// Cap on simulated `rasa_mm` instructions per cell (`None` = full).
    pub matmul_cap: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: crate::runner::DEFAULT_CACHE_CAPACITY,
            matmul_cap: Some(DEFAULT_MATMUL_CAP),
        }
    }
}

/// The multi-query GEMM server. See the [module docs](crate::serve) for
/// the architecture.
///
/// The server owns no thread: [`submit`](Self::submit) simulates (or
/// recalls) the cell on the calling thread, so concurrency is exactly the
/// number of threads calling it.
#[derive(Debug)]
pub struct GemmServer {
    runner: ExperimentRunner,
    /// Served design names in construction order (stable reporting order).
    designs: Vec<String>,
    submitted: AtomicU64,
    completed: AtomicU64,
}

impl GemmServer {
    /// Builds the server over its shared runner.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Serve`] for an invalid configuration (no
    /// designs, duplicate design names) and propagates runner construction
    /// errors (e.g. a zero cache capacity).
    pub fn new(config: ServeConfig, designs: &[DesignPoint]) -> Result<Self, SimError> {
        if designs.is_empty() {
            return Err(SimError::Serve {
                reason: "a server needs at least one design point".to_string(),
            });
        }
        let mut names: Vec<String> = Vec::with_capacity(designs.len());
        for design in designs {
            let name = design.name();
            if names.iter().any(|known| known == name) {
                return Err(SimError::Serve {
                    reason: format!("duplicate design point '{name}'"),
                });
            }
            names.push(name.to_string());
        }
        let runner = ExperimentRunner::builder()
            .with_matmul_cap(config.matmul_cap)
            .with_cache_capacity(config.cache_capacity)
            .build()?;
        Ok(GemmServer {
            runner,
            designs: names,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        })
    }

    /// The design names this server serves, in construction order.
    #[must_use]
    pub fn designs(&self) -> &[String] {
        &self.designs
    }

    /// Answers one request on the calling thread and returns a handle that
    /// already holds the answer. Requests with the same semantic cell key
    /// share one simulation through the runner's cell cache, and a cache
    /// hit is restamped with the workload name this request asked for.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Serve`] when the request names a design the
    /// server does not serve. Simulation errors are delivered through
    /// [`ResponseHandle::wait`].
    pub fn submit(&self, request: GemmRequest) -> Result<ResponseHandle, SimError> {
        let submitted = Instant::now();
        let design = request.design.name();
        if !self.designs.iter().any(|served| served == design) {
            return Err(SimError::Serve {
                reason: format!(
                    "design '{design}' is not served (serving: {})",
                    self.designs.join(", ")
                ),
            });
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let simulating = Instant::now();
        let result = self.runner.run_job(&request);
        let simulate_seconds = simulating.elapsed().as_secs_f64();
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(ResponseHandle {
            result: result.map(|report| GemmResponse {
                report,
                latency: RequestLatency {
                    queue_seconds: 0.0,
                    simulate_seconds,
                    total_seconds: submitted.elapsed().as_secs_f64(),
                },
            }),
        })
    }

    /// Answers a burst of requests, returned in request order.
    ///
    /// # Errors
    ///
    /// Returns the first submission or simulation error.
    pub fn run_batch(&self, requests: Vec<GemmRequest>) -> Result<Vec<GemmResponse>, SimError> {
        requests
            .into_iter()
            .map(|request| self.submit(request)?.wait())
            .collect()
    }

    /// Serving counters since construction.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let completed = self.completed.load(Ordering::Relaxed);
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            batches: completed,
        }
    }

    /// Cache counters of the shared runner (hits, misses, evictions,
    /// resident entries, capacity).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.runner.cache_stats()
    }

    /// Drops the server. It owns no thread, so there is nothing to drain
    /// or join; the explicit call marks the shutdown point in harness code.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_workloads::WorkloadSuite;

    #[test]
    fn config_validation() {
        let designs = [DesignPoint::baseline()];
        let zero_cache = ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(GemmServer::new(zero_cache, &designs).is_err(), "zero cache");
        assert!(
            GemmServer::new(ServeConfig::default(), &[]).is_err(),
            "no designs"
        );
        assert!(
            GemmServer::new(
                ServeConfig::default(),
                &[DesignPoint::baseline(), DesignPoint::baseline()]
            )
            .is_err(),
            "duplicate designs"
        );
    }

    #[test]
    fn equal_shape_requests_share_one_simulation() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-2").unwrap().clone();
        let other = suite.layer("BERT-1").unwrap().clone();
        let config = ServeConfig {
            cache_capacity: 64,
            matmul_cap: Some(64),
        };
        let server = GemmServer::new(config, &[DesignPoint::baseline()]).unwrap();

        for _ in 0..3 {
            let response = server
                .submit(GemmRequest::new(DesignPoint::baseline(), layer.clone()))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(response.report.workload, "DLRM-2");
            assert_eq!(response.latency.queue_seconds, 0.0, "nothing queues");
            assert!(response.latency.total_seconds >= response.latency.simulate_seconds);
        }
        server
            .submit(GemmRequest::new(DesignPoint::baseline(), other))
            .unwrap()
            .wait()
            .unwrap();

        // One simulation per distinct shape: the two repeats were cell
        // cache hits.
        let cache = server.cache_stats();
        assert_eq!(cache.misses, 2, "one simulation per distinct shape");
        assert_eq!(cache.hits, 2);
        let stats = server.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 4, "one batch per request");
    }

    #[test]
    fn rebatched_layers_coalesce_and_are_relabelled() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap().clone();
        let rebatched = layer.with_batch(layer.batch());
        assert_ne!(layer.name(), rebatched.name());

        let config = ServeConfig {
            cache_capacity: 64,
            matmul_cap: Some(64),
        };
        let server = GemmServer::new(config, &[DesignPoint::baseline()]).unwrap();
        let a = server
            .submit(GemmRequest::new(DesignPoint::baseline(), layer))
            .unwrap()
            .wait()
            .unwrap();
        let b = server
            .submit(GemmRequest::new(DesignPoint::baseline(), rebatched.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.report.workload, "DLRM-1");
        assert_eq!(b.report.workload, rebatched.name(), "relabelled");
        assert_eq!(a.report.core_cycles, b.report.core_cycles);
        // Same semantic shape key: the second request is a cache hit.
        assert_eq!(server.cache_stats().misses, 1);
        assert_eq!(server.cache_stats().hits, 1);
    }

    #[test]
    fn unknown_design_is_rejected() {
        let suite = WorkloadSuite::mlperf();
        let server = GemmServer::new(
            ServeConfig {
                matmul_cap: Some(64),
                ..ServeConfig::default()
            },
            &[DesignPoint::baseline()],
        )
        .unwrap();
        let err = server.submit(GemmRequest::new(
            DesignPoint::rasa_dmdb_wls(),
            suite.layer("DLRM-1").unwrap().clone(),
        ));
        assert!(matches!(err, Err(SimError::Serve { .. })));
        assert_eq!(server.designs(), &["BASELINE".to_string()]);
        assert_eq!(server.stats().submitted, 0, "rejected before admission");
    }

    #[test]
    fn run_batch_returns_responses_in_request_order() {
        let suite = WorkloadSuite::mlperf();
        let designs = [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()];
        let server = GemmServer::new(
            ServeConfig {
                cache_capacity: 64,
                matmul_cap: Some(64),
            },
            &designs,
        )
        .unwrap();
        let layers = [
            suite.layer("DLRM-1").unwrap().clone(),
            suite.layer("BERT-1").unwrap().clone(),
        ];
        let mut requests = Vec::new();
        for design in &designs {
            for layer in &layers {
                requests.push(GemmRequest::new(design.clone(), layer.clone()));
            }
        }
        let expected: Vec<(String, String)> = requests
            .iter()
            .map(|r| (r.design.name().to_string(), r.workload.name().to_string()))
            .collect();
        let responses = server.run_batch(requests).unwrap();
        assert_eq!(responses.len(), expected.len());
        for (response, (design, workload)) in responses.iter().zip(&expected) {
            assert_eq!(&response.report.design, design);
            assert_eq!(&response.report.workload, workload);
        }
        server.shutdown();
    }

    #[test]
    fn kernel_override_keys_separately_from_default() {
        use rasa_trace::{GemmKernelConfig, MatmulOrder};
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap().clone();
        let design = DesignPoint::rasa_wlbp();
        let config = ServeConfig {
            cache_capacity: 64,
            matmul_cap: Some(64),
        };
        let server = GemmServer::new(config, std::slice::from_ref(&design)).unwrap();
        let mut interleaved =
            GemmKernelConfig::amx_like().with_matmul_order(MatmulOrder::Interleaved);
        interleaved.max_matmuls = Some(64);
        let a = server
            .submit(GemmRequest::new(design.clone(), layer.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let b = server
            .submit(GemmRequest::new(design, layer).with_kernel(interleaved))
            .unwrap()
            .wait()
            .unwrap();
        assert!(a.report.core_cycles < b.report.core_cycles);
        assert_eq!(
            server.cache_stats().misses,
            2,
            "different kernels, two cells"
        );
    }
}
