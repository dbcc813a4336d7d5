//! # Multi-query GEMM serving layer
//!
//! The [`ExperimentRunner`](crate::ExperimentRunner) executes *declared*
//! experiment matrices; this module puts a request-facing front-end on top
//! of it, exercising the ROADMAP's "millions of users" direction:
//!
//! ```text
//!  client thread ──▶ submit(GemmRequest) ──▶ design served? ──▶ cell key
//!                                                                  │
//!                                                                  ▼
//!                        bounded-LRU memoization (shared ExperimentRunner)
//!                                                                  │
//!                                                                  ▼
//!  ResponseHandle { GemmResponse { SimReport, latency breakdown } }
//! ```
//!
//! * **One hop** — [`GemmServer::submit`] answers on the calling thread:
//!   there are no queues, worker pools or reply channels, and the handle
//!   it returns already holds the answer. A networked shard therefore
//!   simulates on the event-loop worker that decoded the request.
//! * **A request is a job** — [`GemmRequest`] is the runner's
//!   [`SimJob`](crate::SimJob), and `submit` hands it straight to
//!   [`ExperimentRunner::run_job`](crate::ExperimentRunner::run_job). A
//!   kernel override ([`SimJob::with_kernel`](crate::SimJob::with_kernel))
//!   is an in-process option: a networked shard builds its jobs from a
//!   design and a layer only, so it always runs its default kernel.
//! * **Shared cells** — requests are keyed by the runner's semantic cell
//!   key (design + lowered GEMM shape + kernel), so equal shapes share
//!   one simulation through the bounded LRU cell cache, and a hit is
//!   restamped with the workload name the request asked for.
//! * **Latency accounting** — every response reports its simulate time and
//!   end-to-end time, so the soak harness can report p50/p99 latency.
//!
//! The module is std-only: the vendored dependency set has no async
//! runtime, and callers bring their own threads.

mod request;
mod server;
mod stats;

/// One served query: a workload on a design point, optionally under a
/// kernel override. A query is exactly a simulation job, so the serving
/// layer takes [`SimJob`](crate::SimJob) under this name.
pub use crate::SimJob as GemmRequest;
pub use request::{GemmResponse, RequestLatency, ResponseHandle};
pub use server::{GemmServer, ServeConfig};
pub use stats::{LatencySummary, ServeStats};
