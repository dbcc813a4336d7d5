//! Scoped-timer and counter registry for the simulate-and-serve hot path.
//!
//! The registry is a fixed set of [`Stage`]s, each backed by a pair of
//! relaxed atomics (call count, accumulated nanoseconds). Instrumented
//! sites call [`time`] and hold the returned guard across the measured
//! region; the guard records on drop. Profiling is **disabled by
//! default** and the disabled path costs exactly one relaxed atomic load
//! per site — no clock read, no allocation — so the instrumentation can
//! stay in the hot paths permanently.
//!
//! The stages cover the end-to-end request pipeline: trace generation and
//! core simulation (the cell itself), JSON serialization and parsing, wire-frame
//! encode/decode, cell-cache probes, and the readiness transport's
//! poll-wait and socket-work phases. A harness enables the registry, runs
//! its workload and reads the totals back with [`snapshot`]; `serve_soak`
//! prints every stage's count and time, so a soak *attributes* where the
//! time went rather than asserting it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One instrumented pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lowering a workload to a tiled instruction trace.
    TraceGen,
    /// Running a trace through the core model (any transport).
    Simulate,
    /// Rendering a JSON payload to text.
    JsonSerialize,
    /// Decoding a received JSON payload with the pull reader.
    JsonParse,
    /// Encoding a wire frame (header + payload bytes) into a buffer; never
    /// the socket write.
    FrameEncode,
    /// Validating a wire frame's 6-byte header; never the socket read.
    FrameDecode,
    /// Probing a cell cache (runner memoization or router result cache).
    CacheProbe,
    /// Blocking in the readiness poller (epoll_wait or the portable
    /// fallback's tick) waiting for sockets to become ready. Summed over
    /// a server's followers, which wait side by side, so it can exceed
    /// wall time.
    NetPoll,
    /// Non-blocking socket work in the frame server: accepting, reading
    /// bursts into the frame decoders, flushing write buffers. Summed over
    /// the followers; a handler's own time is not part of it.
    NetIo,
}

/// Every stage, in display order.
pub const STAGES: [Stage; 9] = [
    Stage::TraceGen,
    Stage::Simulate,
    Stage::JsonSerialize,
    Stage::JsonParse,
    Stage::FrameEncode,
    Stage::FrameDecode,
    Stage::CacheProbe,
    Stage::NetPoll,
    Stage::NetIo,
];

impl Stage {
    /// Stable snake_case name, used as the JSON member name in perf
    /// documents.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::TraceGen => "trace_gen",
            Stage::Simulate => "simulate",
            Stage::JsonSerialize => "json_serialize",
            Stage::JsonParse => "json_parse",
            Stage::FrameEncode => "frame_encode",
            Stage::FrameDecode => "frame_decode",
            Stage::CacheProbe => "cache_probe",
            Stage::NetPoll => "net_poll",
            Stage::NetIo => "net_io",
        }
    }

    const fn index(self) -> usize {
        match self {
            Stage::TraceGen => 0,
            Stage::Simulate => 1,
            Stage::JsonSerialize => 2,
            Stage::JsonParse => 3,
            Stage::FrameEncode => 4,
            Stage::FrameDecode => 5,
            Stage::CacheProbe => 6,
            Stage::NetPoll => 7,
            Stage::NetIo => 8,
        }
    }
}

struct Slot {
    count: AtomicU64,
    nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    count: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOTS: [Slot; STAGES.len()] = [EMPTY_SLOT; STAGES.len()];

/// Turns the registry on or off (off by default). Counters are *not*
/// reset — call [`reset`] to start a fresh measurement window.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether instrumented sites are currently recording.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every stage's counters.
pub fn reset() {
    for slot in &SLOTS {
        slot.count.store(0, Ordering::Relaxed);
        slot.nanos.store(0, Ordering::Relaxed);
    }
}

/// Starts timing `stage`; the returned guard records (count += 1,
/// nanos += elapsed) when dropped. When the registry is disabled this is
/// a no-op guard and no clock is read.
pub fn time(stage: Stage) -> ScopedTimer {
    ScopedTimer {
        armed: is_enabled().then(|| (stage, Instant::now())),
    }
}

/// Records one occurrence of `stage` with an externally measured
/// duration of zero — a pure event counter.
pub fn count(stage: Stage) {
    if is_enabled() {
        SLOTS[stage.index()].count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A drop guard recording a scoped duration into its stage. Obtained
/// from [`time`].
#[must_use = "the timer records on drop; binding it to _ measures nothing"]
pub struct ScopedTimer {
    armed: Option<(Stage, Instant)>,
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((stage, start)) = self.armed.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let slot = &SLOTS[stage.index()];
            slot.count.fetch_add(1, Ordering::Relaxed);
            slot.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

/// A point-in-time reading of one stage's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    /// The stage the counters belong to.
    pub stage: Stage,
    /// Recorded occurrences.
    pub count: u64,
    /// Accumulated duration in nanoseconds.
    pub nanos: u64,
}

impl StageSnapshot {
    /// Accumulated duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Reads every stage's counters, in [`STAGES`] order.
#[must_use]
pub fn snapshot() -> Vec<StageSnapshot> {
    STAGES
        .iter()
        .map(|&stage| {
            let slot = &SLOTS[stage.index()];
            StageSnapshot {
                stage,
                count: slot.count.load(Ordering::Relaxed),
                nanos: slot.nanos.load(Ordering::Relaxed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so the tests share one lock step:
    // a single test exercises the full lifecycle to avoid cross-test
    // interference under the parallel test runner.
    #[test]
    fn disabled_by_default_then_records_when_enabled() {
        assert!(!is_enabled());
        {
            let _t = time(Stage::Simulate);
        }
        count(Stage::CacheProbe);
        assert!(
            snapshot().iter().all(|s| s.count == 0 && s.nanos == 0),
            "disabled registry must not record"
        );

        set_enabled(true);
        reset();
        {
            let _t = time(Stage::Simulate);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        count(Stage::CacheProbe);
        let snap = snapshot();
        set_enabled(false);

        let simulate = snap.iter().find(|s| s.stage == Stage::Simulate).unwrap();
        assert_eq!(simulate.count, 1);
        assert!(simulate.nanos > 0);
        assert!(simulate.seconds() > 0.0);
        let probe = snap.iter().find(|s| s.stage == Stage::CacheProbe).unwrap();
        assert_eq!((probe.count, probe.nanos), (1, 0));
        assert_eq!(STAGES.len(), snap.len());
        assert_eq!(Stage::TraceGen.name(), "trace_gen");

        reset();
        assert!(snapshot().iter().all(|s| s.count == 0 && s.nanos == 0));
    }
}
