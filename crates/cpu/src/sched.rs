//! Event-driven scheduling primitives for [`CpuCore::run`](crate::CpuCore).
//!
//! The core used to advance its pipeline cycle by cycle, re-scanning every
//! reservation-station entry (and re-sorting the station) on each step. The
//! event-driven scheduler replaces that with two structures:
//!
//! * an [`EventHeap`] — a binary min-heap of timestamped completion events
//!   (functional-unit latencies and matrix-engine completions at the
//!   core/engine clock ratio). The core only simulates cycles on which
//!   something can happen: after a cycle with progress the very next cycle
//!   (issue/rename/retire widths reset), otherwise the heap's next
//!   completion time, jumping over the gap in one step;
//! * per-ROB-entry **waiter lists** — consumers register with their
//!   incomplete producers at rename, and a popped completion event wakes
//!   exactly the instructions that were waiting on it, so readiness is
//!   maintained incrementally instead of being re-derived from the register
//!   state every cycle.
//!
//! The scheduler is cycle-exact: [`crate::CpuStats`] from the event-driven
//! loop is bit-identical to the retained cycle-stepping reference
//! ([`crate::CpuCore::run_reference`]) on every workload — the parity tests
//! in `core.rs` and the cross-crate proptests enforce this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters describing the event-driven scheduler's work during one
/// [`CpuCore::run`](crate::CpuCore::run) invocation.
///
/// These are diagnostics of the *simulator*, not of the simulated core:
/// they are deterministic for a given program and configuration, but they
/// are kept out of [`crate::CpuStats`] so the architectural statistics stay
/// directly comparable against the cycle-stepping reference loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Distinct cycles the scheduler actually simulated.
    pub visited_cycles: u64,
    /// Cycles jumped over between events (never simulated).
    pub skipped_cycles: u64,
    /// Completion events popped from the event heap.
    pub completion_events: u64,
    /// Consumer wakeups delivered while processing completion events.
    pub wakeups: u64,
}

impl SchedStats {
    /// Folds the counters of a later execution interval into this one (all
    /// counters are additive).
    pub fn accumulate(&mut self, interval: &SchedStats) {
        self.visited_cycles += interval.visited_cycles;
        self.skipped_cycles += interval.skipped_cycles;
        self.completion_events += interval.completion_events;
        self.wakeups += interval.wakeups;
    }

    /// The counters of `strides` further executions of this interval (all
    /// counters are additive, so each scales by `strides`).
    #[must_use]
    pub fn repeated(&self, strides: u64) -> SchedStats {
        SchedStats {
            visited_cycles: self.visited_cycles * strides,
            skipped_cycles: self.skipped_cycles * strides,
            completion_events: self.completion_events * strides,
            wakeups: self.wakeups * strides,
        }
    }

    /// Fraction of the covered timeline that was skipped rather than
    /// stepped (0 when nothing ran).
    #[must_use]
    pub fn skip_rate(&self) -> f64 {
        let total = self.visited_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }
}

/// A min-heap of `(wake cycle, ROB sequence)` completion events.
///
/// Sequences break timestamp ties so pop order is fully deterministic.
#[derive(Debug, Default, Clone)]
pub(crate) struct EventHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl EventHeap {
    /// Schedules the completion of ROB entry `seq` at `cycle`.
    pub fn push(&mut self, cycle: u64, seq: u64) {
        self.heap.push(Reverse((cycle, seq)));
    }

    /// Pops the earliest event not later than `now`, if any.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, u64)> {
        if self.next_time()? <= now {
            self.heap.pop().map(|Reverse(event)| event)
        } else {
            None
        }
    }

    /// The earliest scheduled wake time, if any event is pending.
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((time, _))| *time)
    }

    /// The pending events as a `(time, sequence)`-sorted list.
    ///
    /// Two heaps holding the same events can differ in internal layout
    /// (insertion-order dependent), so state comparison must go through
    /// this canonical view rather than the raw heap.
    pub fn sorted_events(&self) -> Vec<(u64, u64)> {
        let mut events: Vec<(u64, u64)> = self.heap.iter().map(|Reverse(event)| *event).collect();
        events.sort_unstable();
        events
    }

    /// Whether two heaps hold exactly the same event set, compared through
    /// the canonical sorted view. Length and earliest-event mismatches
    /// short-circuit before any sorted view is materialized.
    pub fn events_eq(&self, other: &EventHeap) -> bool {
        self.heap.len() == other.heap.len()
            && self.next_time() == other.next_time()
            && self.sorted_events() == other.sorted_events()
    }

    /// Rebuilds the heap with every event displaced `cycles` later and
    /// `seqs` sequences further along the instruction stream. In place:
    /// the heap's own buffer is shifted and re-heapified, no intermediate
    /// event list is allocated.
    pub fn shift(&mut self, cycles: u64, seqs: u64) {
        let mut events = std::mem::take(&mut self.heap).into_vec();
        for Reverse((time, seq)) in &mut events {
            *time += cycles;
            *seq += seqs;
        }
        self.heap = BinaryHeap::from(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_orders_by_time_then_sequence() {
        let mut heap = EventHeap::default();
        heap.push(30, 2);
        heap.push(10, 7);
        heap.push(30, 1);
        assert_eq!(heap.next_time(), Some(10));
        assert_eq!(heap.pop_due(10), Some((10, 7)));
        assert_eq!(heap.pop_due(10), None, "future events stay queued");
        assert_eq!(heap.pop_due(40), Some((30, 1)));
        assert_eq!(heap.pop_due(40), Some((30, 2)));
        assert_eq!(heap.next_time(), None);
        assert_eq!(heap.pop_due(u64::MAX), None);
    }

    #[test]
    fn skip_rate_is_safe_on_empty_stats() {
        assert_eq!(SchedStats::default().skip_rate(), 0.0);
        let stats = SchedStats {
            visited_cycles: 25,
            skipped_cycles: 75,
            ..SchedStats::default()
        };
        assert!((stats.skip_rate() - 0.75).abs() < 1e-12);
    }
}
