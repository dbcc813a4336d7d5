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
//! * per-ROB-entry **waiter lists** ([`Waiters`]) — consumers register
//!   with their incomplete producers at rename, and a popped completion
//!   event wakes exactly the instructions that were waiting on it, so
//!   readiness is maintained incrementally instead of being re-derived from
//!   the register state every cycle. A list keeps its first
//!   [`INLINE_WAITERS`] sequences in the ROB entry itself, which covers
//!   every producer of the GEMM traces (a tile feeds at most three
//!   `rasa_mm`s of one register block); only a wider fan-out spills into a
//!   heap buffer of its own.
//!
//! Together with the queues a run sizes once from its [`crate::CpuConfig`]
//! (the ROB, the reservation station, the engine-event queue and the event
//! heap) and the instructions it renames straight from the caller's slice,
//! this keeps the event-driven loop off the heap: simulating an
//! instruction allocates nothing unless its waiter list spills.
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

    /// The counters a run accumulated between `earlier`, a snapshot of the
    /// same run, and this later snapshot (all counters are additive).
    #[must_use]
    pub fn since(&self, earlier: &SchedStats) -> SchedStats {
        SchedStats {
            visited_cycles: self.visited_cycles - earlier.visited_cycles,
            skipped_cycles: self.skipped_cycles - earlier.skipped_cycles,
            completion_events: self.completion_events - earlier.completion_events,
            wakeups: self.wakeups - earlier.wakeups,
        }
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

/// Waiters a [`Waiters`] list holds in place before it spills.
pub(crate) const INLINE_WAITERS: usize = 4;

/// The ROB sequences waiting on one producer's completion, in the order
/// they subscribed: the first [`INLINE_WAITERS`] in place, any further ones
/// in a spill buffer, which only a producer with a wider fan-out allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct Waiters {
    inline: [u64; INLINE_WAITERS],
    len: usize,
    spill: Vec<u64>,
}

impl Waiters {
    /// Appends `seq` after the waiters already subscribed.
    pub fn push(&mut self, seq: u64) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = seq,
            None => self.spill.push(seq),
        }
        self.len += 1;
    }

    /// Waiters subscribed.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether no waiter is subscribed.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The waiters in subscription order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.inline[..self.len.min(INLINE_WAITERS)]
            .iter()
            .chain(&self.spill)
            .copied()
    }

    /// The waiters in subscription order, to shift in place.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.inline[..self.len.min(INLINE_WAITERS)]
            .iter_mut()
            .chain(&mut self.spill)
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
    /// An empty heap with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventHeap {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

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

    /// Fills `into` with the pending events as `(cycles until due, renames
    /// since)` pairs relative to `now` and `next_seq`, sorted: two heaps
    /// holding the same events can differ in internal layout
    /// (insertion-order dependent), which has no meaning. `into` is the
    /// caller's reused buffer, so nothing is allocated once it has grown.
    pub fn relative_events(&self, now: u64, next_seq: u64, into: &mut Vec<(u64, u64)>) {
        into.clear();
        into.extend(
            self.heap
                .iter()
                .map(|Reverse((time, seq))| (time.wrapping_sub(now), next_seq.wrapping_sub(*seq))),
        );
        into.sort_unstable();
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
    fn waiters_keep_their_order_across_the_spill() {
        let mut waiters = Waiters::default();
        assert!(waiters.is_empty());
        let seqs: Vec<u64> = (10..10 + 2 * INLINE_WAITERS as u64 + 1).collect();
        for &seq in &seqs {
            waiters.push(seq);
        }
        assert_eq!(waiters.len(), seqs.len());
        assert_eq!(waiters.iter().collect::<Vec<_>>(), seqs);
        waiters.iter_mut().for_each(|seq| *seq += 100);
        let shifted: Vec<u64> = seqs.iter().map(|seq| seq + 100).collect();
        assert_eq!(waiters.iter().collect::<Vec<_>>(), shifted);
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
