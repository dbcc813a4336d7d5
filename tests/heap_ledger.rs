//! The heap ledger: how many times the evaluation asks the allocator for
//! memory. A counting global allocator tallies allocations and
//! reallocations per thread, so tests running beside these on other
//! threads do not disturb the count.
//!
//! The counts are deterministic for a given toolchain: a cold evaluation
//! runs the same cells the same way every time. They are bounded rather
//! than pinned because the standard library's own allocations (formatting,
//! collections' growth policy) may move with the toolchain.

use rasa::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as the caller passed it.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as the caller passed it.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations and reallocations `work` makes on this thread.
fn heap_calls<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = work();
    (CALLS.with(Cell::get) - before, out)
}

/// Allocations plus reallocations of one cold uncapped evaluation at
/// `--max-batch 64`: 156 cells, 18 simulated with a core and 138 recalled.
/// It makes 1 607 of them (Rust 1.95, x86-64 Linux): about three labels
/// and a shared report per cell, a few buffers per run with a core, and
/// the memos' growth. The bound leaves about 5% of headroom.
const COLD_EVALUATION_BOUND: u64 = 1_690;

/// Allocations plus reallocations of a `run_layer` that its simulator's
/// memo recalls whole: the report's design, workload and power labels.
const RECALLED_CELL_BOUND: u64 = 3;

#[test]
fn a_cold_evaluation_stays_within_its_heap_ledger() {
    let suite = ExperimentSuite::builder()
        .with_matmul_cap(None)
        .with_fig7_max_batch(64)
        .build()
        .unwrap();
    let (calls, cells) = heap_calls(|| {
        suite.fig1_toy().unwrap();
        let _ = suite.fig2_utilization();
        let fig5 = suite.fig5_runtime().unwrap();
        let _ = suite.fig6_from(&fig5);
        let _ = suite.area_energy_from(&fig5);
        suite.fig7_batch().unwrap();
        suite.runner().cache_stats()
    });
    println!("cold evaluation: {calls} allocations and reallocations over {cells:?}");
    assert_eq!(cells.misses, 156, "a cold evaluation runs every cell");
    assert!(
        calls <= COLD_EVALUATION_BOUND,
        "{calls} allocations and reallocations, bound {COLD_EVALUATION_BOUND}"
    );
}

#[test]
fn a_recalled_cell_stays_within_its_heap_ledger() {
    let layer = WorkloadSuite::mlperf().layer("BERT-2").unwrap().clone();
    let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
        .unwrap()
        .with_matmul_cap(None)
        .unwrap();
    let simulated = sim.run_layer(&layer).unwrap();
    let (calls, recalled) = heap_calls(|| sim.run_layer(&layer).unwrap());
    println!("recalled cell: {calls} allocations and reallocations");
    assert_eq!(recalled, simulated);
    assert_eq!(sim.memo_stats().recalls, 1, "the second run is recalled");
    assert!(
        calls <= RECALLED_CELL_BOUND,
        "{calls} allocations and reallocations, bound {RECALLED_CELL_BOUND}"
    );
}
