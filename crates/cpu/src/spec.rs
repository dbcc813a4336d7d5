//! Fast-forward of a streaming core run through its periodic steady state.
//!
//! The interior of a tiled GEMM trace repeats at two levels: the reduction
//! steps inside each register block, and strides of whole register blocks.
//! Each repeat is the same instructions as the last with only their memory
//! addresses changed — and the timing model never reads an address. A
//! [`crate::CoreRun`] pauses at exact pipeline boundaries, so a run can be
//! checkpointed between repeats ([`SpeculativeRun::checkpoint`]). A
//! [`SpecCheckpoint`] holds the boundary's position, the run's cumulative
//! statistics and a fingerprint of the boundary state that does not change
//! under translation: times relative to the run's cycle, engine times
//! relative to the engine clock, sequences relative to the next rename and
//! the engine's submission count, dead values normalized. Past the warm-up
//! transient, consecutive boundaries differ by a constant translation:
//! every time-valued field advanced by the same number of cycles, every
//! sequence-valued field by the same number of instructions and `rasa_mm`s
//! ([`SpecDelta`]). Equal fingerprints confirm this bit for bit
//! ([`SpecCheckpoint::shifted_matches`]).
//!
//! Because the core model's scheduling is translation-covariant, a
//! confirmed delta then describes every further repeat of the same work:
//! each advances the boundary by the same delta and accumulates the same
//! statistics. [`SpeculativeRun::fast_forward`] therefore skips `n` repeats
//! in O(1) — it shifts the boundary state by `n` deltas
//! ([`CpuCore::shift_boundary`](crate::CpuCore)) and folds in `n` copies of
//! the confirmed repeat's statistics. The result is exact, not sampled: it
//! is bit-identical to feeding that work instruction by instruction.
//!
//! A delta is taken between any two checkpoints of a run
//! ([`SpecDelta::between`]), from their cumulative statistics, so the
//! levels nest: a block stride measured around the reduction steps it
//! fast-forwarded inside is as exact as one fed step by step, because the
//! boundaries it starts and ends at are the sequential run's.
//!
//! Where the repeating work lies is a property of the trace, so that policy
//! lives in the simulator crate; this module provides the mechanism and its
//! accounting.
//!
//! # Recall
//!
//! The same argument holds across runs of one machine. Every run of a
//! configuration starts at the same boundary, and a fingerprint pins the
//! boundary state up to translation; so feeding the same instructions (up to
//! addresses) at two boundaries with equal fingerprints does the same thing
//! up to translation: it advances the position by the same amount, adds the
//! same statistics and ends at boundaries with equal fingerprints. A
//! [`SpecMemo`] records that transition once, keyed by the interned start
//! fingerprint and a *piece* key the caller supplies for what it fed
//! (`rasa-sim` uses the trace's `PieceKey`), and a later run recalls it
//! instead of simulating it:
//!
//! * a recalling run ([`SpeculativeRun::recall`]) has no core at all. It
//!   advances piece by piece from the memo ([`SpeculativeRun::recall_piece`],
//!   [`SpeculativeRun::recall_drain`]), and its checkpoints, deltas and
//!   fast-forwards work on interned states exactly as a core's do on
//!   fingerprints. It reads the memo through one [`MemoView`]: one read lock
//!   for its whole walk, its transitions borrowed, not copied. When the memo
//!   lacks a piece, the caller reruns the cell with a core;
//! * a run with a core feeds every piece and records it
//!   ([`SpeculativeRun::feed_piece`], [`SpeculativeRun::finish_with`] for the
//!   drain), taking the memo's write lock for each record. A piece whose
//!   recorded transition ends where it started (a *fixed point*, a confirmed
//!   delta) it shifts past instead of feeding.
//!
//! Either way the run's statistics, and its [`StreamStats`], are the ones
//! feeding every piece would give. Engine horizons and a drain's final cycle
//! are stored relative to the piece's start, and the fingerprint includes
//! the cycle's phase against the engine clock.
//!
//! Lookups compare whole fingerprints. The core writes a fingerprint's words
//! once, straight into a compact form: each word rotated so its tag byte
//! comes last, zigzag-folded so that small negative offsets (wrapped
//! relative times) stay small, and written in as many bytes as its
//! significant bits need at seven a byte, the length in the first byte's
//! trailing zeros (a prefix varint, as long as LEB128 but one store a
//! word). Every step is a bijection and each word's bytes carry their own
//! length, so two fingerprints are equal bytes exactly when they are equal
//! words, at about a third of their size. The memo interns that form, and
//! checkpoints copy it. A memo holds at most [`MEMO_STATES`] fingerprints
//! and [`MEMO_TRANSITIONS`] transitions; once full it records nothing more,
//! and runs stay exact. The fingerprint does not encode the configuration,
//! so a memo must serve one machine (core, engine and kernel) only.

use crate::core::{CoreRun, CpuCore, Fingerprint};
use crate::{CpuConfig, CpuError, CpuStats, SchedStats, StreamStats};
use rasa_isa::{IsaConfig, ProgramSegment};
use rasa_systolic::SystolicConfig;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Distinct boundary fingerprints a [`SpecMemo`] interns at most.
pub const MEMO_STATES: usize = 256;

/// Transitions a [`SpecMemo`] records at most.
pub const MEMO_TRANSITIONS: usize = 4 * MEMO_STATES;

/// A boundary interned in a [`SpecMemo`]. Ids are never reused, not even
/// after the memo is cleared, so an id names one fingerprint for good.
type StateId = u32;

/// The boundary every run of a machine starts at, before anything is fed.
const START: StateId = 0;

/// Where a drain ends: the run is over.
const DRAINED: StateId = StateId::MAX;

/// What a recorded transition fed: a piece, or the drain that ends the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Step<K> {
    Feed(K),
    Drain,
}

/// What one piece did to a run, relative to the boundary it started at.
#[derive(Debug, Clone, Copy)]
struct Transition {
    /// The interned boundary it ended at ([`DRAINED`] for the drain).
    end: StateId,
    /// Core cycles, rename sequences and engine submissions it advanced.
    advance: (u64, u64, u64),
    /// Its architectural statistics. The engine horizon counts from the
    /// start's engine cycle, and a drain's final cycle from the start's
    /// core cycle.
    cpu: CpuStats,
    /// Its scheduler counters.
    sched: SchedStats,
    /// Its feed counters.
    stream: StreamStats,
}

impl Transition {
    /// The transition from a boundary at `from` to one at `to`, `clock_ratio`
    /// core cycles per engine cycle, that accumulated the given interval.
    fn between(
        from: (u64, u64, u64),
        to: (u64, u64, u64),
        clock_ratio: u64,
        (mut cpu, sched, stream): (CpuStats, SchedStats, StreamStats),
        end: StateId,
    ) -> Transition {
        if cpu.engine.matmuls > 0 {
            cpu.engine.last_completion_cycle = cpu
                .engine
                .last_completion_cycle
                .wrapping_sub(from.0 / clock_ratio);
        }
        if end == DRAINED {
            cpu.cycles = cpu.cycles.wrapping_sub(from.0);
        }
        Transition {
            end,
            advance: (
                to.0.wrapping_sub(from.0),
                to.1.wrapping_sub(from.1),
                to.2.wrapping_sub(from.2),
            ),
            cpu,
            sched,
            stream,
        }
    }
}

/// A word-at-a-time multiplicative hasher for memo keys. Fingerprints run to
/// hundreds of bytes, and a lookup compares whole keys anyway. Keys are the
/// simulator's own states and piece shapes, and a memo holds a bounded
/// number of them, so colliding keys cost a bounded probe at worst.
#[derive(Default)]
struct WordHasher(u64);

/// The multiplier of [`WordHasher`]'s rounds.
const WORD_HASH_MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_HASH_MULTIPLIER);
    }
}

/// The little-endian word of an 8-byte chunk.
fn le_word(chunk: &[u8]) -> u64 {
    let mut le = [0; 8];
    le.copy_from_slice(chunk);
    u64::from_le_bytes(le)
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Long keys go four words a round through four lanes, so hashing a
        // fingerprint is four short multiply chains, not one long one.
        let mut rounds = bytes.chunks_exact(32);
        if rounds.len() > 0 {
            let mut lanes = [0, 1, 2, 3].map(|lane| self.0 ^ lane);
            for round in &mut rounds {
                for (lane, chunk) in lanes.iter_mut().zip(round.chunks_exact(8)) {
                    *lane =
                        (lane.rotate_left(5) ^ le_word(chunk)).wrapping_mul(WORD_HASH_MULTIPLIER);
                }
            }
            self.0 = lanes[0];
            lanes[1..].iter().for_each(|&lane| self.add(lane));
        }
        let mut words = rounds.remainder().chunks_exact(8);
        for word in &mut words {
            self.add(le_word(word));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordHash = BuildHasherDefault<WordHasher>;

/// The tables behind a [`SpecMemo`]'s lock.
struct Tables<K> {
    /// Each distinct fingerprint once, in its compact form (see the module
    /// docs), found by comparing that form whole.
    states: HashMap<Box<[u8]>, StateId, WordHash>,
    /// Transitions by start boundary and what was fed.
    transitions: HashMap<(StateId, Step<K>), Transition, WordHash>,
    /// The id the last interned fingerprint got. Ids go on from it after a
    /// clear, so an id handed out before never names a later state.
    last: StateId,
}

impl<K> Tables<K> {
    /// The id of the fingerprint whose compact form is `encoded`, interning
    /// it when there is room.
    fn intern(&mut self, encoded: &[u8]) -> Option<StateId> {
        if let Some(&id) = self.states.get(encoded) {
            return Some(id);
        }
        if self.states.len() >= MEMO_STATES {
            return None;
        }
        self.last += 1;
        self.states.insert(encoded.into(), self.last);
        Some(self.last)
    }
}

/// What a [`SpecMemo`] holds, roughly what that occupies, and how the
/// recalling runs that used it fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Interned boundary fingerprints.
    pub states: usize,
    /// Recorded transitions.
    pub transitions: usize,
    /// Heap bytes of both tables: encoded fingerprints plus table slots.
    pub bytes: usize,
    /// Recalling runs that recalled every transition through the drain.
    pub recalls: u64,
    /// Recalling runs that met a transition the memo lacked.
    pub misses: u64,
    /// Of those, the runs that had recalled at least one piece first.
    pub midway_misses: u64,
}

impl std::iter::Sum for MemoStats {
    fn sum<I: Iterator<Item = MemoStats>>(memos: I) -> MemoStats {
        memos.fold(MemoStats::default(), |sum, memo| MemoStats {
            states: sum.states + memo.states,
            transitions: sum.transitions + memo.transitions,
            bytes: sum.bytes + memo.bytes,
            recalls: sum.recalls + memo.recalls,
            misses: sum.misses + memo.misses,
            midway_misses: sum.midway_misses + memo.midway_misses,
        })
    }
}

/// The transitions one machine has already simulated: what feeding a piece
/// from a given boundary did. See the module docs of `rasa_cpu::spec` for
/// why a recalled transition is exact, and [`SpeculativeRun`] for the runs
/// that record and recall them.
///
/// The memo is shared by reference between concurrent runs of its machine:
/// recalling runs read it side by side, each through one [`MemoView`], and
/// runs with a core lock it to record. Its lock recovers from a panic while
/// recording by clearing the memo, which only ever costs re-simulation.
pub struct SpecMemo<K> {
    tables: RwLock<Tables<K>>,
    /// Set when a holder of the write lock panicked; the next holder of
    /// either lock clears the tables first. Written and read only while
    /// `tables` is locked, which orders it.
    torn: AtomicBool,
    /// [`MemoStats::recalls`].
    recalls: AtomicU64,
    /// [`MemoStats::misses`].
    misses: AtomicU64,
    /// [`MemoStats::midway_misses`].
    midway_misses: AtomicU64,
}

impl<K> Default for SpecMemo<K> {
    fn default() -> Self {
        SpecMemo {
            tables: RwLock::new(Tables {
                states: HashMap::default(),
                transitions: HashMap::default(),
                last: START,
            }),
            torn: AtomicBool::new(false),
            recalls: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            midway_misses: AtomicU64::new(0),
        }
    }
}

impl<K: Copy + Eq + Hash> SpecMemo<K> {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        SpecMemo::default()
    }

    /// The tables to write, cleared first if their last writer panicked.
    fn tables(&self) -> TablesGuard<'_, K> {
        let mut tables = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        if self.torn.swap(false, Ordering::Relaxed) {
            tables.states.clear();
            tables.transitions.clear();
        }
        TablesGuard {
            tables,
            torn: &self.torn,
        }
    }

    /// The memo to read for one walk, under one read lock held until the
    /// view is dropped (the tables cleared first if their last writer
    /// panicked). Recalling runs of one machine read side by side; a run
    /// that records waits for the views to go. So a thread must not record
    /// into the memo, or take a second view of it, while it holds one.
    #[must_use]
    pub fn view(&self) -> MemoView<'_, K> {
        loop {
            let tables = self.tables.read().unwrap_or_else(PoisonError::into_inner);
            if !self.torn.load(Ordering::Relaxed) {
                return MemoView { tables, memo: self };
            }
            drop(tables);
            drop(self.tables());
        }
    }

    /// Counts a recalling run that ended: recalled whole, or missed at
    /// `from`.
    fn count(&self, recalled: bool, from: Option<StateId>) {
        let counter = if recalled {
            &self.recalls
        } else {
            if from != Some(START) {
                self.midway_misses.fetch_add(1, Ordering::Relaxed);
            }
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Interns the boundary a step ended at (its encoded fingerprint, or
    /// `None` for the drain) and, when the boundary it started from is
    /// known and there is room, records the step. Returns the end's id, if
    /// it has one.
    fn record(
        &self,
        from: Option<StateId>,
        step: Step<K>,
        end: Option<&[u8]>,
        transition: impl FnOnce(StateId) -> Transition,
    ) -> Option<StateId> {
        let mut tables = self.tables();
        let end = match end {
            Some(encoded) => tables.intern(encoded)?,
            None => DRAINED,
        };
        if let Some(from) = from {
            if tables.transitions.len() < MEMO_TRANSITIONS {
                tables.transitions.insert((from, step), transition(end));
            }
        }
        Some(end)
    }

    /// What the memo holds.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let tables = self.view().tables;
        let encoded: usize = tables.states.keys().map(|state| state.len()).sum();
        MemoStats {
            states: tables.states.len(),
            transitions: tables.transitions.len(),
            bytes: encoded
                + tables.states.capacity() * (std::mem::size_of::<(Box<[u8]>, StateId)>() + 1)
                + tables.transitions.capacity()
                    * (std::mem::size_of::<((StateId, Step<K>), Transition)>() + 1),
            recalls: self.recalls.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            midway_misses: self.midway_misses.load(Ordering::Relaxed),
        }
    }
}

/// [`SpecMemo`] tables locked for writing. A panic while they are held
/// marks them torn, so the next holder finds them cleared.
struct TablesGuard<'a, K> {
    tables: RwLockWriteGuard<'a, Tables<K>>,
    torn: &'a AtomicBool,
}

impl<K> Deref for TablesGuard<'_, K> {
    type Target = Tables<K>;

    fn deref(&self) -> &Tables<K> {
        &self.tables
    }
}

impl<K> DerefMut for TablesGuard<'_, K> {
    fn deref_mut(&mut self) -> &mut Tables<K> {
        &mut self.tables
    }
}

impl<K> Drop for TablesGuard<'_, K> {
    fn drop(&mut self) {
        // Runs before the lock is released, so the next holder sees it.
        if std::thread::panicking() {
            self.torn.store(true, Ordering::Relaxed);
        }
    }
}

/// A [`SpecMemo`] read for one recalling walk ([`SpecMemo::view`]): its
/// tables under one read lock, so the walk's lookups lock nothing more and
/// borrow the transitions they recall instead of copying them.
pub struct MemoView<'a, K> {
    tables: RwLockReadGuard<'a, Tables<K>>,
    memo: &'a SpecMemo<K>,
}

impl<K: Copy + Eq + Hash> MemoView<'_, K> {
    /// The transition recorded for `step` from `from`.
    fn transition(&self, from: StateId, step: Step<K>) -> Option<&Transition> {
        self.tables.transitions.get(&(from, step))
    }
}

impl<K> fmt::Debug for MemoView<'_, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoView")
            .field("states", &self.tables.states.len())
            .field("transitions", &self.tables.transitions.len())
            .finish()
    }
}

impl<K: Copy + Eq + Hash> fmt::Debug for SpecMemo<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("SpecMemo")
            .field("states", &stats.states)
            .field("transitions", &stats.transitions)
            .finish()
    }
}

/// A paused boundary of a [`SpeculativeRun`]: where it lies, what the run
/// had accumulated by then, and a translation-invariant fingerprint of the
/// boundary state. [`SpeculativeRun::checkpoint`] refills one in place, so
/// a prober reuses its buffers instead of cloning the core.
#[derive(Debug, Clone, Default)]
pub struct SpecCheckpoint {
    /// `(core cycle, rename sequence, engine submissions)` of the boundary.
    position: (u64, u64, u64),
    /// Core cycles per engine cycle of the run.
    clock_ratio: u64,
    /// The run's architectural statistics up to the boundary.
    cpu: CpuStats,
    /// The run's scheduler counters up to the boundary.
    sched: SchedStats,
    /// The boundary's interned memo state, when the run knows it.
    state: Option<StateId>,
    /// The boundary state, relative to the position; empty in a recalling
    /// run, whose boundaries are their interned states.
    fingerprint: Fingerprint,
}

impl SpecCheckpoint {
    /// Whether `other`, a later checkpoint of the same run, is paused at an
    /// exact translation of this boundary: every time advanced by the
    /// cycles of [`SpecDelta::between`] the two, every sequence by its
    /// instructions and `rasa_mm`s — the periodicity test a probe runs
    /// before trusting a delta. It is fingerprint equality, or where a
    /// checkpoint has none (a recalling run, or a run's start) the equality
    /// of the interned states that stand for the fingerprints.
    ///
    /// When this holds, and because the core model's scheduling is
    /// translation-covariant, feeding both boundaries the same uniform work
    /// keeps them translated copies. So every further repeat of that work
    /// advances the state by the delta and accumulates the delta's
    /// statistics, which is what makes [`SpeculativeRun::fast_forward`]
    /// exact.
    #[must_use]
    pub fn shifted_matches(&self, other: &SpecCheckpoint) -> bool {
        if self.fingerprint.bytes().is_empty() || other.fingerprint.bytes().is_empty() {
            self.state.is_some() && self.state == other.state
        } else {
            self.fingerprint == other.fingerprint
        }
    }
}

/// One repeat of a periodic steady state: how far the boundary state
/// advances per repeat of identical work, and what the repeat accumulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecDelta {
    /// Core cycles per repeat.
    pub cycles: u64,
    /// Rename sequences (instructions) per repeat.
    pub instructions: u64,
    /// Engine submissions (`rasa_mm`s) per repeat.
    pub matmuls: u64,
    /// Architectural statistics of one repeat.
    pub cpu: CpuStats,
    /// Scheduler counters of one repeat.
    pub sched: SchedStats,
}

impl SpecDelta {
    /// The repeat from `from` to `to`, two checkpoints of one run, or
    /// `None` when the pair cannot describe one: `to` must be strictly
    /// later in both time and sequence, and the cycle delta a whole number
    /// of engine cycles (otherwise engine-clock state cannot shift
    /// exactly). Its statistics are everything the run accumulated between
    /// the two, whatever lay in between: other checkpoints, or the
    /// fast-forwards of a nested level.
    #[must_use]
    pub fn between(from: &SpecCheckpoint, to: &SpecCheckpoint) -> Option<SpecDelta> {
        let (from_cycle, from_seq, from_mm) = from.position;
        let (to_cycle, to_seq, to_mm) = to.position;
        if to_cycle <= from_cycle || to_seq <= from_seq || to_mm < from_mm {
            return None;
        }
        debug_assert_eq!(
            from.clock_ratio, to.clock_ratio,
            "checkpoints of the same run share a clock ratio"
        );
        let cycles = to_cycle - from_cycle;
        if cycles % to.clock_ratio != 0 {
            return None;
        }
        Some(SpecDelta {
            cycles,
            instructions: to_seq - from_seq,
            matmuls: to_mm - from_mm,
            cpu: to.cpu.since(&from.cpu),
            sched: to.sched.since(&from.sched),
        })
    }
}

/// A streaming core run that can fast-forward through its periodic steady
/// state, and record or recall its transitions in a [`SpecMemo`].
///
/// A run either owns a `(CpuCore, CoreRun)` pair ([`SpeculativeRun::begin`])
/// or advances by recall alone ([`SpeculativeRun::recall`]); both keep the
/// fold-in-order statistics accumulators and the boundary's position. Its
/// statistics are **bit-identical** to feeding the same instruction stream
/// sequentially, however much it skips or recalls. See the module docs for
/// the argument.
///
/// The core and its paused run live on the heap, so the run itself stays a
/// few hundred bytes; a run with a core allocates its buffers once, when it
/// begins, sized from the core's ROB.
#[derive(Debug)]
pub struct SpeculativeRun {
    /// The core and its paused run; `None` in a recalling run, and once a
    /// run with a core has drained.
    core: Option<Box<(CpuCore, CoreRun)>>,
    /// `(core cycle, rename sequence, engine submissions)` of the boundary.
    position: (u64, u64, u64),
    /// Core cycles per engine cycle.
    clock_ratio: u64,
    /// The boundary's memo state: [`START`] before the first feed, `None`
    /// once the run passed a boundary no memo interned.
    state: Option<StateId>,
    /// Whether the statistics fed since the last boundary are taken and
    /// its fingerprint written. A run starts settled: nothing is fed yet,
    /// and [`START`] stands for its first boundary's fingerprint, as every
    /// interned state does in a recalling run.
    settled: bool,
    /// The boundary's fingerprint, once settled past the start (runs with a
    /// core).
    fingerprint: Fingerprint,
    cpu: CpuStats,
    sched: SchedStats,
    stream: StreamStats,
}

impl SpeculativeRun {
    /// Opens a streaming run on `core` against `isa`.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuCore::begin_run`] errors.
    pub fn begin(mut core: CpuCore, isa: &IsaConfig) -> Result<Self, CpuError> {
        let run = core.begin_run(isa)?;
        Ok(SpeculativeRun {
            position: (run.current_cycle(), run.next_sequence(), 0),
            clock_ratio: run.clock_ratio(),
            fingerprint: Fingerprint::with_room(core.config()),
            core: Some(Box::new((core, run))),
            state: Some(START),
            settled: true,
            cpu: CpuStats::default(),
            sched: SchedStats::default(),
            stream: StreamStats::default(),
        })
    }

    /// Opens a run with no core on the machine of `config` and `systolic`,
    /// at the boundary [`CpuCore::begin_run`] opens every run at. It
    /// advances only by recall from a memo of that machine.
    #[must_use]
    pub fn recall(config: &CpuConfig, systolic: &SystolicConfig) -> Self {
        SpeculativeRun {
            core: None,
            position: (config.frontend_depth, 0, 0),
            clock_ratio: u64::from(systolic.clock_ratio()),
            state: Some(START),
            settled: true,
            fingerprint: Fingerprint::default(),
            cpu: CpuStats::default(),
            sched: SchedStats::default(),
            stream: StreamStats::default(),
        }
    }

    /// Whether the run advances by recall alone (it has no core).
    #[must_use]
    pub const fn is_recalling(&self) -> bool {
        self.core.is_none()
    }

    /// Feeds one validated segment into the run.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuCore::feed_segment`] errors, and returns
    /// [`CpuError::Stream`] for a recalling run, which has no core to feed.
    pub fn feed_segment(&mut self, segment: &ProgramSegment) -> Result<(), CpuError> {
        let (core, run) = self.core.as_deref_mut().ok_or_else(|| CpuError::Stream {
            reason: "the run has no core to feed: it recalls, or it has drained".to_string(),
        })?;
        self.settled = false;
        self.state = None;
        core.feed_segment(run, segment)
    }

    /// Takes the statistics fed since the last boundary into the
    /// accumulators and writes the boundary's position and fingerprint.
    /// Returns what it took: the interval's statistics.
    fn settle(&mut self) -> (CpuStats, SchedStats, StreamStats) {
        let Some((core, run)) = self.core.as_deref_mut() else {
            return Default::default();
        };
        let interval = core.take_interval_stats(run);
        self.cpu.accumulate(&interval.0);
        self.sched.accumulate(&interval.1);
        self.stream.accumulate(&interval.2);
        self.position = (
            run.current_cycle(),
            run.next_sequence(),
            core.engine().submitted(),
        );
        core.fingerprint(run, &mut self.fingerprint);
        self.settled = true;
        interval
    }

    /// Captures the current boundary into `into`, reusing its buffer: the
    /// boundary's position, the run's statistics so far and the boundary's
    /// fingerprint (in a recalling run, its interned state). The run must be
    /// paused between feeds.
    pub fn checkpoint(&mut self, into: &mut SpecCheckpoint) {
        if !self.settled {
            self.settle();
        }
        into.position = self.position;
        into.clock_ratio = self.clock_ratio;
        into.cpu = self.cpu;
        into.sched = self.sched;
        into.state = self.state;
        if self.is_recalling() {
            into.fingerprint.clear();
        } else {
            into.fingerprint.copy_from(&self.fingerprint);
        }
    }

    /// Skips `strides` further repeats of the work `delta` was measured on,
    /// in O(1).
    ///
    /// The run must be paused at the checkpoint `delta` ends at (the `to`
    /// of [`SpecDelta::between`], confirmed by
    /// [`SpecCheckpoint::shifted_matches`]), with nothing fed since, and the
    /// next `strides` repeats of the stream must be that same work: the
    /// same instructions up to memory addresses. Feeding them would then
    /// advance the boundary by `strides` deltas and accumulate `strides`
    /// copies of the repeat's statistics, so this shifts the boundary state
    /// and folds those statistics directly. The skipped instructions count
    /// as fed, so `fed_instructions` matches a sequential run, and each
    /// skipped repeat counts as one fast-forwarded stride. The shifted
    /// boundary is a translation of the checkpoint, so its fingerprint and
    /// memo state stay the checkpoint's.
    pub fn fast_forward(&mut self, delta: &SpecDelta, strides: u64) {
        debug_assert!(self.settled, "fast-forward starts right at a checkpoint");
        let (cycles, instructions, matmuls) = (
            delta.cycles * strides,
            delta.instructions * strides,
            delta.matmuls * strides,
        );
        if let Some((core, run)) = self.core.as_deref_mut() {
            core.shift_boundary(run, cycles, instructions, matmuls);
        }
        let (cycle, seq, submitted) = self.position;
        self.position = (cycle + cycles, seq + instructions, submitted + matmuls);
        let engine_period = delta.cycles / self.clock_ratio;
        self.cpu
            .accumulate(&delta.cpu.repeated(strides, engine_period));
        self.sched.accumulate(&delta.sched.repeated(strides));
        self.stream.fed_instructions += instructions;
        self.stream.fast_forwarded_strides += strides;
    }

    /// Advances past `piece` by recall when `memo` holds what feeding it
    /// from the current boundary did, and returns whether it did. A
    /// recalling run recalls any recorded transition; a run with a core
    /// only a fixed point — one that ends at the boundary it started from —
    /// which it applies by shifting its core instead of feeding it. The
    /// statistics, feed counters included, are those of feeding the piece.
    ///
    /// `memo` must view the memo every piece of this run was recorded in.
    pub fn recall_piece<K: Copy + Eq + Hash>(&mut self, memo: &MemoView<'_, K>, piece: K) -> bool {
        let recalled = self
            .state
            .and_then(|from| memo.transition(from, Step::Feed(piece)));
        let Some(transition) = recalled else {
            if self.is_recalling() {
                memo.memo.count(false, self.state);
            }
            return false;
        };
        let from = self.state.unwrap_or(START);
        if let Some((core, run)) = self.core.as_deref_mut() {
            if transition.end != from {
                return false;
            }
            let (cycles, instructions, matmuls) = transition.advance;
            core.shift_boundary(run, cycles, instructions, matmuls);
        }
        self.apply(transition);
        true
    }

    /// Feeds `segment`, the instructions of `piece`, into a run with a core
    /// and records the transition in `memo` when both its boundaries are
    /// interned there.
    ///
    /// # Errors
    ///
    /// As [`SpeculativeRun::feed_segment`].
    pub fn feed_piece<K: Copy + Eq + Hash>(
        &mut self,
        memo: &SpecMemo<K>,
        piece: K,
        segment: &ProgramSegment,
    ) -> Result<(), CpuError> {
        let (from, start) = (self.state, self.position);
        if !self.settled {
            self.settle();
        }
        self.feed_segment(segment)?;
        let interval = self.settle();
        let (to, ratio) = (self.position, self.clock_ratio);
        self.state = memo.record(
            from,
            Step::Feed(piece),
            Some(self.fingerprint.bytes()),
            |end| Transition::between(start, to, ratio, interval, end),
        );
        Ok(())
    }

    /// Folds a recalled transition into the run.
    fn apply(&mut self, transition: &Transition) {
        let (cycle, seq, submitted) = self.position;
        let mut cpu = transition.cpu;
        if cpu.engine.matmuls > 0 {
            cpu.engine.last_completion_cycle = cpu
                .engine
                .last_completion_cycle
                .wrapping_add(cycle / self.clock_ratio);
        }
        if transition.end == DRAINED {
            cpu.cycles = cpu.cycles.wrapping_add(cycle);
        }
        self.cpu.accumulate(&cpu);
        self.sched.accumulate(&transition.sched);
        self.stream.accumulate(&transition.stream);
        let (cycles, instructions, matmuls) = transition.advance;
        self.position = (
            cycle.wrapping_add(cycles),
            seq.wrapping_add(instructions),
            submitted.wrapping_add(matmuls),
        );
        self.state = Some(transition.end);
    }

    /// Finalizes the run, drains the pipeline to quiescence and returns the
    /// accumulated `(CpuStats, SchedStats, StreamStats)` — the architectural
    /// and scheduler counters bit-identical to the sequential streamed
    /// execution of the same instruction stream. The run ends here: its
    /// core is gone, and it feeds, recalls and drains nothing more.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuCore::run_to_quiescence`] errors, and returns
    /// [`CpuError::Stream`] for a recalling run, which drains only by
    /// recall ([`SpeculativeRun::recall_drain`]), or one already drained.
    pub fn finish(&mut self) -> Result<(CpuStats, SchedStats, StreamStats), CpuError> {
        self.drain(None::<&SpecMemo<()>>)
    }

    /// [`SpeculativeRun::finish`], recording the drain in `memo` when the
    /// boundary it starts from is interned there.
    ///
    /// # Errors
    ///
    /// As [`SpeculativeRun::finish`].
    pub fn finish_with<K: Copy + Eq + Hash>(
        &mut self,
        memo: &SpecMemo<K>,
    ) -> Result<(CpuStats, SchedStats, StreamStats), CpuError> {
        self.drain(Some(memo))
    }

    /// Finalizes a recalling run by recalling the drain from its final
    /// boundary, or returns `None` when `memo` does not hold it (or the run
    /// has a core, which drains by [`SpeculativeRun::finish_with`]). A
    /// recalled drain ends the run.
    pub fn recall_drain<K: Copy + Eq + Hash>(
        &mut self,
        memo: &MemoView<'_, K>,
    ) -> Option<(CpuStats, SchedStats, StreamStats)> {
        if !self.is_recalling() {
            return None;
        }
        let drain = self
            .state
            .and_then(|from| memo.transition(from, Step::Drain));
        memo.memo.count(drain.is_some(), self.state);
        self.apply(drain?);
        Some((self.cpu, self.sched, self.stream))
    }

    fn drain<K: Copy + Eq + Hash>(
        &mut self,
        memo: Option<&SpecMemo<K>>,
    ) -> Result<(CpuStats, SchedStats, StreamStats), CpuError> {
        let (mut core, run) = *self.core.take().ok_or_else(|| CpuError::Stream {
            reason: "the run has no core to drain: it recalls, or it has drained".to_string(),
        })?;
        let tail = core.run_to_quiescence(run)?;
        let interval = (tail, *core.sched_stats(), *core.stream_stats());
        if let (Some(memo), Some(from), true) = (memo, self.state, self.settled) {
            let (start, ratio) = (self.position, self.clock_ratio);
            memo.record(Some(from), Step::Drain, None, |end| {
                Transition::between(start, start, ratio, interval, end)
            });
        }
        self.cpu.accumulate(&interval.0);
        self.sched.accumulate(&interval.1);
        self.stream.accumulate(&interval.2);
        // Drained, as a recalled drain leaves a run: nothing recalls from
        // here.
        self.state = Some(DRAINED);
        Ok((self.cpu, self.sched, self.stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuConfig;
    use rasa_isa::{IsaConfig, MemRef, ProgramBuilder, TileReg};
    use rasa_systolic::{ControlScheme, MatrixEngine, PeVariant, SystolicConfig};

    fn treg(i: u8) -> TileReg {
        TileReg::new(i).unwrap()
    }

    fn core(pe: PeVariant, scheme: ControlScheme) -> CpuCore {
        let engine = MatrixEngine::new(SystolicConfig::paper(pe, scheme).unwrap());
        CpuCore::new(CpuConfig::skylake_like(), engine)
    }

    /// `total` instruction blocks: k-steps of the Algorithm-1 micro-kernel
    /// (4 tile loads + 4 matmuls touching the same registers every
    /// iteration — the periodic steady state fast-forward relies on). The
    /// first block additionally loads the four accumulators; all later
    /// blocks are identical up to addresses, which carry no timing.
    fn trace_blocks(total: usize) -> Vec<ProgramSegment> {
        let mut b = ProgramBuilder::new(IsaConfig::amx_like());
        let mut out = Vec::new();
        for k in 0..total {
            if k == 0 {
                for i in 0..4u8 {
                    b.tile_load(treg(i), MemRef::tile(u64::from(i) * 0x400, 64));
                }
            }
            let base = 0x10_000 + (k as u64) * 0x2000;
            b.tile_load(treg(4), MemRef::tile(base, 64));
            b.tile_load(treg(6), MemRef::tile(base + 0x400, 64));
            b.matmul(treg(0), treg(6), treg(4));
            b.tile_load(treg(7), MemRef::tile(base + 0x800, 64));
            b.matmul(treg(1), treg(7), treg(4));
            b.tile_load(treg(5), MemRef::tile(base + 0xc00, 64));
            b.matmul(treg(2), treg(6), treg(5));
            b.matmul(treg(3), treg(7), treg(5));
            out.push(b.finish_segment().unwrap().clone());
        }
        out
    }

    /// Warms up eight blocks, then probes block by block until one block's
    /// boundary translates the previous one, leaving `seed` and `cp` at
    /// the two. Returns the confirmed delta and the first block not fed.
    fn probe(
        spec: &mut SpeculativeRun,
        blocks: &[ProgramSegment],
        seed: &mut SpecCheckpoint,
        cp: &mut SpecCheckpoint,
    ) -> (SpecDelta, usize) {
        for block in &blocks[..8] {
            spec.feed_segment(block).unwrap();
        }
        spec.checkpoint(seed);
        for (next, block) in blocks.iter().enumerate().take(16).skip(8) {
            spec.feed_segment(block).unwrap();
            spec.checkpoint(cp);
            if let Some(delta) = SpecDelta::between(seed, cp).filter(|_| seed.shifted_matches(cp)) {
                return (delta, next + 1);
            }
            std::mem::swap(seed, cp);
        }
        panic!("no periodic delta within 16 blocks");
    }

    /// Probes for a confirmed delta, fast-forwards to `tail` blocks before
    /// the end, feeds those and returns the run's statistics plus the
    /// strides it skipped.
    fn fast_forwarded(
        pe: PeVariant,
        scheme: ControlScheme,
        blocks: &[ProgramSegment],
        tail: usize,
    ) -> (CpuStats, SchedStats, StreamStats, usize) {
        let mut spec = SpeculativeRun::begin(core(pe, scheme), &IsaConfig::amx_like()).unwrap();
        let (mut seed, mut cp) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        let (delta, next) = probe(&mut spec, blocks, &mut seed, &mut cp);
        let strides = blocks.len() - tail - next;
        spec.fast_forward(&delta, strides as u64);
        for block in &blocks[next + strides..] {
            spec.feed_segment(block).unwrap();
        }
        let (cpu, sched, stream) = spec.finish().unwrap();
        (cpu, sched, stream, strides)
    }

    #[test]
    fn fast_forward_reproduces_sequential_stats_bit_for_bit() {
        let blocks = trace_blocks(64);
        let total_instructions: usize = blocks.iter().map(ProgramSegment::len).sum();
        for (pe, scheme) in [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Baseline, ControlScheme::Wlbp),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ] {
            let mut golden = core(pe, scheme);
            let mut run = golden.begin_run(&IsaConfig::amx_like()).unwrap();
            for block in &blocks {
                golden.feed_segment(&mut run, block).unwrap();
            }
            let golden_cpu = golden.run_to_quiescence(run).unwrap();
            // With no tail the final counters, engine horizon included,
            // come from the fast-forward alone.
            for tail in [0, 4] {
                let (cpu, sched, stream, strides) = fast_forwarded(pe, scheme, &blocks, tail);
                let what = format!("{pe:?}/{scheme:?}, tail {tail}");
                assert_eq!(cpu, golden_cpu, "{what}");
                assert_eq!(sched, *golden.sched_stats(), "{what}");
                assert_eq!(stream.fast_forwarded_strides, strides as u64);
                assert_eq!(stream.fed_instructions, total_instructions as u64);
            }
        }
    }

    type Stats = (CpuStats, SchedStats, StreamStats);

    /// Walks `blocks` piece by piece through `memo`, as a cell of the
    /// simulator does: eight warm-up blocks, a probe of at most eight more,
    /// a fast-forward to four blocks before the end, then those four and
    /// the drain. A block's piece key is 0 for the first (which loads the
    /// accumulators), `last` for the last and 1 for the others. `None` when
    /// a recalling run misses.
    fn walk(
        mut spec: SpeculativeRun,
        memo: &SpecMemo<u8>,
        blocks: &[ProgramSegment],
        last: u8,
    ) -> Option<Stats> {
        // A recalling run reads the memo through one view; a run with a
        // core takes one for each fixed point it looks for.
        let view = spec.is_recalling().then(|| memo.view());
        let feed = |spec: &mut SpeculativeRun, k: usize| {
            let piece = match k {
                0 => 0,
                _ if k + 1 == blocks.len() => last,
                _ => 1,
            };
            let recalled = match &view {
                Some(view) => spec.recall_piece(view, piece),
                None => spec.recall_piece(&memo.view(), piece),
            };
            if recalled {
                return true;
            }
            if spec.is_recalling() {
                return false;
            }
            spec.feed_piece(memo, piece, &blocks[k]).unwrap();
            true
        };
        for k in 0..8 {
            if !feed(&mut spec, k) {
                return None;
            }
        }
        let (mut seed, mut cp) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        spec.checkpoint(&mut seed);
        let (mut next, mut delta) = (8, None);
        while next < 16 && delta.is_none() {
            if !feed(&mut spec, next) {
                return None;
            }
            next += 1;
            spec.checkpoint(&mut cp);
            delta = SpecDelta::between(&seed, &cp).filter(|_| seed.shifted_matches(&cp));
            std::mem::swap(&mut seed, &mut cp);
        }
        let strides = blocks.len() - 4 - next;
        spec.fast_forward(
            &delta.expect("a steady state within 16 blocks"),
            strides as u64,
        );
        for k in next + strides..blocks.len() {
            if !feed(&mut spec, k) {
                return None;
            }
        }
        match &view {
            Some(view) => spec.recall_drain(view),
            None => Some(spec.finish_with(memo).unwrap()),
        }
    }

    /// The sequential oracle: every block fed to one core.
    fn sequential(
        pe: PeVariant,
        scheme: ControlScheme,
        blocks: &[ProgramSegment],
    ) -> (CpuStats, SchedStats) {
        let mut golden = core(pe, scheme);
        let mut run = golden.begin_run(&IsaConfig::amx_like()).unwrap();
        for block in blocks {
            golden.feed_segment(&mut run, block).unwrap();
        }
        (
            golden.run_to_quiescence(run).unwrap(),
            *golden.sched_stats(),
        )
    }

    fn recalling(pe: PeVariant, scheme: ControlScheme) -> SpeculativeRun {
        let config = SystolicConfig::paper(pe, scheme).unwrap();
        SpeculativeRun::recall(&CpuConfig::skylake_like(), &config)
    }

    fn begun(pe: PeVariant, scheme: ControlScheme) -> SpeculativeRun {
        SpeculativeRun::begin(core(pe, scheme), &IsaConfig::amx_like()).unwrap()
    }

    #[test]
    fn recalled_and_fixed_point_runs_reproduce_the_recorded_run() {
        let blocks = trace_blocks(48);
        for (pe, scheme) in [
            (PeVariant::Baseline, ControlScheme::Base),
            (PeVariant::Dmdb, ControlScheme::Wls),
        ] {
            let memo = SpecMemo::new();
            // Nothing recorded yet: a recalling run misses at once.
            assert!(walk(recalling(pe, scheme), &memo, &blocks, 1).is_none());
            let recorded = walk(begun(pe, scheme), &memo, &blocks, 1).unwrap();
            assert_eq!((recorded.0, recorded.1), sequential(pe, scheme, &blocks));
            let held = memo.stats();
            assert!(held.states > 0 && held.transitions > held.states && held.bytes > 0);
            // The recalling run never touches a core, and a second run with
            // one shifts past the fixed points it meets: both are the
            // recorded run, feed counters included, and record nothing new.
            let recalled = walk(recalling(pe, scheme), &memo, &blocks, 1).unwrap();
            assert_eq!(recalled, recorded, "{pe:?}/{scheme:?}");
            let replayed = walk(begun(pe, scheme), &memo, &blocks, 1).unwrap();
            assert_eq!(replayed, recorded, "{pe:?}/{scheme:?}");
            let after = memo.stats();
            assert_eq!(
                (after.states, after.transitions),
                (held.states, held.transitions)
            );
            assert_eq!(
                (after.recalls, after.misses, after.midway_misses),
                (1, 1, 0)
            );
            // A longer walk of the same work is the same pieces, only more
            // of them fast-forwarded, so it is recalled whole and equals
            // the sequential run; one whose last piece is new recalls its
            // first pieces, then misses midway.
            let longer = trace_blocks(64);
            let recalled = walk(recalling(pe, scheme), &memo, &longer, 1).unwrap();
            assert_eq!((recalled.0, recalled.1), sequential(pe, scheme, &longer));
            assert!(walk(recalling(pe, scheme), &memo, &blocks, 2).is_none());
            let after = memo.stats();
            assert_eq!(
                (after.recalls, after.misses, after.midway_misses),
                (2, 2, 1)
            );
        }
    }

    #[test]
    fn a_drained_run_feeds_and_drains_nothing_more() {
        // Draining ends a run, with a core or by recall: a second drain, a
        // recall or a feed after it is refused, and the stats it returned
        // stay its stats.
        let (pe, scheme) = (PeVariant::Dmdb, ControlScheme::Wls);
        let blocks = trace_blocks(12);
        let memo = SpecMemo::new();
        let mut run = begun(pe, scheme);
        for (k, block) in blocks.iter().enumerate() {
            run.feed_piece(&memo, k as u8, block).unwrap();
        }
        let stats = run.finish_with(&memo).unwrap();
        assert!(run.finish().is_err());
        assert!(run.feed_segment(&blocks[0]).is_err());
        assert_eq!(run.recall_drain(&memo.view()), None);
        assert!(!run.recall_piece(&memo.view(), 0));
        let (view, mut recall) = (memo.view(), recalling(pe, scheme));
        for k in 0..blocks.len() {
            assert!(recall.recall_piece(&view, k as u8));
        }
        assert_eq!(recall.recall_drain(&view), Some(stats));
        assert_eq!(recall.recall_drain(&view), None);
        assert!(!recall.recall_piece(&view, 0));
    }

    #[test]
    fn a_full_memo_records_nothing_more_and_stays_exact() {
        let (pe, scheme) = (PeVariant::Dmdb, ControlScheme::Wls);
        let blocks = trace_blocks(40);
        let memo = SpecMemo::new();
        {
            let mut tables = memo.tables();
            for word in 0..MEMO_STATES as u64 {
                let mut fingerprint = Fingerprint::default();
                let mut words = fingerprint.words();
                words.push(u64::MAX - word);
                fingerprint.close(words);
                tables.intern(fingerprint.bytes()).unwrap();
            }
            assert!(tables.intern(&[]).is_none(), "full");
        }
        let full = memo.stats();
        assert_eq!((full.states, full.transitions), (MEMO_STATES, 0));
        let exact = walk(begun(pe, scheme), &memo, &blocks, 1).unwrap();
        assert_eq!((exact.0, exact.1), sequential(pe, scheme, &blocks));
        assert_eq!(memo.stats(), full, "a full memo records nothing");
        assert!(walk(recalling(pe, scheme), &memo, &blocks, 1).is_none());
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn a_poisoned_memo_is_cleared_and_records_again() {
        let (pe, scheme) = (PeVariant::Baseline, ControlScheme::Wlbp);
        let blocks = trace_blocks(40);
        let memo = SpecMemo::new();
        let recorded = walk(begun(pe, scheme), &memo, &blocks, 1).unwrap();
        assert!(memo.stats().states > 0);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _tables = memo.tables();
                panic!("a panic while the memo is held");
            });
            assert!(holder.join().is_err());
        });
        assert!(memo.tables.is_poisoned());
        // The next use clears it: nothing to recall, and a run with a core
        // records afresh.
        assert!(walk(recalling(pe, scheme), &memo, &blocks, 1).is_none());
        let cleared = memo.stats();
        assert_eq!((cleared.states, cleared.transitions), (0, 0));
        assert_eq!(
            walk(begun(pe, scheme), &memo, &blocks, 1).unwrap(),
            recorded
        );
        assert_eq!(
            walk(recalling(pe, scheme), &memo, &blocks, 1).unwrap(),
            recorded
        );
    }

    #[test]
    fn delta_between_rejects_non_advancing_or_ragged_pairs() {
        let blocks = trace_blocks(3);
        let mut spec = SpeculativeRun::begin(
            core(PeVariant::Baseline, ControlScheme::Base),
            &IsaConfig::amx_like(),
        )
        .unwrap();
        let (mut a, mut b) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        spec.feed_segment(&blocks[0]).unwrap();
        spec.checkpoint(&mut a);
        // Same checkpoint twice: no advance, no delta.
        assert!(SpecDelta::between(&a, &a.clone()).is_none());
        spec.feed_segment(&blocks[1]).unwrap();
        spec.checkpoint(&mut b);
        // Reversed order is rejected.
        assert!(SpecDelta::between(&b, &a).is_none());
        match SpecDelta::between(&a, &b) {
            Some(delta) => {
                assert!(delta.cycles > 0 && delta.instructions > 0);
                assert_eq!(delta.cycles % 4, 0, "paper configs run a 4:1 clock ratio");
                // A paused run has renamed everything it was fed.
                assert_eq!(delta.instructions, blocks[1].len() as u64);
            }
            // A ragged pair: not a whole number of engine cycles apart.
            None => assert_ne!(b.position.0 % 4, a.position.0 % 4),
        }
    }

    #[test]
    fn deltas_span_any_two_checkpoints() {
        // A delta between checkpoints two repeats apart is two repeats'
        // worth: positions and additive counters double, and the engine's
        // completion horizon is the later checkpoint's — however many
        // checkpoints were taken in between.
        let blocks = trace_blocks(24);
        let mut spec = SpeculativeRun::begin(
            core(PeVariant::Dmdb, ControlScheme::Wls),
            &IsaConfig::amx_like(),
        )
        .unwrap();
        let (mut seed, mut cp) = (SpecCheckpoint::default(), SpecCheckpoint::default());
        let (one, next) = probe(&mut spec, &blocks, &mut seed, &mut cp);
        spec.feed_segment(&blocks[next]).unwrap();
        let mut later = SpecCheckpoint::default();
        spec.checkpoint(&mut later);
        assert!(cp.shifted_matches(&later), "the steady state holds");
        let two = SpecDelta::between(&seed, &later).unwrap();
        // The next repeat is the same work, its horizon one period on.
        let mut next_one = one;
        next_one.cpu.engine.last_completion_cycle += one.cycles / 4;
        assert_eq!(SpecDelta::between(&cp, &later), Some(next_one));
        assert_eq!(
            (two.cycles, two.instructions, two.matmuls),
            (2 * one.cycles, 2 * one.instructions, 2 * one.matmuls)
        );
        let mut doubled = one.cpu.repeated(2, 0);
        doubled.engine.last_completion_cycle = later.cpu.engine.last_completion_cycle;
        assert_eq!(two.cpu, doubled);
        assert_eq!(two.sched, one.sched.repeated(2));
        assert_eq!(
            two.cpu.engine.last_completion_cycle,
            one.cpu.engine.last_completion_cycle + one.cycles / 4
        );
    }
}
