//! Small measurement helpers: a seeded RNG, order statistics, process
//! memory and allocation counters, the commit id and the in-memory span
//! log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every workload input is a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (e.g. a client
    /// index) so parallel streams of one seed never repeat each other.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending, non-empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (sorts in place). Non-empty input.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// Median of unsorted samples (sorts in place) and its standard error,
/// estimated from the interquartile range as for a normal sample
/// (σ ≈ IQR / 1.349, SE ≈ 1.2533 σ / √n). Non-empty input.
pub fn median_with_error(samples: &mut [f64]) -> (f64, f64) {
    let median = median(samples);
    let iqr = percentile(samples, 75.0) - percentile(samples, 25.0);
    let error = 1.2533 * (iqr / 1.349) / (samples.len() as f64).sqrt();
    (median, error)
}

/// The tail latency the sample supports: p99 when at least ten samples lie
/// beyond it (n ≥ 1000), otherwise the highest percentile that still has
/// ten samples beyond it, and the maximum when n ≤ 10. Returns the value
/// and the percentile it is. Input must be sorted and non-empty.
#[must_use]
pub fn supported_tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p = if n >= 1000 {
        99.0
    } else if n > 10 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        100.0
    };
    (percentile(sorted, p), p)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation (a statistic only, so
/// the counter is `Relaxed`). The benchmark binary installs it as the
/// global allocator; elsewhere [`allocations`] stays at zero.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory handed
// out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds `realloc`'s
        // size and layout requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by this process (zero unless [`CountingAlloc`]
/// is the global allocator).
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
#[must_use]
pub fn commit_id(root: &Path) -> String {
    let git = root.join(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within one run, starting at 1.
    pub id: u64,
    /// The layer call or phase the interval covers.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The enclosing span's id; 0 for a root span.
    pub parent: u64,
    /// The request (or operation) id the span belongs to.
    pub req: u64,
}

/// Spans kept in memory for one run and written out when it ends. Threads
/// record into their own buffers ([`SpanLog::local`]) and hand them back
/// once, so recording takes no lock.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording buffer for one thread.
    #[must_use]
    pub fn local(&self) -> LocalSpans<'_> {
        LocalSpans {
            log: self,
            spans: Vec::new(),
        }
    }

    /// Every span recorded and flushed so far, in id order.
    #[must_use]
    fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log lock").clone();
        spans.sort_by_key(|span| span.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                span.id, span.name, span.start_ns, span.end_ns, span.parent, span.req
            )?;
        }
        out.flush()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// One thread's span buffer; [`flush`](LocalSpans::flush) hands it to the
/// shared log.
#[derive(Debug)]
pub struct LocalSpans<'a> {
    log: &'a SpanLog,
    spans: Vec<Span>,
}

impl LocalSpans<'_> {
    /// A fresh span id, for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.log.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, req)
    }

    /// Records `[start, end]` under an id from [`reserve`](Self::reserve).
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let since = |t: Instant| t.saturating_duration_since(self.log.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent,
            req,
        });
        id
    }

    /// Moves the buffered spans into the shared log.
    pub fn flush(self) {
        self.log
            .spans
            .lock()
            .expect("span log lock")
            .extend(self.spans);
    }
}

/// FNV-1a over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x0100_0000_01B3);
    }
    state
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&sorted), (1980.0, 99.0));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, p) = supported_tail(&sorted);
        assert_eq!((value, p), (90.0, 90.0));
        assert_eq!(supported_tail(&[1.0, 2.0, 3.0]), (3.0, 100.0));
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
    }
}
