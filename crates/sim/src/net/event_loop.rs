//! The frame-server front end shared by [`ShardServer`] and [`Router`]:
//! one event-loop thread multiplexing every connection over non-blocking
//! sockets, plus a worker pool, sized by its owner, answering each inbound
//! frame through a [`FrameHandler`].
//!
//! On Linux the loop blocks in `epoll_wait` (via the hand-rolled bindings
//! in [`crate::net::sys`]); elsewhere it falls back to a portable
//! level-triggered tick that attempts non-blocking I/O on every registered
//! socket. Both paths share all connection logic:
//!
//! - Each connection owns a [`FrameDecoder`], so partial header or payload
//!   bytes survive across readiness events — a slow writer straddling a
//!   poll timeout mid-frame cannot desync the framing.
//! - Replies accumulate in a per-connection write buffer and drain as the
//!   socket accepts them; the buffer is bounded, and a connection that
//!   backlogs past the bound (or pipelines more than [`PENDING_LIMIT`]
//!   frames) has its read interest dropped until it drains — backpressure
//!   instead of unbounded memory.
//! - Complete frames are handed to the worker pool; exactly one frame per
//!   connection is in flight at a time, which preserves the wire
//!   protocol's request/response lockstep. Replies return to the loop via
//!   a channel and a wakeup.
//! - A handler that panics is contained at the worker boundary: its frame
//!   is answered with an `internal` error frame (id 0) and the worker
//!   keeps serving, so the connection never waits on a reply that will
//!   not come.
//!
//! The loop never blocks on a socket and workers never touch sockets, so
//! one slow or dead peer cannot stall any other connection.
//!
//! [`ShardServer`]: crate::net::ShardServer
//! [`Router`]: crate::net::Router
//! [`FrameDecoder`]: crate::net::wire::FrameDecoder

use crate::json::ToJson;
use crate::net::wire::{ErrorCode, Frame, FrameDecoder, FrameKind, WireFailure, MAX_FRAME_LEN};
use crate::net::NetError;
use crate::prof::{self, Stage};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::net::sys;
#[cfg(target_os = "linux")]
use std::os::unix::io::AsRawFd;
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;

/// How long one `epoll_wait` blocks before re-checking the shutdown flag.
#[cfg(target_os = "linux")]
const POLL_TIMEOUT_MS: i32 = 50;

/// The portable fallback's tick: the loop sleeps at most this long (in
/// the completion channel's `recv_timeout`) before re-scanning every
/// socket. Short enough to keep reply latency low without epoll.
const FALLBACK_TICK: Duration = Duration::from_millis(2);

/// Size of the shared read scratch buffer — one read burst per readiness
/// event lands here before being fed to the connection's decoder.
const READ_CHUNK: usize = 64 * 1024;

/// Maximum decoded-but-undispatched frames per connection before its read
/// interest is dropped (a lockstep client keeps this at ≤ 1; only a
/// pipelining or misbehaving peer ever approaches the bound).
const PENDING_LIMIT: usize = 64;

/// Maximum buffered unsent reply bytes per connection before its read
/// interest is dropped: one maximum frame plus framing headroom.
const WRITE_BACKLOG_LIMIT: usize = MAX_FRAME_LEN + 64;

/// Accept-queue depth of every listener. `TcpListener::bind` listens with
/// a backlog of 128; a burst of a few hundred connects overflows that, and
/// every client whose SYN the kernel drops waits out a 1 s retransmit.
/// The kernel clamps the value to `net.core.somaxconn`.
#[cfg(target_os = "linux")]
const LISTEN_BACKLOG: i32 = 1024;

/// Epoll token of the accept socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the waker's read end.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Abstract interest bit: the loop wants to read from the connection.
const WANT_READ: u32 = 0b01;
/// Abstract interest bit: the loop has unsent bytes for the connection.
const WANT_WRITE: u32 = 0b10;

/// Packs a slab index and its generation into an epoll token.
const fn token(index: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | (index as u64)
}

/// The frame→frame request handler a server plugs into the loop.
pub(crate) type FrameHandler = Arc<dyn Fn(&Frame) -> Frame + Send + Sync>;

/// Runs the handler on one frame, turning a panic into an `internal`
/// error frame so the worker thread survives it.
fn answer_contained(handler: &FrameHandler, frame: &Frame) -> Frame {
    panic::catch_unwind(AssertUnwindSafe(|| handler(frame))).unwrap_or_else(|payload| {
        let cause = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        let failure =
            WireFailure::new(0, ErrorCode::Internal, format!("handler panicked: {cause}"));
        Frame::json(FrameKind::Error, &failure.to_json())
    })
}

/// A complete request frame handed to the worker pool.
struct Work {
    index: usize,
    generation: u32,
    frame: Frame,
}

/// A handler reply returning to the loop.
struct Done {
    index: usize,
    generation: u32,
    reply: Frame,
}

/// Wakes the loop out of its readiness wait when a worker finishes.
struct Waker {
    inner: WakerInner,
}

enum WakerInner {
    /// One byte written to a socketpair registered in epoll.
    #[cfg(target_os = "linux")]
    Socket(UnixStream),
    /// The fallback loop ticks on its own; no wakeup needed.
    Tick,
}

impl Waker {
    fn wake(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Socket(stream) => {
                // A full pipe means a wakeup is already pending — ignore.
                let _ = (&*stream).write(&[1u8][..]);
            }
            WakerInner::Tick => {}
        }
    }
}

/// The readiness source: epoll on Linux, a plain tick elsewhere (or when
/// the fallback is forced for testing).
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Fallback,
}

#[cfg(target_os = "linux")]
struct EpollPoller {
    epoll: sys::Epoll,
    /// Read end of the waker socketpair, drained on [`WAKER_TOKEN`].
    waker_read: UnixStream,
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    generation: u32,
    /// Incremental decoder — partial frames survive across events.
    decoder: FrameDecoder,
    /// Decoded frames waiting for a worker slot.
    pending: VecDeque<Frame>,
    /// Whether a frame is currently with the worker pool.
    inflight: bool,
    /// Unsent reply bytes (drained from `out_pos`).
    out: Vec<u8>,
    out_pos: usize,
    /// Set after a protocol violation: stop reading, flush, then close.
    closing: bool,
    /// The interest mask currently registered with the poller.
    registered: u32,
}

impl Conn {
    fn new(stream: TcpStream, generation: u32) -> Conn {
        Conn {
            stream,
            generation,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            inflight: false,
            out: Vec::new(),
            out_pos: 0,
            closing: false,
            registered: WANT_READ,
        }
    }

    /// Whether backpressure has paused reads for this connection.
    fn paused(&self) -> bool {
        self.pending.len() >= PENDING_LIMIT || self.backlog() >= WRITE_BACKLOG_LIMIT
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn has_backlog(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// Returns `false` on a fatal transport error.
    fn try_flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            // Fully drained: keep the capacity, reset the window.
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }

    /// The interest mask the connection's state calls for.
    fn wanted_interest(&self) -> u32 {
        let mut want = 0;
        if !self.closing && !self.paused() {
            want |= WANT_READ;
        }
        if self.has_backlog() {
            want |= WANT_WRITE;
        }
        want
    }
}

/// Generation-checked connection storage: slots are reused, tokens are
/// not — a stale epoll event or worker reply for a closed connection
/// fails its generation check and is dropped.
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u32,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
        }
    }

    fn insert(&mut self, stream: TcpStream) -> (usize, u32) {
        let generation = self.next_generation;
        self.next_generation = self.next_generation.wrapping_add(1);
        let conn = Conn::new(stream, generation);
        match self.free.pop() {
            Some(index) => {
                self.slots[index] = Some(conn);
                (index, generation)
            }
            None => {
                self.slots.push(Some(conn));
                (self.slots.len() - 1, generation)
            }
        }
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut Conn> {
        self.slots.get_mut(index).and_then(Option::as_mut)
    }

    fn remove(&mut self, index: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(index).and_then(Option::take);
        if conn.is_some() {
            self.free.push(index);
        }
        conn
    }

    fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// Binds a listener on `addr`; on Linux its accept queue is
/// [`LISTEN_BACKLOG`] deep.
fn listen(addr: &str) -> Result<TcpListener, NetError> {
    let listener = TcpListener::bind(addr).map_err(|e| NetError::Io {
        kind: e.kind(),
        reason: format!("bind {addr}: {e}"),
    })?;
    #[cfg(target_os = "linux")]
    sys::listen(listener.as_raw_fd(), LISTEN_BACKLOG).map_err(NetError::from)?;
    Ok(listener)
}

/// A bound readiness-based frame server: the event-loop thread, its
/// worker pool, and the shared shutdown machinery.
pub(crate) struct EventLoop {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    loop_thread: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    open_connections: Arc<AtomicUsize>,
}

impl EventLoop {
    /// Binds `addr` and starts the loop thread plus `worker_count` handler
    /// threads (at least one, or no frame is ever answered). With
    /// `force_fallback` the portable tick poller is used even where epoll
    /// is available (exercised in tests so the fallback stays honest).
    pub(crate) fn bind(
        addr: &str,
        name: &str,
        handler: FrameHandler,
        worker_count: usize,
        force_fallback: bool,
    ) -> Result<EventLoop, NetError> {
        let listener = listen(addr)?;
        listener.set_nonblocking(true).map_err(NetError::from)?;
        let local = listener.local_addr().map_err(NetError::from)?;

        let (poller, waker) = Self::build_poller(force_fallback)?;
        #[cfg(target_os = "linux")]
        if let Poller::Epoll(ep) = &poller {
            ep.epoll
                .add(listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)
                .map_err(NetError::from)?;
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let open_connections = Arc::new(AtomicUsize::new(0));
        let (work_tx, work_rx) = mpsc::channel::<Work>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let rx = Arc::clone(&work_rx);
            let tx = done_tx.clone();
            let worker_handler = Arc::clone(&handler);
            let worker_waker = Arc::clone(&waker);
            let handle = thread::Builder::new()
                .name(format!("{name}-worker-{i}"))
                .spawn(move || loop {
                    let work = {
                        let Ok(guard) = rx.lock() else { break };
                        guard.recv()
                    };
                    let Ok(work) = work else { break };
                    let done = Done {
                        index: work.index,
                        generation: work.generation,
                        reply: answer_contained(&worker_handler, &work.frame),
                    };
                    if tx.send(done).is_err() {
                        break;
                    }
                    worker_waker.wake();
                })
                .map_err(NetError::from)?;
            workers.push(handle);
        }
        drop(done_tx);

        let state = LoopState {
            listener,
            poller,
            slab: Slab::new(),
            scratch: vec![0u8; READ_CHUNK],
            work_tx,
            open_connections: Arc::clone(&open_connections),
        };
        let loop_shutdown = Arc::clone(&shutdown);
        let loop_thread = thread::Builder::new()
            .name(format!("{name}-loop"))
            .spawn(move || run(state, &loop_shutdown, &done_rx))
            .map_err(NetError::from)?;

        Ok(EventLoop {
            addr: local,
            shutdown,
            waker,
            loop_thread: Some(loop_thread),
            workers,
            open_connections,
        })
    }

    fn build_poller(force_fallback: bool) -> Result<(Poller, Arc<Waker>), NetError> {
        #[cfg(target_os = "linux")]
        if !force_fallback {
            if let Ok(epoll) = sys::Epoll::new() {
                let (waker_read, waker_write) = UnixStream::pair().map_err(NetError::from)?;
                waker_read.set_nonblocking(true).map_err(NetError::from)?;
                waker_write.set_nonblocking(true).map_err(NetError::from)?;
                epoll
                    .add(waker_read.as_raw_fd(), WAKER_TOKEN, sys::EPOLLIN)
                    .map_err(NetError::from)?;
                let poller = Poller::Epoll(EpollPoller { epoll, waker_read });
                let waker = Arc::new(Waker {
                    inner: WakerInner::Socket(waker_write),
                });
                return Ok((poller, waker));
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = force_fallback;
        Ok((
            Poller::Fallback,
            Arc::new(Waker {
                inner: WakerInner::Tick,
            }),
        ))
    }

    /// The bound address (with the resolved port when binding port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections the loop currently holds open. (Read by the
    /// tests; production callers observe connection counts from the
    /// client side.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn open_connections(&self) -> usize {
        self.open_connections.load(Ordering::SeqCst)
    }

    /// Stops the loop and joins every thread. Idempotent; dropping the
    /// loop calls it too.
    pub(crate) fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Everything the loop thread owns. Dropping it (on loop exit) closes
/// every connection, the listener, and the work channel — which is what
/// tells the workers to exit.
struct LoopState {
    listener: TcpListener,
    poller: Poller,
    slab: Slab,
    scratch: Vec<u8>,
    work_tx: mpsc::Sender<Work>,
    open_connections: Arc<AtomicUsize>,
}

fn run(mut state: LoopState, shutdown: &AtomicBool, done_rx: &mpsc::Receiver<Done>) {
    #[cfg(target_os = "linux")]
    let mut events = vec![sys::EpollEvent::zeroed(); 256];
    while !shutdown.load(Ordering::SeqCst) {
        // Absorb every finished handler reply first: completions unblock
        // dispatch slots and un-pause backpressured connections.
        while let Ok(done) = done_rx.try_recv() {
            state.complete(done);
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        #[cfg(target_os = "linux")]
        if matches!(state.poller, Poller::Epoll(_)) {
            let n = state.wait_events(&mut events);
            let io_work = prof::time(Stage::NetIo);
            for event in &events[..n] {
                let (bits, tok) = (event.events, event.data);
                if tok == LISTENER_TOKEN {
                    state.accept_burst();
                } else if tok == WAKER_TOKEN {
                    state.drain_waker();
                } else {
                    let index = (tok & u64::from(u32::MAX)) as usize;
                    let generation = (tok >> 32) as u32;
                    let hangup = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                    let readable = bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0;
                    let writable = bits & sys::EPOLLOUT != 0;
                    state.service(index, generation, readable, writable, hangup);
                }
            }
            drop(io_work);
            continue;
        }
        // Portable fallback: block briefly on the completion channel (the
        // tick doubles as the poll timeout), then scan every socket.
        let poll = prof::time(Stage::NetPoll);
        let first = done_rx.recv_timeout(FALLBACK_TICK);
        drop(poll);
        if let Ok(done) = first {
            state.complete(done);
            while let Ok(done) = done_rx.try_recv() {
                state.complete(done);
            }
        }
        let io_work = prof::time(Stage::NetIo);
        state.scan_all();
        drop(io_work);
    }
}

impl LoopState {
    /// Blocks in `epoll_wait` for up to [`POLL_TIMEOUT_MS`].
    #[cfg(target_os = "linux")]
    fn wait_events(&mut self, events: &mut [sys::EpollEvent]) -> usize {
        let Poller::Epoll(ep) = &self.poller else {
            return 0;
        };
        let poll = prof::time(Stage::NetPoll);
        match ep.epoll.wait(events, POLL_TIMEOUT_MS) {
            Ok(n) => n,
            Err(_) => {
                // A failing wait would otherwise spin; back off briefly.
                drop(poll);
                thread::sleep(Duration::from_millis(1));
                0
            }
        }
    }

    /// Drains the waker socketpair so it can signal again.
    fn drain_waker(&mut self) {
        #[cfg(target_os = "linux")]
        if let Poller::Epoll(ep) = &self.poller {
            let mut buf = [0u8; 64];
            while matches!((&ep.waker_read).read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    /// Accepts until the listener would block.
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let (index, generation) = self.slab.insert(stream);
                    self.open_connections.fetch_add(1, Ordering::SeqCst);
                    #[cfg(target_os = "linux")]
                    if let Poller::Epoll(ep) = &self.poller {
                        let conn = self.slab.get_mut(index).expect("just inserted");
                        if ep
                            .epoll
                            .add(
                                conn.stream.as_raw_fd(),
                                token(index, generation),
                                sys::EPOLLIN,
                            )
                            .is_err()
                        {
                            self.close(index);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Handles one readiness event for a connection, generation-checked.
    fn service(
        &mut self,
        index: usize,
        generation: u32,
        readable: bool,
        writable: bool,
        hangup: bool,
    ) {
        {
            let Some(conn) = self.slab.get_mut(index) else {
                return;
            };
            if conn.generation != generation {
                return;
            }
            // A hung-up peer that can make no read progress (reads paused
            // or already closing) would re-fire forever: close it now.
            if hangup && (conn.closing || conn.paused()) {
                self.close(index);
                return;
            }
        }
        if readable {
            self.read_burst(index);
        }
        if readable || writable {
            self.flush_and_settle(index);
        }
    }

    /// Reads until the socket would block, feeding the decoder and
    /// dispatching complete frames. Stops early under backpressure.
    fn read_burst(&mut self, index: usize) {
        loop {
            enum Outcome {
                Close,
                Stop,
                Progress(usize),
            }
            let outcome = {
                let Some(conn) = self.slab.get_mut(index) else {
                    return;
                };
                if conn.closing || conn.paused() {
                    Outcome::Stop
                } else {
                    match conn.stream.read(&mut self.scratch) {
                        Ok(0) => Outcome::Close,
                        Ok(n) => Outcome::Progress(n),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Outcome::Stop,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => Outcome::Close,
                    }
                }
            };
            match outcome {
                Outcome::Close => {
                    self.close(index);
                    return;
                }
                Outcome::Stop => return,
                Outcome::Progress(n) => {
                    self.ingest(index, n);
                    if n < self.scratch.len() {
                        // A short read usually means the socket is drained;
                        // level-triggered polling re-fires if it is not.
                        return;
                    }
                }
            }
        }
    }

    /// Feeds `n` fresh scratch bytes to the connection's decoder, queueing
    /// complete frames and answering protocol violations with an error
    /// frame before flagging the connection for close.
    fn ingest(&mut self, index: usize, n: usize) {
        let mut off = 0;
        while off < n {
            let step = {
                let Some(conn) = self.slab.get_mut(index) else {
                    return;
                };
                match conn.decoder.feed(&self.scratch[off..n]) {
                    Ok((used, frame)) => {
                        if let Some(frame) = frame {
                            conn.pending.push_back(frame);
                        }
                        Ok(used)
                    }
                    Err(error) => Err(error),
                }
            };
            match step {
                Ok(used) => off += used,
                Err(error) => {
                    // After a framing violation the stream cannot be
                    // resynced: answer what can be answered, then close
                    // once queued work and the write buffer drain.
                    let Some(conn) = self.slab.get_mut(index) else {
                        return;
                    };
                    let failure = WireFailure::new(0, ErrorCode::BadRequest, error.to_string());
                    Frame::json(FrameKind::Error, &failure.to_json()).append_to(&mut conn.out);
                    conn.closing = true;
                    break;
                }
            }
        }
        self.dispatch(index);
    }

    /// Hands the next pending frame to the worker pool if the
    /// connection's single in-flight slot is free.
    fn dispatch(&mut self, index: usize) {
        let Some(conn) = self.slab.get_mut(index) else {
            return;
        };
        if conn.inflight {
            return;
        }
        let Some(frame) = conn.pending.pop_front() else {
            return;
        };
        conn.inflight = true;
        let generation = conn.generation;
        let _ = self.work_tx.send(Work {
            index,
            generation,
            frame,
        });
    }

    /// Applies a worker's reply: queue the encoded reply, free the
    /// in-flight slot, dispatch the next frame.
    fn complete(&mut self, done: Done) {
        {
            let Some(conn) = self.slab.get_mut(done.index) else {
                return;
            };
            if conn.generation != done.generation {
                return;
            }
            done.reply.append_to(&mut conn.out);
            conn.inflight = false;
        }
        self.dispatch(done.index);
        self.flush_and_settle(done.index);
    }

    /// Flushes what the socket accepts, closes drained closing
    /// connections, and reconciles the registered interest mask.
    fn flush_and_settle(&mut self, index: usize) {
        let flushed = {
            let Some(conn) = self.slab.get_mut(index) else {
                return;
            };
            conn.try_flush()
        };
        if !flushed {
            self.close(index);
            return;
        }
        let finished = {
            let Some(conn) = self.slab.get_mut(index) else {
                return;
            };
            conn.closing && !conn.inflight && conn.pending.is_empty() && !conn.has_backlog()
        };
        if finished {
            self.close(index);
            return;
        }
        self.update_interest(index);
    }

    /// Re-registers the connection when its wanted interest mask changed
    /// (read dropped under backpressure, write added for a backlog).
    fn update_interest(&mut self, index: usize) {
        let Some(conn) = self.slab.get_mut(index) else {
            return;
        };
        let want = conn.wanted_interest();
        if want == conn.registered {
            return;
        }
        conn.registered = want;
        #[cfg(target_os = "linux")]
        {
            let mut bits = 0;
            if want & WANT_READ != 0 {
                bits |= sys::EPOLLIN;
            }
            if want & WANT_WRITE != 0 {
                bits |= sys::EPOLLOUT;
            }
            let generation = conn.generation;
            let fd = conn.stream.as_raw_fd();
            if let Poller::Epoll(ep) = &self.poller {
                let _ = ep.epoll.modify(fd, token(index, generation), bits);
            }
        }
    }

    /// Removes and closes one connection.
    fn close(&mut self, index: usize) {
        if let Some(conn) = self.slab.remove(index) {
            #[cfg(target_os = "linux")]
            if let Poller::Epoll(ep) = &self.poller {
                let _ = ep.epoll.delete(conn.stream.as_raw_fd());
            }
            self.open_connections.fetch_sub(1, Ordering::SeqCst);
            drop(conn);
        }
    }

    /// Fallback path: accept, then attempt I/O on every live connection.
    fn scan_all(&mut self) {
        self.accept_burst();
        for index in 0..self.slab.slot_count() {
            if self.slab.get_mut(index).is_none() {
                continue;
            }
            self.read_burst(index);
            self.flush_and_settle(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::FromJson;

    /// An echo handler: answers every frame with the same payload as a
    /// Response frame.
    fn echo_handler() -> FrameHandler {
        Arc::new(|frame: &Frame| Frame {
            kind: FrameKind::Response,
            payload: frame.payload.clone(),
        })
    }

    fn request_frame(text: &str) -> Frame {
        Frame {
            kind: FrameKind::Request,
            payload: text.as_bytes().to_vec(),
        }
    }

    /// Both pollers: epoll (where available) and the forced portable
    /// fallback, the only transport off Linux.
    const FORCE_FALLBACK: [bool; 2] = [false, true];

    #[test]
    fn listener_queues_a_burst_of_connects() {
        // Nothing accepts, so every completed handshake waits in the
        // accept queue; a queue of the standard library's 128 drops the
        // SYNs past it and those connects time out.
        let listener = listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Hold every connection open until the last one is made.
        let _streams: Vec<TcpStream> = (0..300)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(200))
                    .unwrap_or_else(|e| panic!("connect {i} failed: {e}"))
            })
            .collect();
    }

    #[test]
    fn every_transport_answers_framed_requests() {
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-echo", echo_handler(), 2, fallback).unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            for i in 0..3 {
                let frame = request_frame(&format!("{{\"seq\":{i}}}"));
                frame.write_to(&mut stream).unwrap();
                let reply = Frame::read_from(&mut stream).unwrap();
                assert_eq!(reply.kind, FrameKind::Response, "fallback {fallback}");
                assert_eq!(reply.payload, frame.payload, "fallback {fallback}");
            }
            drop(stream);
            server.stop_and_join();
        }
    }

    /// A handler panic is contained at the worker boundary: the frame gets
    /// an `internal` error reply and the one worker keeps serving the same
    /// connection.
    #[test]
    fn handler_panics_become_internal_errors() {
        let handler: FrameHandler = Arc::new(|frame: &Frame| {
            assert!(frame.payload != b"panic", "injected handler panic");
            Frame {
                kind: FrameKind::Response,
                payload: frame.payload.clone(),
            }
        });
        for fallback in FORCE_FALLBACK {
            let mut server = EventLoop::bind(
                "127.0.0.1:0",
                "test-panic",
                Arc::clone(&handler),
                1,
                fallback,
            )
            .unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            // Without containment the reply never comes: fail, don't hang.
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            request_frame("panic").write_to(&mut stream).unwrap();
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.kind, FrameKind::Error, "fallback {fallback}");
            let failure = WireFailure::from_json(&reply.payload_json().unwrap()).unwrap();
            assert_eq!(failure.code, ErrorCode::Internal, "fallback {fallback}");
            assert_eq!(failure.id, 0);
            assert!(failure.message.contains("injected handler panic"));
            let next = request_frame("{\"after\":1}");
            next.write_to(&mut stream).unwrap();
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.kind, FrameKind::Response, "fallback {fallback}");
            assert_eq!(reply.payload, next.payload, "fallback {fallback}");
            drop(stream);
            server.stop_and_join();
        }
    }

    /// The mid-frame desync regression: one frame written a byte at a time
    /// with gaps well past the 50 ms epoll timeout, placed to straddle the
    /// length prefix, the kind byte and the payload. The decoder keeps
    /// every partial byte across wakeups, so the reply is correct and the
    /// connection stays in sync.
    #[test]
    fn slow_writers_straddling_poll_timeouts_do_not_desync() {
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-slow", echo_handler(), 2, fallback).unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let frame = request_frame("{\"slow\":true}");
            let bytes = frame.encode();
            // Gaps after the 2nd byte (mid length prefix), the 5th byte
            // (between version and kind) and the 8th byte (mid payload):
            // every gap exceeds the poll timeout.
            for (at, byte) in bytes.iter().enumerate() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                stream.flush().unwrap();
                if matches!(at, 1 | 4 | 7) {
                    std::thread::sleep(Duration::from_millis(70));
                }
            }
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.kind, FrameKind::Response, "fallback {fallback}");
            assert_eq!(reply.payload, frame.payload, "fallback {fallback}");
            // The connection is still usable afterwards — framing stayed
            // in sync.
            let follow_up = request_frame("{\"after\":1}");
            follow_up.write_to(&mut stream).unwrap();
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.payload, follow_up.payload, "fallback {fallback}");
            drop(stream);
            server.stop_and_join();
        }
    }

    /// A corrupt frame gets an error-frame answer, then the connection is
    /// closed.
    #[test]
    fn event_loop_answers_corrupt_frames_then_closes() {
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-corrupt", echo_handler(), 2, fallback)
                    .unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            // A frame with a bad version byte.
            let mut bytes = request_frame("{}").encode();
            bytes[4] = 9;
            stream.write_all(&bytes).unwrap();
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.kind, FrameKind::Error, "fallback {fallback}");
            // ... then EOF: the server closed the connection.
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "fallback {fallback}");
            server.stop_and_join();
        }
    }

    /// The event loop serves many concurrent connections from one thread;
    /// open_connections tracks the population and returns to zero.
    #[test]
    fn event_loop_counts_open_connections() {
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-count", echo_handler(), 2, fallback).unwrap();
            let mut streams = Vec::new();
            for _ in 0..20 {
                streams.push(TcpStream::connect(server.local_addr()).unwrap());
            }
            // Drive one request over each to prove they are all registered.
            for (i, stream) in streams.iter_mut().enumerate() {
                let frame = request_frame(&format!("{{\"conn\":{i}}}"));
                frame.write_to(stream).unwrap();
                let reply = Frame::read_from(stream).unwrap();
                assert_eq!(reply.payload, frame.payload, "fallback {fallback}");
            }
            assert_eq!(server.open_connections(), 20, "fallback {fallback}");
            drop(streams);
            // The loop notices the EOFs within a few poll intervals.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while server.open_connections() > 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(server.open_connections(), 0, "fallback {fallback}");
            server.stop_and_join();
        }
    }
}
