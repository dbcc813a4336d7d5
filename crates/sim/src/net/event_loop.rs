//! The frame-server front end shared by [`ShardServer`] and [`Router`]:
//! a fixed set of follower threads, sized by the owner, sharing one
//! readiness poller over non-blocking sockets. The follower that takes a
//! connection's event owns the connection until it re-arms it: it reads
//! what arrived, answers each complete frame through the owner's
//! [`FrameHandler`] on its own thread, writes the replies and re-arms. A
//! frame is answered on the thread that read it, with no hand-off.
//!
//! On Linux every follower waits in one `epoll` instance (via the
//! hand-rolled bindings in [`crate::net::sys`]) for one event at a time,
//! and every socket, the listener included, is registered `EPOLLONESHOT`:
//! an event goes to one follower, and its socket stays disarmed until
//! that follower re-arms it. Elsewhere a portable fallback keeps the
//! tokens of the armed sockets in a queue that followers take round-robin,
//! trying non-blocking I/O, and ticks after a pass that moved nothing.
//! Both pollers share one service path:
//!
//! - Each connection owns a [`FrameDecoder`], so partial header or payload
//!   bytes survive across readiness events — a slow writer straddling
//!   wake-ups mid-frame cannot desync the framing.
//! - Frames are answered in order, one connection's by one follower at a
//!   time, which preserves the wire protocol's request/response lockstep.
//!   Replies accumulate in a per-connection write buffer and drain as the
//!   socket accepts them. The buffer is bounded: a connection that
//!   backlogs past the bound (or pipelines more than [`PENDING_LIMIT`]
//!   frames) is not read until it drains — backpressure instead of
//!   unbounded memory.
//! - A handler that panics is contained: its frame is answered with an
//!   `internal` error frame (id 0) and the follower keeps serving, so the
//!   connection never waits on a reply that will not come.
//!
//! No follower ever blocks on a socket, so one slow or dead peer holds no
//! follower; only a handler holds one, for as long as it runs.
//!
//! [`ShardServer`]: crate::net::ShardServer
//! [`Router`]: crate::net::Router
//! [`FrameDecoder`]: crate::net::wire::FrameDecoder

use crate::net::wire::{ErrorCode, Frame, FrameDecoder, FrameKind, WireFailure, MAX_FRAME_LEN};
use crate::net::NetError;
use crate::prof::{self, Stage};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::net::sys;
#[cfg(target_os = "linux")]
use std::os::unix::io::AsRawFd;
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;

/// The portable fallback's tick: a follower whose pass over every armed
/// socket moved nothing sleeps this long before the next pass.
const FALLBACK_TICK: Duration = Duration::from_millis(2);

/// Size of each follower's read buffer, on its own stack: one read lands
/// here before being fed to the connection's decoder.
const READ_CHUNK: usize = 8 * 1024;

/// Maximum decoded-but-unanswered frames per connection before it is no
/// longer read (a lockstep client keeps this at ≤ 1; only a pipelining or
/// misbehaving peer ever approaches the bound).
const PENDING_LIMIT: usize = 64;

/// Maximum buffered unsent reply bytes per connection before it is no
/// longer read or answered: one maximum frame plus framing headroom.
const WRITE_BACKLOG_LIMIT: usize = MAX_FRAME_LEN + 64;

/// Accept-queue depth of every listener. `TcpListener::bind` listens with
/// a backlog of 128; a burst of a few hundred connects overflows that, and
/// every client whose SYN the kernel drops waits out a 1 s retransmit.
/// The kernel clamps the value to `net.core.somaxconn`.
#[cfg(target_os = "linux")]
const LISTEN_BACKLOG: i32 = 1024;

/// Token of the accept socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the shutdown signal's read end.
#[cfg(target_os = "linux")]
const SHUTDOWN_TOKEN: u64 = u64::MAX - 1;

/// Abstract interest bit: the connection can take more frames.
const WANT_READ: u32 = 0b01;
/// Abstract interest bit: the connection has unsent bytes.
const WANT_WRITE: u32 = 0b10;

/// Packs a slab index and its generation into a token.
const fn token(index: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | (index as u64)
}

/// Splits a token into its slab index and generation.
const fn untoken(token: u64) -> (usize, u32) {
    ((token & u32::MAX as u64) as usize, (token >> 32) as u32)
}

/// What a socket is armed by: its descriptor under epoll; the fallback
/// arms by token alone.
#[cfg(target_os = "linux")]
type Fd = std::os::unix::io::RawFd;
#[cfg(not(target_os = "linux"))]
struct Fd;

#[cfg(target_os = "linux")]
fn fd(socket: &impl AsRawFd) -> Fd {
    socket.as_raw_fd()
}

#[cfg(not(target_os = "linux"))]
fn fd<T>(_: &T) -> Fd {
    Fd
}

/// Locks a mutex, recovering it from a holder that panicked: every update
/// under these locks leaves the data valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The frame→frame request handler a server plugs into the loop.
pub(crate) type FrameHandler = Arc<dyn Fn(&Frame) -> Frame + Send + Sync>;

/// Runs the handler on one frame, turning a panic into an `internal`
/// error frame so the follower survives it.
fn answer_contained(handler: &FrameHandler, frame: &Frame) -> Frame {
    panic::catch_unwind(AssertUnwindSafe(|| handler(frame))).unwrap_or_else(|payload| {
        let cause = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        let failure =
            WireFailure::new(0, ErrorCode::Internal, format!("handler panicked: {cause}"));
        Frame::document(FrameKind::Error, &failure)
    })
}

/// What one service pass did to a connection.
#[derive(PartialEq, Eq)]
enum Served {
    /// Bytes moved or frames were answered: re-arm.
    Progress,
    /// Nothing was ready: re-arm.
    Idle,
    /// The peer left, the transport failed, or a closing connection
    /// drained: close.
    Close,
}

/// One registered connection. Only the follower that took its event
/// touches it, until that follower re-arms it.
struct Conn {
    stream: TcpStream,
    /// Incremental decoder — partial frames survive across events.
    decoder: FrameDecoder,
    /// Decoded frames not answered yet.
    pending: VecDeque<Frame>,
    /// Unsent reply bytes (drained from `out_pos`).
    out: Vec<u8>,
    out_pos: usize,
    /// The error frame owed for a framing violation, sent after the
    /// replies to every frame decoded before it.
    violation: Option<Frame>,
    /// Set after a framing violation: stop reading, flush, then close.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            violation: None,
            closing: false,
        }
    }

    /// Whether backpressure has paused reads for this connection.
    fn paused(&self) -> bool {
        self.pending.len() >= PENDING_LIMIT || self.backlog() >= WRITE_BACKLOG_LIMIT
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// One service pass, the path both pollers share: read a burst, then
    /// answer the pending frames in order while flushes keep the write
    /// backlog under its bound.
    fn serve(&mut self, handler: &FrameHandler, scratch: &mut [u8]) -> Served {
        let io = prof::time(Stage::NetIo);
        let Some(mut moved) = self.read_burst(scratch) else {
            return Served::Close;
        };
        drop(io);
        loop {
            while self.backlog() < WRITE_BACKLOG_LIMIT {
                let Some(reply) = self
                    .pending
                    .pop_front()
                    .map(|frame| answer_contained(handler, &frame))
                    .or_else(|| self.violation.take())
                else {
                    break;
                };
                reply.append_to(&mut self.out);
                moved += 1;
            }
            let _io = prof::time(Stage::NetIo);
            let backlog = self.backlog();
            if !self.try_flush() {
                return Served::Close;
            }
            moved += backlog - self.backlog();
            let owed = !self.pending.is_empty() || self.violation.is_some();
            if !owed || self.backlog() >= WRITE_BACKLOG_LIMIT {
                break;
            }
        }
        if self.closing && self.wanted_interest() == 0 {
            Served::Close
        } else if moved > 0 {
            Served::Progress
        } else {
            Served::Idle
        }
    }

    /// Reads until the socket would block, a short read, or backpressure,
    /// feeding the decoder. Returns how many bytes arrived, or `None` once
    /// the peer has closed or the transport failed.
    fn read_burst(&mut self, scratch: &mut [u8]) -> Option<usize> {
        let mut total = 0;
        while !self.closing && !self.paused() {
            match self.stream.read(scratch) {
                Ok(0) => return None,
                Ok(n) => {
                    total += n;
                    self.ingest(&scratch[..n]);
                    if n < scratch.len() {
                        // A short read usually means the socket is drained;
                        // the re-armed socket is ready again if it is not.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        Some(total)
    }

    /// Feeds fresh bytes to the decoder, queueing complete frames. A
    /// framing violation queues its error reply and ends reading for good.
    fn ingest(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match self.decoder.feed(bytes) {
                Ok((used, frame)) => {
                    self.pending.extend(frame);
                    bytes = &bytes[used..];
                }
                Err(error) => {
                    // After a framing violation the stream cannot be
                    // resynced: answer what came before it, then close.
                    let failure = WireFailure::new(0, ErrorCode::BadRequest, error.to_string());
                    self.violation = Some(Frame::document(FrameKind::Error, &failure));
                    self.closing = true;
                    return;
                }
            }
        }
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

    /// The interest the connection's state calls for. Empty only for a
    /// closing connection that has sent everything: one that is paused,
    /// or closing with replies still owed, has a full write backlog.
    fn wanted_interest(&self) -> u32 {
        let mut want = 0;
        if !self.closing && !self.paused() {
            want |= WANT_READ;
        }
        if self.backlog() > 0 {
            want |= WANT_WRITE;
        }
        want
    }
}

/// Generation-checked connection storage: slots are reused, tokens are
/// not — a stale token for a closed connection fails its generation check.
/// Its lock is held only to look up, insert or remove a connection, never
/// while one is served.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<(u32, Arc<Mutex<Conn>>)>>,
    free: Vec<usize>,
    next_generation: u32,
}

impl Slab {
    fn insert(&mut self, stream: TcpStream) -> u64 {
        let generation = self.next_generation;
        self.next_generation = generation.wrapping_add(1);
        let entry = Some((generation, Arc::new(Mutex::new(Conn::new(stream)))));
        let index = if let Some(index) = self.free.pop() {
            self.slots[index] = entry;
            index
        } else {
            self.slots.push(entry);
            self.slots.len() - 1
        };
        token(index, generation)
    }

    fn get(&self, token: u64) -> Option<Arc<Mutex<Conn>>> {
        let (index, generation) = untoken(token);
        match self.slots.get(index) {
            Some(Some((live, conn))) if *live == generation => Some(Arc::clone(conn)),
            _ => None,
        }
    }

    /// Forgets a connection; returns whether the token was live.
    fn remove(&mut self, token: u64) -> bool {
        let (index, generation) = untoken(token);
        let live = matches!(self.slots.get(index), Some(Some((g, _))) if *g == generation);
        if live {
            self.slots[index] = None;
            self.free.push(index);
        }
        live
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

/// How a follower gets its next armed socket.
enum Poller {
    /// One epoll instance that every follower waits in.
    #[cfg(target_os = "linux")]
    Epoll {
        epoll: sys::Epoll,
        /// The shutdown signal. Its read end is registered level-triggered
        /// and never drained, so one byte written here wakes every
        /// follower.
        signal: UnixStream,
        _signalled: UnixStream,
    },
    /// The portable fallback: the tokens of the armed sockets, taken
    /// round-robin.
    Fallback(Mutex<VecDeque<u64>>),
}

impl Poller {
    fn new(force_fallback: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if !force_fallback {
            if let Ok(epoll) = sys::Epoll::new() {
                let (signal, signalled) = UnixStream::pair()?;
                epoll.add(signalled.as_raw_fd(), SHUTDOWN_TOKEN, sys::EPOLLIN)?;
                return Ok(Poller::Epoll {
                    epoll,
                    signal,
                    _signalled: signalled,
                });
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = force_fallback;
        Ok(Poller::Fallback(Mutex::default()))
    }
}

/// Everything the followers share. Dropping it closes the listener, the
/// poller and every connection.
struct Shared {
    listener: TcpListener,
    poller: Poller,
    slab: Mutex<Slab>,
    handler: FrameHandler,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
}

impl Shared {
    /// A follower's life: take the next armed socket, serve it, and
    /// repeat until shutdown.
    fn follow(&self) {
        let mut scratch = [0u8; READ_CHUNK];
        let mut fruitless = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            match &self.poller {
                #[cfg(target_os = "linux")]
                Poller::Epoll { epoll, .. } => {
                    // One event at a time: a follower never holds another
                    // socket's event while it runs a handler.
                    let mut event = [sys::EpollEvent::zeroed()];
                    let poll = prof::time(Stage::NetPoll);
                    let ready = epoll.wait(&mut event, -1);
                    drop(poll);
                    let token = event[0].data;
                    match ready {
                        Ok(1) if token != SHUTDOWN_TOKEN => {
                            self.take(token, &mut scratch);
                        }
                        Ok(_) => {}
                        // A failing wait would otherwise spin; back off.
                        Err(_) => thread::sleep(Duration::from_millis(1)),
                    }
                }
                Poller::Fallback(armed) => {
                    let (next, count) = {
                        let mut armed = lock(armed);
                        (armed.pop_front(), armed.len() + 1)
                    };
                    let progress = next.is_some_and(|token| self.take(token, &mut scratch));
                    fruitless = if progress { 0 } else { fruitless + 1 };
                    if fruitless >= count {
                        fruitless = 0;
                        let _poll = prof::time(Stage::NetPoll);
                        thread::sleep(FALLBACK_TICK);
                    }
                }
            }
        }
    }

    /// Handles the event of one armed socket, which this follower now
    /// owns, and re-arms it. Returns whether anything moved.
    fn take(&self, token: u64, scratch: &mut [u8]) -> bool {
        if token != LISTENER_TOKEN {
            return self.serve(token, scratch);
        }
        let accepted = self.accept_burst();
        // A listener that cannot be re-armed accepts nothing more, and
        // nothing here could mend it.
        let _ = self.arm(LISTENER_TOKEN, fd(&self.listener), WANT_READ, false);
        accepted > 0
    }

    /// Accepts until the listener would block, arming each new connection
    /// for its first frame. Returns how many were accepted.
    fn accept_burst(&self) -> usize {
        let _io = prof::time(Stage::NetIo);
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = fd(&stream);
                    let token = lock(&self.slab).insert(stream);
                    self.open_connections.fetch_add(1, Ordering::SeqCst);
                    if self.arm(token, fd, WANT_READ, true).is_err() {
                        self.close(token);
                    }
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock, or a failure the next readiness retries.
                Err(_) => return accepted,
            }
        }
    }

    /// Serves one connection, then re-arms or closes it. Returns whether
    /// anything moved.
    fn serve(&self, token: u64, scratch: &mut [u8]) -> bool {
        let Some(entry) = lock(&self.slab).get(token) else {
            return false;
        };
        let mut conn = lock(&entry);
        let served = conn.serve(&self.handler, scratch);
        let rearmed = served != Served::Close
            && self
                .arm(token, fd(&conn.stream), conn.wanted_interest(), false)
                .is_ok();
        drop(conn);
        if !rearmed {
            self.close(token);
        }
        served == Served::Progress
    }

    /// Arms one socket for its next event: under epoll one-shot, with
    /// `interest` (registering the socket first when `fresh`); on the
    /// fallback, back into the queue.
    #[cfg_attr(not(target_os = "linux"), allow(unused_variables))]
    fn arm(&self, token: u64, fd: Fd, interest: u32, fresh: bool) -> io::Result<()> {
        match &self.poller {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epoll, .. } => {
                let mut bits = sys::EPOLLONESHOT;
                if interest & WANT_READ != 0 {
                    bits |= sys::EPOLLIN;
                }
                if interest & WANT_WRITE != 0 {
                    bits |= sys::EPOLLOUT;
                }
                if fresh {
                    epoll.add(fd, token, bits)
                } else {
                    epoll.modify(fd, token, bits)
                }
            }
            Poller::Fallback(armed) => {
                lock(armed).push_back(token);
                Ok(())
            }
        }
    }

    /// Forgets one connection. Its socket closes, which also deregisters
    /// it from epoll, once the last reference drops.
    fn close(&self, token: u64) {
        if lock(&self.slab).remove(token) {
            self.open_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A bound frame server: its followers and what they share.
pub(crate) struct EventLoop {
    addr: SocketAddr,
    shared: Arc<Shared>,
    followers: Vec<thread::JoinHandle<()>>,
}

impl EventLoop {
    /// Binds `addr` and starts `followers` threads (at least one, or no
    /// frame is ever answered). With `force_fallback` the portable poller
    /// is used even where epoll is available (exercised in tests so the
    /// fallback stays honest).
    pub(crate) fn bind(
        addr: &str,
        name: &str,
        handler: FrameHandler,
        followers: usize,
        force_fallback: bool,
    ) -> Result<EventLoop, NetError> {
        let listener = listen(addr)?;
        listener.set_nonblocking(true).map_err(NetError::from)?;
        let shared = Arc::new(Shared {
            poller: Poller::new(force_fallback).map_err(NetError::from)?,
            listener,
            slab: Mutex::default(),
            handler,
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
        });
        shared
            .arm(LISTENER_TOKEN, fd(&shared.listener), WANT_READ, true)
            .map_err(NetError::from)?;
        let mut server = EventLoop {
            addr: shared.listener.local_addr().map_err(NetError::from)?,
            shared,
            followers: Vec::with_capacity(followers),
        };
        for i in 0..followers {
            let shared = Arc::clone(&server.shared);
            let follower = thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || shared.follow())
                .map_err(NetError::from)?;
            server.followers.push(follower);
        }
        Ok(server)
    }

    /// The bound address (with the resolved port when binding port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections the server currently holds open. (Read by the
    /// tests; production callers observe connection counts from the
    /// client side.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Stops every follower and joins it. Idempotent; dropping the server
    /// calls it too, then closes the listener and every connection.
    pub(crate) fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        if let Poller::Epoll { signal, .. } = &self.shared.poller {
            let _ = (&*signal).write(&[1u8][..]);
        }
        for follower in self.followers.drain(..) {
            let _ = follower.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.stop_and_join();
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

    /// A client connection whose reads fail after 10 s instead of
    /// hanging on a reply that will not come.
    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

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

    /// A handler panic is contained in the follower: the frame gets an
    /// `internal` error reply and the one follower keeps serving the same
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

    /// The mid-frame desync regression: one frame written a byte at a time,
    /// with 70 ms gaps (far past the fallback's tick) placed to straddle
    /// the length prefix, the kind byte and the payload, so the frame
    /// arrives over several wake-ups. The decoder keeps every partial byte
    /// across them, so the reply is correct and the connection stays in
    /// sync.
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
            // every gap exceeds the fallback's tick.
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

    /// A corrupt frame gets an error-frame answer after the replies to the
    /// frames before it, then the connection is closed.
    #[test]
    fn event_loop_answers_corrupt_frames_then_closes() {
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-corrupt", echo_handler(), 2, fallback)
                    .unwrap();
            let mut stream = connect(server.local_addr());
            // A good frame, then one with a bad version byte, in one write.
            let good = request_frame("{\"before\":1}");
            let mut bytes = good.encode();
            let mut corrupt = request_frame("{}").encode();
            corrupt[4] = 9;
            bytes.extend_from_slice(&corrupt);
            stream.write_all(&bytes).unwrap();
            // Replies keep request order: the good frame's answer first.
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.payload, good.payload, "fallback {fallback}");
            let reply = Frame::read_from(&mut stream).unwrap();
            assert_eq!(reply.kind, FrameKind::Error, "fallback {fallback}");
            // ... then EOF: the server closed the connection.
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "fallback {fallback}");
            server.stop_and_join();
        }
    }

    /// Two followers serve many more open connections; open_connections
    /// tracks the population and returns to zero.
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
            // The followers notice the EOFs within a few wake-ups.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while server.open_connections() > 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(server.open_connections(), 0, "fallback {fallback}");
            server.stop_and_join();
        }
    }

    /// Lockstep under concurrency: eight connections, started together
    /// by a barrier, each send 50 frames to a handler that sleeps about a
    /// millisecond, and each gets exactly its own replies, in order.
    #[test]
    fn concurrent_lockstep_connections_get_their_own_replies_in_order() {
        const CONNECTIONS: usize = 8;
        let handler: FrameHandler = Arc::new(|frame: &Frame| {
            thread::sleep(Duration::from_millis(1));
            Frame {
                kind: FrameKind::Response,
                payload: frame.payload.clone(),
            }
        });
        for fallback in FORCE_FALLBACK {
            let mut server = EventLoop::bind(
                "127.0.0.1:0",
                "test-lockstep",
                Arc::clone(&handler),
                2,
                fallback,
            )
            .unwrap();
            let addr = server.local_addr();
            let start = std::sync::Barrier::new(CONNECTIONS);
            thread::scope(|scope| {
                for conn in 0..CONNECTIONS {
                    let start = &start;
                    scope.spawn(move || {
                        let mut stream = connect(addr);
                        start.wait();
                        for seq in 0..50 {
                            let frame =
                                request_frame(&format!("{{\"conn\":{conn},\"seq\":{seq}}}"));
                            frame.write_to(&mut stream).unwrap();
                            let reply = Frame::read_from(&mut stream).unwrap();
                            assert_eq!(reply.payload, frame.payload, "fallback {fallback}");
                        }
                    });
                }
            });
            server.stop_and_join();
        }
    }

    /// A pipelining peer: 100 frames of about 1 KiB in one write span
    /// many reads, so reading stops at `PENDING_LIMIT` and resumes once
    /// the pending frames are answered. Every reply arrives, in order.
    #[test]
    fn pipelined_frames_past_the_pending_limit_are_answered_in_order() {
        const FRAMES: usize = 100;
        const _: () = assert!(FRAMES > PENDING_LIMIT);
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-pipeline", echo_handler(), 1, fallback)
                    .unwrap();
            let mut stream = connect(server.local_addr());
            let frames: Vec<Frame> = (0..FRAMES)
                .map(|i| request_frame(&format!("{i:01024}")))
                .collect();
            let mut burst = Vec::new();
            for frame in &frames {
                frame.append_to(&mut burst);
            }
            stream.write_all(&burst).unwrap();
            for frame in &frames {
                let reply = Frame::read_from(&mut stream).unwrap();
                assert_eq!(reply.kind, FrameKind::Response, "fallback {fallback}");
                assert_eq!(reply.payload, frame.payload, "fallback {fallback}");
            }
            server.stop_and_join();
        }
    }

    /// A peer that pipelines requests for 24 MiB of replies and reads none
    /// fills its socket and the write backlog bound. The one follower is
    /// not held by it: another connection is still answered, and the slow
    /// peer gets every reply, in order, once it reads.
    #[test]
    fn a_slow_reader_holds_no_follower() {
        const REPLY_LEN: usize = 1024 * 1024;
        const REQUESTS: usize = 24;
        let handler: FrameHandler = Arc::new(|frame: &Frame| {
            let mut payload = frame.payload.clone();
            if payload.starts_with(b"big") {
                payload.resize(REPLY_LEN, b'.');
            }
            Frame {
                kind: FrameKind::Response,
                payload,
            }
        });
        for fallback in FORCE_FALLBACK {
            let mut server = EventLoop::bind(
                "127.0.0.1:0",
                "test-slow-reader",
                Arc::clone(&handler),
                1,
                fallback,
            )
            .unwrap();
            let mut slow = connect(server.local_addr());
            let mut burst = Vec::new();
            for i in 0..REQUESTS {
                request_frame(&format!("big{i:03}")).append_to(&mut burst);
            }
            slow.write_all(&burst).unwrap();

            let mut other = connect(server.local_addr());
            for i in 0..3 {
                let frame = request_frame(&format!("{{\"other\":{i}}}"));
                frame.write_to(&mut other).unwrap();
                let reply = Frame::read_from(&mut other).unwrap();
                assert_eq!(reply.payload, frame.payload, "fallback {fallback}");
            }

            for i in 0..REQUESTS {
                let reply = Frame::read_from(&mut slow).unwrap();
                assert_eq!(reply.payload.len(), REPLY_LEN, "fallback {fallback}");
                assert!(reply.payload.starts_with(format!("big{i:03}").as_bytes()));
            }
            server.stop_and_join();
        }
    }

    /// A follower held in a handler answers nothing else, but no wake-up
    /// is lost: with one follower, a frame on another connection is
    /// answered once the follower is free; with two, while the first is
    /// still held.
    #[test]
    fn busy_followers_lose_no_wakeups() {
        use std::sync::mpsc;
        let wait = Duration::from_secs(10);
        // Longer than any read's timeout, so a follower still held shows
        // up as a failed read, not as a late answer.
        let give_up = 3 * wait;
        for fallback in FORCE_FALLBACK {
            for followers in [1, 2] {
                // The handler reports that it holds a follower, then waits
                // for the test's release (or gives up, so a failing test
                // cannot wedge the server's shutdown).
                let (entered, held_now) = mpsc::channel();
                let (release, released) = mpsc::channel::<()>();
                let released = Mutex::new(released);
                let handler: FrameHandler = Arc::new(move |frame: &Frame| {
                    if frame.payload == b"hold" {
                        entered.send(()).unwrap();
                        let _ = lock(&released).recv_timeout(give_up);
                    }
                    Frame {
                        kind: FrameKind::Response,
                        payload: frame.payload.clone(),
                    }
                });
                let mut server =
                    EventLoop::bind("127.0.0.1:0", "test-busy", handler, followers, fallback)
                        .unwrap();
                let mut held = connect(server.local_addr());
                let mut other = connect(server.local_addr());
                request_frame("hold").write_to(&mut held).unwrap();
                held_now.recv_timeout(wait).unwrap();
                let next = request_frame("next");
                next.write_to(&mut other).unwrap();
                let context = format!("fallback {fallback}, {followers} follower(s)");
                if followers == 1 {
                    other
                        .set_read_timeout(Some(Duration::from_millis(100)))
                        .unwrap();
                    assert!(Frame::read_from(&mut other).is_err(), "{context}");
                    release.send(()).unwrap();
                    other.set_read_timeout(Some(wait)).unwrap();
                }
                let reply = Frame::read_from(&mut other).unwrap();
                assert_eq!(reply.payload, next.payload, "{context}");
                if followers == 2 {
                    release.send(()).unwrap();
                }
                assert_eq!(Frame::read_from(&mut held).unwrap().payload, b"hold");
                server.stop_and_join();
            }
        }
    }

    /// Idle open connections do not hold shutdown: every follower wakes
    /// and exits at once.
    #[test]
    fn stop_and_join_is_prompt_with_idle_connections_open() {
        for fallback in FORCE_FALLBACK {
            let mut server =
                EventLoop::bind("127.0.0.1:0", "test-stop", echo_handler(), 4, fallback).unwrap();
            let mut used = connect(server.local_addr());
            request_frame("{}").write_to(&mut used).unwrap();
            Frame::read_from(&mut used).unwrap();
            let _silent = connect(server.local_addr());
            // Stop on another thread, so a follower that never wakes fails
            // the test instead of hanging it.
            let (stopped, done) = std::sync::mpsc::channel();
            let stopper = thread::spawn(move || {
                server.stop_and_join();
                stopped.send(()).unwrap();
            });
            done.recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("fallback {fallback}: stop_and_join took over 1 s"));
            stopper.join().unwrap();
        }
    }
}
