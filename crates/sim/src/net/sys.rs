//! Hand-rolled Linux `epoll` and `listen` bindings for the followers of
//! the frame server.
//!
//! The crate takes no dependencies, so the bindings are direct
//! `extern "C"` declarations against the C library that is already linked
//! into every Rust binary — no `libc` crate, no new vendored stand-in.
//! Only the five calls the frame server needs are declared
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`, `listen`): the
//! first four wrapped in a safe [`Epoll`] type that owns the instance fd,
//! the last in [`listen`].
//!
//! Everything here is Linux-only; other platforms use the portable
//! poll fallback in `net::event_loop`, which needs no syscall bindings at
//! all.

#![cfg(target_os = "linux")]

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;

/// Readiness flag: the fd has bytes to read (or a pending accept).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Readiness flag: the fd can accept writes without blocking.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Registration flag: deliver one event, then disarm the fd until
/// `EPOLL_CTL_MOD` re-arms it.
pub(crate) const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// The kernel's `struct epoll_event`. On x86 the kernel ABI declares it
/// packed (no padding between `events` and `data`); other architectures
/// use natural alignment.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The caller's token, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// An empty slot for the wait buffer.
    pub(crate) const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    #[link_name = "listen"]
    fn c_listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Calls `listen` again on an already listening socket, which on Linux
/// resizes its accept queue to `backlog` (clamped by the kernel to
/// `net.core.somaxconn`).
pub(crate) fn listen(fd: RawFd, backlog: c_int) -> io::Result<()> {
    // SAFETY: listen takes an fd and a count and returns 0 or -1; no
    // pointers are involved.
    if unsafe { c_listen(fd, backlog) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A safe owner of one epoll instance.
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd or -1;
        // no pointers are involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Registers `fd` with the given interest mask; `token` comes back in
    /// every event for it.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest mask of an already registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `event` outlives the call and matches the kernel ABI
        // layout declared above; the kernel copies it before returning.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses, filling `events` from the front. Returns how many events
    /// arrived; 0 on timeout or interruption.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: `events` is a valid writable buffer of `max` entries for
        // the duration of the call.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(usize::try_from(rc).expect("epoll_wait count fits usize"))
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is a live epoll instance owned by this value.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readable_and_writable_sockets() {
        let epoll = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        epoll.add(b.as_raw_fd(), 42, EPOLLIN).unwrap();

        // Nothing written yet: a short wait times out.
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (token, bits) = (events[0].data, events[0].events);
        assert_eq!(token, 42);
        assert_ne!(bits & EPOLLIN, 0);

        // Level-triggered: the byte is still unread, so it fires again.
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);

        // Switch interest to writability — an idle socket is writable.
        epoll.modify(b.as_raw_fd(), 7, EPOLLOUT).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (token, bits) = (events[0].data, events[0].events);
        assert_eq!(token, 7);
        assert_ne!(bits & EPOLLOUT, 0);
    }

    #[test]
    fn oneshot_registrations_fire_once_until_rearmed() {
        let epoll = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        epoll.add(b.as_raw_fd(), 9, EPOLLIN | EPOLLONESHOT).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        // The byte is still unread, but the fd is disarmed.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // Re-arming a still-ready fd fires at once.
        epoll
            .modify(b.as_raw_fd(), 9, EPOLLIN | EPOLLONESHOT)
            .unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let token = events[0].data;
        assert_eq!(token, 9);
    }
}
