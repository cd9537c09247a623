//! Minimal readiness-notification layer over Linux `epoll`, std-only.
//!
//! The service keeps its no-dependency discipline, so instead of pulling in
//! `mio`/`tokio` this module declares the four `epoll` syscalls via
//! `extern "C"` (the same sanctioned pattern `serve.rs` already uses for
//! `signal(2)`) and wraps them in a safe [`Poller`] API:
//!
//! - [`Poller::add`] registers a file descriptor **edge-triggered** for both
//!   read and write interest under a caller-chosen token. Edge triggering
//!   means the event loop must drain reads until `WouldBlock` and track
//!   per-connection writability itself — that contract lives in `server.rs`.
//! - [`Poller::wait`] blocks for up to a timeout and decodes raised events
//!   into plain [`Event`] values (token + readable/writable/hangup bits).
//! - [`Waker`] is the worker→loop wake pipe: a nonblocking
//!   `UnixStream::pair` where workers write a byte ([`Waker::wake`]) and the
//!   loop drains it ([`Waker::drain`]). A full pipe means a wake is already
//!   pending, so `WouldBlock` on the write side is success, not failure.
//!
//! It also owns the only two ways a service TCP connection comes to exist:
//! [`accept_burst`] for the server's and the router's listeners, and
//! [`dial`] for the router's shard links and `sempe-client`. Both set
//! `TCP_NODELAY`: streamed frames are many small writes, and with Nagle on
//! each one queued behind an unacked predecessor waits out the peer's
//! delayed ACK (40 ms on Linux) — per hop.
//!
//! Everything here is mechanism; policy (what a token means, when to rearm,
//! connection lifecycles) belongs to the event loop that owns the `Poller`.

#[cfg(target_os = "linux")]
mod sys {
    //! Raw FFI surface. Constants match `<sys/epoll.h>` on every Linux ABI
    //! we build for; `epoll_event` is packed on x86_64 only, per the kernel
    //! header.

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::fault::{FaultInjector, FaultSite};

/// A readiness event decoded from the kernel: which registration fired and
/// what it is ready for. `hangup` covers `EPOLLERR | EPOLLHUP | EPOLLRDHUP` —
/// the loop treats all three as "read until EOF, then close".
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or, for a listener, acceptable) data is pending.
    pub readable: bool,
    /// The fd's write buffer has space again.
    pub writable: bool,
    /// Error / hangup / peer half-close — read to EOF, then close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
pub use linux_impl::Poller;

#[cfg(target_os = "linux")]
mod linux_impl {
    use super::sys;
    use super::Event;
    use std::io;
    use std::os::unix::io::RawFd;

    /// Owns one `epoll` instance. Registrations are edge-triggered and
    /// dual-interest (IN|OUT); the fd is the identity for `delete`, the
    /// token is the identity the loop sees in events.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Create a fresh `epoll` instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// The raw OS error when `epoll_create1` fails.
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        /// Register `fd` edge-triggered for read+write interest under `token`.
        ///
        /// # Errors
        ///
        /// The raw OS error when `epoll_ctl` rejects the registration.
        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
                data: token,
            };
            let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` edge-triggered for read interest only (listener,
        /// wake pipe — fds we never write to).
        ///
        /// # Errors
        ///
        /// The raw OS error when `epoll_ctl` rejects the registration.
        pub fn add_readable(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = sys::EpollEvent { events: sys::EPOLLIN | sys::EPOLLET, data: token };
            let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Remove a registration. Harmless to call on an fd the kernel
        /// already dropped (closing an fd auto-deregisters it).
        ///
        /// # Errors
        ///
        /// The raw OS error when `epoll_ctl` rejects the removal.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block for up to `timeout_ms` (0 = poll, negative = forever) and
        /// append decoded events to `out`. Returns the number of events.
        /// `EINTR` is retried internally.
        ///
        /// # Errors
        ///
        /// The raw OS error when `epoll_wait` fails for any other reason.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            const MAX_EVENTS: usize = 256;
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n = loop {
                let rc = unsafe {
                    sys::epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms)
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for slot in raw.iter().take(n) {
                // Copy out of the (possibly packed) struct before touching
                // the fields — references into packed structs are UB.
                let events = { slot.events };
                let data = { slot.data };
                out.push(Event {
                    token: data,
                    readable: events & sys::EPOLLIN != 0,
                    writable: events & sys::EPOLLOUT != 0,
                    hangup: events & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { sys::close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub use portable_impl::Poller;

#[cfg(not(target_os = "linux"))]
mod portable_impl {
    //! Stub for non-Linux hosts: construction fails with `Unsupported` so
    //! `Server::start` reports a clear error instead of failing to compile.
    //! The repo's CI and deployment targets are Linux-only.

    use super::Event;
    use std::io;
    use std::os::unix::io::RawFd;

    #[derive(Debug)]
    pub struct Poller;

    impl Poller {
        /// Always fails: this platform has no event-loop backend.
        ///
        /// # Errors
        ///
        /// Always `Unsupported`.
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "sempe-service event loop requires Linux epoll",
            ))
        }
        /// Unreachable — [`Poller::new`] never succeeds here.
        ///
        /// # Errors
        ///
        /// Never returns.
        pub fn add(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }
        /// Unreachable — [`Poller::new`] never succeeds here.
        ///
        /// # Errors
        ///
        /// Never returns.
        pub fn add_readable(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }
        /// Unreachable — [`Poller::new`] never succeeds here.
        ///
        /// # Errors
        ///
        /// Never returns.
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }
        /// Unreachable — [`Poller::new`] never succeeds here.
        ///
        /// # Errors
        ///
        /// Never returns.
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            unreachable!("Poller cannot be constructed on this platform")
        }
    }
}

/// Worker→loop wake pipe built from a nonblocking `UnixStream` pair.
///
/// Workers call [`wake`](Waker::wake) after pushing a completion; the event
/// loop registers [`read_half`](Waker::read_half) with the poller and calls
/// [`drain`](Waker::drain) when it fires. The pipe carries no data, only
/// edges: a full buffer means a wake is already pending, so `WouldBlock` on
/// write is silently treated as success.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Build the pipe (both halves nonblocking).
    ///
    /// # Errors
    ///
    /// The OS error when the socket pair cannot be created.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Nudge the event loop. Callable from any thread (`Write` is
    /// implemented for `&UnixStream`, no lock needed).
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// The fd the event loop registers for read interest.
    pub fn read_half(&self) -> &UnixStream {
        &self.rx
    }

    /// Consume all pending wake bytes (edge-triggered: must drain fully).
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    }
}

/// Accept every connection `listener` has pending (edge-triggered: must
/// drain to `WouldBlock`). Each survivor of the fault rolls is made
/// nonblocking and `TCP_NODELAY`, then handed to `admit`, which owns the
/// caller's metrics, registration and `register_fail` policy.
pub fn accept_burst(
    listener: &TcpListener,
    injector: &FaultInjector,
    mut admit: impl FnMut(TcpStream),
) {
    // `accept_storm` models a thundering herd the loop sheds whole: one
    // roll per burst, dropping every connection in it.
    let storm = injector.fire(FaultSite::AcceptStorm);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if storm || injector.fire(FaultSite::AcceptDrop) {
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                    admit(stream);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            // Typically EMFILE/ENFILE under fd pressure: stop the burst
            // and let closing connections release descriptors.
            Err(_) => break,
        }
    }
}

/// Resolve `addr` and connect to the first address that answers, with
/// `TCP_NODELAY` set. `timeout` bounds each attempt (nonblocking connect
/// + poll), so a blackholed peer fails fast; `None` leaves it to the OS.
///
/// # Errors
///
/// The resolver's error, or the last address's connect error.
pub fn dial(addr: &str, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let mut last = io::Error::new(ErrorKind::NotFound, format!("no addresses for {addr}"));
    for a in addr.to_socket_addrs()? {
        let attempt = match timeout {
            Some(t) => TcpStream::connect_timeout(&a, t),
            None => TcpStream::connect(a),
        };
        match attempt.and_then(|s| s.set_nodelay(true).map(|()| s)) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn waker_wakes_and_drains() {
        let waker = Waker::new().expect("waker");
        let poller = Poller::new().expect("poller");
        poller.add_readable(waker.read_half().as_raw_fd(), 1).expect("register");

        // Nothing pending: a zero-timeout wait sees no events.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "spurious events: {events:?}");

        waker.wake();
        waker.wake(); // coalesces — still just one readable edge
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        waker.drain();
        // Edge-triggered: after a full drain a fresh wake raises a new edge.
        events.clear();
        waker.wake();
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
    }

    #[test]
    fn tcp_accept_and_read_edges_fire() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");

        let poller = Poller::new().expect("poller");
        poller.add_readable(listener.as_raw_fd(), 0).expect("register listener");

        let mut client = TcpStream::connect(addr).expect("connect");
        let mut events = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let accepted = loop {
            events.clear();
            poller.wait(&mut events, 100).expect("wait");
            if events.iter().any(|e| e.token == 0 && e.readable) {
                break listener.accept().expect("accept").0;
            }
            assert!(Instant::now() < deadline, "accept readiness never fired");
        };
        accepted.set_nonblocking(true).expect("nonblocking");
        poller.add(accepted.as_raw_fd(), 7).expect("register conn");

        client.write_all(b"ping\n").expect("write");
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            events.clear();
            poller.wait(&mut events, 100).expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "read readiness never fired");
        }

        poller.delete(accepted.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn accepted_and_dialed_streams_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let bounded = dial(&addr, Some(Duration::from_secs(5))).expect("dial");
        let unbounded = dial(&addr, None).expect("dial");
        for s in [&bounded, &unbounded] {
            assert!(s.nodelay().expect("nodelay"), "dialed stream has Nagle on");
        }

        let mut accepted = Vec::new();
        listener.set_nonblocking(true).expect("nonblocking");
        let injector = FaultInjector::new(crate::fault::FaultPlan::default());
        let deadline = Instant::now() + Duration::from_secs(5);
        while accepted.len() < 2 {
            accept_burst(&listener, &injector, |s| accepted.push(s));
            assert!(Instant::now() < deadline, "accept_burst never saw both dials");
        }
        for s in &accepted {
            assert!(s.nodelay().expect("nodelay"), "accepted stream has Nagle on");
        }
    }
}
