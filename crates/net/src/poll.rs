//! Thin epoll readiness facade — the event engine under [`crate::server`]
//! and [`crate::loadgen`].
//!
//! Built directly on the kernel's `epoll_*` syscalls through raw
//! `extern "C"` declarations (the workspace vendors no libc crate; the
//! precedent is the `signal` binding `plfr serve` has carried since
//! PR 7). One [`Poller`] multiplexes every listener and connection of
//! a server onto a single thread: sockets register with a caller-chosen
//! `u64` token, [`Poller::wait`] parks in the kernel until readiness or
//! timeout, and the returned [`Event`]s carry the token back.
//!
//! Level-triggered (the epoll default) on purpose: the reactor reads
//! and writes until `WouldBlock` anyway, and level semantics make a
//! missed wakeup impossible rather than unlikely.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0x8_0000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event` with the kernel's ABI layout. The kernel
/// declares it packed on x86-64 only (64-bit `data` at offset 4,
/// 12-byte stride); every other Linux architecture uses natural
/// alignment (`data` at offset 8, 16-byte stride). Getting this wrong
/// would make `epoll_wait` write at the kernel's stride into a buffer
/// with the other stride, corrupting every event after the first.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a connection with queued output).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable now (includes pending EOF).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup: the connection is dead or half-closed and
    /// should be torn down after a final drain.
    pub hangup: bool,
}

/// An epoll instance owning its kernel fd.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

/// Capacity of one `epoll_wait` batch; more ready fds than this simply
/// surface on the next tick (level-triggered).
const WAIT_BATCH: usize = 1024;

/// `epoll_wait`'s timeout unit, in nanoseconds.
const NANOS_PER_MILLI: u128 = 1_000_000;

impl Poller {
    /// Create a new epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` is the Linux syscall wrapper with no
        // pointer arguments; CLOEXEC keeps the fd out of any child the
        // harness spawns. A negative return is translated to the
        // thread's errno below, never dereferenced.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![
                EpollEvent { events: 0, data: 0 };
                WAIT_BATCH
            ],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = ev;
        let ptr = ev
            .as_mut()
            .map(|e| e as *mut EpollEvent)
            .unwrap_or(std::ptr::null_mut());
        // SAFETY: `ptr` is either null (EPOLL_CTL_DEL ignores it on
        // post-2.6.9 kernels) or points at a live stack-local
        // `EpollEvent` that outlives the call; the kernel copies it
        // before returning and retains no reference.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Change an existing registration's interest set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Park until readiness or `timeout`, then append one [`Event`]
    /// per ready fd to `out` (cleared first). An empty result means
    /// the timeout elapsed.
    ///
    /// `epoll_wait` counts whole milliseconds, so `timeout` is rounded
    /// *up*: a nonzero timeout never becomes a zero-timeout busy poll,
    /// and the wait never ends before `timeout` has passed.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let timeout_ms = timeout
            .as_nanos()
            .div_ceil(NANOS_PER_MILLI)
            .min(i32::MAX as u128) as i32;
        // SAFETY: `buf` is a live Vec of `WAIT_BATCH` initialized
        // `EpollEvent`s for the whole call; the kernel writes at most
        // `maxevents` entries into it and we read back only the first
        // `n` it reports. EINTR is surfaced as an empty tick, not an
        // error — the caller's loop re-polls.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                WAIT_BATCH as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in self.buf.iter().take(n as usize) {
            // Copy out of the packed struct before use (field reads
            // from packed layouts must not take references).
            let events = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is the epoll fd this Poller created and owns;
        // it is closed exactly once, here.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_sees_accept_and_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("epoll");
        poller
            .register(listener.as_raw_fd(), 1, Interest::READ)
            .expect("register listener");

        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        poller
            .wait(Duration::from_millis(10), &mut events)
            .expect("wait");
        assert!(events.is_empty());

        let mut client = TcpStream::connect(addr).expect("connect");
        poller
            .wait(Duration::from_millis(1000), &mut events)
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        let (mut server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        poller
            .register(server_side.as_raw_fd(), 2, Interest::READ)
            .expect("register conn");

        client.write_all(b"ping").expect("write");
        poller
            .wait(Duration::from_millis(1000), &mut events)
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 8];
        let n = server_side.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Write interest on an idle socket reports writable.
        poller
            .modify(server_side.as_raw_fd(), 2, Interest::READ_WRITE)
            .expect("modify");
        poller
            .wait(Duration::from_millis(1000), &mut events)
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        poller.deregister(server_side.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn sub_millisecond_timeout_waits_instead_of_spinning() {
        // Truncated to whole milliseconds, 300 µs became a zero-timeout
        // poll that returns at once and lets the caller spin.
        let mut poller = Poller::new().expect("epoll");
        let mut events = Vec::new();
        let timeout = Duration::from_micros(300);
        let started = std::time::Instant::now();
        poller.wait(timeout, &mut events).expect("wait");
        assert!(events.is_empty());
        assert!(
            started.elapsed() >= timeout,
            "returned after {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let mut poller = Poller::new().expect("epoll");
        poller
            .register(server_side.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(Duration::from_millis(1000), &mut events)
            .expect("wait");
        // Peer close surfaces as readable (EOF) and/or RDHUP.
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }
}
