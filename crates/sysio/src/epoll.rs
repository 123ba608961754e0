//! A minimal safe wrapper over the Linux epoll API.
//!
//! Level-triggered only: the serving loop re-arms interest explicitly, which
//! keeps the readiness loop obviously correct (a partially drained buffer
//! simply reports ready again on the next wait) at the cost of a few extra
//! wakeups — the right trade for a daemon whose per-event work is a full
//! frame parse and dispatch.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// epoll_event is packed on x86_64 so the layout matches the kernel ABI;
// other architectures use the natural C layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Which readiness classes a registration asks for. Errors and hangups are
/// always reported by the kernel regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };

    fn mask(self) -> u32 {
        // A peer half-close is a read event: a registration that is not
        // reading must not be woken by it over and over (level-triggered).
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness report from [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read (or the peer closed its write half).
    pub readable: bool,
    /// The fd accepts writes.
    pub writable: bool,
    /// Error or hangup: the connection should be torn down after a final
    /// drain attempt.
    pub closed: bool,
}

/// An epoll instance owning its file descriptor.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new (close-on-exec) epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event;
        let ptr = ev.as_mut().map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        let rc = unsafe { epoll_ctl(self.fd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some(EpollEvent { events: interest.mask(), data: token }))
    }

    /// Change the interest set of an already registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some(EpollEvent { events: interest.mask(), data: token }))
    }

    /// Deregister an fd. Safe to call on an fd about to be closed; closing
    /// an fd also removes it from every epoll set it is registered with.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Wait for readiness, appending up to `max` events into `out` (which is
    /// cleared first). `timeout = None` blocks indefinitely. Returns the
    /// number of events delivered; `Ok(0)` on timeout. EINTR is surfaced as
    /// `Ok(0)` so signal arrival falls through to the caller's shutdown
    /// polling.
    pub fn wait(&self, out: &mut Vec<Event>, max: usize, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let max = max.clamp(1, 4096) as i32;
        let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
        let max = max.min(buf.len() as i32);
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        let n = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in &buf[..n as usize] {
            // Copy out of the (potentially packed) struct before using.
            let events = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data,
                readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: events & EPOLLOUT != 0,
                closed: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out.
        assert_eq!(ep.wait(&mut events, 16, Some(Duration::from_millis(10))).unwrap(), 0);

        tx.write_all(b"ping\n").unwrap();
        let n = ep.wait(&mut events, 16, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        let got = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping\n");

        // Write interest on an idle socket reports writable immediately.
        ep.modify(rx.as_raw_fd(), 7, Interest { readable: true, writable: true }).unwrap();
        let n = ep.wait(&mut events, 16, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1 && events[0].writable);

        // Without read interest a peer close wakes nobody; with it, the close
        // surfaces as readable (EOF) so the loop drains and closes.
        tx.shutdown(std::net::Shutdown::Write).unwrap();
        ep.modify(rx.as_raw_fd(), 7, Interest { readable: false, writable: false }).unwrap();
        assert_eq!(ep.wait(&mut events, 16, Some(Duration::from_millis(10))).unwrap(), 0);
        ep.modify(rx.as_raw_fd(), 7, Interest::READ).unwrap();
        drop(tx);
        let n = ep.wait(&mut events, 16, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1 && events[0].readable);
        ep.delete(rx.as_raw_fd()).unwrap();
    }
}
