//! Minimal, zero-dependency epoll and eventfd bindings.
//!
//! The serve engine's readiness loop needs exactly four syscalls that the
//! Rust standard library does not expose: `epoll_create1`, `epoll_ctl`,
//! `epoll_wait` and `eventfd`. Rather than pulling in the `libc` crate
//! (the workspace is dependency-free by policy), this module declares the
//! four symbols directly — every Rust binary on Linux already links the C
//! library through `std`, so the symbols resolve without adding anything
//! to `Cargo.toml`.
//!
//! Safety model: file descriptors are wrapped in [`std::os::fd::OwnedFd`]
//! (or [`std::fs::File`] for the eventfd, which gives us `read`/`write`
//! for free), so closing is handled by `Drop` and no raw fd outlives its
//! owner. The only `unsafe` blocks are the FFI calls themselves plus the
//! two `from_raw_fd` conversions immediately after a successful create.

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint};

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`) — always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// One readiness notification, kernel ABI layout.
///
/// On x86-64 the kernel (and glibc) declare `struct epoll_event` packed,
/// so the 64-bit `data` field sits at offset 4; elsewhere the natural C
/// layout applies. Getting this wrong corrupts the token on every event,
/// which is why both layouts are spelled out instead of hoping.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitset of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token, echoed back verbatim.
    pub data: u64,
}

/// One readiness notification, kernel ABI layout (non-x86-64).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitset of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token, echoed back verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, used to size `epoll_wait` output buffers.
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness bitset (reads through the packed field).
    pub fn events(&self) -> u32 {
        // A packed field may be unaligned; copy it out by value.
        self.events
    }

    /// The caller token (reads through the packed field).
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance: the kernel-side readiness set one worker polls.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, tagging notifications with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Rewrites the interest set for an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set. Dropping the socket does this
    /// implicitly; the explicit form exists for deregister-while-open
    /// (e.g. parking a connection during an async recovery).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent::zeroed();
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events` and returning how many fired. A signal interruption
    /// (`EINTR`) is reported as zero events rather than an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len().min(c_int::MAX as usize) as c_int,
                timeout_ms,
            )
        };
        match cvt(n) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// A wakeup doorbell: an `eventfd` other threads write to pull a worker
/// out of `epoll_wait` (new connection handed off, recovery finished,
/// shutdown requested).
pub struct EventFd {
    file: File,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter zero.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { file: unsafe { File::from_raw_fd(fd) } })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Rings the doorbell (adds 1 to the counter). Never blocks in
    /// practice: the counter would need 2^64−1 unread signals first.
    pub fn signal(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Drains the counter so the next `signal` re-arms readiness.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_signal_wakes_epoll_and_drain_rearms() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no signal yet");

        efd.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert!(events[0].events() & EPOLLIN != 0);

        efd.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained doorbell is quiet");
    }

    #[test]
    fn socket_readability_is_reported_with_the_registered_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        listener.set_nonblocking(true).unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        let _client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);

        // Accept drains readiness; a MOD to a different token retargets.
        let (sock, _) = listener.accept().unwrap();
        ep.modify(listener.as_raw_fd(), EPOLLIN, 9).unwrap();
        drop(sock);
        ep.del(listener.as_raw_fd()).unwrap();
    }
}
