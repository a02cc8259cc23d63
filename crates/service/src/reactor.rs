//! Event-loop primitives for the service runtime: readiness polling over
//! direct `epoll(7)` bindings (std already links libc, so the `extern
//! "C"` declarations below resolve without any new dependency), a
//! portable `poll(2)` fallback behind the same [`Poller`] trait, and a
//! self-pipe [`WakePipe`] for cross-thread wakeups.
//!
//! Nothing in this module knows about HTTP or the service; it is the
//! substrate `server`'s reactor thread is built on. The design goal is
//! that **nothing in the connection path ever sleeps on a poll interval**:
//! the reactor blocks in `epoll_wait`/`poll` until a socket is ready, a
//! worker finishes a request (waking it through the pipe), or the
//! earliest idle-timeout deadline in its heap comes due.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;

// nfds_t is `unsigned long` on Linux (pointer-width, so 32 bits on
// armv7/i686 — declaring it u64 there would shift every later argument
// in the poll(2) call) and `unsigned int` elsewhere.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(non_camel_case_types)]
type nfds_t = u64;
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
#[allow(non_camel_case_types)]
type nfds_t = u32;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4;

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on an owned fd with valid GETFL/SETFL arguments.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// One readiness event: the registered `token` plus what the fd is ready
/// for. `hangup` covers both error and hang-up conditions — the caller
/// should read (observing EOF/error) or drop the connection.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Token the fd was registered under.
    pub token: u64,
    /// Readable (or a peer close is observable via a 0-byte read).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hang-up condition.
    pub hangup: bool,
}

/// Readiness-polling backend. Level-triggered semantics on both
/// implementations: an fd that stays ready keeps reporting until the
/// condition (unread bytes, writable space) is consumed.
pub trait Poller: Send {
    /// Starts watching `fd` under `token`.
    fn register(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool)
        -> io::Result<()>;
    /// Updates the interest set of a registered fd.
    fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()>;
    /// Stops watching `fd`. Must be called before the fd is closed.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Blocks until at least one fd is ready or `timeout` elapses
    /// (`None` = wait forever), filling `events` (cleared first).
    fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()>;
    /// Backend name, for logs/tests.
    fn name(&self) -> &'static str;
}

/// Ceil a duration to whole milliseconds for `epoll_wait`/`poll`
/// timeouts; flooring would busy-spin on sub-millisecond remainders.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            ms.min(i32::MAX as u128) as c_int
        }
    }
}

// ---------------------------------------------------------------------------
// epoll backend (Linux)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll {
    use super::*;

    // The kernel packs epoll_event on x86-64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;

    /// `epoll`-backed [`Poller`].
    pub struct EpollPoller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        /// Creates the epoll instance.
        pub fn new() -> io::Result<EpollPoller> {
            // SAFETY: plain syscall; the fd is owned by the struct.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollPoller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: if r { EPOLLIN } else { 0 } | if w { EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: epfd and fd are live; ev outlives the call.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: closing the owned epoll fd.
            unsafe { close(self.epfd) };
        }
    }

    impl Poller for EpollPoller {
        fn register(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, r, w)
        }

        fn modify(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, r, w)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()> {
            events.clear();
            let n = loop {
                // SAFETY: buf is a live, correctly-sized epoll_event array.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        timeout_ms(timeout),
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
                // EINTR: retry with the same timeout (slight oversleep is
                // harmless; timers re-check deadlines against the clock).
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        fn name(&self) -> &'static str {
            "epoll"
        }
    }
}

#[cfg(target_os = "linux")]
pub use epoll::EpollPoller;

// ---------------------------------------------------------------------------
// poll(2) fallback (portable)
// ---------------------------------------------------------------------------

/// `poll(2)`-backed [`Poller`]: O(n) per wait, kept for portability (and
/// as a cross-check that the reactor only relies on the trait contract).
pub struct PollPoller {
    entries: Vec<(RawFd, u64, bool, bool)>,
    fds: Vec<PollFd>,
}

impl PollPoller {
    /// Creates the (stateless) poll backend.
    pub fn new() -> PollPoller {
        PollPoller {
            entries: Vec::new(),
            fds: Vec::new(),
        }
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|&(f, ..)| f == fd)
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        PollPoller::new()
    }
}

impl Poller for PollPoller {
    fn register(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, r, w));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.entries[i] = (fd, token, r, w);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.entries.swap_remove(i);
        Ok(())
    }

    fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        self.fds.clear();
        for &(fd, _, r, w) in &self.entries {
            self.fds.push(PollFd {
                fd,
                events: if r { POLLIN } else { 0 } | if w { POLLOUT } else { 0 },
                revents: 0,
            });
        }
        let n = loop {
            // SAFETY: fds is a live pollfd array of entries.len() slots.
            let rc = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as nfds_t,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (pfd, &(_, token, ..)) in self.fds.iter().zip(&self.entries) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: bits & POLLIN != 0,
                writable: bits & POLLOUT != 0,
                hangup: bits & (POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "poll"
    }
}

/// The best poller for this platform: `epoll` on Linux (falling back to
/// `poll(2)` if the epoll fd cannot be created — e.g. an exotic sandbox
/// seccomp profile), `poll(2)` elsewhere. `SAPHYRA_FORCE_POLL=1` forces
/// the fallback, which is how CI exercises both backends on one kernel.
pub fn new_poller() -> Box<dyn Poller> {
    if std::env::var_os("SAPHYRA_FORCE_POLL").is_some_and(|v| v == "1") {
        return Box::new(PollPoller::new());
    }
    #[cfg(target_os = "linux")]
    {
        if let Ok(p) = EpollPoller::new() {
            return Box::new(p);
        }
    }
    Box::new(PollPoller::new())
}

// ---------------------------------------------------------------------------
// Self-pipe waker
// ---------------------------------------------------------------------------

/// A nonblocking self-pipe: any thread can [`WakePipe::wake`] the reactor
/// out of its blocking wait by writing one byte; the reactor registers
/// [`WakePipe::read_fd`] and [`WakePipe::drain`]s it on wakeup. This is
/// what makes shutdown and worker-completion delivery event-driven — no
/// timed re-check loop anywhere.
#[derive(Debug)]
pub struct WakePipe {
    r: RawFd,
    w: RawFd,
}

// SAFETY: both raw fds are owned exclusively by this struct for its whole
// lifetime (closed only in Drop), so sending it to another thread just
// transfers descriptor ownership with it.
unsafe impl Send for WakePipe {}
// SAFETY: the only operations through a shared reference are write() on the
// nonblocking write end (wake) and read() on the read end (drain); concurrent
// single-byte pipe writes are atomic, and drain tolerates any interleaving.
unsafe impl Sync for WakePipe {}

impl WakePipe {
    /// Creates the pipe with both ends nonblocking.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: pipe() fills the two-slot array on success.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let (r, w) = (fds[0], fds[1]);
        let nb = set_nonblocking_fd(r).and_then(|()| set_nonblocking_fd(w));
        if let Err(e) = nb {
            // SAFETY: closing the just-created fds on the error path.
            unsafe {
                close(r);
                close(w);
            }
            return Err(e);
        }
        Ok(WakePipe { r, w })
    }

    /// The readable end, for poller registration.
    pub fn read_fd(&self) -> RawFd {
        self.r
    }

    /// Wakes the reactor. Lossy by design: if the pipe buffer is full the
    /// reactor already has a pending wakeup, so dropping the byte is fine.
    pub fn wake(&self) {
        let buf = [1u8];
        // SAFETY: writing one byte from a live buffer to an owned fd.
        unsafe {
            let _ = write(self.w, buf.as_ptr(), 1);
        }
    }

    /// Drains every buffered wake byte (call once per reactor wakeup).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reading into a live buffer from an owned fd.
            let n = unsafe { read(self.r, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closing the owned fds exactly once.
        unsafe {
            close(self.r);
            close(self.w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poller_smoke(mut p: Box<dyn Poller>) {
        let pipe = WakePipe::new().unwrap();
        p.register(pipe.read_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();

        // Nothing ready: a short wait times out empty.
        p.wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "{}: spurious event", p.name());

        // A wake byte makes the read end readable.
        pipe.wake();
        p.wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(events.len(), 1, "{}", p.name());
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        p.wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(events.len(), 1, "{}: not level-triggered", p.name());
        pipe.drain();
        p.wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "{}: drain did not clear", p.name());

        // Interest updates and deregistration are honored.
        pipe.wake();
        p.modify(pipe.read_fd(), 7, false, false).unwrap();
        p.wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "{}: modify ignored", p.name());
        p.deregister(pipe.read_fd()).unwrap();
        p.wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn poll_backend_reports_readiness() {
        poller_smoke(Box::new(PollPoller::new()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_reports_readiness() {
        poller_smoke(Box::new(EpollPoller::new().unwrap()));
    }

    #[test]
    fn wake_pipe_is_lossy_but_never_blocks() {
        let pipe = WakePipe::new().unwrap();
        // Far more wakes than the pipe buffer holds: must not block.
        for _ in 0..100_000 {
            pipe.wake();
        }
        pipe.drain();
        let mut p = PollPoller::new();
        p.register(pipe.read_fd(), 1, true, false).unwrap();
        let mut events = Vec::new();
        p.wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "drain left bytes behind");
    }
}
