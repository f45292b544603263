//! Thin zero-dependency wrappers over the three syscalls the event-driven
//! serve tier needs: `poll(2)` readiness multiplexing, `pipe2(2)` wake
//! pipes, and `getrlimit/setrlimit` for raising the open-file ceiling.
//!
//! The workspace rule is *no external crates*, so instead of `libc` the
//! handful of symbols are declared `extern "C"` directly — std already
//! links the platform libc on every supported target. Layouts and
//! constants are the Linux ABI values (the only platform the experiments
//! run on); everything is wrapped in safe, EINTR-retrying functions so
//! no unsafe escapes this module.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{FromRawFd, RawFd};

/// Readable (or a listener has a pending accept).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Fd not open (revents only) — a slab bookkeeping bug if ever seen.
pub const POLLNVAL: i16 = 0x020;

/// One entry in a `poll(2)` set — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// File descriptor to watch (negative entries are ignored by the
    /// kernel — useful for tombstoning without reshuffling the slice).
    pub fd: i32,
    /// Requested events ([`POLLIN`] / [`POLLOUT`] bits).
    pub events: i16,
    /// Returned events, filled by [`poll_fds`].
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when any of `mask`'s bits came back in `revents`.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// True on error/hangup/invalid — the connection is dead regardless
    /// of what was asked for.
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: i32 = 7;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Wait until at least one entry is ready or `timeout_ms` elapses
/// (negative = wait forever). Returns the number of ready entries;
/// `Ok(0)` means the timeout fired. Retries on `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

/// A self-pipe used to interrupt a blocked [`poll_fds`] from another
/// thread: the event loop polls the read end alongside its sockets, and
/// any thread with a clone of the write end can wake it.
pub struct WakePipe {
    reader: File,
    writer: File,
}

impl WakePipe {
    /// Create the pipe pair. Both ends are nonblocking (a full pipe must
    /// not stall the waker — one pending byte is as good as fifty) and
    /// close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        // Safety: pipe2 succeeded, so both fds are freshly opened and
        // owned by no one else.
        let (reader, writer) = unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) };
        Ok(WakePipe { reader, writer })
    }

    /// The fd to include (with [`POLLIN`]) in the poll set.
    pub fn poll_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.reader.as_raw_fd()
    }

    /// A handle other threads use to wake the loop.
    pub fn waker(&self) -> io::Result<Waker> {
        Ok(Waker {
            writer: self.writer.try_clone()?,
        })
    }

    /// Drain pending wake bytes after the poll reported readability, so
    /// the pipe doesn't stay level-triggered forever.
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.reader.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }
}

/// The write end of a [`WakePipe`], cloneable across threads.
pub struct Waker {
    writer: File,
}

impl Waker {
    /// Nudge the event loop. A full pipe means a wake is already
    /// pending, which is just as good — the error is swallowed.
    pub fn wake(&self) {
        let _ = (&self.writer).write(&[1u8]);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            writer: self.writer.try_clone().expect("clone wake pipe fd"),
        }
    }
}

/// Raise the soft `RLIMIT_NOFILE` toward `target` (clamped to the hard
/// limit). Returns the soft limit now in effect. Never lowers it.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let want = target.min(lim.rlim_max);
    let new = RLimit {
        rlim_cur: want,
        rlim_max: lim.rlim_max,
    };
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } != 0 {
        // Leave the limit as-is; the caller sizes its fleet to the answer.
        return Ok(lim.rlim_cur);
    }
    Ok(want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_rounds_trip_through_poll() {
        let mut pipe = WakePipe::new().unwrap();
        let mut set = [PollFd::new(pipe.poll_fd(), POLLIN)];
        // Nothing pending: a zero-timeout poll reports no readiness.
        assert_eq!(poll_fds(&mut set, 0).unwrap(), 0);
        let waker = pipe.waker().unwrap();
        waker.wake();
        waker.wake(); // coalesces, must not error
        assert_eq!(poll_fds(&mut set, 1000).unwrap(), 1);
        assert!(set[0].ready(POLLIN));
        pipe.drain();
        set[0].revents = 0;
        assert_eq!(poll_fds(&mut set, 0).unwrap(), 0);
    }

    #[test]
    fn waker_wakes_across_threads() {
        let mut pipe = WakePipe::new().unwrap();
        let waker = pipe.waker().unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waker.wake();
        });
        let mut set = [PollFd::new(pipe.poll_fd(), POLLIN)];
        let n = poll_fds(&mut set, 5_000).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        pipe.drain();
    }

    #[test]
    fn nofile_limit_is_queryable_and_raisable() {
        // A target of 0 never raises: the answer is the limit in effect.
        let before = raise_nofile_limit(0).unwrap();
        assert!(before > 0);
        // Raising toward the current value is a no-op that must succeed.
        let after = raise_nofile_limit(before).unwrap();
        assert_eq!(after, before);
    }
}
