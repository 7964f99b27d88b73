//! Shared building blocks of the readiness-polled runtimes: the timer
//! wheel (the node reactor's, [`crate::node`]) and the nonblocking TCP
//! connect (every dialing driver's: the node's uplink, the children of
//! [`crate::scale`], the feeders of [`crate::tenancy`]).
//!
//! The poller itself is the vendored [`polling`] shim (epoll on Linux,
//! `poll(2)` elsewhere); this module holds the pieces `polling` does not
//! provide.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Deadline-ordered timer queue driving all time-based work in a
/// reactor: heartbeats, suspicion rounds, retransmit bursts, reconnect
/// backoff, connect timeouts. One-shot by construction — recurring
/// timers re-arm themselves from their own handler, which makes "stop
/// until further notice" (e.g. the retransmit timer with nothing
/// unacked) the default instead of a cancellation dance. Stale fires
/// are possible (a timer armed for a connection that died); handlers
/// guard on current state instead of the wheel supporting removal.
#[derive(Debug)]
pub struct TimerWheel<T> {
    heap: BinaryHeap<Reverse<(Instant, u64, T)>>,
    /// Arm-order tiebreaker: same-deadline timers fire in arm order.
    seq: u64,
}

impl<T: Ord> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `timer` to fire at `at`.
    pub fn arm(&mut self, at: Instant, timer: T) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, timer)));
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops the next timer due at or before `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<T> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= now => {
                let Reverse((_, _, timer)) = self.heap.pop().expect("peeked");
                Some(timer)
            }
            _ => None,
        }
    }
}

impl<T: Ord> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Starts a nonblocking TCP connect to `addr` and returns the nonblocking
/// stream, connected or still connecting. The caller registers read
/// interest and writes at once: writes answer `WouldBlock` until the
/// connect resolves, and a refused connect is `EPOLLERR`, so the next
/// read or write fails. Whether the peer is *there* is for the session
/// to say (a `HelloAck`), not the kernel.
///
/// On Linux/IPv4 this is a raw `socket(SOCK_NONBLOCK)` + `connect`
/// through self-declared libc prototypes (`std` exposes no in-progress
/// connect). Elsewhere — and for IPv6 — it falls back to a bounded
/// blocking `connect_timeout`, which keeps the reactor stalled for at
/// most [`CONNECT_FALLBACK_TIMEOUT`] per attempt.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    #[cfg(target_os = "linux")]
    if let SocketAddr::V4(v4) = addr {
        return sys::connect_v4_nonblocking(v4);
    }
    let stream = TcpStream::connect_timeout(&addr, CONNECT_FALLBACK_TIMEOUT)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Bound on the blocking fallback path of [`connect_nonblocking`].
pub const CONNECT_FALLBACK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(250);

#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::net::{SocketAddrV4, TcpStream};
    use std::os::fd::FromRawFd;

    // Matches `struct sockaddr_in` (netinet/in.h); port and address are
    // big-endian on the wire.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const EINPROGRESS: i32 = 115;

    pub fn connect_v4_nonblocking(addr: SocketAddrV4) -> io::Result<TcpStream> {
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let sa = SockAddrIn {
            family: AF_INET as u16,
            port: addr.port().to_be(),
            addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
            zero: [0; 8],
        };
        let ret = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) };
        let err = io::Error::last_os_error();
        if ret == 0 || err.raw_os_error() == Some(EINPROGRESS) {
            // SAFETY: `fd` is the open socket created above, owned by
            // nothing else; the stream takes sole ownership of it.
            return Ok(unsafe { TcpStream::from_raw_fd(fd) });
        }
        unsafe { close(fd) };
        Err(err)
    }
}

/// `Read` adapter counting the syscalls it forwards and the bytes they
/// returned — the reactor's syscalls-per-interval and bytes-received
/// accounting for the bench rows.
pub struct CountedRead<'a, R> {
    pub inner: &'a mut R,
    pub calls: u64,
    pub bytes: u64,
}

impl<R: Read> Read for CountedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn timer_wheel_fires_in_deadline_then_arm_order() {
        let mut wheel = TimerWheel::new();
        let t0 = Instant::now();
        wheel.arm(t0 + Duration::from_millis(20), "late");
        wheel.arm(t0 + Duration::from_millis(10), "early-first");
        wheel.arm(t0 + Duration::from_millis(10), "early-second");
        assert_eq!(wheel.next_deadline(), Some(t0 + Duration::from_millis(10)));

        let now = t0 + Duration::from_millis(15);
        assert_eq!(wheel.pop_due(now), Some("early-first"));
        assert_eq!(wheel.pop_due(now), Some("early-second"));
        assert_eq!(wheel.pop_due(now), None, "the late timer is not due yet");
        assert_eq!(wheel.pop_due(t0 + Duration::from_millis(25)), Some("late"));
        assert_eq!(wheel.next_deadline(), None);
    }
}
