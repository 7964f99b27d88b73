//! One nonblocking connection's whole byte path, socket to [`NetMsg`] and
//! back.
//!
//! Everything whose state advances in byte-stream order lives here, once,
//! for every socket a poller multiplexes — the accepted connections and
//! the uplink of [`crate::node`], the synthetic children of
//! [`crate::scale`], both ends of every feeder of [`crate::tenancy`]:
//! partial-read reassembly ([`FrameBuffer`]), the rx/tx
//! [`ConnCodec`] pair, and a coalescing write queue. Outbound messages
//! append to the queue and the queue is flushed once per loop iteration,
//! so a heartbeat burst or an interval+ack pair leaves in one `write`.
//! When the socket's send buffer fills, the residue stays queued and the
//! connection arms write-readiness interest; the frames already went
//! through the tx codec in queue order, which keeps the peer's rx codec in
//! lockstep (TCP is FIFO per connection).
//!
//! Every dialer opens a connection the same way, [`Conn::dial`]: the
//! `Hello` is queued and flushed before the connect resolves. A
//! still-connecting socket answers a write with `WouldBlock`, which is one
//! more residue, and a refused connect makes the next write or
//! [`fill`](Conn::fill) fail. Bytes are billed as `write` accepts them, so
//! a dial that never connects costs nothing on the counters.

use crate::frame::{fill, frame_bytes, FillStatus, FrameBuffer};
use crate::reactor::{connect_nonblocking, CountedRead};
use crate::wire::{decode_msg, encode_msg, NetMsg, PeerKind, PROTO_VERSION};
use ftscp_core::protocol::ConnCodec;
use ftscp_intervals::codec::DecodeError;
use ftscp_vclock::ProcessId;
use polling::{Event as PollEvent, Poller};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Wire counters of one reactor, fed by all of its connections.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) interval_frames_sent: AtomicU64,
    pub(crate) standalone_frames_sent: AtomicU64,
    /// `read`/`write` calls issued here, plus whatever the owner adds
    /// (accepts, connects).
    pub(crate) syscalls: AtomicU64,
}

/// One live connection: the socket plus its reassembly buffer, codec pair
/// and write queue. Every production connection is a `TcpStream`; the
/// stream is a parameter only so the tests below run on a `UnixStream`
/// pair, without a network.
pub(crate) struct Conn<S = TcpStream> {
    stream: S,
    fb: FrameBuffer,
    rx: ConnCodec,
    tx: ConnCodec,
    /// Outbound bytes (already framed), `out[out_pos..]` unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether write-readiness interest is currently registered.
    want_write: bool,
    counters: Arc<Counters>,
}

impl<S: Read + Write + AsRawFd> Conn<S> {
    /// Wraps a nonblocking `stream` the caller has registered (or is about
    /// to register) with its poller for read readiness.
    pub(crate) fn new(stream: S, counters: Arc<Counters>) -> Self {
        Conn {
            stream,
            fb: FrameBuffer::new(),
            rx: ConnCodec::new(),
            tx: ConnCodec::new(),
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            counters,
        }
    }

    pub(crate) fn stream(&self) -> &S {
        &self.stream
    }

    /// Reads everything the socket has into the reassembly buffer; pull
    /// the messages with [`next_msg`](Self::next_msg) afterwards. Anything
    /// but `Open` ends the connection — after the messages that arrived
    /// first (`Fin` immediately followed by EOF is the normal client exit).
    pub(crate) fn fill(&mut self) -> io::Result<FillStatus> {
        let mut counted = CountedRead {
            inner: &mut self.stream,
            calls: 0,
            bytes: 0,
        };
        let filled = fill(&mut counted, &mut self.fb);
        self.counters.syscalls.fetch_add(counted.calls, Relaxed);
        // Counted at the read, not from `filled`: a pass that ends in EOF
        // or an error still delivered the bytes before it.
        self.counters
            .bytes_received
            .fetch_add(counted.bytes, Relaxed);
        filled
    }

    /// The next complete frame, decoded through the rx codec; `Ok(None)`
    /// when no complete frame is buffered. An error — framing violation
    /// or undecodable frame — is a corrupt peer: nothing after it can be
    /// trusted and the connection must be dropped.
    pub(crate) fn next_msg(&mut self) -> Result<Option<NetMsg>, DecodeError> {
        match self.fb.next_frame() {
            Ok(Some(frame)) => decode_msg(&frame, &mut self.rx).map(Some),
            Ok(None) => Ok(None),
            Err(e) => Err(DecodeError(e.0)),
        }
    }

    /// Encodes `msg` through the tx codec and appends the frame to the
    /// write queue. Interval frames are counted here, from what the
    /// encoder says it sent; bytes are billed by [`flush`](Self::flush),
    /// as they are written.
    pub(crate) fn enqueue(&mut self, msg: &NetMsg) {
        let (frames, standalone) = self.tx.sent_tally();
        let payload = encode_msg(msg, &mut self.tx);
        let (frames_now, standalone_now) = self.tx.sent_tally();
        let c = &self.counters;
        c.interval_frames_sent
            .fetch_add(frames_now - frames, Relaxed);
        c.standalone_frames_sent
            .fetch_add(standalone_now - standalone, Relaxed);
        self.out.extend_from_slice(&frame_bytes(&payload));
    }

    pub(crate) fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Writes as much of the queue as the socket accepts, billing what
    /// each `write` took, and keeps the write-readiness interest
    /// registered under `key` in step with whether a residue remains. An
    /// error means the connection is dead.
    pub(crate) fn flush(&mut self, poller: &Poller, key: usize) -> io::Result<()> {
        if !self.pending_out() && !self.want_write {
            return Ok(());
        }
        while self.pending_out() {
            self.counters.syscalls.fetch_add(1, Relaxed);
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.counters.bytes_sent.fetch_add(n as u64, Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.pending_out() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        if self.pending_out() != self.want_write {
            self.want_write = self.pending_out();
            let interest = if self.want_write {
                PollEvent::all(key)
            } else {
                PollEvent::readable(key)
            };
            poller.modify(&self.stream, interest)?;
        }
        Ok(())
    }
}

impl Conn {
    /// Dials `addr` as `node` in role `kind`: registers read interest
    /// under `key` and queues the `Hello`, before the connect resolves.
    pub(crate) fn dial(
        addr: SocketAddr,
        poller: &Poller,
        key: usize,
        counters: Arc<Counters>,
        node: ProcessId,
        kind: PeerKind,
    ) -> io::Result<Conn> {
        let stream = connect_nonblocking(addr)?;
        let _ = stream.set_nodelay(true);
        poller.add(&stream, PollEvent::readable(key))?;
        let mut conn = Conn::new(stream, counters);
        conn.enqueue(&NetMsg::Hello {
            node,
            kind,
            proto: PROTO_VERSION,
        });
        Ok(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_core::protocol::DetectMsg;
    use ftscp_intervals::Interval;
    use ftscp_vclock::VectorClock;
    use std::net::TcpListener;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    /// A `Conn` on one end of a socket pair (no network needed), the raw
    /// other end, and the `Conn`'s counters.
    fn pair() -> (Conn<UnixStream>, UnixStream, Arc<Counters>) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        let counters = Arc::new(Counters::default());
        (Conn::new(a, Arc::clone(&counters)), b, counters)
    }

    fn event(seq: u64, width: usize) -> NetMsg {
        let lo = VectorClock::from_components(vec![2 * seq as u32 + 1; width]);
        let hi = VectorClock::from_components(vec![2 * seq as u32 + 2; width]);
        NetMsg::Event(Interval::local(ProcessId(1), seq, lo, hi))
    }

    /// One readable event: fill, then pull every message. `Err` in second
    /// place: the stream went bad after the messages returned.
    fn drain<S: Read + Write + AsRawFd>(
        conn: &mut Conn<S>,
    ) -> (Vec<NetMsg>, Result<FillStatus, DecodeError>) {
        let filled = conn.fill().expect("reads from a live peer do not fail");
        let mut msgs = Vec::new();
        loop {
            match conn.next_msg() {
                Ok(Some(msg)) => msgs.push(msg),
                Ok(None) => return (msgs, Ok(filled)),
                Err(e) => return (msgs, Err(e)),
            }
        }
    }

    /// The byte stream one warm connection would carry for `msgs`.
    fn stream_of(msgs: &[NetMsg]) -> Vec<u8> {
        let mut tx = ConnCodec::new();
        let frames = msgs.iter().map(|m| frame_bytes(&encode_msg(m, &mut tx)));
        frames.flatten().collect()
    }

    #[test]
    fn frames_split_at_every_byte_boundary_arrive_intact() {
        let ack = DetectMsg::Ack {
            from: ProcessId(0),
            upto: 9,
        };
        let fin = NetMsg::Fin { from: ProcessId(1) };
        let msgs = vec![event(0, 3), NetMsg::Detect(ack), event(1, 3), fin];
        let bytes = stream_of(&msgs);
        for cut in 0..=bytes.len() {
            let (mut conn, mut peer, counters) = pair();
            let mut got = Vec::new();
            for part in [&bytes[..cut], &bytes[cut..]] {
                peer.write_all(part).expect("write");
                let (m, end) = drain(&mut conn);
                assert!(matches!(end, Ok(FillStatus::Open { .. })), "split at {cut}");
                got.extend(m);
            }
            assert_eq!(got, msgs, "split at {cut}");
            assert_eq!(counters.bytes_received.load(Relaxed), bytes.len() as u64);
        }
    }

    #[test]
    fn a_bad_frame_after_two_good_ones_yields_the_two_then_dead() {
        let good = [event(0, 3), event(1, 3)];
        // An unknown message tag, and a length prefix no frame may have.
        for bad in [frame_bytes(&[0xff]), u32::MAX.to_le_bytes().to_vec()] {
            let (mut conn, mut peer, _) = pair();
            let mut bytes = stream_of(&good);
            bytes.extend_from_slice(&bad);
            bytes.extend_from_slice(&stream_of(&[NetMsg::Fin { from: ProcessId(1) }]));
            peer.write_all(&bytes).expect("write");
            let (msgs, end) = drain(&mut conn);
            assert_eq!(msgs, good);
            assert!(end.is_err(), "the bad frame, and nothing after it");
        }
    }

    #[test]
    fn fin_followed_by_eof_yields_fin_then_eof() {
        let (mut conn, mut peer, counters) = pair();
        let fin = NetMsg::Fin { from: ProcessId(4) };
        let bytes = stream_of(std::slice::from_ref(&fin));
        peer.write_all(&bytes).expect("write");
        drop(peer);
        assert_eq!(drain(&mut conn), (vec![fin], Ok(FillStatus::Eof)));
        // The pass that ended in EOF delivered the frame: it is counted.
        assert_eq!(counters.bytes_received.load(Relaxed), bytes.len() as u64);
    }

    #[test]
    fn flush_bills_what_it_writes_and_tracks_write_interest_with_the_residue() {
        let (mut tx, peer, sent) = pair();
        peer.set_nonblocking(true).expect("nonblocking");
        let received = Arc::new(Counters::default());
        let mut rx = Conn::new(peer, Arc::clone(&received));
        let poller = Poller::new().expect("poller");
        poller
            .add(tx.stream(), PollEvent::readable(7))
            .expect("add");
        // ~100 kB a frame, eight of them: more than a socket buffer holds.
        let msgs: Vec<NetMsg> = (0..8).map(|s| event(s, 50_000)).collect();
        msgs.iter().for_each(|m| tx.enqueue(m));
        tx.flush(&poller, 7).expect("flush");
        assert!(
            tx.pending_out() && tx.want_write,
            "a residue arms write interest"
        );
        let mut got = Vec::new();
        let mut events = polling::Events::new();
        while tx.pending_out() {
            got.extend(drain(&mut rx).0);
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(events.iter().any(|e| e.key == 7 && e.writable));
            tx.flush(&poller, 7).expect("flush");
        }
        got.extend(drain(&mut rx).0);
        assert_eq!(got, msgs);
        assert!(!tx.want_write, "no residue, no write interest");
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert!(events.is_empty(), "only read interest is left registered");
        assert_eq!(sent.interval_frames_sent.load(Relaxed), 8);
        assert_eq!(sent.standalone_frames_sent.load(Relaxed), 1);
        assert_eq!(
            sent.bytes_sent.load(Relaxed),
            received.bytes_received.load(Relaxed)
        );
    }

    /// Every dialer (the node's uplink, `scale`, `tenancy`) queues a
    /// connection's opening before the connect resolves: while the socket
    /// is still connecting, a write answers `WouldBlock`, so the first
    /// flush leaves a residue and arms write interest like any full
    /// buffer.
    #[test]
    fn a_dialed_conn_is_written_before_its_connect_resolves() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let poller = Poller::new().expect("poller");
        let sent = Arc::new(Counters::default());
        let addr = listener.local_addr().expect("addr");
        let c = Arc::clone(&sent);
        let mut tx = Conn::dial(addr, &poller, 0, c, ProcessId(1), PeerKind::Client).expect("dial");
        let hello = NetMsg::Hello {
            node: ProcessId(1),
            kind: PeerKind::Client,
            proto: PROTO_VERSION,
        };
        let msgs = vec![hello, event(0, 3), event(1, 3)];
        msgs[1..].iter().for_each(|m| tx.enqueue(m));
        tx.flush(&poller, 0).expect("flush");
        // Only now does anyone accept.
        let (peer, _) = listener.accept().expect("accept");
        peer.set_nonblocking(true).expect("nonblocking");
        let received = Arc::new(Counters::default());
        let mut rx = Conn::new(peer, Arc::clone(&received));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut events = polling::Events::new();
        let mut got = Vec::new();
        while got.len() < msgs.len() {
            assert!(Instant::now() < deadline, "got only {got:?}");
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            tx.flush(&poller, 0).expect("flush");
            got.extend(drain(&mut rx).0);
        }
        assert_eq!(got, msgs, "all three, in order");
        assert_eq!(
            sent.bytes_sent.load(Relaxed),
            received.bytes_received.load(Relaxed)
        );
    }

    /// A dial nobody answers is an error from the dial, from `flush` or
    /// from `fill` after one poller wait — never silence: a refused
    /// connect is `EPOLLERR`, which the poller reports as readable. And
    /// it bills nothing: bytes count as they are written.
    #[test]
    fn a_refused_dial_is_an_error_not_silence() {
        // Bind-then-drop yields a port nobody listens on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let poller = Poller::new().expect("poller");
        let counters = Arc::new(Counters::default());
        let dial = || -> io::Result<FillStatus> {
            let c = Arc::clone(&counters);
            let mut conn = Conn::dial(addr, &poller, 0, c, ProcessId(1), PeerKind::Client)?;
            conn.enqueue(&event(0, 3));
            conn.flush(&poller, 0)?;
            let mut events = polling::Events::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            conn.fill()
        };
        assert!(dial().is_err(), "a refused dial must surface");
        assert_eq!(counters.bytes_sent.load(Relaxed), 0, "nothing was written");
    }
}
