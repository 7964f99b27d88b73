//! One nonblocking connection's whole byte path, socket to [`NetMsg`] and
//! back.
//!
//! Everything whose state advances in byte-stream order lives here, once,
//! for every socket a reactor multiplexes — the accepted connections and
//! the uplink of [`crate::node`], the synthetic children of
//! [`crate::scale`]: partial-read reassembly ([`FrameBuffer`]), the rx/tx
//! [`ConnCodec`] pair, and a coalescing write queue. Outbound messages
//! append to the queue and the queue is flushed once per loop iteration,
//! so a heartbeat burst or an interval+ack pair leaves in one `write`.
//! When the socket's send buffer fills, the residue stays queued and the
//! connection arms write-readiness interest; the frames already went
//! through the tx codec in queue order, which keeps the peer's rx codec in
//! lockstep (TCP is FIFO per connection).

use crate::frame::{fill, frame_bytes, FillStatus, FrameBuffer};
use crate::reactor::CountedRead;
use crate::wire::{decode_msg, encode_msg, NetMsg};
use ftscp_core::protocol::ConnCodec;
use ftscp_intervals::codec::DecodeError;
use polling::{Event as PollEvent, Poller};
use std::io::{self, Read, Write};
use std::net::TcpStream;
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
    /// write queue. Billing happens here, from what the encoder says it
    /// sent, so the frame counters match what hits the wire.
    pub(crate) fn enqueue(&mut self, msg: &NetMsg) {
        let (frames, standalone) = self.tx.sent_tally();
        let payload = encode_msg(msg, &mut self.tx);
        let (frames_now, standalone_now) = self.tx.sent_tally();
        let c = &self.counters;
        c.interval_frames_sent
            .fetch_add(frames_now - frames, Relaxed);
        c.standalone_frames_sent
            .fetch_add(standalone_now - standalone, Relaxed);
        c.bytes_sent.fetch_add(4 + payload.len() as u64, Relaxed);
        self.out.extend_from_slice(&frame_bytes(&payload));
    }

    pub(crate) fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Writes as much of the queue as the socket accepts and keeps the
    /// write-readiness interest registered under `key` in step with
    /// whether a residue remains. An error means the connection is dead.
    pub(crate) fn flush(&mut self, poller: &Poller, key: usize) -> io::Result<()> {
        if !self.pending_out() && !self.want_write {
            return Ok(());
        }
        while self.pending_out() {
            self.counters.syscalls.fetch_add(1, Relaxed);
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
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

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_core::protocol::DetectMsg;
    use ftscp_intervals::Interval;
    use ftscp_vclock::{ProcessId, VectorClock};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

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
    fn drain(conn: &mut Conn<UnixStream>) -> (Vec<NetMsg>, Result<FillStatus, DecodeError>) {
        let filled = conn.fill().expect("socketpair reads do not fail");
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
        let bytes = stream_of(&[fin.clone()]);
        peer.write_all(&bytes).expect("write");
        drop(peer);
        assert_eq!(drain(&mut conn), (vec![fin], Ok(FillStatus::Eof)));
        // The pass that ended in EOF delivered the frame: it is counted.
        assert_eq!(counters.bytes_received.load(Relaxed), bytes.len() as u64);
    }

    #[test]
    fn flush_bills_what_it_queues_and_tracks_write_interest_with_the_residue() {
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
}
