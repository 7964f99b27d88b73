//! Event-ingestion client: feeds local-predicate intervals into a
//! node over TCP.
//!
//! This is the external face of the system: the monitored application
//! (or a test harness replaying a recorded execution) connects to its
//! node's listener, handshakes as a [`PeerKind::Client`], and streams
//! [`NetMsg::Event`] frames — one per completed local interval, in
//! per-process order. A final [`NetMsg::Fin`] tells the node the feed is
//! complete, which is what lets a run terminate deterministically.

use crate::frame::{read_frame, write_frame, FrameBuffer};
use crate::wire::{decode_msg, encode_msg, NetMsg, PeerKind, PROTO_VERSION};
use ftscp_core::protocol::ConnCodec;
use ftscp_intervals::Interval;
use ftscp_vclock::ProcessId;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected event feed for one process.
pub struct EventClient {
    stream: TcpStream,
    tx_codec: ConnCodec,
    from: ProcessId,
    /// Bytes written so far (frames incl. length prefixes and handshake).
    bytes_sent: u64,
}

impl EventClient {
    /// Connects to `addr`, handshakes as an event client for process
    /// `from`, and waits for the node's `HelloAck`.
    pub fn connect(addr: SocketAddr, from: ProcessId) -> io::Result<EventClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut client = EventClient {
            stream,
            tx_codec: ConnCodec::new(),
            from,
            bytes_sent: 0,
        };
        client.send(&NetMsg::Hello {
            node: from,
            kind: PeerKind::Client,
            proto: PROTO_VERSION,
        })?;
        // Wait for the ack so a caller knows the node is live before it
        // starts blasting events.
        let mut fb = FrameBuffer::new();
        let mut rx_codec = ConnCodec::new();
        match read_frame(&mut client.stream, &mut fb)? {
            Some(frame) => match decode_msg(&frame, &mut rx_codec) {
                Ok(NetMsg::HelloAck { .. }) => {}
                Ok(_) | Err(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "handshake: expected HelloAck",
                    ))
                }
            },
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "handshake: connection closed",
                ))
            }
        }
        Ok(client)
    }

    /// Frames `msg` through this connection's codec and writes it out.
    pub(crate) fn send(&mut self, msg: &NetMsg) -> io::Result<()> {
        let payload = encode_msg(msg, &mut self.tx_codec);
        self.bytes_sent += 4 + payload.len() as u64;
        write_frame(&mut self.stream, &payload)
    }

    pub(crate) fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Streams one completed local interval. Intervals must be sent in
    /// per-process order (ascending `seq`), like any monitored process
    /// observes them.
    pub fn send_event(&mut self, interval: &Interval) -> io::Result<()> {
        self.send(&NetMsg::Event(interval.clone()))
    }

    /// Ends the feed: sends `Fin` and closes the connection. TCP's
    /// orderly close delivers everything already written.
    pub fn fin(mut self) -> io::Result<()> {
        self.send(&NetMsg::Fin { from: self.from })
    }
}
