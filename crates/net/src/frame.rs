//! Length-prefixed framing for the TCP transport.
//!
//! A frame on the wire is a little-endian `u32` length followed by that
//! many payload bytes. The payload is one session message
//! ([`crate::wire::NetMsg`]), whose interval payloads in turn carry the
//! `ftscp_intervals::codec` delta frames unchanged (version bytes `0xD2`
//! for an interval, with its embedded `0xD1` clock header, and `0xD3` for
//! a tenant batch).
//!
//! [`FrameBuffer`] is the receive half: a pure byte-stream reassembly
//! state machine with no socket anywhere in sight, so its hostile-input
//! behavior (oversized length prefixes, truncation at every offset,
//! arbitrary chunking) is testable with plain property tests. The caps
//! mirror the codec's `MAX_PROCESSES`/`MAX_COVERAGE` philosophy: validate
//! the header *before* allocating.

use std::io::{self, Read, Write};

/// Upper bound on a frame's payload length. The largest legitimate frame
/// is an aggregated interval at the root of a maximal tree — generously
/// below this; anything bigger is a corrupt or hostile peer and kills the
/// connection rather than the process.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Framing violation: the stream is unrecoverable and the connection
/// must be dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError(pub &'static str);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// Reassembles length-prefixed frames from an arbitrarily chunked byte
/// stream.
///
/// Feed bytes with [`push`](Self::push) exactly as they come off the
/// socket; pull complete frames with [`next_frame`](Self::next_frame).
/// A partial header or partial payload is simply *pending* (returns
/// `Ok(None)`), never an error — TCP may split a frame anywhere. Only a
/// length prefix above [`MAX_FRAME_LEN`] is an error, reported before
/// any payload allocation.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor into `buf` (consumed bytes are compacted lazily).
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame's payload, `Ok(None)` if more
    /// bytes are needed, or an error if the stream is invalid (oversized
    /// length prefix).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError("frame length exceeds MAX_FRAME_LEN"));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

/// Prepends the length prefix to `payload` in a fresh buffer, ready for a
/// single `write_all`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — outbound frames are
/// produced by our own encoder, so an oversized one is a programming
/// error, not peer input.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "outbound frame exceeds MAX_FRAME_LEN"
    );
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame to `w` (length prefix + payload, single syscall in
/// the common case).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(payload))
}

/// Result of one [`fill`] pass over a nonblocking source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillStatus {
    /// The source would block; `bytes` arrived before that (possibly 0).
    Open { bytes: usize },
    /// The source reached EOF. Bytes read before EOF are in the buffer.
    Eof,
}

/// Drains everything currently readable from a nonblocking `r` into
/// `fb` — the reactor's read path. Loops until the source reports
/// `WouldBlock` (→ [`FillStatus::Open`]) or EOF (→ [`FillStatus::Eof`]);
/// `Interrupted` is retried, every other error is returned. Frames are
/// *not* parsed here: call [`FrameBuffer::next_frame`] in a loop
/// afterwards, which also keeps hostile-framing detection independent of
/// socket behavior.
pub fn fill(r: &mut impl Read, fb: &mut FrameBuffer) -> io::Result<FillStatus> {
    let mut chunk = [0u8; 16 * 1024];
    let mut total = 0usize;
    loop {
        match r.read(&mut chunk) {
            Ok(0) => return Ok(FillStatus::Eof),
            Ok(n) => {
                fb.push(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Ok(FillStatus::Open { bytes: total })
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Blocking convenience: reads from `r` into `fb` until a full frame is
/// available, EOF (`Ok(None)`), or an I/O / framing error. Timeouts set
/// on the underlying socket surface as `io::Error` like any other.
pub fn read_frame(r: &mut impl Read, fb: &mut FrameBuffer) -> io::Result<Option<Vec<u8>>> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = fb
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            return Ok(Some(frame));
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Ok(None);
        }
        fb.push(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_arbitrary_chunking() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 5], vec![3; 4096]];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&frame_bytes(f));
        }
        // Feed one byte at a time — the worst possible chunking.
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        for b in stream {
            fb.push(&[b]);
            while let Some(f) = fb.next_frame().expect("valid stream") {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn truncated_frame_is_pending_not_error() {
        let mut fb = FrameBuffer::new();
        fb.push(&[3, 0, 0]); // half a header
        assert_eq!(fb.next_frame(), Ok(None));
        fb.push(&[0, 1, 2]); // header complete (len 3), payload short
        assert_eq!(fb.next_frame(), Ok(None));
        fb.push(&[3]);
        assert_eq!(fb.next_frame(), Ok(Some(vec![1, 2, 3])));
    }

    #[test]
    fn oversized_length_prefix_is_fatal_before_allocation() {
        let mut fb = FrameBuffer::new();
        fb.push(&u32::MAX.to_le_bytes());
        assert_eq!(
            fb.next_frame(),
            Err(FrameError("frame length exceeds MAX_FRAME_LEN"))
        );
    }

    #[test]
    #[should_panic(expected = "outbound frame exceeds MAX_FRAME_LEN")]
    fn outbound_oversize_panics() {
        frame_bytes(&vec![0; MAX_FRAME_LEN + 1]);
    }
}
