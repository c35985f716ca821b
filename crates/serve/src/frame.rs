//! Length-prefixed framing of [`wire::Message`] over byte streams.
//!
//! A TCP stream has no record boundaries, so every CRC-sealed wire frame
//! travels behind a 4-byte little-endian length prefix:
//!
//! ```text
//! [0..4]      u32  bit 31: extension flag; bits 0..31: frame length F
//!                  (bytes after the prefix, prefix excluded)
//! [4..4+F]         flag clear: the v2 CRC-32-sealed frame (`wire::encode`)
//!                  flag set:   [ext_len u8] [ext_len bytes of extension
//!                  entries] [the v2 CRC-32-sealed frame]
//! ```
//!
//! The **extension block** is a sequence of `(id u8, len u8, payload)`
//! entries riding outside the wire frame's CRC. Unknown ids are skipped
//! cleanly (forward compatibility); a structurally inconsistent block — an
//! entry overrunning its declared bounds — is the typed
//! [`FrameError::BadExtension`]. The one defined entry is
//! [`EXT_TRACE_CONTEXT`]: a [`TraceContext`] (`trace_id u64, span_id u64,
//! flags u8`, little-endian) that lets a client stitch its request span to
//! the server's handler/flight-recorder view of the same request.
//! Extensions are **opt-in per frame**: a peer that never sends them is
//! byte-identical to the PR 5/6 format, and a pre-extension peer receiving
//! a flagged prefix reads a declared length above [`MAX_FRAME_BYTES`] and
//! drops the connection with a typed `TooLarge` — never a desync or a
//! panic.
//!
//! [`read_frame`] distinguishes every way a socket read can go wrong as a
//! typed [`FrameError`] — clean close between frames, a connection killed
//! mid-frame, a read-deadline expiry, an oversized length prefix, and CRC
//! or parse failures from [`wire::decode`] — because the server reacts
//! differently to each (see `server.rs`): corrupt-but-well-framed frames
//! are rejected and the stream continues, while a desynchronizing failure
//! drops the connection and degrades the epoch to its surviving subset.

use cso_distributed::wire::{self, Message, WireError};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a declared frame length. A length prefix above this is
/// treated as corruption/hostility and the connection is dropped (a 16 MiB
/// frame holds a 2M-value f64 sketch — far beyond any real `M`).
pub const MAX_FRAME_BYTES: u32 = 1 << 24;

/// Bytes of the length prefix preceding every frame.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Length-prefix bit marking a frame that carries an extension block
/// between the prefix and the wire frame.
const FLAG_EXTENDED: u32 = 1 << 31;

/// Extension-entry id of the cross-process trace context.
pub const EXT_TRACE_CONTEXT: u8 = 1;

/// Payload bytes of a trace-context entry: trace id, span id, flags.
const TRACE_CONTEXT_BYTES: usize = 8 + 8 + 1;

/// Cross-process trace context: the client-side identifiers a request
/// carries so server-side events (flight recorder, slow-request records)
/// can be stitched back to the originating client span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Caller-chosen id shared by every request of one logical run.
    pub trace_id: u64,
    /// The client-side span the request executes under.
    pub span_id: u64,
}

/// Typed failure modes of reading one frame off a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The connection died mid-frame: the length prefix or body was cut
    /// short (a killed peer, a mid-frame reset).
    Truncated,
    /// The read deadline expired before a full frame arrived.
    TimedOut,
    /// The length prefix declares more than [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Declared frame length.
        declared: u32,
    },
    /// The frame's extension block is structurally inconsistent — an
    /// entry (or the block itself) overruns its declared bounds.
    BadExtension,
    /// The framed bytes failed the CRC or did not parse as a message.
    Wire(WireError),
    /// Any other socket error.
    Io(io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection died mid-frame"),
            FrameError::TimedOut => write!(f, "read deadline expired"),
            FrameError::TooLarge { declared } => {
                write!(f, "frame declares {declared} bytes (cap {MAX_FRAME_BYTES})")
            }
            FrameError::BadExtension => write!(f, "frame extension block overruns its bounds"),
            FrameError::Wire(e) => write!(f, "bad frame: {e}"),
            FrameError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl FrameError {
    /// Whether this failure means the peer went away mid-conversation — a
    /// clean close, a mid-frame cut, or a reset-class socket error. These
    /// are the errors a client maps to `ConnectionLost` and retries by
    /// reconnecting; everything else (timeouts, CRC failures, oversized
    /// prefixes, malformed extensions) keeps its own identity.
    pub fn is_connection_lost(&self) -> bool {
        matches!(
            self,
            FrameError::Closed
                | FrameError::Truncated
                | FrameError::Io(
                    io::ErrorKind::BrokenPipe
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionRefused,
                )
        )
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Maps an I/O error from a body read: deadline expiries keep their
/// identity, a short read is a mid-frame kill, everything else is `Io`.
fn map_body_err(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        kind => FrameError::Io(kind),
    }
}

/// Decodes a length prefix into `(extended, declared body length)`,
/// refusing a declared length over [`MAX_FRAME_BYTES`].
fn parse_prefix(prefix: [u8; LEN_PREFIX_BYTES]) -> Result<(bool, usize), FrameError> {
    let raw = u32::from_le_bytes(prefix);
    let declared = raw & !FLAG_EXTENDED;
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { declared });
    }
    Ok((raw & FLAG_EXTENDED != 0, declared as usize))
}

/// Decodes a frame body: the extension block when the prefix flagged
/// one, then the wire frame.
fn parse_body(body: &[u8], extended: bool) -> Result<(Message, Option<TraceContext>), FrameError> {
    let (ctx, frame) = if extended { parse_extensions(body)? } else { (None, body) };
    Ok((wire::decode(frame)?, ctx))
}

/// Walks the extension block, returning the trace context (if present)
/// and the wire-frame remainder. Unknown entry ids are skipped; entries
/// overrunning the block are [`FrameError::BadExtension`].
fn parse_extensions(body: &[u8]) -> Result<(Option<TraceContext>, &[u8]), FrameError> {
    let (&ext_len, rest) = body.split_first().ok_or(FrameError::BadExtension)?;
    let ext_len = usize::from(ext_len);
    if ext_len > rest.len() {
        return Err(FrameError::BadExtension);
    }
    let (mut ext, frame) = rest.split_at(ext_len);
    let mut ctx = None;
    while !ext.is_empty() {
        if ext.len() < 2 {
            return Err(FrameError::BadExtension);
        }
        let (id, len) = (ext[0], usize::from(ext[1]));
        if 2 + len > ext.len() {
            return Err(FrameError::BadExtension);
        }
        let payload = &ext[2..2 + len];
        // A longer-than-expected trace entry still parses by its known
        // prefix, so a future revision can append fields compatibly.
        if id == EXT_TRACE_CONTEXT && len >= TRACE_CONTEXT_BYTES {
            ctx = Some(TraceContext {
                trace_id: u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes")),
                span_id: u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")),
            });
        }
        ext = &ext[2 + len..];
    }
    Ok((ctx, frame))
}

/// Reads exactly one length-prefixed frame — plain or extended — and
/// decodes it. Returns the message, the total bytes consumed (prefix
/// included), and the trace context if the peer attached one.
pub fn read_frame(r: &mut impl Read) -> Result<AssembledFrame, FrameError> {
    // First byte by hand so a clean close (EOF at a boundary) is
    // distinguishable from a prefix cut short.
    let mut prefix = [0u8; LEN_PREFIX_BYTES];
    let mut got = 0;
    while got < 1 {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(map_body_err(e)),
        }
    }
    r.read_exact(&mut prefix[1..]).map_err(map_body_err)?;
    let (extended, declared) = parse_prefix(prefix)?;
    let mut body = vec![0u8; declared];
    r.read_exact(&mut body).map_err(map_body_err)?;
    let (msg, ctx) = parse_body(&body, extended)?;
    Ok((msg, LEN_PREFIX_BYTES + declared, ctx))
}

/// Encodes `msg` — with `ctx` attached as a trace-context extension when
/// given — and writes it behind its length prefix. Returns the total
/// bytes written (prefix included). Without a context the output is the
/// plain, unextended frame.
pub fn write_frame(
    w: &mut impl Write,
    msg: &Message,
    ctx: Option<&TraceContext>,
) -> io::Result<usize> {
    let body = wire::encode(msg);
    let Some(ctx) = ctx else {
        let len = body.len() as u32;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&body)?;
        w.flush()?;
        return Ok(LEN_PREFIX_BYTES + body.len());
    };
    let entry_len = 2 + TRACE_CONTEXT_BYTES; // id + len + payload
    let mut ext = Vec::with_capacity(1 + entry_len);
    ext.push(entry_len as u8); // ext block length: one entry
    ext.push(EXT_TRACE_CONTEXT);
    ext.push(TRACE_CONTEXT_BYTES as u8);
    ext.extend_from_slice(&ctx.trace_id.to_le_bytes());
    ext.extend_from_slice(&ctx.span_id.to_le_bytes());
    ext.push(0); // flags, reserved
    let total = (ext.len() + body.len()) as u32;
    w.write_all(&(FLAG_EXTENDED | total).to_le_bytes())?;
    w.write_all(&ext)?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(LEN_PREFIX_BYTES + ext.len() + body.len())
}

/// Encodes `msg` behind its length prefix into a fresh byte vector — the
/// buffer-building twin of [`write_frame`], used by the nonblocking server
/// where replies are queued and flushed as the socket accepts them.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg, None).expect("writing to a Vec cannot fail");
    buf
}

/// One frame successfully read by [`read_frame`] or reassembled by a
/// [`FrameAssembler`]: the decoded message, the total bytes it occupied on
/// the wire (prefix included), and the trace context if the peer attached
/// one.
pub type AssembledFrame = (Message, usize, Option<TraceContext>);

/// Incremental frame reassembly for nonblocking sockets.
///
/// Where [`read_frame`] *pulls* bytes from a blocking reader, an epoll
/// loop is handed bytes whenever the kernel has them — possibly one byte
/// at a time, possibly three frames at once. `FrameAssembler` is the
/// per-connection state machine between the two worlds: [`push`] feeds it
/// whatever arrived, [`next_frame`] yields complete frames with exactly
/// the typed-error contract of the blocking reader:
///
/// - an oversized length prefix is [`FrameError::TooLarge`] (the
///   connection must be dropped — the stream can no longer be trusted);
/// - a well-framed body failing CRC/parse or carrying a malformed
///   extension block is [`FrameError::Wire`] / [`FrameError::BadExtension`]
///   **with the frame consumed**, so the caller can reject in place and
///   keep the stream synchronized;
/// - `Closed` / `Truncated` are socket-level facts the assembler cannot
///   see; [`on_eof`] folds buffered state into the right one when the
///   caller observes end-of-stream.
///
/// The assembler never copies a body twice: bytes accumulate in one
/// buffer, frames are decoded in place, and consumed prefixes are
/// compacted away lazily.
///
/// [`push`]: FrameAssembler::push
/// [`next_frame`]: FrameAssembler::next_frame
/// [`on_eof`]: FrameAssembler::on_eof
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler for a fresh connection.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Feeds bytes read off the socket into the reassembly buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: once consumed frames exceed the live
        // remainder, slide the tail down instead of reallocating past it.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a frame is partially buffered — a prefix or body cut short
    /// by whatever the socket has delivered so far.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// The typed error end-of-stream maps to: mid-frame bytes pending
    /// means the peer died mid-frame ([`FrameError::Truncated`]); an empty
    /// buffer is a clean close at a boundary ([`FrameError::Closed`]).
    pub fn on_eof(&self) -> FrameError {
        if self.has_partial() {
            FrameError::Truncated
        } else {
            FrameError::Closed
        }
    }

    /// Yields the next complete frame, `Ok(None)` if more bytes are
    /// needed, or a typed error per the contract above. Call in a loop
    /// after each [`push`](FrameAssembler::push) until it returns
    /// `Ok(None)` — one readiness event may deliver many frames.
    pub fn next_frame(&mut self) -> Result<Option<AssembledFrame>, FrameError> {
        let avail = &self.buf[self.pos..];
        let Some(prefix) = avail.get(..LEN_PREFIX_BYTES) else { return Ok(None) };
        let (extended, declared) = parse_prefix(prefix.try_into().expect("4 bytes"))?;
        let total = LEN_PREFIX_BYTES + declared;
        let Some(body) = avail.get(LEN_PREFIX_BYTES..total) else { return Ok(None) };
        // The frame is structurally complete: whatever happens next, it is
        // consumed, so decode failures leave the stream synchronized.
        let parsed = parse_body(body, extended).map(|(msg, ctx)| Some((msg, total, ctx)));
        self.pos += total;
        parsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn msg() -> Message {
        Message::SealEpoch { session: 9, epoch: 2 }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &msg(), None).unwrap();
        assert_eq!(written, buf.len());
        let (back, consumed, _) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, msg());
        assert_eq!(consumed, written);
    }

    #[test]
    fn back_to_back_frames_stay_synchronized() {
        let mut buf = Vec::new();
        let msgs = [
            Message::OpenEpoch {
                session: 1,
                epoch: 0,
                m: 4,
                n: 10,
                seed: 3,
                op_kind: 1,
                op_param: 0,
            },
            Message::Ack { of: 4, info: 0 },
            Message::Report { epoch: 0, mode: 1.5, outliers: vec![(2, 9.0)] },
        ];
        for m in &msgs {
            write_frame(&mut buf, m, None).unwrap();
        }
        let mut cur = Cursor::new(&buf);
        for m in &msgs {
            assert_eq!(&read_frame(&mut cur).unwrap().0, m);
        }
        assert_eq!(read_frame(&mut cur).unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn eof_at_boundary_is_closed_mid_frame_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg(), None).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(&[] as &[u8])).unwrap_err(), FrameError::Closed);
        for cut in [1, LEN_PREFIX_BYTES - 1, LEN_PREFIX_BYTES, buf.len() - 1] {
            assert_eq!(
                read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err(),
                FrameError::Truncated,
                "cut = {cut}"
            );
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)).unwrap_err(),
            FrameError::TooLarge { declared: MAX_FRAME_BYTES + 1 }
        );
    }

    #[test]
    fn corrupt_body_is_a_wire_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg(), None).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)).unwrap_err(),
            FrameError::Wire(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trace_context_round_trips() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, span_id: 42 };
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &msg(), Some(&ctx)).unwrap();
        assert_eq!(written, buf.len());
        let (back, consumed, got) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, msg());
        assert_eq!(consumed, written);
        assert_eq!(got, Some(ctx));
    }

    #[test]
    fn unextended_frames_are_byte_identical_to_the_old_format() {
        // The old format, built by hand: length prefix, then the wire frame.
        let body = wire::encode(&msg());
        let mut old = (body.len() as u32).to_le_bytes().to_vec();
        old.extend_from_slice(&body);
        let mut plain = Vec::new();
        write_frame(&mut plain, &msg(), None).unwrap();
        assert_eq!(plain, old);
        // And the plain reader sees no context on old-format frames.
        assert_eq!(read_frame(&mut Cursor::new(&plain)).unwrap().2, None);
    }

    #[test]
    fn extended_prefix_reads_as_too_large_to_a_pre_extension_peer() {
        // The interop story with an old decoder: the flag bit lands in the
        // declared length, which then exceeds MAX_FRAME_BYTES — the old
        // peer drops the connection with a typed error, never a desync.
        let ctx = TraceContext { trace_id: 1, span_id: 2 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg(), Some(&ctx)).unwrap();
        let raw = u32::from_le_bytes(buf[..4].try_into().unwrap());
        assert!(raw > MAX_FRAME_BYTES);
    }

    #[test]
    fn unknown_extension_ids_are_skipped() {
        let body = wire::encode(&msg());
        let mut buf = Vec::new();
        let ext: &[u8] = &[
            9,
            2,
            0xAA,
            0xBB,
            EXT_TRACE_CONTEXT,
            17,
            7,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            8,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ];
        let mut payload = vec![ext.len() as u8];
        payload.extend_from_slice(ext);
        payload.extend_from_slice(&body);
        buf.extend_from_slice(&(FLAG_EXTENDED | payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let (back, _, ctx) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, msg());
        assert_eq!(ctx, Some(TraceContext { trace_id: 7, span_id: 8 }));
    }

    #[test]
    fn short_trace_entries_are_ignored_not_errors() {
        let body = wire::encode(&msg());
        let ext: &[u8] = &[EXT_TRACE_CONTEXT, 3, 1, 2, 3];
        let mut payload = vec![ext.len() as u8];
        payload.extend_from_slice(ext);
        payload.extend_from_slice(&body);
        let mut buf = (FLAG_EXTENDED | payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        let (back, _, ctx) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, msg());
        assert_eq!(ctx, None);
    }

    #[test]
    fn overrunning_extension_is_typed() {
        // Entry declares 200 payload bytes inside a 3-byte block.
        let body = wire::encode(&msg());
        let ext: &[u8] = &[EXT_TRACE_CONTEXT, 200, 1];
        let mut payload = vec![ext.len() as u8];
        payload.extend_from_slice(ext);
        payload.extend_from_slice(&body);
        let mut buf = (FLAG_EXTENDED | payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        assert_eq!(read_frame(&mut Cursor::new(&buf)).unwrap_err(), FrameError::BadExtension);
        // A block length overrunning the whole body is equally typed.
        let mut buf = (FLAG_EXTENDED | 1).to_le_bytes().to_vec();
        buf.push(200);
        assert_eq!(read_frame(&mut Cursor::new(&buf)).unwrap_err(), FrameError::BadExtension);
    }

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        let mut buf = Vec::new();
        let ctx = TraceContext { trace_id: 5, span_id: 6 };
        write_frame(&mut buf, &msg(), Some(&ctx)).unwrap();
        write_frame(&mut buf, &Message::Ack { of: 4, info: 1 }, None).unwrap();

        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for &b in &buf {
            asm.push(&[b]);
            while let Some(f) = asm.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, msg());
        assert_eq!(out[0].2, Some(ctx));
        assert_eq!(out[1].0, Message::Ack { of: 4, info: 1 });
        assert!(!asm.has_partial());
        assert_eq!(asm.on_eof(), FrameError::Closed);
    }

    #[test]
    fn assembler_consumes_corrupt_frames_and_stays_synchronized() {
        let mut good = Vec::new();
        write_frame(&mut good, &msg(), None).unwrap();
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;

        let mut asm = FrameAssembler::new();
        asm.push(&bad);
        asm.push(&good);
        assert!(matches!(asm.next_frame().unwrap_err(), FrameError::Wire(_)));
        // The corrupt frame was consumed whole; the next one decodes.
        assert_eq!(asm.next_frame().unwrap().unwrap().0, msg());
        assert_eq!(asm.next_frame().unwrap(), None);
    }

    #[test]
    fn assembler_mid_frame_eof_is_truncated_and_oversize_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg(), None).unwrap();
        let mut asm = FrameAssembler::new();
        asm.push(&buf[..buf.len() - 1]);
        assert_eq!(asm.next_frame().unwrap(), None);
        assert_eq!(asm.on_eof(), FrameError::Truncated);

        let mut asm = FrameAssembler::new();
        asm.push(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert_eq!(
            asm.next_frame().unwrap_err(),
            FrameError::TooLarge { declared: MAX_FRAME_BYTES + 1 }
        );
    }
}
