//! Frame-extension hardening property tests (PR 7 satellite).
//!
//! The trace-context extension rides *outside* the wire frame's CRC, so
//! the framing layer's own contract must hold for arbitrary bytes: any
//! truncation or bit flip of an extended frame yields a typed
//! [`FrameError`] or a clean decode of the identical message — never a
//! panic, never a fabricated message — and old-format and extended frames
//! interoperate both ways on one stream.

use cso_distributed::wire::{self, Message};
use cso_serve::{
    read_frame, write_frame, FrameError, TraceContext, EXT_TRACE_CONTEXT, LEN_PREFIX_BYTES,
};
use proptest::prelude::*;
use std::io::Cursor;

/// A small message strategy: full variant coverage lives in the wire
/// proptests; here the frame layer is under test.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            (0u64..u64::MAX, 0u64..1000, 0u32..100_000, 0u64..u64::MAX, 0u64..u64::MAX),
            0u8..4,
            0u64..64
        )
            .prop_map(|((session, epoch, m, n, seed), op_kind, op_param)| {
                Message::OpenEpoch { session, epoch, m, n, seed, op_kind, op_param }
            }),
        (0u8..255, 0u64..u64::MAX).prop_map(|(of, info)| Message::Ack { of, info }),
        (0u64..u64::MAX, 0u64..1000)
            .prop_map(|(session, epoch)| Message::SealEpoch { session, epoch }),
        Just(Message::Introspect),
    ]
}

fn arb_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        Just(None),
        (0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(trace_id, span_id)| Some(TraceContext { trace_id, span_id })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A stream mixing extended and plain frames stays synchronized: every
    /// frame reads back with its own message and context, old readers and
    /// new writers (and vice versa) agreeing on the message bytes.
    #[test]
    fn mixed_streams_round_trip(
        frames in prop::collection::vec((arb_message(), arb_ctx()), 1..8)
    ) {
        let mut buf = Vec::new();
        for (msg, ctx) in &frames {
            write_frame(&mut buf, msg, ctx.as_ref()).unwrap();
        }
        let mut cur = Cursor::new(&buf);
        for (msg, ctx) in &frames {
            let (back, _, got) = read_frame(&mut cur).unwrap();
            prop_assert_eq!(&back, msg);
            prop_assert_eq!(&got, ctx);
        }
        prop_assert_eq!(read_frame(&mut cur).unwrap_err(), FrameError::Closed);

        // Interop both ways on the plain subset: frames written by the old
        // writer parse under the new reader with no context, and frames the
        // new writer emits without a context parse under the old reader.
        let (msg, _) = &frames[0];
        let body = wire::encode(msg);
        let mut old = (body.len() as u32).to_le_bytes().to_vec();
        old.extend_from_slice(&body);
        let mut new = Vec::new();
        write_frame(&mut new, msg, None).unwrap();
        prop_assert_eq!(&old, &new);
        prop_assert_eq!(&read_frame(&mut Cursor::new(&new)).unwrap().0, msg);
    }

    /// Every strict prefix of an extended frame fails with a typed error —
    /// `Closed` at the empty boundary, `Truncated` elsewhere — and never
    /// yields a message.
    #[test]
    fn truncated_extended_frames_are_typed(
        msg in arb_message(),
        trace_id in 0u64..u64::MAX,
        span_id in 0u64..u64::MAX,
        cut_fraction in 0.0f64..1.0,
    ) {
        let ctx = TraceContext { trace_id, span_id };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg, Some(&ctx)).unwrap();
        let cut = ((buf.len() - 1) as f64 * cut_fraction) as usize;
        let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
        if cut == 0 {
            prop_assert_eq!(err, FrameError::Closed);
        } else {
            prop_assert_eq!(err, FrameError::Truncated, "cut = {}", cut);
        }
    }

    /// Any single flipped bit anywhere in an extended frame either fails
    /// with a typed error or decodes the *identical* message (a flip in
    /// the extension block can at most alter the trace context — the CRC
    /// still guards the message itself).
    #[test]
    fn bit_flipped_extended_frames_never_panic_or_corrupt(
        msg in arb_message(),
        trace_id in 0u64..u64::MAX,
        span_id in 0u64..u64::MAX,
        pick in 0u64..u64::MAX,
    ) {
        let ctx = TraceContext { trace_id, span_id };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg, Some(&ctx)).unwrap();
        let bit = (pick % (buf.len() as u64 * 8)) as usize;
        buf[bit / 8] ^= 1 << (bit % 8);
        match read_frame(&mut Cursor::new(&buf)) {
            Ok((back, _, _)) => prop_assert_eq!(back, msg),
            Err(
                FrameError::Truncated
                | FrameError::TooLarge { .. }
                | FrameError::BadExtension
                | FrameError::Wire(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {:?}", other),
        }
    }

    /// Unknown extension ids — arbitrary ids with arbitrary payloads — are
    /// skipped cleanly; the message and any well-formed trace entry still
    /// come through.
    #[test]
    fn unknown_extensions_are_ignored(
        msg in arb_message(),
        entries in prop::collection::vec(
            (2u8..=255, prop::collection::vec(0u8..=255, 0..20)),
            0..5,
        ),
        ctx_last_bit in 0u8..2,
        trace_id in 0u64..u64::MAX,
        span_id in 0u64..u64::MAX,
    ) {
        let mut ext = Vec::new();
        for (id, payload) in &entries {
            ext.push(*id);
            ext.push(payload.len() as u8);
            ext.extend_from_slice(payload);
        }
        let ctx_last = ctx_last_bit == 1;
        if ctx_last {
            ext.push(EXT_TRACE_CONTEXT);
            ext.push(17);
            ext.extend_from_slice(&trace_id.to_le_bytes());
            ext.extend_from_slice(&span_id.to_le_bytes());
            ext.push(0);
        }
        prop_assume!(ext.len() <= 255);
        let body = wire::encode(&msg);
        let mut buf = Vec::new();
        let total = (1 + ext.len() + body.len()) as u32;
        buf.extend_from_slice(&(total | (1 << 31)).to_le_bytes());
        buf.push(ext.len() as u8);
        buf.extend_from_slice(&ext);
        buf.extend_from_slice(&body);
        let (back, consumed, got) = read_frame(&mut Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(consumed, LEN_PREFIX_BYTES + total as usize);
        let want = ctx_last.then_some(TraceContext { trace_id, span_id });
        prop_assert_eq!(got, want);
    }
}
