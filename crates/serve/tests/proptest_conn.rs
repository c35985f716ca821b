//! Connection state-machine property tests (PR 8 satellite).
//!
//! The epoll engine never sees whole frames: the kernel hands each
//! connection's [`FrameAssembler`] whatever bytes happen to be readable —
//! one byte, half a prefix, three frames fused together — and flushes
//! replies through short writes of a per-connection out buffer. These
//! properties pin the reassembly contract under that adversarial
//! delivery: every interleaving yields the same frame sequence, errors
//! stay typed (never a panic, never a fabricated message), a midstream
//! close maps to `Truncated`/`Closed` by exactly where it fell, and two
//! connections' assemblers never bleed into each other.

use cso_distributed::wire::Message;
use cso_serve::{
    write_frame, AssembledFrame, FrameAssembler, FrameError, TraceContext, LEN_PREFIX_BYTES,
};
use proptest::prelude::*;

/// A small message strategy — full variant coverage lives in the wire
/// proptests; here the per-connection reassembly machine is under test.
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
        (0u64..1000, -1e9f64..1e9, prop::collection::vec((0u32..100_000, -1e9f64..1e9), 0..4))
            .prop_map(|(epoch, mode, outliers)| Message::Report { epoch, mode, outliers }),
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

/// Encodes a conversation and records each frame's end offset in the
/// byte stream, so tests can reason about where a cut or flip landed.
fn encode_stream(frames: &[(Message, Option<TraceContext>)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = Vec::new();
    for (msg, ctx) in frames {
        write_frame(&mut bytes, msg, ctx.as_ref()).unwrap();
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Splits `bytes` by cycling through `sizes` — the proptest-shrinkable
/// stand-in for "whatever the kernel delivered per readiness event".
fn chunks<'a>(bytes: &'a [u8], sizes: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < bytes.len() {
        let take = sizes[i % sizes.len()].min(bytes.len() - pos);
        out.push(&bytes[pos..pos + take]);
        pos += take;
        i += 1;
    }
    out
}

/// Drains the assembler the way the server's read loop does: decode
/// errors consume the frame and continue, `TooLarge` poisons the stream
/// (returns `false` — the connection must be dropped).
fn drain(asm: &mut FrameAssembler, out: &mut Vec<Result<AssembledFrame, FrameError>>) -> bool {
    loop {
        match asm.next_frame() {
            Ok(Some(frame)) => out.push(Ok(frame)),
            Ok(None) => return true,
            Err(err @ FrameError::TooLarge { .. }) => {
                out.push(Err(err));
                return false;
            }
            Err(err) => out.push(Err(err)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any partition of the byte stream into read chunks — including one
    /// byte at a time — reassembles the identical frame sequence, and the
    /// stream ends at a clean boundary.
    #[test]
    fn arbitrary_read_interleavings_reassemble_identically(
        frames in prop::collection::vec((arb_message(), arb_ctx()), 1..8),
        sizes in prop::collection::vec(1usize..17, 1..8),
    ) {
        let (bytes, _) = encode_stream(&frames);
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for chunk in chunks(&bytes, &sizes) {
            asm.push(chunk);
            prop_assert!(drain(&mut asm, &mut got));
        }
        prop_assert_eq!(got.len(), frames.len());
        for (res, (msg, ctx)) in got.iter().zip(&frames) {
            let (back, _, got_ctx) = res.as_ref().unwrap();
            prop_assert_eq!(back, msg);
            prop_assert_eq!(got_ctx, ctx);
        }
        prop_assert!(!asm.has_partial());
        prop_assert_eq!(asm.on_eof(), FrameError::Closed);
    }

    /// Exhaustive single-split coverage: a frame stream cut at *every*
    /// byte boundary and delivered as two reads yields the same frames as
    /// one read. (The interleaving property above samples partitions; this
    /// one leaves no split point untested.)
    #[test]
    fn frames_split_at_every_byte_boundary(
        frames in prop::collection::vec((arb_message(), arb_ctx()), 1..4),
    ) {
        let (bytes, _) = encode_stream(&frames);
        for cut in 0..=bytes.len() {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            asm.push(&bytes[..cut]);
            prop_assert!(drain(&mut asm, &mut got));
            asm.push(&bytes[cut..]);
            prop_assert!(drain(&mut asm, &mut got));
            prop_assert_eq!(got.len(), frames.len());
            for (res, (msg, ctx)) in got.iter().zip(&frames) {
                let (back, _, got_ctx) = res.as_ref().unwrap();
                prop_assert_eq!(back, msg);
                prop_assert_eq!(got_ctx, ctx);
            }
            prop_assert_eq!(asm.on_eof(), FrameError::Closed);
        }
    }

    /// A peer that dies midstream yields exactly the frames that landed
    /// whole, and EOF classifies by where the cut fell: `Closed` on a
    /// frame boundary, `Truncated` mid-frame — the signal behind
    /// `serve.conns_died_mid_frame`.
    #[test]
    fn midstream_close_is_typed_by_where_it_fell(
        frames in prop::collection::vec((arb_message(), arb_ctx()), 1..6),
        sizes in prop::collection::vec(1usize..17, 1..8),
        cut_frac in 0.0f64..=1.0,
    ) {
        let (bytes, boundaries) = encode_stream(&frames);
        let cut = ((bytes.len() as f64) * cut_frac).round() as usize;
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for chunk in chunks(&bytes[..cut], &sizes) {
            asm.push(chunk);
            prop_assert!(drain(&mut asm, &mut got));
        }
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();
        prop_assert_eq!(got.len(), whole);
        for (res, (msg, _)) in got.iter().zip(&frames) {
            prop_assert_eq!(&res.as_ref().unwrap().0, msg);
        }
        let at_boundary = cut == 0 || boundaries.contains(&cut);
        let expect = if at_boundary { FrameError::Closed } else { FrameError::Truncated };
        prop_assert_eq!(asm.on_eof(), expect);
    }

    /// The reply path's short writes cannot corrupt framing: the server
    /// queues encoded replies in one out buffer and the kernel accepts an
    /// arbitrary prefix per flush. However the buffer is sliced, the peer
    /// reassembles the identical reply sequence.
    #[test]
    fn short_writes_preserve_reply_frames(
        replies in prop::collection::vec((arb_message(), arb_ctx()), 1..8),
        sizes in prop::collection::vec(1usize..17, 1..8),
    ) {
        let (out_buf, _) = encode_stream(&replies);
        // Simulate partial flushes: each "write" moves one chunk from the
        // out buffer to the peer, exactly like flush_out under WouldBlock.
        let mut peer = FrameAssembler::new();
        let mut got = Vec::new();
        let mut pending = out_buf.as_slice();
        let mut i = 0;
        while !pending.is_empty() {
            let wrote = sizes[i % sizes.len()].min(pending.len());
            peer.push(&pending[..wrote]);
            pending = &pending[wrote..];
            i += 1;
            prop_assert!(drain(&mut peer, &mut got));
        }
        prop_assert_eq!(got.len(), replies.len());
        for (res, (msg, ctx)) in got.iter().zip(&replies) {
            let (back, _, got_ctx) = res.as_ref().unwrap();
            prop_assert_eq!(back, msg);
            prop_assert_eq!(got_ctx, ctx);
        }
    }

    /// A flipped byte behind an intact prefix is contained to its own
    /// frame: the damaged frame surfaces as a typed decode error (or, for
    /// flips in the unsealed extension block, a clean decode of the same
    /// message), is consumed, and every other frame on the stream decodes
    /// bit-exactly — the resync behind `Reject{CorruptFrame}`.
    #[test]
    fn corruption_is_contained_to_one_frame(
        frames in prop::collection::vec((arb_message(), arb_ctx()), 1..6),
        sizes in prop::collection::vec(1usize..17, 1..8),
        victim_sel in 0usize..1024,
        offset_sel in 0usize..65536,
        bit in 0u8..8,
    ) {
        let (mut bytes, boundaries) = encode_stream(&frames);
        let victim = victim_sel % frames.len();
        let start = if victim == 0 { 0 } else { boundaries[victim - 1] };
        let end = boundaries[victim];
        // Flip strictly inside the body: the length prefix stays honest,
        // so the stream stays framed.
        let body = start + LEN_PREFIX_BYTES..end;
        prop_assume!(!body.is_empty());
        let at = body.start + offset_sel % body.len();
        bytes[at] ^= 1 << bit;

        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for chunk in chunks(&bytes, &sizes) {
            asm.push(chunk);
            prop_assert!(drain(&mut asm, &mut got));
        }
        prop_assert_eq!(got.len(), frames.len());
        for (i, (res, (msg, ctx))) in got.iter().zip(&frames).enumerate() {
            match res {
                Ok((back, _, got_ctx)) => {
                    prop_assert_eq!(back, msg);
                    if i != victim {
                        prop_assert_eq!(got_ctx, ctx);
                    }
                }
                Err(FrameError::Wire(_)) | Err(FrameError::BadExtension) => {
                    prop_assert_eq!(i, victim);
                }
                Err(other) => prop_assert!(false, "untyped outcome: {other:?}"),
            }
        }
        prop_assert_eq!(asm.on_eof(), FrameError::Closed);
    }

    /// Two connections' assemblers share nothing: however their reads
    /// interleave in time, each reassembles exactly its own conversation.
    #[test]
    fn no_cross_connection_bleed(
        frames_a in prop::collection::vec((arb_message(), arb_ctx()), 1..5),
        frames_b in prop::collection::vec((arb_message(), arb_ctx()), 1..5),
        sizes in prop::collection::vec(1usize..17, 1..8),
        schedule in prop::collection::vec(0u8..2, 1..32),
    ) {
        let (bytes_a, _) = encode_stream(&frames_a);
        let (bytes_b, _) = encode_stream(&frames_b);
        let mut chunks_a = chunks(&bytes_a, &sizes).into_iter();
        let mut chunks_b = chunks(&bytes_b, &sizes).into_iter();
        let mut asm_a = FrameAssembler::new();
        let mut asm_b = FrameAssembler::new();
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        // Interleave deliveries per the schedule, then drain stragglers.
        let mut pick = schedule.into_iter().cycle();
        loop {
            let (asm, iter, got) = if pick.next().unwrap() == 1 {
                (&mut asm_a, &mut chunks_a, &mut got_a)
            } else {
                (&mut asm_b, &mut chunks_b, &mut got_b)
            };
            match iter.next() {
                Some(chunk) => {
                    asm.push(chunk);
                    prop_assert!(drain(asm, got));
                }
                None => {
                    for chunk in chunks_a.by_ref() {
                        asm_a.push(chunk);
                        prop_assert!(drain(&mut asm_a, &mut got_a));
                    }
                    for chunk in chunks_b.by_ref() {
                        asm_b.push(chunk);
                        prop_assert!(drain(&mut asm_b, &mut got_b));
                    }
                    break;
                }
            }
        }
        for (got, frames) in [(&got_a, &frames_a), (&got_b, &frames_b)] {
            prop_assert_eq!(got.len(), frames.len());
            for (res, (msg, ctx)) in got.iter().zip(frames.iter()) {
                let (back, _, got_ctx) = res.as_ref().unwrap();
                prop_assert_eq!(back, msg);
                prop_assert_eq!(got_ctx, ctx);
            }
        }
    }

    /// Arbitrary garbage fed in arbitrary chunks never panics and never
    /// fabricates a message silently: every outcome is a typed result,
    /// and a hostile length prefix past the cap poisons the stream as
    /// `TooLarge` before any allocation.
    #[test]
    fn arbitrary_garbage_is_typed_never_panics(
        garbage in prop::collection::vec(0u8..=255, 0..512),
        sizes in prop::collection::vec(1usize..17, 1..8),
    ) {
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut live = true;
        for chunk in chunks(&garbage, &sizes) {
            if !live {
                break;
            }
            asm.push(chunk);
            live = drain(&mut asm, &mut got);
        }
        // Nothing to assert about *which* typed results came out — only
        // that each is typed (drain already unwraps nothing) and that the
        // assembler still classifies EOF without panicking.
        let _ = asm.on_eof();
    }
}
