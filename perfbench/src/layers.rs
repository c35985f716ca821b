//! Per-layer figures measured from outside the program: the benchmark
//! times its own calls into each module's public functions on the pool's
//! real inputs, and reads the counters the servers publish through
//! `Introspect`.

use crate::stats::median;
use crate::trace::{Clock, Span, SpanLog, INPUT_EPOCH_BASE};
use crate::workload::Inputs;
use cso_core::{MeasurementOp, MeasurementSpec, SketchBackend};
use cso_distributed::quantize::{self, SketchEncoding};
use cso_distributed::wire::Message;
use cso_distributed::RetryPolicy;
use cso_obs::MetricsSnapshot;
use cso_serve::session::{Effect, StoreStats};
use cso_serve::{encode_frame, Durability, FrameAssembler, MetricsPoller, Wal, WalRecord};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repeats of the whole-operator calls (materialize, build, leaf apply).
const OPERATOR_REPEATS: usize = 3;

/// Pool inputs whose leaf sketches are pushed through the frame codec and
/// the scratch journal.
const CODEC_INPUTS: usize = 4;

/// Medians of the benchmark's own calls into each layer.
#[derive(Debug)]
pub struct LayerTimes {
    /// `quantize::encode` + `encode_frame` of one leaf sketch, µs.
    pub frame_encode_us: f64,
    /// `FrameAssembler` push + `next_frame` of one leaf frame, µs.
    pub frame_decode_us: f64,
    /// One leaf sketch's frame on the wire, bytes.
    pub frame_bytes: f64,
    /// `Wal::append` of one ingest record, µs.
    pub wal_append_us: f64,
    /// `dyadic_fold` over an epoch's leaves, µs.
    pub fold_us: f64,
    /// `MeasurementSpec::materialize` (dense backend only; else 0), ms.
    pub materialize_ms: f64,
    /// `SketchBackend::build`, µs.
    pub op_build_us: f64,
    /// BOMP over an epoch's folded measurement, ms.
    pub bomp_ms: f64,
    /// Mean BOMP iterations over the pool.
    pub bomp_iterations: f64,
    /// BOMP time per iteration, ms.
    pub bomp_ms_per_iter: f64,
    /// `MeasurementOp::apply` on one leaf's dense slice, ms.
    pub leaf_apply_ms: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Times every layer call on the pool's inputs, recording a span per call
/// under one root span per input. `scratch` holds a throwaway journal.
pub fn measure(
    inputs: &Inputs,
    clock: Clock,
    scratch: &Path,
    spans: &mut Vec<Span>,
) -> Result<LayerTimes, String> {
    let spec = &inputs.spec;
    let (mut encode, mut decode, mut bytes, mut append) = (vec![], vec![], vec![], vec![]);
    let (mut fold, mut bomp, mut per_iter, mut iterations) = (vec![], vec![], vec![], 0.0);
    let (mut materialize, mut build, mut apply) = (vec![], vec![], vec![]);
    let _ = std::fs::remove_dir_all(scratch);
    let mut wal = Wal::open(&Durability::at(scratch)).map_err(|e| e.to_string())?;
    let mut stats = StoreStats::new();
    for (i, input) in inputs.epochs.iter().enumerate() {
        let epoch = INPUT_EPOCH_BASE + i as u64;
        let mut log = SpanLog::new(true, epoch, 0, 1);
        let first = clock.now();
        let fold_span = input.fold;
        let bomp_span = input.bomp;
        log.record("distributed.fold", 1, fold_span.0, fold_span.1);
        log.record("core.bomp", 1, bomp_span.0, bomp_span.1);
        fold.push((fold_span.1 - fold_span.0) as f64 / 1e3);
        bomp.push(ms(bomp_span.1 - bomp_span.0));
        per_iter.push(ms(bomp_span.1 - bomp_span.0) / input.expected.iterations.max(1) as f64);
        iterations += input.expected.iterations as f64 / inputs.epochs.len() as f64;
        if i < CODEC_INPUTS {
            for (node, sketch) in input.sketches.iter().enumerate() {
                let t0 = clock.now();
                let msg = Message::Sketch {
                    node: node as u32,
                    seed: inputs.mseed,
                    payload: quantize::encode(sketch, SketchEncoding::F64),
                };
                let frame = encode_frame(&msg);
                let t1 = clock.now();
                let mut asm = FrameAssembler::new();
                asm.push(&frame);
                let decoded = asm.next_frame().map_err(|e| e.to_string())?;
                let t2 = clock.now();
                if !matches!(decoded, Some((Message::Sketch { .. }, n, _)) if n == frame.len()) {
                    return Err("a leaf frame did not decode to itself".into());
                }
                let record =
                    WalRecord::of_effect(&Effect::Ingested { session: 1, epoch: i as u64 }, &msg)
                        .ok_or("an ingest effect has a journal record")?;
                let t3 = clock.now();
                wal.append(&record, &mut stats);
                let t4 = clock.now();
                log.record("frame.encode", 1, t0, t1);
                log.record("frame.decode", 1, t1, t2);
                log.record("wal.append", 1, t3, t4);
                encode.push((t1 - t0) as f64 / 1e3);
                decode.push((t2 - t1) as f64 / 1e3);
                append.push((t4 - t3) as f64 / 1e3);
                bytes.push(frame.len() as f64);
            }
        }
        if i < OPERATOR_REPEATS {
            if spec.backend == SketchBackend::dense() {
                let t0 = clock.now();
                let phi0 = MeasurementSpec::new(spec.m, spec.n, inputs.mseed)
                    .map_err(|e| e.to_string())?
                    .materialize();
                let t1 = clock.now();
                std::hint::black_box(phi0);
                log.record("core.materialize", 1, t0, t1);
                materialize.push(ms(t1 - t0));
            }
            let t0 = clock.now();
            let op = spec.backend.build(spec.m, spec.n, inputs.mseed).map_err(|e| e.to_string())?;
            let t1 = clock.now();
            let slice = input.leaf0.dense(spec.n);
            let t2 = clock.now();
            let y = op.apply(&slice).map_err(|e| e.to_string())?;
            let t3 = clock.now();
            std::hint::black_box(y);
            log.record("core.op_build", 1, t0, t1);
            log.record("core.leaf_apply", 1, t2, t3);
            build.push((t1 - t0) as f64 / 1e3);
            apply.push(ms(t3 - t2));
        }
        spans.push(Span {
            epoch,
            id: 1,
            parent: 0,
            lane: 0,
            name: "input".into(),
            start_ns: fold_span.0.min(first),
            end_ns: clock.now(),
        });
        spans.extend(log.into_spans());
    }
    if wal.failed() {
        return Err("the scratch journal failed".into());
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(scratch);
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(LayerTimes {
        frame_encode_us: med(&encode),
        frame_decode_us: med(&decode),
        frame_bytes: med(&bytes),
        wal_append_us: med(&append),
        fold_us: med(&fold),
        materialize_ms: med(&materialize),
        op_build_us: med(&build),
        bomp_ms: med(&bomp),
        bomp_iterations: iterations,
        bomp_ms_per_iter: med(&per_iter),
        leaf_apply_ms: med(&apply),
    })
}

/// One `Introspect` snapshot per server, in `addrs` order.
pub fn snapshots(addrs: &[SocketAddr]) -> Result<Vec<MetricsSnapshot>, String> {
    addrs
        .iter()
        .map(|&addr| {
            let mut poller =
                MetricsPoller::connect(addr, &RetryPolicy::default()).map_err(|e| e.to_string())?;
            poller.poll().map_err(|e| e.to_string())
        })
        .collect()
}

/// The activity between two rounds of [`snapshots`], merged over `range`
/// of the servers (0 is the root, relays follow).
pub fn merged_delta(
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    range: std::ops::Range<usize>,
) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    for i in range {
        total.merge(&after[i].delta(&before[i]));
    }
    total
}

/// Waits until every relay has counted `forwards` upstream pushes. A relay
/// bumps its byte counters just after the root acks the push, so this is
/// what makes a window's `relay.*` deltas complete. Gives up quietly after
/// a few seconds (a failed epoch never forwards).
pub fn settle_forwards(relays: &[SocketAddr], forwards: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let done =
            snapshots(relays)?.iter().all(|s| s.counter("relay.forwards").unwrap_or(0) >= forwards);
        if done || Instant::now() > deadline {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
