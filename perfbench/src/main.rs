//! `perfbench` — the serve-path benchmark.
//!
//! One command drives live loopback `cso-serve` roots and relays from a
//! single process, checks every served report against an in-process
//! oracle, and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_clicklog|fanin_flat|srht_tree> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines above it are the same figures as a table. A
//! failed epoch or failed self-check makes the command exit with 1 (after the
//! result line); bad arguments exit with 2. `perfbench/spread.py` runs a
//! workload over several seeds and prints each metric's quartile spread.
//! The self-tests (`cargo test --release --manifest-path
//! perfbench/Cargo.toml`) cover the statistics, the metric tables, the
//! trace artifact and a toy-size run of every workload.
//!
//! # Load model
//!
//! Closed loop. Two client lanes (threads, one per vCPU) each hold at
//! most one connection at a time. Every epoch opens fresh `ServeClient`s,
//! as the protocol does; each leaf sends its sketch and waits for the ack;
//! the epoch's ingest closes when every leaf is acked, then the root is
//! sealed and recovered with budget `k`. Epochs run back to back for the
//! whole run. Leaf sketches are built before anything is timed: that is
//! data-center-side work, not the served system's. Inputs come from
//! `--seed` alone: a pool of distinct epochs per workload (16, 16 and 8),
//! which the timed epochs cycle through. Every server and relay journals
//! with the default `Durability::at` (fsync at each seal) and otherwise
//! runs `ServerConfig::default()`, so a change to the shipped defaults
//! shows.
//!
//! # Workloads
//!
//! Each layer likely to be optimised does most of the work in one
//! workload and little in another, so a gain shows on one and the other
//! predicts no change.
//!
//! - `paper_clicklog` — the paper's own query: the core-search click log
//!   (N = 10,400 keys, L = 8 data centers, ~300 planted outliers), dense
//!   Gaussian Φ0 at M = 500 (where Fig. 9(a) stabilises), k = 20, flat
//!   into one root. Recovery-bound: Φ0 materialisation and dense BOMP do
//!   almost all the work; ingest is 8 frames per epoch.
//! - `fanin_flat` — 1024 leaves flat into one root with small
//!   seeded-sparse sketches (M = 80, N = 2^14, 8 nonzeros per column) and
//!   k = 3, so recovery is a small share. Bound by ingest, journal and
//!   seal: frame decode and CRC, pad claim, a WAL append per sketch, and
//!   the seal's drain and fold over 1024 slots. Its set-up restarts the
//!   root once on the warm-up journal, so WAL replay — the read side of a
//!   layer every timed epoch writes — lands in `setup_s`.
//! - `srht_tree` — N = 2^20 keys with the SRHT operator (M = 1024,
//!   k = 8): 64 leaves send to 4 relays (fan-in 16) that forward to the
//!   root. The same ingest layer with few large frames (8 KB) instead of
//!   many small ones; recovery by matrix-free FWHT instead of dense gemv;
//!   the relay tier's client role (forwarding) beside its server role
//!   (ingesting). The root's inbound bytes shrink by the fan-in.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `sketches_per_s` | 1/s | median over epochs of: leaf sketches acked ÷ the epoch's ingest wall time (while some connection is between its open and its last leaf ack; region seals fall outside) |
//! | `ingest_rtt_us_p50`, `ingest_rtt_us_p90` | us | per-sketch `send_sketch` round trip |
//! | `seal_to_report_ms_p50` | ms | last leaf ack to report in hand; relay seal and forward included on `srht_tree` |
//! | `seal_to_report_ms_tail` | ms | a tail percentile with ≥ 10 epochs beyond it: fixed per workload (p75, p90, p75 — a 30-second run has about 120, 250 and 100 epochs), falling back to the highest of p50/p75/p90/p95/p99/p99.9 that qualifies in a short run; the table line names the percentile and sample count |
//! | `epoch_ms_p50` | ms | first open to report: the analyst's time to answer |
//! | `cpu_ms_per_epoch` | ms | process user+sys CPU (client lanes, servers, relays) over the timed window ÷ timed epochs |
//! | `root_ingress_bytes_per_epoch` | B | bytes arriving at the root (client-lane connections and relay forwards; the lanes' own status polls excluded): the paper's communication cost |
//! | `recall_at_k` | fraction | reported keys ∩ true top-k, over k, averaged over the pool inputs the run served (each served report equals its oracle's bit for bit) |
//! | `ok_epoch_ratio` | fraction | epochs completed with a bit-exact report ÷ epochs attempted |
//! | `setup_s` | s | median over the run's set-ups of: spawning root and relays, the restart and replay, and the warm-up epochs; input generation excluded |
//! | `peak_heap_mb` | MiB | median over epochs of the most heap bytes live at once during the epoch (a counting global allocator; the input pool and the store's retained epochs included) |
//!
//! Every rate and time is a median (or the tail) over the epochs of the
//! window, never a mean: on a shared 2-vCPU host a few descheduled
//! requests, or the journal snapshot every 4096 records, would otherwise
//! move the figure by more than any change under test. A run is
//! `--seconds` long so that it holds about a hundred epochs even on the
//! slowest workload.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run spends half its window untraced and half traced, then
//! times the benchmark's own calls into each module on the pool's inputs.
//! Counters come from `Introspect` deltas over the traced half, merged
//! over root and relays. Layers a workload does not use report 0.
//!
//! | metric | layer | should move | dominant on → predicted flat on |
//! |---|---|---|---|
//! | `client.open_ms` | serve::client `open_with_backend` | `epoch_ms_p50` | `srht_tree` (5 opens per epoch) → — |
//! | `serve.ingest_ns_p50`, `_p90` | serve::server + session dispatch (`serve.ingest_ns`, every data-plane frame) | `ingest_rtt_us_*`, `sketches_per_s` | `fanin_flat` → `paper_clicklog` |
//! | `serve.rtt_overhead_us` | loopback + epoll wake + client (RTT p50 − server p50) | `ingest_rtt_us_p50` | `fanin_flat` → `paper_clicklog` |
//! | `serve.loop_wakeups_per_sketch`, `serve.lockfree_ingest_ratio` | serve::server epoll loop / session `IngestPad` | `sketches_per_s`, `cpu_ms_per_epoch` | `fanin_flat` → `paper_clicklog` |
//! | `frame.encode_us`, `frame.decode_us`, `frame.bytes` | distributed::quantize + serve::frame (`encode_frame`, `FrameAssembler`) | `ingest_rtt_us_p50` | `fanin_flat` (count-bound) vs `srht_tree` (byte-bound) |
//! | `wal.append_us`, `wal.bytes_per_epoch` | serve::wal `Wal::append` on a scratch journal / `serve.wal_bytes` | `sketches_per_s` | `fanin_flat` → `paper_clicklog` |
//! | `wal.replay_ms` | serve::wal replay (the root `spawn` that reads the journal) | `setup_s` | `fanin_flat` → other workloads |
//! | `serve.seal_ms` | serve::session seal (quiesce, drain, fold, compact, journal) | `seal_to_report_ms_p50` | `fanin_flat` → `paper_clicklog` |
//! | `distributed.fold_us` | distributed::fold `dyadic_fold` over the epoch's L sketches | via `serve.seal_ms` | `fanin_flat` → `paper_clicklog` |
//! | `core.materialize_ms`, `core.op_build_us` | core::measurement / ops | `seal_to_report_ms_p50` | `paper_clicklog` → `srht_tree` |
//! | `core.bomp_ms`, `core.bomp_iterations`, `core.bomp_ms_per_iter` | core::bomp/omp + linalg + exec (`bomp_with_matrix` / `bomp_with_op`, `effective_recovery(k)`) | `seal_to_report_ms_p50`, `cpu_ms_per_epoch` | `paper_clicklog`, `srht_tree` → `fanin_flat` |
//! | `serve.recover_ms`, `serve.recover_ns_p50` | serve::session `RecoverJob` (client round trip / `serve.recover_ns`) | `seal_to_report_ms_p50` | `paper_clicklog`, `srht_tree` → `fanin_flat` |
//! | `relay.region_seal_ms`, `relay.forward_ms` | serve::relay (region seal round trip; last region seal ack until root status shows every region) | `seal_to_report_ms_p50` | `srht_tree` → unused on flat |
//! | `relay.upstream_bytes_per_epoch` | serve::relay (`relay.upstream_bytes_sent`) | `root_ingress_bytes_per_epoch` | `srht_tree` |
//! | `core.leaf_apply_ms` | core::ops `apply` on one leaf's dense slice | none served; same FWHT kernel as `srht_tree` recovery | — |
//! | `client.reconnects`, `serve.rejects` | client / server failure counts | `ok_epoch_ratio` | all |
//! | `trace.overhead_ms` | this benchmark's spans (traced − untraced `epoch_ms_p50`) | — | — |
//! | `trace.unattributed_share` | epoch wall time the stage spans leave unexplained | — | — |
//!
//! # Tracing
//!
//! The benchmark keeps its own spans in memory — name, start, end, parent,
//! lane, and an epoch id shared by every span of the epoch — and writes
//! them to `.perfbench-work/trace-<workload>.jsonl` when the run ends,
//! then reads the file back and compares. The client-observed stages
//! (open, ingest, region seal, forward, root seal, recover) along each
//! epoch's critical path must explain the traced epochs' wall time to
//! within [`trace::STAGE_SUM_TOLERANCE`] plus
//! [`trace::STAGE_SUM_SLACK_NS`] per epoch, or the run is not correct.
//!
//! # Host caveats
//!
//! - Sized on a 2-vCPU host: two client lanes, and the servers' worker
//!   threads share the same two cores with them. On that shared host the
//!   same fixed CPU work ran up to a third slower in some 15-second
//!   windows than in others, so whole runs drift by 10–20 %; the time
//!   metrics carry the widest bound (0.25) for that reason.
//! - Journals live under `.perfbench-work/` in the checkout, on whatever
//!   disk holds it, because the benchmark writes nowhere else. The fsync
//!   at each seal and the fsyncs of the journal snapshot (every 4096
//!   records, so every fourth `fanin_flat` epoch) are therefore in the
//!   timed path, with the disk's jitter; a tmpfs journal would take them
//!   out at the cost of writing outside the checkout.
//! - Leaf sketches are prebuilt; the served system never pays for them.
//! - Closed loop only: there is no open-loop rate sweep yet, so latency
//!   under a fixed offered load is not measured.
//!
//! An earlier attempt with four short workloads was too noisy: two runs of
//! the same code differed by 4–7 %, on set-ups of 55 ms to 0.67 s. Hence
//! three workloads of 30-second runs, medians over about a hundred epochs
//! or more, and `setup_s` as the median of five multi-epoch set-ups per
//! run. Keeping the disk out of the timed path, the other lesson, is not
//! possible while the journal stays inside the checkout. The benchmark
//! lives in its own package, outside `crates/bench`.

mod heap;
mod layers;
mod load;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workload;

use load::{set_up, EpochCtx, EpochResult};
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Clock;
use workload::{Inputs, Spec, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Where runs journal and leave their trace, relative to the checkout.
pub const WORK_DIR: &str = ".perfbench-work";

const USAGE: &str =
    "usage: perfbench --workload <paper_clicklog|fanin_flat|srht_tree> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args, &Spec::full(args.workload)) {
        Ok((outcome, notes)) => {
            for (def, value) in &outcome.values {
                println!("{:<34} {:>16.4} {}", def.name, value, def.unit);
            }
            for note in notes {
                println!("# {note}");
            }
            println!("{}", outcome.json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Generates the inputs, sets up, measures, and tears everything down.
/// Returns the result and human-readable notes for the table.
pub fn run(args: &Args, spec: &Spec) -> Result<(Outcome, Vec<String>), String> {
    let clock = Clock::start();
    let inputs = Inputs::generate(spec, args.seed, clock)?;
    let work =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", spec.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, spec, &inputs, clock, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// The run's set-ups: all but the last are torn down again.
struct Prepared {
    topo: load::Topology,
    setup_s: Vec<f64>,
    replay_ms: Vec<f64>,
}

fn prepare(spec: &Spec, inputs: &Inputs, clock: Clock, work: &Path) -> Result<Prepared, String> {
    let (mut setup_s, mut replay_ms) = (Vec::new(), Vec::new());
    for i in 0..spec.setups {
        let dir = work.join(format!("setup-{i}"));
        let setup = set_up(spec, inputs, &dir, clock)?;
        setup_s.push(setup.elapsed.as_secs_f64());
        replay_ms.push(setup.replay.as_secs_f64() * 1e3);
        if i + 1 == spec.setups {
            return Ok(Prepared { topo: setup.topo, setup_s, replay_ms });
        }
        setup.topo.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Err("a run needs at least one set-up".into())
}

/// Runs epochs back to back for `seconds`, numbering them from `*next`.
fn window(ctx: &EpochCtx, next: &mut u64, seconds: f64, traced: bool) -> Vec<EpochResult> {
    let started = Instant::now();
    let mut epochs = Vec::new();
    while epochs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        heap::reset_peak();
        let mut result = ctx.run_epoch(*next, traced);
        result.peak_heap_mib = heap::peak_mib();
        if let Some(err) = &result.error {
            eprintln!("perfbench: epoch {} failed: {err}", result.epoch);
        }
        epochs.push(result);
        *next += 1;
    }
    epochs
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn def(name: &str) -> MetricDef {
    *END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name).expect("metric is in a table")
}

/// Median of `f` over the epochs, 0 when there are none.
fn med(epochs: &[EpochResult], f: impl Fn(&EpochResult) -> f64) -> f64 {
    stats::median(&epochs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn all_ns(epochs: &[EpochResult], f: impl Fn(&EpochResult) -> &[u64], scale: f64) -> Vec<f64> {
    epochs.iter().flat_map(|e| f(e).iter().map(|&v| v as f64 / scale).collect::<Vec<_>>()).collect()
}

fn measure(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    clock: Clock,
    work: &Path,
) -> Result<(Outcome, Vec<String>), String> {
    let prepared = prepare(spec, inputs, clock, work)?;
    let topo = prepared.topo;
    let addrs = topo.addrs();
    let relays = &addrs[1..];
    let ctx = EpochCtx {
        spec,
        inputs,
        topo: &topo,
        clock,
        retry: cso_distributed::RetryPolicy::default(),
    };
    let mut next = spec.warmup_epochs as u64;
    let mut notes = vec![format!(
        "workload {} seed {} window {} s, {} set-ups",
        spec.workload.name(),
        args.seed,
        args.seconds,
        spec.setups
    )];
    let measured = if args.trace {
        let untraced = window(&ctx, &mut next, args.seconds / 2.0, false);
        layers::settle_forwards(relays, next)?;
        let before = layers::snapshots(&addrs)?;
        let traced = window(&ctx, &mut next, args.seconds / 2.0, true);
        layers::settle_forwards(relays, next)?;
        let after = layers::snapshots(&addrs)?;
        topo.shutdown();
        per_layer(
            spec,
            inputs,
            clock,
            work,
            &prepared.replay_ms,
            &untraced,
            &traced,
            &before,
            &after,
            &mut notes,
        )
    } else {
        layers::settle_forwards(relays, next)?;
        let before = layers::snapshots(&addrs)?;
        let cpu0 = sys::cpu_time();
        let epochs = window(&ctx, &mut next, args.seconds, false);
        let cpu = sys::cpu_time() - cpu0;
        layers::settle_forwards(relays, next)?;
        let after = layers::snapshots(&addrs)?;
        topo.shutdown();
        let upstream = layers::merged_delta(&before, &after, 1..addrs.len())
            .counter("relay.upstream_bytes_sent")
            .unwrap_or(0);
        Ok(end_to_end(
            spec,
            inputs,
            &epochs,
            cpu.as_secs_f64() * 1e3,
            upstream,
            &prepared.setup_s,
            &mut notes,
        ))
    };
    measured.map(|outcome| (outcome, notes))
}

fn end_to_end(
    spec: &Spec,
    inputs: &Inputs,
    epochs: &[EpochResult],
    cpu_ms: f64,
    upstream_bytes: u64,
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> Outcome {
    let ok: Vec<&EpochResult> = epochs.iter().filter(|e| e.ok()).collect();
    let attempted = epochs.len() as u64;
    let failed = attempted - ok.len() as u64;
    let sketches: u64 = ok.iter().map(|e| e.sketches).sum();
    let rates: Vec<f64> =
        ok.iter().map(|e| e.sketches as f64 / (e.ingest_ns.max(1) as f64 / 1e9)).collect();
    let rtts_us: Vec<f64> =
        ok.iter().flat_map(|e| e.rtts_ns.iter().map(|&v| v as f64 / 1e3)).collect();
    let seal_to_report: Vec<f64> = ok.iter().map(|e| ms(e.report_ns - e.ingest_end_ns)).collect();
    let epoch_ms: Vec<f64> = ok.iter().map(|e| ms(e.report_ns - e.start_ns)).collect();
    let tail_p = stats::tail_percentile(seal_to_report.len(), spec.tail).unwrap_or(50.0);
    let served = (attempted as usize).min(inputs.epochs.len());
    let first = spec.warmup_epochs;
    let recall = (first..first + served)
        .map(|e| inputs.epochs[e % inputs.epochs.len()].expected.recall)
        .sum::<f64>()
        / served.max(1) as f64;
    let root_bytes: u64 = epochs.iter().map(|e| e.root_bytes).sum::<u64>() + upstream_bytes;
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(0.0);
    notes.push(format!(
        "{attempted} epochs ({failed} failed), {sketches} sketches; seal_to_report_ms_tail is p{tail_p} of {} epochs",
        seal_to_report.len()
    ));
    let values = [
        ("sketches_per_s", pct(&rates, 50.0)),
        ("ingest_rtt_us_p50", pct(&rtts_us, 50.0)),
        ("ingest_rtt_us_p90", pct(&rtts_us, 90.0)),
        ("seal_to_report_ms_p50", pct(&seal_to_report, 50.0)),
        ("seal_to_report_ms_tail", pct(&seal_to_report, tail_p)),
        ("epoch_ms_p50", pct(&epoch_ms, 50.0)),
        ("cpu_ms_per_epoch", cpu_ms / attempted as f64),
        ("root_ingress_bytes_per_epoch", root_bytes as f64 / attempted as f64),
        ("recall_at_k", recall),
        ("ok_epoch_ratio", ok.len() as f64 / attempted as f64),
        ("setup_s", stats::median(setup_s).unwrap_or(0.0)),
        ("peak_heap_mb", pct(&ok.iter().map(|e| e.peak_heap_mib).collect::<Vec<_>>(), 50.0)),
    ];
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values: values.iter().map(|&(name, v)| (def(name), v)).collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &Spec,
    inputs: &Inputs,
    clock: Clock,
    work: &Path,
    replay_ms: &[f64],
    untraced: &[EpochResult],
    traced: &[EpochResult],
    before: &[cso_obs::MetricsSnapshot],
    after: &[cso_obs::MetricsSnapshot],
    notes: &mut Vec<String>,
) -> Result<Outcome, String> {
    let mut spans: Vec<trace::Span> = traced.iter().flat_map(|e| e.spans.iter().cloned()).collect();
    let joins: Vec<(u64, u64)> =
        traced.iter().filter(|e| e.ok()).map(|e| (e.epoch, e.join_ns)).collect();
    let (epoch_ns, attributed_ns) = trace::stage_attribution(&spans, &joins);
    let unattributed = 1.0 - attributed_ns as f64 / epoch_ns.max(1) as f64;
    let allowed = trace::STAGE_SUM_TOLERANCE * epoch_ns as f64
        + (trace::STAGE_SUM_SLACK_NS * joins.len() as u64) as f64;
    let stages_ok = attributed_ns <= epoch_ns && (epoch_ns - attributed_ns) as f64 <= allowed;
    let layer = layers::measure(inputs, clock, &work.join("wal-scratch"), &mut spans)?;
    let path = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", spec.workload.name()));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    let round_trip = trace::read_jsonl(&path)? == spans;

    let all = layers::merged_delta(before, after, 0..after.len());
    let root = layers::merged_delta(before, after, 0..1);
    let relays = layers::merged_delta(before, after, 1..after.len());
    let count = |s: &cso_obs::MetricsSnapshot, name: &str| s.counter(name).unwrap_or(0) as f64;
    let hist = |s: &cso_obs::MetricsSnapshot, name: &str, p: f64| {
        s.histogram(name).and_then(|h| stats::histogram_percentile(h, p)).unwrap_or(0.0)
    };
    let epochs = traced.len() as f64;
    let sketches: u64 = traced.iter().map(|e| e.sketches).sum();
    let rtt_p50_us = stats::median(&all_ns(traced, |e| &e.rtts_ns, 1e3)).unwrap_or(0.0);
    let ingest_p50_ns = hist(&all, "serve.ingest_ns", 50.0);
    let epoch_p50 = |v: &[EpochResult]| med(v, |e| ms(e.report_ns - e.start_ns));
    let failed = traced.iter().chain(untraced).filter(|e| !e.ok()).count() as u64;
    let rejects: u64 = traced.iter().map(|e| e.rejects).sum();
    let reconnects: u64 = traced.iter().map(|e| e.reconnects).sum();
    notes.push(format!(
        "{} untraced + {} traced epochs; {} spans; stages explain {:.2} % of traced epoch time (may leave {} % + {} ms per epoch); artifact {} ({})",
        untraced.len(),
        traced.len(),
        spans.len(),
        100.0 * (1.0 - unattributed),
        100.0 * trace::STAGE_SUM_TOLERANCE,
        ms(trace::STAGE_SUM_SLACK_NS),
        path.display(),
        if round_trip { "read back intact" } else { "READ BACK DIFFERENT" }
    ));
    let values = [
        ("client.open_ms", stats::median(&all_ns(traced, |e| &e.opens_ns, 1e6)).unwrap_or(0.0)),
        ("serve.ingest_ns_p50", ingest_p50_ns),
        ("serve.ingest_ns_p90", hist(&all, "serve.ingest_ns", 90.0)),
        ("serve.rtt_overhead_us", rtt_p50_us - ingest_p50_ns / 1e3),
        (
            "serve.loop_wakeups_per_sketch",
            count(&all, "serve.loop_wakeups") / sketches.max(1) as f64,
        ),
        (
            "serve.lockfree_ingest_ratio",
            count(&all, "serve.shard_lockfree_ingests")
                / count(&all, "serve.sketches_accepted").max(1.0),
        ),
        ("frame.encode_us", layer.frame_encode_us),
        ("frame.decode_us", layer.frame_decode_us),
        ("frame.bytes", layer.frame_bytes),
        ("wal.append_us", layer.wal_append_us),
        ("wal.bytes_per_epoch", count(&all, "serve.wal_bytes") / epochs),
        ("wal.replay_ms", stats::median(replay_ms).unwrap_or(0.0)),
        ("serve.seal_ms", med(traced, |e| ms(e.seal_ns))),
        ("distributed.fold_us", layer.fold_us),
        ("core.materialize_ms", layer.materialize_ms),
        ("core.op_build_us", layer.op_build_us),
        ("core.bomp_ms", layer.bomp_ms),
        ("core.bomp_iterations", layer.bomp_iterations),
        ("core.bomp_ms_per_iter", layer.bomp_ms_per_iter),
        ("serve.recover_ms", med(traced, |e| ms(e.recover_ns))),
        ("serve.recover_ns_p50", hist(&root, "serve.recover_ns", 50.0)),
        (
            "relay.region_seal_ms",
            stats::median(&all_ns(traced, |e| &e.region_seals_ns, 1e6)).unwrap_or(0.0),
        ),
        ("relay.forward_ms", med(traced, |e| ms(e.forward_ns))),
        ("relay.upstream_bytes_per_epoch", count(&relays, "relay.upstream_bytes_sent") / epochs),
        ("core.leaf_apply_ms", layer.leaf_apply_ms),
        ("client.reconnects", reconnects as f64 + count(&relays, "relay.upstream_reconnects")),
        ("serve.rejects", rejects as f64 + count(&all, "serve.conns_rejected_busy")),
        ("trace.overhead_ms", epoch_p50(traced) - epoch_p50(untraced)),
        ("trace.unattributed_share", unattributed),
    ];
    Ok(Outcome {
        correct: failed == 0 && stages_ok && round_trip,
        attempted: (traced.len() + untraced.len()) as u64,
        failed,
        values: values.iter().map(|&(name, v)| (def(name), v)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_parses_and_rejects() {
        let a =
            args(&["--workload", "fanin_flat", "--seed", "3", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a, Args { workload: Workload::FaninFlat, seed: 3, seconds: 10.0, trace: true });
        assert!(args(&["--workload", "nope", "--seed", "3", "--seconds", "10", "--trace", "0"])
            .is_err());
        assert!(args(&[
            "--workload",
            "fanin_flat",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fanin_flat",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "fanin_flat", "--seed", "3", "--seconds", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    /// Every workload at toy size, untraced and traced: every epoch must
    /// match the oracle, every metric must be present and finite.
    #[test]
    fn toy_smoke_of_every_workload() {
        for w in Workload::ALL {
            let spec = Spec::toy(w);
            for trace in [false, true] {
                let a = Args { workload: w, seed: 11, seconds: 0.4, trace };
                let (outcome, notes) =
                    run(&a, &spec).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(outcome.correct, "{} trace={trace}: {notes:?}", w.name());
                assert_eq!(outcome.failed, 0);
                let table = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(outcome.values.len(), table.len());
                for ((def, value), want) in outcome.values.iter().zip(table) {
                    assert_eq!(def.name, want.name);
                    assert!(value.is_finite(), "{} {} = {value}", w.name(), def.name);
                }
                if !trace {
                    let get = |n: &str| outcome.values.iter().find(|(d, _)| d.name == n).unwrap().1;
                    assert_eq!(get("ok_epoch_ratio"), 1.0);
                    for name in [
                        "sketches_per_s",
                        "epoch_ms_p50",
                        "setup_s",
                        "root_ingress_bytes_per_epoch",
                    ] {
                        assert!(get(name) > 0.0, "{} {name}", w.name());
                    }
                }
            }
        }
    }
}
