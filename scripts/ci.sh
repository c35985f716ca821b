#!/usr/bin/env bash
# CI gate for the workspace. Mirrors what a reviewer runs by hand:
#
#   1. formatting (rustfmt.toml is the single source of style)
#   2. release build of every crate
#   3. the full default test suite
#   4. the heavier fault-injection sweeps (feature-gated off by default),
#      plus the lazy degraded-collector fold and sliced CRC-32 oracles and
#      the collector's one-entry-per-node listing
#   5. a warnings-clean check over all targets, fault-injection included,
#      a clippy-clean check over all targets, no `fn *_traced` twin in
#      any crate, no executor, trace-context or backend twin of the
#      mapreduce engine and CS job, the frame codec or the client open
#      (`map_reduce_exec`, `map_reduce_with_combiner*`, `run_cs_job_exec`,
#      `read_frame_ctx`, `write_frame_ctx`, `ServeClient::open`), no
#      session-store shard
#      routing back in cso-serve, no second member table beside an
#      ingesting epoch's pad, no per-recover `bomp(&spec, ..)`
#      materialization in cso-serve (the root keeps its operators), no
#      `Engine`/`SharedOp` dense twin of cso-core's `ResidentOp` in
#      cso-distributed or cso-serve, and no `check_open` validator beside
#      the store's one mutation body nor a stored `phase` beside the
#      epoch state that implies it in cso-serve's session.rs, no insert
#      into or removal from the store's session and epoch maps outside
#      `SessionStore::apply` (admission evicts through `Evict` records),
#      no pad pause barrier (`pause_pads`, `resume_pads`, a `paused`
#      field) in cso-serve (a snapshot's cut is the journal rotation),
#      and no second OMP refresh pass (`shift_and_select_all`, a `qt_phi`
#      buffer) beside the one-section scan in cso-core's omp.rs
#   6. a warnings-clean rustdoc build (broken intra-doc links fail CI)
#   7. a fast smoke of the fault sweep bench path
#   8. the observability smoke: obs_report must emit a RunReport that
#      parses as strict JSON with every required top-level key
#   9. the scaling smoke: the parallel-executor sweep must run and write
#      a valid BENCH_pr3.json
#  10. the recovery-kernel smoke: the fused-vs-naive kernel sweep must run
#      and write a valid BENCH_pr4.json
#  11. the serving smoke: the loopback server e2e tests must pass and the
#      serve_throughput sweep must run and write a valid BENCH_pr5.json
#  12. the durability smoke: the kill-9 crash harness, the torn-tail
#      WAL fuzz and the snapshot/replay unit tests (snapshots are
#      compacted journals replayed by one body; hostile snapshots and
#      lone seals are typed errors; duplicates reset alike on every
#      restart path; a store filled to its caps reloads whole under
#      lowered caps; a refused open at a full store evicts nothing; each
#      unreadable segment header is its typed SegmentFault; a version 4
#      segment or snapshot still replays; admission's evictions are
#      journaled, so a reused evicted id restarts as the live store and
#      a refused open leaves no empty session; a random live store under
#      small caps restarts from its journal byte for byte; a rotation
#      fsyncs the segment it leaves; a claim straddling a snapshot's
#      rotation cut restores once; a stale snapshot temp file is deleted
#      at open, and a kill-9 between its write and rename recovers)
#      and the snapshot decoder fuzz (bit flips, hostile record lengths,
#      a wrong record count, a seal whose m disagrees with its body: all
#      typed errors) must pass, and the fsync-policy sweep must run and
#      write a valid BENCH_pr6.json
#  13. the telemetry smoke: the live-introspection e2e and the frame
#      extension fuzz must pass, cso-top must render against its own
#      server, and the overhead sweep must write a valid BENCH_pr7.json
#  14. the event-loop smoke: the connection reassembly fuzz must
#      pass, the serve_sharded sweep (fast) must run its scaling points
#      plus the overload soak (Busy rejects under a tiny admission cap, the
#      server stays live after the storm), and every reject code and
#      serve.* metric OPERATIONS.md documents must exist in source
#  15. the measurement-operator smoke: the operator proptests (FWHT
#      involution, sparse≡dense sketch bit-identity, descriptor wire
#      round-trips) must pass, the FWHT kernel and the split recovery
#      scan must be bit-identical to the textbook loop and across worker
#      counts in an optimized build (radix-4/16, AVX2, every n up to
#      2^20; SRHT transpose, op-path OMP/BOMP and spec-vs-matrix BOMP),
#      the loopback e2e must be bit-identical under every
#      wire-addressable backend, the root's operator cache must keep the
#      bits of a fresh recovery (cold, warm, displaced, concurrent),
#      cso-core's `resident_op_*` tests must keep a kept operator's sketch
#      and recoveries equal to the one-shot paths (cold, warm, either
#      worker count first, a bad measurement leaving the bias column
#      uncomputed), the dense recovery must keep its golden bits at the
#      paper_clicklog geometry and record one exec section per refresh in
#      an optimized build, and the fast 3-backend sweep must run without
#      touching the recorded artifacts
#  16. the relay-tier smoke: the two-level loopback e2e (flat-vs-tree
#      bit-identity, whole-region drop degrading to subtree recovery,
#      cross-DC byte accounting, typed manifest rejects), the relay
#      kill-9 resume and the relay admission test (sealed, forwarded
#      epochs and sessions evictable, unforwarded ones never) must pass,
#      the topology fold proptests must
#      hold, and the tree_topology sweep must run and write a valid
#      BENCH_pr10.json
#  17. the seal-cost smoke: the serve benchmark's own self-tests must
#      pass, and so must the lazy-fold property test (lazy aggregator vs
#      an eager reference model, bit for bit), the chunked ingest-pad
#      tests, the per-epoch node-id bound tests and the 1024-node seal
#      bit-identity tests (live dispatch, snapshot round trip, WAL replay)
#
# Any step failing fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/17] cargo fmt --check"
cargo fmt --all --check

echo "==> [2/17] release build"
cargo build --release --workspace

echo "==> [3/17] workspace tests"
cargo test -q --workspace

echo "==> [4/17] fault-injection sweeps"
cargo test -q -p cso-distributed --features fault-injection
# The lazily folded degraded collector and the CRC-32 (as dispatched, and
# its folding kernel and sliced loop each called directly), each against
# its reference (a fresh fold per offer; the byte-at-a-time loop), and the
# collector listing a node offered under two seeds once.
cargo test -q -p cso-distributed --lib -- collector_sum_matches sliced_crc32 \
    folded_and_sliced_crc32 collector_lists_a_two_seed_node_once

echo "==> [5/17] warnings-clean (all targets, fault-injection on)"
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets --features fault-injection
cargo clippy --workspace --all-targets -- -D warnings
# The recorder rides in OmpConfig::rec / CsProtocol::rec or is an
# argument: no traced twins in any crate.
if grep -rnE "fn [a-z_]+_traced\b" crates/*/src; then
    echo "a *_traced twin is back; pass the recorder in the config instead"
    exit 1
fi
# One entry point per operation: the executor, recorder, trace context and
# backend are arguments of map_reduce, run_cs_job, read_frame/write_frame
# and ServeClient::open_with_backend, not defaults of a forwarding twin.
if grep -rnE "fn (map_reduce_exec|map_reduce_with_combiner|run_cs_job_exec|read_frame_ctx|write_frame_ctx)\b" crates/*/src \
    || grep -nE "pub fn open\(" crates/serve/src/client.rs; then
    echo "a forwarding twin is back; pass the executor, recorder, context or backend instead"
    exit 1
fi
# One session store behind one lock: no shard split, merge or routing.
if grep -rnE "split_by_session|merged_snapshot_bytes|shard_index|shard_mask" crates/serve/src; then
    echo "session-store sharding is back; the server holds one store"
    exit 1
fi
# An ingesting epoch is its pad: no aggregator map, drain or pre-marking.
if grep -rnE "SketchAggregator|drain_into|SLOT_DRAINED|pause_and_drain_pads" crates/serve/src; then
    echo "a second member table is back; an ingesting epoch's members live in its pad"
    exit 1
fi
# The root keeps its operator: recovery runs on the cached Φ0 or operator.
if grep -rnE "bomp\(&spec" crates/serve/src; then
    echo "a per-recover Φ0 materialization is back; recover through the operator cache"
    exit 1
fi
# One recovery engine: cso-core's ResidentOp keeps Φ0 (or the operator) and φ0.
if grep -rnE "enum (Engine|SharedOp)\b" crates/distributed/src crates/serve/src; then
    echo "a dense/matrix-free recovery twin is back; keep the operator as a cso_core::ResidentOp"
    exit 1
fi
# One mutation body: the live open applies its record through it, and an
# epoch's phase is read off its state.
if grep -nE "fn check_open\b|^\s+phase: EpochPhase," crates/serve/src/session.rs; then
    echo "a second open validator or a stored phase is back; apply through SessionStore::apply"
    exit 1
fi
# One mutation path: outside SessionStore::apply (and the test module),
# nothing inserts into or removes from the store's session and epoch maps.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^    pub\(crate\) fn apply\(/ { inside = 1 }
        !inside { print FILENAME ":" FNR ": " $0 }
        inside && /^    }$/ { inside = 0 }' crates/serve/src/session.rs \
    | grep -E "\b(sessions|epochs)\s*\.\s*(insert|remove|entry)\("; then
    echo "a second store mutation path is back; evict through SessionStore::apply"
    exit 1
fi
# The snapshot's cut is the journal rotation: no pad pause barrier.
if grep -rnE "pause_pads|resume_pads|\bpaused\s*:" crates/serve/src; then
    echo "a pad pause barrier is back; a snapshot cuts at the journal rotation"
    exit 1
fi
# One pool section per OMP pick: block tasks scan, update and select.
if grep -nE "shift_and_select_all|qt_phi" crates/core/src/omp.rs; then
    echo "a second refresh pass is back; update and select inside OmpDictionary::scan"
    exit 1
fi

echo "==> [6/17] rustdoc warnings-clean"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> [7/17] fault sweep smoke"
cargo test -q -p cso-bench faults::

echo "==> [8/17] observability smoke (obs_report)"
# The binary self-validates: strict JSON parse of the emitted report,
# required REPORT_KEYS present, comm.* metrics equal to the CostMeter
# totals, per-iteration BOMP events present. Any violation aborts.
cargo run --release -q -p cso-bench --bin obs_report -- 2
for artifact in results/run_report.jsonl BENCH_pr2.json; do
    test -s "$artifact" || { echo "missing $artifact"; exit 1; }
done

echo "==> [9/17] scaling smoke (parallel executor sweep)"
# The sweep self-validates its JSON before writing; the sequential
# reference and every worker count run the same deterministic workload.
cargo run --release -q -p cso-bench --bin figures -- scaling
test -s BENCH_pr3.json || { echo "missing BENCH_pr3.json"; exit 1; }

echo "==> [10/17] recovery-kernel smoke (fused OMP sweep)"
# Fast mode: small dictionaries, same naive-vs-fused measurement as the
# full sweep, but it leaves the recorded full-sweep artifacts alone —
# BENCH_pr4.json is regenerated only by a full `figures -- recovery` run.
cargo run --release -q -p cso-bench --bin figures -- recovery --fast
test -s BENCH_pr4.json || { echo "missing BENCH_pr4.json"; exit 1; }

echo "==> [11/17] serving smoke (loopback server e2e + throughput sweep)"
# The e2e tests assert bit-identity between the loopback server run and
# the in-process wire path, plus fault injection (killed connections,
# corrupt frames, stragglers). The sweep self-validates its JSON.
cargo test -q -p cso-serve --test loopback
cargo run --release -q -p cso-bench --bin figures -- serve_throughput
for artifact in results/serve.csv BENCH_pr5.json; do
    test -s "$artifact" || { echo "missing $artifact"; exit 1; }
done

echo "==> [12/17] durability smoke (kill-9 crash harness + WAL fuzz + fsync sweep)"
# The crash harness SIGKILLs a child-process server at every seeded
# injection point (and at arbitrary times) and requires the resumed run
# to be bit-identical to a never-crashed one; the WAL fuzz truncates and
# bit-flips journal tails at every offset expecting only typed outcomes;
# the snapshot fuzz damages a live store's snapshot the same way; the
# admission proptest restarts random live stores under small caps from
# their journals, and the evicted-id tests pin the same for id reuse.
cargo test -q -p cso-serve --test crash
cargo test -q -p cso-serve --test proptest_wal
cargo test -q -p cso-serve --test proptest_snapshot
cargo test -q -p cso-serve --test proptest_admission
cargo test -q -p cso-serve --lib -- snapshot replay a_refused_open_at_a_full_store
cargo test -q -p cso-serve --lib -- bad_segment_reasons_are_typed rotation_syncs
cargo test -q -p cso-serve --lib -- evicted_id_reuse refused_opens_of_new_sessions
cargo run --release -q -p cso-bench --bin figures -- serve_durable
for artifact in results/serve_durable.csv BENCH_pr6.json; do
    test -s "$artifact" || { echo "missing $artifact"; exit 1; }
done

echo "==> [13/17] telemetry smoke (introspection e2e + cso-top + overhead sweep)"
# The e2e polls Introspect throughout a live ingest sweep asserting
# monotone counters, bit-identical recovery under observation, and a
# parseable flight-recorder dump; the frame fuzz hardens the trace
# context extension; cso-top renders the live view against its own
# loopback server; the sweep quantifies telemetry overhead.
cargo test -q -p cso-serve --test telemetry
cargo test -q -p cso-serve --test proptest_frame
cargo run --release -q -p cso-bench --bin cso-top -- --self-test
cargo run --release -q -p cso-bench --bin figures -- serve_telemetry
for artifact in results/serve_telemetry.csv BENCH_pr7.json; do
    test -s "$artifact" || { echo "missing $artifact"; exit 1; }
done

echo "==> [14/17] event-loop smoke (reassembly fuzz + sweep + docs-link check)"
# The reassembly fuzz drives frames through every split point and
# arbitrary read/write interleavings expecting typed outcomes only; the
# fast sweep runs the scaling points and the overload soak, which
# asserts Busy rejects appear under a tiny admission cap and that a
# control client can still open/seal/recover afterwards.
cargo test -q -p cso-serve --test proptest_conn
cargo test -q -p cso-bench serve_sharded_smoke
# The operator runbook must not drift from the code: every `serve.*`
# and `relay.*` metric name and every reject code it documents has to
# exist verbatim in crate source.
grep -oE '(serve|relay)\.[a-z_]+' OPERATIONS.md | sort -u | while read -r metric; do
    grep -rqF "\"$metric\"" crates/ \
        || { echo "OPERATIONS.md documents unknown metric $metric"; exit 1; }
done
grep -oE '^\| [0-9]+ \| `[A-Za-z]+`' OPERATIONS.md | grep -oE '[A-Za-z]+`' \
    | tr -d '`' | sort -u | while read -r code; do
    grep -qE "^    $code = [0-9]+,$" crates/serve/src/session.rs \
        || { echo "OPERATIONS.md documents unknown reject code $code"; exit 1; }
done

echo "==> [15/17] measurement-operator smoke (proptests + 3-backend sweep)"
# The operator fuzz pins the FWHT involution, sparse/dense sketch
# bit-identity and descriptor wire round-trips per backend; the release
# bit-identity groups pin the radix-4/16 and AVX2 FWHT to the textbook
# loop and every split scan to its one-worker result; the loopback
# e2e re-runs the protocol bit-identically under every wire-addressable
# operator; the fast sweep times dense vs SRHT vs seeded-sparse without
# touching the recorded full-scale artifacts (BENCH_pr9.json is
# regenerated only by a full `figures -- recovery_ops` run). The NaN-atom
# test pins the fused and reference kernels to one selection rule; the
# non-finite tests pin the typed rejects of a NaN/Inf measurement in BOMP,
# of a NaN/Inf sketch on both live ingest paths and of an overflowed fold
# before the operator cache; the op_cache tests pin the cached recovery to
# a fresh one, bit for bit, on every backend, and the resident_op tests
# pin cso-core's kept operator and bias column to the one-shot paths.
# The golden-bits test pins a dense recovery at the paper_clicklog
# geometry (D = 10,401, bias first) to bits computed under the old
# 2048-column schedule, at 1, 2 and 8 workers; the exec-stats test
# checks a traced 2-worker BOMP records one scan section per refresh.
cargo test -q -p cso-core --test proptest_ops
cargo test -q --release -p cso-linalg --lib fwht::
cargo test -q --release -p cso-core --lib bit_identical
cargo test -q --release -p cso-core --lib nan_atom
cargo test -q -p cso-core --lib non_finite
cargo test -q -p cso-serve --lib non_finite
cargo test -q -p cso-serve --lib op_cache_
cargo test -q -p cso-core --lib resident_op
cargo test -q --release -p cso-core --test golden_bits
cargo test -q --release -p cso-core --lib exec_stats_record_one_section_per_refresh
cargo test -q -p cso-serve --test loopback loopback_run_is_bit_identical_for_every_operator_backend
cargo run --release -q -p cso-bench --bin figures -- recovery_ops --fast

echo "==> [16/17] relay-tier smoke (two-level e2e + kill-9 resume + topology proptests + sweep)"
# The e2e runs a real two-level tree over loopback sockets: the root's
# recovery must be bit-identical to the flat topology, a whole-region
# drop must degrade to the surviving subtrees exactly, and conflicting
# manifests must draw the typed rejects. The crash test SIGKILLs a leaf
# relay mid-forward and requires the resumed tree to recover the same
# bits without double-counting the region. The proptests generalize the
# fold composition/degradation laws to arbitrary shapes. The sweep
# reruns flat-vs-tree across fan-ins and regenerates BENCH_pr10.json.
cargo test -q -p cso-serve --test relay
cargo test -q -p cso-serve --test crash relay_kill9_mid_forward_resumes_without_double_count
cargo test -q -p cso-serve --lib a_relay_evicts_its_forwarded_epochs_and_sessions
cargo test -q -p cso-distributed --test proptest_topology
cargo run --release -q -p cso-bench --bin figures -- tree_topology
for artifact in results/tree_topology.csv BENCH_pr10.json; do
    test -s "$artifact" || { echo "missing $artifact"; exit 1; }
done

echo "==> [17/17] seal-cost smoke (benchmark self-tests + lazy fold + chunked pad + node bound + 1024-node seal)"
# The benchmark package is its own workspace; its tests check the metric
# tables against BENCHMARK.json, the workload generators, and a toy-sized
# run of every workload.
# The lazy aggregator must match the eager (fold-on-every-join) model bit
# for bit and error for error; the pad tests pin chunk edges, first wins
# across the locked and lock-free paths, snapshots across a fresh
# chunk, racing first claims, claims racing snapshots and the seal,
# and the memory bound; the node-id bound tests pin the typed
# `NodeOutOfRange` on the locked path, the pad and replay; the 1024-node
# tests pin the sealed measurement to the flat dyadic fold on every path.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q -p cso-distributed --lib lazy_fold
cargo test -q -p cso-serve --lib pad_
cargo test -q -p cso-serve --lib node_ids_
cargo test -q -p cso-serve --lib seal_1024

echo "ci: all green"
