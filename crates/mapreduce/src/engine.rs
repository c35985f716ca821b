//! A small deterministic MapReduce runtime.
//!
//! This is the executable counterpart to the analytic time model: real
//! mappers and reducers run over real records in one process, with
//! counters tracking exactly the quantities the model prices (map-output
//! records, shuffle bytes). The CS job and the traditional top-k job
//! (`crate::jobs`) are both expressed against this engine, mirroring the
//! paper's Algorithms 3 (CS-Mapper) and 4 (CS-Reducer).
//!
//! ## Value-ordering contract
//!
//! The reducer for a key `k` receives its values in **(task index,
//! emission order)** order: all of task 0's combined values for `k` first
//! (in the order task 0 emitted them), then task 1's, and so on. Keys
//! themselves arrive in sorted order. This contract is what makes
//! floating-point reductions (`values.iter().sum()`) bit-reproducible,
//! and the parallel engine preserves it exactly: map+combine tasks run on
//! worker threads, but their outputs are merged **sequentially in task
//! order** ([`map_reduce`]), so parallel output is bit-identical to the
//! sequential run (tested, and proptested at the protocol level).

use cso_exec::ExecConfig;
use cso_obs::{Recorder, Value};
use std::collections::BTreeMap;

/// Counters collected while a job runs — the simulator's "Hadoop UI".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounters {
    /// Raw records consumed by all mappers.
    pub map_input_records: u64,
    /// Key-value pairs emitted by all mappers.
    pub map_output_records: u64,
    /// Bytes crossing the simulated network in the shuffle.
    pub shuffle_bytes: u64,
    /// Number of map tasks (splits).
    pub map_tasks: u64,
    /// Distinct reduce keys.
    pub reduce_groups: u64,
}

impl JobCounters {
    /// Adds these totals to the recorder's `mr.*` counters.
    pub fn publish(&self, rec: &Recorder) {
        rec.counter_add("mr.map_input_records", self.map_input_records);
        rec.counter_add("mr.map_output_records", self.map_output_records);
        rec.counter_add("mr.shuffle_bytes", self.shuffle_bytes);
        rec.counter_add("mr.map_tasks", self.map_tasks);
        rec.counter_add("mr.reduce_groups", self.reduce_groups);
    }
}

/// Collects a mapper's emissions.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Emits one intermediate key-value pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }
}

/// One map task's mapped + combined output, pre-shuffle. Produced by
/// worker threads in the parallel engine and merged in task order.
struct MapTaskOutput<K, V> {
    /// Combined pairs, grouped per key in sorted-key order; values within
    /// a key keep their emission order.
    groups: Vec<(K, Vec<V>)>,
    input_records: u64,
    output_records: u64,
    shuffle_bytes: u64,
}

/// Runs one map task: map every record, then apply the map-side combiner
/// per key. Pure per-split — safe to run on any thread.
fn run_map_task<I, K, V>(
    split: &[I],
    mapper: &impl Fn(&I, &mut Emitter<K, V>),
    combiner: &impl Fn(&K, Vec<V>) -> Vec<V>,
    pair_bytes: u64,
) -> MapTaskOutput<K, V>
where
    K: Ord,
{
    let mut em = Emitter::new();
    for record in split {
        mapper(record, &mut em);
    }
    let output_records = em.pairs.len() as u64;
    // Map-side combine: group this task's pairs, shrink each group.
    let mut local: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (k, v) in em.pairs {
        local.entry(k).or_default().push(v);
    }
    let mut shuffle_bytes = 0u64;
    let mut groups = Vec::with_capacity(local.len());
    for (k, vs) in local {
        let combined = combiner(&k, vs);
        shuffle_bytes += combined.len() as u64 * pair_bytes;
        groups.push((k, combined));
    }
    MapTaskOutput { groups, input_records: split.len() as u64, output_records, shuffle_bytes }
}

/// Merges task outputs **in task order** into the shuffle groups — the
/// single place the value-ordering contract is established. Also
/// accumulates counters and records one `mr.task` event per task.
fn merge_task_outputs<K, V>(
    outputs: Vec<MapTaskOutput<K, V>>,
    counters: &mut JobCounters,
    rec: &Recorder,
) -> BTreeMap<K, Vec<V>>
where
    K: Ord,
{
    let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (task, out) in outputs.into_iter().enumerate() {
        counters.map_input_records += out.input_records;
        counters.map_output_records += out.output_records;
        counters.shuffle_bytes += out.shuffle_bytes;
        for (k, vs) in out.groups {
            groups.entry(k).or_default().extend(vs);
        }
        rec.event(
            "mr.task",
            &[
                ("task", Value::U64(task as u64)),
                ("input_records", Value::U64(out.input_records)),
                ("output_records", Value::U64(out.output_records)),
                ("shuffle_bytes", Value::U64(out.shuffle_bytes)),
            ],
        );
    }
    groups
}

/// Runs a complete map-shuffle-reduce pass.
///
/// - `exec` — the workers the map+combine tasks run on
///   ([`ExecConfig::sequential`] runs them inline, in task order);
/// - `rec` — the recorder the job's trace goes to;
/// - `splits` — one `Vec` of records per map task;
/// - `mapper` — called once per record with an [`Emitter`];
/// - `combiner` — Hadoop's map-side combiner: receives one task's values
///   for a key and returns the (usually single-element) values actually
///   shipped, so shuffle counters reflect the combined output (`|_, vs| vs`
///   ships every pair);
/// - `pair_bytes` — serialized size of one intermediate pair (for the
///   shuffle counter);
/// - `reducer` — called once per distinct key with all its values (sorted
///   key order; values follow the module-level ordering contract, so
///   output is deterministic).
///
/// Returns the reducer outputs concatenated in key order plus counters.
///
/// The trace is one `mr.job` span containing `mr.map` (map + combine +
/// shuffle accounting, with one `mr.task` event per split carrying its
/// input/output record counts and shuffled bytes) and `mr.reduce`. The
/// finished [`JobCounters`] are *not* auto-published — callers that own a
/// whole job call [`JobCounters::publish`] once, so a multi-job pipeline
/// controls which runs land in the metrics.
///
/// **Determinism:** worker threads only produce per-task map outputs; the
/// merge into shuffle groups happens on the calling thread, sequentially,
/// in task order. Output, counters, and the recorded `mr.*` trace are
/// therefore bit-identical for any worker count (tested). With
/// `exec.workers > 1` and an enabled recorder, the section additionally
/// records `exec.*` spans and metrics inside `mr.map` (see
/// `cso_exec::ExecStats::record`).
pub fn map_reduce<I, K, V, O>(
    exec: &ExecConfig,
    rec: &Recorder,
    splits: &[Vec<I>],
    mapper: impl Fn(&I, &mut Emitter<K, V>) + Sync,
    combiner: impl Fn(&K, Vec<V>) -> Vec<V> + Sync,
    pair_bytes: u64,
    reducer: impl FnMut(&K, Vec<V>) -> Vec<O>,
) -> (Vec<O>, JobCounters)
where
    I: Sync,
    K: Ord + Send,
    V: Send,
{
    let mut counters = JobCounters { map_tasks: splits.len() as u64, ..Default::default() };

    let _job_span = rec.span_with("mr.job", &[("tasks", Value::U64(splits.len() as u64))]);
    let groups = {
        let _map_span = rec.span("mr.map");
        let (outputs, stats) = cso_exec::par_map(exec, splits, |_, split| {
            run_map_task(split, &mapper, &combiner, pair_bytes)
        });
        stats.record(rec);
        merge_task_outputs(outputs, &mut counters, rec)
    };
    reduce_groups(groups, reducer, &mut counters, rec)
}

/// The shared reduce phase: sorted-key iteration, sequential.
fn reduce_groups<K, V, O>(
    groups: BTreeMap<K, Vec<V>>,
    mut reducer: impl FnMut(&K, Vec<V>) -> Vec<O>,
    counters: &mut JobCounters,
    rec: &Recorder,
) -> (Vec<O>, JobCounters)
where
    K: Ord,
{
    counters.reduce_groups = groups.len() as u64;
    let mut out = Vec::new();
    {
        let _reduce_span =
            rec.span_with("mr.reduce", &[("groups", Value::U64(counters.reduce_groups))]);
        for (k, vs) in groups {
            out.extend(reducer(&k, vs));
        }
    }
    (out, *counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_smoke_test() {
        let splits = vec![vec!["a", "b", "a"], vec!["b", "c"]];
        let (out, counters) = map_reduce(
            &ExecConfig::sequential(),
            &Recorder::disabled(),
            &splits,
            |w, em| em.emit(w.to_string(), 1u64),
            |_, vs| vs,
            16,
            |k, vs| vec![(k.clone(), vs.iter().sum::<u64>())],
        );
        assert_eq!(out, vec![("a".to_string(), 2), ("b".to_string(), 2), ("c".to_string(), 1)]);
        assert_eq!(counters.map_input_records, 5);
        assert_eq!(counters.map_output_records, 5);
        assert_eq!(counters.shuffle_bytes, 80);
        assert_eq!(counters.map_tasks, 2);
        assert_eq!(counters.reduce_groups, 3);
    }

    #[test]
    fn reducer_sees_sorted_keys() {
        let splits = vec![vec![3u32, 1, 2]];
        let (out, _) = map_reduce(
            &ExecConfig::sequential(),
            &Recorder::disabled(),
            &splits,
            |x, em| em.emit(*x, ()),
            |_, vs| vs,
            4,
            |k, _| vec![*k],
        );
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_is_fine() {
        let splits: Vec<Vec<u8>> = vec![vec![], vec![]];
        let (out, counters) = map_reduce(
            &ExecConfig::sequential(),
            &Recorder::disabled(),
            &splits,
            |_, em: &mut Emitter<u8, u8>| em.emit(0, 0),
            |_, vs| vs,
            1,
            |_, _| vec![0u8],
        );
        assert!(out.is_empty());
        assert_eq!(counters.map_input_records, 0);
        assert_eq!(counters.reduce_groups, 0);
        assert_eq!(counters.map_tasks, 2);
    }

    #[test]
    fn combiner_shrinks_shuffle_but_not_result() {
        let splits = vec![vec![("a", 1u64); 100], vec![("a", 1u64); 50]];
        let run = |combine: bool| {
            map_reduce(
                &ExecConfig::sequential(),
                &Recorder::disabled(),
                &splits,
                |&(w, c), em| em.emit(w, c),
                move |_k, vs: Vec<u64>| {
                    if combine {
                        vec![vs.iter().sum()]
                    } else {
                        vs
                    }
                },
                16,
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            )
        };
        let (with, c_with) = run(true);
        let (without, c_without) = run(false);
        assert_eq!(with, without);
        assert_eq!(with, vec![("a", 150u64)]);
        // 2 combined pairs vs 150 raw pairs on the wire.
        assert_eq!(c_with.shuffle_bytes, 2 * 16);
        assert_eq!(c_without.shuffle_bytes, 150 * 16);
        // Raw map output is the same either way.
        assert_eq!(c_with.map_output_records, 150);
        assert_eq!(c_without.map_output_records, 150);
    }

    #[test]
    fn mapper_may_emit_multiple_pairs_per_record() {
        let splits = vec![vec![2u32]];
        let (out, counters) = map_reduce(
            &ExecConfig::sequential(),
            &Recorder::disabled(),
            &splits,
            |x, em| {
                for i in 0..*x {
                    em.emit(i, 1u32);
                }
            },
            |_, vs| vs,
            8,
            |k, vs| vec![(*k, vs.len())],
        );
        assert_eq!(out, vec![(0, 1), (1, 1)]);
        assert_eq!(counters.map_output_records, 2);
    }

    /// Regression test for the value-ordering contract (module docs): the
    /// reducer must see each key's values in (task index, emission order)
    /// order — the property the parallel merge relies on.
    #[test]
    fn reducer_values_arrive_in_task_then_emission_order() {
        // Every task emits the same key; values are tagged (task, seq).
        let splits: Vec<Vec<(u32, u32)>> =
            (0..5u32).map(|t| (0..4u32).map(|s| (t, s)).collect()).collect();
        let (out, _) = map_reduce(
            &ExecConfig::sequential(),
            &Recorder::disabled(),
            &splits,
            |&(t, s), em| em.emit("k", (t, s)),
            |_, vs| vs,
            8,
            |_, vs| vec![vs],
        );
        let expect: Vec<(u32, u32)> =
            (0..5u32).flat_map(|t| (0..4u32).map(move |s| (t, s))).collect();
        assert_eq!(out, vec![expect.clone()]);

        // The parallel engine preserves the contract for every worker
        // count, including ones that force stealing.
        for workers in [1, 2, 3, 8] {
            let (par, _) = map_reduce(
                &ExecConfig::with_workers(workers),
                &Recorder::disabled(),
                &splits,
                |&(t, s), em| em.emit("k", (t, s)),
                |_, vs| vs,
                8,
                |_, vs| vec![vs],
            );
            assert_eq!(par, vec![expect.clone()], "workers = {workers}");
        }
    }

    /// Float reductions are bit-identical between the sequential reference
    /// and the parallel engine: the ordered merge fixes the summation
    /// order, which floating-point addition is sensitive to.
    #[test]
    fn parallel_float_sums_are_bit_identical() {
        // Values chosen so summation order matters (mixed magnitudes).
        let splits: Vec<Vec<(usize, f64)>> = (0..8)
            .map(|t| {
                (0..50)
                    .map(|i| ((t * 7 + i) % 13, 1e-8 + (t as f64) * 1e8 + i as f64 * 0.1))
                    .collect()
            })
            .collect();
        let run_seq = || {
            map_reduce(
                &ExecConfig::sequential(),
                &Recorder::disabled(),
                &splits,
                |&(k, v), em| em.emit(k, v),
                |_, vs| vs,
                8,
                |k, vs| vec![(*k, vs.iter().sum::<f64>())],
            )
        };
        let (seq, seq_counters) = run_seq();
        for workers in [1, 2, 4, 8] {
            let (par, par_counters) = map_reduce(
                &ExecConfig::with_workers(workers),
                &Recorder::disabled(),
                &splits,
                |&(k, v), em| em.emit(k, v),
                |_, vs| vs,
                8,
                |k, vs| vec![(*k, vs.iter().sum::<f64>())],
            );
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "workers = {workers}");
            }
            assert_eq!(par_counters, seq_counters, "workers = {workers}");
        }
    }

    /// Traced parallel runs produce the same `mr.*` trace structure as the
    /// sequential reference, with `exec.*` additions inside `mr.map`.
    #[test]
    fn parallel_trace_matches_reference_plus_exec_sections() {
        let splits: Vec<Vec<u32>> = (0..6).map(|t| vec![t, t + 1, t + 2]).collect();
        let run = |workers: usize| {
            let rec = Recorder::new();
            let (out, counters) = map_reduce(
                &ExecConfig::with_workers(workers),
                &rec,
                &splits,
                |x, em| em.emit(*x % 4, u64::from(*x)),
                |_, vs| vec![vs.iter().sum()],
                8,
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            );
            (out, counters, rec)
        };
        let (seq_out, seq_counters, seq_rec) = run(1);
        let (par_out, par_counters, par_rec) = run(8);
        assert_eq!(seq_out, par_out);
        assert_eq!(seq_counters, par_counters);

        // Sequential trace: no exec.* spans at all (reference unchanged).
        let seq_spans: Vec<&str> = seq_rec
            .trace_snapshot()
            .iter()
            .filter(|e| e.kind == cso_obs::EntryKind::SpanStart)
            .map(|e| e.name)
            .collect();
        assert_eq!(seq_spans, vec!["mr.job", "mr.map", "mr.reduce"]);

        // Parallel trace: same mr.* skeleton, exec.worker spans inside
        // mr.map, one exec.task event and one mr.task event per split.
        let par_trace = par_rec.trace_snapshot();
        let par_spans: Vec<&str> = par_trace
            .iter()
            .filter(|e| e.kind == cso_obs::EntryKind::SpanStart)
            .map(|e| e.name)
            .collect();
        assert_eq!(par_spans[..2], ["mr.job", "mr.map"]);
        assert_eq!(*par_spans.last().unwrap(), "mr.reduce");
        assert_eq!(par_spans.iter().filter(|s| **s == "exec.worker").count(), splits.len().min(8));
        assert_eq!(par_rec.events_named("exec.task").len(), splits.len());
        assert_eq!(par_rec.events_named("mr.task").len(), splits.len());
        let snap = par_rec.metrics_snapshot();
        assert_eq!(snap.counter("exec.tasks"), Some(splits.len() as u64));
    }
}
