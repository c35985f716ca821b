//! The metric tables (name, unit, direction, bound) and the one-line JSON
//! result every run ends with.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! tools that compare commits; a self-test keeps the two in step.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, counts of waste).
    Lower,
    /// Larger is better (throughput, recall, success ratios).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name: later performance claims cite it.
    pub name: &'static str,
    /// Unit, printed next to every value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by which
    /// a change may worsen it before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (see the crate docs
/// for each definition). Time and rate metrics carry the widest bound the
/// comparison allows (0.25): on the shared 2-vCPU host they were sized
/// on, the same fixed CPU work ran up to a third slower in some 15-second
/// windows than in others, and whole runs inherit that drift.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sketches_per_s", "1/s", Higher, 0.25),
    e2e("ingest_rtt_us_p50", "us", Lower, 0.25),
    e2e("ingest_rtt_us_p90", "us", Lower, 0.25),
    e2e("seal_to_report_ms_p50", "ms", Lower, 0.25),
    e2e("seal_to_report_ms_tail", "ms", Lower, 0.25),
    e2e("epoch_ms_p50", "ms", Lower, 0.25),
    e2e("cpu_ms_per_epoch", "ms", Lower, 0.25),
    e2e("root_ingress_bytes_per_epoch", "B", Lower, 0.02),
    e2e("recall_at_k", "fraction", Higher, 0.05),
    e2e("ok_epoch_ratio", "fraction", Higher, 0.01),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.1),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.open_ms", "ms", Lower),
    layer("serve.ingest_ns_p50", "ns", Lower),
    layer("serve.ingest_ns_p90", "ns", Lower),
    layer("serve.rtt_overhead_us", "us", Lower),
    layer("serve.loop_wakeups_per_sketch", "count", Lower),
    layer("serve.lockfree_ingest_ratio", "fraction", Higher),
    layer("frame.encode_us", "us", Lower),
    layer("frame.decode_us", "us", Lower),
    layer("frame.bytes", "B", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.bytes_per_epoch", "B", Lower),
    layer("wal.replay_ms", "ms", Lower),
    layer("serve.seal_ms", "ms", Lower),
    layer("distributed.fold_us", "us", Lower),
    layer("core.materialize_ms", "ms", Lower),
    layer("core.op_build_us", "us", Lower),
    layer("core.bomp_ms", "ms", Lower),
    layer("core.bomp_iterations", "count", Lower),
    layer("core.bomp_ms_per_iter", "ms", Lower),
    layer("serve.recover_ms", "ms", Lower),
    layer("serve.recover_ns_p50", "ns", Lower),
    layer("relay.region_seal_ms", "ms", Lower),
    layer("relay.forward_ms", "ms", Lower),
    layer("relay.upstream_bytes_per_epoch", "B", Lower),
    layer("core.leaf_apply_ms", "ms", Lower),
    layer("client.reconnects", "count", Lower),
    layer("serve.rejects", "count", Lower),
    layer("trace.overhead_ms", "ms", Lower),
    layer("trace.unattributed_share", "fraction", Lower),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A run's result: the JSON object on the last line of standard output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every epoch bit-matched the oracle and every self-check held.
    pub correct: bool,
    /// Timed epochs attempted.
    pub attempted: u64,
    /// Timed epochs that failed.
    pub failed: u64,
    /// `(metric, value)` in table order.
    pub values: Vec<(MetricDef, f64)>,
}

impl Outcome {
    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}, …}}`. Values are
    /// printed with every digit Rust's shortest round-trip form keeps.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite float as JSON; non-finite values (a bug here) print as
/// `null`, which the result's consumer rejects.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` must name the same metrics,
    /// units, directions and bounds, in the same order.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let compact: String = manifest.chars().filter(|c| !c.is_whitespace()).collect();
        let section = |key: &str, next: &str| -> String {
            let start = compact.find(&format!("\"{key}\":[")).expect("section present");
            let end =
                compact[start..].find(&format!("\"{next}\"")).map_or(compact.len(), |e| start + e);
            compact[start..end].to_string()
        };
        let e2e_json = section("end_to_end", "per_layer");
        let mut pos = 0;
        for def in END_TO_END {
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                def.name,
                def.unit,
                def.better.word(),
                json_number(def.bound.unwrap()).trim_end_matches(".0")
            );
            let at = e2e_json[pos..].find(&want).unwrap_or_else(|| panic!("{want} not in order"));
            pos += at + want.len();
        }
        assert_eq!(e2e_json.matches("\"name\"").count(), END_TO_END.len());
        let layer_json = section("per_layer", "run_seconds");
        let mut pos = 0;
        for def in PER_LAYER {
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                def.name,
                def.unit,
                def.better.word()
            );
            let at = layer_json[pos..].find(&want).unwrap_or_else(|| panic!("{want} not in order"));
            pos += at + want.len();
        }
        assert_eq!(layer_json.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn names_and_units_respect_the_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{} has unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound.unwrap()).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            values: vec![(END_TO_END[0], 1234.5678901234567), (END_TO_END[10], 2.0)],
        };
        let line = outcome.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0,"));
        assert!(
            line.contains("\"sketches_per_s\": {\"value\": 1234.5678901234567, \"unit\": \"1/s\"}")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
        cso_obs::json::validate(&line).expect("valid JSON");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
