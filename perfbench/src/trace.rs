//! The benchmark's own spans: recorded in memory around each call into
//! the system, written out as JSONL when the run ends, and read back to
//! check the file.
//!
//! A span has a name, a start and end (ns since the run began), the span
//! that caused it (`parent`, 0 for none), the client lane that made the
//! call, and the id of the epoch it belongs to. Served epochs use their
//! epoch number; the per-input layer timings use [`INPUT_EPOCH_BASE`] plus
//! the input's pool index.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Epoch ids at and above this mark layer timings of pool inputs, not
/// served epochs.
pub const INPUT_EPOCH_BASE: u64 = 1 << 32;

/// Client-observed stages of a served epoch. Their durations along the
/// critical path must add up to the epoch's wall time.
pub const STAGES: [&str; 6] = ["open", "ingest", "region_seal", "forward", "seal", "recover"];

/// The share of the traced epochs' wall time the stages may leave
/// unexplained, on top of [`STAGE_SUM_SLACK_NS`] per epoch. What is left
/// out is the lanes' own bookkeeping between calls; status-poll sleeps
/// are inside `forward`.
pub const STAGE_SUM_TOLERANCE: f64 = 0.05;

/// Per-epoch allowance for starting and joining the second client lane,
/// and for a lane descheduled between two calls: about 1 % of the
/// shortest full-size epoch, most of a toy one.
pub const STAGE_SUM_SLACK_NS: u64 = 1_000_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Epoch (or [`INPUT_EPOCH_BASE`] + input) the span belongs to.
    pub epoch: u64,
    /// Id, unique within the epoch; 1 is the epoch's root span.
    pub id: u32,
    /// The causing span's id, 0 for a root.
    pub parent: u32,
    /// Client lane (thread) that made the call.
    pub lane: u8,
    /// What was called.
    pub name: String,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A run-wide clock: every timestamp is ns since `base`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock { base: Instant::now() }
    }

    /// ns since the clock started.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// Spans of one lane of one epoch. Disabled logs keep nothing, which is
/// what an untraced run uses.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: u64,
    lane: u8,
    next_id: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for `lane` of `epoch`; ids start above `first_id` so lanes
    /// of one epoch never collide.
    pub fn new(enabled: bool, epoch: u64, lane: u8, first_id: u32) -> SpanLog {
        SpanLog { enabled, epoch, lane, next_id: first_id, spans: Vec::new() }
    }

    /// Records a finished span under `parent`.
    pub fn record(&mut self, name: &str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.spans.push(Span {
            epoch: self.epoch,
            id: self.next_id,
            parent,
            lane: self.lane,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        self.next_id
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as JSONL, one object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"epoch\":{},\"id\":{},\"parent\":{},\"lane\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.epoch, s.id, s.parent, s.lane, s.name, s.start_ns, s.end_ns
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// Reads back a file [`write_jsonl`] wrote.
pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    text.lines()
        .enumerate()
        .map(|(i, line)| parse_line(line).ok_or(format!("line {}", i + 1)))
        .collect()
}

fn parse_line(line: &str) -> Option<Span> {
    const KEYS: [&str; 7] = ["epoch", "id", "parent", "lane", "name", "start_ns", "end_ns"];
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let fields: Vec<(&str, &str)> =
        body.split(',').map(|kv| kv.split_once(':')).collect::<Option<_>>()?;
    let keyed = fields.len() == KEYS.len()
        && fields.iter().zip(KEYS).all(|((k, _), want)| k.trim_matches('"') == want);
    if !keyed {
        return None;
    }
    let num = |i: usize| fields[i].1.parse::<u64>().ok();
    Some(Span {
        epoch: num(0)?,
        id: u32::try_from(num(1)?).ok()?,
        parent: u32::try_from(num(2)?).ok()?,
        lane: u8::try_from(num(3)?).ok()?,
        name: fields[4].1.strip_prefix('"')?.strip_suffix('"')?.to_string(),
        start_ns: num(5)?,
        end_ns: num(6)?,
    })
}

/// How much of the traced epochs' wall time the client-observed stages
/// explain: `(epoch_ns, attributed_ns)` summed over all epochs.
///
/// Per epoch, the lanes run in parallel until the join (`join_ns`): the
/// lane that finished last is the critical path, and its stage spans are
/// counted; after the join only the main lane runs, and all its stage
/// spans are counted.
pub fn stage_attribution(spans: &[Span], joins: &[(u64, u64)]) -> (u64, u64) {
    let mut epoch_total = 0;
    let mut attributed = 0;
    for &(epoch, join_ns) in joins {
        let of_epoch: Vec<&Span> = spans.iter().filter(|s| s.epoch == epoch).collect();
        let Some(root) = of_epoch.iter().find(|s| s.id == 1 && s.name == "epoch") else {
            continue;
        };
        let stages: Vec<&&Span> =
            of_epoch.iter().filter(|s| STAGES.contains(&s.name.as_str())).collect();
        let critical =
            stages.iter().filter(|s| s.end_ns <= join_ns).max_by_key(|s| s.end_ns).map(|s| s.lane);
        attributed += stages
            .iter()
            .filter(|s| s.start_ns >= join_ns || Some(s.lane) == critical)
            .map(|s| s.dur_ns())
            .sum::<u64>();
        epoch_total += root.dur_ns();
    }
    (epoch_total, attributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(epoch: u64, id: u32, lane: u8, name: &str, start_ns: u64, end_ns: u64) -> Span {
        let parent = if id == 1 { 0 } else { 1 };
        Span { epoch, id, parent, lane, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn artifact_round_trips() {
        let dir = std::path::Path::new(crate::WORK_DIR)
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        let spans = vec![
            span(7, 1, 0, "epoch", 10, 500),
            span(7, 2, 1, "ingest", 20, 30),
            span(INPUT_EPOCH_BASE + 3, 5, 0, "core.bomp", u64::MAX - 1, u64::MAX),
        ];
        write_jsonl(&path, &spans).unwrap();
        assert_eq!(read_jsonl(&path).unwrap(), spans);
        std::fs::write(&path, "{\"epoch\":1}\n").unwrap();
        assert!(read_jsonl(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_logs_keep_nothing() {
        let mut log = SpanLog::new(false, 1, 0, 1);
        assert_eq!(log.record("ingest", 1, 0, 5), 0);
        assert!(log.into_spans().is_empty());
        let mut log = SpanLog::new(true, 1, 1, 100);
        assert_eq!(log.record("ingest", 1, 0, 5), 101);
        assert_eq!(log.into_spans()[0].lane, 1);
    }

    #[test]
    fn attribution_follows_the_critical_lane() {
        // Lane 1 finishes its ingest last (t = 80), then lane 0 seals and
        // recovers after the join at t = 82.
        let spans = vec![
            span(1, 1, 0, "epoch", 0, 100),
            span(1, 2, 0, "open", 0, 5),
            span(1, 3, 0, "ingest", 5, 50),
            span(1, 4, 1, "open", 1, 6),
            span(1, 5, 1, "ingest", 6, 80),
            span(1, 6, 0, "seal", 82, 90),
            span(1, 7, 0, "recover", 90, 99),
        ];
        let (total, attributed) = stage_attribution(&spans, &[(1, 82)]);
        assert_eq!(total, 100);
        assert_eq!(attributed, 5 + 74 + 8 + 9);
    }
}
