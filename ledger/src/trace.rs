//! The traced run's span recorder.
//!
//! Spans are kept in memory, one per public call the benchmark makes, and
//! written out as JSON lines when the run ends. A span records its name,
//! start, end, the span that caused it and the request it belongs to.
//! Stage rows of a program-side profile (`LocalizeOptions::with_profiling`
//! or `octant_telemetry::begin_capture`) become `stage` spans under the
//! call that returned them. Those rows are self-times, not intervals, so
//! they are laid end to end from the call's start.

use crate::stats::json_string;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Whether a span wraps a call the benchmark made or a stage row the
/// program reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call into the program, timed by the benchmark.
    Call,
    /// A self-time row of a program-side stage profile.
    Stage,
}

/// One recorded span. Times are offsets from the tracer's creation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (root span id) this span belongs to.
    pub request: Option<u64>,
    /// The layer boundary or stage name.
    pub name: &'static str,
    /// Call or stage row.
    pub kind: Kind,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span store shared by every client thread of a traced
/// phase.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so a parent's id can be handed to children that
    /// finish before it does.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a call span under a reserved `id`.
    pub fn call(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        self.push(Span {
            id,
            parent,
            request,
            name,
            kind: Kind::Call,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Records `profile`'s rows as stage spans under `parent`, laid end to
    /// end from `start`.
    pub fn stages(
        &self,
        parent: u64,
        request: Option<u64>,
        start: Instant,
        profile: &octant_telemetry::StageProfile,
    ) {
        let mut cursor = start.saturating_duration_since(self.origin);
        for stage in profile.stages() {
            let span = Span {
                id: self.reserve(),
                parent: Some(parent),
                request,
                name: stage.name,
                kind: Kind::Stage,
                start: cursor,
                end: cursor + stage.wall,
            };
            cursor = span.end;
            self.push(span);
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a client thread panicked while recording a span")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a client thread panicked while recording a span")
            .clone()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"kind\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                span.id,
                opt(span.parent),
                opt(span.request),
                json_string(span.name),
                match span.kind {
                    Kind::Call => "call",
                    Kind::Stage => "stage",
                },
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children count once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let children = children_of(spans);
    spans
        .iter()
        .map(|span| {
            let intervals: Vec<(Duration, Duration)> = children
                .get(&span.id)
                .map(|kids| {
                    kids.iter()
                        .map(|&k| (spans[k].start, spans[k].end))
                        .collect()
                })
                .unwrap_or_default();
            let covered = union_within(intervals, span.start, span.end);
            (span.id, span.duration().saturating_sub(covered))
        })
        .collect()
}

/// Per request that carries stage rows: the share of the request's wall
/// time covered by its leaf spans (stage rows, and calls with no children).
/// What stays uncovered is time inside a call that no stage accounts for.
pub fn coverage(spans: &[Span]) -> Vec<f64> {
    let children = children_of(spans);
    let mut leaves: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    let mut staged: Vec<u64> = Vec::new();
    for span in spans {
        let Some(request) = span.request else {
            continue;
        };
        if span.kind == Kind::Stage {
            staged.push(request);
        }
        if span.id != request && !children.contains_key(&span.id) {
            leaves
                .entry(request)
                .or_default()
                .push((span.start, span.end));
        }
    }
    staged.sort_unstable();
    staged.dedup();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    staged
        .into_iter()
        .filter_map(|request| {
            let root = by_id.get(&request)?;
            let wall = root.duration();
            if wall.is_zero() {
                return None;
            }
            let covered = union_within(
                leaves.remove(&request).unwrap_or_default(),
                root.start,
                root.end,
            );
            Some(covered.as_secs_f64() / wall.as_secs_f64())
        })
        .collect()
}

fn children_of(spans: &[Span]) -> HashMap<u64, Vec<usize>> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(i);
        }
    }
    children
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(id: u64, parent: Option<u64>, kind: Kind, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: Some(1),
            name: "s",
            kind,
            start: ms(start),
            end: ms(end),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children_once() {
        let spans = vec![
            span(1, None, Kind::Call, 0, 100),
            // Back to back: 10..30 and 30..50 cover 40 ms.
            span(2, Some(1), Kind::Call, 10, 30),
            span(3, Some(1), Kind::Call, 30, 50),
            // Nested inside span 3: does not reduce span 1 a second time.
            span(4, Some(3), Kind::Stage, 35, 45),
            // Overlaps span 3 and runs past the parent's end: 50..100 only.
            span(5, Some(1), Kind::Call, 40, 120),
        ];
        let self_time = self_times(&spans);
        assert_eq!(self_time[&1], ms(10));
        assert_eq!(self_time[&2], ms(20));
        assert_eq!(self_time[&3], ms(10));
        assert_eq!(self_time[&4], ms(10));
        assert_eq!(self_time[&5], ms(80));
    }

    #[test]
    fn coverage_counts_leaves_of_requests_with_stage_rows() {
        let spans = vec![
            span(1, None, Kind::Call, 0, 100),
            span(2, Some(1), Kind::Call, 0, 10), // submit: a leaf call
            span(3, Some(1), Kind::Call, 10, 100), // wait: has stage rows
            span(4, Some(3), Kind::Stage, 10, 40),
            span(5, Some(3), Kind::Stage, 40, 70),
        ];
        let shares = coverage(&spans);
        assert_eq!(shares.len(), 1);
        assert!((shares[0] - 0.7).abs() < 1e-12, "{shares:?}");
        // A request without stage rows has no attribution to reconcile.
        assert!(coverage(&spans[..3]).is_empty());
    }

    #[test]
    fn stage_rows_are_laid_end_to_end_under_their_call() {
        let tracer = Tracer::new();
        let start = Instant::now();
        let mut profile = octant_telemetry::StageProfile::default();
        profile.add("queue_wait", ms(2), 1);
        profile.add("solve", ms(5), 1);
        let parent = tracer.reserve();
        tracer.call(parent, "wait", None, Some(parent), start, start + ms(8));
        tracer.stages(parent, Some(parent), start, &profile);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "queue_wait");
        assert_eq!(spans[1].end, spans[2].start);
        assert_eq!(spans[2].duration(), ms(5));
        assert_eq!(self_times(&spans)[&parent], ms(1));
    }
}
