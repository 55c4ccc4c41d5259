//! The span recorder: the benchmark's own timers around its calls into
//! each layer's public functions. Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed interval. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name; the per-layer metrics aggregate by it.
    pub name: &'static str,
    /// Free-form qualifier (the program a run span belongs to), or "".
    pub tag: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// The span that caused this one; `None` for an op's root span and
    /// for probes made outside any op.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Work done inside the span, in the layer's own unit (retired
    /// units for runs, bytes for parks), or 0.
    pub units: u64,
    /// Threads that work inside the span at once (1 unless its
    /// children run on parallel lanes).
    pub lanes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// Thread time the span holds: its duration on each of its lanes.
    pub fn capacity(&self) -> u64 {
        self.dur() * self.lanes
    }
}

/// Thread-safe span store. Barrier spans are recorded on pool worker
/// threads, so the recorder is shared behind an `Arc`.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// A fresh recorder whose origin is now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder::default())
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        // A panicking op poisons nothing the recorder relies on: every
        // push leaves the vector valid.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(
        &self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            tag,
            op,
            parent,
            start,
            end: start,
            units: 0,
            lanes: 1,
        });
        spans.len() - 1
    }

    /// Closes span `id`, recording `units` of work.
    pub fn close(&self, id: SpanId, units: u64) {
        let end = self.now();
        let mut spans = self.lock();
        spans[id].end = end;
        spans[id].units = units;
    }

    /// Declares that the children of span `id` run on `lanes` threads at
    /// once.
    pub fn set_lanes(&self, id: SpanId, lanes: u64) {
        self.lock()[id].lanes = lanes;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Span context of one traced op: the recorder, the op id and the span
/// new children hang from.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The shared recorder.
    pub rec: Arc<Recorder>,
    /// The op id stamped on every span.
    pub op: u64,
    /// Parent of the spans this context opens.
    pub parent: Option<SpanId>,
}

impl Ctx {
    /// Runs `f` inside a span named `name`; `f` gets a context whose
    /// children hang from the new span, and returns its value together
    /// with the units of work the span records.
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&Ctx) -> (T, u64),
    ) -> T {
        let id = self.rec.open(name, tag, self.op, self.parent);
        let child = Ctx {
            rec: Arc::clone(&self.rec),
            op: self.op,
            parent: Some(id),
        };
        let (value, units) = f(&child);
        self.rec.close(id, units);
        value
    }

    /// [`Ctx::span`] for a leaf span that records no units.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, "", |_| (f(), 0))
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Number of op roots.
    pub ops: u64,
    /// Total thread time of the op roots (wall × lanes), ns.
    pub root_ns: u64,
    /// Root self time (op thread time no child span covers), ns.
    pub root_self_ns: u64,
    /// Self time per layer over spans inside ops, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total duration per layer over every span (inside ops and probes), ns.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Total units per layer over every span.
    pub units: BTreeMap<&'static str, u64>,
    /// Duration and units per (layer, tag) over every span.
    pub by_tag: BTreeMap<(&'static str, &'static str), (u64, u64)>,
}

impl Summary {
    /// Self time of layer `name`, ns (0 if absent).
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Total duration of layer `name`, ns (0 if absent).
    pub fn total_of(&self, name: &str) -> u64 {
        self.total_ns.get(name).copied().unwrap_or(0)
    }

    /// Total units of layer `name` (0 if absent).
    pub fn units_of(&self, name: &str) -> u64 {
        self.units.get(name).copied().unwrap_or(0)
    }
}

/// The layer name of op root spans.
pub const ROOT: &str = "op";

/// Summarises spans: self time is a span's thread time (duration ×
/// lanes) minus the part of it its child spans cover. Children on one
/// lane never overlap (a parent waits for each child, and the barrier
/// runs only after every shard of its round finished), so the covered
/// part is the sum of the children's durations.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    // Which spans sit inside an op root (probes do not).
    let mut in_op = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_op[i] = s.name == ROOT || s.parent.is_some_and(|p| in_op[p]);
    }
    let mut sum = Summary::default();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.capacity().saturating_sub(child_ns[i]);
        if s.name == ROOT {
            sum.ops += 1;
            sum.root_ns += s.capacity();
            sum.root_self_ns += self_ns;
            continue;
        }
        if in_op[i] {
            *sum.self_ns.entry(s.name).or_default() += self_ns;
        }
        *sum.total_ns.entry(s.name).or_default() += s.dur();
        *sum.units.entry(s.name).or_default() += s.units;
        let e = sum.by_tag.entry((s.name, s.tag)).or_default();
        e.0 += s.dur();
        e.1 += s.units;
    }
    sum
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"units\":{},\"lanes\":{}}}",
            s.name, s.tag, s.op, s.start, s.end, s.units, s.lanes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            tag: "",
            op: 0,
            parent,
            start,
            end,
            units: 1,
            lanes: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_probes_stay_outside_ops() {
        let spans = vec![
            span(ROOT, None, 0, 100),
            span("run", Some(0), 10, 90),
            span("barrier", Some(1), 20, 30),
            span("barrier", Some(1), 40, 50),
            span("probe", None, 200, 260),
        ];
        let s = summarize(&spans);
        assert_eq!(s.ops, 1);
        assert_eq!(s.root_ns, 100);
        assert_eq!(s.root_self_ns, 20);
        assert_eq!(s.self_of("run"), 60);
        assert_eq!(s.self_of("barrier"), 20);
        assert_eq!(s.self_of("probe"), 0, "probes are not op work");
        assert_eq!(s.total_of("probe"), 60);
        assert_eq!(s.units_of("barrier"), 2);
    }

    #[test]
    fn ctx_nests_spans() {
        let rec = Recorder::new();
        let root = Ctx {
            rec: Arc::clone(&rec),
            op: 7,
            parent: None,
        };
        let v = root.span(ROOT, "", |c| (c.span("child", "x", |_| (3, 5)), 0));
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].op, spans[1].units, spans[1].tag), (7, 5, "x"));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
