//! The benchmark's own span recorder.
//!
//! A traced run records one span around every call the benchmark makes
//! into a layer of the program (Runner, RunCache, Engine, the daemon
//! socket). Spans stay in memory — one recorder per driving thread, merged
//! when the run ends — and are written out as one JSON file together with
//! the self time of every span name. With tracing off, every call is a
//! branch on a bool and nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's time origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request or scenario run this span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's origin.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; it nests under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        self.enter_at(name, id, Instant::now())
    }

    /// Opens a span that started at `start` (an open-loop request starts
    /// when it was due, not when it was sent).
    pub fn enter_at(&mut self, name: &'static str, id: u64, start: Instant) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`] (and any left open inside it).
    pub fn exit(&mut self, span: Open) {
        self.exit_at(span, Instant::now());
    }

    /// Closes a span at `end`.
    pub fn exit_at(&mut self, span: Open, end: Instant) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.ns(end);
        self.spans[idx].end_ns = end_ns;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
            self.spans[top].end_ns = end_ns;
        }
    }

    /// Records an already-timed span under the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: how many spans, their summed duration and their summed
/// self time (duration minus the part of it covered by child spans), ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self times of every span name in `spans`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        // Union of the children's intervals, clipped to the parent's.
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// The span file: a header object (run stamp), every span, and the
/// self-time table.
pub fn to_json(stamp: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"stamp\":{stamp},\n\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { ",\n" } else { "\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    out.push_str("],\n\"self_times\":{");
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0,100) holds roundtrip [10,60) and parse [50,80):
        // the children overlap on [50,60), so they cover 70 ns, not 80.
        // roundtrip holds write [10,20); a grandchild never counts
        // against the grandparent twice.
        let spans = vec![
            span("request", None, 0, 100),
            span("roundtrip", Some(0), 10, 60),
            span("parse", Some(0), 50, 80),
            span("write", Some(1), 10, 20),
            span("request", None, 200, 230),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["request"],
            SelfTime {
                count: 2,
                total_ns: 130,
                self_ns: 30 + 30
            }
        );
        assert_eq!(t["roundtrip"].self_ns, 40);
        assert_eq!(t["parse"].self_ns, 30);
        assert_eq!(t["write"].self_ns, 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("outer", None, 10, 20), span("inner", Some(0), 5, 30)];
        assert_eq!(self_times(&spans)["outer"].self_ns, 0);
    }

    #[test]
    fn nesting_merge_and_off_mode() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let outer = a.enter("outer", 1);
        let inner = a.enter("inner", 1);
        a.exit(inner);
        a.exit(outer);
        let mut b = a.fork();
        let o = b.enter("outer", 2);
        let i = b.enter("inner", 2);
        b.exit(o); // closes the inner span too
        let _ = i;
        a.merge(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].id, 2);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false, origin);
        let o = off.enter("x", 0);
        off.exit(o);
        off.record("y", 0, origin, Instant::now());
        assert!(off.spans().is_empty());
    }
}
