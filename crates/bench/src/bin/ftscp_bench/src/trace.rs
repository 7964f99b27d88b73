//! In-memory span recorder for the traced run.
//!
//! The bench records a span around every call it makes into a layer:
//! name, start, end, the span that was open when it began (its parent),
//! and an id shared by all spans of one interval or round. Spans stay in
//! memory until the run ends; the per-layer table is their aggregate and
//! the raw spans go to `trace-<workload>.json` under the build directory.
//!
//! With tracing off every method is a branch on `enabled` and nothing
//! else, so the untraced run pays one predictable branch per call site.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one interval or round.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (threads of one run share
    /// the epoch so their spans line up in the written trace).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span (or just runs it when tracing is off).
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Records a span whose bounds the caller measured itself (a call it
    /// timed anyway, another thread's arrival stamp, a due time). Its
    /// parent is the span open on this recorder, if any.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `other`'s spans (another thread's recorder) keeping their
/// parent links valid.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>) {
    let base = into.len() as SpanId;
    into.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Aggregate {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.duration_ns();
        a.self_ns += self_ns;
    }
    out
}

/// Writes the trace file: a name table, the per-name aggregate, and one
/// `[name, start_ns, end_ns, parent, id]` row per span (`parent` is a row
/// index or -1). The rows are streamed — a run leaves hundreds of
/// thousands of them.
pub fn write_json(workload: &str, spans: &[Span], out: impl Write) -> std::io::Result<()> {
    let agg = aggregate(spans);
    let index: BTreeMap<&'static str, usize> =
        agg.keys().enumerate().map(|(i, n)| (*n, i)).collect();
    let head = obj(vec![
        ("workload", Json::Str(workload.to_string())),
        (
            "names",
            Json::Arr(agg.keys().map(|n| Json::Str(n.to_string())).collect()),
        ),
        (
            "aggregate",
            Json::Obj(
                agg.iter()
                    .map(|(name, a)| {
                        (
                            name.to_string(),
                            obj(vec![
                                ("count", Json::Num(a.count as f64)),
                                ("total_ns", Json::Num(a.total_ns as f64)),
                                ("self_ns", Json::Num(a.self_ns as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render();
    let mut w = BufWriter::new(out);
    // The head is an object: reopen it to append the rows.
    let open = head.strip_suffix('}').expect("an object ends in a brace");
    write!(w, "{open},\"spans\":[")?;
    for (k, s) in spans.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let parent = s.parent.map_or(-1, i64::from);
        write!(
            w,
            "{sep}[{},{},{},{parent},{}]",
            index[s.name], s.start_ns, s.end_ns, s.id
        )?;
    }
    write!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("feed", 0, 100, None),       // 0
            span("engine", 10, 40, Some(0)),  // 1: child of feed
            span("bank", 15, 25, Some(1)),    // 2: grandchild, only engine pays
            span("engine", 50, 70, Some(0)),  // 3: sibling of 1
            span("engine", 60, 90, Some(0)),  // 4: overlaps 3 — counted once
            span("engine", 95, 120, Some(0)), // 5: runs past the parent — clipped
        ];
        let selfs = self_times(&spans);
        // feed: 100 − (30 + [50,90) = 40 + [95,100) = 5) = 25
        assert_eq!(selfs[0], 25);
        assert_eq!(selfs[1], 20); // 30 − 10
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 20);
        let agg = aggregate(&spans);
        assert_eq!(agg["engine"].count, 4);
        assert_eq!(agg["engine"].total_ns, 30 + 20 + 30 + 25);
        assert_eq!(agg["feed"].self_ns, 25);
    }

    #[test]
    fn tracer_links_parents_and_costs_nothing_when_off() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {});
            t.span("inner", 7, |_| {});
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn the_written_trace_is_one_json_object_with_a_row_per_span() {
        let spans = vec![span("feed", 0, 100, None), span("engine", 10, 40, Some(0))];
        let mut bytes = Vec::new();
        write_json("w", &spans, &mut bytes).unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("w"));
        let rows = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        // "engine" sorts before "feed": name 0, parent row 0.
        assert_eq!(rows[1].render(), "[0,10,40,0,0]");
        assert_eq!(rows[0].render(), "[1,0,100,-1,0]");
        let agg = doc.get("aggregate").and_then(|a| a.get("feed")).unwrap();
        assert_eq!(agg.get("self_ns").and_then(Json::as_f64), Some(70.0));
    }

    #[test]
    fn merge_rebases_parent_links() {
        let mut a = vec![span("a", 0, 1, None)];
        merge(
            &mut a,
            vec![span("b", 0, 5, None), span("c", 1, 2, Some(0))],
        );
        assert_eq!(a[2].parent, Some(1));
    }
}
