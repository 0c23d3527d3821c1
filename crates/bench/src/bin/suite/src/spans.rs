//! In-memory span recording for the traced run, and the interval
//! arithmetic that turns spans into per-layer self times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{obj, Json};

/// Identifies a span within one [`Tracer`].
pub type SpanId = u64;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub iteration: u32,
    /// Small per-process index of the recording thread.
    pub thread: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any thread; written out once, at exit.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    iteration: AtomicU32,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            iteration: AtomicU32::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Tags every span recorded from now on with `iteration`.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.store(iteration, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            iteration: self.iteration.load(Ordering::Relaxed),
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// The spans as the `spans.json` document.
    pub fn to_json(&self, workload: &str) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let spans = self
            .spans()
            .into_iter()
            .map(|s| {
                obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::Str(s.name.into())),
                    ("workload", Json::Str(workload.into())),
                    ("iteration", Json::Num(f64::from(s.iteration))),
                    ("thread", Json::Num(f64::from(s.thread))),
                    ("start_us", us(s.start_ns)),
                    ("end_us", us(s.end_ns)),
                ])
            })
            .collect();
        obj([("spans", Json::Arr(spans))])
    }
}

/// Total length covered by a set of intervals (overlaps counted once).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The share of the `root`-named spans' total duration that their direct
/// children cover (0 without roots).
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let roots: BTreeMap<SpanId, &Span> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.id, s))
        .collect();
    let total: u64 = roots.values().map(|s| s.dur_ns()).sum();
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter_map(|s| {
            let r = roots.get(&s.parent?)?;
            Some((s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns)))
        })
        .filter(|(a, b)| a < b)
        .collect();
    if total == 0 {
        0.0
    } else {
        union_ns(&mut covered) as f64 / total as f64
    }
}

/// Per-name aggregates over one group of spans (one traced iteration).
#[derive(Debug, Default)]
pub struct Profile {
    /// name → (count, summed duration, summed self time, max duration), ns.
    by_name: BTreeMap<&'static str, (u64, u64, u64, u64)>,
}

impl Profile {
    /// Aggregates `spans`. A span's self time is its duration minus the
    /// union of its children's intervals (clipped to the span), so
    /// children that overlap — on different threads — are not
    /// subtracted twice.
    pub fn new(spans: &[Span]) -> Self {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
        for s in spans {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            let self_ns = s.dur_ns() - union_ns(&mut kids).min(s.dur_ns());
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
            e.3 = e.3.max(s.dur_ns());
        }
        Profile { by_name }
    }

    fn get(&self, name: &str) -> (u64, u64, u64, u64) {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.get(name).1 as f64 / 1e6
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.get(name).2 as f64 / 1e6
    }

    pub fn max_ms(&self, name: &str) -> f64 {
        self.get(name).3 as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        thread: u32,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            iteration: 0,
            thread,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // A parent on thread 0 and two children on worker threads 1 and 2
        // that overlap each other: [10, 60) ∪ [40, 90) covers 80 of the
        // parent's 100, and a child running past the parent's end is
        // clipped.
        let spans = [
            span(1, None, "detector", 0, 0, 100),
            span(2, Some(1), "window", 1, 10, 60),
            span(3, Some(1), "window", 2, 40, 90),
            span(4, None, "report", 0, 100, 130),
            span(5, Some(4), "render", 3, 120, 150),
        ];
        let p = Profile::new(&spans);
        assert_eq!(p.get("detector").2, 20);
        assert_eq!(p.get("window"), (2, 100, 100, 50));
        assert_eq!(
            p.get("report").2,
            20,
            "the child is clipped at the parent's end"
        );
        assert_eq!(p.get("missing"), (0, 0, 0, 0));
        // As two roots, "detector" and "report": their children cover 80
        // of 100 and 10 of 30.
        let renamed: Vec<Span> = spans
            .iter()
            .cloned()
            .map(|mut s| {
                if s.parent.is_none() {
                    s.name = "root";
                }
                s
            })
            .collect();
        assert_eq!(coverage(&renamed, "root"), 90.0 / 130.0);
        assert_eq!(coverage(&renamed, "absent"), 0.0);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (10, 20), (5, 8), (30, 31)]), 21);
    }

    #[test]
    fn tracer_records_nesting_across_threads() {
        let t = Tracer::default();
        t.set_iteration(2);
        t.span("outer", None, |outer| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span("inner", Some(outer), |_| ()));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner: Vec<_> = spans.iter().filter(|s| s.name == "inner").collect();
        assert!(inner
            .iter()
            .all(|s| s.parent == Some(outer.id) && s.iteration == 2));
        assert_ne!(inner[0].thread, inner[1].thread);
        let doc = crate::json::parse(&t.to_json("w").render()).unwrap();
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );
    }
}
