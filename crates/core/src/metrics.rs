//! Zero-dependency observability: counters, log-scale histograms and phase
//! timers, with a deterministic merge and a versioned JSON emission.
//!
//! The evaluation of the paper (§5, Table 1) is a measurement exercise —
//! races found, windows solved, per-COP solver effort — so the detector
//! keeps a machine-readable [`Metrics`] registry instead of throwing its
//! internal tallies away. Four metric families:
//!
//! * **counters** — monotone `u64` sums (verdict counts, solver decisions,
//!   salvage drops);
//! * **histograms** — fixed log₂-bucket distributions ([`Histogram`]):
//!   bucket 0 holds the value `0`, bucket `i ≥ 1` holds values in
//!   `[2^(i-1), 2^i)`, and the last bucket tops out at `u64::MAX`;
//! * **timings** — summed [`Duration`]s (wall clock, per-phase, per-window);
//! * **gauges** — high-water marks merged by maximum (peak window
//!   residency, queue depths).
//!
//! # Determinism contract
//!
//! Counters and histograms are *count-type* metrics: two detection runs
//! that merge the same window outcomes produce byte-identical values for
//! them, whatever `DetectorConfig::parallelism` is — the parallel driver
//! tallies solver effort per surviving COP record at merge time, in window
//! order (see `RaceDetector`). Timings are wall-clock measurements and
//! gauges are run-shape measurements (peak residency depends on worker
//! count and scheduling); neither is comparable across thread counts, so
//! each lives in its own JSON section (`timings_us`, `gauges`) and both
//! are stripped by [`Metrics::without_timings`].
//!
//! [`Metrics::merge`] is associative and commutative for counters and
//! histograms (element-wise saturating sums), so sharded runs can fold
//! their registries in any order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Version of the JSON document emitted by [`Metrics::to_json`]. Bumped on
/// any incompatible change to the schema (section names, histogram shape).
pub const METRICS_SCHEMA_VERSION: u64 = 4;

/// A fixed-shape log₂ histogram over `u64` values.
///
/// Values are assigned to one of [`Histogram::BUCKETS`] buckets: bucket 0
/// is exactly the value `0`; bucket `i` (for `1 ≤ i ≤ 64`) covers
/// `[2^(i-1), 2^i - 1]`, with bucket 64 capped at `u64::MAX`. The fixed
/// shape makes merging a plain element-wise sum — no rebinning, no
/// allocation, deterministic in any merge order.
///
/// # Examples
///
/// ```
/// use rvcore::Histogram;
///
/// let mut h = Histogram::new();
/// h.observe(0);
/// h.observe(5);
/// h.observe(u64::MAX);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), u64::MAX);
/// assert_eq!(Histogram::bucket_index(5), 3); // 5 ∈ [4, 8)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Number of buckets: one for `0`, one per power-of-two magnitude.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index for `value`: `0` for the value 0, otherwise the
    /// position of the highest set bit plus one — `value ∈ [2^(i-1), 2^i)`
    /// maps to bucket `i`. Total over the whole `u64` range, so no input
    /// can index out of bounds (`u64::MAX` lands in the last bucket).
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `(low, high)` value range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Histogram::BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < Histogram::BUCKETS, "bucket index out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one observation. The running sum saturates at `u64::MAX`
    /// instead of wrapping.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Element-wise accumulation of `other` into `self` — associative and
    /// commutative, so shard results can merge in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The count in bucket `index` (0 when out of range).
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets.get(index).copied().unwrap_or(0)
    }

    /// `(bucket index, count)` pairs for every non-empty bucket, in
    /// ascending index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }
}

/// A named registry of counters, histograms and timings.
///
/// # Examples
///
/// ```
/// use rvcore::Metrics;
///
/// let mut m = Metrics::new();
/// m.inc("detector.races", 2);
/// m.observe("solver.conflicts_per_cop", 17);
/// let json = m.to_json();
/// assert!(json.contains("\"schema_version\": 4"));
/// assert!(json.contains("\"detector.races\": 2"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Duration>,
    gauges: BTreeMap<String, u64>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `by` to the counter `name` (creating it at 0), saturating.
    pub fn inc(&mut self, name: &str, by: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(by);
    }

    /// Records one observation in the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Merges a whole histogram into the histogram `name`.
    pub fn record_histogram(&mut self, name: &str, hist: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Adds `elapsed` to the timing `name` (creating it at zero).
    pub fn record_time(&mut self, name: &str, elapsed: Duration) {
        *self.timings.entry(name.to_string()).or_default() += elapsed;
    }

    /// The counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The timing's accumulated duration (zero if absent).
    pub fn timing(&self, name: &str) -> Duration {
        self.timings.get(name).copied().unwrap_or(Duration::ZERO)
    }

    /// Raises the gauge `name` to at least `value` (creating it). Gauges
    /// are high-water marks: recording never lowers one, and merging two
    /// registries keeps the larger value.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// The gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Folds `other` into `self`: counters and histogram buckets sum
    /// (saturating), timings add. Associative and commutative for the
    /// count-type families, which is what makes `--jobs N` metric output
    /// reproducible when shards merge in a fixed order.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, &v) in &other.counters {
            self.inc(name, v);
        }
        for (name, h) in &other.histograms {
            self.record_histogram(name, h);
        }
        for (name, &d) in &other.timings {
            self.record_time(name, d);
        }
        for (name, &v) in &other.gauges {
            self.gauge_max(name, v);
        }
    }

    /// A copy with the timing and gauge sections dropped — exactly the
    /// deterministic (count-type) slice of the registry, comparable
    /// byte-for-byte across thread counts after [`Metrics::to_json`].
    /// (Gauges go with the timings: a peak-residency high-water mark
    /// depends on worker count and scheduling just like wall clock does.)
    pub fn without_timings(&self) -> Metrics {
        Metrics {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
            timings: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Serializes the registry to the versioned JSON schema.
    ///
    /// Layout (all numbers are non-negative integers; timings are reported
    /// in microseconds so the document stays float-free and parseable by
    /// the in-tree integer-only JSON parser):
    ///
    /// ```json
    /// {
    ///   "schema_version": 4,
    ///   "counters": { "detector.races": 1 },
    ///   "histograms": {
    ///     "solver.conflicts_per_cop":
    ///       {"count": 2, "sum": 5, "max": 4, "buckets": {"1": 1, "3": 1}}
    ///   },
    ///   "timings_us": { "detector.wall_time": 1234 },
    ///   "gauges": { "stream.peak_window_residency": 6 }
    /// }
    /// ```
    ///
    /// Key order is the registries' `BTreeMap` order, so emission is
    /// deterministic given equal contents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {METRICS_SCHEMA_VERSION},");
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_key(&mut out, name);
            let _ = write!(out, " {v}");
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_key(&mut out, name);
            let _ = write!(
                out,
                " {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": {{",
                h.count(),
                h.sum(),
                h.max()
            );
            for (j, (bucket, n)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{bucket}\": {n}");
            }
            out.push_str("}}");
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"timings_us\": {");
        for (i, (name, d)) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_key(&mut out, name);
            let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
            let _ = write!(out, " {us}");
        }
        out.push_str(if self.timings.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_key(&mut out, name);
            let _ = write!(out, " {v}");
        }
        out.push_str(if self.gauges.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out.push('\n');
        out
    }
}

/// Writes `"name":` with minimal escaping (metric names are plain ASCII in
/// practice, but quotes and backslashes must never corrupt the document).
fn write_json_key(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push_str("\":");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite requirement: bucket math is total and correct at the
    /// u64 boundaries — 0, 1, each power-of-two edge, and u64::MAX.
    #[test]
    fn bucket_index_is_total_over_u64() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        for i in 1..=63usize {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(Histogram::bucket_index(low), i, "low edge of bucket {i}");
            assert_eq!(Histogram::bucket_index(high), i, "high edge of bucket {i}");
        }
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert!(Histogram::bucket_index(u64::MAX) < Histogram::BUCKETS);
    }

    #[test]
    fn bucket_bounds_partition_the_range() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Contiguous, no gaps or overlaps, and the index maps back.
        for i in 0..Histogram::BUCKETS {
            let (low, high) = Histogram::bucket_bounds(i);
            assert!(low <= high);
            assert_eq!(Histogram::bucket_index(low), i);
            assert_eq!(Histogram::bucket_index(high), i);
            if i + 1 < Histogram::BUCKETS {
                let (next_low, _) = Histogram::bucket_bounds(i + 1);
                assert_eq!(next_low, high + 1, "bucket {i} must abut bucket {}", i + 1);
            }
        }
    }

    #[test]
    fn observe_at_extremes_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.bucket(64), 2);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let mut a = Histogram::new();
        a.observe(1);
        a.observe(100);
        let mut b = Histogram::new();
        b.observe(0);
        b.observe(100);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 201);
        assert_eq!(a.bucket(0), 1);
        assert_eq!(a.bucket(Histogram::bucket_index(100)), 2);
    }

    #[test]
    fn registry_roundtrip_and_merge() {
        let mut a = Metrics::new();
        a.inc("x", 2);
        a.observe("h", 3);
        a.record_time("t", Duration::from_micros(5));
        let mut b = Metrics::new();
        b.inc("x", 1);
        b.inc("y", 7);
        b.observe("h", 9);
        b.record_time("t", Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.counter("absent"), 0);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.timing("t"), Duration::from_micros(15));
    }

    #[test]
    fn gauges_keep_the_high_water_mark() {
        let mut a = Metrics::new();
        a.gauge_max("g", 5);
        a.gauge_max("g", 3);
        assert_eq!(a.gauge("g"), 5, "recording never lowers a gauge");
        assert_eq!(a.gauge("absent"), 0);
        let mut b = Metrics::new();
        b.gauge_max("g", 9);
        b.gauge_max("other", 1);
        a.merge(&b);
        assert_eq!(a.gauge("g"), 9, "merge takes the max");
        assert_eq!(a.gauge("other"), 1);
        assert!(a.to_json().contains("\"gauges\": {\n    \"g\": 9"));
    }

    #[test]
    fn without_timings_drops_timings_and_gauges() {
        let mut m = Metrics::new();
        m.inc("c", 1);
        m.observe("h", 2);
        m.record_time("t", Duration::from_secs(1));
        m.gauge_max("g", 4);
        let d = m.without_timings();
        assert_eq!(d.counter("c"), 1);
        assert!(d.histogram("h").is_some());
        assert_eq!(d.timing("t"), Duration::ZERO);
        assert_eq!(d.gauge("g"), 0);
        assert!(!d.to_json().contains("\"t\": "));
        assert!(!d.to_json().contains("\"g\": "));
    }

    #[test]
    fn json_is_versioned_and_deterministic() {
        let mut m = Metrics::new();
        m.inc("b", 2);
        m.inc("a", 1);
        m.observe("h", 5);
        m.record_time("t", Duration::from_micros(7));
        let json = m.to_json();
        assert!(json.contains("\"schema_version\": 4"), "{json}");
        assert!(json.contains("\"a\": 1"), "{json}");
        assert!(
            json.find("\"a\": 1").unwrap() < json.find("\"b\": 2").unwrap(),
            "keys emitted in sorted order"
        );
        assert!(json.contains("\"buckets\": {\"3\": 1}"), "{json}");
        assert!(json.contains("\"timings_us\""), "{json}");
        assert_eq!(json, m.clone().to_json(), "emission is a pure function");
    }

    #[test]
    fn empty_registry_emits_valid_sections() {
        let json = Metrics::new().to_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
        assert!(json.contains("\"timings_us\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
    }

    #[test]
    fn keys_with_quotes_are_escaped() {
        let mut m = Metrics::new();
        m.inc("odd\"key\\name", 1);
        let json = m.to_json();
        assert!(json.contains("odd\\\"key\\\\name"), "{json}");
    }
}
