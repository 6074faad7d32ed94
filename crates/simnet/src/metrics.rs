//! Lightweight measurement plumbing for experiments.
//!
//! The benchmark harness reads counters, duration distributions, fixed-
//! bucket histograms, and labeled gauges out of a [`MetricsRegistry`]
//! after a scenario run; nothing here touches wall-clock time.
//!
//! Every metric is written under a `&'static str` name, so the maps never
//! allocate for a name; readers look series up by any `&str`.

use mdagent_fx::FxHashMap;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::time::SimDuration;

/// A distribution of simulated durations with simple summary statistics.
///
/// Quantiles are served from a lazily sorted cache: recording appends in
/// O(1) and *explicitly invalidates* the cache; the first quantile read
/// after new samples sorts once, and further reads in the same batch
/// (p50, p95, …) reuse the sorted copy. `record` and `quantile` calls
/// may therefore be freely interleaved — a quantile always reflects
/// every sample recorded before it.
#[derive(Debug, Clone, Default)]
pub struct DurationStats {
    samples: Vec<SimDuration>,
    /// Sorted copy of `samples`; empty means stale (see [`DurationStats::record`]).
    sorted: RefCell<Vec<SimDuration>>,
}

impl DurationStats {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample and invalidates the sorted quantile cache, so
    /// the next [`DurationStats::quantile`] re-sorts and sees this
    /// sample. (The length check in `quantile` would also catch the
    /// append, but clearing here keeps the invalidation explicit rather
    /// than an inference from "samples are append-only".)
    pub fn record(&mut self, d: SimDuration) {
        if self.samples.len() == self.samples.capacity() {
            // Grow in explicit 1k-sample chunks so per-record cost on hot
            // measurement paths is a branch, not an implicit realloc policy.
            self.samples.reserve(1024);
        }
        self.samples.push(d);
        self.sorted.get_mut().clear();
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        self.samples.iter().copied().sum()
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.total() / self.samples.len() as u64
    }

    /// Largest sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The q-quantile (0.0–1.0) by nearest-rank, or zero when empty.
    ///
    /// Tiny samples follow directly from nearest-rank
    /// (`rank = max(1, ceil(n·q))`, 1-indexed into the sorted samples):
    ///
    /// * `n = 0` — every quantile is [`SimDuration::ZERO`] (there is no
    ///   sample to report; zero is the registry-wide "absent" value).
    /// * `n = 1` — every quantile, p0 through p100, is the lone sample.
    /// * `n = 2` — `q ≤ 0.5` reports the smaller sample, `q > 0.5` the
    ///   larger; in particular p50 is the smaller of the two (nearest-
    ///   rank never interpolates, so every reported value is a real
    ///   sample).
    ///
    /// `q` outside `[0, 1]` is clamped.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdagent_simnet::{DurationStats, SimDuration};
    ///
    /// let mut stats = DurationStats::new();
    /// assert_eq!(stats.quantile(0.99), SimDuration::ZERO); // n = 0
    /// stats.record(SimDuration::from_millis(7));
    /// assert_eq!(stats.quantile(0.0), SimDuration::from_millis(7)); // n = 1
    /// stats.record(SimDuration::from_millis(3));
    /// assert_eq!(stats.quantile(0.5), SimDuration::from_millis(3)); // n = 2
    /// assert_eq!(stats.quantile(0.51), SimDuration::from_millis(7));
    /// ```
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.sorted.borrow_mut();
        if sorted.is_empty() {
            sorted.extend_from_slice(&self.samples);
            sorted.sort_unstable();
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// All raw samples in recording order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

impl fmt::Display for DurationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} max={}",
            self.count(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.95),
            self.max()
        )
    }
}

/// A fixed-bucket histogram of simulated durations.
///
/// Buckets are cumulative-style ranges defined by their upper bounds in
/// microseconds; one implicit overflow bucket catches everything above
/// the last bound. Unlike [`DurationStats`] it never retains raw samples,
/// so memory stays constant however long a scenario runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing, in microseconds.
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum_micros: u64,
}

impl Histogram {
    /// Default bounds: 100µs, 1ms, 10ms, 100ms, 1s, 10s.
    pub const DEFAULT_BOUNDS_MICROS: [u64; 6] =
        [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

    /// Creates a histogram with the given inclusive upper bounds (in
    /// microseconds). Bounds are sorted and deduplicated.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            total: 0,
            sum_micros: 0,
        }
    }

    /// Creates a histogram with [`Histogram::DEFAULT_BOUNDS_MICROS`].
    pub fn new() -> Self {
        Self::with_bounds(&Self::DEFAULT_BOUNDS_MICROS)
    }

    /// Records one observation.
    pub fn observe(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let idx = self.bounds.partition_point(|&b| b < us);
        // `counts` has `bounds.len() + 1` slots, so `idx` is always in
        // range; `get_mut` keeps the overflow bucket total even if a
        // future constructor gets the arithmetic wrong.
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        debug_assert!(idx < self.counts.len());
        self.total += 1;
        self.sum_micros = self.sum_micros.saturating_add(us);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// The inclusive upper bounds in microseconds (overflow bucket not
    /// included).
    pub fn bounds_micros(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final element is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={}", self.total)?;
        for (i, count) in self.counts.iter().enumerate() {
            match self.bounds.get(i) {
                Some(b) => write!(f, " le{}us={}", b, count)?,
                None => write!(f, " inf={}", count)?,
            }
        }
        Ok(())
    }
}

/// Named counters, duration series, histograms, and labeled gauges for
/// one scenario run.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::{MetricsRegistry, SimDuration};
///
/// let mut metrics = MetricsRegistry::new();
/// metrics.incr_static("messages.sent");
/// metrics.incr_by_static("bytes.sent", 1500);
/// metrics.observe_static("migration.total", SimDuration::from_millis(950));
/// metrics.set_gauge_static("platform.inbox_depth", "app-0@host-1", 3);
/// assert_eq!(metrics.counter("messages.sent"), 1);
/// assert_eq!(metrics.durations("migration.total").unwrap().count(), 1);
/// assert_eq!(metrics.gauge("platform.inbox_depth", "app-0@host-1"), Some(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    durations: BTreeMap<&'static str, DurationStats>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Label series are hashed; [`MetricsRegistry::gauges`] sorts them.
    gauges: BTreeMap<&'static str, FxHashMap<String, u64>>,
    /// Reused buffer gauge labels are rendered into.
    label_buf: String,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to a counter keyed by a `&'static str`: never allocates.
    // mdlint::hot
    pub fn incr_static(&mut self, name: &'static str) {
        self.incr_by_static(name, 1);
    }

    /// Adds `delta` to a counter keyed by a `&'static str`: never
    /// allocates for the name.
    pub fn incr_by_static(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a duration sample under a `&'static str` name: never
    /// allocates for the name.
    // mdlint::hot
    pub fn observe_static(&mut self, name: &'static str, d: SimDuration) {
        self.durations.entry(name).or_default().record(d);
    }

    /// Duration distribution for `name`, if any samples were recorded.
    pub fn durations(&self, name: &str) -> Option<&DurationStats> {
        self.durations.get(name)
    }

    /// Records an observation in the fixed-bucket histogram `name`,
    /// creating it with [`Histogram::DEFAULT_BOUNDS_MICROS`] on first use.
    // mdlint::hot
    pub fn observe_hist_static(&mut self, name: &'static str, d: SimDuration) {
        self.histograms.entry(name).or_default().observe(d);
    }

    /// The histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Sets the labeled gauge `name{label}` to `value` (e.g. inbox depth
    /// per agent, utilization per link). The label is rendered into a
    /// reused buffer and looked up by hash, so only the first value of a
    /// new series allocates.
    pub fn set_gauge_static(&mut self, name: &'static str, label: impl fmt::Display, value: u64) {
        self.label_buf.clear();
        // Writing into a `String` cannot fail.
        let _ = write!(self.label_buf, "{label}");
        let series = self.gauges.entry(name).or_default();
        if let Some(v) = series.get_mut(self.label_buf.as_str()) {
            *v = value;
        } else {
            series.insert(self.label_buf.clone(), value);
        }
    }

    /// Current value of the labeled gauge, if ever set.
    pub fn gauge(&self, name: &str, label: &str) -> Option<u64> {
        self.gauges.get(name)?.get(label).copied()
    }

    /// Iterates over `(name, label, value)` for every gauge, name-ordered
    /// then label-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        let mut all: Vec<_> = self
            .gauges
            .iter()
            .flat_map(|(name, series)| {
                series
                    .iter()
                    .map(move |(label, v)| (*name, label.as_str(), *v))
            })
            .collect();
        all.sort_unstable_by_key(|&(name, label, _)| (name, label));
        all.into_iter()
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates over all duration series in name order.
    pub fn duration_series(&self) -> impl Iterator<Item = (&str, &DurationStats)> {
        self.durations.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkId;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.incr_static("a");
        m.incr_by_static("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn quantile_tiny_samples_follow_nearest_rank() {
        let mut s = DurationStats::new();
        // n = 0: every quantile is the absent value.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), SimDuration::ZERO);
        }
        // n = 1: every quantile is the lone sample.
        s.record(SimDuration::from_millis(7));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), SimDuration::from_millis(7));
        }
        // n = 2: q <= 0.5 reports the smaller, q > 0.5 the larger.
        s.record(SimDuration::from_millis(3));
        assert_eq!(s.quantile(0.0), SimDuration::from_millis(3));
        assert_eq!(s.quantile(0.5), SimDuration::from_millis(3));
        assert_eq!(s.quantile(0.51), SimDuration::from_millis(7));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(7));
        // Out-of-range q clamps instead of panicking.
        assert_eq!(s.quantile(-1.0), SimDuration::from_millis(3));
        assert_eq!(s.quantile(2.0), SimDuration::from_millis(7));
    }

    #[test]
    fn interleaved_record_and_quantile_stay_consistent() {
        let mut s = DurationStats::new();
        s.record(SimDuration::from_millis(50));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(50));
        // A smaller sample recorded after a quantile read must be seen
        // by the next read: the cache was explicitly invalidated.
        s.record(SimDuration::from_millis(10));
        assert_eq!(s.quantile(0.5), SimDuration::from_millis(10));
        s.record(SimDuration::from_millis(30));
        assert_eq!(s.quantile(0.5), SimDuration::from_millis(30));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(50));
        s.record(SimDuration::from_millis(70));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(70));
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn duration_stats_summaries() {
        let mut s = DurationStats::new();
        for ms in [10, 20, 30, 40] {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), SimDuration::from_millis(25));
        assert_eq!(s.max(), SimDuration::from_millis(40));
        assert_eq!(s.quantile(0.5), SimDuration::from_millis(20));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(40));
        assert_eq!(s.quantile(0.0), SimDuration::from_millis(10));
    }

    #[test]
    fn quantile_cache_tracks_new_samples() {
        let mut s = DurationStats::new();
        s.record(SimDuration::from_millis(10));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(10));
        // Out-of-order append must invalidate the sorted cache.
        s.record(SimDuration::from_millis(5));
        assert_eq!(s.quantile(0.0), SimDuration::from_millis(5));
        assert_eq!(s.quantile(1.0), SimDuration::from_millis(10));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DurationStats::new();
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.quantile(0.5), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_buckets_observations() {
        let mut h = Histogram::with_bounds(&[1_000, 10_000]);
        h.observe(SimDuration::from_micros(500)); // le 1ms
        h.observe(SimDuration::from_micros(1_000)); // le 1ms (inclusive)
        h.observe(SimDuration::from_micros(2_000)); // le 10ms
        h.observe(SimDuration::from_millis(50)); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.sum_micros(), 500 + 1_000 + 2_000 + 50_000);
        assert_eq!(h.to_string(), "n=4 le1000us=2 le10000us=1 inf=1");
    }

    #[test]
    fn registry_histograms_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.observe_hist_static("acl.delivery", SimDuration::from_micros(50));
        m.observe_hist_static("acl.delivery", SimDuration::from_secs(100));
        let h = m.histogram("acl.delivery").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(*h.bucket_counts().first().unwrap(), 1);
        assert_eq!(*h.bucket_counts().last().unwrap(), 1);

        m.set_gauge_static("inbox", "a@h", 2);
        m.set_gauge_static("inbox", "a@h", 5);
        m.set_gauge_static("inbox", "b@h", 1);
        assert_eq!(m.gauge("inbox", "a@h"), Some(5));
        assert_eq!(m.gauge("inbox", "missing"), None);
        let all: Vec<_> = m.gauges().collect();
        assert_eq!(all, vec![("inbox", "a@h", 5), ("inbox", "b@h", 1)]);

        // Series set out of lexical order still iterate label-ordered,
        // and a `Display` label reads back under its rendered text.
        m.set_gauge_static("link", LinkId(2), 20);
        m.set_gauge_static("link", LinkId(10), 100);
        m.set_gauge_static("link", "link-1", 10);
        m.set_gauge_static("link", LinkId(2), 25);
        assert_eq!(m.gauge("link", "link-2"), Some(25));
        let links: Vec<_> = m.gauges().filter(|g| g.0 == "link").collect();
        assert_eq!(
            links,
            vec![
                ("link", "link-1", 10),
                ("link", "link-10", 100),
                ("link", "link-2", 25),
            ]
        );
        let names: Vec<_> = m.gauges().map(|g| g.0).collect();
        assert_eq!(names, ["inbox", "inbox", "link", "link", "link"]);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.incr_static("b");
        m.incr_static("a");
        let names: Vec<_> = m.counters().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
