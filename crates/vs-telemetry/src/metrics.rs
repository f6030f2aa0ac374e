//! Metrics: counters, gauges, and fixed-bucket histograms in a name-keyed
//! registry.
//!
//! The registry is meant for *aggregation-rate* updates (per run, per
//! experiment, per task), never for per-cycle ones: experiments record
//! their figure values in one, dse its frontier, and the executor its run
//! counters. Labeled dimensions (per SM, per benchmark, per point) are
//! encoded in the key (`name{sm=3}`) with the [`labeled`] helper.

use std::collections::BTreeMap;

use crate::json::Json;

/// Builds a labeled metric key: `name{k1=v1,k2=v2}` (stable label order is
/// the caller's responsibility; the registry treats the key as opaque).
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// A fixed-bucket histogram with Prometheus-style `le` (less-or-equal)
/// bucket semantics: a sample `v` lands in the first bucket whose upper
/// bound satisfies `v <= bound`; samples above every bound land in the
/// implicit overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given strictly-increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite samples count toward `total` (so data
    /// loss is visible) but land in the overflow bucket and do not poison
    /// `sum`/`min`/`max`.
    pub fn observe(&mut self, v: f64) {
        self.total += 1;
        if !v.is_finite() {
            *self.counts.last_mut().expect("overflow bucket") += 1;
            return;
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx] += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples observed (including non-finite ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let finite = self.total - self.counts.last().copied().unwrap_or(0);
        if finite == 0 {
            0.0
        } else {
            self.sum / finite as f64
        }
    }

    /// Smallest finite sample; `None` when no finite sample was observed.
    pub fn min(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.min)
    }

    /// Largest finite sample; `None` when no finite sample was observed.
    pub fn max(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.max)
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the bucket the target rank falls in — the
    /// Prometheus `histogram_quantile` convention — then clamps the result
    /// to the observed `[min, max]` range, so a single-bucket histogram
    /// cannot report a value no sample ever reached. A rank landing in the
    /// overflow bucket yields the largest finite sample (or the last bound
    /// when every sample was non-finite). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let v = bucket_quantile(&self.bounds, &self.counts, self.total, q)?;
        Some(match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => v.clamp(lo, hi),
            // No finite samples at all: the interpolation already fell
            // back to bucket bounds.
            _ => v,
        })
    }
}

/// Shared bucket-interpolation core for [`Histogram::quantile`] and
/// [`HistogramSnapshot::quantile`]. The first bucket interpolates from
/// `min(0, bounds[0])` (durations and counts start at zero; a genuinely
/// negative-bounded histogram starts at its own bound) and the overflow
/// bucket reports the last bound.
pub fn bucket_quantile(bounds: &[f64], counts: &[u64], total: u64, q: f64) -> Option<f64> {
    // Structural consistency first: a snapshot read back from a degraded
    // journal can claim samples its buckets never held (or vice versa);
    // reporting `None` beats fabricating a quantile from the bounds alone.
    if total == 0
        || bounds.is_empty()
        || counts.len() != bounds.len() + 1
        || counts.iter().sum::<u64>() != total
    {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if c > 0 && cum as f64 >= rank {
            let Some(&upper) = bounds.get(i) else {
                // Overflow bucket: no finite upper edge to interpolate to.
                return Some(*bounds.last().expect("non-empty bounds"));
            };
            let lower = if i == 0 { 0.0f64.min(upper) } else { bounds[i - 1] };
            let into = (rank - (cum - c) as f64).max(0.0);
            let frac = (into / c as f64).clamp(0.0, 1.0);
            return Some(lower + (upper - lower) * frac);
        }
    }
    // Unreachable once the counts sum to `total > 0`: the final cumulative
    // count equals `total`, which is >= every clamped rank.
    None
}

/// A serializable snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric key (possibly labeled).
    pub name: String,
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, overflow last.
    pub counts: Vec<u64>,
    /// Sum of finite samples.
    pub sum: f64,
    /// Total samples observed.
    pub total: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile from the serialized buckets (the
    /// [`Histogram::quantile`] interpolation without the min/max clamp —
    /// snapshots do not carry the exact extremes). `None` when empty or
    /// structurally inconsistent.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(&self.bounds, &self.counts, self.total, q)
    }

    /// Mean of the recorded samples (`sum / total`); 0.0 when empty. The
    /// snapshot does not distinguish finite from non-finite samples, so the
    /// denominator is the full total.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }
}

/// A point-in-time export of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by key.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by key.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots by key.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exact key.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact key.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by exact key.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("name", Json::from(h.name.clone())),
                                ("bounds", Json::from(h.bounds.clone())),
                                (
                                    "counts",
                                    Json::Arr(h.counts.iter().map(|c| Json::from(*c)).collect()),
                                ),
                                ("sum", Json::from(h.sum)),
                                ("total", Json::from(h.total)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Option<MetricsSnapshot> {
        let counters = match v.get("counters")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let gauges = match v.get("gauges")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let histograms = v
            .get("histograms")?
            .as_arr()?
            .iter()
            .map(|h| {
                Some(HistogramSnapshot {
                    name: h.get("name")?.as_str()?.to_string(),
                    bounds: h
                        .get("bounds")?
                        .as_arr()?
                        .iter()
                        .map(Json::as_f64)
                        .collect::<Option<Vec<_>>>()?,
                    counts: h
                        .get("counts")?
                        .as_arr()?
                        .iter()
                        .map(Json::as_u64)
                        .collect::<Option<Vec<_>>>()?,
                    sum: h.get("sum")?.as_f64()?,
                    total: h.get("total")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

/// A name-keyed store of counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero.
    #[inline]
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Observes `value` in the histogram `name`, creating it with `bounds`
    /// on first touch (later calls ignore `bounds`).
    #[inline]
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// Current value of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Exports everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| HistogramSnapshot {
                    name: k.clone(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    sum: h.sum,
                    total: h.total,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_le_inclusive() {
        let mut h = Histogram::with_bounds(&[0.8, 0.9, 1.0]);
        // A sample exactly on a bound lands in that bound's bucket.
        h.observe(0.8);
        h.observe(0.9);
        h.observe(1.0);
        assert_eq!(h.counts(), &[1, 1, 1, 0]);
        // Just above a bound spills into the next bucket.
        h.observe(0.800_001);
        assert_eq!(h.counts(), &[1, 2, 1, 0]);
        // Below every bound: first bucket; above every bound: overflow.
        h.observe(-5.0);
        h.observe(2.0);
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_stats_track_finite_samples() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(f64::NAN);
        assert_eq!(h.total(), 3);
        assert_eq!(*h.counts().last().unwrap(), 1, "NaN goes to overflow");
        assert!((h.mean() - 1.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1.5));
        assert!(h.sum().is_finite());
    }

    #[test]
    fn empty_histogram_min_max_are_none() {
        let h = Histogram::with_bounds(&[1.0]);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::with_bounds(&[1.0, 0.5]);
    }

    #[test]
    fn registry_records_and_snapshots() {
        let mut r = Registry::new();
        r.inc("solver.retries", 2);
        r.inc("solver.retries", 3);
        r.set_gauge(&labeled("gpu.ipc", &[("sm", "3")]), 1.25);
        r.observe("v.layer_min", &[0.8, 0.9, 1.0, 1.1], 0.95);
        let s = r.snapshot();
        assert_eq!(s.counter("solver.retries"), Some(5));
        assert_eq!(s.gauge("gpu.ipc{sm=3}"), Some(1.25));
        assert_eq!(s.histogram("v.layer_min").unwrap().total, 1);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut r = Registry::new();
        r.inc("x", 7);
        r.set_gauge("y", -0.5);
        r.observe("z", &[1.0, 2.0], 1.5);
        let s = r.snapshot();
        let parsed =
            MetricsSnapshot::from_json(&crate::json::parse(&s.to_json().to_string_compact()).unwrap())
                .unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn labeled_key_format() {
        assert_eq!(labeled("a", &[]), "a");
        assert_eq!(labeled("a", &[("sm", "0"), ("layer", "2")]), "a{sm=0,layer=2}");
    }

    #[test]
    fn empty_histogram_quantiles_are_none() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        let snap = HistogramSnapshot {
            name: "empty".to_string(),
            bounds: vec![1.0, 2.0],
            counts: vec![0, 0, 0],
            sum: 0.0,
            total: 0,
        };
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), 0.0);
        // Out-of-range q values clamp rather than panic, even when empty.
        assert_eq!(h.quantile(-1.0), None);
        assert_eq!(h.quantile(2.0), None);
        assert_eq!(bucket_quantile(&[1.0], &[0, 0], 0, 0.5), None);
        // Malformed shapes (counts != bounds + 1) are refused, not read
        // out of bounds.
        assert_eq!(bucket_quantile(&[1.0, 2.0], &[3, 4], 7, 0.5), None);
        assert_eq!(bucket_quantile(&[], &[5], 5, 0.5), None);
    }

    /// A snapshot whose `total` disagrees with its bucket counts (a torn or
    /// tampered journal read) yields `None` for every quantile — never a
    /// value interpolated from bounds no sample ever reached.
    #[test]
    fn inconsistent_snapshot_counts_yield_no_quantile() {
        // Claims 7 samples, buckets hold none.
        assert_eq!(bucket_quantile(&[1.0, 2.0], &[0, 0, 0], 7, 0.95), None);
        // Claims fewer samples than the buckets hold.
        assert_eq!(bucket_quantile(&[1.0, 2.0], &[3, 3, 0], 2, 0.5), None);
        let snap = HistogramSnapshot {
            name: "torn".to_string(),
            bounds: vec![1.0, 2.0],
            counts: vec![0, 0, 0],
            sum: 0.0,
            total: 7,
        };
        assert_eq!(snap.quantile(0.5), None);
        // Consistent counts still interpolate as before.
        assert_eq!(bucket_quantile(&[1.0, 2.0], &[2, 0, 0], 2, 1.0), Some(1.0));
    }

    #[test]
    fn single_bucket_saturation_keeps_quantiles_in_range() {
        // Every sample lands in the one finite bucket: quantiles must
        // interpolate inside it and stay within the observed range.
        let mut h = Histogram::with_bounds(&[10.0]);
        for _ in 0..1000 {
            h.observe(4.0);
        }
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            let v = h.quantile(q).unwrap();
            assert_eq!(v, 4.0, "q={q} must clamp to the only observed value");
        }
        // Saturating the overflow bucket instead: the estimate is pinned
        // to the last finite bound, clamped into [min, max].
        let mut over = Histogram::with_bounds(&[10.0]);
        for _ in 0..1000 {
            over.observe(50.0);
        }
        assert_eq!(over.quantile(0.5), Some(50.0), "clamped up to observed min");
        // The raw bucket estimate (snapshot path, no min/max clamp)
        // reports the last bound for overflow ranks.
        assert_eq!(bucket_quantile(&[10.0], over.counts(), over.total(), 0.5), Some(10.0));
    }

    #[test]
    fn labeled_key_order_is_stable_and_significant() {
        // Same labels, same order: byte-identical keys every time — the
        // registry and the diff layer treat the key as opaque text.
        let a1 = labeled("exec.wall", &[("suite", "s1"), ("scenario", "bfs")]);
        let a2 = labeled("exec.wall", &[("suite", "s1"), ("scenario", "bfs")]);
        assert_eq!(a1, a2);
        assert_eq!(a1, "exec.wall{suite=s1,scenario=bfs}");
        // Caller-supplied order is preserved, not sorted: swapping label
        // order produces a different key, so call sites must fix an order.
        let swapped = labeled("exec.wall", &[("scenario", "bfs"), ("suite", "s1")]);
        assert_ne!(a1, swapped);
        let mut r = Registry::new();
        r.inc(&a1, 1);
        r.inc(&a2, 1);
        r.inc(&swapped, 1);
        assert_eq!(r.counter(&a1), 2);
        assert_eq!(r.counter(&swapped), 1);
    }
}
