//! Metrics: named counters and gauges, and the gauge registry that
//! experiments and dse record their values in.
//!
//! The registry is meant for *aggregation-rate* updates (per experiment,
//! per frontier), never for per-cycle ones: experiments record their figure
//! values in one, dse its frontier. Counters reach a snapshot from their own
//! store: an executor's trace carries its run counters as one. Labeled
//! dimensions (per SM, per benchmark, per point) are encoded in the key
//! (`name{sm=3}`) with the [`labeled`] helper.

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

/// A point-in-time set of named counters and gauges: a [`Registry`]'s
/// export, or an executor's run counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by key.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by key.
    pub gauges: Vec<(String, f64)>,
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
            // Always empty: the schema once had a histogram kind, and every
            // golden artifact and benchmark output digest includes the key.
            ("histograms", Json::Arr(Vec::new())),
        ])
    }

    /// Reads a snapshot back; a `histograms` key (empty, or the histograms
    /// of a trace written before the kind was dropped) is ignored.
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
        Some(MetricsSnapshot { counters, gauges })
    }
}

/// A name-keyed store of gauges; snapshots list them in key order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    gauges: BTreeMap<String, f64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Exports everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Vec::new(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_snapshots() {
        let mut r = Registry::new();
        r.set_gauge("solver.retries", 2.0);
        r.set_gauge("solver.retries", 5.0);
        r.set_gauge(&labeled("gpu.ipc", &[("sm", "3")]), 1.25);
        let s = r.snapshot();
        assert_eq!(s.gauge("solver.retries"), Some(5.0), "the last set wins");
        assert_eq!(s.gauge("gpu.ipc{sm=3}"), Some(1.25));
        assert!(s.counters.is_empty());
        // Snapshots list gauges in key order, whatever the set order.
        let keys: Vec<&str> = s.gauges.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["gpu.ipc{sm=3}", "solver.retries"]);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut r = Registry::new();
        r.set_gauge("y", -0.5);
        let s = MetricsSnapshot {
            counters: vec![("x".to_string(), 7)],
            ..r.snapshot()
        };
        let text = s.to_json().to_string_compact();
        assert_eq!(
            text,
            r#"{"counters":{"x":7},"gauges":{"y":-0.5},"histograms":[]}"#
        );
        let parsed = MetricsSnapshot::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, s);
        // A snapshot written while the schema had a histogram kind (an older
        // trace's `executorMetrics`) still reads, its histograms ignored.
        let older = text.replace(
            "[]",
            r#"[{"name":"wall_s","bounds":[1.0],"counts":[0,2],"sum":2.5,"total":2}]"#,
        );
        let parsed = MetricsSnapshot::from_json(&crate::json::parse(&older).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn labeled_key_format() {
        assert_eq!(labeled("a", &[]), "a");
        assert_eq!(labeled("a", &[("sm", "0"), ("layer", "2")]), "a{sm=0,layer=2}");
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
        r.set_gauge(&a1, 1.0);
        r.set_gauge(&a2, 2.0);
        r.set_gauge(&swapped, 3.0);
        let s = r.snapshot();
        assert_eq!(s.gauges.len(), 2);
        assert_eq!(s.gauge(&a1), Some(2.0));
        assert_eq!(s.gauge(&swapped), Some(3.0));
    }
}
