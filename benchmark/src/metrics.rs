//! The metric vocabulary BENCHMARK.json declares, and one workload run's
//! outcome: metrics, correctness checks, failure counts, output digest.

use std::fmt::Write as _;

use vs_telemetry::json::Json;

/// End-to-end metrics (untraced runs), `(name, unit)`. Every workload
/// reports every one; README.md defines each per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), `(name, unit)`. Every workload reports
/// every one: the co-sim, kernel and transport probes are the same on each,
/// and the `exec.`, `journal.` and `telemetry.` metrics come from the
/// workload's own program run.
pub const PER_LAYER: [(&str, &str); 34] = [
    // Co-sim stages: 12 scenarios x (4 Table-III PDS + VS-aware PM).
    ("vs-gpu.gpu_step_ns_per_cycle", "ns"),
    ("vs-gpu.gpu_step_share", "fraction"),
    ("vs-power.power_model_ns_per_cycle", "ns"),
    ("vs-power.power_model_share", "fraction"),
    ("vs-circuit.circuit_solve_ns_per_cycle", "ns"),
    ("vs-circuit.circuit_solve_share", "fraction"),
    ("vs-control.controller_update_ns_per_cycle", "ns"),
    ("vs-control.controller_update_share", "fraction"),
    ("vs-hypervisor.hypervisor_remap_ns_per_cycle", "ns"),
    ("vs-hypervisor.hypervisor_remap_share", "fraction"),
    ("vs-core.cycles", "count"),
    ("vs-core.ns_per_cycle", "ns"),
    ("vs-core.profiler_overhead_frac", "fraction"),
    ("vs-core.allocs_per_cycle", "count"),
    // Kernel probes: median of timed windows after warm-up.
    ("vs-gpu.tick_ns.heartwall", "ns"),
    ("vs-gpu.tick_ns.bfs", "ns"),
    ("vs-circuit.step_ns", "ns"),
    ("vs-circuit.lane_ns.n1", "ns"),
    ("vs-circuit.lane_ns.n2", "ns"),
    ("vs-circuit.lane_ns.n4", "ns"),
    ("vs-circuit.lane_ns.n8", "ns"),
    ("vs-control.update_ns", "ns"),
    ("vs-core.rig_step_ns", "ns"),
    ("vs-core.worst_case_ms", "ms"),
    // The workload's executor, journal/store and tracing layers.
    ("exec.tasks", "count"),
    ("exec.cpu_ms_per_task", "ms"),
    ("exec.parallel_efficiency", "fraction"),
    ("journal.records", "count"),
    ("journal.store_bytes", "B"),
    ("telemetry.trace_overhead_frac", "fraction"),
    // serve's transport: the same warm request over TCP and over stdio.
    ("serve.tcp_warm_p50_ms", "ms"),
    ("serve.tcp_warm_p90_ms", "ms"),
    ("serve.stdio_warm_p50_ms", "ms"),
    ("serve.stdio_warm_p90_ms", "ms"),
];

/// The declared list a run in `traced` mode must emit.
pub fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Declared unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// One correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Evidence.
    pub detail: String,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (tasks, points, requests).
    pub attempted: u64,
    /// Operations that failed, plus failed correctness checks.
    pub failed: u64,
    /// Correctness checks run.
    pub checks: Vec<Check>,
    /// Measured metrics, in recording order.
    pub metrics: Vec<Metric>,
    /// Report-only figures that are not declared metrics.
    pub details: Vec<String>,
    /// FNV-1a digest of the deterministic output.
    pub digest: String,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            ..Outcome::default()
        }
    }

    /// Records a metric under its declared unit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared: the emitted set must equal the
    /// declared one.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .1;
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records a check; a failed check also counts as a failed operation.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        if !pass {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail: detail.into(),
        });
    }

    /// Checks that exactly the declared set was emitted, each value finite.
    pub fn check_emitted(&mut self, traced: bool) {
        let want = declared(traced);
        let missing: Vec<&str> = want
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| {
                !self
                    .metrics
                    .iter()
                    .any(|m| m.name == *n && m.value.is_finite())
            })
            .collect();
        let extra = self
            .metrics
            .iter()
            .filter(|m| !want.iter().any(|(n, _)| *n == m.name))
            .count();
        self.check(
            "every declared metric emitted once, finite",
            missing.is_empty() && extra == 0 && self.metrics.len() == want.len(),
            format!(
                "missing {missing:?}, {extra} undeclared, {} emitted",
                self.metrics.len()
            ),
        );
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn summary_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The record `result.json` keeps: the summary plus the workload,
    /// digest, sample counts, checks and details.
    pub fn record_json(&self) -> Json {
        let mut pairs = vec![("workload".to_string(), Json::from(self.workload.as_str()))];
        if let Json::Obj(summary) = self.summary_json() {
            pairs.extend(summary);
        }
        pairs.push((
            "output_digest".to_string(),
            Json::from(self.digest.as_str()),
        ));
        pairs.push((
            "samples".to_string(),
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::from(m.samples as u64)))
                    .collect(),
            ),
        ));
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::from(c.name.as_str())),
                    ("pass", Json::from(c.pass)),
                    ("detail", Json::from(c.detail.as_str())),
                ])
            })
            .collect();
        pairs.push(("checks".to_string(), Json::Arr(checks)));
        pairs.push(("details".to_string(), Json::from(self.details.clone())));
        Json::Obj(pairs)
    }

    /// Human-readable report: every metric with unit and sample count,
    /// the details, then every check.
    pub fn render(&self) -> String {
        let mut s = format!("== {} ==\n", self.workload);
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:44} {:>16.6} {:9} (n = {})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for d in &self.details {
            let _ = writeln!(s, "  . {d}");
        }
        for c in &self.checks {
            let _ = writeln!(
                s,
                "  {} {}: {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        let _ = writeln!(
            s,
            "  attempted {} failed {} output_digest {}",
            self.attempted, self.failed, self.digest
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json(key: &str) -> BTreeSet<(String, String)> {
        let doc = vs_telemetry::json::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn declared_sets_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(own(&END_TO_END), benchmark_json("end_to_end"));
        assert_eq!(own(&PER_LAYER), benchmark_json("per_layer"));
    }

    #[test]
    fn emitted_set_must_equal_the_declared_set() {
        let mut out = Outcome::new("x");
        for (name, _) in END_TO_END.iter().skip(1) {
            out.metric(name, 1.0, 1);
        }
        out.check_emitted(false);
        assert!(!out.correct(), "a missing metric fails the check");

        let mut out = Outcome::new("x");
        for (name, _) in END_TO_END {
            out.metric(name, 1.0, 1);
        }
        out.check_emitted(false);
        assert!(out.correct());
        let line = out.summary_json().to_string_compact();
        assert!(line.starts_with(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":"
        ));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Outcome::new("x").metric("made_up", 1.0, 1);
    }
}
