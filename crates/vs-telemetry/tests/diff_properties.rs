//! Seeded property tests for the golden-diff engine: tolerance edge cases,
//! NaN/missing/extra metrics, and label-order invariance.

use vs_num::Rng;
use vs_telemetry::{
    canonical_key, diff_snapshots, DiffOutcome, MetricsSnapshot, Tolerance, ToleranceSpec,
};

const CASES: u64 = 200;

fn rng_for(case: u64) -> Rng {
    Rng::seed_from_u64(0xd1ff_701e ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn gauges(pairs: &[(&str, f64)]) -> MetricsSnapshot {
    MetricsSnapshot {
        gauges: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        ..MetricsSnapshot::default()
    }
}

/// A diff of any snapshot against itself passes at zero tolerance,
/// whatever the values (including NaN and infinities).
#[test]
fn self_diff_passes_at_zero_tolerance() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let mut snap = MetricsSnapshot::default();
        for i in 0..rng.index(1, 8) {
            let v = match rng.below(5) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.range_f64(-1e6, 1e6),
            };
            snap.gauges.push((format!("g{i}"), v));
        }
        for i in 0..rng.index(0, 4) {
            snap.counters.push((format!("c{i}"), rng.below(1 << 40)));
        }
        let report = diff_snapshots(&snap, &snap, &ToleranceSpec::exact());
        assert!(report.is_pass(), "case {case}: {report}");
    }
}

/// The tolerance band is inclusive: a candidate exactly `abs` away from the
/// golden passes, one epsilon beyond fails. Uses power-of-two values so the
/// band edge is exactly representable.
#[test]
fn tolerance_edge_is_inclusive() {
    for case in 0..CASES {
        let mut rng = rng_for(0x10 + case);
        // golden: random integer in [-2^20, 2^20]; abs: 2^-k for k in 0..8.
        let golden = rng.range_u64(0, 1 << 21) as f64 - (1 << 20) as f64;
        let abs = (2.0_f64).powi(-(rng.below(9) as i32));
        let tol = Tolerance { abs, rel: 0.0 };
        assert!(tol.accepts(golden, golden + abs), "case {case}");
        assert!(tol.accepts(golden, golden - abs), "case {case}");
        let beyond = abs * 1.0000001 + f64::EPSILON * golden.abs();
        assert!(!tol.accepts(golden, golden + abs + beyond), "case {case}");
    }
}

/// Widening the tolerance never turns a pass into a failure.
#[test]
fn tolerance_is_monotonic() {
    for case in 0..CASES {
        let mut rng = rng_for(0x20 + case);
        let golden = rng.range_f64(-1e3, 1e3);
        let candidate = golden + rng.range_f64(-1.0, 1.0);
        let abs = rng.range_f64(0.0, 0.5);
        let rel = rng.range_f64(0.0, 0.1);
        let narrow = Tolerance { abs, rel };
        let wide = Tolerance {
            abs: abs + rng.range_f64(0.0, 1.0),
            rel: rel + rng.range_f64(0.0, 0.1),
        };
        if narrow.accepts(golden, candidate) {
            assert!(wide.accepts(golden, candidate), "case {case}");
        }
    }
}

/// NaN golden matches only NaN candidate; a NaN appearing on one side only
/// is a mismatch even under an infinite tolerance.
#[test]
fn nan_matches_only_nan() {
    let huge = Tolerance {
        abs: f64::INFINITY,
        rel: 0.0,
    };
    assert!(huge.accepts(f64::NAN, f64::NAN));
    assert!(!huge.accepts(f64::NAN, 0.0));
    assert!(!huge.accepts(0.0, f64::NAN));
    let g = gauges(&[("m", f64::NAN)]);
    let c = gauges(&[("m", 1.0)]);
    let report = diff_snapshots(&g, &c, &ToleranceSpec::uniform(huge));
    assert!(!report.is_pass());
}

/// A metric present in the golden but absent from the candidate fails; a
/// metric the candidate grew is reported but does not fail the diff.
#[test]
fn missing_fails_extra_passes() {
    for case in 0..CASES {
        let mut rng = rng_for(0x30 + case);
        let keep = rng.range_f64(-10.0, 10.0);
        let g = gauges(&[("kept", keep), ("lost", 1.0)]);
        let c = gauges(&[("kept", keep), ("grown", 2.0)]);
        let report = diff_snapshots(&g, &c, &ToleranceSpec::exact());
        assert!(!report.is_pass(), "case {case}");
        let lost = report.entries.iter().find(|e| e.key == "lost").unwrap();
        assert!(matches!(lost.outcome, DiffOutcome::MissingInCandidate { .. }));
        let grown = report.entries.iter().find(|e| e.key == "grown").unwrap();
        assert!(matches!(grown.outcome, DiffOutcome::ExtraInCandidate { .. }));
        assert!(!grown.outcome.is_failure());
        // Dropping the lost metric from the golden makes it pass.
        let g2 = gauges(&[("kept", keep)]);
        assert!(diff_snapshots(&g2, &c, &ToleranceSpec::exact()).is_pass());
    }
}

/// `name{a=1,b=2}` and `name{b=2,a=1}` are the same metric: permuting label
/// order on either side must never produce a diff.
#[test]
fn label_order_permutation_is_invisible() {
    for case in 0..CASES {
        let mut rng = rng_for(0x40 + case);
        let n = rng.index(2, 5);
        let labels: Vec<String> = (0..n).map(|i| format!("k{i}={}", rng.below(10))).collect();
        let mut shuffled = labels.clone();
        // Fisher-Yates with the seeded rng.
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.index(0, i + 1));
        }
        let v = rng.range_f64(0.0, 1.0);
        let g = gauges(&[(&format!("m{{{}}}", labels.join(",")), v)]);
        let c = gauges(&[(&format!("m{{{}}}", shuffled.join(",")), v)]);
        let report = diff_snapshots(&g, &c, &ToleranceSpec::exact());
        assert!(report.is_pass(), "case {case}: {report}");
        assert_eq!(report.compared(), 1, "case {case}");
    }
}

/// Per-metric tolerance lookup resolves canonical key first, then base
/// name, then the default — independent of label order in the query.
#[test]
fn tolerance_lookup_precedence() {
    let spec = ToleranceSpec {
        default: Tolerance::EXACT,
        per_metric: vec![
            (
                canonical_key("pde{bench=bfs,pds=vs}"),
                Tolerance { abs: 0.5, rel: 0.0 },
            ),
            ("pde".to_string(), Tolerance { abs: 0.1, rel: 0.0 }),
        ],
    };
    // Exact canonical match wins (query labels permuted).
    assert_eq!(spec.lookup("pde{pds=vs,bench=bfs}").abs, 0.5);
    // Other labels fall back to the base name.
    assert_eq!(spec.lookup("pde{bench=other}").abs, 0.1);
    // Unrelated metrics get the default.
    assert_eq!(spec.lookup("energy"), Tolerance::EXACT);
}

/// ToleranceSpec JSON round-trips through its own writer and parser.
#[test]
fn tolerance_spec_json_roundtrip() {
    for case in 0..CASES {
        let mut rng = rng_for(0x50 + case);
        let mut per_metric = Vec::new();
        for i in 0..rng.index(0, 6) {
            per_metric.push((
                format!("metric{i}{{k={}}}", rng.below(4)),
                Tolerance {
                    abs: rng.range_f64(0.0, 1.0),
                    rel: rng.range_f64(0.0, 0.25),
                },
            ));
        }
        let spec = ToleranceSpec {
            default: Tolerance {
                abs: rng.range_f64(0.0, 1e-3),
                rel: rng.range_f64(0.0, 1e-6),
            },
            per_metric,
        };
        let text = spec.to_json_string();
        let back = ToleranceSpec::from_json_str(&text)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}");
    }
}

/// Malformed tolerance files are rejected with an error, not defaulted.
#[test]
fn tolerance_spec_rejects_malformed() {
    for bad in [
        "",
        "[]",
        "{\"default\": 3}",
        "{\"default\": {\"abs\": -1.0}}",
        "{\"default\": {\"abs\": 0.0}, \"metrics\": []}",
        "{\"metrics\": {\"m\": {\"rel\": -0.5}}}",
    ] {
        assert!(
            ToleranceSpec::from_json_str(bad).is_err(),
            "accepted malformed {bad:?}"
        );
    }
}
