//! `benchmark compare BASE.json… -- HEAD.json…`: judges each workload ×
//! end-to-end metric of two sets of `result.json` files against the bounds
//! BENCHMARK.json fixes.

use std::collections::BTreeSet;

use vs_telemetry::json::{self, Json};

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles};

/// How a head set compares with a base set on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound, both spreads within it.
    Same,
    /// Better by more than the bound, or every head run beats every base run.
    Better,
    /// The head median is worse than the base median by more than the bound.
    Worse,
    /// A side's interquartile spread exceeds the bound, and the head does
    /// not beat the base on every run.
    Unresolved,
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => f64::INFINITY,
    }
}

/// Judges `head` against `base` for a metric whose regression bound is
/// `bound` (a share of the base median). Returns the verdict and how much
/// worse the head median is, as a share of the base median.
pub fn judge(base: &[f64], head: &[f64], bound: f64, lower_is_better: bool) -> (Verdict, f64) {
    let (b, h) = (
        median(base).unwrap_or(f64::NAN),
        median(head).unwrap_or(f64::NAN),
    );
    let worse_by = if lower_is_better {
        (h - b) / b
    } else {
        (b - h) / b
    };
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = head.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    let verdict = if spread(base) > bound || spread(head) > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound || all_better {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// `(bound, lower_is_better)` for an end-to-end metric, from BENCHMARK.json.
fn bound_of(name: &str) -> Result<(f64, bool), String> {
    let doc = json::parse(crate::BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entry = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|list| {
            list.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        })
        .ok_or_else(|| format!("BENCHMARK.json declares no end-to-end metric {name}"))?;
    let bound = entry
        .get("bound")
        .and_then(Json::as_f64)
        .ok_or("metric without a bound")?;
    Ok((
        bound,
        entry.get("better").and_then(Json::as_str) == Some("lower"),
    ))
}

/// Every workload record of one `result.json`.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path} has no workloads"))?
        .to_vec())
}

fn of<'a>(records: &'a [Json], workload: &'a str) -> impl Iterator<Item = &'a Json> + 'a {
    records
        .iter()
        .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

fn values(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    of(records, workload)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// failed ÷ attempted over every run of a workload.
fn error_rate(records: &[Json], workload: &str) -> f64 {
    let sum = |key: &str| {
        of(records, workload)
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    sum("failed") / sum("attempted").max(1.0)
}

fn describe(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
    format!("{:.6} [{q1:.6}, {q3:.6}]", median(v).unwrap_or(f64::NAN))
}

/// Runs the comparison; `Ok(true)` when nothing regressed or stayed
/// unresolved, the error rate did not rise and every digest agrees.
pub fn run(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare BASE.json... -- HEAD.json...")?;
    let load_all = |paths: &[String]| -> Result<Vec<Json>, String> {
        let mut all = Vec::new();
        for p in paths {
            all.extend(load(p)?);
        }
        Ok(all)
    };
    let (base, head) = (load_all(&args[..split])?, load_all(&args[split + 1..])?);
    if base.is_empty() || head.is_empty() {
        return Err("both sides need at least one result".to_string());
    }
    let workloads: BTreeSet<&str> = base
        .iter()
        .filter_map(|r| r.get("workload")?.as_str())
        .collect();
    let mut pass = true;
    println!(
        "{:14} {:12} {:34} {:34} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "worse", "bound"
    );
    for w in &workloads {
        for (metric, _) in END_TO_END {
            let (b, h) = (values(&base, w, metric), values(&head, w, metric));
            if b.is_empty() && h.is_empty() {
                continue;
            }
            if h.is_empty() {
                println!("{w:14} {metric:12} missing from the head results");
                pass = false;
                continue;
            }
            let (bound, lower) = bound_of(metric)?;
            let (verdict, worse_by) = judge(&b, &h, bound, lower);
            pass &= matches!(verdict, Verdict::Same | Verdict::Better);
            println!(
                "{w:14} {metric:12} {:34} {:34} {:>7.1}% {:>5.0}%  {verdict:?}",
                describe(&b),
                describe(&h),
                worse_by * 100.0,
                bound * 100.0
            );
        }
        let (eb, eh) = (error_rate(&base, w), error_rate(&head, w));
        if eh > eb {
            println!("{w:14} error_rate rose from {eb} to {eh}");
            pass = false;
        }
        let digests: BTreeSet<&str> = of(&base, w)
            .chain(of(&head, w))
            .filter_map(|r| r.get("output_digest")?.as_str())
            .collect();
        if digests.len() != 1 {
            println!("{w:14} output_digest differs: {digests:?}");
            pass = false;
        }
    }
    println!(
        "{}",
        if pass {
            "no regression"
        } else {
            "REGRESSION or unresolved metric"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&base, &[10.2, 10.1, 10.3, 10.2, 10.25], 0.1, true).0,
            Verdict::Same
        );
        assert_eq!(
            judge(&base, &[11.5, 11.6, 11.4, 11.5, 11.55], 0.1, true).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[11.5, 11.6, 11.4, 11.5, 11.55], 0.1, false).0,
            Verdict::Better
        );
        // A wide head spread leaves the metric unresolved...
        assert_eq!(
            judge(&base, &[8.0, 12.0, 9.0, 11.5, 10.0], 0.1, true).0,
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        assert_eq!(
            judge(&base, &[5.0, 9.0, 6.0, 8.5, 7.0], 0.1, true).0,
            Verdict::Better
        );
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        for (name, _) in END_TO_END {
            let (bound, _) = bound_of(name).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
    }
}
