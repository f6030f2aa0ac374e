//! The EXPERIMENTS.md headline claims as executable checks.
//!
//! Each claim names an experiment, a metric key in its artifact, the
//! paper's figure, and the acceptance band the reproduction must land in at
//! any reasonable profile (the bands absorb workload-scale effects; the
//! golden diff then pins exact values per profile).

use vs_telemetry::{canonical_key, RunArtifact};

use crate::ExperimentId;

/// One headline claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Short name, e.g. `pde-cross-layer`.
    pub name: &'static str,
    /// The experiment whose artifact carries the metric.
    pub experiment: ExperimentId,
    /// Gauge key (labels in any order).
    pub metric: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

/// The headline rows of EXPERIMENTS.md.
pub fn headline_claims() -> Vec<Claim> {
    vec![
        Claim {
            name: "pde-conventional",
            experiment: ExperimentId::Table3,
            metric: "pde{pds=vrm}",
            paper: "~80% (VRM baseline)",
            lo: 0.78,
            hi: 0.83,
        },
        Claim {
            name: "pde-single-layer-ivr",
            experiment: ExperimentId::Table3,
            metric: "pde{pds=ivr}",
            paper: "~85% (single-layer IVR)",
            lo: 0.84,
            hi: 0.88,
        },
        Claim {
            name: "pde-cross-layer",
            experiment: ExperimentId::Table3,
            metric: "pde{pds=vs-cross}",
            paper: "92.3% VS GPU PDE",
            lo: 0.92,
            hi: 0.96,
        },
        Claim {
            name: "pde-improvement",
            experiment: ExperimentId::Table3,
            metric: "pde_improvement",
            paper: "+12.3 pts over conventional",
            lo: 0.10,
            hi: 0.16,
        },
        Claim {
            name: "loss-eliminated",
            experiment: ExperimentId::Table3,
            metric: "loss_eliminated_frac",
            paper: "61.5% of conventional loss eliminated",
            lo: 0.55,
            hi: 0.80,
        },
        Claim {
            name: "crivr-area-saving",
            experiment: ExperimentId::Table3,
            metric: "area_saving_frac",
            paper: "-88% CR-IVR area vs circuit-only",
            lo: 0.87,
            hi: 0.90,
        },
        Claim {
            name: "worst-case-droop",
            experiment: ExperimentId::Fig9,
            metric: "worst_v{cfg=cross0.2}",
            paper: "bounded dip (0.792 V) at 0.2x area",
            lo: 0.75,
            hi: 0.90,
        },
        Claim {
            name: "worst-case-recovery",
            experiment: ExperimentId::Fig9,
            metric: "final_v{cfg=cross0.2}",
            paper: "recovers >= 0.8 V",
            lo: 0.80,
            hi: 1.00,
        },
        Claim {
            name: "circuit-only-collapse",
            experiment: ExperimentId::Fig9,
            metric: "worst_v{cfg=circ0.2}",
            paper: "circuit-only collapses at 0.2x area",
            lo: 0.0,
            hi: 0.40,
        },
        Claim {
            name: "net-energy-saving",
            experiment: ExperimentId::Fig14,
            metric: "saving_avg",
            paper: "10-15% net energy saving",
            lo: 0.05,
            hi: 0.20,
        },
        Claim {
            name: "dfs-advantage",
            experiment: ExperimentId::Fig15,
            metric: "dfs_saving_pts",
            paper: "VS+DFS saves 7-13% over conv+DFS",
            lo: 0.03,
            hi: 0.20,
        },
        Claim {
            name: "pg-advantage",
            experiment: ExperimentId::Fig16,
            metric: "pg_saving_pts",
            paper: "VS+PG stays ahead of conv+PG",
            lo: 0.03,
            hi: 0.20,
        },
        Claim {
            name: "imbalance-mostly-balanced",
            experiment: ExperimentId::Fig17,
            metric: "imbalance_frac{pm=none,case=average,bin=le10}",
            paper: ">= 50% of cycles below 10% imbalance",
            lo: 0.50,
            hi: 1.00,
        },
    ]
}

/// Outcome of checking one claim against an artifact set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimResult {
    /// The claim checked.
    pub claim: Claim,
    /// The measured value (`None` when the experiment or metric was absent).
    pub value: Option<f64>,
    /// Whether the claim holds.
    pub pass: bool,
}

/// Reads a gauge from an artifact by canonical key.
pub fn gauge(artifact: &RunArtifact, key: &str) -> Option<f64> {
    let want = canonical_key(key);
    artifact
        .metrics()?
        .gauges
        .iter()
        .find(|(k, _)| canonical_key(k) == want)
        .map(|(_, v)| *v)
}

/// Checks every headline claim against the artifacts of a sweep. Claims
/// whose experiment is not in `artifacts` fail (a skipped headline is not a
/// pass).
pub fn check_claims(artifacts: &[(ExperimentId, &RunArtifact)]) -> Vec<ClaimResult> {
    headline_claims()
        .into_iter()
        .map(|claim| {
            let value = artifacts
                .iter()
                .find(|(id, _)| *id == claim.experiment)
                .and_then(|(_, a)| gauge(a, claim.metric));
            let pass = value.is_some_and(|v| v.is_finite() && v >= claim.lo && v <= claim.hi);
            ClaimResult { claim, value, pass }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_telemetry::{Event, MetricsSnapshot};

    fn artifact(gauges: &[(&str, f64)]) -> RunArtifact {
        RunArtifact {
            events: vec![Event::Metrics(MetricsSnapshot {
                counters: Vec::new(),
                gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            })],
        }
    }

    #[test]
    fn claims_name_valid_experiments_and_unique_names() {
        let claims = headline_claims();
        assert!(claims.len() >= 12);
        let mut names: Vec<_> = claims.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), headline_claims().len());
        for c in &claims {
            assert!(c.lo <= c.hi, "{}", c.name);
        }
    }

    #[test]
    fn gauge_lookup_ignores_label_order() {
        let a = artifact(&[("worst_v{lat=60,cfg=cross0.2}", 0.79)]);
        assert_eq!(gauge(&a, "worst_v{cfg=cross0.2,lat=60}"), Some(0.79));
        assert_eq!(gauge(&a, "worst_v{cfg=other}"), None);
    }

    #[test]
    fn check_claims_passes_in_band_fails_missing() {
        let a = artifact(&[("pde{pds=vs-cross}", 0.94)]);
        let results = check_claims(&[(ExperimentId::Table3, &a)]);
        let cross = results.iter().find(|r| r.claim.name == "pde-cross-layer").unwrap();
        assert!(cross.pass);
        assert_eq!(cross.value, Some(0.94));
        // Same artifact lacks the improvement gauge: that claim fails.
        let imp = results.iter().find(|r| r.claim.name == "pde-improvement").unwrap();
        assert!(!imp.pass);
        assert_eq!(imp.value, None);
        // Claims on absent experiments fail too.
        let fig9 = results.iter().find(|r| r.claim.name == "worst-case-droop").unwrap();
        assert!(!fig9.pass);
    }
}
