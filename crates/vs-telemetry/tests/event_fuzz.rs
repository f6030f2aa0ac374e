//! Seeded round-trip fuzz for the hand-rolled JSONL writer/parser: random
//! [`Event`] streams must survive `to_jsonl` -> `parse_jsonl` unchanged,
//! and so must the blessed artifacts under `goldens/`, byte for byte.
//!
//! Generated values stay inside the schema's representable domain: floats
//! are finite (non-finite serializes as `null` by design) and integers fit
//! in 53 bits (the JSON number mantissa).

use std::path::Path;

use vs_num::Rng;
use vs_telemetry::{
    DsePointRow, Event, FaultCampaignRow, MetricsSnapshot, RunArtifact, RunManifest, StageSample,
};

const CASES: u64 = 150;

fn rng_for(case: u64) -> Rng {
    Rng::seed_from_u64(0xc051_3a1e ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn finite(rng: &mut Rng) -> f64 {
    rng.range_f64(-1e9, 1e9)
}

fn small_u64(rng: &mut Rng) -> u64 {
    rng.below(1 << 53)
}

fn word(rng: &mut Rng, tag: &str) -> String {
    // Exercise the string escaper too: quotes, backslashes, control chars.
    let decorations = ["", "\"quoted\"", "back\\slash", "line\nbreak", "tab\there", "µ∂"];
    format!("{tag}-{}{}", rng.below(1000), decorations[rng.index(0, decorations.len())])
}

fn random_event(rng: &mut Rng) -> Event {
    match rng.below(5) {
        0 => Event::Manifest(RunManifest {
            schema_version: rng.below(10) as u32,
            benchmark: word(rng, "bench"),
            pds: word(rng, "pds"),
            seed: small_u64(rng),
            workload_scale: finite(rng),
            max_cycles: small_u64(rng),
            sample_stride: rng.below(1 << 20) as u32,
            crate_versions: (0..rng.index(0, 4))
                .map(|_| (word(rng, "crate"), word(rng, "ver")))
                .collect(),
        }),
        1 => Event::Stages(
            (0..rng.index(0, 4))
                .map(|_| StageSample {
                    stage: word(rng, "stage"),
                    total_s: finite(rng),
                    count: small_u64(rng),
                })
                .collect(),
        ),
        2 => Event::Metrics(MetricsSnapshot {
            counters: (0..rng.index(0, 4))
                .map(|i| (format!("c{i}-{}", rng.below(100)), small_u64(rng)))
                .collect(),
            gauges: (0..rng.index(0, 4))
                .map(|i| (format!("g{i}{{k={}}}", rng.below(100)), finite(rng)))
                .collect(),
        }),
        3 => Event::FaultRow(FaultCampaignRow {
            pds: word(rng, "pds"),
            fault: word(rng, "fault"),
            verdict: word(rng, "verdict"),
            min_sm_v: finite(rng),
            below_guardband_fraction: finite(rng),
            below_guardband_us: finite(rng),
            retries: small_u64(rng),
            sanitized: small_u64(rng),
            error: rng.chance(0.5).then(|| word(rng, "err")),
        }),
        _ => Event::DsePoint(DsePointRow {
            point: word(rng, "point"),
            pde: finite(rng),
            area_mult: finite(rng),
            worst_v: finite(rng),
            final_v: finite(rng),
            on_frontier: rng.chance(0.5),
        }),
    }
}

/// Random event streams survive write -> parse unchanged.
#[test]
fn random_artifacts_roundtrip() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let artifact = RunArtifact {
            events: (0..rng.index(1, 12)).map(|_| random_event(&mut rng)).collect(),
        };
        let text = artifact.to_jsonl();
        let back = RunArtifact::parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, artifact, "case {case}");
        // Writing the parsed artifact reproduces the exact bytes.
        assert_eq!(back.to_jsonl(), text, "case {case}");
    }
}

/// Every variant roundtrips individually (the stream fuzz could in
/// principle miss a variant for some seed set; this cannot).
#[test]
fn every_variant_roundtrips() {
    let mut rng = rng_for(0xeeee);
    let mut seen = [false; 5];
    for _ in 0..2000 {
        let event = random_event(&mut rng);
        let idx = match &event {
            Event::Manifest(_) => 0,
            Event::Stages(_) => 1,
            Event::Metrics(_) => 2,
            Event::FaultRow(_) => 3,
            Event::DsePoint(_) => 4,
        };
        seen[idx] = true;
        let artifact = RunArtifact { events: vec![event] };
        let back = RunArtifact::parse_jsonl(&artifact.to_jsonl()).expect("roundtrip");
        assert_eq!(back, artifact);
    }
    assert!(seen.iter().all(|&s| s), "generator missed a variant: {seen:?}");
}

/// `deterministic_jsonl` drops exactly the wall-time events and nothing
/// else, and the result still parses.
#[test]
fn deterministic_jsonl_drops_only_wall_time() {
    for case in 0..CASES {
        let mut rng = rng_for(0x77 + case);
        let artifact = RunArtifact {
            events: (0..rng.index(1, 12)).map(|_| random_event(&mut rng)).collect(),
        };
        let det = RunArtifact::parse_jsonl(&artifact.deterministic_jsonl())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let expect: Vec<Event> = artifact
            .events
            .iter()
            .filter(|e| !e.is_wall_time())
            .cloned()
            .collect();
        assert_eq!(det.events, expect, "case {case}");
        assert!(det.events.iter().all(|e| !e.is_wall_time()));
    }
}

/// Every blessed artifact (the experiments, the dse frontier and the fault
/// campaign; not the suite manifest, which carries no events) parses and
/// writes back to the exact bytes it was read from — the path behind the
/// deterministic artifact digests.
#[test]
fn golden_artifacts_roundtrip_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("goldens directory") {
        let path = entry.expect("goldens entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !name.ends_with(".jsonl") || name == "manifest.jsonl" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("golden artifact reads");
        let artifact = RunArtifact::parse_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            artifact.to_jsonl() == text,
            "{name} does not write back byte for byte"
        );
        checked.push(name);
    }
    for name in ["fig8.jsonl", "dse_frontier.jsonl", "fault_campaign.jsonl"] {
        assert!(
            checked.iter().any(|n| n == name),
            "{name} missing from {checked:?}"
        );
    }
    assert!(
        checked.len() >= 22,
        "20 experiments + dse + campaign, got {checked:?}"
    );
}
