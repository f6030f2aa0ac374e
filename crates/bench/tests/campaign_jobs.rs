//! Tier-1: the parallel fault campaign is byte-identical across worker
//! counts. Every supervised run goes through a worker's pool shard under
//! the executor's isolation/retry policy, and the canonical-slot assembly
//! must keep scheduling out of the results — same contract as the sweep's
//! shards.

use vs_bench::campaign::{campaign_pds, fault_scenarios, run_campaign};
use vs_bench::{Executor, RunSettings};
use vs_telemetry::Event;

/// Small enough for debug-mode CI: 21 supervised heartwall runs per sweep.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 12_000,
        seed: 42,
    }
}

#[test]
fn campaign_is_bit_identical_across_worker_counts() {
    let settings = micro();

    // The catalogue shape the cell count derives from: 14 fault scenarios,
    // 7 of which need the cross-layer controller.
    let scenarios = fault_scenarios(settings.seed);
    let needs_controller = scenarios.iter().filter(|s| s.needs_controller).count();
    assert_eq!(scenarios.len(), 14);
    assert_eq!(needs_controller, 7);
    let [circuit_only, cross_layer] = campaign_pds();
    assert!(!circuit_only.has_controller());
    assert!(cross_layer.has_controller());

    let mut runs = Vec::new();
    for jobs in [1usize, 2, 8] {
        let rows = run_campaign(&Executor::default(), &settings, jobs);
        // 14 cross-layer cells + 7 circuit-only cells, canonical order.
        assert_eq!(rows.len(), 21, "--jobs {jobs}");
        assert!(
            rows.iter().all(|r| r.verdict != "quarantined"),
            "--jobs {jobs}: clean campaign must not quarantine"
        );
        // Byte-level view: the JSONL event each row is emitted as.
        let jsonl: Vec<String> = rows
            .into_iter()
            .map(|r| Event::FaultRow(r).to_json().to_string_compact())
            .collect();
        runs.push((jobs, jsonl));
    }

    let (_, reference) = &runs[0];
    for (jobs, jsonl) in &runs[1..] {
        assert_eq!(
            jsonl, reference,
            "campaign rows differ between --jobs 1 and --jobs {jobs}"
        );
    }
}
