//! Fault-injection campaign: graceful degradation across the stack.
//!
//! Sweeps fault mechanism x severity x PDS configuration through the
//! supervised co-simulation and prints a resilience table: per-cell verdict,
//! minimum SM voltage, worst-layer time below the 0.8 V guardband, and the
//! circuit solver's recovery activity. Demonstrates that one bad sensor, a
//! railed DAC, a dead sub-IVR, or NaN power telemetry degrades a run instead
//! of killing the sweep.
//!
//! The scenario catalogue, the parallel runner and the table row live in
//! [`vs_bench::campaign`]; this binary only routes the campaign's rows to
//! the two outputs (note their deliberate asymmetry: the printed table
//! truncates errors to their headline, the JSONL artifact keeps the full
//! string). `--jobs N` spreads the supervised runs over N workers — each on
//! its own long-lived solver pool, under the same panic-isolation and retry
//! policy as the sweep's scenario tasks — without changing a byte of the
//! output.
//!
//! `VS_BENCH_SCALE` / `VS_BENCH_MAX_CYCLES` shorten or lengthen the runs as
//! for `sweep`.
//!
//! Pass `--json <path>` (`-` means stdout) to also emit the table as a
//! machine-readable JSONL artifact in the `vs-telemetry` run-artifact
//! schema: a manifest line followed by one `fault_row` event per campaign
//! cell. File sinks are written atomically (tmp + rename).
//!
//! Exit codes follow the `sweep` contract: 0 success, 2 environment/usage
//! error, 3 internal error (panic outside every isolation boundary,
//! structured JSONL on stderr), 4 degraded (a campaign cell exhausted its
//! retries and was quarantined).

use std::process::ExitCode;

use vs_bench::campaign::{run_campaign, table_row};
use vs_bench::cli::{ArgSpec, CommandSpec};
use vs_bench::{print_table, volts, Executor};
use vs_core::{ScenarioId, SupervisorConfig};
use vs_telemetry::{write_atomic, Event, RunArtifact, RunManifest, SCHEMA_VERSION};

const SPEC: CommandSpec = CommandSpec {
    prog: "fault_campaign",
    about: "Sweep fault mechanism x severity x PDS and print the resilience table",
    common: &["--jobs", "--progress"],
    extras: &[ArgSpec {
        name: "--json",
        value: Some("PATH"),
        help: "also emit the table as a JSONL artifact (- = stdout)",
    }],
    positionals: &[],
};

fn main() -> ExitCode {
    vs_bench::install_panic_hook("fault_campaign");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = SPEC.parse_or_exit(&args);
    parsed.common.apply_observability();
    let settings = parsed.run_settings_or_exit();
    let jobs = parsed.common.jobs;
    let json_sink = parsed.extra("--json");
    let supervisor = SupervisorConfig::default();
    let benchmark = ScenarioId::Heartwall.profile();

    let rows = run_campaign(&Executor::default(), &settings, jobs);
    let quarantined = rows.iter().filter(|r| r.verdict == "quarantined").count();
    let cells = rows.len();
    let table: Vec<Vec<String>> = rows.iter().map(table_row).collect();

    let mut events = vec![Event::Manifest(RunManifest {
        schema_version: SCHEMA_VERSION,
        benchmark: benchmark.name.clone(),
        pds: "fault-campaign".to_string(),
        seed: settings.seed,
        workload_scale: settings.workload_scale,
        max_cycles: settings.max_cycles,
        sample_stride: 1,
        crate_versions: vec![(
            "vs-telemetry".to_string(),
            vs_telemetry::crate_version().to_string(),
        )],
    })];
    events.extend(rows.into_iter().map(Event::FaultRow));

    print_table(
        "Fault campaign: verdicts under injected faults (guardband 0.8 V)",
        &[
            "PDS",
            "fault",
            "verdict",
            "min V",
            "t<0.8V",
            "t<0.8V us",
            "retries",
            "sanitized",
            "error",
        ],
        &table,
    );
    println!(
        "\nverdicts: healthy = no excursion/recovery; degraded = recovered or \
         brief excursion; guardband-violated = >{:.2}% of cycles below {} ; \
         aborted = solver exhausted recovery; quarantined = the cell itself \
         kept failing and was skipped.",
        supervisor.guardband_tolerance * 100.0,
        volts(supervisor.v_guardband),
    );

    if let Some(sink) = json_sink {
        let artifact = RunArtifact { events };
        if sink == "-" {
            print!("{}", artifact.to_jsonl());
        } else {
            write_atomic(std::path::Path::new(sink), artifact.to_jsonl().as_bytes())
                .unwrap_or_else(|e| {
                    eprintln!("error: writing {sink}: {e}");
                    std::process::exit(2);
                });
            eprintln!("wrote JSONL resilience table to {sink}");
        }
    }
    if quarantined > 0 {
        eprintln!("fault campaign DEGRADED: {quarantined} quarantined cell(s)");
        eprintln!("[fault_campaign] exit 4: degraded — quarantined cells were skipped");
        return ExitCode::from(4);
    }
    eprintln!("[fault_campaign] exit 0: success — {cells} cell(s) ran, none quarantined");
    ExitCode::SUCCESS
}
