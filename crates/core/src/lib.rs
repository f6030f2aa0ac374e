//! # vs-core — the cross-layer voltage-stacked GPU system
//!
//! The paper's primary contribution, assembled from the workspace's
//! substrates: a lock-step co-simulation of the GPU timing simulator
//! (`vs-gpu`), the power model (`vs-power`), the power-delivery-network
//! circuit solver (`vs-circuit` + `vs-pds`), the control-theory voltage
//! smoothing loop (`vs-control`), and the collaborative power-management
//! hypervisor (`vs-hypervisor`).
//!
//! Entry points:
//!
//! * [`CosimConfig`] + [`run_scenario`] / [`Cosim::builder`] — run one of
//!   the twelve [`ScenarioId`] benchmarks under any of the four PDS
//!   configurations and get a [`CosimReport`] with PDE, loss breakdown,
//!   supply-noise statistics, and imbalance histograms.
//! * [`CosimPool`] — run many scenarios back-to-back on recycled
//!   circuit-solver workspaces (the allocation-free hot path behind the
//!   sweep executor; see DESIGN.md, "The zero-allocation hot path").
//! * [`CosimPool::run_group`] + [`TrunkKey`] — run several configurations
//!   of one workload on one GPU trunk until their SM controls diverge,
//!   each report bit-identical to its lone run (the sweep executor's
//!   group tasks; see DESIGN.md, "Sweep GPU trunks").
//! * [`run_worst_case`] — the synthetic worst-case imbalance scenario
//!   behind the paper's reliability guarantee (Figs. 9–10).
//! * [`RigLanes`] + [`run_worst_case_lanes`] — step several circuit-only
//!   rigs in lockstep through one batched SoA circuit solve, bit-identical
//!   to stepping each alone (dse's lanes of 4).
//! * [`GateSnapshot`] + [`fork_worst_case_lanes`] — fork worst-case runs
//!   from one steady-load trunk at their gate: each replays its controller
//!   over the trunk's recorded voltages and steps only its tail, or falls
//!   back to its full run if its loads leave the trunk's before the gate.
//!   A [`PdsRig`] clone forks a rig, and
//!   [`PdsRig::ledger_at_controller_power`] books one trajectory's ledger
//!   at any controller power (dse's trunks).
//! * [`PowerManagement`] — bolt on DFS, power gating, and the VS-aware
//!   hypervisor for the collaborative-power-management studies
//!   (Figs. 15–17).
//! * [`Cosim::run_supervised`] + [`FaultPlan`] — the robustness study: a
//!   seeded fault schedule (sensing, actuation, CR-IVR, load faults), a
//!   watchdog tracking time below the 0.8 V guardband per layer, and a
//!   [`RunVerdict`] per run instead of a panic when the solver gives up.
//! * [`CosimBuilder::telemetry`] — the stage profile: hand the run an
//!   enabled [`vs_telemetry::Telemetry`] and [`SupervisedReport::telemetry`]
//!   comes back holding one `stages` event, the wall time and span count of
//!   each of the loop's five stages. Everything else a run observes (PDE,
//!   droop, throttle fraction, guardband time, solver recovery) is in its
//!   report, and telemetry never changes it.
//!
//! # Examples
//!
//! ```no_run
//! use vs_core::{run_scenario, CosimConfig, PdsKind, ScenarioId};
//!
//! let cfg = CosimConfig {
//!     pds: PdsKind::VsCrossLayer { area_mult: 0.2 },
//!     ..CosimConfig::default()
//! };
//! let report = run_scenario(&cfg, ScenarioId::Hotspot);
//! println!("PDE = {:.1}%", 100.0 * report.pde());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod config;
mod cosim;
mod fault;
mod imbalance;
mod persist;
mod rig;
mod scenarios;
mod seed;
mod supervisor;

pub use batch::CosimPool;
pub use config::{CosimConfig, ParseGeometryError, PdsKind, StackGeometry, TRACE_STRIDE};
pub use cosim::{
    run_scenario, Cosim, CosimBuilder, CosimReport, GroupOutcome, GroupRun, GroupStats,
    PowerManagement, Ride, TrunkKey,
};
pub use fault::{CrIvrFault, FaultEvent, FaultKind, FaultPlan, FaultWindow, LoadGlitch};
pub use imbalance::ImbalanceHistogram;
pub use rig::{EnergyLedger, PdsRig, RigLanes};
pub use scenarios::{
    fork_worst_case_lanes, run_worst_case, run_worst_case_in, run_worst_case_lanes,
    worst_voltage_for, ForkCounts, GateSnapshot, ScenarioId, UnknownScenario, WorstCaseConfig,
    WorstCaseResult, WorstCaseVoltages,
};
pub use seed::derive_seed;
pub use supervisor::{CosimError, CycleBudget, RunVerdict, SupervisedReport, SupervisorConfig};
