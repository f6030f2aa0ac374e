//! The design-space-exploration driver: evaluates an [`AxisSpace`]'s cross
//! product — thousands of [`ConfigPoint`]s — as a tree of shared
//! trajectories and distills the results into a Pareto-frontier artifact.
//!
//! A point's metrics come from two short circuit-level runs on a recycled
//! [`SolverWorkspace`]:
//!
//! 1. a **uniform steady-load run** (`PdeRun`) of the point's
//!    [`vs_core::PdsRig`] for power-delivery efficiency (PDE), with the
//!    cross-layer family charged its control overhead (detector power per
//!    SM plus a loop power that scales inversely with the control latency —
//!    a faster loop costs more to run), and
//! 2. the **worst-case layer-gating scenario**
//!    ([`vs_core::run_worst_case_in`]) for the minimum loaded-SM voltage
//!    after the event — the droop the guardband must cover.
//!
//! Most points share their runs with other points. The PDE rig sees the
//! controller axes only through the overhead watts, and a circuit-only
//! worst-case run builds no controller at all. So [`run_dse`] keys each
//! run by exactly the inputs it reads (`PdeRun::stable_key_into`,
//! [`WorstCaseConfig::stable_key_into`]) and computes each distinct run
//! once: the full 1728-point grid needs 162 PDE runs and 882 worst-case
//! runs. [`evaluate_point`] runs both for one point with nothing shared;
//! it is the oracle the tests hold the shared runs to, bit for bit.
//!
//! The runs share more than their keys: their trajectories. Until the
//! gate, a worst-case run steps its rig under the steady per-SM load, and
//! the controller stays idle while every voltage sits above its threshold,
//! staging exactly that load. The PDE runs of the same rig step the same
//! circuit under the same load, and differ only in the overhead booked
//! beside the solve. So `run_dse` groups the pending points by **trunk**,
//! keyed by what a steady-load trajectory reads (`Trunk::stable_key_into`:
//! the stacked netlist's area and geometry, the time step, the per-SM load
//! and the recovery policy). Both runs of a point follow its trunk, and
//! each run's key holds every trunk field, so no two trunks share a run.
//! Each trunk is one task. It steps one scalar rig to the gate, recording
//! its per-SM voltages; **forks** each of its worst-case runs there
//! ([`vs_core::fork_worst_case_lanes`]), in lockstep lanes: a fork replays
//! its controller over the recorded voltages, checking its staged loads
//! against the trunk's bit for bit, and steps only its tail; then it steps
//! on to the PDE length and books each of its PDE runs from the one rig
//! ([`vs_core::PdsRig::ledger_at_controller_power`]). A run whose loads
//! leave the trunk's before the gate, or whose trunk gave up before it,
//! **falls back** to its full run. The full grid steps 18 trunks of 6 250
//! steps and 882 tails of 2 100 at the golden profile: 1 964 700
//! lane-steps where the runs stepped whole would take 4 099 500.
//!
//! The frontier is computed over the three objectives the paper trades
//! against each other: **maximize PDE, minimize CR-IVR area, maximize the
//! worst-case voltage**. A point is on the frontier iff no other evaluated
//! point is at least as good in all three and strictly better in one
//! (strict Pareto dominance; exact ties do not dominate each other).
//!
//! Scheduling is the executor's ([`Executor`]). The trunk tasks, in point
//! order, go through its claim loop, each under its attempt loop: a trunk
//! that panics retries with seeded backoff, and only a trunk that exhausts
//! its attempts panics `run_dse` (the binary exits 3). A task is pure — it
//! reads its trunk and its points' runs and returns its points' metrics
//! with what it stepped — so a retry repeats it bit for bit. The worker
//! that ran a trunk journals its points (`journal::record_point`, into
//! the executor's journal directory) as the task returns. Point
//! identity routes through [`SuiteKey`]: duplicate points evaluate once,
//! and `dse --resume` replays verified metrics and steps only the trunks
//! its lost points read. Artifacts are bit-identical whatever the worker
//! count, retry or resume history.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vs_circuit::{BatchStats, RecoveryPolicy, SolverWorkspace};
use vs_core::{
    fork_worst_case_lanes, run_worst_case_in, ForkCounts, GateSnapshot, PdsKind, PdsRig,
    StackGeometry, WorstCaseConfig,
};
use vs_telemetry::{
    labeled, DsePointRow, Event, Registry, RunArtifact, RunManifest, StageSample, SCHEMA_VERSION,
};

use crate::journal;
use crate::obs;
use crate::shard::{SuiteKey, MAX_ATTEMPTS};
use crate::space::{AxisSpace, ConfigPoint, PdsFamily};
use crate::sweep::effective_jobs;
use crate::{Executor, RunSettings};

/// The frontier artifact's file name inside a dse output directory.
pub const FRONTIER_FILE: &str = "dse_frontier.jsonl";

/// GPU clock the point evaluations step at (matches the co-simulation).
const CLOCK_HZ: f64 = 700e6;

/// Nominal per-SM load at `workload=1`, watts (the worst-case scenario's
/// steady load).
const P_SM_NOMINAL_W: f64 = 8.0;

/// Cross-layer loop power at the paper's T=60 latency, watts; a faster
/// loop costs proportionally more ([`control_overhead_w`]).
const LOOP_POWER_AT_T60_W: f64 = 0.08;

/// Worst-case tails a trunk task steps in lockstep as one batch. Each lane
/// owns a full rig, cloned from its trunk's rig at the gate (about 94 KB
/// for the 4×4 stack), and, for a cross-layer run, a controller (about
/// 25 KB), so the width trades peak memory for speed. Before the trunks,
/// when every run stepped whole, 8 lanes raised dse_full's peak RSS by
/// about 40% and 4 lanes by about 15% on the full golden grid at two
/// workers, while 4 lanes kept most of the 8-lane speed-up. A trunk task
/// also holds its rig and its pre-gate record (about 179 KB on the 4×4
/// stack at the golden profile) while its tails step: when the trunks came
/// in, over ten alternating benchmark pairs per seed on a two-vCPU host,
/// dse_full's peak RSS read medians of 6.11 → 6.48 MiB at seed 42 and
/// 6.13 → 6.41 MiB at seed 7 (+6% and +4.5%, inside the benchmark's 20%
/// bound).
const LANES: usize = 4;

/// Quiescent/control power of one per-layer charge-recycling IVR domain,
/// watts. Every layer of the stack hosts its own regulation domain in
/// both families, so taller stacks pay more standing loss — the term that
/// balances the taller stack's milder single-layer gating transient and
/// keeps stack height a genuine trade-off instead of a free win.
const IVR_QUIESCENT_PER_LAYER_W: f64 = 0.15;

/// The measured objectives of one evaluated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Power-delivery efficiency under uniform steady load.
    pub pde: f64,
    /// Worst loaded-SM voltage after the gating event, volts.
    pub worst_v: f64,
    /// Loaded-SM voltage at the end of the worst-case run, volts.
    pub final_v: f64,
}

/// What to explore and how. Completed points are journaled into the
/// executor's journal directory, if it has one (none for deterministic and
/// golden runs).
#[derive(Debug, Clone, Default)]
pub struct DseOptions {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Settings the evaluations run under (the cycle cap scales both run
    /// lengths; the seed travels in the manifest and the [`SuiteKey`]s).
    pub settings: RunSettings,
    /// The design space to enumerate.
    pub space: AxisSpace,
    /// Verified metrics replayed from a journal, keyed by
    /// [`SuiteKey::to_hex`] (see [`crate::journal::load_dse_resume`]).
    pub preloaded: HashMap<String, PointMetrics>,
}

/// A completed exploration.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// One row per *unique* configuration, in enumeration order, with
    /// `on_frontier` set.
    pub rows: Vec<DsePointRow>,
    /// The parsed points, parallel to `rows`.
    pub points: Vec<ConfigPoint>,
    /// Points the space enumerated (before [`SuiteKey`] dedup).
    pub enumerated: usize,
    /// Points evaluated in this run (not replayed from a journal).
    pub evaluated: usize,
    /// Points whose metrics replayed from the resume journal.
    pub replayed: usize,
    /// Distinct PDE runs computed: one per PDE-run key the evaluated
    /// points read.
    pub pde_runs: usize,
    /// Distinct worst-case runs computed: one per [`WorstCaseConfig`] key
    /// the evaluated points read.
    pub worst_case_runs: usize,
    /// Trunks stepped: one per distinct steady-load trajectory the planned
    /// runs share.
    pub trunks: usize,
    /// Steps the trunks took, summed (each trunk steps scalar).
    pub trunk_steps: u64,
    /// Worst-case runs that forked from their trunk's gate snapshot and
    /// stepped only their tails.
    pub forks: usize,
    /// Worst-case runs that stepped in full instead: their staged loads
    /// left the trunk's before the gate, or the trunk gave up before it.
    pub fallbacks: usize,
    /// Lockstep solve counters summed over every tail batch (fallbacks
    /// included): how many lane-solves went through multi-lane groups and
    /// how many alone.
    pub batch_stats: BatchStats,
    /// Worker threads actually used.
    pub jobs: usize,
    /// The settings everything ran under.
    pub settings: RunSettings,
    /// Total wall time, seconds (observational; excluded from
    /// deterministic artifacts).
    pub total_wall_s: f64,
}

/// Overhead power charged to a point's PDE run, watts. Both families pay
/// the per-layer CR-IVR quiescent loss (each layer is its own regulation
/// domain); the cross-layer family additionally pays the detector's
/// per-SM sensing power plus the loop power, scaled by how much faster
/// than T=60 the loop runs.
pub fn control_overhead_w(point: &ConfigPoint) -> f64 {
    let ivr = IVR_QUIESCENT_PER_LAYER_W * point.stack.n_layers as f64;
    match point.pds {
        PdsFamily::Cross => {
            ivr + point.detector.power_w() * point.stack.n_sms() as f64
                + LOOP_POWER_AT_T60_W * 60.0 / point.latency as f64
        }
        PdsFamily::Circuit => ivr,
    }
}

/// Strict Pareto dominance on (PDE ↑, area ↓, worst-case voltage ↑):
/// `a` dominates `b` iff `a` is at least as good in every objective and
/// strictly better in at least one.
pub fn dominates(a: &DsePointRow, b: &DsePointRow) -> bool {
    a.pde >= b.pde
        && a.area_mult <= b.area_mult
        && a.worst_v >= b.worst_v
        && (a.pde > b.pde || a.area_mult < b.area_mult || a.worst_v > b.worst_v)
}

/// Marks each row's frontier membership in place (O(n²) over unique
/// points; the full 1728-point grid is ~3M comparisons of three floats).
pub fn mark_frontier(rows: &mut [DsePointRow]) {
    for i in 0..rows.len() {
        rows[i].on_frontier = !(0..rows.len()).any(|j| j != i && dominates(&rows[j], &rows[i]));
    }
}

/// The uniform steady-load run a point's PDE comes from, holding exactly
/// the inputs the run reads. Points that differ only in axes the rig never
/// sees share one run: the weights and threshold never reach it, and the
/// latency and detector reach it only through `overhead_w`.
#[derive(Debug, Clone, Copy)]
struct PdeRun {
    /// PDS family and CR-IVR area.
    kind: PdsKind,
    /// Stack geometry.
    geometry: StackGeometry,
    /// Overhead power booked on every step, watts
    /// ([`control_overhead_w`]).
    overhead_w: f64,
    /// Uniform per-SM load, watts.
    p_sm_w: f64,
    /// Steps to run.
    steps: u64,
}

impl PdeRun {
    /// The PDE run of `point` under `settings`. Run length scales with the
    /// settings' cycle cap so profiles shorten dse runs the same way they
    /// shorten suite runs.
    fn of(point: &ConfigPoint, settings: &RunSettings) -> PdeRun {
        PdeRun {
            kind: point.pds.kind(point.area),
            geometry: point.stack,
            overhead_w: control_overhead_w(point),
            p_sm_w: P_SM_NOMINAL_W * point.workload,
            steps: (settings.max_cycles / 40).clamp(512, 8192),
        }
    }

    /// Appends this run's stable identity key: every field's bit pattern
    /// in declaration order (the exhaustive destructuring makes adding a
    /// field without extending the key a compile error).
    fn stable_key_into(&self, out: &mut Vec<u64>) {
        let PdeRun { kind, geometry, overhead_w, p_sm_w, steps } = *self;
        kind.stable_key_into(out);
        geometry.stable_key_into(out);
        out.extend([overhead_w.to_bits(), p_sm_w.to_bits(), steps]);
    }

    /// The run's rig, built in `workspace`.
    fn rig(&self, workspace: SolverWorkspace) -> PdsRig {
        PdsRig::with_params_in(
            self.kind,
            &self.geometry.pdn_params(),
            1.0 / CLOCK_HZ,
            self.overhead_w,
            workspace,
        )
    }

    /// The uniform per-SM load and the all-zero ballast/fake powers.
    fn loads(&self) -> (Vec<f64>, Vec<f64>) {
        let n_sms = self.geometry.n_sms() as usize;
        (vec![self.p_sm_w; n_sms], vec![0.0; n_sms])
    }

    /// Runs the rig on a recycled workspace and returns its PDE. Pure in
    /// `self`: the workspace only saves allocations.
    fn run(&self, workspace: SolverWorkspace) -> (f64, SolverWorkspace) {
        let mut rig = self.rig(workspace);
        let (loads, zeros) = self.loads();
        for _ in 0..self.steps {
            // A solver give-up leaves the rig at its last accepted state;
            // the ledger then reflects the truncated run — still a pure
            // function of the run, so determinism holds.
            if rig.step(&loads, &zeros, &zeros).is_err() {
                break;
            }
        }
        (rig.ledger().pde(), rig.into_workspace())
    }
}

/// The worst-case gating run of `point` under `settings`: one layer gates
/// at 40% of a span that scales with the settings' cycle cap.
fn worst_case_config(point: &ConfigPoint, settings: &RunSettings) -> WorstCaseConfig {
    let droop_steps = (settings.max_cycles / 40).clamp(1024, 3500);
    let duration_s = (1.0 / CLOCK_HZ) * droop_steps as f64;
    WorstCaseConfig {
        area_mult: point.area,
        geometry: point.stack,
        cross_layer: point.pds == PdsFamily::Cross,
        latency_cycles: point.latency,
        weights: point.weights,
        v_threshold: point.vth,
        detector: point.detector,
        p_sm_w: P_SM_NOMINAL_W * point.workload,
        gate_at_s: 0.4 * duration_s,
        duration_s,
        ..WorstCaseConfig::default()
    }
}

/// Evaluates one point on its own: its PDE run, then its worst-case run,
/// on a recycled workspace. Pure in (`point`, `settings`). [`run_dse`]
/// never calls this, since it shares runs between points; this is the
/// oracle its rows must equal bit for bit.
pub fn evaluate_point(
    point: &ConfigPoint,
    settings: &RunSettings,
    workspace: SolverWorkspace,
) -> (PointMetrics, SolverWorkspace) {
    let (pde, workspace) = PdeRun::of(point, settings).run(workspace);
    let (worst, workspace) = run_worst_case_in(&worst_case_config(point, settings), workspace);
    let metrics = PointMetrics {
        pde,
        worst_v: worst.worst_voltage,
        final_v: worst.final_voltage,
    };
    (metrics, workspace)
}

/// A steady-load trajectory of one stacked rig, holding exactly the inputs
/// it reads. Every PDE run and every pre-gate prefix of a worst-case run
/// with the same key steps the same circuit under the same loads, bit for
/// bit: the PDS family does not reach the netlist
/// ([`PdsRig::with_params_in`] builds circuit-only and cross-layer rigs
/// through one arm), the overhead watts are booked beside the solve, and
/// an idle controller stages exactly the steady load (checked per cycle by
/// the fork).
#[derive(Debug, Clone, Copy)]
struct Trunk {
    /// CR-IVR area of the stacked netlist, as a multiple of the GPU die.
    area_mult: f64,
    /// Stack geometry.
    geometry: StackGeometry,
    /// Time step, seconds.
    dt: f64,
    /// Uniform per-SM load, watts (no ballast, no fake instructions).
    p_sm_w: f64,
    /// The rig's solver-recovery policy.
    recovery: RecoveryPolicy,
}

impl Trunk {
    /// The trunk a PDE run's trajectory follows.
    fn of_pde(run: &PdeRun) -> Trunk {
        let (PdsKind::VsCircuitOnly { area_mult } | PdsKind::VsCrossLayer { area_mult }) = run.kind
        else {
            unreachable!("dse explores the stacked families only")
        };
        Trunk {
            area_mult,
            geometry: run.geometry,
            dt: 1.0 / CLOCK_HZ,
            p_sm_w: run.p_sm_w,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The trunk a worst-case run follows up to its gate.
    fn of_worst_case(cfg: &WorstCaseConfig) -> Trunk {
        Trunk {
            area_mult: cfg.area_mult,
            geometry: cfg.geometry,
            dt: cfg.dt(),
            p_sm_w: cfg.p_sm_w,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Appends this trunk's stable identity key: every field's bit pattern
    /// in declaration order (the exhaustive destructuring, of the recovery
    /// policy too, makes adding a field without extending the key a
    /// compile error).
    fn stable_key_into(&self, out: &mut Vec<u64>) {
        let Trunk { area_mult, geometry, dt, p_sm_w, recovery } = *self;
        let RecoveryPolicy {
            max_attempts,
            max_halvings,
            backward_euler_after,
            sanitize_controls,
        } = recovery;
        out.push(area_mult.to_bits());
        geometry.stable_key_into(out);
        out.extend([
            dt.to_bits(),
            p_sm_w.to_bits(),
            u64::from(max_attempts),
            u64::from(max_halvings),
            u64::from(backward_euler_after),
            u64::from(sanitize_controls),
        ]);
    }

    /// This trunk's stable identity key ([`Trunk::stable_key_into`]).
    fn key(&self) -> Vec<u64> {
        let mut words = Vec::new();
        self.stable_key_into(&mut words);
        words
    }

    /// The trunk's rig at controller power 0: each PDE run books its own
    /// overhead from it. Built in a fresh workspace, which the task drops
    /// with the rig.
    fn rig(&self) -> PdsRig {
        let kind = PdsKind::VsCircuitOnly { area_mult: self.area_mult };
        let mut rig = PdsRig::with_params(kind, &self.geometry.pdn_params(), self.dt, 0.0);
        rig.set_recovery_policy(self.recovery);
        rig
    }

    /// Ends a `dse`/`name` span of one of this trunk's runs that began at
    /// `started`, on `exec`'s tracer, labelled by the run's stack, area and
    /// family; free when tracing is off (`started` is `None`).
    fn end_run_span(&self, exec: &Executor, name: &str, started: Option<Instant>, cross: bool) {
        if started.is_some() {
            let family = if cross { PdsFamily::Cross } else { PdsFamily::Circuit };
            exec.tracer().end_span(
                "dse",
                name,
                started,
                &[
                    ("stack", self.geometry.to_string()),
                    ("area", self.area_mult.to_string()),
                    ("family", family.to_string()),
                ],
            );
        }
    }
}

/// Dedups `items` by their key words, in first-appearance order: returns
/// the distinct items and each item's index into them.
fn dedup<T>(
    items: impl Iterator<Item = T>,
    key: impl Fn(&T, &mut Vec<u64>),
) -> (Vec<T>, Vec<usize>) {
    let mut distinct: Vec<T> = Vec::new();
    let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
    let slots = items
        .map(|item| {
            let mut words = Vec::new();
            key(&item, &mut words);
            *index.entry(words).or_insert_with(|| {
                distinct.push(item);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, slots)
}

/// One trunk's work: the distinct runs its pending points read and, per
/// point, which two of them.
struct TrunkTask {
    trunk: Trunk,
    /// The trunk in the point grammar (`stack=4x4,area=0.2,workload=1`):
    /// the label of its attempts and its key in the chaos plan.
    label: String,
    /// The trunk's pending points, in point order, as indices into the
    /// pending list.
    readers: Vec<usize>,
    /// The distinct PDE runs, and each reader's index into them.
    pde_runs: Vec<PdeRun>,
    pde_of: Vec<usize>,
    /// The distinct worst-case runs, and each reader's index into them.
    worst_runs: Vec<WorstCaseConfig>,
    worst_of: Vec<usize>,
}

/// What a trunk task stepped; the run sums them over its tasks.
#[derive(Default)]
struct Stepped {
    batch_stats: BatchStats,
    trunk_steps: u64,
    forks: ForkCounts,
}

impl Stepped {
    fn absorb(&mut self, other: &Stepped) {
        self.batch_stats.absorb(&other.batch_stats);
        self.trunk_steps += other.trunk_steps;
        self.forks.forks += other.forks.forks;
        self.forks.fallbacks += other.forks.fallbacks;
    }
}

/// What a trunk task returns: its readers' metrics, in order, and what it
/// stepped.
struct TrunkOutcome {
    metrics: Vec<PointMetrics>,
    stepped: Stepped,
}

impl TrunkTask {
    /// The task of `trunk` for the pending points `readers` (in point order)
    /// under `settings`, its runs deduped by their keys.
    ///
    /// # Panics
    ///
    /// Panics if some reader's worst-case run follows another trunk.
    fn new(
        trunk: Trunk,
        readers: Vec<usize>,
        point_of: impl Fn(usize) -> ConfigPoint,
        settings: &RunSettings,
    ) -> TrunkTask {
        let points: Vec<ConfigPoint> = readers.iter().map(|&r| point_of(r)).collect();
        let (pde_runs, pde_of) = dedup(
            points.iter().map(|p| PdeRun::of(p, settings)),
            PdeRun::stable_key_into,
        );
        let (worst_runs, worst_of) = dedup(
            points.iter().map(|p| worst_case_config(p, settings)),
            WorstCaseConfig::stable_key_into,
        );
        // The forks clone this trunk's rig, so they must step its netlist.
        let key = trunk.key();
        assert!(
            worst_runs.iter().all(|cfg| Trunk::of_worst_case(cfg).key() == key),
            "a point's worst-case run follows its PDE run's trunk"
        );
        let p = &points[0];
        TrunkTask {
            trunk,
            label: format!("stack={},area={},workload={}", p.stack, p.area, p.workload),
            readers,
            pde_runs,
            pde_of,
            worst_runs,
            worst_of,
        }
    }

    /// Steps the trunk scalar to the gate, recording its per-SM voltages;
    /// forks every worst-case run there, in lockstep lanes of `LANES`; then
    /// steps on to the PDE length and books every PDE run from the one rig.
    /// If the solver gives up, the rig stays at its last accepted state:
    /// before the gate, every worst-case run falls back to its full run,
    /// and the PDE runs book the truncated run, as [`PdeRun::run`] does.
    /// Pure in the task. Under `exec`'s tracing the trunk is a `dse`/`trunk`
    /// span, each PDE run a `dse`/`pde_run` span from the trunk's start to
    /// its booking, and each worst-case run a `dse`/`worst_case_run` span
    /// over its tail batch.
    ///
    /// # Panics
    ///
    /// Panics unless the runs share one gate and one PDE length, the gate
    /// first: both depend only on the settings.
    fn run(&self, exec: &Executor) -> TrunkOutcome {
        let started = exec.tracer().begin();
        let gate = self.worst_runs[0].pre_gate_steps();
        let length = self.pde_runs[0].steps;
        assert!(
            gate <= length && self.pde_runs.iter().all(|run| run.steps == length),
            "{}: one PDE length per trunk, after its gate",
            self.label
        );
        let mut stepped = Stepped::default();
        let mut rig = self.trunk.rig();
        let n_sms = rig.n_sms();
        let loads = vec![self.trunk.p_sm_w; n_sms];
        let zeros = vec![0.0; n_sms];
        let mut record: Vec<f64> = Vec::with_capacity(gate as usize * n_sms);
        let mut voltages = Vec::with_capacity(n_sms);
        let mut steps = 0;
        let mut gave_up = false;
        while steps < gate && !gave_up {
            steps += 1;
            gave_up = rig.step(&loads, &zeros, &zeros).is_err();
            if !gave_up {
                rig.sm_voltages_into(&mut voltages);
                record.extend_from_slice(&voltages);
            }
        }

        // The forks read the rig and its record through the snapshot and
        // clone the rig; the trunk takes its rig back after them.
        let snapshot = GateSnapshot {
            rig,
            voltages: record,
            sm_power_w: loads,
            dcc_power_w: zeros.clone(),
            fake_power_w: zeros,
        };
        let mut workspaces: Vec<SolverWorkspace> = Vec::new();
        let mut worst = Vec::with_capacity(self.worst_runs.len());
        for lanes in self.worst_runs.chunks(LANES) {
            let span = exec.tracer().begin();
            let (voltages, counts) = fork_worst_case_lanes(
                lanes,
                (!gave_up).then_some(&snapshot),
                &mut workspaces,
                &mut stepped.batch_stats,
            );
            for cfg in lanes {
                self.trunk
                    .end_run_span(exec, "worst_case_run", span, cfg.cross_layer);
            }
            stepped.forks.forks += counts.forks;
            stepped.forks.fallbacks += counts.fallbacks;
            worst.extend(voltages);
        }
        let GateSnapshot { mut rig, sm_power_w: loads, fake_power_w: zeros, .. } = snapshot;

        while steps < length && !gave_up {
            steps += 1;
            gave_up = rig.step(&loads, &zeros, &zeros).is_err();
        }
        let pde: Vec<f64> = self
            .pde_runs
            .iter()
            .map(|run| {
                let cross = matches!(run.kind, PdsKind::VsCrossLayer { .. });
                self.trunk.end_run_span(exec, "pde_run", started, cross);
                rig.ledger_at_controller_power(run.overhead_w).pde()
            })
            .collect();
        stepped.trunk_steps = steps;
        exec.tracer().end_span(
            "dse",
            "trunk",
            started,
            &[
                ("stack", self.trunk.geometry.to_string()),
                ("area", self.trunk.area_mult.to_string()),
                ("steps", steps.to_string()),
            ],
        );

        let metrics = self
            .pde_of
            .iter()
            .zip(&self.worst_of)
            .map(|(&p, &w)| PointMetrics {
                pde: pde[p],
                worst_v: worst[w].worst_voltage,
                final_v: worst[w].final_voltage,
            })
            .collect();
        TrunkOutcome { metrics, stepped }
    }
}

/// Runs the exploration on `exec`: enumerate, dedup by [`SuiteKey`], group
/// the pending points by trunk, run one task per trunk through the
/// executor's claim and attempt loops, journal each task's points as it
/// returns, and mark the Pareto frontier.
///
/// # Panics
///
/// Panics if a trunk task panics on every attempt.
pub fn run_dse(exec: &Executor, opts: &DseOptions) -> DseResult {
    let started = Instant::now();
    let enumerated_points = opts.space.points();
    let enumerated = enumerated_points.len();

    // Dedup: first occurrence per SuiteKey wins the canonical slot.
    let mut seen: HashMap<SuiteKey, usize> = HashMap::new();
    let mut unique: Vec<(ConfigPoint, SuiteKey)> = Vec::new();
    for point in enumerated_points {
        let key = point.suite_key(&opts.settings);
        if !seen.contains_key(&key) {
            seen.insert(key.clone(), unique.len());
            unique.push((point, key));
        }
    }

    // Install journal replays; everything else is pending work.
    let mut slots: Vec<Option<PointMetrics>> = vec![None; unique.len()];
    let mut replayed = 0;
    let mut pending: Vec<usize> = Vec::new();
    for (i, (_, key)) in unique.iter().enumerate() {
        match opts.preloaded.get(&key.to_hex()) {
            Some(metrics) => {
                slots[i] = Some(*metrics);
                replayed += 1;
            }
            None => pending.push(i),
        }
    }
    let evaluated = pending.len();
    exec.count_replays(replayed);

    // Group the pending points by trunk, in point order, so the trunks
    // come out stack-major, then by area. Replayed points read no run, so
    // a resume steps just the trunks its lost points read.
    let settings = &opts.settings;
    let point_of = |reader: usize| unique[pending[reader]].0;
    let (trunks, trunk_of) = dedup(
        (0..evaluated).map(|reader| Trunk::of_pde(&PdeRun::of(&point_of(reader), settings))),
        Trunk::stable_key_into,
    );
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); trunks.len()];
    for (reader, &t) in trunk_of.iter().enumerate() {
        readers[t].push(reader);
    }
    let tasks: Vec<TrunkTask> = trunks
        .into_iter()
        .zip(readers)
        .map(|(trunk, readers)| TrunkTask::new(trunk, readers, point_of, settings))
        .collect();

    let jobs = effective_jobs(opts.jobs);
    let done = AtomicUsize::new(0);
    let progress_every = (evaluated / 20).max(1);
    let order: Vec<usize> = (0..tasks.len()).collect();
    let outcomes = exec.run_claims(jobs, &order, |t| {
        let task = &tasks[t];
        let labels = [("trunk", task.label.clone())];
        let attempts = exec.attempt(&task.label, &labels, |attempt, _| {
            if exec.chaos().panics_trunk(&task.label, attempt) {
                panic!("chaos: injected panic for trunk {} (attempt {attempt})", task.label);
            }
            Ok(task.run(exec))
        });
        let outcome = match attempts {
            Ok(success) => success.value,
            Err(errors) => panic!(
                "dse trunk {} failed {MAX_ATTEMPTS} attempt(s): {}",
                task.label,
                errors.join("; ")
            ),
        };
        for (&reader, metrics) in task.readers.iter().zip(&outcome.metrics) {
            let (point, key) = &unique[pending[reader]];
            if let Some(dir) = exec.journal_dir() {
                // Best-effort, like scenario journaling: a lost record costs
                // a recompute on resume, never the run.
                let _ = journal::record_point(dir, exec.chaos(), key, &point.to_string(), metrics);
            }
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(progress_every) || n == evaluated {
                obs::progress(|| format!("[dse] {n}/{evaluated} points"));
            }
        }
        outcome
    });

    let mut stepped = Stepped::default();
    for (task, outcome) in tasks.iter().zip(&outcomes) {
        stepped.absorb(&outcome.stepped);
        for (&reader, &metrics) in task.readers.iter().zip(&outcome.metrics) {
            slots[pending[reader]] = Some(metrics);
        }
    }
    let mut rows: Vec<DsePointRow> = unique
        .iter()
        .zip(slots.iter())
        .map(|((point, _), metrics)| {
            let m = metrics.expect("every dse point slot filled");
            DsePointRow {
                point: point.to_string(),
                pde: m.pde,
                area_mult: point.area,
                worst_v: m.worst_v,
                final_v: m.final_v,
                on_frontier: false,
            }
        })
        .collect();
    mark_frontier(&mut rows);

    DseResult {
        points: unique.into_iter().map(|(p, _)| p).collect(),
        rows,
        enumerated,
        evaluated,
        replayed,
        pde_runs: tasks.iter().map(|task| task.pde_runs.len()).sum(),
        worst_case_runs: tasks.iter().map(|task| task.worst_runs.len()).sum(),
        trunks: tasks.len(),
        trunk_steps: stepped.trunk_steps,
        forks: stepped.forks.forks,
        fallbacks: stepped.forks.fallbacks,
        batch_stats: stepped.batch_stats,
        jobs,
        settings: opts.settings,
        total_wall_s: started.elapsed().as_secs_f64(),
    }
}

impl DseResult {
    /// Frontier members as `(point, row)` pairs, enumeration order.
    pub fn frontier(&self) -> impl Iterator<Item = (&ConfigPoint, &DsePointRow)> {
        self.points
            .iter()
            .zip(self.rows.iter())
            .filter(|(_, row)| row.on_frontier)
    }

    /// Builds the frontier artifact: a manifest pinning the settings, one
    /// `dse_point` event per unique configuration, and a metrics snapshot
    /// with the population gauges plus per-frontier-member labeled
    /// objectives (so the golden diff's tolerance engine covers frontier
    /// identity and values). With `deterministic` false, a wall-time stage
    /// sample is appended — tagged so every comparison excludes it.
    pub fn artifact(&self, deterministic: bool) -> RunArtifact {
        let mut events = vec![Event::Manifest(RunManifest {
            schema_version: SCHEMA_VERSION,
            benchmark: "dse".to_string(),
            pds: "frontier".to_string(),
            seed: self.settings.seed,
            workload_scale: self.settings.workload_scale,
            max_cycles: self.settings.max_cycles,
            sample_stride: 1,
            crate_versions: vec![
                ("vs-bench".to_string(), env!("CARGO_PKG_VERSION").to_string()),
                ("vs-telemetry".to_string(), vs_telemetry::crate_version().to_string()),
            ],
        })];
        events.extend(self.rows.iter().cloned().map(Event::DsePoint));

        let mut registry = Registry::new();
        registry.set_gauge("dse.points_enumerated", self.enumerated as f64);
        registry.set_gauge("dse.points_unique", self.rows.len() as f64);
        registry.set_gauge(
            "dse.frontier_size",
            self.rows.iter().filter(|r| r.on_frontier).count() as f64,
        );
        for (point, row) in self.frontier() {
            let owned = point.labels();
            let labels: Vec<(&str, &str)> =
                owned.iter().map(|(k, v)| (*k, v.as_str())).collect();
            registry.set_gauge(&labeled("dse.pde", &labels), row.pde);
            registry.set_gauge(&labeled("dse.worst_v", &labels), row.worst_v);
        }
        events.push(Event::Metrics(registry.snapshot()));
        if !deterministic {
            events.push(Event::Stages(vec![StageSample {
                stage: "dse".to_string(),
                total_s: self.total_wall_s,
                count: self.rows.len() as u64,
            }]));
        }
        RunArtifact { events }
    }

    /// Writes the frontier artifact into `dir` as [`FRONTIER_FILE`]
    /// (atomic tmp + rename). Deterministic mode writes the wall-time-free
    /// form — the golden-blessing contract.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path, deterministic: bool) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let bytes = self.artifact(deterministic).to_jsonl().into_bytes();
        let path = dir.join(FRONTIER_FILE);
        vs_telemetry::write_atomic(&path, &bytes)?;
        Ok(path)
    }
}

/// One frontier claim's outcome (the dse analogue of
/// [`crate::claims::ClaimResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierClaim {
    /// The claim's name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The executable frontier claims, checked against an artifact's
/// `dse_point` rows:
///
/// * `frontier_nonempty` — a non-trivial exploration has at least one
///   non-dominated point;
/// * `paper_point_on_frontier` — the paper's headline cell (4×4 stack,
///   0.2× CR-IVR, cross-layer control) contains a frontier member: no
///   other configuration dominates the cross-layer design point the paper
///   builds its case on.
pub fn check_frontier_claims(rows: &[DsePointRow]) -> Vec<FrontierClaim> {
    let frontier = rows.iter().filter(|r| r.on_frontier).count();
    let paper_cell: Vec<&DsePointRow> = rows
        .iter()
        .filter(|r| {
            r.point.parse::<ConfigPoint>().is_ok_and(|p| {
                p.stack == StackGeometry::PAPER && p.area == 0.2 && p.pds == PdsFamily::Cross
            })
        })
        .collect();
    let on = paper_cell.iter().filter(|r| r.on_frontier).count();
    vec![
        FrontierClaim {
            name: "frontier_nonempty",
            pass: frontier > 0,
            detail: format!("{frontier} of {} points non-dominated", rows.len()),
        },
        FrontierClaim {
            name: "paper_point_on_frontier",
            // Vacuously failing when the space omits the paper cell keeps
            // the claim honest: the check only passes on evidence.
            pass: on > 0,
            detail: format!(
                "{on} of {} stack=4x4,area=0.2,pds=cross point(s) on the frontier",
                paper_cell.len()
            ),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(point: &str, pde: f64, area: f64, worst_v: f64) -> DsePointRow {
        DsePointRow {
            point: point.to_string(),
            pde,
            area_mult: area,
            worst_v,
            final_v: worst_v,
            on_frontier: false,
        }
    }

    #[test]
    fn dominance_is_strict_and_ties_coexist() {
        let better = row("a", 0.9, 0.2, 0.95);
        let worse = row("b", 0.8, 0.4, 0.90);
        let tie = row("c", 0.9, 0.2, 0.95);
        let mixed = row("d", 0.95, 0.4, 0.90);
        assert!(dominates(&better, &worse));
        assert!(!dominates(&worse, &better));
        assert!(!dominates(&better, &tie) && !dominates(&tie, &better));
        assert!(!dominates(&better, &mixed) && !dominates(&mixed, &better));

        let mut rows = vec![better, worse, tie, mixed];
        mark_frontier(&mut rows);
        let on: Vec<&str> = rows
            .iter()
            .filter(|r| r.on_frontier)
            .map(|r| r.point.as_str())
            .collect();
        assert_eq!(on, vec!["a", "c", "d"], "ties and trade-offs survive; dominated points fall");
    }

    #[test]
    fn frontier_claims_read_the_rows() {
        let paper = "stack=4x4,area=0.2,pds=cross";
        let mut rows = vec![row(paper, 0.9, 0.2, 0.95), row("area=1.72,pds=circuit", 0.92, 1.72, 0.9)];
        mark_frontier(&mut rows);
        let claims = check_frontier_claims(&rows);
        assert!(claims.iter().all(|c| c.pass), "{claims:?}");

        // Dominate the paper cell: the claim must fail with evidence.
        rows.push(row("stack=4x4,area=0.1,pds=circuit", 0.95, 0.1, 0.99));
        mark_frontier(&mut rows);
        let claims = check_frontier_claims(&rows);
        let paper_claim = claims.iter().find(|c| c.name == "paper_point_on_frontier").unwrap();
        assert!(!paper_claim.pass);
        assert!(paper_claim.detail.contains("0 of 1"));
    }

    /// Both families' runs at one (stack, area, load) follow one trunk:
    /// `PdsRig::with_params_in` builds circuit-only and cross-layer rigs
    /// through one arm, so the two kinds step bit-identical circuits.
    #[test]
    fn both_families_at_one_area_share_a_trunk() {
        let settings = RunSettings::tiny_profile();
        let cross = ConfigPoint::paper();
        let circuit = ConfigPoint { pds: PdsFamily::Circuit, latency: 120, ..cross };
        let key = Trunk::of_pde(&PdeRun::of(&cross, &settings)).key();
        for point in [cross, circuit] {
            assert_eq!(Trunk::of_pde(&PdeRun::of(&point, &settings)).key(), key, "{point}");
            let worst = worst_case_config(&point, &settings);
            assert_eq!(Trunk::of_worst_case(&worst).key(), key, "{point}");
        }
        // The plant's own inputs key apart.
        for other in [
            ConfigPoint { area: 0.4, ..cross },
            ConfigPoint { stack: StackGeometry::new(8, 2), ..cross },
            ConfigPoint { workload: 0.5, ..cross },
        ] {
            assert_ne!(Trunk::of_pde(&PdeRun::of(&other, &settings)).key(), key, "{other}");
        }

        let params = StackGeometry::PAPER.pdn_params();
        let rig = |kind| PdsRig::with_params(kind, &params, 1.0 / CLOCK_HZ, 0.3);
        let mut circuit = rig(PdsKind::VsCircuitOnly { area_mult: 0.2 });
        let mut cross = rig(PdsKind::VsCrossLayer { area_mult: 0.2 });
        let loads: Vec<f64> = (0..16).map(|sm| 4.0 + 0.5 * (sm % 5) as f64).collect();
        let zeros = vec![0.0; 16];
        let bits = |rig: &PdsRig| -> Vec<u64> {
            let mut words: Vec<u64> = rig.sm_voltages().iter().map(|v| v.to_bits()).collect();
            words.extend([rig.ledger().pde().to_bits(), rig.ledger().board_input_j.to_bits()]);
            words
        };
        for _ in 0..200 {
            circuit.step(&loads, &zeros, &zeros).unwrap();
            cross.step(&loads, &zeros, &zeros).unwrap();
            assert_eq!(bits(&circuit), bits(&cross));
        }
    }

    #[test]
    fn control_overhead_charges_layers_and_the_cross_control_plane() {
        let cross = ConfigPoint::paper();
        let circuit = ConfigPoint { pds: PdsFamily::Circuit, ..cross };
        // Both families pay the per-layer IVR quiescent loss; only the
        // cross-layer family pays for the detector and loop on top.
        let ivr4 = control_overhead_w(&circuit);
        assert!(ivr4 > 0.0);
        let base = control_overhead_w(&cross);
        assert!(base > ivr4);
        // Taller stacks pay more standing loss in either family.
        let tall = ConfigPoint {
            stack: vs_core::StackGeometry::new(8, 2),
            ..circuit
        };
        assert!(control_overhead_w(&tall) > ivr4);
        // A faster loop costs more; a slower one less.
        let fast = ConfigPoint { latency: 30, ..cross };
        let slow = ConfigPoint { latency: 120, ..cross };
        assert!(control_overhead_w(&fast) > base);
        assert!(control_overhead_w(&slow) < base);
    }
}
