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
//! beside the solve. So `run_dse` keys **trunks** by what a steady-load
//! trajectory reads (`Trunk::stable_key_into`: the stacked netlist's area
//! and geometry, the time step, the per-SM load and the recovery policy).
//! One trunk per key steps scalar, books every PDE run of its key from
//! its one rig ([`vs_core::PdsRig::ledger_at_controller_power`]), records
//! its per-SM voltages up to the gate and snapshots its rig there. Each
//! worst-case run **forks** from the snapshot
//! ([`vs_core::fork_worst_case_lanes`]): it replays its controller over the
//! recorded voltages, checking its staged loads against the trunk's bit
//! for bit, and steps only its tail, in lockstep lanes. A run whose loads
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
//! Scheduling is dse's own batch cursor, not the executor's claim loop.
//! Before the workers start, the distinct runs of the *pending* points are
//! planned, grouped under their trunks, and cut into batches: each trunk,
//! then its tail batches of up to `LANES` (4) worst-case runs that fork
//! at one gate. Batches are listed trunk by trunk in point order, and
//! workers claim them off one atomic cursor. A tail batch whose snapshot
//! is not yet published waits on it; its trunk sits earlier on the cursor,
//! so it is already running and no schedule deadlocks, and a trunk that
//! panics wakes its waiters, which panic in turn. The last tail batch of a
//! gate takes the snapshot out of the plan, so about one pair per worker
//! holds one at a time. Every result is bit-identical to the run stepped
//! alone. Every pending point waits on its two runs, and the worker that
//! lands the second journals the point ([`crate::journal::record_point`]).
//! Point identity routes through [`SuiteKey`]: duplicate points evaluate
//! once, and `dse --resume` replays verified metrics and plans only the
//! runs its lost points read, stepping each trunk only as far as they
//! need. Artifacts are bit-identical whatever the worker count or resume
//! history.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use vs_circuit::{BatchStats, RecoveryPolicy, SolverWorkspace};
use vs_core::{
    fork_worst_case_lanes, run_worst_case_in, ForkCounts, GateSnapshot, PdsKind, PdsRig,
    StackGeometry, WorstCaseConfig, WorstCaseVoltages,
};
use vs_telemetry::{
    labeled, DsePointRow, Event, Registry, RunArtifact, RunManifest, StageSample, SCHEMA_VERSION,
};

use crate::journal;
use crate::obs;
use crate::shard::SuiteKey;
use crate::space::{AxisSpace, ConfigPoint, PdsFamily};
use crate::sweep::effective_jobs;
use crate::RunSettings;

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

/// Worst-case tails one worker steps in lockstep as one batch. Each lane
/// owns a full rig, cloned from its trunk's snapshot (about 94 KB for the
/// 4×4 stack), and, for a cross-layer run, a controller (about 25 KB), so
/// the width trades peak memory for speed. Before the trunks, when every
/// run stepped whole, 8 lanes raised dse_full's peak RSS by about 40% and
/// 4 lanes by about 15% on the full golden grid at two workers, while 4
/// lanes kept most of the 8-lane speed-up. The trunks add a snapshot and
/// its record per pair being forked: over ten alternating benchmark pairs
/// per seed on a two-vCPU host, dse_full's peak RSS read medians of
/// 6.11 → 6.48 MiB at seed 42 and 6.13 → 6.41 MiB at seed 7 (+6% and
/// +4.5%, inside the benchmark's 20% bound).
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

/// What to explore and how.
#[derive(Debug, Clone, Default)]
pub struct DseOptions {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Settings the evaluations run under (the cycle cap scales both run
    /// lengths; the seed travels in the manifest and the [`SuiteKey`]s).
    pub settings: RunSettings,
    /// The design space to enumerate.
    pub space: AxisSpace,
    /// Where to journal completed points for `--resume`; `None` disables
    /// journaling (deterministic/golden runs).
    pub journal_dir: Option<PathBuf>,
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

    /// The trunk's rig at controller power 0: each PDE run books its own
    /// overhead from it. Built in a fresh workspace, which the trunk drops
    /// when it ends: a worker's pool would otherwise hold one idle rig
    /// while the worker steps the tails, whose rigs are clones.
    fn rig(&self) -> PdsRig {
        let kind = PdsKind::VsCircuitOnly { area_mult: self.area_mult };
        let mut rig = PdsRig::with_params(kind, &self.geometry.pdn_params(), self.dt, 0.0);
        rig.set_recovery_policy(self.recovery);
        rig
    }
}

/// A distinct run, the pending points that read it (as indices into the
/// pending list), and the slot its result lands in once a worker computes
/// it.
struct Planned<R, T> {
    run: R,
    readers: Vec<usize>,
    result: OnceLock<T>,
}

/// Dedups the pending points' runs by their key words, in first-appearance
/// order: returns the distinct runs with their readers and empty result
/// slots, and each pending point's index into them.
fn plan<R, T>(
    runs: impl Iterator<Item = R>,
    key: impl Fn(&R, &mut Vec<u64>),
) -> (Vec<Planned<R, T>>, Vec<usize>) {
    let mut distinct: Vec<Planned<R, T>> = Vec::new();
    let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
    let slots = runs
        .enumerate()
        .map(|(reader, run)| {
            let mut words = Vec::new();
            key(&run, &mut words);
            let slot = *index.entry(words).or_insert_with(|| {
                distinct.push(Planned {
                    run,
                    readers: Vec::new(),
                    result: OnceLock::new(),
                });
                distinct.len() - 1
            });
            distinct[slot].readers.push(reader);
            slot
        })
        .collect();
    (distinct, slots)
}

/// Where a trunk stands at one of its gates.
enum GateState {
    /// The trunk has not reached the gate yet.
    Pending,
    /// The trunk reached the gate (`Some`, its snapshot) or gave up before
    /// it (`None`: every run forking here falls back). The last tail batch
    /// takes the snapshot out, leaving `None` behind for nobody.
    Published(Option<Arc<GateSnapshot>>),
    /// The trunk panicked before the gate.
    Abandoned,
}

/// A trunk's gate: the step its worst-case runs fork at, the runs, and
/// the snapshot slot their tail batches wait on.
struct Gate {
    /// Steps before the gate ([`WorstCaseConfig::pre_gate_steps`]).
    step: u64,
    /// The worst-case runs forking here, as indices into their plan.
    runs: Vec<usize>,
    /// The gate's state, and how many tail batches have yet to take it.
    state: Mutex<(GateState, usize)>,
    /// Signalled when the state leaves [`GateState::Pending`].
    published: Condvar,
}

impl Gate {
    /// A pending gate at `step`, with no runs or tail batches yet.
    fn new(step: u64) -> Gate {
        Gate {
            step,
            runs: Vec::new(),
            state: Mutex::new((GateState::Pending, 0)),
            published: Condvar::new(),
        }
    }

    /// Locks the state. No code panics while holding the lock, so a
    /// poisoned lock still holds a consistent state; taking it anyway keeps
    /// a trunk that unwinds from panicking again in [`AbandonOnDrop`].
    fn lock(&self) -> MutexGuard<'_, (GateState, usize)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves a pending gate to `next` and wakes its waiters; a gate already
    /// published stays as it is.
    fn settle(&self, next: GateState) {
        let mut state = self.lock();
        if matches!(state.0, GateState::Pending) {
            state.0 = next;
            self.published.notify_all();
        }
    }

    /// Waits until the trunk has published this gate and takes its
    /// snapshot: a shared handle, or the plan's own handle for the gate's
    /// last tail batch, so the snapshot is freed once that batch's forks
    /// have cloned it.
    ///
    /// # Panics
    ///
    /// Panics if the trunk panicked before the gate.
    fn take(&self) -> Option<Arc<GateSnapshot>> {
        let mut state = self
            .published
            .wait_while(self.lock(), |(state, _)| matches!(state, GateState::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        let (gate, tails_left) = &mut *state;
        let GateState::Published(snapshot) = gate else {
            drop(state);
            panic!("a dse trunk panicked before its gate");
        };
        *tails_left -= 1;
        if *tails_left == 0 {
            snapshot.take()
        } else {
            snapshot.clone()
        }
    }
}

/// Abandons every gate of a trunk still pending when the guard drops, so a
/// trunk that panics wakes its tail batches instead of leaving them
/// waiting. A trunk that finishes has published every gate, and the guard
/// changes nothing.
struct AbandonOnDrop<'g>(&'g [Gate]);

impl Drop for AbandonOnDrop<'_> {
    fn drop(&mut self) {
        for gate in self.0 {
            gate.settle(GateState::Abandoned);
        }
    }
}

/// A planned trunk: the PDE runs it books and the gates its worst-case
/// runs fork at.
struct TrunkPlan {
    trunk: Trunk,
    /// The PDE runs booked from this trunk, as indices into their plan.
    pde_runs: Vec<usize>,
    /// One gate per distinct pre-gate step count among its worst-case
    /// runs (one on every built-in grid).
    gates: Vec<Gate>,
}

/// One claim off the cursor: a trunk, or up to `LANES` worst-case runs
/// that fork at one gate of a trunk (one netlist, so the lanes share one
/// factorization), as indices into their plans.
enum Batch {
    Trunk(usize),
    Tail { trunk: usize, gate: usize, runs: Vec<usize> },
}

/// Sets the result slots of the `batch` runs of `plan` from `step`, and
/// returns each run's readers for the caller to land. Under tracing every
/// run becomes a `dse`/`name` span from `started` on the worker's track,
/// labelled by a point that reads it (`point_of`), and bumps `counter`;
/// untraced, tracing costs one relaxed load.
fn execute<'p, 'u, R, T: std::fmt::Debug>(
    plan: &'p [Planned<R, T>],
    batch: &[usize],
    (name, counter): (&str, &str),
    started: Option<Instant>,
    point_of: impl Fn(usize) -> &'u ConfigPoint,
    step: impl FnOnce(&[&R]) -> Vec<T>,
) -> Vec<&'p [usize]> {
    let planned: Vec<&Planned<R, T>> = batch.iter().map(|&r| &plan[r]).collect();
    let runs: Vec<&R> = planned.iter().map(|p| &p.run).collect();
    for (p, result) in planned.iter().zip(step(&runs)) {
        p.result.set(result).expect("each planned run executes once");
        if started.is_some() {
            obs::metric_inc(counter, 1);
            let point = point_of(p.readers[0]);
            obs::tracer().end_span(
                obs::worker_track(),
                "dse",
                name,
                started,
                &[
                    ("stack", point.stack.to_string()),
                    ("area", point.area.to_string()),
                    ("family", point.pds.to_string()),
                ],
            );
        }
    }
    planned.iter().map(|p| p.readers.as_slice()).collect()
}

/// Steps `plan`'s trunk scalar, as far as its pending runs read: it books
/// each PDE run at that run's step count, and publishes each gate's
/// snapshot (the rig, the per-SM voltages it recorded before the gate, and
/// its loads) at that gate's step. If the solver gives up, the rig stays
/// at its last accepted state: the gates not yet reached publish no
/// snapshot, so their runs fall back, and the PDE runs not yet booked book
/// the truncated run, as [`PdeRun::run`] does. Lands the booked runs'
/// readers through `land` and returns the steps taken.
fn run_trunk<'u>(
    plan: &TrunkPlan,
    pde_plan: &[Planned<PdeRun, f64>],
    point_of: impl Fn(usize) -> &'u ConfigPoint + Copy,
    land: impl Fn(&[usize]),
) -> u64 {
    let started = obs::tracer().begin();
    let abandon = AbandonOnDrop(&plan.gates);
    let mut rig = plan.trunk.rig();
    let n_sms = rig.n_sms();
    let loads = vec![plan.trunk.p_sm_w; n_sms];
    let zeros = vec![0.0; n_sms];
    let recorded = plan.gates.iter().map(|gate| gate.step).max().unwrap_or(0);
    let mut record: Vec<f64> = Vec::with_capacity(recorded as usize * n_sms);
    let mut voltages = Vec::with_capacity(n_sms);
    let book = |rig: &PdsRig, due: &dyn Fn(u64) -> bool| {
        let runs: Vec<usize> = plan
            .pde_runs
            .iter()
            .copied()
            .filter(|&r| pde_plan[r].result.get().is_none() && due(pde_plan[r].run.steps))
            .collect();
        let counter = ("pde_run", "dse.pde_runs");
        let booked = execute(pde_plan, &runs, counter, started, point_of, |runs| {
            runs.iter()
                .map(|run| rig.ledger_at_controller_power(run.overhead_w).pde())
                .collect()
        });
        for readers in booked {
            land(readers);
        }
    };

    let mut stops: Vec<u64> = plan.gates.iter().map(|gate| gate.step).collect();
    stops.extend(plan.pde_runs.iter().map(|&r| pde_plan[r].run.steps));
    stops.sort_unstable();
    stops.dedup();
    let mut steps = 0;
    'stepping: for &stop in &stops {
        while steps < stop {
            steps += 1;
            if rig.step(&loads, &zeros, &zeros).is_err() {
                break 'stepping;
            }
            if steps <= recorded {
                rig.sm_voltages_into(&mut voltages);
                record.extend_from_slice(&voltages);
            }
        }
        for gate in plan.gates.iter().filter(|gate| gate.step == stop) {
            // The last gate takes the record: nothing is recorded after it.
            let prefix = if stop == recorded {
                std::mem::take(&mut record)
            } else {
                record[..stop as usize * n_sms].to_vec()
            };
            gate.settle(GateState::Published(Some(Arc::new(GateSnapshot {
                rig: rig.clone(),
                voltages: prefix,
                sm_power_w: loads.clone(),
                dcc_power_w: zeros.clone(),
                fake_power_w: zeros.clone(),
            }))));
        }
        book(&rig, &|run_steps| run_steps == stop);
    }
    // After a give-up: the unreached gates fall back, and the unbooked PDE
    // runs book the truncated run. After a full trunk, both are no-ops.
    for gate in &plan.gates {
        gate.settle(GateState::Published(None));
    }
    book(&rig, &|_| true);
    drop(abandon);

    obs::metric_inc("dse.trunks", 1);
    obs::tracer().end_span(
        obs::worker_track(),
        "dse",
        "trunk",
        started,
        &[
            ("stack", plan.trunk.geometry.to_string()),
            ("area", plan.trunk.area_mult.to_string()),
            ("steps", steps.to_string()),
        ],
    );
    steps
}

/// What one worker stepped, summed over the workers at the end of the run.
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

/// Runs the exploration: enumerate, dedup by [`SuiteKey`], plan the
/// distinct runs the pending points read under their trunks, step the
/// trunks and fork their tails over the worker pool, journal each point as
/// its last run lands, and mark the Pareto frontier.
pub fn run_dse(opts: &DseOptions) -> DseResult {
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

    // Plan the distinct runs of the pending points only: replayed points
    // read no run, so a resume computes just what its lost points need.
    let settings = &opts.settings;
    let (pde_plan, pde_of): (Vec<Planned<PdeRun, f64>>, _) = plan(
        pending.iter().map(|&i| PdeRun::of(&unique[i].0, settings)),
        PdeRun::stable_key_into,
    );
    let (worst_plan, worst_of): (Vec<Planned<WorstCaseConfig, WorstCaseVoltages>>, _) = plan(
        pending.iter().map(|&i| worst_case_config(&unique[i].0, settings)),
        WorstCaseConfig::stable_key_into,
    );

    // Trunks: every planned run joins the trunk its trajectory follows,
    // visited at its first reader, so the trunks come out in point order
    // (stack-major, then area, by enumeration) and a trunk steps only as
    // far as its pending runs read.
    let mut trunks: Vec<TrunkPlan> = Vec::new();
    let mut trunk_index: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut trunk_of = |trunks: &mut Vec<TrunkPlan>, trunk: Trunk| {
        let mut words = Vec::new();
        trunk.stable_key_into(&mut words);
        *trunk_index.entry(words).or_insert_with(|| {
            trunks.push(TrunkPlan { trunk, pde_runs: Vec::new(), gates: Vec::new() });
            trunks.len() - 1
        })
    };
    for reader in 0..evaluated {
        let pde = pde_of[reader];
        if pde_plan[pde].readers[0] == reader {
            let t = trunk_of(&mut trunks, Trunk::of_pde(&pde_plan[pde].run));
            trunks[t].pde_runs.push(pde);
        }
        let worst = worst_of[reader];
        if worst_plan[worst].readers[0] == reader {
            let cfg = &worst_plan[worst].run;
            let t = trunk_of(&mut trunks, Trunk::of_worst_case(cfg));
            let gates = &mut trunks[t].gates;
            let step = cfg.pre_gate_steps();
            let g = match gates.iter().position(|gate| gate.step == step) {
                Some(g) => g,
                None => {
                    gates.push(Gate::new(step));
                    gates.len() - 1
                }
            };
            gates[g].runs.push(worst);
        }
    }

    // Batches: each trunk, then its tail batches of up to LANES runs per
    // gate. Every tail batch sits after its trunk on the cursor, so the
    // trunk it waits on is already claimed.
    let mut batches: Vec<Batch> = Vec::new();
    for (t, trunk) in trunks.iter_mut().enumerate() {
        batches.push(Batch::Trunk(t));
        for (g, gate) in trunk.gates.iter_mut().enumerate() {
            let before = batches.len();
            batches.extend(
                gate.runs
                    .chunks(LANES)
                    .map(|lanes| Batch::Tail { trunk: t, gate: g, runs: lanes.to_vec() }),
            );
            gate.state.get_mut().unwrap_or_else(PoisonError::into_inner).1 = batches.len() - before;
        }
    }

    // Every pending point waits on two runs; the worker that lands the
    // second journals it.
    let waiting: Vec<AtomicU8> = (0..evaluated).map(|_| AtomicU8::new(2)).collect();
    let metrics_of = |reader: usize| {
        let pde = *pde_plan[pde_of[reader]]
            .result
            .get()
            .expect("PDE run executed");
        let worst = worst_plan[worst_of[reader]]
            .result
            .get()
            .expect("worst-case run executed");
        PointMetrics {
            pde,
            worst_v: worst.worst_voltage,
            final_v: worst.final_voltage,
        }
    };

    let jobs = effective_jobs(opts.jobs);
    let next_batch = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let totals = Mutex::new(Stepped::default());
    let progress_every = (evaluated / 20).max(1);
    let point_of = |reader: usize| &unique[pending[reader]].0;

    // Counts one landed run against each point that reads it and completes
    // the points it was the last run of.
    let land = |readers: &[usize]| {
        for &reader in readers {
            // AcqRel pairs this worker's result store with the other
            // run's, so the worker that lands a point's second run reads
            // both results.
            if waiting[reader].fetch_sub(1, Ordering::AcqRel) != 1 {
                continue;
            }
            let (point, key) = &unique[pending[reader]];
            if let Some(dir) = &opts.journal_dir {
                // Best-effort, like scenario journaling: a lost record costs
                // a recompute on resume, never the run.
                let _ = journal::record_point(dir, key, &point.to_string(), &metrics_of(reader));
            }
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(progress_every) || n == evaluated {
                obs::progress(
                    "dse",
                    "points",
                    &[("done", n.to_string()), ("total", evaluated.to_string())],
                    || format!("[dse] {n}/{evaluated} points"),
                );
            }
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut workspaces: Vec<SolverWorkspace> = Vec::new();
                let mut stepped = Stepped::default();
                while let Some(batch) = batches.get(next_batch.fetch_add(1, Ordering::Relaxed)) {
                    match batch {
                        Batch::Trunk(t) => {
                            let trunk = &trunks[*t];
                            stepped.trunk_steps += run_trunk(trunk, &pde_plan, point_of, land);
                        }
                        Batch::Tail { trunk, gate, runs } => {
                            let snapshot = trunks[*trunk].gates[*gate].take();
                            let mut counts = ForkCounts::default();
                            let landed = execute(
                                &worst_plan,
                                runs,
                                ("worst_case_run", "dse.worst_case_runs"),
                                obs::tracer().begin(),
                                point_of,
                                |runs| {
                                    let cfgs: Vec<WorstCaseConfig> =
                                        runs.iter().map(|&cfg| cfg.clone()).collect();
                                    let (voltages, forked) = fork_worst_case_lanes(
                                        &cfgs,
                                        snapshot,
                                        &mut workspaces,
                                        &mut stepped.batch_stats,
                                    );
                                    counts = forked;
                                    voltages
                                },
                            );
                            obs::metric_inc("dse.forks", counts.forks as u64);
                            obs::metric_inc("dse.fallbacks", counts.fallbacks as u64);
                            stepped.forks.forks += counts.forks;
                            stepped.forks.fallbacks += counts.fallbacks;
                            for readers in landed {
                                land(readers);
                            }
                        }
                    }
                }
                totals
                    .lock()
                    .expect("dse step totals poisoned")
                    .absorb(&stepped);
            });
        }
    });

    for (reader, &i) in pending.iter().enumerate() {
        slots[i] = Some(metrics_of(reader));
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

    let stepped = totals.into_inner().expect("dse step totals poisoned");
    DseResult {
        points: unique.into_iter().map(|(p, _)| p).collect(),
        rows,
        enumerated,
        evaluated,
        replayed,
        pde_runs: pde_plan.len(),
        worst_case_runs: worst_plan.len(),
        trunks: trunks.len(),
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
    /// (atomic tmp + rename, honouring a scheduled chaos tear by name) and,
    /// when journaling, records its checksum for resume verification.
    /// Deterministic mode writes the wall-time-free form and never
    /// journals — the golden-blessing contract.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path, deterministic: bool) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let bytes = self.artifact(deterministic).to_jsonl().into_bytes();
        let path = dir.join(FRONTIER_FILE);
        let torn = if let Some(cut) = crate::chaos::torn_write(FRONTIER_FILE, bytes.len()) {
            std::fs::write(&path, &bytes[..cut])?;
            true
        } else {
            vs_telemetry::write_atomic(&path, &bytes)?;
            false
        };
        if !deterministic && !torn {
            journal::record_experiment(dir, "dse_frontier", FRONTIER_FILE, &bytes)?;
        }
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

    fn trunk_key(trunk: Trunk) -> Vec<u64> {
        let mut words = Vec::new();
        trunk.stable_key_into(&mut words);
        words
    }

    /// Both families' runs at one (stack, area, load) follow one trunk:
    /// `PdsRig::with_params_in` builds circuit-only and cross-layer rigs
    /// through one arm, so the two kinds step bit-identical circuits.
    #[test]
    fn both_families_at_one_area_share_a_trunk() {
        let settings = RunSettings::tiny_profile();
        let cross = ConfigPoint::paper();
        let circuit = ConfigPoint { pds: PdsFamily::Circuit, latency: 120, ..cross };
        let key = trunk_key(Trunk::of_pde(&PdeRun::of(&cross, &settings)));
        for point in [cross, circuit] {
            assert_eq!(trunk_key(Trunk::of_pde(&PdeRun::of(&point, &settings))), key, "{point}");
            let worst = worst_case_config(&point, &settings);
            assert_eq!(trunk_key(Trunk::of_worst_case(&worst)), key, "{point}");
        }
        // The plant's own inputs key apart.
        for other in [
            ConfigPoint { area: 0.4, ..cross },
            ConfigPoint { stack: StackGeometry::new(8, 2), ..cross },
            ConfigPoint { workload: 0.5, ..cross },
        ] {
            assert_ne!(trunk_key(Trunk::of_pde(&PdeRun::of(&other, &settings))), key, "{other}");
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

    /// A tail batch waiting on a gate whose trunk panics panics too,
    /// instead of waiting forever: dse then exits through the panic path,
    /// as it does when any run panics.
    #[test]
    fn a_trunk_that_panics_wakes_its_waiting_tails() {
        let gates = [Gate::new(10)];
        gates[0].lock().1 = 2;
        std::thread::scope(|scope| {
            let tails: Vec<_> = (0..2).map(|_| scope.spawn(|| gates[0].take())).collect();
            let trunk = scope.spawn(|| {
                let _abandon = AbandonOnDrop(&gates);
                panic!("a trunk panics before its gate");
            });
            assert!(trunk.join().is_err());
            for tail in tails {
                assert!(tail.join().is_err(), "the waiting tail panics instead of hanging");
            }
        });
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
