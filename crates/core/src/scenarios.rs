//! Synthetic worst-case imbalance scenario (paper Figs. 9 and 10).
//!
//! All SMs run a steady, balanced load; at the 3 µs mark every SM in one
//! stack layer is power-gated, creating the maximum sustained inter-layer
//! current imbalance the impedance analysis identified as the binding
//! reliability case. The circuit-only design must absorb it entirely in the
//! CR-IVR; the cross-layer design lets the voltage-smoothing loop throttle
//! the loaded layers and ballast the gated one, surviving with a fraction of
//! the regulator area.
//!
//! Three drivers run the scenario, all on one per-cycle lane type, so they
//! agree bit for bit: [`run_worst_case_in`] steps one run scalar and keeps
//! the Fig. 9 trace; [`run_worst_case_lanes`] steps several in lockstep
//! through one shared solve; and [`fork_worst_case_lanes`] starts runs from
//! a [`GateSnapshot`] — a steady-load trunk stopped at the gate — so that
//! they step only their post-gate tails. Before the gate a run's loads are
//! the steady load for as long as its controller stays idle, which the
//! fork checks cycle by cycle, falling back to the full run when it does
//! not hold.

use std::fmt;
use std::str::FromStr;

use vs_circuit::{BatchStats, LaneOutcome, SolverWorkspace, Trace};
use vs_control::{ActuatorWeights, DetectorKind, VoltageController};
use vs_gpu::WorkloadProfile;

use crate::config::{controller_config, PdsKind, StackGeometry};
use crate::rig::{PdsRig, RigLanes};

/// Typed identifier for the twelve benchmark scenarios of the paper's
/// evaluation (six Rodinia 2.0, six CUDA SDK), in presentation order.
///
/// This replaces the stringly-typed benchmark-name plumbing: experiments
/// pass a `ScenarioId` to [`crate::run_scenario`], and CLIs parse user
/// input with [`FromStr`] / print it with [`fmt::Display`] (both use the
/// historical lowercase names, so existing command lines keep working).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioId {
    /// Back-propagation (Rodinia): dense FFMA layers, barriers, the most
    /// SM-imbalanced profile.
    Backprop,
    /// Breadth-first search (Rodinia): pointer chasing, heavy divergence.
    Bfs,
    /// Heart-wall tracking (Rodinia): compute-dense, the paper's headline
    /// benchmark.
    Heartwall,
    /// HotSpot thermal simulation (Rodinia): stencil with shared-memory
    /// tiling.
    Hotspot,
    /// PathFinder dynamic programming (Rodinia).
    Pathfinder,
    /// SRAD speckle-reducing anisotropic diffusion (Rodinia).
    Srad,
    /// Black-Scholes option pricing (CUDA SDK): SFU-heavy streaming.
    Blackscholes,
    /// Scalar product (CUDA SDK): bandwidth-bound reduction.
    Scalarprod,
    /// Bitonic sorting network (CUDA SDK): barrier-synchronized phases.
    Sortingnet,
    /// Face detection (CUDA SDK sample workload).
    Simpleface,
    /// Fast Walsh transform (CUDA SDK).
    Fastwalsh,
    /// Atomic-intrinsics microbenchmark (CUDA SDK).
    Simpleatomic,
}

impl ScenarioId {
    /// All scenarios in the paper's presentation order (the order
    /// [`vs_gpu::all_benchmarks`] returns).
    pub const ALL: [ScenarioId; 12] = [
        ScenarioId::Backprop,
        ScenarioId::Bfs,
        ScenarioId::Heartwall,
        ScenarioId::Hotspot,
        ScenarioId::Pathfinder,
        ScenarioId::Srad,
        ScenarioId::Blackscholes,
        ScenarioId::Scalarprod,
        ScenarioId::Sortingnet,
        ScenarioId::Simpleface,
        ScenarioId::Fastwalsh,
        ScenarioId::Simpleatomic,
    ];

    /// The scenario's canonical (lowercase) benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioId::Backprop => "backprop",
            ScenarioId::Bfs => "bfs",
            ScenarioId::Heartwall => "heartwall",
            ScenarioId::Hotspot => "hotspot",
            ScenarioId::Pathfinder => "pathfinder",
            ScenarioId::Srad => "srad",
            ScenarioId::Blackscholes => "blackscholes",
            ScenarioId::Scalarprod => "scalarprod",
            ScenarioId::Sortingnet => "sortingnet",
            ScenarioId::Simpleface => "simpleface",
            ScenarioId::Fastwalsh => "fastwalsh",
            ScenarioId::Simpleatomic => "simpleatomic",
        }
    }

    /// The workload profile backing this scenario.
    ///
    /// # Panics
    ///
    /// Never in practice: the catalogue is defined by
    /// [`vs_gpu::all_benchmarks`] and covered by tests.
    pub fn profile(self) -> WorkloadProfile {
        vs_gpu::benchmark(self.name()).expect("scenario catalogue matches vs-gpu benchmarks")
    }
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for a benchmark name outside the scenario catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The rejected name.
    pub name: String,
}

impl fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark {:?}; expected one of: ", self.name)?;
        for (i, id) in ScenarioId::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(id.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownScenario {}

impl FromStr for ScenarioId {
    type Err = UnknownScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioId::ALL
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| UnknownScenario {
                name: s.to_string(),
            })
    }
}

/// Worst-case scenario parameters.
#[derive(Debug, Clone)]
pub struct WorstCaseConfig {
    /// CR-IVR area as a multiple of the GPU die.
    pub area_mult: f64,
    /// Stack geometry (series layers × columns).
    pub geometry: StackGeometry,
    /// Use the cross-layer controller (false = circuit-only).
    pub cross_layer: bool,
    /// Control-loop latency, cycles.
    pub latency_cycles: u32,
    /// Actuator weights for the controller.
    pub weights: ActuatorWeights,
    /// Controller trigger threshold, volts.
    pub v_threshold: f64,
    /// Voltage detector option (Table II) for the controller front end.
    pub detector: DetectorKind,
    /// Steady per-SM power before the event, watts.
    pub p_sm_w: f64,
    /// Share of SM power the controller cannot remove (leakage + clock
    /// tree), watts.
    pub p_floor_w: f64,
    /// Event time, seconds (the paper gates at 3 µs).
    pub gate_at_s: f64,
    /// Total simulated span, seconds.
    pub duration_s: f64,
    /// Which layer is gated.
    pub gated_layer: usize,
}

impl Default for WorstCaseConfig {
    fn default() -> Self {
        WorstCaseConfig {
            area_mult: 0.2,
            geometry: StackGeometry::PAPER,
            cross_layer: true,
            latency_cycles: 60,
            weights: ActuatorWeights::new(0.6, 0.0, 0.4),
            v_threshold: 0.9,
            detector: DetectorKind::Oddd,
            p_sm_w: 8.0,
            p_floor_w: 2.5,
            gate_at_s: 3e-6,
            duration_s: 5e-6,
            gated_layer: 0,
        }
    }
}

impl WorstCaseConfig {
    /// Appends this run's stable identity key: the bit pattern of every
    /// field [`run_worst_case_in`] reads. The controller fields (latency,
    /// weights, threshold, detector, and the power floor only a throttled
    /// load uses) are written only when `cross_layer`: a circuit-only run
    /// builds no controller, so configs that differ only there run the
    /// same trajectory and key the same. The exhaustive destructuring makes
    /// adding a field without deciding its key words a compile error.
    pub fn stable_key_into(&self, out: &mut Vec<u64>) {
        let WorstCaseConfig {
            area_mult,
            geometry,
            cross_layer,
            latency_cycles,
            weights,
            v_threshold,
            detector,
            p_sm_w,
            p_floor_w,
            gate_at_s,
            duration_s,
            gated_layer,
        } = *self;
        out.push(area_mult.to_bits());
        geometry.stable_key_into(out);
        out.push(u64::from(cross_layer));
        if cross_layer {
            out.push(u64::from(latency_cycles));
            weights.stable_key_into(out);
            out.extend([v_threshold.to_bits(), p_floor_w.to_bits()]);
            detector.stable_key_into(out);
        }
        out.extend([
            p_sm_w.to_bits(),
            gate_at_s.to_bits(),
            duration_s.to_bits(),
            gated_layer as u64,
        ]);
    }

    /// The scenario's time step, seconds: one GPU cycle.
    pub fn dt(&self) -> f64 {
        1.0 / CLOCK_HZ
    }

    /// Steps before the layer gates (all of them if the run ends first).
    /// Up to there the run steps its rig under the steady per-SM load,
    /// unless its controller acts early; this is the prefix a fork from a
    /// trunk skips ([`fork_worst_case_lanes`]).
    pub fn pre_gate_steps(&self) -> u64 {
        self.gate_step().min(self.total_steps())
    }

    /// The step at which the layer gates.
    fn gate_step(&self) -> u64 {
        (self.gate_at_s / self.dt()).round() as u64
    }

    /// Steps in the whole run.
    fn total_steps(&self) -> u64 {
        (self.duration_s / self.dt()).round() as u64
    }
}

/// Outcome of a worst-case run.
#[derive(Debug, Clone)]
pub struct WorstCaseResult {
    /// Minimum loaded-SM voltage over time (the Fig. 9 waveform).
    pub trace: Trace,
    /// Worst voltage reached after the gating event, volts.
    pub worst_voltage: f64,
    /// Voltage at the end of the run (post-recovery), volts.
    pub final_voltage: f64,
}

/// The two voltages of a worst-case run stepped by
/// [`run_worst_case_lanes`], which keeps no trace; bit-identical to the
/// same fields of the scalar [`WorstCaseResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseVoltages {
    /// Worst voltage reached after the gating event, volts.
    pub worst_voltage: f64,
    /// Voltage at the end of the run (post-recovery), volts.
    pub final_voltage: f64,
}

/// GPU clock the worst-case scenario steps at.
const CLOCK_HZ: f64 = 700e6;

/// A steady-load trajectory stopped at a worst-case run's gate: a trunk.
/// Before the gate, a worst-case run steps the same circuit under the
/// same loads as every other run of its rig whose controller stays idle,
/// so one trunk can stand in for all of their prefixes.
/// [`fork_worst_case_lanes`] starts each such run from here and steps only
/// its tail.
pub struct GateSnapshot {
    /// The trunk's rig after its pre-gate steps. It must be the netlist,
    /// time step and recovery policy of the runs that fork from it.
    pub rig: PdsRig,
    /// Per-SM voltages after each pre-gate step, step-major
    /// ([`PdsRig::sm_voltages`] order).
    pub voltages: Vec<f64>,
    /// The per-SM power the trunk stepped under on every step, watts.
    pub sm_power_w: Vec<f64>,
    /// The per-SM DCC ballast power it stepped under, watts.
    pub dcc_power_w: Vec<f64>,
    /// The per-SM fake-instruction power it stepped under, watts.
    pub fake_power_w: Vec<f64>,
}

impl GateSnapshot {
    /// Steps the trunk took before the snapshot.
    pub fn steps(&self) -> u64 {
        (self.voltages.len() / self.rig.n_sms()) as u64
    }
}

/// How the runs of one [`fork_worst_case_lanes`] call started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCounts {
    /// Runs that forked from the trunk and stepped only their tails.
    pub forks: usize,
    /// Runs that stepped in full from a fresh rig.
    pub fallbacks: usize,
}

/// Whether two slices hold the same values bit for bit (so `0.0` and
/// `-0.0`, or two NaNs, are told apart as the solver would).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The scenario's rig, built in `workspace`.
fn worst_case_rig(cfg: &WorstCaseConfig, workspace: SolverWorkspace) -> PdsRig {
    let pds = if cfg.cross_layer {
        PdsKind::VsCrossLayer {
            area_mult: cfg.area_mult,
        }
    } else {
        PdsKind::VsCircuitOnly {
            area_mult: cfg.area_mult,
        }
    };
    PdsRig::with_params_in(pds, &cfg.geometry.pdn_params(), cfg.dt(), 0.08, workspace)
}

/// One worst-case run's per-cycle logic, shared by the scalar driver
/// ([`run_worst_case_in`], which keeps the Fig. 9 trace) and the lockstep
/// ones ([`run_worst_case_lanes`], [`fork_worst_case_lanes`]). Each cycle
/// [`WorstCaseLane::stage`] fills the loads the rig steps under; once the
/// rig has stepped, [`WorstCaseLane::settle`] takes its voltages, updates
/// the controller and tracks the worst and final loaded-SM voltage. A fork
/// settles its pre-gate cycles on a trunk's recorded voltages instead
/// ([`WorstCaseLane::replay`]).
struct WorstCaseLane {
    controller: Option<VoltageController>,
    n_layers: usize,
    n_columns: usize,
    gated_layer: usize,
    p_sm_w: f64,
    p_floor_w: f64,
    /// Share of the SM power the controller can throttle, watts.
    p_dynamic: f64,
    gate_cycle: u64,
    total_cycles: u64,
    cycle: u64,
    sm_watts: Vec<f64>,
    dcc_watts: Vec<f64>,
    fake_watts: Vec<f64>,
    worst_after_event: f64,
    final_voltage: f64,
}

impl WorstCaseLane {
    /// Retention power of a fully gated SM, watts.
    const P_GATED_W: f64 = 0.075;
    /// Power of one fake SP op per cycle, watts per unit fake rate.
    const E_FAKE_W_PER_RATE: f64 = 4.5e-9 * CLOCK_HZ;

    /// The lane that drives `cfg`'s run, at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `gated_layer` is out of range for the configured stack.
    fn new(cfg: &WorstCaseConfig) -> WorstCaseLane {
        let n_layers = cfg.geometry.n_layers as usize;
        let n_columns = cfg.geometry.n_columns as usize;
        assert!(cfg.gated_layer < n_layers);
        let n_sms = n_layers * n_columns;

        let controller_cfg =
            controller_config(cfg.v_threshold, cfg.weights, cfg.latency_cycles, cfg.detector);
        WorstCaseLane {
            controller: cfg
                .cross_layer
                .then(|| VoltageController::new(controller_cfg)),
            n_layers,
            n_columns,
            gated_layer: cfg.gated_layer,
            p_sm_w: cfg.p_sm_w,
            p_floor_w: cfg.p_floor_w,
            p_dynamic: (cfg.p_sm_w - cfg.p_floor_w).max(0.0),
            gate_cycle: cfg.gate_step(),
            total_cycles: cfg.total_steps(),
            cycle: 0,
            sm_watts: vec![cfg.p_sm_w; n_sms],
            dcc_watts: vec![0.0; n_sms],
            fake_watts: vec![0.0; n_sms],
            worst_after_event: f64::INFINITY,
            final_voltage: 0.0,
        }
    }

    fn gated(&self) -> bool {
        self.cycle >= self.gate_cycle
    }

    /// Fills this cycle's per-SM loads from the controller's active
    /// commands (or the steady load without a controller).
    fn stage(&mut self) {
        let gated = self.gated();
        let commands = self
            .controller
            .as_ref()
            .map(VoltageController::active_commands);
        for layer in 0..self.n_layers {
            for col in 0..self.n_columns {
                let sm = layer * self.n_columns + col;
                if gated && layer == self.gated_layer {
                    self.sm_watts[sm] = Self::P_GATED_W;
                    self.fake_watts[sm] = 0.0;
                    // The gated SM cannot execute fake instructions, but its
                    // DCC DAC still works.
                    self.dcc_watts[sm] = commands.map_or(0.0, |c| c[sm].dcc_power_w);
                    continue;
                }
                match commands {
                    Some(c) => {
                        let width_frac = c[sm].issue_width / 2.0;
                        let fake = c[sm].fake_rate * Self::E_FAKE_W_PER_RATE;
                        self.sm_watts[sm] = self.p_floor_w + self.p_dynamic * width_frac + fake;
                        self.fake_watts[sm] = fake;
                        self.dcc_watts[sm] = c[sm].dcc_power_w;
                    }
                    None => {
                        self.sm_watts[sm] = self.p_sm_w;
                        self.fake_watts[sm] = 0.0;
                        self.dcc_watts[sm] = 0.0;
                    }
                }
            }
        }
    }

    /// The loads [`WorstCaseLane::stage`] filled, in [`PdsRig::step`]'s
    /// argument order.
    fn loads(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.sm_watts, &self.dcc_watts, &self.fake_watts)
    }

    /// Settles the cycle on the rig's per-SM `voltages`: feeds them to the
    /// controller, and tracks the minimum voltage among SMs that are still
    /// running, which it returns.
    fn settle(&mut self, voltages: &[f64]) -> f64 {
        if let Some(ctrl) = self.controller.as_mut() {
            ctrl.update(voltages);
        }
        let gated = self.gated();
        let mut v_min = f64::INFINITY;
        for layer in 0..self.n_layers {
            if gated && layer == self.gated_layer {
                continue;
            }
            for col in 0..self.n_columns {
                v_min = v_min.min(voltages[layer * self.n_columns + col]);
            }
        }
        if gated {
            self.worst_after_event = self.worst_after_event.min(v_min);
        }
        self.final_voltage = v_min;
        self.cycle += 1;
        v_min
    }

    /// Catches up on `trunk`'s pre-gate steps without a solve: each cycle
    /// stages this run's loads, checks them against the trunk's bit for
    /// bit, and settles on the voltages the trunk recorded, which leaves
    /// the lane exactly as a full run leaves it at the gate. Returns false
    /// at the first cycle whose loads differ: there the run leaves the
    /// trunk's trajectory, so it cannot fork (the lane is then part-way and
    /// must be discarded).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is not at this run's gate or not of its
    /// stack.
    fn replay(&mut self, trunk: &GateSnapshot) -> bool {
        assert_eq!(
            trunk.steps(),
            self.gate_cycle.min(self.total_cycles),
            "a fork starts at its run's gate"
        );
        assert_eq!(trunk.rig.topology(), (self.n_layers, self.n_columns));
        for voltages in trunk.voltages.chunks_exact(self.sm_watts.len()) {
            self.stage();
            let (sm, dcc, fake) = self.loads();
            if !(same_bits(sm, &trunk.sm_power_w)
                && same_bits(dcc, &trunk.dcc_power_w)
                && same_bits(fake, &trunk.fake_power_w))
            {
                return false;
            }
            self.settle(voltages);
        }
        true
    }

    fn voltages(&self) -> WorstCaseVoltages {
        WorstCaseVoltages {
            worst_voltage: self.worst_after_event,
            final_voltage: self.final_voltage,
        }
    }
}

/// Runs the worst-case imbalance scenario.
///
/// # Panics
///
/// Panics if `gated_layer` is out of range for the configured stack.
pub fn run_worst_case(cfg: &WorstCaseConfig) -> WorstCaseResult {
    run_worst_case_in(cfg, SolverWorkspace::new()).0
}

/// [`run_worst_case`] on a reusable [`SolverWorkspace`], returning the
/// workspace when the run finishes so callers sweeping many configurations
/// skip the solver's warm-up allocations on every run after the first.
/// Reuse never changes results.
///
/// # Panics
///
/// Panics if `gated_layer` is out of range for the configured stack.
pub fn run_worst_case_in(
    cfg: &WorstCaseConfig,
    workspace: SolverWorkspace,
) -> (WorstCaseResult, SolverWorkspace) {
    let mut rig = worst_case_rig(cfg, workspace);
    let mut lane = WorstCaseLane::new(cfg);
    let mut voltages = Vec::with_capacity(rig.n_sms());
    let mut trace = Trace::new("min loaded SM voltage");
    for _ in 0..lane.total_cycles {
        lane.stage();
        let (sm, dcc, fake) = lane.loads();
        rig.step(sm, dcc, fake)
            .expect("worst-case scenario steps cleanly");
        rig.sm_voltages_into(&mut voltages);
        let v_min = lane.settle(&voltages);
        trace.push(rig.time(), v_min);
    }
    let WorstCaseVoltages {
        worst_voltage,
        final_voltage,
    } = lane.voltages();
    let result = WorstCaseResult {
        trace,
        worst_voltage,
        final_voltage,
    };
    (result, rig.into_workspace())
}

/// Steps `lanes` in lockstep, lane `i` on rig `i`, from their common cycle
/// to the end of their runs: each cycle every lane stages its loads, all
/// rigs step through one shared solve ([`RigLanes`]), and each lane
/// settles on its rig's voltages. Returns the rigs. Both lockstep drivers
/// run through this one loop, whether their lanes start fresh or forked.
///
/// # Panics
///
/// Panics if the lanes' cycles or run lengths differ, or if a lane's solver
/// gives up (as [`run_worst_case_in`] does).
fn step_lanes(
    rigs: Vec<PdsRig>,
    lanes: &mut [WorstCaseLane],
    stats: &mut BatchStats,
) -> Vec<PdsRig> {
    let (cycle, total) = lanes
        .first()
        .map_or((0, 0), |lane| (lane.cycle, lane.total_cycles));
    assert!(
        lanes
            .iter()
            .all(|lane| (lane.cycle, lane.total_cycles) == (cycle, total)),
        "lockstep worst-case runs must share one cycle and run length"
    );
    let mut rigs = RigLanes::new(rigs);
    let mut voltages = Vec::new();
    for _ in cycle..total {
        for lane in lanes.iter_mut() {
            lane.stage();
        }
        if let Some(LaneOutcome::Faulted(e)) = rigs
            .step(|i| lanes[i].loads())
            .iter()
            .find(|outcome| !outcome.advanced())
        {
            panic!("worst-case scenario steps cleanly: {e:?}");
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            rigs.rig(i).sm_voltages_into(&mut voltages);
            lane.settle(&voltages);
        }
    }
    stats.absorb(&rigs.stats());
    rigs.into_rigs()
}

/// Runs several worst-case scenarios in lockstep, as the lanes of one
/// [`RigLanes`] batch: every cycle each lane stages its loads, all rigs
/// step through one shared solve, and each lane settles. Every lane
/// performs exactly its scalar run's floating-point operations, so the
/// voltages are bit-identical to [`run_worst_case_in`]'s; no trace is kept.
///
/// Each lane's rig is built in a workspace popped from `workspaces` (a
/// fresh one when it runs dry), and every workspace is pushed back when
/// the runs finish. The batch's solve counters are added to `stats`.
///
/// # Panics
///
/// Panics if the configs' run lengths differ, if a `gated_layer` is out of
/// range, or if a lane's solver gives up (as [`run_worst_case_in`] does).
pub fn run_worst_case_lanes(
    cfgs: &[WorstCaseConfig],
    workspaces: &mut Vec<SolverWorkspace>,
    stats: &mut BatchStats,
) -> Vec<WorstCaseVoltages> {
    let rigs = cfgs
        .iter()
        .map(|cfg| worst_case_rig(cfg, workspaces.pop().unwrap_or_default()))
        .collect();
    let mut lanes: Vec<WorstCaseLane> = cfgs.iter().map(WorstCaseLane::new).collect();
    let rigs = step_lanes(rigs, &mut lanes, stats);
    workspaces.extend(rigs.into_iter().map(PdsRig::into_workspace));
    lanes.iter().map(WorstCaseLane::voltages).collect()
}

/// Runs several worst-case scenarios in lockstep like
/// [`run_worst_case_lanes`], forking each from `trunk` where it can: the
/// driver dse runs its worst-case runs through.
///
/// Each run first replays its pre-gate cycles on the trunk's record
/// without a solve, comparing its staged loads with the trunk's bit for
/// bit; that brings its controller exactly where a full run has it at the
/// gate. The runs that match clone the trunk's rig and step only their
/// tails, in lockstep. A run whose loads differ in some cycle (a
/// controller that acts before the gate) falls back, and so does every run
/// when `trunk` is `None` (the trunk's solver gave up before the gate):
/// the fallbacks run in full through [`run_worst_case_lanes`], on
/// workspaces from `workspaces`. Either way each run's voltages are
/// bit-identical to [`run_worst_case_in`]'s, returned in `cfgs` order with
/// the fork and fallback counts.
///
/// The forks' rigs are clones, not pool workspaces, so they are dropped
/// when the tails end and `workspaces` does not grow with every fork.
///
/// # Panics
///
/// Panics if `trunk` is not at the runs' gate step or not of their stack,
/// if the runs' lengths differ, if a `gated_layer` is out of range, or if
/// a lane's solver gives up. The trunk must step the runs' netlist (CR-IVR
/// area and geometry) at their time step and recovery policy: a key over
/// those inputs is the caller's to check.
pub fn fork_worst_case_lanes(
    cfgs: &[WorstCaseConfig],
    trunk: Option<&GateSnapshot>,
    workspaces: &mut Vec<SolverWorkspace>,
    stats: &mut BatchStats,
) -> (Vec<WorstCaseVoltages>, ForkCounts) {
    let mut forks: Vec<(usize, WorstCaseLane)> = Vec::new();
    let mut fallbacks: Vec<usize> = Vec::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let mut lane = WorstCaseLane::new(cfg);
        match trunk {
            Some(trunk) if lane.replay(trunk) => forks.push((i, lane)),
            _ => fallbacks.push(i),
        }
    }
    let counts = ForkCounts {
        forks: forks.len(),
        fallbacks: fallbacks.len(),
    };
    let rigs = match trunk {
        Some(trunk) if !forks.is_empty() => vec![trunk.rig.clone(); forks.len()],
        _ => Vec::new(),
    };
    let mut out: Vec<Option<WorstCaseVoltages>> = vec![None; cfgs.len()];
    if !forks.is_empty() {
        let (at, mut lanes): (Vec<usize>, Vec<WorstCaseLane>) = forks.into_iter().unzip();
        drop(step_lanes(rigs, &mut lanes, stats));
        for (i, lane) in at.into_iter().zip(&lanes) {
            out[i] = Some(lane.voltages());
        }
    }
    if !fallbacks.is_empty() {
        let full: Vec<WorstCaseConfig> = fallbacks.iter().map(|&i| cfgs[i].clone()).collect();
        for (&i, voltages) in fallbacks
            .iter()
            .zip(run_worst_case_lanes(&full, workspaces, stats))
        {
            out[i] = Some(voltages);
        }
    }
    let voltages = out
        .into_iter()
        .map(|v| v.expect("every run forked or fell back"))
        .collect();
    (voltages, counts)
}

/// Fig. 10 sweep point: worst-case voltage for an (area, latency) pair.
pub fn worst_voltage_for(area_mult: f64, latency_cycles: u32, cross_layer: bool) -> f64 {
    run_worst_case(&WorstCaseConfig {
        area_mult,
        latency_cycles,
        cross_layer,
        ..WorstCaseConfig::default()
    })
    .worst_voltage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_catalogue_matches_vs_gpu_benchmarks() {
        let names: Vec<String> = vs_gpu::all_benchmarks().into_iter().map(|b| b.name).collect();
        assert_eq!(names.len(), ScenarioId::ALL.len());
        for (id, name) in ScenarioId::ALL.iter().zip(&names) {
            assert_eq!(id.name(), name, "catalogue order drifted");
            assert_eq!(id.profile().name, *name);
        }
    }

    #[test]
    fn scenario_round_trips_through_strings() {
        for id in ScenarioId::ALL {
            assert_eq!(id.to_string().parse::<ScenarioId>(), Ok(id));
        }
        let err = "warpspeed".parse::<ScenarioId>().unwrap_err();
        assert_eq!(err.name, "warpspeed");
        let msg = err.to_string();
        assert!(msg.contains("warpspeed") && msg.contains("backprop"), "{msg}");
    }

    #[test]
    fn circuit_only_needs_large_area() {
        // Fig. 9: with ~2x GPU area the circuit-only design holds 0.8 V;
        // with 0.2x it collapses.
        let big = run_worst_case(&WorstCaseConfig {
            area_mult: 2.0,
            cross_layer: false,
            duration_s: 4.5e-6,
            ..WorstCaseConfig::default()
        });
        let small = run_worst_case(&WorstCaseConfig {
            area_mult: 0.2,
            cross_layer: false,
            duration_s: 4.5e-6,
            ..WorstCaseConfig::default()
        });
        assert!(big.worst_voltage > 0.78, "2x area held {}", big.worst_voltage);
        assert!(
            small.worst_voltage < 0.55,
            "0.2x circuit-only should collapse, held {}",
            small.worst_voltage
        );
    }

    #[test]
    fn cross_layer_survives_with_small_area() {
        let r = run_worst_case(&WorstCaseConfig {
            area_mult: 0.2,
            cross_layer: true,
            ..WorstCaseConfig::default()
        });
        assert!(
            r.worst_voltage > 0.7,
            "cross-layer at 0.2x must hold the guardband region, got {}",
            r.worst_voltage
        );
        // And recover close to nominal by the end of the run.
        assert!(r.final_voltage > 0.78, "final {}", r.final_voltage);
    }

    fn key(cfg: &WorstCaseConfig) -> Vec<u64> {
        let mut k = Vec::new();
        cfg.stable_key_into(&mut k);
        k
    }

    /// A short run that gates at mid-span, at the paper's 0.2x area.
    fn short(cross_layer: bool) -> WorstCaseConfig {
        WorstCaseConfig {
            cross_layer,
            gate_at_s: 1e-6,
            duration_s: 2e-6,
            ..WorstCaseConfig::default()
        }
    }

    /// Every field a circuit-only run must ignore: the controller's inputs
    /// and the power floor only a throttled load uses.
    fn controller_variants(base: &WorstCaseConfig) -> Vec<WorstCaseConfig> {
        vec![
            WorstCaseConfig { latency_cycles: 120, ..base.clone() },
            WorstCaseConfig { weights: ActuatorWeights::DIWS_ONLY, ..base.clone() },
            WorstCaseConfig { v_threshold: 0.88, ..base.clone() },
            WorstCaseConfig { detector: DetectorKind::Cpm, ..base.clone() },
            WorstCaseConfig { p_floor_w: 1.0, ..base.clone() },
        ]
    }

    #[test]
    fn circuit_only_runs_ignore_the_controller_fields() {
        let a = short(false);
        let b = WorstCaseConfig {
            latency_cycles: 120,
            weights: ActuatorWeights::DIWS_ONLY,
            v_threshold: 0.88,
            detector: DetectorKind::Cpm,
            p_floor_w: 1.0,
            ..a.clone()
        };
        assert_eq!(key(&a), key(&b));
        for v in controller_variants(&a) {
            assert_eq!(key(&v), key(&a), "{v:?}");
        }
        let (ra, rb) = (run_worst_case(&a), run_worst_case(&b));
        assert!(ra.worst_voltage.is_finite(), "the gate fires inside the run");
        assert_eq!(ra.worst_voltage.to_bits(), rb.worst_voltage.to_bits());
        assert_eq!(ra.final_voltage.to_bits(), rb.final_voltage.to_bits());
    }

    #[test]
    fn cross_layer_keys_see_every_controller_field() {
        let cross = short(true);
        for v in controller_variants(&cross) {
            assert_ne!(key(&v), key(&cross), "key collision for {v:?}");
        }
        assert_ne!(key(&cross), key(&short(false)), "the family keys");
        // The plant's own inputs key in both families.
        for base in [short(false), cross] {
            for v in [
                WorstCaseConfig { area_mult: 0.4, ..base.clone() },
                WorstCaseConfig { geometry: StackGeometry::new(8, 2), ..base.clone() },
                WorstCaseConfig { p_sm_w: 6.0, ..base.clone() },
                WorstCaseConfig { gate_at_s: 1.5e-6, ..base.clone() },
                WorstCaseConfig { duration_s: 2.5e-6, ..base.clone() },
                WorstCaseConfig { gated_layer: 1, ..base.clone() },
            ] {
                assert_ne!(key(&v), key(&base), "key collision for {v:?}");
            }
            assert_eq!(key(&base.clone()), key(&base));
        }
    }

    #[test]
    fn longer_latency_hurts_worst_case() {
        let fast = worst_voltage_for(0.2, 60, true);
        let slow = worst_voltage_for(0.2, 140, true);
        assert!(fast >= slow - 1e-9, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn more_area_never_hurts() {
        let small = worst_voltage_for(0.4, 80, true);
        let large = worst_voltage_for(1.0, 80, true);
        assert!(large >= small - 0.02, "{small} -> {large}");
    }

    #[test]
    fn no_event_before_gate_time() {
        let r = run_worst_case(&WorstCaseConfig {
            duration_s: 2e-6, // ends before the 3 us event
            gate_at_s: 3e-6,
            ..WorstCaseConfig::default()
        });
        // Balanced the whole time: voltage near nominal throughout.
        assert!(r.trace.min() > 0.95, "pre-event min {}", r.trace.min());
        assert!(r.worst_voltage.is_infinite());
    }
}
