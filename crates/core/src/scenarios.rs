//! Synthetic worst-case imbalance scenario (paper Figs. 9 and 10).
//!
//! All SMs run a steady, balanced load; at the 3 µs mark every SM in one
//! stack layer is power-gated, creating the maximum sustained inter-layer
//! current imbalance the impedance analysis identified as the binding
//! reliability case. The circuit-only design must absorb it entirely in the
//! CR-IVR; the cross-layer design lets the voltage-smoothing loop throttle
//! the loaded layers and ballast the gated one, surviving with a fraction of
//! the regulator area.

use std::fmt;
use std::str::FromStr;

use vs_circuit::{BatchStats, LaneOutcome, SolverWorkspace, Trace};
use vs_control::{ActuatorWeights, ControllerConfig, DetectorKind, VoltageController};
use vs_gpu::WorkloadProfile;

use crate::config::{PdsKind, StackGeometry};
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

/// One worst-case run's per-cycle logic, shared by the scalar driver
/// ([`run_worst_case_in`], which keeps the Fig. 9 trace) and the lockstep
/// one ([`run_worst_case_lanes`]). Each cycle [`WorstCaseLane::stage`]
/// fills the loads the rig steps under; once the rig has stepped,
/// [`WorstCaseLane::settle`] reads its voltages, updates the controller
/// and tracks the worst and final loaded-SM voltage.
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
    voltages: Vec<f64>,
    worst_after_event: f64,
    final_voltage: f64,
}

impl WorstCaseLane {
    /// Retention power of a fully gated SM, watts.
    const P_GATED_W: f64 = 0.075;
    /// Power of one fake SP op per cycle, watts per unit fake rate.
    const E_FAKE_W_PER_RATE: f64 = 4.5e-9 * CLOCK_HZ;

    /// The scenario's rig, built in `workspace`, and the lane that drives
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `gated_layer` is out of range for the configured stack.
    fn new(cfg: &WorstCaseConfig, workspace: SolverWorkspace) -> (PdsRig, WorstCaseLane) {
        let dt = 1.0 / CLOCK_HZ;
        let pds = if cfg.cross_layer {
            PdsKind::VsCrossLayer {
                area_mult: cfg.area_mult,
            }
        } else {
            PdsKind::VsCircuitOnly {
                area_mult: cfg.area_mult,
            }
        };
        let rig = PdsRig::with_params_in(pds, &cfg.geometry.pdn_params(), dt, 0.08, workspace);
        let (n_layers, n_columns) = rig.topology();
        assert!(cfg.gated_layer < n_layers);
        let n_sms = rig.n_sms();

        let controller_cfg = ControllerConfig {
            v_threshold: cfg.v_threshold,
            weights: cfg.weights,
            latency_cycles: cfg.latency_cycles,
            detector: cfg.detector,
            ..ControllerConfig::default()
        };
        let lane = WorstCaseLane {
            controller: cfg
                .cross_layer
                .then(|| VoltageController::new(controller_cfg)),
            n_layers,
            n_columns,
            gated_layer: cfg.gated_layer,
            p_sm_w: cfg.p_sm_w,
            p_floor_w: cfg.p_floor_w,
            p_dynamic: (cfg.p_sm_w - cfg.p_floor_w).max(0.0),
            gate_cycle: (cfg.gate_at_s / dt).round() as u64,
            total_cycles: (cfg.duration_s / dt).round() as u64,
            cycle: 0,
            sm_watts: vec![cfg.p_sm_w; n_sms],
            dcc_watts: vec![0.0; n_sms],
            fake_watts: vec![0.0; n_sms],
            voltages: Vec::with_capacity(n_sms),
            worst_after_event: f64::INFINITY,
            final_voltage: 0.0,
        };
        (rig, lane)
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

    /// Reads the stepped rig's voltages, feeds them to the controller, and
    /// tracks the minimum voltage among SMs that are still running, which
    /// it returns.
    fn settle(&mut self, rig: &PdsRig) -> f64 {
        rig.sm_voltages_into(&mut self.voltages);
        if let Some(ctrl) = self.controller.as_mut() {
            ctrl.update(&self.voltages);
        }
        let gated = self.gated();
        let mut v_min = f64::INFINITY;
        for layer in 0..self.n_layers {
            if gated && layer == self.gated_layer {
                continue;
            }
            for col in 0..self.n_columns {
                v_min = v_min.min(self.voltages[layer * self.n_columns + col]);
            }
        }
        if gated {
            self.worst_after_event = self.worst_after_event.min(v_min);
        }
        self.final_voltage = v_min;
        self.cycle += 1;
        v_min
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
    let (mut rig, mut lane) = WorstCaseLane::new(cfg, workspace);
    let mut trace = Trace::new("min loaded SM voltage");
    for _ in 0..lane.total_cycles {
        lane.stage();
        let (sm, dcc, fake) = lane.loads();
        rig.step(sm, dcc, fake)
            .expect("worst-case scenario steps cleanly");
        let v_min = lane.settle(&rig);
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
    let (rigs, mut lanes): (Vec<PdsRig>, Vec<WorstCaseLane>) = cfgs
        .iter()
        .map(|cfg| WorstCaseLane::new(cfg, workspaces.pop().unwrap_or_default()))
        .unzip();
    let total_cycles = lanes.first().map_or(0, |lane| lane.total_cycles);
    assert!(
        lanes.iter().all(|lane| lane.total_cycles == total_cycles),
        "lockstep worst-case runs must share one run length"
    );
    let mut rigs = RigLanes::new(rigs);
    for _ in 0..total_cycles {
        for lane in &mut lanes {
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
            lane.settle(rigs.rig(i));
        }
    }
    stats.absorb(&rigs.stats());
    workspaces.extend(rigs.into_rigs().into_iter().map(PdsRig::into_workspace));
    lanes.iter().map(WorstCaseLane::voltages).collect()
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
