//! The integrated hybrid co-simulation (paper Section V).
//!
//! Reproduces the paper's GPGPU-Sim + GPUWattch + SPICE loop in lock step:
//! every GPU cycle the timing simulator produces microarchitectural events,
//! the power model turns them into per-SM watts, the circuit solver steps
//! the PDS with those loads (SMs as time-varying ideal current sources,
//! the paper's convention), the
//! detectors sample the resulting layer voltages, and the voltage-smoothing
//! controller's (latency-delayed) commands feed back into the next cycle's
//! issue widths, fake-instruction rates, and DCC ballast currents.
//!
//! A run splits into its GPU, the *trunk*, and its `Member` half: power
//! model, PDS rig, controller, DFS/PG/hypervisor, its cycle budget and
//! fault plan, and the SM controls its GPU ticks under. The GPU hears the
//! rest of the run only through those controls, so runs of one workload
//! that share a [`TrunkKey`] (kernel seed, workload scale, cycle cap,
//! scheduler, initial controls) tick identical GPUs until their controls
//! first differ, whatever faults each injects.
//!
//! The run loop is factored into explicit phases around a `RunState` that
//! carries every loop-carried value. Per cycle the trunk ticks once, and
//! each member riding it steps its own phases from the trunk's events:
//! `cycle_pre` (power model, circuit-boundary faults), `scalar_solve`,
//! and `cycle_post` (statistics, controller, epoch power management, which
//! write the member's controls). Then the fork rule runs: riders whose
//! controls, compared bit for bit, still match the trunk's ride on, and the
//! others *park*. If no rider matches, the last rider keeps the trunk (its
//! controls become the trunk's) and the others park. So the trunk's
//! controls change only while one member rides it, and a parked member's
//! prefix always ran under the initial controls: once the trunk is dropped,
//! each parked member re-ticks that prefix on a fresh GPU built from the
//! kernel and finishes alone. No GPU is ever cloned, so a group holds at
//! most one GPU at a time. [`crate::CosimPool::run_group`] runs a group;
//! [`Cosim::run_supervised`] is the one-member case of the same loop.

use vs_circuit::{SolverWorkspace, StepReport};
use vs_control::{ControllerConfig, DccDac, SmCommand, VoltageController};
use vs_gpu::{
    build_kernel, Gpu, GpuConfig, GpuCycleEvents, Kernel, SchedulerKind, SmControl, WorkloadProfile,
};
use vs_hypervisor::{DfsConfig, DfsGovernor, GatingAccountant, PgConfig, VsAwareHypervisor};
use vs_num::Rng;
use vs_power::{PowerModel, SmPower};
use vs_telemetry::{Stage, Telemetry};

use crate::config::{controller_config, CosimConfig, PdsKind};
use crate::fault::{FaultKind, FaultPlan, LoadGlitch};
use crate::imbalance::ImbalanceHistogram;
use crate::rig::{EnergyLedger, PdsRig};
use crate::scenarios::ScenarioId;
use crate::supervisor::{classify, CosimError, CycleBudget, SupervisedReport, SupervisorConfig};

/// Configures and constructs a [`Cosim`] — the single typed entry point
/// replacing the historical `Cosim::new` / `Cosim::with_power_management` /
/// `set_telemetry` trio.
///
/// # Examples
///
/// ```no_run
/// use vs_core::{Cosim, CosimConfig, ScenarioId};
///
/// let cfg = CosimConfig::default();
/// let profile = ScenarioId::Heartwall.profile();
/// let report = Cosim::builder(&cfg, &profile).build().run();
/// println!("PDE = {:.1}%", 100.0 * report.pde());
/// ```
#[must_use = "a builder does nothing until `build` is called"]
pub struct CosimBuilder<'a> {
    cfg: &'a CosimConfig,
    profile: &'a WorkloadProfile,
    pm: PowerManagement,
    budget: CycleBudget,
    telemetry: Telemetry,
    workspace: SolverWorkspace,
}

impl<'a> CosimBuilder<'a> {
    /// Starts a builder for running `profile` under `cfg` with no power
    /// management and telemetry disabled.
    pub fn new(cfg: &'a CosimConfig, profile: &'a WorkloadProfile) -> Self {
        CosimBuilder {
            cfg,
            profile,
            pm: PowerManagement::default(),
            budget: CycleBudget::unlimited(),
            telemetry: Telemetry::disabled(),
            workspace: SolverWorkspace::new(),
        }
    }

    /// Enables DFS / PG / hypervisor power management for the run.
    pub fn power_management(mut self, pm: PowerManagement) -> Self {
        self.pm = pm;
        self
    }

    /// Installs a cycle budget (the chaos stall hook): the run loop checks
    /// it each cycle and aborts with [`CosimError::DeadlineExceeded`] once
    /// it trips. The default ([`CycleBudget::unlimited`]) costs one `None`
    /// branch per cycle.
    pub fn budget(mut self, budget: CycleBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs an instrumentation handle. With [`Telemetry::enabled`] the
    /// run profiles its five stages, and [`SupervisedReport::telemetry`]
    /// carries the profile as a one-event artifact. The default
    /// ([`Telemetry::disabled`]) reduces every span to a branch. Telemetry
    /// never changes what the run simulates.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the circuit solver inside a reusable [`SolverWorkspace`]
    /// (see [`crate::CosimPool`], which recycles one workspace across
    /// scenarios). Reuse never changes results.
    pub fn workspace(mut self, workspace: SolverWorkspace) -> Self {
        self.workspace = workspace;
        self
    }

    /// Assembles the co-simulation: GPU, power model, PDS rig, controller,
    /// and the optional power-management governors.
    pub fn build(self) -> Cosim {
        let gpu = TrunkSpec::new(self.cfg, &self.pm, self.profile).gpu();
        Cosim {
            gpu,
            member: self.member(FaultPlan::none()),
        }
    }

    /// Assembles everything of the run but its GPU, to run under `plan`.
    fn member(self, plan: FaultPlan) -> Member {
        let cfg = self.cfg;
        let pm = self.pm;
        let gpu_config = GpuConfig::default();
        let power = PowerModel::fermi_40nm();
        let controller_cfg =
            controller_config(cfg.v_threshold, cfg.weights, cfg.latency_cycles, cfg.detector);
        let overhead_w = controller_cfg.controller_power_w
            + cfg.detector.power_w() * gpu_config.n_sms as f64;
        let params = cfg.geometry.pdn_params();
        assert_eq!(
            params.n_sms(),
            gpu_config.n_sms,
            "stack geometry {} must arrange exactly the GPU's {} SMs",
            cfg.geometry,
            gpu_config.n_sms,
        );
        let rig = PdsRig::with_params_in(
            cfg.pds,
            &params,
            gpu_config.clock_period_s(),
            overhead_w,
            self.workspace,
        );
        let controller = cfg
            .pds
            .has_controller()
            .then(|| VoltageController::new(controller_cfg));
        let dfs = pm.dfs.map(|d| DfsGovernor::new(d, gpu_config.n_sms));
        let hypervisor = pm.use_hypervisor.then(|| {
            VsAwareHypervisor::new(pm.hypervisor_config.unwrap_or_default())
        });
        let controls = vec![initial_control(&pm); gpu_config.n_sms];
        Member {
            cfg: cfg.clone(),
            pm,
            budget: self.budget,
            plan,
            power,
            rig,
            controller,
            dfs,
            hypervisor,
            gating_acc: GatingAccountant::new(),
            benchmark: self.profile.name.clone(),
            telemetry: self.telemetry,
            controls,
        }
    }
}

/// The SM controls every run starts from: the defaults, with execution-unit
/// gating on when power gating is enabled.
fn initial_control(pm: &PowerManagement) -> SmControl {
    SmControl {
        unit_gating: pm.pg.is_some_and(|p| p.enabled),
        ..SmControl::default()
    }
}

/// What a run's GPU trajectory depends on besides its workload profile:
/// the kernel (seed, workload scale), the cycle cap, the scheduler
/// (`pg.gates_scheduler`) and the initial SM controls (`pg.enabled`). Runs
/// of one workload with equal keys tick identical GPUs until their SM
/// controls first differ, so they may share a trunk
/// ([`crate::CosimPool::run_group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrunkKey {
    seed: u64,
    workload_scale: u64,
    max_cycles: u64,
    gates_scheduler: bool,
    unit_gating: bool,
}

impl TrunkKey {
    /// The trunk key of a run of `cfg` under `pm`.
    pub fn new(cfg: &CosimConfig, pm: &PowerManagement) -> Self {
        TrunkKey {
            seed: cfg.seed,
            workload_scale: cfg.workload_scale.to_bits(),
            max_cycles: cfg.max_cycles,
            gates_scheduler: pm.pg.is_some_and(|p| p.gates_scheduler),
            unit_gating: initial_control(pm).unit_gating,
        }
    }
}

/// How to build a run's GPU at cycle 0: the kernel, the scheduler and the
/// initial controls. A group keeps one to rebuild its parked members'
/// GPUs.
struct TrunkSpec {
    config: GpuConfig,
    kernel: Kernel,
    scheduler: SchedulerKind,
    control: SmControl,
}

impl TrunkSpec {
    fn new(cfg: &CosimConfig, pm: &PowerManagement, profile: &WorkloadProfile) -> Self {
        let config = GpuConfig::default();
        let mut kernel = build_kernel(profile, &config, cfg.seed);
        if cfg.workload_scale < 1.0 {
            kernel.iterations =
                ((f64::from(kernel.iterations) * cfg.workload_scale).round() as u32).max(1);
        }
        let scheduler = if pm.pg.is_some_and(|p| p.gates_scheduler) {
            SchedulerKind::TwoLevelGates
        } else {
            SchedulerKind::Gto
        };
        TrunkSpec {
            config,
            kernel,
            scheduler,
            control: initial_control(pm),
        }
    }

    /// A fresh GPU at cycle 0 under the initial controls.
    fn gpu(&self) -> Gpu {
        let mut gpu = Gpu::new(&self.config, &self.kernel, self.scheduler);
        for sm in 0..gpu.n_sms() {
            gpu.set_sm_control(sm, self.control);
        }
        gpu
    }
}

/// Optional higher-level power management active during a run.
#[derive(Debug, Clone, Default)]
pub struct PowerManagement {
    /// DFS with the given performance goal.
    pub dfs: Option<DfsConfig>,
    /// Execution-unit power gating.
    pub pg: Option<PgConfig>,
    /// Route commands through the VS-aware hypervisor (Algorithm 2).
    pub use_hypervisor: bool,
    /// Hypervisor configuration override (None = defaults).
    pub hypervisor_config: Option<vs_hypervisor::HypervisorConfig>,
}

impl PowerManagement {
    /// Appends this value's stable identity key. `Option` fields encode as a
    /// `0` word for `None` or a `1` word followed by the payload's key, so
    /// `None` can never collide with any `Some`. Cache keys must use this,
    /// never `Debug` output. The exhaustive destructuring makes adding a
    /// field without extending the key a compile error.
    pub fn stable_key_into(&self, out: &mut Vec<u64>) {
        let PowerManagement { dfs, pg, use_hypervisor, hypervisor_config } = self;
        match dfs {
            None => out.push(0),
            Some(d) => {
                out.push(1);
                d.stable_key_into(out);
            }
        }
        match pg {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                p.stable_key_into(out);
            }
        }
        out.push(u64::from(*use_hypervisor));
        match hypervisor_config {
            None => out.push(0),
            Some(h) => {
                out.push(1);
                h.stable_key_into(out);
            }
        }
    }
}

/// Result of one co-simulated benchmark run.
#[derive(Debug, Clone)]
pub struct CosimReport {
    /// Benchmark name.
    pub benchmark: String,
    /// PDS configuration.
    pub pds: PdsKind,
    /// Cycles to kernel completion (or the cap).
    pub cycles: u64,
    /// Whether the kernel retired completely.
    pub completed: bool,
    /// Real instructions retired.
    pub instructions: u64,
    /// Energy ledger.
    pub ledger: EnergyLedger,
    /// Minimum SM supply voltage observed, volts.
    pub min_sm_voltage: f64,
    /// Maximum SM supply voltage observed, volts.
    pub max_sm_voltage: f64,
    /// Per-SM voltage summaries (only when traces were recorded).
    pub sm_voltage_summaries: Vec<vs_circuit::TraceSummary>,
    /// Fraction of SM-cycles perturbed by voltage smoothing.
    pub throttle_fraction: f64,
    /// Normalized inter-layer current-imbalance histogram (Fig. 17 bins).
    pub imbalance: ImbalanceHistogram,
    /// Average per-SM frequency scale over the run (1.0 without DFS).
    pub avg_freq_scale: f64,
    /// Net gating energy saved, joules (0 without PG).
    pub gating_saved_j: f64,
}

impl CosimReport {
    /// System-level power delivery efficiency.
    pub fn pde(&self) -> f64 {
        self.ledger.pde()
    }
}

/// Runs one benchmark under one configuration.
///
/// Construct it with [`Cosim::builder`]; a `Cosim` represents a single run
/// from cycle zero (running it a second time returns immediately with the
/// finished state).
pub struct Cosim {
    gpu: Gpu,
    member: Member,
}

/// Everything of one run but its GPU: what steps per cycle from the GPU's
/// events, and the SM controls it wants its GPU to tick under.
pub(crate) struct Member {
    cfg: CosimConfig,
    pm: PowerManagement,
    budget: CycleBudget,
    /// Interpreted every cycle: sensing, actuation, CR-IVR and load faults.
    plan: FaultPlan,
    power: PowerModel,
    rig: PdsRig,
    controller: Option<VoltageController>,
    dfs: Option<DfsGovernor>,
    hypervisor: Option<VsAwareHypervisor>,
    gating_acc: GatingAccountant,
    benchmark: String,
    telemetry: Telemetry,
    /// Written by the controller and the epoch power management; the fork
    /// rule compares them with the trunk's after every post-solve phase.
    controls: Vec<SmControl>,
}

/// All loop-carried state of one supervised run, threaded through the
/// cycle phases. Construct with `Member::run_begin`, consume with
/// `Member::run_finish`, and always pass the same `sup` to every phase of
/// one run.
struct RunState {
    n_sms: usize,
    dt: f64,
    v_nominal: f64,
    layer_columns: usize,
    streams: Vec<Rng>,
    held_sample: Vec<f64>,
    dac: DccDac,
    below_guard_cycles: Vec<u64>,
    recovery: StepReport,
    error: Option<CosimError>,
    crivr_applied: Vec<bool>,
    dcc_power: Vec<f64>,
    min_v: f64,
    max_v: f64,
    traces: Vec<vs_circuit::Trace>,
    histogram: ImbalanceHistogram,
    freq_scale_acc: f64,
    epoch_instr_base: Vec<u64>,
    epoch_cycles: u64,
    powers: Vec<SmPower>,
    sm_watts: Vec<f64>,
    fake_watts: Vec<f64>,
    table_fake: f64,
    voltages: Vec<f64>,
    sensed: Vec<f64>,
    commands: Vec<SmCommand>,
    stride: u64,
    /// The GPU cycle count after this cycle's tick, captured by
    /// `Member::cycle_pre` for the solve and post phases of the same cycle.
    cycle: u64,
}

/// How one member of a group used the GPU trunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ride {
    /// Finished on the trunk; its controls never left the trunk's.
    Shared,
    /// Its controls left the trunk's after cycle `at` while other members
    /// rode on: it parked, re-ticked those `at` cycles on a fresh GPU, and
    /// finished alone.
    Parked {
        /// GPU cycles it had ridden the trunk.
        at: u64,
    },
    /// Its controls left the trunk's after cycle `at` when no other rider's
    /// matched: it kept the trunk, which ran under its controls from then on.
    Kept {
        /// GPU cycles it had ridden the trunk unchanged.
        at: u64,
    },
}

/// What one group run did with its GPU. Observational: it never enters a
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupStats {
    /// GPU cycles ticked: the trunk's, plus each parked member's re-ticked
    /// prefix and lone tail.
    pub gpu_ticks: u64,
    /// Members that parked.
    pub parked: u64,
    /// GPU cycles the parked members re-ticked to rebuild their prefixes
    /// (counted in `gpu_ticks` too).
    pub prefix_reticks: u64,
}

/// One run of a group: its configuration, power management, cycle budget
/// and fault plan. The group's runs share the workload profile and
/// a [`TrunkKey`]; a fault plan acts on its own run's member side only.
#[derive(Debug, Clone)]
pub struct GroupRun {
    /// The run's configuration.
    pub cfg: CosimConfig,
    /// The run's power management.
    pub pm: PowerManagement,
    /// The run's cycle budget (see [`CosimBuilder::budget`]).
    pub budget: CycleBudget,
    /// The faults the run injects (see [`Cosim::run_supervised`]).
    pub plan: FaultPlan,
}

/// The result of [`crate::CosimPool::run_group`]: one report and one ride
/// per run, in the order of the runs, plus the trunk's counters.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Each run's report, bit-identical to running it alone.
    pub reports: Vec<SupervisedReport>,
    /// How each run used the trunk.
    pub rides: Vec<Ride>,
    /// What the group did with its GPU.
    pub stats: GroupStats,
}

/// The members of one group as they step against a trunk: one run state
/// and report slot per member, who still rides, and who parked where.
struct Group<'m> {
    members: &'m mut [Member],
    states: Vec<Option<RunState>>,
    reports: Vec<Option<SupervisedReport>>,
    rides: Vec<Ride>,
    riders: Vec<usize>,
    parked: Vec<(usize, u64)>,
    events: GpuCycleEvents,
    stats: GroupStats,
}

impl<'m> Group<'m> {
    /// Begins every member's run; all of them ride.
    fn new(members: &'m mut [Member], sup: &SupervisorConfig) -> Self {
        let n = members.len();
        let states = members.iter_mut().map(|m| Some(m.run_begin(sup))).collect();
        Group {
            members,
            states,
            reports: (0..n).map(|_| None).collect(),
            rides: vec![Ride::Shared; n],
            riders: (0..n).collect(),
            parked: Vec::with_capacity(n),
            events: GpuCycleEvents::new(),
            stats: GroupStats::default(),
        }
    }

    /// Steps the riders against `gpu` until each has finished or parked.
    /// Per cycle: the loop condition and each rider's budget, one tick,
    /// each rider's pre-solve, solve and post-solve phases, then the fork
    /// rule. A rider that stops (budget trip, fault or solver error) finishes
    /// at once, reading the GPU as a lone run would.
    fn ride(&mut self, gpu: &mut Gpu, sup: &SupervisorConfig) {
        let mut riders = std::mem::take(&mut self.riders);
        let Some(&first) = riders.first() else { return };
        let max_cycles = self.members[first].cfg.max_cycles;
        let over = |gpu: &Gpu| gpu.done() || gpu.cycle() >= max_cycles;
        while !riders.is_empty() && !over(gpu) {
            let cycle = gpu.cycle();
            riders.retain(|&m| {
                if !self.members[m].budget.exceeded(cycle) {
                    return true;
                }
                self.state(m).error = Some(CosimError::DeadlineExceeded { cycle });
                self.finish(m, gpu, sup);
                false
            });
            let Some(&first) = riders.first() else { break };
            let span = self.members[first].telemetry.stages.start();
            gpu.tick_into(&mut self.events);
            self.stats.gpu_ticks += 1;
            for &m in &riders {
                self.members[m].telemetry.stages.stop(Stage::GpuStep, span);
            }
            let now = gpu.cycle();
            riders.retain(|&m| {
                let st = self.states[m].as_mut().expect("a rider's run is open");
                let member = &mut self.members[m];
                if member.cycle_pre(&self.events, now, st) && member.scalar_solve(st) {
                    member.cycle_post(gpu, st, sup);
                    return true;
                }
                self.finish(m, gpu, sup);
                false
            });
            // Past the last tick, controls no longer matter: nobody forks.
            if !over(gpu) {
                self.fork(&mut riders, gpu);
            }
        }
        for &m in &riders {
            self.finish(m, gpu, sup);
        }
        riders.clear();
        self.riders = riders;
    }

    /// The fork rule, after every rider's post-solve phase: riders whose
    /// controls match the trunk's bit for bit ride on, and the others park.
    /// If none match, the last rider keeps the trunk (its controls become
    /// the trunk's) and the others park, so the trunk's controls change
    /// only while a single member rides it.
    fn fork(&mut self, riders: &mut Vec<usize>, gpu: &mut Gpu) {
        let at = gpu.cycle();
        let keeper = if riders
            .iter()
            .any(|&m| same_controls(&self.members[m].controls, gpu))
        {
            None
        } else {
            riders.last().copied()
        };
        if let Some(k) = keeper {
            for (sm, c) in self.members[k].controls.iter().enumerate() {
                gpu.set_sm_control(sm, *c);
            }
            if self.rides[k] == Ride::Shared {
                self.rides[k] = Ride::Kept { at };
            }
        }
        riders.retain(|&m| {
            let stays = match keeper {
                Some(k) => m == k,
                None => same_controls(&self.members[m].controls, gpu),
            };
            if !stays {
                self.rides[m] = Ride::Parked { at };
                self.parked.push((m, at));
                self.stats.parked += 1;
            }
            stays
        });
    }

    /// Re-ticks each parked member's prefix on a fresh GPU from `spec` and
    /// runs it to its end alone, one GPU at a time.
    fn finish_parked(&mut self, spec: &TrunkSpec, sup: &SupervisorConfig) {
        for (m, at) in std::mem::take(&mut self.parked) {
            let mut gpu = spec.gpu();
            for _ in 0..at {
                gpu.tick_into(&mut self.events);
            }
            self.stats.gpu_ticks += at;
            self.stats.prefix_reticks += at;
            for (sm, c) in self.members[m].controls.iter().enumerate() {
                gpu.set_sm_control(sm, *c);
            }
            self.riders.push(m);
            self.ride(&mut gpu, sup);
        }
    }

    fn state(&mut self, m: usize) -> &mut RunState {
        self.states[m].as_mut().expect("a rider's run is open")
    }

    fn finish(&mut self, m: usize, gpu: &Gpu, sup: &SupervisorConfig) {
        let st = self.states[m].take().expect("a run finishes once");
        self.reports[m] = Some(self.members[m].run_finish(st, gpu, sup));
    }

    fn into_outcome(self) -> GroupOutcome {
        GroupOutcome {
            reports: self
                .reports
                .into_iter()
                .map(|r| r.expect("every member finished"))
                .collect(),
            rides: self.rides,
            stats: self.stats,
        }
    }
}

/// Whether `controls` equal the GPU's bit for bit.
fn same_controls(controls: &[SmControl], gpu: &Gpu) -> bool {
    controls.iter().enumerate().all(|(sm, a)| {
        let b = gpu.sm_control(sm);
        // Exhaustive, so a new control field cannot be left out.
        let SmControl {
            issue_width,
            fake_rate,
            freq_scale,
            sm_gated,
            unit_gating,
            gating_idle_detect,
        } = *a;
        issue_width.to_bits() == b.issue_width.to_bits()
            && fake_rate.to_bits() == b.fake_rate.to_bits()
            && freq_scale.to_bits() == b.freq_scale.to_bits()
            && sm_gated == b.sm_gated
            && unit_gating == b.unit_gating
            && gating_idle_detect == b.gating_idle_detect
    })
}

/// Runs `runs` of `profile` on one GPU trunk, each member built in the
/// matching workspace of `workspaces` and torn back into it.
///
/// # Panics
///
/// Panics if `runs` is empty, if the runs do not share one [`TrunkKey`],
/// or if `workspaces` is shorter than `runs`.
pub(crate) fn run_group(
    profile: &WorkloadProfile,
    runs: &[GroupRun],
    sup: &SupervisorConfig,
    workspaces: &mut [SolverWorkspace],
) -> GroupOutcome {
    let lead = runs.first().expect("a group has at least one run");
    let key = TrunkKey::new(&lead.cfg, &lead.pm);
    assert!(
        runs.iter().all(|r| TrunkKey::new(&r.cfg, &r.pm) == key),
        "a group's runs must share one trunk key"
    );
    assert!(workspaces.len() >= runs.len(), "one workspace per run");
    let spec = TrunkSpec::new(&lead.cfg, &lead.pm, profile);
    let mut members: Vec<Member> = runs
        .iter()
        .zip(workspaces.iter_mut())
        .map(|(run, ws)| {
            Cosim::builder(&run.cfg, profile)
                .power_management(run.pm.clone())
                .budget(run.budget)
                .workspace(std::mem::take(ws))
                .member(run.plan.clone())
        })
        .collect();
    let mut group = Group::new(&mut members, sup);
    group.ride(&mut spec.gpu(), sup);
    group.finish_parked(&spec, sup);
    let outcome = group.into_outcome();
    for (ws, member) in workspaces.iter_mut().zip(members) {
        *ws = member.rig.into_workspace();
    }
    outcome
}

impl Cosim {
    /// Starts a [`CosimBuilder`] for running `profile` under `cfg`.
    pub fn builder<'a>(cfg: &'a CosimConfig, profile: &'a WorkloadProfile) -> CosimBuilder<'a> {
        CosimBuilder::new(cfg, profile)
    }

    /// Tears the finished run down into the circuit solver's reusable
    /// [`SolverWorkspace`], so the next run built on it
    /// ([`CosimBuilder::workspace`]) skips its warm-up allocations.
    pub fn into_workspace(self) -> SolverWorkspace {
        self.member.rig.into_workspace()
    }

    /// Runs to kernel completion (or the cycle cap) and reports.
    ///
    /// Equivalent to a fault-free [`Cosim::run_supervised`] under
    /// [`SupervisorConfig::default`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit solver fails irrecoverably (the historical
    /// contract of this entry point; use [`Cosim::run_supervised`] to get a
    /// verdict instead of a panic).
    pub fn run(&mut self) -> CosimReport {
        let run = self.run_supervised(&SupervisorConfig::default(), &FaultPlan::none());
        if let Some(e) = run.error {
            panic!("PDS transient step: {e}");
        }
        run.report
    }

    /// Runs under a supervisor: installs the supervisor's solver-recovery
    /// policy on the rig, interprets `plan` every cycle (sensing, actuation,
    /// CR-IVR, and load faults), tracks per-layer time below the voltage
    /// guardband, and classifies the finished run into a
    /// [`crate::RunVerdict`] instead of panicking on solver failure. It is
    /// the one-member case of the group loop (see the module docs), with
    /// `plan` installed on its member: the lone member always keeps its
    /// trunk, so it never parks.
    pub fn run_supervised(&mut self, sup: &SupervisorConfig, plan: &FaultPlan) -> SupervisedReport {
        self.member.plan = plan.clone();
        let mut group = Group::new(std::slice::from_mut(&mut self.member), sup);
        group.ride(&mut self.gpu, sup);
        let mut outcome = group.into_outcome();
        outcome.reports.pop().expect("one member, one report")
    }
}

impl Member {
    /// Sets up one supervised run: installs the recovery policy and
    /// allocates every loop-carried buffer.
    fn run_begin(&mut self, sup: &SupervisorConfig) -> RunState {
        let n_sms = self.rig.n_sms();
        let dt = 1.0 / self.power.clock_hz();
        let v_nominal = self.power.v_nominal();
        let (n_layers, layer_columns) = self.rig.topology();
        self.rig.set_recovery_policy(sup.recovery);
        let streams = self.plan.event_streams();
        // Last sample actually delivered to the controller per SM, for
        // dropout's sample-and-hold semantics.
        let held_sample = vec![v_nominal; n_sms];
        let dac = self
            .controller
            .as_ref()
            .map_or(ControllerConfig::default().dcc, |c| c.config().dcc);
        let traces: Vec<vs_circuit::Trace> = if self.cfg.record_traces {
            (0..n_sms)
                .map(|i| vs_circuit::Trace::new(format!("v(sm{i})")))
                .collect()
        } else {
            Vec::new()
        };
        let histogram = ImbalanceHistogram::new(self.rig.topology());
        let epoch_cycles = self.pm.dfs.map_or(4096, |d| d.epoch_cycles);
        let stride = u64::from(self.cfg.trace_stride.max(1));

        RunState {
            n_sms,
            dt,
            v_nominal,
            layer_columns,
            streams,
            held_sample,
            dac,
            below_guard_cycles: vec![0u64; n_layers],
            recovery: StepReport::default(),
            error: None,
            // Whether each CR-IVR fault event currently has its scale
            // applied (so window edges retune the circuit exactly once per
            // transition).
            crivr_applied: vec![false; self.plan.events().len()],
            dcc_power: vec![0.0; n_sms],
            min_v: f64::INFINITY,
            max_v: f64::NEG_INFINITY,
            traces,
            histogram,
            freq_scale_acc: 0.0,
            epoch_instr_base: vec![0; n_sms],
            epoch_cycles,
            powers: vec![SmPower::default(); n_sms],
            sm_watts: vec![0.0; n_sms],
            fake_watts: vec![0.0; n_sms],
            table_fake: self.power.table().e_fake,
            // Reusable hot-loop buffers: the steady-state cycle allocates
            // nothing (see DESIGN.md, "The zero-allocation hot path").
            voltages: Vec::with_capacity(n_sms),
            sensed: Vec::with_capacity(n_sms),
            commands: Vec::with_capacity(n_sms),
            stride,
            cycle: 0,
        }
    }

    /// One cycle's pre-solve phase, from the trunk's `events` of the tick
    /// that brought the GPU to `cycle`: power model and circuit-boundary
    /// fault application. Returns `false` when a fault could not be applied
    /// (the error sits in the state) and the run must stop; otherwise the
    /// cycle's loads sit in the state, ready to stage onto the solver.
    fn cycle_pre(&mut self, events: &GpuCycleEvents, cycle: u64, st: &mut RunState) -> bool {
        self.rig.sm_voltages_into(&mut st.voltages);

        let span = self.telemetry.stages.start();
        for sm in 0..st.n_sms {
            let s = &events.per_sm[sm];
            let mut p = self.power.sm_power_w(s);
            if self.cfg.voltage_scaled_power {
                p = self.power.voltage_scaled(p, st.voltages[sm]);
            }
            st.powers[sm] = p;
            st.sm_watts[sm] = p.total();
            st.fake_watts[sm] = st.table_fake * f64::from(s.issued_fake) * self.power.clock_hz();
            if self.pm.pg.is_some() {
                self.gating_acc.record(s);
            }
        }
        self.telemetry.stages.stop(Stage::PowerModel, span);

        // Scheduled faults at the circuit boundary: CR-IVR degradation
        // retunes the netlist on window edges; load glitches corrupt the
        // power telemetry the solver is about to consume.
        st.cycle = cycle;
        for (i, ev) in self.plan.events().iter().enumerate() {
            match ev.kind {
                FaultKind::CrIvr { column, fault } => {
                    let want = ev.window.active(cycle);
                    if want != st.crivr_applied[i] {
                        let scale = if want { fault.scale() } else { 1.0 };
                        match self.rig.scale_column_recyclers(column, scale) {
                            Ok(_) => st.crivr_applied[i] = want,
                            Err(e) => {
                                st.error = Some(CosimError::Solver { cycle, source: e });
                            }
                        }
                    }
                }
                FaultKind::LoadGlitch { sm, glitch } if ev.window.active(cycle) => {
                    match glitch {
                        LoadGlitch::NonFinite => st.sm_watts[sm] = f64::NAN,
                        LoadGlitch::Surge { watts } => st.sm_watts[sm] += watts,
                    }
                }
                _ => {}
            }
        }
        st.error.is_none()
    }

    /// One cycle's circuit solve: stage loads, advance the rig one timestep
    /// under its recovery policy, and book the result. Recovery activity
    /// accumulates on success; the first error is recorded. Returns `false`
    /// when the solver gave up and the run loop must stop.
    fn scalar_solve(&mut self, st: &mut RunState) -> bool {
        let span = self.telemetry.stages.start();
        let step = self.rig.step(&st.sm_watts, &st.dcc_power, &st.fake_watts);
        self.telemetry.stages.stop(Stage::CircuitSolve, span);
        match step {
            Ok(r) => {
                st.recovery.absorb(&r);
                true
            }
            Err(e) => {
                st.error = Some(CosimError::Solver {
                    cycle: st.cycle,
                    source: e,
                });
                false
            }
        }
    }

    /// One cycle's post-solve phase: voltage statistics, guardband tracking,
    /// the voltage-smoothing controller, epoch power management, and the
    /// frequency-scale accumulator. The controller and the epoch power
    /// management write the member's controls; `gpu` is read only for the
    /// DFS epoch's instruction counts.
    fn cycle_post(&mut self, gpu: &Gpu, st: &mut RunState, sup: &SupervisorConfig) {
        let cycle = st.cycle;
        self.rig.sm_voltages_into(&mut st.voltages);
        for (sm, v) in st.voltages.iter().enumerate() {
            st.min_v = st.min_v.min(*v);
            st.max_v = st.max_v.max(*v);
            if self.cfg.record_traces && cycle.is_multiple_of(st.stride) {
                st.traces[sm].push(self.rig.time(), *v);
            }
        }
        for (layer, below) in st.below_guard_cycles.iter_mut().enumerate() {
            let lo = st.voltages[layer * st.layer_columns..(layer + 1) * st.layer_columns]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            if lo < sup.v_guardband {
                *below += 1;
            }
        }
        st.histogram.record(&st.sm_watts, &st.voltages, st.v_nominal);

        // Architecture-level voltage smoothing, through the (possibly
        // faulted) sensing and actuation chains. Physical statistics
        // above use the true voltages; the controller sees the sensed
        // ones.
        if let Some(ctrl) = self.controller.as_mut() {
            let span = self.telemetry.stages.start();
            st.sensed.clear();
            st.sensed.extend_from_slice(&st.voltages);
            for (i, ev) in self.plan.events().iter().enumerate() {
                if let FaultKind::Detector { sm, fault } = ev.kind {
                    if ev.window.active(cycle) {
                        st.sensed[sm] =
                            fault.apply(st.sensed[sm], st.held_sample[sm], &mut st.streams[i]);
                    }
                }
            }
            st.held_sample.copy_from_slice(&st.sensed);
            st.commands.clear();
            st.commands.extend_from_slice(ctrl.update(&st.sensed));
            for ev in self.plan.events() {
                if let FaultKind::Actuator { sm, fault } = ev.kind {
                    if ev.window.active(cycle) {
                        fault.apply(&mut st.commands[sm], &st.dac);
                    }
                }
            }
            for (sm, cmd) in st.commands.iter().enumerate() {
                let c = &mut self.controls[sm];
                c.issue_width = cmd.issue_width;
                c.fake_rate = cmd.fake_rate;
                st.dcc_power[sm] = cmd.dcc_power_w;
            }
            self.telemetry.stages.stop(Stage::ControllerUpdate, span);
        }

        // Higher-level power management on epoch boundaries.
        if cycle.is_multiple_of(st.epoch_cycles) {
            let span = self.telemetry.stages.start();
            if let Some(gov) = self.dfs.as_mut() {
                let stats = gpu.sm_stats();
                let instr: Vec<u64> = (0..st.n_sms)
                    .map(|i| stats[i].instructions - st.epoch_instr_base[i])
                    .collect();
                for (base, s) in st.epoch_instr_base.iter_mut().zip(&stats) {
                    *base = s.instructions;
                }
                gov.on_epoch(&instr);
                let mut freqs: Vec<f64> = gov.frequencies_hz().to_vec();
                let mut gates = vec![self.pm.pg.is_some_and(|p| p.enabled); st.n_sms];
                if let Some(hv) = self.hypervisor.as_mut() {
                    if let Some(ctrl) = self.controller.as_ref() {
                        hv.observe_throttle_fraction(ctrl.throttle_fraction());
                    }
                    if self.rig.is_stacked() {
                        hv.map_commands(&mut freqs, &mut gates);
                    }
                }
                for sm in 0..st.n_sms {
                    gov.set_frequency(sm, freqs[sm]);
                    let c = &mut self.controls[sm];
                    c.freq_scale = freqs[sm] / gov.config().base_hz;
                    c.unit_gating = gates[sm];
                }
            } else if let Some(hv) = self.hypervisor.as_mut() {
                if let Some(ctrl) = self.controller.as_ref() {
                    hv.observe_throttle_fraction(ctrl.throttle_fraction());
                }
                if self.rig.is_stacked() && self.pm.pg.is_some_and(|p| p.enabled) {
                    let mut freqs = vec![700e6; st.n_sms];
                    let mut gates = vec![true; st.n_sms];
                    hv.map_commands(&mut freqs, &mut gates);
                    for (c, gate) in self.controls.iter_mut().zip(&gates) {
                        c.unit_gating = *gate;
                    }
                }
            }
            self.telemetry.stages.stop(Stage::HypervisorRemap, span);
        }
        st.freq_scale_acc +=
            self.controls.iter().map(|c| c.freq_scale).sum::<f64>() / st.n_sms as f64;
    }

    /// Closes one supervised run: final statistics, verdict classification,
    /// the stage profile, and report assembly.
    fn run_finish(&mut self, st: RunState, gpu: &Gpu, sup: &SupervisorConfig) -> SupervisedReport {
        let RunState {
            dt,
            below_guard_cycles,
            recovery,
            error,
            min_v,
            max_v,
            traces,
            histogram,
            freq_scale_acc,
            ..
        } = st;
        let cycles = gpu.cycle();
        let completed = gpu.done();
        let ledger = self.rig.ledger();
        let gating_saved_j = if self.pm.pg.is_some() {
            self.gating_acc.net_energy_saved_j(&self.power)
        } else {
            0.0
        };
        let report = CosimReport {
            benchmark: self.benchmark.clone(),
            pds: self.cfg.pds,
            cycles,
            completed,
            instructions: gpu.total_instructions(),
            ledger,
            min_sm_voltage: min_v,
            max_sm_voltage: max_v,
            sm_voltage_summaries: traces.iter().map(vs_circuit::Trace::summary).collect(),
            throttle_fraction: self
                .controller
                .as_ref()
                .map_or(0.0, VoltageController::throttle_fraction),
            imbalance: histogram,
            avg_freq_scale: if cycles == 0 {
                1.0
            } else {
                freq_scale_acc / cycles as f64
            },
            gating_saved_j,
        };
        let verdict = classify(
            error.as_ref(),
            &below_guard_cycles,
            cycles,
            &recovery,
            sup.guardband_tolerance,
        );
        let below_guardband_s =
            below_guard_cycles.iter().copied().max().unwrap_or(0) as f64 * dt;
        let telemetry = self
            .telemetry
            .is_enabled()
            .then(|| std::mem::take(&mut self.telemetry).into_artifact());
        SupervisedReport {
            verdict,
            report,
            below_guardband_cycles: below_guard_cycles,
            below_guardband_s,
            recovery,
            error,
            telemetry,
        }
    }
}

/// Convenience: run one scenario from the typed catalogue under `cfg`.
///
/// # Panics
///
/// Panics if the circuit solver fails irrecoverably (see [`Cosim::run`]).
pub fn run_scenario(cfg: &CosimConfig, id: ScenarioId) -> CosimReport {
    let profile = id.profile();
    Cosim::builder(cfg, &profile).build().run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ScenarioId;

    fn quick(pds: PdsKind) -> CosimConfig {
        CosimConfig {
            pds,
            workload_scale: 0.1,
            max_cycles: 400_000,
            ..CosimConfig::default()
        }
    }

    #[test]
    fn cross_layer_run_completes_with_high_pde() {
        let r = run_scenario(&quick(PdsKind::VsCrossLayer { area_mult: 0.2 }), ScenarioId::Heartwall);
        assert!(r.completed, "kernel must finish ({} cycles)", r.cycles);
        let pde = r.pde();
        assert!((0.87..=0.97).contains(&pde), "PDE {pde}");
        assert!(r.min_sm_voltage > 0.8, "min V {}", r.min_sm_voltage);
    }

    #[test]
    fn conventional_run_has_lower_pde() {
        let vs = run_scenario(&quick(PdsKind::VsCrossLayer { area_mult: 0.2 }), ScenarioId::Hotspot);
        let conv = run_scenario(&quick(PdsKind::ConventionalVrm), ScenarioId::Hotspot);
        assert!(conv.completed && vs.completed);
        assert!(
            vs.pde() > conv.pde() + 0.05,
            "VS {} vs conventional {}",
            vs.pde(),
            conv.pde()
        );
    }

    #[test]
    fn throttling_costs_few_cycles() {
        let base = run_scenario(&quick(PdsKind::ConventionalVrm), ScenarioId::Srad);
        let vs = run_scenario(&quick(PdsKind::VsCrossLayer { area_mult: 0.2 }), ScenarioId::Srad);
        assert!(base.completed && vs.completed);
        let penalty = vs.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(
            (-0.02..=0.15).contains(&penalty),
            "performance penalty {penalty}"
        );
    }

    #[test]
    fn imbalance_histogram_mostly_balanced() {
        let r = run_scenario(&quick(PdsKind::VsCrossLayer { area_mult: 0.2 }), ScenarioId::Heartwall);
        let f = r.imbalance.fractions();
        // Paper Fig. 17: >= 50% of cycles under 10% normalized imbalance.
        assert!(f[0] > 0.5, "balanced fraction {:?}", f);
    }

    #[test]
    fn dfs_reduces_average_frequency() {
        let cfg = CosimConfig {
            pds: PdsKind::VsCrossLayer { area_mult: 0.2 },
            workload_scale: 0.5,
            max_cycles: 1_500_000,
            ..CosimConfig::default()
        };
        let profile = ScenarioId::Bfs.profile();
        let pm = PowerManagement {
            dfs: Some(DfsConfig::with_goal(0.5)),
            ..PowerManagement::default()
        };
        let r = Cosim::builder(&cfg, &profile).power_management(pm).build().run();
        assert!(
            r.avg_freq_scale < 0.9,
            "DFS should lower clocks: {}",
            r.avg_freq_scale
        );
    }

    #[test]
    fn pg_saves_energy_on_unbalanced_units() {
        // bfs stalls on memory for long stretches: its idle windows beat the
        // break-even threshold comfortably (compute-dense benchmarks can net
        // negative savings from wake thrash, as Warped Gates reports).
        let cfg = quick(PdsKind::ConventionalVrm);
        let profile = ScenarioId::Bfs.profile();
        let pm = PowerManagement {
            pg: Some(PgConfig::default()),
            ..PowerManagement::default()
        };
        let r = Cosim::builder(&cfg, &profile).power_management(pm).build().run();
        assert!(r.completed);
        assert!(r.gating_saved_j > 0.0, "saved {}", r.gating_saved_j);
    }
}
