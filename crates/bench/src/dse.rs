//! The design-space-exploration driver: evaluates an [`AxisSpace`]'s cross
//! product — thousands of [`ConfigPoint`]s — through a sharded two-level
//! work queue and distills the results into a Pareto-frontier artifact.
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
//! [`WorstCaseConfig::stable_key_into`]) and simulates each distinct run
//! once: the full 1728-point grid needs 162 PDE runs and 882 worst-case
//! runs. [`evaluate_point`] runs both for one point with nothing shared;
//! it is the oracle the tests hold the shared runs to, bit for bit.
//!
//! The frontier is computed over the three objectives the paper trades
//! against each other: **maximize PDE, minimize CR-IVR area, maximize the
//! worst-case voltage**. A point is on the frontier iff no other evaluated
//! point is at least as good in all three and strictly better in one
//! (strict Pareto dominance; exact ties do not dominate each other).
//!
//! Scheduling mirrors the sweep's two-level queue: level 1 hands each
//! worker a *topology group* (points sharing a stack geometry, hence a
//! netlist family — the recycled workspace's buffers and DC cache stay
//! warm), level 2 claims lanes of `batch_lanes.max(1)` consecutive points
//! off the group's atomic cursor; workers whose groups drained steal lanes
//! from groups still in flight. Before the workers start, the distinct
//! runs of the *pending* points are planned into `OnceLock` slots; a
//! worker resolves each half of a point through its slot, so the first
//! worker to need a run executes it and any other reads (or waits for)
//! its result. Point identity routes through [`SuiteKey`]: duplicate
//! points evaluate once, and completed points are journaled
//! ([`crate::journal::record_point`]) the moment their metrics exist, so
//! `dse --resume` replays verified metrics and plans only the runs its
//! lost points read. Artifacts are bit-identical whatever the worker
//! count, lane width, or resume history.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use vs_circuit::SolverWorkspace;
use vs_core::{run_worst_case_in, PdsKind, PdsRig, StackGeometry, WorstCaseConfig};
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
    /// Consecutive same-topology points per queue claim
    /// (`0`/`1` = single-point claims). Artifacts are bit-identical either
    /// way.
    pub batch_lanes: usize,
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
    /// Distinct PDE runs executed: one per PDE-run key the evaluated
    /// points read.
    pub pde_runs: usize,
    /// Distinct worst-case runs executed: one per [`WorstCaseConfig`] key
    /// the evaluated points read.
    pub worst_case_runs: usize,
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

    /// Runs the rig on a recycled workspace and returns its PDE. Pure in
    /// `self`: the workspace only saves allocations.
    fn run(&self, workspace: SolverWorkspace) -> (f64, SolverWorkspace) {
        let n_sms = self.geometry.n_sms() as usize;
        let mut rig = PdsRig::with_params_in(
            self.kind,
            &self.geometry.pdn_params(),
            1.0 / CLOCK_HZ,
            self.overhead_w,
            workspace,
        );
        let loads = vec![self.p_sm_w; n_sms];
        let zeros = vec![0.0; n_sms];
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

/// Distinct runs in first-appearance order, each beside the slot its
/// result lands in once some worker executes it.
type Plan<R, T> = Vec<(R, OnceLock<T>)>;

/// Dedups `runs` by their key words: returns the distinct runs with empty
/// result slots, and each input run's index into them.
fn plan<R, T>(
    runs: impl Iterator<Item = R>,
    key: impl Fn(&R, &mut Vec<u64>),
) -> (Plan<R, T>, Vec<usize>) {
    let mut distinct: Plan<R, T> = Vec::new();
    let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
    let slots = runs
        .map(|run| {
            let mut words = Vec::new();
            key(&run, &mut words);
            *index.entry(words).or_insert_with(|| {
                distinct.push((run, OnceLock::new()));
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, slots)
}

/// Executes one planned run on the worker's recycled workspace. Under
/// tracing it becomes a `dse`/`name` span on the worker's track and bumps
/// `counter`; untraced, tracing costs one relaxed load.
fn execute<T>(
    name: &str,
    counter: &str,
    point: &ConfigPoint,
    workspace: &mut Option<SolverWorkspace>,
    run: impl FnOnce(SolverWorkspace) -> (T, SolverWorkspace),
) -> T {
    let span = obs::tracer().begin();
    let (result, ws) = run(workspace.take().unwrap_or_default());
    *workspace = Some(ws);
    if span.is_some() {
        obs::metric_inc(counter, 1);
        obs::tracer().end_span(
            obs::worker_track(),
            "dse",
            name,
            span,
            &[
                ("stack", point.stack.to_string()),
                ("area", point.area.to_string()),
                ("family", point.pds.to_string()),
            ],
        );
    }
    result
}

/// A pending point: its index into the unique-point list and the planned
/// runs it reads.
struct Job {
    point: usize,
    pde: usize,
    worst: usize,
}

/// A topology group's pending points, all sharing one stack geometry,
/// behind an atomic lane cursor.
struct Group {
    jobs: Vec<Job>,
    next: AtomicUsize,
}

/// Runs the exploration: enumerate, dedup by [`SuiteKey`], plan the
/// distinct runs the pending points read, shard the pending points over
/// the worker pool, journal completions, and mark the Pareto frontier.
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
    // read no run, so a resume executes just what its lost points need.
    let settings = &opts.settings;
    let (pde_plan, pde_of) = plan(
        pending.iter().map(|&i| PdeRun::of(&unique[i].0, settings)),
        PdeRun::stable_key_into,
    );
    let (worst_plan, worst_of) = plan(
        pending.iter().map(|&i| worst_case_config(&unique[i].0, settings)),
        WorstCaseConfig::stable_key_into,
    );

    // Level-1 groups: pending points bucketed by stack geometry in
    // first-appearance order. Enumeration puts the stack axis outermost,
    // so a group's points share one netlist topology and are consecutive —
    // a worker's recycled workspace stays warm across its whole lane.
    let mut group_of: HashMap<StackGeometry, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for ((&point, pde), worst) in pending.iter().zip(pde_of).zip(worst_of) {
        let stack = unique[point].0.stack;
        let g = *group_of.entry(stack).or_insert_with(|| {
            groups.push(Group { jobs: Vec::new(), next: AtomicUsize::new(0) });
            groups.len() - 1
        });
        groups[g].jobs.push(Job { point, pde, worst });
    }

    let jobs = effective_jobs(opts.jobs);
    let lanes = opts.batch_lanes.max(1);
    let next_group = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let results: Mutex<&mut Vec<Option<PointMetrics>>> = Mutex::new(&mut slots);
    let progress_every = (evaluated / 20).max(1);

    // Claims one lane off `group` and evaluates it, executing each run the
    // lane's points read unless another worker already has (or is); returns
    // false when the group's cursor is exhausted.
    let drain_lane = |group: &Group, workspace: &mut Option<SolverWorkspace>| -> bool {
        let start = group.next.fetch_add(lanes, Ordering::Relaxed);
        if start >= group.jobs.len() {
            return false;
        }
        let lane = &group.jobs[start..group.jobs.len().min(start + lanes)];
        for &Job { point: i, pde, worst } in lane {
            let (point, key) = &unique[i];
            let (run, slot) = &pde_plan[pde];
            let pde = *slot.get_or_init(|| {
                execute("pde_run", "dse.pde_runs", point, workspace, |ws| run.run(ws))
            });
            let (cfg, slot) = &worst_plan[worst];
            let (worst_v, final_v) = *slot.get_or_init(|| {
                execute("worst_case_run", "dse.worst_case_runs", point, workspace, |ws| {
                    let (r, ws) = run_worst_case_in(cfg, ws);
                    ((r.worst_voltage, r.final_voltage), ws)
                })
            });
            let metrics = PointMetrics { pde, worst_v, final_v };
            if let Some(dir) = &opts.journal_dir {
                // Best-effort, like scenario journaling: a lost record
                // costs a recompute on resume, never the run.
                let _ = journal::record_point(dir, key, &point.to_string(), &metrics);
            }
            results.lock().expect("dse result slots poisoned")[i] = Some(metrics);
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
        true
    };

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut workspace: Option<SolverWorkspace> = None;
                // Level 1: own the next unclaimed topology group.
                loop {
                    let g = next_group.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else { break };
                    while drain_lane(group, &mut workspace) {}
                }
                // Level 2: steal lanes from groups still in flight.
                loop {
                    let mut claimed = false;
                    for group in &groups {
                        while drain_lane(group, &mut workspace) {
                            claimed = true;
                        }
                    }
                    if !claimed {
                        break;
                    }
                }
            });
        }
    });

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
        pde_runs: pde_plan.len(),
        worst_case_runs: worst_plan.len(),
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
