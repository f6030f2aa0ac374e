//! The executor: the claim loop behind sweep and campaign, memoized suites
//! run as batches of group tasks, and the crash-safe attempt loop every
//! task runs through.
//!
//! An [`Executor`] is a value built once per run from its journal
//! directory and journal [`Replay`]. It owns everything the run mutates:
//! the suite memo, the in-flight batches idle workers steal from, the
//! quarantine list, and the [`ShardStats`] counters, which are also its
//! trace's metrics. It also owns everything the run records or injects:
//! its [`Tracer`] and the chaos plan a test installs
//! ([`Executor::with_chaos`]). Two executors in one process share no work,
//! no journal, no memo, no trace and no plan — only the per-thread solver
//! pools (pure workspace) and the progress sink ([`crate::obs`]).
//!
//! * **Claim loop** (`Executor::run_claims`): scoped workers claim item
//!   indices in a priority order and fill canonical result slots; a worker
//!   whose queue has drained steals group tasks from batches still in
//!   flight instead of exiting. [`crate::sweep::run_sweep`] runs its
//!   experiments on it, [`crate::campaign::run_campaign`] its fault cells,
//!   and [`crate::dse::run_dse`] its trunk tasks.
//! * **Batches** ([`Executor::run_suites`]): one call requests every suite
//!   an experiment needs. Each suite is a memoized job of twelve
//!   [`ScenarioId`] slots. The batch splits its pending suites, per
//!   scenario, into *group tasks*: the suites whose runs share a
//!   [`TrunkKey`] (kernel, scheduler, initial SM controls). A group task
//!   claims the (suite, scenario) slots nobody has claimed yet, so each
//!   runs at most once per executor, and runs them as one group on one GPU
//!   trunk ([`vs_core::CosimPool::run_group`]): they tick one GPU until
//!   their SM controls diverge, each report bit-identical to its lone run.
//!   Every requester *joins the computation* — it claims and runs
//!   unclaimed group tasks instead of idling — and waits by stealing
//!   elsewhere. [`Executor::run_suite`] is a batch of one suite, whose
//!   group tasks hold one run each (serve's point requests).
//!
//! Each worker thread owns a long-lived [`CosimPool`] shard (a thread-local),
//! so solver buffers and the DC operating-point cache are reused across every
//! scenario the thread runs, whichever batch or executor the task came from.
//!
//! # Crash safety
//!
//! Every run, campaign cell and dse trunk goes through one attempt loop
//! (`Executor::attempt`, built on [`isolated`]): panics are caught, the
//! thread's pool shard is rebuilt (a panic can unwind through a
//! half-stepped solver, so the shard is never trusted afterwards — the
//! `UnwindSafe` audit behind the `AssertUnwindSafe`), and the attempt is
//! retried with seeded jittered backoff, [`MAX_ATTEMPTS`] attempts in all.
//! No attempt needs a wall-clock watchdog: a run ends at its cycle cap, and
//! each circuit step makes a bounded number of recovery attempts and
//! halvings (the solver's `RecoveryPolicy`); a [`CycleBudget`] trip is the
//! chaos `Stall` hook. Attempts stay per (suite, scenario): a group task's
//! shared run is attempt 0 of each member, and a member whose attempt 0
//! failed (its own budget trip or solver, or a panic of the whole group)
//! retries alone from attempt 1. A run that exhausts its attempts is
//! **quarantined** ([`QuarantineRecord`], read back through
//! [`Executor::quarantined`]): its suite completes *degraded* — missing that
//! scenario's report — instead of aborting the process; a dse trunk that
//! exhausts its attempts panics `run_dse` instead, since a frontier has no
//! degraded form. Completed scenarios and dse points are appended to the
//! executor's resume journal through one write path
//! (`Executor::journal`, see [`crate::journal`]), and the replay it was
//! built with fills suites' slots and dse points with verified work, so
//! only damaged or missing work recomputes.
//!
//! Determinism contract: a suite's reports are assembled in
//! [`ScenarioId::ALL`] order from per-scenario slots, a group member's
//! report is bit-identical to its lone run, and workspace reuse never
//! changes results (see `vs_core::CosimPool`), so the memoized value — and
//! every artifact derived from it — is bit-identical whatever the worker
//! count, claim order, grouping, or stealing pattern. Only stderr progress
//! lines and the observational [`ShardStats`] counters vary.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vs_core::{
    CosimConfig, CosimError, CosimPool, CosimReport, CycleBudget, FaultPlan, GroupRun, GroupStats,
    PowerManagement, ScenarioId, SupervisorConfig, TrunkKey,
};
use vs_telemetry::json::Json;
use vs_telemetry::{chrome_trace_json, fnv1a_64, write_atomic, MetricsSnapshot, Tracer};

use crate::chaos::{Chaos, ChaosMode, ChaosPlan};
use crate::dse::PointMetrics;
use crate::journal::{self, Replay};
use crate::obs;
use crate::space::ConfigPoint;

/// Tasks per suite: one per catalogue scenario.
const N_TASKS: usize = ScenarioId::ALL.len();

/// Stable identity of a memoized suite: the [`CosimConfig`] and
/// [`PowerManagement`] key words (see their `stable_key_into` methods).
/// Unlike the historical `format!("{cfg:?}|{pm:?}")` key, this cannot
/// collide or split when `Debug` formatting changes, and adding a config
/// field without extending the key is a compile error at the leaf type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SuiteKey(Vec<u64>);

impl SuiteKey {
    /// Builds the key for a suite of `cfg` under `pm`.
    pub fn new(cfg: &CosimConfig, pm: &PowerManagement) -> Self {
        let mut words = Vec::with_capacity(32);
        cfg.stable_key_into(&mut words);
        pm.stable_key_into(&mut words);
        SuiteKey(words)
    }

    /// The raw key words.
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// Serializes the key losslessly as dot-joined 16-digit hex words.
    /// Many words are `f64::to_bits` images above 2^53, so they must never
    /// travel through a JSON number — this string form is what the resume
    /// journal and the degraded manifest section carry.
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(self.0.len() * 17);
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&format!("{w:016x}"));
        }
        out
    }

    /// Parses a [`SuiteKey::to_hex`] string; `None` on any malformed word.
    pub fn from_hex(text: &str) -> Option<SuiteKey> {
        if text.is_empty() {
            return None;
        }
        let mut words = Vec::new();
        for part in text.split('.') {
            words.push(u64::from_str_radix(part, 16).ok()?);
        }
        Some(SuiteKey(words))
    }

    /// A short filesystem-safe digest of the key, used as the per-suite
    /// cache directory name (the full key travels inside the cached files).
    pub fn cache_dir(&self) -> String {
        format!("{:016x}", fnv1a_64(self.to_hex().as_bytes()))
    }
}

/// Attempts per task (scenario run, campaign cell or dse trunk) before
/// quarantine.
pub const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry, milliseconds; it doubles per retry.
const BACKOFF_BASE_MS: u64 = 10;

/// Backoff ceiling, milliseconds.
const BACKOFF_CAP_MS: u64 = 500;

/// A task that exhausted its retry budget: the full per-attempt error
/// chain, named by suite and scenario in the degraded manifest section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The suite the task belonged to.
    pub suite: SuiteKey,
    /// The scenario that kept failing.
    pub scenario: ScenarioId,
    /// Attempts spent.
    pub attempts: u32,
    /// One error string per attempt (error chains flattened with `": "`).
    pub errors: Vec<String>,
}

impl QuarantineRecord {
    /// The record as its manifest `degraded` line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("degraded")),
            ("suite", Json::from(self.suite.to_hex().as_str())),
            ("scenario", Json::from(self.scenario.name())),
            ("attempts", Json::from(u64::from(self.attempts))),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
            ),
        ])
    }

    /// Reads a manifest `degraded` line back: `None` for any other line,
    /// and for one whose suite key or scenario does not parse.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<QuarantineRecord> {
        if v.get("type")?.as_str()? != "degraded" {
            return None;
        }
        Some(QuarantineRecord {
            suite: SuiteKey::from_hex(v.get("suite")?.as_str()?)?,
            scenario: v.get("scenario")?.as_str()?.parse().ok()?,
            attempts: u32::try_from(v.get("attempts")?.as_u64()?).ok()?,
            errors: v
                .get("errors")?
                .as_arr()?
                .iter()
                .map(|e| Some(e.as_str()?.to_string()))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Outcome of `Executor::attempt` when an attempt succeeded: the value
/// plus the execution metadata the journal's v2 records and the trace
/// carry. Wall times are observational — they never enter artifact bytes.
pub(crate) struct TaskSuccess<T> {
    pub(crate) value: T,
    /// Wall seconds per attempt, oldest first: one per attempt spent,
    /// the successful one included.
    attempt_wall_s: Vec<f64>,
}

/// One scenario slot of a suite job.
enum Slot {
    Empty,
    Ready(Box<CosimReport>),
    /// Quarantined: the suite assembles without this scenario (degraded).
    Failed,
}

/// Mutable half of a [`SuiteJob`]: per-scenario claims and result slots
/// plus the assembled value once all twelve are in.
struct JobState {
    /// Whether a group task has claimed each scenario (journal-replayed
    /// slots start claimed): each (suite, scenario) runs at most once.
    claimed: [bool; N_TASKS],
    slots: Vec<Slot>,
    filled: usize,
    done: Option<Arc<Vec<CosimReport>>>,
    /// Set when a task panicked *outside* the isolation boundary: waiters
    /// must panic too instead of blocking forever on a suite that can no
    /// longer complete.
    poisoned: bool,
}

impl JobState {
    /// Assembles the suite once every slot is decided: reports in
    /// [`ScenarioId::ALL`] order, quarantined slots skipped (degraded).
    fn assemble_if_complete(&mut self) -> bool {
        if self.filled < N_TASKS || self.done.is_some() {
            return false;
        }
        let reports: Vec<CosimReport> = self
            .slots
            .iter_mut()
            .filter_map(|s| match std::mem::replace(s, Slot::Failed) {
                Slot::Ready(r) => Some(*r),
                Slot::Empty | Slot::Failed => None,
            })
            .collect();
        self.done = Some(Arc::new(reports));
        true
    }
}

/// One memoized suite computation. Its twelve scenarios are claimed one
/// at a time, by the group tasks of whichever batches request the suite.
struct SuiteJob {
    key: SuiteKey,
    cfg: CosimConfig,
    pm: PowerManagement,
    /// Which GPU trunk this suite's runs can share.
    trunk: TrunkKey,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl SuiteJob {
    fn new(exec: &Executor, key: SuiteKey, cfg: CosimConfig, pm: PowerManagement) -> Self {
        // Prefill slots from the journal replay: verified reports
        // short-circuit their tasks entirely (counted as replays).
        let mut claimed = [false; N_TASKS];
        let mut slots: Vec<Slot> = (0..N_TASKS).map(|_| Slot::Empty).collect();
        let mut filled = 0;
        for (id, report) in exec.replay.reports.get(&key).into_iter().flatten() {
            let i = scenario_index(*id);
            if !claimed[i] {
                claimed[i] = true;
                slots[i] = Slot::Ready(Box::new(report.clone()));
                filled += 1;
                exec.count_replay(|| task_labels(&key, *id).to_vec());
            }
        }
        let mut state = JobState {
            claimed,
            slots,
            filled,
            done: None,
            poisoned: false,
        };
        state.assemble_if_complete();
        SuiteJob {
            key,
            trunk: TrunkKey::new(&cfg, &pm),
            cfg,
            pm,
            state: Mutex::new(state),
            cv: Condvar::new(),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().expect("suite job state poisoned")
    }

    /// Claims scenario `i` for the caller: `false` if a task already has
    /// it (or replayed it from the journal).
    fn claim(&self, i: usize) -> bool {
        !std::mem::replace(&mut self.state().claimed[i], true)
    }

    fn fill_slot(&self, i: usize, slot: Slot) {
        let mut st = self.state();
        st.slots[i] = slot;
        st.filled += 1;
        if st.assemble_if_complete() {
            drop(st);
            self.cv.notify_all();
        }
    }

    fn poison(&self) {
        self.state().poisoned = true;
        self.cv.notify_all();
    }

    /// Blocks until the suite is assembled, helping `exec`'s other
    /// in-flight batches while waiting. A degraded suite (quarantined
    /// tasks) returns with those reports missing; consult
    /// [`Executor::quarantined`] for what was lost.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked outside the isolation boundary while
    /// running one of this suite's tasks.
    fn wait(&self, exec: &Executor) -> Arc<Vec<CosimReport>> {
        loop {
            {
                let st = self.state();
                assert!(
                    !st.poisoned,
                    "a worker panicked while running this suite; see its report above"
                );
                if let Some(done) = &st.done {
                    return done.clone();
                }
            }
            // Steal a group task from some batch rather than idling; if
            // nothing is stealable, park briefly on the condvar (timed, so
            // newly created batches become stealable without a
            // notification).
            if !exec.steal_group_task() {
                let st = self.state();
                if st.done.is_none() && !st.poisoned {
                    let _ = self
                        .cv
                        .wait_timeout(st, Duration::from_millis(1))
                        .expect("suite job state poisoned");
                }
            }
        }
    }
}

/// The position of `id` in [`ScenarioId::ALL`], which orders suite slots.
fn scenario_index(id: ScenarioId) -> usize {
    ScenarioId::ALL
        .iter()
        .position(|s| *s == id)
        .expect("catalogue scenario")
}

/// One scenario of a batch's suites that share a trunk key: claimed as one
/// task, run as one group on one GPU trunk.
struct GroupTask {
    scenario: ScenarioId,
    jobs: Vec<Arc<SuiteJob>>,
}

/// The claimable work of one [`Executor::run_suites`] call: per scenario,
/// one group task per trunk key among its suites.
struct Batch {
    tasks: Vec<GroupTask>,
    /// Claim counter over `tasks`; `fetch_add` hands each task to exactly
    /// one worker.
    next: AtomicUsize,
}

impl Batch {
    fn new(jobs: &[Arc<SuiteJob>]) -> Self {
        let mut tasks: Vec<GroupTask> = Vec::new();
        for scenario in ScenarioId::ALL {
            let first = tasks.len();
            for job in jobs {
                match tasks[first..]
                    .iter_mut()
                    .find(|t| t.jobs[0].trunk == job.trunk)
                {
                    Some(task) => task.jobs.push(job.clone()),
                    None => tasks.push(GroupTask {
                        scenario,
                        jobs: vec![job.clone()],
                    }),
                }
            }
        }
        Batch {
            tasks,
            next: AtomicUsize::new(0),
        }
    }

    /// Group tasks nobody has claimed yet.
    fn unclaimed(&self) -> usize {
        self.tasks
            .len()
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Claims the next group task and runs the scenario runs it could
    /// claim, on the calling thread's pool. Returns `false` when every task
    /// was already claimed. `via` labels the claim in the trace: `"claim"`
    /// from the batch's own requester, `"steal"` from an idle worker.
    fn run_one_task(&self, exec: &Executor, via: &'static str) -> bool {
        let Some(task) = self.tasks.get(self.next.fetch_add(1, Ordering::Relaxed)) else {
            return false;
        };
        let i = scenario_index(task.scenario);
        let members: Vec<Arc<SuiteJob>> =
            task.jobs.iter().filter(|j| j.claim(i)).cloned().collect();
        if !members.is_empty() {
            exec.run_group_task(task.scenario, &members, via);
        }
        true
    }
}

/// Counts one claimed item as landed when dropped — also when its task
/// unwinds, so the other workers stop stealing and the scope propagates
/// the panic instead of hanging. The `Release` increment pairs with the
/// claim loop's `Acquire` load.
struct Landed<'a>(&'a AtomicUsize);

impl Drop for Landed<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// One run's executor: the journal directory and replay it was built
/// with, plus the suite memo, the in-flight batches stealers scan, the
/// quarantine list, the observational counters that run accumulates, its
/// tracer, and its chaos plan.
pub struct Executor {
    journal_dir: Option<PathBuf>,
    /// The verified scenario reports and dse points it replays.
    replay: Replay,
    /// Off until turned on ([`Executor::tracer`]).
    tracer: Tracer,
    /// Empty unless a test installed a plan ([`Executor::with_chaos`]).
    chaos: Chaos,
    memo: Mutex<HashMap<SuiteKey, Arc<SuiteJob>>>,
    in_flight: Mutex<Vec<Arc<Batch>>>,
    quarantined: Mutex<Vec<QuarantineRecord>>,
    scenario_tasks: AtomicU64,
    steals: AtomicU64,
    dc_cache_hits: AtomicU64,
    replayed: AtomicU64,
    retries: AtomicU64,
    groups: AtomicU64,
    gpu_ticks: AtomicU64,
    parked: AtomicU64,
    prefix_reticks: AtomicU64,
}

impl Default for Executor {
    /// No journal, nothing replayed.
    fn default() -> Self {
        Executor::new(None, Replay::default())
    }
}

impl Executor {
    /// Builds an executor. Completed scenarios and dse points are journaled
    /// into `journal_dir` when set; suites prefill the verified reports of
    /// `replay`, and `run_dse` takes its verified points
    /// (`Executor::replayed_point`). Tracing starts off, and no chaos
    /// plan is installed.
    pub fn new(journal_dir: Option<PathBuf>, replay: Replay) -> Self {
        Executor {
            journal_dir,
            replay,
            tracer: Tracer::new(),
            chaos: Chaos::default(),
            memo: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(Vec::new()),
            quarantined: Mutex::new(Vec::new()),
            scenario_tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            dc_cache_hits: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            gpu_ticks: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            prefix_reticks: AtomicU64::new(0),
        }
    }

    /// Installs `plan` on this executor (tests only): its scenario attempts,
    /// dse trunk tasks and journal cache writes read it, and each name in
    /// its `torn_writes` tears at most once on this executor.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Executor {
        self.chaos = Chaos::new(plan);
        self
    }

    /// This executor's tracer: every span and instant its runs record.
    /// Off until [`Tracer::set_enabled`] turns it on, as the binaries do for
    /// `--trace`; they export its drained events, with
    /// [`Executor::metrics`], as one `trace.json` ([`Executor::write_trace`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This executor's metrics for the trace export: the [`ShardStats`]
    /// counters under their trace names (`executor.steals`,
    /// `cosim.gpu_ticks`, …), sorted by name, so a trace and the manifest's
    /// `run_stats` line read one count.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .stats()
            .trace_counters()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        counters.sort();
        MetricsSnapshot {
            counters,
            gauges: Vec::new(),
        }
    }

    /// Drains this executor's trace into `dir`'s `trace.json`: the recorded
    /// events and [`Executor::metrics`] as one Chrome/Perfetto file, written
    /// atomically. Returns the file's path.
    ///
    /// # Errors
    ///
    /// Propagates the write's filesystem error.
    pub fn write_trace(&self, dir: &Path) -> io::Result<PathBuf> {
        let text = chrome_trace_json(&self.tracer.drain(), Some(&self.metrics()));
        let path = dir.join(crate::report::TRACE_FILE);
        write_atomic(&path, text.as_bytes())?;
        Ok(path)
    }

    /// The chaos plan installed on this executor (empty by default).
    pub(crate) fn chaos(&self) -> &Chaos {
        &self.chaos
    }

    /// Runs `task` over the item indices in `order` on `jobs` scoped
    /// workers and returns the results in canonical (index) slots. Each
    /// worker claims the next index in `order`; once `order` is exhausted
    /// it steals group tasks from batches still in flight until every
    /// item has landed, so workers beyond the item count still help.
    /// `order` must be a permutation of `0..order.len()`.
    pub(crate) fn run_claims<R: Send>(
        &self,
        jobs: usize,
        order: &[usize],
        task: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new(order.iter().map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let _landed = Landed(&completed);
                        let result = task(i);
                        slots.lock().expect("result slots poisoned")[i] = Some(result);
                    }
                    while completed.load(Ordering::Acquire) < order.len() {
                        if !self.steal_group_task() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("result slots poisoned")
            .into_iter()
            .map(|r| r.expect("every result slot filled"))
            .collect()
    }

    /// Runs (or joins) the memoized suites of `suites`, each a `(cfg, pm)`
    /// pair, as one batch: all twelve scenarios of each, reports in
    /// [`ScenarioId::ALL`] order, suites in request order. Per scenario,
    /// the runs of suites that share a [`TrunkKey`] form one group task and
    /// tick one GPU trunk until their SM controls diverge
    /// ([`vs_core::CosimPool::run_group`]). Concurrent requesters share one
    /// computation: a task claims only the (suite, scenario) runs nobody
    /// has claimed, so each runs at most once per executor. A quarantined
    /// scenario leaves its report out (degraded suite); see
    /// [`Executor::quarantined`].
    ///
    /// # Panics
    ///
    /// Panics only if a worker panicked *outside* the isolation boundary —
    /// solver failures, deadline trips, and in-task panics all flow into the
    /// retry/quarantine machinery instead.
    pub fn run_suites(
        &self,
        suites: &[(CosimConfig, PowerManagement)],
    ) -> Vec<Arc<Vec<CosimReport>>> {
        let jobs: Vec<Arc<SuiteJob>> = suites.iter().map(|(cfg, pm)| self.job(cfg, pm)).collect();
        let mut pending: Vec<Arc<SuiteJob>> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            if job.state().done.is_none() && !pending.iter().any(|p| Arc::ptr_eq(p, job)) {
                pending.push(job.clone());
            }
        }
        if !pending.is_empty() {
            let batch = Arc::new(Batch::new(&pending));
            self.in_flight
                .lock()
                .expect("in-flight batch list poisoned")
                .push(batch.clone());
            // Join the computation: claim group tasks until none remain,
            // then help elsewhere until the last claimed run lands.
            while batch.run_one_task(self, "claim") {}
        }
        jobs.iter().map(|job| job.wait(self)).collect()
    }

    /// [`Executor::run_suites`] for one suite: a batch of one, whose group
    /// tasks each hold one run.
    ///
    /// # Panics
    ///
    /// As [`Executor::run_suites`].
    pub fn run_suite(&self, cfg: &CosimConfig, pm: &PowerManagement) -> Arc<Vec<CosimReport>> {
        self.run_suites(&[(cfg.clone(), pm.clone())])
            .pop()
            .expect("one suite requested")
    }

    /// The memoized job of `cfg` under `pm`, created on first request.
    fn job(&self, cfg: &CosimConfig, pm: &PowerManagement) -> Arc<SuiteJob> {
        self.memo
            .lock()
            .expect("suite memo poisoned")
            .entry(SuiteKey::new(cfg, pm))
            .or_insert_with_key(|key| {
                if self.tracer.is_enabled() {
                    self.tracer.instant(
                        "executor",
                        "suite_enqueue",
                        &[
                            ("suite", key.cache_dir()),
                            ("pds", cfg.pds.label().to_string()),
                        ],
                    );
                }
                Arc::new(SuiteJob::new(self, key.clone(), cfg.clone(), pm.clone()))
            })
            .clone()
    }

    /// Whether `key`'s suite would resolve without running a single scenario
    /// task: its memoized job has already assembled, or the journal replay
    /// covers the full scenario catalogue (a fresh job would be born
    /// complete from it). The serve layer consults this to answer
    /// `cached` instead of `running` *before* joining the suite; it is advisory
    /// — [`Executor::run_suite`] remains the authority on what actually runs.
    pub fn suite_is_warm(&self, key: &SuiteKey) -> bool {
        if let Some(job) = self.memo.lock().expect("suite memo poisoned").get(key) {
            if job.state().done.is_some() {
                return true;
            }
        }
        self.replay.reports.get(key).is_some_and(|entries| {
            let mut have = [false; N_TASKS];
            for (id, _) in entries {
                have[scenario_index(*id)] = true;
            }
            have.iter().all(|&b| b)
        })
    }

    /// The tasks quarantined so far, sorted by (suite, scenario) so degraded
    /// manifests are deterministic (records accumulate in claim order,
    /// which depends on scheduling).
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        let mut records = self
            .quarantined
            .lock()
            .expect("quarantine list poisoned")
            .clone();
        records.sort_by_key(|q| (q.suite.to_hex(), scenario_index(q.scenario)));
        records
    }

    /// The journal-verified metrics of `point`, whose key is `key`, if
    /// this executor's replay holds them: a replay, counted and traced as
    /// a suite's prefilled scenario is.
    pub(crate) fn replayed_point(
        &self,
        point: &ConfigPoint,
        key: &SuiteKey,
    ) -> Option<PointMetrics> {
        let metrics = *self.replay.metrics.get(key)?;
        self.count_replay(|| vec![("point", point.to_string())]);
        Some(metrics)
    }

    /// Counts one unit of work replayed from the journal instead of run in
    /// [`ShardStats::replayed`], and traces it as a `journal`/`replay`
    /// instant labelled `args`.
    fn count_replay(&self, args: impl FnOnce() -> Vec<(&'static str, String)>) {
        self.replayed.fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            self.tracer.instant("journal", "replay", &args());
        }
    }

    /// Journals one finished unit of this executor's work, when it
    /// journals: `write` is a `journal::record_*` call, handed the journal
    /// directory and this executor's chaos plan. The write is a
    /// `journal_write` span labelled `unit=name`, and best-effort: a
    /// failed write is warned about and costs a recompute on resume, never
    /// the run.
    pub(crate) fn journal(
        &self,
        unit: &'static str,
        name: &str,
        write: impl FnOnce(&Path, &Chaos) -> io::Result<()>,
    ) {
        let Some(dir) = &self.journal_dir else { return };
        let span = self.tracer.begin();
        let result = write(dir, &self.chaos);
        if span.is_some() {
            self.tracer
                .end_span("journal", "journal_write", span, &[(unit, name.to_string())]);
        }
        if let Err(e) = result {
            eprintln!("  warning: journaling {name}: {e} (resume will recompute it)");
        }
    }

    /// A snapshot of this executor's [`ShardStats`].
    pub fn stats(&self) -> ShardStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let quarantined = self.quarantined.lock().expect("quarantine list poisoned").len();
        ShardStats {
            scenario_tasks: load(&self.scenario_tasks),
            steals: load(&self.steals),
            dc_cache_hits: load(&self.dc_cache_hits),
            replayed: load(&self.replayed),
            retries: load(&self.retries),
            quarantined: quarantined as u64,
            groups: load(&self.groups),
            gpu_ticks: load(&self.gpu_ticks),
            parked: load(&self.parked),
            prefix_reticks: load(&self.prefix_reticks),
        }
    }

    /// Claims and runs one group task from any in-flight batch. Returns
    /// `true` if a task was claimed. This is what idle workers spin on once
    /// their own queue drains.
    fn steal_group_task(&self) -> bool {
        let batch = {
            let mut in_flight = self
                .in_flight
                .lock()
                .expect("in-flight batch list poisoned");
            // Batches with every task claimed can never be stolen from again.
            in_flight.retain(|b| b.unclaimed() > 0);
            in_flight.first().cloned()
        };
        match batch {
            Some(batch) if batch.run_one_task(self, "steal") => {
                self.steals.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Runs `f` with the calling thread's [`CosimPool`] shard for `runs`
    /// scenario runs (or campaign cells), folding the pool's DC-cache-hit
    /// delta into this executor's [`ShardStats`].
    fn with_worker_pool<R>(&self, runs: usize, f: impl FnOnce(&mut CosimPool) -> R) -> R {
        WORKER_POOL.with(|cell| {
            let mut pool = cell.borrow_mut();
            let hits_before = pool.dc_cache_hits();
            let out = f(&mut pool);
            self.scenario_tasks.fetch_add(runs as u64, Ordering::Relaxed);
            self.dc_cache_hits
                .fetch_add(pool.dc_cache_hits() - hits_before, Ordering::Relaxed);
            out
        })
    }

    /// Folds one group run's trunk counters into [`ShardStats`].
    fn count_trunk(&self, stats: &GroupStats) {
        self.gpu_ticks.fetch_add(stats.gpu_ticks, Ordering::Relaxed);
        self.parked.fetch_add(stats.parked, Ordering::Relaxed);
        self.prefix_reticks.fetch_add(stats.prefix_reticks, Ordering::Relaxed);
    }

    /// Runs one task under the full isolation policy: each attempt gets
    /// the calling thread's pool shard inside [`isolated`], a panic
    /// rebuilds the pool shard, and seeded backoff separates attempts.
    /// `run` receives the attempt number (0-based) and the pool. Returns
    /// the value with its attempt-count and wall-time metadata, or, once
    /// [`MAX_ATTEMPTS`] attempts have failed, their error history, one line
    /// per attempt.
    ///
    /// `tag` seeds the backoff jitter and `labels` name the task on its
    /// spans. Each attempt is traced as a span whose `outcome` arg
    /// classifies how it ended: `ok`, `deadline`
    /// ([`CosimError::DeadlineExceeded`]), `error` (any other solver/run
    /// error), or `panic`. Backoff sleeps and pool-shard rebuilds get their
    /// own spans so a Perfetto timeline shows where a retried task's wall
    /// clock actually went.
    pub(crate) fn attempt<T>(
        &self,
        tag: &str,
        labels: &[(&'static str, String)],
        run: impl Fn(u32, &mut CosimPool) -> Result<T, CosimError>,
    ) -> Result<TaskSuccess<T>, Vec<String>> {
        self.retry(Vec::new(), Vec::new(), tag, labels, run)
    }

    /// The attempt loop of [`Executor::attempt`], entered after
    /// `errors.len()` failed attempts whose errors and wall seconds are
    /// given (a group member's shared attempt 0).
    fn retry<T>(
        &self,
        mut errors: Vec<String>,
        mut walls: Vec<f64>,
        tag: &str,
        labels: &[(&'static str, String)],
        run: impl Fn(u32, &mut CosimPool) -> Result<T, CosimError>,
    ) -> Result<TaskSuccess<T>, Vec<String>> {
        let first = u32::try_from(errors.len()).unwrap_or(u32::MAX);
        for attempt in first..MAX_ATTEMPTS {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let span = self.tracer.begin();
                std::thread::sleep(retry_backoff(tag, attempt));
                self.end_span("backoff", span, labels, &[("attempt", attempt.to_string())]);
            }
            let span = self.tracer.begin();
            // Measured unconditionally: one `Instant` pair per multi-second
            // solve is free, and it keeps journal v2 metadata (and therefore
            // `report` on resumed runs) independent of whether tracing was on.
            let started = Instant::now();
            let outcome = isolated(|| self.with_worker_pool(1, |pool| run(attempt, pool)));
            walls.push(started.elapsed().as_secs_f64());
            match outcome {
                Ok(Ok(value)) => {
                    self.end_attempt(span, labels, attempt, "ok");
                    return Ok(TaskSuccess {
                        value,
                        attempt_wall_s: walls,
                    });
                }
                Ok(Err(e)) => errors.push(self.failed_attempt(span, labels, attempt, &e)),
                Err(msg) => {
                    errors.push(self.panicked_attempt(span, labels, attempt, &msg));
                    self.rebuild_pool(labels);
                }
            }
        }
        Err(errors)
    }

    /// Replaces the calling thread's pool shard after a panic unwound
    /// through it.
    fn rebuild_pool(&self, labels: &[(&'static str, String)]) {
        let span = self.tracer.begin();
        rebuild_worker_pool();
        self.end_span("pool_rebuild", span, labels, &[]);
    }

    /// Runs one claimed group task: its members' runs of `id`, one per
    /// suite in `members`. Attempt 0 runs them together on one GPU trunk; a
    /// member whose attempt 0 failed (its budget trip, its solver, or a
    /// panic of the whole group) retries alone from attempt 1. Each member
    /// decides its
    /// own slot, journaled and filled or quarantined, as soon as its
    /// outcome is known: the members that succeeded together first.
    fn run_group_task(&self, id: ScenarioId, members: &[Arc<SuiteJob>], via: &'static str) {
        for job in members {
            obs::progress(|| format!("  running {} under {} ...", id, job.cfg.pds.label()));
        }
        let task_span = self.tracer.begin();
        // The isolation boundary lives in the attempts; this outer guard
        // only catches the *unexpected* (a panic in the scheduler itself,
        // or one escaping the boundary), which still poisons the members'
        // jobs so waiters fail loudly instead of hanging.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (firsts, wall) = self.shared_attempt(id, members);
            let mut failed = Vec::new();
            for (job, first) in members.iter().zip(firsts) {
                match first {
                    Ok(value) => {
                        let success = TaskSuccess {
                            value,
                            attempt_wall_s: vec![wall],
                        };
                        self.settle(job, id, via, task_span, Ok(success));
                    }
                    Err(error) => failed.push((job, error)),
                }
            }
            for (job, error) in failed {
                let run = |attempt, pool: &mut CosimPool| {
                    let mut alone = [GroupRun {
                        cfg: job.cfg.clone(),
                        pm: job.pm.clone(),
                        budget: CycleBudget::unlimited(),
                        plan: FaultPlan::none(),
                    }];
                    let (mut results, _) = self.run_attempt(pool, id, attempt, &mut alone);
                    results.pop().expect("one run, one result")
                };
                let tag = format!("{}:{}", job.key.to_hex(), id.name());
                let outcome =
                    self.retry(vec![error], vec![wall], &tag, &task_labels(&job.key, id), run);
                self.settle(job, id, via, task_span, outcome);
            }
        }));
        if let Err(payload) = outcome {
            for job in members {
                job.poison();
            }
            resume_unwind(payload)
        }
    }

    /// The shared attempt 0 of a group task's members, as one group on one
    /// GPU trunk: per member, its report or the attempt's line of its error
    /// history, and the member's share of the attempt's wall seconds (so
    /// the journal's task walls still add up to the time spent).
    fn shared_attempt(
        &self,
        id: ScenarioId,
        members: &[Arc<SuiteJob>],
    ) -> (Vec<Result<CosimReport, String>>, f64) {
        let n = members.len();
        let mut runs: Vec<GroupRun> = members
            .iter()
            .map(|job| GroupRun {
                cfg: job.cfg.clone(),
                pm: job.pm.clone(),
                budget: CycleBudget::unlimited(),
                plan: FaultPlan::none(),
            })
            .collect();
        let labels: Vec<[(&'static str, String); 2]> =
            members.iter().map(|job| task_labels(&job.key, id)).collect();
        let span = self.tracer.begin();
        let started = Instant::now();
        let outcome =
            isolated(|| self.with_worker_pool(n, |pool| self.run_attempt(pool, id, 0, &mut runs)));
        let wall = started.elapsed().as_secs_f64() / n as f64;
        self.groups.fetch_add(1, Ordering::Relaxed);
        let forks = outcome.as_ref().map_or(0, |(_, parked)| *parked);
        self.end_span(
            "group",
            span,
            &[
                ("scenario", id.name().to_string()),
                ("members", n.to_string()),
                ("forks", forks.to_string()),
            ],
            &[],
        );
        let firsts = match outcome {
            Ok((results, _)) => results
                .into_iter()
                .zip(&labels)
                .map(|(result, labels)| {
                    result
                        .map_err(|e| self.failed_attempt(span, labels, 0, &e))
                        .inspect(|_| self.end_attempt(span, labels, 0, "ok"))
                })
                .collect(),
            Err(msg) => {
                let errors = labels
                    .iter()
                    .map(|labels| Err(self.panicked_attempt(span, labels, 0, &msg)))
                    .collect();
                self.rebuild_pool(&labels[0]);
                errors
            }
        };
        (firsts, wall)
    }

    /// Runs `runs` of `id` as one group on `pool`, as attempt `attempt`
    /// under the chaos plan's injection for it (a panic, or every run's
    /// budget tripping at a cycle). Returns each run's report or error,
    /// and how many members parked.
    fn run_attempt(
        &self,
        pool: &mut CosimPool,
        id: ScenarioId,
        attempt: u32,
        runs: &mut [GroupRun],
    ) -> (Vec<Result<CosimReport, CosimError>>, u64) {
        match self.chaos.chaos_for(id, attempt) {
            Some(ChaosMode::Panic) => panic!("chaos: injected panic for {id} (attempt {attempt})"),
            Some(ChaosMode::Stall { at_cycle }) => {
                for run in runs.iter_mut() {
                    run.budget = CycleBudget::tripping_at(at_cycle);
                }
            }
            None => {}
        }
        let group = pool.run_group(&id.profile(), runs, &SupervisorConfig::default());
        self.count_trunk(&group.stats);
        let results = group
            .reports
            .into_iter()
            .map(|run| match run.error {
                Some(e) => Err(e),
                None => Ok(run.report),
            })
            .collect();
        (results, group.stats.parked)
    }

    /// Decides one member's slot from its attempts: journal and fill it,
    /// or quarantine it.
    fn settle(
        &self,
        job: &SuiteJob,
        id: ScenarioId,
        via: &'static str,
        task_span: Option<Instant>,
        outcome: Result<TaskSuccess<CosimReport>, Vec<String>>,
    ) {
        let end_task = |outcome: &'static str, attempts: usize| {
            if task_span.is_some() {
                self.tracer.end_span(
                    "executor",
                    "task",
                    task_span,
                    &[
                        ("suite", job.key.cache_dir()),
                        ("scenario", id.name().to_string()),
                        ("pds", job.cfg.pds.label().to_string()),
                        ("via", via.to_string()),
                        ("outcome", outcome.to_string()),
                        ("attempts", attempts.to_string()),
                    ],
                );
            }
        };
        let i = scenario_index(id);
        match outcome {
            Ok(success) => {
                let walls = &success.attempt_wall_s;
                end_task("ok", walls.len());
                self.journal("scenario", id.name(), |dir, chaos| {
                    journal::record_scenario(dir, chaos, &job.key, id, &success.value, walls)
                });
                job.fill_slot(i, Slot::Ready(Box::new(success.value)));
            }
            Err(errors) => {
                end_task("quarantined", MAX_ATTEMPTS as usize);
                self.tracer.instant(
                    "executor",
                    "quarantine",
                    &[
                        ("suite", job.key.cache_dir()),
                        ("scenario", id.name().to_string()),
                        ("attempts", MAX_ATTEMPTS.to_string()),
                    ],
                );
                obs::progress(|| {
                    format!(
                        "  quarantining {} under {} after {MAX_ATTEMPTS} attempt(s)",
                        id,
                        job.cfg.pds.label(),
                    )
                });
                self.quarantined
                    .lock()
                    .expect("quarantine list poisoned")
                    .push(QuarantineRecord {
                        suite: job.key.clone(),
                        scenario: id,
                        attempts: MAX_ATTEMPTS,
                        errors,
                    });
                job.fill_slot(i, Slot::Failed);
            }
        }
    }

    /// Ends an executor span named `name` that began at `span`, labeled with
    /// `labels` and `extra`; free when tracing is off (`span` is `None`).
    fn end_span(
        &self,
        name: &str,
        span: Option<Instant>,
        labels: &[(&'static str, String)],
        extra: &[(&'static str, String)],
    ) {
        if span.is_some() {
            let args: Vec<_> = labels.iter().chain(extra).cloned().collect();
            self.tracer.end_span("executor", name, span, &args);
        }
    }

    /// Ends an `attempt` span with its `outcome`.
    fn end_attempt(
        &self,
        span: Option<Instant>,
        labels: &[(&'static str, String)],
        attempt: u32,
        outcome: &str,
    ) {
        self.end_span(
            "attempt",
            span,
            labels,
            &[
                ("attempt", attempt.to_string()),
                ("outcome", outcome.to_string()),
            ],
        );
    }

    /// Closes an attempt that returned `e` (a budget trip or a run error)
    /// and returns its line of the task's error history.
    fn failed_attempt(
        &self,
        span: Option<Instant>,
        labels: &[(&'static str, String)],
        attempt: u32,
        e: &CosimError,
    ) -> String {
        let outcome = match e {
            CosimError::DeadlineExceeded { .. } => "deadline",
            _ => "error",
        };
        self.end_attempt(span, labels, attempt, outcome);
        format!("attempt {attempt}: {}", error_chain(e))
    }

    /// Closes an attempt that panicked with `msg` and returns its line of the
    /// task's error history. The caller rebuilds the pool shard.
    fn panicked_attempt(
        &self,
        span: Option<Instant>,
        labels: &[(&'static str, String)],
        attempt: u32,
        msg: &str,
    ) -> String {
        self.end_attempt(span, labels, attempt, "panic");
        format!("attempt {attempt}: panic: {msg}")
    }
}

/// The span labels naming one (suite, scenario) task.
fn task_labels(key: &SuiteKey, id: ScenarioId) -> [(&'static str, String); 2] {
    [
        ("suite", key.cache_dir()),
        ("scenario", id.name().to_string()),
    ]
}

thread_local! {
    /// This thread's long-lived solver-workspace shard. Worker threads keep
    /// it for their whole lifetime, so every scenario after a thread's
    /// first reuses the solver buffers (and, on a netlist-fingerprint match,
    /// the DC operating point).
    static WORKER_POOL: RefCell<CosimPool> = RefCell::new(CosimPool::new());

    /// Whether this thread is currently inside an isolation boundary (a
    /// `catch_unwind` that converts the panic into a structured task
    /// error). The process panic hook consults this to tell a *handled*
    /// panic from one that will take the process down.
    static ISOLATION_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Replaces the calling thread's pool shard with a fresh one. Called after
/// a panic unwound through the shard: the `RefCell` guard drops cleanly
/// during unwind, but the pool may have lost its workspace mid-run, so it
/// is rebuilt rather than trusted (the "poisoned shard" rule).
fn rebuild_worker_pool() {
    WORKER_POOL.with(|cell| *cell.borrow_mut() = CosimPool::new());
}

/// Whether the calling thread is inside an isolation boundary (see
/// [`isolated`]); the binaries' panic hooks use this to let handled panics
/// pass instead of exiting the process.
pub fn isolation_active() -> bool {
    ISOLATION_ACTIVE.with(Cell::get)
}

/// Renders a caught panic payload (the `&str` / `String` carried by
/// virtually every panic) for error chains.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` inside an isolation boundary: panics are caught and returned
/// as their message instead of unwinding further. The boundary flag is
/// visible to the process panic hook via [`isolation_active`].
pub fn isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    ISOLATION_ACTIVE.with(|c| c.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    ISOLATION_ACTIVE.with(|c| c.set(false));
    out.map_err(|p| panic_message(p.as_ref()))
}

/// Flattens an error and its source chain into one string.
fn error_chain(e: &dyn std::error::Error) -> String {
    let mut out = e.to_string();
    let mut src = e.source();
    while let Some(s) = src {
        out.push_str(": ");
        out.push_str(&s.to_string());
        src = s.source();
    }
    out
}

/// Deterministic jittered backoff for retry `attempt` (1-based): an
/// exponential delay in `[exp/2, exp]` where
/// `exp = BACKOFF_BASE_MS * 2^(attempt-1)`, capped at `BACKOFF_CAP_MS`,
/// jittered by a hash of (task tag, attempt) so colliding retries
/// decorrelate reproducibly — no wall-clock or RNG state enters the
/// schedule. The hashed text keeps the `0` it has always carried for a seed.
fn retry_backoff(tag: &str, attempt: u32) -> Duration {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
        .min(BACKOFF_CAP_MS);
    let text = format!("backoff:0:{tag}:{attempt}");
    let h = fnv1a_64(text.as_bytes());
    let half = exp / 2;
    Duration::from_millis(half + h % (exp - half + 1))
}

/// Observational counters for the scenario-level scheduler (never part of
/// any artifact: they depend on scheduling). The one store of the
/// executor's run counters: a sweep's manifest carries them as its
/// `run_stats` line ([`ShardStats::to_json`], read back by
/// [`ShardStats::from_json`]), and [`Executor::metrics`] exports them under
/// their trace names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Scenario runs (and campaign cells) served by worker-pool shards,
    /// one per member of each attempt: a group's shared attempt counts
    /// each of its members.
    pub scenario_tasks: u64,
    /// Group tasks claimed by a worker other than the batch's requester.
    pub steals: u64,
    /// Scenario runs whose DC operating point came from a shard's cache.
    pub dc_cache_hits: u64,
    /// Scenario tasks or dse points replayed from the resume journal
    /// instead of run.
    pub replayed: u64,
    /// Retry attempts spent by the attempt loop.
    pub retries: u64,
    /// Scenario tasks quarantined ([`Executor::quarantined`]).
    pub quarantined: u64,
    /// Group tasks run: each ticks one GPU trunk for its members' shared
    /// attempt.
    pub groups: u64,
    /// GPU cycles ticked by group runs, re-ticked prefixes included.
    pub gpu_ticks: u64,
    /// Group members that left their trunk and parked.
    pub parked: u64,
    /// GPU cycles parked members re-ticked to rebuild their prefixes.
    pub prefix_reticks: u64,
}

impl ShardStats {
    /// Each counter as (manifest key, trace name, value), in manifest
    /// order. The trace name is `None` for the two counters a trace never
    /// carried.
    fn entries(&self) -> [(&'static str, Option<&'static str>, u64); 10] {
        let ShardStats {
            scenario_tasks,
            steals,
            dc_cache_hits,
            replayed,
            retries,
            quarantined,
            groups,
            gpu_ticks,
            parked,
            prefix_reticks,
        } = *self;
        [
            ("scenario_tasks", None, scenario_tasks),
            ("steals", Some("executor.steals"), steals),
            ("dc_cache_hits", None, dc_cache_hits),
            ("replayed", Some("executor.replays"), replayed),
            ("retries", Some("executor.retries"), retries),
            ("quarantined", Some("executor.quarantines"), quarantined),
            ("groups", Some("executor.groups"), groups),
            ("gpu_ticks", Some("cosim.gpu_ticks"), gpu_ticks),
            ("parked", Some("cosim.parked"), parked),
            (
                "prefix_reticks",
                Some("cosim.prefix_reticks"),
                prefix_reticks,
            ),
        ]
    }

    /// The counters a trace carries, under their trace names.
    fn trace_counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        self.entries()
            .into_iter()
            .filter_map(|(_, name, value)| Some((name?, value)))
    }

    /// The manifest's `run_stats` line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("type", Json::from("run_stats"))];
        fields.extend(
            self.entries()
                .map(|(key, _, value)| (key, Json::from(value))),
        );
        Json::obj(fields)
    }

    /// Reads a `run_stats` line back; a missing key reads 0.
    #[must_use]
    pub fn from_json(line: &Json) -> ShardStats {
        let c = |key: &str| line.get(key).and_then(Json::as_u64).unwrap_or(0);
        ShardStats {
            scenario_tasks: c("scenario_tasks"),
            steals: c("steals"),
            dc_cache_hits: c("dc_cache_hits"),
            replayed: c("replayed"),
            retries: c("retries"),
            quarantined: c("quarantined"),
            groups: c("groups"),
            gpu_ticks: c("gpu_ticks"),
            parked: c("parked"),
            prefix_reticks: c("prefix_reticks"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_core::PdsKind;

    fn cfg(seed: u64) -> CosimConfig {
        CosimConfig {
            seed,
            ..CosimConfig::default()
        }
    }

    #[test]
    fn suite_keys_distinguish_configs_and_pm() {
        let pm = PowerManagement::default();
        let a = SuiteKey::new(&cfg(1), &pm);
        let b = SuiteKey::new(&cfg(2), &pm);
        assert_ne!(a, b);
        assert_eq!(a, SuiteKey::new(&cfg(1), &pm));

        // The historical Debug-string key could only be as strong as Debug
        // formatting; the word key must separate any one-field difference,
        // including inside PowerManagement.
        let pm_hv = PowerManagement {
            use_hypervisor: true,
            ..PowerManagement::default()
        };
        assert_ne!(SuiteKey::new(&cfg(1), &pm), SuiteKey::new(&cfg(1), &pm_hv));
        let close = CosimConfig {
            pds: PdsKind::VsCrossLayer { area_mult: 0.2 + 1e-12 },
            ..cfg(1)
        };
        assert_ne!(SuiteKey::new(&cfg(1), &pm), SuiteKey::new(&close, &pm));
    }

    #[test]
    fn suite_key_is_hashable_map_key() {
        let mut map = HashMap::new();
        map.insert(SuiteKey::new(&cfg(1), &PowerManagement::default()), 1);
        map.insert(SuiteKey::new(&cfg(2), &PowerManagement::default()), 2);
        assert_eq!(
            map[&SuiteKey::new(&cfg(1), &PowerManagement::default())],
            1
        );
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn suite_key_hex_roundtrip_is_lossless() {
        let key = SuiteKey::new(&cfg(42), &PowerManagement::default());
        let hex = key.to_hex();
        assert_eq!(SuiteKey::from_hex(&hex), Some(key.clone()));
        // Every word is fixed-width hex — no JSON number ever touches the
        // f64-bit words, which exceed 2^53.
        assert!(hex.split('.').all(|w| w.len() == 16));
        assert_eq!(key.cache_dir().len(), 16);
        assert_eq!(SuiteKey::from_hex(""), None);
        assert_eq!(SuiteKey::from_hex("xyz"), None);
    }

    #[test]
    fn quarantine_records_roundtrip_through_their_degraded_line() {
        let record = QuarantineRecord {
            suite: SuiteKey::new(&cfg(4), &PowerManagement::default()),
            scenario: ScenarioId::Hotspot,
            attempts: 3,
            errors: vec![
                "attempt 0: injected panic".to_string(),
                "attempt 1: task deadline exceeded at cycle 512".to_string(),
                "attempt 2: injected panic".to_string(),
            ],
        };
        let line = record.to_json().to_string_compact();
        assert!(
            line.starts_with(&format!(
                "{{\"type\":\"degraded\",\"suite\":\"{}\",\"scenario\":\"hotspot\",\
                 \"attempts\":3,\"errors\":[\"attempt 0: injected panic\",",
                record.suite.to_hex()
            )),
            "{line}"
        );
        let parsed = vs_telemetry::json::parse(&line).unwrap();
        assert_eq!(QuarantineRecord::from_json(&parsed), Some(record));
        // Other manifest lines, and degraded lines naming no suite key or
        // catalogue scenario, read as None.
        for other in [
            "{\"type\":\"suite\"}",
            "{\"type\":\"degraded\",\"suite\":\"xyz\",\"scenario\":\"bfs\",\
             \"attempts\":3,\"errors\":[]}",
            "{\"type\":\"degraded\",\"suite\":\"0a\",\"scenario\":\"martian\",\
             \"attempts\":3,\"errors\":[]}",
        ] {
            let v = vs_telemetry::json::parse(other).unwrap();
            assert_eq!(QuarantineRecord::from_json(&v), None, "{other}");
        }
    }

    #[test]
    fn steal_with_no_in_flight_suites_is_a_noop() {
        // An executor with nothing in flight must return false rather than
        // block or panic.
        assert!(!Executor::default().steal_group_task());
    }

    #[test]
    fn isolated_converts_panics_to_messages() {
        assert_eq!(isolated(|| 7), Ok(7));
        assert!(!isolation_active());
        let err = isolated(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(err, "boom 1");
        assert!(!isolation_active(), "flag must clear after a caught panic");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let a = retry_backoff("suite:bfs", 1);
        assert_eq!(a, retry_backoff("suite:bfs", 1));
        // Exponential envelope: attempt k waits within [exp/2, exp] where
        // exp = base * 2^(k-1), capped.
        for attempt in 1..8 {
            let exp = (BACKOFF_BASE_MS << (attempt - 1)).min(BACKOFF_CAP_MS);
            let d = retry_backoff("suite:bfs", attempt).as_millis() as u64;
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d}ms vs {exp}ms");
        }
        // A task that exhausts its attempts sleeps before each retry:
        // 10 + 20 ms at most.
        let slept: u128 = (1..MAX_ATTEMPTS)
            .map(|k| retry_backoff("suite:bfs", k).as_millis())
            .sum();
        assert!(slept <= 30, "{slept}ms");
        // Different tasks jitter apart (with these constants).
        let b = retry_backoff("suite:hotspot", 1);
        let c = retry_backoff("suite:heartwall", 1);
        assert!(a != b || a != c, "jitter should decorrelate tasks");
    }
}
