//! Batched structure-of-arrays transient stepping: advance *N*
//! parameter-variant rigs in lockstep through one solver kernel.
//!
//! The sweep simulates the same stacked-rig netlist over and over with
//! different load parameters; every one of those [`Transient`] instances
//! performs an identical forward/backward substitution per step. This module
//! groups lanes whose sparse LU factors share a symbolic structure (the
//! ordering, pivot rows and L/U patterns) and solves them through the SoA
//! kernels in `vs-num` ([`SparseLu::solve_multi_in_place`] when the factors
//! are bit-identical, [`SparseLu::solve_lanes_in_place`] when only the
//! structure is shared), amortizing factor loads and loop bookkeeping
//! across lanes.
//!
//! # Determinism contract
//!
//! Per lane, a batched step performs **exactly** the scalar step's
//! floating-point operations in the scalar order: RHS stamping and the
//! commit phase are the scalar code itself (see [`Transient::step`], which
//! is the composition `build_rhs` → solve → `commit_step`), and the SoA
//! kernels replay the scalar substitution per lane. A lane's trajectory is
//! therefore bit-identical to the same lane stepped alone.
//!
//! # Mask semantics (exit / rejoin)
//!
//! A lane whose candidate solution fails the health gate drops out of the
//! fast path for the remainder of the shared timestep and is advanced by
//! the existing scalar [`Transient::step_with_recovery`] — which first
//! replays the identical failing step and then runs the policy's
//! dt-halving/backward-Euler schedule, so the lane's end state matches what
//! the scalar path would have produced. On success the lane has covered
//! exactly one nominal `dt` and rejoins the batch at the next shared
//! timestep; on [`SolverError::RecoveryExhausted`] (or any unrecoverable
//! error) the owning [`BatchedTransient`] retires the lane permanently and
//! never advances it again.

use crate::error::SolverError;
use crate::recovery::{RecoveryPolicy, StepReport};
use crate::transient::{Integration, Transient};
use vs_num::SparseLu;

/// Counters describing how a batch of lanes has been advanced. All fields
/// are cumulative since construction (or the last reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Shared lockstep timesteps taken (calls into the batched kernel).
    pub shared_steps: u64,
    /// Total lane-steps attempted across all shared steps.
    pub lane_steps: u64,
    /// Groups of ≥ 2 lanes solved through one SoA substitution.
    pub multi_lane_groups: u64,
    /// Lane-solves that went through a multi-lane group.
    pub multi_lane_solves: u64,
    /// Multi-lane groups whose lanes all shared one bit-identical
    /// factorization (the fastest kernel).
    pub shared_factor_groups: u64,
    /// Lanes solved alone because no other lane shared their structure.
    pub singleton_solves: u64,
    /// Lanes that failed the health gate and left the fast path.
    pub mask_exits: u64,
    /// Masked-out lanes that recovered and rejoined the lockstep batch.
    pub rejoins: u64,
    /// Lanes permanently retired by an unrecoverable error.
    pub retired: u64,
}

impl BatchStats {
    /// Folds another ledger into this one (for cumulative accounting across
    /// batches). The exhaustive destructuring makes adding a counter without
    /// extending the fold a compile error.
    pub fn absorb(&mut self, other: &BatchStats) {
        let BatchStats {
            shared_steps,
            lane_steps,
            multi_lane_groups,
            multi_lane_solves,
            shared_factor_groups,
            singleton_solves,
            mask_exits,
            rejoins,
            retired,
        } = other;
        self.shared_steps += shared_steps;
        self.lane_steps += lane_steps;
        self.multi_lane_groups += multi_lane_groups;
        self.multi_lane_solves += multi_lane_solves;
        self.shared_factor_groups += shared_factor_groups;
        self.singleton_solves += singleton_solves;
        self.mask_exits += mask_exits;
        self.rejoins += rejoins;
        self.retired += retired;
    }
}

/// Per-lane grouping key: lanes solve together only when every field
/// matching the *symbolic* structure agrees; the value fields decide whether
/// the shared-factor kernel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneKey {
    structure: u64,
    dim: usize,
    fingerprint: u64,
    dt_bits: u64,
    method: Integration,
}

impl LaneKey {
    fn of(lane: &Transient) -> Self {
        LaneKey {
            structure: lane.factor().structure_key(),
            dim: lane.system_dim(),
            fingerprint: lane.fingerprint(),
            dt_bits: lane.dt().to_bits(),
            method: lane.method(),
        }
    }

    /// Lanes with equal `groupable` keys may share one SoA substitution.
    fn groupable(&self, other: &Self) -> bool {
        self.structure == other.structure && self.dim == other.dim
    }

    /// Lanes with equal `identical` keys have bit-identical stamp matrices
    /// (same netlist value bits, timestep, and integration method) and
    /// therefore bit-identical LU factors.
    fn identical(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.dt_bits == other.dt_bits
            && self.method == other.method
            && self.groupable(other)
    }
}

/// Reusable buffers for [`step_lanes_with_recovery`]; hold one per batch (or
/// per worker) so repeated shared steps allocate nothing once warmed up.
#[derive(Debug, Default)]
pub struct BatchScratch {
    soa: Vec<f64>,
    keys: Vec<LaneKey>,
    t_new: Vec<f64>,
    group: Vec<usize>,
    grouped: Vec<bool>,
}

/// Advances every lane by one shared timestep, grouping structurally
/// compatible lanes into SoA solves, and pushes one result per lane (in lane
/// order) into `out`.
///
/// `Ok(report)` means the lane advanced exactly one nominal `dt`
/// (`report.recovered()` tells whether it left the fast path and came back);
/// `Err` means the lane failed even under its recovery policy and now sits
/// at its last accepted state — the caller decides whether to retire it
/// (see [`BatchedTransient::step_all`]).
///
/// # Panics
///
/// Panics if `policies.len() != lanes.len()`.
pub fn step_lanes_with_recovery(
    lanes: &mut [&mut Transient],
    policies: &[RecoveryPolicy],
    scratch: &mut BatchScratch,
    stats: &mut BatchStats,
    out: &mut Vec<Result<StepReport, SolverError>>,
) {
    let n = lanes.len();
    assert_eq!(policies.len(), n, "one recovery policy per lane");
    out.clear();
    if n == 0 {
        return;
    }
    stats.shared_steps += 1;
    stats.lane_steps += n as u64;

    // Phase 1: stamp every lane's RHS (scalar code, per lane).
    scratch.keys.clear();
    scratch.t_new.clear();
    for lane in lanes.iter_mut() {
        let t_new = lane.time() + lane.dt();
        lane.build_rhs(t_new);
        scratch.t_new.push(t_new);
        scratch.keys.push(LaneKey::of(lane));
    }

    // Phase 2: group by symbolic structure and solve. Group membership only
    // selects *which* bit-identical kernel runs, so the (greedy, order-
    // preserving) grouping strategy can never change a lane's result.
    scratch.grouped.clear();
    scratch.grouped.resize(n, false);
    for i in 0..n {
        if scratch.grouped[i] {
            continue;
        }
        scratch.grouped[i] = true;
        scratch.group.clear();
        scratch.group.push(i);
        for j in (i + 1)..n {
            if !scratch.grouped[j] && scratch.keys[i].groupable(&scratch.keys[j]) {
                scratch.grouped[j] = true;
                scratch.group.push(j);
            }
        }
        let m = scratch.group.len();
        if m == 1 {
            lanes[i].solve_scratch();
            stats.singleton_solves += 1;
            continue;
        }
        // Gather into the interleaved index-major SoA buffer: the m values
        // of unknown k sit contiguously at soa[k*m..(k+1)*m].
        let dim = scratch.keys[i].dim;
        scratch.soa.clear();
        scratch.soa.resize(dim * m, 0.0);
        for (l, &li) in scratch.group.iter().enumerate() {
            let rhs = lanes[li].rhs_mut();
            for (k, &v) in rhs[..dim].iter().enumerate() {
                scratch.soa[k * m + l] = v;
            }
        }
        let shared_factors = scratch
            .group
            .iter()
            .all(|&li| scratch.keys[i].identical(&scratch.keys[li]));
        if shared_factors {
            // Identical stamp bits ⇒ identical factors: one representative
            // factorization serves the whole group.
            debug_assert!(
                scratch
                    .group
                    .iter()
                    .all(|&li| lanes[i].factor().bitwise_eq(lanes[li].factor())),
                "lanes with identical keys must share factor bits"
            );
            lanes[i].factor().solve_multi_in_place(&mut scratch.soa, m);
            stats.shared_factor_groups += 1;
        } else {
            // Parameter-variant lanes: per-lane numeric factors over the
            // shared symbolic structure.
            let factors: Vec<&SparseLu> =
                scratch.group.iter().map(|&li| lanes[li].factor()).collect();
            SparseLu::solve_lanes_in_place(&factors, &mut scratch.soa);
        }
        stats.multi_lane_groups += 1;
        stats.multi_lane_solves += m as u64;
        for (l, &li) in scratch.group.iter().enumerate() {
            let rhs = lanes[li].rhs_mut();
            for (k, x) in rhs[..dim].iter_mut().enumerate() {
                *x = scratch.soa[k * m + l];
            }
        }
    }

    // Phase 3: gate + commit per lane (scalar code). A gate failure masks
    // the lane out of the fast path; the scalar recovery protocol advances
    // it through the same nominal dt, bit-identically to a scalar run.
    for (i, lane) in lanes.iter_mut().enumerate() {
        match lane.commit_step(scratch.t_new[i]) {
            Ok(()) => out.push(Ok(StepReport::default())),
            Err(_) => {
                stats.mask_exits += 1;
                match lane.step_with_recovery(&policies[i]) {
                    Ok(report) => {
                        stats.rejoins += 1;
                        out.push(Ok(report));
                    }
                    Err(e) => out.push(Err(e)),
                }
            }
        }
    }
}

/// What happened to one lane during a [`BatchedTransient::step_all`] call.
#[derive(Debug)]
pub enum LaneOutcome {
    /// The lane advanced one nominal `dt`; the report records any recovery
    /// activity (a masked-out excursion through the scalar path).
    Stepped(StepReport),
    /// The lane failed this shared step even under recovery and has been
    /// permanently retired at its last accepted state.
    Faulted(SolverError),
    /// The lane was already retired and was not touched.
    Retired,
}

impl LaneOutcome {
    /// `true` for a lane that advanced this shared step.
    pub fn advanced(&self) -> bool {
        matches!(self, LaneOutcome::Stepped(_))
    }
}

/// *N* independent [`Transient`] analyses advanced in lockstep, with an
/// active-lane mask: healthy lanes move through the batched SoA fast path,
/// diverging lanes fall back to scalar recovery for one timestep, and
/// unrecoverable lanes are retired permanently.
///
/// See the module docs at the top of `batched.rs` for the determinism
/// contract and mask semantics.
#[derive(Debug)]
pub struct BatchedTransient {
    lanes: Vec<Transient>,
    active: Vec<bool>,
    outcomes: Vec<LaneOutcome>,
    scratch: BatchScratch,
    stats: BatchStats,
    policies: Vec<RecoveryPolicy>,
    results: Vec<Result<StepReport, SolverError>>,
}

impl BatchedTransient {
    /// Wraps independently constructed lanes into one lockstep batch. Lanes
    /// may differ arbitrarily (even in netlist topology); only structurally
    /// compatible lanes share solves, the rest run scalar within the
    /// lockstep schedule.
    pub fn new(lanes: Vec<Transient>) -> Self {
        let n = lanes.len();
        BatchedTransient {
            lanes,
            active: vec![true; n],
            outcomes: Vec::with_capacity(n),
            scratch: BatchScratch::default(),
            stats: BatchStats::default(),
            policies: Vec::with_capacity(n),
            results: Vec::with_capacity(n),
        }
    }

    /// Number of lanes (active or retired).
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Whether lane `i` is still advancing (not retired).
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Borrows lane `i`.
    pub fn lane(&self, i: usize) -> &Transient {
        &self.lanes[i]
    }

    /// Mutably borrows lane `i` — e.g. to update its control inputs between
    /// shared steps, exactly as a scalar driver would.
    pub fn lane_mut(&mut self, i: usize) -> &mut Transient {
        &mut self.lanes[i]
    }

    /// Cumulative batch statistics.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Advances every active lane by one nominal `dt` under `policy`,
    /// returning one [`LaneOutcome`] per lane in lane order. Lanes that fail
    /// under recovery are retired: their state freezes at the last accepted
    /// step and subsequent calls report [`LaneOutcome::Retired`] without
    /// touching them.
    pub fn step_all(&mut self, policy: &RecoveryPolicy) -> &[LaneOutcome] {
        self.outcomes.clear();
        let n_active = self.active.iter().filter(|&&a| a).count();
        self.policies.clear();
        self.policies.resize(n_active, *policy);

        let mut refs: Vec<&mut Transient> = Vec::with_capacity(n_active);
        for (lane, &active) in self.lanes.iter_mut().zip(&self.active) {
            if active {
                refs.push(lane);
            }
        }
        step_lanes_with_recovery(
            &mut refs,
            &self.policies,
            &mut self.scratch,
            &mut self.stats,
            &mut self.results,
        );
        drop(refs);

        let mut results = self.results.drain(..);
        for active in self.active.iter_mut() {
            if !*active {
                self.outcomes.push(LaneOutcome::Retired);
                continue;
            }
            match results.next().expect("one result per active lane") {
                Ok(report) => self.outcomes.push(LaneOutcome::Stepped(report)),
                Err(e) => {
                    *active = false;
                    self.stats.retired += 1;
                    self.outcomes.push(LaneOutcome::Faulted(e));
                }
            }
        }
        &self.outcomes
    }
}
