//! Fixed-step transient simulation with companion models.
//!
//! The system matrix depends only on topology, component values, switch
//! states, the timestep, and the integration method — not on source values —
//! so it is LU-factored once and each step costs one forward/backward
//! substitution through the sparse factors ([`SparseLu`]: a minimum-degree
//! ordering keeps them near the stamp's own sparsity, so a step costs time
//! proportional to their nonzeros rather than O(n²)). Switch toggles
//! trigger a refactor.
//!
//! Two integration methods are provided:
//!
//! * [`Integration::BackwardEuler`] — L-stable, first order, slightly
//!   dissipative; robust default for stiff power-delivery networks.
//! * [`Integration::Trapezoidal`] — A-stable, second order, energy
//!   preserving; what SPICE uses by default and the default here.

use crate::error::SolverError;
use crate::netlist::{ControlId, Element, ElementId, Netlist, NetlistError, NodeId, Waveform};
use crate::recovery::{RecoveryPolicy, StepReport};
use vs_num::{Matrix, SparseLu};

/// Sentinel for "this element has no entry in the index map".
const NO_INDEX: usize = usize::MAX;

/// Node voltages above this magnitude, volts, are classified as
/// [`SolverError::Divergence`]: far above any physical supply rail but small
/// enough to catch blow-ups long before they reach infinity.
const DIVERGENCE_LIMIT_V: f64 = 1e4;

/// Numerical integration method for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// First-order implicit Euler.
    BackwardEuler,
    /// Second-order trapezoidal rule (SPICE default).
    #[default]
    Trapezoidal,
}

#[derive(Debug, Clone, Copy)]
struct CapState {
    /// Voltage across the capacitor at the previous accepted step.
    v_prev: f64,
    /// Branch current at the previous accepted step (trapezoidal only).
    i_prev: f64,
}

#[derive(Debug, Clone, Copy)]
struct IndState {
    /// Branch current at the previous accepted step.
    i_prev: f64,
    /// Voltage across the inductor at the previous accepted step
    /// (trapezoidal only).
    v_prev: f64,
}

/// One precomputed right-hand-side stamp, with node variables resolved to
/// MNA indices (`NO_INDEX` for ground) and companion conductances baked in.
/// The plan is rebuilt on every [`Transient::refactor`], so it always agrees
/// with the current `dt`, integration method, and element values, and the
/// per-step loop touches no `NodeId` lookups or element matches. The ops are
/// evaluated in element order with identical floating-point expressions, so
/// the plan is bit-for-bit equivalent to stamping from the netlist.
#[derive(Debug, Clone, Copy)]
enum RhsOp {
    /// Capacitor companion current source (`g` = companion conductance).
    Cap { g: f64, state: usize, a: usize, b: usize },
    /// Inductor companion voltage (`r_eq` = companion resistance). `a`/`b`
    /// are carried for the post-solve companion-state update.
    Ind { row: usize, r_eq: f64, state: usize, a: usize, b: usize },
    /// Ideal voltage source row.
    Vsrc { row: usize, volts: f64 },
    /// (Possibly controlled) current source.
    Isrc { a: usize, b: usize, waveform: Waveform },
}

/// Precomputed per-element power evaluation, one op per element in element
/// order. Same bit-identity contract as [`RhsOp`].
#[derive(Debug, Clone, Copy)]
enum EnergyOp {
    /// Resistor or switch (with the active resistance baked in): dissipates
    /// into `resistive_loss_j`.
    Conductor { a: usize, b: usize, ohms: f64 },
    /// Capacitor: reactive, element-level accounting only.
    Cap { a: usize, b: usize, state: usize },
    /// Inductor: reactive, element-level accounting only.
    Ind { a: usize, b: usize, row: usize },
    /// Voltage source: delivers into `source_delivered_j`.
    Vsrc { a: usize, b: usize, row: usize },
    /// Current source (load): absorbs into `load_absorbed_j`.
    Isrc { a: usize, b: usize, waveform: Waveform },
    /// Charge recycler: conversion loss into `recycler_loss_j`.
    Recycler { top: usize, mid: usize, bottom: usize, siemens: f64 },
}

/// Reusable solver state for running many [`Transient`] analyses
/// back-to-back without re-allocating.
///
/// A workspace owns every growable buffer the solver needs — the stamp
/// matrix, the sparse LU factors with their ordering and elimination
/// scratch, solution/RHS/state vectors, and the precomputed stamp/energy
/// plans — plus a cached DC operating point keyed by a fingerprint of the
/// netlist. Constructing a
/// `Transient` *in* a workspace ([`Transient::new_in`],
/// [`Transient::with_initial_state_in`]) moves the buffers into the solver;
/// [`Transient::into_workspace`] moves them back out when the run is done.
///
/// Reusing a workspace never changes results: every buffer is fully
/// re-initialized from the netlist, and the DC cache is only consulted when
/// the netlist fingerprint (topology + element values + control count)
/// matches exactly.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    stamp: Matrix<f64>,
    factor: SparseLu,
    solution: Vec<f64>,
    rhs: Vec<f64>,
    controls: Vec<f64>,
    cap_states: Vec<(usize, CapState)>,
    ind_states: Vec<(usize, IndState)>,
    group2_row_of: Vec<usize>,
    cap_state_of: Vec<usize>,
    ind_state_of: Vec<usize>,
    rhs_plan: Vec<RhsOp>,
    energy_plan: Vec<EnergyOp>,
    per_element_absorbed_j: Vec<f64>,
    dc_cache: Option<DcCache>,
    dc_hits: u64,
    runs: u64,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times [`Transient::new_in`] served its DC operating point
    /// from the cache instead of recomputing it.
    pub fn dc_cache_hits(&self) -> u64 {
        self.dc_hits
    }

    /// How many `Transient` analyses have been constructed in this
    /// workspace.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

/// Cached DC operating point, valid only for an identical netlist.
#[derive(Debug, Clone)]
struct DcCache {
    key: u64,
    node_voltages: Vec<f64>,
    group2_currents: Vec<f64>,
}

/// Voltage of a resolved node variable (`NO_INDEX` = ground = 0 V) —
/// identical to [`Transient::voltage`] after `node_var` resolution.
#[inline]
fn node_v(solution: &[f64], var: usize) -> f64 {
    if var == NO_INDEX {
        0.0
    } else {
        solution[var]
    }
}

#[inline]
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

fn fnv_node(h: u64, n: NodeId) -> u64 {
    fnv(h, n.index() as u64)
}

fn fnv_waveform(mut h: u64, w: &Waveform) -> u64 {
    match *w {
        Waveform::Dc(v) => {
            h = fnv(h, 1);
            fnv(h, v.to_bits())
        }
        Waveform::Sine { offset, amplitude, freq_hz, phase_rad } => {
            h = fnv(h, 2);
            for v in [offset, amplitude, freq_hz, phase_rad] {
                h = fnv(h, v.to_bits());
            }
            h
        }
        Waveform::Step { before, after, at_s } => {
            h = fnv(h, 3);
            for v in [before, after, at_s] {
                h = fnv(h, v.to_bits());
            }
            h
        }
        Waveform::Pulse { low, high, t0_s, width_s, period_s } => {
            h = fnv(h, 4);
            for v in [low, high, t0_s, width_s, period_s] {
                h = fnv(h, v.to_bits());
            }
            h
        }
        Waveform::Controlled(c) => {
            h = fnv(h, 5);
            fnv(h, c.index() as u64)
        }
    }
}

/// A structural fingerprint of a netlist: topology, element values, switch
/// states, and control count. Two netlists with equal fingerprints have the
/// same DC operating point (modulo a vanishing hash-collision risk, accepted
/// because the cache is an optimization keyed per-workspace).
fn netlist_fingerprint(net: &Netlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv(h, net.n_nodes() as u64);
    h = fnv(h, net.n_controls() as u64);
    for e in net.elements() {
        match *e {
            Element::Resistor { a, b, ohms } => {
                h = fnv(h, 11);
                h = fnv_node(h, a);
                h = fnv_node(h, b);
                h = fnv(h, ohms.to_bits());
            }
            Element::Capacitor { a, b, farads } => {
                h = fnv(h, 12);
                h = fnv_node(h, a);
                h = fnv_node(h, b);
                h = fnv(h, farads.to_bits());
            }
            Element::Inductor { a, b, henries } => {
                h = fnv(h, 13);
                h = fnv_node(h, a);
                h = fnv_node(h, b);
                h = fnv(h, henries.to_bits());
            }
            Element::VoltageSource { pos, neg, volts } => {
                h = fnv(h, 14);
                h = fnv_node(h, pos);
                h = fnv_node(h, neg);
                h = fnv(h, volts.to_bits());
            }
            Element::CurrentSource { a, b, waveform } => {
                h = fnv(h, 15);
                h = fnv_node(h, a);
                h = fnv_node(h, b);
                h = fnv_waveform(h, &waveform);
            }
            Element::ChargeRecycler { top, mid, bottom, siemens } => {
                h = fnv(h, 16);
                h = fnv_node(h, top);
                h = fnv_node(h, mid);
                h = fnv_node(h, bottom);
                h = fnv(h, siemens.to_bits());
            }
            Element::Switch { a, b, r_on, r_off, closed } => {
                h = fnv(h, 17);
                h = fnv_node(h, a);
                h = fnv_node(h, b);
                h = fnv(h, r_on.to_bits());
                h = fnv(h, r_off.to_bits());
                h = fnv(h, u64::from(closed));
            }
        }
    }
    h
}

/// Cumulative energy bookkeeping for a transient run.
#[derive(Debug, Clone, Default)]
pub struct EnergyReport {
    /// Total energy dissipated in resistors and switches, in joules.
    pub resistive_loss_j: f64,
    /// Total energy delivered by voltage sources, in joules (positive when
    /// sourcing).
    pub source_delivered_j: f64,
    /// Total energy absorbed by current sources (loads), in joules.
    pub load_absorbed_j: f64,
    /// Total switched-capacitor conversion loss in charge recyclers, joules.
    pub recycler_loss_j: f64,
    /// Simulated time span covered by this report, in seconds.
    pub elapsed_s: f64,
}

/// A running transient analysis over a [`Netlist`].
///
/// # Examples
///
/// ```
/// use vs_circuit::{Netlist, Transient, Integration, Waveform};
///
/// // RC low-pass step response.
/// let mut net = Netlist::new();
/// let vin = net.node("vin");
/// let out = net.node("out");
/// net.voltage_source(vin, Netlist::GROUND, 1.0);
/// net.resistor(vin, out, 1_000.0);
/// net.capacitor(out, Netlist::GROUND, 1e-9);
/// let mut sim = Transient::from_flat_start(&net, 10e-9, Integration::Trapezoidal)?;
/// for _ in 0..1_000 {
///     sim.step()?;
/// }
/// // After 10 us = 10 tau, the output has settled to the input.
/// assert!((sim.voltage(out) - 1.0).abs() < 1e-3);
/// # Ok::<(), vs_circuit::SolverError>(())
/// ```
///
/// A clone forks the analysis: it holds the whole solver state (solution,
/// reactive states, factors, energy books), so stepping the clone performs
/// exactly the floating-point work the original would, bit for bit.
#[derive(Debug, Clone)]
pub struct Transient {
    netlist: Netlist,
    dt: f64,
    method: Integration,
    time: f64,
    n_node_vars: usize,
    /// The stamped system matrix of the current settings, reused across
    /// refactors.
    stamp: Matrix<f64>,
    factor: SparseLu,
    solution: Vec<f64>,
    rhs: Vec<f64>,
    controls: Vec<f64>,
    cap_states: Vec<(usize, CapState)>,
    ind_states: Vec<(usize, IndState)>,
    /// element index -> row in the MNA system for group-2 elements
    /// (`NO_INDEX` for group-1 elements). Precomputed so the per-step hot
    /// path never searches.
    group2_row_of: Vec<usize>,
    /// element index -> position in `cap_states` (`NO_INDEX` otherwise).
    cap_state_of: Vec<usize>,
    /// element index -> position in `ind_states` (`NO_INDEX` otherwise).
    ind_state_of: Vec<usize>,
    /// Per-step RHS stamps with indices and conductances resolved; rebuilt
    /// by [`Transient::refactor`].
    rhs_plan: Vec<RhsOp>,
    /// Per-element power evaluation plan; rebuilt by [`Transient::refactor`].
    energy_plan: Vec<EnergyOp>,
    per_element_absorbed_j: Vec<f64>,
    energy: EnergyReport,
    /// Cached [`netlist_fingerprint`] of the current netlist (topology,
    /// element values, switch states), refreshed by every refactor. Batched
    /// stepping groups lanes by this value plus `dt`/`method`: equal keys
    /// mean a bit-identical stamp matrix and therefore bit-identical LU
    /// factors.
    fingerprint: u64,
    /// Carried through from the owning [`SolverWorkspace`], if any.
    dc_cache: Option<DcCache>,
    dc_hits: u64,
    runs: u64,
}

/// Rollback state captured before a risky step (see
/// [`Transient::step_with_recovery`]). Control inputs are deliberately
/// excluded: sanitized controls must stay sanitized across a retry.
#[derive(Debug, Clone)]
struct Snapshot {
    time: f64,
    solution: Vec<f64>,
    cap_states: Vec<(usize, CapState)>,
    ind_states: Vec<(usize, IndState)>,
    per_element_absorbed_j: Vec<f64>,
    energy: EnergyReport,
}

impl Transient {
    /// Creates a transient analysis initialized from the DC operating point
    /// (controlled sources at zero amperes).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if the netlist is malformed or singular.
    pub fn new(netlist: &Netlist, dt: f64, method: Integration) -> Result<Self, NetlistError> {
        Self::new_in(netlist, dt, method, SolverWorkspace::new())
    }

    /// Like [`Transient::new`], but reusing the buffers of `ws` — including
    /// its cached DC operating point when the netlist fingerprint matches,
    /// which skips the (second) factorization entirely.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if the netlist is malformed or singular.
    pub fn new_in(
        netlist: &Netlist,
        dt: f64,
        method: Integration,
        mut ws: SolverWorkspace,
    ) -> Result<Self, NetlistError> {
        let key = netlist_fingerprint(netlist);
        let cache = match ws.dc_cache.take() {
            Some(c) if c.key == key => {
                ws.dc_hits += 1;
                c
            }
            _ => {
                let dc = netlist.dc_operating_point()?;
                let mut node_voltages = vec![0.0; netlist.n_nodes()];
                for (i, v) in node_voltages.iter_mut().enumerate().skip(1) {
                    *v = dc.voltage(NodeId(i));
                }
                DcCache {
                    key,
                    node_voltages,
                    group2_currents: dc.group2_currents,
                }
            }
        };
        let mut sim = Self::with_initial_state_in(
            netlist,
            dt,
            method,
            &cache.node_voltages,
            &cache.group2_currents,
            ws,
        )?;
        sim.dc_cache = Some(cache);
        Ok(sim)
    }

    /// Creates a transient analysis with all node voltages and branch
    /// currents at zero (a "cold start").
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if the netlist is malformed or singular.
    pub fn from_flat_start(
        netlist: &Netlist,
        dt: f64,
        method: Integration,
    ) -> Result<Self, NetlistError> {
        let voltages = vec![0.0; netlist.n_nodes()];
        let g2 = vec![0.0; netlist.group2_elements().len()];
        Self::with_initial_state(netlist, dt, method, &voltages, &g2)
    }

    /// Creates a transient analysis from explicit initial node voltages
    /// (indexed by node id, ground included) and group-2 branch currents (in
    /// group-2 element order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if the netlist is malformed or singular.
    ///
    /// # Panics
    ///
    /// Panics if the slices have the wrong lengths.
    pub fn with_initial_state(
        netlist: &Netlist,
        dt: f64,
        method: Integration,
        node_voltages: &[f64],
        group2_currents: &[f64],
    ) -> Result<Self, NetlistError> {
        Self::with_initial_state_in(
            netlist,
            dt,
            method,
            node_voltages,
            group2_currents,
            SolverWorkspace::new(),
        )
    }

    /// Like [`Transient::with_initial_state`], but reusing the buffers of
    /// `ws` so construction performs no heap allocation beyond cloning the
    /// netlist (once the workspace has warmed up to this system size).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if the netlist is malformed or singular.
    ///
    /// # Panics
    ///
    /// Panics if the slices have the wrong lengths.
    pub fn with_initial_state_in(
        netlist: &Netlist,
        dt: f64,
        method: Integration,
        node_voltages: &[f64],
        group2_currents: &[f64],
        ws: SolverWorkspace,
    ) -> Result<Self, NetlistError> {
        netlist.validate()?;
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        assert_eq!(node_voltages.len(), netlist.n_nodes());
        let group2 = netlist.group2_elements();
        assert_eq!(group2_currents.len(), group2.len());

        let n_node_vars = netlist.n_nodes() - 1;
        let mut cap_states = ws.cap_states;
        let mut ind_states = ws.ind_states;
        cap_states.clear();
        ind_states.clear();
        for (idx, e) in netlist.elements().iter().enumerate() {
            match *e {
                Element::Capacitor { a, b, .. } => {
                    let v = node_voltages[a.index()] - node_voltages[b.index()];
                    cap_states.push((idx, CapState { v_prev: v, i_prev: 0.0 }));
                }
                Element::Inductor { a, b, .. } => {
                    let k = group2.iter().position(|&g| g == idx).unwrap();
                    let v = node_voltages[a.index()] - node_voltages[b.index()];
                    ind_states.push((
                        idx,
                        IndState {
                            i_prev: group2_currents[k],
                            v_prev: v,
                        },
                    ));
                }
                _ => {}
            }
        }

        let mut solution = ws.solution;
        solution.clear();
        solution.resize(n_node_vars + group2.len(), 0.0);
        solution[..n_node_vars].copy_from_slice(&node_voltages[1..=n_node_vars]);
        solution[n_node_vars..].copy_from_slice(group2_currents);

        let n_elements = netlist.elements().len();
        let mut group2_row_of = ws.group2_row_of;
        group2_row_of.clear();
        group2_row_of.resize(n_elements, NO_INDEX);
        for (k, &idx) in group2.iter().enumerate() {
            group2_row_of[idx] = n_node_vars + k;
        }
        let mut cap_state_of = ws.cap_state_of;
        cap_state_of.clear();
        cap_state_of.resize(n_elements, NO_INDEX);
        for (k, (idx, _)) in cap_states.iter().enumerate() {
            cap_state_of[*idx] = k;
        }
        let mut ind_state_of = ws.ind_state_of;
        ind_state_of.clear();
        ind_state_of.resize(n_elements, NO_INDEX);
        for (k, (idx, _)) in ind_states.iter().enumerate() {
            ind_state_of[*idx] = k;
        }
        let mut rhs = ws.rhs;
        rhs.clear();
        rhs.resize(netlist.system_dim(), 0.0);
        let mut controls = ws.controls;
        controls.clear();
        controls.resize(netlist.n_controls(), 0.0);
        let mut per_element_absorbed_j = ws.per_element_absorbed_j;
        per_element_absorbed_j.clear();
        per_element_absorbed_j.resize(n_elements, 0.0);
        let mut sim = Transient {
            netlist: netlist.clone(),
            dt,
            method,
            time: 0.0,
            n_node_vars,
            stamp: ws.stamp,
            factor: ws.factor,
            solution,
            rhs,
            controls,
            cap_states,
            ind_states,
            group2_row_of,
            cap_state_of,
            ind_state_of,
            rhs_plan: ws.rhs_plan,
            energy_plan: ws.energy_plan,
            per_element_absorbed_j,
            energy: EnergyReport::default(),
            fingerprint: 0,
            dc_cache: ws.dc_cache,
            dc_hits: ws.dc_hits,
            runs: ws.runs + 1,
        };
        sim.refactor()?;
        Ok(sim)
    }

    /// Tears the solver down into its reusable [`SolverWorkspace`], keeping
    /// every buffer (and the DC operating-point cache) for the next run.
    pub fn into_workspace(self) -> SolverWorkspace {
        SolverWorkspace {
            stamp: self.stamp,
            factor: self.factor,
            solution: self.solution,
            rhs: self.rhs,
            controls: self.controls,
            cap_states: self.cap_states,
            ind_states: self.ind_states,
            group2_row_of: self.group2_row_of,
            cap_state_of: self.cap_state_of,
            ind_state_of: self.ind_state_of,
            rhs_plan: self.rhs_plan,
            energy_plan: self.energy_plan,
            per_element_absorbed_j: self.per_element_absorbed_j,
            dc_cache: self.dc_cache,
            dc_hits: self.dc_hits,
            runs: self.runs,
        }
    }

    /// Rebuilds and refactors the system matrix (after a switch toggle, a
    /// timestep/method change, or a recycler retune), and rebuilds the
    /// per-step RHS and energy plans so they agree with the new companion
    /// models. All storage — the stamp matrix, the sparse factors with their
    /// ordering and elimination scratch, and the plan vectors — is reused,
    /// so a refactor performs no heap allocation once warmed up.
    fn refactor(&mut self) -> Result<(), NetlistError> {
        let dim = self.netlist.system_dim();
        let mut a = std::mem::take(&mut self.stamp);
        a.resize_zeroed(dim, dim);
        let net = &self.netlist;
        let stamp_g = |a: &mut Matrix<f64>, na: NodeId, nb: NodeId, g: f64| {
            if let Some(i) = net.node_var(na) {
                a[(i, i)] += g;
            }
            if let Some(j) = net.node_var(nb) {
                a[(j, j)] += g;
            }
            if let (Some(i), Some(j)) = (net.node_var(na), net.node_var(nb)) {
                a[(i, j)] -= g;
                a[(j, i)] -= g;
            }
        };

        for (idx, e) in net.elements().iter().enumerate() {
            match *e {
                Element::Resistor { a: na, b: nb, ohms } => stamp_g(&mut a, na, nb, 1.0 / ohms),
                Element::Switch {
                    a: na,
                    b: nb,
                    r_on,
                    r_off,
                    closed,
                } => stamp_g(&mut a, na, nb, 1.0 / if closed { r_on } else { r_off }),
                Element::Capacitor { a: na, b: nb, farads } => {
                    stamp_g(&mut a, na, nb, self.cap_conductance(farads));
                }
                Element::Inductor { a: na, b: nb, henries } => {
                    let k = self.group2_row(idx);
                    let r_eq = self.ind_resistance(henries);
                    if let Some(i) = net.node_var(na) {
                        a[(k, i)] += 1.0;
                        a[(i, k)] += 1.0;
                    }
                    if let Some(j) = net.node_var(nb) {
                        a[(k, j)] -= 1.0;
                        a[(j, k)] -= 1.0;
                    }
                    a[(k, k)] -= r_eq;
                }
                Element::VoltageSource { pos, neg, .. } => {
                    let k = self.group2_row(idx);
                    if let Some(i) = net.node_var(pos) {
                        a[(k, i)] += 1.0;
                        a[(i, k)] += 1.0;
                    }
                    if let Some(j) = net.node_var(neg) {
                        a[(k, j)] -= 1.0;
                        a[(j, k)] -= 1.0;
                    }
                }
                Element::ChargeRecycler {
                    top,
                    mid,
                    bottom,
                    siemens,
                } => {
                    let g = siemens;
                    let entries = [
                        (top, top, g),
                        (top, mid, -2.0 * g),
                        (top, bottom, g),
                        (mid, top, -2.0 * g),
                        (mid, mid, 4.0 * g),
                        (mid, bottom, -2.0 * g),
                        (bottom, top, g),
                        (bottom, mid, -2.0 * g),
                        (bottom, bottom, g),
                    ];
                    for (r, c, v) in entries {
                        if let (Some(i), Some(j)) = (net.node_var(r), net.node_var(c)) {
                            a[(i, j)] += v;
                        }
                    }
                }
                Element::CurrentSource { .. } => {}
            }
        }
        let factored = self.factor.refactor(&a);
        self.stamp = a;
        factored.map_err(|_| NetlistError::Singular)?;
        self.fingerprint = netlist_fingerprint(&self.netlist);
        self.rebuild_plans();
        Ok(())
    }

    /// Rebuilds the per-step RHS and per-element energy plans from the
    /// netlist, resolving node variables and companion conductances once so
    /// the per-step loops are branch-light and allocation-free. Must be kept
    /// in exact floating-point agreement with the element equations (see
    /// [`RhsOp`]).
    fn rebuild_plans(&mut self) {
        let var = |n: NodeId| self.netlist.node_var(n).unwrap_or(NO_INDEX);
        self.rhs_plan.clear();
        self.energy_plan.clear();
        for (idx, e) in self.netlist.elements().iter().enumerate() {
            match *e {
                Element::Resistor { a, b, ohms } => {
                    self.energy_plan.push(EnergyOp::Conductor { a: var(a), b: var(b), ohms });
                }
                Element::Switch { a, b, r_on, r_off, closed } => {
                    let ohms = if closed { r_on } else { r_off };
                    self.energy_plan.push(EnergyOp::Conductor { a: var(a), b: var(b), ohms });
                }
                Element::Capacitor { a, b, farads } => {
                    let state = self.cap_state_of[idx];
                    self.rhs_plan.push(RhsOp::Cap {
                        g: self.cap_conductance(farads),
                        state,
                        a: var(a),
                        b: var(b),
                    });
                    self.energy_plan.push(EnergyOp::Cap { a: var(a), b: var(b), state });
                }
                Element::Inductor { a, b, henries } => {
                    let row = self.group2_row_of[idx];
                    self.rhs_plan.push(RhsOp::Ind {
                        row,
                        r_eq: self.ind_resistance(henries),
                        state: self.ind_state_of[idx],
                        a: var(a),
                        b: var(b),
                    });
                    self.energy_plan.push(EnergyOp::Ind { a: var(a), b: var(b), row });
                }
                Element::VoltageSource { pos, neg, volts } => {
                    let row = self.group2_row_of[idx];
                    self.rhs_plan.push(RhsOp::Vsrc { row, volts });
                    self.energy_plan.push(EnergyOp::Vsrc { a: var(pos), b: var(neg), row });
                }
                Element::CurrentSource { a, b, waveform } => {
                    self.rhs_plan.push(RhsOp::Isrc { a: var(a), b: var(b), waveform });
                    self.energy_plan.push(EnergyOp::Isrc { a: var(a), b: var(b), waveform });
                }
                Element::ChargeRecycler { top, mid, bottom, siemens } => {
                    self.energy_plan.push(EnergyOp::Recycler {
                        top: var(top),
                        mid: var(mid),
                        bottom: var(bottom),
                        siemens,
                    });
                }
            }
        }
    }

    #[inline]
    fn cap_conductance(&self, farads: f64) -> f64 {
        match self.method {
            Integration::BackwardEuler => farads / self.dt,
            Integration::Trapezoidal => 2.0 * farads / self.dt,
        }
    }

    #[inline]
    fn ind_resistance(&self, henries: f64) -> f64 {
        match self.method {
            Integration::BackwardEuler => henries / self.dt,
            Integration::Trapezoidal => 2.0 * henries / self.dt,
        }
    }

    /// Precomputed MNA row for a group-2 element. Only called from match
    /// arms whose element kind guarantees group-2 membership, so the map is
    /// always populated there; `NO_INDEX` would fault loudly on indexing.
    #[inline]
    fn group2_row(&self, element_idx: usize) -> usize {
        self.group2_row_of[element_idx]
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The fixed timestep in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Sets the value of a controlled current source, effective from the next
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated by this netlist.
    pub fn set_control(&mut self, id: ControlId, amps: f64) {
        self.controls[id.index()] = amps;
    }

    /// Reads back a control value.
    pub fn control(&self, id: ControlId) -> f64 {
        self.controls[id.index()]
    }

    /// Toggles a switch; refactors the system matrix if the state changed.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::WrongElementKind`] if `id` does not refer to a
    /// switch, or [`SolverError::Singular`] if the new topology is singular.
    pub fn set_switch(&mut self, id: ElementId, closed: bool) -> Result<(), SolverError> {
        let changed = {
            let e = &mut self.netlist.elements_mut()[id.index()];
            match e {
                Element::Switch { closed: c, .. } => {
                    let changed = *c != closed;
                    *c = closed;
                    changed
                }
                _ => {
                    return Err(SolverError::WrongElementKind {
                        element: id.index(),
                        expected: "switch",
                    })
                }
            }
        };
        if changed {
            let t = self.time;
            self.refactor()
                .map_err(|_| SolverError::Singular { time_s: t })?;
        }
        Ok(())
    }

    /// Retunes a charge recycler's averaged conductance `f_sw * C_fly`,
    /// refactoring the system matrix if the value changed. This is the hook
    /// the fault-injection layer uses to model degraded or offline sub-IVRs.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::WrongElementKind`] if `id` is not a charge
    /// recycler, [`SolverError::InvalidParameter`] for a negative or
    /// non-finite conductance, or [`SolverError::Singular`] if the retuned
    /// matrix no longer factors.
    pub fn set_recycler_conductance(
        &mut self,
        id: ElementId,
        siemens: f64,
    ) -> Result<(), SolverError> {
        if !siemens.is_finite() || siemens < 0.0 {
            return Err(SolverError::InvalidParameter {
                what: "recycler conductance must be finite and non-negative",
            });
        }
        let changed = {
            let e = &mut self.netlist.elements_mut()[id.index()];
            match e {
                Element::ChargeRecycler { siemens: s, .. } => {
                    let changed = *s != siemens;
                    *s = siemens;
                    changed
                }
                _ => {
                    return Err(SolverError::WrongElementKind {
                        element: id.index(),
                        expected: "charge recycler",
                    })
                }
            }
        };
        if changed {
            let t = self.time;
            self.refactor()
                .map_err(|_| SolverError::Singular { time_s: t })?;
        }
        Ok(())
    }

    /// Reads back a charge recycler's averaged conductance, or `None` when
    /// `id` refers to some other element kind.
    pub fn recycler_conductance(&self, id: ElementId) -> Option<f64> {
        match self.netlist.elements()[id.index()] {
            Element::ChargeRecycler { siemens, .. } => Some(siemens),
            _ => None,
        }
    }

    /// Changes the fixed timestep, refactoring the companion-model matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] for a non-positive or
    /// non-finite `dt`, or [`SolverError::Singular`] if the new matrix no
    /// longer factors.
    pub fn set_timestep(&mut self, dt: f64) -> Result<(), SolverError> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(SolverError::InvalidParameter {
                what: "timestep must be finite and positive",
            });
        }
        if dt != self.dt {
            self.dt = dt;
            let t = self.time;
            self.refactor()
                .map_err(|_| SolverError::Singular { time_s: t })?;
        }
        Ok(())
    }

    /// Changes the integration method, refactoring the companion-model
    /// matrix. The companion states are physical (branch voltages and
    /// currents), so switching methods mid-run is well-defined.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Singular`] if the new matrix no longer
    /// factors.
    pub fn set_method(&mut self, method: Integration) -> Result<(), SolverError> {
        if method != self.method {
            self.method = method;
            let t = self.time;
            self.refactor()
                .map_err(|_| SolverError::Singular { time_s: t })?;
        }
        Ok(())
    }

    /// The active integration method.
    pub fn method(&self) -> Integration {
        self.method
    }

    /// Voltage of `node` at the last accepted step.
    pub fn voltage(&self, node: NodeId) -> f64 {
        match self.netlist.node_var(node) {
            None => 0.0,
            Some(i) => self.solution[i],
        }
    }

    /// Branch current through an element at the last accepted step, flowing
    /// from its first terminal to its second (through the element).
    pub fn branch_current(&self, id: ElementId) -> f64 {
        let e = &self.netlist.elements()[id.index()];
        match *e {
            Element::Resistor { a, b, ohms } => (self.voltage(a) - self.voltage(b)) / ohms,
            Element::Switch {
                a,
                b,
                r_on,
                r_off,
                closed,
            } => (self.voltage(a) - self.voltage(b)) / if closed { r_on } else { r_off },
            Element::Capacitor { .. } => {
                let k = self.cap_state_of[id.index()];
                if k == NO_INDEX {
                    0.0
                } else {
                    self.cap_states[k].1.i_prev
                }
            }
            Element::Inductor { .. } | Element::VoltageSource { .. } => {
                let k = self.group2_row(id.index());
                self.solution[k]
            }
            Element::CurrentSource { waveform, .. } => waveform.value_at(self.time, &self.controls),
            Element::ChargeRecycler {
                top,
                mid,
                bottom,
                siemens,
            } => {
                let d = self.voltage(top) - 2.0 * self.voltage(mid) + self.voltage(bottom);
                siemens * d
            }
        }
    }

    /// Advances the simulation by one timestep.
    ///
    /// The step is **atomic**: the candidate solution passes a numerical
    /// health gate (finite, within the divergence limit) *before* any state
    /// is committed, so on error the solver still sits at the last accepted
    /// step and the caller may retry — see [`Transient::step_with_recovery`].
    ///
    /// # Errors
    ///
    /// * [`SolverError::NonFinite`] — the candidate solution contains NaN or
    ///   infinity (e.g. a non-finite control input).
    /// * [`SolverError::Divergence`] — a node voltage exceeded the
    ///   divergence limit (10 kV).
    pub fn step(&mut self) -> Result<(), SolverError> {
        let t_new = self.time + self.dt;
        self.build_rhs(t_new);
        self.factor.solve_in_place(&mut self.rhs);
        self.commit_step(t_new)
    }

    /// The linear system `A x = b` the next [`Transient::step`] solves: the
    /// companion-model matrix of the current settings and the right-hand
    /// side stamped from the current state and controls. Reading it changes
    /// no state; it is there to check the solve against other
    /// factorizations.
    pub fn next_step_system(&mut self) -> (&Matrix<f64>, &[f64]) {
        self.build_rhs(self.time + self.dt);
        (&self.stamp, &self.rhs)
    }

    /// Stamps the right-hand side for the step toward `t_new` into the
    /// internal scratch buffer. The first phase of [`Transient::step`], split
    /// out so batched stepping can stamp many lanes, solve them in one
    /// structure-of-arrays substitution, and commit each lane — with
    /// `build_rhs` → solve → [`Transient::commit_step`] remaining the single
    /// definition of a step (so the batched path is bit-identical by
    /// construction).
    pub(crate) fn build_rhs(&mut self, t_new: f64) {
        self.rhs.fill(0.0);

        // Stamp the per-step right-hand side from the precomputed plan
        // (element order, identical FP expressions — see [`RhsOp`]).
        for op in &self.rhs_plan {
            match *op {
                RhsOp::Cap { g, state, a, b } => {
                    let s = self.cap_states[state].1;
                    let i_eq = match self.method {
                        Integration::BackwardEuler => g * s.v_prev,
                        Integration::Trapezoidal => g * s.v_prev + s.i_prev,
                    };
                    if a != NO_INDEX {
                        self.rhs[a] += i_eq;
                    }
                    if b != NO_INDEX {
                        self.rhs[b] -= i_eq;
                    }
                }
                RhsOp::Ind { row, r_eq, state, .. } => {
                    let s = self.ind_states[state].1;
                    let v_eq = match self.method {
                        Integration::BackwardEuler => -r_eq * s.i_prev,
                        Integration::Trapezoidal => -r_eq * s.i_prev - s.v_prev,
                    };
                    self.rhs[row] = v_eq;
                }
                RhsOp::Vsrc { row, volts } => {
                    self.rhs[row] = volts;
                }
                RhsOp::Isrc { a, b, waveform } => {
                    let i_val = waveform.value_at(t_new, &self.controls);
                    if a != NO_INDEX {
                        self.rhs[a] -= i_val;
                    }
                    if b != NO_INDEX {
                        self.rhs[b] += i_val;
                    }
                }
            }
        }
    }

    /// Gates and commits a candidate solution sitting in the scratch buffer
    /// (as left by a solve): the second phase of [`Transient::step`]. On
    /// error nothing is committed and the solver still sits at the last
    /// accepted step.
    ///
    /// # Errors
    ///
    /// Same contract as [`Transient::step`]: [`SolverError::NonFinite`] or
    /// [`SolverError::Divergence`].
    pub(crate) fn commit_step(&mut self, t_new: f64) -> Result<(), SolverError> {
        // Health gate: reject the candidate before committing anything. The
        // rhs buffer is scratch (refilled every step), so bailing out here
        // leaves the solver exactly at the last accepted state.
        let mut v_max = 0.0f64;
        for &x in &self.rhs {
            if !x.is_finite() {
                return Err(SolverError::NonFinite {
                    time_s: self.time,
                    what: "solution",
                });
            }
        }
        for &v in &self.rhs[..self.n_node_vars] {
            v_max = v_max.max(v.abs());
        }
        if v_max > DIVERGENCE_LIMIT_V {
            return Err(SolverError::Divergence {
                time_s: self.time,
                v_max,
                limit_v: DIVERGENCE_LIMIT_V,
            });
        }

        std::mem::swap(&mut self.solution, &mut self.rhs);
        self.time = t_new;

        // Update companion states from the plan (the plan lists reactive
        // elements in element order, matching cap_states/ind_states).
        let dt = self.dt;
        for op in &self.rhs_plan {
            match *op {
                RhsOp::Cap { g, state, a, b } => {
                    let s = self.cap_states[state].1;
                    let v_new = node_v(&self.solution, a) - node_v(&self.solution, b);
                    let i_new = match self.method {
                        Integration::BackwardEuler => g * (v_new - s.v_prev),
                        Integration::Trapezoidal => g * (v_new - s.v_prev) - s.i_prev,
                    };
                    self.cap_states[state].1 = CapState {
                        v_prev: v_new,
                        i_prev: i_new,
                    };
                }
                RhsOp::Ind { row, state, a, b, .. } => {
                    let v_new = node_v(&self.solution, a) - node_v(&self.solution, b);
                    self.ind_states[state].1 = IndState {
                        i_prev: self.solution[row],
                        v_prev: v_new,
                    };
                }
                _ => {}
            }
        }

        // Energy accounting from the plan (one op per element, in element
        // order, same floating-point expressions as `element_power_w`).
        let sol = &self.solution;
        for (idx, op) in self.energy_plan.iter().enumerate() {
            let p_absorbed = match *op {
                EnergyOp::Conductor { a, b, ohms } => {
                    let d = node_v(sol, a) - node_v(sol, b);
                    d * (d / ohms)
                }
                EnergyOp::Cap { a, b, state } => {
                    let d = node_v(sol, a) - node_v(sol, b);
                    d * self.cap_states[state].1.i_prev
                }
                EnergyOp::Ind { a, b, row } | EnergyOp::Vsrc { a, b, row } => {
                    let d = node_v(sol, a) - node_v(sol, b);
                    d * sol[row]
                }
                EnergyOp::Isrc { a, b, waveform } => {
                    let d = node_v(sol, a) - node_v(sol, b);
                    d * waveform.value_at(self.time, &self.controls)
                }
                EnergyOp::Recycler { top, mid, bottom, siemens } => {
                    let d = node_v(sol, top) - 2.0 * node_v(sol, mid) + node_v(sol, bottom);
                    siemens * d * d
                }
            };
            self.per_element_absorbed_j[idx] += p_absorbed * dt;
            match *op {
                EnergyOp::Conductor { .. } => {
                    self.energy.resistive_loss_j += p_absorbed * dt;
                }
                EnergyOp::Vsrc { .. } => {
                    self.energy.source_delivered_j -= p_absorbed * dt;
                }
                EnergyOp::Isrc { .. } => {
                    self.energy.load_absorbed_j += p_absorbed * dt;
                }
                EnergyOp::Recycler { .. } => {
                    self.energy.recycler_loss_j += p_absorbed * dt;
                }
                _ => {}
            }
        }
        self.energy.elapsed_s += dt;
        Ok(())
    }

    /// Advances by `n` steps.
    ///
    /// # Errors
    ///
    /// Propagates the first stepping error.
    pub fn run(&mut self, n: usize) -> Result<(), SolverError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            time: self.time,
            solution: self.solution.clone(),
            cap_states: self.cap_states.clone(),
            ind_states: self.ind_states.clone(),
            per_element_absorbed_j: self.per_element_absorbed_j.clone(),
            energy: self.energy.clone(),
        }
    }

    fn restore(&mut self, s: &Snapshot) {
        self.time = s.time;
        self.solution.clone_from(&s.solution);
        self.cap_states.clone_from(&s.cap_states);
        self.ind_states.clone_from(&s.ind_states);
        self.per_element_absorbed_j
            .clone_from(&s.per_element_absorbed_j);
        self.energy = s.energy.clone();
    }

    /// Advances one *nominal* timestep, recovering from rejected steps under
    /// the given policy (see [`RecoveryPolicy`] for the backoff schedule).
    /// On success the solver has advanced by exactly one nominal `dt` — via
    /// substeps if recovery halved the timestep — and runs the nominal
    /// timestep and integration method again.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::RecoveryExhausted`] when the retry budget runs
    /// out (the solver is left at the last accepted state), or the original
    /// error when the policy disables retries.
    pub fn step_with_recovery(
        &mut self,
        policy: &RecoveryPolicy,
    ) -> Result<StepReport, SolverError> {
        let first = match self.step() {
            Ok(()) => return Ok(StepReport::default()),
            Err(e) => e,
        };
        if policy.max_attempts == 0 {
            return Err(first);
        }

        let snap = self.snapshot();
        let dt0 = self.dt;
        let method0 = self.method;
        let mut report = StepReport::default();
        let mut last = first;

        for attempt in 1..=policy.max_attempts {
            report.retries = attempt;
            self.restore(&snap);
            if policy.sanitize_controls {
                for c in &mut self.controls {
                    if !c.is_finite() {
                        *c = 0.0;
                        report.sanitized_controls += 1;
                    }
                }
            }
            let halvings = attempt.min(policy.max_halvings);
            let use_be = attempt >= policy.backward_euler_after;
            self.dt = dt0 / (1u64 << halvings) as f64;
            self.method = if use_be {
                Integration::BackwardEuler
            } else {
                method0
            };
            if self.refactor().is_err() {
                last = SolverError::Singular { time_s: self.time };
                continue;
            }
            let substeps = 1u64 << halvings;
            let mut accepted = true;
            for _ in 0..substeps {
                if let Err(e) = self.step() {
                    last = e;
                    accepted = false;
                    break;
                }
            }
            if accepted {
                report.used_backward_euler = use_be;
                report.halvings = halvings;
                self.dt = dt0;
                self.method = method0;
                let t = self.time;
                self.refactor()
                    .map_err(|_| SolverError::Singular { time_s: t })?;
                return Ok(report);
            }
        }

        // Budget exhausted: leave the solver at the last accepted state
        // under its nominal settings.
        self.restore(&snap);
        self.dt = dt0;
        self.method = method0;
        let t = self.time;
        self.refactor()
            .map_err(|_| SolverError::Singular { time_s: t })?;
        Err(SolverError::RecoveryExhausted {
            time_s: self.time,
            attempts: policy.max_attempts,
            last: Box::new(last),
        })
    }

    /// Cumulative energy bookkeeping since construction.
    pub fn energy(&self) -> &EnergyReport {
        &self.energy
    }

    /// Cumulative energy absorbed by one element, in joules (negative for
    /// elements delivering energy).
    pub fn element_absorbed_j(&self, id: ElementId) -> f64 {
        self.per_element_absorbed_j[id.index()]
    }

    /// Instantaneous power absorbed by one element, in watts.
    pub fn element_power_w(&self, id: ElementId) -> f64 {
        if let Element::ChargeRecycler {
            top,
            mid,
            bottom,
            siemens,
        } = self.netlist.elements()[id.index()]
        {
            let d = self.voltage(top) - 2.0 * self.voltage(mid) + self.voltage(bottom);
            return siemens * d * d;
        }
        let (a, b) = self.netlist.elements()[id.index()].terminals();
        (self.voltage(a) - self.voltage(b)) * self.branch_current(id)
    }

    /// Sum of `v * i` over all branches at the current instant; Tellegen's
    /// theorem says this is zero for any consistent solution, so it doubles
    /// as a solver sanity check.
    pub fn tellegen_residual_w(&self) -> f64 {
        (0..self.netlist.elements().len())
            .map(|idx| self.element_power_w(ElementId(idx)))
            .sum()
    }

    /// The underlying netlist (with current switch states).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Cached structural fingerprint of the netlist (see the field docs);
    /// kept current by every refactor.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The active sparse LU factorization.
    pub(crate) fn factor(&self) -> &SparseLu {
        &self.factor
    }

    /// The MNA system dimension (node variables + group-2 branches).
    pub(crate) fn system_dim(&self) -> usize {
        self.rhs.len()
    }

    /// The RHS/solution scratch buffer, for the batched gather/scatter.
    pub(crate) fn rhs_mut(&mut self) -> &mut [f64] {
        &mut self.rhs
    }

    /// Solves the stamped scratch RHS in place with the active factors —
    /// the middle phase of [`Transient::step`], used by singleton lanes in
    /// the batched path.
    pub(crate) fn solve_scratch(&mut self) {
        self.factor.solve_in_place(&mut self.rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn workspace_is_send() {
        // Worker threads in the sweep each own a long-lived workspace and
        // the scheduler may move it between threads; all of its state is
        // owned data, so `Send` must hold (and must keep holding).
        fn assert_send<T: Send>() {}
        assert_send::<SolverWorkspace>();
    }

    fn rc_circuit() -> (Netlist, NodeId) {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.voltage_source(vin, Netlist::GROUND, 1.0);
        net.resistor(vin, out, 1_000.0);
        net.capacitor(out, Netlist::GROUND, 1e-9);
        (net, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (net, out) = rc_circuit();
        let tau = 1e-6;
        for method in [Integration::BackwardEuler, Integration::Trapezoidal] {
            let mut sim = Transient::from_flat_start(&net, tau / 100.0, method).unwrap();
            sim.run(100).unwrap(); // t = tau
            let expected = 1.0 - (-1.0f64).exp();
            // A flat start is inconsistent with the source (the capacitor
            // current jumps at t=0), so the first step carries an O(dt)
            // error for both methods.
            let tol = 5e-3;
            assert!(
                (sim.voltage(out) - expected).abs() < tol,
                "{method:?}: got {}, want {expected}",
                sim.voltage(out)
            );
        }
    }

    #[test]
    fn starts_at_dc_equilibrium() {
        let (net, out) = rc_circuit();
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.run(50).unwrap();
        assert!((sim.voltage(out) - 1.0).abs() < 1e-9, "no start-up transient");
    }

    #[test]
    fn rl_current_rise() {
        // Series RL driven by 1 V: i(t) = (V/R)(1 - exp(-t R/L)).
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let mid = net.node("mid");
        net.voltage_source(vin, Netlist::GROUND, 1.0);
        net.resistor(vin, mid, 10.0);
        let l = net.inductor(mid, Netlist::GROUND, 1e-6);
        let tau = 1e-6 / 10.0;
        let mut sim = Transient::from_flat_start(&net, tau / 200.0, Integration::Trapezoidal).unwrap();
        sim.run(200).unwrap(); // one time constant
        let expected = 0.1 * (1.0 - (-1.0f64).exp());
        assert!((sim.branch_current(l) - expected).abs() < 1e-4);
    }

    #[test]
    fn lc_resonance_period() {
        // LC tank started with charged capacitor oscillates at
        // f = 1/(2*pi*sqrt(LC)).
        let mut net = Netlist::new();
        let top = net.node("top");
        net.capacitor(top, Netlist::GROUND, 1e-9);
        net.inductor(top, Netlist::GROUND, 1e-6);
        net.resistor(top, Netlist::GROUND, 1e9); // keep DC nonsingular
        let voltages = vec![0.0, 1.0];
        let g2 = vec![0.0];
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let period = 1.0 / f0;
        let dt = period / 400.0;
        let mut sim =
            Transient::with_initial_state(&net, dt, Integration::Trapezoidal, &voltages, &g2)
                .unwrap();
        // Find first return to positive peak by tracking zero crossings.
        let mut crossings = Vec::new();
        let mut prev = sim.voltage(top);
        for _ in 0..1200 {
            sim.step().unwrap();
            let v = sim.voltage(top);
            if prev > 0.0 && v <= 0.0 {
                crossings.push(sim.time());
            }
            prev = v;
        }
        assert!(crossings.len() >= 2);
        let measured_period = crossings[1] - crossings[0];
        assert!(
            (measured_period - period).abs() / period < 0.01,
            "measured {measured_period}, expected {period}"
        );
    }

    #[test]
    fn controlled_source_updates_take_effect() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        let r = net.node("r");
        net.resistor(a, r, 1.0);
        let (_e, c) = net.controlled_current_source(r, Netlist::GROUND);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.step().unwrap();
        assert!((sim.voltage(r) - 1.0).abs() < 1e-12);
        sim.set_control(c, 0.5);
        sim.step().unwrap();
        assert!((sim.voltage(r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn switch_toggle_changes_topology() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        net.resistor(a, b, 1.0);
        let sw = net.switch(b, Netlist::GROUND, 1.0, 1e9, false);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.step().unwrap();
        assert!(sim.voltage(b) > 0.99); // open: no divider
        sim.set_switch(sw, true).unwrap();
        sim.step().unwrap();
        assert!((sim.voltage(b) - 0.5).abs() < 1e-9); // closed: 1:1 divider
    }

    #[test]
    fn tellegen_residual_is_tiny() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let a = net.node("a");
        let b = net.node("b");
        net.voltage_source(vin, Netlist::GROUND, 4.0);
        net.resistor(vin, a, 2.0);
        net.capacitor(a, Netlist::GROUND, 1e-9);
        net.inductor(a, b, 1e-8);
        net.resistor(b, Netlist::GROUND, 5.0);
        net.current_source(b, Netlist::GROUND, Waveform::Sine {
            offset: 0.1,
            amplitude: 0.05,
            freq_hz: 10e6,
            phase_rad: 0.0,
        });
        let mut sim = Transient::new(&net, 1e-10, Integration::Trapezoidal).unwrap();
        for _ in 0..200 {
            sim.step().unwrap();
            assert!(sim.tellegen_residual_w().abs() < 1e-9);
        }
    }

    #[test]
    fn charge_recycler_equalizes_layer_voltages() {
        // Two stacked layers from a 2 V source with unbalanced loads: the
        // recycler must pull the midpoint toward 1 V.
        let build = |g: Option<f64>| {
            let mut net = Netlist::new();
            let top = net.node("top");
            let mid = net.node("mid");
            net.voltage_source(top, Netlist::GROUND, 2.0);
            net.capacitor(top, mid, 1e-6);
            net.capacitor(mid, Netlist::GROUND, 1e-6);
            // Upper layer draws 1 A, lower layer only 0.2 A: midpoint sags.
            net.current_source(top, mid, Waveform::Dc(1.0));
            net.current_source(mid, Netlist::GROUND, Waveform::Dc(0.2));
            if let Some(g) = g {
                net.charge_recycler(top, mid, Netlist::GROUND, g);
            }
            let voltages = vec![0.0, 2.0, 1.0];
            let g2 = vec![0.0];
            let mut sim =
                Transient::with_initial_state(&net, 1e-9, Integration::Trapezoidal, &voltages, &g2)
                    .unwrap();
            sim.run(5_000).unwrap();
            (sim.voltage(mid), sim)
        };
        let (v_plain, _) = build(None);
        let (v_recycled, sim) = build(Some(10.0));
        // Without recycling the imbalance discharges the midpoint hard;
        // with it the midpoint stays near 1 V.
        assert!(
            !(0.5..=1.5).contains(&v_plain),
            "unbalanced mid drifted to {v_plain}"
        );
        assert!((v_recycled - 1.0).abs() < 0.1, "recycled mid at {v_recycled}");
        // Conversion loss is accounted and non-negative.
        assert!(sim.energy().recycler_loss_j >= 0.0);
        // Tellegen still holds with the three-terminal element.
        assert!(sim.tellegen_residual_w().abs() < 1e-6);
    }

    #[test]
    fn non_finite_control_is_rejected_atomically() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        let r = net.node("r");
        net.resistor(a, r, 1.0);
        net.capacitor(r, Netlist::GROUND, 1e-9);
        let (_e, c) = net.controlled_current_source(r, Netlist::GROUND);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.run(5).unwrap();
        let v_before = sim.voltage(r);
        let t_before = sim.time();
        sim.set_control(c, f64::NAN);
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SolverError::NonFinite { .. }), "{err}");
        // Atomic rejection: nothing moved.
        assert_eq!(sim.voltage(r), v_before);
        assert_eq!(sim.time(), t_before);
        // Clearing the control lets the run resume.
        sim.set_control(c, 0.0);
        sim.step().unwrap();
        assert!(sim.time() > t_before);
    }

    #[test]
    fn recovery_sanitizes_nan_control_and_advances() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        let r = net.node("r");
        net.resistor(a, r, 1.0);
        net.capacitor(r, Netlist::GROUND, 1e-9);
        let (_e, c) = net.controlled_current_source(r, Netlist::GROUND);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.set_control(c, f64::NAN);
        let report = sim.step_with_recovery(&RecoveryPolicy::default()).unwrap();
        assert!(report.recovered());
        assert_eq!(report.sanitized_controls, 1);
        assert!((sim.time() - 1e-9).abs() < 1e-18, "one nominal dt covered");
        // The sanitized control reads back as zero.
        assert_eq!(sim.control(c), 0.0);
        // Nominal settings are restored.
        assert_eq!(sim.dt(), 1e-9);
        assert_eq!(sim.method(), Integration::Trapezoidal);
    }

    #[test]
    fn recovery_disabled_policy_surfaces_error() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        let r = net.node("r");
        net.resistor(a, r, 1.0);
        let (_e, c) = net.controlled_current_source(r, Netlist::GROUND);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.set_control(c, f64::INFINITY);
        let err = sim
            .step_with_recovery(&RecoveryPolicy::disabled())
            .unwrap_err();
        assert!(matches!(err, SolverError::NonFinite { .. }));
    }

    #[test]
    fn recovery_exhausts_on_unrecoverable_divergence() {
        // A persistent divergent load (finite but enormous) cannot be fixed
        // by dt halving or BE fallback: recovery must give up cleanly and
        // leave the solver at its last accepted state.
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        let r = net.node("r");
        net.resistor(a, r, 1.0);
        let (_e, c) = net.controlled_current_source(r, Netlist::GROUND);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.run(3).unwrap();
        let t_before = sim.time();
        sim.set_control(c, 1e9); // drives the node to -1e9 V
        let err = sim
            .step_with_recovery(&RecoveryPolicy::default())
            .unwrap_err();
        match err {
            SolverError::RecoveryExhausted { attempts, last, .. } => {
                assert_eq!(attempts, RecoveryPolicy::default().max_attempts);
                assert!(matches!(*last, SolverError::Divergence { .. }));
            }
            other => panic!("expected RecoveryExhausted, got {other}"),
        }
        assert_eq!(sim.time(), t_before);
        assert_eq!(sim.dt(), 1e-9);
    }

    #[test]
    fn set_switch_on_non_switch_is_an_error() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, 1.0);
        let r_id = net.resistor(a, Netlist::GROUND, 1.0);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        let err = sim.set_switch(r_id, true).unwrap_err();
        assert!(matches!(err, SolverError::WrongElementKind { .. }));
    }

    #[test]
    fn recycler_conductance_can_be_retuned() {
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        net.voltage_source(top, Netlist::GROUND, 2.0);
        net.resistor(top, mid, 1.0);
        net.resistor(mid, Netlist::GROUND, 1.0);
        let rec = net.charge_recycler(top, mid, Netlist::GROUND, 10.0);
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        assert_eq!(sim.recycler_conductance(rec), Some(10.0));
        sim.set_recycler_conductance(rec, 0.0).unwrap();
        assert_eq!(sim.recycler_conductance(rec), Some(0.0));
        sim.step().unwrap();
        // Wrong kind and bad values are structured errors.
        let r_id = net.resistor(top, Netlist::GROUND, 5.0);
        let _ = r_id;
        assert!(matches!(
            sim.set_recycler_conductance(rec, -1.0).unwrap_err(),
            SolverError::InvalidParameter { .. }
        ));
        assert!(matches!(
            sim.set_recycler_conductance(rec, f64::NAN).unwrap_err(),
            SolverError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn timestep_and_method_changes_keep_physics() {
        // RC settling must reach the same steady state across a mid-run
        // dt/method change.
        let (net, out) = rc_circuit();
        let mut sim = Transient::from_flat_start(&net, 1e-8, Integration::Trapezoidal).unwrap();
        sim.run(50).unwrap();
        sim.set_timestep(5e-9).unwrap();
        sim.set_method(Integration::BackwardEuler).unwrap();
        sim.run(2_000).unwrap();
        assert!((sim.voltage(out) - 1.0).abs() < 1e-3);
        assert!(matches!(
            sim.set_timestep(-1.0).unwrap_err(),
            SolverError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn energy_bookkeeping_consistency() {
        // Pure resistive: source energy equals resistive loss + load energy.
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let a = net.node("a");
        net.voltage_source(vin, Netlist::GROUND, 2.0);
        net.resistor(vin, a, 1.0);
        net.current_source(a, Netlist::GROUND, Waveform::Dc(0.5));
        let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
        sim.run(100).unwrap();
        let e = sim.energy();
        assert!(
            (e.source_delivered_j - e.resistive_loss_j - e.load_absorbed_j).abs()
                < 1e-12 + 1e-9 * e.source_delivered_j.abs()
        );
        assert!(e.resistive_loss_j > 0.0);
        assert!(e.load_absorbed_j > 0.0);
    }
}
