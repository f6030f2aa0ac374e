//! The transient solve's sparse LU against the dense natural-order
//! factorization, on every netlist family the co-simulation builds:
//!
//! * the stacked PDN at 4×4, 2×8 and 8×2 with CR-IVR areas of 0.2 and 1.0
//!   GPU areas (the circuit-only and cross-layer rigs);
//! * the single-layer PDN at 1 V (board VRM) and at the IVR delivery
//!   voltage.
//!
//! Each family steps a few thousand GPU cycles under per-SM loads that are
//! imbalanced across the stack and jump between cycles. Every
//! `SAMPLE_EVERY` steps the test reads the linear system the next step
//! solves and checks:
//!
//! * the step takes the sparse factor's solution bit for bit;
//! * the sparse and the dense solutions agree within `MAX_REL_DIFF`,
//!   normwise relative;
//! * both solutions are backward stable: `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`
//!   stays within `MAX_BACKWARD_ERROR` for each order.
//!
//! A separate test pins the fill of the 4×4 factors, so a silent fall-back
//! to natural order fails.

use vs_circuit::{ControlId, Integration, LuFactors, Matrix, NodeId, SparseLu, Transient};
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, SingleLayerPdn, StackedPdn, IVR_DELIVERY_V};

/// The co-simulation's timestep: one 700 MHz GPU cycle.
const DT: f64 = 1.0 / 700e6;
const STEPS: usize = 3000;
const SAMPLE_EVERY: usize = 50;
/// Bound on `‖x_sparse − x_dense‖∞ / ‖x_dense‖∞`. Both orders are backward
/// stable, so they differ by rounding amplified by the system's condition.
const MAX_REL_DIFF: f64 = 1e-10;
/// Bound on the normwise backward error of either solution: a few units of
/// roundoff (2⁻⁵³ ≈ 1.1e-16).
const MAX_BACKWARD_ERROR: f64 = 1e-15;
/// Bound on the 4×4 stack's strictly-lower plus strictly-upper factor
/// entries. Minimum degree keeps them near 200; natural order fills them
/// to 1 873.
const MAX_FILL_4X4: usize = 250;

/// One netlist family, ready to step.
struct Family {
    name: String,
    sim: Transient,
    /// Per-SM load controls.
    loads: Vec<ControlId>,
    /// Nodes whose voltages the co-simulation reads.
    probes: Vec<NodeId>,
}

fn stacked(n_layers: usize, n_columns: usize, area_mult: f64) -> Family {
    let params = PdnParams::with_geometry(n_layers, n_columns);
    let area = AreaModel::default();
    let crivr = CrIvrConfig::sized_by_gpu_area(area_mult, &area);
    let pdn = StackedPdn::build(&params, Some((&crivr, &area)));
    let (v0, g2) = pdn.balanced_initial_state();
    let sim = Transient::with_initial_state(&pdn.netlist, DT, Integration::Trapezoidal, &v0, &g2)
        .expect("stacked PDN is well-formed");
    Family {
        name: format!("stacked {n_layers}x{n_columns} area {area_mult}"),
        sim,
        loads: pdn.sm_load.iter().flatten().copied().collect(),
        probes: pdn
            .sm_top
            .iter()
            .chain(&pdn.sm_bottom)
            .flatten()
            .copied()
            .collect(),
    }
}

fn single_layer(v_delivery: f64) -> Family {
    let pdn = SingleLayerPdn::build(&PdnParams::default(), v_delivery);
    let sim = Transient::new(&pdn.netlist, DT, Integration::Trapezoidal)
        .expect("single-layer PDN is well-formed");
    Family {
        name: format!("single-layer {v_delivery} V"),
        sim,
        loads: pdn.sm_load.clone(),
        probes: pdn.sm_node.iter().chain(&pdn.sm_return).copied().collect(),
    }
}

fn families() -> Vec<Family> {
    let mut out = Vec::new();
    for (layers, columns) in [(4, 4), (2, 8), (8, 2)] {
        for area in [0.2, 1.0] {
            out.push(stacked(layers, columns, area));
        }
    }
    out.push(single_layer(1.0));
    out.push(single_layer(IVR_DELIVERY_V));
    out
}

/// SplitMix64 draw in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`.
fn backward_error(a: &Matrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
    norm_inf(&r) / (a.norm_inf() * norm_inf(x) + norm_inf(b))
}

#[test]
fn sparse_solve_matches_dense_oracle_on_every_family() {
    for mut fam in families() {
        let mut rng = 0x5eed ^ fam.name.len() as u64;
        // Each SM draws around its own base, 1-9 A, so the layers of a
        // stack never balance; every cycle adds jitter, and one cycle in
        // sixteen redraws an SM's load outright.
        let base: Vec<f64> = fam
            .loads
            .iter()
            .map(|_| 1.0 + 8.0 * unit(&mut rng))
            .collect();
        let mut amps = base.clone();
        let (a0, _) = fam.sim.next_step_system();
        let a0 = a0.clone();
        let sparse = SparseLu::factor(&a0).expect("sparse factor");
        let dense = LuFactors::factor(&a0).expect("dense factor");
        let (mut worst_diff, mut worst_be_sparse, mut worst_be_dense) = (0.0f64, 0.0f64, 0.0f64);
        for step in 0..STEPS {
            for (k, amp) in amps.iter_mut().enumerate() {
                *amp = if unit(&mut rng) < 1.0 / 16.0 {
                    1.0 + 8.0 * unit(&mut rng)
                } else {
                    (*amp + 0.2 * (unit(&mut rng) - 0.5)).clamp(0.5, 10.0) * 0.98 + base[k] * 0.02
                };
                fam.sim.set_control(fam.loads[k], *amp);
            }
            if step % SAMPLE_EVERY != 0 {
                fam.sim.step().expect("step");
                continue;
            }
            let (a, b) = fam.sim.next_step_system();
            assert!(*a == a0, "{}: the system matrix changed mid-run", fam.name);
            let b = b.to_vec();
            let x_sparse = sparse.solve(&b);
            let x_dense = dense.solve(&b);
            let diff: Vec<f64> = x_sparse.iter().zip(&x_dense).map(|(s, d)| s - d).collect();
            worst_diff = worst_diff.max(norm_inf(&diff) / norm_inf(&x_dense));
            worst_be_sparse = worst_be_sparse.max(backward_error(&a0, &x_sparse, &b));
            worst_be_dense = worst_be_dense.max(backward_error(&a0, &x_dense, &b));
            fam.sim.step().expect("step");
            for &node in &fam.probes {
                assert_eq!(
                    fam.sim.voltage(node).to_bits(),
                    x_sparse[node.index() - 1].to_bits(),
                    "{}: the step did not take the sparse solution at step {step}",
                    fam.name
                );
            }
        }
        eprintln!(
            "{}: n {} | max rel diff {worst_diff:.2e} | backward error sparse {worst_be_sparse:.2e}, dense {worst_be_dense:.2e}",
            fam.name,
            a0.n_rows()
        );
        assert!(
            worst_diff <= MAX_REL_DIFF,
            "{}: relative difference {worst_diff:e}",
            fam.name
        );
        assert!(
            worst_be_sparse <= MAX_BACKWARD_ERROR,
            "{}: sparse backward error {worst_be_sparse:e}",
            fam.name
        );
        assert!(
            worst_be_dense <= MAX_BACKWARD_ERROR,
            "{}: dense backward error {worst_be_dense:e}",
            fam.name
        );
    }
}

#[test]
fn four_by_four_fill_stays_sparse() {
    for area in [0.2, 1.0] {
        let mut fam = stacked(4, 4, area);
        let (a, _) = fam.sim.next_step_system();
        let stamp_nnz = (0..a.n_rows())
            .map(|i| a.row(i).iter().filter(|v| **v != 0.0).count())
            .sum::<usize>();
        let lu = SparseLu::factor(a).expect("sparse factor");
        let fill = lu.lower_nnz() + lu.upper_nnz();
        eprintln!(
            "{}: n {} | stamp nonzeros {stamp_nnz} | L {} + U {} = {fill}",
            fam.name,
            a.n_rows(),
            lu.lower_nnz(),
            lu.upper_nnz()
        );
        assert_eq!(a.n_rows(), 53);
        assert!(fill <= MAX_FILL_4X4, "{}: {fill} factor entries", fam.name);
    }
}
