//! Linear dynamic model of the voltage-stacked power grid (paper Section
//! IV-A, eqs. (1)–(7)).
//!
//! The state is the vector of inter-layer node voltages `V1..V_{N-1}` of an
//! `N`-layer stack (the top node is pinned at `VDD` by the board supply and
//! the bottom at ground). With per-node decoupling capacitance `C`, KCL at
//! node `i` gives
//!
//! ```text
//! C dVi/dt = I_{i+1} - I_i + ΔI_i
//! ```
//!
//! where `I_i` is the load current of layer `i` (the layer spanning nodes
//! `i-1..i`). Linearized around the balanced point (every layer at
//! `VDD/N`, so `I_i ≈ P_i / (VDD/N)`), the system has the paper's form
//! `Ẋ = AX + BU + ΔF` with `A = 0` and `B` the signed difference operator
//! scaled by `1/(C·V_layer)`.
//!
//! Note: the B matrix printed in the paper's eq. (4) couples `V̇2`/`V̇3` to
//! `P1` directly; the physically-derived node-capacitance form used here is
//! the tridiagonal difference operator. Both share the property that
//! proportional feedback `P_i = k·V_i` (eq. (6)) stabilizes the stack; we use
//! the derived form because it matches the netlist the circuit solver
//! simulates.

use crate::ss::{DiscreteStateSpace, StateSpace};
use vs_num::Matrix;

/// Parameters of the stacked-grid linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackModel {
    /// Number of stacked layers (the paper's GPU uses 4).
    pub n_layers: usize,
    /// Per-node decoupling capacitance, farads.
    pub capacitance_f: f64,
    /// Board supply voltage, volts (4.1 V in the paper).
    pub vdd: f64,
}

impl StackModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers < 2` or the electrical values are not positive.
    pub fn new(n_layers: usize, capacitance_f: f64, vdd: f64) -> Self {
        assert!(n_layers >= 2, "a stack needs at least two layers");
        assert!(capacitance_f > 0.0 && vdd > 0.0);
        StackModel {
            n_layers,
            capacitance_f,
            vdd,
        }
    }

    /// Nominal per-layer voltage `VDD / N`.
    pub fn layer_voltage(&self) -> f64 {
        self.vdd / self.n_layers as f64
    }

    /// Builds the open-loop state-space model: states are the `N-1` internal
    /// node voltages, inputs are the `N` layer powers.
    pub fn state_space(&self) -> StateSpace {
        let n = self.n_layers - 1;
        let m = self.n_layers;
        let a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, m);
        // C dV_i/dt = I_{i+1} - I_i, I_j = P_j / V_layer.
        let scale = 1.0 / (self.capacitance_f * self.layer_voltage());
        for i in 0..n {
            b[(i, i)] = -scale; // layer i+1 draws from node i+1 downward
            b[(i, i + 1)] = scale;
        }
        StateSpace::new(a, b)
    }

    /// The proportional feedback matrix for gain `k` (the paper's eq. (6):
    /// `P_i = k * V_i`, expressed on deviation variables). `K` is
    /// `n_layers x (n_layers - 1)`; the top layer's power deviates with
    /// `-V_{N-1}` because its voltage is `VDD - V_{N-1}`.
    pub fn proportional_feedback(&self, k: f64) -> Matrix<f64> {
        let n = self.n_layers - 1;
        let mut kk = Matrix::zeros(self.n_layers, n);
        // Layer i spans nodes (i-1, i); its layer voltage deviation is
        // δV_i - δV_{i-1}. Feedback on the *layer voltage* deviation:
        // δP_i = k (δV_i - δV_{i-1}) with δV_0 = δV_N = 0.
        for layer in 0..self.n_layers {
            if layer < n {
                kk[(layer, layer)] += k;
            }
            if layer >= 1 {
                kk[(layer, layer - 1)] -= k;
            }
        }
        kk
    }

    /// Sampled-data closed loop: the controller samples `X` every
    /// `t_sample`, holds `U = K X(n)` for the whole period, and the plant
    /// integrates it. For `A = 0` the exact sampled dynamics are
    /// `X(n+1) = (I + B K * T) X(n)`, which is what a real latency-`T`
    /// controller produces; this is the model whose stability limit matters.
    pub fn sampled_closed_loop(&self, k: f64, t_sample: f64) -> DiscreteStateSpace {
        let ss = self.state_space();
        let bk = ss.b.matmul(&self.proportional_feedback(k));
        let n = self.n_layers - 1;
        let ad = Matrix::identity(n).add(&bk.scale(t_sample));
        DiscreteStateSpace {
            ad,
            bd: Matrix::zeros(n, 1),
            dt: t_sample,
        }
    }

    /// Largest proportional gain (W/V) keeping the sampled loop stable at
    /// control period `t_sample`, found by bisection to three digits.
    pub fn max_stable_gain(&self, t_sample: f64) -> f64 {
        let stable = |k: f64| self.sampled_closed_loop(k, t_sample).is_stable();
        if !stable(1e-3) {
            return 0.0;
        }
        let mut lo = 1e-3;
        let mut hi = 1e-3;
        while stable(hi) && hi < 1e12 {
            hi *= 2.0;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if stable(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Steady-state node-voltage deviation produced by a constant
    /// current-imbalance disturbance of `delta_i_amps` at one node under
    /// proportional gain `k` (W/V): `ΔV = ΔI * V_layer / k` from the DC
    /// balance `k ΔV / V_layer = ΔI`.
    pub fn dc_deviation(&self, k: f64, delta_i_amps: f64) -> f64 {
        delta_i_amps * self.layer_voltage() / k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StackModel {
        // Paper-scale values: 4 layers, ~1 uF per node, 4.1 V board supply.
        StackModel::new(4, 1e-6, 4.1)
    }

    #[test]
    fn dimensions() {
        let ss = model().state_space();
        assert_eq!(ss.n_states(), 3);
        assert_eq!(ss.n_inputs(), 4);
    }

    #[test]
    fn b_matrix_is_difference_operator() {
        let ss = model().state_space();
        let scale = 1.0 / (1e-6 * model().layer_voltage());
        assert!((ss.b[(0, 0)] + scale).abs() < 1e-6);
        assert!((ss.b[(0, 1)] - scale).abs() < 1e-6);
        assert_eq!(ss.b[(0, 2)], 0.0);
        assert!((ss.b[(2, 3)] - scale).abs() < 1e-6);
    }

    #[test]
    fn proportional_feedback_stabilizes_continuous_loop() {
        let m = model();
        let ss = m.state_space();
        let acl = ss.closed_loop(&m.proportional_feedback(10.0));
        // All eigenvalues must have negative real part.
        let eigs = vs_num::eigenvalues(&acl);
        for e in eigs {
            assert!(e.re < -1e-3, "unstable eigenvalue {e}");
        }
    }

    #[test]
    fn sampled_loop_stability_depends_on_latency() {
        let m = model();
        // 60-cycle latency at 700 MHz.
        let t_fast = 60.0 / 700e6;
        let t_slow = 60_000.0 / 700e6;
        let k = 5.0;
        assert!(m.sampled_closed_loop(k, t_fast).is_stable());
        assert!(!m.sampled_closed_loop(k, t_slow).is_stable());
        // The stability limit scales inversely with latency (Ad = I + BK*T).
        let k_limit_slow = m.max_stable_gain(t_slow);
        let k_limit_fast = m.max_stable_gain(t_fast);
        assert!((k_limit_fast / k_limit_slow - 1000.0).abs() / 1000.0 < 0.01);
    }

    #[test]
    fn max_stable_gain_is_boundary() {
        let m = model();
        let t = 100.0 / 700e6;
        let k_max = m.max_stable_gain(t);
        assert!(m.sampled_closed_loop(k_max * 0.99, t).is_stable());
        assert!(!m.sampled_closed_loop(k_max * 1.05, t).is_stable());
    }

    #[test]
    fn dc_deviation_shrinks_with_gain() {
        let m = model();
        let d1 = m.dc_deviation(10.0, 2.0);
        let d2 = m.dc_deviation(100.0, 2.0);
        assert!(d1 > d2);
        assert!((d1 / d2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_layer_stack_also_works() {
        let m = StackModel::new(2, 1e-6, 2.0);
        let ss = m.state_space();
        assert_eq!(ss.n_states(), 1);
        assert_eq!(ss.n_inputs(), 2);
        assert!(m.sampled_closed_loop(5.0, 1e-7).is_stable());
    }

    #[test]
    fn eight_layer_stack_scales() {
        let m = StackModel::new(8, 1e-6, 8.2);
        assert_eq!(m.state_space().n_states(), 7);
        let t = 60.0 / 700e6;
        assert!(m.max_stable_gain(t) > 0.0);
    }
}
