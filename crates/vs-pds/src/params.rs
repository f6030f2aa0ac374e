//! Electrical parameters of the power-delivery subsystem and the
//! regulator efficiency curves used in the system-level PDE accounting.
//!
//! Absolute component values are calibrated to a self-consistent operating
//! point (see DESIGN.md): the conventional single-layer PDS loses ~8 % to
//! IR drop at full load and ~13 % in the board VRM, anchoring its PDE near
//! the paper's 80 %; the voltage-stacked PDS carries one quarter of the
//! current through the same parasitics.


/// RLC parasitics and topology constants of the PDN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnParams {
    /// Number of stacked layers (4).
    pub n_layers: usize,
    /// SM columns per layer (4).
    pub n_columns: usize,
    /// Board supply for the stacked configuration, volts (4.1 V).
    pub vdd_stack: f64,
    /// Nominal SM supply, volts (1 V).
    pub v_sm: f64,
    /// Board-plane resistance, ohms.
    pub r_board: f64,
    /// Board-plane inductance, henries.
    pub l_board: f64,
    /// Package + C4 resistance (supply side), ohms.
    pub r_pkg: f64,
    /// Package + C4 inductance (supply side), henries.
    pub l_pkg: f64,
    /// Ground-return resistance, ohms.
    pub r_gnd: f64,
    /// Ground-return inductance, henries.
    pub l_gnd: f64,
    /// Lateral on-chip grid resistance between adjacent columns at the same
    /// stack level, ohms.
    pub r_lateral: f64,
    /// Per-SM local grid resistance in series with each SM terminal
    /// (top and bottom), ohms. Gives the stack component of load current a
    /// finite, resistive effective impedance (Fig. 3's Z_ST).
    pub r_sm_grid: f64,
    /// Effective decoupling capacitance across each (layer, column) domain,
    /// farads. Includes the die *and* package-embedded decap reachable
    /// within nanoseconds; sized so the paper's Fig. 9/10 dynamics
    /// (dip-and-recover at 0.2x CR-IVR area with a 60-cycle loop) hold at
    /// our ~8 A/SM current scale.
    pub c_layer: f64,
    /// Board-level bulk decap at the PCB node, farads.
    pub c_board: f64,
    /// Parasitic node-to-substrate capacitance at each internal stack node,
    /// farads. Breaks the perfect vertical symmetry so the stack component
    /// of the load current produces a finite (small) effective impedance,
    /// as in the paper's Fig. 3.
    pub c_node_gnd: f64,
}

impl Default for PdnParams {
    fn default() -> Self {
        PdnParams {
            n_layers: 4,
            n_columns: 4,
            vdd_stack: 4.1,
            v_sm: 1.0,
            r_board: 0.15e-3,
            l_board: 0.8e-12,
            r_pkg: 0.15e-3,
            l_pkg: 0.2e-12,
            r_gnd: 0.15e-3,
            l_gnd: 0.4e-12,
            r_lateral: 4.0e-3,
            r_sm_grid: 1.0e-3,
            c_layer: 2.5e-6,
            c_board: 100e-6,
            c_node_gnd: 100e-9,
        }
    }
}

impl PdnParams {
    /// Default parameters for an `n_layers` × `n_columns` stack. The board
    /// supply scales with the stack depth so every layer still sees the
    /// nominal per-layer voltage (`vdd_stack / n_layers` is held at the
    /// 4-layer default's 4.1 V / 4 = 1.025 V); all parasitics keep their
    /// calibrated defaults. `with_geometry(4, 4)` is bit-identical to
    /// [`PdnParams::default`].
    pub fn with_geometry(n_layers: usize, n_columns: usize) -> Self {
        let base = PdnParams::default();
        let per_layer_v = base.vdd_stack / base.n_layers as f64;
        PdnParams {
            n_layers,
            n_columns,
            vdd_stack: per_layer_v * n_layers as f64,
            ..base
        }
    }

    /// Total SM count.
    pub fn n_sms(&self) -> usize {
        self.n_layers * self.n_columns
    }

    /// Checks invariants.
    ///
    /// # Panics
    ///
    /// Panics on degenerate topologies or non-positive electrical values.
    pub fn validate(&self) {
        assert!(self.n_layers >= 2 && self.n_columns >= 1);
        assert!(self.vdd_stack > 0.0 && self.v_sm > 0.0);
        for v in [
            self.r_board,
            self.l_board,
            self.r_pkg,
            self.l_pkg,
            self.r_gnd,
            self.l_gnd,
            self.r_lateral,
            self.r_sm_grid,
            self.c_layer,
            self.c_board,
            self.c_node_gnd,
        ] {
            assert!(v > 0.0 && v.is_finite());
        }
    }
}

/// Delivery voltage at the die for the single-layer IVR configuration; the
/// on-chip IVR steps it down to the SM's 1 V (handled analytically by the
/// co-simulation's energy ledger).
pub const IVR_DELIVERY_V: f64 = 1.7;

/// Load-dependent efficiency of the board-level step-down VRM (a
/// multi-phase buck). Peaks mid-load and sags toward both extremes;
/// calibrated so a typical GPU load sees ~87 %, anchoring conventional PDE
/// near 80 % once IR loss is added.
pub fn vrm_efficiency(load_frac: f64) -> f64 {
    let x = load_frac.clamp(0.0, 1.2);
    let eta = 0.885 - 0.06 * (x - 0.45) * (x - 0.45) - 0.012 / (x + 0.08);
    eta.clamp(0.70, 0.89)
}

/// Load-dependent efficiency of a single-layer on-chip switched-capacitor
/// IVR (FIVR-style), anchoring single-layer-IVR PDE near 85 %.
pub fn ivr_efficiency(load_frac: f64) -> f64 {
    let x = load_frac.clamp(0.0, 1.2);
    let eta = 0.93 - 0.045 * (x - 0.5) * (x - 0.5) - 0.008 / (x + 0.1);
    eta.clamp(0.78, 0.93)
}

/// Fraction of delivered power spent in the level-shifted voltage-domain
/// interfaces of a stacked design (paper: < 6 % of memory/cache transistors;
/// switched-capacitor level shifters at 1 GHz). Charged only to stacked
/// configurations.
pub fn level_shifter_fraction() -> f64 {
    0.02
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PdnParams::default().validate();
        assert_eq!(PdnParams::default().n_sms(), 16);
    }

    #[test]
    fn geometry_constructor_matches_defaults_at_4x4() {
        assert_eq!(PdnParams::with_geometry(4, 4), PdnParams::default());
    }

    #[test]
    fn geometry_constructor_scales_supply_with_depth() {
        for (nl, nc) in [(2usize, 8usize), (8, 2), (4, 4)] {
            let p = PdnParams::with_geometry(nl, nc);
            p.validate();
            assert_eq!(p.n_sms(), nl * nc);
            // Per-layer supply share is geometry-invariant.
            let per_layer = p.vdd_stack / nl as f64;
            assert!((per_layer - 1.025).abs() < 1e-12, "per-layer {per_layer}");
        }
    }

    #[test]
    fn vrm_efficiency_is_sane() {
        for load in [0.1, 0.3, 0.5, 0.7, 1.0] {
            let e = vrm_efficiency(load);
            assert!((0.70..=0.90).contains(&e), "eta({load}) = {e}");
        }
        // Typical operating range lands near 87%.
        let typ = vrm_efficiency(0.6);
        assert!((0.85..=0.89).contains(&typ), "typical {typ}");
        // Light load is worse than mid load.
        assert!(vrm_efficiency(0.05) < vrm_efficiency(0.5));
    }

    #[test]
    fn ivr_beats_vrm() {
        for load in [0.2, 0.4, 0.6, 0.8, 1.0] {
            assert!(ivr_efficiency(load) > vrm_efficiency(load), "load {load}");
        }
    }

    #[test]
    fn level_shifter_overhead_is_small() {
        assert!(level_shifter_fraction() < 0.06);
        assert!(level_shifter_fraction() > 0.0);
    }
}
