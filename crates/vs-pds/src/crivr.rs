//! Charge-recycling integrated voltage regulator (CR-IVR) configuration.
//!
//! The CR-IVR is a reconfigurable switched-capacitor ladder (paper Fig. 2)
//! distributed as four sub-IVRs whose outputs feed each SM column. Its
//! regulation strength is the effective conductance `G = f_sw * C_fly`,
//! which scales linearly with the flying-capacitor area — the basis of the
//! paper's area/reliability trade-off (Table III, Figs. 9–10).


use crate::area::AreaModel;

/// CR-IVR sizing and electrical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrIvrConfig {
    /// Total die area spent on the CR-IVR, mm².
    pub area_mm2: f64,
    /// Switching frequency, hertz.
    pub f_sw_hz: f64,
    /// Number of distributed sub-IVRs (one per column; Fig. 2 uses 4).
    pub n_sub_ivrs: usize,
    /// Fixed overhead power per siemens of regulation capacity (gate drive
    /// and control), watts per siemens.
    pub overhead_w_per_siemens: f64,
}

impl CrIvrConfig {
    /// A CR-IVR sized to `multiple` of the GPU die area (the paper speaks in
    /// these units: 0.2x, 0.8x, 1x, 2x).
    pub fn sized_by_gpu_area(multiple: f64, area_model: &AreaModel) -> Self {
        CrIvrConfig {
            area_mm2: multiple * area_model.gpu_die_mm2,
            f_sw_hz: 100e6,
            n_sub_ivrs: 4,
            overhead_w_per_siemens: 0.004,
        }
    }

    /// The paper's chosen cross-layer operating point: 0.2x GPU area.
    pub fn cross_layer_default(area_model: &AreaModel) -> Self {
        Self::sized_by_gpu_area(0.2, area_model)
    }

    /// Total effective conductance `G` in siemens for this area.
    pub fn total_conductance(&self, area_model: &AreaModel) -> f64 {
        area_model.conductance_for_area(self.area_mm2)
    }

    /// Static overhead power of the regulator (control + gate drive), watts.
    pub fn overhead_power_w(&self, area_model: &AreaModel) -> f64 {
        self.overhead_w_per_siemens * self.total_conductance(area_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_circuit::{Integration, Netlist, Transient, Waveform};

    #[test]
    fn conductance_scales_linearly_with_area() {
        let am = AreaModel::default();
        let small = CrIvrConfig::sized_by_gpu_area(0.2, &am);
        let large = CrIvrConfig::sized_by_gpu_area(2.0, &am);
        let ratio = large.total_conductance(&am) / small.total_conductance(&am);
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn averaged_model_matches_discrete_switched_ladder() {
        // Validation of the averaged ChargeRecycler element: a two-layer
        // stack regulated by an explicit two-phase switched flying capacitor
        // must settle to (nearly) the same midpoint voltage as the averaged
        // G = f_sw * C_fly model.
        let f_sw = 50e6;
        let c_fly = 100e-9;
        let g = f_sw * c_fly; // 5 S

        // Averaged model.
        let mid_avg = {
            let mut net = Netlist::new();
            let top = net.node("top");
            let mid = net.node("mid");
            net.voltage_source(top, Netlist::GROUND, 2.0);
            net.capacitor(top, mid, 1e-6);
            net.capacitor(mid, Netlist::GROUND, 1e-6);
            net.current_source(top, mid, Waveform::Dc(2.0));
            net.current_source(mid, Netlist::GROUND, Waveform::Dc(0.5));
            net.charge_recycler(top, mid, Netlist::GROUND, g);
            let v0 = vec![0.0, 2.0, 1.0];
            let mut sim =
                Transient::with_initial_state(&net, 1e-9, Integration::Trapezoidal, &v0, &[0.0])
                    .unwrap();
            sim.run(20_000).unwrap();
            sim.voltage(mid)
        };

        // Discrete switched ladder: flying cap alternates across the upper
        // and lower layer through switches toggled at f_sw.
        let mid_disc = {
            let mut net = Netlist::new();
            let top = net.node("top");
            let mid = net.node("mid");
            let fly_p = net.node("fly_p");
            let fly_n = net.node("fly_n");
            net.voltage_source(top, Netlist::GROUND, 2.0);
            net.capacitor(top, mid, 1e-6);
            net.capacitor(mid, Netlist::GROUND, 1e-6);
            net.current_source(top, mid, Waveform::Dc(2.0));
            net.current_source(mid, Netlist::GROUND, Waveform::Dc(0.5));
            net.capacitor(fly_p, fly_n, c_fly);
            // Phase A switches: fly across (top, mid).
            let sa1 = net.switch(fly_p, top, 1e-3, 1e9, true);
            let sa2 = net.switch(fly_n, mid, 1e-3, 1e9, true);
            // Phase B switches: fly across (mid, gnd).
            let sb1 = net.switch(fly_p, mid, 1e-3, 1e9, false);
            let sb2 = net.switch(fly_n, Netlist::GROUND, 1e-3, 1e9, false);
            // Bleed to keep the flying nodes defined at DC.
            net.resistor(fly_p, mid, 1e6);
            net.resistor(fly_n, Netlist::GROUND, 1e6);
            let v0 = vec![0.0, 2.0, 1.0, 2.0, 1.0];
            let mut sim =
                Transient::with_initial_state(&net, 1e-9, Integration::BackwardEuler, &v0, &[0.0])
                    .unwrap();
            let half_period_steps = (0.5 / f_sw / 1e-9) as usize; // 10 steps
            let mut phase_a = true;
            for _ in 0..2_000 {
                for _ in 0..half_period_steps {
                    sim.step().unwrap();
                }
                phase_a = !phase_a;
                sim.set_switch(sa1, phase_a).unwrap();
                sim.set_switch(sa2, phase_a).unwrap();
                sim.set_switch(sb1, !phase_a).unwrap();
                sim.set_switch(sb2, !phase_a).unwrap();
            }
            sim.voltage(mid)
        };

        // Both regulate the midpoint toward 1 V; they should agree within
        // ~10 % of the deviation scale.
        assert!(
            (mid_avg - mid_disc).abs() < 0.12,
            "averaged {mid_avg} vs discrete {mid_disc}"
        );
        // And both must actually be regulating (imbalance is 1.5 A; without
        // regulation the midpoint would collapse far from 1 V).
        assert!((mid_avg - 1.0).abs() < 0.45, "averaged not regulating: {mid_avg}");
    }

    #[test]
    fn overhead_power_scales_with_size() {
        let am = AreaModel::default();
        let small = CrIvrConfig::sized_by_gpu_area(0.2, &am);
        let large = CrIvrConfig::sized_by_gpu_area(1.0, &am);
        assert!(large.overhead_power_w(&am) > small.overhead_power_w(&am));
    }
}
