//! # vs-power — GPUWattch-style power model
//!
//! Converts the timing simulator's per-cycle microarchitectural events
//! ([`vs_gpu::SmCycleStats`]) into per-SM power, the quantity the
//! voltage-stacking co-simulation feeds into the power-delivery network as
//! load currents.
//!
//! The energy table is calibrated for a 40 nm Fermi-class SM at 700 MHz and
//! 1 V: an average benchmark issues 0.8–1.8 warps/cycle and lands near
//! 7–8 W per SM (the paper's SM grid carries ~93 % of average GPU power),
//! with compute-dense peaks around 12 W.
//!
//! # Examples
//!
//! ```
//! use vs_power::PowerModel;
//! use vs_gpu::SmCycleStats;
//!
//! let model = PowerModel::fermi_40nm();
//! let idle = SmCycleStats { active: true, ..SmCycleStats::default() };
//! let p_idle = model.sm_power_w(&idle);
//! let busy = SmCycleStats {
//!     active: true,
//!     issued_sp: 2,
//!     issued_lsu: 1,
//!     l1_hits: 2,
//!     ..SmCycleStats::default()
//! };
//! let p_busy = model.sm_power_w(&busy);
//! assert!(p_busy.total() > p_idle.total());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use vs_gpu::SmCycleStats;

/// Per-event energies and static power of one SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// Energy of one SP warp instruction (32 lanes incl. RF traffic), joules.
    pub e_sp: f64,
    /// Energy of one SFU warp instruction, joules.
    pub e_sfu: f64,
    /// Energy of one LSU warp instruction (address path), joules.
    pub e_lsu: f64,
    /// Energy of a fake (injected) instruction — an SP op without useful RF
    /// writeback, joules.
    pub e_fake: f64,
    /// Energy per L1 hit, joules.
    pub e_l1_hit: f64,
    /// Extra energy per L1 miss (downstream transaction launch), joules.
    pub e_l1_miss: f64,
    /// Energy per shared-memory access, joules.
    pub e_shared: f64,
    /// Extra energy per global store transaction batch, joules.
    pub e_store: f64,
    /// Extra energy per atomic, joules.
    pub e_atomic: f64,
    /// Energy to wake one power-gated execution unit (break-even cost),
    /// joules.
    pub e_wakeup: f64,
    /// Clock-tree + scheduler power while the SM is clocked, watts.
    pub p_base_active: f64,
    /// SM leakage, watts (zero when the whole SM is power-gated).
    pub p_leak_sm: f64,
    /// Leakage share of the SP pipelines (saved when gated), watts.
    pub p_leak_sp: f64,
    /// Leakage share of the SFU (saved when gated), watts.
    pub p_leak_sfu: f64,
    /// Leakage share of the LSU (saved when gated), watts.
    pub p_leak_lsu: f64,
}

/// Split of an SM's instantaneous power.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SmPower {
    /// Activity-proportional power, watts.
    pub dynamic_w: f64,
    /// Static power, watts.
    pub leakage_w: f64,
}

impl SmPower {
    /// Total power in watts.
    pub fn total(&self) -> f64 {
        self.dynamic_w + self.leakage_w
    }
}

/// The power model: energy table + clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    table: EnergyTable,
    clock_hz: f64,
    v_nominal: f64,
}

impl PowerModel {
    /// The calibrated 40 nm Fermi-class model at 700 MHz / 1 V.
    pub fn fermi_40nm() -> Self {
        PowerModel {
            table: EnergyTable {
                e_sp: 5.0e-9,
                e_sfu: 6.5e-9,
                e_lsu: 3.0e-9,
                e_fake: 4.5e-9,
                e_l1_hit: 1.0e-9,
                e_l1_miss: 2.0e-9,
                e_shared: 1.8e-9,
                e_store: 1.2e-9,
                e_atomic: 3.5e-9,
                e_wakeup: 20.0e-9,
                p_base_active: 2.0,
                p_leak_sm: 1.5,
                p_leak_sp: 0.55,
                p_leak_sfu: 0.15,
                p_leak_lsu: 0.25,
            },
            clock_hz: 700e6,
            v_nominal: 1.0,
        }
    }

    /// Builds a model from an explicit table.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` or `v_nominal` is not positive.
    pub fn new(table: EnergyTable, clock_hz: f64, v_nominal: f64) -> Self {
        assert!(clock_hz > 0.0 && v_nominal > 0.0);
        PowerModel {
            table,
            clock_hz,
            v_nominal,
        }
    }

    /// The energy table.
    pub fn table(&self) -> &EnergyTable {
        &self.table
    }

    /// Nominal SM supply voltage, volts.
    pub fn v_nominal(&self) -> f64 {
        self.v_nominal
    }

    /// The clock frequency the energies are calibrated at, hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Instantaneous power of one SM given this cycle's events.
    ///
    /// An inactive (clock-masked or DFS-skipped) cycle burns no dynamic
    /// power but keeps leaking; gated execution units subtract their leakage
    /// share. Whole-SM gating is handled by [`PowerModel::gated_sm_power_w`].
    pub fn sm_power_w(&self, s: &SmCycleStats) -> SmPower {
        let t = &self.table;
        let mut leakage = t.p_leak_sm;
        if s.sp_gated {
            leakage -= t.p_leak_sp;
        }
        if s.sfu_gated {
            leakage -= t.p_leak_sfu;
        }
        if s.lsu_gated {
            leakage -= t.p_leak_lsu;
        }
        if !s.active {
            return SmPower {
                dynamic_w: 0.0,
                leakage_w: leakage,
            };
        }
        let energy = t.e_sp * f64::from(s.issued_sp)
            + t.e_sfu * f64::from(s.issued_sfu)
            + t.e_lsu * f64::from(s.issued_lsu)
            + t.e_fake * f64::from(s.issued_fake)
            + t.e_l1_hit * f64::from(s.l1_hits)
            + t.e_l1_miss * f64::from(s.l1_misses)
            + t.e_shared * f64::from(s.shared_accesses)
            + t.e_store * f64::from(s.stores)
            + t.e_atomic * f64::from(s.atomics)
            + t.e_wakeup * f64::from(s.unit_wakeups);
        SmPower {
            dynamic_w: energy * self.clock_hz + t.p_base_active,
            leakage_w: leakage,
        }
    }

    /// Power of a whole-SM-gated SM (retention cells only).
    pub fn gated_sm_power_w(&self) -> SmPower {
        SmPower {
            dynamic_w: 0.0,
            leakage_w: 0.05 * self.table.p_leak_sm,
        }
    }

    /// Scales power with supply voltage (`P_dyn ∝ V²`, leakage ≈ linear),
    /// for co-simulation modes that couple power back to the instantaneous
    /// layer voltage.
    pub fn voltage_scaled(&self, power: SmPower, v: f64) -> SmPower {
        let ratio = (v / self.v_nominal).max(0.0);
        SmPower {
            dynamic_w: power.dynamic_w * ratio * ratio,
            leakage_w: power.leakage_w * ratio,
        }
    }
}

/// Accumulates energy over a run, per SM.
#[derive(Debug, Clone)]
pub struct EnergyAccountant {
    dt_s: f64,
    dynamic_j: Vec<f64>,
    leakage_j: Vec<f64>,
    cycles: u64,
}

impl EnergyAccountant {
    /// Creates an accountant for `n_sms` SMs stepping `dt_s` per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive.
    pub fn new(n_sms: usize, dt_s: f64) -> Self {
        assert!(dt_s > 0.0);
        EnergyAccountant {
            dt_s,
            dynamic_j: vec![0.0; n_sms],
            leakage_j: vec![0.0; n_sms],
            cycles: 0,
        }
    }

    /// Records one cycle's per-SM power.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the SM count.
    pub fn record(&mut self, powers: &[SmPower]) {
        assert_eq!(powers.len(), self.dynamic_j.len());
        for (i, p) in powers.iter().enumerate() {
            self.dynamic_j[i] += p.dynamic_w * self.dt_s;
            self.leakage_j[i] += p.leakage_w * self.dt_s;
        }
        self.cycles += 1;
    }

    /// Total dynamic energy, joules.
    pub fn dynamic_j(&self) -> f64 {
        self.dynamic_j.iter().sum()
    }

    /// Total leakage energy, joules.
    pub fn leakage_j(&self) -> f64 {
        self.leakage_j.iter().sum()
    }

    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j() + self.leakage_j()
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average total power over the recorded interval, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_j() / (self.cycles as f64 * self.dt_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_cycle() -> SmCycleStats {
        SmCycleStats {
            active: true,
            issued_sp: 2,
            issued_lsu: 1,
            l1_hits: 1,
            l1_misses: 1,
            ..SmCycleStats::default()
        }
    }

    #[test]
    fn average_sm_power_is_in_calibrated_range() {
        let m = PowerModel::fermi_40nm();
        let mut acc = EnergyAccountant::new(1, 1.0 / 700e6);
        for i in 0..1_000u32 {
            let s = if i % 3 == 0 {
                SmCycleStats {
                    active: true,
                    issued_sp: 1,
                    ..SmCycleStats::default()
                }
            } else {
                SmCycleStats {
                    active: true,
                    issued_sp: 1,
                    issued_lsu: 1,
                    l1_hits: 1,
                    ..SmCycleStats::default()
                }
            };
            acc.record(&[m.sm_power_w(&s)]);
        }
        let avg = acc.average_power_w();
        assert!((5.0..=10.0).contains(&avg), "avg SM power {avg} W");
    }

    #[test]
    fn peak_power_exceeds_average() {
        let m = PowerModel::fermi_40nm();
        let peak = m.sm_power_w(&SmCycleStats {
            active: true,
            issued_sp: 2,
            issued_sfu: 1,
            issued_lsu: 1,
            l1_hits: 2,
            l1_misses: 2,
            shared_accesses: 2,
            ..SmCycleStats::default()
        });
        assert!(peak.total() > 10.0, "peak {}", peak.total());
        assert!(peak.total() < 25.0, "peak {}", peak.total());
    }

    #[test]
    fn inactive_cycle_burns_only_leakage() {
        let m = PowerModel::fermi_40nm();
        let p = m.sm_power_w(&SmCycleStats::default());
        assert_eq!(p.dynamic_w, 0.0);
        assert!((p.leakage_w - m.table().p_leak_sm).abs() < 1e-12);
    }

    #[test]
    fn unit_gating_saves_leakage() {
        let m = PowerModel::fermi_40nm();
        let ungated = m.sm_power_w(&busy_cycle());
        let gated = m.sm_power_w(&SmCycleStats {
            sfu_gated: true,
            lsu_gated: true,
            ..busy_cycle()
        });
        let saved = ungated.leakage_w - gated.leakage_w;
        assert!((saved - (0.15 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn wakeups_cost_energy() {
        let m = PowerModel::fermi_40nm();
        let base = m.sm_power_w(&busy_cycle());
        let woke = m.sm_power_w(&SmCycleStats {
            unit_wakeups: 1,
            ..busy_cycle()
        });
        assert!(woke.dynamic_w > base.dynamic_w);
    }

    #[test]
    fn fake_instructions_burn_power() {
        let m = PowerModel::fermi_40nm();
        let with_fake = m.sm_power_w(&SmCycleStats {
            active: true,
            issued_fake: 2,
            ..SmCycleStats::default()
        });
        let without = m.sm_power_w(&SmCycleStats {
            active: true,
            ..SmCycleStats::default()
        });
        assert!(with_fake.dynamic_w > without.dynamic_w);
    }

    #[test]
    fn voltage_scaling_is_quadratic() {
        let m = PowerModel::fermi_40nm();
        let p = m.sm_power_w(&busy_cycle());
        let scaled = m.voltage_scaled(p, 0.9);
        assert!((scaled.dynamic_w / p.dynamic_w - 0.81).abs() < 1e-12);
        assert!((scaled.leakage_w / p.leakage_w - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gated_sm_power_is_tiny() {
        let m = PowerModel::fermi_40nm();
        assert!(m.gated_sm_power_w().total() < 0.1);
    }

    #[test]
    fn accountant_sums_energy() {
        let m = PowerModel::fermi_40nm();
        let mut acc = EnergyAccountant::new(2, 1e-9);
        let p = m.sm_power_w(&busy_cycle());
        acc.record(&[p, p]);
        acc.record(&[p, p]);
        assert_eq!(acc.cycles(), 2);
        let expected = 2.0 * 2.0 * p.total() * 1e-9;
        assert!((acc.total_j() - expected).abs() < 1e-15);
        assert!((acc.average_power_w() - 2.0 * p.total()).abs() < 1e-9);
    }
}
