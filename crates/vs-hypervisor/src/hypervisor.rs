//! The VS-aware power-management hypervisor (paper Algorithm 2).
//!
//! Sits between the OS-level power optimizers (DFS, power gating) and the
//! voltage-stacked GPU. Frequency and gating commands are remapped so the
//! power drawn by vertically-stacked SMs in the same column never diverges
//! beyond a budget — large divergence would force the CR-IVR to shuttle the
//! difference (energy loss) or trigger voltage-smoothing throttles
//! (performance loss). The budget adapts to observed smoothing activity.


/// Hypervisor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypervisorConfig {
    /// Stack layers (4).
    pub n_layers: usize,
    /// Columns (4).
    pub n_columns: usize,
    /// Base clock, hertz.
    pub base_hz: f64,
    /// Baseline allowed frequency spread within a column, hertz.
    pub f_threshold_hz: f64,
    /// Baseline allowed per-column spread of gated-SM counts
    /// (leakage-imbalance proxy).
    pub gate_threshold: usize,
}

impl Default for HypervisorConfig {
    fn default() -> Self {
        HypervisorConfig {
            n_layers: 4,
            n_columns: 4,
            base_hz: 700e6,
            f_threshold_hz: 150e6,
            gate_threshold: 1,
        }
    }
}

/// Outcome of one command-mapping pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MappingStats {
    /// SM frequencies raised to respect the imbalance budget.
    pub freq_adjustments: usize,
    /// Gating requests vetoed.
    pub gates_vetoed: usize,
}

/// The Algorithm-2 command mapper.
#[derive(Debug, Clone)]
pub struct VsAwareHypervisor {
    cfg: HypervisorConfig,
    /// Dynamic budget scale in `[0.5, 2]`; shrinks when voltage smoothing is
    /// throttling a lot (be stricter) and relaxes when it is quiet.
    budget_scale: f64,
}

impl VsAwareHypervisor {
    /// Creates a hypervisor.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate topology.
    pub fn new(cfg: HypervisorConfig) -> Self {
        assert!(cfg.n_layers >= 2 && cfg.n_columns >= 1);
        VsAwareHypervisor {
            cfg,
            budget_scale: 1.0,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> HypervisorConfig {
        self.cfg
    }

    /// Current frequency-spread budget, hertz.
    pub fn freq_budget_hz(&self) -> f64 {
        self.cfg.f_threshold_hz * self.budget_scale
    }

    /// Feeds back the voltage-smoothing throttle fraction (from
    /// `vs_control::VoltageController::throttle_fraction`): heavy throttling
    /// tightens the imbalance budget, idle smoothing relaxes it (the paper's
    /// dynamic budget adjustment).
    pub fn observe_throttle_fraction(&mut self, frac: f64) {
        let f = frac.clamp(0.0, 1.0);
        // Map 0 -> relax toward 2.0, 0.2+ -> tighten toward 0.5.
        let target = if f > 0.2 { 0.5 } else { 2.0 - 7.5 * f };
        self.budget_scale += 0.25 * (target - self.budget_scale);
        self.budget_scale = self.budget_scale.clamp(0.5, 2.0);
    }

    /// Remaps per-SM frequency and gating commands (layer-major, length
    /// `n_layers * n_columns`) in place so each column respects the
    /// imbalance budget. Returns what was changed.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the topology.
    pub fn map_commands(&self, freq_hz: &mut [f64], gate: &mut [bool]) -> MappingStats {
        let n = self.cfg.n_layers * self.cfg.n_columns;
        assert_eq!(freq_hz.len(), n);
        assert_eq!(gate.len(), n);
        let mut stats = MappingStats::default();
        let budget = self.freq_budget_hz();

        for col in 0..self.cfg.n_columns {
            let idx = |layer: usize| layer * self.cfg.n_columns + col;
            // Frequency: raise stragglers to within `budget` of the column
            // max (Algorithm 2 raises the slow SM rather than slowing the
            // fast one, preserving the performance optimum).
            let f_max = (0..self.cfg.n_layers)
                .map(|l| freq_hz[idx(l)])
                .fold(0.0, f64::max);
            for l in 0..self.cfg.n_layers {
                let i = idx(l);
                if f_max - freq_hz[i] > budget {
                    freq_hz[i] = f_max - budget;
                    stats.freq_adjustments += 1;
                }
            }
            // Gating: bound the spread of gated-SM counts per layer within
            // the column. With one SM per (layer, column) this reduces to:
            // veto gating unless the whole column gates together or the
            // threshold allows the spread.
            let gated: usize = (0..self.cfg.n_layers).map(|l| usize::from(gate[idx(l)])).sum();
            let ungated = self.cfg.n_layers - gated;
            if gated > 0 && ungated > 0 && gated.min(ungated) > 0 {
                // Mixed column: allowed only if the minority side is within
                // the gate threshold.
                let spread_ok = gated <= self.cfg.gate_threshold
                    || ungated <= self.cfg.gate_threshold;
                if !spread_ok {
                    for l in 0..self.cfg.n_layers {
                        let i = idx(l);
                        if gate[i] {
                            gate[i] = false;
                            stats.gates_vetoed += 1;
                        }
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv() -> VsAwareHypervisor {
        VsAwareHypervisor::new(HypervisorConfig::default())
    }

    #[test]
    fn uniform_commands_pass_through() {
        let h = hv();
        let mut f = vec![500e6; 16];
        let mut g = vec![false; 16];
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats, MappingStats::default());
        assert!(f.iter().all(|x| (*x - 500e6).abs() < 1.0));
    }

    #[test]
    fn straggler_frequency_is_raised() {
        let h = hv();
        let mut f = vec![700e6; 16];
        f[0] = 200e6; // SM(0,0): 500 MHz below its column peers
        let mut g = vec![false; 16];
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats.freq_adjustments, 1);
        assert!((f[0] - (700e6 - h.freq_budget_hz())).abs() < 1.0);
    }

    #[test]
    fn spread_within_budget_untouched() {
        let h = hv();
        let mut f = vec![700e6; 16];
        f[4] = 600e6; // 100 MHz below: inside the 150 MHz budget
        let mut g = vec![false; 16];
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats.freq_adjustments, 0);
        assert!((f[4] - 600e6).abs() < 1.0);
    }

    #[test]
    fn balanced_split_gating_is_vetoed() {
        let h = hv();
        let mut f = vec![700e6; 16];
        // Column 0: two of four layers gated -> a 2 vs 2 split exceeds the
        // gate threshold of 1 on both sides, so the gates are vetoed.
        let mut g = vec![false; 16];
        g[0] = true;
        g[4] = true;
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats.gates_vetoed, 2);
        assert!(!g[0] && !g[4]);
    }

    #[test]
    fn three_vs_one_gating_is_allowed() {
        // 3 gated vs 1 ungated has the same imbalance magnitude as 1 vs 3:
        // one layer differs from the rest, within the threshold.
        let h = hv();
        let mut f = vec![700e6; 16];
        let mut g = vec![false; 16];
        g[0] = true;
        g[4] = true;
        g[8] = true;
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats.gates_vetoed, 0);
    }

    #[test]
    fn single_gate_within_threshold_allowed() {
        let h = hv();
        let mut f = vec![700e6; 16];
        let mut g = vec![false; 16];
        g[0] = true; // 1 vs 3: minority side within threshold 1
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats.gates_vetoed, 0);
        assert!(g[0]);
    }

    #[test]
    fn whole_column_gating_allowed() {
        let h = hv();
        let mut f = vec![700e6; 16];
        let mut g = vec![false; 16];
        for l in 0..4 {
            g[l * 4] = true; // all of column 0
        }
        let stats = h.map_commands(&mut f, &mut g);
        assert_eq!(stats.gates_vetoed, 0);
    }

    #[test]
    fn budget_tightens_under_throttling() {
        let mut h = hv();
        let relaxed = h.freq_budget_hz();
        for _ in 0..20 {
            h.observe_throttle_fraction(0.5);
        }
        let tight = h.freq_budget_hz();
        assert!(tight < relaxed, "{tight} !< {relaxed}");
        for _ in 0..40 {
            h.observe_throttle_fraction(0.0);
        }
        assert!(h.freq_budget_hz() > tight);
    }
}
