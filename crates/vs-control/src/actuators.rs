//! Voltage-smoothing actuation mechanisms (paper Section IV-C).
//!
//! Three mechanisms are fast enough (sub-hundreds of cycles, Fig. 5) to
//! close the architecture-level loop:
//!
//! * **DIWS** — dynamic issue width scaling: throttle a drooping SM's warp
//!   issue width below its 2 warp/cycle maximum.
//! * **FII** — fake instruction injection: issue no-op work on an
//!   *under-drawing* SM to raise its current.
//! * **DCC** — dynamic current compensation: a binary-weighted on-die
//!   current DAC adds ballast current; costs area and leakage, so it is
//!   weighted last.
//!
//! The controller emits a weighted combination (eq. (9)); this module holds
//! the weight vector, the per-mechanism response-time constants (Fig. 5),
//! and the conversion from an abstract power request to concrete actuator
//! settings.


/// Weights `(w1, w2, w3)` applied to DIWS, FII, and DCC respectively in the
/// control-input combination of eq. (9). They are relative shares and are
/// normalized on use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuatorWeights {
    /// Share of the actuation delivered by issue-width scaling.
    pub diws: f64,
    /// Share delivered by fake-instruction injection.
    pub fii: f64,
    /// Share delivered by current-DAC compensation.
    pub dcc: f64,
}

impl ActuatorWeights {
    /// Pure DIWS (the paper's default configuration).
    pub const DIWS_ONLY: ActuatorWeights = ActuatorWeights {
        diws: 1.0,
        fii: 0.0,
        dcc: 0.0,
    };
    /// Pure FII.
    pub const FII_ONLY: ActuatorWeights = ActuatorWeights {
        diws: 0.0,
        fii: 1.0,
        dcc: 0.0,
    };
    /// Pure DCC.
    pub const DCC_ONLY: ActuatorWeights = ActuatorWeights {
        diws: 0.0,
        fii: 0.0,
        dcc: 1.0,
    };

    /// Creates a weight vector.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or all are zero.
    pub fn new(diws: f64, fii: f64, dcc: f64) -> Self {
        assert!(diws >= 0.0 && fii >= 0.0 && dcc >= 0.0, "weights must be non-negative");
        assert!(diws + fii + dcc > 0.0, "at least one weight must be positive");
        ActuatorWeights { diws, fii, dcc }
    }

    /// Returns the weights normalized to sum to one.
    pub fn normalized(self) -> Self {
        let s = self.diws + self.fii + self.dcc;
        ActuatorWeights {
            diws: self.diws / s,
            fii: self.fii / s,
            dcc: self.dcc / s,
        }
    }

    /// Appends this value's stable identity key: the bit patterns of every
    /// field, in declaration order. Two weight vectors push the same words
    /// iff they are bit-identical, so the key is safe to use as a cache
    /// identity (unlike `Debug` output, whose formatting can elide or
    /// reorder fields as the struct evolves). The exhaustive destructuring
    /// makes adding a field without extending the key a compile error.
    pub fn stable_key_into(&self, out: &mut Vec<u64>) {
        let ActuatorWeights { diws, fii, dcc } = *self;
        out.extend([diws.to_bits(), fii.to_bits(), dcc.to_bits()]);
    }
}

impl Default for ActuatorWeights {
    fn default() -> Self {
        ActuatorWeights::DIWS_ONLY
    }
}

/// Response-time scales of GPU power-actuation mechanisms (paper Fig. 5), in
/// GPU clock cycles. Mechanisms slower than a few hundred cycles cannot
/// close the voltage-smoothing loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActuationTimescales;

impl ActuationTimescales {
    /// DCC: a current DAC settles within a cycle.
    pub const DCC_CYCLES: u32 = 1;
    /// DIWS: takes effect at the next issue slot.
    pub const DIWS_CYCLES: u32 = 2;
    /// FII: same path as ordinary issue.
    pub const FII_CYCLES: u32 = 2;
    /// Power gating: requires drain/restore, ~1 000+ cycles.
    pub const POWER_GATING_CYCLES: u32 = 1_500;
    /// Thread migration: context movement, >1 000 cycles.
    pub const THREAD_MIGRATION_CYCLES: u32 = 3_000;
    /// DFS: DPLL re-lock, on the order of milliseconds (~700 000 cycles at
    /// 700 MHz).
    pub const DFS_CYCLES: u32 = 700_000;

    /// True when a mechanism with the given response time can serve the
    /// voltage-smoothing loop (the paper requires at most hundreds of
    /// cycles).
    pub fn fast_enough(cycles: u32) -> bool {
        cycles <= 300
    }
}

/// Per-SM actuation command produced by the voltage-smoothing controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmCommand {
    /// Target average issue width in warps/cycle, within `0..=issue_max`.
    /// Fractional values are realized by the issue adjuster's down-counter
    /// (e.g. 1.7 = 17 issues per 10 cycles).
    pub issue_width: f64,
    /// Fake instructions to inject per cycle, within `0..=2`.
    pub fake_rate: f64,
    /// DCC ballast power to draw on this SM's layer, in watts.
    pub dcc_power_w: f64,
}

impl SmCommand {
    /// The neutral command: full issue width, no injection, no ballast.
    pub fn idle(issue_max: f64) -> Self {
        SmCommand {
            issue_width: issue_max,
            fake_rate: 0.0,
            dcc_power_w: 0.0,
        }
    }

    /// True when the command does not perturb the SM.
    pub fn is_neutral(&self, issue_max: f64) -> bool {
        (self.issue_width - issue_max).abs() < 1e-12
            && self.fake_rate == 0.0
            && self.dcc_power_w == 0.0
    }
}

/// The issue adjuster's down-counter quantization: an average width `w` over
/// a window of `window` cycles becomes `round(w * window)` issue grants.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn quantize_issue_width(width: f64, window: u32) -> u32 {
    assert!(window > 0);
    (width.max(0.0) * f64::from(window)).round() as u32
}

/// Binary-weighted DCC current DAC with `bits` bits and unit (LSB) power
/// `p_unit_w` (the paper's `P_d0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DccDac {
    /// Resolution in bits.
    pub bits: u32,
    /// Power of the least-significant bit, watts.
    pub p_unit_w: f64,
    /// Static leakage overhead while enabled, watts.
    pub leakage_w: f64,
}

impl DccDac {
    /// Creates a DAC.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or 32+, or powers are negative.
    pub fn new(bits: u32, p_unit_w: f64, leakage_w: f64) -> Self {
        assert!(bits > 0 && bits < 32);
        assert!(p_unit_w >= 0.0 && leakage_w >= 0.0);
        DccDac {
            bits,
            p_unit_w,
            leakage_w,
        }
    }

    /// Maximum ballast power, watts.
    pub fn max_power_w(&self) -> f64 {
        self.p_unit_w * f64::from(2u32.pow(self.bits) - 1)
    }

    /// Quantizes a power request to the nearest DAC code.
    pub fn code_for(&self, power_w: f64) -> u32 {
        if self.p_unit_w == 0.0 {
            return 0;
        }
        let max_code = 2u32.pow(self.bits) - 1;
        ((power_w / self.p_unit_w).round().max(0.0) as u32).min(max_code)
    }

    /// Power produced by a DAC code, watts.
    pub fn power_for(&self, code: u32) -> f64 {
        self.p_unit_w * f64::from(code.min(2u32.pow(self.bits) - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_normalize() {
        let w = ActuatorWeights::new(0.8, 0.2, 0.0).normalized();
        assert!((w.diws - 0.8).abs() < 1e-12);
        assert!((w.fii - 0.2).abs() < 1e-12);
        let w2 = ActuatorWeights::new(2.0, 1.0, 1.0).normalized();
        assert!((w2.diws - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn zero_weights_rejected() {
        let _ = ActuatorWeights::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn timescale_screening_matches_paper() {
        // DIWS / FII / DCC qualify; PG, migration and DFS do not (Fig. 5).
        assert!(ActuationTimescales::fast_enough(ActuationTimescales::DIWS_CYCLES));
        assert!(ActuationTimescales::fast_enough(ActuationTimescales::FII_CYCLES));
        assert!(ActuationTimescales::fast_enough(ActuationTimescales::DCC_CYCLES));
        assert!(!ActuationTimescales::fast_enough(ActuationTimescales::POWER_GATING_CYCLES));
        assert!(!ActuationTimescales::fast_enough(ActuationTimescales::THREAD_MIGRATION_CYCLES));
        assert!(!ActuationTimescales::fast_enough(ActuationTimescales::DFS_CYCLES));
    }

    #[test]
    fn issue_quantization_example_from_paper() {
        // "if the issue width is set to 1.7 instructions per cycle, it is
        //  adjusted by setting the down-counter ... to 17, with a reset every
        //  10 cycles."
        assert_eq!(quantize_issue_width(1.7, 10), 17);
        assert_eq!(quantize_issue_width(2.0, 10), 20);
        assert_eq!(quantize_issue_width(-0.5, 10), 0);
    }

    #[test]
    fn dac_quantization_saturates() {
        let dac = DccDac::new(4, 0.1, 0.01);
        assert_eq!(dac.code_for(0.0), 0);
        assert_eq!(dac.code_for(0.55), 6);
        assert_eq!(dac.code_for(100.0), 15);
        assert!((dac.max_power_w() - 1.5).abs() < 1e-12);
        assert!((dac.power_for(7) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn neutral_command() {
        let c = SmCommand::idle(2.0);
        assert!(c.is_neutral(2.0));
        let d = SmCommand {
            issue_width: 1.5,
            ..c
        };
        assert!(!d.is_neutral(2.0));
    }
}
