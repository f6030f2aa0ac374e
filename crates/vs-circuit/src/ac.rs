//! Small-signal AC (frequency-domain) analysis.
//!
//! For each angular frequency the complex modified-nodal-analysis system
//! `Y(jw) x = b` is assembled and solved exactly. Independent sources are
//! suppressed (voltage sources become shorts, current sources become opens)
//! and the caller injects its own small-signal current stimuli. This is how
//! the effective-impedance profiles of the paper's Fig. 3 are produced: the
//! impedance "seen" by a set of loads is the voltage response to a 1 A
//! stimulus distributed over those loads.

use vs_num::Complex;
use vs_num::{LuFactors, Matrix};
use crate::netlist::{Element, Netlist, NetlistError, NodeId};

/// A small-signal current injection: `amps` flowing from node `from` to node
/// `to` through the stimulus source (i.e. loading `from`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcStimulus {
    /// Node the stimulus draws current from.
    pub from: NodeId,
    /// Node the stimulus returns current to.
    pub to: NodeId,
    /// Stimulus magnitude in amperes (phasor, zero phase).
    pub amps: f64,
}

/// Result of one AC solve: complex node voltages.
#[derive(Debug, Clone)]
pub struct AcSolution {
    voltages: Vec<Complex>,
}

impl AcSolution {
    /// Complex phasor voltage of `node`.
    pub fn voltage(&self, node: NodeId) -> Complex {
        if node.index() == 0 {
            Complex::ZERO
        } else {
            self.voltages[node.index() - 1]
        }
    }

    /// Complex voltage difference `V(a) - V(b)`.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> Complex {
        self.voltage(a) - self.voltage(b)
    }
}

/// Frequency-domain analyzer over a fixed netlist.
///
/// # Examples
///
/// ```
/// use vs_circuit::{Netlist, AcAnalysis};
///
/// // Impedance of a parallel RC is R at DC and rolls off at high frequency.
/// let mut net = Netlist::new();
/// let n = net.node("n");
/// net.resistor(n, Netlist::GROUND, 50.0);
/// net.capacitor(n, Netlist::GROUND, 1e-9);
/// let ac = AcAnalysis::new(&net)?;
/// let z_low = ac.impedance(1.0, n, Netlist::GROUND)?;
/// let z_high = ac.impedance(1e9, n, Netlist::GROUND)?;
/// assert!((z_low.abs() - 50.0).abs() < 0.1);
/// assert!(z_high.abs() < 1.0);
/// # Ok::<(), vs_circuit::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct AcAnalysis {
    netlist: Netlist,
    n_node_vars: usize,
    group2: Vec<usize>,
}

impl AcAnalysis {
    /// Creates an analyzer for the given netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if the netlist is malformed.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        Ok(AcAnalysis {
            netlist: netlist.clone(),
            n_node_vars: netlist.n_nodes() - 1,
            group2: netlist.group2_elements(),
        })
    }

    fn assemble(&self, freq_hz: f64) -> Matrix<Complex> {
        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        let dim = self.n_node_vars + self.group2.len();
        let mut a = Matrix::zeros(dim, dim);
        let net = &self.netlist;
        let stamp_y = |a: &mut Matrix<Complex>, na: NodeId, nb: NodeId, y: Complex| {
            if let Some(i) = net.node_var(na) {
                a[(i, i)] += y;
            }
            if let Some(j) = net.node_var(nb) {
                a[(j, j)] += y;
            }
            if let (Some(i), Some(j)) = (net.node_var(na), net.node_var(nb)) {
                a[(i, j)] -= y;
                a[(j, i)] -= y;
            }
        };
        for (idx, e) in net.elements().iter().enumerate() {
            match *e {
                Element::Resistor { a: na, b: nb, ohms } => {
                    stamp_y(&mut a, na, nb, Complex::from_re(1.0 / ohms));
                }
                Element::Switch {
                    a: na,
                    b: nb,
                    r_on,
                    r_off,
                    closed,
                } => {
                    let r = if closed { r_on } else { r_off };
                    stamp_y(&mut a, na, nb, Complex::from_re(1.0 / r));
                }
                Element::Capacitor { a: na, b: nb, farads } => {
                    stamp_y(&mut a, na, nb, Complex::new(0.0, omega * farads));
                }
                Element::Inductor { a: na, b: nb, henries } => {
                    // Group-2: V(a) - V(b) - jwL * i = 0.
                    let k = self.group2_row(idx);
                    if let Some(i) = net.node_var(na) {
                        a[(k, i)] += Complex::ONE;
                        a[(i, k)] += Complex::ONE;
                    }
                    if let Some(j) = net.node_var(nb) {
                        a[(k, j)] -= Complex::ONE;
                        a[(j, k)] -= Complex::ONE;
                    }
                    a[(k, k)] -= Complex::new(0.0, omega * henries);
                }
                Element::VoltageSource { pos, neg, .. } => {
                    // AC-shorted: V(pos) - V(neg) = 0.
                    let k = self.group2_row(idx);
                    if let Some(i) = net.node_var(pos) {
                        a[(k, i)] += Complex::ONE;
                        a[(i, k)] += Complex::ONE;
                    }
                    if let Some(j) = net.node_var(neg) {
                        a[(k, j)] -= Complex::ONE;
                        a[(j, k)] -= Complex::ONE;
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
                            a[(i, j)] += Complex::from_re(v);
                        }
                    }
                }
                Element::CurrentSource { .. } => {} // open in small-signal
            }
        }
        a
    }

    #[inline]
    fn group2_row(&self, element_idx: usize) -> usize {
        self.n_node_vars
            + self
                .group2
                .iter()
                .position(|&g| g == element_idx)
                .expect("element is group-2")
    }

    /// Solves the network at `freq_hz` with the given current stimuli.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Singular`] if the complex system is singular
    /// at this frequency.
    pub fn solve(&self, freq_hz: f64, stimuli: &[AcStimulus]) -> Result<AcSolution, NetlistError> {
        let a = self.assemble(freq_hz);
        let lu = LuFactors::factor(&a).map_err(|_| NetlistError::Singular)?;
        let dim = self.n_node_vars + self.group2.len();
        let mut rhs = vec![Complex::ZERO; dim];
        for s in stimuli {
            if let Some(i) = self.netlist.node_var(s.from) {
                rhs[i] -= Complex::from_re(s.amps);
            }
            if let Some(j) = self.netlist.node_var(s.to) {
                rhs[j] += Complex::from_re(s.amps);
            }
        }
        lu.solve_in_place(&mut rhs);
        Ok(AcSolution {
            voltages: rhs[..self.n_node_vars].to_vec(),
        })
    }

    /// Driving-point impedance between two nodes at `freq_hz`: injects 1 A
    /// from `b` into `a` and reports `(V(a) - V(b))`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Singular`] if the system is singular.
    pub fn impedance(&self, freq_hz: f64, a: NodeId, b: NodeId) -> Result<Complex, NetlistError> {
        // A stimulus "from b to a" delivers current into node a.
        let sol = self.solve(
            freq_hz,
            &[AcStimulus {
                from: b,
                to: a,
                amps: 1.0,
            }],
        )?;
        Ok(sol.voltage_between(a, b))
    }

    /// Transfer impedance: response `V(sense_a) - V(sense_b)` to a unit
    /// current distributed over `stimuli` (whose amps are used as weights).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Singular`] if the system is singular.
    pub fn transfer_impedance(
        &self,
        freq_hz: f64,
        stimuli: &[AcStimulus],
        sense_a: NodeId,
        sense_b: NodeId,
    ) -> Result<Complex, NetlistError> {
        let sol = self.solve(freq_hz, stimuli)?;
        Ok(sol.voltage_between(sense_a, sense_b))
    }
}

/// `points` logarithmically spaced values from `start` to `stop` inclusive.
///
/// # Panics
///
/// Panics if `start` or `stop` is not positive or `points == 0`.
pub fn log_space(start: f64, stop: f64, points: usize) -> Vec<f64> {
    assert!(start > 0.0 && stop > 0.0 && points > 0);
    if points == 1 {
        return vec![start];
    }
    let l0 = start.ln();
    let l1 = stop.ln();
    (0..points)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistor_impedance_is_flat() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.resistor(n, Netlist::GROUND, 42.0);
        let ac = AcAnalysis::new(&net).unwrap();
        for f in [1.0, 1e3, 1e6, 1e9] {
            let z = ac.impedance(f, n, Netlist::GROUND).unwrap();
            assert!((z.abs() - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacitor_impedance_matches_analytic() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.capacitor(n, Netlist::GROUND, 1e-9);
        net.resistor(n, Netlist::GROUND, 1e12); // DC path
        let ac = AcAnalysis::new(&net).unwrap();
        let f = 1e6;
        let z = ac.impedance(f, n, Netlist::GROUND).unwrap();
        let expected = 1.0 / (2.0 * std::f64::consts::PI * f * 1e-9);
        assert!((z.abs() - expected).abs() / expected < 1e-9);
        // Capacitive phase is -90 degrees.
        assert!((z.arg() + std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn inductor_impedance_matches_analytic() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.inductor(n, Netlist::GROUND, 1e-6);
        let ac = AcAnalysis::new(&net).unwrap();
        let f = 1e6;
        let z = ac.impedance(f, n, Netlist::GROUND).unwrap();
        let expected = 2.0 * std::f64::consts::PI * f * 1e-6;
        assert!((z.abs() - expected).abs() / expected < 1e-9);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn series_rlc_resonance() {
        // Parallel RLC tank: impedance peaks (up to R) at
        // f0 = 1/(2 pi sqrt(LC)) and is shorted by L below / C above.
        let mut net = Netlist::new();
        let n = net.node("n");
        net.resistor(n, Netlist::GROUND, 100.0);
        net.inductor(n, Netlist::GROUND, 1e-7);
        net.capacitor(n, Netlist::GROUND, 1e-9);
        let ac = AcAnalysis::new(&net).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-7f64 * 1e-9).sqrt());
        let z0 = ac.impedance(f0, n, Netlist::GROUND).unwrap().abs();
        let z_lo = ac.impedance(f0 / 10.0, n, Netlist::GROUND).unwrap().abs();
        let z_hi = ac.impedance(f0 * 10.0, n, Netlist::GROUND).unwrap().abs();
        // At resonance the tank impedance peaks (up to R); off resonance the
        // reactive branches short it out.
        assert!(z0 > 5.0 * z_lo);
        assert!(z0 > 5.0 * z_hi);
        assert!((z0 - 100.0).abs() / 100.0 < 0.01);
    }

    #[test]
    fn voltage_source_is_ac_short() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.voltage_source(n, Netlist::GROUND, 3.3);
        net.resistor(n, Netlist::GROUND, 10.0);
        let ac = AcAnalysis::new(&net).unwrap();
        let z = ac.impedance(1e6, n, Netlist::GROUND).unwrap();
        assert!(z.abs() < 1e-9, "ideal source should short the node");
    }

    #[test]
    fn log_space_endpoints() {
        let v = log_space(1.0, 100.0, 3);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 10.0).abs() < 1e-9);
        assert!((v[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_impedance_reciprocity() {
        // For a reciprocal (passive RLC) network, Z(i->j) == Z(j->i).
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.resistor(a, Netlist::GROUND, 3.0);
        net.resistor(b, Netlist::GROUND, 7.0);
        net.resistor(a, b, 2.0);
        net.capacitor(a, Netlist::GROUND, 1e-9);
        net.inductor(a, b, 1e-8);
        let ac = AcAnalysis::new(&net).unwrap();
        let f = 33e6;
        let zab = ac
            .transfer_impedance(
                f,
                &[AcStimulus {
                    from: Netlist::GROUND,
                    to: a,
                    amps: 1.0,
                }],
                b,
                Netlist::GROUND,
            )
            .unwrap();
        let zba = ac
            .transfer_impedance(
                f,
                &[AcStimulus {
                    from: Netlist::GROUND,
                    to: b,
                    amps: 1.0,
                }],
                a,
                Netlist::GROUND,
            )
            .unwrap();
        assert!((zab - zba).abs() < 1e-9);
    }
}
