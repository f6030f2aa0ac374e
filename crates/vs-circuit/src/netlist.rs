//! Circuit description: nodes, elements, and source waveforms.
//!
//! A [`Netlist`] is a flat list of two-terminal elements between nodes, in the
//! spirit of a SPICE deck. Node `0` is always ground. Analyses (DC operating
//! point, transient, AC) consume the netlist without mutating it, except for
//! switch state which is owned by the transient engine.


/// Identifier of a circuit node. [`NodeId::GROUND`] is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node, fixed at 0 V.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index of the node (0 = ground).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an externally-controlled current value.
///
/// Controlled sources let a co-simulation (e.g. the GPU power model or a DCC
/// current DAC) update load currents every step without rebuilding the
/// netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlId(pub(crate) usize);

impl ControlId {
    /// Raw index into the control vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an element within a netlist (index into the element list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// Raw index of the element.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Time-dependent current-source waveform, in amperes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant current.
    Dc(f64),
    /// `offset + amplitude * sin(2*pi*freq_hz*t + phase_rad)`.
    Sine {
        /// DC offset in amperes.
        offset: f64,
        /// Amplitude in amperes.
        amplitude: f64,
        /// Frequency in hertz.
        freq_hz: f64,
        /// Phase in radians.
        phase_rad: f64,
    },
    /// `before` until `at_s`, then `after`.
    Step {
        /// Value before the step, in amperes.
        before: f64,
        /// Value at and after the step, in amperes.
        after: f64,
        /// Step time in seconds.
        at_s: f64,
    },
    /// Periodic rectangular pulse starting at `t0_s`: `high` for `width_s`
    /// out of every `period_s`, `low` otherwise.
    Pulse {
        /// Baseline value in amperes.
        low: f64,
        /// Pulse value in amperes.
        high: f64,
        /// First rising edge, seconds.
        t0_s: f64,
        /// Pulse width, seconds.
        width_s: f64,
        /// Pulse period, seconds.
        period_s: f64,
    },
    /// Value supplied externally each step via
    /// [`Transient::set_control`](crate::Transient::set_control).
    Controlled(ControlId),
}

impl Waveform {
    /// Evaluates the waveform at time `t` given the external control vector.
    pub fn value_at(&self, t: f64, controls: &[f64]) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Sine {
                offset,
                amplitude,
                freq_hz,
                phase_rad,
            } => offset + amplitude * (2.0 * std::f64::consts::PI * freq_hz * t + phase_rad).sin(),
            Waveform::Step { before, after, at_s } => {
                if t < at_s {
                    before
                } else {
                    after
                }
            }
            Waveform::Pulse {
                low,
                high,
                t0_s,
                width_s,
                period_s,
            } => {
                if t < t0_s {
                    low
                } else {
                    let phase = (t - t0_s) % period_s;
                    if phase < width_s {
                        high
                    } else {
                        low
                    }
                }
            }
            Waveform::Controlled(id) => controls.get(id.0).copied().unwrap_or(0.0),
        }
    }
}

/// A two-terminal circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms; must be positive and finite.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads; must be positive and finite.
        farads: f64,
    },
    /// Linear inductor between `a` and `b`. Adds a branch-current unknown.
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries; must be positive and finite.
        henries: f64,
    },
    /// Ideal DC voltage source: `V(pos) - V(neg) = volts`. Adds a
    /// branch-current unknown.
    VoltageSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source voltage in volts.
        volts: f64,
    },
    /// Current source; positive current flows *from `a` to `b` through the
    /// source*, i.e. it loads node `a` and feeds node `b`. An SM drawing
    /// power from a rail is a current source from the rail node to the
    /// return node.
    CurrentSource {
        /// Node the current is drawn from.
        a: NodeId,
        /// Node the current is delivered to.
        b: NodeId,
        /// Source value over time.
        waveform: Waveform,
    },
    /// Averaged model of one stage of a charge-recycling switched-capacitor
    /// ladder (CR-IVR): it equalizes the voltages of the two stacked layers
    /// `top–mid` and `mid–bottom` by drawing current `I = G·D` from *both*
    /// outer nodes and delivering `2·I` into the middle node, where
    /// `D = V(top) - 2·V(mid) + V(bottom)` and `G = f_sw · C_fly`.
    ///
    /// The element is passive: it dissipates `G·D²` (the switched-capacitor
    /// conversion loss) and is symmetric positive semidefinite in the MNA
    /// system.
    ChargeRecycler {
        /// Upper node of the upper layer.
        top: NodeId,
        /// Node shared by both layers.
        mid: NodeId,
        /// Lower node of the lower layer.
        bottom: NodeId,
        /// Effective conductance `f_sw · C_fly`, siemens.
        siemens: f64,
    },
    /// Ideal-ish switch modeled as a two-state resistor.
    Switch {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Closed-state resistance in ohms.
        r_on: f64,
        /// Open-state resistance in ohms.
        r_off: f64,
        /// Initial state.
        closed: bool,
    },
}

impl Element {
    /// Whether the element adds a branch-current unknown to the MNA system
    /// (group 2): voltage sources and inductors.
    pub(crate) fn is_group2(&self) -> bool {
        matches!(self, Element::VoltageSource { .. } | Element::Inductor { .. })
    }

    /// The two terminals of the element, `(a, b)` / `(pos, neg)`.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        match *self {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. }
            | Element::CurrentSource { a, b, .. }
            | Element::Switch { a, b, .. } => (a, b),
            Element::VoltageSource { pos, neg, .. } => (pos, neg),
            Element::ChargeRecycler { top, bottom, .. } => (top, bottom),
        }
    }
}

/// Error produced when a netlist is malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// An element references a node that was never created.
    UnknownNode {
        /// Offending element.
        element: usize,
    },
    /// A component value is non-positive or non-finite.
    InvalidValue {
        /// Offending element.
        element: usize,
        /// Human-readable description of the bad value.
        what: &'static str,
    },
    /// The assembled system matrix is singular (e.g. a floating subcircuit
    /// with no DC path to ground).
    Singular,
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::UnknownNode { element } => {
                write!(f, "element {element} references a node that does not exist")
            }
            NetlistError::InvalidValue { element, what } => {
                write!(f, "element {element} has an invalid value: {what}")
            }
            NetlistError::Singular => {
                write!(f, "system matrix is singular (floating node or short loop)")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A circuit under construction or analysis.
///
/// # Examples
///
/// ```
/// use vs_circuit::{Netlist, Waveform};
///
/// let mut net = Netlist::new();
/// let vin = net.node("vin");
/// let out = net.node("out");
/// net.voltage_source(vin, Netlist::GROUND, 1.0);
/// net.resistor(vin, out, 100.0);
/// net.resistor(out, Netlist::GROUND, 100.0);
/// let dc = net.dc_operating_point()?;
/// assert!((dc.voltage(out) - 0.5).abs() < 1e-12);
/// # Ok::<(), vs_circuit::NetlistError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    elements: Vec<Element>,
    n_controls: usize,
}

impl Netlist {
    /// The ground node; always present.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Netlist {
            node_names: vec!["gnd".to_string()],
            elements: Vec::new(),
            n_controls: 0,
        }
    }

    /// Creates a new named node and returns its id.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.into());
        id
    }

    /// Number of nodes including ground.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Name of a node, or `"?"` if out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.node_names.get(node.0).map_or("?", String::as_str)
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of externally-controlled current values declared so far.
    pub fn n_controls(&self) -> usize {
        self.n_controls
    }

    /// Adds a resistor and returns its element id.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        self.push(Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor and returns its element id.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        self.push(Element::Capacitor { a, b, farads })
    }

    /// Adds an inductor and returns its element id.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> ElementId {
        self.push(Element::Inductor { a, b, henries })
    }

    /// Adds an ideal DC voltage source (`V(pos) - V(neg) = volts`).
    pub fn voltage_source(&mut self, pos: NodeId, neg: NodeId, volts: f64) -> ElementId {
        self.push(Element::VoltageSource { pos, neg, volts })
    }

    /// Adds a fixed-waveform current source flowing from `a` to `b`.
    pub fn current_source(&mut self, a: NodeId, b: NodeId, waveform: Waveform) -> ElementId {
        self.push(Element::CurrentSource { a, b, waveform })
    }

    /// Adds an externally-controlled current source flowing from `a` to `b`
    /// and returns `(element, control)` ids. The control value defaults to
    /// zero amperes until set.
    pub fn controlled_current_source(&mut self, a: NodeId, b: NodeId) -> (ElementId, ControlId) {
        let control = ControlId(self.n_controls);
        self.n_controls += 1;
        let elem = self.push(Element::CurrentSource {
            a,
            b,
            waveform: Waveform::Controlled(control),
        });
        (elem, control)
    }

    /// Adds a switch modeled as a two-state resistor.
    pub fn switch(&mut self, a: NodeId, b: NodeId, r_on: f64, r_off: f64, closed: bool) -> ElementId {
        self.push(Element::Switch {
            a,
            b,
            r_on,
            r_off,
            closed,
        })
    }

    /// Adds an averaged charge-recycling IVR stage spanning the two layers
    /// `top..mid` and `mid..bottom` with effective conductance
    /// `siemens = f_sw * C_fly`.
    pub fn charge_recycler(
        &mut self,
        top: NodeId,
        mid: NodeId,
        bottom: NodeId,
        siemens: f64,
    ) -> ElementId {
        self.push(Element::ChargeRecycler {
            top,
            mid,
            bottom,
            siemens,
        })
    }

    pub(crate) fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    fn push(&mut self, e: Element) -> ElementId {
        let id = ElementId(self.elements.len());
        self.elements.push(e);
        id
    }

    /// Validates node references and component values.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found, if any.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, e) in self.elements.iter().enumerate() {
            let (a, b) = e.terminals();
            if a.0 >= self.n_nodes() || b.0 >= self.n_nodes() {
                return Err(NetlistError::UnknownNode { element: i });
            }
            let bad = |what| Err(NetlistError::InvalidValue { element: i, what });
            match *e {
                Element::Resistor { ohms, .. } => {
                    if !(ohms.is_finite() && ohms > 0.0) {
                        return bad("resistance must be positive and finite");
                    }
                }
                Element::Capacitor { farads, .. } => {
                    if !(farads.is_finite() && farads > 0.0) {
                        return bad("capacitance must be positive and finite");
                    }
                }
                Element::Inductor { henries, .. } => {
                    if !(henries.is_finite() && henries > 0.0) {
                        return bad("inductance must be positive and finite");
                    }
                }
                Element::VoltageSource { volts, .. } => {
                    if !volts.is_finite() {
                        return bad("source voltage must be finite");
                    }
                }
                Element::Switch { r_on, r_off, .. } => {
                    if !(r_on.is_finite() && r_on > 0.0 && r_off.is_finite() && r_off > 0.0) {
                        return bad("switch resistances must be positive and finite");
                    }
                }
                Element::ChargeRecycler { mid, siemens, .. } => {
                    if mid.0 >= self.n_nodes() {
                        return Err(NetlistError::UnknownNode { element: i });
                    }
                    if !(siemens.is_finite() && siemens > 0.0) {
                        return bad("recycler conductance must be positive and finite");
                    }
                }
                Element::CurrentSource { .. } => {}
            }
        }
        Ok(())
    }

    /// Indices of elements that carry a group-2 (branch-current) unknown, in
    /// element order: voltage sources and inductors.
    pub(crate) fn group2_elements(&self) -> Vec<usize> {
        self.elements
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_group2())
            .map(|(i, _)| i)
            .collect()
    }

    /// Size of the MNA unknown vector: non-ground nodes plus group-2
    /// branches. Counts without collecting, so a refactor stays
    /// allocation-free.
    pub(crate) fn system_dim(&self) -> usize {
        (self.n_nodes() - 1) + self.elements.iter().filter(|e| e.is_group2()).count()
    }

    /// Maps a node to its row/column in the MNA system; ground maps to `None`.
    #[inline]
    pub(crate) fn node_var(&self, node: NodeId) -> Option<usize> {
        if node.0 == 0 {
            None
        } else {
            Some(node.0 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_creation_and_names() {
        let mut n = Netlist::new();
        let a = n.node("a");
        assert_eq!(a.index(), 1);
        assert_eq!(n.node_name(a), "a");
        assert_eq!(n.node_name(Netlist::GROUND), "gnd");
        assert_eq!(n.n_nodes(), 2);
    }

    #[test]
    fn waveform_evaluation() {
        let w = Waveform::Step {
            before: 1.0,
            after: 2.0,
            at_s: 1e-6,
        };
        assert_eq!(w.value_at(0.0, &[]), 1.0);
        assert_eq!(w.value_at(2e-6, &[]), 2.0);

        let p = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            t0_s: 0.0,
            width_s: 1e-9,
            period_s: 4e-9,
        };
        assert_eq!(p.value_at(0.5e-9, &[]), 1.0);
        assert_eq!(p.value_at(2.0e-9, &[]), 0.0);
        assert_eq!(p.value_at(4.5e-9, &[]), 1.0);

        let c = Waveform::Controlled(ControlId(1));
        assert_eq!(c.value_at(0.0, &[5.0, 7.0]), 7.0);
        assert_eq!(c.value_at(0.0, &[]), 0.0);

        let s = Waveform::Sine {
            offset: 1.0,
            amplitude: 2.0,
            freq_hz: 1.0,
            phase_rad: 0.0,
        };
        assert!((s.value_at(0.25, &[]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.resistor(a, Netlist::GROUND, -5.0);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::InvalidValue { element: 0, .. })
        ));
    }

    #[test]
    fn validation_catches_unknown_node() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.resistor(a, NodeId(42), 1.0);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::UnknownNode { element: 0 })
        ));
    }

    #[test]
    fn group2_ordering() {
        let mut n = Netlist::new();
        let a = n.node("a");
        let b = n.node("b");
        n.resistor(a, b, 1.0);
        n.voltage_source(a, Netlist::GROUND, 1.0);
        n.inductor(a, b, 1e-9);
        assert_eq!(n.group2_elements(), vec![1, 2]);
        assert_eq!(n.system_dim(), 2 + 2);
    }

    #[test]
    fn controlled_source_ids_increment() {
        let mut n = Netlist::new();
        let a = n.node("a");
        let (_, c0) = n.controlled_current_source(a, Netlist::GROUND);
        let (_, c1) = n.controlled_current_source(a, Netlist::GROUND);
        assert_eq!(c0.index(), 0);
        assert_eq!(c1.index(), 1);
        assert_eq!(n.n_controls(), 2);
    }
}
