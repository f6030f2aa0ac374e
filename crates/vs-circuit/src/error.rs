//! Structured solver failures.
//!
//! The transient solver reports *why* a step could not be accepted instead
//! of panicking, so higher layers (the co-simulation supervisor, experiment
//! sweeps) can degrade gracefully: retry with a smaller timestep, fall back
//! to a more dissipative integration method, or abort just one sweep cell.

use std::fmt;

use crate::netlist::NetlistError;

/// An error raised by [`crate::Transient`] stepping or reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The netlist itself is malformed or its system matrix is singular.
    Netlist(NetlistError),
    /// The factored system matrix became singular after a reconfiguration
    /// (switch toggle, recycler retune, timestep change).
    Singular {
        /// Simulated time at which the refactor failed, seconds.
        time_s: f64,
    },
    /// The candidate solution contains NaN or infinity — typically caused by
    /// non-finite control inputs or an upstream numerical blow-up.
    NonFinite {
        /// Simulated time of the rejected step, seconds.
        time_s: f64,
        /// Which vector went non-finite (`"solution"`, `"controls"`).
        what: &'static str,
    },
    /// The candidate solution is finite but implausibly large, indicating
    /// numerical divergence of the integration.
    Divergence {
        /// Simulated time of the rejected step, seconds.
        time_s: f64,
        /// Largest node-voltage magnitude observed, volts.
        v_max: f64,
        /// The configured divergence limit, volts.
        limit_v: f64,
    },
    /// An element-targeting operation was applied to the wrong element kind
    /// (e.g. [`crate::Transient::set_switch`] on a resistor).
    WrongElementKind {
        /// Index of the offending element.
        element: usize,
        /// The kind the operation required (`"switch"`, `"charge recycler"`).
        expected: &'static str,
    },
    /// An element-targeting operation received an invalid value (negative or
    /// non-finite conductance, non-positive timestep, ...).
    InvalidParameter {
        /// Human-readable description of the rejected parameter.
        what: &'static str,
    },
    /// The adaptive recovery policy exhausted its retry budget.
    RecoveryExhausted {
        /// Simulated time at which recovery gave up, seconds.
        time_s: f64,
        /// Number of retry attempts made.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<SolverError>,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Netlist(e) => write!(f, "netlist error: {e}"),
            SolverError::Singular { time_s } => {
                write!(f, "system matrix singular at t = {time_s:.3e} s")
            }
            SolverError::NonFinite { time_s, what } => {
                write!(f, "non-finite {what} at t = {time_s:.3e} s")
            }
            SolverError::Divergence {
                time_s,
                v_max,
                limit_v,
            } => write!(
                f,
                "divergence at t = {time_s:.3e} s: |v| = {v_max:.3e} V exceeds {limit_v:.3e} V"
            ),
            SolverError::WrongElementKind { element, expected } => {
                write!(f, "element {element} is not a {expected}")
            }
            SolverError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            SolverError::RecoveryExhausted {
                time_s,
                attempts,
                last,
            } => write!(
                f,
                "recovery exhausted after {attempts} attempts at t = {time_s:.3e} s; last error: {last}"
            ),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Netlist(e) => Some(e),
            SolverError::RecoveryExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<NetlistError> for SolverError {
    fn from(e: NetlistError) -> Self {
        SolverError::Netlist(e)
    }
}
