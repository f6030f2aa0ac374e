//! # vs-circuit — SPICE-like circuit analysis for power-delivery networks
//!
//! This crate is the circuit-level substrate of the voltage-stacked-GPU
//! reproduction (MICRO 2018). It provides what the paper used SPICE 3 for:
//!
//! * a [`Netlist`] of linear elements (R, L, C, ideal voltage sources,
//!   time-varying and externally-controlled current sources, and two-state
//!   switches),
//! * DC operating-point analysis ([`Netlist::dc_operating_point`]),
//! * fixed-step [`Transient`] simulation with backward-Euler or trapezoidal
//!   companion models, a constant-matrix fast path (one sparse LU
//!   factorization under a minimum-degree ordering, one substitution over
//!   its nonzeros per step), and per-element energy accounting,
//! * small-signal [`AcAnalysis`] producing the complex impedance profiles
//!   used by the paper's effective-impedance reliability analysis (Fig. 3),
//! * a [`Trace`] recorder with the summary statistics the evaluation plots
//!   need.
//!
//! # Examples
//!
//! Transient response of a supply rail to a load step:
//!
//! ```
//! use vs_circuit::{Netlist, Transient, Integration, Waveform};
//!
//! let mut net = Netlist::new();
//! let board = net.node("board");
//! let die = net.node("die");
//! net.voltage_source(board, Netlist::GROUND, 1.0);
//! net.resistor(board, die, 0.001);            // PDN parasitics
//! net.capacitor(die, Netlist::GROUND, 1e-6);  // on-die decap
//! net.current_source(die, Netlist::GROUND, Waveform::Step {
//!     before: 10.0,
//!     after: 30.0,
//!     at_s: 50e-9,
//! });
//!
//! let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal)?;
//! let mut v_min: f64 = f64::INFINITY;
//! for _ in 0..200 {
//!     sim.step()?;
//!     v_min = v_min.min(sim.voltage(die));
//! }
//! assert!(v_min < 0.999); // the step causes a visible droop
//! # Ok::<(), vs_circuit::SolverError>(())
//! ```
//!
//! Transient stepping reports failures as structured [`SolverError`]s, and
//! [`Transient::step_with_recovery`] layers an adaptive retry policy
//! ([`RecoveryPolicy`]) on top — halve the timestep, sanitize non-finite
//! control inputs, fall back from trapezoidal to backward Euler — so one
//! bad input perturbs a run instead of killing it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ac;
mod batched;
mod dc;
mod error;
mod netlist;
mod recovery;
mod trace;
mod transient;

pub use ac::{log_space, AcAnalysis, AcSolution, AcStimulus};
pub use batched::{
    step_lanes_with_recovery, BatchScratch, BatchStats, BatchedTransient, LaneOutcome,
};
pub use dc::DcSolution;
pub use error::SolverError;
pub use netlist::{ControlId, Element, ElementId, Netlist, NetlistError, NodeId, Waveform};
pub use recovery::{RecoveryPolicy, StepReport};
pub use trace::{Trace, TraceSummary};
pub use transient::{EnergyReport, Integration, SolverWorkspace, Transient};
pub use vs_num::{Complex, LuFactors, Matrix, Scalar, SingularMatrixError, SparseLu};

/// Revision of the transient solver's numerics. Bump it with any change
/// that moves simulated values, such as a new ordering, pivoting rule or
/// companion model, so that caches keyed by code identity stop serving
/// results of the old solver. Revision 1 solved through dense
/// natural-order LU factors; revision 2 through the minimum-degree
/// [`SparseLu`].
pub const SOLVER_REVISION: u32 = 2;
