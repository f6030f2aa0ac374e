//! # vs-control — control-theory toolkit for voltage-stacked GPUs
//!
//! Implements the architecture-level half of the paper's cross-layer
//! solution (MICRO 2018, Section IV): the stacked power grid is modeled as a
//! linear dynamic system, a proportional state-feedback law is designed and
//! proven stable after discretization at the loop latency, and a runtime
//! controller (Algorithm 1) drives three fast actuators — dynamic issue
//! width scaling (DIWS), fake instruction injection (FII), and dynamic
//! current compensation (DCC).
//!
//! Modules:
//!
//! * [`StateSpace`] / [`DiscreteStateSpace`] — generic LTI models,
//!   zero-order-hold discretization, stability and disturbance-gain
//!   analysis (eqs. (5)–(8)).
//! * [`StackModel`] — the `N`-layer stacked-grid model (eqs. (1)–(4)) with
//!   proportional feedback (eq. (6)) and gain-limit computation.
//! * [`design_proportional`] — the paper's SIMULINK design flow, natively.
//! * [`VoltageController`] — the Algorithm-1 boundary-triggered runtime
//!   with detector filtering/quantization and a latency pipeline.
//! * [`ActuatorWeights`], [`DccDac`], [`SmCommand`] — eq. (9) actuation.
//! * [`Detector`], [`DetectorKind`] — Table II sensing options.
//! * [`DetectorFault`], [`ActuatorFault`] — sensing/actuation fault
//!   mechanisms for the robustness (fault-injection) study.
//!
//! # Examples
//!
//! ```
//! use vs_control::{StackModel, design_proportional};
//!
//! // 4-layer stack, 1 uF per node, 4.1 V board supply, 60-cycle loop at
//! // 700 MHz.
//! let model = StackModel::new(4, 1e-6, 4.1);
//! let design = design_proportional(&model, 60.0 / 700e6, 0.5);
//! assert!(design.spectral_radius < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod actuators;
mod controller;
mod design;
mod detector;
mod fault;
mod ss;
mod stack_model;

pub use actuators::{quantize_issue_width, ActuationTimescales, ActuatorWeights, DccDac, SmCommand};
pub use controller::{ControllerConfig, VoltageController};
pub use fault::{ActuatorFault, DetectorFault};
pub use design::{design_proportional, worst_case_deviation, ControlDesign};
pub use detector::{Detector, DetectorKind, LowPassFilter};
pub use ss::{DiscreteStateSpace, StateSpace};
pub use stack_model::StackModel;
