//! # vs-pds — power-delivery-subsystem models for voltage-stacked GPUs
//!
//! Builds the circuit-level netlists and analytic models of the four PDS
//! configurations the paper compares (Table III):
//!
//! 1. conventional single-layer PDS with a board VRM
//!    ([`SingleLayerPdn`] + [`vrm_efficiency`]),
//! 2. single-layer IVR PDS ([`SingleLayerPdn`] at a higher delivery voltage
//!    + [`ivr_efficiency`]),
//! 3. circuit-only voltage stacking ([`StackedPdn`] with a large
//!    [`CrIvrConfig`]),
//! 4. the cross-layer design ([`StackedPdn`] with a 0.2x CR-IVR, relying on
//!    the architecture loop in `vs-control`).
//!
//! It also provides the effective-impedance characterization of Fig. 3
//! ([`impedance_profile`]) and the die-area accounting ([`AreaModel`]).
//!
//! # Examples
//!
//! ```
//! use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
//!
//! let params = PdnParams::default();
//! let area = AreaModel::default();
//! let crivr = CrIvrConfig::cross_layer_default(&area);
//! let pdn = StackedPdn::build(&params, Some((&crivr, &area)));
//! assert_eq!(pdn.sm_load.len(), 4);      // four layers
//! assert_eq!(pdn.sm_load[0].len(), 4);   // four columns
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod area;
mod crivr;
mod impedance;
mod params;
mod single_layer;
mod stacked;

pub use area::AreaModel;
pub use crivr::CrIvrConfig;
pub use impedance::{impedance_profile, ImpedanceProfile};
pub use params::{
    ivr_efficiency, level_shifter_fraction, vrm_efficiency, PdnParams, IVR_DELIVERY_V,
};
pub use single_layer::SingleLayerPdn;
pub use stacked::StackedPdn;
