//! # vs-num — numerics shared across the voltage-stacking workspace
//!
//! Small, dependency-free numerical kernels used by both the circuit solver
//! (`vs-circuit`) and the control-theory toolkit (`vs-control`):
//!
//! * [`Complex`] arithmetic and the [`Scalar`] abstraction over `f64` /
//!   [`Complex`],
//! * a dense [`Matrix`] with LU factorization ([`LuFactors`]) and the usual
//!   algebra ([`Matrix::matmul`], [`Matrix::transpose`], norms),
//! * a sparse LU for the per-cycle transient circuit solve ([`SparseLu`]):
//!   a minimum-degree ordering, partial pivoting, compressed-row factors,
//!   and multi-lane solves bit-identical to the scalar one,
//! * real-matrix eigenvalues via Hessenberg reduction + shifted QR
//!   ([`eigenvalues`], [`spectral_radius`]),
//! * the matrix exponential by scaling-and-squaring with a Padé approximant
//!   ([`expm`]).
//!
//! All matrices in this workspace are small (a handful to a few dozen rows),
//! so the implementations favour clarity and robustness over asymptotics;
//! the one exception is the transient solve, which runs once per simulated
//! cycle and is worth a sparse factorization.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod complex;
mod eig;
mod expm;
mod linalg;
mod rng;
mod sparse;

pub use complex::{Complex, Scalar};
pub use eig::{eigenvalues, spectral_radius};
pub use expm::expm;
pub use linalg::{LuFactors, Matrix, SingularMatrixError};
pub use rng::Rng;
pub use sparse::SparseLu;
