//! Sparse linear-algebra substrate for distributed page ranking.
//!
//! The PageRank family of algorithms reduces to fixed-point iteration on a
//! sparse linear system `x = Ax + f` where `A` is a (sub-stochastic) link
//! matrix. This crate provides the pieces the paper's algorithms are built
//! from:
//!
//! * [`Csr`] — compressed sparse row matrices with sequential and
//!   pool-parallel matrix–vector products (see [`pool`]),
//! * [`vec_ops`] — the dense-vector kernels (norms, axpy, differences) used
//!   by every iteration loop,
//! * [`solver`] — the fixed-point solver of Algorithm 2
//!   (`GroupPageRank`), terminating on `‖x_m − x_{m−1}‖`, the test
//!   Theorem 3.3 justifies,
//! * [`pool`] — the scoped worker pool behind every parallel kernel:
//!   real OS threads, spawned once and reused across solves, with a fixed
//!   chunking discipline that keeps pooled results bit-identical to the
//!   sequential ones at every worker count.
//!
//! # Example
//!
//! ```
//! use dpr_linalg::{FixedPointSolver, TripletMatrix};
//!
//! // x = [[0.5, 0], [0.25, 0.25]]·x + [1, 1]  ⇒  x* = [2, 2]
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 0.5);
//! t.push(1, 0, 0.25);
//! t.push(1, 1, 0.25);
//! let a = t.to_csr();
//!
//! let mut x = vec![0.0, 0.0];
//! let report = FixedPointSolver::new(1e-12).solve(&a, &[1.0, 1.0], &mut x);
//! assert!(report.converged);
//! assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod csr;
pub mod pool;
pub mod solver;
pub mod triplet;
pub mod vec_ops;

pub use csr::{column_scale, Csr, CsrImplicit, RowPtr, SpMatVec};
pub use pool::Pool;
pub use solver::{FixedPointSolver, SolveReport, INNER_STOP_RATIO};
pub use triplet::TripletMatrix;
