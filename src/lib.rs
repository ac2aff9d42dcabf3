//! # dpr — Distributed Page Ranking in Structured P2P Networks
//!
//! A from-scratch Rust reproduction of Shi, Yu, Yang & Wang,
//! *"Distributed Page Ranking in Structured P2P Networks"* (ICPP 2003):
//! Open System PageRank, the asynchronous distributed algorithms DPR1/DPR2,
//! the Pastry/Chord overlay substrate, direct vs. indirect rank
//! transmission, and the §4.5 capacity model — plus the full experiment
//! harness regenerating every figure and table of the paper's evaluation.
//!
//! This crate is a façade: it re-exports the workspace crates under one
//! namespace so applications depend on a single crate.
//!
//! ## Quickstart
//!
//! ```
//! use dpr::core::{try_run_over_network, NetRunConfig};
//! use dpr::graph::generators::toy;
//!
//! // Two web sites, densely linked internally, one bridge each way.
//! let graph = toy::two_cliques(5);
//! // Two page rankers on two overlay nodes: the paper's §5 deployment.
//! let cfg = NetRunConfig { t_end: 120.0, ..NetRunConfig::section5(2) };
//! let result = try_run_over_network(&graph, cfg).unwrap();
//! // The distributed ranks converge to the centralized fixed point.
//! assert!(result.final_rel_err < 1e-4);
//! ```

#![warn(missing_docs)]

/// Sparse linear algebra: CSR matrices and the fixed-point solver, whose
/// stopping rule Theorem 3.3 justifies.
pub use dpr_linalg as linalg;

/// Web link graphs: builders, generators (incl. the edu-domain dataset
/// synthesizer), URL model, I/O, crawl refresh.
pub use dpr_graph as graph;

/// Page partitioning strategies and quality metrics (§4.1).
pub use dpr_partition as partition;

/// Structured P2P overlays: Pastry and Chord with hop-counted routing.
pub use dpr_overlay as overlay;

/// Rank-exchange transport: wire codec and §4.5 prices, checkpoint
/// frames, compression (§4.5 future work).
pub use dpr_transport as transport;

/// Discrete-event simulation: actors, think times, failure injection,
/// time-series traces (§5 experiment setup).
pub use dpr_sim as sim;

/// The core algorithms: Open System PageRank, GroupPageRank, DPR1/DPR2,
/// CPR, HITS, the rank store, and the hosts that run them (§2–§5).
pub use dpr_core as core;

/// The analytic cost model: §4.4's closed-form costs of direct and
/// indirect transmission (both run in `core::netrun`), §4.5's capacity
/// model and Table 1.
pub use dpr_model as model;

/// Crawling substrate: hidden web (Fig 1's `W`), single + parallel
/// crawlers (Cho & Garcia-Molina's firewall/cross-over/exchange modes),
/// crawl-to-dataset conversion.
pub use dpr_crawl as crawl;
