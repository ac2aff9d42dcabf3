//! Rank-exchange transport (§4.4–4.5 of the paper): what a `Y` exchange
//! looks like on the wire and what the paper says it should cost.
//!
//! Page rankers exchange `<url_from, url_to, score>` records — a page
//! `url_from` with rank `score` has an out-link to `url_to` in another
//! group. [`codec`] is their wire encoding and holds §4.5's prices (records
//! with real URL strings average ≈ 100 bytes, the paper's constant).
//! [`analytic`] holds §4.4's closed forms: **direct transmission** (a DHT
//! lookup of `h` hops, then one point-to-point message) costs
//! `S_dt = (h+1)·N²` messages and `D_dt = l·W + h·r·N²` bytes per
//! iteration; **indirect transmission** (per-neighbor packages routed along
//! the overlay paths, unpacked, recombined and repacked at every hop) costs
//! `S_it = g·N` messages and `D_it = h·l·W` bytes. Both schemes run in
//! `dpr-core`'s netrun, which counts every message and byte they send.
//! [`snapshot`] is the replication checkpoint frame, and [`compress`] the
//! paper's future-work idea: delta + varint compression of sorted batches.
//!
//! # Example
//!
//! The closed forms against the protocol that runs: every group links into
//! every other, and netrun carries one exchange under each scheme.
//!
//! ```
//! use dpr_core::netrun::AnyOverlay;
//! use dpr_core::{try_run_over_network, NetRunConfig, Transmission};
//! use dpr_graph::generators::toy;
//! use dpr_overlay::avg_route_hops;
//! use dpr_partition::{Partition, Strategy};
//! use dpr_transport::analytic;
//! use dpr_transport::codec::{PAPER_LOOKUP_BYTES, PAPER_RECORD_BYTES};
//!
//! let n = 30; // page groups, one per overlay node on average
//! let graph = toy::complete(4 * n);
//! let cfg = |transmission| NetRunConfig {
//!     k: n,
//!     n_nodes: n,
//!     transmission,
//!     strategy: Strategy::HashByUrl,
//!     t1: 1.0,
//!     t2: 1.0,
//!     t_end: 20.0,
//!     ..NetRunConfig::default()
//! };
//! // Messages and bytes per iteration (one wake of every node).
//! let per_iteration = |transmission| {
//!     let run = try_run_over_network(&graph, cfg(transmission)).unwrap();
//!     let iterations = run.sim_stats.wakes as f64 / n as f64;
//!     let c = run.counters;
//!     ((c.data_messages + c.lookup_messages) as f64 / iterations, c.bytes as f64 / iterations)
//! };
//! let (direct, direct_bytes) = per_iteration(Transmission::Direct);
//! let (indirect, indirect_bytes) = per_iteration(Transmission::Indirect);
//! // `h` and `g` measured on the run's own overlay; `W` is one record per
//! // page outside each group that has pages.
//! let overlay = AnyOverlay::build(&cfg(Transmission::Direct));
//! let h = avg_route_hops(overlay.as_overlay(), 1_000, 1).mean;
//! let g = overlay.as_overlay().mean_neighbors();
//! let sizes = Partition::build(&graph, &Strategy::HashByUrl, n, 0).group_sizes();
//! let w = (graph.n_pages() * (sizes.iter().filter(|&&s| s > 0).count() - 1)) as f64;
//! let (l, r) = (PAPER_RECORD_BYTES as f64, PAPER_LOOKUP_BYTES as f64);
//!
//! assert!(direct <= analytic::s_direct(h, n as f64)); // (h+1)N²
//! assert!(indirect <= analytic::s_indirect(g, n as f64)); // gN
//! assert!(indirect < direct); // O(gN) beats O((h+1)N²)
//! // The byte forms leave out headers; the measured bytes are the same order.
//! assert!(direct_bytes < 1.5 * analytic::d_direct(h, l, w, r, n as f64));
//! assert!(indirect_bytes < 1.5 * analytic::d_indirect(h, l, w));
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod compress;
pub mod snapshot;
pub mod stats;

pub use codec::RankUpdate;
pub use stats::analytic;
