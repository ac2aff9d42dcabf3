//! Rank-exchange transport (§4.4–4.5 of the paper): what a `Y` exchange
//! looks like on the wire and what the paper says it should cost.
//!
//! Page rankers exchange `<url_from, url_to, score>` records — a page
//! `url_from` with rank `score` has an out-link to `url_to` in another
//! group. [`codec`] is their wire encoding and holds §4.5's prices (records
//! with real URL strings average ≈ 100 bytes, the paper's constant).
//! Both §4.4 schemes run in `dpr-core`'s netrun, which counts every message
//! and byte they send; their closed-form costs (formulas 4.1–4.4) live with
//! the rest of the paper's cost model in `dpr-model`'s `analytic` module.
//! [`snapshot`] is the replication checkpoint frame, and [`compress`] the
//! paper's future-work idea: delta + varint compression of sorted batches.

#![warn(missing_docs)]

pub mod codec;
pub mod compress;
pub mod snapshot;

pub use codec::RankUpdate;
