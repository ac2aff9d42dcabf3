//! Distributed rank queries — the consumer side of the paper's motivating
//! scenario ("in a distributed search engine, page ranking is ... needed
//! for improving query results").
//!
//! Once the rankers have converged, a search front-end needs the top-ranked
//! pages among a candidate set (e.g. the docs matching a keyword) without
//! shipping every score anywhere. The classic scatter-gather: ask each
//! ranker for its local top-k (of the candidates it owns), merge the k-way
//! partial results. Because ranks are per-page and groups partition the
//! page set, the merged top-k is *exactly* the global top-k — no
//! approximation, and each ranker returns at most `k` entries.
//!
//! These one-shot in-process queries over live [`Ranker`]s are the
//! reference semantics for the serving layer: [`crate::store`] publishes
//! epoch-versioned snapshots whose answers are bit-identical to querying
//! the same rankers here at the same epoch (netrun's sample observer hands
//! them out, [`crate::observe::Sample::rankers`]).

use dpr_graph::PageId;
use dpr_transport::codec;

use crate::ranker::Ranker;

/// One query hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Global page id.
    pub page: PageId,
    /// Its current rank at the owning ranker.
    pub rank: f64,
}

/// The one ordering every query path uses: descending rank (`total_cmp`,
/// so NaN-safe), ties broken by ascending page id. Shared with the store
/// so merged answers agree bit-for-bit.
pub(crate) fn hit_order(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.rank.total_cmp(&a.rank).then_with(|| a.page.cmp(&b.page))
}

/// The reference paths here keep a plain full sort on purpose: they are
/// what the store's selections are held against.
fn sort_hits(hits: &mut [Hit]) {
    hits.sort_unstable_by(hit_order);
}

/// Candidate lists come from keyword matching and can repeat a page (one
/// occurrence per matching term); a repeated page must still fill at most
/// one top-k slot, so every query path dedups before scoring.
fn dedup_candidates(cands: &[PageId]) -> Vec<PageId> {
    let mut c = cands.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

fn local_top_k_deduped(ranker: &Ranker, k: usize, candidates: Option<&[PageId]>) -> Vec<Hit> {
    let pages = ranker.ctx().pages();
    let ranks = ranker.ranks();
    let mut hits: Vec<Hit> = match candidates {
        None => pages.iter().zip(ranks).map(|(&page, &rank)| Hit { page, rank }).collect(),
        Some(cands) => cands
            .iter()
            .filter_map(|&p| ranker.ctx().local_index(p).map(|li| Hit { page: p, rank: ranks[li] }))
            .collect(),
    };
    sort_hits(&mut hits);
    hits.truncate(k);
    hits
}

/// A ranker's local answer: its `k` best owned pages (optionally restricted
/// to a candidate set), descending by rank. Duplicate candidates count
/// once.
#[must_use]
pub fn local_top_k(ranker: &Ranker, k: usize, candidates: Option<&[PageId]>) -> Vec<Hit> {
    match candidates {
        None => local_top_k_deduped(ranker, k, None),
        Some(cands) => local_top_k_deduped(ranker, k, Some(&dedup_candidates(cands))),
    }
}

/// Scatter-gather top-k over all rankers: merges every ranker's
/// [`local_top_k`] and returns the global `k` best. Exact by construction
/// (each page has exactly one owner); duplicate candidates count once.
#[must_use]
pub fn distributed_top_k(rankers: &[&Ranker], k: usize, candidates: Option<&[PageId]>) -> Vec<Hit> {
    let deduped = candidates.map(dedup_candidates);
    let cands = deduped.as_deref();
    let mut merged: Vec<Hit> =
        rankers.iter().flat_map(|r| local_top_k_deduped(r, k, cands)).collect();
    sort_hits(&mut merged);
    merged.truncate(k);
    merged
}

/// Per-site rank mass computed directly from the live rankers, in the
/// canonical aggregation order the store uses: each group's partial sums
/// accumulate in local page order, and the partials fold into the global
/// totals in ascending group id. [`crate::store`] reproduces this order
/// exactly, so its precomputed aggregates can be checked bit-for-bit
/// against this reference.
#[must_use]
pub fn site_totals(rankers: &[&Ranker], site_of: &[u32], n_sites: usize) -> Vec<f64> {
    let mut order = rankers.to_vec();
    order.sort_unstable_by_key(|r| r.ctx().group_id());
    let mut totals = vec![0.0; n_sites];
    for ranker in order {
        let mut partial = vec![0.0; n_sites];
        for (&p, &rank) in ranker.ctx().pages().iter().zip(ranker.ranks()) {
            partial[site_of[p as usize] as usize] += rank;
        }
        for (t, p) in totals.iter_mut().zip(&partial) {
            *t += *p;
        }
    }
    totals
}

/// Traffic one scatter-gather query moves, in the two §4.5-consistent
/// record pricings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Responses carry URL-form records ([`codec::PAPER_RECORD_BYTES`]
    /// each, the paper's `l`), one framed message per ranker.
    pub uncompressed: u64,
    /// Responses carry id-form records ([`codec::ID_RECORD_BYTES`] each —
    /// `u32` ids plus the `f64` score, the first `dpr-transport::compress`
    /// idea), same per-message header.
    pub compressed: u64,
}

/// Bytes a scatter-gather query moves: each ranker sends one response
/// message — a [`codec::PAPER_HEADER_BYTES`] header plus at most `k`
/// `(page, score)` records — versus shipping every rank to a coordinator.
/// Record prices come from `dpr-transport::codec`, the same model §4.5
/// rank-update traffic is accounted in. Used by the search-engine example
/// to show why ranking must live *with* the pages.
#[must_use]
pub fn query_cost(n_rankers: usize, k: usize) -> QueryCost {
    let header = codec::PAPER_HEADER_BYTES;
    QueryCost {
        uncompressed: (n_rankers * (header + k * codec::PAPER_RECORD_BYTES)) as u64,
        compressed: (n_rankers * (header + k * codec::ID_RECORD_BYTES)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::RankConfig;
    use crate::group::GroupContext;
    use crate::metrics::top_k;
    use crate::ranker::{assemble_ranks, DprVariant, YPart};
    use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
    use dpr_partition::{Partition, Strategy};

    /// Eight by-site rankers after forty synchronous rounds: every ranker
    /// thinks, then every part is delivered.
    fn converged_rankers() -> (dpr_graph::WebGraph, Vec<Ranker>) {
        let g = edu_domain(&EduDomainConfig::small());
        let p = Partition::build(&g, &Strategy::HashBySite, 8, 0);
        let mut rankers: Vec<Ranker> = GroupContext::build_all(&g, &p, &RankConfig::default())
            .into_iter()
            .map(|c| Ranker::new(Arc::new(c)))
            .collect();
        for _ in 0..40 {
            let parts: Vec<YPart> = rankers
                .iter_mut()
                .flat_map(|r| r.think(DprVariant::Dpr1, 1e-10).0.to_vec())
                .collect();
            for part in parts {
                rankers[part.dest_group as usize].deliver(
                    part.src_group,
                    &part.pattern,
                    &part.scores,
                );
            }
        }
        (g, rankers)
    }

    #[test]
    fn distributed_top_k_matches_global_top_k() {
        let (g, rankers) = converged_rankers();
        let global = assemble_ranks(&rankers, g.n_pages());
        let want = top_k(&global, 10);
        let refs: Vec<&Ranker> = rankers.iter().collect();
        let got: Vec<PageId> = distributed_top_k(&refs, 10, None).iter().map(|h| h.page).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn candidate_restriction_respected() {
        let (_, rankers) = converged_rankers();
        let refs: Vec<&Ranker> = rankers.iter().collect();
        let candidates: Vec<PageId> = (0..50).collect();
        let hits = distributed_top_k(&refs, 5, Some(&candidates));
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.page < 50));
        // Descending rank order.
        assert!(hits.windows(2).all(|w| w[0].rank >= w[1].rank));
    }

    #[test]
    fn duplicate_candidates_fill_one_slot_each() {
        let (_, rankers) = converged_rankers();
        let refs: Vec<&Ranker> = rankers.iter().collect();
        // Regression: a repeated candidate used to emit one Hit per
        // occurrence and could fill several top-k slots by itself.
        let dups = [7, 7, 7, 7, 3, 11, 3, 7];
        let hits = distributed_top_k(&refs, 3, Some(&dups));
        assert_eq!(hits, distributed_top_k(&refs, 3, Some(&[3, 7, 11])));
        let mut pages: Vec<PageId> = hits.iter().map(|h| h.page).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), hits.len(), "every hit must be a distinct page");
    }

    #[test]
    fn duplicate_candidates_dedup_locally_too() {
        let (_, rankers) = converged_rankers();
        let ranker = rankers.iter().find(|r| r.ctx().n_local() > 0).unwrap();
        let owned = ranker.ctx().pages()[0];
        let hits = local_top_k(ranker, 5, Some(&[owned; 6]));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].page, owned);
    }

    #[test]
    fn k_larger_than_page_count() {
        let (g, rankers) = converged_rankers();
        let refs: Vec<&Ranker> = rankers.iter().collect();
        let hits = distributed_top_k(&refs, g.n_pages() + 100, None);
        assert_eq!(hits.len(), g.n_pages());
    }

    #[test]
    fn local_top_k_returns_at_most_k() {
        let (_, rankers) = converged_rankers();
        for ranker in &rankers {
            let hits = local_top_k(ranker, 3, None);
            assert!(hits.len() <= 3);
        }
    }

    #[test]
    fn site_totals_conserve_rank_mass() {
        let (g, rankers) = converged_rankers();
        let refs: Vec<&Ranker> = rankers.iter().collect();
        let site_of: Vec<u32> = (0..g.n_pages() as u32).map(|p| g.site(p)).collect();
        let n_sites = site_of.iter().max().map_or(0, |&s| s as usize + 1);
        let totals = site_totals(&refs, &site_of, n_sites);
        let direct: f64 = assemble_ranks(&rankers, g.n_pages()).iter().sum();
        let agg: f64 = totals.iter().sum();
        assert!((agg - direct).abs() < 1e-9 * direct.max(1.0));
    }

    #[test]
    fn query_cost_priced_from_codec() {
        let c = query_cost(100, 10);
        let header = codec::PAPER_HEADER_BYTES as u64;
        assert_eq!(c.uncompressed, 100 * (header + 10 * codec::PAPER_RECORD_BYTES as u64));
        assert_eq!(c.compressed, 100 * (header + 10 * codec::ID_RECORD_BYTES as u64));
        // Id-form responses are strictly cheaper, headers included.
        assert!(c.compressed < c.uncompressed);
        // k = 0 still pays the per-ranker response header.
        assert_eq!(query_cost(8, 0).uncompressed, 8 * header);
    }
}
