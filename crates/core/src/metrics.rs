//! Ranking metrics: the top-k selection and the rank distribution summary.

use std::cmp::Ordering;

/// The `k` first items of `items` under `cmp`, in `cmp` order: what a full
/// sort followed by `truncate(k)` returns whenever `cmp` is a strict total
/// order (no two items compare `Equal`), at `O(n + k log k)` instead of
/// `O(n log n)`, holding at most `2k` items at once.
///
/// A bounded scan: an item enters the buffer only if it beats the `k`-th
/// best of the last cut; when the buffer reaches `2k` items,
/// `select_nth_unstable_by` cuts it back to its best `k` and leaves the new
/// `k`-th best at `buf[k - 1]`. The one top-k selection of the workspace:
/// the store's per-group prefixes and merges, [`top_k`] and `dpr top`.
pub(crate) fn select_top_k_by<T, I, F>(items: I, k: usize, mut cmp: F) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T, &T) -> Ordering,
{
    if k == 0 {
        return Vec::new();
    }
    let mut buf: Vec<T> = Vec::new();
    let mut cut = false;
    for x in items {
        if cut && cmp(&x, &buf[k - 1]) != Ordering::Less {
            continue;
        }
        buf.push(x);
        if buf.len() == k.saturating_mul(2) {
            buf.select_nth_unstable_by(k - 1, &mut cmp);
            buf.truncate(k);
            cut = true;
        }
    }
    if buf.len() > k {
        buf.select_nth_unstable_by(k - 1, &mut cmp);
        buf.truncate(k);
    }
    buf.sort_unstable_by(cmp);
    buf
}

/// Indices of the top-`k` pages by rank (descending; ties by page id).
#[must_use]
pub fn top_k(ranks: &[f64], k: usize) -> Vec<u32> {
    top_k_among(ranks, 0..ranks.len() as u32, k)
}

/// [`top_k`] restricted to `pages` (each listed at most once).
#[must_use]
pub fn top_k_among(ranks: &[f64], pages: impl IntoIterator<Item = u32>, k: usize) -> Vec<u32> {
    // `total_cmp` gives a total order even with NaNs (which `partial_cmp +
    // unwrap_or(Equal)` silently turned into an inconsistent comparator —
    // a violation of the sort's ordering contract). Positive NaN compares
    // greater than every real in the IEEE total order, so NaN ranks land
    // at the front of this descending order, deterministically.
    select_top_k_by(pages, k, |&i, &j| {
        ranks[j as usize].total_cmp(&ranks[i as usize]).then_with(|| i.cmp(&j))
    })
}

/// Distribution summary of a rank vector — the concentration statistics a
/// search-engine operator watches (PageRank on web graphs is famously
/// heavy-tailed; a uniform distribution would mean the link structure
/// carries no signal).
#[derive(Debug, Clone, PartialEq)]
pub struct RankSummary {
    /// Number of pages.
    pub n: usize,
    /// Mean rank.
    pub mean: f64,
    /// Gini coefficient in [0, 1]: 0 = perfectly uniform, → 1 = all rank on
    /// one page.
    pub gini: f64,
    /// Shannon entropy of the normalized rank distribution, in bits.
    pub entropy_bits: f64,
    /// Selected percentiles of the rank values: p50, p90, p99, max.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest rank.
    pub max: f64,
}

impl RankSummary {
    /// Computes the summary (O(n log n) for the sort).
    ///
    /// # Panics
    /// If any rank is negative or non-finite.
    #[must_use]
    pub fn compute(ranks: &[f64]) -> Self {
        assert!(ranks.iter().all(|r| r.is_finite() && *r >= 0.0), "ranks must be >= 0");
        let n = ranks.len();
        if n == 0 {
            return Self {
                n: 0,
                mean: 0.0,
                gini: 0.0,
                entropy_bits: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = ranks.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let total: f64 = sorted.iter().sum();
        let mean = total / n as f64;

        // Gini via the sorted form: G = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n.
        let gini = if total > 0.0 {
            let weighted: f64 = sorted.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum();
            (2.0 * weighted / (n as f64 * total) - (n as f64 + 1.0) / n as f64).max(0.0)
        } else {
            0.0
        };

        let entropy_bits = if total > 0.0 {
            -sorted
                .iter()
                .filter(|&&x| x > 0.0)
                .map(|&x| {
                    let p = x / total;
                    p * p.log2()
                })
                .sum::<f64>()
        } else {
            0.0
        };

        // Standard nearest-rank percentile: the smallest value with at least
        // q·n observations at or below it, i.e. sorted[⌈q·n⌉ − 1].
        let pct = |q: f64| sorted[((q * n as f64).ceil() as usize).saturating_sub(1).min(n - 1)];
        Self {
            n,
            mean,
            gini,
            entropy_bits,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: sorted[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_ordering_and_ties() {
        let r = vec![0.5, 0.9, 0.5, 0.1];
        assert_eq!(top_k(&r, 3), vec![1, 0, 2]);
        assert_eq!(top_k(&r, 10), vec![1, 0, 2, 3]);
    }

    #[test]
    fn rank_summary_uniform_vs_concentrated() {
        let uniform = RankSummary::compute(&[1.0; 100]);
        assert!(uniform.gini < 1e-9);
        assert!((uniform.entropy_bits - 100f64.log2()).abs() < 1e-9);
        assert_eq!(uniform.p50, 1.0);

        let mut concentrated = vec![0.0; 100];
        concentrated[7] = 100.0;
        let c = RankSummary::compute(&concentrated);
        assert!(c.gini > 0.98, "gini {}", c.gini);
        assert!(c.entropy_bits < 1e-9);
        assert_eq!(c.max, 100.0);
        assert_eq!(c.p50, 0.0);
    }

    #[test]
    fn rank_summary_on_real_pagerank_is_heavy_tailed() {
        use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
        let g = edu_domain(&EduDomainConfig::small());
        let out = crate::centralized::open_pagerank(&g, &crate::RankConfig::default());
        let s = RankSummary::compute(&out.ranks);
        // Web-like graphs concentrate rank: Gini well above uniform and the
        // top page far above the median.
        assert!(s.gini > 0.2, "gini {}", s.gini);
        assert!(s.max > 5.0 * s.p50, "max {} p50 {}", s.max, s.p50);
    }

    #[test]
    fn rank_summary_empty() {
        let s = RankSummary::compute(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn top_k_tolerates_nan_ranks() {
        // A NaN rank (e.g. from a corrupted update) must not violate the
        // sort's ordering contract or scramble the order of the real ranks.
        // Under `total_cmp`, positive NaN outranks every real value, so
        // NaNs land first (ties still broken by page id) and the real
        // ranks keep their correct relative order.
        let r = vec![0.5, f64::NAN, 0.9, f64::NAN, 0.1];
        assert_eq!(top_k(&r, 5), vec![1, 3, 2, 0, 4]);
        assert_eq!(top_k(&r, 2), vec![1, 3]);
    }

    #[test]
    fn percentiles_follow_nearest_rank_definition() {
        // 1..=10: nearest-rank p50 = sorted[⌈0.5·10⌉−1] = sorted[4] = 5,
        // p90 = sorted[8] = 9, p99 = sorted[9] = 10.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = RankSummary::compute(&v);
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p90, 9.0);
        assert_eq!(s.p99, 10.0);
        // Single element: every percentile is that element.
        let one = RankSummary::compute(&[42.0]);
        assert_eq!(one.p50, 42.0);
        assert_eq!(one.p99, 42.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(top_k(&[], 3), Vec::<u32>::new());
    }

    #[test]
    fn top_k_among_keeps_only_listed_pages() {
        let r = [0.5, 0.9, 0.5, 0.1, 0.7];
        assert_eq!(top_k_among(&r, [0, 2, 3, 4], 3), vec![4, 0, 2]);
        assert_eq!(top_k_among(&r, [3], 5), vec![3]);
        assert!(top_k_among(&r, [], 5).is_empty());
    }

    /// Ties are the rule in this pool, with both zeros and both NaN signs
    /// (`total_cmp` orders all four apart).
    const POOL: [f64; 6] = [0.5, 0.25, 0.0, -0.0, f64::NAN, -f64::NAN];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        // The selection helper against its definition — a full sort, then
        // `truncate` — bit for bit, through `top_k` too. The index tiebreak
        // makes the order strict, as every caller's is.
        #[test]
        fn select_top_k_by_equals_sort_then_truncate(
            picks in proptest::collection::vec(0..POOL.len(), 0..80),
            extra_k in 0usize..90,
        ) {
            let ranks: Vec<f64> = picks.iter().map(|&i| POOL[i]).collect();
            let items: Vec<(f64, u32)> = ranks.iter().zip(0..).map(|(&r, i)| (r, i)).collect();
            let cmp = |a: &(f64, u32), b: &(f64, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
            let mut sorted = items.clone();
            sorted.sort_by(cmp);
            let n = items.len();
            for k in [0, 1, n.saturating_sub(1), n, n + 3, extra_k] {
                let want = &sorted[..k.min(n)];
                let got = select_top_k_by(items.iter().copied(), k, cmp);
                let bits = |v: &[(f64, u32)]| v.iter().map(|h| (h.0.to_bits(), h.1)).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&got), bits(want), "k = {}", k);
                let idx: Vec<u32> = want.iter().map(|h| h.1).collect();
                proptest::prop_assert_eq!(top_k(&ranks, k), idx, "top_k, k = {}", k);
            }
        }
    }
}
