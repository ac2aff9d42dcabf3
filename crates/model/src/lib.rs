//! The §4.5 capacity model: how fast *can* distributed page ranking iterate?
//!
//! The paper bounds the iteration rate of indirect transmission by two
//! resources:
//!
//! 1. **Internet bisection bandwidth** — `D_it = h·l·W` bytes must cross the
//!    backbone each iteration; with a usable share `C` of the backbone,
//!    `T ≥ h·l·W / C` (formula 4.6). The paper takes the 1999 U.S. backbone
//!    estimate of 100 gigabits from \[17\] and allows page ranking one
//!    percent of it: `C = 1 Gbit/s = 100 MB/s` (paper's rounding — it treats
//!    1 gigabit as 100 MB).
//! 2. **Per-node bottleneck bandwidth** — each of the `N` rankers must
//!    absorb its `D_it / N` slice within `T`: `B ≥ D_it / (N·T)`
//!    (formula 4.7).
//!
//! [`CapacityModel`] evaluates both constraints; [`table1`] regenerates
//! Table 1 (minimal time per iteration and needed bottleneck bandwidth for
//! 1 000 / 10 000 / 100 000 page rankers ranking 3 billion pages), using the
//! paper's Pastry hop counts `h(N)`. [`analytic`] holds §4.4's closed forms
//! (formulas 4.1–4.4) that `D_it` comes from: the `transmission` bin and
//! `tests/transport_overlay.rs` set netrun's measured messages and bytes
//! per iteration beside them.

//!
//! # Example
//!
//! ```
//! use dpr_model::{pastry_hops, CapacityModel};
//!
//! let row = CapacityModel::default().row(1_000);
//! assert!((row.min_iteration_interval_secs - 7_500.0).abs() < 1.0); // paper Table 1
//! assert!((pastry_hops(1_000) - 2.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

use serde::Serialize;

/// Bytes per megabyte in the paper's loose accounting (decimal).
const MB: f64 = 1e6;

/// Inputs of the capacity model. Defaults reproduce the paper's example.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CapacityModel {
    /// Total pages being ranked, `W` (paper: 3 billion — Google's 2003
    /// index size).
    pub total_pages: f64,
    /// Average bytes per link-exchange record, `l` (paper: 100).
    pub link_record_bytes: f64,
    /// Usable internet bisection bandwidth in bytes/s (paper: 1% of
    /// 100 Gbit ⇒ "100 MB per second").
    pub usable_bisection_bytes_per_sec: f64,
}

impl Default for CapacityModel {
    fn default() -> Self {
        Self {
            total_pages: 3.0e9,
            link_record_bytes: 100.0,
            usable_bisection_bytes_per_sec: 100.0 * MB,
        }
    }
}

/// The paper's Pastry average hop counts as a function of network size
/// (§4.5: 2.5 hops at 1 000 nodes, ~3.5 at 10 000, ~4.0 at 100 000). For
/// other sizes this interpolates `log₁₆ N`, which those three data points
/// sit on.
#[must_use]
pub fn pastry_hops(n_rankers: u64) -> f64 {
    match n_rankers {
        1_000 => 2.5,
        10_000 => 3.5,
        100_000 => 4.0,
        n => (n as f64).ln() / 16.0_f64.ln(),
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table1Row {
    /// Number of page rankers `N`.
    pub n_rankers: u64,
    /// Average lookup hops `h` at that scale.
    pub hops: f64,
    /// Minimal time between iterations in seconds (formula 4.6).
    pub min_iteration_interval_secs: f64,
    /// Minimal per-node bottleneck bandwidth in bytes/s (formula 4.7,
    /// evaluated at the minimal interval).
    pub min_bottleneck_bytes_per_sec: f64,
}

impl CapacityModel {
    /// Total bytes per iteration with indirect transmission,
    /// `D_it = h·l·W` (formula 4.1).
    #[must_use]
    pub fn bytes_per_iteration(&self, hops: f64) -> f64 {
        analytic::d_indirect(hops, self.link_record_bytes, self.total_pages)
    }

    /// Formula 4.6: the bisection constraint
    /// `T ≥ D_it / usable_bisection`.
    #[must_use]
    pub fn min_iteration_interval(&self, hops: f64) -> f64 {
        self.bytes_per_iteration(hops) / self.usable_bisection_bytes_per_sec
    }

    /// Computes one Table 1 row for `n_rankers` nodes. The bottleneck
    /// column is formula 4.7 solved for `B` at the minimal interval `t`:
    /// each of the `N` nodes must move its `D_it / N` share within `t`.
    #[must_use]
    pub fn row(&self, n_rankers: u64) -> Table1Row {
        let hops = pastry_hops(n_rankers);
        let t = self.min_iteration_interval(hops);
        assert!(n_rankers > 0 && t > 0.0);
        Table1Row {
            n_rankers,
            hops,
            min_iteration_interval_secs: t,
            min_bottleneck_bytes_per_sec: self.bytes_per_iteration(hops) / (n_rankers as f64 * t),
        }
    }
}

/// Regenerates Table 1 with the paper's three scales.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let m = CapacityModel::default();
    [1_000u64, 10_000, 100_000].iter().map(|&n| m.row(n)).collect()
}

/// Renders rows in the paper's layout (for the experiment binary and
/// EXPERIMENTS.md).
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("# of Page Rankers      ");
    for r in rows {
        s.push_str(&format!("{:>12}", r.n_rankers));
    }
    s.push_str("\nTime per Iteration     ");
    for r in rows {
        s.push_str(&format!("{:>11.0}s", r.min_iteration_interval_secs));
    }
    s.push_str("\nBottleneck Bandwidth   ");
    for r in rows {
        s.push_str(&format!("{:>9.0}KB/s", r.min_bottleneck_bytes_per_sec / 1e3));
    }
    s.push('\n');
    s
}

/// The paper's closed-form estimates (formulas 4.1–4.4). All take the same
/// symbols the paper uses: `w` pages total, `n` page rankers, `h` average
/// lookup hops, `l` bytes per link record, `r` bytes per lookup message,
/// `g` average neighbors per node.
pub mod analytic {
    /// Formula 4.1 — bytes moved per iteration with indirect transmission:
    /// `D_it = h·l·W` (every one of the ~W inter-group link records is
    /// forwarded over `h` hops on average).
    #[must_use]
    pub fn d_indirect(h: f64, l: f64, w: f64) -> f64 {
        h * l * w
    }

    /// Formula 4.2 — bytes with direct transmission:
    /// `D_dt = l·W + h·r·N²` (records travel one logical hop, but every
    /// pair of rankers first pays an `h`-hop lookup of `r` bytes).
    #[must_use]
    pub fn d_direct(h: f64, l: f64, w: f64, r: f64, n: f64) -> f64 {
        l * w + h * r * n * n
    }

    /// Formula 4.3 — messages per iteration with indirect transmission:
    /// `S_it = g·N` (each node sends one package per neighbor).
    #[must_use]
    pub fn s_indirect(g: f64, n: f64) -> f64 {
        g * n
    }

    /// Formula 4.4 — messages with direct transmission:
    /// `S_dt = (h+1)·N²` (an `h`-message lookup plus one data message for
    /// every ordered pair of rankers).
    #[must_use]
    pub fn s_direct(h: f64, n: f64) -> f64 {
        (h + 1.0) * n * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_values() {
        let rows = table1();
        // Paper: 7500 s / 10500 s / 12000 s.
        assert!((rows[0].min_iteration_interval_secs - 7_500.0).abs() < 1.0);
        assert!((rows[1].min_iteration_interval_secs - 10_500.0).abs() < 1.0);
        assert!((rows[2].min_iteration_interval_secs - 12_000.0).abs() < 1.0);
        // Paper: 100 KB/s / 10 KB/s / 1 KB/s.
        assert!((rows[0].min_bottleneck_bytes_per_sec - 100e3).abs() < 1e2);
        assert!((rows[1].min_bottleneck_bytes_per_sec - 10e3).abs() < 1e2);
        assert!((rows[2].min_bottleneck_bytes_per_sec - 1e3).abs() < 1e2);
    }

    #[test]
    fn two_hour_conclusion() {
        // §4.5: "the time interval between two iterations is at least 2
        // hours" at 1000 rankers.
        let t = CapacityModel::default().min_iteration_interval(pastry_hops(1_000));
        assert!(t >= 2.0 * 3600.0, "T = {t}");
    }

    #[test]
    fn interpolated_hops_consistent_with_anchors() {
        // log16 interpolation should pass near the quoted anchor points.
        assert!((pastry_hops(999) - 2.49).abs() < 0.05);
        assert!((pastry_hops(100_001) - 4.15).abs() < 0.05);
        // Monotone in N.
        assert!(pastry_hops(500) < pastry_hops(5_000));
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render_table1(&table1());
        for key in ["1000", "10000", "100000", "7500s", "100KB/s"] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn paper_example_formula_4_6() {
        // §4.5 example: W = 3G pages, l = 100 B, h = 2.5 ⇒ D_it = 750 GB;
        // at 100 MB/s that is T > 7500 s.
        let d = analytic::d_indirect(2.5, 100.0, 3.0e9);
        let t = d / 100.0e6;
        assert!((t - 7500.0).abs() < 1.0, "T = {t}");
    }

    #[test]
    fn indirect_beats_direct_for_large_n() {
        let (h, g) = (2.5, 40.0);
        let n = 1000.0;
        assert!(analytic::s_indirect(g, n) < analytic::s_direct(h, n));
        assert!(
            analytic::d_indirect(h, 100.0, 3.0e9)
                < analytic::d_direct(h, 100.0, 3.0e9, 50.0, 100_000.0)
        );
    }

    #[test]
    fn direct_beats_indirect_for_tiny_n() {
        let (h, g) = (2.5, 40.0);
        let n = 3.0; // below the crossover g/(h+1) ≈ 11.4
        assert!(analytic::s_direct(h, n) < analytic::s_indirect(g, n));
    }
}
