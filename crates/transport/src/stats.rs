//! The closed-form cost model of §4.4 (formulas 4.1–4.4). The measured side
//! of the comparison is netrun's `NetCounters`: the `transmission` bin and
//! `tests/transport_overlay.rs` run both schemes there and set the counts
//! per iteration beside these forms.

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

    /// The N beyond which indirect transmission sends fewer messages than
    /// direct: smallest `n` with `g·n < (h+1)·n²`, i.e. `n > g/(h+1)`.
    /// "Direct transmission seems better only for small N."
    #[must_use]
    pub fn message_crossover_n(g: f64, h: f64) -> f64 {
        g / (h + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(analytic::message_crossover_n(g, h) > n);
    }
}
