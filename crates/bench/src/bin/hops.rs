//! **HOPS** — measures the average lookup hop count of the simulated
//! overlays across network sizes, validating the `h` constants §4.5 plugs
//! into Table 1 (Pastry ≈ 2.5 hops at 1 000 nodes, 3.5 at 10 000, 4.0 at
//! 100 000) and contrasting with Chord's ½·log₂N.
//!
//! Asserted (the bin exits non-zero when one fails): Pastry's mean is
//! below Chord's at every N, and proximity neighbor selection shortens the
//! mean route distance against the same network's oblivious tables.
//!
//! Usage: `hops [--max-n N] [--samples S]`

use dpr_bench::BenchArgs;
use dpr_model::pastry_hops;
use dpr_overlay::{avg_route_hops, CanNetwork, ChordNetwork, PastryNetwork};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n: usize,
    pastry_mean: f64,
    pastry_max: usize,
    chord_mean: f64,
    chord_max: usize,
    /// CAN (d=2) mean hops; omitted at scales where the O(N²) neighbor
    /// construction is unreasonable.
    can_mean: Option<f64>,
    paper_h: f64,
    mean_neighbors_pastry: f64,
}

fn main() {
    let args = BenchArgs::from_env("hops");
    let max_n = args.get("max-n", 100_000usize);
    let samples = args.get("samples", 2_000usize);

    let ns: Vec<usize> =
        [100usize, 1_000, 10_000, 100_000].into_iter().filter(|&n| n <= max_n).collect();

    let mut rows = Vec::new();
    for &n in &ns {
        eprintln!("[hops] building overlays with {n} nodes …");
        let pastry = PastryNetwork::with_nodes(n, 0xCAFE ^ n as u64);
        let chord = ChordNetwork::with_nodes(n, 0xF00D ^ n as u64);
        let ps = avg_route_hops(&pastry, samples, 1);
        let cs = avg_route_hops(&chord, samples, 2);
        let can_mean = (n <= 4_096).then(|| {
            let can = CanNetwork::with_nodes(n, 2, 0xCA0 ^ n as u64);
            avg_route_hops(&can, samples, 3).mean
        });
        let g = {
            use dpr_overlay::Overlay;
            pastry.mean_neighbors()
        };
        eprintln!(
            "[hops]   pastry {:.2} (max {}), chord {:.2} (max {})",
            ps.mean, ps.max, cs.mean, cs.max
        );
        assert!(ps.mean < cs.mean, "N = {n}: Pastry {:.2} hops, Chord {:.2}", ps.mean, cs.mean);
        rows.push(Row {
            n,
            pastry_mean: ps.mean,
            pastry_max: ps.max,
            chord_mean: cs.mean,
            chord_max: cs.max,
            can_mean,
            paper_h: pastry_hops(n as u64),
            mean_neighbors_pastry: g,
        });
    }

    println!("\nAverage lookup hops (the `h` of §4.5)\n");
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "N", "Pastry mean", "max", "Chord mean", "max", "CAN d=2", "paper h", "Pastry g"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.2} {:>10} {:>12.2} {:>10} {:>10} {:>10.2} {:>12.1}",
            r.n,
            r.pastry_mean,
            r.pastry_max,
            r.chord_mean,
            r.chord_max,
            r.can_mean.map_or("-".to_string(), |v| format!("{v:.2}")),
            r.paper_h,
            r.mean_neighbors_pastry
        );
    }
    println!("\n(The paper quotes 2.5 / 3.5 / 4.0 Pastry hops at 1k / 10k / 100k nodes.)");

    // Proximity neighbor selection: same hop counts, shorter physical
    // routes (the Pastry locality property).
    let n = 1_000.min(max_n.max(2));
    let pns = PastryNetwork::with_nodes_and_proximity(n, 0xDADA);
    // Rebuild the same network's tables without proximity awareness
    // (strip + rebuild + re-attach; see the PNS unit tests for rationale).
    let oblivious = {
        let mut tmp = pns.clone();
        let loc = tmp.strip_locations_for_benchmark();
        tmp.repair();
        tmp.restore_locations_for_benchmark(loc);
        tmp
    };
    let d_pns = pns.mean_route_distance(samples, 9);
    let d_plain = oblivious.mean_route_distance(samples, 9);
    println!(
        "\nProximity neighbor selection at N = {n}: mean route distance {d_pns:.3} vs {d_plain:.3} \
         oblivious ({:.0}% shorter at equal hop count).",
        100.0 * (1.0 - d_pns / d_plain)
    );
    assert!(d_pns < d_plain, "PNS {d_pns:.3} not shorter than oblivious {d_plain:.3}");

    if let Err(e) = args.emit(&rows) {
        eprintln!("[hops] JSON write failed: {e}");
    }
}
