//! **TAB1** — Table 1 of the paper: the minimal time interval between
//! iterations and the minimal per-node bottleneck bandwidth for 1 000,
//! 10 000 and 100 000 page rankers ranking 3 billion pages, under the §4.5
//! bisection-bandwidth constraint.
//!
//! Usage: `table1 [--pages W] [--record-bytes L] [--bisection-mb C]`
//! (defaults are the paper's constants). Also cross-checks the Pastry hop
//! constants against a measured overlay at 1 000 nodes.
//!
//! Asserted (the bin exits non-zero when one fails): at the paper's
//! constants, its row — 7 500 / 10 500 / 12 000 s and 100 / 10 / 1 KB/s —
//! and "at least 2 hours" per iteration at 1 000 rankers; at any
//! constants, measured Pastry hops at 1 000 nodes within 0.3 of the
//! paper's 2.5.

use dpr_bench::BenchArgs;
use dpr_model::{pastry_hops, render_table1, CapacityModel};
use dpr_overlay::{avg_route_hops, PastryNetwork};

fn main() {
    let args = BenchArgs::from_env("table1");
    let model = CapacityModel {
        total_pages: args.get("pages", 3.0e9),
        link_record_bytes: args.get("record-bytes", 100.0),
        usable_bisection_bytes_per_sec: args.get("bisection-mb", 100.0) * 1e6,
    };

    let rows: Vec<_> = [1_000u64, 10_000, 100_000].iter().map(|&n| model.row(n)).collect();

    println!("Table 1 — minimal iteration interval and bottleneck bandwidth");
    println!(
        "  (W = {:.1e} pages, l = {} B, usable bisection = {:.0} MB/s)\n",
        model.total_pages,
        model.link_record_bytes,
        model.usable_bisection_bytes_per_sec / 1e6
    );
    println!("{}", render_table1(&rows));

    println!("Paper reference row:        1,000: 7500s/100KB/s   10,000: 10500s/10KB/s   100,000: 12000s/1KB/s");
    println!(
        "\nConclusion check: at 1000 rankers one iteration takes ≥ {:.1} hours (paper: \"at least 2 hours\").",
        rows[0].min_iteration_interval_secs / 3600.0
    );
    // Overridden constants are what-ifs: the paper's row is only theirs.
    if ["pages", "record-bytes", "bisection-mb"].iter().all(|k| args.raw(k).is_none()) {
        let paper = [(1_000, 7_500.0, 100e3), (10_000, 10_500.0, 10e3), (100_000, 12_000.0, 1e3)];
        for (row, (n, secs, bytes_per_sec)) in rows.iter().zip(paper) {
            assert_eq!(row.n_rankers, n);
            assert!((row.min_iteration_interval_secs - secs).abs() < 1.0, "{n}: {row:?}");
            assert!((row.min_bottleneck_bytes_per_sec - bytes_per_sec).abs() < 1e2, "{n}: {row:?}");
        }
        assert!(rows[0].min_iteration_interval_secs >= 2.0 * 3600.0, "under 2 h: {:?}", rows[0]);
    }

    // Cross-check h against a real simulated overlay at the scale we can
    // afford to build here.
    eprintln!("[table1] measuring Pastry hops at 1000 nodes …");
    let net = PastryNetwork::with_nodes(1_000, 0xBEE);
    let measured = avg_route_hops(&net, 2_000, 1).mean;
    println!(
        "\nMeasured Pastry hops at 1000 nodes: {measured:.2} (paper constant {:.1})",
        pastry_hops(1_000)
    );
    assert!((measured - pastry_hops(1_000)).abs() <= 0.3, "measured {measured:.2} hops");

    if let Err(e) = args.emit(&rows) {
        eprintln!("[table1] JSON write failed: {e}");
    }
}
