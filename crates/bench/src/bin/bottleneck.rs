//! **BOTTLENECK** — §4.5's per-node bandwidth constraint, *measured*: each
//! ranker's uplink serializes its outgoing rank exchange at `B` bytes per
//! virtual-time unit, so an undersized uplink queues messages and delays
//! convergence. Sweeps `B` and reports time-to-1%-error — the dynamic
//! counterpart of Table 1's bottleneck column, plus the overlay comparison
//! (Pastry vs Chord vs CAN) at a fixed B.
//!
//! Asserted (the bin exits non-zero when one fails): the time to 1% error
//! never falls as B shrinks, the smallest B is strictly slower than an
//! unlimited uplink, and Pastry moves the fewest bytes of the three
//! overlays.
//!
//! Usage: `bottleneck [--pages N] [--k K] [--t-end T]`

use dpr_bench::BenchArgs;
use dpr_core::{try_run_over_network, NetRunConfig, OverlayKind, Transmission};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_partition::Strategy;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    bottleneck_bytes_per_time: Option<f64>,
    time_to_1pct: Option<f64>,
    final_rel_err: f64,
    megabytes: f64,
}

#[derive(Serialize)]
struct OverlayRow {
    overlay: String,
    time_to_1pct: Option<f64>,
    data_messages: u64,
    megabytes: f64,
}

fn main() {
    let args = BenchArgs::from_env("bottleneck");
    let pages = args.get("pages", 10_000usize);
    let k = args.get("k", 64usize);
    let t_end = args.get("t-end", 400.0f64);
    let seed = args.get("seed", 5u64);

    eprintln!("[bottleneck] generating edu-domain graph: {pages} pages");
    let g =
        edu_domain(&EduDomainConfig { n_pages: pages, n_sites: 50, ..EduDomainConfig::default() });
    let base = NetRunConfig {
        k,
        n_nodes: k,
        strategy: Strategy::HashBySite,
        t_end,
        seed,
        ..NetRunConfig::default()
    };

    // --- Sweep B. ----------------------------------------------------------
    let mut rows = Vec::new();
    for b in [None, Some(1e6), Some(2e5), Some(1e5), Some(5e4), Some(2e4), Some(1e4), Some(5e3)] {
        let res =
            try_run_over_network(&g, NetRunConfig { bottleneck_bytes_per_time: b, ..base.clone() })
                .expect("bench config uses supported churn");
        eprintln!(
            "[bottleneck] B = {b:?}: 1% at t = {:?}, final {:.4}%",
            res.rel_err.first_time_below(0.01),
            res.final_rel_err * 100.0
        );
        rows.push(Row {
            bottleneck_bytes_per_time: b,
            time_to_1pct: res.rel_err.first_time_below(0.01),
            final_rel_err: res.final_rel_err,
            megabytes: res.counters.bytes as f64 / 1e6,
        });
    }

    println!("\nPer-node uplink bandwidth vs convergence (K = {k}, indirect transmission)\n");
    println!("{:>14} {:>12} {:>14} {:>10}", "B (bytes/t)", "t @ 1% err", "final err %", "MB moved");
    for r in &rows {
        println!(
            "{:>14} {:>12} {:>14.4} {:>10.1}",
            r.bottleneck_bytes_per_time.map_or("unlimited".into(), |b| format!("{b:.0}")),
            r.time_to_1pct.map_or("-".into(), |t| format!("{t:.0}")),
            r.final_rel_err * 100.0,
            r.megabytes
        );
    }

    // --- Overlay comparison at unlimited B. ---------------------------------
    let mut orows = Vec::new();
    for (name, overlay) in [
        ("pastry", OverlayKind::Pastry),
        ("chord", OverlayKind::Chord),
        ("can-d2", OverlayKind::Can { d: 2 }),
    ] {
        let res = try_run_over_network(
            &g,
            NetRunConfig { overlay, transmission: Transmission::Indirect, ..base.clone() },
        )
        .expect("bench config uses supported churn");
        orows.push(OverlayRow {
            overlay: name.to_string(),
            time_to_1pct: res.rel_err.first_time_below(0.01),
            data_messages: res.counters.data_messages,
            megabytes: res.counters.bytes as f64 / 1e6,
        });
    }
    println!("\nOverlay comparison (same workload, indirect transmission)\n");
    println!("{:<8} {:>12} {:>12} {:>10}", "overlay", "t @ 1% err", "messages", "MB moved");
    for r in &orows {
        println!(
            "{:<8} {:>12} {:>12} {:>10.1}",
            r.overlay,
            r.time_to_1pct.map_or("-".into(), |t| format!("{t:.0}")),
            r.data_messages,
            r.megabytes
        );
    }
    println!("\n(Longer CAN/Chord routes mean more forwarded bytes for the same exchange — the reason §4.5 assumes Pastry.)");

    // A run that never reaches 1% counts as infinitely slow.
    let t = |r: &Row| r.time_to_1pct.unwrap_or(f64::INFINITY);
    for w in rows.windows(2) {
        assert!(
            t(&w[1]) >= t(&w[0]),
            "t@1% fell as B shrank: {:?} then {:?}",
            w[0].time_to_1pct,
            w[1].time_to_1pct
        );
    }
    let (unlimited, smallest) = (&rows[0], &rows[rows.len() - 1]);
    assert!(t(smallest) > t(unlimited), "the smallest B is not slower than an unlimited uplink");
    for other in &orows[1..] {
        assert!(
            orows[0].megabytes < other.megabytes,
            "{} moved fewer bytes than Pastry",
            other.overlay
        );
    }

    if let Err(e) = args.emit(&(rows, orows)) {
        eprintln!("[bottleneck] JSON write failed: {e}");
    }
}
