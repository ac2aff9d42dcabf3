//! **EQ4** — direct vs. indirect transmission (§4.4, formulas 4.1–4.4),
//! measured on netrun, the host that runs both schemes. An all-to-all
//! exchange — `toy::complete(m·N)` split by URL hash into K = N groups on
//! N overlay nodes, so every group links into every other — runs under
//! each scheme, and the messages and bytes it sends per iteration (one
//! wake of every node) are set beside the paper's closed forms, with `h`
//! and `g` measured on the run's own overlay.
//!
//! Asserted at every N (the bin exits non-zero when one fails): direct
//! sends at most `(h+1)N²` messages, indirect at most `gN`, and indirect
//! fewer than direct. Indirect pays ~h× the record bytes.
//!
//! Usage: `transmission [--max-n N] [--overlay pastry|chord|can]`

use dpr_bench::BenchArgs;
use dpr_core::netrun::AnyOverlay;
use dpr_core::{try_run_over_network, NetRunConfig, OverlayKind, Transmission};
use dpr_graph::generators::toy;
use dpr_model::analytic;
use dpr_overlay::avg_route_hops;
use dpr_partition::{Partition, Strategy};
use dpr_transport::codec::{PAPER_LOOKUP_BYTES, PAPER_RECORD_BYTES};
use serde::Serialize;

/// Pages per group (`m`): with hashing, e^-m of the groups stay empty.
const PAGES_PER_GROUP: usize = 4;

#[derive(Serialize)]
struct Row {
    n: usize,
    hops: f64,
    mean_neighbors: f64,
    /// Records one iteration originates (every group's `Y`, one per
    /// destination page): the `W` of formulas 4.1–4.2.
    records: f64,
    direct_msgs: f64,
    indirect_msgs: f64,
    direct_bytes: f64,
    indirect_bytes: f64,
    s_dt_analytic: f64,
    s_it_analytic: f64,
    d_dt_analytic: f64,
    d_it_analytic: f64,
}

fn main() {
    let args = BenchArgs::from_env("transmission");
    let max_n = args.get("max-n", 400usize);
    let overlay_name = args.raw("overlay").unwrap_or("pastry").to_string();
    let overlay = match overlay_name.as_str() {
        "chord" => OverlayKind::Chord,
        "can" => OverlayKind::Can { d: 2 },
        _ => OverlayKind::Pastry,
    };

    let ns: Vec<usize> =
        [5usize, 10, 25, 50, 100, 200, 400, 800].into_iter().filter(|&n| n <= max_n).collect();

    let mut rows = Vec::new();
    for &n in &ns {
        let graph = toy::complete(PAGES_PER_GROUP * n);
        let cfg = |transmission| NetRunConfig {
            k: n,
            n_nodes: n,
            transmission,
            overlay,
            strategy: Strategy::HashByUrl,
            t1: 1.0,
            t2: 1.0,
            t_end: 20.0,
            seed: 0xFEED ^ n as u64,
            ..NetRunConfig::default()
        };
        // Messages and bytes per iteration.
        let per_iteration = |transmission| {
            let run = try_run_over_network(&graph, cfg(transmission)).expect("a valid config");
            let iterations = run.sim_stats.wakes as f64 / n as f64;
            let c = run.counters;
            ((c.data_messages + c.lookup_messages) as f64 / iterations, c.bytes as f64 / iterations)
        };
        let (direct_msgs, direct_bytes) = per_iteration(Transmission::Direct);
        let (indirect_msgs, indirect_bytes) = per_iteration(Transmission::Indirect);

        let deployed = AnyOverlay::build(&cfg(Transmission::Direct));
        let net = deployed.as_overlay();
        let hops = avg_route_hops(net, 1_000.min(n * 20), 1).mean;
        let g = net.mean_neighbors();
        // Each group with pages sends one record per page outside it.
        let sizes = Partition::build(&graph, &Strategy::HashByUrl, n, 0).group_sizes();
        let senders = sizes.iter().filter(|&&s| s > 0).count();
        let records = (graph.n_pages() * (senders - 1)) as f64;
        let (l, r) = (PAPER_RECORD_BYTES as f64, PAPER_LOOKUP_BYTES as f64);
        let row = Row {
            n,
            hops,
            mean_neighbors: g,
            records,
            direct_msgs,
            indirect_msgs,
            direct_bytes,
            indirect_bytes,
            s_dt_analytic: analytic::s_direct(hops, n as f64),
            s_it_analytic: analytic::s_indirect(g, n as f64),
            d_dt_analytic: analytic::d_direct(hops, l, records, r, n as f64),
            d_it_analytic: analytic::d_indirect(hops, l, records),
        };
        eprintln!(
            "[transmission] N={n:>4}: direct {direct_msgs:.0} msgs / indirect {indirect_msgs:.0} msgs per iteration"
        );
        assert!(row.direct_msgs <= row.s_dt_analytic, "N = {n}: direct above (h+1)N²");
        assert!(row.indirect_msgs <= row.s_it_analytic, "N = {n}: indirect above gN");
        assert!(row.indirect_msgs < row.direct_msgs, "N = {n}: indirect must send fewer");
        rows.push(row);
    }

    println!(
        "\nDirect vs indirect transmission on netrun ({overlay_name} overlay, K = N groups on N \
         nodes, all-to-all, per iteration)\n"
    );
    println!(
        "{:>5} {:>6} {:>6} | {:>10} {:>10} {:>6} | {:>10} {:>8} {:>6} | {:>9} {:>6} | {:>9} {:>6}",
        "N",
        "h",
        "g",
        "direct",
        "(h+1)N^2",
        "ratio",
        "indirect",
        "gN",
        "ratio",
        "dir MB",
        "/D_dt",
        "ind MB",
        "/D_it"
    );
    for r in &rows {
        println!(
            "{:>5} {:>6.2} {:>6.1} | {:>10.0} {:>10.0} {:>6.2} | {:>10.0} {:>8.0} {:>6.2} | {:>9.3} {:>6.2} | {:>9.3} {:>6.2}",
            r.n,
            r.hops,
            r.mean_neighbors,
            r.direct_msgs,
            r.s_dt_analytic,
            r.direct_msgs / r.s_dt_analytic,
            r.indirect_msgs,
            r.s_it_analytic,
            r.indirect_msgs / r.s_it_analytic,
            r.direct_bytes / 1e6,
            r.direct_bytes / r.d_dt_analytic,
            r.indirect_bytes / 1e6,
            r.indirect_bytes / r.d_it_analytic,
        );
    }

    let last = rows.last().expect("at least one N");
    println!(
        "\nAt N = {}: indirect sends {:.1}x fewer messages at {:.2}x the bytes (the h-hop \
         forwarding cost). Both stay below their closed forms: netrun sends one package per \
         owner, not per group, and DHT placement leaves some nodes without a group.",
        last.n,
        last.direct_msgs / last.indirect_msgs,
        last.indirect_bytes / last.direct_bytes,
    );

    if let Err(e) = args.emit(&rows) {
        eprintln!("[transmission] JSON write failed: {e}");
    }
}
