//! Structured-overlay tour: build Pastry and Chord networks, route lookups,
//! then run an all-to-all rank exchange on netrun under both transmission
//! schemes, reproducing the §4.4 message-count argument on the protocol
//! that actually runs.
//!
//! Run with: `cargo run --release --example overlay_routing`

use dpr::core::netrun::AnyOverlay;
use dpr::core::{try_run_over_network, NetRunConfig, Transmission};
use dpr::graph::generators::toy;
use dpr::model::analytic;
use dpr::overlay::id::key_from_u64;
use dpr::overlay::{avg_route_hops, ChordNetwork, Overlay, PastryNetwork};
use dpr::partition::{Partition, Strategy};
use dpr::transport::codec::{PAPER_LOOKUP_BYTES, PAPER_RECORD_BYTES};

fn main() {
    let n = 500;
    println!("building Pastry and Chord overlays with {n} nodes each …");
    let pastry = PastryNetwork::with_nodes(n, 0xA11CE);
    let chord = ChordNetwork::with_nodes(n, 0xB0B);

    // --- Lookup behaviour. -------------------------------------------------
    for (name, net) in [("pastry", &pastry as &dyn Overlay), ("chord", &chord as &dyn Overlay)] {
        let stats = avg_route_hops(net, 2_000, 42);
        println!(
            "\n{name}: mean {:.2} hops (max {}), {:.1} neighbors/node",
            stats.mean,
            stats.max,
            net.mean_neighbors()
        );
        print!("  hop histogram: ");
        for (h, count) in stats.histogram.iter().enumerate() {
            print!("{h}:{count} ");
        }
        println!();
    }

    // One concrete lookup with its full path.
    let key = key_from_u64(0xFEED);
    let path = pastry.route(7, key);
    println!(
        "\nexample Pastry lookup from node 7: {} hops to the responsible node {:?}",
        path.len(),
        path.last()
    );

    // --- An all-to-all rank exchange on netrun, both schemes. --------------
    // `toy::complete(4N)` split by URL hash into N groups on N Pastry
    // nodes: every group links into every other, §4.4's worst case.
    let n = 100;
    println!("\nranking an all-to-all graph with {n} groups on {n} Pastry nodes, both schemes …");
    let graph = toy::complete(4 * n);
    let cfg = |transmission| NetRunConfig {
        k: n,
        n_nodes: n,
        transmission,
        strategy: Strategy::HashByUrl,
        t1: 1.0,
        t2: 1.0,
        t_end: 20.0,
        ..NetRunConfig::default()
    };
    // Messages and bytes per iteration, one iteration being one wake of
    // every node.
    let per_iteration = |transmission| {
        let run = try_run_over_network(&graph, cfg(transmission)).expect("a valid config");
        let iterations = run.sim_stats.wakes as f64 / n as f64;
        let c = run.counters;
        ((c.data_messages + c.lookup_messages) as f64 / iterations, c.bytes as f64 / iterations)
    };
    let (direct, direct_bytes) = per_iteration(Transmission::Direct);
    let (indirect, indirect_bytes) = per_iteration(Transmission::Indirect);

    // `h` and `g` on the run's own overlay; `W` is one record per page
    // outside each group that has pages.
    let deployed = AnyOverlay::build(&cfg(Transmission::Direct));
    let h = avg_route_hops(deployed.as_overlay(), 1_000, 1).mean;
    let g = deployed.as_overlay().mean_neighbors();
    let sizes = Partition::build(&graph, &Strategy::HashByUrl, n, 0).group_sizes();
    let w = (graph.n_pages() * (sizes.iter().filter(|&&s| s > 0).count() - 1)) as f64;
    let (l, r) = (PAPER_RECORD_BYTES as f64, PAPER_LOOKUP_BYTES as f64);

    println!("\n§4.4 closed forms at N = {n} (h = {h:.2}, g = {g:.1}), per iteration:");
    let s_dt = analytic::s_direct(h, n as f64);
    let s_it = analytic::s_indirect(g, n as f64);
    println!("  S_dt = (h+1)N²    = {s_dt:>10.0} msgs   vs measured {direct:.0}");
    println!("  S_it = gN         = {s_it:>10.0} msgs   vs measured {indirect:.0}");
    println!(
        "  D_dt = lW + hrN²  = {:>10.0} bytes  vs measured {direct_bytes:.0}",
        analytic::d_direct(h, l, w, r, n as f64)
    );
    println!(
        "  D_it = hlW        = {:>10.0} bytes  vs measured {indirect_bytes:.0}",
        analytic::d_indirect(h, l, w)
    );
    assert!(direct <= s_dt && indirect <= s_it && indirect < direct);
    println!("\nOK: indirect transmission needs O(gN) messages, direct O((h+1)N²).");
}
