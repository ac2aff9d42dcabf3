//! The `dpr` subcommand implementations.

use std::io::Write;

use dpr_core::centralized::{open_pagerank, pagerank};
use dpr_core::hits::{hits, HitsConfig};
use dpr_core::metrics::{top_k, top_k_among};
use dpr_core::{DprVariant, NetRunConfig, RankConfig, RunRecorder};
use dpr_crawl::crawler::parallel_crawl;
use dpr_crawl::{crawl_to_graph, CrawlBudget, HiddenWeb, HiddenWebConfig, Mode};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::{GraphStats, WebGraph};
use dpr_model::{pastry_hops, CapacityModel};
use dpr_partition::{Partition, PartitionMetrics, Strategy};

use crate::args::Args;

/// Top-level usage text.
pub const HELP: &str = "\
dpr — distributed page ranking in structured P2P networks

USAGE: dpr <command> [args]

COMMANDS:
  generate  --pages N --sites S [--seed X] [--binary] --out FILE
            Synthesize an edu-domain crawl dataset. --binary streams the
            graph to the compact snapshot format without materializing
            the edge list (use it for 10M-page graphs); every command
            reads both formats transparently.
  crawl     --web-pages N --sites S [--agents A] [--mode firewall|crossover|exchange]
            [--budget B] --out FILE
            Crawl a synthetic hidden web with parallel agents.
  stats     FILE
            Print dataset statistics.
  partition FILE [--k K] [--strategy site|url|random]
            Evaluate a dividing strategy (cut links, balance, stability).
  rank      FILE [--algo cpr|pagerank|hits] [--top T] [--alpha A]
            Centralized ranking baselines.
  simulate  FILE [--k K] [--variant dpr1|dpr2] [--p P] [--t1 T] [--t2 T]
            [--t-end T] [--strategy site|url|random] [--seed X]
            [--warm-start RANKS] [--save-ranks RANKS] [--threaded]
            Asynchronous distributed ranking with failure injection;
            rank files enable warm restarts across invocations;
            --threaded runs real OS threads instead of the simulator.
            Whole-system mode (rank exchange routed through the overlay):
            --net [--nodes N] [--overlay pastry|chord|can] [--can-dims D]
            [--transmission indirect|direct]
            [--reliable] [--ack-timeout T] [--max-retries R]
            [--crash T:NODE[,T:NODE...]] [--join T:SEED[,T:SEED...]]
            [--deltas T:CHURN[,T:CHURN...]] [--churn-rate R] [--churn-every T]
            [--partition T1:T2:LO-HI] [--engine-workers W]
            [--replicas K] [--checkpoint-every T] [--suspect-after N]
            [--store-topk K]
            --reliable turns on ack/retry/dedup delivery; --crash departs
            nodes (state lost), --join adds nodes (graceful handoff),
            --partition severs nodes LO..=HI from the rest during [T1,T2);
            --deltas lands a crawl delta churning link fraction CHURN at
            each time T (dirtied groups warm-restart from the previous
            fixed point, everyone else stays converged); --churn-rate R
            instead churns fraction R every --churn-every time units —
            the continuous live-web scenario;
            --replicas K ships group checkpoints to K overlay replicas
            every --checkpoint-every T time units; a replica re-hosts a
            crashed owner's groups warm after N missed checkpoints
            (--suspect-after); 0 replicas = the exact baseline;
            --engine-workers W runs same-window node solves on W pool
            threads (default 1 = sequential; results are bit-identical
            at any W);
            --store-topk K publishes epoch-versioned rank snapshots into
            the concurrent serving store after every sample slice and
            prints the store-served top K (bit-identical to the live
            final ranks by construction).
            An option the command does not have, or a value that does
            not parse, is an error: nothing runs.
  top       FILE --ranks RANKS [--k K] [--site S]
            Top pages from a saved rank file (optionally one site only).
  analyze   FILE [--sinks-only]
            Structural audit: SCCs, rank sinks, reachability from site seeds.
  plan      [--rankers N] [--pages W] [--record-bytes L] [--bisection-mb C]
            Capacity planning (paper Table 1 math).
";

/// What every command returns. Each writes its report to the writer it is
/// handed and propagates a failed write as its `io::Error`, so a reader
/// that goes away ends the command instead of panicking it; every other
/// failure is a message.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Loads a graph in either format, sniffing the binary snapshot magic.
fn load_graph(path: &str) -> Result<WebGraph, String> {
    use std::io::Read;
    let mut magic = [0u8; 6];
    let is_snapshot = std::fs::File::open(path)
        .map_err(|e| format!("cannot read graph {path}: {e}"))?
        .read_exact(&mut magic)
        .is_ok()
        && &magic == dpr_graph::io::SNAPSHOT_MAGIC;
    if is_snapshot {
        dpr_graph::io::load_snapshot(path).map_err(|e| format!("cannot read graph {path}: {e}"))
    } else {
        dpr_graph::io::load(path).map_err(|e| format!("cannot read graph {path}: {e}"))
    }
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "site" => Ok(Strategy::HashBySite),
        "url" => Ok(Strategy::HashByUrl),
        "random" => Ok(Strategy::Random { seed: 0xD1CE }),
        other => Err(format!("unknown strategy `{other}` (site|url|random)")),
    }
}

/// `dpr generate`
pub fn generate(args: &Args, w: &mut dyn Write) -> CmdResult {
    let out = args.get_str("out", "");
    if out.is_empty() {
        return Err("generate needs --out FILE".into());
    }
    let cfg = EduDomainConfig {
        n_pages: args.get("pages", 50_000usize)?,
        n_sites: args.get("sites", 100usize)?,
        seed: args.get("seed", EduDomainConfig::default().seed)?,
        ..EduDomainConfig::default()
    };
    let binary = args.flag("binary")?;
    args.reject_unread()?;
    if binary {
        // Stream rows straight to the compact snapshot — the edge list is
        // never materialized in memory, so 10M-page graphs are fine.
        dpr_graph::generators::edu_domain_to_snapshot_path(&cfg, out)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        writeln!(w, "streamed {} pages to binary snapshot {out}", cfg.n_pages)?;
        return Ok(());
    }
    let g = edu_domain(&cfg);
    dpr_graph::io::save(&g, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    writeln!(w, "wrote {} pages / {} links to {out}", g.n_pages(), g.n_internal_links())?;
    Ok(())
}

/// `dpr crawl`
pub fn crawl(args: &Args, w: &mut dyn Write) -> CmdResult {
    let out = args.get_str("out", "");
    if out.is_empty() {
        return Err("crawl needs --out FILE".into());
    }
    let web = HiddenWeb::new(HiddenWebConfig {
        total_pages: args.get("web-pages", 100_000u64)?,
        n_sites: args.get("sites", 100usize)?,
        seed: args.get("seed", HiddenWebConfig::default().seed)?,
        ..HiddenWebConfig::default()
    });
    let mode = match args.get_str("mode", "exchange") {
        "firewall" => Mode::Firewall,
        "crossover" => Mode::CrossOver,
        "exchange" => Mode::Exchange,
        other => return Err(format!("unknown mode `{other}`").into()),
    };
    let agents = args.get("agents", 4usize)?;
    let budget = CrawlBudget { max_pages: args.get("budget", usize::MAX)? };
    args.reject_unread()?;
    let res = parallel_crawl(&web, agents, mode, budget);
    let g = crawl_to_graph(&web, &res.fetched);
    dpr_graph::io::save(&g, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    writeln!(
        w,
        "crawled {} pages ({:.1}% of the web) with {agents} agents ({} URLs exchanged, {} overlap)",
        g.n_pages(),
        res.outcome.coverage * 100.0,
        res.outcome.urls_exchanged,
        res.outcome.overlap
    )?;
    writeln!(w, "wrote {out}")?;
    Ok(())
}

/// `dpr stats`
pub fn stats(args: &Args, w: &mut dyn Write) -> CmdResult {
    args.reject_unread()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    writeln!(w, "{}", GraphStats::compute(&g))?;
    Ok(())
}

/// `dpr partition`
pub fn partition(args: &Args, w: &mut dyn Write) -> CmdResult {
    let k = args.get("k", 64usize)?;
    let strategy = parse_strategy(args.get_str("strategy", "site"))?;
    args.reject_unread()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let p = Partition::build(&g, &strategy, k, 0);
    let m = PartitionMetrics::compute(&g, &p);
    writeln!(w, "strategy {} over K = {k} groups:", strategy.name())?;
    writeln!(w, "{m}")?;
    writeln!(w, "stable across re-crawls: {}", strategy.is_stable())?;
    Ok(())
}

/// `dpr rank`
pub fn rank(args: &Args, w: &mut dyn Write) -> CmdResult {
    let top = args.get("top", 10usize)?;
    let cfg = RankConfig { alpha: args.get("alpha", 0.85f64)?, ..RankConfig::default() };
    let algo = args.get_str("algo", "cpr");
    args.reject_unread()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let (name, ranks, iterations) = match algo {
        "cpr" => {
            let out = open_pagerank(&g, &cfg);
            ("open-system PageRank (CPR)", out.ranks, out.iterations)
        }
        "pagerank" => {
            let out = pagerank(&g, &cfg);
            ("closed-system PageRank (Algorithm 1)", out.ranks, out.iterations)
        }
        "hits" => {
            let out = hits(&g, &HitsConfig::default());
            ("HITS authorities", out.authorities, out.iterations)
        }
        other => return Err(format!("unknown algo `{other}` (cpr|pagerank|hits)").into()),
    };
    writeln!(w, "{name}: converged in {iterations} iterations\n")?;
    for p in top_k(&ranks, top) {
        writeln!(w, "{:>12.5}  {}", ranks[p as usize], g.url_of(p))?;
    }
    Ok(())
}

/// Parses a `T:V[,T:V...]` schedule (`--crash`, `--join`, `--deltas`).
/// The run itself checks the times, by the one rule every schedule keeps.
fn parse_schedule<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<(f64, T)>, String> {
    spec.split(',')
        .map(|entry| {
            let (t, v) = entry
                .split_once(':')
                .ok_or_else(|| format!("bad {what} entry `{entry}` (want T:VALUE)"))?;
            let t: f64 = t.parse().map_err(|_| format!("bad {what} time `{t}` in `{entry}`"))?;
            let v: T = v.parse().map_err(|_| format!("bad {what} value `{v}` in `{entry}`"))?;
            Ok((t, v))
        })
        .collect()
}

/// Parses `T1:T2:LO-HI` (`--partition`): window plus a node index range.
fn parse_partition(spec: &str) -> Result<(f64, f64, Vec<usize>), String> {
    let bad = || format!("bad --partition `{spec}` (want T1:T2:LO-HI)");
    let mut it = spec.splitn(3, ':');
    let t1: f64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let t2: f64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let range = it.next().ok_or_else(bad)?;
    let (lo, hi) = range.split_once('-').ok_or_else(bad)?;
    let lo: usize = lo.parse().map_err(|_| bad())?;
    let hi: usize = hi.parse().map_err(|_| bad())?;
    if t1 >= t2 || lo > hi {
        return Err(bad());
    }
    Ok((t1, t2, (lo..=hi).collect()))
}

/// The `--net` branch of `dpr simulate`: the whole-system simulator with
/// overlay routing, fault injection and optional reliable delivery.
fn simulate_net(args: &Args, g: &WebGraph, variant: DprVariant, w: &mut dyn Write) -> CmdResult {
    use dpr_core::{OverlayKind, Reliability, Transmission};
    use dpr_sim::FaultPlan;

    let k = args.get("k", 64usize)?;
    let can_dims = args.get("can-dims", 2usize)?;
    let overlay = match args.get_str("overlay", "pastry") {
        "pastry" => OverlayKind::Pastry,
        "chord" => OverlayKind::Chord,
        "can" => OverlayKind::Can { d: can_dims },
        other => return Err(format!("unknown overlay `{other}` (pastry|chord|can)").into()),
    };
    let transmission = match args.get_str("transmission", "indirect") {
        "indirect" => Transmission::Indirect,
        "direct" => Transmission::Direct,
        other => return Err(format!("unknown transmission `{other}` (indirect|direct)").into()),
    };
    let reliability = Reliability {
        ack_timeout: args.get("ack-timeout", Reliability::default().ack_timeout)?,
        max_retries: args.get("max-retries", Reliability::default().max_retries)?,
        ..Reliability::default()
    };
    let reliability = args.flag("reliable")?.then_some(reliability);
    let departures = match args.get_str("crash", "") {
        "" => Vec::new(),
        spec => parse_schedule::<usize>(spec, "--crash")?,
    };
    let joins = match args.get_str("join", "") {
        "" => Vec::new(),
        spec => parse_schedule::<u64>(spec, "--join")?,
    };
    let p = args.get("p", 1.0f64)?;
    let faults = match args.get_str("partition", "") {
        "" => None,
        spec => {
            let (t1, t2, side_a) = parse_partition(spec)?;
            Some(
                FaultPlan::new()
                    .with_latency(0.01)
                    .with_default_success(p)
                    .with_partition(t1, t2, &side_a),
            )
        }
    };
    let t_end = args.get("t-end", 200.0f64)?;
    let seed = args.get("seed", 0u64)?;
    // Crawl-delta schedule: explicit (`--deltas T:CHURN,...`) or periodic
    // (`--churn-rate R` every `--churn-every T`). Each entry churns the
    // given link fraction; deltas are materialized sequentially against
    // successive graph states, exactly as a continuous recrawl would
    // produce them.
    let mut delta_spec = match args.get_str("deltas", "") {
        "" => Vec::new(),
        spec => parse_schedule::<f64>(spec, "--deltas")?,
    };
    let churn_rate = args.get("churn-rate", 0.0f64)?;
    let every = args.get("churn-every", 50.0f64)?;
    if churn_rate > 0.0 {
        if !delta_spec.is_empty() {
            return Err("--churn-rate and --deltas are mutually exclusive".into());
        }
        if !(every > 0.0 && every.is_finite()) {
            return Err(format!("--churn-every must be positive and finite, got {every}").into());
        }
        if !t_end.is_finite() {
            return Err(format!("--churn-rate needs a finite --t-end, got {t_end}").into());
        }
        let mut t = every;
        while t < t_end {
            delta_spec.push((t, churn_rate));
            t += every;
        }
    }
    let deltas = if delta_spec.is_empty() {
        Vec::new()
    } else {
        let mut live = g.clone();
        let mut out = Vec::with_capacity(delta_spec.len());
        for (i, &(t, frac)) in delta_spec.iter().enumerate() {
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("churn fraction must be in [0, 1], got {frac}").into());
            }
            let d = dpr_graph::GraphDelta::link_churn(&live, frac, seed.wrapping_add(i as u64 + 1));
            live = d.apply(&live);
            out.push((t, d));
        }
        out
    };
    let n_deltas = deltas.len();
    let last_delta_at = deltas.last().map(|&(t, _)| t);
    let cfg = NetRunConfig {
        k,
        n_nodes: args.get("nodes", k)?,
        transmission,
        overlay,
        variant,
        strategy: parse_strategy(args.get_str("strategy", "site"))?,
        t1: args.get("t1", 0.5f64)?,
        t2: args.get("t2", 3.0f64)?,
        send_success_prob: p,
        seed,
        t_end,
        sample_every: args.get("sample-every", 2.0f64)?,
        departures,
        joins,
        deltas,
        reliability,
        faults,
        replication: args.get("replicas", 0usize)?,
        checkpoint_every: args.get("checkpoint-every", NetRunConfig::default().checkpoint_every)?,
        suspect_after: args.get("suspect-after", NetRunConfig::default().suspect_after)?,
        engine_workers: args.get("engine-workers", 1usize)?,
        ..NetRunConfig::default()
    };
    let engine_workers = cfg.engine_workers;
    let n_nodes = cfg.n_nodes;
    let store_topk = args.get("store-topk", 0usize)?;
    args.reject_unread()?;
    let store = (store_topk > 0).then(|| {
        let site_of: Vec<u32> = (0..g.n_pages() as u32).map(|p| g.site(p)).collect();
        dpr_core::RankStore::new(store_topk).with_sites(site_of, g.n_sites())
    });
    let res = dpr_core::netrun::try_run_over_network_with_store(g, cfg, store.as_ref())
        .map_err(|e| e.to_string())?;
    writeln!(
        w,
        "whole-system run: {k} groups on {n_nodes} {overlay:?} nodes, {transmission:?} transmission"
    )?;
    writeln!(
        w,
        "network: {} data msgs, {} lookups, {:.1} MB on the wire, {:.2} mean route hops",
        res.counters.data_messages,
        res.counters.lookup_messages,
        res.counters.bytes as f64 / 1e6,
        res.mean_route_hops
    )?;
    writeln!(
        w,
        "message path: {} parts coalesced away, route cache {:.1}% hit rate ({} hits / {} misses, {} invalidations)",
        res.counters.coalesced_parts,
        res.route_cache.hit_rate() * 100.0,
        res.route_cache.hits,
        res.route_cache.misses,
        res.route_cache.invalidations
    )?;
    if res.counters.acks > 0 || res.counters.retries > 0 {
        writeln!(
        w,
            "reliability: {} acks, {} retries, {} duplicates suppressed, {} abandoned ({} updates gave up)",
            res.counters.acks,
            res.counters.retries,
            res.counters.duplicates_suppressed,
            res.counters.retry_exhausted,
            res.counters.gave_up
        )?;
    }
    if res.counters.checkpoints_sent > 0 || res.counters.takeovers_cold > 0 {
        writeln!(
            w,
            "replication: {} checkpoints ({:.1} MB), {} warm takeovers, {} cold takeovers",
            res.counters.checkpoints_sent,
            res.counters.checkpoint_bytes as f64 / 1e6,
            res.counters.takeovers_warm,
            res.counters.takeovers_cold
        )?;
    }
    let s = res.sim_stats;
    let p = res.phase_secs;
    writeln!(
        w,
        "engine: {} sends, {} dropped ({} by partition, {} by crash), {} delivered; \
         {:.3}s = deliver {:.3} + refresh {:.3} + solve {:.3} ({:.1}M rows/s) + compute-y {:.3} \
         + dispatch {:.3} + sample {:.3} + publish {:.3} + other {:.3}",
        s.sends_attempted,
        s.sends_dropped,
        s.partition_dropped,
        s.crash_dropped,
        s.deliveries,
        res.engine_secs,
        p.deliver,
        p.refresh,
        p.solve,
        // The rate the inner solves ran at, to compare with the kernel's
        // own (`group.sweep_rows_per_s` in the benchmark).
        res.counters.rows_swept as f64 / p.solve.max(f64::MIN_POSITIVE) / 1e6,
        p.compute_y,
        p.dispatch,
        p.sample,
        p.publish,
        res.engine_secs - p.total(),
    )?;
    if engine_workers > 1 {
        let b = res.sched_stats;
        writeln!(
            w,
            "parallel engine: {engine_workers} workers, {} batches (max {} wakes, {} singleton)",
            b.batches, b.max_batch, b.singleton_batches
        )?;
    }
    writeln!(
        w,
        "inner solver: {} sweeps run, {} saved",
        res.counters.inner_sweeps, res.counters.sweeps_saved
    )?;
    writeln!(w, "final relative error {:.6}%", res.final_rel_err * 100.0)?;
    match res.rel_err.first_time_below(1e-3) {
        Some(t) => writeln!(w, "reached 0.1% relative error at t = {t:.1}")?,
        None => writeln!(w, "did not reach 0.1% relative error within t = {t_end}")?,
    }
    if n_deltas > 0 {
        writeln!(
            w,
            "crawl deltas: {n_deltas} applied, {} shipments, {:.1} KB on the wire",
            res.counters.delta_messages,
            res.counters.delta_bytes as f64 / 1e3
        )?;
        if let Some(t0) = last_delta_at {
            match res.rel_err.first_time_below_after(t0, 1e-3) {
                Some(t) => writeln!(
        w,
                    "warm re-convergence: back under 0.1% at t = {t:.1} ({:.1} after the last delta)",
                    t - t0
                )?,
                None => writeln!(w, "did not re-converge after the last delta within t = {t_end}")?,
            }
        }
    }
    if let Some(store) = &store {
        let v = store.view();
        let stats = store.stats();
        let hits = v.top_k(store_topk);
        let identical = hits.len() == store_topk.min(g.n_pages())
            && hits.iter().all(|h| h.rank.to_bits() == res.final_ranks[h.page as usize].to_bits());
        writeln!(
        w,
            "store: view v{} after {} publishes ({} group snapshots accepted, {} skipped as unchanged)",
            v.version(),
            stats.publishes,
            stats.group_updates,
            stats.skipped_updates
        )?;
        writeln!(w, "store top ranks bit-identical to live final ranks: {identical}")?;
        for h in hits.iter().take(store_topk.min(5)) {
            writeln!(w, "{:>12.5}  {}", h.rank, g.url_of(h.page))?;
        }
    }
    Ok(())
}

/// `dpr simulate`
pub fn simulate(args: &Args, w: &mut dyn Write) -> CmdResult {
    let g = load_graph(args.positional(0, "graph")?)?;
    let variant = match args.get_str("variant", "dpr1") {
        "dpr1" => DprVariant::Dpr1,
        "dpr2" => DprVariant::Dpr2,
        other => return Err(format!("unknown variant `{other}` (dpr1|dpr2)").into()),
    };
    let p = args.get("p", 1.0f64)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--p must be a probability in [0, 1], got {p}").into());
    }
    if args.flag("net")? {
        return simulate_net(args, &g, variant, w);
    }
    let k = args.get("k", 100usize)?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let strategy = parse_strategy(args.get_str("strategy", "site"))?;
    let save_ranks = args.get_opt("save-ranks");
    if args.flag("threaded")? {
        args.reject_unread()?;
        let res = dpr_core::run_threaded(
            &g,
            &dpr_core::ThreadedRunConfig {
                k,
                strategy,
                variant,
                ..dpr_core::ThreadedRunConfig::default()
            },
        );
        writeln!(
            w,
            "threaded run: {} rounds, {} messages, final relative error {:.6}%",
            res.rounds,
            res.messages,
            res.final_rel_err * 100.0
        )?;
        if let Some(path) = save_ranks {
            dpr_core::ranks_io::save(&res.final_ranks, path)
                .map_err(|e| format!("cannot write ranks to {path}: {e}"))?;
            writeln!(w, "saved converged ranks to {path}")?;
        }
        return Ok(());
    }
    let warm_start = match args.get_str("warm-start", "") {
        "" => None,
        path => {
            let mut ranks = dpr_core::ranks_io::load(path)?;
            ranks.resize(g.n_pages(), 0.0);
            Some(ranks)
        }
    };
    let t_end = args.get("t-end", 100.0f64)?;
    let sample_every = args.get("sample-every", 1.0f64)?;
    if !(t_end > 0.0 && t_end.is_finite() && sample_every > 0.0) {
        return Err(format!(
            "--t-end and --sample-every must be positive, got {t_end} and {sample_every}"
        )
        .into());
    }
    let (t1, t2) = (args.get("t1", 0.0f64)?, args.get("t2", 6.0f64)?);
    if !(t1 >= 0.0 && t1 <= t2 && t2.is_finite()) {
        return Err(format!("--t1/--t2 must satisfy 0 <= t1 <= t2, got {t1} and {t2}").into());
    }
    let cfg = NetRunConfig {
        variant,
        strategy,
        t1,
        t2,
        send_success_prob: p,
        seed: args.get("seed", 0u64)?,
        t_end,
        sample_every,
        warm_start,
        ..NetRunConfig::section5(k)
    };
    args.reject_unread()?;
    let threshold = 1e-4;
    let mut rec = RunRecorder::new(threshold);
    let res = dpr_core::try_run_over_network_observed(&g, cfg, None, &mut |s| rec.observe(s))
        .map_err(|e| e.to_string())?;
    if let Some(path) = save_ranks {
        dpr_core::ranks_io::save(&res.final_ranks, path)
            .map_err(|e| format!("cannot write ranks to {path}: {e}"))?;
        writeln!(w, "saved converged ranks to {path}")?;
    }
    writeln!(w, "K = {k} rankers ({} active), variant {variant:?}", rec.active_groups)?;
    writeln!(
        w,
        "messages: {} sent, {} dropped, {} delivered",
        res.sim_stats.sends_attempted, res.sim_stats.sends_dropped, res.sim_stats.deliveries
    )?;
    match res.rel_err.first_time_below(threshold) {
        Some(t) => writeln!(
            w,
            "reached 0.01% relative error at t = {t:.1} ({:.1} mean outer iterations)",
            rec.epochs_at_threshold.unwrap_or(f64::NAN)
        )?,
        None => writeln!(w, "did not reach 0.01% relative error within t = {t_end}")?,
    }
    writeln!(
        w,
        "final relative error {:.6}%, average rank {:.4}",
        res.final_rel_err * 100.0,
        rec.avg_rank.last_value().unwrap_or(f64::NAN)
    )?;
    Ok(())
}

/// `dpr top`
pub fn top(args: &Args, w: &mut dyn Write) -> CmdResult {
    let ranks_path = args.get_str("ranks", "");
    if ranks_path.is_empty() {
        return Err("top needs --ranks FILE (from `simulate --save-ranks`)".into());
    }
    let k = args.get("k", 10usize)?;
    let site_filter: Option<u32> = args.get_parsed("site")?;
    args.reject_unread()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let ranks = dpr_core::ranks_io::load(ranks_path)?;
    if ranks.len() != g.n_pages() {
        return Err(format!(
            "rank file has {} entries but the graph has {} pages",
            ranks.len(),
            g.n_pages()
        )
        .into());
    }
    let order = match site_filter {
        None => top_k(&ranks, k),
        Some(s) => top_k_among(&ranks, (0..g.n_pages() as u32).filter(|&p| g.site(p) == s), k),
    };
    let summary = dpr_core::metrics::RankSummary::compute(&ranks);
    writeln!(
        w,
        "{} pages; mean rank {:.4}, gini {:.3}, p99 {:.4}\n",
        summary.n, summary.mean, summary.gini, summary.p99
    )?;
    for p in order {
        writeln!(w, "{:>12.5}  {}", ranks[p as usize], g.url_of(p))?;
    }
    Ok(())
}

/// `dpr analyze`
pub fn analyze(args: &Args, w: &mut dyn Write) -> CmdResult {
    let sinks_only = args.flag("sinks-only")?;
    args.reject_unread()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let sccs = dpr_graph::analysis::tarjan_scc(&g);
    let sinks = dpr_graph::analysis::rank_sinks(&g, false);
    let closed: Vec<_> = sinks.iter().filter(|s| s.closed).collect();
    writeln!(w, "pages:                {}", g.n_pages())?;
    writeln!(w, "strongly connected components: {}", sccs.n_components)?;
    writeln!(w, "rank sinks (no escaping links): {}", sinks.len())?;
    writeln!(w, "  of which closed (no external links either): {}", closed.len())?;
    if let Some(biggest) = closed.iter().max_by_key(|s| s.pages.len()) {
        writeln!(
            w,
            "  largest closed sink: {} pages, e.g. {}",
            biggest.pages.len(),
            g.url_of(biggest.pages[0])
        )?;
    }
    if !sinks_only {
        // Reachability from each site's first page (crawler seeds).
        let seeds: Vec<u32> = {
            let mut first = vec![None; g.n_sites()];
            for p in 0..g.n_pages() as u32 {
                let s = g.site(p) as usize;
                if first[s].is_none() {
                    first[s] = Some(p);
                }
            }
            first.into_iter().flatten().collect()
        };
        let reach = dpr_graph::analysis::reachable_from(&g, &seeds);
        let n_reach = reach.iter().filter(|&&r| r).count();
        writeln!(
            w,
            "reachable from site seeds: {} / {} pages ({:.1}%)",
            n_reach,
            g.n_pages(),
            100.0 * n_reach as f64 / g.n_pages().max(1) as f64
        )?;
    }
    writeln!(
        w,
        "
(Closed sinks are what §2's rank-sink term is about: without the βE virtual links \
         they swallow all rank; the open-system formulation is immune.)"
    )?;
    Ok(())
}

/// `dpr plan`
pub fn plan(args: &Args, w: &mut dyn Write) -> CmdResult {
    let pages: f64 = args.get("pages", 3.0e9)?;
    let record_bytes: f64 = args.get("record-bytes", 100.0)?;
    let bisection_mb: f64 = args.get("bisection-mb", 100.0)?;
    let n = args.get("rankers", 1_000u64)?;
    args.reject_unread()?;
    // Each one divides or is divided into the interval and the per-node
    // share: zero, negative or infinite would print NaN or trip an assert.
    for (flag, v) in
        [("pages", pages), ("record-bytes", record_bytes), ("bisection-mb", bisection_mb)]
    {
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("--{flag} must be positive and finite, got {v}").into());
        }
    }
    if n == 0 {
        return Err("--rankers must be at least 1".into());
    }
    let model = CapacityModel {
        total_pages: pages,
        link_record_bytes: record_bytes,
        usable_bisection_bytes_per_sec: bisection_mb * 1e6,
    };
    let row = model.row(n);
    writeln!(
        w,
        "ranking {:.2e} pages over {n} rankers (h ≈ {:.2} Pastry hops):",
        model.total_pages,
        pastry_hops(n)
    )?;
    writeln!(
        w,
        "  bytes per iteration:        {:.1} GB",
        model.bytes_per_iteration(row.hops) / 1e9
    )?;
    writeln!(
        w,
        "  minimal iteration interval: {:.0} s ({:.1} h)",
        row.min_iteration_interval_secs,
        row.min_iteration_interval_secs / 3600.0
    )?;
    writeln!(
        w,
        "  per-node bottleneck needed: {:.1} KB/s",
        row.min_bottleneck_bytes_per_sec / 1e3
    )?;
    Ok(())
}
