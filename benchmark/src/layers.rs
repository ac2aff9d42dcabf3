//! The traced pass: one span around every call into a layer's public
//! functions, on this run's own inputs, and the per-layer metrics read off
//! those spans and off the counters of the rank phase.
//!
//! Nothing here reaches inside a layer. Where a number needs time spent
//! *inside* the netrun (the `netrun.*_share` metrics) it is modelled as a
//! count the run reported times a unit cost a probe measured from outside;
//! what the models do not explain is `netrun.unattributed_share`.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use dpr_core::netrun::try_run_over_network;
use dpr_core::{
    AfferentState, GroupContext, MatrixLayout, NetRunConfig, NetRunResult, OverlayKind, RankStore,
};
use dpr_graph::{PageId, WebGraph};
use dpr_linalg::vec_ops::relative_error;
use dpr_linalg::{FixedPointSolver, Pool};
use dpr_overlay::id::key_from_u64;
use dpr_overlay::{CanNetwork, ChordNetwork, Overlay, PastryNetwork, RouteCache};
use dpr_partition::PartitionMetrics;
use dpr_sim::{Actor, Ctx, FaultPlan, SchedulerKind, Simulation};
use dpr_transport::snapshot::{encode_snapshot_into, SnapshotFrame};
use dpr_transport::{codec, compress, RankUpdate};

use crate::metrics::Values;
use crate::phases::{self, median, quantile, Built, ServeStates, Served};
use crate::spans::Recorder;
use crate::workloads::{self, next_u64, Inputs, Source, Spec};
use crate::Opts;

/// Everything the untraced phases left behind for the probes.
pub struct Context<'a> {
    pub opts: &'a Opts,
    pub inputs: &'a Inputs,
    pub built: Built,
    pub final_graph: WebGraph,
    pub res: &'a NetRunResult,
    pub store: &'a RankStore,
    pub states: &'a mut ServeStates,
    pub served: &'a Served,
    pub skipped_updates: u64,
    pub rank_wall_s: f64,
    pub publish_ms: &'a [f64],
    pub host_threads: usize,
}

/// Repeats `f` until `min_secs` have passed (at least once); returns calls
/// and seconds.
fn repeat_for(min_secs: f64, mut f: impl FnMut()) -> (u64, f64) {
    let t = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let e = t.elapsed().as_secs_f64();
        if e >= min_secs {
            return (calls, e);
        }
    }
}

/// Times `calls` individual calls of `f(i)`, one clock pair per call;
/// nanoseconds per call.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

fn median_of(rec: &Recorder, span: &str) -> f64 {
    median(&rec.secs_of(span))
}

fn overlay_of(cfg: &NetRunConfig) -> Box<dyn Overlay> {
    let seed = cfg.seed ^ 0x0E0E;
    match cfg.overlay {
        OverlayKind::Pastry => Box::new(PastryNetwork::with_nodes(cfg.n_nodes, seed)),
        OverlayKind::Chord => Box::new(ChordNetwork::with_nodes(cfg.n_nodes, seed)),
        OverlayKind::Can { d } => Box::new(CanNetwork::with_nodes(cfg.n_nodes, d, seed)),
    }
}

pub fn measure(ctx: Context<'_>, rec: &mut Recorder, out: &mut Values) {
    let Context {
        opts,
        inputs,
        built,
        final_graph,
        res,
        store,
        states,
        served,
        skipped_updates,
        rank_wall_s,
        publish_ms,
        host_threads,
    } = ctx;
    let cfg = &inputs.cfg;
    let spec = &opts.spec;
    let k = cfg.k;

    // graph, partition, group.build, overlay.build: the set-up spans.
    out.set("graph.load_s", median_of(rec, "graph.load_snapshot"));
    out.set("partition.build_s", median_of(rec, "partition.build"));
    out.set("group.build_s", median_of(rec, "group.build_all"));
    out.set("overlay.build_s", median_of(rec, "overlay.build_and_place"));
    let snapshot_bytes = std::fs::metadata(&inputs.snapshot).map_or(0, |m| m.len());
    out.set(
        "graph.snapshot_bytes_per_link",
        snapshot_bytes as f64 / built.graph.n_internal_links() as f64,
    );
    // `0.0 +`: the sum of no deltas is `-0.0`.
    out.set("graph.delta_apply_s", 0.0 + rec.secs_of("graph.delta_apply").iter().sum::<f64>());
    let delta_wire: u64 = cfg.deltas.iter().map(|(_, d)| dpr_graph::io::delta_wire_bytes(d)).sum();
    out.set("graph.delta_wire_bytes", delta_wire as f64);
    let pm = rec
        .span("partition.metrics", |_| PartitionMetrics::compute(&built.graph, &built.partition));
    out.set("partition.cut_fraction", pm.cut_fraction);

    let group = group_layer(&built, &final_graph, cfg, rec, out);
    let spmv = linalg_layer(&final_graph, res, cfg, host_threads, rec, out);
    overlay_layer(cfg, &built.owners, res, rec, out);
    transport_layer(&built, res, rec, out);
    let null_events_per_s = sim_layer(cfg, res, rec, out);
    let store_model =
        store_layer(store, states, inputs, res, served, skipped_updates, publish_ms, rec, out);
    netrun_layer(
        &NetrunModel {
            built: &built,
            res,
            cfg,
            rank_wall_s,
            null_events_per_s,
            sample_secs: spmv.sample_secs,
            store: store_model,
            host_threads,
            solve_rows_per_s: out.get("group.sweep_rows_per_s").expect("group layer ran"),
            compute_y_secs_per_group: out.get("group.compute_y_s").expect("group layer ran")
                / k as f64,
            afferent_secs_per_row: group.afferent_secs_per_row,
        },
        rec,
        out,
    );
    crawl_layer(spec, opts.seed, inputs, rec, out);
}

/// `group.*`: every group solved cold once, its `Y` computed, every part
/// received by its destination, every group rebuilt.
/// One `Y` part in flight: `(destination group, source group, entries)`.
type YPart = (usize, u32, Vec<(PageId, f64)>);

/// What the netrun model needs from the group probes.
struct GroupOut {
    /// Seconds of `AfferentState::set` + `refresh` per row refreshed.
    afferent_secs_per_row: f64,
}

fn group_layer(
    built: &Built,
    final_graph: &WebGraph,
    cfg: &NetRunConfig,
    rec: &mut Recorder,
    out: &mut Values,
) -> GroupOut {
    let ctxs = &built.contexts;
    let (bytes, nnz) = ctxs
        .iter()
        .fold((0usize, 0usize), |(b, n), c| (b + c.matrix().heap_bytes(), n + c.matrix().nnz()));
    out.set("group.matrix_bytes_per_nnz", bytes as f64 / nnz.max(1) as f64);

    let (mut scratch, mut ws) = (Vec::new(), Vec::new());
    let mut ranks: Vec<Vec<f64>> = Vec::with_capacity(ctxs.len());
    let (mut sweeps, mut rows, mut solve_s) = (0u64, 0u64, 0.0);
    for c in ctxs {
        let mut r = vec![0.0; c.n_local()];
        let (report, secs) = rec.timed("group.group_pagerank_prepared", || {
            c.group_pagerank_prepared(
                &mut r,
                c.beta_e(),
                cfg.inner_epsilon,
                cfg.rank.max_iters,
                &mut scratch,
                &mut ws,
            )
        });
        sweeps += report.iterations as u64;
        rows += report.iterations as u64 * c.n_local() as u64;
        solve_s += secs;
        ranks.push(r);
    }
    out.set("group.solve_s", solve_s);
    out.set("group.solve_sweeps", sweeps as f64);
    out.set("group.sweep_rows_per_s", rows as f64 / solve_s);

    let mut y_s = 0.0;
    let mut parts: Vec<YPart> = Vec::new();
    for (c, r) in ctxs.iter().zip(&ranks) {
        let (y, secs) = rec.timed("group.compute_y", || c.compute_y(r));
        y_s += secs;
        parts.extend(y.into_iter().map(|(dest, entries)| (dest as usize, c.group_id(), entries)));
    }
    out.set("group.compute_y_s", y_s);
    out.set("group.y_entries", parts.iter().map(|p| p.2.len()).sum::<usize>() as f64);

    let by_id: Vec<usize> = {
        let mut at = vec![usize::MAX; cfg.k];
        for (i, c) in ctxs.iter().enumerate() {
            at[c.group_id() as usize] = i;
        }
        at
    };
    let mut afferent: Vec<AfferentState> =
        ctxs.iter().map(|c| AfferentState::new(c.n_local())).collect();
    let mut set_s = 0.0;
    for (dest, src, entries) in &parts {
        let slot = by_id[*dest];
        let localized = ctxs[slot].localize(entries);
        let ((), secs) = rec.timed("group.afferent_set_refresh", || {
            afferent[slot].set(*src, localized);
            black_box(afferent[slot].refresh());
        });
        set_s += secs;
    }
    out.set("group.afferent_set_s", set_s);
    let rows_refreshed: u64 = afferent.iter().map(AfferentState::rows_recomputed).sum();

    // Rebuild every group against the graph the run ended on, with the
    // assignment netrun would hold: pinned for old pages, the run's own
    // strategy for inserted ones.
    let mut assignment = built.partition.assignment().to_vec();
    for p in assignment.len() as PageId..final_graph.n_pages() as PageId {
        assignment.push(cfg.strategy.assign(final_graph, p, cfg.k, 0));
    }
    let mut pages: Vec<Vec<PageId>> = vec![Vec::new(); cfg.k];
    for (p, &g) in assignment.iter().enumerate() {
        pages[g as usize].push(p as PageId);
    }
    let mut rebuild_s = 0.0;
    for (gid, pages) in pages.into_iter().enumerate() {
        let (c, secs) = rec.timed("group.rebuild", || {
            GroupContext::rebuild(
                final_graph,
                &assignment,
                &cfg.rank,
                gid as u32,
                pages,
                MatrixLayout::default(),
            )
        });
        black_box(c.n_local());
        rebuild_s += secs;
    }
    out.set("group.rebuild_s", rebuild_s);
    GroupOut { afferent_secs_per_row: set_s / rows_refreshed.max(1) as f64 }
}

struct LinalgOut {
    /// Seconds of one convergence sample: gather the global vector, then
    /// `relative_error` against the reference.
    sample_secs: f64,
}

/// `linalg.*`: the plain single-thread kernels on the whole final graph.
fn linalg_layer(
    g: &WebGraph,
    res: &NetRunResult,
    cfg: &NetRunConfig,
    host_threads: usize,
    rec: &mut Recorder,
    out: &mut Values,
) -> LinalgOut {
    let n = g.n_pages();
    let a = rec.span("linalg.open_system_matrix", |_| {
        dpr_core::centralized::open_system_matrix(g, cfg.rank.alpha)
    });
    let x = res.final_ranks.clone();
    let mut y = vec![0.0; n];
    let (calls, secs) =
        rec.span("linalg.mul_vec", |_| repeat_for(0.5, || a.mul_vec(black_box(&x), &mut y)));
    out.set("linalg.spmv_rows_per_s", calls as f64 * n as f64 / secs);
    // Computed, not measured: matrix bytes plus one read of x and one
    // write of y per product, per stored entry.
    out.set("linalg.spmv_bytes_per_nnz", (a.heap_bytes() + 16 * n) as f64 / a.nnz().max(1) as f64);
    let workers = host_threads.min(2);
    let pool = Pool::with_workers(workers);
    let (pcalls, psecs) = rec.span("linalg.mul_vec_pool", |_| {
        repeat_for(0.5, || a.mul_vec_pool(black_box(&x), &mut y, &pool))
    });
    out.set("linalg.pool_speedup_w2", (pcalls as f64 / psecs) / (calls as f64 / secs));

    let pages: Vec<u32> = (0..n as u32).collect();
    let f = cfg.rank.beta_e_for(&pages);
    let mut r = vec![0.0; n];
    let solver = FixedPointSolver {
        tolerance: cfg.rank.epsilon,
        max_iters: cfg.rank.max_iters,
        pool: Pool::sequential(),
    };
    let (report, secs) = rec.timed("linalg.central_solve", || solver.solve(&a, &f, &mut r));
    out.set("linalg.central_solve_s", secs);
    out.set("linalg.central_iters", report.iterations as f64);

    let (rcalls, rsecs) = rec.span("linalg.relative_error", |_| {
        repeat_for(0.3, || {
            black_box(relative_error(black_box(&x), &r));
        })
    });
    out.set("linalg.reduce_gb_per_s", rcalls as f64 * 16.0 * n as f64 / rsecs / 1e9);
    // What one sample of the convergence series costs from outside: the
    // reduction above plus a scatter of every rank into a global vector.
    let order: Vec<u32> = (0..n as u32).rev().collect();
    let (gcalls, gsecs) = repeat_for(0.2, || {
        for (&p, &v) in order.iter().zip(&x) {
            y[p as usize] = v;
        }
        black_box(&mut y);
    });
    LinalgOut { sample_secs: rsecs / rcalls as f64 + gsecs / gcalls as f64 }
}

/// `overlay.*`: routing between the group owners, cold and memoized.
fn overlay_layer(
    cfg: &NetRunConfig,
    owners: &[usize],
    res: &NetRunResult,
    rec: &mut Recorder,
    out: &mut Values,
) {
    let ov = overlay_of(cfg);
    let keys: Vec<u128> = (0..cfg.k as u64).map(key_from_u64).collect();
    let pair = |i: usize| (owners[i % owners.len()], keys[(i * 7 + 3) % keys.len()]);
    const CALLS: usize = 20_000;
    let ((), secs) = rec.timed("overlay.route", || {
        for i in 0..CALLS {
            let (src, key) = pair(i);
            black_box(ov.route(src, key));
        }
    });
    out.set("overlay.route_ns", secs * 1e9 / CALLS as f64);
    let mut cache = RouteCache::new();
    for i in 0..CALLS {
        let (src, key) = pair(i);
        cache.route(ov.as_ref(), src, key);
    }
    let ((), secs) = rec.timed("overlay.cached_route", || {
        for i in 0..CALLS {
            let (src, key) = pair(i);
            black_box(cache.route(ov.as_ref(), src, key));
        }
    });
    out.set("overlay.cached_route_ns", secs * 1e9 / CALLS as f64);
    let ((), secs) = rec.timed("overlay.replicas", || {
        for i in 0..CALLS {
            black_box(ov.replicas(keys[i % keys.len()], 2));
        }
    });
    out.set("overlay.replicas_ns", secs * 1e9 / CALLS as f64);
    out.set("overlay.mean_hops", res.mean_route_hops);
    out.set("overlay.cache_hit_rate", res.route_cache.hit_rate());
}

/// `transport.*`: the wire codecs on this run's own `Y` traffic. Netrun
/// prices the wire and never encodes it, so these move no end-to-end
/// metric today.
fn transport_layer(built: &Built, res: &NetRunResult, rec: &mut Recorder, out: &mut Values) {
    let g = &built.graph;
    // One record per efferent destination page of the first groups, capped.
    let mut updates: Vec<RankUpdate> = Vec::new();
    'fill: for c in &built.contexts {
        let r: Vec<f64> = c
            .pages()
            .iter()
            .map(|&p| res.final_ranks.get(p as usize).copied().unwrap_or(0.0))
            .collect();
        for (_, entries) in c.compute_y(&r) {
            for (to_page, score) in entries {
                updates.push(RankUpdate { from_page: c.pages()[0], to_page, score });
                if updates.len() == 50_000 {
                    break 'fill;
                }
            }
        }
    }
    if updates.is_empty() {
        // A single group has no efferent traffic; keep the codecs fed.
        updates.push(RankUpdate { from_page: 0, to_page: 0, score: res.final_ranks[0] });
    }
    let urls: Vec<(String, String)> =
        updates.iter().map(|u| (g.url_of(u.from_page), g.url_of(u.to_page))).collect();
    let mut enc = codec::UpdateEncoder::with_capacity(updates.len() * 64);
    let mut frame_len = 0usize;
    let (calls, secs) = rec.span("transport.encode_batch", |_| {
        repeat_for(0.2, || {
            frame_len =
                enc.encode_batch(updates.iter().zip(&urls).map(|(u, (f, t))| (*u, f, t))).len();
        })
    });
    out.set("transport.encode_mb_per_s", calls as f64 * frame_len as f64 / secs / 1e6);
    let frame = enc.to_bytes();
    let (calls, secs) = rec.span("transport.decode_batch", |_| {
        repeat_for(0.2, || {
            let decoded = codec::decode_batch(black_box(&frame)).expect("own frame decodes");
            assert_eq!(decoded.len(), updates.len());
        })
    });
    out.set("transport.decode_mb_per_s", calls as f64 * frame.len() as f64 / secs / 1e6);
    let packed = rec.span("transport.compress", |_| {
        compress::encode_batch(&updates, &compress::CompressConfig::default())
    });
    out.set(
        "transport.compress_ratio",
        compress::baseline_size(&updates) as f64 / packed.len().max(1) as f64,
    );

    let frames: Vec<SnapshotFrame> = built
        .contexts
        .iter()
        .map(|c| SnapshotFrame {
            group: c.group_id(),
            epoch: 1,
            r: c.pages()
                .iter()
                .map(|&p| res.final_ranks.get(p as usize).copied().unwrap_or(0.0))
                .collect(),
            afferent: Vec::new(),
        })
        .collect();
    let mut buf = BytesMut::with_capacity(frames.iter().map(|f| 16 + 8 * f.r.len()).sum());
    let (calls, secs) = rec.span("transport.encode_snapshot", |_| {
        repeat_for(0.2, || {
            buf.clear();
            for f in &frames {
                encode_snapshot_into(&mut buf, f);
            }
        })
    });
    out.set("transport.snapshot_encode_mb_per_s", calls as f64 * buf.len() as f64 / secs / 1e6);
}

/// A payload-free actor: wakes, pings a few peers, sleeps.
struct Ping {
    n: usize,
    fan_out: usize,
}

impl Actor for Ping {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.schedule_wake(1.0 + ctx.me() as f64 / self.n as f64);
    }
    fn on_wake(&mut self, ctx: &mut Ctx<'_, ()>) {
        for i in 0..self.fan_out {
            let dst = (ctx.me() + 1 + i * 17) % self.n;
            ctx.send(dst, ());
        }
        ctx.schedule_wake(1.75);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: usize, _msg: ()) {}
}

/// `sim.*`: the run's own engine counters, and the engine's ceiling: the
/// same node count and fault plan driving actors that do nothing.
fn sim_layer(cfg: &NetRunConfig, res: &NetRunResult, rec: &mut Recorder, out: &mut Values) -> f64 {
    let s = &res.sim_stats;
    out.set("sim.events", (s.wakes + s.deliveries) as f64);
    out.set("sim.peak_queue_len", res.sched_stats.peak_queue_len as f64);
    out.set("sim.sends_dropped", s.sends_dropped as f64);
    let plan = cfg.faults.clone().unwrap_or_else(|| {
        FaultPlan::new().with_latency(0.01).with_default_success(cfg.send_success_prob)
    });
    let fan_out = (s.sends_attempted as f64 / s.wakes.max(1) as f64).round().max(1.0) as usize;
    let actors: Vec<Ping> = (0..cfg.n_nodes).map(|_| Ping { n: cfg.n_nodes, fan_out }).collect();
    let mut sim = Simulation::with_plan_scheduler(actors, cfg.seed, plan, SchedulerKind::Slab);
    let mut horizon = 0.0;
    let ((), secs) = rec.timed("sim.run_until", || {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < 0.3 {
            horizon += cfg.t_end;
            sim.run_until(horizon);
        }
    });
    let st = sim.stats();
    let rate = (st.wakes + st.deliveries) as f64 / secs;
    out.set("sim.null_events_per_s", rate);
    rate
}

/// Seconds of the two kinds of publish the run makes after a sample.
#[derive(Clone, Copy)]
struct StoreModel {
    /// Every group's bits moved.
    full_s: f64,
    /// Every group's epoch moved, no bits did.
    epoch_bump_s: f64,
}

/// `store.*`: publishes of three sizes and every query family alone, on
/// the quiescent store (no publisher beside the reader).
#[allow(clippy::too_many_arguments)]
fn store_layer(
    store: &RankStore,
    states: &mut ServeStates,
    inputs: &Inputs,
    res: &NetRunResult,
    served: &Served,
    skipped_updates: u64,
    publish_ms: &[f64],
    rec: &mut Recorder,
    out: &mut Values,
) -> StoreModel {
    let full_ms = quantile(publish_ms, phases::PUBLISH_QUANTILE);
    out.set("store.publish_full_ms", full_ms);
    // One publish per group, each moving that group's bits alone; groups
    // differ in size by orders of magnitude, so report the mean.
    states.publish(store, false);
    let groups = states.n_groups();
    let one: Vec<f64> = (0..groups)
        .map(|g| rec.timed("store.publish_one_group", || states.publish_one(store, g)).1 * 1e3)
        .collect();
    out.set("store.publish_one_group_ms", one.iter().sum::<f64>() / groups.max(1) as f64);
    let bump: Vec<f64> = (0..21)
        .map(|_| rec.timed("store.publish_epoch_bump", || states.publish(store, true)).1)
        .collect();
    states.publish(store, false);
    let noop: Vec<f64> = (0..21)
        .map(|_| rec.timed("store.publish_noop", || states.republish(store)).1 * 1e6)
        .collect();
    out.set("store.publish_noop_us", median(&noop));

    let n = res.final_ranks.len() as u64;
    let mut rng = workloads::mix(inputs.query_seed, 9);
    let mut page = || (next_u64(&mut rng) % n) as PageId;
    let mut acc = 0u64;
    let view = store.view();
    const CALLS: usize = 200_000;
    let ns = rec.span("store.lookup", |_| {
        per_call_ns(CALLS, |_| acc ^= store.lookup(page()).map_or(0, |l| l.rank.to_bits()))
    });
    out.set("store.lookup_ns_p50", quantile(&ns, 0.50));
    out.set("store.lookup_ns_p99", quantile(&ns, 0.99));
    let ns = rec
        .span("store.top_k", |_| per_call_ns(CALLS / 4, |_| acc ^= store.top_k(10).len() as u64));
    out.set("store.topk_ns_p50", quantile(&ns, 0.50));
    let ns = rec.span("store.top_k_candidates", |_| {
        per_call_ns(CALLS / 4, |_| {
            let base = page();
            let c: [PageId; 9] =
                std::array::from_fn(|i| ((u64::from(base) + (i as u64 % 8) * 977) % n) as PageId);
            acc ^= store.top_k_candidates(5, &c).len() as u64;
        })
    });
    out.set("store.topk_cand_ns_p50", quantile(&ns, 0.50));
    let ns = rec.span("store.site_totals", |_| {
        per_call_ns(CALLS / 4, |i| {
            acc ^= view.site_totals().map_or(0, |t| t[i % t.len()].to_bits())
        })
    });
    out.set("store.site_totals_ns_p50", quantile(&ns, 0.50));
    let ns = rec.span("store.view", |_| per_call_ns(CALLS / 4, |_| acc ^= store.view().version()));
    out.set("store.view_ns_p50", quantile(&ns, 0.50));
    let mut stream = inputs.query_seed;
    let ns = rec.span("store.query_mix", |_| {
        per_call_ns(CALLS, |_| {
            black_box(phases::query(store, next_u64(&mut stream), &res.final_ranks, &mut acc));
        })
    });
    out.set("store.query_p99_ns", quantile(&ns, 0.99));
    black_box(acc);
    out.set("store.epoch_swaps", served.epoch_swaps as f64);
    out.set("store.skipped_updates", skipped_updates as f64);

    // `bump[0]` moved every group's bits to the mid-run state; the rest
    // republished the same bits under fresh epochs.
    StoreModel { full_s: full_ms * 1e-3, epoch_bump_s: median(&bump[1..]) }
}

struct NetrunModel<'a> {
    built: &'a Built,
    res: &'a NetRunResult,
    cfg: &'a NetRunConfig,
    rank_wall_s: f64,
    null_events_per_s: f64,
    sample_secs: f64,
    store: StoreModel,
    host_threads: usize,
    solve_rows_per_s: f64,
    compute_y_secs_per_group: f64,
    afferent_secs_per_row: f64,
}

/// `netrun.*`: the run's counters, the modelled shares of `rank_wall_s`,
/// and a short pair of runs at one and two engine workers.
fn netrun_layer(m: &NetrunModel<'_>, rec: &mut Recorder, out: &mut Values) {
    let (res, cfg) = (m.res, m.cfg);
    let c = &res.counters;
    let events = (res.sim_stats.wakes + res.sim_stats.deliveries) as f64;
    out.set("netrun.engine_s", res.engine_secs);
    out.set("netrun.setup_s", res.setup_secs);
    out.set("netrun.delta_ref_s", res.delta_ref_secs);
    out.set("netrun.events_per_s", events / m.rank_wall_s);
    // §4.5 prices `update_bytes` per entry; the rest of `bytes` is headers,
    // lookups and acks, so this is an upper bound on entries.
    out.set(
        "netrun.ns_per_wire_entry",
        m.rank_wall_s * 1e9 / (c.bytes as f64 / cfg.update_bytes as f64).max(1.0),
    );
    for (name, v) in [
        ("netrun.inner_sweeps", c.inner_sweeps),
        ("netrun.rows_recomputed", c.rows_recomputed),
        ("netrun.sweeps_saved", c.sweeps_saved),
        ("netrun.coalesced_parts", c.coalesced_parts),
        ("netrun.data_messages", c.data_messages),
        ("netrun.lookup_messages", c.lookup_messages),
        ("netrun.retries", c.retries),
        ("netrun.acks", c.acks),
        ("netrun.retry_exhausted", c.retry_exhausted),
        ("netrun.checkpoint_bytes", c.checkpoint_bytes),
        ("netrun.delta_bytes", c.delta_bytes),
        ("netrun.takeovers_warm", c.takeovers_warm),
        ("netrun.takeovers_cold", c.takeovers_cold),
    ] {
        out.set(name, v as f64);
    }

    // Modelled shares: a count from the run times a unit cost from a probe.
    let k = cfg.k as f64;
    let mean_rows = m.built.graph.n_pages() as f64 / k;
    let solve_s = c.inner_sweeps as f64 * mean_rows / m.solve_rows_per_s;
    // A node wake thinks once per hosted group, and the k groups sit on
    // k of the n_nodes nodes: wakes × k / n_nodes group thinks, each
    // computing its `Y` at most once (netrun memoizes it while the ranks
    // stand still, so this is an upper bound). The receiving side is
    // priced per afferent row actually refreshed, which the run counts.
    let thinks = res.sim_stats.wakes as f64 * k / cfg.n_nodes as f64;
    let y_s =
        thinks * m.compute_y_secs_per_group + c.rows_recomputed as f64 * m.afferent_secs_per_row;
    let points = res.rel_err.points();
    let sample_s = points.len() as f64 * m.sample_secs;
    // A sample whose error differs from the one before saw some group's
    // bits move and is priced as a full publish (an upper bound: late in
    // a convergence only some groups still move); the others as a publish
    // that only bumps epochs.
    let moving = 1 + points.windows(2).filter(|w| w[0].1.to_bits() != w[1].1.to_bits()).count();
    let publish_s = moving as f64 * m.store.full_s
        + (points.len().saturating_sub(moving)) as f64 * m.store.epoch_bump_s;
    let engine_s = events / m.null_events_per_s;
    let share = |s: f64| s / m.rank_wall_s;
    out.set("netrun.solve_share", share(solve_s));
    out.set("netrun.y_share", share(y_s));
    out.set("netrun.sample_share", share(sample_s));
    out.set("netrun.publish_share", share(publish_s));
    out.set("netrun.engine_share", share(engine_s));
    out.set(
        "netrun.unattributed_share",
        1.0 - share(solve_s + y_s + sample_s + publish_s + engine_s),
    );

    // One against two engine workers over the first quarter of the horizon
    // (the cold, solve-heavy part), no store. A one-thread host runs
    // neither: there is no parallel claim to make.
    let speedup = if m.host_threads >= 2 {
        let quarter = |workers: usize, rec: &mut Recorder| {
            let cfg =
                NetRunConfig { t_end: cfg.t_end / 4.0, engine_workers: workers, ..cfg.clone() };
            let r = rec.span("netrun.try_run_over_network", |_| {
                try_run_over_network(&m.built.graph, cfg)
                    .expect("workload configurations are valid")
            });
            (r.engine_secs - r.delta_ref_secs, r.final_ranks)
        };
        let (w1, ranks1) = quarter(1, rec);
        let (w2, ranks2) = quarter(2, rec);
        assert!(
            ranks1.iter().zip(&ranks2).all(|(a, b)| a.to_bits() == b.to_bits()),
            "worker counts must agree bit for bit"
        );
        w1 / w2
    } else {
        println!("# host has one thread: netrun.par_speedup_w2 not measured, reported as 1");
        1.0
    };
    out.set("netrun.par_speedup_w2", speedup);
}

/// `crawl.*`: input generation. The crawl workload reports its own
/// generate phase; the others crawl a small web so that every run prints
/// every metric.
fn crawl_layer(spec: &Spec, seed: u64, inputs: &Inputs, rec: &mut Recorder, out: &mut Values) {
    let t = match inputs.crawl {
        Some(t) => t,
        None => {
            let probe = Spec {
                source: Source::Crawl { web_pages: 80_000 },
                pages: 20_000,
                sites: 40,
                disturb: workloads::Disturb::Growth {
                    first_at: 1.0,
                    every: 1.0,
                    count: 1,
                    frac: 0.01,
                },
                ..*spec
            };
            rec.span("crawl.bfs_and_growth", |_| workloads::crawl_timings(&probe, seed))
        }
    };
    out.set("crawl.bfs_pages_per_s", t.bfs_pages as f64 / t.bfs_secs);
    out.set("crawl.growth_delta_s", t.growth_secs);
}

/// `trace.*`: what the recorder itself cost, and the self time of every
/// phase.
pub fn trace_metrics(rec: &Recorder, rank_wall_s: f64, out: &mut Values) {
    let mut scratch = Recorder::new(true);
    const N: usize = 100_000;
    let t = Instant::now();
    for _ in 0..N {
        scratch.span("calibrate", |_| black_box(()));
    }
    let span_cost_ns = t.elapsed().as_nanos() as f64 / N as f64;
    let rank =
        rec.spans().iter().find(|s| s.name == "phase.rank").expect("the rank phase was traced");
    let inside = rec
        .spans()
        .iter()
        .filter(|s| s.start_ns >= rank.start_ns && s.end_ns <= rank.end_ns)
        .count();
    out.set("trace.spans", rec.spans().len() as f64);
    out.set("trace.span_cost_ns", span_cost_ns);
    out.set("trace.overhead_frac", inside as f64 * span_cost_ns * 1e-9 / rank_wall_s);
    out.set("trace.rank_wall_s", rank_wall_s);
    let rows = rec.by_name();
    let self_of = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.3);
    for (metric, span) in [
        ("trace.self_setup_s", "phase.setup"),
        ("trace.self_rank_s", "phase.rank"),
        ("trace.self_publish_s", "phase.publish"),
        ("trace.self_serve_s", "phase.serve"),
        ("trace.self_check_s", "phase.check"),
        ("trace.self_layers_s", "phase.layers"),
    ] {
        out.set(metric, self_of(span));
    }
}
