//! **SPMV** — bandwidth-lean kernel benchmark for the link-matrix
//! matrix–vector product, the inner loop of every solve in the system.
//!
//! Every stored value of a pull-orientation PageRank matrix is `α/d(u)` —
//! a function of the *column* — so the implicit layout drops the 8-byte
//! value stream entirely and pre-scales the input once per multiply. This
//! benchmark measures what that buys on real edu-domain graphs:
//!
//! 1. **Layout grid**: `{explicit, implicit (u64 ptr), implicit-u32}` ×
//!    worker counts × graph sizes, reporting rows/sec of the multiply and
//!    of one full Jacobi sweep (`x ← Ax + f`, `δ` — fused for the implicit
//!    layouts, the four-pass reference for the explicit one), effective
//!    matrix-stream GB/s, and bytes/nnz. Every cell of both is asserted
//!    bit-identical to the sequential explicit reference in-run.
//! 2. **10M-page storage round-trip** (full mode): the 10M-page synthetic
//!    graph is *streamed* to the binary snapshot format (edge list never
//!    materialized by the generator), loaded back, checked equal to the
//!    in-memory generation, and pushed through a short whole-system netrun
//!    solve — the end-to-end proof that 10M pages fit the pipeline.
//!
//! Usage: `spmv [--pages-list 100000,1000000,10000000] [--workers 1,2,4,8]
//!         [--alpha A] [--reps R] [--quick] [--no-10m] [--out PATH]`
//!
//! `--quick` shrinks the grid to 100k pages for CI smoke (bit-identity
//! still asserted); the full run asserts the ≥ 1.3× single-threaded
//! rows/sec headline of implicit-u32 over explicit at 1M pages. `--out`
//! writes the JSON payload (used to commit `BENCH_spmv.json`).

use std::time::Instant;

use dpr_bench::BenchArgs;
use dpr_core::{NetRunConfig, OverlayKind};
use dpr_graph::generators::edu::{edu_domain, edu_domain_to_snapshot_path, EduDomainConfig};
use dpr_graph::WebGraph;
use dpr_linalg::{column_scale, Csr, CsrImplicit, Pool, SpMatVec};
use dpr_partition::Strategy;
use serde::Serialize;

/// Builds the pull-orientation rank-transmission matrix of `g`: entry
/// `(v, u) = α/d(u)` for every internal link `u → v`, as the implicit
/// layout (the explicit twin is materialized from it, so both share entry
/// order and are bit-identical by construction).
fn build_implicit(g: &WebGraph, alpha: f64) -> CsrImplicit {
    let n = g.n_pages();
    let mut row_ptr = vec![0u64; n + 1];
    for (_, v) in g.links() {
        row_ptr[v as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut cursor = row_ptr.clone();
    let mut col_idx = vec![0u32; row_ptr[n] as usize];
    for (u, v) in g.links() {
        let slot = cursor[v as usize] as usize;
        col_idx[slot] = u;
        cursor[v as usize] += 1;
    }
    for r in 0..n {
        col_idx[row_ptr[r] as usize..row_ptr[r + 1] as usize].sort_unstable();
    }
    let degrees: Vec<u32> = (0..n as u32).map(|u| g.out_degree(u)).collect();
    let scale = column_scale(alpha, &degrees);
    CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, scale)
}

/// One matrix layout under test.
enum Layout {
    Explicit(Csr),
    Implicit(CsrImplicit),
}

impl Layout {
    fn heap_bytes(&self) -> usize {
        match self {
            Layout::Explicit(m) => m.heap_bytes(),
            Layout::Implicit(m) => m.heap_bytes(),
        }
    }

    fn n_rows(&self) -> usize {
        match self {
            Layout::Explicit(m) => m.n_rows(),
            Layout::Implicit(m) => m.n_rows(),
        }
    }

    fn mul(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool) {
        match self {
            Layout::Explicit(m) => m.mul_into(x, y, ws, pool),
            Layout::Implicit(m) => m.mul_into(x, y, ws, pool),
        }
    }

    /// Sweep `k` of a Jacobi solve: the explicit layout's is the four-pass
    /// default body, the implicit layout's the fused one.
    fn sweep(
        &self,
        k: usize,
        x: &[f64],
        f: &[f64],
        next: &mut [f64],
        ws: &mut Vec<f64>,
        pool: &Pool,
    ) -> f64 {
        match self {
            Layout::Explicit(m) => m.sweep(k, x, f, next, ws, pool),
            Layout::Implicit(m) => m.sweep(k, x, f, next, ws, pool),
        }
    }
}

#[derive(Serialize)]
struct GridRow {
    pages: usize,
    nnz: usize,
    layout: String,
    workers: usize,
    iters: usize,
    secs: f64,
    rows_per_sec: f64,
    /// Rows per second of one full sweep `x ← Ax + f, δ` (same `iters`,
    /// one solve's worth of consecutive sweeps).
    sweep_secs: f64,
    sweep_rows_per_sec: f64,
    /// Matrix-stream traffic per second: `heap_bytes × iters / secs` — the
    /// bandwidth the layout actually pulls for its index/value arrays.
    matrix_gbytes_per_sec: f64,
    bytes_per_nnz: f64,
    row_ptr_narrow: bool,
    bit_identical_to_reference: bool,
}

#[derive(Serialize)]
struct TenMRow {
    pages: usize,
    internal_links: usize,
    snapshot_bytes: u64,
    snapshot_bytes_per_link: f64,
    generate_stream_secs: f64,
    load_secs: f64,
    roundtrip_equal: bool,
    netrun_secs: f64,
    netrun_final_rel_err: f64,
}

#[derive(Serialize)]
struct Payload {
    /// Hardware threads of the recording host: worker counts above it
    /// certify determinism, not scaling.
    host_threads: usize,
    quick: bool,
    alpha: f64,
    workers: Vec<usize>,
    grid: Vec<GridRow>,
    /// rows/sec of implicit-u32 over explicit, single-threaded, at the
    /// largest in-memory grid size (1M pages in the full run) — the
    /// headline the full run asserts ≥ 1.3×.
    headline_speedup: f64,
    headline_pages: usize,
    ten_m: Option<TenMRow>,
}

/// Deterministic non-trivial input vector.
fn seed_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (1.0 + (i % 97) as f64)).collect()
}

/// Runs `iters` consecutive sweeps of one solve (`f` uniform, as `βE` is)
/// and returns (secs, final iterate bits followed by every `δ`'s bits).
fn run_sweeps(m: &Layout, iters: usize, pool: &Pool) -> (f64, Vec<u64>) {
    let n = m.n_rows();
    let mut x = seed_vector(n);
    let f = vec![0.15 / n.max(1) as f64; n];
    let mut next = vec![0.0; n];
    let mut ws = Vec::new();
    let mut deltas = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for k in 0..iters {
        deltas.push(m.sweep(k, &x, &f, &mut next, &mut ws, pool).to_bits());
        std::mem::swap(&mut x, &mut next);
    }
    let secs = t0.elapsed().as_secs_f64();
    (secs, x.iter().map(|v| v.to_bits()).chain(deltas).collect())
}

/// Runs `iters` ping-pong multiplies and returns (secs, final bits).
fn run_cell(m: &Layout, iters: usize, pool: &Pool) -> (f64, Vec<u64>) {
    let n = m.n_rows();
    let mut x = seed_vector(n);
    let mut y = vec![0.0; n];
    let mut ws = Vec::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        m.mul(&x, &mut y, &mut ws, pool);
        std::mem::swap(&mut x, &mut y);
    }
    let secs = t0.elapsed().as_secs_f64();
    (secs, x.iter().map(|v| v.to_bits()).collect())
}

fn main() {
    let args = BenchArgs::from_env("spmv");
    let quick = args.flag("quick");
    let alpha = args.get("alpha", 0.85f64);
    let default_pages = if quick { "100000" } else { "100000,1000000,10000000" };
    let pages_list: Vec<usize> = args.list("pages-list", default_pages);
    let workers: Vec<usize> = args.list("workers", "1,2,4,8");
    let reps = args.get("reps", if quick { 1 } else { 2usize });

    let mut grid: Vec<GridRow> = Vec::new();
    let mut headline_speedup = 0.0f64;
    let mut headline_pages = 0usize;

    for &pages in &pages_list {
        let sites = 100;
        eprintln!("[spmv] generating {pages}-page edu graph");
        let g = edu_domain(&EduDomainConfig {
            n_pages: pages,
            n_sites: sites,
            ..EduDomainConfig::default()
        });
        let implicit = build_implicit(&g, alpha);
        let nnz = implicit.nnz();
        // Iteration count sized so every cell streams a comparable volume.
        let iters = (600_000_000 / nnz.max(1)).clamp(4, 40);
        let layouts: Vec<(&str, Layout)> = vec![
            ("explicit", Layout::Explicit(implicit.to_explicit())),
            ("implicit", Layout::Implicit(implicit.clone().with_wide_row_ptr())),
            ("implicit-u32", Layout::Implicit(implicit)),
        ];

        // Sequential explicit reference bits for the in-run identity check.
        let pool_seq = Pool::sequential();
        let (_, reference_bits) = run_cell(&layouts[0].1, iters, &pool_seq);
        let (_, sweep_reference_bits) = run_sweeps(&layouts[0].1, iters, &pool_seq);

        let mut single_threaded: Vec<(String, f64)> = Vec::new();
        for (name, layout) in &layouts {
            for &w in &workers {
                let pool = if w <= 1 { Pool::sequential() } else { Pool::with_workers(w) };
                let (mut best, mut sweep_best) = (f64::INFINITY, f64::INFINITY);
                let mut identical = true;
                for _ in 0..reps.max(1) {
                    let (secs, bits) = run_cell(layout, iters, &pool);
                    best = best.min(secs);
                    let (sweep_secs, sweep_bits) = run_sweeps(layout, iters, &pool);
                    sweep_best = sweep_best.min(sweep_secs);
                    identical &= bits == reference_bits && sweep_bits == sweep_reference_bits;
                }
                assert!(
                    identical,
                    "{name} at {w} workers diverged from the reference on {pages} pages"
                );
                let narrow = match layout {
                    Layout::Implicit(m) => m.row_ptr_is_narrow(),
                    Layout::Explicit(_) => false,
                };
                let rows_per_sec = (g.n_pages() * iters) as f64 / best;
                let row = GridRow {
                    pages,
                    nnz,
                    layout: (*name).to_string(),
                    workers: w,
                    iters,
                    secs: best,
                    rows_per_sec,
                    sweep_secs: sweep_best,
                    sweep_rows_per_sec: (g.n_pages() * iters) as f64 / sweep_best,
                    matrix_gbytes_per_sec: (layout.heap_bytes() * iters) as f64 / best / 1e9,
                    bytes_per_nnz: layout.heap_bytes() as f64 / nnz.max(1) as f64,
                    row_ptr_narrow: narrow,
                    bit_identical_to_reference: identical,
                };
                eprintln!(
                    "[spmv] {pages:>9} pages {name:>18} w{w}: {:.3}s, {:.1}M rows/s, \
                     sweep {:.1}M rows/s, {:.2} GB/s, {:.1} B/nnz",
                    row.secs,
                    row.rows_per_sec / 1e6,
                    row.sweep_rows_per_sec / 1e6,
                    row.matrix_gbytes_per_sec,
                    row.bytes_per_nnz
                );
                if w == 1 {
                    single_threaded.push(((*name).to_string(), rows_per_sec));
                }
                grid.push(row);
            }
        }
        let rate = |name: &str| {
            single_threaded
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| *r)
                .expect("layout measured")
        };
        let speedup = rate("implicit-u32") / rate("explicit");
        eprintln!("[spmv] {pages} pages: implicit-u32 vs explicit single-threaded {speedup:.2}x");
        if pages >= headline_pages {
            headline_pages = pages.min(1_000_000);
            if pages == 1_000_000 || headline_speedup == 0.0 {
                headline_speedup = speedup;
            }
        }
        // The implicit layout must stream ≤ 8 bytes/nnz (acceptance
        // criterion): col_idx is exactly 4 B/nnz, and row_ptr + scale +
        // the sweep order (14 B a row) amortize under 4 B/nnz on any graph
        // with mean degree > 3.5.
        let u32_row = grid
            .iter()
            .rfind(|r| r.pages == pages && r.layout == "implicit-u32")
            .expect("just pushed");
        assert!(
            u32_row.bytes_per_nnz <= 8.0,
            "implicit-u32 streams {:.2} bytes/nnz > 8 on {pages} pages",
            u32_row.bytes_per_nnz
        );
    }

    if !quick {
        assert!(
            headline_speedup >= 1.3,
            "regression: implicit-u32 vs explicit single-threaded at {headline_pages} pages \
             is {headline_speedup:.2}x < 1.3x"
        );
    }

    // 10M-page storage round-trip + netrun solve (full mode only).
    let ten_m = if quick || args.flag("no-10m") {
        None
    } else {
        let pages = 10_000_000;
        let cfg = EduDomainConfig { n_pages: pages, n_sites: 100, ..EduDomainConfig::default() };
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        std::fs::create_dir_all(format!("{dir}/experiments")).expect("create experiments dir");
        let path = format!("{dir}/experiments/edu_10m.dprg");
        eprintln!("[spmv] streaming {pages}-page graph to {path}");
        let t0 = Instant::now();
        edu_domain_to_snapshot_path(&cfg, &path).expect("stream snapshot");
        let generate_stream_secs = t0.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();
        let t0 = Instant::now();
        let g = dpr_graph::io::load_snapshot(&path).expect("load snapshot");
        let load_secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "[spmv] 10M snapshot: {:.1} MB ({:.2} B/link), streamed in {:.1}s, loaded in {:.1}s",
            snapshot_bytes as f64 / 1e6,
            snapshot_bytes as f64 / g.n_internal_links() as f64,
            generate_stream_secs,
            load_secs
        );
        let roundtrip_equal = g == edu_domain(&cfg);
        assert!(roundtrip_equal, "streamed snapshot must equal in-memory generation");
        let cfg = NetRunConfig {
            k: 100,
            n_nodes: 128,
            overlay: OverlayKind::Pastry,
            strategy: Strategy::HashBySite,
            t_end: 6.0,
            sample_every: 3.0,
            ..NetRunConfig::default()
        };
        let t0 = Instant::now();
        let res = dpr_core::try_run_over_network(&g, cfg).expect("no churn scheduled");
        let netrun_secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "[spmv] 10M netrun solve: {netrun_secs:.1}s, final rel err {:.4}%",
            res.final_rel_err * 100.0
        );
        let row = TenMRow {
            pages,
            internal_links: g.n_internal_links(),
            snapshot_bytes,
            snapshot_bytes_per_link: snapshot_bytes as f64 / g.n_internal_links() as f64,
            generate_stream_secs,
            load_secs,
            roundtrip_equal,
            netrun_secs,
            netrun_final_rel_err: res.final_rel_err,
        };
        std::fs::remove_file(&path).ok();
        Some(row)
    };

    println!(
        "{:>9}  {:>18}  {:>3}  {:>12}  {:>14}  {:>9}  {:>8}",
        "pages", "layout", "w", "rows/s", "sweep rows/s", "GB/s", "B/nnz"
    );
    for r in &grid {
        println!(
            "{:>9}  {:>18}  {:>3}  {:>12.0}  {:>14.0}  {:>9.2}  {:>8.1}",
            r.pages,
            r.layout,
            r.workers,
            r.rows_per_sec,
            r.sweep_rows_per_sec,
            r.matrix_gbytes_per_sec,
            r.bytes_per_nnz
        );
    }
    println!(
        "implicit-u32 vs explicit single-threaded at {headline_pages} pages: \
         {headline_speedup:.2}x rows/sec"
    );
    if let Some(t) = &ten_m {
        println!(
            "10M-page round-trip: {:.1} MB snapshot ({:.2} B/link), stream {:.1}s, \
             load {:.1}s, netrun {:.1}s",
            t.snapshot_bytes as f64 / 1e6,
            t.snapshot_bytes_per_link,
            t.generate_stream_secs,
            t.load_secs,
            t.netrun_secs
        );
    }

    let payload = Payload {
        host_threads: Pool::host_threads(),
        quick,
        alpha,
        workers,
        grid,
        headline_speedup,
        headline_pages,
        ten_m,
    };
    args.emit(&payload).expect("write experiment json");
}
