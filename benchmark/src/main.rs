//! `benchmark --workload W --seed S --seconds N --trace 0|1`: one workload,
//! one fresh process, five phases — *generate* (untimed inputs), *set-up*,
//! *rank*, *serve*, *check* — and one result line.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` makes the traced
//! pass and prints the per-layer metrics. `--quick` shrinks every workload
//! to at most 20k pages; `--aa N` runs the workload `2N` times in child
//! processes and compares the two interleaved sets. See `README.md`.

mod aa;
mod layers;
mod metrics;
mod phases;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Values, PER_LAYER};
use phases::Check;
use spans::Recorder;
use workloads::Spec;

/// `run_seconds` of `BENCHMARK.json`: the default of `--seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Opts {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub trace_out: Option<PathBuf>,
    pub aa: Option<usize>,
}

const USAGE: &str = "usage: benchmark --workload <rank-1m|mesh-100k|crawl-200k|serve-100k> \
[--seed N] [--seconds N] [--trace 0|1] [--trace-out PATH] [--quick] [--aa N]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, DEFAULT_SECONDS, false, false);
    let (mut trace_out, mut aa) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value("a path")?)),
            "--aa" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                aa = Some(n);
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let spec = if quick { spec.quick() } else { spec };
    Ok(Opts { spec, seed, seconds, trace, quick, trace_out, aa })
}

/// Where temporary inputs live: beside the executable, which is inside the
/// build directory of the checkout.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("benchmark-tmp")))
        .unwrap_or_else(|| PathBuf::from("benchmark-tmp"))
}

/// `git rev-parse HEAD` without running git: `.git/HEAD` of the working
/// directory, one level of ref followed. A checkout that is not a
/// repository reports `unknown`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What one workload run produced.
pub struct Outcome {
    pub end_to_end: Values,
    pub per_layer: Values,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

/// Removes the snapshot file when the run ends, however it ends.
struct RemoveOnDrop(PathBuf);
impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run(opts: &Opts, rec: &mut Recorder) -> std::io::Result<Outcome> {
    let spec = &opts.spec;
    let threads = host_threads();
    let inputs = workloads::generate(spec, opts.seed, &scratch_dir())?;
    let _cleanup = RemoveOnDrop(inputs.snapshot.clone());
    println!(
        "# inputs graph_digest={:016x} deltas={}",
        inputs.graph_digest,
        inputs.cfg.deltas.len()
    );

    let (built, setup_secs) = phases::setup_phase(&inputs, rec)?;
    let setup_s = phases::median(&setup_secs);

    // Rank: the first repetition is the one whose results are kept; short
    // phases are repeated and the fastest repetition is reported.
    let (res, store, rank_secs, peak_rss_mb) = rec.span("phase.rank", |rec| {
        let (res, store) = phases::rank_once(&built, &inputs, rec);
        let peak_rss_mb = phases::peak_rss_mb();
        let mut secs = vec![phases::rank_wall(&res)];
        while secs.len() < phases::RANK_MAX_REPS
            && secs.iter().sum::<f64>() + secs[0] <= phases::RANK_BUDGET_SECS
        {
            let (again, _) = phases::rank_once(&built, &inputs, rec);
            assert!(
                again.counters == res.counters && again.rel_err.points() == res.rel_err.points(),
                "the same inputs must replay the same run"
            );
            secs.push(phases::rank_wall(&again));
        }
        (res, store, secs, peak_rss_mb)
    });
    let rank_wall_s = rank_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let stats_after_rank = store.stats();
    let mut checks = rec.span("phase.check", |_| phases::check_store(&store, &res, opts.seed));

    let mut states = phases::ServeStates::capture(&store, spec.k);
    // Publish and serve, interleaved: three blocks of timed publishes
    // around the two halves of the query loop, so that one slow episode
    // of the host cannot cover every publish.
    let mut publish_ms = Vec::new();
    phases::publish_block(&store, &mut states, rec, &mut publish_ms);
    // What the fixed work takes of `--seconds`: the set-up repetitions, the
    // rank repetitions, three publish blocks like the one just timed.
    let measured = setup_secs.iter().sum::<f64>()
        + (res.setup_secs + res.engine_secs) * rank_secs.len() as f64
        + publish_ms.iter().sum::<f64>() * 3e-3;
    let serve_secs = (opts.seconds - measured).max(phases::MIN_SERVE_SECS.min(opts.seconds));
    if threads < 2 {
        println!(
            "# host has one thread: the serve phase runs its reader without the publisher thread"
        );
    }
    let load = phases::ServeLoad {
        final_ranks: &res.final_ranks,
        query_seed: inputs.query_seed,
        pace: std::time::Duration::from_millis(spec.publisher_pace_ms),
        host_threads: threads,
    };
    let mut served = phases::Served::default();
    for _ in 0..2 {
        phases::serve_phase(&store, &mut states, &load, serve_secs / 2.0, rec, &mut served);
        phases::publish_block(&store, &mut states, rec, &mut publish_ms);
    }

    let conv = phases::convergence(res.rel_err.points(), &spec.disturb_times(), spec.sample_every);
    let reference = rec.span("phase.check", |rec| {
        let g = phases::final_graph(&built, &inputs, rec);
        let reference = dpr_core::open_pagerank(&g, &inputs.cfg.rank).ranks;
        checks.extend(phases::check_ranks(&res, &conv, &reference));
        (g, reference)
    });

    let c = &res.counters;
    let mut e2e = Values::default();
    e2e.set("setup_s", setup_s);
    e2e.set("rank_wall_s", rank_wall_s);
    e2e.set("converge_vtime", conv.converge_vtime.unwrap_or(spec.t_end));
    let windows: Vec<f64> = conv
        .reconverge_windows
        .iter()
        .map(|w| w.unwrap_or(spec.t_end / spec.sample_every))
        .collect();
    e2e.set("reconverge_windows", windows.iter().sum::<f64>() / windows.len() as f64);
    e2e.set("wire_bytes", c.bytes as f64);
    let wire_messages =
        c.data_messages + c.lookup_messages + c.acks + c.checkpoints_sent + c.delta_messages;
    e2e.set("wire_messages", wire_messages as f64);
    e2e.set("serve_qps", phases::quantile(&served.window_qps, 1.0));
    e2e.set("publish_ms", phases::quantile(&publish_ms, phases::PUBLISH_QUANTILE));
    e2e.set("peak_rss_mb", peak_rss_mb);

    let mut per_layer = Values::default();
    if opts.trace {
        let ctx = layers::Context {
            opts,
            inputs: &inputs,
            built,
            final_graph: reference.0,
            res: &res,
            store: &store,
            states: &mut states,
            served: &served,
            skipped_updates: stats_after_rank.skipped_updates,
            rank_wall_s,
            publish_ms: &publish_ms,
            host_threads: threads,
        };
        rec.span("phase.layers", |rec| layers::measure(ctx, rec, &mut per_layer));
        layers::trace_metrics(rec, rank_wall_s, &mut per_layer);
    }

    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    Ok(Outcome {
        end_to_end: e2e,
        per_layer,
        attempted: served.queries + checks.len() as u64,
        failed: served.wrong + failed_checks,
        checks,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = opts.aa {
        return aa::run(&opts, n);
    }
    println!(
        "# benchmark workload={} seed={} seconds={} trace={} quick={} host_threads={} git_rev={}",
        opts.spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.quick,
        host_threads(),
        git_rev()
    );
    let mut rec = Recorder::new(opts.trace);
    let outcome = match run(&opts, &mut rec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for c in &outcome.checks {
        println!("# check {:<45} {} {}", c.what, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    let rows = if opts.trace {
        outcome.per_layer.in_registry(&PER_LAYER)
    } else {
        outcome.end_to_end.in_registry(&metrics::end_to_end_units())
    };
    for (name, value, unit) in &rows {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    if opts.trace {
        println!("# span                                      calls      total_s       self_s");
        for (name, calls, total, own) in rec.by_name() {
            println!("# {name:<40} {calls:>6} {total:>12.6} {own:>12.6}");
        }
        if let Some(path) = &opts.trace_out {
            if let Err(e) = std::fs::write(path, rec.to_json()) {
                eprintln!("benchmark: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = outcome.failed == 0;
    println!("{}", metrics::result_line(correct, outcome.attempted, outcome.failed, &rows));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run(name: &str, seed: u64, trace: bool) -> Outcome {
        let opts = Opts {
            spec: Spec::by_name(name).expect("a workload").quick(),
            seed,
            seconds: 0.5,
            trace,
            quick: true,
            trace_out: None,
            aa: None,
        };
        run(&opts, &mut Recorder::new(trace)).expect("the quick run completes")
    }

    const EXACT: [&str; 4] =
        ["converge_vtime", "reconverge_windows", "wire_bytes", "wire_messages"];

    #[test]
    fn quick_workloads_pass_their_checks_and_repeat_their_exact_metrics() {
        for w in workloads::WORKLOADS {
            let (a, b) = (quick_run(w.name, 3, false), quick_run(w.name, 3, false));
            for o in [&a, &b] {
                let bad: Vec<&str> = o.checks.iter().filter(|c| !c.ok).map(|c| c.what).collect();
                assert!(bad.is_empty(), "{}: failed checks {bad:?}", w.name);
                assert_eq!(o.failed, 0, "{}", w.name);
                assert!(o.attempted > o.checks.len() as u64, "{}: no queries were served", w.name);
                // Every end-to-end metric is there and none of them is zero.
                for (name, v, _) in o.end_to_end.in_registry(&metrics::end_to_end_units()) {
                    assert!(v > 0.0, "{}: {name} = {v}", w.name);
                }
            }
            for name in EXACT {
                assert_eq!(
                    a.end_to_end.get(name),
                    b.end_to_end.get(name),
                    "{}: {name} did not repeat",
                    w.name
                );
            }
        }
    }

    #[test]
    fn the_traced_pass_prints_every_per_layer_metric_and_the_shares_sum_to_one() {
        for name in ["mesh-100k", "crawl-200k"] {
            let o = quick_run(name, 5, true);
            let rows = o.per_layer.in_registry(&PER_LAYER);
            assert_eq!(rows.len(), PER_LAYER.len());
            let share = |n: &str| o.per_layer.get(n).expect("a share");
            let sum: f64 = ["solve", "y", "sample", "publish", "engine", "unattributed"]
                .iter()
                .map(|s| share(&format!("netrun.{s}_share")))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name}: shares sum to {sum}");
            assert!(o.checks.iter().all(|c| c.ok), "{name}: a check failed");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload mesh-100k --seed 9 --seconds 3 --trace 1 --quick"))
            .expect("valid");
        assert_eq!(
            (o.spec.name, o.seed, o.seconds, o.trace, o.quick),
            ("mesh-100k", 9, 3.0, true, true)
        );
        assert!(o.spec.pages <= 20_000);
        for bad in [
            "",
            "--workload nope",
            "--workload mesh-100k --trace 2",
            "--workload mesh-100k --seconds 0",
            "--workload mesh-100k --aa 1",
            "--workload mesh-100k --seed",
            "--workload mesh-100k --bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
