//! Integration tests for the `dpr` CLI subcommands, driven through the
//! library API. One test runs the binary itself, for what only the
//! process shows: the exit code, and that a bad run ends at all.

use dpr_cli::args::Args;
use dpr_cli::commands;

fn args(s: &[&str]) -> Args {
    Args::parse(s.iter().map(ToString::to_string))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("dpr-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_stats_partition_rank_simulate_pipeline() {
    let path = tmp("pipeline.graph");
    commands::generate(&args(&["generate", "--pages", "3000", "--sites", "20", "--out", &path]))
        .unwrap();
    commands::stats(&args(&["stats", &path])).unwrap();
    commands::partition(&args(&["partition", &path, "--k", "8", "--strategy", "site"])).unwrap();
    commands::rank(&args(&["rank", &path, "--top", "5"])).unwrap();
    commands::rank(&args(&["rank", &path, "--algo", "hits", "--top", "3"])).unwrap();
    commands::rank(&args(&["rank", &path, "--algo", "pagerank"])).unwrap();
    commands::simulate(&args(&["simulate", &path, "--k", "10", "--p", "0.8", "--t-end", "60"]))
        .unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn crawl_subcommand_produces_rankable_dataset() {
    let path = tmp("crawled.graph");
    commands::crawl(&args(&[
        "crawl",
        "--web-pages",
        "5000",
        "--sites",
        "16",
        "--agents",
        "3",
        "--budget",
        "400",
        "--out",
        &path,
    ]))
    .unwrap();
    commands::rank(&args(&["rank", &path, "--top", "3"])).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_save_and_warm_start_roundtrip() {
    let graph = tmp("warm.graph");
    let ranks = tmp("warm.ranks");
    commands::generate(&args(&["generate", "--pages", "2000", "--sites", "15", "--out", &graph]))
        .unwrap();
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--k",
        "8",
        "--t-end",
        "80",
        "--save-ranks",
        &ranks,
    ]))
    .unwrap();
    let saved = dpr_core::ranks_io::load(&ranks).unwrap();
    assert_eq!(saved.len(), 2000);
    assert!(saved.iter().any(|&r| r > 0.0));
    // Second invocation warm-starts from the saved file.
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--k",
        "8",
        "--t-end",
        "40",
        "--warm-start",
        &ranks,
    ]))
    .unwrap();
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&ranks).ok();
}

#[test]
fn threaded_simulate_via_cli() {
    let graph = tmp("threaded.graph");
    commands::generate(&args(&["generate", "--pages", "1500", "--sites", "12", "--out", &graph]))
        .unwrap();
    commands::simulate(&args(&["simulate", &graph, "--k", "6", "--threaded"])).unwrap();
    std::fs::remove_file(&graph).ok();
}

#[test]
fn top_reads_saved_ranks() {
    let graph = tmp("top.graph");
    let ranks = tmp("top.ranks");
    commands::generate(&args(&["generate", "--pages", "800", "--sites", "8", "--out", &graph]))
        .unwrap();
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--k",
        "8",
        "--t-end",
        "60",
        "--save-ranks",
        &ranks,
    ]))
    .unwrap();
    commands::top(&args(&["top", &graph, "--ranks", &ranks, "--k", "5"])).unwrap();
    commands::top(&args(&["top", &graph, "--ranks", &ranks, "--site", "1"])).unwrap();
    // Mismatched rank file is a clean error.
    let small = tmp("small.graph");
    commands::generate(&args(&["generate", "--pages", "100", "--sites", "4", "--out", &small]))
        .unwrap();
    assert!(commands::top(&args(&["top", &small, "--ranks", &ranks]))
        .unwrap_err()
        .contains("entries"));
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&ranks).ok();
    std::fs::remove_file(&small).ok();
}

#[test]
fn rank_file_with_an_unbacked_count_is_a_clean_error() {
    // 33 bytes claiming 10^14 values: reading it used to abort the process
    // on an 800 TB allocation before the first value was parsed.
    let graph = tmp("unbacked.graph");
    let ranks = tmp("unbacked.ranks");
    commands::generate(&args(&["generate", "--pages", "100", "--sites", "4", "--out", &graph]))
        .unwrap();
    std::fs::write(&ranks, "dpr-ranks v1\n100000000000000\n0.5\n").unwrap();
    let err = commands::top(&args(&["top", &graph, "--ranks", &ranks])).unwrap_err();
    assert!(err.contains("unexpected end of file"), "{err}");
    let err = commands::simulate(&args(&["simulate", &graph, "--warm-start", &ranks])).unwrap_err();
    assert!(err.contains("unexpected end of file"), "{err}");
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&ranks).ok();
}

#[test]
fn snapshot_header_claiming_more_links_than_the_file_holds_is_a_clean_error() {
    // 16 bytes: magic, no sites, no pages, and a link count of 2^64 - 1.
    // Reserving that many links used to panic with "capacity overflow".
    let path = tmp("unbacked.dprg1");
    let mut bytes = dpr_graph::io::SNAPSHOT_MAGIC.to_vec();
    bytes.extend_from_slice(&[0, 0]);
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = commands::stats(&args(&["stats", &path])).unwrap_err();
    assert!(err.contains("cannot read graph") && err.contains("link count"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_reports_structure() {
    let path = tmp("analyze.graph");
    commands::generate(&args(&["generate", "--pages", "1000", "--sites", "10", "--out", &path]))
        .unwrap();
    commands::analyze(&args(&["analyze", &path])).unwrap();
    commands::analyze(&args(&["analyze", &path, "--sinks-only"])).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_runs_with_defaults_and_overrides() {
    commands::plan(&args(&["plan"])).unwrap();
    commands::plan(&args(&["plan", "--rankers", "100000", "--pages", "3e10"])).unwrap();
}

#[test]
fn missing_file_is_a_clean_error() {
    let err = commands::stats(&args(&["stats", "/nonexistent/x.graph"])).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn bad_enums_are_clean_errors() {
    let path = tmp("enums.graph");
    commands::generate(&args(&["generate", "--pages", "500", "--sites", "5", "--out", &path]))
        .unwrap();
    assert!(commands::partition(&args(&["partition", &path, "--strategy", "zigzag"]))
        .unwrap_err()
        .contains("unknown strategy"));
    assert!(commands::rank(&args(&["rank", &path, "--algo", "eigentrust"]))
        .unwrap_err()
        .contains("unknown algo"));
    assert!(commands::simulate(&args(&["simulate", &path, "--variant", "dpr9"]))
        .unwrap_err()
        .contains("unknown variant"));
    assert!(commands::crawl(&args(&["crawl", "--mode", "psychic", "--out", "/tmp/x"]))
        .unwrap_err()
        .contains("unknown mode"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn generate_requires_out() {
    assert!(commands::generate(&args(&["generate"])).unwrap_err().contains("--out"));
}

#[test]
fn net_simulate_with_faults_and_reliability() {
    let graph = tmp("net.graph");
    commands::generate(&args(&["generate", "--pages", "800", "--sites", "8", "--out", &graph]))
        .unwrap();
    // Plain whole-system run over the default Pastry overlay.
    commands::simulate(&args(&["simulate", &graph, "--net", "--k", "8", "--t-end", "120"]))
        .unwrap();
    // Lossy run with the reliability protocol and a crash + join schedule.
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--k",
        "8",
        "--t-end",
        "150",
        "--p",
        "0.7",
        "--reliable",
        "--ack-timeout",
        "0.5",
        "--max-retries",
        "4",
        "--crash",
        "40:2",
        "--join",
        "60:901",
    ]))
    .unwrap();
    // Partition window on a Chord deployment.
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--k",
        "8",
        "--overlay",
        "chord",
        "--t-end",
        "150",
        "--partition",
        "30:60:0-3",
    ]))
    .unwrap();
    std::fs::remove_file(&graph).ok();
}

#[test]
fn net_simulate_rejects_bad_specs() {
    let graph = tmp("net-bad.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--overlay", "kademlia"]))
        .unwrap_err()
        .contains("unknown overlay"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--crash", "oops"]))
        .unwrap_err()
        .contains("--crash"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--partition", "9:3:0-1"]))
        .unwrap_err()
        .contains("--partition"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--p", "1.5"]))
        .unwrap_err()
        .contains("--p"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--join", "5:9,3:8"]))
        .unwrap_err()
        .contains("strictly increasing"));
    // Churn on an overlay that cannot support it surfaces as an error, not
    // a panic.
    assert!(commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--overlay",
        "can",
        "--crash",
        "10:1",
    ]))
    .unwrap_err()
    .contains("not supported on the CAN overlay"));
    std::fs::remove_file(&graph).ok();
}

#[test]
fn degenerate_run_shapes_are_clean_errors_on_every_host() {
    // Each of these used to reach an `assert!` inside a library host and
    // abort with a backtrace.
    let graph = tmp("degenerate.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    let err = |extra: &[&str]| {
        commands::simulate(&args(&[&["simulate", graph.as_str()], extra].concat())).unwrap_err()
    };
    assert!(err(&["--t-end", "0"]).contains("--t-end"));
    assert!(err(&["--k", "0"]).contains("--k"));
    assert!(err(&["--threaded", "--k", "0"]).contains("--k"));
    assert!(err(&["--t1", "5", "--t2", "1"]).contains("--t1/--t2"));
    assert!(err(&["--net", "--t1", "5", "--t2", "1"]).contains("t1/t2"));
    // A periodic delta schedule to an infinite horizon never ended.
    assert!(err(&["--net", "--churn-rate", "0.1", "--t-end", "inf"]).contains("--t-end"));
    std::fs::remove_file(&graph).ok();
}

#[test]
fn retired_and_unknown_options_fail_by_name_before_anything_runs() {
    let graph = tmp("stale.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    // The A/B switches retired with their code paths: a script still
    // passing one must fail, not report a comparison it never ran.
    for stale in [
        "--no-coalesce",
        "--no-route-cache",
        "--heap-scheduler",
        "--no-ext-cache",
        "--explicit-matrix",
        "--adaptive-epsilon",
    ] {
        let err = commands::simulate(&args(&["simulate", &graph, "--net", "--k", "4", stale]))
            .unwrap_err();
        assert!(err.contains(stale), "{stale}: {err}");
    }
    // Jacobi is the only inner solver: the switch that chose one is gone.
    let err = commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--k",
        "4",
        "--inner-solver",
        "jacobi",
    ]))
    .unwrap_err();
    assert!(err.contains("--inner-solver"), "{err}");
    let err = commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--k",
        "4",
        "--ack-timeout",
        "sor:1.1",
    ]))
    .unwrap_err();
    assert!(err.contains("--ack-timeout") && err.contains("sor:1.1"), "{err}");
    // A whole-system option without --net would be silently ignored.
    let err = commands::simulate(&args(&["simulate", &graph, "--nodes", "8"])).unwrap_err();
    assert!(err.contains("--nodes"), "{err}");
    // Every command checks, including the ones with no options at all.
    type Command = fn(&dpr_cli::args::Args) -> Result<(), String>;
    let all: [(&str, Command); 9] = [
        ("generate", commands::generate),
        ("crawl", commands::crawl),
        ("stats", commands::stats),
        ("partition", commands::partition),
        ("rank", commands::rank),
        ("simulate", commands::simulate),
        ("top", commands::top),
        ("analyze", commands::analyze),
        ("plan", commands::plan),
    ];
    let out = tmp("stale.out");
    for (name, command) in all {
        let err = command(&args(&[name, &graph, "--out", &out, "--ranks", &out, "--bogus", "1"]))
            .unwrap_err();
        assert!(err.contains("--bogus") && err.contains(name), "{name}: {err}");
    }
    assert!(!std::path::Path::new(&out).exists(), "a rejected command must not have run");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn unparsable_values_fail_by_name_instead_of_running_the_default() {
    let graph = tmp("unparsable.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    let err = commands::simulate(&args(&["simulate", &graph, "--k", "abc"])).unwrap_err();
    assert!(err.contains("--k") && err.contains("abc"), "{err}");
    let err = commands::simulate(&args(&["simulate", &graph, "--net", "--engine-workers", "two"]))
        .unwrap_err();
    assert!(err.contains("--engine-workers"), "{err}");
    let err = commands::partition(&args(&["partition", &graph, "--k", "-3"])).unwrap_err();
    assert!(err.contains("--k"), "{err}");
    let err = commands::top(&args(&["top", &graph, "--ranks", &graph, "--site", "x"])).unwrap_err();
    assert!(err.contains("--site"), "{err}");
    // A flag that swallowed the next argument says so.
    let err = commands::simulate(&args(&["simulate", &graph, "--threaded", "yes"])).unwrap_err();
    assert!(err.contains("--threaded") && err.contains("yes"), "{err}");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn bad_net_times_exit_1_without_running() {
    // Each of these used to hang until killed or to run nothing and
    // report a 100% error with exit 0.
    let graph = tmp("bad-times.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    for bad in [
        ["--crash", "nan:0"],
        ["--join", "nan:3"],
        ["--t-end", "inf"],
        ["--t-end", "nan"],
        ["--t-end", "-1"],
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dpr"))
            .args(["simulate", &graph, "--net", "--k", "4"])
            .args(bad)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let start = std::time::Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if start.elapsed() > std::time::Duration::from_secs(30) {
                child.kill().ok();
                panic!("{bad:?} still running after 30 s");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("dpr: "), "{bad:?}: {stderr}");
    }
    std::fs::remove_file(&graph).ok();
}
