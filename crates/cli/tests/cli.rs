//! Integration tests for the `dpr` CLI subcommands, driven through the
//! library API. One test runs the binary itself, for what only the
//! process shows: the exit code, and that a bad run ends at all.

use dpr_cli::args::Args;
use dpr_cli::commands::{self, CmdResult};

type Command = fn(&Args, &mut dyn std::io::Write) -> CmdResult;

/// Runs `command` on `argv`, its report discarded.
fn run(command: Command, argv: &[&str]) -> CmdResult {
    command(&Args::parse(argv.iter().map(ToString::to_string)), &mut std::io::sink())
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("dpr-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_stats_partition_rank_simulate_pipeline() {
    let path = tmp("pipeline.graph");
    run(commands::generate, &["generate", "--pages", "3000", "--sites", "20", "--out", &path])
        .unwrap();
    run(commands::stats, &["stats", &path]).unwrap();
    run(commands::partition, &["partition", &path, "--k", "8", "--strategy", "site"]).unwrap();
    run(commands::rank, &["rank", &path, "--top", "5"]).unwrap();
    run(commands::rank, &["rank", &path, "--algo", "hits", "--top", "3"]).unwrap();
    run(commands::rank, &["rank", &path, "--algo", "pagerank"]).unwrap();
    run(commands::simulate, &["simulate", &path, "--k", "10", "--p", "0.8", "--t-end", "60"])
        .unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn crawl_subcommand_produces_rankable_dataset() {
    let path = tmp("crawled.graph");
    run(
        commands::crawl,
        &[
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
        ],
    )
    .unwrap();
    run(commands::rank, &["rank", &path, "--top", "3"]).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_save_and_warm_start_roundtrip() {
    let graph = tmp("warm.graph");
    let ranks = tmp("warm.ranks");
    run(commands::generate, &["generate", "--pages", "2000", "--sites", "15", "--out", &graph])
        .unwrap();
    run(
        commands::simulate,
        &["simulate", &graph, "--k", "8", "--t-end", "80", "--save-ranks", &ranks],
    )
    .unwrap();
    let saved = dpr_core::ranks_io::load(&ranks).unwrap();
    assert_eq!(saved.len(), 2000);
    assert!(saved.iter().any(|&r| r > 0.0));
    // Second invocation warm-starts from the saved file.
    run(
        commands::simulate,
        &["simulate", &graph, "--k", "8", "--t-end", "40", "--warm-start", &ranks],
    )
    .unwrap();
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&ranks).ok();
}

#[test]
fn threaded_simulate_via_cli() {
    let graph = tmp("threaded.graph");
    run(commands::generate, &["generate", "--pages", "1500", "--sites", "12", "--out", &graph])
        .unwrap();
    run(commands::simulate, &["simulate", &graph, "--k", "6", "--threaded"]).unwrap();
    std::fs::remove_file(&graph).ok();
}

#[test]
fn top_reads_saved_ranks() {
    let graph = tmp("top.graph");
    let ranks = tmp("top.ranks");
    run(commands::generate, &["generate", "--pages", "800", "--sites", "8", "--out", &graph])
        .unwrap();
    run(
        commands::simulate,
        &["simulate", &graph, "--k", "8", "--t-end", "60", "--save-ranks", &ranks],
    )
    .unwrap();
    run(commands::top, &["top", &graph, "--ranks", &ranks, "--k", "5"]).unwrap();
    run(commands::top, &["top", &graph, "--ranks", &ranks, "--site", "1"]).unwrap();
    // Mismatched rank file is a clean error.
    let small = tmp("small.graph");
    run(commands::generate, &["generate", "--pages", "100", "--sites", "4", "--out", &small])
        .unwrap();
    assert!(run(commands::top, &["top", &small, "--ranks", &ranks])
        .unwrap_err()
        .to_string()
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
    run(commands::generate, &["generate", "--pages", "100", "--sites", "4", "--out", &graph])
        .unwrap();
    std::fs::write(&ranks, "dpr-ranks v1\n100000000000000\n0.5\n").unwrap();
    let err = run(commands::top, &["top", &graph, "--ranks", &ranks]).unwrap_err().to_string();
    assert!(err.contains("unexpected end of file"), "{err}");
    let err = run(commands::simulate, &["simulate", &graph, "--warm-start", &ranks])
        .unwrap_err()
        .to_string();
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
    let err = run(commands::stats, &["stats", &path]).unwrap_err().to_string();
    assert!(err.contains("cannot read graph") && err.contains("link count"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_reports_structure() {
    let path = tmp("analyze.graph");
    run(commands::generate, &["generate", "--pages", "1000", "--sites", "10", "--out", &path])
        .unwrap();
    run(commands::analyze, &["analyze", &path]).unwrap();
    run(commands::analyze, &["analyze", &path, "--sinks-only"]).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_runs_with_defaults_and_overrides() {
    run(commands::plan, &["plan"]).unwrap();
    run(commands::plan, &["plan", "--rankers", "100000", "--pages", "3e10"]).unwrap();
}

#[test]
fn plan_rejects_degenerate_values() {
    // Each of these used to panic on the capacity model's assert (exit 101
    // with a backtrace) or print an infinite interval.
    for bad in [
        &["--rankers", "0"][..],
        &["--pages", "0"],
        &["--record-bytes", "-1"],
        &["--bisection-mb", "0"],
        &["--pages", "inf"],
        &["--bisection-mb", "NaN"],
    ] {
        let argv: Vec<&str> = std::iter::once("plan").chain(bad.iter().copied()).collect();
        let err = run(commands::plan, &argv).unwrap_err().to_string();
        assert!(err.contains(bad[0]), "{bad:?}: {err}");
    }
}

#[test]
fn missing_file_is_a_clean_error() {
    let err = run(commands::stats, &["stats", "/nonexistent/x.graph"]).unwrap_err().to_string();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn bad_enums_are_clean_errors() {
    let path = tmp("enums.graph");
    run(commands::generate, &["generate", "--pages", "500", "--sites", "5", "--out", &path])
        .unwrap();
    assert!(run(commands::partition, &["partition", &path, "--strategy", "zigzag"])
        .unwrap_err()
        .to_string()
        .contains("unknown strategy"));
    assert!(run(commands::rank, &["rank", &path, "--algo", "eigentrust"])
        .unwrap_err()
        .to_string()
        .contains("unknown algo"));
    assert!(run(commands::simulate, &["simulate", &path, "--variant", "dpr9"])
        .unwrap_err()
        .to_string()
        .contains("unknown variant"));
    assert!(run(commands::crawl, &["crawl", "--mode", "psychic", "--out", "/tmp/x"])
        .unwrap_err()
        .to_string()
        .contains("unknown mode"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn generate_requires_out() {
    assert!(run(commands::generate, &["generate"]).unwrap_err().to_string().contains("--out"));
}

#[test]
fn net_simulate_with_faults_and_reliability() {
    let graph = tmp("net.graph");
    run(commands::generate, &["generate", "--pages", "800", "--sites", "8", "--out", &graph])
        .unwrap();
    // Plain whole-system run over the default Pastry overlay.
    run(commands::simulate, &["simulate", &graph, "--net", "--k", "8", "--t-end", "120"]).unwrap();
    // Lossy run with the reliability protocol and a crash + join schedule.
    run(
        commands::simulate,
        &[
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
        ],
    )
    .unwrap();
    // Partition window on a Chord deployment.
    run(
        commands::simulate,
        &[
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
        ],
    )
    .unwrap();
    std::fs::remove_file(&graph).ok();
}

#[test]
fn net_simulate_rejects_bad_specs() {
    let graph = tmp("net-bad.graph");
    run(commands::generate, &["generate", "--pages", "400", "--sites", "4", "--out", &graph])
        .unwrap();
    assert!(run(commands::simulate, &["simulate", &graph, "--net", "--overlay", "kademlia"])
        .unwrap_err()
        .to_string()
        .contains("unknown overlay"));
    assert!(run(commands::simulate, &["simulate", &graph, "--net", "--crash", "oops"])
        .unwrap_err()
        .to_string()
        .contains("--crash"));
    assert!(run(commands::simulate, &["simulate", &graph, "--net", "--partition", "9:3:0-1"])
        .unwrap_err()
        .to_string()
        .contains("--partition"));
    assert!(run(commands::simulate, &["simulate", &graph, "--p", "1.5"])
        .unwrap_err()
        .to_string()
        .contains("--p"));
    assert!(run(commands::simulate, &["simulate", &graph, "--net", "--join", "5:9,3:8"])
        .unwrap_err()
        .to_string()
        .contains("strictly increasing"));
    // Churn on an overlay that cannot support it surfaces as an error, not
    // a panic.
    assert!(run(
        commands::simulate,
        &["simulate", &graph, "--net", "--overlay", "can", "--crash", "10:1",]
    )
    .unwrap_err()
    .to_string()
    .contains("not supported on the CAN overlay"));
    std::fs::remove_file(&graph).ok();
}

#[test]
fn degenerate_run_shapes_are_clean_errors_on_every_host() {
    // Each of these used to reach an `assert!` inside a library host and
    // abort with a backtrace.
    let graph = tmp("degenerate.graph");
    run(commands::generate, &["generate", "--pages", "400", "--sites", "4", "--out", &graph])
        .unwrap();
    let err = |extra: &[&str]| {
        run(commands::simulate, &[&["simulate", graph.as_str()], extra].concat())
            .unwrap_err()
            .to_string()
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
    run(commands::generate, &["generate", "--pages", "400", "--sites", "4", "--out", &graph])
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
        let err = run(commands::simulate, &["simulate", &graph, "--net", "--k", "4", stale])
            .unwrap_err()
            .to_string();
        assert!(err.contains(stale), "{stale}: {err}");
    }
    // Jacobi is the only inner solver: the switch that chose one is gone.
    let err = run(
        commands::simulate,
        &["simulate", &graph, "--net", "--k", "4", "--inner-solver", "jacobi"],
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("--inner-solver"), "{err}");
    let err = run(
        commands::simulate,
        &["simulate", &graph, "--net", "--k", "4", "--ack-timeout", "sor:1.1"],
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("--ack-timeout") && err.contains("sor:1.1"), "{err}");
    // A whole-system option without --net would be silently ignored.
    let err =
        run(commands::simulate, &["simulate", &graph, "--nodes", "8"]).unwrap_err().to_string();
    assert!(err.contains("--nodes"), "{err}");
    // Every command checks, including the ones with no options at all.
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
        let err = run(command, &[name, &graph, "--out", &out, "--ranks", &out, "--bogus", "1"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--bogus") && err.contains(name), "{name}: {err}");
    }
    assert!(!std::path::Path::new(&out).exists(), "a rejected command must not have run");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn unparsable_values_fail_by_name_instead_of_running_the_default() {
    let graph = tmp("unparsable.graph");
    run(commands::generate, &["generate", "--pages", "400", "--sites", "4", "--out", &graph])
        .unwrap();
    let err = run(commands::simulate, &["simulate", &graph, "--k", "abc"]).unwrap_err().to_string();
    assert!(err.contains("--k") && err.contains("abc"), "{err}");
    let err = run(commands::simulate, &["simulate", &graph, "--net", "--engine-workers", "two"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("--engine-workers"), "{err}");
    let err =
        run(commands::partition, &["partition", &graph, "--k", "-3"]).unwrap_err().to_string();
    assert!(err.contains("--k"), "{err}");
    let err = run(commands::top, &["top", &graph, "--ranks", &graph, "--site", "x"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("--site"), "{err}");
    // A flag that swallowed the next argument says so.
    let err = run(commands::simulate, &["simulate", &graph, "--threaded", "yes"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("--threaded") && err.contains("yes"), "{err}");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn bad_net_times_exit_1_without_running() {
    // Each of these used to hang until killed or to run nothing and
    // report a 100% error with exit 0; the two ack timeouts used to run
    // with reliability silently off (NaN) or retrying at once (-1). The
    // last four crash a node that is not live (twice, out of range, the
    // last one) or join one id twice, which used to panic inside the
    // overlay with exit 101.
    let graph = tmp("bad-times.graph");
    run(commands::generate, &["generate", "--pages", "400", "--sites", "4", "--out", &graph])
        .unwrap();
    let bads: [&[&str]; 11] = [
        &["--crash", "nan:0"],
        &["--join", "nan:3"],
        &["--t-end", "inf"],
        &["--t-end", "nan"],
        &["--t-end", "-1"],
        &["--reliable", "--ack-timeout", "nan"],
        &["--reliable", "--ack-timeout", "-1"],
        &["--nodes", "12", "--crash", "20:4,40:4"],
        &["--nodes", "12", "--crash", "20:99"],
        &["--nodes", "2", "--crash", "10:0,20:1"],
        &["--join", "10:7,20:7"],
    ];
    for bad in bads {
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

#[test]
fn closed_stdout_ends_quietly_and_other_write_errors_exit_1() {
    // `dpr rank g --top 50 | head -2`: the reader is gone before the
    // command writes. That ends the run quietly, with status 0 and nothing
    // on stderr — not a "failed printing to stdout" panic with exit 101.
    let graph = tmp("closed-stdout.graph");
    run(commands::generate, &["generate", "--pages", "400", "--sites", "4", "--out", &graph])
        .unwrap();
    let spawn = |argv: &[&str], stdout: std::process::Stdio| {
        std::process::Command::new(env!("CARGO_BIN_EXE_dpr"))
            .args(argv)
            .stdout(stdout)
            .stderr(std::process::Stdio::piped())
            .output()
            .unwrap()
    };
    for argv in [&["plan"][..], &["rank", &graph, "--top", "50"], &["help"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = spawn(argv, writer.into());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {stderr}");
        assert!(stderr.is_empty(), "{argv:?}: {stderr}");
    }
    // Any other failed write is an error like any other.
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = spawn(&["plan"], full.into());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.starts_with("dpr: "), "{stderr}");
    }
    std::fs::remove_file(&graph).ok();
}
