//! `--aa N`: the same code against itself. The workload runs `2N` times in
//! fresh child processes, alternating between set A and set B; run `i` of
//! either set uses seed `seed + i`, so both sets see the same inputs. Per
//! end-to-end metric it prints both medians, by how much B is worse than
//! A, the spread of each set (quartile distance over median) and the
//! bound, and exits non-zero when a gap or a spread exceeds the bound.
//! The spread of `setup_s` is shown but not held to its bound.

use std::process::{Command, ExitCode};

use crate::metrics::{Better, END_TO_END};
use crate::phases::median;
use crate::Opts;

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The value of `"name": {"value": X` in a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find(',')?].trim().parse().ok()
}

fn child(opts: &Opts, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", opts.spec.name, "--trace", "0"]).args([
        "--seed",
        &seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "seed {seed} failed ({}): {line}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

pub fn run(opts: &Opts, n: usize) -> ExitCode {
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for i in 0..n {
        // A B, B A, A B, ...: neither set always runs first.
        for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            match child(opts, opts.seed + i as u64) {
                Ok(line) => sets[set].push(line),
                Err(e) => {
                    eprintln!("benchmark --aa: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "### {}{} — {n} runs per set, seeds {}..{}, {} s, {} host threads\n",
        opts.spec.name,
        if opts.quick { " (quick)" } else { "" },
        opts.seed,
        opts.seed + n as u64 - 1,
        opts.seconds,
        crate::host_threads()
    );
    println!(
        "| metric | median A | median B | B worse by | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut exceeded = false;
    for &(name, unit, better, bound) in &END_TO_END {
        let col = |set: &[String]| -> Vec<f64> {
            set.iter()
                .map(|l| value_of(l, name).unwrap_or_else(|| panic!("no {name} in {l}")))
                .collect()
        };
        let (a, b) = (col(&sets[0]), col(&sets[1]));
        let (ma, mb) = (median(&a), median(&b));
        let worse = match better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        };
        let (sa, sb) = (spread(&a), spread(&b));
        let spread_held = name != "setup_s";
        let bad = worse > bound || (spread_held && sa.max(sb) > bound);
        exceeded |= bad;
        let verdict = if bad {
            "EXCEEDED"
        } else if worse.max(if spread_held { sa.max(sb) } else { 0.0 }) > bound / 2.0 {
            "over half"
        } else {
            "ok"
        };
        println!(
            "| `{name}` ({unit}) | {ma:.6} | {mb:.6} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {verdict} |",
            worse * 100.0,
            sa * 100.0,
            sb * 100.0,
            bound * 100.0
        );
    }
    println!();
    if exceeded {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line = crate::metrics::result_line(
            true,
            3,
            0,
            &[("setup_s", 0.25, "s"), ("rank_wall_s", 1.5e-3, "s")],
        );
        assert_eq!(value_of(&line, "setup_s"), Some(0.25));
        assert_eq!(value_of(&line, "rank_wall_s"), Some(1.5e-3));
        assert_eq!(value_of(&line, "missing"), None);
    }
}
