//! Shared plumbing for the experiment binaries: tiny CLI parsing, ASCII
//! figure rendering, and JSON result emission.
//!
//! Every binary regenerates one paper artifact (see DESIGN.md's experiment
//! index) and both prints a human-readable figure/table and writes the raw
//! series to `target/experiments/<name>.json` for EXPERIMENTS.md.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

use dpr_sim::TimeSeries;
use serde::Serialize;

/// Parses `--key value` and bare `--flag` arguments. Unknown keys are the
/// caller's business; values win over flags on duplicate keys.
#[must_use]
pub fn parse_args(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().unwrap(),
                _ => "true".to_string(),
            };
            out.insert(key.to_string(), value);
        }
    }
    out
}

/// Typed lookup with default.
#[must_use]
pub fn arg<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    args.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether a bare `--flag` was passed.
#[must_use]
pub fn flag(args: &HashMap<String, String>, key: &str) -> bool {
    args.get(key).map(String::as_str) == Some("true")
}

/// The parsed command line of one experiment binary: `--key value` pairs
/// and bare `--flag`s, with typed lookups and the shared JSON emission
/// path every binary used to hand-roll (`target/experiments/<name>.json`
/// plus an optional `--out PATH` copy for the committed `BENCH_*.json`
/// artifacts).
pub struct BenchArgs {
    name: &'static str,
    args: HashMap<String, String>,
}

impl BenchArgs {
    /// Parses `std::env::args()` for the binary named `name`; the name is
    /// reused as the default JSON artifact name and the log prefix.
    #[must_use]
    pub fn from_env(name: &'static str) -> Self {
        Self::from_iter(name, std::env::args().skip(1))
    }

    /// Parses an explicit argument list (for tests).
    #[must_use]
    pub fn from_iter(name: &'static str, args: impl Iterator<Item = String>) -> Self {
        Self { name, args: parse_args(args) }
    }

    /// Typed `--key value` lookup with default.
    #[must_use]
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        arg(&self.args, key, default)
    }

    /// Raw string lookup, `None` when the key is absent.
    #[must_use]
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.args.get(key).map(String::as_str)
    }

    /// Whether a bare `--flag` was passed.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        flag(&self.args, key)
    }

    /// Writes `payload` to `target/experiments/<name>.json` and, when
    /// `--out PATH` was given, to that path too. Returns the experiments
    /// path.
    pub fn emit<T: Serialize>(&self, payload: &T) -> std::io::Result<PathBuf> {
        let path = write_json(self.name, payload)?;
        eprintln!("[{}] wrote {}", self.name, path.display());
        if let Some(out) = self.args.get("out") {
            let text = serde_json::to_string_pretty(payload).expect("serializable payload");
            std::fs::write(out, text + "\n")?;
            eprintln!("[{}] wrote {out}", self.name);
        }
        Ok(path)
    }
}

/// Renders one or more labelled time series as an ASCII chart — the
/// terminal stand-in for the paper's figure panels. Values are mapped onto
/// `height` rows between the global min and max.
#[must_use]
pub fn ascii_chart(series: &[(&str, &TimeSeries)], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 3);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, s) in series {
        for &(t, v) in s.points() {
            lo = lo.min(v);
            hi = hi.max(v);
            t0 = t0.min(t);
            t1 = t1.max(t);
        }
    }
    if !lo.is_finite() || !hi.is_finite() || t1 <= t0 {
        return "(no data)\n".to_string();
    }
    if hi - lo < 1e-12 {
        hi = lo + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    let marks: &[u8] = b"ABCDEFGH";
    for (si, (_, s)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for (col, (_, v)) in s.resample(t0, t1, width).iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            let row = ((hi - v) / (hi - lo) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col] = mark;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:>10.4} |")
        } else if i == height - 1 {
            format!("{lo:>10.4} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.push_str(std::str::from_utf8(row).unwrap());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>12}t={t0:<10.1}{:>width$}\n",
        "",
        format!("t={t1:.1}"),
        width = width - 10
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} = {}\n", marks[si % marks.len()] as char, name));
    }
    out
}

/// Serializable (time, value) series for JSON emission.
#[derive(Serialize)]
struct JsonSeries<'a> {
    name: &'a str,
    points: Vec<(f64, f64)>,
}

/// Writes experiment output as JSON under `target/experiments/<name>.json`.
/// Returns the path written.
pub fn write_json<T: Serialize>(name: &str, payload: &T) -> std::io::Result<PathBuf> {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let text = serde_json::to_string_pretty(payload).expect("serializable payload");
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// Converts labelled series into a serializable payload.
pub fn series_payload(series: &[(&str, &TimeSeries)]) -> serde_json::Value {
    let list: Vec<serde_json::Value> = series
        .iter()
        .map(|(name, s)| {
            serde_json::to_value(JsonSeries { name, points: s.points().to_vec() }).unwrap()
        })
        .collect();
    serde_json::Value::Array(list)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(s: &[&str]) -> HashMap<String, String> {
        parse_args(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_key_values_and_flags() {
        let a = args_of(&["--pages", "100", "--full", "--k", "8"]);
        assert_eq!(arg(&a, "pages", 0usize), 100);
        assert_eq!(arg(&a, "k", 0usize), 8);
        assert!(flag(&a, "full"));
        assert!(!flag(&a, "absent"));
        assert_eq!(arg(&a, "missing", 7i32), 7);
    }

    #[test]
    fn chart_renders_all_series_labels() {
        let mut s1 = TimeSeries::new();
        let mut s2 = TimeSeries::new();
        for i in 0..20 {
            s1.push(f64::from(i), f64::from(i));
            s2.push(f64::from(i), f64::from(20 - i));
        }
        let chart = ascii_chart(&[("up", &s1), ("down", &s2)], 40, 10);
        assert!(chart.contains("A = up"));
        assert!(chart.contains("B = down"));
        assert!(chart.lines().count() > 10);
    }

    #[test]
    fn chart_handles_empty_input() {
        let s = TimeSeries::new();
        assert_eq!(ascii_chart(&[("x", &s)], 40, 5), "(no data)\n");
    }

    #[test]
    fn bench_args_typed_lookups() {
        let a = BenchArgs::from_iter(
            "unit",
            ["--pages", "100", "--quick"].iter().map(|s| s.to_string()),
        );
        assert_eq!(a.get("pages", 0usize), 100);
        assert_eq!(a.get("missing", 7i32), 7);
        assert!(a.flag("quick"));
        assert!(!a.flag("absent"));
        assert_eq!(a.raw("pages"), Some("100"));
        assert_eq!(a.raw("absent"), None);
    }

    #[test]
    fn json_written_to_experiments_dir() {
        let path = write_json("unit-test-artifact", &serde_json::json!({"ok": true})).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\": true"));
        std::fs::remove_file(path).ok();
    }
}
