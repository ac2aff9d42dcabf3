//! The metric registry: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists exactly these names (a test holds the two
//! together); bounds and directions live there and in the README.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `(name, unit, better, bound)` of every end-to-end metric, printed with
/// `--trace 0`. `bound` is the share of the parent's median by which the
/// metric may get worse before a change is refused.
pub const END_TO_END: [(&str, &str, Better, f64); 9] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("rank_wall_s", "s", Better::Lower, 0.25),
    ("converge_vtime", "vtime", Better::Lower, 0.1),
    ("reconverge_windows", "windows", Better::Lower, 0.2),
    ("wire_bytes", "bytes", Better::Lower, 0.05),
    ("wire_messages", "count", Better::Lower, 0.05),
    ("serve_qps", "1/s", Better::Higher, 0.25),
    ("publish_ms", "ms", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// `(name, unit)` of the end-to-end metrics.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
}

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 84] = [
    ("graph.load_s", "s"),
    ("graph.snapshot_bytes_per_link", "bytes"),
    ("graph.delta_apply_s", "s"),
    ("graph.delta_wire_bytes", "bytes"),
    ("partition.build_s", "s"),
    ("partition.cut_fraction", "ratio"),
    ("group.build_s", "s"),
    ("group.matrix_bytes_per_nnz", "bytes"),
    ("group.solve_s", "s"),
    ("group.solve_sweeps", "count"),
    ("group.sweep_rows_per_s", "1/s"),
    ("group.compute_y_s", "s"),
    ("group.y_entries", "count"),
    ("group.afferent_set_s", "s"),
    ("group.rebuild_s", "s"),
    ("linalg.spmv_rows_per_s", "1/s"),
    ("linalg.spmv_bytes_per_nnz", "bytes"),
    ("linalg.central_solve_s", "s"),
    ("linalg.central_iters", "count"),
    ("linalg.reduce_gb_per_s", "GB/s"),
    ("linalg.pool_speedup_w2", "ratio"),
    ("overlay.build_s", "s"),
    ("overlay.route_ns", "ns"),
    ("overlay.cached_route_ns", "ns"),
    ("overlay.replicas_ns", "ns"),
    ("overlay.mean_hops", "hops"),
    ("overlay.cache_hit_rate", "ratio"),
    ("transport.encode_mb_per_s", "MB/s"),
    ("transport.decode_mb_per_s", "MB/s"),
    ("transport.compress_ratio", "ratio"),
    ("transport.snapshot_encode_mb_per_s", "MB/s"),
    ("sim.events", "count"),
    ("sim.peak_queue_len", "count"),
    ("sim.sends_dropped", "count"),
    ("sim.null_events_per_s", "1/s"),
    ("netrun.engine_s", "s"),
    ("netrun.setup_s", "s"),
    ("netrun.delta_ref_s", "s"),
    ("netrun.events_per_s", "1/s"),
    ("netrun.ns_per_wire_entry", "ns"),
    ("netrun.inner_sweeps", "count"),
    ("netrun.rows_recomputed", "count"),
    ("netrun.sweeps_saved", "count"),
    ("netrun.coalesced_parts", "count"),
    ("netrun.data_messages", "count"),
    ("netrun.lookup_messages", "count"),
    ("netrun.retries", "count"),
    ("netrun.acks", "count"),
    ("netrun.retry_exhausted", "count"),
    ("netrun.checkpoint_bytes", "bytes"),
    ("netrun.delta_bytes", "bytes"),
    ("netrun.takeovers_warm", "count"),
    ("netrun.takeovers_cold", "count"),
    ("netrun.solve_share", "ratio"),
    ("netrun.y_share", "ratio"),
    ("netrun.sample_share", "ratio"),
    ("netrun.publish_share", "ratio"),
    ("netrun.engine_share", "ratio"),
    ("netrun.unattributed_share", "ratio"),
    ("netrun.par_speedup_w2", "ratio"),
    ("store.publish_full_ms", "ms"),
    ("store.publish_one_group_ms", "ms"),
    ("store.publish_noop_us", "us"),
    ("store.lookup_ns_p50", "ns"),
    ("store.lookup_ns_p99", "ns"),
    ("store.topk_ns_p50", "ns"),
    ("store.topk_cand_ns_p50", "ns"),
    ("store.site_totals_ns_p50", "ns"),
    ("store.view_ns_p50", "ns"),
    ("store.query_p99_ns", "ns"),
    ("store.epoch_swaps", "count"),
    ("store.skipped_updates", "count"),
    ("crawl.bfs_pages_per_s", "1/s"),
    ("crawl.growth_delta_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("trace.rank_wall_s", "s"),
    ("trace.self_setup_s", "s"),
    ("trace.self_rank_s", "s"),
    ("trace.self_publish_s", "s"),
    ("trace.self_serve_s", "s"),
    ("trace.self_check_s", "s"),
    ("trace.self_layers_s", "s"),
];

/// Named values as measured, in registry order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.0.iter().any(|(n, _)| *n == name), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The values in the order of `registry`, with units.
    ///
    /// # Panics
    /// If a registry name was never set, a value is not a finite number,
    /// or a name outside the registry was set: the binary prints exactly
    /// the registry.
    pub fn in_registry(
        &self,
        registry: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        for (n, _) in &self.0 {
            assert!(registry.iter().any(|(r, _)| r == n), "metric {n} is not in the registry");
        }
        registry
            .iter()
            .map(|&(name, unit)| {
                let v =
                    self.get(name).unwrap_or_else(|| panic!("metric {name} was never measured"));
                assert!(v.is_finite(), "metric {name} is not a finite number: {v}");
                (name, v, unit)
            })
            .collect()
    }
}

/// A float with all its digits, in a form JSON accepts.
pub fn json_number(v: f64) -> String {
    // `{:?}` prints `1e-7` and `inf`; the first is JSON, the second never
    // gets here (`in_registry` rejects it).
    format!("{v:?}")
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let all: Vec<(&str, &str)> =
            end_to_end_units().into_iter().chain(PER_LAYER.iter().copied()).collect();
        for (name, unit) in &all {
            assert!(legal(name, "_.-", 64), "bad metric name {name:?}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name:?} must start alphanumeric"
            );
            assert!(legal(unit, "_/%.-", 16), "bad unit {unit:?} of {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// The `"name": "..."` values inside the JSON array that follows `key`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let q1 = rest.find('"').expect("name value opens") + 1;
                let q2 = q1 + rest[q1..].find('"').expect("name value closes");
                rest[q1..q2].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let want =
            |reg: &[(&str, &str)]| reg.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), want(&end_to_end_units()));
        assert_eq!(names_in(&json, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> =
            crate::workloads::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        for (name, unit) in &PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json disagrees on the unit of {name}"
            );
        }
        for (name, unit, better, bound) in &END_TO_END {
            let entry = format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                match better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }
            );
            assert!(json.contains(&entry), "BENCHMARK.json disagrees on {name}: want {entry}");
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!(json.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn result_line_is_one_json_object_with_all_digits() {
        let line = result_line(true, 12, 0, &[("a_s", 1.25e-7, "s"), ("b", 3.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25e-7, \"unit\": \"s\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_refused() {
        let mut v = Values::default();
        v.set("setup_s", 1.0);
        let _ = v.in_registry(&end_to_end_units());
    }
}
