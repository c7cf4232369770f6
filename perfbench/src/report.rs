//! The metric catalogue and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric with its unit, in
//! the order `BENCHMARK.json` declares them; a run must fill each metric
//! of its mode exactly once.

/// End-to-end metrics: `(name, unit)`. Printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 14] = [
    ("ingest_events_per_s", "1/s"),
    ("visibility_lag_p50_ms", "ms"),
    ("visibility_lag_p99_ms", "ms"),
    ("query_p50_ns", "ns"),
    ("query_p99_ns", "ns"),
    ("durable_events_per_s", "1/s"),
    ("recovery_s", "s"),
    ("replay_events_per_s", "1/s"),
    ("mds_response_ms", "ms"),
    ("hit_ratio", "ratio"),
    ("prefetch_accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_op_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. Printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("stream.engine_ns_per_event", "ns"),
    ("stream.evictions", "count"),
    ("stream.tracked_files", "count"),
    ("stream.state_bytes", "bytes"),
    ("serve.ingest_ns.p50", "ns"),
    ("serve.ingest_ns.p99", "ns"),
    ("serve.backpressure_waits", "count"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.late_ms.max", "ms"),
    ("serve.publish_ns.p50", "ns"),
    ("serve.publish_ns.p99", "ns"),
    ("stream.snapshot_build_ns.p50", "ns"),
    ("stream.snapshot_build_ns.p99", "ns"),
    ("serve.publishes", "count"),
    ("serve.refresh_ns.p99", "ns"),
    ("serve.flush_ms.p50", "ms"),
    ("online.refresh_ms.p50", "ms"),
    ("online.refresh_ms.p99", "ms"),
    ("online.route_ns.p50", "ns"),
    ("fpa.install_ns.p50", "ns"),
    ("fpa.topk_ns.p99", "ns"),
    ("cache.prefetches_issued", "count"),
    ("cache.useful_prefetches", "count"),
    ("cache.wasted_prefetches", "count"),
    ("mds.demand_ns.p50", "ns"),
    ("mds.demand_ns.p99", "ns"),
    ("mds.prefetches_dropped", "count"),
    ("store.lookups", "count"),
    ("store.page_reads", "count"),
    ("durable.ingest_ns.p99", "ns"),
    ("durable.checkpoint_ms.max", "ms"),
    ("wal.syncs", "count"),
    ("wal.fsync_ns.p50", "ns"),
    ("wal.fsync_ns.p99", "ns"),
    ("wal.bytes_per_event", "B/event"),
    ("recovery.replay_ms", "ms"),
    ("recovery.open_ms", "ms"),
    ("recovery.events_replayed", "count"),
    ("trace.serve.unattributed_share", "ratio"),
    ("trace.durable.unattributed_share", "ratio"),
    ("trace.replay.unattributed_share", "ratio"),
    ("trace.serve.overhead", "ratio"),
    ("trace.durable.overhead", "ratio"),
    ("trace.replay.overhead", "ratio"),
];

/// One run's result: metric values, operation counts and named checks.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    checks: Vec<(String, bool)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Record a named correctness check; a failed check is a failed
    /// operation too.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name.into(), ok));
    }

    /// The checks recorded so far.
    pub fn checks(&self) -> &[(String, bool)] {
        &self.checks
    }

    /// Render the result line for `catalogue`: every metric in catalogue
    /// order with its unit. Errors if a metric is missing, set twice, not
    /// in the catalogue, or not a finite number.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        for (name, _) in &self.values {
            if !catalogue.iter().any(|(c, _)| c == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let mut found = self.values.iter().filter(|(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some((_, v)), None) => *v,
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was set twice")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives (integral values keep a trailing `.0`).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_catalogue_in_order_with_units() {
        let cat = [("b_ms", "ms"), ("a", "count")];
        let mut r = Report::default();
        r.set("a", 3.0);
        r.set("b_ms", 1.25);
        r.attempted = 4;
        r.check("ok", true);
        let line = r.to_json(&cat).unwrap_or_default();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"a\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failed_check_marks_incorrect() {
        let mut r = Report::default();
        r.set("a", 1.0);
        r.check("broken", false);
        let line = r.to_json(&[("a", "count")]).unwrap_or_default();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    fn missing_duplicate_unknown_and_nan_are_errors() {
        let cat = [("a", "count")];
        assert!(Report::default().to_json(&cat).is_err());
        let mut twice = Report::default();
        twice.set("a", 1.0);
        twice.set("a", 2.0);
        assert!(twice.to_json(&cat).is_err());
        let mut unknown = Report::default();
        unknown.set("a", 1.0);
        unknown.set("zzz", 1.0);
        assert!(unknown.to_json(&cat).is_err());
        let mut nan = Report::default();
        nan.set("a", f64::NAN);
        assert!(nan.to_json(&cat).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        // The manifest at the repository root declares the same metrics
        // with the same units.
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).unwrap_or_default();
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} listed twice");
            assert!(a.len() <= 64);
            assert!(a.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(a
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
