//! Metric names, units, and the result line the benchmark prints last.
//!
//! The two lists below are the benchmark's contract with `BENCHMARK.json`:
//! a run without tracing reports exactly [`END_TO_END`], a traced run
//! exactly [`PER_LAYER`]. A metric a workload does not exercise (a store
//! counter on a workload without a store) reads 0 with 0 samples.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("memory_bytes", "B"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.queries", "count"),
    ("core.call_us", "us"),
    ("core.filter_us", "us"),
    ("core.probe_us", "us"),
    ("core.prune_us", "us"),
    ("core.verify_us", "us"),
    ("core.admit_us", "us"),
    ("core.memo_us", "us"),
    ("core.residual_us", "us"),
    ("core.memo_hits", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.exact_hits", "count"),
    ("core.exact_hit_ratio", "ratio"),
    ("core.case_hit_queries", "count"),
    ("core.case_hit_ratio", "ratio"),
    ("core.tests_per_query", "count"),
    ("core.probe_tests_per_query", "count"),
    ("core.case_hits", "count"),
    ("core.probe_tests", "count"),
    ("core.probe_yield", "ratio"),
    ("core.evictions_per_kq", "1/kq"),
    ("core.admission_rejected_per_kq", "1/kq"),
    ("core.cache_bytes", "B"),
    ("core.mutate_us_p50", "us"),
    ("core.mutate_us_p95", "us"),
    ("core.insert_us_p50", "us"),
    ("core.remove_us_p50", "us"),
    ("core.repair_entries_per_mutation", "count"),
    ("core.base_tests", "count"),
    ("core.gc_tests", "count"),
    ("core.test_speedup", "ratio"),
    ("core.base_time_s", "s"),
    ("core.gc_time_s", "s"),
    ("core.time_speedup", "ratio"),
    ("core.cache_index_ratio", "ratio"),
    ("method.filter_us", "us"),
    ("method.candidates", "count"),
    ("method.candidates_per_query", "count"),
    ("method.answers", "count"),
    ("method.precision", "ratio"),
    ("method.index_bytes", "B"),
    ("method.dataset_bytes", "B"),
    ("method.profile_bytes", "B"),
    ("method.op_log_bytes", "B"),
    ("method.ops_len", "count"),
    ("iso.tests", "count"),
    ("iso.verify_us_per_test", "us"),
    ("iso.steps_per_test", "count"),
    ("iso.contained", "count"),
    ("iso.yield", "ratio"),
    ("index.distinct_features", "count"),
    ("index.tombstone_ratio", "ratio"),
    ("store.journal_bytes", "B"),
    ("store.journal_records", "count"),
    ("store.bytes_per_record", "B"),
    ("store.disk_bytes", "B"),
    ("store.snapshot_bytes", "B"),
    ("store.snapshot_s", "s"),
    ("store.restore_s", "s"),
    ("server.requests", "count"),
    ("server.max_rps", "1/s"),
    ("server.rtt_us_p50", "us"),
    ("server.queue_us_p50", "us"),
    ("server.queue_us_p99", "us"),
    ("server.parse_us_p50", "us"),
    ("server.parse_us_p99", "us"),
    ("server.execute_us_p50", "us"),
    ("server.execute_us_p99", "us"),
    ("server.residual_us", "us"),
    ("server.residual_us_p99", "us"),
    ("server.shed", "count"),
    ("server.timed_out", "count"),
    ("graph.parse_us", "us"),
    ("gen.late_us_p99", "us"),
    ("gen.attempted", "count"),
    ("gen.failed", "count"),
    ("gen.error_rate", "ratio"),
    ("proc.rss_bytes", "B"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Values collected during a run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    /// Record `name` (a name from one of the lists) measured over
    /// `samples` samples. A later value replaces an earlier one.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is in neither list"));
        assert!(valid_name(name) && valid_unit(unit), "metric {name} [{unit}] is malformed");
        self.0.insert(name, (if value.is_finite() { value } else { 0.0 }, samples));
    }

    /// A ratio next to its numerator and denominator, all three over
    /// `samples` samples.
    pub fn ratio(
        &mut self,
        name: &'static str,
        num: (&'static str, f64),
        den: (&'static str, f64),
        samples: u64,
    ) {
        self.set(num.0, num.1, samples);
        self.set(den.0, den.1, samples);
        self.set(name, if den.1 > 0.0 { num.1 / den.1 } else { 0.0 }, samples);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// The metrics of `list`, in its order; absent ones read 0 over 0
    /// samples.
    pub fn select(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric { name, value, unit, samples }
            })
            .collect()
    }
}

/// Human-readable table: name, value, unit, sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ =
            writeln!(out, "{:<34} {:>20} {:<6} n={}", m.name, fmt_num(m.value), m.unit, m.samples);
    }
    out
}

/// The one-line JSON result object.
pub fn result_line(metrics: &[Metric], correct: bool, attempted: u64, failed: u64) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            fmt_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Every digit of the value (shortest round-trip form), always a valid
/// JSON number.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Metric names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for ok in
            ["query_qps", "core.filter_us", "server.queue_us_p99", "iso.yield", "a-b.c_9", "9x"]
        {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "semi;colon", "quote\"", "µs", long.as_str()]
        {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["us", "s", "1/s", "%", "B", "count", "ratio", "1/kq"] {
            assert!(valid_unit(ok), "{ok}");
        }
        let long = "u".repeat(17);
        for bad in ["", "µs", "req per s", long.as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_listed_metric_is_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` declares exactly these metrics with these units.
    #[test]
    fn lists_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        fn field<'v>(v: &'v serde_json::Value, name: &str) -> &'v serde_json::Value {
            let fields = v.as_object().expect("object");
            fields.iter().find(|(k, _)| k == name).map(|(_, v)| v).expect("field present")
        }
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = field(&doc, key)
                .as_array()
                .expect("metric array")
                .iter()
                .map(|m| {
                    let text = |k| field(m, k).as_str().expect("string").to_owned();
                    (text("name"), text("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut v = Values::default();
        v.set("query_qps", 1234.5, 10);
        v.set("memory_bytes", 42.0, 1);
        v.set("setup_s", f64::NAN, 3);
        let line = result_line(&v.select(&END_TO_END[..3]), true, 7, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"query_qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"query_p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn ratio_carries_its_bases() {
        let mut v = Values::default();
        v.ratio("iso.yield", ("iso.contained", 3.0), ("iso.tests", 4.0), 4);
        assert_eq!(v.get("iso.yield"), Some(0.75));
        assert_eq!(v.get("iso.contained"), Some(3.0));
        assert_eq!(v.get("iso.tests"), Some(4.0));
        v.ratio("iso.yield", ("iso.contained", 3.0), ("iso.tests", 0.0), 0);
        assert_eq!(v.get("iso.yield"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "in neither list")]
    fn unknown_names_are_rejected() {
        Values::default().set("no.such_metric", 1.0, 1);
    }
}
