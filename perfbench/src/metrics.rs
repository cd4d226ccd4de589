//! Metric declarations and the result line.
//!
//! Both lists must match `BENCHMARK.json` name for name and unit for unit
//! (a test pins this), and a run fails rather than print a result that
//! lacks a declared metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// The untraced run's metrics (`--trace 0`).
pub const END_TO_END: &[Metric] = &[m("setup_s", "s"), m("sweep_s", "s"), m("peak_rss_mb", "MB")];

/// The traced run's metrics (`--trace 1`). Times are busy seconds inside
/// the named call, summed over the sweep's points; counts repeat exactly
/// for a given commit, workload and seed.
pub const PER_LAYER: &[Metric] = &[
    m("demand.synthetic_s", "s"),
    m("demand.gravity_s", "s"),
    m("demand.gravity_flows", "count"),
    m("core.design.ss_s", "s"),
    m("core.design.wd_s", "s"),
    m("core.design.sats", "count"),
    m("core.fluence_s", "s"),
    m("core.fluence.samples", "count"),
    m("lsn.survivability_s", "s"),
    m("lsn.survivability.events", "count"),
    m("lsn.snapshot_s", "s"),
    m("lsn.snapshot.positions", "count"),
    m("lsn.topology_s", "s"),
    m("lsn.topology.links", "count"),
    m("lsn.evaluator_s", "s"),
    m("lsn.traffic_s", "s"),
    m("lsn.traffic.flows_routed", "count"),
    m("lsn.traffic_engine_s", "s"),
    m("lsn.traffic_engine.pairs", "count"),
    m("lsn.optimizer_s", "s"),
    m("lsn.optimizer.candidates_scored", "count"),
    m("lsn.optimizer.candidates_unique", "count"),
    m("lsn.optimizer.unique_ratio", "ratio"),
    m("lsn.optimizer.candidates_per_s", "1/s"),
    m("lsn.degraded_s", "s"),
    m("lsn.percolation.sweep_s", "s"),
    m("lsn.percolation.lambda2_s", "s"),
    m("scenario.jsonl_s", "s"),
    m("scenario.jsonl_bytes", "bytes"),
    m("scenario.runner.parallel_efficiency", "ratio"),
    m("trace.coverage", "ratio"),
];

/// Whether a per-layer metric is a count that must repeat exactly.
pub fn is_count(metric: &Metric) -> bool {
    matches!(metric.unit, "count" | "bytes")
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Scenario points attempted in the measured passes.
    pub attempted: usize,
    /// Points that ended as `Err`.
    pub failed: usize,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Values that must repeat exactly between runs of the same sources,
    /// workload and seed (report digests, per-layer counts).
    pub repeatable: BTreeMap<String, String>,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, message: String) {
        self.correct = false;
        self.problems.push(message);
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric in `declared` with its unit.
    ///
    /// # Errors
    /// A declared metric was not measured, or is not a finite number.
    pub fn result_line(&self, declared: &[Metric]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, metric) in declared.iter().enumerate() {
            let value =
                *self.values.get(metric.name).ok_or(format!("{} not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("{} is not finite: {value}", metric.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A JSON value, enough of it to read `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                _ => panic!("not an array"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing text");
        value
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Json {
        skip_ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    skip_ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = parse_value(b, pos) else { panic!("object key") };
                    skip_ws(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    fields.push((key, parse_value(b, pos)));
                    skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    skip_ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(parse_value(b, pos));
                    skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'"' => {
                let start = *pos + 1;
                *pos = start;
                while b[*pos] != b'"' {
                    assert_ne!(b[*pos], b'\\', "escapes are not used in BENCHMARK.json");
                    *pos += 1;
                }
                *pos += 1;
                Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word: &[u8] = match b[*pos] {
                    b't' => b"true",
                    b'f' => b"false",
                    _ => b"null",
                };
                assert_eq!(&b[*pos..*pos + word.len()], word);
                *pos += word.len();
                match word[0] {
                    b't' => Json::Bool(true),
                    b'f' => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = *pos;
                while *pos < b.len() && (b[*pos].is_ascii_digit() || b"+-.eE".contains(&b[*pos])) {
                    *pos += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*pos]).unwrap().parse().expect("number"))
            }
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .arr()
            .iter()
            .map(|m| (m.get("name").str().into(), m.get("unit").str().into()))
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String)> {
        list.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn code_declares_exactly_what_benchmark_json_declares() {
        let json = benchmark_json();
        assert_eq!(declared(&json, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), ours(PER_LAYER));
        let names: Vec<&str> =
            json.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
        let expected: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        for list in [END_TO_END, PER_LAYER] {
            let mut out = Outcome { correct: true, attempted: 3, ..Outcome::default() };
            for (i, metric) in list.iter().enumerate() {
                out.values.insert(metric.name, 0.25 + i as f64);
            }
            let line = parse(&out.result_line(list).expect("every metric measured"));
            assert_eq!(line.get("correct"), &Json::Bool(true));
            assert_eq!(line.get("attempted"), &Json::Num(3.0));
            assert_eq!(line.get("failed"), &Json::Num(0.0));
            let Json::Obj(metrics) = line.get("metrics") else { panic!("metrics object") };
            assert_eq!(metrics.len(), list.len());
            for (metric, (name, value)) in list.iter().zip(metrics) {
                assert_eq!(metric.name, name);
                assert_eq!(value.get("unit").str(), metric.unit);
                assert!(matches!(value.get("value"), Json::Num(_)));
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut out = Outcome::default();
        assert!(out.result_line(END_TO_END).is_err());
        for metric in END_TO_END {
            out.values.insert(metric.name, f64::NAN);
        }
        assert!(out.result_line(END_TO_END).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
