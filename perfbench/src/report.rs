//! The metric catalogue and the two output lines of a run.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` name for name
//! and unit for unit (a unit test holds them together). A run prints a
//! full record line — workload, seed, host facts, every metric with its
//! sample count — and then the one-line result the benchmark contract
//! asks for: `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;

use dee_serve::Json;

/// One reported metric: its name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// The eight simulated models, in `ilpsim.simulate_ms.<model>` order.
pub const MODELS: [&str; 8] = [
    "SP",
    "EE",
    "DEE",
    "SP-CD",
    "DEE-CD",
    "SP-CD-MF",
    "DEE-CD-MF",
    "Oracle",
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not reach reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("analyze.lint_ms", "ms"),
    ("analyze.plan_ms", "ms"),
    ("vm.lower_ms", "ms"),
    ("vm.capture_ms", "ms"),
    ("vm.capture_mrec_per_s", "Mrec/s"),
    ("vm.records", "count"),
    ("store.put_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.compress_ratio", "x"),
    ("store.replay_ms", "ms"),
    ("store.replay_vs_capture", "x"),
    ("snap.publish_ms", "ms"),
    ("snap.count", "count"),
    ("snap.bytes", "bytes"),
    ("snap.seek_ms", "ms"),
    ("ilpsim.prepare_ms", "ms"),
    ("ilpsim.prepare_mrec_per_s", "Mrec/s"),
    ("ilpsim.mispredicts", "count"),
    ("ilpsim.simulate_ms", "ms"),
    ("ilpsim.simulate_ms.SP", "ms"),
    ("ilpsim.simulate_ms.EE", "ms"),
    ("ilpsim.simulate_ms.DEE", "ms"),
    ("ilpsim.simulate_ms.SP-CD", "ms"),
    ("ilpsim.simulate_ms.DEE-CD", "ms"),
    ("ilpsim.simulate_ms.SP-CD-MF", "ms"),
    ("ilpsim.simulate_ms.DEE-CD-MF", "ms"),
    ("ilpsim.simulate_ms.Oracle", "ms"),
    ("ilpsim.simulate.cells", "count"),
    ("ilpsim.simulate.minstr_per_s", "Minstr/s"),
    ("ilpsim.simulate_share_pct", "%"),
    ("mem.annotate_ms", "ms"),
    ("mem.hit_rate", "ratio"),
    ("serve.simulate_hot.p50_ms", "ms"),
    ("serve.simulate_hot.p90_ms", "ms"),
    ("serve.simulate_cold.p50_ms", "ms"),
    ("serve.simulate_cold.p90_ms", "ms"),
    ("serve.batch.p50_ms", "ms"),
    ("serve.batch.p90_ms", "ms"),
    ("serve.range.p50_ms", "ms"),
    ("serve.range.p90_ms", "ms"),
    ("serve.analyze.p50_ms", "ms"),
    ("serve.analyze.p90_ms", "ms"),
    ("serve.levo.p50_ms", "ms"),
    ("serve.levo.p90_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.snap_seek_hit_rate", "ratio"),
    ("serve.queue_full_rejects", "count"),
    ("serve.queue_depth_highwater", "count"),
    ("serve.server_mean_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("error_frac", "ratio"),
];

/// A measured value and how many samples it summarises.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// Samples behind it (runs, rounds or requests).
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed or disagreed with their oracle.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Extra record metadata (sample counts, percentile rules, notes).
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Adds a record-only fact.
    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Counts `attempted` checks of which `failed` failed.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one check that passes when `ok`, logging `what` otherwise.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// JSON numbers must be finite; a failed latency (infinite) is reported
/// as the largest finite double so it still reads as over every limit.
fn num(value: f64) -> Json {
    Json::from(if value.is_finite() { value } else { f64::MAX })
}

/// The catalogue a run reports: end-to-end untraced, per-layer traced.
#[must_use]
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The record line: everything about the run, for humans and ledgers.
#[must_use]
pub fn record_line(outcome: &Outcome, traced: bool, header: Vec<(&str, Json)>) -> String {
    let metrics = catalogue(traced)
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.values.get(name).copied().unwrap_or(Value {
                value: 0.0,
                samples: 0,
            });
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", num(v.value)),
                    ("unit", Json::str(unit)),
                    ("samples", Json::from(v.samples as u64)),
                ]),
            )
        })
        .collect();
    let mut members: Vec<(String, Json)> = header
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    members.push(("attempted".into(), Json::from(outcome.attempted)));
    members.push(("failed".into(), Json::from(outcome.failed)));
    members.push(("error_frac".into(), num(error_frac(outcome))));
    members.push(("metrics".into(), Json::Obj(metrics)));
    members.push(("info".into(), Json::Obj(outcome.info.clone())));
    Json::Obj(members).to_string()
}

/// Failed operations over attempted ones.
#[must_use]
pub fn error_frac(outcome: &Outcome) -> f64 {
    outcome.failed as f64 / outcome.attempted.max(1) as f64
}

/// The result line the benchmark contract reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = catalogue(traced)
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.values.get(name).map_or(0.0, |v| v.value);
            (
                name.to_string(),
                Json::obj(vec![("value", num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        (
            "correct",
            Json::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue in code and the one in `BENCHMARK.json` must agree
    /// name for name and unit for unit, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = dee_serve::json::parse(text).expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String)> {
            spec.get(section)
                .and_then(Json::as_arr)
                .expect("section present")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.check(5, 0);
        outcome.set("wall_s", 1.25, 3);
        outcome.set("p99_ms", f64::INFINITY, 3);
        let line = dee_serve::json::parse(&result_line(&outcome, false)).unwrap();
        let Json::Obj(members) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("wall_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(
            metrics
                .get("p99_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(f64::MAX)
        );
        assert!(metrics.get("setup_s").is_some(), "every metric is printed");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.expect(true, String::new);
        outcome.expect(false, || "disagrees".into());
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert!(result_line(&outcome, false).starts_with("{\"correct\":false"));
        assert!((error_frac(&outcome) - 0.5).abs() < 1e-12);
    }
}
