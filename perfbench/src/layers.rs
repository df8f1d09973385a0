//! Per-layer metrics of a traced round: self times from its spans plus
//! the work counts the round observed, and the median over rounds.

use std::collections::BTreeMap;

use crate::report::{Outcome, MODELS};
use crate::span::Span;
use crate::stats::median;

/// Work counted while a round ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Records captured by the VM.
    pub records: u64,
    /// Records prepared for simulation.
    pub prepared_records: u64,
    /// Mispredicted branches marked by prepare.
    pub mispredicts: u64,
    /// `simulate` calls.
    pub sim_cells: u64,
    /// Dynamic instructions simulated, summed over calls.
    pub sim_instructions: u64,
    /// Trace bytes as serialized records, before compression.
    pub store_raw_bytes: u64,
    /// Trace artifact bytes on disk.
    pub store_bytes: u64,
    /// Snapshots published.
    pub snap_count: u64,
    /// Snapshot bytes on disk.
    pub snap_bytes: u64,
    /// Memory accesses annotated, and how many hit the cache.
    pub mem_accesses: u64,
    /// Cache hits among them.
    pub mem_hits: u64,
    /// Wall clock of the round's measured phase, in milliseconds.
    pub measured_ms: f64,
}

/// The span name of one `simulate` call under `model`.
#[must_use]
pub fn simulate_span(model: &str) -> &'static str {
    match model {
        "SP" => "ilpsim.simulate.SP",
        "EE" => "ilpsim.simulate.EE",
        "DEE" => "ilpsim.simulate.DEE",
        "SP-CD" => "ilpsim.simulate.SP-CD",
        "DEE-CD" => "ilpsim.simulate.DEE-CD",
        "SP-CD-MF" => "ilpsim.simulate.SP-CD-MF",
        "DEE-CD-MF" => "ilpsim.simulate.DEE-CD-MF",
        _ => "ilpsim.simulate.Oracle",
    }
}

/// Span names whose self time is reported as `<metric>_ms`.
const TIMED: [(&str, &str); 10] = [
    ("analyze.lint", "analyze.lint_ms"),
    ("analyze.plan", "analyze.plan_ms"),
    ("vm.lower", "vm.lower_ms"),
    ("vm.capture", "vm.capture_ms"),
    ("store.put", "store.put_ms"),
    ("store.replay", "store.replay_ms"),
    ("snap.publish", "snap.publish_ms"),
    ("snap.seek", "snap.seek_ms"),
    ("ilpsim.prepare", "ilpsim.prepare_ms"),
    ("mem.annotate", "mem.annotate_ms"),
];

const PER_MODEL: [&str; 8] = [
    "ilpsim.simulate_ms.SP",
    "ilpsim.simulate_ms.EE",
    "ilpsim.simulate_ms.DEE",
    "ilpsim.simulate_ms.SP-CD",
    "ilpsim.simulate_ms.DEE-CD",
    "ilpsim.simulate_ms.SP-CD-MF",
    "ilpsim.simulate_ms.DEE-CD-MF",
    "ilpsim.simulate_ms.Oracle",
];

/// `a / b`, or 0 when there is no denominator.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of one round.
#[must_use]
pub fn round_metrics(spans: &[Span], counts: &Counts) -> BTreeMap<&'static str, f64> {
    let self_ms: BTreeMap<&str, f64> = crate::span::self_times(spans)
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6))
        .collect();
    let ms = |span: &str| self_ms.get(span).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    for (span, metric) in TIMED {
        m.insert(metric, ms(span));
    }
    let mut simulate_ms = 0.0;
    for (model, metric) in MODELS.iter().zip(PER_MODEL) {
        let t = ms(simulate_span(model));
        simulate_ms += t;
        m.insert(metric, t);
    }
    m.insert("ilpsim.simulate_ms", simulate_ms);
    m.insert("ilpsim.simulate.cells", counts.sim_cells as f64);
    m.insert(
        "ilpsim.simulate.minstr_per_s",
        ratio(counts.sim_instructions as f64 / 1e3, simulate_ms),
    );
    m.insert(
        "ilpsim.simulate_share_pct",
        100.0 * ratio(simulate_ms, counts.measured_ms),
    );
    m.insert("vm.records", counts.records as f64);
    m.insert(
        "vm.capture_mrec_per_s",
        ratio(counts.records as f64 / 1e3, ms("vm.capture")),
    );
    m.insert("ilpsim.mispredicts", counts.mispredicts as f64);
    m.insert(
        "ilpsim.prepare_mrec_per_s",
        ratio(counts.prepared_records as f64 / 1e3, ms("ilpsim.prepare")),
    );
    m.insert("store.bytes", counts.store_bytes as f64);
    m.insert(
        "store.compress_ratio",
        ratio(counts.store_raw_bytes as f64, counts.store_bytes as f64),
    );
    m.insert(
        "store.replay_vs_capture",
        ratio(ms("vm.capture"), ms("store.replay")),
    );
    m.insert("snap.count", counts.snap_count as f64);
    m.insert("snap.bytes", counts.snap_bytes as f64);
    m.insert(
        "mem.hit_rate",
        ratio(counts.mem_hits as f64, counts.mem_accesses as f64),
    );
    m
}

/// Reports the median of each metric over `rounds`.
pub fn aggregate(out: &mut Outcome, rounds: &[BTreeMap<&'static str, f64>]) {
    let Some(first) = rounds.first() else {
        return;
    };
    for name in first.keys() {
        let values: Vec<f64> = rounds.iter().map(|r| r[name]).collect();
        out.set(name, median(&values), values.len());
    }
}

/// Tracing overhead: the median measured wall clock of the traced rounds
/// over that of the untraced rounds they alternate with, as a percentage
/// above it.
pub fn overhead(out: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64]) {
    if traced_ms.is_empty() || untraced_ms.is_empty() {
        return;
    }
    let (untraced, traced) = (median(untraced_ms), median(traced_ms));
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(traced - untraced, untraced),
        traced_ms.len() + untraced_ms.len(),
    );
    out.note("untraced_measured_ms", dee_serve::Json::from(untraced));
    out.note("traced_measured_ms", dee_serve::Json::from(traced));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn replay_inside_prepare_is_charged_to_the_store() {
        let spans = vec![
            span("ilpsim.prepare", 0, 10_000_000, None),
            span("store.replay", 1_000_000, 4_000_000, Some(0)),
            span("store.replay", 5_000_000, 7_000_000, Some(0)),
            span("vm.capture", 20_000_000, 30_000_000, None),
        ];
        let counts = Counts {
            records: 1_000_000,
            prepared_records: 1_000_000,
            ..Counts::default()
        };
        let m = round_metrics(&spans, &counts);
        assert_eq!(m["ilpsim.prepare_ms"], 5.0);
        assert_eq!(m["store.replay_ms"], 5.0);
        assert_eq!(m["vm.capture_ms"], 10.0);
        assert_eq!(m["store.replay_vs_capture"], 2.0);
        assert_eq!(m["vm.capture_mrec_per_s"], 100.0);
        assert_eq!(m["ilpsim.prepare_mrec_per_s"], 200.0);
    }

    #[test]
    fn simulate_time_sums_over_models_and_sets_the_share() {
        let spans = vec![
            span("ilpsim.simulate.SP", 0, 3_000_000, None),
            span("ilpsim.simulate.Oracle", 3_000_000, 4_000_000, None),
        ];
        let counts = Counts {
            sim_cells: 2,
            sim_instructions: 8_000_000,
            measured_ms: 5.0,
            ..Counts::default()
        };
        let m = round_metrics(&spans, &counts);
        assert_eq!(m["ilpsim.simulate_ms"], 4.0);
        assert_eq!(m["ilpsim.simulate_ms.SP"], 3.0);
        assert_eq!(m["ilpsim.simulate_ms.DEE"], 0.0);
        assert_eq!(m["ilpsim.simulate.minstr_per_s"], 2000.0);
        assert_eq!(m["ilpsim.simulate_share_pct"], 80.0);
    }
}
