//! `fig5-medium`: the paper's Figure 5 grid over the paper five at
//! `medium`, on one thread.
//!
//! The untraced run executes the shipped `fig5 medium --jobs 1` binary in
//! a scratch directory, several times: set-up is the time to its first
//! line of output (suite load: lint gate, capture, validation), the
//! measured phase is the rest (prepare, 215 `simulate` calls, tables,
//! CSV and SVG). Every run's CSV is compared cell by cell with the
//! committed `results/fig5_medium.csv`, which is only read.
//!
//! The traced run repeats the same work in process, one span around each
//! call into `dee-analyze`, `dee-vm` and `dee-ilpsim`, and checks its
//! speedups against the same golden cells.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dee_ilpsim::{harmonic_mean, simulate, Model, PreparedTrace, SimConfig};
use dee_predict::{measure_accuracy, TwoBitCounter};
use dee_vm::{trace_decoded, DecodedProgram, TraceChunks, DEFAULT_CHUNK_RECORDS};
use dee_workloads::{Scale, WorkloadRegistry, PAPER_WORKLOADS};

use crate::golden::{self, CellCheck};
use crate::layers::{self, Counts};
use crate::report::Outcome;
use crate::span::{Span, Tracer};
use crate::stats::{median, percentile};
use crate::{repetitions, Config};

/// Seconds one `fig5 medium --jobs 1` process takes on a 2-core host.
const RUN_S: f64 = 5.0;
/// Fewest sweeps a run measures, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// Runs the workload; see the module docs.
pub fn run(config: &Config, spans: &mut Vec<Span>) -> Outcome {
    let path = config.root.join("results/fig5_medium.csv");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden {}: {e}", path.display()));
    let golden = golden::parse_cells(&golden);
    if config.traced {
        in_process(config, &golden, spans)
    } else {
        binary(config, &golden)
    }
}

/// One `fig5` process: its set-up, measured phase and peak memory.
struct Sweep {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mib: f64,
}

fn binary(config: &Config, golden: &BTreeMap<String, String>) -> Outcome {
    let bin = config
        .fig5_bin
        .as_deref()
        .expect("fig5-medium needs --fig5-bin");
    let mut out = Outcome::default();
    let mut sweeps = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut busy_s = 0.0;
    for i in 0..repetitions(config.seconds, RUN_S, MIN_RUNS) {
        let dir = config.scratch.join(format!("fig5-{i}"));
        std::fs::create_dir_all(&dir).expect("create sweep directory");
        match sweep(bin, &dir) {
            Ok(s) => {
                let produced = std::fs::read_to_string(dir.join("results/fig5_medium.csv"))
                    .unwrap_or_default();
                record_check(
                    &mut out,
                    &golden::compare(&golden::parse_cells(&produced), golden),
                );
                latencies_ms.push((s.setup_s + s.wall_s) * 1e3);
                busy_s += s.setup_s + s.wall_s;
                sweeps.push(s);
            }
            Err(e) => {
                out.expect(false, || format!("fig5 run {i}: {e}"));
                latencies_ms.push(f64::INFINITY);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    let n = sweeps.len();
    if n > 0 {
        let col = |f: fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
        out.set("setup_s", col(|s| s.setup_s), n);
        out.set("wall_s", col(|s| s.wall_s), n);
        out.set("peak_rss_mb", col(|s| s.peak_rss_mib), n);
        out.set("rps", n as f64 / busy_s, n);
        let walls = sweeps
            .iter()
            .map(|s| dee_serve::Json::from(s.wall_s))
            .collect();
        out.note("wall_s_samples", dee_serve::Json::Arr(walls));
    }
    latencies_ms.sort_by(f64::total_cmp);
    out.set(
        "p50_ms",
        percentile(&latencies_ms, 50.0),
        latencies_ms.len(),
    );
    out.set(
        "p99_ms",
        percentile(&latencies_ms, 99.0),
        latencies_ms.len(),
    );
    out.note(
        "operation",
        dee_serve::Json::str("one `fig5 medium --jobs 1` process (set-up + sweep)"),
    );
    out
}

fn record_check(out: &mut Outcome, check: &CellCheck) {
    out.check(check.attempted, check.failed);
    if let Some(key) = &check.first_mismatch {
        eprintln!(
            "perfbench: fig5 disagrees with results/fig5_medium.csv in {} cell(s), first `{key}`",
            check.failed
        );
    }
}

/// Runs `fig5 medium --jobs 1` in `dir`, timing its first output line
/// and its exit, and polling its peak resident set while it runs.
fn sweep(bin: &Path, dir: &Path) -> Result<Sweep, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(["medium", "--jobs", "1"])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let pid = child.id().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(Mutex::new(0.0f64));
    let poller = {
        let (stop, peak, pid) = (Arc::clone(&stop), Arc::clone(&peak), pid.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(v) = crate::host::peak_rss_mib(&pid) {
                    let mut p = peak.lock().expect("peak lock");
                    *p = p.max(v);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };
    let mut first_line = None;
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while reader.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
        first_line.get_or_insert_with(|| start.elapsed().as_secs_f64());
        line.clear();
    }
    // Stdout closed: the process is exiting but not yet reaped, so its
    // pid still names it for one last high-water read.
    stop.store(true, Ordering::Relaxed);
    poller.join().map_err(|_| "rss poller panicked")?;
    let mut peak_rss_mib = *peak.lock().expect("peak lock");
    if let Some(v) = crate::host::peak_rss_mib(&pid) {
        peak_rss_mib = peak_rss_mib.max(v);
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let total = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("fig5 exited with {status}"));
    }
    let setup_s = first_line.ok_or("fig5 printed nothing")?;
    Ok(Sweep {
        setup_s,
        wall_s: total - setup_s,
        peak_rss_mib,
    })
}

/// What one in-process round computed.
struct Round {
    cells: BTreeMap<String, String>,
    counts: Counts,
}

fn in_process(
    config: &Config,
    golden: &BTreeMap<String, String>,
    spans: &mut Vec<Span>,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut rounds, mut traced_ms, mut untraced_ms, mut mispredicts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Untraced and traced rounds alternate, for the tracing overhead.
    for i in 0..repetitions(config.seconds, RUN_S, 2) {
        let traced = i % 2 == 1;
        let mut tracer = Tracer::new(traced);
        let r = round(&mut tracer, golden);
        record_check(&mut out, &golden::compare(&r.cells, golden));
        mispredicts.push(r.counts.mispredicts);
        if traced {
            let round_spans = tracer.take();
            rounds.push(layers::round_metrics(&round_spans, &r.counts));
            traced_ms.push(r.counts.measured_ms);
            spans.extend(round_spans);
        } else {
            untraced_ms.push(r.counts.measured_ms);
        }
    }
    out.expect(mispredicts.windows(2).all(|w| w[0] == w[1]), || {
        format!("mispredict counts differ between rounds: {mispredicts:?}")
    });
    layers::aggregate(&mut out, &rounds);
    layers::overhead(&mut out, &untraced_ms, &traced_ms);
    out
}

/// The golden grid's `(model, et)` columns, in file order.
fn grid(golden: &BTreeMap<String, String>) -> Vec<(Model, u32)> {
    let mut grid = Vec::new();
    for key in golden.keys() {
        let mut parts = key.split(',');
        let (Some(bench), Some(model), Some(et)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let model = Model::all_constrained()
            .into_iter()
            .find(|m| m.name() == model);
        if let (true, Some(model), Ok(et)) = (bench == PAPER_WORKLOADS[0], model, et.parse()) {
            grid.push((model, et));
        }
    }
    grid
}

/// Suite load plus the Figure 5 sweep, as `fig5 medium --jobs 1` does it.
fn round(tracer: &mut Tracer, golden: &BTreeMap<String, String>) -> Round {
    let mut counts = Counts::default();
    let registry = WorkloadRegistry::builtin();
    let workloads = registry
        .build_many(&PAPER_WORKLOADS, Scale::Medium)
        .expect("paper workloads are registered");
    let mut cells = BTreeMap::new();
    let mut suite = Vec::new();
    for w in workloads {
        let report = tracer.span("analyze.lint", |_| dee_analyze::analyze(&w.program));
        if report.has_errors() {
            continue;
        }
        let decoded = tracer.span("vm.lower", |_| DecodedProgram::compile(&w.program));
        let trace = tracer.span("vm.capture", |_| {
            trace_decoded(&decoded, &w.initial_memory, w.step_limit)
        });
        match trace {
            Ok(t) if t.output() == w.expected_output.as_slice() => {
                counts.records += t.len() as u64;
                suite.push((w, t));
            }
            _ => {}
        }
    }
    let accuracies: Vec<f64> = suite
        .iter()
        .map(|(_, t)| measure_accuracy(&mut TwoBitCounter::new(), t).accuracy())
        .collect();
    let p = harmonic_mean(&accuracies);

    let measured = Instant::now();
    let prepared: Vec<PreparedTrace> = suite
        .iter()
        .map(|(w, t)| {
            tracer.span("ilpsim.prepare", |_| {
                PreparedTrace::from_source(
                    &w.program,
                    &mut TraceChunks::new(t),
                    DEFAULT_CHUNK_RECORDS,
                    &mut TwoBitCounter::new(),
                )
                .expect("in-memory chunk source cannot fail")
            })
        })
        .collect();
    let columns = grid(golden);
    let mut oracles = Vec::new();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for ((w, _), prep) in suite.iter().zip(&prepared) {
        counts.prepared_records += prep.len() as u64;
        counts.mispredicts += prep.num_mispredicts();
        let mut sim = |model: Model, config: SimConfig| {
            let o = tracer.span(layers::simulate_span(model.name()), |_| {
                simulate(prep, &config)
            });
            counts.sim_cells += 1;
            counts.sim_instructions += o.instructions;
            o.speedup()
        };
        let oracle = sim(Model::Oracle, SimConfig::new(Model::Oracle, 0));
        cells.insert(format!("{},Oracle,0", w.name), format!("{oracle:.4}"));
        oracles.push(oracle);
        for (&(model, et), column) in columns.iter().zip(&mut speedups) {
            let s = sim(model, SimConfig::new(model, et).with_p(p));
            cells.insert(
                format!("{},{},{et}", w.name, model.name()),
                format!("{s:.4}"),
            );
            column.push(s);
        }
    }
    counts.measured_ms = measured.elapsed().as_secs_f64() * 1e3;
    for ((model, et), values) in columns.iter().zip(&speedups) {
        cells.insert(
            format!("harmonic-mean,{},{et}", model.name()),
            format!("{:.4}", harmonic_mean(values)),
        );
    }
    Round { cells, counts }
}
