//! `ingest-medium`: record once, replay many, over all seven builtin
//! workloads at `medium`.
//!
//! Per workload and pass: lint gate → static plan → lower → decoded
//! capture → `DEESTOR1` put → `DEESNAP1` checkpoints every [`STRIDE`]
//! records → streaming `StoreReader` replay into prepare → seeded
//! snapshot seeks (`nearest_snapshot` + `Snapshot::decode`) → `dee-mem`
//! latency annotation → two `simulate` calls (Oracle, and DEE-CD-MF at
//! `E_T` = 100). Each pass writes a fresh store in the scratch directory
//! and removes it afterwards.
//!
//! Checks, run with the clock paused: the capture reproduces the
//! reference output; replay yields the captured records one for one and
//! the same output checksum; the trace passes
//! `BranchCensus::verify_trace`; every seek lands on the expected
//! checkpoint, whose state equals a from-zero replay to that record; and
//! mispredict and cycle counts repeat exactly from pass to pass.

use std::collections::BTreeMap;
use std::time::Instant;

use dee_analyze::{BranchCensus, SpeculationPlan};
use dee_ilpsim::{simulate, Model, PreparedTrace, SimConfig};
use dee_mem::{annotate_latencies, CacheConfig, MemoryHierarchy};
use dee_predict::TwoBitCounter;
use dee_snap::{nearest_snapshot, publish_checkpoints, standard_predictors, Snapshot};
use dee_store::{fnv1a, ArtifactKey, Store, StoreReader};
use dee_vm::{
    output_checksum, trace_decoded, DecodedProgram, Machine, Trace, TraceChunkSource, TraceRecord,
    DEFAULT_CHUNK_RECORDS, RECORD_BYTES,
};
use dee_workloads::{Scale, Workload, WorkloadRegistry};

use crate::layers::{self, Counts};
use crate::report::Outcome;
use crate::span::{Span, Tracer};
use crate::stats::{median, percentile};
use crate::{repetitions, Config, Rng};

/// Every builtin workload: the paper five plus `synacor` and `sc`.
const WORKLOADS: [&str; 7] = [
    "cc1", "compress", "eqntott", "espresso", "xlisp", "synacor", "sc",
];

/// Checkpoint stride, in records.
const STRIDE: u64 = 1 << 17;

/// Seeded snapshot seeks per workload and pass.
const SEEKS: usize = 8;

/// Times the set-up is repeated for its median (it takes milliseconds).
const SETUPS: usize = 31;

/// Seconds one pass over the seven workloads takes on a 2-core host.
const PASS_S: f64 = 3.0;
/// Fewest passes a run measures.
const MIN_PASSES: usize = 3;

/// The annotated cache: 4 KiB words, 2-way, 8-word lines.
const CACHE: CacheConfig = CacheConfig {
    sets: 256,
    ways: 2,
    line_words: 8,
};

/// Cache miss latency, in cycles (hits take 1).
const MISS_LATENCY: u32 = 10;

/// Runs the workload; see the module docs.
pub fn run(config: &Config, spans: &mut Vec<Span>) -> Outcome {
    let mut out = Outcome::default();
    let registry = WorkloadRegistry::builtin();
    let mut setups = Vec::new();
    let mut workloads = Vec::new();
    for i in 0..SETUPS {
        let start = Instant::now();
        workloads = registry
            .build_many(&WORKLOADS, Scale::Medium)
            .expect("builtin workloads are registered");
        let dir = config.scratch.join(format!("ingest-setup-{i}"));
        let store = Store::open(&dir).expect("open the scratch store");
        setups.push(start.elapsed().as_secs_f64());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    out.set("setup_s", median(&setups), setups.len());

    let mut verified = Verified::default();
    let (mut passes, mut latencies_ms) = (Vec::new(), Vec::new());
    let (mut rounds, mut traced_ms, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    // A traced run alternates untraced and traced passes, for the
    // tracing overhead.
    let min = if config.traced { 2 } else { MIN_PASSES };
    for n in 0..repetitions(config.seconds, PASS_S, min) {
        let traced = config.traced && n % 2 == 1;
        let mut tracer = Tracer::new(traced);
        crate::host::reset_peak_rss();
        let p = pass(config, n, &workloads, &mut tracer, &mut verified, &mut out);
        rss.push(crate::host::peak_rss_mib("self").unwrap_or(0.0));
        if traced {
            let pass_spans = tracer.take();
            rounds.push(layers::round_metrics(&pass_spans, &p.counts));
            traced_ms.push(p.counts.measured_ms);
            spans.extend(pass_spans);
        } else {
            latencies_ms.extend(p.latencies_ms);
            passes.push(p.counts.measured_ms);
        }
    }
    if config.traced {
        layers::aggregate(&mut out, &rounds);
        layers::overhead(&mut out, &passes, &traced_ms);
        return out;
    }
    let busy_s: f64 = passes.iter().sum::<f64>() / 1e3;
    out.set("wall_s", median(&passes) / 1e3, passes.len());
    let walls = passes
        .iter()
        .map(|ms| dee_serve::Json::from(ms / 1e3))
        .collect();
    out.note("wall_s_samples", dee_serve::Json::Arr(walls));
    out.set("peak_rss_mb", median(&rss), rss.len());
    out.set(
        "rps",
        latencies_ms.len() as f64 / busy_s,
        latencies_ms.len(),
    );
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
        dee_serve::Json::str("one workload through the whole pipeline"),
    );
    out
}

/// Facts established on the first pass that later passes must repeat.
#[derive(Default)]
struct Verified {
    /// Per workload: mispredicts, and the two simulated cycle counts.
    outcomes: BTreeMap<String, (u64, u64, u64)>,
    /// Per (workload, checkpoint): digest of snapshot bytes whose state
    /// was checked against a from-zero replay.
    snapshots: BTreeMap<(String, u64), u64>,
}

/// One pass over every workload.
struct Pass {
    counts: Counts,
    latencies_ms: Vec<f64>,
}

fn pass(
    config: &Config,
    n: usize,
    workloads: &[Workload],
    tracer: &mut Tracer,
    verified: &mut Verified,
    out: &mut Outcome,
) -> Pass {
    let dir = config.scratch.join(format!("ingest-pass-{n}"));
    let store = Store::open(&dir).expect("open the pass store");
    let mut counts = Counts::default();
    let mut latencies_ms = Vec::new();
    for (index, w) in workloads.iter().enumerate() {
        let start = Instant::now();
        let result = ingest(&store, w, config.seed, index as u64, tracer, &mut counts);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        counts.measured_ms += ms;
        match result {
            Ok(ingested) => {
                latencies_ms.push(ms);
                check(w, &ingested, verified, out);
            }
            Err(e) => {
                latencies_ms.push(f64::INFINITY);
                out.expect(false, || format!("ingest {}: {e}", w.name));
            }
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    Pass {
        counts,
        latencies_ms,
    }
}

/// What one workload's pipeline produced, for the checks.
struct Ingested {
    trace: Trace,
    published: usize,
    replay: ReplayTally,
    replay_output: Vec<i32>,
    mispredicts: u64,
    cycles: (u64, u64),
    latencies: usize,
    seeks: Vec<Seek>,
}

/// One seek: the record asked for, and the checkpoint found (its record
/// index, the digest of its bytes, and the decoded snapshot).
type Seek = (u64, Option<(u64, u64, Snapshot)>);

/// Replayed records compared one for one with the captured ones.
#[derive(Default)]
struct ReplayTally {
    records: u64,
    mismatches: u64,
}

/// A `StoreReader` chunk source with a `store.replay` span around each
/// pull, comparing what it yields with the captured trace.
struct TimedReplay<'a> {
    reader: StoreReader,
    tracer: &'a mut Tracer,
    expected: &'a [TraceRecord],
    tally: ReplayTally,
}

impl TraceChunkSource for TimedReplay<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> Result<usize, String> {
        let from = buf.len();
        let reader = &mut self.reader;
        let got = self
            .tracer
            .span("store.replay", |_| reader.next_chunk(buf, max))?;
        for record in &buf[from..] {
            let at = self.tally.records as usize;
            if self.expected.get(at) != Some(record) {
                self.tally.mismatches += 1;
            }
            self.tally.records += 1;
        }
        Ok(got)
    }

    fn take_output(&mut self) -> Result<Vec<i32>, String> {
        let reader = &mut self.reader;
        self.tracer.span("store.replay", |_| reader.take_output())
    }

    fn len_hint(&self) -> Option<u64> {
        self.reader.len_hint()
    }
}

fn ingest(
    store: &Store,
    w: &Workload,
    seed: u64,
    index: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Ingested, String> {
    let report = tracer.span("analyze.lint", |_| dee_analyze::analyze(&w.program));
    if report.has_errors() {
        return Err("rejected by static analysis".into());
    }
    let plan = tracer.span("analyze.plan", |_| SpeculationPlan::build(&w.program));
    if plan.program_len == 0 {
        return Err("empty speculation plan".into());
    }
    let decoded = tracer.span("vm.lower", |_| DecodedProgram::compile(&w.program));
    let trace = tracer
        .span("vm.capture", |_| {
            trace_decoded(&decoded, &w.initial_memory, w.step_limit)
        })
        .map_err(|e| format!("capture: {e}"))?;
    counts.records += trace.len() as u64;

    let key = ArtifactKey::new(
        &w.name,
        "medium",
        &w.program.to_listing(),
        &w.initial_memory,
    );
    let path = tracer
        .span("store.put", |_| store.put(&key, &trace))
        .map_err(|e| format!("put: {e}"))?;
    counts.store_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    counts.store_raw_bytes += (trace.len() * RECORD_BYTES + 4 * trace.output().len()) as u64;
    let published = tracer
        .span("snap.publish", |_| {
            publish_checkpoints(store, &key, &w.program, &w.initial_memory, STRIDE)
        })
        .map_err(|e| format!("checkpoints: {e}"))?;
    counts.snap_count += published as u64;
    counts.snap_bytes += snapshot_bytes(store, &key);

    let (prepared, replay) = tracer.span("ilpsim.prepare", |t| {
        let reader = t
            .span("store.replay", |_| store.open_reader(&key))
            .map_err(|e| format!("replay: {e}"))?
            .ok_or("replay: artifact missing")?;
        let mut source = TimedReplay {
            reader,
            tracer: t,
            expected: trace.records(),
            tally: ReplayTally::default(),
        };
        let prepared = PreparedTrace::from_source(
            &w.program,
            &mut source,
            DEFAULT_CHUNK_RECORDS,
            &mut TwoBitCounter::new(),
        )
        .map_err(|e| format!("replay: {e}"))?;
        Ok::<_, String>((prepared, source.tally))
    })?;
    counts.prepared_records += prepared.len() as u64;
    counts.mispredicts += prepared.num_mispredicts();

    let mut rng = Rng::new(seed, 0x5EEC_0000 + index);
    let seeks = (0..SEEKS)
        .map(|_| {
            let at = rng.below(trace.len() as u64);
            let found = tracer.span("snap.seek", |_| {
                let (k, bytes) = nearest_snapshot(store, &key, at)?;
                Some((
                    k,
                    fnv1a(&bytes),
                    Snapshot::decode(&bytes, &w.initial_memory),
                ))
            });
            match found {
                None => Ok((at, None)),
                Some((k, digest, Ok(snap))) => Ok((at, Some((k, digest, snap)))),
                Some((k, _, Err(e))) => Err(format!("decode checkpoint r{k}: {e}")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;

    let latencies = tracer.span("mem.annotate", |_| {
        let mut hierarchy = MemoryHierarchy::new(CACHE, 1, MISS_LATENCY);
        let latencies = annotate_latencies(&trace, &mut hierarchy);
        let stats = hierarchy.stats();
        counts.mem_accesses += stats.accesses;
        counts.mem_hits += stats.hits;
        latencies.len()
    });

    let p = prepared.accuracy();
    let mut sim = |config: SimConfig| {
        let o = tracer.span(layers::simulate_span(config.model.name()), |_| {
            simulate(&prepared, &config)
        });
        counts.sim_cells += 1;
        counts.sim_instructions += o.instructions;
        o.cycles
    };
    let oracle = sim(SimConfig::new(Model::Oracle, 0));
    let dee = sim(SimConfig::new(Model::DeeCdMf, 100).with_p(p));
    Ok(Ingested {
        published,
        replay_output: prepared.output().to_vec(),
        mispredicts: prepared.num_mispredicts(),
        cycles: (oracle, dee),
        latencies,
        seeks,
        replay,
        trace,
    })
}

/// Bytes of `key`'s published snapshots.
fn snapshot_bytes(store: &Store, key: &ArtifactKey) -> u64 {
    store.list_snapshots().map_or(0, |entries| {
        entries
            .iter()
            .filter(|e| dee_snap::parse_record_index(&e.name, key).is_some())
            .map(|e| e.bytes)
            .sum()
    })
}

fn check(w: &Workload, got: &Ingested, verified: &mut Verified, out: &mut Outcome) {
    let name = &w.name;
    let len = got.trace.len() as u64;
    out.expect(got.trace.output() == w.expected_output.as_slice(), || {
        format!("{name}: capture disagrees with the reference output")
    });
    out.expect(
        got.replay.records == len && got.replay.mismatches == 0,
        || {
            format!(
                "{name}: replay yielded {} records ({} differ), capture {len}",
                got.replay.records, got.replay.mismatches
            )
        },
    );
    out.expect(
        output_checksum(&got.replay_output) == output_checksum(got.trace.output()),
        || format!("{name}: replay output checksum differs from capture"),
    );
    out.expect(
        BranchCensus::build(&w.program)
            .verify_trace(&got.trace)
            .is_ok(),
        || format!("{name}: trace fails BranchCensus::verify_trace"),
    );
    out.expect(got.latencies == got.trace.len(), || {
        format!("{name}: {} latencies for {len} records", got.latencies)
    });
    let expected_snaps = len.saturating_sub(1) / STRIDE;
    out.expect(got.published as u64 == expected_snaps, || {
        format!(
            "{name}: {} checkpoints published, expected {expected_snaps}",
            got.published
        )
    });
    let repeat = (got.mispredicts, got.cycles.0, got.cycles.1);
    let first = *verified.outcomes.entry(name.clone()).or_insert(repeat);
    out.expect(first == repeat, || {
        format!("{name}: (mispredicts, cycles) {repeat:?} differ from the first pass {first:?}")
    });

    let mut unverified = Vec::new();
    for (at, found) in &got.seeks {
        let want = (at / STRIDE) * STRIDE;
        let k = found.as_ref().map(|(k, _, _)| *k);
        out.expect(k == (want > 0).then_some(want), || {
            format!("{name}: seek to {at} found checkpoint {k:?}, expected r{want}")
        });
        if let Some((k, digest, snap)) = found {
            match verified.snapshots.get(&(name.clone(), *k)) {
                Some(&d) => out.expect(d == *digest, || {
                    format!("{name}: checkpoint r{k} bytes changed between passes")
                }),
                None => unverified.push((*k, *digest, snap)),
            }
        }
    }
    unverified.sort_by_key(|(k, _, _)| *k);
    unverified.dedup_by_key(|(k, _, _)| *k);
    let states = from_zero_states(
        w,
        &unverified.iter().map(|(k, _, _)| *k).collect::<Vec<_>>(),
    );
    for ((k, digest, snap), state) in unverified.into_iter().zip(states) {
        let ok = state.as_ref().is_some_and(|(machine, predictors)| {
            *machine == snap.machine
                && predictors
                    .iter()
                    .all(|(p, blob)| snap.predictor_state(p) == Some(blob.as_slice()))
        });
        out.expect(ok, || {
            format!("{name}: checkpoint r{k} differs from a from-zero replay")
        });
        if ok {
            verified.snapshots.insert((name.clone(), k), digest);
        }
    }
}

/// Machine and predictor states of a from-zero interpreter replay at each
/// of the ascending record indices `at`.
type ReplayState = (dee_vm::MachineState, Vec<(String, Vec<u8>)>);

fn from_zero_states(w: &Workload, at: &[u64]) -> Vec<Option<ReplayState>> {
    let mut machine = Machine::new();
    if machine.try_load_memory(&w.initial_memory).is_err() {
        return vec![None; at.len()];
    }
    let mut predictors = standard_predictors();
    let mut states = Vec::with_capacity(at.len());
    for &k in at {
        while machine.executed() < k && !machine.is_halted() {
            let Ok((_, record)) = machine.step(&w.program) else {
                break;
            };
            if let Some(outcome) = record.branch {
                for p in &mut predictors {
                    let _ = p.predict(record.pc);
                    p.resolve(record.pc, outcome.taken);
                }
            }
        }
        states.push((machine.executed() == k).then(|| {
            (
                machine.snapshot_state(),
                predictors
                    .iter()
                    .map(|p| (p.name().to_string(), p.save_state()))
                    .collect(),
            )
        }));
    }
    states
}
