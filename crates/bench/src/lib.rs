//! Experiment harness shared by the figure/table-regeneration binaries and
//! the timing benches (see [`timing`]; the repo carries no external crates,
//! so the benches use a hand-rolled harness instead of Criterion).
//!
//! Every evaluation artifact of the paper has a binary here (see DESIGN.md
//! §3 for the index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1` | Figure 1 — SP/EE/DEE trees at p=0.7, E_T=6 |
//! | `fig2` | Figure 2 — static DEE tree at p=0.90, E_T=34 |
//! | `fig5` | Figure 5 — speedup vs resources, 7 models × 5 benchmarks + HM |
//! | `headline` | §5.3 headline numbers at E_T=100 |
//! | `resolve_location` | §5.3 — where mispredicted branches resolve |
//! | `predictor_accuracy` | §3.1/§5.1 characteristic accuracy; §4.3 PAp claim |
//! | `cost_model` | §4.3 hardware cost shares |
//! | `ablation_p` | DEE→SP / DEE→EE convergence; tree-shape sensitivity |
//! | `ablation_shape` | h_DEE sweep vs the §3.1 heuristic's pick |
//! | `ablation_predictor` | §5.1 predictor/DEE tradeoff |
//! | `ablation_future` | §1.2/§5.3 future work: latencies, PE limits, PAp |
//! | `ablation_memory` | §1.2 future work: a finite data cache |
//! | `riseman_foster` | the 1972 baseline cited in §1.2 |
//! | `levo_eval` | §4 Levo machine: IPC, DEE paths, loop capture |
//! | `workload_stats` | workload character (lengths, branch stats) |
//! | `static_probs` | static vs trace-derived branch probabilities (DESIGN.md §15) |
//!
//! Binaries print paper-vs-measured tables and write CSVs under
//! `results/`. The trace-driven sweeps share one front end: flags are
//! parsed by [`SweepArgs`] (its doc lists every flag and default), the
//! suite is loaded by [`SweepArgs::load_suite`], and traces are prepared
//! by [`prepare_probs`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod pool;
pub mod timing;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dee_analyze::{DirectionCounts, SpeculationPlan};
use dee_ilpsim::{harmonic_mean, DirectionPredictor, PreparedTrace, ProbSource};
use dee_isa::Program;
use dee_predict::{measure_accuracy, BranchPredictor, TwoBitCounter};
use dee_store::{ArtifactKey, Store, StoreSource};
use dee_vm::{Engine, Trace, TraceChunks, DEFAULT_CHUNK_RECORDS};
use dee_workloads::{Scale, Workload, WorkloadRegistry, PAPER_WORKLOADS};

/// The sweep binaries' usage text, printed after any argument error.
const USAGE: &str = "usage: <sweep binary> [tiny|small|medium|large] [--jobs N] [--store DIR] \
[--workloads LIST|all] [--engine decoded|interp] [--chunk-records N] \
[--probs predictor|trace|static] [--max-rss BYTES[K|M|G]]";

/// The command line shared by the sweep binaries, parsed once by
/// [`SweepArgs::parse`] from one flag table.
///
/// | argument | default | meaning |
/// |---|---|---|
/// | `tiny\|small\|medium\|large` | `small` | workload scale (positional, anywhere) |
/// | `--jobs N` | available cores | pool worker threads ([`pool`]); output is byte-identical for any N |
/// | `--store DIR` | none | record-once/replay-many trace store (DESIGN.md §9) |
/// | `--workloads LIST` | the paper five | comma-separated registry names, or `all` |
/// | `--engine decoded\|interp` | `decoded` | trace-capture engine; both give identical suites |
/// | `--chunk-records N` | [`DEFAULT_CHUNK_RECORDS`] | records per streamed prepare chunk; any N is byte-identical |
/// | `--probs predictor\|trace\|static` | `predictor` | branch-probability source ([`prepare_probs`]) |
/// | `--max-rss BYTES` | none | peak-RSS budget checked by [`enforce_max_rss`]; `K`/`M`/`G` suffixes are powers of 1024 |
///
/// Every flag also takes the `--flag=value` form. A binary ignores the
/// flags it has no use for (`static_probs` sweeps the whole registry, so
/// `--workloads` does not apply to it); an unknown token, a repeated flag
/// or a second scale is an error.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Workload scale.
    pub scale: Scale,
    /// Pool worker threads.
    pub jobs: usize,
    /// Trace-store directory, opened by [`SweepArgs::open_store`].
    pub store: Option<PathBuf>,
    /// Trace-capture engine.
    pub engine: Engine,
    /// Registry names the suite covers, in order.
    pub workloads: Vec<String>,
    /// Records per streamed prepare chunk.
    pub chunk_records: usize,
    /// Branch-probability source.
    pub probs: ProbSource,
    /// Peak-RSS budget in bytes.
    pub max_rss: Option<u64>,
}

/// Applies one flag's value to the arguments parsed so far.
type FlagSetter = fn(&mut SweepArgs, &str) -> Result<(), String>;

/// The value-taking flags. Each entry is the only place its flag is named.
const FLAGS: [(&str, FlagSetter); 7] = [
    ("--jobs", |a, v| {
        a.jobs = positive(v)?;
        Ok(())
    }),
    ("--store", |a, v| {
        a.store = Some(PathBuf::from(v));
        Ok(())
    }),
    ("--workloads", |a, v| {
        a.workloads = workload_list(v)?;
        Ok(())
    }),
    ("--engine", |a, v| {
        a.engine = v.parse::<Engine>().map_err(|e| e.to_string())?;
        Ok(())
    }),
    ("--chunk-records", |a, v| {
        a.chunk_records = positive(v)?;
        Ok(())
    }),
    ("--probs", |a, v| {
        a.probs = ProbSource::parse(v)
            .ok_or_else(|| format!("expects `predictor`, `trace`, or `static`, got {v:?}"))?;
        Ok(())
    }),
    ("--max-rss", |a, v| {
        a.max_rss = Some(
            parse_byte_size(v).ok_or_else(|| format!("expects BYTES or <N>K|M|G, got {v:?}"))?,
        );
        Ok(())
    }),
];

fn positive(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("expects a positive integer, got {value:?}")),
    }
}

fn workload_list(list: &str) -> Result<Vec<String>, String> {
    let registry = WorkloadRegistry::builtin();
    if list == "all" {
        return Ok(registry.names().iter().map(|n| (*n).to_string()).collect());
    }
    let names: Vec<String> = list
        .split(',')
        .filter(|n| !n.is_empty())
        .map(str::to_string)
        .collect();
    if let Some(name) = names.iter().find(|n| !registry.contains(n)) {
        return Err(format!(
            "unknown workload `{name}` (known: {})",
            registry.names().join(", ")
        ));
    }
    if names.is_empty() {
        return Err("the list is empty".to_string());
    }
    Ok(names)
}

fn parse_byte_size(value: &str) -> Option<u64> {
    let v = value.trim();
    let (digits, unit) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 1 << 10),
        b'm' | b'M' => (&v[..v.len() - 1], 1 << 20),
        b'g' | b'G' => (&v[..v.len() - 1], 1 << 30),
        _ => (v, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(unit)
}

impl SweepArgs {
    /// Parses the arguments after the binary name. The scale may appear
    /// anywhere; a flag's value is never read as a scale, so
    /// `--store tiny` names a directory.
    ///
    /// # Errors
    ///
    /// Names the offending token: an unknown argument, a second scale, a
    /// repeated flag, a flag without a value, or a malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
        let mut parsed = SweepArgs {
            scale: Scale::Small,
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            store: None,
            engine: Engine::default(),
            workloads: PAPER_WORKLOADS.iter().map(|n| (*n).to_string()).collect(),
            chunk_records: DEFAULT_CHUNK_RECORDS,
            probs: ProbSource::default(),
            max_rss: None,
        };
        let mut scale_seen = false;
        let mut flags_seen: Vec<&str> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(scale) = Scale::parse(&arg) {
                if std::mem::replace(&mut scale_seen, true) {
                    return Err(format!("a second scale `{arg}`"));
                }
                parsed.scale = scale;
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg.as_str(), None),
            };
            let Some(&(name, set)) = FLAGS.iter().find(|(name, _)| *name == flag) else {
                return Err(format!("unknown argument `{arg}`"));
            };
            if flags_seen.contains(&name) {
                return Err(format!("{name} given twice"));
            }
            flags_seen.push(name);
            let value = match inline {
                Some(value) => value.to_string(),
                None => args.next().ok_or_else(|| format!("{name} needs a value"))?,
            };
            set(&mut parsed, &value).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(parsed)
    }

    /// [`SweepArgs::parse`] over the process arguments. On an error it
    /// prints the error and the usage text to stderr and exits with status 2,
    /// before any work or output.
    #[must_use]
    pub fn from_env() -> SweepArgs {
        SweepArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Opens the `--store` directory, if one was given.
    ///
    /// # Panics
    ///
    /// Panics when the store cannot be opened.
    #[must_use]
    pub fn open_store(&self) -> Option<Store> {
        self.store.as_ref().map(|dir| {
            Store::open(dir).unwrap_or_else(|e| panic!("--store {}: {e}", dir.display()))
        })
    }

    /// Loads the selected suite for the sweep binary `bin`: prints the
    /// `loading suite at …` line to stderr, then, with `--store`, the
    /// store's `dee_store_<bin>` hit/miss line.
    ///
    /// # Panics
    ///
    /// As [`SweepArgs::open_store`] and [`Suite::load`].
    #[must_use]
    pub fn load_suite(&self, bin: &str) -> Suite {
        eprintln!("loading suite at {:?}...", self.scale);
        let store = self.open_store();
        let suite = Suite::load(self.scale, &self.workloads, store.as_ref(), self.engine)
            .unwrap_or_else(|e| panic!("--workloads: {e}"));
        if let Some(store) = &store {
            eprintln!("{}", store.stats().timing_line(bin));
        }
        suite
    }

    /// Prepares every suite entry under `--probs` and `--chunk-records` on
    /// the pool (timing line `dee_bench_pool_<bin>_prepare`), one shared
    /// prepared trace per entry, in suite order.
    #[must_use]
    pub fn prepare_all(&self, suite: &Suite, bin: &str) -> Vec<Arc<PreparedTrace>> {
        let (chunk, probs) = (self.chunk_records, self.probs);
        pool::run_sweep(
            &format!("{bin}_prepare"),
            self.jobs,
            suite
                .entries
                .iter()
                .map(|e| {
                    move || Arc::new(prepare_probs(&e.workload.program, &e.trace, chunk, probs))
                })
                .collect(),
        )
    }
}

/// A validated workload with its captured trace.
pub struct BenchEntry {
    /// The workload (program + inputs + expected output).
    pub workload: Workload,
    /// Its dynamic trace (validated against the reference output).
    pub trace: Trace,
}

/// Empirical per-branch direction counts from any captured trace — the
/// trace-oracle profile behind `--probs trace`.
#[must_use]
pub fn trace_direction_counts(trace: &Trace) -> BTreeMap<u32, DirectionCounts> {
    let mut counts: BTreeMap<u32, DirectionCounts> = BTreeMap::new();
    for (pc, outcome) in trace.branch_outcomes() {
        let c = counts.entry(pc).or_default();
        if outcome.taken {
            c.taken += 1;
        } else {
            c.not_taken += 1;
        }
    }
    counts
}

/// Prepares `trace` for simulation with `predictor`, streaming the records
/// through [`PreparedTrace::from_source`] `chunk_records` at a time.
/// Byte-identical to the whole-trace [`PreparedTrace::with_predictor`] at
/// every chunk size.
#[must_use]
pub fn prepare_with(
    program: &Program,
    trace: &Trace,
    chunk_records: usize,
    predictor: &mut dyn BranchPredictor,
) -> PreparedTrace {
    PreparedTrace::from_source(
        program,
        &mut TraceChunks::new(trace),
        chunk_records,
        predictor,
    )
    .expect("in-memory chunk source cannot fail")
}

/// [`prepare_with`] under a probability source: the 2-bit counter
/// (`predictor`, the paper's setup), the trace's own majority directions
/// (`trace`), or the static plan's directions (`static`, profile-free).
#[must_use]
pub fn prepare_probs(
    program: &Program,
    trace: &Trace,
    chunk_records: usize,
    probs: ProbSource,
) -> PreparedTrace {
    let mut predictor: Box<dyn BranchPredictor> = match probs {
        ProbSource::Predictor => Box::new(TwoBitCounter::new()),
        ProbSource::Trace => Box::new(DirectionPredictor::from_counts(&trace_direction_counts(
            trace,
        ))),
        ProbSource::Static => Box::new(DirectionPredictor::from_plan(&SpeculationPlan::build(
            program,
        ))),
    };
    prepare_with(program, trace, chunk_records, predictor.as_mut())
}

/// A selected workload suite at a given scale, traced and validated.
pub struct Suite {
    /// Entries in the order the workloads were named.
    pub entries: Vec<BenchEntry>,
    /// The scale the suite was built at.
    pub scale: Scale,
}

impl Suite {
    /// Builds, traces (with `engine`) and validates the named workloads,
    /// resolved through the builtin [`WorkloadRegistry`], in the order
    /// given.
    ///
    /// With a store, each raw trace is replayed from its published
    /// artifact when one exists and is intact, and captured on the VM —
    /// then published — otherwise. A replayed trace is still validated
    /// against the workload's reference output; disagreement quarantines
    /// the artifact and falls back to the VM, so the suite is
    /// byte-identical with and without a store.
    ///
    /// # Errors
    ///
    /// Reports the first name the registry does not know.
    ///
    /// # Panics
    ///
    /// Panics if VM-side workload validation fails, or if a workload
    /// carries `Error`-severity static-analysis lints — both are build
    /// errors, not experiment outcomes.
    pub fn load(
        scale: Scale,
        names: &[impl AsRef<str>],
        store: Option<&Store>,
        engine: Engine,
    ) -> Result<Self, String> {
        let workloads = WorkloadRegistry::builtin().build_many(names, scale)?;
        let entries = workloads
            .into_iter()
            .map(|workload| {
                // Static gate: refuse to trace a program the analyzer can
                // prove malformed. Keeps every bench binary's failure mode
                // a diagnostic listing instead of a mid-run VM fault.
                let report = dee_analyze::analyze(&workload.program);
                assert!(
                    !report.has_errors(),
                    "workload {} rejected by static analysis:\n{}",
                    workload.name,
                    report.render_text(&workload.name)
                );
                let census = dee_analyze::BranchCensus::build(&workload.program);
                let trace = match store {
                    None => workload
                        .validate_with(engine)
                        .unwrap_or_else(|e| panic!("workload validation failed: {e}")),
                    Some(store) => {
                        let key = ArtifactKey::new(
                            &workload.name,
                            scale.name(),
                            &workload.program.to_listing(),
                            &workload.initial_memory,
                        );
                        let (trace, source) = store
                            .get_or_record(&key, || workload.validate_with(engine))
                            .unwrap_or_else(|e| panic!("workload validation failed: {e}"));
                        // A replayed artifact must both reproduce the
                        // reference output and survive the static/dynamic
                        // cross-check (every record explainable by the
                        // program's branch census). Either failure means
                        // the container was intact but its content has
                        // drifted — quarantine it and re-trace.
                        let stale = source == StoreSource::Disk
                            && (trace.output() != workload.expected_output
                                || census.verify_trace(&trace).is_err());
                        if stale {
                            store.quarantine_key(&key);
                            let trace = workload
                                .validate_with(engine)
                                .unwrap_or_else(|e| panic!("workload validation failed: {e}"));
                            let _ = store.put(&key, &trace);
                            trace
                        } else {
                            trace
                        }
                    }
                };
                BenchEntry { workload, trace }
            })
            .collect();
        Ok(Suite { entries, scale })
    }

    /// The characteristic prediction accuracy (the paper's §3.1 step 1):
    /// the harmonic mean of [`probs_accuracy`] over the suite.
    #[must_use]
    pub fn characteristic_accuracy_probs(&self, probs: ProbSource) -> f64 {
        let accs: Vec<f64> = self
            .entries
            .iter()
            .map(|e| probs_accuracy(&e.workload.program, &e.trace, probs))
            .collect();
        harmonic_mean(&accs)
    }
}

/// One workload's prediction accuracy under a probability source:
/// `predictor` measures the 2-bit counter (the paper measured 90.53% on
/// SPECint92), `trace` takes the trace's majority-direction mass, and
/// `static` uses the plan's expected accuracy *without touching the
/// trace* — the shape a serve tier would pick for a never-executed
/// upload.
#[must_use]
pub fn probs_accuracy(program: &Program, trace: &Trace, probs: ProbSource) -> f64 {
    match probs {
        ProbSource::Predictor => measure_accuracy(&mut TwoBitCounter::new(), trace).accuracy(),
        ProbSource::Trace => {
            let counts = trace_direction_counts(trace);
            DirectionPredictor::from_counts(&counts).accuracy_over(&counts)
        }
        ProbSource::Static => SpeculationPlan::build(program).expected_accuracy,
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the proc filesystem is
/// unavailable.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Enforces the `--max-rss` budget at the end of a sweep: prints the
/// measured peak next to the limit on stderr, and fails loudly when the
/// peak exceeds it. A platform without `VmHWM` reporting logs that the
/// guard could not run instead of passing silently.
///
/// # Panics
///
/// Panics when the peak resident set exceeds `limit`.
pub fn enforce_max_rss(limit: Option<u64>) {
    let Some(limit) = limit else { return };
    match peak_rss_bytes() {
        Some(peak) => {
            eprintln!("dee_bench_max_rss: peak_bytes={peak} limit_bytes={limit}");
            assert!(
                peak <= limit,
                "peak RSS {peak} bytes exceeds --max-rss {limit} bytes"
            );
        }
        None => eprintln!("dee_bench_max_rss: VmHWM unavailable; --max-rss not enforced"),
    }
}

/// A simple fixed-width text table builder for experiment output.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for c in 0..cols {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", cells[c], width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Writes the table as CSV under `results/` (creating the directory).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        std::fs::write(&path, csv)?;
        Ok(path)
    }
}

/// Formats a float with two decimals for table cells.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The resource sweep used throughout Figure 5.
pub const FIG5_RESOURCES: [u32; 6] = [8, 16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper five at `scale`, captured by the default engine.
    fn paper_suite(scale: Scale, store: Option<&Store>) -> Suite {
        Suite::load(scale, &PAPER_WORKLOADS, store, Engine::default()).expect("paper five")
    }

    #[test]
    fn suite_loads_and_validates_tiny() {
        let suite = paper_suite(Scale::Tiny, None);
        assert_eq!(suite.entries.len(), 5);
        let p = suite.characteristic_accuracy_probs(ProbSource::Predictor);
        assert!((0.5..1.0).contains(&p), "accuracy {p}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "2.50".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.905), "90.5%");
    }

    fn parse(list: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parse_defaults() {
        let a = parse(&[]).expect("no arguments");
        assert_eq!(a.scale, Scale::Small);
        assert!(a.jobs >= 1);
        assert_eq!(a.store, None);
        assert_eq!(a.engine, Engine::Decoded);
        assert_eq!(a.workloads, PAPER_WORKLOADS.to_vec());
        assert_eq!(a.chunk_records, DEFAULT_CHUNK_RECORDS);
        assert_eq!(a.probs, ProbSource::Predictor);
        assert_eq!(a.max_rss, None);
    }

    #[test]
    fn parse_takes_flags_anywhere_in_both_forms() {
        type Check = fn(&SweepArgs) -> bool;
        let cases: &[(&[&str], Check)] = &[
            (&["tiny"], |a| a.scale == Scale::Tiny),
            (&["--jobs", "4", "medium"], |a| {
                a.scale == Scale::Medium && a.jobs == 4
            }),
            (&["large", "--store", "traces"], |a| {
                a.scale == Scale::Large && a.store == Some(PathBuf::from("traces"))
            }),
            // A directory named like a scale is a flag value, not a scale.
            (&["--store", "tiny"], |a| {
                a.scale == Scale::Small && a.store == Some(PathBuf::from("tiny"))
            }),
            (&["--store=tiny"], |a| {
                a.scale == Scale::Small && a.store == Some(PathBuf::from("tiny"))
            }),
            (&["--engine", "interp", "medium"], |a| {
                a.scale == Scale::Medium && a.engine == Engine::Interp
            }),
            (&["--engine=decoded"], |a| a.engine == Engine::Decoded),
            (&["tiny", "--jobs", "3"], |a| a.jobs == 3),
            (&["--jobs=5", "medium"], |a| a.jobs == 5),
            (&["--chunk-records", "4093"], |a| a.chunk_records == 4093),
            (&["--chunk-records=7"], |a| a.chunk_records == 7),
            (&["--probs", "static", "tiny"], |a| {
                a.scale == Scale::Tiny && a.probs == ProbSource::Static
            }),
            (&["--probs", "trace"], |a| a.probs == ProbSource::Trace),
            (&["tiny", "--jobs", "4", "--probs", "predictor"], |a| {
                a.probs == ProbSource::Predictor && a.jobs == 4
            }),
            (&["--max-rss", "1048576"], |a| a.max_rss == Some(1 << 20)),
            (&["--max-rss=512K"], |a| a.max_rss == Some(512 << 10)),
            (&["--max-rss", "64M"], |a| a.max_rss == Some(64 << 20)),
            (&["--max-rss", "2G"], |a| a.max_rss == Some(2 << 30)),
            (&["--workloads", "synacor,cc1"], |a| {
                a.workloads == ["synacor", "cc1"]
            }),
            (&["--workloads=xlisp"], |a| a.workloads == ["xlisp"]),
            (&["--workloads", "all"], |a| {
                a.workloads.iter().any(|w| w == "synacor")
                    && a.workloads.len() > PAPER_WORKLOADS.len()
            }),
        ];
        for (argv, check) in cases {
            let a = parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            assert!(check(&a), "{argv:?} parsed as {a:?}");
        }
    }

    #[test]
    fn parse_rejects_bad_arguments() {
        let cases: &[(&[&str], &str)] = &[
            (&["medum"], "unknown argument `medum`"),
            (&["tiny", "--verbose"], "unknown argument `--verbose`"),
            (&["tiny", "small"], "a second scale `small`"),
            (&["--jobs"], "--jobs needs a value"),
            (&["--jobs", "many"], "--jobs: expects a positive integer"),
            (&["--jobs", "0"], "--jobs: expects a positive integer"),
            (&["--jobs", "2", "--jobs=3"], "--jobs given twice"),
            (
                &["--chunk-records", "0"],
                "--chunk-records: expects a positive integer",
            ),
            (&["--engine", "warp"], "--engine: "),
            (&["--probs", "oracle"], "--probs: expects"),
            (&["--max-rss", "lots"], "--max-rss: expects"),
            // 17179869185 GiB is 2^64 + 2^30 bytes: it must not wrap to 1 GiB.
            (&["--max-rss", "17179869185G"], "--max-rss: expects"),
            (
                &["--workloads", "gcc"],
                "--workloads: unknown workload `gcc`",
            ),
            (&["--workloads", ","], "--workloads: the list is empty"),
        ];
        for (argv, want) in cases {
            match parse(argv) {
                Ok(a) => panic!("{argv:?} parsed as {a:?}"),
                Err(e) => assert!(e.contains(want), "{argv:?}: {e:?} lacks {want:?}"),
            }
        }
    }

    #[test]
    fn suites_identical_across_engines() {
        let a = Suite::load(Scale::Tiny, &["xlisp"], None, Engine::Interp).expect("known");
        let b = Suite::load(Scale::Tiny, &["xlisp"], None, Engine::Decoded).expect("known");
        assert_eq!(a.entries[0].trace.records(), b.entries[0].trace.records());
        assert_eq!(a.entries[0].trace.output(), b.entries[0].trace.output());
    }

    #[test]
    fn prepare_probs_sources_are_deterministic_and_ranked() {
        let suite =
            Suite::load(Scale::Tiny, &["compress"], None, Engine::default()).expect("known");
        let (program, trace) = (&suite.entries[0].workload.program, &suite.entries[0].trace);
        for probs in [ProbSource::Predictor, ProbSource::Trace, ProbSource::Static] {
            let a = prepare_probs(program, trace, DEFAULT_CHUNK_RECORDS, probs);
            let b = prepare_probs(program, trace, 64, probs);
            assert_eq!(
                a.num_mispredicts(),
                b.num_mispredicts(),
                "{} diverges across chunk sizes",
                probs.name()
            );
            assert!(
                (a.accuracy() - b.accuracy()).abs() < 1e-12,
                "{}",
                probs.name()
            );
        }
        // The trace oracle is the best fixed per-branch direction, so the
        // static plan cannot beat it on the same trace.
        let oracle = prepare_probs(program, trace, DEFAULT_CHUNK_RECORDS, ProbSource::Trace);
        let plan = prepare_probs(program, trace, DEFAULT_CHUNK_RECORDS, ProbSource::Static);
        assert!(
            plan.accuracy() <= oracle.accuracy() + 1e-12,
            "static {} vs oracle {}",
            plan.accuracy(),
            oracle.accuracy()
        );
    }

    #[test]
    fn peak_rss_reads_and_guard_passes_under_a_huge_limit() {
        // VmHWM is Linux-specific; where present it must be sane, and the
        // guard must accept a limit far above any real peak.
        if let Some(peak) = peak_rss_bytes() {
            assert!(peak > 0);
            enforce_max_rss(Some(u64::MAX));
        }
        enforce_max_rss(None);
    }

    #[test]
    fn chunked_prepare_is_byte_identical_at_any_chunk_size() {
        let suite =
            Suite::load(Scale::Tiny, &["compress"], None, Engine::default()).expect("known");
        let (program, trace) = (&suite.entries[0].workload.program, &suite.entries[0].trace);
        let whole = PreparedTrace::new(program, trace);
        for chunk in [1usize, 4093, DEFAULT_CHUNK_RECORDS] {
            let streamed = prepare_probs(program, trace, chunk, ProbSource::Predictor);
            assert_eq!(streamed.len(), whole.len());
            assert_eq!(streamed.output(), whole.output());
            assert_eq!(streamed.num_paths(), whole.num_paths());
            assert_eq!(streamed.num_branches(), whole.num_branches());
            assert_eq!(streamed.num_mispredicts(), whole.num_mispredicts());
            assert!((streamed.accuracy() - whole.accuracy()).abs() < 1e-12);
        }
    }

    #[test]
    fn selected_suite_builds_registry_workloads() {
        let suite = Suite::load(
            Scale::Tiny,
            &["synacor", "compress"],
            None,
            Engine::default(),
        )
        .expect("known names");
        assert_eq!(suite.entries.len(), 2);
        assert_eq!(suite.entries[0].workload.name, "synacor");
        assert!(Suite::load(Scale::Tiny, &["nope"], None, Engine::default()).is_err());
    }

    #[test]
    fn store_flag_opens_the_named_directory() {
        assert!(parse(&["tiny", "--jobs", "4"])
            .unwrap()
            .open_store()
            .is_none());
        let dir = std::env::temp_dir().join(format!("dee_bench_storeflag_{}", std::process::id()));
        let store = parse(&["tiny", "--store", dir.to_str().unwrap()])
            .unwrap()
            .open_store()
            .expect("flag parsed");
        assert_eq!(store.root(), dir.as_path());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn suite_with_store_replays_identically_and_quarantines_wrong_content() {
        let dir =
            std::env::temp_dir().join(format!("dee_bench_suite_store_{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let fresh = paper_suite(Scale::Tiny, None);
        let recorded = paper_suite(Scale::Tiny, Some(&store));
        let replayed = paper_suite(Scale::Tiny, Some(&store));
        use std::sync::atomic::Ordering;
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 5);
        assert_eq!(store.stats().disk_hits.load(Ordering::Relaxed), 5);
        for ((a, b), c) in fresh
            .entries
            .iter()
            .zip(&recorded.entries)
            .zip(&replayed.entries)
        {
            assert_eq!(a.trace.records(), b.trace.records());
            assert_eq!(a.trace.records(), c.trace.records());
            assert_eq!(a.trace.output(), c.trace.output());
            assert_eq!(a.trace.output_checksum(), c.trace.output_checksum());
        }
        // Publish a *valid* container holding the wrong trace under
        // xlisp's key: the checksums pass, but the reference-output
        // check must quarantine it and fall back to the VM.
        let xlisp = &replayed.entries[4].workload;
        assert_eq!(xlisp.name, "xlisp");
        let key = ArtifactKey::new(
            &xlisp.name,
            "tiny",
            &xlisp.program.to_listing(),
            &xlisp.initial_memory,
        );
        let wrong = &replayed.entries[0].trace;
        store.put(&key, wrong).unwrap();
        let healed = paper_suite(Scale::Tiny, Some(&store));
        assert_eq!(
            healed.entries[4].trace.output(),
            xlisp.expected_output.as_slice()
        );
        assert_eq!(store.stats().quarantined.load(Ordering::Relaxed), 1);
        // The heal republished good content: one more pass replays clean.
        let again = paper_suite(Scale::Tiny, Some(&store));
        assert_eq!(
            again.entries[4].trace.output(),
            xlisp.expected_output.as_slice()
        );
        assert_eq!(store.stats().quarantined.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
