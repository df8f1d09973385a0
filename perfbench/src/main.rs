//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload fig5-medium|ingest-medium|serve-mix --seed N
//!           --seconds S --trace 0|1 --scratch DIR [--root DIR]
//!           [--fig5-bin PATH] [--round R]
//! ```
//!
//! Runs one workload for about `S` seconds, checks every output against
//! its oracle, and prints two lines on stdout: a full record (workload,
//! seed, host facts, every metric with its sample count) and, last, the
//! result line `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! workload runs with spans around every call into the repository's
//! crates and the metrics are the per-layer ones; the spans themselves
//! go to stderr at exit, one JSON object per line. Exits 1 when any check
//! failed and 2 on a usage error. `--round R` is internal: `serve-mix`
//! runs each of its rounds as a child process of itself. `perfbench/run.py` builds this binary
//! and the `fig5` sweep binary and is the usual entry point; see
//! `perfbench/README.md`.

#![forbid(unsafe_code)]

mod fig5;
mod golden;
mod host;
mod ingest;
mod layers;
mod report;
mod serve_mix;
mod span;
mod stats;

use std::path::PathBuf;

use dee_serve::Json;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig5-medium", "ingest-medium", "serve-mix"];

/// Settings shared by every workload.
pub struct Config {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How much work a run does, as the seconds it takes on a 2-core
    /// host (see [`repetitions`]).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// The checkout root (holds `results/` and `crates/`).
    pub root: PathBuf,
    /// A directory the run may fill and must leave empty.
    pub scratch: PathBuf,
    /// The `fig5` sweep binary, for `fig5-medium`'s untraced run.
    pub fig5_bin: Option<PathBuf>,
}

/// How many repetitions of a unit of work that takes about `nominal_s`
/// seconds on a 2-core host fill `seconds`, and at least `min`. The work
/// a run does depends on `--seconds` alone, never on how fast the host
/// happens to be, so two runs with the same settings do the same work.
#[must_use]
pub fn repetitions(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// A small seeded generator (splitmix64) for every benchmark input.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a per-use `salt`.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --scratch DIR \
         [--root DIR] [--fig5-bin PATH]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut root = PathBuf::from(".");
    let mut scratch = None;
    let mut fig5_bin = None;
    let mut serve_round = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("`{flag}` needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--root" => root = PathBuf::from(value),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--fig5-bin" => fig5_bin = Some(PathBuf::from(value)),
            "--round" => serve_round = value.parse().ok(),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let config = Config {
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        root,
        scratch: scratch.unwrap_or_else(|| usage("--scratch is required")),
        fig5_bin,
    };
    if let Err(e) = std::fs::create_dir_all(&config.scratch) {
        usage(&format!("--scratch {}: {e}", config.scratch.display()));
    }

    if let Some(r) = serve_round {
        serve_mix::round_main(&config, r);
        return;
    }
    let mut spans = Vec::new();
    let mut outcome = match workload.as_str() {
        "fig5-medium" => fig5::run(&config, &mut spans),
        "ingest-medium" => ingest::run(&config, &mut spans),
        _ => serve_mix::run(&config),
    };

    let error_frac = report::error_frac(&outcome);
    outcome.set("error_frac", error_frac, outcome.attempted as usize);
    eprint!("{}", span::render_jsonl(&spans));
    let header = vec![
        ("benchmark", Json::str("perfbench")),
        ("schema", Json::from(1u64)),
        ("workload", Json::str(workload.clone())),
        ("seed", Json::from(config.seed)),
        ("seconds", Json::from(config.seconds)),
        ("trace", Json::Bool(config.traced)),
        ("host", host::facts(&config.root)),
    ];
    for &(name, unit) in report::catalogue(config.traced) {
        if let Some(v) = outcome.values.get(name) {
            eprintln!("  {name:<34} {:>14.4} {unit:<9} n={}", v.value, v.samples);
        }
    }
    eprintln!(
        "  checks: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!("{}", report::record_line(&outcome, config.traced, header));
    println!("{}", report::result_line(&outcome, config.traced));
    if outcome.failed > 0 || outcome.attempted == 0 {
        std::process::exit(1);
    }
}
