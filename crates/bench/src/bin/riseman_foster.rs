//! The classic Riseman & Foster (1972) experiment the paper opens with
//! (§1.2): "demonstrating speedups of general purpose code of a factor of
//! 25.65 (harmonic mean, infinitely many branches eagerly executed)."
//!
//! Sweeps the number of conditional branches that may be bypassed
//! (outstanding) at once, from 0 to effectively infinite, and reports the
//! harmonic-mean speedup — reproducing the study's signature curve: near-
//! sequential performance with few bypassed jumps, an order of magnitude
//! only with unbounded eager execution. This is exactly the cost explosion
//! DEE's disjointness is designed to avoid.
//!
//! Usage: `riseman_foster [tiny|small|medium|large] [flags]`, flags as in
//! [`dee_bench::SweepArgs`].

use std::sync::Arc;

use dee_bench::{enforce_max_rss, f2, pool, SweepArgs, TextTable};
use dee_ilpsim::{harmonic_mean, riseman_foster};

fn main() {
    let args = SweepArgs::from_env();
    let (scale, jobs) = (args.scale, args.jobs);
    let suite = args.load_suite("riseman_foster");

    println!("Riseman-Foster sweep: branches bypassed vs harmonic-mean speedup");
    println!("(paper cites 25.65x at infinity for their benchmarks)\n");

    // Each benchmark is prepared once (the serial version re-prepared per
    // bypassed count); every (bypassed, benchmark) cell shares it.
    let prepared = args.prepare_all(&suite, "riseman_foster");
    let caps = [0u32, 1, 2, 4, 8, 16, 64, 256, 4096, u32::MAX];
    let num_b = prepared.len();
    let mut cells: Vec<(u32, usize)> = Vec::new();
    for &cap in &caps {
        for b in 0..num_b {
            cells.push((cap, b));
        }
    }
    let flat = pool::run_sweep(
        "riseman_foster",
        jobs,
        cells
            .iter()
            .map(|&(cap, b)| {
                let prepared = Arc::clone(&prepared[b]);
                move || riseman_foster(&prepared, cap).speedup()
            })
            .collect(),
    );

    let mut t = TextTable::new(&["branches bypassed", "HM speedup"]);
    for (ci, &cap) in caps.iter().enumerate() {
        let label = if cap == u32::MAX {
            "unlimited".to_string()
        } else {
            cap.to_string()
        };
        let hm = harmonic_mean(&flat[ci * num_b..(ci + 1) * num_b]);
        t.row(vec![label, f2(hm)]);
    }
    println!("{}", t.render());
    let path = t
        .write_csv(&format!("riseman_foster_{}.csv", scale.name()))
        .expect("csv");
    println!("wrote {}", path.display());
    enforce_max_rss(args.max_rss);
}
