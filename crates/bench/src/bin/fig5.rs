//! Figure 5: speedups of the seven resource-constrained models over the
//! five benchmarks, plus the harmonic mean and per-benchmark oracle
//! speedups.
//!
//! Usage: `fig5 [tiny|small|medium|large] [flags]` (default small; the
//! paper-grade run is `medium`); flags as in [`dee_bench::SweepArgs`].
//! Writes `results/fig5_<scale>.csv` and `.svg`.
//!
//! The DEE tree shape uses the suite's measured characteristic accuracy,
//! following §3.1 step 1 (the paper measured 90.53% on SPECint92 with the
//! same 2-bit counter scheme).
//!
//! Every distinct (benchmark, canonical configuration) cell fans through
//! [`dee_bench::pool`] once (see [`SimConfig::canonical`]); each benchmark
//! is prepared exactly once and shared across its cells, so output is
//! byte-identical for any `--jobs` count. stderr carries a
//! `dee_bench_fig5_cells: requested=N distinct=M` line.

use std::sync::Arc;

use dee_bench::plot::{render_panels, write_svg, Panel, Series};
use dee_bench::{enforce_max_rss, f2, pool, SweepArgs, TextTable, FIG5_RESOURCES};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};
use dee_workloads::PAPER_WORKLOADS;

/// Figure 5's per-benchmark oracle speedups, from the paper's captions.
const PAPER_ORACLE: [(&str, &str); 5] = [
    ("cc1", "23.22"),
    ("compress", "25.86"),
    ("eqntott", "2810.48"),
    ("espresso", "815.62"),
    ("xlisp", "104.35"),
];

fn main() {
    let args = SweepArgs::from_env();
    let (scale, jobs, probs) = (args.scale, args.jobs, args.probs);
    let suite = args.load_suite("fig5");
    let p = suite.characteristic_accuracy_probs(probs);
    println!("Figure 5 — speedup vs branch-path resources ({scale:?} scale)");
    println!(
        "characteristic accuracy p = {} via `{}` (paper: 90.53%)\n",
        f2(p * 100.0),
        probs.name()
    );

    let models = Model::all_constrained();

    // One prepared trace per workload, shared by every cell below.
    let prepared = args.prepare_all(&suite, "fig5");

    // Cell grid: the oracle for each benchmark, then (benchmark, model,
    // E_T). Results come back in exactly this order regardless of --jobs.
    let num_b = suite.entries.len();
    let mut cells: Vec<(usize, SimConfig)> = Vec::new();
    for b in 0..num_b {
        cells.push((b, SimConfig::new(Model::Oracle, 0)));
    }
    for b in 0..num_b {
        for model in models {
            for &et in &FIG5_RESOURCES {
                cells.push((b, SimConfig::new(model, et).with_p(p)));
            }
        }
    }
    // Cells whose configurations share a canonical form have the same
    // speedup (DEE at small E_T, whose tree is a pure SP chain, is SP), so
    // each distinct (benchmark, canonical configuration) runs once.
    let mut distinct: Vec<(usize, SimConfig)> = Vec::new();
    let slots: Vec<usize> = cells
        .iter()
        .map(|&(b, config)| {
            let key = (b, config.canonical());
            distinct.iter().position(|d| *d == key).unwrap_or_else(|| {
                distinct.push(key);
                distinct.len() - 1
            })
        })
        .collect();
    eprintln!(
        "dee_bench_fig5_cells: requested={} distinct={}",
        cells.len(),
        distinct.len()
    );
    let tasks: Vec<_> = distinct
        .iter()
        .map(|&(b, config)| {
            let prepared = Arc::clone(&prepared[b]);
            move || simulate(&prepared, &config).speedup()
        })
        .collect();
    let results = pool::run_sweep("fig5", jobs, tasks);
    let flat: Vec<f64> = slots.iter().map(|&k| results[k]).collect();

    let oracles: Vec<f64> = flat[..num_b].to_vec();
    // speedups[benchmark][model][et]
    let per_bench = models.len() * FIG5_RESOURCES.len();
    let speedups: Vec<Vec<Vec<f64>>> = (0..num_b)
        .map(|b| {
            (0..models.len())
                .map(|mi| {
                    (0..FIG5_RESOURCES.len())
                        .map(|ei| flat[num_b + b * per_bench + mi * FIG5_RESOURCES.len() + ei])
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut csv = TextTable::new(&["benchmark", "model", "et", "speedup"]);
    for (b, entry) in suite.entries.iter().enumerate() {
        let name = entry.workload.name.as_str();
        let mut header: Vec<&str> = vec!["model"];
        let et_labels: Vec<String> = FIG5_RESOURCES.iter().map(u32::to_string).collect();
        header.extend(et_labels.iter().map(String::as_str));
        let mut table = TextTable::new(&header);

        for (mi, model) in models.iter().enumerate() {
            let mut row_cells = vec![model.name().to_string()];
            for (ei, &et) in FIG5_RESOURCES.iter().enumerate() {
                let speedup = speedups[b][mi][ei];
                row_cells.push(f2(speedup));
                csv.row(vec![
                    name.into(),
                    model.name().into(),
                    et.to_string(),
                    format!("{speedup:.4}"),
                ]);
            }
            table.row(row_cells);
        }

        println!("{name}  (oracle speedup: {})", f2(oracles[b]));
        println!("{}", table.render());
    }

    // Harmonic-mean panel.
    let mut header: Vec<&str> = vec!["model"];
    let et_labels: Vec<String> = FIG5_RESOURCES.iter().map(u32::to_string).collect();
    header.extend(et_labels.iter().map(String::as_str));
    let mut hm_table = TextTable::new(&header);
    for (mi, model) in models.iter().enumerate() {
        let mut cells = vec![model.name().to_string()];
        for ei in 0..FIG5_RESOURCES.len() {
            let values: Vec<f64> = speedups.iter().map(|b| b[mi][ei]).collect();
            let hm = harmonic_mean(&values);
            cells.push(f2(hm));
            csv.row(vec![
                "harmonic-mean".into(),
                model.name().into(),
                FIG5_RESOURCES[ei].to_string(),
                format!("{hm:.4}"),
            ]);
        }
        hm_table.row(cells);
    }
    let hm_oracle = harmonic_mean(&oracles);
    println!("Harmonic Mean  (oracle speedup: {})", f2(hm_oracle));
    println!("{}", hm_table.render());

    let mut oracle_table = TextTable::new(&["benchmark", "oracle (measured)", "oracle (paper)"]);
    let paper_oracle = |name: &str| {
        PAPER_ORACLE
            .iter()
            .find(|(paper_name, _)| *paper_name == name)
            .map_or("—", |&(_, value)| value)
    };
    for (entry, oracle) in suite.entries.iter().zip(&oracles) {
        oracle_table.row(vec![
            entry.workload.name.clone(),
            f2(*oracle),
            paper_oracle(&entry.workload.name).into(),
        ]);
        csv.row(vec![
            entry.workload.name.clone(),
            "Oracle".into(),
            "0".into(),
            format!("{oracle:.4}"),
        ]);
    }
    // The paper's harmonic mean is over exactly its five benchmarks.
    let paper_five = suite.entries.len() == PAPER_WORKLOADS.len()
        && PAPER_WORKLOADS
            .iter()
            .all(|w| suite.entries.iter().any(|e| e.workload.name == *w));
    let paper_hm = if paper_five { "53.82" } else { "—" };
    oracle_table.row(vec!["harmonic-mean".into(), f2(hm_oracle), paper_hm.into()]);
    println!("Oracle speedups (paper values from Figure 5 captions):");
    println!("{}", oracle_table.render());

    let path = csv
        .write_csv(&format!("fig5_{}.csv", scale.name()))
        .expect("csv");
    println!("wrote {}", path.display());

    // Regenerate the figure itself: six panels, as in the paper.
    let mut panels: Vec<Panel> = Vec::new();
    for (bench_idx, entry) in suite.entries.iter().enumerate() {
        panels.push(Panel {
            title: entry.workload.name.to_string(),
            oracle: Some(oracles[bench_idx]),
            series: models
                .iter()
                .enumerate()
                .map(|(mi, model)| Series {
                    name: model.name().to_string(),
                    points: FIG5_RESOURCES
                        .iter()
                        .enumerate()
                        .map(|(ei, &et)| (f64::from(et), speedups[bench_idx][mi][ei]))
                        .collect(),
                })
                .collect(),
        });
    }
    panels.push(Panel {
        title: "Harmonic Mean".to_string(),
        oracle: Some(hm_oracle),
        series: models
            .iter()
            .enumerate()
            .map(|(mi, model)| Series {
                name: model.name().to_string(),
                points: FIG5_RESOURCES
                    .iter()
                    .enumerate()
                    .map(|(ei, &et)| {
                        let values: Vec<f64> = speedups.iter().map(|b| b[mi][ei]).collect();
                        (f64::from(et), harmonic_mean(&values))
                    })
                    .collect(),
            })
            .collect(),
    });
    let svg = render_panels(&panels, &FIG5_RESOURCES);
    let svg_path = write_svg(&format!("fig5_{}.svg", scale.name()), &svg).expect("svg");
    println!("wrote {}", svg_path.display());
    enforce_max_rss(args.max_rss);
}
