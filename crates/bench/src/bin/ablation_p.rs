//! Ablation: how the DEE tree shape and the model speedups depend on the
//! characteristic prediction accuracy `p`.
//!
//! Theory (§2): "DEE becomes the same as SP as the branch prediction
//! accuracy approaches 1, and DEE becomes the same as eager execution as p
//! approaches 0.5, for finite resources." The first table shows the static
//! tree dimensions across `p` at E_T = 100: the main line lengthens and
//! the DEE region shrinks (to empty) as p → 1, and the tree flattens
//! toward the eager shape as p → 0.5.
//!
//! The second table is a design-sensitivity experiment the paper's
//! heuristic motivates: simulate DEE-CD-MF with *assumed* tree accuracies
//! that differ from the trace's measured accuracy, showing how mis-sizing
//! the static tree costs performance.
//!
//! Usage: `ablation_p [tiny|small|medium|large] [flags]`, flags as in
//! [`dee_bench::SweepArgs`].

use std::sync::Arc;

use dee_bench::{enforce_max_rss, f2, pool, SweepArgs, TextTable};
use dee_core::{SpecTree, StaticTree, Strategy, TreeParams};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};

fn main() {
    let et = 100;
    println!("Static DEE tree shape vs characteristic accuracy (E_T = {et})\n");
    let mut shape = TextTable::new(&["p", "l (main line)", "h_DEE", "DEE paths", "depth vs EE/SP"]);
    for p in [0.55, 0.60, 0.70, 0.80, 0.90, 0.95, 0.97, 0.99] {
        let tree = StaticTree::build(TreeParams { p, et });
        let greedy = SpecTree::build(Strategy::Disjoint, p, et);
        let ee = SpecTree::build(Strategy::Eager, p, et);
        let shape_note = if tree.is_single_path() {
            "= SP chain".to_string()
        } else if greedy.depth() <= ee.depth() + 1 {
            "~ EE tree".to_string()
        } else {
            format!("depth {}", greedy.depth())
        };
        shape.row(vec![
            f2(p),
            tree.mainline_len().to_string(),
            tree.h_dee().to_string(),
            tree.dee_region_paths().to_string(),
            shape_note,
        ]);
    }
    println!("{}", shape.render());

    let args = SweepArgs::from_env();
    let (scale, jobs, probs) = (args.scale, args.jobs, args.probs);
    let suite = args.load_suite("ablation_p");
    let measured = suite.characteristic_accuracy_probs(probs);
    println!(
        "DEE-CD-MF sensitivity to the assumed tree accuracy (measured p = {}):\n",
        f2(measured)
    );

    // The serial version re-prepared every trace once per assumed p;
    // preparation is p-independent, so hoist it and share per workload.
    let prepared = args.prepare_all(&suite, "ablation_p");
    let assumed_ps = [0.60, 0.75, measured, 0.95, 0.99];
    let num_b = prepared.len();
    let mut cells: Vec<(f64, usize)> = Vec::new();
    for &assumed in &assumed_ps {
        for b in 0..num_b {
            cells.push((assumed, b));
        }
    }
    let flat = pool::run_sweep(
        "ablation_p",
        jobs,
        cells
            .iter()
            .map(|&(assumed, b)| {
                let prepared = Arc::clone(&prepared[b]);
                move || {
                    simulate(
                        &prepared,
                        &SimConfig::new(Model::DeeCdMf, et).with_p(assumed),
                    )
                    .speedup()
                }
            })
            .collect(),
    );

    let mut sens = TextTable::new(&["assumed p", "HM speedup @100"]);
    for (ai, &assumed) in assumed_ps.iter().enumerate() {
        let label = if (assumed - measured).abs() < 1e-9 {
            format!("{} (measured)", f2(assumed))
        } else {
            f2(assumed)
        };
        let hm = harmonic_mean(&flat[ai * num_b..(ai + 1) * num_b]);
        sens.row(vec![label, f2(hm)]);
    }
    println!("{}", sens.render());
    let path = shape.write_csv("ablation_p_shape.csv").expect("csv");
    let spath = sens
        .write_csv(&format!("ablation_p_sensitivity_{}.csv", scale.name()))
        .expect("csv");
    println!("wrote {} and {}", path.display(), spath.display());
    enforce_max_rss(args.max_rss);
}
