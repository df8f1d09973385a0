//! Tree-shape ablation: is the §3.1 static heuristic's `(l, h_DEE)` split
//! actually the right one?
//!
//! §5.3 hints the heuristic is imperfect: "performance would be improved
//! if these branches were DEE'd earlier, at lower levels of E_T branch
//! path resources. This implies that DEE paths could be usefully employed
//! with many fewer than 32 branch path resources." This experiment fixes
//! E_T = 100 and sweeps `h_DEE` directly (with `l = E_T − h(h+1)/2`),
//! comparing each shape's DEE-CD-MF speedup against the heuristic's pick.
//!
//! Usage: `ablation_shape [tiny|small|medium|large] [flags]`, flags as in
//! [`dee_bench::SweepArgs`].

use std::sync::Arc;

use dee_bench::{enforce_max_rss, f2, pool, SweepArgs, TextTable};
use dee_core::{StaticTree, TreeParams};
use dee_ilpsim::{harmonic_mean, simulate, Model, SimConfig};

fn main() {
    let args = SweepArgs::from_env();
    let (scale, jobs, probs) = (args.scale, args.jobs, args.probs);
    let suite = args.load_suite("ablation_shape");
    let p = suite.characteristic_accuracy_probs(probs);
    let et = 100u32;
    let heuristic = StaticTree::build(TreeParams {
        p: p.clamp(0.5, 0.9999),
        et,
    });

    println!(
        "DEE-CD-MF tree-shape sweep at E_T = {et} (measured p = {}; heuristic picks l = {}, h = {})\n",
        f2(p),
        heuristic.mainline_len(),
        heuristic.h_dee()
    );

    // Each trace is prepared once (the serial version re-prepared it for
    // every swept h, and again for the heuristic comparison).
    let prepared = args.prepare_all(&suite, "ablation_shape");
    let hs: Vec<u32> = [0u32, 2, 4, 6, 8, 10, 11, 12, 13]
        .into_iter()
        .filter(|h| h * (h + 1) / 2 < et)
        .collect();
    // Swept shapes, plus the heuristic's own (l, h) as a final extra cell
    // group for the "within x% of best" comparison.
    let mut shapes: Vec<(u32, u32)> = hs.iter().map(|&h| (et - h * (h + 1) / 2, h)).collect();
    shapes.push((heuristic.mainline_len(), heuristic.h_dee()));

    let num_b = prepared.len();
    let mut cells: Vec<(u32, u32, usize)> = Vec::new();
    for &(l, h) in &shapes {
        for b in 0..num_b {
            cells.push((l, h, b));
        }
    }
    let flat = pool::run_sweep(
        "ablation_shape",
        jobs,
        cells
            .iter()
            .map(|&(l, h, b)| {
                let prepared = Arc::clone(&prepared[b]);
                move || {
                    simulate(
                        &prepared,
                        &SimConfig::new(Model::DeeCdMf, et)
                            .with_p(p)
                            .with_dee_shape(l, h),
                    )
                    .speedup()
                }
            })
            .collect(),
    );
    let hm_of_shape = |si: usize| harmonic_mean(&flat[si * num_b..(si + 1) * num_b]);

    let mut t = TextTable::new(&["h_DEE", "l", "HM speedup", "note"]);
    let mut best = (0u32, 0.0f64);
    for (si, &h) in hs.iter().enumerate() {
        let l = et - h * (h + 1) / 2;
        let hm = hm_of_shape(si);
        if hm > best.1 {
            best = (h, hm);
        }
        let note = if h == heuristic.h_dee() {
            "<- heuristic"
        } else {
            ""
        };
        t.row(vec![h.to_string(), l.to_string(), f2(hm), note.into()]);
    }
    println!("{}", t.render());
    println!(
        "best swept shape: h = {} at {}x; heuristic is within {:.1}% of it",
        best.0,
        f2(best.1),
        100.0 * (1.0 - hm_of_shape(shapes.len() - 1) / best.1)
    );
    let path = t
        .write_csv(&format!("ablation_shape_{}.csv", scale.name()))
        .expect("csv");
    println!("wrote {}", path.display());
    enforce_max_rss(args.max_rss);
}
