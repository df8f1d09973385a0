//! Predictor-tradeoff ablation (§5.1): "There is a tradeoff between
//! predictor accuracy and its cost versus degree of DEE realization and
//! its cost, for the same performance. The data suggest that some use of
//! DEE is likely to be beneficial, regardless of the predictor accuracy."
//!
//! Prepares the traces under different predictors (static BTFN, the
//! paper's 2-bit counter, PAp, gshare) and reports SP-CD-MF vs DEE-CD-MF
//! harmonic means at E_T = 100 — each tree shaped with that predictor's
//! own measured accuracy. The DEE advantage should survive every
//! predictor, largest where prediction is worst.
//!
//! Usage: `ablation_predictor [tiny|small|medium|large] [flags]`, flags as
//! in [`dee_bench::SweepArgs`].
//! `--probs trace` / `--probs static` append that direction source as an
//! extra comparison row; the default rows (and the golden CSV) are
//! unchanged.

use dee_bench::{
    enforce_max_rss, f2, pct, pool, prepare_probs, prepare_with, BenchEntry, SweepArgs, TextTable,
};
use dee_ilpsim::{harmonic_mean, simulate, Model, ProbSource, SimConfig};
use dee_predict::{Btfn, Gshare, PapAdaptive, TwoBitCounter};

/// Prepares one entry under one predictor kind; the prepared trace is
/// shared by the SP-CD-MF and DEE-CD-MF simulations of the cell. Any kind
/// not named here is the extra `--probs` row.
fn run_cell(kind: &str, entry: &BenchEntry, et: u32, args: &SweepArgs) -> (f64, f64, f64) {
    let (program, trace, chunk) = (&entry.workload.program, &entry.trace, args.chunk_records);
    let prepared = match kind {
        "btfn" => {
            let targets: Vec<(u32, u32)> = program
                .iter()
                .filter_map(|(pc, i)| {
                    i.static_target()
                        .filter(|_| i.is_cond_branch())
                        .map(|t| (pc, t))
                })
                .collect();
            prepare_with(program, trace, chunk, &mut Btfn::new(&targets))
        }
        "2bc" => prepare_with(program, trace, chunk, &mut TwoBitCounter::new()),
        "pap-spec" => prepare_with(
            program,
            trace,
            chunk,
            &mut PapAdaptive::with_config(2, true),
        ),
        "gshare" => prepare_with(program, trace, chunk, &mut Gshare::default()),
        _ => prepare_probs(program, trace, chunk, args.probs),
    };
    let p = prepared.accuracy();
    let sp = simulate(&prepared, &SimConfig::new(Model::SpCdMf, et).with_p(p)).speedup();
    let dee = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, et).with_p(p)).speedup();
    (p, sp, dee)
}

fn main() {
    let args = SweepArgs::from_env();
    let suite = args.load_suite("ablation_predictor");
    let et = 100;

    println!("Predictor tradeoff at E_T = {et} (harmonic means):\n");
    let mut kinds: Vec<&str> = vec!["btfn", "2bc", "pap-spec", "gshare"];
    match args.probs {
        ProbSource::Predictor => {}
        ProbSource::Trace => kinds.push("profile-direction"),
        ProbSource::Static => kinds.push("static-direction"),
    }
    let mut cells: Vec<(&str, &BenchEntry)> = Vec::new();
    for &kind in &kinds {
        for entry in &suite.entries {
            cells.push((kind, entry));
        }
    }
    let flat = pool::run_sweep(
        "ablation_predictor",
        args.jobs,
        cells
            .iter()
            .map(|&(kind, entry)| {
                let args = &args;
                move || run_cell(kind, entry, et, args)
            })
            .collect(),
    );

    let mut t = TextTable::new(&["predictor", "accuracy", "SP-CD-MF", "DEE-CD-MF", "DEE gain"]);
    let num_b = suite.entries.len();
    for (ki, kind) in kinds.iter().enumerate() {
        let group = &flat[ki * num_b..(ki + 1) * num_b];
        let accs: Vec<f64> = group.iter().map(|c| c.0).collect();
        let sp: Vec<f64> = group.iter().map(|c| c.1).collect();
        let dee: Vec<f64> = group.iter().map(|c| c.2).collect();
        let sp_hm = harmonic_mean(&sp);
        let dee_hm = harmonic_mean(&dee);
        t.row(vec![
            (*kind).into(),
            pct(harmonic_mean(&accs)),
            f2(sp_hm),
            f2(dee_hm),
            format!("{}x", f2(dee_hm / sp_hm)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(§5.1: \"some use of DEE is likely to be beneficial, regardless of the\n predictor accuracy\" — the DEE column should dominate on every row)"
    );
    let path = t
        .write_csv(&format!("ablation_predictor_{}.csv", args.scale.name()))
        .expect("csv");
    println!("wrote {}", path.display());
    enforce_max_rss(args.max_rss);
}
