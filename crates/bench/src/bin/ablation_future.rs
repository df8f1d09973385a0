//! The paper's stated future work (§1.2, §5.3): explicitly limited PEs and
//! non-unit instruction latencies.
//!
//! §5.3 leaves open: "It is not yet clear what the net effect of assuming
//! non-unit latencies on the DEE-CD-MF model will be. On one hand, in
//! other studies ... the performance of the models decreased significantly.
//! On the other hand, concurrent instructions in the DEE-CD-MF model may
//! exhibit much more overlap." This binary measures both effects on our
//! traces:
//!
//! 1. latency sweep (unit vs a classic 4-cycle-mul / 2-cycle-mem pipeline)
//!    for SP, SP-CD-MF, and DEE-CD-MF at E_T = 100 — reporting both IPC
//!    and speedup over the (equally slowed) sequential machine;
//! 2. explicit PE limits (issue-width caps) for DEE-CD-MF, showing where
//!    the implicit-PE assumption stops mattering.
//!
//! Additionally compares Levo's per-row predictor options (2-bit counter
//! vs speculative PAp, §4.3).
//!
//! Usage: `ablation_future [tiny|small|medium|large] [flags]`, flags as in
//! [`dee_bench::SweepArgs`].

use std::sync::Arc;

use dee_bench::{enforce_max_rss, f2, pool, SweepArgs, TextTable};
use dee_ilpsim::{harmonic_mean, simulate, LatencyModel, Model, SimConfig};
use dee_levo::{Levo, LevoConfig, PredictorKind};

fn main() {
    let args = SweepArgs::from_env();
    let (scale, jobs, probs) = (args.scale, args.jobs, args.probs);
    let suite = args.load_suite("ablation_future");
    let p = suite.characteristic_accuracy_probs(probs);
    let et = 100;

    // Each trace is prepared exactly once and shared by the latency and
    // PE-limit sweeps (the serial version re-prepared per cell).
    let prepared = args.prepare_all(&suite, "ablation_future");
    let num_b = prepared.len();

    println!(
        "Non-unit latencies (mul/div 4, mem 2; E_T = {et}, p = {}):\n",
        f2(p)
    );
    let lat_models = [Model::Sp, Model::SpCdMf, Model::DeeCdMf, Model::Oracle];
    let mut lat_cells: Vec<(Model, usize)> = Vec::new();
    for model in lat_models {
        for b in 0..num_b {
            lat_cells.push((model, b));
        }
    }
    // One cell = both latency variants of one (model, benchmark), sharing
    // the prepared trace: (speedup unit, speedup classic, ipc unit, ipc
    // classic).
    let lat_flat = pool::run_sweep(
        "ablation_future_latency",
        jobs,
        lat_cells
            .iter()
            .map(|&(model, b)| {
                let prepared = Arc::clone(&prepared[b]);
                move || {
                    let unit = simulate(&prepared, &SimConfig::new(model, et).with_p(p));
                    let classic = simulate(
                        &prepared,
                        &SimConfig::new(model, et)
                            .with_p(p)
                            .with_latency(LatencyModel::CLASSIC),
                    );
                    (unit.speedup(), classic.speedup(), unit.ipc(), classic.ipc())
                }
            })
            .collect(),
    );
    let mut lat = TextTable::new(&[
        "model",
        "speedup unit",
        "speedup classic",
        "ipc unit",
        "ipc classic",
    ]);
    for (mi, model) in lat_models.iter().enumerate() {
        let group = &lat_flat[mi * num_b..(mi + 1) * num_b];
        let col = |f: fn(&(f64, f64, f64, f64)) -> f64| {
            f2(harmonic_mean(&group.iter().map(f).collect::<Vec<f64>>()))
        };
        lat.row(vec![
            model.name().into(),
            col(|c| c.0),
            col(|c| c.1),
            col(|c| c.2),
            col(|c| c.3),
        ]);
    }
    println!("{}", lat.render());

    println!("Explicit PE limits (DEE-CD-MF, unit latency, E_T = {et}):\n");
    let caps: [Option<u32>; 7] = [
        Some(2),
        Some(4),
        Some(8),
        Some(16),
        Some(32),
        Some(64),
        None,
    ];
    let mut pe_cells: Vec<(Option<u32>, usize)> = Vec::new();
    for &cap in &caps {
        for b in 0..num_b {
            pe_cells.push((cap, b));
        }
    }
    let pe_flat = pool::run_sweep(
        "ablation_future_pe",
        jobs,
        pe_cells
            .iter()
            .map(|&(cap, b)| {
                let prepared = Arc::clone(&prepared[b]);
                move || {
                    let mut config = SimConfig::new(Model::DeeCdMf, et).with_p(p);
                    if let Some(cap) = cap {
                        config = config.with_max_pe(cap);
                    }
                    simulate(&prepared, &config).speedup()
                }
            })
            .collect(),
    );
    let mut pes = TextTable::new(&["max PEs/cycle", "HM speedup"]);
    for (ci, &cap) in caps.iter().enumerate() {
        let label = cap.map_or("unlimited".to_string(), |c| c.to_string());
        let hm = harmonic_mean(&pe_flat[ci * num_b..(ci + 1) * num_b]);
        pes.row(vec![label, f2(hm)]);
    }
    println!("{}", pes.render());

    println!("Levo per-row predictor (§4.3), 3 x 1-col DEE paths:\n");
    let levo_flat = pool::run_sweep(
        "ablation_future_levo",
        jobs,
        suite
            .entries
            .iter()
            .map(|entry| {
                move || {
                    let w = &entry.workload;
                    let two_bit = Levo::new(LevoConfig::default())
                        .run(&w.program, &w.initial_memory)
                        .expect("levo 2bc runs");
                    let pap = Levo::new(LevoConfig {
                        predictor: PredictorKind::PapSpeculative,
                        ..LevoConfig::default()
                    })
                    .run(&w.program, &w.initial_memory)
                    .expect("levo pap runs");
                    assert_eq!(two_bit.output, w.expected_output);
                    assert_eq!(pap.output, w.expected_output);
                    (two_bit.ipc(), pap.ipc())
                }
            })
            .collect(),
    );
    let mut pred = TextTable::new(&["benchmark", "ipc 2bc", "ipc pap-spec"]);
    for (entry, &(two_bit, pap)) in suite.entries.iter().zip(&levo_flat) {
        pred.row(vec![entry.workload.name.clone(), f2(two_bit), f2(pap)]);
    }
    println!("{}", pred.render());

    let path = lat
        .write_csv(&format!("ablation_future_{}.csv", scale.name()))
        .expect("csv");
    println!("wrote {}", path.display());
    enforce_max_rss(args.max_rss);
}
