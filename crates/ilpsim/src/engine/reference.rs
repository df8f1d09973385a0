//! The straightforward statement of the constrained scheduler, kept as a
//! test-only oracle for [`simulate_constrained`](super::simulate_constrained).
//!
//! This is the loop the fast pass was derived from: it keeps a window of
//! resolve times for every model, re-scans forward for each `-CD`
//! mispredict's reconvergence point, tracks each path's completion
//! separately, and walks every pending barrier on every record. The fast
//! pass replaces each of those with an identity or a prepare-time column;
//! the differential tests below hold it to this loop on the whole
//! [`SimOutcome`], resolve-level histogram included.

use dee_isa::Program;
use dee_vm::Trace;

use super::{latency_table, sequential_cycles, PeSchedule, LEVEL_HISTOGRAM_CAP};
use crate::model::{Model, SimConfig};
use crate::prepare::{
    BranchCfg, PreparedTrace, CD_SCAN_CAP, META_CLASS_SHIFT, META_DST_SHIFT, META_HAS_READ,
    META_HAS_WRITE, META_IS_COND, META_MISPREDICT, META_REG_MASK, META_REG_SLOTS, META_SRC2_SHIFT,
    META_TAKEN,
};
use crate::stats::SimOutcome;
use dee_core::{ee_depth, StaticTree, TreeParams};

/// The per-record columns and per-pc CFG facts the forward scan reads.
pub(crate) struct RefColumns {
    /// Per dynamic record: the static pc.
    pcs: Vec<u32>,
    /// Per dynamic record: the call depth.
    depths: Vec<u32>,
    branches: BranchCfg,
}

impl RefColumns {
    pub(crate) fn new(program: &Program, trace: &Trace) -> Self {
        RefColumns {
            pcs: trace.records().iter().map(|r| r.pc).collect(),
            depths: trace.records().iter().map(|r| r.depth).collect(),
            branches: BranchCfg::new(program),
        }
    }
}

/// The CD-region end of every mispredicted branch, in trace order, by
/// forward scan: what prepare's `cd_end` column must hold.
pub(crate) fn cd_region_ends(prepared: &PreparedTrace, cols: &RefColumns) -> Vec<u32> {
    (0..prepared.len)
        .filter(|&i| prepared.meta[i] & META_MISPREDICT != 0)
        .map(|i| cd_region_end(prepared, cols, i))
        .collect()
}

/// Latency of record `i` with packed meta `m`: the attached memory-system
/// latency when present (for memory records), else the class latency.
fn meta_latency(m: u32, table: &[u32; 4], mem_override: Option<&[u32]>, i: usize) -> u32 {
    if let Some(mem) = mem_override {
        if m & (META_HAS_READ | META_HAS_WRITE) != 0 {
            return mem[i].max(1);
        }
    }
    table[(m >> META_CLASS_SHIFT) as usize & 3]
}

/// One pending misprediction penalty.
struct Barrier {
    /// Branch path of the mispredicted branch.
    path: u32,
    /// Earliest cycle affected instructions may execute (resolve + 1).
    time: u32,
    /// First dynamic position no longer affected (`u32::MAX` = all later).
    end_pos: u32,
    /// DEE coverage: instructions within this many paths after the branch
    /// are exempt (they executed down the DEE path).
    cov_paths: u32,
}

pub(crate) fn simulate_constrained(
    prepared: &PreparedTrace,
    cols: &RefColumns,
    config: &SimConfig,
) -> SimOutcome {
    let n = prepared.len;
    let model = config.model;

    // Window depth in real branch paths, and the DEE coverage shape
    // (l, h): from the §3.1 heuristic, or an explicit ablation override.
    let dee_shape: Option<(u32, u32)> = model.is_dee().then(|| match config.dee_shape {
        Some(shape) => shape,
        None => {
            let tree = StaticTree::build(TreeParams {
                p: config.p.clamp(0.5, 0.9999),
                et: config.et,
            });
            (tree.mainline_len(), tree.h_dee())
        }
    });
    let window: u32 = match model {
        Model::Ee => ee_depth(config.et).max(1),
        Model::Dee | Model::DeeCd | Model::DeeCdMf => dee_shape.expect("built above").0,
        _ => config.et,
    };
    let serialized = !model.is_mf();
    let penalties = model != Model::Ee; // EE covers both sides of every branch
    let mut pe = config.max_pe.map(PeSchedule::new);

    let mut reg_time = [0u32; META_REG_SLOTS];
    let mut mem_time = vec![0u32; prepared.mem_words];
    let table = latency_table(&config.latency);
    let mem_override = prepared.mem_latency.as_deref();
    let mut reads = prepared.read_addrs.iter();
    let mut writes = prepared.write_addrs.iter();
    // Branch-path index of the current record: advances past each
    // conditional branch, reproducing the prepare-time numbering without
    // streaming a separate per-record column.
    let mut path = 0u32;
    let mut retire: Vec<u32> = Vec::with_capacity(prepared.num_paths as usize);
    let mut barriers: Vec<Barrier> = Vec::new();
    let mut global_floor = 0u32;
    let mut prev_branch_exec = 0u32;
    let mut path_max_exec = 0u32;
    let mut total = 0u32;
    let mut histogram = vec![0u64; LEVEL_HISTOGRAM_CAP];
    // Resolve times of the branches still potentially unresolved: only
    // branches within the window can be pending (anything older retired
    // before the current path entered, hence resolved earlier).
    let mut recent_branch_exec: std::collections::VecDeque<u32> =
        std::collections::VecDeque::with_capacity(window as usize + 1);

    for (i, &m) in prepared.meta.iter().enumerate() {
        // Window entry: the tree covers `window` consecutive real paths.
        let entry = if path < window {
            1
        } else {
            retire[(path - window) as usize] + 1
        };

        // Minimal data dependences.
        let mut ready = reg_time[(m & META_REG_MASK) as usize]
            .max(reg_time[((m >> META_SRC2_SHIFT) & META_REG_MASK) as usize]);
        if m & META_HAS_READ != 0 {
            let addr = *reads.next().expect("read stream matches meta") as usize;
            ready = ready.max(mem_time[addr]);
        }
        let lat = meta_latency(m, &table, mem_override, i);
        let mut exec = (ready + 1).max(entry).max(global_floor);

        // Active misprediction barriers.
        if !barriers.is_empty() {
            let mut k = 0;
            while k < barriers.len() {
                let b = &barriers[k];
                if (i as u32) >= b.end_pos {
                    barriers.swap_remove(k);
                    continue;
                }
                if b.end_pos == u32::MAX && path > b.path + b.cov_paths {
                    // Restrictive barrier past its coverage window applies
                    // to everything from here on: fold into the floor.
                    global_floor = global_floor.max(b.time);
                    exec = exec.max(b.time);
                    barriers.swap_remove(k);
                    continue;
                }
                if path > b.path + b.cov_paths {
                    exec = exec.max(b.time);
                }
                k += 1;
            }
        }

        let is_branch = m & META_IS_COND != 0;
        if is_branch && serialized {
            exec = exec.max(prev_branch_exec + 1);
        }

        // Explicit PE limit: greedy in-order issue into the first free
        // slot at or after the earliest feasible cycle.
        if let Some(pe) = pe.as_mut() {
            exec = pe.issue_at(exec);
            if i % 4096 == 0 {
                pe.prune_below(entry);
            }
        }

        // The instruction occupies its unit through `done`; consumers and
        // retirement see the completion time.
        let done = exec + lat - 1;
        reg_time[((m >> META_DST_SHIFT) & META_REG_MASK) as usize] = done;
        if m & META_HAS_WRITE != 0 {
            let addr = *writes.next().expect("write stream matches meta") as usize;
            mem_time[addr] = done;
        }
        path_max_exec = path_max_exec.max(done);
        total = total.max(done);

        if is_branch {
            let resolve = done;
            prev_branch_exec = resolve;
            // This path retires once fully executed, in order.
            let retire_time = retire.last().copied().unwrap_or(0).max(path_max_exec);
            retire.push(retire_time);
            path_max_exec = 0;
            recent_branch_exec.push_back(resolve);
            if recent_branch_exec.len() > window as usize {
                recent_branch_exec.pop_front();
            }

            if penalties && m & META_MISPREDICT != 0 {
                // Tree level at resolution: one plus the number of older
                // branches still unresolved when this one resolves — "as
                // branches resolve at the top of the tree, the tree moves
                // down" (§3.1); the DEE paths hang off the first h pending
                // branches.
                let older_unresolved =
                    recent_branch_exec.iter().filter(|&&e| e > resolve).count() as u32;
                let level = older_unresolved + 1;
                let idx = (level as usize - 1).min(LEVEL_HISTOGRAM_CAP - 1);
                histogram[idx] += 1;

                let cov = dee_shape.map_or(0, |(_, h)| {
                    if level == 0 || level > h {
                        0
                    } else {
                        h - level + 1
                    }
                });

                let end_pos = if model.is_cd() {
                    cd_region_end(prepared, cols, i)
                } else {
                    u32::MAX
                };
                barriers.push(Barrier {
                    path,
                    time: resolve + 1,
                    end_pos,
                    cov_paths: cov,
                });
            }
            path += 1;
        }
    }

    SimOutcome::new(
        model,
        config.et,
        n as u64,
        sequential_cycles(prepared, &config.latency),
        u64::from(total),
        prepared.num_branches(),
        prepared.num_mispredicts(),
        histogram,
    )
}

/// First dynamic position no longer control-dependent on the mispredicted
/// branch at `i`, under reduced control dependences.
///
/// If the *predicted* (wrong) direction can re-reach the branch before its
/// reconvergence point, the wrong path crosses an iteration boundary and the
/// operand context of everything younger is invalid: the penalty is
/// restrictive (`u32::MAX`). Otherwise the penalty ends at the first dynamic
/// occurrence of the branch's reconvergence point at the same call depth
/// (scan capped at `CD_SCAN_CAP`).
fn cd_region_end(prepared: &PreparedTrace, cols: &RefColumns, i: usize) -> u32 {
    let pc = cols.pcs[i] as usize;
    // Mispredicted: the predicted direction is the opposite of the actual
    // direction packed into the meta word.
    let predicted_taken = prepared.meta[i] & META_TAKEN == 0;
    let loops_back = if predicted_taken {
        cols.branches.loops_back_taken[pc]
    } else {
        cols.branches.loops_back_fall[pc]
    };
    if loops_back {
        return u32::MAX;
    }
    let Some(join_pc) = cols.branches.reconv[pc] else {
        return u32::MAX; // reconverges only at program exit
    };
    let depth = cols.depths[i];
    let limit = prepared.len.min(i + 1 + CD_SCAN_CAP as usize);
    for j in i + 1..limit {
        if cols.pcs[j] == join_pc && cols.depths[j] == depth {
            return j as u32;
        }
    }
    (i + 1 + CD_SCAN_CAP as usize).min(u32::MAX as usize) as u32
}

/// Differential tests: the fast pass against the reference loop, on the
/// whole [`SimOutcome`], over a seeded grid. `DEE_CHAOS_SEED` (default 42)
/// picks the generated programs, grid samples and latency draws;
/// `DEE_CHAOS_ITERS` (default 25) scales how many programs and grid cells
/// run, reaching the whole grid on every generated program at 300. A
/// failure names the program, seed and configuration.
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::model::LatencyModel;
    use dee_gen::{generate, GenSpec};
    use dee_workloads::{Scale, WorkloadRegistry};

    const ETS: [u32; 10] = [1, 2, 3, 5, 8, 16, 32, 64, 128, 256];

    fn env_u64(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// xorshift64*: the seeded draws for grid sampling and latencies.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0.max(1);
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A characteristic accuracy whose §3.1 tree is a pure main line
    /// (`h_DEE = 0`) at E_T 8, 16 and 32, and has a DEE region above.
    const SP_SHAPED_P: f64 = 0.95;

    /// The full configuration grid: every constrained model × E_T × PE
    /// cap × latency model, plus, for each DEE model and E_T, a wide
    /// `(l, h)` override, an `(l, 0)` override and the tree at
    /// [`SP_SHAPED_P`]. The bool asks for attached memory latencies.
    fn grid() -> Vec<(SimConfig, bool)> {
        let mut grid = Vec::new();
        for model in Model::all_constrained() {
            for et in ETS {
                let mut bases = vec![SimConfig::new(model, et)];
                if model.is_dee() {
                    // The widest DEE region that leaves a one-path main line.
                    let h = (0..et)
                        .take_while(|h| h * (h + 1) / 2 < et)
                        .last()
                        .unwrap_or(0);
                    bases.push(SimConfig::new(model, et).with_dee_shape(et - h * (h + 1) / 2, h));
                    bases.push(SimConfig::new(model, et).with_dee_shape(et.div_ceil(2), 0));
                    bases.push(SimConfig::new(model, et).with_p(SP_SHAPED_P));
                }
                for base in bases {
                    for max_pe in [None, Some(1), Some(3)] {
                        for latency in [LatencyModel::UNIT, LatencyModel::CLASSIC] {
                            let mut config = base.with_latency(latency);
                            config.max_pe = max_pe;
                            grid.push((config, false));
                            grid.push((config, true));
                        }
                    }
                }
            }
        }
        grid
    }

    /// Seeded per-record memory latencies in `1..=12`.
    fn mem_latencies(len: usize, rng: &mut Rng) -> Vec<u32> {
        (0..len).map(|_| 1 + rng.below(12) as u32).collect()
    }

    /// Checks the prepared CD-region column against the forward scan, then
    /// `cells` grid cells (all of them when `cells >= grid.len()`) against
    /// the reference loop.
    fn assert_matches_reference(
        program: &Program,
        trace: &Trace,
        cells: usize,
        seed: u64,
        label: &str,
    ) {
        let prepared = PreparedTrace::new(program, trace);
        let cols = RefColumns::new(program, trace);
        assert_eq!(
            prepared.cd_end,
            cd_region_ends(&prepared, &cols),
            "{label}: cd_end column differs from the forward scan"
        );
        let mut rng = Rng(seed);
        let with_mem = prepared
            .clone()
            .with_mem_latencies(mem_latencies(prepared.len, &mut rng));
        let grid = grid();
        let picks: Vec<usize> = if cells >= grid.len() {
            (0..grid.len()).collect()
        } else {
            (0..cells)
                .map(|_| rng.below(grid.len() as u64) as usize)
                .collect()
        };
        for k in picks {
            let (config, mem) = grid[k];
            let p = if mem { &with_mem } else { &prepared };
            let fast = simulate(p, &config);
            assert_eq!(
                fast,
                simulate_constrained(p, &cols, &config),
                "{label} (seed {seed}): {config:?}, mem latencies {mem}"
            );
            let canonical = config.canonical();
            let mut same = simulate(p, &canonical);
            (same.model, same.et) = (fast.model, fast.et);
            assert_eq!(
                fast, same,
                "{label} (seed {seed}): {config:?} vs its canonical form {canonical:?}, \
                 mem latencies {mem}"
            );
        }
    }

    #[test]
    fn grid_reaches_degenerate_dee_trees() {
        for et in [8, 16] {
            for model in [Model::Dee, Model::DeeCd, Model::DeeCdMf] {
                let config = SimConfig::new(model, et).with_p(SP_SHAPED_P);
                assert_eq!(config.tree_shape(), (et, 0), "{config:?}");
                assert!(!config.canonical().model.is_dee(), "{config:?}");
            }
        }
        let wide = SimConfig::new(Model::Dee, 128).with_p(SP_SHAPED_P);
        assert!(wide.canonical().model.is_dee(), "{wide:?}");
    }

    /// Distinct per-case seeds from one base seed.
    fn case_seed(seed: u64, case: usize) -> u64 {
        seed ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    #[test]
    fn simulate_matches_reference_on_tiny_builtins() {
        let seed = env_u64("DEE_CHAOS_SEED", 42);
        let cells = (env_u64("DEE_CHAOS_ITERS", 25) / 5).max(1) as usize;
        let registry = WorkloadRegistry::builtin();
        for (case, name) in registry.names().into_iter().enumerate() {
            let w = registry.build(name, Scale::Tiny).expect("registered");
            let trace = w.capture_trace().expect("builtins run");
            assert_matches_reference(&w.program, &trace, cells, case_seed(seed, case), name);
        }
    }

    #[test]
    fn simulate_matches_reference_on_gen_programs() {
        // Small programs (2-4k records) across the generator's knobs.
        let specs = [
            "iters=4",
            "pred=0.6,spread=0.2,iters=6",
            "depth=3,blocks=6,iters=3",
            "calls=0.6,jr=0.4,iters=6",
            "alias=0.9,pred=0.75,iters=8",
        ];
        let seed = env_u64("DEE_CHAOS_SEED", 42);
        let iters = env_u64("DEE_CHAOS_ITERS", 25);
        let points = (iters / 100).max(1) as usize * specs.len();
        let cells = iters as usize * 4;
        for point in 0..points {
            let spec_text = specs[point % specs.len()];
            let spec = GenSpec::parse(spec_text).expect("valid spec");
            let point_seed = case_seed(seed, point);
            let g = generate(&spec, point_seed).expect("generates");
            let label = format!("gen[{spec_text}]");
            assert_matches_reference(&g.workload.program, &g.trace, cells, point_seed, &label);
        }
    }
}
