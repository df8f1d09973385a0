//! The single-forward-pass scheduling engine.
//!
//! Every constraint on a dynamic instruction references only dynamically
//! earlier instructions (producers, earlier branches, earlier path
//! retirements), so each model's execution times are computable in one
//! in-order pass over the trace — the same structure as the original Lam &
//! Wilson simulator. See the crate docs for the model semantics.

use std::collections::BTreeMap;

use dee_core::ee_depth;

use crate::model::{LatencyModel, Model, SimConfig};
use crate::prepare::{
    InstrClass, PreparedTrace, META_CLASS_SHIFT, META_DST_SHIFT, META_HAS_READ, META_HAS_WRITE,
    META_IS_COND, META_MISPREDICT, META_REG_MASK, META_REG_SLOTS, META_SRC2_SHIFT,
};
use crate::stats::SimOutcome;

#[cfg(test)]
pub(crate) mod reference;

/// Maximum tree level tracked in the resolve-location histogram.
const LEVEL_HISTOGRAM_CAP: usize = 64;

/// One pending misprediction penalty over a finite CD region.
struct Barrier {
    /// Branch path of the mispredicted branch.
    path: usize,
    /// Earliest cycle affected instructions may execute (resolve + 1).
    time: u32,
    /// First dynamic position no longer affected.
    end_pos: u32,
    /// DEE coverage: instructions within this many paths after the branch
    /// are exempt (they executed down the DEE path).
    cov_paths: u32,
}

/// Drops the barriers whose CD region ends at or before position `pos`,
/// and returns the floor the rest impose on path `path` (those past their
/// DEE coverage) with the first position at which one of them lapses
/// (`u32::MAX` when none is left).
fn refresh_barriers(barriers: &mut Vec<Barrier>, pos: u32, path: usize) -> (u32, u32) {
    barriers.retain(|b| b.end_pos > pos);
    barriers.iter().fold((0, u32::MAX), |(floor, expiry), b| {
        let floor = if path > b.path + b.cov_paths as usize {
            floor.max(b.time)
        } else {
            floor
        };
        (floor, expiry.min(b.end_pos))
    })
}

/// Runs one model over a prepared trace.
///
/// # Example
///
/// ```
/// use dee_ilpsim::{simulate, Model, PreparedTrace, SimConfig};
/// use dee_workloads::{compress, Scale};
///
/// let w = compress::build(Scale::Tiny);
/// let trace = w.capture_trace().expect("runs");
/// let prepared = PreparedTrace::new(&w.program, &trace);
/// let outcome = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 64));
/// assert!(outcome.speedup() >= 1.0);
/// ```
#[must_use]
pub fn simulate(prepared: &PreparedTrace, config: &SimConfig) -> SimOutcome {
    let class = latency_table(&config.latency);
    match prepared.mem_latency.as_deref() {
        None => simulate_with(prepared, config, &ClassLatency(class)),
        Some(mem) => simulate_with(prepared, config, &MemLatency { class, mem }),
    }
}

/// [`simulate`] with the latency source fixed: picks the issue discipline.
fn simulate_with<L: Latency>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    latency: &L,
) -> SimOutcome {
    match config.max_pe {
        None => simulate_issue(prepared, config, latency, Unlimited),
        Some(cap) => simulate_issue(prepared, config, latency, PeSchedule::new(cap)),
    }
}

/// [`simulate`] with latency and issue fixed: picks the model's pass.
fn simulate_issue<L: Latency, I: Issue>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    latency: &L,
    issue: I,
) -> SimOutcome {
    match config.model {
        Model::Oracle => simulate_oracle(prepared, config, latency),
        // EE covers both sides of every branch: no mispredict penalties.
        Model::Ee => simulate_constrained::<true, false, L, I>(prepared, config, latency, issue),
        model if model.is_mf() => {
            simulate_constrained::<true, true, L, I>(prepared, config, latency, issue)
        }
        _ => simulate_constrained::<false, true, L, I>(prepared, config, latency, issue),
    }
}

fn latency_of(latency: &LatencyModel, class: InstrClass) -> u32 {
    match class {
        InstrClass::Alu => latency.alu,
        InstrClass::MulDiv => latency.mul_div,
        InstrClass::Mem => latency.mem,
        InstrClass::Branch => latency.branch,
    }
}

/// Per-class latencies as a table indexed by the meta class field, so the
/// hot loops resolve a record's latency with one load.
fn latency_table(latency: &LatencyModel) -> [u32; 4] {
    [latency.alu, latency.mul_div, latency.mem, latency.branch]
}

/// Where a record's latency comes from. A type parameter of the passes,
/// so the choice is made once per run instead of tested per record.
trait Latency {
    /// Latency of record `i`, whose packed meta word is `m`.
    fn of(&self, m: u32, i: usize) -> u32;
}

/// Class latencies only: the paper's machine and every sweep.
struct ClassLatency([u32; 4]);

impl Latency for ClassLatency {
    #[inline(always)]
    fn of(&self, m: u32, _i: usize) -> u32 {
        self.0[(m >> META_CLASS_SHIFT) as usize & 3]
    }
}

/// Attached memory-system latencies for memory records, class latencies
/// for the rest.
struct MemLatency<'a> {
    class: [u32; 4],
    mem: &'a [u32],
}

impl Latency for MemLatency<'_> {
    #[inline(always)]
    fn of(&self, m: u32, i: usize) -> u32 {
        if m & (META_HAS_READ | META_HAS_WRITE) != 0 {
            self.mem[i].max(1)
        } else {
            self.class[(m >> META_CLASS_SHIFT) as usize & 3]
        }
    }
}

/// Ideal sequential machine time: one instruction at a time, each taking
/// its full latency. O(1) from the prepared per-class counts; only an
/// attached memory-latency vector forces a per-record pass.
fn sequential_cycles(prepared: &PreparedTrace, latency: &LatencyModel) -> u64 {
    if let Some(mem) = prepared.mem_latency.as_deref() {
        let latency = MemLatency {
            class: latency_table(latency),
            mem,
        };
        return prepared
            .meta
            .iter()
            .enumerate()
            .map(|(i, &m)| u64::from(latency.of(m, i)))
            .sum();
    }
    [
        InstrClass::Alu,
        InstrClass::MulDiv,
        InstrClass::Mem,
        InstrClass::Branch,
    ]
    .into_iter()
    .map(|class| prepared.class_counts[class as usize] * u64::from(latency_of(latency, class)))
    .sum()
}

/// How a record's issue cycle follows from its earliest feasible cycle. A
/// type parameter of the constrained pass, like [`Latency`].
trait Issue {
    /// The issue cycle of record `i`, feasible from `earliest`, on a path
    /// that entered the window at cycle `entry`.
    fn issue(&mut self, earliest: u32, i: usize, entry: u32) -> u32;
}

/// The paper's implicit PE limit: bounded only by the branch paths in the
/// window, so every record issues as soon as it is feasible.
struct Unlimited;

impl Issue for Unlimited {
    #[inline(always)]
    fn issue(&mut self, earliest: u32, _i: usize, _entry: u32) -> u32 {
        earliest
    }
}

/// Greedy in-order issue under an explicit PE limit: the earliest cycle at
/// or after `earliest` with a free issue slot.
struct PeSchedule {
    cap: u32,
    issued: BTreeMap<u32, u32>,
    floor: u32,
}

impl PeSchedule {
    fn new(cap: u32) -> Self {
        PeSchedule {
            cap,
            issued: BTreeMap::new(),
            floor: 0,
        }
    }

    fn issue_at(&mut self, earliest: u32) -> u32 {
        let mut t = earliest.max(self.floor);
        loop {
            let count = self.issued.entry(t).or_insert(0);
            if *count < self.cap {
                *count += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Drops bookkeeping for cycles no future instruction can use.
    fn prune_below(&mut self, floor: u32) {
        if floor > self.floor {
            self.floor = floor;
            self.issued = self.issued.split_off(&floor);
        }
    }
}

impl Issue for PeSchedule {
    fn issue(&mut self, earliest: u32, i: usize, entry: u32) -> u32 {
        let t = self.issue_at(earliest);
        if i.is_multiple_of(4096) {
            self.prune_below(entry);
        }
        t
    }
}

/// The Riseman–Foster experiment (cited in §1.2 as "the classic study"):
/// unlimited resources, minimal data dependences, but only `bypassed`
/// conditional branches may be outstanding — an instruction cannot issue
/// until all but the last `bypassed` preceding branches have resolved.
///
/// `bypassed = 0` serializes on every branch; as `bypassed → ∞` this
/// converges to the oracle (Riseman & Foster's famous 25.65× harmonic-mean
/// result for infinitely many bypassed jumps).
#[must_use]
pub fn riseman_foster(prepared: &PreparedTrace, bypassed: u32) -> SimOutcome {
    let n = prepared.len;
    let mut reg_time = [0u32; META_REG_SLOTS];
    let mut mem_time = vec![0u32; prepared.mem_words];
    let mut reads = prepared.read_addrs.iter();
    let mut writes = prepared.write_addrs.iter();
    // Resolve times of the last `bypassed + 1` conditional branches (all of
    // them when there are fewer). Once more than `bypassed` branches are
    // seen, the slot about to be overwritten holds the newest branch that
    // must have resolved.
    let slots = (bypassed as usize).min(prepared.num_branches() as usize) + 1;
    let mut resolves = vec![0u32; slots];
    let mut head = 0usize;
    let mut seen = 0u64;
    let mut total = 0u32;
    for &m in &prepared.meta {
        let mut ready = reg_time[(m & META_REG_MASK) as usize]
            .max(reg_time[((m >> META_SRC2_SHIFT) & META_REG_MASK) as usize]);
        if m & META_HAS_READ != 0 {
            let addr = *reads.next().expect("read stream matches meta") as usize;
            ready = ready.max(mem_time[addr]);
        }
        // All but the last `bypassed` earlier branches must have resolved.
        if seen > u64::from(bypassed) {
            ready = ready.max(resolves[head]);
        }
        let exec = ready + 1;
        reg_time[((m >> META_DST_SHIFT) & META_REG_MASK) as usize] = exec;
        if m & META_HAS_WRITE != 0 {
            let addr = *writes.next().expect("write stream matches meta") as usize;
            mem_time[addr] = exec;
        }
        if m & META_IS_COND != 0 {
            resolves[head] = exec;
            head = if head + 1 == slots { 0 } else { head + 1 };
            seen += 1;
        }
        total = total.max(exec);
    }
    SimOutcome::new(
        Model::Oracle,
        bypassed,
        n as u64,
        n as u64,
        u64::from(total),
        prepared.num_branches(),
        prepared.num_mispredicts(),
        vec![0; LEVEL_HISTOGRAM_CAP],
    )
}

/// Data-flow limit: unit latency, register renaming, memory flow deps,
/// branches impose nothing (EE with unlimited resources).
fn simulate_oracle<L: Latency>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    latency: &L,
) -> SimOutcome {
    let n = prepared.len;
    // Availability times: the last cycle the producer occupies; consumers
    // issue the cycle after.
    let mut reg_time = [0u32; META_REG_SLOTS];
    let mut mem_time = vec![0u32; prepared.mem_words];
    let mut reads = prepared.read_addrs.iter();
    let mut writes = prepared.write_addrs.iter();
    let mut total = 0u32;
    for (i, &m) in prepared.meta.iter().enumerate() {
        let mut ready = reg_time[(m & META_REG_MASK) as usize]
            .max(reg_time[((m >> META_SRC2_SHIFT) & META_REG_MASK) as usize]);
        if m & META_HAS_READ != 0 {
            let addr = *reads.next().expect("read stream matches meta") as usize;
            ready = ready.max(mem_time[addr]);
        }
        let exec = ready + 1;
        let done = exec + latency.of(m, i) - 1;
        reg_time[((m >> META_DST_SHIFT) & META_REG_MASK) as usize] = done;
        if m & META_HAS_WRITE != 0 {
            let addr = *writes.next().expect("write stream matches meta") as usize;
            mem_time[addr] = done;
        }
        total = total.max(done);
    }
    SimOutcome::new(
        Model::Oracle,
        0,
        n as u64,
        sequential_cycles(prepared, &config.latency),
        u64::from(total),
        prepared.num_branches(),
        prepared.num_mispredicts(),
        vec![0; LEVEL_HISTOGRAM_CAP],
    )
}

/// One in-order pass for a constrained model. `MF` is the model's
/// [`is_mf`](Model::is_mf) and `PENALTIES` whether mispredicts cost
/// anything (all but EE), as constants, and the latency source and issue
/// discipline are type parameters, so each instantiation carries only its
/// own bookkeeping.
///
/// Per record the pass does only the data-dependence step. Everything else
/// that bounds a record's issue cycle (window entry, folded restrictive
/// barriers, finite `-CD` barriers) is fixed for the whole path, so it is
/// folded into one `path_floor` at the branch that starts the path; only a
/// finite barrier lapsing mid-path refreshes it.
fn simulate_constrained<const MF: bool, const PENALTIES: bool, L: Latency, I: Issue>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    latency: &L,
    mut issue: I,
) -> SimOutcome {
    let n = prepared.len;
    let model = config.model;

    // Window depth in real branch paths, and the DEE coverage shape
    // (l, h): from the §3.1 heuristic, or an explicit ablation override.
    let dee_shape: Option<(u32, u32)> = model.is_dee().then(|| config.tree_shape());
    let window = match model {
        Model::Ee => ee_depth(config.et).max(1),
        Model::Dee | Model::DeeCd | Model::DeeCdMf => dee_shape.expect("built above").0,
        _ => config.et,
    } as usize;
    debug_assert!(window >= 1, "the window holds at least one path");
    let h_dee = dee_shape.map_or(0, |(_, h)| h);

    let mut reg_time = [0u32; META_REG_SLOTS];
    let mut mem_time = vec![0u32; prepared.mem_words];
    let mut reads = prepared.read_addrs.iter();
    let mut writes = prepared.write_addrs.iter();
    // Branch-path index of the current record: advances past each
    // conditional branch, reproducing the prepare-time numbering without
    // streaming a separate per-record column.
    let mut path = 0usize;
    // Path `p` retires once it and every older path have executed, so its
    // retire time is the running maximum completion at its branch; path
    // `p + window` enters the cycle after. Only the last `window` retire
    // times are live: a ring keyed by the entering path, whose unwritten
    // zeros let the first `window` paths enter at cycle 1.
    let retire_mask = window.next_power_of_two() - 1;
    let mut retire = vec![0u32; retire_mask + 1];
    // Serialized branches resolve in increasing order, hence always at the
    // root: only the -MF models keep the last `window` resolve times.
    // Zeros stand for branches not yet seen: no resolve is ever below 1.
    let mut resolves = vec![0u32; if MF && PENALTIES { window } else { 0 }];
    let mut resolve_slot = 0usize;
    // A restrictive barrier (one with no CD-region end) only ever raises
    // the floor from the path past its DEE coverage on, at most `h_DEE + 1`
    // paths ahead: pending raises wait in a ring keyed by that path. Stale
    // slots are harmless, since the floor never falls.
    let fold_mask = (h_dee as usize + 2).next_power_of_two() - 1;
    let mut folds = vec![0u32; fold_mask + 1];
    let mut global_floor = 0u32;
    // Barriers with a finite CD-region end, their floor on the current
    // path, and the first position at which one of them lapses.
    let mut barriers: Vec<Barrier> = Vec::new();
    let mut bar_floor = 0u32;
    let mut bar_expiry = u32::MAX;
    let mut cd_ends = prepared.cd_end.iter();
    // Window entry of the current path (the tree covers `window`
    // consecutive real paths), that raised by the folded floor, and that
    // raised by the finite barriers.
    let mut entry = 1u32;
    let mut base_floor = 1u32;
    let mut path_floor = 1u32;
    let mut prev_branch_exec = 0u32;
    let mut total = 0u32;
    let mut histogram = vec![0u64; LEVEL_HISTOGRAM_CAP];

    for (i, &m) in prepared.meta.iter().enumerate() {
        // A finite barrier lapses at its CD-region end, before this
        // record's floor is taken.
        if PENALTIES && i as u32 >= bar_expiry {
            (bar_floor, bar_expiry) = refresh_barriers(&mut barriers, i as u32, path);
            path_floor = base_floor.max(bar_floor);
        }

        // Minimal data dependences.
        let mut ready = reg_time[(m & META_REG_MASK) as usize]
            .max(reg_time[((m >> META_SRC2_SHIFT) & META_REG_MASK) as usize]);
        if m & META_HAS_READ != 0 {
            let addr = *reads.next().expect("read stream matches meta") as usize;
            ready = ready.max(mem_time[addr]);
        }
        let is_branch = m & META_IS_COND != 0;
        let serial_floor = if is_branch && !MF {
            prev_branch_exec + 1
        } else {
            0
        };
        let exec = issue.issue((ready + 1).max(path_floor).max(serial_floor), i, entry);

        // The instruction occupies its unit through `done`; consumers and
        // retirement see the completion time.
        let done = exec + latency.of(m, i) - 1;
        reg_time[((m >> META_DST_SHIFT) & META_REG_MASK) as usize] = done;
        if m & META_HAS_WRITE != 0 {
            let addr = *writes.next().expect("write stream matches meta") as usize;
            mem_time[addr] = done;
        }
        total = total.max(done);
        if !is_branch {
            continue;
        }

        // The branch ends `path`: it retires now, and `path + window`
        // enters the cycle after.
        prev_branch_exec = done;
        retire[(path + window) & retire_mask] = total;
        if MF && PENALTIES {
            resolves[resolve_slot] = done;
            resolve_slot += 1;
            if resolve_slot == window {
                resolve_slot = 0;
            }
        }

        if PENALTIES && m & META_MISPREDICT != 0 {
            // Tree level at resolution: one plus the number of older
            // branches still unresolved when this one resolves — "as
            // branches resolve at the top of the tree, the tree moves
            // down" (§3.1); the DEE paths hang off the first h pending
            // branches.
            let older_unresolved: u32 = resolves.iter().map(|&e| u32::from(e > done)).sum();
            let level = older_unresolved + 1;
            let idx = (level as usize - 1).min(LEVEL_HISTOGRAM_CAP - 1);
            histogram[idx] += 1;
            let cov = if level > h_dee { 0 } else { h_dee - level + 1 };

            let end_pos = if model.is_cd() {
                *cd_ends.next().expect("one CD-region end per mispredict")
            } else {
                u32::MAX
            };
            if end_pos == u32::MAX {
                let slot = &mut folds[(path + cov as usize + 1) & fold_mask];
                *slot = (*slot).max(done + 1);
            } else {
                barriers.push(Barrier {
                    path,
                    time: done + 1,
                    end_pos,
                    cov_paths: cov,
                });
            }
        }

        // The next path's floor, fixed until it ends or a barrier lapses.
        path += 1;
        entry = retire[path & retire_mask] + 1;
        if PENALTIES {
            global_floor = global_floor.max(folds[path & fold_mask]);
            if !barriers.is_empty() {
                (bar_floor, bar_expiry) = refresh_barriers(&mut barriers, i as u32 + 1, path);
            }
        }
        base_floor = entry.max(global_floor);
        path_floor = base_floor.max(bar_floor);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Program, Reg};
    use dee_vm::{trace_program, Trace};

    fn prep(program: &Program, trace: &Trace) -> PreparedTrace {
        PreparedTrace::new(program, trace)
    }

    /// A dependence chain: every instruction depends on the previous one.
    fn serial_chain(n: usize) -> (Program, Trace) {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 0);
        for _ in 0..n {
            asm.addi(r1, r1, 1);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    /// Fully independent instructions.
    fn parallel_block(n: usize) -> (Program, Trace) {
        let mut asm = Assembler::new();
        for k in 0..n {
            asm.li(Reg::new(1 + (k % 8) as u8), k as i32);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    #[test]
    fn oracle_on_serial_chain_is_sequential() {
        let (p, t) = serial_chain(50);
        let prepared = prep(&p, &t);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        // li + 50 dependent addis -> critical path 51; halt parallel.
        assert_eq!(out.cycles, 51);
        assert!(out.speedup() < 1.1);
    }

    #[test]
    fn oracle_on_parallel_block_is_one_cycle() {
        let (p, t) = parallel_block(64);
        let prepared = prep(&p, &t);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        assert_eq!(out.cycles, 1, "no dependences: all in cycle 1");
        assert!(out.speedup() > 60.0);
    }

    #[test]
    fn oracle_respects_memory_flow_dependences() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 7); // cycle 1
        asm.sw(r1, Reg::ZERO, 100); // cycle 2
        asm.lw(r2, Reg::ZERO, 100); // cycle 3 (flow through memory)
        asm.out(r2); // cycle 4
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100).unwrap();
        let prepared = prep(&p, &t);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        assert_eq!(out.cycles, 4);
    }

    #[test]
    fn constrained_models_never_beat_oracle() {
        let w = dee_workloads::compress::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let oracle = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        for model in Model::all_constrained() {
            for et in [8, 32, 256] {
                let out = simulate(&prepared, &SimConfig::new(model, et));
                assert!(
                    out.cycles >= oracle.cycles,
                    "{model} at {et}: {} < oracle {}",
                    out.cycles,
                    oracle.cycles
                );
                assert!(out.speedup() >= 0.9, "{model}: no slowdown vs sequential");
            }
        }
    }

    #[test]
    fn speedups_monotone_in_resources() {
        let w = dee_workloads::xlisp::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        for model in Model::all_constrained() {
            let mut last = 0.0;
            for et in [8, 16, 32, 64, 128, 256] {
                let s = simulate(&prepared, &SimConfig::new(model, et)).speedup();
                assert!(
                    s >= last - 1e-9,
                    "{model}: speedup not monotone at et={et}: {s} < {last}"
                );
                last = s;
            }
        }
    }

    #[test]
    fn dee_equals_sp_when_tree_degenerates() {
        // p = 0.9053, et <= 16: the DEE static tree is a pure SP chain
        // (paper §5.3), so the models must coincide exactly.
        let w = dee_workloads::espresso::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        for et in [8, 16] {
            let sp = simulate(&prepared, &SimConfig::new(Model::Sp, et));
            let dee = simulate(&prepared, &SimConfig::new(Model::Dee, et));
            assert_eq!(sp.cycles, dee.cycles, "et={et}");
        }
    }

    #[test]
    fn dee_beats_sp_with_enough_resources() {
        let w = dee_workloads::xlisp::build(dee_workloads::Scale::Small);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let p = prepared.accuracy();
        let sp = simulate(&prepared, &SimConfig::new(Model::Sp, 128).with_p(p));
        let dee = simulate(&prepared, &SimConfig::new(Model::Dee, 128).with_p(p));
        assert!(
            dee.cycles < sp.cycles,
            "DEE {} should beat SP {}",
            dee.cycles,
            sp.cycles
        );
    }

    #[test]
    fn cd_mf_ordering_holds() {
        // SP <= SP-CD <= SP-CD-MF (cycles non-increasing), likewise DEE.
        let w = dee_workloads::cc1::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let cycles = |m: Model| simulate(&prepared, &SimConfig::new(m, 64)).cycles;
        assert!(cycles(Model::SpCd) <= cycles(Model::Sp));
        assert!(cycles(Model::SpCdMf) <= cycles(Model::SpCd));
        assert!(cycles(Model::DeeCd) <= cycles(Model::Dee));
        assert!(cycles(Model::DeeCdMf) <= cycles(Model::DeeCd));
    }

    #[test]
    fn perfect_prediction_removes_all_barriers() {
        // With no mispredicts, SP == SP-CD == SP-CD-MF except for branch
        // serialization (identical across the three), so cycles match.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        // An always-taken-until-exit loop is almost perfectly predicted by
        // the weakly-taken-initialized counter: only the final exit misses.
        asm.li(r1, 40);
        asm.label("top");
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10_000).unwrap();
        let prepared = prep(&p, &t);
        assert_eq!(prepared.num_mispredicts(), 1, "only the loop exit misses");
        let sp = simulate(&prepared, &SimConfig::new(Model::Sp, 64));
        let spcd = simulate(&prepared, &SimConfig::new(Model::SpCd, 64));
        // The final-exit mispredict penalizes at most the trailing halt.
        assert!(sp.cycles >= spcd.cycles);
        assert!(sp.cycles - spcd.cycles <= 2);
    }

    #[test]
    fn ee_is_insensitive_to_prediction_but_window_limited() {
        let w = dee_workloads::cc1::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let ee8 = simulate(&prepared, &SimConfig::new(Model::Ee, 8));
        let ee256 = simulate(&prepared, &SimConfig::new(Model::Ee, 256));
        // Depth 2 at 8 paths vs depth 7 at 256.
        assert!(ee256.speedup() > ee8.speedup());
        // EE's histogram records nothing (no penalties).
        assert!(ee8.resolve_level_histogram.iter().all(|&c| c == 0));
    }

    #[test]
    fn resolve_levels_concentrate_near_tree_top() {
        // §5.3: "most of the resolving is done at the root of the tree" —
        // in our traces MF-model resolutions concentrate in the first few
        // levels (within DEE coverage), and serialized models resolve
        // exactly at the root by construction.
        let w = dee_workloads::eqntott::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let out = simulate(
            &prepared,
            &SimConfig::new(Model::DeeCdMf, 100).with_p(prepared.accuracy()),
        );
        let total: u64 = out.resolve_level_histogram.iter().sum();
        assert!(total > 0);
        let top5: u64 = out.resolve_level_histogram.iter().take(5).sum();
        assert!(
            top5 as f64 / total as f64 > 0.6,
            "resolutions should concentrate near the top: {top5}/{total}"
        );

        let serial = simulate(&prepared, &SimConfig::new(Model::Dee, 100));
        assert_eq!(
            serial.root_resolve_fraction(),
            Some(1.0),
            "serialized branches always resolve in order, i.e. at the root"
        );
    }

    #[test]
    fn riseman_foster_interpolates_to_oracle() {
        let w = dee_workloads::espresso::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let oracle = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        let mut last = 0.0;
        for bypassed in [0u32, 1, 2, 4, 8, 32, 128, 100_000] {
            let out = riseman_foster(&prepared, bypassed);
            assert!(
                out.speedup() >= last - 1e-9,
                "bypassed={bypassed}: {} < {last}",
                out.speedup()
            );
            assert!(out.cycles >= oracle.cycles);
            last = out.speedup();
        }
        // With effectively infinite bypassing the branch constraint is gone.
        let unlimited = riseman_foster(&prepared, u32::MAX);
        assert_eq!(unlimited.cycles, oracle.cycles);
        // With zero bypassing, speedup collapses toward the branch density
        // bound (instructions per branch path).
        let zero = riseman_foster(&prepared, 0);
        assert!(zero.speedup() < t.mean_path_len() + 1.0);
    }

    #[test]
    fn non_unit_latency_stretches_serial_chains() {
        // A chain of dependent multiplies: with 4-cycle multiply the
        // oracle's critical path is ~4x the unit-latency one, and so is
        // the sequential baseline, so the speedup stays ~1.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 1);
        for _ in 0..20 {
            asm.muli(r1, r1, 3);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 1000).unwrap();
        let prepared = prep(&p, &t);
        let unit = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        let classic = simulate(
            &prepared,
            &SimConfig::new(Model::Oracle, 0).with_latency(LatencyModel::CLASSIC),
        );
        assert!(
            classic.cycles >= unit.cycles + 3 * 20,
            "{} vs {}",
            classic.cycles,
            unit.cycles
        );
        assert_eq!(classic.sequential_cycles, unit.sequential_cycles + 3 * 20);
        assert!((classic.speedup() - unit.speedup()).abs() < 0.3);
    }

    #[test]
    fn latency_answers_the_papers_open_question() {
        // §5.3: "It is not yet clear what the net effect of assuming
        // non-unit latencies on the DEE-CD-MF model will be." Measure it:
        // IPC must drop, while speedup-vs-sequential is cushioned by the
        // overlap the model exposes.
        let w = dee_workloads::espresso::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let unit = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 100));
        let classic = simulate(
            &prepared,
            &SimConfig::new(Model::DeeCdMf, 100).with_latency(LatencyModel::CLASSIC),
        );
        assert!(classic.ipc() < unit.ipc());
        assert!(classic.speedup() > 1.0);
    }

    #[test]
    fn attached_mem_latencies_override_class_latency() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 7); // record 0
        asm.sw(r1, Reg::ZERO, 10); // record 1: store, latency 5
        asm.lw(r2, Reg::ZERO, 10); // record 2: load, latency 9
        asm.out(r2); // record 3
        asm.halt(); // record 4
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100).unwrap();
        let prepared = prep(&p, &t).with_mem_latencies(vec![0, 5, 9, 0, 0]);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        // li done at 1; store issues 2, done 6; load issues 7, done 15;
        // out issues 16.
        assert_eq!(out.cycles, 16);
        assert_eq!(out.sequential_cycles, 1 + 5 + 9 + 1 + 1);
    }

    #[test]
    #[should_panic(expected = "invalid memory latencies")]
    fn mem_latencies_length_checked() {
        let (p, t) = serial_chain(3);
        let _ = prep(&p, &t).with_mem_latencies(vec![1]);
    }

    #[test]
    #[should_panic(expected = "invalid memory latencies")]
    fn zero_mem_latency_rejected_for_memory_records() {
        let mut asm = Assembler::new();
        asm.sw(Reg::new(1), Reg::ZERO, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10).unwrap();
        let _ = prep(&p, &t).with_mem_latencies(vec![0, 0]);
    }

    #[test]
    fn pe_cap_bounds_issue_rate() {
        let (p, t) = parallel_block(64);
        let prepared = prep(&p, &t);
        let capped = simulate(
            &prepared,
            &SimConfig::new(Model::SpCdMf, 256).with_max_pe(4),
        );
        // 65 instructions at <= 4 per cycle need >= 17 cycles.
        assert!(capped.cycles >= 17, "cycles = {}", capped.cycles);
        assert!(capped.speedup() <= 4.0 + 1e-9);
    }

    #[test]
    fn pe_cap_is_monotone() {
        let w = dee_workloads::eqntott::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let mut last = u64::MAX;
        for cap in [1u32, 2, 4, 16, 64] {
            let out = simulate(
                &prepared,
                &SimConfig::new(Model::DeeCdMf, 100).with_max_pe(cap),
            );
            assert!(out.cycles <= last, "cap {cap}: {} > {last}", out.cycles);
            assert!(out.speedup() <= f64::from(cap) + 1e-9);
            last = out.cycles;
        }
        let unlimited = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 100));
        assert!(unlimited.cycles <= last);
    }

    #[test]
    fn cycles_bounded_by_trace_length() {
        let w = dee_workloads::compress::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let n = t.len() as u64;
        let prepared = prep(&w.program, &t);
        for model in Model::all_constrained() {
            let out = simulate(&prepared, &SimConfig::new(model, 16));
            assert!(out.cycles <= n + 2, "{model}: {} > {n}", out.cycles);
        }
    }
}
