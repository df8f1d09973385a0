use dee_isa::cfg::Cfg;
use dee_isa::{AluOp, Instr, Program};
use dee_predict::{BranchPredictor, TwoBitCounter};
use dee_vm::{Trace, TraceChunkSource, TraceRecord};

/// A trace annotated with everything the models need: per-record
/// misprediction flags (from a predictor replay), the end of each
/// mispredicted branch's control-dependence region, and branch-path
/// boundaries.
///
/// Preparing once and simulating many configurations amortizes the
/// predictor replay, CFG analysis and reconvergence search across the
/// whole parameter sweep. The representation is *columnar*: instead of
/// holding the 40-byte [`TraceRecord`]s, the models' hot loops read one
/// dense per-record column (`meta`, 4 bytes/record), one word per
/// mispredict (`cd_end`), and the load and store address streams. Nothing
/// here borrows the input trace, so a prepared trace can be built
/// incrementally from bounded chunks (see [`PreparedTraceBuilder`]) and
/// the full record vector never needs to exist in memory at all.
#[derive(Clone, Debug)]
pub struct PreparedTrace {
    /// Number of dynamic records.
    pub(crate) len: usize,
    /// Number of branch paths.
    pub(crate) num_paths: u32,
    /// Per dynamic record: every field the hot simulate loops touch, fused
    /// into one u32 (see the `META_*` constants): source and destination
    /// register slots, memory-access and conditional-branch flags, the
    /// latency class, the branch direction, and the mispredict flag. One
    /// 4-byte load per record per cell instead of re-matching the ~40-byte
    /// `TraceRecord`.
    pub(crate) meta: Vec<u32>,
    /// Per mispredicted branch, in trace order: the first dynamic record
    /// no longer control-dependent on it, or `u32::MAX` when its `-CD`
    /// penalty is restrictive (see [`PreparedTraceBuilder`]).
    pub(crate) cd_end: Vec<u32>,
    /// Effective word addresses of loads, in record order (records with
    /// the `META_HAS_READ` bit consume one entry each).
    pub(crate) read_addrs: Vec<u32>,
    /// Effective word addresses of stores, in record order (records with
    /// the `META_HAS_WRITE` bit consume one entry each).
    pub(crate) write_addrs: Vec<u32>,
    /// One past the highest memory word the trace touches, precomputed so
    /// every simulate call sizes its memory-time table without an extra
    /// full pass over the records.
    pub(crate) mem_words: usize,
    /// Dynamic record count per latency class (indexed by `InstrClass as
    /// usize`), giving O(1) sequential-machine cycles per latency model.
    pub(crate) class_counts: [u64; 4],
    /// Optional per-record memory-access latencies (e.g. from a cache
    /// model); overrides the configured `mem` latency per access.
    pub(crate) mem_latency: Option<Vec<u32>>,
    /// The program's output stream (carried through from the trace so
    /// byte-identity checks need no separate trace handle).
    output: Vec<i32>,
    /// Cached count of dynamic conditional branches.
    num_branches: u64,
    /// Cached count of mispredicted dynamic branches.
    num_mispredicts: u64,
    /// Measured accuracy of the predictor used for the flags.
    accuracy: f64,
}

impl PreparedTrace {
    /// Prepares `trace` with the paper's default predictor: the 2-bit
    /// saturating counter, one per static instruction, initialized weakly
    /// taken.
    #[must_use]
    pub fn new(program: &Program, trace: &Trace) -> Self {
        Self::with_predictor(program, trace, &mut TwoBitCounter::new())
    }

    /// Prepares `trace` with a caller-supplied predictor.
    #[must_use]
    pub fn with_predictor(
        program: &Program,
        trace: &Trace,
        predictor: &mut dyn BranchPredictor,
    ) -> Self {
        let mut builder = PreparedTraceBuilder::new(program, predictor);
        builder.reserve(trace.len());
        builder.push_chunk(trace.records());
        builder.finish(trace.output().to_vec())
    }

    /// Prepares a trace incrementally from a chunked producer, pulling at
    /// most `chunk_records` records at a time: the steady-state footprint
    /// is the columnar output plus one chunk buffer, never the full record
    /// vector. Byte-identical to [`with_predictor`] over the same stream.
    ///
    /// # Errors
    ///
    /// Propagates the source's transport/execution error.
    pub fn from_source(
        program: &Program,
        source: &mut dyn TraceChunkSource,
        chunk_records: usize,
        predictor: &mut dyn BranchPredictor,
    ) -> Result<Self, String> {
        let chunk = chunk_records.max(1);
        let mut builder = PreparedTraceBuilder::new(program, predictor);
        if let Some(hint) = source.len_hint() {
            // Trust the hint only up to a sane bound; hostile headers can
            // claim anything, and the columns grow fine without it.
            builder.reserve(usize::try_from(hint).unwrap_or(usize::MAX).min(1 << 20));
        }
        let mut buf: Vec<TraceRecord> = Vec::with_capacity(chunk);
        loop {
            buf.clear();
            if source.next_chunk(&mut buf, chunk)? == 0 {
                break;
            }
            builder.push_chunk(&buf);
        }
        let output = source.take_output()?;
        Ok(builder.finish(output))
    }

    /// Attaches per-record memory-access latencies (one entry per dynamic
    /// record; non-memory records are ignored), typically produced by
    /// `dee_mem::annotate_latencies`. Entries for memory records must be
    /// at least 1.
    ///
    /// # Panics
    ///
    /// Panics when the length does not match the trace or a memory
    /// record's latency is zero. Untrusted latency vectors should go
    /// through [`try_with_mem_latencies`](Self::try_with_mem_latencies).
    #[must_use]
    pub fn with_mem_latencies(self, latencies: Vec<u32>) -> Self {
        self.try_with_mem_latencies(latencies)
            .expect("invalid memory latencies")
    }

    /// Fallible form of [`with_mem_latencies`](Self::with_mem_latencies):
    /// validates instead of asserting, for latency vectors that arrive
    /// from outside the process.
    ///
    /// # Errors
    ///
    /// Returns a message when the length does not match the trace or a
    /// memory record's latency is zero.
    pub fn try_with_mem_latencies(mut self, latencies: Vec<u32>) -> Result<Self, String> {
        if latencies.len() != self.len {
            return Err(format!(
                "latency vector has {} entries for a {}-record trace",
                latencies.len(),
                self.len
            ));
        }
        for (i, (lat, &m)) in latencies.iter().zip(&self.meta).enumerate() {
            if m & (META_HAS_READ | META_HAS_WRITE) != 0 && *lat == 0 {
                return Err(format!("memory record {i} has zero latency"));
            }
        }
        self.mem_latency = Some(latencies);
        Ok(self)
    }

    /// Number of dynamic records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace has no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The program's output stream.
    #[must_use]
    pub fn output(&self) -> &[i32] {
        &self.output
    }

    /// Measured accuracy of the predictor that produced the flags — the
    /// natural choice for [`SimConfig::with_p`](crate::SimConfig::with_p).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Number of dynamic branch paths in the trace.
    #[must_use]
    pub fn num_paths(&self) -> u32 {
        self.num_paths
    }

    /// Number of dynamic conditional branches in the trace.
    #[must_use]
    pub fn num_branches(&self) -> u64 {
        self.num_branches
    }

    /// Number of mispredicted dynamic branches.
    #[must_use]
    pub fn num_mispredicts(&self) -> u64 {
        self.num_mispredicts
    }
}

/// Incremental [`PreparedTrace`] construction: feed records in order
/// (whole traces or bounded chunks), then [`finish`](Self::finish).
///
/// The CFG analysis (reconvergence points, loop-back classification) and
/// the per-pc latency classes depend only on the *program*, so they are
/// computed once up front; each pushed record is packed into the columnar
/// form and replayed through the predictor in stream order. Feeding the
/// same records in any chunking therefore yields bit-identical results.
///
/// The `-CD` models need, per mispredicted branch at record `i`, the first
/// record no longer control-dependent on it. If the *predicted* (wrong)
/// direction can re-reach the branch before its reconvergence point, the
/// wrong path crosses an iteration boundary and the operand context of
/// everything younger is invalid: the region never ends (`u32::MAX`).
/// Otherwise it ends at the first later record at the branch's
/// reconvergence pc and the same call depth, searched at most
/// [`CD_SCAN_CAP`] records ahead; a join further away ends the region at
/// `i + 1 + CD_SCAN_CAP`. The search depends only on the trace, so the
/// builder runs it once, in stream order: an open region waits on its
/// join pc and closes when a record there arrives.
pub struct PreparedTraceBuilder<'p> {
    class_of: Vec<InstrClass>,
    branches: BranchCfg,
    predictor: &'p mut dyn BranchPredictor,
    meta: Vec<u32>,
    cd_end: Vec<u32>,
    /// Per join pc: the open `-CD` regions waiting to reconverge there.
    cd_open: Vec<Vec<OpenRegion>>,
    read_addrs: Vec<u32>,
    write_addrs: Vec<u32>,
    mem_words: usize,
    class_counts: [u64; 4],
    num_branches: u64,
    wrong: u64,
    last_was_branch: bool,
}

/// A mispredicted branch whose control-dependence region has not closed.
#[derive(Clone, Copy)]
struct OpenRegion {
    /// Index of the region's entry in the `cd_end` column.
    ordinal: u32,
    /// Dynamic position of the branch.
    pos: usize,
    /// Call depth of the branch; the join must match it.
    depth: u32,
}

impl<'p> PreparedTraceBuilder<'p> {
    /// Runs the program-level analysis and readies an empty accumulator.
    #[must_use]
    pub fn new(program: &Program, predictor: &'p mut dyn BranchPredictor) -> Self {
        // The per-static-pc latency classes, resolved up front so the
        // per-record pass below can pack them per dynamic record.
        let class_of: Vec<InstrClass> = program
            .instrs()
            .iter()
            .map(|instr| match instr {
                Instr::Alu { op, .. } | Instr::AluImm { op, .. } => match op {
                    AluOp::Mul | AluOp::Div | AluOp::Rem => InstrClass::MulDiv,
                    _ => InstrClass::Alu,
                },
                Instr::Lw { .. } | Instr::Sw { .. } => InstrClass::Mem,
                Instr::Branch { .. } | Instr::Jr { .. } => InstrClass::Branch,
                _ => InstrClass::Alu,
            })
            .collect();

        PreparedTraceBuilder {
            class_of,
            branches: BranchCfg::new(program),
            predictor,
            meta: Vec::new(),
            cd_end: Vec::new(),
            cd_open: vec![Vec::new(); program.len()],
            read_addrs: Vec::new(),
            write_addrs: Vec::new(),
            mem_words: 0,
            class_counts: [0u64; 4],
            num_branches: 0,
            wrong: 0,
            last_was_branch: false,
        }
    }

    /// Pre-sizes the per-record columns for `records` entries.
    pub fn reserve(&mut self, records: usize) {
        self.meta.reserve(records);
    }

    /// Packs one dynamic record into the columns and replays it through
    /// the predictor.
    pub fn push_record(&mut self, record: &TraceRecord) {
        let i = self.meta.len();
        let open = &mut self.cd_open[record.pc as usize];
        if !open.is_empty() {
            let cd_end = &mut self.cd_end;
            open.retain(|region| {
                if i - region.pos > CD_SCAN_CAP as usize {
                    return false; // past the scan cap: keeps its default end
                }
                if record.depth != region.depth {
                    return true;
                }
                cd_end[region.ordinal as usize] = i as u32;
                false
            });
        }
        let class = self.class_of[record.pc as usize];
        self.class_counts[class as usize] += 1;
        let mut m = record.srcs[0].map_or(META_READ_SINK, |r| r.index() as u32)
            | record.srcs[1].map_or(META_READ_SINK, |r| r.index() as u32) << META_SRC2_SHIFT
            | record.dst.map_or(META_WRITE_SINK, |r| r.index() as u32) << META_DST_SHIFT
            | (class as u32) << META_CLASS_SHIFT;
        if let Some(addr) = record.mem_read {
            m |= META_HAS_READ;
            self.read_addrs.push(addr);
            self.mem_words = self.mem_words.max(addr as usize + 1);
        }
        if let Some(addr) = record.mem_write {
            m |= META_HAS_WRITE;
            self.write_addrs.push(addr);
            self.mem_words = self.mem_words.max(addr as usize + 1);
        }
        self.last_was_branch = false;
        if let Some(outcome) = record.branch {
            m |= META_IS_COND;
            if outcome.taken {
                m |= META_TAKEN;
            }
            if self.predictor.predict(record.pc) != outcome.taken {
                m |= META_MISPREDICT;
                self.wrong += 1;
                self.open_cd_region(record, i, !outcome.taken);
            }
            self.predictor.resolve(record.pc, outcome.taken);
            self.num_branches += 1;
            self.last_was_branch = true;
        }
        self.meta.push(m);
    }

    /// Appends the `cd_end` entry for the mispredicted branch at record
    /// `i`, whose predictor guessed `predicted_taken`: restrictive, or the
    /// scan-cap default until its join arrives.
    fn open_cd_region(&mut self, record: &TraceRecord, i: usize, predicted_taken: bool) {
        let pc = record.pc as usize;
        let ordinal = self.cd_end.len() as u32;
        let loops_back = if predicted_taken {
            self.branches.loops_back_taken[pc]
        } else {
            self.branches.loops_back_fall[pc]
        };
        match self.branches.reconv[pc] {
            Some(join) if !loops_back => {
                self.cd_end
                    .push(u32::try_from(i + 1 + CD_SCAN_CAP as usize).unwrap_or(u32::MAX));
                self.cd_open[join as usize].push(OpenRegion {
                    ordinal,
                    pos: i,
                    depth: record.depth,
                });
            }
            // Loops back, or reconverges only at program exit.
            _ => self.cd_end.push(u32::MAX),
        }
    }

    /// Pushes a batch of records in order.
    pub fn push_chunk(&mut self, records: &[TraceRecord]) {
        for record in records {
            self.push_record(record);
        }
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.meta.len()
    }

    /// Seals the accumulated columns into a [`PreparedTrace`].
    #[must_use]
    pub fn finish(self, output: Vec<i32>) -> PreparedTrace {
        let num_branches = self.num_branches;
        let accuracy = if num_branches == 0 {
            1.0
        } else {
            1.0 - self.wrong as f64 / num_branches as f64
        };
        let num_paths = if self.meta.is_empty() {
            0
        } else if self.last_was_branch {
            num_branches as u32
        } else {
            num_branches as u32 + 1
        };
        PreparedTrace {
            len: self.meta.len(),
            num_paths,
            meta: self.meta,
            cd_end: self.cd_end,
            read_addrs: self.read_addrs,
            write_addrs: self.write_addrs,
            mem_words: self.mem_words,
            class_counts: self.class_counts,
            mem_latency: None,
            output,
            num_branches,
            num_mispredicts: self.wrong,
            accuracy,
        }
    }
}

/// Bit layout of the packed per-record `meta` word.
///
/// Register fields hold 6-bit *slots* into a [`META_REG_SLOTS`]-entry
/// availability table: real registers occupy slots `0..Reg::COUNT`;
/// absent sources read the always-zero slot [`META_READ_SINK`] and an
/// absent destination writes the never-read slot [`META_WRITE_SINK`], so
/// the simulate loops have no per-operand branches at all.
pub(crate) const META_REG_MASK: u32 = 0x3F;
pub(crate) const META_SRC2_SHIFT: u32 = 6;
pub(crate) const META_DST_SHIFT: u32 = 12;
pub(crate) const META_HAS_READ: u32 = 1 << 18;
pub(crate) const META_HAS_WRITE: u32 = 1 << 19;
pub(crate) const META_IS_COND: u32 = 1 << 20;
pub(crate) const META_MISPREDICT: u32 = 1 << 21;
pub(crate) const META_CLASS_SHIFT: u32 = 22;
/// Actual direction of a conditional branch (set = taken); only
/// meaningful when `META_IS_COND` is set.
pub(crate) const META_TAKEN: u32 = 1 << 24;

/// Size of the register availability tables in the simulate loops.
pub(crate) const META_REG_SLOTS: usize = 64;

/// Slot absent sources read: nothing ever writes it, so it stays zero.
pub(crate) const META_READ_SINK: u32 = 63;

/// Slot absent destinations write: nothing ever reads it.
pub(crate) const META_WRITE_SINK: u32 = 62;

/// How far ahead of a mispredicted branch the `-CD` reconvergence search
/// looks; a join further away ends the region at the cap.
pub(crate) const CD_SCAN_CAP: u32 = 4096;

/// Per static conditional branch, what the `-CD` region search needs from
/// the program's CFG.
pub(crate) struct BranchCfg {
    /// Per static pc: the branch's reconvergence point, if any.
    pub(crate) reconv: Vec<Option<u32>>,
    /// Per static pc: starting down the branch's *taken* side, can control
    /// re-reach the branch without passing its reconvergence point? (True
    /// for loop-closing directions: a wrong path that crosses an iteration
    /// boundary invalidates the operand context of everything younger, so
    /// `-CD` models treat such mispredicts restrictively.)
    pub(crate) loops_back_taken: Vec<bool>,
    /// Same, for the fall-through side.
    pub(crate) loops_back_fall: Vec<bool>,
}

impl BranchCfg {
    pub(crate) fn new(program: &Program) -> Self {
        let cfg = Cfg::new(program);
        let postdoms = cfg.postdominators();
        let mut reconv = vec![None; program.len()];
        let mut loops_back_taken = vec![false; program.len()];
        let mut loops_back_fall = vec![false; program.len()];
        for pc in program.cond_branch_pcs() {
            reconv[pc as usize] = postdoms.reconvergence(pc);
            let (target, fall) = match program[pc] {
                dee_isa::Instr::Branch { target, .. } => (target, pc + 1),
                _ => unreachable!("cond_branch_pcs returns branches"),
            };
            let stop = reconv[pc as usize];
            loops_back_taken[pc as usize] = reaches_without(&cfg, target, pc, stop);
            loops_back_fall[pc as usize] = reaches_without(&cfg, fall, pc, stop);
        }
        BranchCfg {
            reconv,
            loops_back_taken,
            loops_back_fall,
        }
    }
}

/// Latency class of a static instruction (see
/// [`LatencyModel`](crate::LatencyModel)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum InstrClass {
    /// Simple ALU / move / immediate.
    Alu,
    /// Multiply, divide, remainder.
    MulDiv,
    /// Load or store.
    Mem,
    /// Conditional branch or indirect jump.
    Branch,
}

/// Whether control starting at `from` can reach `goal` without passing
/// through `avoid` (the branch's reconvergence point). BFS over the CFG.
fn reaches_without(cfg: &Cfg, from: u32, goal: u32, avoid: Option<u32>) -> bool {
    if Some(from) == avoid {
        return false;
    }
    let mut visited = vec![false; (cfg.exit() + 1) as usize];
    let mut queue = vec![from];
    visited[from as usize] = true;
    while let Some(node) = queue.pop() {
        if node == goal {
            return true;
        }
        if node == cfg.exit() {
            continue;
        }
        for &s in cfg.successors(node) {
            if Some(s) == avoid || visited[s as usize] {
                continue;
            }
            visited[s as usize] = true;
            queue.push(s);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Reg};
    use dee_vm::{trace_program, TraceChunks};

    fn countdown(n: i32) -> (Program, Trace) {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, n);
        asm.label("top");
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    #[test]
    fn path_indices_advance_at_branches() {
        let (p, t) = countdown(3);
        let prepared = PreparedTrace::new(&p, &t);
        // records: li, addi, bgt, addi, bgt, addi, bgt, halt — the
        // trailing halt opens a fourth (partial) path.
        assert_eq!(prepared.num_paths(), 4);
        let cond_flags: Vec<bool> = prepared
            .meta
            .iter()
            .map(|&m| m & META_IS_COND != 0)
            .collect();
        assert_eq!(
            cond_flags,
            vec![false, false, true, false, true, false, true, false]
        );
    }

    #[test]
    fn num_paths_counts_trailing_branch_exactly() {
        // A trace that *ends* on the conditional branch: no trailing
        // partial path beyond it.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 1);
        asm.beq_label(r1, Reg::ZERO, "skip");
        asm.label("skip");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        // records: li, beq, halt — halt trails the branch, so 2 paths.
        assert_eq!(prepared.num_paths(), 2);
    }

    #[test]
    fn meta_packs_operands_and_sinks() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 7); // dst r1, no srcs
        asm.sw(r1, Reg::ZERO, 3); // src r1, mem write, no dst
        asm.lw(r2, Reg::ZERO, 3); // mem read, dst r2
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[0, 0, 0, 0], 100).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        let m0 = prepared.meta[0];
        assert_eq!(m0 & META_REG_MASK, META_READ_SINK, "li reads nothing");
        assert_eq!((m0 >> META_DST_SHIFT) & META_REG_MASK, 1);
        let m1 = prepared.meta[1];
        assert_eq!(m1 & META_REG_MASK, 1, "sw reads r1");
        assert_eq!(
            (m1 >> META_DST_SHIFT) & META_REG_MASK,
            META_WRITE_SINK,
            "sw writes no register"
        );
        assert_ne!(m1 & META_HAS_WRITE, 0);
        let m2 = prepared.meta[2];
        assert_ne!(m2 & META_HAS_READ, 0);
        assert_eq!(prepared.read_addrs, vec![3]);
        assert_eq!(prepared.write_addrs, vec![3]);
        assert_eq!(prepared.mem_words, 4);
    }

    #[test]
    fn meta_records_branch_direction() {
        let (p, t) = countdown(2);
        let prepared = PreparedTrace::new(&p, &t);
        // records: li, addi, bgt(taken), addi, bgt(not taken), halt
        assert_ne!(prepared.meta[2] & META_TAKEN, 0);
        assert_eq!(prepared.meta[4] & META_TAKEN, 0);
        // The one mispredict is the loop exit: its predicted (taken) side
        // loops back, so the -CD penalty is restrictive.
        assert_eq!(prepared.cd_end, vec![u32::MAX]);
        assert_eq!(prepared.output(), t.output());
    }

    #[test]
    fn try_with_mem_latencies_validates_instead_of_panicking() {
        let (p, t) = countdown(3);
        let prepared = PreparedTrace::new(&p, &t);
        // Wrong length: typed error, not an assert.
        let err = prepared.try_with_mem_latencies(vec![1; 3]).unwrap_err();
        assert!(err.contains("3 entries"), "{err}");
        // Right length with no memory records: any latencies accepted.
        let prepared = PreparedTrace::new(&p, &t);
        let n = t.len();
        assert!(prepared.try_with_mem_latencies(vec![0; n]).is_ok());
    }

    #[test]
    fn try_with_mem_latencies_rejects_zero_latency_memory_records() {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.lw(r1, Reg::ZERO, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[7], 100).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        let err = prepared
            .try_with_mem_latencies(vec![0; t.len()])
            .unwrap_err();
        assert!(err.contains("zero latency"), "{err}");
        let prepared = PreparedTrace::new(&p, &t);
        assert!(prepared.try_with_mem_latencies(vec![2; t.len()]).is_ok());
    }

    #[test]
    fn accuracy_matches_flag_count() {
        let (p, t) = countdown(50);
        let prepared = PreparedTrace::new(&p, &t);
        let branches = t.num_cond_branches() as u64;
        let wrong = prepared.num_mispredicts();
        assert!((prepared.accuracy() - (1.0 - wrong as f64 / branches as f64)).abs() < 1e-12);
        // Counter inits taken; the loop mispredicts only near the exit.
        assert!(wrong <= 2, "wrong = {wrong}");
    }

    #[test]
    fn reconvergence_computed_for_branches_only() {
        let (p, _) = countdown(2);
        let branches = BranchCfg::new(&p);
        // Static pc 2 is the loop branch, reconverging at halt (pc 3).
        assert_eq!(branches.reconv[2], Some(3));
        assert_eq!(branches.reconv[0], None);
        assert_eq!(branches.reconv[1], None);
    }

    #[test]
    fn loop_back_edges_classified() {
        let (p, _) = countdown(2);
        let branches = BranchCfg::new(&p);
        // pc 2: bgt -> pc 1 (backward). Taken side loops back to the
        // branch; fall-through exits.
        assert!(branches.loops_back_taken[2]);
        assert!(!branches.loops_back_fall[2]);
    }

    #[test]
    fn if_arms_do_not_loop_back() {
        // 0: beq -> 3 ; 1: nop ; 2: j 4 ; 3: nop ; 4: halt
        let mut asm = Assembler::new();
        asm.beq_label(Reg::new(1), Reg::ZERO, "arm");
        asm.nop();
        asm.j_label("join");
        asm.label("arm");
        asm.nop();
        asm.label("join");
        asm.halt();
        let p = asm.assemble().unwrap();
        let branches = BranchCfg::new(&p);
        assert!(!branches.loops_back_taken[0]);
        assert!(!branches.loops_back_fall[0]);
    }

    #[test]
    fn forward_exit_test_loop_classified() {
        // Test-at-top loop: branch forward to exit; fall-through body jumps
        // back above the branch. The *fall-through* side loops back.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 3); // 0
        asm.label("top");
        asm.ble_label(r1, Reg::ZERO, "exit"); // 1
        asm.addi(r1, r1, -1); // 2
        asm.j_label("top"); // 3
        asm.label("exit");
        asm.halt(); // 4
        let p = asm.assemble().unwrap();
        let branches = BranchCfg::new(&p);
        assert!(!branches.loops_back_taken[1], "taken side exits");
        assert!(
            branches.loops_back_fall[1],
            "fall-through re-reaches the test"
        );
    }

    #[test]
    fn empty_like_trace_tolerated() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        assert_eq!(prepared.num_paths(), 1);
        assert_eq!(prepared.accuracy(), 1.0);
    }

    /// A loop whose body branches on the counter's parity (often
    /// mispredicted), runs a 20-trip inner loop on odd trips, and calls a
    /// helper: ~50-record CD regions that straddle chunk boundaries at
    /// every chunk size below.
    fn parity_loop() -> (Program, Trace) {
        let mut asm = Assembler::new();
        let (r1, r2, r3, r4) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        asm.li(r1, 200);
        asm.li(r2, 0);
        asm.label("top");
        asm.sw(r1, Reg::ZERO, 40);
        asm.lw(r2, Reg::ZERO, 40);
        asm.andi(r3, r1, 1);
        asm.beq_label(r3, Reg::ZERO, "even");
        asm.li(r4, 20);
        asm.label("spin");
        asm.addi(r4, r4, -1);
        asm.bgt_label(r4, Reg::ZERO, "spin");
        asm.j_label("join");
        asm.label("even");
        asm.addi(r2, r2, 2);
        asm.label("join");
        asm.call_label("bump");
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.out(r2);
        asm.halt();
        asm.label("bump");
        asm.addi(r1, r1, -1);
        asm.ret();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    /// The streaming cornerstone: any chunking of the same record stream
    /// produces a bit-identical prepared trace, CD-region ends included.
    #[test]
    fn from_source_identical_to_with_predictor_at_every_chunk_size() {
        let (p, t) = parity_loop();
        let whole = PreparedTrace::with_predictor(&p, &t, &mut TwoBitCounter::new());
        let finite = whole.cd_end.iter().filter(|&&e| e != u32::MAX).count();
        assert!(finite >= 50, "only {finite} finite CD regions");
        for chunk in [1usize, 7, 4097, 1 << 16] {
            // Some region opens before the chunk boundary and closes after.
            let straddles = (0..whole.len)
                .filter(|&i| whole.meta[i] & META_MISPREDICT != 0)
                .zip(&whole.cd_end)
                .any(|(i, &end)| i / chunk != (end as usize).min(whole.len - 1) / chunk);
            assert!(straddles || chunk > whole.len, "chunk={chunk}");
            let mut source = TraceChunks::new(&t);
            let streamed =
                PreparedTrace::from_source(&p, &mut source, chunk, &mut TwoBitCounter::new())
                    .unwrap();
            assert_eq!(streamed.meta, whole.meta, "chunk={chunk}");
            assert_eq!(streamed.cd_end, whole.cd_end, "chunk={chunk}");
            assert_eq!(streamed.read_addrs, whole.read_addrs);
            assert_eq!(streamed.write_addrs, whole.write_addrs);
            assert_eq!(streamed.class_counts, whole.class_counts);
            assert_eq!(streamed.mem_words, whole.mem_words);
            assert_eq!(streamed.num_paths(), whole.num_paths());
            assert_eq!(streamed.num_branches(), whole.num_branches());
            assert_eq!(streamed.num_mispredicts(), whole.num_mispredicts());
            assert_eq!(streamed.output(), whole.output());
            assert!((streamed.accuracy() - whole.accuracy()).abs() < 1e-15);
        }
    }

    #[test]
    fn cd_end_matches_the_forward_scan() {
        let (p, t) = parity_loop();
        let prepared = PreparedTrace::new(&p, &t);
        let cols = crate::engine::reference::RefColumns::new(&p, &t);
        assert_eq!(
            prepared.cd_end,
            crate::engine::reference::cd_region_ends(&prepared, &cols)
        );
    }

    #[test]
    fn cd_end_stops_at_the_scan_cap() {
        // 0: li ; 1: beq -> 5 (mispredicted: the counter guesses taken)
        // 2..3: a 3000-trip loop ; 4: halt. The join lies ~6000 records
        // past the branch, beyond the cap.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 3000);
        asm.beq_label(r1, Reg::ZERO, "skip");
        asm.label("spin");
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "spin");
        asm.label("skip");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        assert!(t.len() > 2 + CD_SCAN_CAP as usize);
        assert_eq!(prepared.cd_end[0], 2 + CD_SCAN_CAP);
        let cols = crate::engine::reference::RefColumns::new(&p, &t);
        assert_eq!(
            prepared.cd_end,
            crate::engine::reference::cd_region_ends(&prepared, &cols)
        );
    }

    #[test]
    fn from_source_handles_empty_stream() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let empty = Trace::from_parts(vec![], vec![]);
        let mut source = TraceChunks::new(&empty);
        let prepared =
            PreparedTrace::from_source(&p, &mut source, 64, &mut TwoBitCounter::new()).unwrap();
        assert_eq!(prepared.num_paths(), 0);
        assert!(prepared.is_empty());
    }
}
