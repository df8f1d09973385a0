//! The speculation plan: a serializable, checksummed artifact carrying
//! everything the DEE tree needs *before* the program ever runs.
//!
//! A [`SpeculationPlan`] bundles the static planner's outputs — per-branch
//! taken-probabilities and frequencies from [`crate::heuristics`], the
//! per-instruction [`SpecClass`] from [`crate::alias`], and a profile-free
//! expected branch accuracy (the frequency-weighted majority mass) that
//! shapes a [`dee-ilpsim`] cumulative-probability tree with no trace at
//! all.
//!
//! On disk the plan is framed exactly like a `DEESNAP1` snapshot, by
//! [`dee_vm::frame::seal`]: the 8-byte `DEEPLAN1` magic, a little-endian
//! body, and a trailing [`checksum64`] over magic and body. (Builds
//! before this framing checksummed the body alone; their plan files now
//! fail closed as a checksum mismatch.) A flipped byte anywhere is a
//! typed [`PlanError`], never a panic and never a silently wrong tree.
//!
//! [`verify_plan`] is the dynamic cross-check, mirroring
//! [`crate::census::BranchCensus::verify_trace`]: given the empirical
//! per-branch direction counts of a verified trace, it scores the plan
//! (per-branch absolute error, frequency-weighted mean error, Brier score)
//! and flags branches whose empirical probability diverges beyond a
//! tolerance as typed `DEE-W014` diagnostics.

use std::collections::BTreeMap;
use std::fmt;

use dee_isa::Program;
use dee_vm::frame::{checksum64, open, put_u32, put_u64, seal, Cursor, FrameError};

use crate::alias::{SideEffects, SpecClass};
use crate::census::DirectionCounts;
use crate::heuristics::BranchProbs;
use crate::lint::{Diagnostic, Lint};

/// The 8-byte magic opening every serialized plan.
pub const PLAN_MAGIC: &[u8; 8] = b"DEEPLAN1";

/// Default fraction of dynamic probability a branch may drift from its
/// static estimate before [`verify_plan`] flags it. Chosen from the
/// measured spread of the Ball–Larus heuristics over the workload
/// registry (see EXPERIMENTS.md §STATIC-PROBS): individual branches can
/// miss by the full heuristic hit-rate gap, so the per-branch gate is
/// deliberately wide; the aggregate weighted error is the quality metric.
pub const DEFAULT_TOLERANCE: f64 = 0.45;

/// The static estimate for one conditional branch, as planned.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PlannedBranch {
    /// The branch address.
    pub pc: u32,
    /// Static probability the branch is taken, in (0, 1).
    pub taken_prob: f64,
    /// Expected executions per program entry.
    pub freq: f64,
}

/// A complete static speculation plan for one program.
#[derive(Clone, PartialEq, Debug)]
pub struct SpeculationPlan {
    /// Instruction count of the planned program.
    pub program_len: u32,
    /// [`checksum64`] of the program listing; binds plan to program.
    pub program_digest: u64,
    /// Per-branch estimates, ascending by address.
    pub branches: Vec<PlannedBranch>,
    /// Per-instruction speculation classes, indexed by pc.
    pub classes: Vec<SpecClass>,
    /// Frequency-weighted majority mass over all branches: the accuracy a
    /// static-direction "predictor" expects, used as the profile-free
    /// tree-shape probability.
    pub expected_accuracy: f64,
}

impl SpeculationPlan {
    /// Runs the full static planner over a validated program.
    #[must_use]
    pub fn build(program: &Program) -> Self {
        let probs = BranchProbs::estimate(program.instrs());
        let effects = SideEffects::classify(program.instrs());
        let branches: Vec<PlannedBranch> = probs
            .branches()
            .map(|e| PlannedBranch {
                pc: e.pc,
                taken_prob: e.taken_prob,
                freq: probs.freq(e.pc),
            })
            .collect();
        let mut mass = 0.0;
        let mut weight = 0.0;
        for (b, e) in branches.iter().zip(probs.branches()) {
            // Weight each branch by how often it executes; floor at a tiny
            // weight so unreachable branches cannot produce 0/0.
            let w = b.freq.max(1e-9);
            mass += w * e.majority_mass();
            weight += w;
        }
        let expected_accuracy = if weight > 0.0 { mass / weight } else { 1.0 };
        SpeculationPlan {
            program_len: program.len() as u32,
            program_digest: checksum64(program.to_listing().as_bytes()),
            branches,
            classes: effects.classes().to_vec(),
            expected_accuracy,
        }
    }

    /// The planned taken-probability of the branch at `pc`, if present.
    #[must_use]
    pub fn taken_prob(&self, pc: u32) -> Option<f64> {
        self.branches
            .binary_search_by_key(&pc, |b| b.pc)
            .ok()
            .map(|i| self.branches[i].taken_prob)
    }

    /// `(safely_eager, memory_speculative, unsafe)` instruction counts.
    #[must_use]
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for class in &self.classes {
            match class {
                SpecClass::SafelyEager => c.0 += 1,
                SpecClass::MemorySpeculative => c.1 += 1,
                SpecClass::Unsafe => c.2 += 1,
            }
        }
        c
    }

    /// Serializes the plan with `DEEPLAN1` framing: magic, little-endian
    /// body, trailing [`checksum64`] of magic and body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u32(&mut body, self.program_len);
        put_u64(&mut body, self.program_digest);
        put_u64(&mut body, self.expected_accuracy.to_bits());
        put_u32(&mut body, self.branches.len() as u32);
        for b in &self.branches {
            put_u32(&mut body, b.pc);
            put_u64(&mut body, b.taken_prob.to_bits());
            put_u64(&mut body, b.freq.to_bits());
        }
        put_u32(&mut body, self.classes.len() as u32);
        body.extend(self.classes.iter().map(|class| class.tag()));
        seal(PLAN_MAGIC, &body)
    }

    /// Parses a `DEEPLAN1` artifact, verifying magic and checksum.
    ///
    /// # Errors
    ///
    /// A [`PlanError`] naming the first framing or layout problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PlanError> {
        let body = open(PLAN_MAGIC, bytes)?;
        let mut r = Cursor::new(body);
        let program_len = r.u32()?;
        let program_digest = r.u64()?;
        let expected_accuracy = f64::from_bits(r.u64()?);
        let num_branches = r.u32()? as usize;
        let mut branches = Vec::with_capacity(num_branches.min(body.len() / 20));
        for _ in 0..num_branches {
            branches.push(PlannedBranch {
                pc: r.u32()?,
                taken_prob: f64::from_bits(r.u64()?),
                freq: f64::from_bits(r.u64()?),
            });
        }
        let num_classes = r.u32()? as usize;
        let mut classes = Vec::with_capacity(num_classes.min(body.len()));
        for _ in 0..num_classes {
            let tag = r.u8()?;
            classes.push(SpecClass::from_tag(tag).ok_or(PlanError::BadClass { tag })?);
        }
        r.finish()?;
        Ok(SpeculationPlan {
            program_len,
            program_digest,
            branches,
            classes,
            expected_accuracy,
        })
    }
}

/// A typed `DEEPLAN1` parse/verification failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// The framing or a field is bad: too short, wrong magic, checksum
    /// mismatch, truncated body or trailing bytes.
    Frame(FrameError),
    /// An unknown speculation-class tag.
    BadClass {
        /// The offending tag byte.
        tag: u8,
    },
}

impl From<FrameError> for PlanError {
    fn from(e: FrameError) -> Self {
        PlanError::Frame(e)
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PlanError::Frame(e) => write!(f, "plan: {e}"),
            PlanError::BadClass { tag } => write!(f, "unknown speculation class tag {tag}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The result of cross-checking a plan against empirical direction counts.
#[derive(Clone, Debug)]
pub struct PlanCheck {
    /// Branches with at least one dynamic execution.
    pub branches_checked: usize,
    /// Branches whose empirical probability diverged beyond tolerance.
    pub divergent: usize,
    /// Largest per-branch absolute error observed.
    pub max_abs_error: f64,
    /// Execution-weighted mean absolute error (the headline metric).
    pub weighted_mae: f64,
    /// Brier score of the static probabilities over all executions.
    pub brier: f64,
    /// One `DEE-W014` diagnostic per divergent branch.
    pub diagnostics: Vec<Diagnostic>,
}

/// Cross-checks a plan against the per-branch direction counts of a
/// verified trace (the output of
/// [`crate::census::BranchCensus::verify_trace`]).
///
/// Branches that never executed are skipped (the plan covers them, the
/// trace cannot score them). Branches the plan does not know — possible
/// only under program/trace skew — count as divergent with error 1.0.
/// Never panics.
#[must_use]
pub fn verify_plan(
    plan: &SpeculationPlan,
    counts: &BTreeMap<u32, DirectionCounts>,
    tolerance: f64,
) -> PlanCheck {
    let mut check = PlanCheck {
        branches_checked: 0,
        divergent: 0,
        max_abs_error: 0.0,
        weighted_mae: 0.0,
        brier: 0.0,
        diagnostics: Vec::new(),
    };
    let mut total = 0.0f64;
    let mut err_mass = 0.0f64;
    let mut brier_mass = 0.0f64;
    for (&pc, c) in counts {
        let n = c.taken + c.not_taken;
        if n == 0 {
            continue;
        }
        check.branches_checked += 1;
        let n_f = n as f64;
        let empirical = c.taken as f64 / n_f;
        let (err, planned) = match plan.taken_prob(pc) {
            Some(p) => ((p - empirical).abs(), p),
            None => (1.0, f64::NAN),
        };
        total += n_f;
        err_mass += err * n_f;
        if planned.is_nan() {
            brier_mass += n_f;
        } else {
            brier_mass +=
                c.taken as f64 * (planned - 1.0).powi(2) + c.not_taken as f64 * planned.powi(2);
        }
        if err > check.max_abs_error {
            check.max_abs_error = err;
        }
        if err > tolerance {
            check.divergent += 1;
            let msg = if planned.is_nan() {
                format!("branch executed {n} times but is absent from the plan")
            } else {
                format!(
                    "static taken-probability {planned:.3} vs empirical {empirical:.3} \
                     over {n} executions (|err| {err:.3} > tolerance {tolerance:.3})"
                )
            };
            check
                .diagnostics
                .push(Diagnostic::at(Lint::PlanDivergence, pc, msg));
        }
    }
    if total > 0.0 {
        check.weighted_mae = err_mass / total;
        check.brier = brier_mass / total;
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{BranchCond, Instr, Reg};

    fn looped_program() -> Program {
        let t = Reg::new(8);
        Program::new(vec![
            Instr::Li { rd: t, imm: 10 },
            Instr::AluImm {
                op: dee_isa::AluOp::Sub,
                rd: t,
                rs: t,
                imm: 1,
            },
            Instr::Branch {
                cond: BranchCond::Ne,
                rs: t,
                rt: Reg::ZERO,
                target: 1,
            },
            Instr::Halt,
        ])
        .expect("valid")
    }

    #[test]
    fn plan_roundtrips_through_deeplan1() {
        let plan = SpeculationPlan::build(&looped_program());
        let bytes = plan.to_bytes();
        assert_eq!(&bytes[..8], PLAN_MAGIC);
        let back = SpeculationPlan::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, plan);
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let plan = SpeculationPlan::build(&looped_program());
        let mut bytes = plan.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match SpeculationPlan::from_bytes(&bytes) {
            Err(PlanError::Frame(FrameError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_bad_magic_are_typed() {
        let plan = SpeculationPlan::build(&looped_program());
        let bytes = plan.to_bytes();
        assert_eq!(
            SpeculationPlan::from_bytes(&bytes[..4]),
            Err(PlanError::Frame(FrameError::TooShort { len: 4 }))
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            SpeculationPlan::from_bytes(&bad),
            Err(PlanError::Frame(FrameError::BadMagic))
        );
    }

    #[test]
    fn the_checksum_covers_magic_and_body_and_layout_errors_are_typed() {
        let bytes = SpeculationPlan::build(&looped_program()).to_bytes();
        let (framed, sum) = bytes.split_at(bytes.len() - 8);
        assert_eq!(sum, checksum64(framed).to_le_bytes());
        let body = &framed[PLAN_MAGIC.len()..];
        let parse = |body: &[u8]| SpeculationPlan::from_bytes(&seal(PLAN_MAGIC, body));
        let trailing = FrameError::TrailingBytes { extra: 1 };
        assert_eq!(
            parse(&[body, &[0]].concat()),
            Err(PlanError::Frame(trailing))
        );
        let cut = parse(&body[..body.len() - 1]);
        assert!(matches!(
            cut,
            Err(PlanError::Frame(FrameError::Truncated { .. }))
        ));
        let bad_class = [&body[..body.len() - 1], &[0xEE]].concat();
        assert_eq!(parse(&bad_class), Err(PlanError::BadClass { tag: 0xEE }));
    }

    #[test]
    fn verify_plan_accepts_matching_counts_and_flags_divergence() {
        let plan = SpeculationPlan::build(&looped_program());
        let p = plan.taken_prob(2).expect("branch at 2");
        assert!(p > 0.5);

        // Empirical counts agreeing with the plan: 9 taken, 1 not.
        let mut counts = BTreeMap::new();
        counts.insert(
            2,
            DirectionCounts {
                taken: 9,
                not_taken: 1,
            },
        );
        let check = verify_plan(&plan, &counts, DEFAULT_TOLERANCE);
        assert_eq!(check.branches_checked, 1);
        assert_eq!(check.divergent, 0, "mae {}", check.weighted_mae);
        assert!(check.brier < 0.25, "brier {}", check.brier);

        // A trace that contradicts the plan head-on.
        counts.insert(
            2,
            DirectionCounts {
                taken: 0,
                not_taken: 100,
            },
        );
        let check = verify_plan(&plan, &counts, DEFAULT_TOLERANCE);
        assert_eq!(check.divergent, 1);
        assert_eq!(check.diagnostics.len(), 1);
        assert_eq!(check.diagnostics[0].lint, Lint::PlanDivergence);
        assert_eq!(check.diagnostics[0].lint.code(), "DEE-W014");
    }

    #[test]
    fn unknown_branch_counts_as_full_divergence() {
        let plan = SpeculationPlan::build(&looped_program());
        let mut counts = BTreeMap::new();
        counts.insert(
            99,
            DirectionCounts {
                taken: 5,
                not_taken: 5,
            },
        );
        let check = verify_plan(&plan, &counts, DEFAULT_TOLERANCE);
        assert_eq!(check.divergent, 1);
        assert!((check.max_abs_error - 1.0).abs() < 1e-12);
    }
}
