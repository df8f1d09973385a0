//! SPECint92-like workloads, hand-written in the [`dee-isa`](dee_isa) toy
//! ISA.
//!
//! The paper evaluates on five of the six SPECint92 integer benchmarks
//! (`cc1`, `compress`, `eqntott`, `espresso`, `xlisp`; `sc` was dropped as
//! too predictable). The original binaries and inputs are not available
//! here, so this crate implements the *same algorithm families* directly in
//! the toy ISA — what the trace-driven evaluation actually consumes is the
//! dynamic dependence/branch structure, not the exact SPEC code:
//!
//! * [`cc1`] — expression tokenizer + recursive-descent parser + constant
//!   folder (compiler front-end character: unpredictable token dispatch);
//! * [`compress`] — LZW compression with an open-addressing hash table
//!   (the actual `compress` algorithm);
//! * [`eqntott`] — boolean-equation truth-table expansion plus a
//!   comparison-dominated quicksort of ternary terms (eqntott's hot kernel
//!   is exactly such a sort; the expansion phase is the embarrassingly
//!   parallel part that gives eqntott its enormous oracle ILP);
//! * [`espresso`] — Quine–McCluskey-style cube merging and containment
//!   elimination (two-level logic minimization on bit-vector cubes);
//! * [`xlisp`] — N-queens backtracking search (the paper's xlisp input is
//!   `li-input.lsp`, 9 queens), with an explicit stack.
//!
//! The sixth SPECint92 benchmark, [`sc`], is also implemented but kept out
//! of [`all_workloads`] — the paper excluded it "as it was significantly
//! more predictable than the others", a rationale this crate reproduces as
//! a test.
//!
//! Every workload carries a pure-Rust reference implementation; tests
//! assert the assembly produces bit-identical output on the VM. Inputs are
//! generated deterministically from fixed seeds.
//!
//! # Example
//!
//! ```
//! use dee_workloads::{all_workloads, Scale};
//!
//! let suite = all_workloads(Scale::Tiny);
//! assert_eq!(suite.len(), 5);
//! for w in &suite {
//!     let trace = w.capture_trace().expect("workload runs");
//!     assert_eq!(trace.output(), w.expected_output.as_slice());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc1;
pub mod compress;
pub mod eqntott;
pub mod espresso;
pub mod registry;
pub mod sc;
pub mod synacor;
pub mod xlisp;

pub use registry::{WorkloadRegistry, PAPER_WORKLOADS};

use dee_isa::Program;
use dee_vm::{trace_program, trace_program_with, Engine, Trace, VmError};

/// Input-size scale for a workload.
///
/// `Tiny` is for unit tests (thousands of dynamic instructions), `Small`
/// for quick experiments, `Medium` for the headline figures (hundreds of
/// thousands of dynamic instructions), `Large` for long runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scale {
    /// Unit-test sized (≈10³–10⁴ dynamic instructions).
    Tiny,
    /// Quick-experiment sized (≈10⁴–10⁵).
    Small,
    /// Figure-quality sized (≈10⁵–10⁶).
    Medium,
    /// Long runs (≈10⁶–10⁷).
    Large,
}

impl Scale {
    /// All scales, smallest first.
    #[must_use]
    pub fn all() -> [Scale; 4] {
        [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large]
    }

    /// Parses a lower-case scale name (`tiny|small|medium|large`), the
    /// spelling every CLI flag, request field and artifact tag uses.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Scale::all().into_iter().find(|scale| scale.name() == s)
    }

    /// The stable lower-case name, the inverse of [`Scale::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }
}

/// A ready-to-run benchmark: program, input image, and the reference
/// output it must produce.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name matching the paper ("cc1", "compress", ...), or a
    /// generated identifier for synthetic programs (see `dee-gen`).
    pub name: String,
    /// The assembled program.
    pub program: Program,
    /// Input data image, loaded at word 0.
    pub initial_memory: Vec<i32>,
    /// Output the program must produce (from the Rust reference
    /// implementation).
    pub expected_output: Vec<i32>,
    /// A generous dynamic-instruction budget for this scale.
    pub step_limit: u64,
}

impl Workload {
    /// Runs the workload on the VM and captures its dynamic trace.
    ///
    /// # Errors
    ///
    /// Propagates any VM fault or step-limit overrun; a correct workload
    /// build never errors.
    pub fn capture_trace(&self) -> Result<Trace, VmError> {
        trace_program(&self.program, &self.initial_memory, self.step_limit)
    }

    /// [`capture_trace`](Self::capture_trace) through the selected engine;
    /// both engines produce byte-identical traces.
    ///
    /// # Errors
    ///
    /// Same contract as [`capture_trace`](Self::capture_trace).
    pub fn capture_trace_with(&self, engine: Engine) -> Result<Trace, VmError> {
        trace_program_with(engine, &self.program, &self.initial_memory, self.step_limit)
    }

    /// Runs the workload and validates its output against the reference.
    ///
    /// # Errors
    ///
    /// Returns the VM error, or a validation message on output mismatch.
    pub fn validate(&self) -> Result<Trace, String> {
        self.validate_with(Engine::Interp)
    }

    /// [`validate`](Self::validate) through the selected engine.
    ///
    /// # Errors
    ///
    /// Same contract as [`validate`](Self::validate).
    pub fn validate_with(&self, engine: Engine) -> Result<Trace, String> {
        let trace = self.capture_trace_with(engine).map_err(|e| e.to_string())?;
        if trace.output() != self.expected_output.as_slice() {
            return Err(format!(
                "{}: output mismatch ({} words produced, {} expected)",
                self.name,
                trace.output().len(),
                self.expected_output.len()
            ));
        }
        Ok(trace)
    }
}

/// Builds the paper's five workloads at the given scale, in the paper's
/// order. The full builtin set (including the post-paper additions) lives
/// in [`WorkloadRegistry::builtin`].
#[must_use]
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    WorkloadRegistry::builtin()
        .build_many(&PAPER_WORKLOADS, scale)
        .expect("paper workloads are registered")
}

/// A tiny deterministic PRNG (xorshift32) used by the input generators, so
/// that workload inputs are reproducible without external crates in the
/// hot path. Seeds must be nonzero.
#[derive(Clone, Debug)]
pub(crate) struct XorShift32 {
    state: u32,
}

impl XorShift32 {
    pub(crate) fn new(seed: u32) -> Self {
        XorShift32 {
            state: if seed == 0 { 0x9E37_79B9 } else { seed },
        }
    }

    pub(crate) fn next_u32(&mut self) -> u32 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        x
    }

    /// Uniform in `0..bound` (bound > 0).
    pub(crate) fn below(&mut self, bound: u32) -> u32 {
        self.next_u32() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip() {
        for scale in Scale::all() {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
            assert_eq!(scale.name(), format!("{scale:?}").to_ascii_lowercase());
        }
        assert_eq!(Scale::parse("Tiny"), None);
        assert_eq!(Scale::parse("medum"), None);
    }

    #[test]
    fn all_workloads_present_and_named() {
        let suite = all_workloads(Scale::Tiny);
        let names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["cc1", "compress", "eqntott", "espresso", "xlisp"]
        );
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero_seeded() {
        let mut a = XorShift32::new(42);
        let mut b = XorShift32::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut z = XorShift32::new(0);
        assert_ne!(z.next_u32(), 0, "zero seed remapped");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = XorShift32::new(7);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }
}
