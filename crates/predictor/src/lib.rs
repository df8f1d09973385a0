//! Branch predictors and the accuracy harness.
//!
//! The DEE evaluation (§5.1) uses "the classic 2-bit saturating up/down
//! counter method, all counters initialized to the non-saturated taken
//! state" ([`TwoBitCounter`]). The paper also discusses (§4.3) why a Levo
//! implementation would prefer PAp two-level adaptive prediction with
//! *speculative* history update ([`PapAdaptive`]): with many unresolved
//! branches outstanding per static branch, a counter that must see each
//! outcome before the next prediction degrades, while a speculatively
//! updated history register does not. The [`harness`] module measures both
//! effects, including the delayed-update regime.
//!
//! # Example
//!
//! ```
//! use dee_predict::{BranchPredictor, TwoBitCounter};
//!
//! let mut p = TwoBitCounter::new();
//! // Initialized weakly taken: first prediction is "taken".
//! assert!(p.predict(0));
//! p.resolve(0, false);
//! p.resolve(0, false);
//! assert!(!p.predict(0)); // trained not-taken
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod counters;
pub mod harness;
mod simple;

pub use adaptive::PapAdaptive;
pub use counters::TwoBitCounter;
pub use harness::{measure_accuracy, measure_accuracy_delayed, mispredict_flags, AccuracyReport};
pub use simple::{AlwaysTaken, Btfn, Gshare};

/// A dynamic branch-direction predictor.
///
/// `predict` may speculatively update internal state (e.g. PAp's history
/// registers); `resolve` delivers the actual outcome, possibly many
/// branches later. Trace-driven harnesses that resolve immediately model
/// the paper's simulator; delayed resolution models a machine with many
/// unresolved branches in flight.
pub trait BranchPredictor {
    /// Predicts the direction of the conditional branch at static address
    /// `pc`.
    fn predict(&mut self, pc: u32) -> bool;

    /// Informs the predictor of the actual direction of the oldest
    /// outstanding prediction for `pc` (or simply trains it, for
    /// predictors without speculative state).
    fn resolve(&mut self, pc: u32, taken: bool);

    /// A short display name ("2bc", "pap", ...).
    fn name(&self) -> &'static str;

    /// Serializes the predictor's mutable state as a deterministic
    /// little-endian blob.
    ///
    /// Two predictors that have seen the same `predict`/`resolve` sequence
    /// produce byte-identical blobs, so the blob can participate in
    /// checksummed snapshot artifacts. Stateless predictors (the default)
    /// return an empty blob.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state previously produced by [`save_state`] on a predictor
    /// of the same type and configuration.
    ///
    /// After a successful load the predictor behaves exactly as the one the
    /// blob was saved from. Fails closed on malformed or mismatched blobs.
    /// The default (stateless) implementation accepts only an empty blob.
    ///
    /// [`save_state`]: BranchPredictor::save_state
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: stateless predictor given a {}-byte state blob",
                self.name(),
                bytes.len()
            ))
        }
    }
}
