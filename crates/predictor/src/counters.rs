use dee_vm::frame::{put_u32, Cursor};

use crate::BranchPredictor;

/// The classic 2-bit saturating up/down counter predictor (J. E. Smith,
/// 1981), one counter per static branch, exactly as in the paper's
/// simulations: "all of the counters were initialized to the non-saturated
/// taken state" (state 2 of 0..=3; 0–1 predict not-taken, 2–3 taken).
///
/// One counter per static instruction address — the Levo arrangement of one
/// predictor per Instruction Queue row — so there is no aliasing.
///
/// # Example
///
/// ```
/// use dee_predict::{BranchPredictor, TwoBitCounter};
///
/// let mut p = TwoBitCounter::new();
/// p.resolve(7, true);
/// assert!(p.predict(7));
/// // Two not-taken outcomes flip a weakly-taken counter.
/// p.resolve(7, false);
/// p.resolve(7, false);
/// p.resolve(7, false);
/// assert!(!p.predict(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TwoBitCounter {
    counters: Vec<u8>,
}

/// "Non-saturated taken": weakly taken.
const INIT_STATE: u8 = 2;

impl TwoBitCounter {
    /// Creates the predictor; counters materialize lazily at first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn counter_mut(&mut self, pc: u32) -> &mut u8 {
        let idx = pc as usize;
        if idx >= self.counters.len() {
            self.counters.resize(idx + 1, INIT_STATE);
        }
        &mut self.counters[idx]
    }

    /// The raw counter state (0..=3) for `pc`.
    #[must_use]
    pub fn state(&self, pc: u32) -> u8 {
        self.counters
            .get(pc as usize)
            .copied()
            .unwrap_or(INIT_STATE)
    }
}

impl BranchPredictor for TwoBitCounter {
    fn predict(&mut self, pc: u32) -> bool {
        self.state(pc) >= 2
    }

    fn resolve(&mut self, pc: u32, taken: bool) {
        let c = self.counter_mut(pc);
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn name(&self) -> &'static str {
        "2bc"
    }

    fn save_state(&self) -> Vec<u8> {
        // Canonical form: trailing never-trained counters are implicit, so
        // behaviorally identical predictors serialize byte-identically even
        // if their tables grew differently.
        let used = self
            .counters
            .iter()
            .rposition(|&c| c != INIT_STATE)
            .map_or(0, |i| i + 1);
        let mut out = Vec::with_capacity(4 + used);
        put_u32(&mut out, used as u32);
        out.extend_from_slice(&self.counters[..used]);
        out
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut cur = Cursor::new(bytes);
        let n = cur.u32()? as usize;
        let counters = cur.take(n)?.to_vec();
        cur.finish()?;
        if let Some(&bad) = counters.iter().find(|&&c| c > 3) {
            return Err(format!("2bc: counter state {bad} out of range"));
        }
        self.counters = counters;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_weakly_taken() {
        let mut p = TwoBitCounter::new();
        assert_eq!(p.state(0), 2);
        assert!(p.predict(0));
        assert!(p.predict(12345));
    }

    #[test]
    fn saturates_at_both_ends() {
        let mut p = TwoBitCounter::new();
        for _ in 0..10 {
            p.resolve(0, true);
        }
        assert_eq!(p.state(0), 3);
        for _ in 0..10 {
            p.resolve(0, false);
        }
        assert_eq!(p.state(0), 0);
    }

    #[test]
    fn hysteresis_needs_two_flips() {
        let mut p = TwoBitCounter::new();
        p.resolve(0, true); // -> 3 (strong taken)
        p.resolve(0, false); // -> 2
        assert!(p.predict(0));
        p.resolve(0, false); // -> 1
        assert!(!p.predict(0));
    }

    #[test]
    fn counters_are_independent_per_pc() {
        let mut p = TwoBitCounter::new();
        p.resolve(5, false);
        p.resolve(5, false);
        assert!(!p.predict(5));
        assert!(p.predict(6));
    }

    #[test]
    fn state_roundtrip_is_canonical() {
        let mut p = TwoBitCounter::new();
        p.resolve(3, false);
        p.resolve(3, false);
        p.resolve(100, true);
        // Train pc 200 back to the init state: the canonical blob must not
        // distinguish "never touched" from "returned to init".
        p.resolve(200, true);
        p.resolve(200, false);
        let blob = p.save_state();
        let mut q = TwoBitCounter::new();
        q.load_state(&blob).expect("loads");
        for pc in [0, 3, 100, 200, 5000] {
            assert_eq!(p.state(pc), q.state(pc), "pc {pc}");
        }
        assert_eq!(q.save_state(), blob, "reserialization is stable");
        // An untouched predictor has a minimal, canonical blob too.
        assert_eq!(TwoBitCounter::new().save_state(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn load_rejects_garbage() {
        let mut p = TwoBitCounter::new();
        assert!(p.load_state(&[1, 0, 0]).is_err(), "truncated length");
        assert!(p.load_state(&[5, 0, 0, 0, 1]).is_err(), "short payload");
        assert!(
            p.load_state(&[1, 0, 0, 0, 9]).is_err(),
            "counter out of range"
        );
        assert!(
            p.load_state(&[0, 0, 0, 0, 7]).is_err(),
            "trailing bytes rejected"
        );
    }

    #[test]
    fn loop_pattern_mispredicts_only_exits() {
        // A 10-iteration loop repeated: T,T,...,T,N. After warm-up the
        // counter predicts taken throughout, missing only the exit.
        let mut p = TwoBitCounter::new();
        let mut misses = 0;
        for _rep in 0..5 {
            for i in 0..10 {
                let taken = i != 9;
                if p.predict(0) != taken {
                    misses += 1;
                }
                p.resolve(0, taken);
            }
        }
        assert_eq!(misses, 5, "one miss per loop exit");
    }
}
