use std::collections::VecDeque;

use dee_vm::frame::{put_u32, Cursor};

use crate::BranchPredictor;

/// PAp two-level adaptive predictor (Yeh & Patt): a per-branch history
/// register indexing a per-branch pattern history table of 2-bit counters.
///
/// The paper (§4.3) proposes PAp "with history register lengths of 2 bits,
/// and one pattern history table per row", updated *speculatively* with
/// predicted directions so that many instances of the same static branch can
/// be predicted while earlier ones are still unresolved. This implementation
/// supports both modes:
///
/// * **speculative** (the Levo design): `predict` shifts the prediction into
///   the history immediately; `resolve` later retires the oldest outstanding
///   prediction, trains the pattern table under the history the prediction
///   was made with, and resynchronizes the speculative history from actual
///   outcomes after a misprediction (modelling the squash of younger
///   speculation);
/// * **non-speculative**: history only advances at `resolve`, like the
///   2-bit counter scheme. Under delayed resolution this mode predicts many
///   instances from a stale history.
#[derive(Clone, Debug)]
pub struct PapAdaptive {
    history_bits: u32,
    speculative: bool,
    branches: Vec<Option<BranchState>>,
}

#[derive(Clone, Debug)]
struct BranchState {
    /// Speculative history (includes predicted, unresolved directions).
    spec_hist: u8,
    /// Architectural history (actual outcomes only).
    actual_hist: u8,
    /// Pattern history table of 2-bit counters, 2^history_bits entries.
    pht: Vec<u8>,
    /// Outstanding predictions: (history index used, predicted direction).
    pending: VecDeque<(u8, bool)>,
}

impl BranchState {
    fn new(history_bits: u32) -> Self {
        BranchState {
            spec_hist: 0,
            actual_hist: 0,
            // Weakly taken, matching the counter scheme's initialization.
            pht: vec![2; 1 << history_bits],
            pending: VecDeque::new(),
        }
    }
}

impl PapAdaptive {
    /// Creates a PAp predictor with the paper's parameters: 2 history bits,
    /// speculative update.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(2, true)
    }

    /// Creates a PAp predictor with `history_bits` bits of per-branch
    /// history (1..=8) and the given update mode.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or greater than 8.
    #[must_use]
    pub fn with_config(history_bits: u32, speculative: bool) -> Self {
        assert!(
            (1..=8).contains(&history_bits),
            "history_bits must be in 1..=8"
        );
        PapAdaptive {
            history_bits,
            speculative,
            branches: Vec::new(),
        }
    }

    fn mask(&self) -> u8 {
        ((1u16 << self.history_bits) - 1) as u8
    }

    fn state_mut(&mut self, pc: u32) -> &mut BranchState {
        let idx = pc as usize;
        if idx >= self.branches.len() {
            self.branches.resize(idx + 1, None);
        }
        let bits = self.history_bits;
        self.branches[idx].get_or_insert_with(|| BranchState::new(bits))
    }
}

impl Default for PapAdaptive {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for PapAdaptive {
    fn predict(&mut self, pc: u32) -> bool {
        let mask = self.mask();
        let speculative = self.speculative;
        let st = self.state_mut(pc);
        let idx = if speculative {
            st.spec_hist & mask
        } else {
            st.actual_hist & mask
        };
        let prediction = st.pht[idx as usize] >= 2;
        if speculative {
            st.pending.push_back((idx, prediction));
            st.spec_hist = ((st.spec_hist << 1) | u8::from(prediction)) & mask;
        }
        prediction
    }

    fn resolve(&mut self, pc: u32, taken: bool) {
        let mask = self.mask();
        let speculative = self.speculative;
        let st = self.state_mut(pc);
        let (idx, predicted) = if speculative {
            match st.pending.pop_front() {
                Some(entry) => entry,
                // Resolution without a prior prediction: train under the
                // architectural history.
                None => (st.actual_hist & mask, taken),
            }
        } else {
            (st.actual_hist & mask, taken)
        };
        let counter = &mut st.pht[idx as usize];
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        st.actual_hist = ((st.actual_hist << 1) | u8::from(taken)) & mask;
        if speculative && predicted != taken {
            // A misprediction squashes younger speculation of this branch:
            // discard outstanding predictions and resynchronize the
            // speculative history with reality.
            st.pending.clear();
            st.spec_hist = st.actual_hist;
        }
    }

    fn name(&self) -> &'static str {
        if self.speculative {
            "pap-spec"
        } else {
            "pap"
        }
    }

    fn save_state(&self) -> Vec<u8> {
        // Canonical form: trailing untracked branches are implicit.
        let used = self
            .branches
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1);
        let mut out = Vec::new();
        put_u32(&mut out, self.history_bits);
        out.push(u8::from(self.speculative));
        put_u32(&mut out, used as u32);
        for slot in &self.branches[..used] {
            match slot {
                None => out.push(0),
                Some(st) => {
                    out.push(1);
                    out.push(st.spec_hist);
                    out.push(st.actual_hist);
                    out.extend_from_slice(&st.pht);
                    put_u32(&mut out, st.pending.len() as u32);
                    for &(idx, predicted) in &st.pending {
                        out.push(idx);
                        out.push(u8::from(predicted));
                    }
                }
            }
        }
        out
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut cur = Cursor::new(bytes);
        let history_bits = cur.u32()?;
        if !(1..=8).contains(&history_bits) {
            return Err(format!("pap: bad history_bits {history_bits}"));
        }
        let speculative = match cur.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("pap: bad speculative flag {other}")),
        };
        let mask = ((1u16 << history_bits) - 1) as u8;
        let pht_len = 1usize << history_bits;
        let used = cur.u32()? as usize;
        let mut branches: Vec<Option<BranchState>> = Vec::with_capacity(used);
        for slot in 0..used {
            match cur.u8()? {
                0 => branches.push(None),
                1 => {
                    let spec_hist = cur.u8()?;
                    let actual_hist = cur.u8()?;
                    if spec_hist & !mask != 0 || actual_hist & !mask != 0 {
                        return Err(format!("pap: branch {slot} history exceeds mask"));
                    }
                    let pht = cur.take(pht_len)?.to_vec();
                    if let Some(&bad) = pht.iter().find(|&&c| c > 3) {
                        return Err(format!("pap: counter state {bad} out of range"));
                    }
                    let pending_len = cur.u32()? as usize;
                    let mut pending = VecDeque::with_capacity(pending_len);
                    for _ in 0..pending_len {
                        let idx = cur.u8()?;
                        if idx & !mask != 0 {
                            return Err(format!("pap: pending index {idx} exceeds mask"));
                        }
                        let predicted = match cur.u8()? {
                            0 => false,
                            1 => true,
                            other => return Err(format!("pap: bad direction byte {other}")),
                        };
                        pending.push_back((idx, predicted));
                    }
                    branches.push(Some(BranchState {
                        spec_hist,
                        actual_hist,
                        pht,
                        pending,
                    }));
                }
                other => return Err(format!("pap: bad presence byte {other}")),
            }
        }
        cur.finish()?;
        self.history_bits = history_bits;
        self.speculative = speculative;
        self.branches = branches;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_alternating_pattern_counter_cannot() {
        // T,N,T,N,... — a 2-bit counter oscillates; PAp learns it exactly.
        let mut pap = PapAdaptive::with_config(2, false);
        let mut hits = 0;
        let total = 200;
        for i in 0..total {
            let taken = i % 2 == 0;
            if pap.predict(0) == taken {
                hits += 1;
            }
            pap.resolve(0, taken);
        }
        // After warm-up the pattern is fully predictable.
        assert!(hits > total - 20, "hits = {hits}");
    }

    #[test]
    fn speculative_mode_tracks_immediate_resolution() {
        // With immediate resolution, speculative and non-speculative modes
        // behave identically on a learnable pattern.
        let pattern: Vec<bool> = (0..300).map(|i| i % 3 != 2).collect();
        let mut spec = PapAdaptive::with_config(2, true);
        let mut nonspec = PapAdaptive::with_config(2, false);
        let (mut hits_s, mut hits_n) = (0, 0);
        for &taken in &pattern {
            if spec.predict(0) == taken {
                hits_s += 1;
            }
            spec.resolve(0, taken);
            if nonspec.predict(0) == taken {
                hits_n += 1;
            }
            nonspec.resolve(0, taken);
        }
        assert!(hits_s > 250, "speculative hits = {hits_s}");
        assert!((i64::from(hits_s) - i64::from(hits_n)).abs() < 20);
    }

    #[test]
    fn speculative_mode_survives_delayed_resolution() {
        // Predict 4 instances before resolving any. The speculatively
        // updated history keeps advancing with predictions, so once the
        // pattern table is trained, an alternating branch stays perfectly
        // predicted — this is §4.3's argument for PAp-with-speculative-
        // update in a machine with many unresolved branches. A 2-bit
        // counter in the same regime is at chance.
        let pattern: Vec<bool> = (0..400).map(|i| i % 2 == 0).collect();
        let delay = 4;
        let run = |p: &mut dyn crate::BranchPredictor| -> u32 {
            let mut hits = 0;
            let mut pending: VecDeque<bool> = VecDeque::new();
            for &taken in &pattern {
                if p.predict(0) == taken {
                    hits += 1;
                }
                pending.push_back(taken);
                if pending.len() > delay {
                    let old = pending.pop_front().unwrap();
                    p.resolve(0, old);
                }
            }
            while let Some(old) = pending.pop_front() {
                p.resolve(0, old);
            }
            hits
        };
        let spec_hits = run(&mut PapAdaptive::with_config(2, true));
        let counter_hits = run(&mut crate::TwoBitCounter::new());
        assert!(spec_hits > 360, "speculative PAp hits = {spec_hits}/400");
        assert!(
            counter_hits < 260,
            "counter should be near chance, got {counter_hits}/400"
        );
    }

    #[test]
    fn independent_per_branch_state() {
        let mut p = PapAdaptive::new();
        for _ in 0..8 {
            p.resolve(1, false);
        }
        // Branch 1 trained not-taken under its history; branch 2 untouched.
        assert!(p.predict(2));
    }

    #[test]
    #[should_panic(expected = "history_bits must be in 1..=8")]
    fn rejects_zero_history() {
        let _ = PapAdaptive::with_config(0, true);
    }

    #[test]
    fn resolve_without_predict_is_tolerated() {
        let mut p = PapAdaptive::new();
        p.resolve(0, true);
        p.resolve(0, true);
        assert!(p.predict(0));
    }

    #[test]
    fn names_distinguish_modes() {
        assert_eq!(PapAdaptive::with_config(2, true).name(), "pap-spec");
        assert_eq!(PapAdaptive::with_config(2, false).name(), "pap");
    }

    #[test]
    fn state_roundtrip_preserves_outstanding_speculation() {
        // Leave predictions in flight when the snapshot is cut — the
        // restored predictor must retire them in the same order.
        let mut p = PapAdaptive::new();
        for i in 0..50u32 {
            p.predict(i % 5);
            if i % 3 == 0 {
                p.resolve(i % 5, i % 2 == 0);
            }
        }
        let blob = p.save_state();
        let mut q = PapAdaptive::new();
        q.load_state(&blob).expect("loads");
        for i in 0..100u32 {
            let pc = i % 5;
            assert_eq!(p.predict(pc), q.predict(pc), "step {i}");
            let taken = i % 7 < 3;
            p.resolve(pc, taken);
            q.resolve(pc, taken);
        }
        assert_eq!(p.save_state(), q.save_state());
    }

    #[test]
    fn state_blob_is_canonical_over_table_growth() {
        // Touching a high pc then only ever training a low one leaves
        // trailing empty slots; they must not appear in the blob.
        let mut a = PapAdaptive::new();
        a.resolve(2, true);
        let mut b = PapAdaptive::new();
        b.predict(900); // grows the table
        b.resolve(900, true); // retires the lone prediction...
        let blob_b = b.save_state();
        b.load_state(&a.save_state()).expect("loads");
        assert_eq!(b.save_state(), a.save_state());
        // ...but slot 900 itself is live state and is preserved.
        let mut c = PapAdaptive::new();
        c.load_state(&blob_b).expect("loads");
        assert_eq!(c.save_state(), blob_b);
    }

    #[test]
    fn load_rejects_malformed_state() {
        let mut p = PapAdaptive::new();
        assert!(p.load_state(&[]).is_err(), "empty blob");
        let mut blob = Vec::new();
        dee_vm::frame::put_u32(&mut blob, 9); // history_bits out of range
        blob.push(1);
        dee_vm::frame::put_u32(&mut blob, 0);
        assert!(p.load_state(&blob).is_err(), "bad history_bits");
        let mut blob = Vec::new();
        dee_vm::frame::put_u32(&mut blob, 2);
        blob.push(7); // bad speculative flag
        dee_vm::frame::put_u32(&mut blob, 0);
        assert!(p.load_state(&blob).is_err(), "bad flag");
        let good = PapAdaptive::new().save_state();
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(p.load_state(&trailing).is_err(), "trailing bytes");
        assert!(p.load_state(&good).is_ok(), "pristine blob loads");
    }
}
