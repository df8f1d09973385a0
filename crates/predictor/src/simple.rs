use dee_vm::frame::{put_u32, Cursor};

use crate::BranchPredictor;

/// Predicts every branch taken. A floor baseline: dynamic traces of loopy
/// integer code are mostly taken branches.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysTaken;

impl AlwaysTaken {
    /// Creates the predictor.
    #[must_use]
    pub fn new() -> Self {
        AlwaysTaken
    }
}

impl BranchPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u32) -> bool {
        true
    }

    fn resolve(&mut self, _pc: u32, _taken: bool) {}

    fn name(&self) -> &'static str {
        "always-taken"
    }
}

/// Static backward-taken / forward-not-taken prediction.
///
/// Needs the branch's taken-target to compare against its address, so it is
/// constructed over a program's branch target map.
#[derive(Clone, Debug, Default)]
pub struct Btfn {
    /// `targets[pc]` = taken target of the conditional branch at `pc`.
    targets: Vec<Option<u32>>,
}

impl Btfn {
    /// Creates a BTFN predictor from `(pc, target)` pairs for every
    /// conditional branch in the program.
    #[must_use]
    pub fn new(branch_targets: &[(u32, u32)]) -> Self {
        let mut targets = Vec::new();
        for &(pc, target) in branch_targets {
            let idx = pc as usize;
            if idx >= targets.len() {
                targets.resize(idx + 1, None);
            }
            targets[idx] = Some(target);
        }
        Btfn { targets }
    }
}

impl BranchPredictor for Btfn {
    fn predict(&mut self, pc: u32) -> bool {
        match self.targets.get(pc as usize).copied().flatten() {
            Some(target) => target <= pc, // backward => predict taken
            None => true,
        }
    }

    fn resolve(&mut self, _pc: u32, _taken: bool) {}

    fn name(&self) -> &'static str {
        "btfn"
    }
}

/// Gshare: a global history register XOR-hashed with the branch address
/// indexes a shared table of 2-bit counters (McFarling). Included as the
/// strongest "conventional hardware" comparison point for the predictor
/// accuracy study.
#[derive(Clone, Debug)]
pub struct Gshare {
    history: u32,
    history_bits: u32,
    table: Vec<u8>,
}

impl Gshare {
    /// Creates a gshare predictor with `2^table_bits` counters and
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= history_bits <= table_bits <= 24`.
    #[must_use]
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        assert!(
            history_bits >= 1 && history_bits <= table_bits && table_bits <= 24,
            "need 1 <= history_bits <= table_bits <= 24"
        );
        Gshare {
            history: 0,
            history_bits,
            table: vec![2; 1 << table_bits],
        }
    }

    fn index(&self, pc: u32) -> usize {
        let mask = (self.table.len() - 1) as u32;
        ((pc ^ self.history) & mask) as usize
    }
}

impl Default for Gshare {
    fn default() -> Self {
        Self::new(14, 12)
    }
}

impl BranchPredictor for Gshare {
    fn predict(&mut self, pc: u32) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn resolve(&mut self, pc: u32, taken: bool) {
        let idx = self.index(pc);
        let counter = &mut self.table[idx];
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        let hist_mask = (1u32 << self.history_bits) - 1;
        self.history = ((self.history << 1) | u32::from(taken)) & hist_mask;
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.table.len());
        put_u32(&mut out, self.history);
        put_u32(&mut out, self.history_bits);
        put_u32(&mut out, self.table.len() as u32);
        out.extend_from_slice(&self.table);
        out
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut cur = Cursor::new(bytes);
        let history = cur.u32()?;
        let history_bits = cur.u32()?;
        let table_len = cur.u32()? as usize;
        let table = cur.take(table_len)?.to_vec();
        cur.finish()?;
        if !table_len.is_power_of_two() || table_len > 1 << 24 {
            return Err(format!("gshare: bad table size {table_len}"));
        }
        let table_bits = table_len.trailing_zeros();
        if !(1..=table_bits).contains(&history_bits) {
            return Err(format!("gshare: bad history_bits {history_bits}"));
        }
        if history >> history_bits != 0 {
            return Err("gshare: history exceeds its mask".to_string());
        }
        if let Some(&bad) = table.iter().find(|&&c| c > 3) {
            return Err(format!("gshare: counter state {bad} out of range"));
        }
        self.history = history;
        self.history_bits = history_bits;
        self.table = table;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_is_constant() {
        let mut p = AlwaysTaken::new();
        assert!(p.predict(0));
        p.resolve(0, false);
        assert!(p.predict(0));
    }

    #[test]
    fn btfn_direction_from_target() {
        let mut p = Btfn::new(&[(10, 2), (20, 35)]);
        assert!(p.predict(10), "backward branch predicted taken");
        assert!(!p.predict(20), "forward branch predicted not taken");
        assert!(p.predict(99), "unknown branch defaults to taken");
    }

    #[test]
    fn btfn_self_loop_counts_as_backward() {
        let mut p = Btfn::new(&[(5, 5)]);
        assert!(p.predict(5));
    }

    #[test]
    fn gshare_learns_global_correlation() {
        // Branch B is taken exactly when the previous branch A was taken.
        // A per-branch counter cannot see this; gshare can.
        let mut g = Gshare::new(10, 4);
        let mut hits = 0;
        let total = 500;
        for i in 0..total {
            let a_taken = i % 3 == 0;
            g.resolve(100, a_taken); // branch A (not scored)
            let b_taken = a_taken;
            if g.predict(200) == b_taken {
                hits += 1;
            }
            g.resolve(200, b_taken);
        }
        assert!(hits > total * 9 / 10, "hits = {hits}/{total}");
    }

    #[test]
    fn gshare_history_masked() {
        let mut g = Gshare::new(4, 4);
        for _ in 0..100 {
            g.resolve(3, true);
        }
        // History saturated to all-ones within its mask; no panic, still
        // predicts.
        assert!(g.predict(3));
    }

    #[test]
    #[should_panic(expected = "need 1 <= history_bits <= table_bits")]
    fn gshare_rejects_bad_config() {
        let _ = Gshare::new(4, 8);
    }

    #[test]
    fn gshare_state_roundtrip_continues_identically() {
        let mut g = Gshare::new(10, 6);
        for i in 0..300u32 {
            g.resolve(i % 17, i % 5 != 0);
        }
        let blob = g.save_state();
        let mut h = Gshare::new(10, 6);
        h.load_state(&blob).expect("loads");
        for i in 0..200u32 {
            let pc = i % 13;
            assert_eq!(g.predict(pc), h.predict(pc), "step {i}");
            let taken = i % 7 < 4;
            g.resolve(pc, taken);
            h.resolve(pc, taken);
        }
        assert_eq!(g.save_state(), h.save_state());
    }

    #[test]
    fn gshare_load_rejects_malformed_state() {
        let mut g = Gshare::new(4, 2);
        assert!(g.load_state(&[]).is_err(), "empty blob");
        // Non-power-of-two table.
        let mut blob = Vec::new();
        dee_vm::frame::put_u32(&mut blob, 0);
        dee_vm::frame::put_u32(&mut blob, 2);
        dee_vm::frame::put_u32(&mut blob, 3);
        blob.extend_from_slice(&[2, 2, 2]);
        assert!(g.load_state(&blob).is_err(), "table size not a power of 2");
        // History wider than its mask.
        let mut blob = Vec::new();
        dee_vm::frame::put_u32(&mut blob, 0xFF);
        dee_vm::frame::put_u32(&mut blob, 2);
        dee_vm::frame::put_u32(&mut blob, 4);
        blob.extend_from_slice(&[2, 2, 2, 2]);
        assert!(g.load_state(&blob).is_err(), "history exceeds mask");
    }
}
