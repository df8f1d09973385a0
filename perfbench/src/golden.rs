//! Cell-by-cell comparison of a produced sweep CSV against a committed
//! golden file.
//!
//! A sweep CSV's last column is the value and every earlier column is
//! part of the cell's key (`benchmark,model,et,speedup` for Figure 5).
//! Each golden cell is one check: it fails when the produced file lacks
//! the key or holds a different value string. A produced cell the golden
//! does not have is one more failed check.

use std::collections::BTreeMap;

/// Outcome of comparing a produced CSV against its golden.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellCheck {
    /// Cells checked.
    pub attempted: u64,
    /// Cells missing, extra, or differing.
    pub failed: u64,
    /// The first disagreeing key, for the diagnostic line.
    pub first_mismatch: Option<String>,
}

/// Parses data rows (the header is skipped) into `key → value`.
#[must_use]
pub fn parse_cells(csv: &str) -> BTreeMap<String, String> {
    csv.lines()
        .skip(1)
        .filter(|line| !line.trim().is_empty())
        .map(|line| match line.rsplit_once(',') {
            Some((key, value)) => (key.to_string(), value.to_string()),
            None => (line.to_string(), String::new()),
        })
        .collect()
}

/// Compares produced cells against golden cells.
#[must_use]
pub fn compare(
    produced: &BTreeMap<String, String>,
    golden: &BTreeMap<String, String>,
) -> CellCheck {
    let mut check = CellCheck::default();
    let fail = |check: &mut CellCheck, key: &str| {
        check.failed += 1;
        check.first_mismatch.get_or_insert_with(|| key.to_string());
    };
    for (key, want) in golden {
        check.attempted += 1;
        if produced.get(key) != Some(want) {
            fail(&mut check, key);
        }
    }
    for key in produced.keys().filter(|k| !golden.contains_key(*k)) {
        check.attempted += 1;
        fail(&mut check, key);
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "benchmark,model,et,speedup\n\
                          cc1,SP,4,1.2345\n\
                          cc1,DEE,4,2.0000\n\
                          cc1,Oracle,0,23.2200\n";

    #[test]
    fn identical_files_pass_every_cell() {
        let g = parse_cells(GOLDEN);
        let check = compare(&g, &g);
        assert_eq!(check.attempted, 3);
        assert_eq!(check.failed, 0);
        assert_eq!(check.first_mismatch, None);
    }

    #[test]
    fn a_changed_digit_fails_exactly_that_cell() {
        let produced = parse_cells(&GOLDEN.replace("2.0000", "2.0001"));
        let check = compare(&produced, &parse_cells(GOLDEN));
        assert_eq!((check.attempted, check.failed), (3, 1));
        assert_eq!(check.first_mismatch.as_deref(), Some("cc1,DEE,4"));
    }

    #[test]
    fn missing_and_extra_cells_both_fail() {
        let produced = parse_cells(
            "benchmark,model,et,speedup\n\
             cc1,SP,4,1.2345\n\
             cc1,Oracle,0,23.2200\n\
             cc1,EE,4,1.5000\n",
        );
        let check = compare(&produced, &parse_cells(GOLDEN));
        assert_eq!((check.attempted, check.failed), (4, 2));
    }

    #[test]
    fn empty_output_fails_every_golden_cell() {
        let check = compare(&BTreeMap::new(), &parse_cells(GOLDEN));
        assert_eq!((check.attempted, check.failed), (3, 3));
    }
}
