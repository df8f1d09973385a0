//! Host facts stored in every record as metadata, never as metrics:
//! core count, compiler version, commit, lines of Rust, and peak
//! resident memory.

use std::path::Path;

use dee_serve::Json;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process) in MiB, or `None` once the process is gone.
#[must_use]
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's peak resident set to its current one, so the
/// next [`peak_rss_mib`] read covers only what ran in between. Returns
/// false where the kernel does not allow it; the peak then spans the run.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The facts for the record line; `root` is the checkout.
#[must_use]
pub fn facts(root: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let (total, non_test) = rust_lines(root);
    Json::obj(vec![
        ("nproc", Json::from(nproc)),
        ("rustc", Json::str(rustc)),
        ("commit", Json::str(commit(root))),
        ("rust_lines", Json::from(total)),
        ("rust_lines_non_test", Json::from(non_test)),
    ])
}

/// The checked-out commit, read from `.git` without running git (which
/// would search directories above the checkout); `unknown` outside a
/// repository.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Lines of Rust under `crates/`, `src/`, `tests/` and `examples/`: all
/// of them, and the non-test ones (outside `tests/` directories and above
/// each file's first `#[cfg(test)]`).
fn rust_lines(root: &Path) -> (u64, u64) {
    let mut totals = (0, 0);
    for (dir, tests) in [
        ("crates", false),
        ("src", false),
        ("tests", true),
        ("examples", false),
    ] {
        walk(&root.join(dir), tests, &mut totals);
    }
    totals
}

fn walk(dir: &Path, in_tests: bool, totals: &mut (u64, u64)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let tests = in_tests || path.file_name().is_some_and(|n| n == "tests");
            walk(&path, tests, totals);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let lines = text.lines().count() as u64;
            let non_test = if in_tests {
                0
            } else {
                text.lines()
                    .take_while(|l| l.trim() != "#[cfg(test)]")
                    .count() as u64
            };
            totals.0 += lines;
            totals.1 += non_test;
        }
    }
}
