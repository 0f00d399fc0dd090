//! `bench-diff`: flag >10% perf regressions in the bench trajectory.
//!
//! Reads `BENCH_history.jsonl` (first argument overrides the path) and
//! compares the latest record of every bench against its immediate
//! predecessor. Exits 1 when any field got more than 10% worse, so CI can
//! gate on it right after a bench run appended its record.

use std::path::PathBuf;
use std::process::ExitCode;

use coldboot_bench::history::{self, Regression};

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from(history::HISTORY_FILE), PathBuf::from);
    let regressions = match history::diff_latest(&path) {
        Ok(r) => r,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!(
                "bench-diff: {} not found; nothing to compare",
                path.display()
            );
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("bench-diff: failed to read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    if regressions.is_empty() {
        println!("bench-diff: no regressions >10% vs previous records");
        return ExitCode::SUCCESS;
    }
    println!("bench-diff: {} regression(s) >10%:", regressions.len());
    for r in &regressions {
        let Regression {
            bench,
            field,
            previous,
            latest,
        } = r;
        println!(
            "  {bench}.{field}: {previous:.3} -> {latest:.3} ({:+.1}%)",
            r.severity() * 100.0
        );
    }
    ExitCode::FAILURE
}
