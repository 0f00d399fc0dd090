//! Bench trajectory recording and regression diffing.
//!
//! Every `BENCH_*.json` emission also appends one line to
//! `BENCH_history.jsonl` — the git revision, a UTC timestamp, the host's
//! core count, and the full payload — so the repository accumulates a perf
//! trajectory that survives
//! the snapshot files being overwritten. [`diff_latest`] compares the two
//! most recent records per bench and flags >10% regressions: time-suffixed
//! fields (`*_ms`, `*_us`, `*_ns`) regress upward, rate-like fields
//! (`*speedup`, `*throughput*`, `*_per_s`, `*_mib_s`, `*recovery_rate*`)
//! regress downward;
//! everything else (file counts, sample counts) is configuration, not
//! performance, and is ignored.

use std::io::Write;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use coldboot_dumpio::json::{parse, Json};

/// The shared trajectory file, appended to from the workspace root (the
/// benches emit their snapshots there too).
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Writes the snapshot `BENCH_<name>.json` and appends the same payload,
/// wrapped by `history_entry`, to [`HISTORY_FILE`]. Both paths are
/// relative to the current directory, matching how the bench binaries have
/// always emitted their reports.
pub fn record(name: &str, payload: &Json) -> std::io::Result<()> {
    std::fs::write(format!("BENCH_{name}.json"), payload.render())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY_FILE)?;
    writeln!(file, "{}", history_entry(name, payload).render_compact())
}

/// One trajectory record: the bench name, git revision, UTC timestamp,
/// the number of cores the bench could use (`nproc`, so rates from hosts
/// of different widths are not compared blind), and the payload.
fn history_entry(name: &str, payload: &Json) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("bench", Json::Str(name.to_string())),
        ("git_rev", Json::Str(git_rev())),
        ("utc", Json::Str(utc_now())),
        ("nproc", Json::Int(i64::try_from(nproc).unwrap_or(i64::MAX))),
        ("payload", payload.clone()),
    ])
}

/// One field that got >10% worse between the previous and latest record
/// of a bench.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Bench name (the `bench` field of the history record).
    pub bench: String,
    /// Payload field that regressed.
    pub field: String,
    /// The field's value in the previous record.
    pub previous: f64,
    /// The field's value in the latest record.
    pub latest: f64,
}

impl Regression {
    /// Worsening as a fraction: 0.25 means 25% slower (or 25% less
    /// throughput, for lower-is-worse fields).
    pub fn severity(&self) -> f64 {
        if higher_is_worse(&self.field) {
            self.latest / self.previous - 1.0
        } else {
            1.0 - self.latest / self.previous
        }
    }
}

/// How a payload field's direction is interpreted.
fn higher_is_worse(field: &str) -> bool {
    field.ends_with("_ms") || field.ends_with("_us") || field.ends_with("_ns")
}

fn lower_is_worse(field: &str) -> bool {
    field.ends_with("speedup")
        || field.contains("throughput")
        || field.ends_with("_per_s")
        || field.ends_with("_mib_s")
        || field.contains("recovery_rate")
}

/// Compares two payloads of the same bench; every numeric field of
/// `latest` with a recognized direction that is >10% worse than in
/// `previous` yields a [`Regression`].
pub fn regressions_between(bench: &str, previous: &Json, latest: &Json) -> Vec<Regression> {
    let Json::Obj(fields) = latest else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (field, value) in fields {
        let (Some(new), Some(old)) = (value.as_f64(), previous.get(field).and_then(Json::as_f64))
        else {
            continue;
        };
        if !new.is_finite() || !old.is_finite() || old <= 0.0 {
            continue;
        }
        let regressed = if higher_is_worse(field) {
            new > old * 1.10
        } else if lower_is_worse(field) {
            new < old * 0.90
        } else {
            false
        };
        if regressed {
            out.push(Regression {
                bench: bench.to_string(),
                field: field.clone(),
                previous: old,
                latest: new,
            });
        }
    }
    out
}

/// Reads a history file and diffs the latest record of every bench
/// against its immediate predecessor. Benches with fewer than two records
/// have no baseline and produce nothing. Unparseable lines are skipped —
/// a truncated append must not brick the diff.
pub fn diff_latest(history: &Path) -> std::io::Result<Vec<Regression>> {
    let text = std::fs::read_to_string(history)?;
    let mut per_bench: Vec<(String, Vec<Json>)> = Vec::new();
    for line in text.lines() {
        let Some(entry) = parse(line) else {
            continue;
        };
        let Some(bench) = entry.get("bench").and_then(Json::as_str) else {
            continue;
        };
        let Some(payload) = entry.get("payload") else {
            continue;
        };
        match per_bench.iter_mut().find(|(b, _)| b == bench) {
            Some((_, records)) => records.push(payload.clone()),
            None => per_bench.push((bench.to_string(), vec![payload.clone()])),
        }
    }
    let mut out = Vec::new();
    for (bench, records) in &per_bench {
        if let [.., previous, latest] = records.as_slice() {
            out.extend(regressions_between(bench, previous, latest));
        }
    }
    Ok(out)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let rem = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

/// Proleptic-Gregorian date from days since the Unix epoch (the standard
/// era-decomposition algorithm, valid for any date this repo will see).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (era * 400 + yoe + i64::from(m <= 2), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(cold_ms: f64, speedup: f64) -> Json {
        Json::obj([
            ("files", Json::Int(125)),
            ("cold_parallel_ms", Json::Num(cold_ms)),
            ("parallel_speedup", Json::Num(speedup)),
        ])
    }

    #[test]
    fn history_entries_stamp_nproc_and_keep_the_payload() {
        let entry = history_entry("lint", &payload(100.0, 4.0));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(entry.get("bench").and_then(Json::as_str), Some("lint"));
        assert_eq!(
            entry.get("nproc").and_then(Json::as_i64),
            Some(nproc as i64)
        );
        assert!(entry.get("git_rev").and_then(Json::as_str).is_some());
        assert_eq!(entry.get("payload"), Some(&payload(100.0, 4.0)));
    }

    #[test]
    fn time_fields_regress_upward() {
        let got = regressions_between("lint", &payload(100.0, 4.0), &payload(120.0, 4.0));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].field, "cold_parallel_ms");
        assert!((got[0].severity() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn rate_fields_regress_downward() {
        let got = regressions_between("lint", &payload(100.0, 4.0), &payload(100.0, 3.0));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].field, "parallel_speedup");
    }

    #[test]
    fn ten_percent_threshold_and_counts_are_ignored() {
        // 9% slower: within budget. The `files` count never regresses.
        let got = regressions_between("lint", &payload(100.0, 4.0), &payload(109.0, 4.0));
        assert!(got.is_empty(), "{got:?}");
        let bigger = Json::obj([("files", Json::Int(999))]);
        assert!(regressions_between("lint", &payload(100.0, 4.0), &bigger).is_empty());
    }

    #[test]
    fn diff_latest_uses_last_two_records_per_bench() {
        let dir = std::env::temp_dir().join(format!("coldboot-hist-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_history.jsonl");
        let line = |p: &Json| {
            Json::obj([
                ("bench", Json::Str("lint".into())),
                ("git_rev", Json::Str("abc".into())),
                ("utc", Json::Str("2026-01-01T00:00:00Z".into())),
                ("payload", p.clone()),
            ])
            .render_compact()
        };
        let text = format!(
            "{}\n{}\n{}\nnot json\n",
            line(&payload(500.0, 4.0)), // old outlier: must be ignored
            line(&payload(100.0, 4.0)),
            line(&payload(150.0, 4.0)),
        );
        std::fs::write(&path, text).unwrap();
        let got = diff_latest(&path).unwrap();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].previous, 100.0);
        assert_eq!(got[0].latest, 150.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_throughput_fields_classify_for_the_gate() {
        // BENCH_dumpd.json's headline fields must keep their regression
        // directions: fewer jobs/sec is a regression, and so is a longer
        // p99 queue wait. Guards the suffix classification the cluster
        // bench relies on.
        let doc = |jobs: f64, p99: f64| {
            Json::obj([
                ("jobs_per_s", Json::Num(jobs)),
                ("p99_queue_wait_us", Json::Num(p99)),
            ])
        };
        let slower = regressions_between("dumpd", &doc(1000.0, 5000.0), &doc(800.0, 5000.0));
        assert_eq!(slower.len(), 1, "{slower:?}");
        assert_eq!(slower[0].field, "jobs_per_s");
        let longer_wait = regressions_between("dumpd", &doc(1000.0, 5000.0), &doc(1000.0, 6000.0));
        assert_eq!(longer_wait.len(), 1, "{longer_wait:?}");
        assert_eq!(longer_wait[0].field, "p99_queue_wait_us");
        // Moving both in the *good* direction must not trip the gate.
        let better = regressions_between("dumpd", &doc(1000.0, 5000.0), &doc(1500.0, 2000.0));
        assert!(better.is_empty(), "{better:?}");
    }

    #[test]
    fn recovery_rate_fields_regress_downward() {
        // BENCH_reconstruct.json's headline: a drop in the channel-model
        // recovery rate at a given decay level is a regression the gate
        // must catch; the baseline rate classifies the same way.
        let doc = |rate: f64| {
            Json::obj([
                ("decay_0_22_reconstruct_recovery_rate", Json::Num(rate)),
                ("decay_0_22_baseline_recovery_rate", Json::Num(0.0)),
            ])
        };
        let dropped = regressions_between("reconstruct", &doc(0.9), &doc(0.5));
        assert_eq!(dropped.len(), 1, "{dropped:?}");
        assert_eq!(dropped[0].field, "decay_0_22_reconstruct_recovery_rate");
        assert!(regressions_between("reconstruct", &doc(0.9), &doc(0.95)).is_empty());
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }
}
