//! Regenerates the paper's **attack-performance** numbers (§III-C): memory
//! scanned per unit time by each stage of the attack pipeline, single-core
//! and scaled across cores on the work-stealing scan engine.
//!
//! Two stages are measured separately because their costs differ by orders
//! of magnitude per block:
//!
//! * **mining** — the scrambler-key litmus sweep + consolidation over a
//!   realistic (default-mix) scrambled image, where zero-filled blocks
//!   expose scrambler keys;
//! * **key search** — the AES schedule litmus over a high-entropy image ×
//!   a full 4096-candidate pool, the worst case (nothing early-outs).
//!
//! The paper (2016 hardware + AES-NI): 100 MB per ~2 hours per core; 8 GB
//! in ~21 hours on an 8-core Xeon D1541. We report our software-AES numbers
//! on this machine and the extrapolations in the same units.
//!
//! Usage: `attack_perf [scan-MiB] [candidate-keys] [--json PATH]`
//! (defaults: 2 MiB, 4096 candidates, JSON to `BENCH_scan.json`).
//! The JSON report carries counts and rates only — never key bytes.

use coldboot::attack::{AttackConfig, AttackReport};
use coldboot::dump::MemoryDump;
use coldboot::keysearch::{search_dump, SearchConfig};
use coldboot::litmus::{mine_candidate_keys, CandidateKey, MiningConfig};
use coldboot_bench::table;
use coldboot_bench::workload::{generate_image, WorkloadMix};
use coldboot_crypto::aes::KeySchedule;
use coldboot_dumpio::format::DumpMeta;
use coldboot_dumpio::json::Json;
use coldboot_dumpio::pipeline::{attack_file, ScanControl, DEFAULT_WINDOW_BLOCKS};
use coldboot_dumpio::reader::DumpReader;
use coldboot_dumpio::writer::write_image;
use std::io::BufReader;
use std::time::Instant;

/// Distinct scrambler keys planted in the mining image (one per 64-block
/// stripe, like a key pool addressed by low block-index bits).
const MINING_KEY_POOL: usize = 64;

/// A structured (Skylake-shaped) scrambler key: in each 16-byte group the
/// second 8 bytes are the first 8 XOR a repeating 2-byte mask.
fn structured_key(tag: u8) -> [u8; 64] {
    let mut key = [0u8; 64];
    for g in 0..4 {
        for i in 0..8 {
            let base = tag
                .wrapping_mul(31)
                .wrapping_add((g * 8 + i) as u8)
                .wrapping_mul(113);
            key[g * 16 + i] = base;
            key[g * 16 + 8 + i] = base ^ [0x3C ^ tag, 0xC3][i % 2];
        }
    }
    key
}

struct StageRow {
    threads: usize,
    seconds: f64,
    mib_per_s: f64,
    count: usize,
}

/// Blocks per scrambler-key stripe in the end-to-end image: wide enough
/// that a planted 240-byte AES schedule (plus its verification window)
/// descrambles with a single pool key.
const E2E_STRIPE_BLOCKS: usize = 16;

/// The end-to-end stage: a CBDF capture file on disk, attacked once to
/// warm up and check that the planted key comes back, then once timed.
/// Returns the timed run's seconds and report.
fn e2e_attack_stage(e2e_mib: usize) -> (f64, AttackReport) {
    let mut image = generate_image(e2e_mib << 20, WorkloadMix::default(), 7);
    let master: Vec<u8> = (0..32).map(|i| (i * 11 + 5) as u8).collect();
    let schedule = KeySchedule::expand(&master).expect("AES-256").to_bytes();
    // Plant mid-stripe in the back half with whole-stripe margins.
    let plant = (image.len() / 2) + E2E_STRIPE_BLOCKS * 64 + 256;
    image[plant..plant + schedule.len()].copy_from_slice(&schedule);
    for (i, block) in image.chunks_mut(64).enumerate() {
        let key = structured_key(((i / E2E_STRIPE_BLOCKS) % MINING_KEY_POOL) as u8);
        for (b, k) in block.iter_mut().zip(key.iter()) {
            *b ^= k;
        }
    }
    let path =
        std::env::temp_dir().join(format!("coldboot-attack-perf-{}.cbdf", std::process::id()));
    let cbdf = write_image(
        Vec::new(),
        DumpMeta::for_image(0, image.len() as u64),
        &image,
    )
    .expect("encode capture file");
    std::fs::write(&path, cbdf).expect("write capture file");

    let config = AttackConfig {
        mining_prefix_bytes: (2 << 20).min(image.len()),
        ..AttackConfig::default()
    };
    let run = || -> AttackReport {
        let file = std::fs::File::open(&path).expect("open capture file");
        let mut reader = DumpReader::new(BufReader::new(file)).expect("header");
        attack_file(
            &mut reader,
            &config,
            DEFAULT_WINDOW_BLOCKS,
            &ScanControl::new(),
        )
        .expect("attack pass")
    };
    let warm = run();
    assert!(
        warm.outcome
            .recovered
            .iter()
            .any(|r| r.master_key == master),
        "end-to-end attack must recover the planted AES-256 key"
    );
    let t = Instant::now();
    let report = run();
    let seconds = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    (seconds, report)
}

fn thread_counts(max_threads: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [1usize, 2, 4, max_threads]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    counts.dedup();
    counts
}

fn print_stage(title: &str, count_header: &str, rows: &[StageRow]) {
    let single = rows.first().map_or(1.0, |r| r.mib_per_s);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.2}", r.seconds),
                format!("{:.3}", r.mib_per_s),
                format!("{:.2}x", r.mib_per_s / single),
                r.count.to_string(),
            ]
        })
        .collect();
    table::print(
        title,
        &["threads", "seconds", "MiB/s", "speedup", count_header],
        &table_rows,
    );
}

fn stage_json(rows: &[StageRow], count_field: &'static str) -> Json {
    let single = rows.first().map_or(1.0, |r| r.mib_per_s);
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("threads", Json::Int(r.threads as i64)),
                    ("seconds", Json::Num(r.seconds)),
                    ("mib_per_s", Json::Num(r.mib_per_s)),
                    ("speedup_vs_single_thread", Json::Num(r.mib_per_s / single)),
                    (count_field, Json::Int(r.count as i64)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let mut scan_mib: usize = 2;
    let mut n_candidates: usize = 4096;
    let mut json_path = String::from("BENCH_scan.json");
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = args.next().unwrap_or(json_path);
        } else if let Ok(v) = arg.parse::<usize>() {
            match positional {
                0 => scan_mib = v,
                _ => n_candidates = v,
            }
            positional += 1;
        } else {
            eprintln!("usage: attack_perf [scan-MiB] [candidate-keys] [--json PATH]");
            std::process::exit(2);
        }
    }
    let mining_mib = (scan_mib * 8).max(1);
    let max_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let counts = thread_counts(max_threads);

    // Stage 1: scrambler-key mining over a realistic scrambled image.
    // Default-mix content (40% zeros) XORed block-wise with a pool of
    // structured keys: the zero blocks expose the pool, exactly the dump
    // prefix the real attack mines.
    let mut mining_image = generate_image(mining_mib << 20, WorkloadMix::default(), 3);
    for (i, block) in mining_image.chunks_mut(64).enumerate() {
        let key = structured_key((i % MINING_KEY_POOL) as u8);
        for (b, k) in block.iter_mut().zip(key.iter()) {
            *b ^= k;
        }
    }
    let mining_dump = MemoryDump::new(mining_image, 0);
    let mut mining_rows = Vec::new();
    for &threads in &counts {
        let config = MiningConfig {
            threads,
            ..MiningConfig::default()
        };
        let t = Instant::now();
        let found = mine_candidate_keys(&mining_dump, &config);
        let seconds = t.elapsed().as_secs_f64();
        mining_rows.push(StageRow {
            threads,
            seconds,
            mib_per_s: mining_mib as f64 / seconds,
            count: found.len(),
        });
    }
    print_stage(
        &format!("Scrambler-key mining throughput ({mining_mib} MiB default-mix scrambled image)"),
        "keys",
        &mining_rows,
    );

    // Stage 2: AES key search over a high-entropy image with a full
    // candidate pool — the worst case for the scan, since nothing
    // early-outs at the block level.
    let image = generate_image(
        scan_mib << 20,
        WorkloadMix {
            zero: 0.0,
            constant: 0.0,
            text: 0.0,
        },
        1,
    );
    let dump = MemoryDump::new(image, 0);
    let candidates: Vec<CandidateKey> = (0..n_candidates)
        .map(|i| CandidateKey {
            key: core::array::from_fn(|j| ((i * 31 + j * 7) % 251) as u8),
            observations: 1,
        })
        .collect();
    let mut search_rows = Vec::new();
    for &threads in &counts {
        let config = SearchConfig {
            threads,
            ..Default::default()
        };
        let t = Instant::now();
        let outcome = search_dump(&dump, &candidates, &config);
        let seconds = t.elapsed().as_secs_f64();
        search_rows.push(StageRow {
            threads,
            seconds,
            mib_per_s: scan_mib as f64 / seconds,
            count: outcome.hits.len(),
        });
    }
    print_stage(
        &format!(
            "Attack scan throughput ({scan_mib} MiB high-entropy dump, {n_candidates} candidate keys)"
        ),
        "false hits",
        &search_rows,
    );

    // Stage 3: the full capture-file → recovered-key pipeline on disk.
    let e2e_mib = (scan_mib * 4).max(1);
    let (e2e_s, e2e_report) = e2e_attack_stage(e2e_mib);
    let e2e_mib_s = e2e_mib as f64 / e2e_s;
    table::print(
        &format!("End-to-end capture-file attack ({e2e_mib} MiB CBDF)"),
        &["seconds", "MiB/s", "GB/s", "recovered"],
        &[vec![
            format!("{e2e_s:.2}"),
            format!("{e2e_mib_s:.3}"),
            format!("{:.4}", e2e_mib_s / 1024.0),
            e2e_report.outcome.recovered.len().to_string(),
        ]],
    );

    let single_core_mib_s = search_rows.first().map_or(1.0, |r| r.mib_per_s);
    let hours_100mb = 100.0 / (single_core_mib_s * 3600.0);
    let hours_8gb_8core = (8.0 * 1024.0) / (single_core_mib_s * 8.0 * 3600.0);
    println!("\nExtrapolations at the single-core key-search rate:");
    println!("  100 MB on one core: {hours_100mb:.2} hours (paper: ~2 hours with AES-NI)");
    println!("  8 GB on 8 cores:    {hours_8gb_8core:.2} hours (paper: ~21 hours)");
    println!("  (the task is embarrassingly parallel across blocks, as the paper notes)");

    let doc = Json::obj([
        ("report", Json::Str("attack_perf scan throughput".into())),
        (
            "config",
            Json::obj([
                ("mining_mib", Json::Int(mining_mib as i64)),
                ("search_mib", Json::Int(scan_mib as i64)),
                ("candidate_keys", Json::Int(n_candidates as i64)),
                ("max_threads", Json::Int(max_threads as i64)),
            ]),
        ),
        ("mining", stage_json(&mining_rows, "keys_mined")),
        ("keysearch", stage_json(&search_rows, "false_hits")),
        // The end-to-end rate sits at the top level so bench-diff gates
        // it (nested stage arrays are informational only).
        ("attack_e2e_mib", Json::Int(e2e_mib as i64)),
        ("attack_e2e_mib_per_s", Json::Num(e2e_mib_s)),
        (
            "attack_e2e_recovered_keys",
            Json::Int(e2e_report.outcome.recovered.len() as i64),
        ),
        (
            "extrapolations",
            Json::obj([
                ("hours_100mb_one_core", Json::Num(hours_100mb)),
                ("hours_8gb_8_cores", Json::Num(hours_8gb_8core)),
            ]),
        ),
    ]);
    // The default emission lands in the shared trajectory; a custom --json
    // path is experiment scratch and stays out of the history.
    let written = if json_path == "BENCH_scan.json" {
        coldboot_bench::history::record("scan", &doc)
    } else {
        std::fs::write(&json_path, doc.render())
    };
    match written {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
}
