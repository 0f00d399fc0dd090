//! Recovery rate vs. decay: raw-distance search against channel-model
//! reconstruction.
//!
//! Sweeps the charged-bit decay fraction across the transplant regimes
//! the paper's §IV retention data spans — from a hard freeze (≈2%) to a
//! warm, slow transfer (≈30%) — and measures, per level, what fraction of
//! trial dumps each pipeline recovers the exact AES-256 master key from:
//!
//! * **baseline** — the decay-hardened `SearchConfig::deep()` preset,
//!   raw Hamming accept/reject (the historical pipeline).
//! * **reconstruct** — channel-model scoring plus branch-and-bound
//!   key-schedule correction against a ground-state second read.
//!
//! Every trial plants a scrambled AES-256 schedule in a small synthetic
//! image and decays it against a random ground state with the library's
//! own `apply_decay`, so both pipelines see exactly the channel the
//! corrector models. Emits `BENCH_reconstruct.json` via the history
//! recorder; the `*_recovery_rate` fields classify lower-is-worse, so
//! `bench-diff` gates the curve. Timing fields
//! (`decay_*_reconstruct_us`) record mean per-trial search latency.

use std::sync::Arc;
use std::time::Instant;

use coldboot::dump::MemoryDump;
use coldboot::keysearch::{search_dump, SearchConfig};
use coldboot::litmus::CandidateKey;
use coldboot::reconstruct::ReconstructConfig;
use coldboot_bench::history;
use coldboot_crypto::aes::KeySchedule;
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::retention::{apply_decay, BitChannel};
use coldboot_dumpio::json::Json;

/// Charged-bit decay fractions swept, hard freeze → warm transfer.
const DECAY_LEVELS: [f64; 5] = [0.02, 0.08, 0.15, 0.22, 0.30];
/// Independent decay realizations per level (rate denominator).
const TRIALS: u64 = 8;
/// Filler bytes ahead of the planted schedule.
const PRE_BYTES: usize = 192;

fn scrambler_keys() -> Vec<[u8; 64]> {
    (0..4u8)
        .map(|t| core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(t * 53) ^ 0x5A))
        .collect()
}

/// A small image with the expanded schedule planted after `PRE_BYTES` of
/// filler, XOR-scrambled block by block with rotating candidate keys —
/// the same shape the end-to-end attack sees after key mining.
fn build_image(sched: &[u8], keys: &[[u8; 64]]) -> Vec<u8> {
    let mut image = vec![0x11u8; PRE_BYTES];
    image.extend_from_slice(sched);
    while !image.len().is_multiple_of(64) || image.len() < PRE_BYTES + sched.len() + 128 {
        image.push(0x22);
    }
    for (i, chunk) in image.chunks_mut(64).enumerate() {
        let k = &keys[i % keys.len()];
        for (b, kb) in chunk.iter_mut().zip(k.iter()) {
            *b ^= kb;
        }
    }
    image
}

struct Level {
    decay: f64,
    baseline_rate: f64,
    reconstruct_rate: f64,
    baseline_us: f64,
    reconstruct_us: f64,
}

fn run_level(
    decay: f64,
    sched: &[u8],
    master: &[u8],
    keys: &[[u8; 64]],
    candidates: &[CandidateKey],
) -> Level {
    let mut baseline_hits = 0u64;
    let mut reconstruct_hits = 0u64;
    let mut baseline_us = 0.0;
    let mut reconstruct_us = 0.0;
    for trial in 0..TRIALS {
        let mut image = build_image(sched, keys);
        let mut ground = vec![0u8; image.len()];
        SplitMix64::new(decay.to_bits() ^ trial.wrapping_mul(0x9E37_79B9)).fill(&mut ground);
        apply_decay(&mut image, &ground, decay, trial.wrapping_add(1));
        let dump = MemoryDump::new(image, 0);

        let start = Instant::now();
        let base = search_dump(&dump, candidates, &SearchConfig::deep());
        baseline_us += start.elapsed().as_secs_f64() * 1e6;
        baseline_hits += u64::from(base.recovered.iter().any(|r| r.master_key == master));

        let config = SearchConfig {
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(decay),
                Arc::new(MemoryDump::new(ground, 0)),
            )),
            ..SearchConfig::default()
        };
        let start = Instant::now();
        let outcome = search_dump(&dump, candidates, &config);
        reconstruct_us += start.elapsed().as_secs_f64() * 1e6;
        reconstruct_hits += u64::from(outcome.recovered.iter().any(|r| r.master_key == master));
    }
    Level {
        decay,
        baseline_rate: baseline_hits as f64 / TRIALS as f64,
        reconstruct_rate: reconstruct_hits as f64 / TRIALS as f64,
        baseline_us: baseline_us / TRIALS as f64,
        reconstruct_us: reconstruct_us / TRIALS as f64,
    }
}

/// `0.22` → `"0_22"`, a JSON-key-safe rendering of the decay level.
fn level_tag(decay: f64) -> String {
    format!("{decay:.2}").replace('.', "_")
}

fn main() {
    let master: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5A);
    let sched = KeySchedule::expand(&master).expect("valid key").to_bytes();
    let keys = scrambler_keys();
    let candidates: Vec<CandidateKey> = keys
        .iter()
        .map(|k| CandidateKey {
            key: *k,
            observations: 1,
        })
        .collect();

    println!("reconstruct_curve: {TRIALS} trials per decay level");
    println!("decay  baseline  reconstruct  mean reconstruct (ms)");
    let mut pairs = vec![
        ("bench".to_string(), Json::Str("reconstruct_curve".into())),
        ("trials".to_string(), Json::Int(TRIALS as i64)),
    ];
    let mut levels = Vec::new();
    for decay in DECAY_LEVELS {
        let level = run_level(decay, &sched, &master, &keys, &candidates);
        println!(
            "{:>5.2}  {:>8.2}  {:>11.2}  {:>21.2}",
            level.decay,
            level.baseline_rate,
            level.reconstruct_rate,
            level.reconstruct_us / 1e3,
        );
        levels.push(level);
    }
    for level in &levels {
        let tag = level_tag(level.decay);
        pairs.push((
            format!("decay_{tag}_baseline_recovery_rate"),
            Json::Num(level.baseline_rate),
        ));
        pairs.push((
            format!("decay_{tag}_reconstruct_recovery_rate"),
            Json::Num(level.reconstruct_rate),
        ));
        pairs.push((
            format!("decay_{tag}_baseline_us"),
            Json::Num(level.baseline_us),
        ));
        pairs.push((
            format!("decay_{tag}_reconstruct_us"),
            Json::Num(level.reconstruct_us),
        ));
    }
    let payload = Json::Obj(pairs);
    match history::record("reconstruct", &payload) {
        Ok(()) => println!("wrote BENCH_reconstruct.json"),
        Err(e) => eprintln!("could not write BENCH_reconstruct.json: {e}"),
    }
}
