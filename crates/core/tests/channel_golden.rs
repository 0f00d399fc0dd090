//! Golden digests of the channel-model search path.
//!
//! Each case builds a seeded, scrambled and decayed capture, mines its
//! candidate scrambler keys, runs a reconstruction-enabled
//! [`StreamSearcher`] over it and folds the whole observable output — every
//! hit, every raw (pre-dedup) recovery, every deduplicated recovery and the
//! search counters, reconstruction tallies included — through 64-bit
//! FNV-1a. The digests are compared against constants computed at a
//! known-good commit, so a change to the channel sweep, verification or
//! the corrector that moves any output bit fails here even where the
//! equivalence tests' inputs do not reach.
//!
//! A failure message names the case and prints counts only, never a digest
//! or anything else derived from key bytes. A change that alters the
//! output on purpose (a recall fix, say) updates the constants and says so.
//!
//! The constants were computed at the commit that verifies each channel
//! span once per search (before the identity-residual bounds), and every
//! later exact change must reproduce them. The inputs are sized to keep
//! each test under 10 s in the test profile on a 2-vCPU host:
//!
//! * default sizes at d = 0.02: 1024-block captures with two AES-256 and
//!   one AES-128 schedule, one whole-image push, seeds 1–3;
//! * d = 0.19 in 7-block windows: one 12-block capture with one AES-256
//!   schedule, candidates mined before decay, seed 1;
//! * exhaustive offsets over AES-192, AES-256 and AES-128 at d = 0.05: one
//!   80-block capture with one schedule of each size, candidates mined
//!   before decay, seed 1.

use std::sync::Arc;

use coldboot::dump::MemoryDump;
use coldboot::keysearch::{
    merge_search_partials, KeySize, RecoveredAesKey, ScheduleHit, SearchConfig, SearchMetrics,
    StreamSearcher,
};
use coldboot::litmus::{mine_candidate_keys, MiningConfig};
use coldboot::reconstruct::ReconstructConfig;
use coldboot_crypto::aes::KeySchedule;
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::retention::{apply_decay, BitChannel};

/// Bytes per scrambled block.
const BLOCK: usize = 64;
/// Blocks that share one pool key.
const STRIPE: usize = 16;
/// Distinct scrambler keys in the pool.
const POOL: usize = 16;
/// Leading zero blocks of a planted schedule's stripe, so its key is mined.
const EXPOSED: usize = 4;

/// One golden case: the capture, the search and the pinned digest.
struct Case {
    name: &'static str,
    seed: u64,
    blocks: usize,
    planted: &'static [KeySize],
    decay: f64,
    sizes: &'static [KeySize],
    exhaustive: bool,
    window_blocks: usize,
    /// Mine candidates from the capture before decay: from d ≈ 0.05 on,
    /// keys mined from the decayed capture are no longer bit-exact, and
    /// from d ≈ 0.10 the scrambler-key litmus finds none at all.
    mine_undecayed: bool,
    digest: u64,
}

const DEFAULT_SIZES: &[KeySize] = &[KeySize::Aes256, KeySize::Aes128];

const fn default_d002(seed: u64, digest: u64) -> Case {
    Case {
        name: "default sizes, d = 0.02",
        seed,
        blocks: 1024,
        planted: &[KeySize::Aes256, KeySize::Aes128, KeySize::Aes256],
        decay: 0.02,
        sizes: DEFAULT_SIZES,
        exhaustive: false,
        window_blocks: 1024,
        mine_undecayed: false,
        digest,
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn hit(&mut self, hit: &ScheduleHit) {
        self.word(hit.block_addr);
        self.bytes(&hit.scrambler_key);
        self.word(hit.key_size.key_len() as u64);
        self.word(hit.window_offset as u64);
        self.word(hit.start_word as u64);
        self.word(u64::from(hit.prediction_distance));
    }

    fn recovery(&mut self, rec: &RecoveredAesKey) {
        self.word(rec.key_size.key_len() as u64);
        self.bytes(&rec.master_key);
        self.word(rec.schedule_addr);
        self.word(u64::from(rec.total_error_bits));
        self.word(u64::from(rec.unexplained_blocks));
        self.word(rec.cost_millinats.map_or(u64::MAX, |c| c));
        let flips = rec
            .flips
            .map_or((u32::MAX, u32::MAX), |f| (f.to_ground, f.anti_ground));
        self.word(u64::from(flips.0));
        self.word(u64::from(flips.1));
        self.hit(&rec.hit);
    }
}

/// A Skylake-shaped scrambler key: in every 16-byte group the second 8
/// bytes are the first 8 XOR a repeating 2-byte mask.
fn pool_key(rng: &mut SplitMix64) -> [u8; BLOCK] {
    let mut key = [0u8; BLOCK];
    for group in key.chunks_exact_mut(16) {
        let base: [u8; 8] = rng.bytes();
        let mask: [u8; 2] = rng.bytes();
        group[..8].copy_from_slice(&base);
        for (i, b) in group[8..].iter_mut().enumerate() {
            *b = base[i] ^ mask[i % 2];
        }
    }
    key
}

/// The scrambled capture of `case` before and after decay, and its
/// ground-state view.
///
/// Content is 40% zero, 5% constant fill, 15% text and 40% random blocks;
/// each planted schedule sits at a random word offset after the exposed
/// zero blocks of its own even-numbered stripe.
fn capture(case: &Case) -> (MemoryDump, MemoryDump, Arc<MemoryDump>) {
    let mut rng = SplitMix64::new(case.seed);
    let pool: Vec<[u8; BLOCK]> = (0..POOL).map(|_| pool_key(&mut rng)).collect();
    let mut image = vec![0u8; case.blocks * BLOCK];
    for block in image.chunks_exact_mut(BLOCK) {
        match rng.range(0..20) {
            0..=7 => block.fill(0),
            8 => block.fill([0xFF, 0x01, 0x55, 0x80, 0xAA, 0xFE][rng.range(0..6) as usize]),
            9..=11 => {
                for b in block.iter_mut() {
                    *b = b'a' + rng.range(0..26) as u8;
                }
            }
            _ => rng.fill(block),
        }
    }
    // Every other stripe may hold a schedule; draw distinct ones.
    let mut slots: Vec<usize> = (0..case.blocks.div_ceil(STRIPE)).step_by(2).collect();
    assert!(
        slots.len() >= case.planted.len(),
        "{}: too few stripes",
        case.name
    );
    for (k, &size) in case.planted.iter().enumerate() {
        let pick = k + rng.range(0..(slots.len() - k) as u64) as usize;
        slots.swap(k, pick);
        let stripe = slots[k];
        let master: [u8; 32] = rng.bytes();
        let schedule = KeySchedule::expand(&master[..size.key_len()])
            .unwrap()
            .to_bytes();
        let start = stripe * STRIPE * BLOCK;
        image[start..start + EXPOSED * BLOCK].fill(0);
        let at = start + EXPOSED * BLOCK + 4 * rng.range(0..16) as usize;
        image[at..at + schedule.len()].copy_from_slice(&schedule);
    }
    for (i, block) in image.chunks_exact_mut(BLOCK).enumerate() {
        for (b, k) in block.iter_mut().zip(&pool[(i / STRIPE) % POOL]) {
            *b ^= k;
        }
    }
    let mut ground = vec![0u8; image.len()];
    rng.fill(&mut ground);
    let clean = MemoryDump::new(image.clone(), 0);
    apply_decay(&mut image, &ground, case.decay, rng.next_u64());
    (
        clean,
        MemoryDump::new(image, 0),
        Arc::new(MemoryDump::new(ground, 0)),
    )
}

/// Runs `case` and returns its digest plus a count-only summary for the
/// failure message.
fn run(case: &Case) -> (u64, String) {
    let (clean, dump, ground) = capture(case);
    let candidates = mine_candidate_keys(
        if case.mine_undecayed { &clean } else { &dump },
        &MiningConfig {
            threads: 2,
            ..MiningConfig::default()
        },
    );
    let config = SearchConfig {
        key_sizes: case.sizes.to_vec(),
        threads: 2,
        exhaustive_word_offsets: case.exhaustive,
        reconstruct: Some(ReconstructConfig::new(
            BitChannel::from_decay_fraction(case.decay),
            ground,
        )),
        ..SearchConfig::default()
    };
    let metrics = Arc::new(SearchMetrics::default());
    let mut searcher = StreamSearcher::new(&candidates, &config).with_metrics(Arc::clone(&metrics));
    for first in (0..dump.len_blocks()).step_by(case.window_blocks) {
        let end = (first + case.window_blocks).min(dump.len_blocks());
        searcher.push(&MemoryDump::new(
            dump.bytes()[first * BLOCK..end * BLOCK].to_vec(),
            dump.block_addr(first),
        ));
    }
    let partial = searcher.finish_partial();
    let raw = partial.recoveries.clone();
    let outcome = merge_search_partials([partial]);

    let mut fnv = Fnv::new();
    fnv.word(candidates.len() as u64);
    fnv.word(outcome.blocks_scanned as u64);
    fnv.word(outcome.hits.len() as u64);
    outcome.hits.iter().for_each(|h| fnv.hit(h));
    fnv.word(raw.len() as u64);
    raw.iter().for_each(|r| fnv.recovery(r));
    fnv.word(outcome.recovered.len() as u64);
    outcome.recovered.iter().for_each(|r| fnv.recovery(r));
    let tallies = [
        metrics.blocks.get(),
        metrics.reused_blocks.get(),
        metrics.hits.get(),
        metrics.verify_rejects.get(),
        metrics.verify_reused.get(),
        metrics.recoveries.get(),
        metrics.decayed_bits.get(),
        metrics.anti_ground_bits.get(),
        metrics.reconstruct_expanded.get(),
        metrics.reconstruct_pruned.get(),
        metrics.corrected_bits.get(),
        metrics.reconstruct_us.count(),
        metrics.engine.items.get(),
    ];
    tallies.iter().for_each(|&t| fnv.word(t));
    let summary = format!(
        "{} candidates, {} hits, {} raw recoveries, {} recoveries, tallies {tallies:?}",
        candidates.len(),
        outcome.hits.len(),
        raw.len(),
        outcome.recovered.len()
    );
    (fnv.0, summary)
}

/// Runs every case and fails, naming each changed case, if a digest moved.
fn check(cases: &[Case]) {
    let mut changed = Vec::new();
    for case in cases {
        let (digest, summary) = run(case);
        if digest != case.digest {
            changed.push(format!("{} (seed {}): {summary}", case.name, case.seed));
        }
    }
    assert!(
        changed.is_empty(),
        "channel-path output changed in {} of {} cases:\n{}",
        changed.len(),
        cases.len(),
        changed.join("\n")
    );
}

#[test]
fn default_sizes_at_light_decay_match_the_golden_digests() {
    check(&[
        default_d002(1, 0xEC7E_F2FC_EA41_6A13),
        default_d002(2, 0xD142_0BCB_1F43_AB85),
        default_d002(3, 0xF7C0_1343_06FD_BA13),
    ]);
}

#[test]
fn seven_block_windows_at_heavy_decay_match_the_golden_digests() {
    check(&[Case {
        name: "default sizes, d = 0.19, 7-block windows",
        seed: 1,
        blocks: 12,
        planted: &[KeySize::Aes256],
        decay: 0.19,
        sizes: DEFAULT_SIZES,
        exhaustive: false,
        window_blocks: 7,
        mine_undecayed: true,
        digest: 0x5B80_A0AA_43BB_2F68,
    }]);
}

#[test]
fn exhaustive_offsets_over_three_sizes_match_the_golden_digests() {
    check(&[Case {
        name: "exhaustive AES-192/256/128, d = 0.05",
        seed: 1,
        blocks: 80,
        planted: &[KeySize::Aes192, KeySize::Aes256, KeySize::Aes128],
        decay: 0.05,
        sizes: &[KeySize::Aes192, KeySize::Aes256, KeySize::Aes128],
        exhaustive: true,
        window_blocks: 80,
        mine_undecayed: true,
        digest: 0x3E51_D214_F348_7DD5,
    }]);
}
