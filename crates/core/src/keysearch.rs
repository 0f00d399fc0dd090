//! The AES key litmus test and scrambled-memory key search (paper §III-C).
//!
//! The problem: an expanded AES-256 schedule spans four 64-byte blocks, and
//! each block may be scrambled with a different one of 4096 keys — brute
//! forcing the combination is 2⁴⁸. The paper's insight: **at least three
//! consecutive round keys always lie wholly inside a single 64-byte
//! block**, so one descrambled block is enough to recognize a schedule.
//! Take `Nk` words from the block at a guessed position, run the key
//! expansion recurrence, and check the prediction against the adjacent
//! bytes of the *same block*. Only then extend to neighbouring blocks
//! (guessing their scrambler keys independently) to confirm, and run the
//! recurrence backwards to the master key.
//!
//! All comparisons use Hamming distance, making the search resilient to
//! the bit decay incurred while the frozen DIMM was in transit.

use crate::dump::MemoryDump;
use crate::litmus::CandidateKey;
use crate::reconstruct::{
    correct_schedule, residual_budget_pair, residual_kind, Correction, FlipCounts,
    ReconstructConfig, ReconstructTally, ScheduleObservation, RES_IDENT, RES_RCON, RES_SUB,
};
use crate::scan::{self, EngineMetrics, ScanOptions};
use coldboot_crypto::aes::key_schedule::{expansion_step, rcon};
// Re-exported because `ScheduleHit`/`RecoveredAesKey` expose it in public
// fields: downstream crates (the dumpio wire codec, the cluster
// coordinator) can name the type without a direct crypto dependency.
pub use coldboot_crypto::aes::key_schedule::KeySize;
use coldboot_crypto::aes::sbox::{rot_word, sub_word};
use coldboot_dram::retention::BitChannel;
use coldboot_dram::BLOCK_BYTES;
use coldboot_metrics::{Counter, Histogram, MetricsRegistry, Span};
use std::array::from_fn;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// How many bytes of a block a single litmus trial covers (three
/// consecutive round keys).
const TEST_SPAN: usize = 48;

/// Blocks per stolen batch during the scan. Each block costs
/// `candidates × key_sizes` litmus runs, so batches are kept small enough
/// that hit-dense regions (schedules, constant pools) rebalance across
/// workers.
const SEARCH_BATCH_BLOCKS: usize = 16;

/// Configuration for the scrambled-memory AES key search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Key sizes to search for, tried in the listed order per block.
    pub key_sizes: Vec<KeySize>,
    /// Hamming budget (bits) for the single-block expansion check.
    pub block_tolerance_bits: u32,
    /// Worker threads for the scan. Defaults to every available core
    /// ([`scan::default_threads`]); set `1` to run inline on the caller's
    /// thread. The result is byte-identical for any value — the scan engine
    /// merges worker output in block order.
    pub threads: usize,
    /// Restrict the scan to this physical-address range (cost control on
    /// very large dumps); `None` scans everything.
    pub region: Option<Range<u64>>,
    /// Try expansion windows at every word position (resilient, at about
    /// 2.5× the scan cost on a high-entropy image) instead of only at
    /// round-key boundaries.
    pub exhaustive_word_offsets: bool,
    /// During verification, tolerate up to this many schedule blocks whose
    /// scrambler key is absent from the candidate pool (no candidate
    /// descrambles them anywhere near the prediction). A key id can be
    /// missing when no zero-filled block with that id existed in the dump.
    pub max_unexplained_blocks: u32,
    /// Channel-aware scoring against a ground read ([`crate::reconstruct`]).
    /// `None` (the default) is raw mode: the Hamming-distance litmus
    /// sweep, with each hit's span verified by the channel verifier under
    /// a fixed symmetric channel (decay fraction 0.02, no branch-and-bound
    /// pops) in which the dump is its own ground view.
    /// `Some` replaces the litmus scan with residual-channel scoring and
    /// verifies under the configured decay channel against the ground
    /// read, opening the heavy-decay regimes where raw distance recovers
    /// nothing.
    pub reconstruct: Option<ReconstructConfig>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            key_sizes: vec![KeySize::Aes256, KeySize::Aes128],
            // Must stay below the structural floor of the AES-256 position
            // degeneracy: a wrong-Rcon guess differs from the true
            // prediction by at least popcount(Rcon_a ^ Rcon_b) x 4 >= 8
            // bits, so 6 rejects them while tolerating ~3 decayed bits.
            block_tolerance_bits: 6,
            threads: scan::default_threads(),
            region: None,
            exhaustive_word_offsets: false,
            max_unexplained_blocks: 1,
            reconstruct: None,
        }
    }
}

impl SearchConfig {
    /// A slower, decay-hardened configuration: about 500× the scan cost of
    /// the default on a high-entropy image (1 MiB, 700 random candidates,
    /// one thread of a 2-vCPU x86-64 host: 24–27 s against 0.05–0.11 s),
    /// since at its tolerance nearly every (candidate, offset) passes the
    /// sweep's residual bound. In exchange it tolerates several bit flips
    /// inside the litmus window itself, so a schedule with no clean window
    /// still yields hits. Only the block tolerance differs from the default:
    /// verification, which corrects decayed schedule words from the
    /// schedule's redundancy, is the same. On the −25 °C / 15 s transfer
    /// of a retentive module (≈1.6 % bit error) the default search
    /// recovers one of the two XTS schedules and this preset both.
    ///
    /// The wider block tolerance admits the structurally-misplaced matches
    /// the default tolerance excludes, so this preset leans on span
    /// verification and overlap-aware deduplication to sort them out.
    pub fn deep() -> Self {
        Self {
            block_tolerance_bits: 20,
            ..Self::default()
        }
    }
}

/// Search-stage observability handles: counts only, never key bytes.
///
/// Attached to a [`StreamSearcher`] via [`StreamSearcher::with_metrics`];
/// `SearchConfig` stays a plain description of *what* to search. The
/// per-block litmus loop ([`aes_block_litmus_words`]) gains no per-item
/// work — tallies are derived from batch-level results the searcher
/// already holds.
#[derive(Debug)]
pub struct SearchMetrics {
    /// Region blocks searched, swept or reused (`search_blocks`).
    pub blocks: Arc<Counter>,
    /// Region blocks whose hits were copied from an earlier block with
    /// the same bytes instead of swept (`search_reused_blocks`): blocks
    /// equal to a candidate key. The engine's `search_scan_items` counts
    /// the swept blocks, so the two add up to `search_blocks`.
    pub reused_blocks: Arc<Counter>,
    /// Single-block schedule hits (`search_hits`).
    pub hits: Arc<Counter>,
    /// Hits whose full-schedule verification failed
    /// (`search_verify_rejects`).
    pub verify_rejects: Arc<Counter>,
    /// Hits that took the outcome of an earlier verification of the same
    /// schedule span instead of running their own (`search_verify_reused`);
    /// see [`StreamSearcher`].
    pub verify_reused: Arc<Counter>,
    /// Verification runs that reached the branch-and-bound corrector
    /// (`search_corrector_runs`): runs whose span passed the residual gate
    /// that opens verification. At most the run count
    /// (`search_reconstruct_us`'s sample count).
    pub corrector_runs: Arc<Counter>,
    /// Verifications that produced a recovery, before overlap dedup
    /// (`search_recoveries`).
    pub recoveries: Arc<Counter>,
    /// Decay bits absorbed across accepted recoveries
    /// (`search_decayed_bits`). With reconstruction enabled this counts
    /// only toward-ground flips — the damage the channel can actually
    /// explain; anti-ground mismatches land in
    /// [`SearchMetrics::anti_ground_bits`].
    pub decayed_bits: Arc<Counter>,
    /// Anti-ground mismatch bits across accepted recoveries
    /// (`search_anti_ground_bits`) — read-noise events the decay channel
    /// deems near-impossible. Only advances with reconstruction enabled.
    pub anti_ground_bits: Arc<Counter>,
    /// Branch-and-bound nodes expanded during reconstruction
    /// (`search_reconstruct_expanded`).
    pub reconstruct_expanded: Arc<Counter>,
    /// Branch-and-bound child candidates pruned during reconstruction
    /// (`search_reconstruct_pruned`).
    pub reconstruct_pruned: Arc<Counter>,
    /// Observation bits flipped back by accepted corrections
    /// (`search_corrected_bits`).
    pub corrected_bits: Arc<Counter>,
    /// Verification latency in microseconds (`search_reconstruct_us`),
    /// one sample per verification run, so `count() + verify_reused ==
    /// hits`. Observed on the verify workers: spans verify in parallel, so
    /// a job's sum of samples can exceed its wall time.
    pub reconstruct_us: Arc<Histogram>,
    /// Scan-engine counters for the block sweep (`search_scan_*`);
    /// `search_scan_items` counts swept blocks only.
    pub engine: Arc<EngineMetrics>,
}

impl Default for SearchMetrics {
    fn default() -> Self {
        Self {
            blocks: Arc::default(),
            reused_blocks: Arc::default(),
            hits: Arc::default(),
            verify_rejects: Arc::default(),
            verify_reused: Arc::default(),
            corrector_runs: Arc::default(),
            recoveries: Arc::default(),
            decayed_bits: Arc::default(),
            anti_ground_bits: Arc::default(),
            reconstruct_expanded: Arc::default(),
            reconstruct_pruned: Arc::default(),
            corrected_bits: Arc::default(),
            reconstruct_us: Arc::new(Histogram::latency_us()),
            engine: Arc::default(),
        }
    }
}

impl SearchMetrics {
    /// Registers (or re-attaches to) the search counters in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(Self {
            blocks: registry.counter("search_blocks"),
            reused_blocks: registry.counter("search_reused_blocks"),
            hits: registry.counter("search_hits"),
            verify_rejects: registry.counter("search_verify_rejects"),
            verify_reused: registry.counter("search_verify_reused"),
            corrector_runs: registry.counter("search_corrector_runs"),
            recoveries: registry.counter("search_recoveries"),
            decayed_bits: registry.counter("search_decayed_bits"),
            anti_ground_bits: registry.counter("search_anti_ground_bits"),
            reconstruct_expanded: registry.counter("search_reconstruct_expanded"),
            reconstruct_pruned: registry.counter("search_reconstruct_pruned"),
            corrected_bits: registry.counter("search_corrected_bits"),
            reconstruct_us: registry.latency_histogram("search_reconstruct_us"),
            engine: EngineMetrics::register(registry, "search"),
        })
    }
}

/// A single-block litmus hit: this block, descrambled with this key, looks
/// like the middle of an AES key schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleHit {
    /// Physical address of the block.
    pub block_addr: u64,
    /// The scrambler key that descrambled it.
    pub scrambler_key: [u8; BLOCK_BYTES],
    /// Key size of the matched schedule.
    pub key_size: KeySize,
    /// Byte offset of the matched window within the block (0..=16).
    pub window_offset: usize,
    /// Absolute word index of the window within the schedule.
    pub start_word: usize,
    /// Hamming distance of the in-block prediction check.
    pub prediction_distance: u32,
}

impl ScheduleHit {
    /// Physical address where the hit's schedule starts: the window's
    /// address minus `start_word` words. `None` when that would fall
    /// below address 0.
    pub fn schedule_addr(&self) -> Option<u64> {
        let window_addr = self.block_addr + self.window_offset as u64;
        window_addr.checked_sub(self.start_word as u64 * 4)
    }
}

/// A fully recovered AES key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredAesKey {
    /// The key size.
    pub key_size: KeySize,
    /// The recovered master (cipher) key.
    pub master_key: Vec<u8>,
    /// Physical address where the expanded schedule starts.
    pub schedule_addr: u64,
    /// Total Hamming distance between the re-expanded schedule and the
    /// (best-key-descrambled) dump contents — the decay damage absorbed.
    /// With reconstruction enabled this is the sum of both directional
    /// flip counts in [`RecoveredAesKey::flips`].
    pub total_error_bits: u32,
    /// Schedule blocks whose scrambler key was absent from the candidate
    /// pool (excluded from the error sum).
    pub unexplained_blocks: u32,
    /// Channel cost of the accepted schedule in milli-nats. `Some` only
    /// when the search ran with reconstruction enabled; `None` keeps the
    /// reconstruction-off wire format byte-identical to historical
    /// output.
    pub cost_millinats: Option<u64>,
    /// Per-direction decay-damage accounting (toward-ground vs
    /// anti-ground mismatches). `Some` only with reconstruction enabled;
    /// the symmetric `total_error_bits` overcounts damage where observed
    /// bits agree with the ground state, which these counts separate.
    pub flips: Option<FlipCounts>,
    /// The hit that led to this recovery.
    pub hit: ScheduleHit,
}

/// Outcome of a search: raw hits and verified recoveries.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// All single-block hits (including duplicates from different blocks of
    /// the same schedule).
    pub hits: Vec<ScheduleHit>,
    /// Verified, deduplicated key recoveries.
    pub recovered: Vec<RecoveredAesKey>,
    /// Number of blocks scanned.
    pub blocks_scanned: usize,
}

/// The mergeable partial form of a search: what one shard of a sharded
/// scan contributes before cross-shard deduplication.
///
/// `recoveries` holds every successful verification **in verification
/// order and before overlap dedup**. Dedup ([`merge_recovery`]) is
/// order-sensitive when overlap chains span a shard boundary (a loser can
/// evict an entry that a later recovery would not have overlapped), so a
/// shard must not pre-deduplicate: [`merge_search_partials`] replays the
/// fold over the concatenated raw sequences, which — because shards in
/// block order concatenate to the exact global verification order — makes
/// the merged outcome byte-identical to a single whole-image search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchPartial {
    /// Single-block hits, in global block order within the shard.
    pub hits: Vec<ScheduleHit>,
    /// Successful verifications in verification order, before dedup.
    pub recoveries: Vec<RecoveredAesKey>,
    /// Blocks this shard scanned (its region-filtered count).
    pub blocks_scanned: usize,
}

/// Merges per-shard [`SearchPartial`]s (in shard block order) into the
/// final [`SearchOutcome`], byte-identical to a single-pass search over
/// the whole image.
///
/// Hits concatenate (shards are disjoint block ranges in order, so this is
/// the global block order); recoveries replay the single-pass dedup fold;
/// block counts sum.
pub fn merge_search_partials<I>(parts: I) -> SearchOutcome
where
    I: IntoIterator<Item = SearchPartial>,
{
    let mut hits = Vec::new();
    let mut recovered = Vec::new();
    let mut blocks_scanned = 0usize;
    for part in parts {
        hits.extend(part.hits);
        for rec in part.recoveries {
            merge_recovery(&mut recovered, rec);
        }
        blocks_scanned += part.blocks_scanned;
    }
    recovered.sort_by_key(|r| r.schedule_addr);
    SearchOutcome {
        hits,
        recovered,
        blocks_scanned,
    }
}

/// One passing position of the AES block litmus test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LitmusMatch {
    /// Byte offset of the window within the block (0..=16).
    pub window_offset: usize,
    /// Guessed absolute word index of the window within the schedule.
    pub start_word: usize,
    /// Hamming distance of the prediction check.
    pub distance: u32,
}

/// Runs the AES key litmus test on one descrambled 64-byte block.
///
/// Tries every window offset `o ∈ {0,4,8,12,16}` and every guessed schedule
/// word position, runs the expansion recurrence, and returns **every**
/// `(window_offset, start_word)` whose prediction matches the adjacent
/// bytes within `tolerance` bits.
///
/// All passing positions are returned (not just the best) because the
/// AES-256 recurrence only pins the absolute round position when the
/// checked extension crosses an `i % Nk == 0` (Rcon) step; other phases
/// match at several equivalent positions and only full-schedule
/// verification can tell them apart.
///
/// With `exhaustive` false, only round-key-aligned word positions are tried
/// (the paper's "12 possible expansions" for AES-256 — plus the round-0
/// window); `true` tries every word index.
pub fn aes_block_litmus(
    block: &[u8; BLOCK_BYTES],
    key_size: KeySize,
    tolerance: u32,
    exhaustive: bool,
) -> Vec<LitmusMatch> {
    aes_block_litmus_words(&block_words(block), key_size, tolerance, exhaustive)
}

/// Word-level form of [`aes_block_litmus`], used by the scan so blocks and
/// candidate keys can be parsed to words once and XORed per pair.
///
/// It works on fixed-size arrays, and the first predicted word is checked
/// through per-phase precomputation: for a fixed window, `expansion_step`
/// only depends on the guessed position through its Rcon phase, so one
/// `sub_word` pair covers every guess at an offset. The scan runs its
/// per-offset body ([`litmus_offset`]) only for the (candidate, key size,
/// offset) triples that pass the residual bound ([`SlicedKeys`]).
pub fn aes_block_litmus_words(
    block_words: &[u32; BLOCK_BYTES / 4],
    key_size: KeySize,
    tolerance: u32,
    exhaustive: bool,
) -> Vec<LitmusMatch> {
    let nk = key_size.nk();
    let mut matches = Vec::new();
    for oi in 0..LITMUS_OFFSETS {
        let span = &block_words[oi..oi + TEST_SPAN / 4];
        let filter = PhaseFilter::new(span[0] ^ span[nk], span[nk - 1]);
        // If every phase already exceeds the budget on the first word, no
        // position at this offset can match: skip the position loop. This
        // bail fires on ~99% of non-schedule offsets.
        if !filter.viable(key_size, tolerance) {
            continue;
        }
        litmus_offset(
            span,
            key_size,
            tolerance,
            exhaustive,
            oi * 4,
            filter,
            &mut matches,
        );
    }
    matches
}

/// Number of window offsets the litmus tries per block
/// (`o ∈ {0,4,8,12,16}` bytes — word index `0..=4`).
const LITMUS_OFFSETS: usize = (BLOCK_BYTES - TEST_SPAN) / 4 + 1;

/// First-word phase distances for one (descrambled block, window offset).
///
/// The first extension word is `span[0] ^ f(i, span[nk-1])` where `f`
/// depends on the guessed absolute index `i` only through its phase:
///
/// ```text
/// i % nk == 0          -> sub_word(rot_word(prev)) ^ rcon(i/nk)
/// i % nk == 4 (nk > 6) -> sub_word(prev)
/// otherwise            -> prev
/// ```
///
/// so these four numbers cover every position guess at an offset. The
/// batched sweep computes it only for the triples that pass its residual
/// bound ([`SlicedKeys`]).
#[derive(Debug, Clone, Copy)]
struct PhaseFilter {
    d_rcon_low: u32,
    t_rcon_hi: u8,
    d_sub: u32,
    d_id: u32,
}

impl PhaseFilter {
    /// Builds the filter from `target = span[0] ^ span[nk]` and
    /// `prev = span[nk - 1]`.
    #[inline]
    fn new(target: u32, prev: u32) -> Self {
        let t_rcon = target ^ sub_word(rot_word(prev));
        Self {
            d_rcon_low: (t_rcon & 0x00FF_FFFF).count_ones(),
            t_rcon_hi: (t_rcon >> 24) as u8,
            d_sub: (target ^ sub_word(prev)).count_ones(),
            d_id: (target ^ prev).count_ones(),
        }
    }

    /// Whether any phase of `key_size` could still meet the budget on the
    /// first word. Only AES-256 has the `SubWord` phase (`nk > 6`).
    #[inline]
    fn viable(&self, key_size: KeySize, tolerance: u32) -> bool {
        self.d_rcon_low <= tolerance
            || (key_size.nk() > 6 && self.d_sub <= tolerance)
            || self.d_id <= tolerance
    }
}

/// Runs the litmus position loop for one window offset of a descrambled
/// block, appending matches in `start_word` order.
///
/// `span` is the `TEST_SPAN` window starting at byte `offset`; `filter`
/// must be `PhaseFilter::new(span[0] ^ span[nk], span[nk - 1])`. Shared by
/// [`aes_block_litmus_words`] and the batched candidate sweep so both
/// produce identical matches by construction.
#[allow(clippy::too_many_arguments)]
fn litmus_offset(
    span: &[u32],
    key_size: KeySize,
    tolerance: u32,
    exhaustive: bool,
    offset: usize,
    filter: PhaseFilter,
    matches: &mut Vec<LitmusMatch>,
) {
    let nk = key_size.nk();
    let extend_words = TEST_SPAN / 4 - nk;
    let total_words = key_size.schedule_words();
    let step = if exhaustive { 1 } else { 4 };
    let observed = &span[nk..];
    let prev = span[nk - 1];
    let mut start_word = 0usize;
    while start_word + TEST_SPAN / 4 <= total_words {
        let i = start_word + nk;
        let d0 = if i.is_multiple_of(nk) {
            if filter.d_rcon_low > tolerance {
                start_word += step;
                continue;
            }
            filter.d_rcon_low + (filter.t_rcon_hi ^ (rcon(i / nk) >> 24) as u8).count_ones()
        } else if nk > 6 && i % nk == 4 {
            filter.d_sub
        } else {
            filter.d_id
        };
        if d0 > tolerance {
            start_word += step;
            continue;
        }
        // Survived the cheap filter; run the remaining extension with a
        // rolling window (slot e mod nk holds w[start+e] until it is
        // overwritten by the predicted w[start+nk+e]).
        let first = span[0] ^ expansion_step(key_size, i, prev);
        let mut dist = d0;
        debug_assert_eq!(dist, (first ^ observed[0]).count_ones());
        let mut rolling = [0u32; 8];
        rolling[..nk].copy_from_slice(&span[..nk]);
        rolling[0] = first;
        let mut prev_word = first;
        let mut ok = true;
        for e in 1..extend_words {
            let temp = expansion_step(key_size, start_word + nk + e, prev_word);
            let predicted = rolling[e % nk] ^ temp;
            dist += (predicted ^ observed[e]).count_ones();
            if dist > tolerance {
                ok = false;
                break;
            }
            rolling[e % nk] = predicted;
            prev_word = predicted;
        }
        if ok {
            matches.push(LitmusMatch {
                window_offset: offset,
                start_word,
                distance: dist,
            });
        }
        start_word += step;
    }
}

/// Verifies a hit against the rest of its schedule and recovers the master
/// key.
///
/// The hit only places a span, `(schedule_addr(), key_size)`: the channel
/// verifier picks each overlapped block's scrambler candidate by its
/// within-block recurrence residual, corrects the assembled span from the
/// key schedule's redundancy, and accepts under the channel's span budget
/// (see `verify_channel`). In raw mode (`config.reconstruct` off) the
/// channel is a fixed symmetric one (`RAW_DECAY_FRACTION`,
/// `RAW_WORK_BUDGET`), with the dump as its own ground view; with
/// reconstruction on it is the configured channel and ground read.
pub fn verify_and_recover(
    dump: &MemoryDump,
    candidates: &[CandidateKey],
    hit: &ScheduleHit,
    config: &SearchConfig,
) -> Option<RecoveredAesKey> {
    verify_and_recover_with(
        dump,
        candidates,
        hit,
        config,
        &mut ReconstructTally::default(),
    )
}

/// [`verify_and_recover`] with an explicit work tally: branch-and-bound
/// counters accumulate into `tally`.
///
/// The outcome depends on the hit only through its span,
/// `(schedule_addr(), key_size)`, apart from the `hit` field it is
/// returned with.
pub fn verify_and_recover_with(
    dump: &MemoryDump,
    candidates: &[CandidateKey],
    hit: &ScheduleHit,
    config: &SearchConfig,
    tally: &mut ReconstructTally,
) -> Option<RecoveredAesKey> {
    let pool = CandidatePool::new(candidates, &[hit.key_size]);
    verify_hit(dump, &pool, hit, config, tally)
}

/// The charged-bit decay fraction of raw mode's verification channel.
///
/// Raw mode has no ground read, so the dump serves as its own ground view
/// and every mismatch is priced as a decay flip: the channel is symmetric,
/// and this fraction sets its per-bit price and its span budget (about
/// 46 bits over a fully counted AES-256 schedule). It is a constant, not
/// a capture's decay estimate, so streamed and in-memory searches verify
/// alike: CBDF metadata is not always there, and where it is it may
/// describe a room-temperature capture. At 0.02 the budget sits well
/// above the 7–15 bits a true schedule carries after the paper's
/// −25 °C / 5 s transfer (~0.5 % bit error) and above most of the 15–37
/// at 1.5 %.
const RAW_DECAY_FRACTION: f64 = 0.02;

/// The corrector's work budget in raw mode: 0, so verification runs the
/// corrector's roots and its residual descent but pops no
/// branch-and-bound node. At raw mode's light decay the descent-polished
/// windows reach the true schedule: the default budget gave the same
/// both-key recall on the −25 °C volume scenarios, while every span it
/// rejects pops up to [`crate::reconstruct::STALL_LIMIT`] nodes first.
const RAW_WORK_BUDGET: u32 = 0;

/// Raw mode's verification channel: [`RAW_DECAY_FRACTION`] with
/// [`RAW_WORK_BUDGET`]. Its `ground` is empty and never read, because raw
/// verification passes the dump itself as the ground view.
fn raw_channel() -> &'static ReconstructConfig {
    static RAW: OnceLock<ReconstructConfig> = OnceLock::new();
    RAW.get_or_init(|| ReconstructConfig {
        work_budget: RAW_WORK_BUDGET,
        ..ReconstructConfig::new(
            BitChannel::from_decay_fraction(RAW_DECAY_FRACTION),
            Arc::new(MemoryDump::new(Vec::new(), 0)),
        )
    })
}

/// [`verify_and_recover_with`] over a prepared [`CandidatePool`], which
/// must hold residuals for `hit.key_size`.
fn verify_hit(
    dump: &MemoryDump,
    pool: &CandidatePool,
    hit: &ScheduleHit,
    config: &SearchConfig,
    tally: &mut ReconstructTally,
) -> Option<RecoveredAesKey> {
    // No candidate explains any block: every block's pick would select
    // nothing.
    if pool.keys.is_empty() {
        return None;
    }
    let (rc, ground) = match &config.reconstruct {
        Some(rc) => (rc, rc.ground.as_ref()),
        None => (raw_channel(), dump),
    };
    let size = hit.key_size;
    let schedule_addr = hit.schedule_addr()?;
    let (unexplained, fin) =
        verify_channel(dump, ground, pool, schedule_addr, size, config, rc, tally)?;
    // Raw recoveries report no channel fields: under the symmetric channel
    // the cost and the flip split only restate `total_error_bits`.
    let priced = config.reconstruct.is_some();
    Some(RecoveredAesKey {
        key_size: size,
        master_key: fin.schedule[..size.nk()]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect(),
        schedule_addr,
        total_error_bits: fin.flips.total(),
        unexplained_blocks: unexplained,
        cost_millinats: priced.then_some(fin.cost_millinats),
        flips: priced.then_some(fin.flips),
        hit: hit.clone(),
    })
}

/// The first of `n` candidates with the lowest cost, if that cost is at
/// most `gate`: the `(cost, index)` a full first-argmin loop over `0..n`
/// returns, or `None` when the full loop's minimum exceeds `gate` (and
/// for `n == 0`). Every per-block candidate choice in verification goes
/// through here.
///
/// `cost(i, limit)` returns candidate `i`'s cost, or may stop once its
/// running sum reaches `limit` and return that partial sum (any value
/// `>= limit`). Each candidate runs with `limit = min(best so far,
/// gate + 1)` and is kept only when strictly below it. A candidate whose
/// full cost ties or exceeds the best, or exceeds the gate, would not be
/// kept by the full loop either (ties keep the first), so stopping it
/// early changes nothing, and a kept cost is always a full one.
fn bounded_pick(
    n: usize,
    gate: u64,
    mut cost: impl FnMut(usize, u64) -> u64,
) -> Option<(u64, usize)> {
    let mut best: Option<(u64, usize)> = None;
    for i in 0..n {
        // The best so far is at most `gate`, so it is also the minimum.
        let limit = best.map_or(gate.saturating_add(1), |(c, _)| c);
        let c = cost(i, limit);
        if c < limit {
            best = Some((c, i));
        }
    }
    best
}

/// The unbounded form of [`bounded_pick`]: the full first-argmin loop
/// over every candidate's full cost, then the gate.
#[cfg(test)]
fn bounded_pick_reference(costs: &[u64], gate: u64) -> Option<(u64, usize)> {
    let mut best: Option<(u64, usize)> = None;
    for (i, &c) in costs.iter().enumerate() {
        if best.is_none_or(|(b, _)| c < b) {
            best = Some((c, i));
        }
    }
    best.filter(|&(c, _)| c <= gate)
}

/// Parses a block into its sixteen big-endian 32-bit words.
#[inline]
fn block_words(block: &[u8; BLOCK_BYTES]) -> [u32; BLOCK_BYTES / 4] {
    from_fn(|j| be_word(block, j))
}

/// Parses one big-endian 32-bit word out of a raw block.
#[inline]
fn be_word(block: &[u8; BLOCK_BYTES], j: usize) -> u32 {
    u32::from_be_bytes([
        block[j * 4],
        block[j * 4 + 1],
        block[j * 4 + 2],
        block[j * 4 + 3],
    ])
}

/// The identity residuals `w[j] ^ w[j−Nk] ^ w[j−1]` of a block's words for
/// a key of `nk` words, at every `j >= nk` (zero below).
///
/// The identity step `w[i] = w[i−Nk] ^ w[i−1]` is linear, so for a
/// descrambled block `D = B ^ K` the residual splits into a block part and
/// a key part: `res(D)[j] = res(B)[j] ^ res(K)[j]`. Three of every four
/// residual words a litmus position checks (AES-256 and AES-128) are
/// identity steps, so their popcounts — a lower bound on the position's
/// cost — need neither a descramble nor a `SubWord`.
fn identity_residuals(w: &[u32; BLOCK_BYTES / 4], nk: usize) -> [u32; BLOCK_BYTES / 4] {
    from_fn(|j| {
        if j >= nk {
            w[j] ^ w[j - nk] ^ w[j - 1]
        } else {
            0
        }
    })
}

/// The candidate scrambler keys in every form the sweeps and verification
/// read: key bytes, key words, and per key size every key's
/// [`identity_residuals`]. Built once per searcher; the residual tables
/// take 64 bytes per (candidate, key size), ~27 KiB for 219 candidates
/// and the two default sizes.
struct CandidatePool {
    keys: Vec<CandidateKey>,
    words: Vec<[u32; BLOCK_BYTES / 4]>,
    /// One `(size, residuals by candidate)` entry per requested size, in
    /// request order (both sweeps index them like their sizes).
    residuals: Vec<(KeySize, Vec<[u32; BLOCK_BYTES / 4]>)>,
}

impl CandidatePool {
    fn new(candidates: &[CandidateKey], sizes: &[KeySize]) -> Self {
        let words: Vec<[u32; BLOCK_BYTES / 4]> = candidates
            .iter()
            .map(|cand| block_words(&cand.key))
            .collect();
        let residuals = sizes
            .iter()
            .map(|&size| {
                let res = words.iter().map(|w| identity_residuals(w, size.nk()));
                (size, res.collect())
            })
            .collect();
        Self {
            keys: candidates.to_vec(),
            words,
            residuals,
        }
    }

    /// Every candidate's identity residuals for `size`, if the pool was
    /// built for it.
    fn residuals(&self, size: KeySize) -> Option<&[[u32; BLOCK_BYTES / 4]]> {
        self.residuals
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, res)| res.as_slice())
    }
}

/// Channel-aware verification of the span `[schedule_addr, schedule_addr +
/// size.schedule_len())`, for [`verify_and_recover_with`] in both modes,
/// in three stages. `ground` is the ground view the toward-ground masks
/// come from: the ground read in channel mode, and in raw mode `dump`
/// itself, which makes every bit toward-ground and the channel symmetric.
///
/// 1. **Residual candidate selection.** Walk every block the schedule
///    overlaps and pick the scrambler candidate whose descrambled words
///    have the lowest *within-block recurrence residual* cost — the same
///    channel statistic as the scan, needing no prediction, so selection
///    cannot be poisoned by decay anywhere else in the span. A block
///    whose best candidate exceeds the [`residual_budget_pair`] budget
///    for its phase mix is unexplained (its key was never mined): it is
///    excluded from the counted mask, subject to
///    `config.max_unexplained_blocks`. Blocks with no ground coverage
///    are uncounted without penalty; blocks too short to contain a
///    residual pair are deferred to stage 3. The pick is a
///    [`bounded_pick`] that sums a candidate's identity words first,
///    from the pool's key residuals, and its transform words only if it
///    is still under `min(best so far, budget + 1)`.
/// 2. **Full-span correction.** Run the branch-and-bound corrector over
///    the assembled multi-block observation and gate on
///    [`coldboot_dram::retention::BitChannel::span_budget_millinats`]
///    over the counted bits. This is where residual-litmus false
///    positives die: no internally-consistent schedule sits anywhere
///    near low-weight filler, so their corrected cost stays far above
///    the budget (at a cost bounded by the work budget and
///    [`crate::reconstruct::STALL_LIMIT`]).
/// 3. **Deferred blocks.** Blocks that held too few schedule words for
///    a residual check pick their candidate by channel cost against the
///    stage-2 prediction; if any joins the counted set the corrector
///    re-runs and the budget gate applies to the final cost.
///
/// It reads `dump` and `ground` only inside that span and sees no hit,
/// so its outcome (the unexplained-block count and the accepted
/// correction) is a function of the span, given the candidates and the
/// configuration. `rc.ground` is not read.
#[allow(clippy::too_many_arguments)]
fn verify_channel(
    dump: &MemoryDump,
    ground: &MemoryDump,
    pool: &CandidatePool,
    schedule_addr: u64,
    size: KeySize,
    config: &SearchConfig,
    rc: &ReconstructConfig,
    tally: &mut ReconstructTally,
) -> Option<(u32, Correction)> {
    let nk = size.nk();
    let total = size.schedule_words();
    let len = size.schedule_len();
    dump.slice_at(schedule_addr, len)?;
    let key_res = pool.residuals(size)?;

    let ground_block = |addr: u64| -> Option<&[u8; BLOCK_BYTES]> {
        ground.block_index_of(addr).map(|i| ground.block(i))
    };
    let c_id = u64::from(rc.res_ident.to_ground_millinats);
    let c_tr = u64::from(rc.res_sbox.to_ground_millinats);

    // Stage 1: assemble the observation, choosing each block's candidate
    // by within-block residual cost. Uncounted words stay zero — they
    // only ever feed high-cost branch-and-bound roots.
    let mut obs = ScheduleObservation {
        size,
        words: vec![0u32; total],
        toward_ground: vec![0u32; total],
        counted: vec![0u32; total],
    };
    let mut unexplained = 0u32;
    let mut deferred: Vec<(usize, usize, u64)> = Vec::new();
    let mut selected_any = false;
    let mut i = 0usize;
    while i < total {
        let addr = schedule_addr + 4 * i as u64;
        let block_base = addr & !(BLOCK_BYTES as u64 - 1);
        let first_j = ((addr - block_base) / 4) as usize;
        let words_here = (BLOCK_BYTES / 4 - first_j).min(total - i);
        let raw = dump.block(dump.block_index_of(block_base)?);
        let Some(gb) = ground_block(block_base) else {
            // No ground coverage: the block cannot be classified, so its
            // bits never count.
            i += words_here;
            continue;
        };
        if words_here <= nk {
            // Too short for a within-block residual; decide against the
            // corrected prediction in stage 3.
            deferred.push((i, words_here, block_base));
            i += words_here;
            continue;
        }
        // Block words `first_j + k` for `k` in `nk..words_here` carry a
        // residual; split them by phase (bit `first_j + k` of each mask).
        let (mut ident, mut transform) = (0u32, 0u32);
        for k in nk..words_here {
            if residual_kind(nk, i + k) == RES_IDENT {
                ident |= 1 << (first_j + k);
            } else {
                transform |= 1 << (first_j + k);
            }
        }
        let bits = |mask: u32| 32 * mask.count_ones();
        let budget =
            residual_budget_pair(&rc.res_ident, &rc.res_sbox, bits(ident), bits(transform));
        let raw_w = block_words(raw);
        let raw_res = identity_residuals(&raw_w, nk);
        let best = bounded_pick(pool.keys.len(), budget, |ci, limit| {
            let mut cost = 0u64;
            // Identity words first: descrambled residual = block's ^ key's.
            let key_r = &key_res[ci];
            for j in set_bits(ident) {
                cost += u64::from((raw_res[j] ^ key_r[j]).count_ones()) * c_id;
                if cost >= limit {
                    return cost;
                }
            }
            let kw = &pool.words[ci];
            let w = |j: usize| raw_w[j] ^ kw[j];
            for j in set_bits(transform) {
                let idx = i + j - first_j;
                let r = w(j) ^ w(j - nk) ^ expansion_step(size, idx, w(j - 1));
                cost += u64::from(r.count_ones()) * c_tr;
                if cost >= limit {
                    return cost;
                }
            }
            cost
        });
        match best {
            None => {
                unexplained += 1;
                if unexplained > config.max_unexplained_blocks {
                    return None;
                }
            }
            Some((_, ci)) => {
                let (kw, gw) = (&pool.words[ci], block_words(gb));
                for k in 0..words_here {
                    let j = first_j + k;
                    obs.words[i + k] = raw_w[j] ^ kw[j];
                    obs.toward_ground[i + k] = !(raw_w[j] ^ gw[j]);
                    obs.counted[i + k] = u32::MAX;
                }
                selected_any = true;
            }
        }
        i += words_here;
    }
    if !selected_any {
        return None;
    }

    // Stage 2: branch-and-bound correction over the assembled span.
    let mut fin = correct_schedule(&obs, &rc.channel, rc.work_budget, tally)?;
    if fin.cost_millinats > rc.channel.span_budget_millinats(obs.counted_bits()) {
        return None;
    }

    // Stage 3: deferred short blocks join against the corrected
    // prediction, then the corrector re-runs over the richer observation.
    let mut joined = false;
    for &(i0, words_here, block_base) in &deferred {
        let raw = dump.block(dump.block_index_of(block_base)?);
        let Some(gb) = ground_block(block_base) else {
            continue;
        };
        let first_j = (((schedule_addr + 4 * i0 as u64) - block_base) / 4) as usize;
        let (raw_w, gw) = (block_words(raw), block_words(gb));
        // A candidate that merely decayed pays toward-ground prices; a
        // missing key leaves ~a quarter of the bits anti-ground. An
        // eighth of the bits at the anti-ground price separates the two.
        let gate = 32 * words_here as u64 / 8 * u64::from(rc.channel.anti_ground_millinats);
        let best = bounded_pick(pool.keys.len(), gate, |ci, limit| {
            let kw = &pool.words[ci];
            let mut cost = 0u64;
            for k in 0..words_here {
                let j = first_j + k;
                let tg = !(raw_w[j] ^ gw[j]);
                cost += rc
                    .channel
                    .word_cost_millinats(raw_w[j] ^ kw[j] ^ fin.schedule[i0 + k], tg);
                if cost >= limit {
                    break;
                }
            }
            cost
        });
        match best {
            None => {
                unexplained += 1;
                if unexplained > config.max_unexplained_blocks {
                    return None;
                }
            }
            Some((_, ci)) => {
                let kw = &pool.words[ci];
                for k in 0..words_here {
                    let j = first_j + k;
                    obs.words[i0 + k] = raw_w[j] ^ kw[j];
                    obs.toward_ground[i0 + k] = !(raw_w[j] ^ gw[j]);
                    obs.counted[i0 + k] = u32::MAX;
                }
                joined = true;
            }
        }
    }
    if joined {
        fin = correct_schedule(&obs, &rc.channel, rc.work_budget, tally)?;
        if fin.cost_millinats > rc.channel.span_budget_millinats(obs.counted_bits()) {
            return None;
        }
    }
    Some((unexplained, fin))
}

/// The indices of the set bits of `mask`, lowest first.
#[inline]
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Merges one verified recovery into the deduplicated result set.
///
/// Two recoveries whose schedule ranges overlap are competing explanations
/// of the same physical bytes (the position-degenerate hits reconstruct the
/// true schedule shifted by a few round keys), so keep whichever explains
/// the dump better: fewer unexplained blocks first, then less decay
/// damage, then — with reconstruction enabled — lower channel cost. The
/// channel-cost component breaks the raw-distance ties `deep()`'s widened
/// tolerances admit between structurally-misplaced matches and the true
/// hit; the tuple is a total order over deterministic integers, so the
/// winner is reproducible across thread counts and shard layouts
/// (`cost_millinats` is `None`, hence 0, for every entry when
/// reconstruction is off).
fn merge_recovery(recovered: &mut Vec<RecoveredAesKey>, rec: RecoveredAesKey) {
    let rec_end = rec.schedule_addr + rec.key_size.schedule_len() as u64;
    let quality = |r: &RecoveredAesKey| {
        (
            r.unexplained_blocks,
            r.total_error_bits,
            r.cost_millinats.unwrap_or(0),
        )
    };
    match recovered.iter_mut().find(|r| {
        let r_end = r.schedule_addr + r.key_size.schedule_len() as u64;
        r.key_size == rec.key_size && rec.schedule_addr < r_end && r.schedule_addr < rec_end
    }) {
        Some(existing) => {
            if quality(&rec) < quality(existing) {
                *existing = rec;
            }
        }
        None => recovered.push(rec),
    }
}

/// Blocks of context a schedule can extend past its hit block on either
/// side: an AES-256 schedule spans 240 bytes, so relative to the block that
/// produced a hit the full schedule reaches at most 192 bytes before the
/// block start (window at offset ≤ 16, up to 48 schedule words behind it)
/// and 192 bytes past the block end — under 4 blocks either way.
///
/// Public because sharded scans need it: a shard covering blocks
/// `[a, b)` must be fed `[a - SCHEDULE_CONTEXT_BLOCKS,
/// b + SCHEDULE_CONTEXT_BLOCKS)` (clamped to the image) so hits at its
/// region edges verify with the same context the whole-image pass sees.
pub const SCHEDULE_CONTEXT_BLOCKS: usize = 4;

/// Incremental AES key search over a dump delivered in contiguous windows.
///
/// The streaming counterpart of [`search_dump`], built for the file-backed
/// CBDF pipeline: only a bounded tail of the image is retained. Each pushed
/// window is scanned on the work-stealing engine exactly as the in-memory
/// path scans its next blocks; hits are then verified in global block order
/// as soon as [`SCHEDULE_CONTEXT_BLOCKS`] of context exist past their
/// block (or the stream ends, which is also when the in-memory path would
/// run out of dump). The retained tail always covers that context window
/// for every pending hit and for any hit the next window may produce, so
/// hits, recoveries, dedup decisions, and their order are byte-identical to
/// the in-memory search for any windowing and any thread count.
///
/// A block's hits depend only on its bytes (and its address, which only
/// the `block_addr` field records). Blocks equal to a candidate key — the
/// zero and constant fill mining learned the keys from — recur all over a
/// dump, so each such content is swept once per search and every repeat
/// copies its hits.
///
/// A hit's verification depends only on its schedule span,
/// `(schedule_addr(), key_size)` (see [`verify_and_recover_with`]), and
/// many hits share a span: the blocks of one schedule, and that schedule
/// shifted by whole round-key pairs. Each span is verified once per
/// search; later hits on it take the stored outcome with their own hit
/// attached (`search_verify_reused`). The span of every ready hit lies in
/// the retained tail, so the stored outcome is the one the hit's own run
/// would produce.
pub struct StreamSearcher {
    /// The candidates, their words and their identity residuals for every
    /// configured key size.
    pool: CandidatePool,
    /// The tables of the block sweep the configuration runs, built once.
    sweep: Sweep,
    /// Candidate index by key bytes (the first candidate with those bytes).
    key_index: HashMap<[u8; BLOCK_BYTES], usize>,
    /// Per candidate: the hits of the first swept block equal to its key,
    /// at that block's address. Kept across pushes; bounded by the
    /// candidate count.
    memo: Vec<Option<Vec<ScheduleHit>>>,
    config: SearchConfig,
    /// Retained contiguous tail of the image.
    buf: Vec<u8>,
    /// Physical address of `buf[0]`.
    buf_base: u64,
    /// Physical address one past the last byte pushed so far.
    end_addr: u64,
    started: bool,
    /// Hits (in global block order) awaiting right-hand context.
    pending: VecDeque<ScheduleHit>,
    /// The outcome of each verified span, keyed by
    /// `(schedule_addr, key_size)`, with the span's first hit attached.
    /// Kept across pushes; `trim` drops spans below the retained tail.
    spans: HashMap<(u64, KeySize), Option<RecoveredAesKey>>,
    hits: Vec<ScheduleHit>,
    recovered: Vec<RecoveredAesKey>,
    /// Every successful verification in order, before dedup — the shard
    /// export [`StreamSearcher::finish_partial`] returns (recoveries are
    /// rare, so retaining both forms costs nothing measurable).
    raw_recoveries: Vec<RecoveredAesKey>,
    blocks_scanned: usize,
    metrics: Option<Arc<SearchMetrics>>,
}

impl StreamSearcher {
    /// Creates a searcher over the given candidate scrambler keys.
    pub fn new(candidates: &[CandidateKey], config: &SearchConfig) -> Self {
        // Parse every candidate key to words and residuals once; a
        // survivor's descramble is then 16 word XORs, and the residual
        // bounds need no descramble at all (see `SlicedKeys`).
        let pool = CandidatePool::new(candidates, &config.key_sizes);
        let sweep = match &config.reconstruct {
            None => Sweep::Raw(SlicedKeys::new(&pool, config.exhaustive_word_offsets)),
            Some(rc) => Sweep::Channel(ChannelSweep::new(rc, config)),
        };
        let mut key_index = HashMap::with_capacity(candidates.len());
        for (ci, cand) in candidates.iter().enumerate() {
            key_index.entry(cand.key).or_insert(ci);
        }
        Self {
            pool,
            sweep,
            key_index,
            memo: vec![None; candidates.len()],
            config: config.clone(),
            buf: Vec::new(),
            buf_base: 0,
            end_addr: 0,
            started: false,
            pending: VecDeque::new(),
            spans: HashMap::new(),
            hits: Vec::new(),
            recovered: Vec::new(),
            raw_recoveries: Vec::new(),
            blocks_scanned: 0,
            metrics: None,
        }
    }

    /// Attaches search counters; search results are unaffected.
    pub fn with_metrics(mut self, metrics: Arc<SearchMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Scans the next window of the image.
    ///
    /// # Panics
    ///
    /// Panics if the window is not contiguous with what was pushed before
    /// (its base address must equal the previous window's end).
    pub fn push(&mut self, window: &MemoryDump) {
        if !self.started {
            self.started = true;
            self.buf_base = window.base_addr();
            self.end_addr = window.base_addr();
        }
        assert_eq!(
            window.base_addr(),
            self.end_addr,
            "stream windows must be contiguous"
        );
        if window.is_empty() {
            return;
        }
        self.buf.extend_from_slice(window.bytes());
        self.end_addr += window.len() as u64;

        // View over the retained tail (old context + the new window). It owns
        // the buffer until `trim` takes it back.
        let view = MemoryDump::new(std::mem::take(&mut self.buf), self.buf_base);
        let first_new = ((window.base_addr() - self.buf_base) / BLOCK_BYTES as u64) as usize;
        // Walk the region blocks in order. A block equal to candidate key
        // `c` is swept only if no earlier block — of this push or a
        // previous one — had those bytes; the later ones copy its hits.
        let mut plan: Vec<(usize, BlockHits)> = Vec::new();
        let mut to_sweep: Vec<usize> = Vec::new();
        let region = self.config.region.as_ref();
        for i in first_new..view.len_blocks() {
            if !region.is_none_or(|r| r.contains(&view.block_addr(i))) {
                continue;
            }
            let key = self.key_index.get(view.block(i)).copied();
            match key {
                Some(c) if self.memo[c].is_some() => plan.push((i, BlockHits::Memo(c))),
                _ => {
                    if let Some(c) = key {
                        // Claimed: filled in from this sweep below.
                        self.memo[c] = Some(Vec::new());
                    }
                    plan.push((i, BlockHits::Swept(key)));
                    to_sweep.push(i);
                }
            }
        }
        self.blocks_scanned += plan.len();

        let mut opts =
            ScanOptions::with_threads(self.config.threads).batch_items(SEARCH_BATCH_BLOCKS);
        if let Some(metrics) = &self.metrics {
            opts = opts.with_metrics(Arc::clone(&metrics.engine));
        }
        let (pool, sweep, config) = (&self.pool, &self.sweep, &self.config);
        // The batched sweep folds into per-worker accumulators (so scratch
        // lives across a whole batch); the merge concatenates, which is not
        // order-preserving on its own — the stable sort by sweep position
        // below restores the serial hit order (positions are unique per
        // block, blocks never split workers).
        let folded = scan::scan_fold(
            to_sweep.len(),
            &opts,
            SweepAcc::default,
            |acc, n| match sweep {
                Sweep::Raw(sliced) => {
                    scan_block_batched(&view, pool, sliced, config, n, to_sweep[n], acc)
                }
                Sweep::Channel(channel) => {
                    scan_block_channel(&view, pool, channel, n, to_sweep[n], acc)
                }
            },
            SweepAcc::merge,
        );
        let mut tagged = folded.hits;
        tagged.sort_by_key(|&(pos, _)| pos);
        let mut swept = tagged.into_iter().peekable();
        let mut new_hits: Vec<ScheduleHit> = Vec::new();
        let mut reused = 0u64;
        let mut pos = 0usize;
        for &(i, source) in &plan {
            match source {
                BlockHits::Swept(key) => {
                    let first = new_hits.len();
                    while let Some((_, hit)) = swept.next_if(|&(p, _)| p == pos) {
                        new_hits.push(hit);
                    }
                    if let Some(c) = key {
                        self.memo[c] = Some(new_hits[first..].to_vec());
                    }
                    pos += 1;
                }
                BlockHits::Memo(c) => {
                    reused += 1;
                    let block_addr = view.block_addr(i);
                    for hit in self.memo[c].iter().flatten() {
                        new_hits.push(ScheduleHit {
                            block_addr,
                            ..hit.clone()
                        });
                    }
                }
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.blocks.add(plan.len() as u64);
            metrics.reused_blocks.add(reused);
            metrics.hits.add(new_hits.len() as u64);
        }
        self.hits.extend(new_hits.iter().cloned());
        self.pending.extend(new_hits);

        self.verify_ready(&view, false);
        self.buf = view.into_vec();
        self.trim();
    }

    /// Verifies the pending hits that have their right-hand context: the
    /// oldest ones up to the first that still lacks it (readiness is
    /// monotone in block address, so everything behind it waits too).
    ///
    /// The ready hits that need a run are verified in parallel on the scan
    /// engine, one hit per batch: the first hit of each span not verified
    /// before, plus any hit without a span. Verification is a pure
    /// function of (view, candidates, hit, config) with a tally per run,
    /// `scan_collect` returns results in hit order, and a hit that reuses gets what its
    /// own run would return, so the serial fold below — counters, raw
    /// recoveries and the order-sensitive dedup, once per hit — sees
    /// exactly what a one-thread loop verifying every hit would.
    fn verify_ready(&mut self, view: &MemoryDump, at_end: bool) {
        let ctx = (SCHEDULE_CONTEXT_BLOCKS * BLOCK_BYTES) as u64;
        let ready = self
            .pending
            .iter()
            .take_while(|h| at_end || h.block_addr + BLOCK_BYTES as u64 + ctx <= self.end_addr)
            .count();
        let hits: Vec<ScheduleHit> = self.pending.drain(..ready).collect();
        let span_of = |h: &ScheduleHit| h.schedule_addr().map(|addr| (addr, h.key_size));
        let mut queued = HashSet::new();
        let runs: Vec<usize> = (0..hits.len())
            .filter(|&k| {
                span_of(&hits[k]).is_none_or(|s| !self.spans.contains_key(&s) && queued.insert(s))
            })
            .collect();
        // The engine counters stay off, so `search_scan_items` counts
        // swept blocks only.
        let latency = self.metrics.as_ref().map(|m| m.reconstruct_us.as_ref());
        let (pool, config) = (&self.pool, &self.config);
        let opts = ScanOptions::with_threads(config.threads).batch_items(1);
        let verified = scan::scan_collect(runs.len(), &opts, |n, out| {
            let mut tally = ReconstructTally::default();
            let outcome = {
                let _span = Span::start(latency);
                verify_hit(view, pool, &hits[runs[n]], config, &mut tally)
            };
            out.push((outcome, tally));
        });
        let mut verified = runs.into_iter().zip(verified).peekable();
        for (k, hit) in hits.iter().enumerate() {
            let outcome = match verified.next_if(|&(run, _)| run == k) {
                Some((_, (outcome, tally))) => {
                    if let Some(metrics) = &self.metrics {
                        metrics.corrector_runs.add(u64::from(tally.corrections > 0));
                        metrics.reconstruct_expanded.add(tally.expanded);
                        metrics.reconstruct_pruned.add(tally.pruned);
                        if outcome.is_some() {
                            metrics.corrected_bits.add(tally.corrected_bits);
                        }
                    }
                    if let Some(span) = span_of(hit) {
                        self.spans.insert(span, outcome.clone());
                    }
                    outcome
                }
                None => {
                    if let Some(metrics) = &self.metrics {
                        metrics.verify_reused.inc();
                    }
                    let stored = span_of(hit).and_then(|s| self.spans.get(&s));
                    stored.cloned().flatten().map(|rec| RecoveredAesKey {
                        hit: hit.clone(),
                        ..rec
                    })
                }
            };
            match outcome {
                Some(rec) => {
                    if let Some(metrics) = &self.metrics {
                        metrics.recoveries.inc();
                        match rec.flips {
                            // Direction-aware accounting: only toward-
                            // ground flips are decay damage; anti-ground
                            // mismatches are read noise, counted apart.
                            Some(flips) => {
                                metrics.decayed_bits.add(u64::from(flips.to_ground));
                                metrics.anti_ground_bits.add(u64::from(flips.anti_ground));
                            }
                            None => {
                                metrics.decayed_bits.add(u64::from(rec.total_error_bits));
                            }
                        }
                    }
                    self.raw_recoveries.push(rec.clone());
                    merge_recovery(&mut self.recovered, rec);
                }
                None => {
                    if let Some(metrics) = &self.metrics {
                        metrics.verify_rejects.inc();
                    }
                }
            }
        }
    }

    /// Drops the part of the retained tail no verification can reach: both
    /// the oldest pending hit and any hit the *next* window produces need at
    /// most [`SCHEDULE_CONTEXT_BLOCKS`] blocks behind them. Stored spans
    /// below the new base go too: a later hit's span starts at most 192
    /// bytes before its block, so it can only start there if it starts
    /// before the stream's first byte, and such a span fails verification
    /// at once however often it runs.
    fn trim(&mut self) {
        let ctx = (SCHEDULE_CONTEXT_BLOCKS * BLOCK_BYTES) as u64;
        let tail_floor = self.end_addr.saturating_sub(ctx);
        let keep_from = self
            .pending
            .front()
            .map(|h| h.block_addr.saturating_sub(ctx))
            .unwrap_or(tail_floor)
            .min(tail_floor)
            .max(self.buf_base);
        let drop = (keep_from - self.buf_base) as usize;
        if drop > 0 {
            self.buf.drain(..drop);
            self.buf_base = keep_from;
        }
        let base = self.buf_base;
        self.spans.retain(|&(addr, _), _| addr >= base);
    }

    /// Verifies the remaining pending hits against the end of the image and
    /// returns the outcome, sorted exactly as [`search_dump`] sorts it.
    pub fn finish(mut self) -> SearchOutcome {
        let view = MemoryDump::new(std::mem::take(&mut self.buf), self.buf_base);
        self.verify_ready(&view, true);
        let mut recovered = self.recovered;
        recovered.sort_by_key(|r| r.schedule_addr);
        SearchOutcome {
            hits: self.hits,
            recovered,
            blocks_scanned: self.blocks_scanned,
        }
    }

    /// Like [`StreamSearcher::finish`], but returns the shard-mergeable
    /// partial form (raw, pre-dedup recoveries) for
    /// [`merge_search_partials`].
    pub fn finish_partial(mut self) -> SearchPartial {
        let view = MemoryDump::new(std::mem::take(&mut self.buf), self.buf_base);
        self.verify_ready(&view, true);
        SearchPartial {
            hits: self.hits,
            recoveries: self.raw_recoveries,
            blocks_scanned: self.blocks_scanned,
        }
    }
}

/// Scans a dump for AES key schedules using a set of candidate scrambler
/// keys, verifying and recovering master keys.
///
/// The scan runs on the work-stealing [`crate::scan`] engine with
/// `config.threads` workers (static chunking was abandoned: schedules and
/// other hit-dense data cluster spatially, so fixed per-worker chunks left
/// all but one worker idle on real dumps). Hits are merged in block order,
/// so the outcome is byte-identical for any thread count.
///
/// This is the one-window form of [`StreamSearcher`]; dumps too large for
/// memory go through the searcher window by window with identical results.
pub fn search_dump(
    dump: &MemoryDump,
    candidates: &[CandidateKey],
    config: &SearchConfig,
) -> SearchOutcome {
    let mut searcher = StreamSearcher::new(candidates, config);
    searcher.push(dump);
    searcher.finish()
}

/// Where a region block's hits come from in [`StreamSearcher::push`].
#[derive(Debug, Clone, Copy)]
enum BlockHits {
    /// Swept this push; `Some(c)` when the block equals candidate key `c`,
    /// whose memo entry the sweep fills.
    Swept(Option<usize>),
    /// Copied from candidate `c`'s memo entry.
    Memo(usize),
}

/// The block sweep a [`StreamSearcher`] runs, with its tables.
enum Sweep {
    /// Raw mode: the Hamming-distance litmus behind the residual bound.
    Raw(SlicedKeys),
    /// Channel mode (`config.reconstruct` on): residual-channel scoring.
    Channel(ChannelSweep),
}

/// The start phases `start % Nk` a litmus sweep reaches for `size`, in
/// increasing order: starts `0..=schedule_words - 12` at `step` 1 with
/// exhaustive word offsets, else 4.
fn start_phases(size: KeySize, step: usize) -> Vec<usize> {
    let mut phases: Vec<usize> = (0..=size.schedule_words() - TEST_SPAN / 4)
        .step_by(step)
        .map(|start| start % size.nk())
        .collect();
    phases.sort_unstable();
    phases.dedup();
    phases
}

/// The block words a mask of block words at window offset 0 covers at
/// some window offset (offset `o` shifts the mask left by `o`).
fn mask_reads(mask: u32) -> Range<usize> {
    if mask == 0 {
        return 0..0;
    }
    mask.trailing_zeros() as usize..(32 - mask.leading_zeros()) as usize + LITMUS_OFFSETS - 1
}

/// Candidates per bit-sliced lane group: one per bit of a `u64`.
const LANES: usize = 64;

/// Most block words one key size's residual bound reads: each window
/// offset `o` in `0..=4` reads word `o + Nk`, `o + Nk + 1`, or both.
const BOUND_WORDS: usize = LITMUS_OFFSETS + 1;

/// One 32-bit word across a lane group, bit-sliced: `planes[b]` holds bit
/// `b` of the word, with candidate `64g + l` of group `g` in lane `l`.
type WordPlanes = [u64; 32];

/// The candidates' identity residuals as bit planes, for the batched
/// sweep's bound on which (candidate, key size, window offset) triples of
/// a block can hold a litmus match.
///
/// A litmus position at window offset `o` and start `s` predicts the
/// words `o + Nk + e` of the descrambled block `D = B ^ Kc` and sums the
/// popcounts of its prediction errors `δₑ`. For `e < Nk`, whose word `Nk`
/// back is in the window, an identity step gives `δₑ = r ^ δₑ₋₁` (with
/// `δ₋₁ = 0`), where `r` is the identity residual
/// `D[j] ^ D[j - Nk] ^ D[j - 1]` at `j = o + Nk + e`; so `popcount(r)`
/// is at most the position's distance. No two consecutive schedule words
/// are both transform steps (Rcon or `SubWord`), so one of the first two
/// predicted words is an identity step, and a match needs
/// `popcount(r) <= tolerance` at the first such word: `o + Nk` when the
/// start's phase `s % Nk` is an identity phase, else `o + Nk + 1`. The
/// residual is linear, `res(D) = res(B) ^ res(Kc)`
/// ([`identity_residuals`]), so the bound reads the pool's key residuals
/// and needs neither a descramble nor a `SubWord`.
///
/// With the key residuals as bit planes, 64 candidates per `u64`, the
/// XOR with the block's residual is one broadcast bit per plane, and each
/// word's `popcount <= tolerance` is an adder tree into a 6-bit per-lane
/// counter plus a compare ([`weight_at_most`]); the workspace builds for
/// baseline x86-64, where `count_ones` is a software bit count. A triple
/// survives when the word of any start phase the sweep reaches passes.
/// With the default start step, AES-256 and AES-128 reach only transform
/// phases, so each offset reads one word, `o + Nk + 1`.
struct SlicedKeys {
    /// One entry per configured key size, in search order.
    sizes: Vec<SlicedSize>,
    /// The lanes of each group that hold a candidate: all of them except
    /// in the last group.
    lanes: Vec<u64>,
}

/// One key size of [`SlicedKeys`].
struct SlicedSize {
    size: KeySize,
    /// The bound's words at window offset 0, as a mask over block words:
    /// bit `Nk` when some reachable start phase is an identity phase, bit
    /// `Nk + 1` when some is a transform phase. Offset `o` shifts it left
    /// by `o`.
    mask: u32,
    /// The block words the bound reads at some offset.
    reads: Range<usize>,
    /// Per lane group, the candidates' identity residuals at block words
    /// `reads`, as bit planes.
    groups: Vec<[WordPlanes; BOUND_WORDS]>,
}

impl SlicedKeys {
    fn new(pool: &CandidatePool, exhaustive: bool) -> Self {
        let step = if exhaustive { 1 } else { 4 };
        let sizes = pool
            .residuals
            .iter()
            .map(|(size, key_res)| {
                let nk = size.nk();
                // Predicted word 0 is schedule word `s + Nk`, of phase
                // `s % Nk`.
                let mask = start_phases(*size, step).into_iter().fold(0u32, |m, ph| {
                    m | 1 << (nk + usize::from(residual_kind(nk, ph) != RES_IDENT))
                });
                let reads = mask_reads(mask);
                let groups = key_res
                    .chunks(LANES)
                    .map(|group| {
                        let mut planes = [[0u64; 32]; BOUND_WORDS];
                        for (lane, res) in group.iter().enumerate() {
                            for (word_planes, &r) in planes.iter_mut().zip(&res[reads.clone()]) {
                                for (b, plane) in word_planes.iter_mut().enumerate() {
                                    *plane |= u64::from(r >> b & 1) << lane;
                                }
                            }
                        }
                        planes
                    })
                    .collect();
                SlicedSize {
                    size: *size,
                    mask,
                    reads,
                    groups,
                }
            })
            .collect();
        let lanes = pool
            .words
            .chunks(LANES)
            .map(|group| u64::MAX >> (LANES - group.len()))
            .collect();
        Self { sizes, lanes }
    }

    /// Appends every `(candidate, size index, offset index)` triple of one
    /// block that passes the residual bound at tolerance `tol`, in (size,
    /// group, offset, lane) order.
    fn survivors(
        &self,
        block_w: &[u32; BLOCK_BYTES / 4],
        tol: u32,
        out: &mut Vec<(usize, usize, usize)>,
    ) {
        for (si, ss) in self.sizes.iter().enumerate() {
            let block_r = identity_residuals(block_w, ss.size.nk());
            // Each block residual bit broadcast to a whole lane: XORing it
            // into the key planes gives that bit of every candidate's
            // descrambled residual.
            let mut block_planes = [[0u64; 32]; BOUND_WORDS];
            for (planes, &r) in block_planes.iter_mut().zip(&block_r[ss.reads.clone()]) {
                *planes = from_fn(|b| 0u64.wrapping_sub(u64::from(r >> b & 1)));
            }
            for (g, (key_planes, &lanes)) in ss.groups.iter().zip(&self.lanes).enumerate() {
                let mut pass = [0u64; BOUND_WORDS];
                for k in 0..ss.reads.len() {
                    let x: WordPlanes = from_fn(|b| key_planes[k][b] ^ block_planes[k][b]);
                    pass[k] = weight_at_most(tol, &x);
                }
                for oi in 0..LITMUS_OFFSETS {
                    let words = set_bits(ss.mask << oi);
                    let mut pass = words.fold(0, |p, j| p | pass[j - ss.reads.start]) & lanes;
                    while pass != 0 {
                        out.push((g * LANES + pass.trailing_zeros() as usize, si, oi));
                        pass &= pass - 1;
                    }
                }
            }
        }
    }
}

/// The scalar form of [`SlicedKeys`]' bound, computed from each
/// descrambled block directly: per `(candidate, size index, offset
/// index)` triple in order, the least residual popcount at the first
/// identity word of any start the sweep tries. A triple survives at
/// tolerance `tol` when that popcount is at most `tol`.
#[cfg(test)]
fn residual_bound_reference(
    block_w: &[u32; BLOCK_BYTES / 4],
    key_words: &[[u32; BLOCK_BYTES / 4]],
    sizes: &[KeySize],
    exhaustive: bool,
) -> Vec<((usize, usize, usize), u32)> {
    let step = if exhaustive { 1 } else { 4 };
    let mut out = Vec::new();
    for (ci, kw) in key_words.iter().enumerate() {
        let desc: [u32; BLOCK_BYTES / 4] = from_fn(|j| block_w[j] ^ kw[j]);
        for (si, &size) in sizes.iter().enumerate() {
            let nk = size.nk();
            for oi in 0..LITMUS_OFFSETS {
                let least = (0..=size.schedule_words() - TEST_SPAN / 4)
                    .step_by(step)
                    .map(|start| {
                        let first = usize::from(residual_kind(nk, start + nk) != RES_IDENT);
                        let j = oi + nk + first;
                        (desc[j] ^ desc[j - nk] ^ desc[j - 1]).count_ones()
                    })
                    .min()
                    .unwrap_or(u32::MAX);
                out.push(((ci, si, oi), least));
            }
        }
    }
    out
}

/// The lanes whose popcount over the 32 bit planes `x` is at most `tol`.
#[inline(always)]
fn weight_at_most(tol: u32, x: &WordPlanes) -> u64 {
    if tol >= 32 {
        return u64::MAX;
    }
    let count: [u64; 6] = add_counts(
        &count16(from_fn(|b| x[b])),
        &count16(from_fn(|b| x[16 + b])),
    );
    // Compare against `tol` from the top bit down: a lane is over budget
    // once it has a 1 where `tol` has a 0 and matched every bit above.
    let mut over = 0u64;
    let mut tied = u64::MAX;
    for (k, &c) in count.iter().enumerate().rev() {
        if tol >> k & 1 == 1 {
            tied &= c;
        } else {
            over |= tied & c;
            tied &= !c;
        }
    }
    !over
}

/// Per-lane popcount of 16 bit planes, as a 5-bit bit-sliced counter.
#[inline(always)]
fn count16(x: [u64; 16]) -> [u64; 5] {
    add_counts(&count8(from_fn(|b| x[b])), &count8(from_fn(|b| x[8 + b])))
}

/// Per-lane popcount of 8 bit planes, as a 4-bit bit-sliced counter.
#[inline(always)]
fn count8(x: [u64; 8]) -> [u64; 4] {
    let pairs: [[u64; 2]; 4] = from_fn(|k| add_counts(&[x[2 * k]], &[x[2 * k + 1]]));
    let quads: [[u64; 3]; 2] = from_fn(|k| add_counts(&pairs[2 * k], &pairs[2 * k + 1]));
    add_counts(&quads[0], &quads[1])
}

/// Ripple-carry sum of two `W`-bit bit-sliced counters into `V = W + 1`
/// bits.
#[inline(always)]
fn add_counts<const W: usize, const V: usize>(a: &[u64; W], b: &[u64; W]) -> [u64; V] {
    debug_assert_eq!(V, W + 1);
    let mut sum = [0u64; V];
    let mut carry = 0u64;
    for k in 0..W {
        let x = a[k] ^ b[k];
        sum[k] = x ^ carry;
        carry = (a[k] & b[k]) | (x & carry);
    }
    sum[W] = carry;
    sum
}

/// Worker-local accumulator for the batched block sweep: position-tagged
/// hits plus reusable scratch, so steady-state scanning allocates nothing.
#[derive(Default)]
struct SweepAcc {
    /// `(item position, hit)` pairs. Hits of one block are appended in the
    /// serial (candidate → key size → litmus position) order and positions
    /// are unique per block, so a stable sort by position after the merge
    /// reproduces the serial hit order exactly, whatever worker each batch
    /// landed on.
    hits: Vec<(usize, ScheduleHit)>,
    /// Scratch: surviving `(candidate, size index, offset index)` triples.
    survivors: Vec<(usize, usize, usize)>,
    /// Scratch: litmus matches of one surviving triple.
    matches: Vec<LitmusMatch>,
    /// Scratch for the channel sweep: the block's identity residuals, one
    /// entry per configured key size.
    block_res: Vec<[u32; BLOCK_BYTES / 4]>,
}

impl SweepAcc {
    /// Concatenating merge for [`scan::scan_fold`]; order is restored by
    /// the position sort in [`StreamSearcher::push`].
    fn merge(mut self, other: SweepAcc) -> SweepAcc {
        self.hits.extend(other.hits);
        self
    }
}

/// Litmus-tests one block against every candidate key and key size,
/// appending hits (tagged with `pos`) in (candidate, key size, litmus
/// position) order — the same order [`scan_block_reference`] produces.
///
/// The sweep inverts the reference loop: instead of descrambling the block
/// per candidate and filtering inside the litmus, it runs the residual
/// bound bit-sliced over all candidates ([`SlicedKeys`]), then descrambles
/// only for the rare surviving candidates (memoized across a candidate's
/// surviving offsets) and runs the reference's first-word filter and
/// position loop on them. A triple the bound rejects has no match, so the
/// hits are the reference's.
fn scan_block_batched(
    dump: &MemoryDump,
    pool: &CandidatePool,
    sliced: &SlicedKeys,
    config: &SearchConfig,
    pos: usize,
    i: usize,
    acc: &mut SweepAcc,
) {
    let block_w = block_words(dump.block(i));
    let tol = config.block_tolerance_bits;
    acc.survivors.clear();
    sliced.survivors(&block_w, tol, &mut acc.survivors);
    if acc.survivors.is_empty() {
        return;
    }
    // Survivors were collected size- and group-major; the serial hit order
    // is candidate → key size → (offset, start_word). Triples are unique,
    // so an unstable sort is exact.
    acc.survivors.sort_unstable();
    let mut desc = [0u32; BLOCK_BYTES / 4];
    let mut desc_for = usize::MAX;
    for s in 0..acc.survivors.len() {
        let (ci, si, oi) = acc.survivors[s];
        if desc_for != ci {
            for (d, (b, k)) in desc.iter_mut().zip(block_w.iter().zip(&pool.words[ci])) {
                *d = b ^ k;
            }
            desc_for = ci;
        }
        let size = sliced.sizes[si].size;
        let nk = size.nk();
        let span = &desc[oi..oi + TEST_SPAN / 4];
        let filter = PhaseFilter::new(span[0] ^ span[nk], span[nk - 1]);
        if !filter.viable(size, tol) {
            continue;
        }
        acc.matches.clear();
        litmus_offset(
            span,
            size,
            tol,
            config.exhaustive_word_offsets,
            oi * 4,
            filter,
            &mut acc.matches,
        );
        for m in &acc.matches {
            acc.hits.push((
                pos,
                ScheduleHit {
                    block_addr: dump.block_addr(i),
                    scrambler_key: pool.keys[ci].key,
                    key_size: size,
                    window_offset: m.window_offset,
                    start_word: m.start_word,
                    prediction_distance: m.distance,
                },
            ));
        }
    }
}

/// Block words spanned by one litmus window, as a mask over word offsets.
const SPAN_MASK: u32 = (1 << (TEST_SPAN / 4)) - 1;

/// What the channel sweep needs of the configuration, built once per
/// searcher: residual prices, start step, and per key size the residual
/// kinds and accept budgets of every start phase.
struct ChannelSweep {
    sizes: Vec<ChannelSize>,
    /// Milli-nat price of one residual bit, by residual kind.
    price: [u64; 3],
    /// Distance between tried start words: 1 with exhaustive offsets,
    /// else 4.
    step: usize,
    /// First block word whose `SubWord` some key size reads: `min Nk - 1`.
    sub_from: usize,
}

/// One key size of [`ChannelSweep`].
struct ChannelSize {
    size: KeySize,
    /// Residual words one position checks: `TEST_SPAN / 4 - Nk`.
    extend: usize,
    /// `kinds[ph][e]`: residual kind of extension word `e` for a start
    /// with `start % Nk == ph`.
    kinds: [[usize; 8]; 8],
    /// Accept budget by start phase.
    budgets: [u64; 8],
    /// The start phases the sweep reaches.
    phases: Vec<usize>,
    /// The identity bound's terms: for each distinct set of identity-kind
    /// residual words among the reachable phases, the block words it
    /// covers at window offset 0 as a mask (bit `Nk + e` for extension
    /// word `e`; offset `o` shifts it left by `o`) and the largest budget
    /// of the phases sharing it. AES-256 and AES-128 have one term each
    /// with the default start step.
    bounds: Vec<(u32, u64)>,
    /// The block words some term covers at some window offset.
    reads: Range<usize>,
}

impl ChannelSize {
    /// Whether the identity residuals alone leave some (window offset,
    /// reachable start phase) within its budget. The descrambled block's
    /// identity residual at block word `j` is `block_r[j] ^ key_r[j]`,
    /// priced at `price` per set bit. Every residual word costs a
    /// non-negative amount, so a position's identity words bound its
    /// cost from below, and `false` means no start at any offset can
    /// pass for this key size.
    fn identity_bound_fits(
        &self,
        block_r: &[u32; BLOCK_BYTES / 4],
        key_r: &[u32; BLOCK_BYTES / 4],
        price: u64,
    ) -> bool {
        let mut pops = [0u32; BLOCK_BYTES / 4];
        let mut least = u32::MAX;
        for j in self.reads.clone() {
            pops[j] = (block_r[j] ^ key_r[j]).count_ones();
            least = least.min(pops[j]);
        }
        self.bounds.iter().any(|&(mask, budget)| {
            // A term's `n` words each carry at least `least` bits, so
            // `n · least` over budget rejects every offset at once, and
            // nearly every pair that is not a schedule or fill stops here.
            let floor = least.saturating_mul(mask.count_ones());
            u64::from(floor) * price <= budget
                && (0..LITMUS_OFFSETS).any(|oi| {
                    let bits: u32 = set_bits(mask << oi).map(|j| pops[j]).sum();
                    u64::from(bits) * price <= budget
                })
        })
    }
}

impl ChannelSweep {
    fn new(rc: &ReconstructConfig, config: &SearchConfig) -> Self {
        let step = if config.exhaustive_word_offsets { 1 } else { 4 };
        let sizes = config
            .key_sizes
            .iter()
            .map(|&size| {
                let nk = size.nk();
                let extend = TEST_SPAN / 4 - nk;
                let kinds: [[usize; 8]; 8] = from_fn(|ph| from_fn(|e| residual_kind(nk, ph + e)));
                // `start % Nk` fixes which extension words cross a
                // transform (Rcon/SubWord) step, hence the budget.
                let budgets = from_fn(|ph| {
                    let tr = kinds[ph][..extend]
                        .iter()
                        .filter(|&&k| k != RES_IDENT)
                        .count();
                    let bits = |words: usize| 32 * u32::try_from(words).unwrap_or(u32::MAX);
                    residual_budget_pair(&rc.res_ident, &rc.res_sbox, bits(extend - tr), bits(tr))
                });
                let phases = start_phases(size, step);
                let mut bounds: Vec<(u32, u64)> = Vec::new();
                for &ph in &phases {
                    let mask = (0..extend)
                        .filter(|&e| kinds[ph][e] == RES_IDENT)
                        .fold(0u32, |m, e| m | 1 << (nk + e));
                    match bounds.iter_mut().find(|(m, _)| *m == mask) {
                        Some((_, budget)) => *budget = (*budget).max(budgets[ph]),
                        None => bounds.push((mask, budgets[ph])),
                    }
                }
                let reads = mask_reads(bounds.iter().fold(0u32, |m, &(mask, _)| m | mask));
                ChannelSize {
                    size,
                    extend,
                    kinds,
                    budgets,
                    phases,
                    bounds,
                    reads,
                }
            })
            .collect();
        let c_id = u64::from(rc.res_ident.to_ground_millinats);
        let c_tr = u64::from(rc.res_sbox.to_ground_millinats);
        Self {
            sizes,
            price: [c_id, c_tr, c_tr],
            step,
            sub_from: config
                .key_sizes
                .iter()
                .map(|s| s.nk() - 1)
                .min()
                .unwrap_or(0),
        }
    }
}

/// The channel-mode litmus sweep (`config.reconstruct` enabled): scores
/// local recurrence *residuals* instead of rolling predictions.
///
/// At heavy decay a rolling predicted window diverges chaotically — a
/// single decayed window bit S-box-amplifies into every later predicted
/// word, so even the true position mismatches ~half its bits and no
/// Hamming budget separates it from noise. The residual
/// `w[i] ^ w[i−Nk] ^ f(i, w[i−1])` uses *observed* words only: under the
/// true key it is zero absent decay, and each decayed bit perturbs at
/// most a word or a byte of it, so its popcount stays channel-bounded.
/// Each residual word is priced by its phase channel
/// ([`ReconstructConfig::res_ident`]/[`ReconstructConfig::res_sbox`]) and
/// a position passes when the total cost fits the combined
/// [`residual_budget_pair`] budget for its phase pattern.
///
/// The sweep is table-driven. For a descrambled block `D`, the residual
/// at window offset `o` and start `s` reads block words `j = o + Nk + e`
/// only, and depends on `(o, s)` only through `j` and the phase of
/// `s + Nk + e`. So per candidate the sweep computes `SubWord(D[j])` once
/// (shared by every key size, as `SubWord ∘ RotWord = RotWord ∘ SubWord`),
/// and per key size the popcount of each block word's identity, `SubWord`
/// and low-24-bit Rcon residual. A position's cost is then a sum of table
/// entries: summed once per (offset, start phase), the entries bound every
/// start of the phase from below and reject the whole class before any
/// round constant's byte is added. Sums of the same integers, so hits and
/// distances equal the direct evaluation
/// (`channel_sweep_matches_reference`).
///
/// Before any of that, a (block, candidate) pair must pass the identity
/// bound: the identity residuals of the descrambled block are the block's
/// XOR the candidate's ([`identity_residuals`], the candidate's from the
/// pool), and their priced popcounts, summed over a position's identity
/// words, bound its cost from below. The tables run only for a pair
/// whose bound fits some (offset, start phase) budget of some key size
/// ([`ChannelSize::identity_bound_fits`]): 2,225 of 897,024 pairs
/// (0.25%) in a decayed-capture job (256 KiB, d = 0.02, seed 11), so the
/// sweep computes no `SubWord` for the rest. A rejected pair has no
/// passing position, so hits are unchanged.
///
/// The deliberate ~sub-percent false-positive rate per trial is absorbed
/// by stage 1 of the channel verification. In that job it rejects about
/// 3,000 hits, nearly all on decayed zero fill under its own key, in
/// 17–21 ms of verify-worker time (68–87 ms when it scored every
/// candidate in full; 2-vCPU host, back to back). Hits are appended in
/// the same candidate → key size → (offset, start) order as the
/// raw-distance sweep.
fn scan_block_channel(
    dump: &MemoryDump,
    pool: &CandidatePool,
    sweep: &ChannelSweep,
    pos: usize,
    i: usize,
    acc: &mut SweepAcc,
) {
    let block_w = block_words(dump.block(i));
    acc.block_res.clear();
    acc.block_res.extend(
        sweep
            .sizes
            .iter()
            .map(|cs| identity_residuals(&block_w, cs.size.nk())),
    );
    for (ci, kw) in pool.words.iter().enumerate() {
        let bounded = sweep.sizes.iter().enumerate().any(|(si, cs)| {
            let key_r = &pool.residuals[si].1[ci];
            cs.identity_bound_fits(&acc.block_res[si], key_r, sweep.price[RES_IDENT])
        });
        if !bounded {
            continue;
        }
        let d: [u32; BLOCK_BYTES / 4] = from_fn(|j| block_w[j] ^ kw[j]);
        // An all-zero descrambled span is unscrambled zero fill, not a
        // schedule — Rcon injection means no AES key expands to zeros. Its
        // only residual is the transform-phase f(0) cost, which the
        // generous heavy-decay budget would admit. Skip it outright.
        let nonzero = (0..d.len()).fold(0u32, |m, j| m | u32::from(d[j] != 0) << j);
        let live: [bool; LITMUS_OFFSETS] = from_fn(|oi| nonzero >> oi & SPAN_MASK != 0);
        if !live.contains(&true) {
            continue;
        }
        let mut sub = [0u32; BLOCK_BYTES / 4];
        for j in sweep.sub_from..d.len() - 1 {
            sub[j] = sub_word(d[j]);
        }
        for cs in &sweep.sizes {
            let nk = cs.size.nk();
            // `bits[j][kind]`: residual popcount of block word `j` under
            // each residual kind; `rcon_hi[j]`: the Rcon residual's high
            // byte before the round constant.
            let mut bits = [[0u32; 3]; BLOCK_BYTES / 4];
            let mut rcon_hi = [0u8; BLOCK_BYTES / 4];
            for j in nk..d.len() {
                let t = d[j] ^ d[j - nk];
                bits[j][RES_IDENT] = (t ^ d[j - 1]).count_ones();
                if nk > 6 {
                    bits[j][RES_SUB] = (t ^ sub[j - 1]).count_ones();
                }
                let r = t ^ rot_word(sub[j - 1]);
                bits[j][RES_RCON] = (r & 0x00FF_FFFF).count_ones();
                rcon_hi[j] = (r >> 24) as u8;
            }
            for oi in (0..LITMUS_OFFSETS).filter(|&oi| live[oi]) {
                let words = &bits[oi + nk..oi + nk + cs.extend];
                // (cost, distance) of every start phase without its round
                // constants: a lower bound for every start of the phase.
                let mut base = [(0u64, 0u32); 8];
                let mut viable = [false; 8];
                for &ph in &cs.phases {
                    let (mut cost, mut distance) = (0u64, 0u32);
                    for (w, &kind) in words.iter().zip(&cs.kinds[ph]) {
                        cost += u64::from(w[kind]) * sweep.price[kind];
                        distance += w[kind];
                    }
                    base[ph] = (cost, distance);
                    viable[ph] = cost <= cs.budgets[ph];
                }
                if !viable.contains(&true) {
                    continue;
                }
                for start in (0..=cs.size.schedule_words() - TEST_SPAN / 4).step_by(sweep.step) {
                    let ph = start % nk;
                    if !viable[ph] {
                        continue;
                    }
                    let (mut cost, mut distance) = base[ph];
                    let mut e = (nk - ph) % nk;
                    while e < cs.extend {
                        let round = (start + nk + e) / nk;
                        let n = (rcon_hi[oi + nk + e] ^ (rcon(round) >> 24) as u8).count_ones();
                        cost += u64::from(n) * sweep.price[RES_RCON];
                        distance += n;
                        e += nk;
                    }
                    if cost <= cs.budgets[ph] {
                        acc.hits.push((
                            pos,
                            ScheduleHit {
                                block_addr: dump.block_addr(i),
                                scrambler_key: pool.keys[ci].key,
                                key_size: cs.size,
                                window_offset: oi * 4,
                                start_word: start,
                                prediction_distance: distance,
                            },
                        ));
                    }
                }
            }
        }
    }
}

/// The direct form of [`scan_block_channel`]: descramble per candidate and
/// evaluate every residual of every position. Retained as the reference
/// the table-driven sweep is tested against.
#[cfg(test)]
fn scan_block_channel_reference(
    dump: &MemoryDump,
    candidates: &[CandidateKey],
    key_words: &[[u32; BLOCK_BYTES / 4]],
    rc: &ReconstructConfig,
    config: &SearchConfig,
    i: usize,
    hits: &mut Vec<ScheduleHit>,
) {
    let block_w = block_words(dump.block(i));
    let step = if config.exhaustive_word_offsets { 1 } else { 4 };
    let c_id = u64::from(rc.res_ident.to_ground_millinats);
    let c_tr = u64::from(rc.res_sbox.to_ground_millinats);
    let mut desc = [0u32; BLOCK_BYTES / 4];
    for (ci, kw) in key_words.iter().enumerate() {
        for (d, (b, k)) in desc.iter_mut().zip(block_w.iter().zip(kw)) {
            *d = b ^ k;
        }
        for &size in &config.key_sizes {
            let nk = size.nk();
            let total = size.schedule_words();
            let extend = TEST_SPAN / 4 - nk;
            let mut budgets = [0u64; 8];
            for (rem, budget) in budgets.iter_mut().enumerate().take(nk) {
                let tr = u32::try_from(
                    (0..extend)
                        .filter(|e| residual_kind(nk, rem + e) != RES_IDENT)
                        .count(),
                )
                .unwrap_or(u32::MAX);
                *budget = residual_budget_pair(
                    &rc.res_ident,
                    &rc.res_sbox,
                    32 * (u32::try_from(extend).unwrap_or(u32::MAX) - tr),
                    32 * tr,
                );
            }
            for oi in 0..LITMUS_OFFSETS {
                let span = &desc[oi..oi + TEST_SPAN / 4];
                if span.iter().all(|&w| w == 0) {
                    continue;
                }
                let mut start = 0usize;
                while start + TEST_SPAN / 4 <= total {
                    let mut cost = 0u64;
                    let mut distance = 0u32;
                    for e in 0..extend {
                        let idx = start + nk + e;
                        let r =
                            span[nk + e] ^ span[e] ^ expansion_step(size, idx, span[nk + e - 1]);
                        let n = r.count_ones();
                        distance += n;
                        cost += u64::from(n)
                            * if residual_kind(nk, idx) == RES_IDENT {
                                c_id
                            } else {
                                c_tr
                            };
                    }
                    if cost <= budgets[start % nk] {
                        hits.push(ScheduleHit {
                            block_addr: dump.block_addr(i),
                            scrambler_key: candidates[ci].key,
                            key_size: size,
                            window_offset: oi * 4,
                            start_word: start,
                            prediction_distance: distance,
                        });
                    }
                    start += step;
                }
            }
        }
    }
}

/// The per-candidate form the batched sweep replaced: descramble the block
/// for every candidate, run the full litmus per key size. Retained as the
/// reference implementation the batched-sweep equivalence tests compare
/// against.
#[cfg(test)]
fn scan_block_reference(
    dump: &MemoryDump,
    candidates: &[CandidateKey],
    key_words: &[[u32; BLOCK_BYTES / 4]],
    config: &SearchConfig,
    i: usize,
    hits: &mut Vec<ScheduleHit>,
) {
    let block_w = block_words(dump.block(i));
    let mut desc = [0u32; BLOCK_BYTES / 4];
    for (cand, kw) in candidates.iter().zip(key_words) {
        for j in 0..BLOCK_BYTES / 4 {
            desc[j] = block_w[j] ^ kw[j];
        }
        for &size in &config.key_sizes {
            for m in aes_block_litmus_words(
                &desc,
                size,
                config.block_tolerance_bits,
                config.exhaustive_word_offsets,
            ) {
                hits.push(ScheduleHit {
                    block_addr: dump.block_addr(i),
                    scrambler_key: cand.key,
                    key_size: size,
                    window_offset: m.window_offset,
                    start_word: m.start_word,
                    prediction_distance: m.distance,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_crypto::aes::KeySchedule;
    use coldboot_crypto::rng::SplitMix64;

    fn schedule_bytes(key: &[u8]) -> Vec<u8> {
        KeySchedule::expand(key).unwrap().to_bytes()
    }

    /// Builds a dump: `pre` bytes of filler, then the schedule, then filler,
    /// XORed per-block with the given repeating key set.
    fn build_dump(
        pre: usize,
        key: &[u8],
        scrambler_keys: &[[u8; 64]],
    ) -> (MemoryDump, Vec<CandidateKey>) {
        let sched = schedule_bytes(key);
        let mut image = vec![0x11u8; pre];
        image.extend_from_slice(&sched);
        while !image.len().is_multiple_of(64) || image.len() < pre + sched.len() + 128 {
            image.push(0x22);
        }
        for (i, chunk) in image.chunks_mut(64).enumerate() {
            let k = &scrambler_keys[i % scrambler_keys.len()];
            for (b, kb) in chunk.iter_mut().zip(k.iter()) {
                *b ^= kb;
            }
        }
        let candidates = scrambler_keys
            .iter()
            .map(|k| CandidateKey {
                key: *k,
                observations: 1,
            })
            .collect();
        (MemoryDump::new(image, 0), candidates)
    }

    fn test_keys() -> Vec<[u8; 64]> {
        (0..4u8)
            .map(|t| {
                core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(t * 53) ^ 0x5A)
            })
            .collect()
    }

    #[test]
    fn litmus_recognizes_clean_schedule_blocks() {
        let key: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(7).wrapping_add(1))
            .collect();
        let sched = schedule_bytes(&key);
        // Block 1 of the (aligned) schedule: bytes 64..128 = words 16..32.
        let block: [u8; 64] = sched[64..128].try_into().unwrap();
        let matches = aes_block_litmus(&block, KeySize::Aes256, 0, false);
        assert!(
            matches.contains(&LitmusMatch {
                window_offset: 0,
                start_word: 16,
                distance: 0
            }),
            "true position missing from {matches:?}"
        );
    }

    #[test]
    fn litmus_handles_unaligned_schedules() {
        let sched = schedule_bytes(&[0x17u8; 32]);
        for shift in [4usize, 8, 12] {
            let mut region = vec![0x99u8; shift];
            region.extend_from_slice(&sched);
            region.resize(64 * 5, 0x99);
            let block: [u8; 64] = region[64..128].try_into().unwrap();
            let matches = aes_block_litmus(&block, KeySize::Aes256, 0, false);
            assert!(!matches.is_empty(), "no hit at shift {shift}");
            // The true (round-key-aligned) position must be among them.
            assert!(
                matches
                    .iter()
                    .any(|m| m.distance == 0 && (m.window_offset + 64 - shift) % 16 == 0),
                "round-aligned hit missing at shift {shift}: {matches:?}"
            );
        }
    }

    #[test]
    fn litmus_rejects_random_blocks() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..200 {
            let block: [u8; 64] = rng.bytes();
            for size in KeySize::ALL {
                assert!(aes_block_litmus(&block, size, 10, false).is_empty());
            }
        }
    }

    #[test]
    fn litmus_works_for_all_key_sizes() {
        for size in KeySize::ALL {
            let key: Vec<u8> = (0..size.key_len() as u8).map(|b| b ^ 0x3C).collect();
            let sched = schedule_bytes(&key);
            let block: [u8; 64] = sched[64..128].try_into().unwrap();
            assert!(
                !aes_block_litmus(&block, size, 0, false).is_empty(),
                "{size:?} block not recognized"
            );
        }
    }

    #[test]
    fn litmus_tolerates_bit_decay_in_prediction_target() {
        // NOTE: a varied key — repeated-byte keys produce degenerate
        // schedules with coincidental matches at shifted positions.
        let key: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(41).wrapping_add(3))
            .collect();
        let sched = schedule_bytes(&key);
        let mut block: [u8; 64] = sched[64..128].try_into().unwrap();
        // Damage the *predicted* region (last 16 bytes of the 48-byte span),
        // not the window.
        block[34] ^= 0x01;
        block[40] ^= 0x80;
        let matches = aes_block_litmus(&block, KeySize::Aes256, 10, false);
        assert!(
            matches.contains(&LitmusMatch {
                window_offset: 0,
                start_word: 16,
                distance: 2
            }),
            "damaged-but-tolerated position missing from {matches:?}"
        );
    }

    #[test]
    fn search_recovers_key_from_scrambled_dump() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(59).wrapping_add(0xC4));
        let keys = test_keys();
        let (dump, candidates) = build_dump(192, &master, &keys);
        let outcome = search_dump(&dump, &candidates, &SearchConfig::default());
        assert!(!outcome.hits.is_empty());
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(outcome.recovered[0].master_key, master.to_vec());
        assert_eq!(outcome.recovered[0].schedule_addr, 192);
        assert_eq!(outcome.recovered[0].total_error_bits, 0);
    }

    #[test]
    fn search_recovers_unaligned_schedule() {
        let master: Vec<u8> = (0..32).map(|i| (i * 11) as u8).collect();
        let keys = test_keys();
        let (dump, candidates) = build_dump(100, &master, &keys); // 100 % 16 == 4
        let outcome = search_dump(&dump, &candidates, &SearchConfig::default());
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(outcome.recovered[0].master_key, master);
        assert_eq!(outcome.recovered[0].schedule_addr, 100);
    }

    #[test]
    fn search_recovers_aes128() {
        let master: [u8; 16] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(23).wrapping_add(0x77));
        let keys = test_keys();
        let (dump, candidates) = build_dump(256, &master, &keys);
        let config = SearchConfig {
            key_sizes: vec![KeySize::Aes128],
            ..SearchConfig::default()
        };
        let outcome = search_dump(&dump, &candidates, &config);
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(outcome.recovered[0].master_key, master.to_vec());
    }

    #[test]
    fn search_recovers_aes192() {
        let master: [u8; 24] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(19).wrapping_add(0x31));
        let keys = test_keys();
        let (dump, candidates) = build_dump(256, &master, &keys);
        let config = SearchConfig {
            key_sizes: vec![KeySize::Aes192],
            ..SearchConfig::default()
        };
        let outcome = search_dump(&dump, &candidates, &config);
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(outcome.recovered[0].master_key, master.to_vec());
        assert_eq!(outcome.recovered[0].schedule_addr, 256);
    }

    #[test]
    fn search_survives_bit_decay() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(67).wrapping_add(0x5E));
        let keys = test_keys();
        let (dump, candidates) = build_dump(192, &master, &keys);
        // Flip scattered bits across the image (~0.2% of bits).
        let mut image = dump.bytes().to_vec();
        let nbits = image.len() * 8;
        let mut pos = 97usize;
        let mut flips = 0;
        while pos < nbits {
            image[pos / 8] ^= 1 << (pos % 8);
            flips += 1;
            pos += 449; // co-prime stride
        }
        assert!(flips > 10);
        let dump = MemoryDump::new(image, 0);
        let outcome = search_dump(&dump, &candidates, &SearchConfig::default());
        assert_eq!(outcome.recovered.len(), 1, "decay defeated the search");
        assert_eq!(outcome.recovered[0].master_key, master.to_vec());
        assert!(outcome.recovered[0].total_error_bits > 0);
    }

    #[test]
    fn search_with_region_restriction() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(13).wrapping_add(0x99));
        let keys = test_keys();
        let (dump, candidates) = build_dump(192, &master, &keys);
        let miss = SearchConfig {
            region: Some(1024..2048),
            ..SearchConfig::default()
        };
        assert!(search_dump(&dump, &candidates, &miss).recovered.is_empty());
        let hit = SearchConfig {
            region: Some(0..1024),
            ..SearchConfig::default()
        };
        assert_eq!(search_dump(&dump, &candidates, &hit).recovered.len(), 1);
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(0xD2));
        let keys = test_keys();
        let (dump, candidates) = build_dump(320, &master, &keys);
        let seq_config = SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        };
        let seq = search_dump(&dump, &candidates, &seq_config);
        for threads in [2usize, 4, 8] {
            let par_config = SearchConfig {
                threads,
                ..SearchConfig::default()
            };
            let par = search_dump(&dump, &candidates, &par_config);
            // Byte-identical, identically ordered — not just the same set.
            assert_eq!(seq.hits, par.hits, "threads={threads}");
            assert_eq!(seq.recovered, par.recovered, "threads={threads}");
            assert_eq!(seq.blocks_scanned, par.blocks_scanned);
        }
    }

    #[test]
    fn skewed_hit_placement_keeps_parallel_output_identical() {
        // Regression for the static-chunking scan: all schedules live in the
        // final stretch of the dump, so whole-range-per-worker partitioning
        // put every hit in the last worker's chunk (and any reordered merge
        // of worker results scrambled hit order). The engine must return
        // hits in block order regardless of thread count.
        let keys = test_keys();
        let mut image = vec![0x33u8; 64 * 96];
        let masters: Vec<[u8; 32]> = (0..3u8)
            .map(|t| {
                core::array::from_fn(|i| {
                    (i as u8)
                        .wrapping_mul(61)
                        .wrapping_add(t.wrapping_mul(87) ^ 0x19)
                })
            })
            .collect();
        // Three schedules packed at the tail, 64*80, 64*85, 64*90.
        for (n, master) in masters.iter().enumerate() {
            let sched = schedule_bytes(master);
            let at = 64 * (80 + n * 5);
            image[at..at + sched.len()].copy_from_slice(&sched);
        }
        for (i, chunk) in image.chunks_mut(64).enumerate() {
            let k = &keys[i % keys.len()];
            for (b, kb) in chunk.iter_mut().zip(k.iter()) {
                *b ^= kb;
            }
        }
        let candidates: Vec<CandidateKey> = keys
            .iter()
            .map(|k| CandidateKey {
                key: *k,
                observations: 1,
            })
            .collect();
        let dump = MemoryDump::new(image, 0);
        let seq = search_dump(
            &dump,
            &candidates,
            &SearchConfig {
                threads: 1,
                ..SearchConfig::default()
            },
        );
        assert_eq!(seq.recovered.len(), 3);
        assert!(seq.hits.len() >= 3);
        for threads in [2usize, 3, 8] {
            let par = search_dump(
                &dump,
                &candidates,
                &SearchConfig {
                    threads,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(seq.hits, par.hits, "threads={threads}");
            assert_eq!(seq.recovered, par.recovered, "threads={threads}");
        }
    }

    #[test]
    fn deep_search_locates_schedules_when_every_window_is_decayed() {
        // Adversarial damage: bits flipped inside EVERY expansion window of
        // every schedule block. The default tolerance finds nothing at all;
        // deep() still locates the schedule and recovers the key to within
        // the damage (with no clean window anywhere, exact recovery is
        // information-theoretically unavailable — under *random* decay a
        // clean window exists with high probability and recovery is exact,
        // as the decay-sweep experiment shows).
        let master: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(71).wrapping_add(5));
        let keys = test_keys();
        let (dump, candidates) = build_dump(192, &master, &keys);
        let mut image = dump.bytes().to_vec();
        // Two flips in each aligned window's checked region: bytes 2/6
        // damage the offset-0 window (prediction distance 7 > default
        // tolerance 6), bytes 18/22 damage the offset-16 window the same
        // way while sitting in the offset-0 window's unchecked middle.
        for block_start in (192..432).step_by(64) {
            image[block_start + 2] ^= 0x10;
            image[block_start + 6] ^= 0x01;
            image[block_start + 18] ^= 0x04;
            image[block_start + 22] ^= 0x40;
        }
        let dump = MemoryDump::new(image, 0);

        let shallow = search_dump(&dump, &candidates, &SearchConfig::default());
        assert!(
            shallow.recovered.is_empty(),
            "default tolerance should miss"
        );

        let deep = search_dump(&dump, &candidates, &SearchConfig::deep());
        assert_eq!(deep.recovered.len(), 1, "deep search failed to locate");
        assert_eq!(deep.recovered[0].schedule_addr, 192);
        let dist = coldboot_crypto::hamming::distance(&deep.recovered[0].master_key, &master);
        assert!(dist <= 20, "recovered key too damaged: {dist} bits");
    }

    fn stream_in_windows(
        dump: &MemoryDump,
        candidates: &[CandidateKey],
        config: &SearchConfig,
        window_blocks: usize,
    ) -> SearchOutcome {
        stream_observed(dump, candidates, config, window_blocks, &Arc::default())
    }

    fn stream_observed(
        dump: &MemoryDump,
        candidates: &[CandidateKey],
        config: &SearchConfig,
        window_blocks: usize,
        metrics: &Arc<SearchMetrics>,
    ) -> SearchOutcome {
        stream_fed(dump, candidates, config, window_blocks, metrics).finish()
    }

    /// A searcher that has been pushed all of `dump` in windows of
    /// `window_blocks` blocks, not yet finished.
    fn stream_fed(
        dump: &MemoryDump,
        candidates: &[CandidateKey],
        config: &SearchConfig,
        window_blocks: usize,
        metrics: &Arc<SearchMetrics>,
    ) -> StreamSearcher {
        let mut s = StreamSearcher::new(candidates, config).with_metrics(Arc::clone(metrics));
        let mut i = 0;
        while i < dump.len_blocks() {
            let take = window_blocks.min(dump.len_blocks() - i);
            let w = MemoryDump::new(
                dump.bytes()[i * 64..(i + take) * 64].to_vec(),
                dump.block_addr(i),
            );
            s.push(&w);
            i += take;
        }
        s
    }

    /// An AES-256 and an AES-128 schedule among runs of zero fill,
    /// scrambled like [`build_dump`]: each zero block then equals its
    /// candidate key, and the runs cross any small window boundary.
    fn fill_dump() -> (MemoryDump, Vec<CandidateKey>) {
        let mut image = vec![0x22u8; 64 * 48];
        let aes256: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(29).wrapping_add(0xD2))
            .collect();
        let aes128: Vec<u8> = (0..16u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(5))
            .collect();
        for (at, master) in [(320, aes256), (64 * 30, aes128)] {
            let sched = schedule_bytes(&master);
            image[at..at + sched.len()].copy_from_slice(&sched);
        }
        for block in (0..5).chain(12..21).chain(40..48) {
            image[64 * block..64 * (block + 1)].fill(0);
        }
        let keys = test_keys();
        for (i, chunk) in image.chunks_mut(64).enumerate() {
            for (b, kb) in chunk.iter_mut().zip(&keys[i % keys.len()]) {
                *b ^= kb;
            }
        }
        let candidates = keys
            .iter()
            .map(|k| CandidateKey {
                key: *k,
                observations: 1,
            })
            .collect();
        (MemoryDump::new(image, 0), candidates)
    }

    /// Blocks equal to a candidate key minus their distinct contents: the
    /// blocks a search copies hits for instead of sweeping.
    fn expected_reuse(dump: &MemoryDump, candidates: &[CandidateKey]) -> u64 {
        let keyed: Vec<&[u8; 64]> = (0..dump.len_blocks())
            .map(|i| dump.block(i))
            .filter(|b| candidates.iter().any(|c| &c.key == *b))
            .collect();
        let distinct: std::collections::HashSet<&[u8; 64]> = keyed.iter().copied().collect();
        (keyed.len() - distinct.len()) as u64
    }

    #[test]
    fn streamed_search_is_byte_identical_to_in_memory() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(0xD2));
        let keys = test_keys();
        let plain = build_dump(320, &master, &keys);
        let filled = fill_dump();
        // Exhaustive offsets at 16 bits let zero-fill windows match (three
        // identity steps, then one Rcon step of ~15 bits), so repeats of a
        // fill block copy real hits, not just an empty list.
        let wide = SearchConfig {
            exhaustive_word_offsets: true,
            block_tolerance_bits: 16,
            ..SearchConfig::default()
        };
        // Each case carries its exact recovery count, so a dedup slip that
        // reports one planted schedule twice fails here.
        let cases = [
            (&plain, SearchConfig::default(), 1),
            (&filled, SearchConfig::default(), 2),
            (&filled, wide.clone(), 2),
        ];
        for ((dump, candidates), base, want) in cases {
            let whole = search_dump(dump, candidates, &base);
            assert_eq!(whole.recovered.len(), want);
            // Window sizes below the schedule span force verification
            // deferral across pushes; larger ones exercise the trivial
            // path. Fill runs cross the 1- and 7-block window boundaries.
            for wb in [1usize, 2, 3, 5, 7, 16, 512] {
                for threads in [1usize, 2, 8] {
                    let config = SearchConfig {
                        threads,
                        ..base.clone()
                    };
                    let metrics = Arc::new(SearchMetrics::default());
                    let streamed = stream_observed(dump, candidates, &config, wb, &metrics);
                    let at = format!("window={wb} threads={threads}");
                    assert_eq!(whole.hits, streamed.hits, "{at}");
                    assert_eq!(whole.recovered, streamed.recovered, "{at}");
                    assert_eq!(whole.blocks_scanned, streamed.blocks_scanned, "{at}");
                    assert_eq!(
                        metrics.reused_blocks.get(),
                        expected_reuse(dump, candidates),
                        "{at}"
                    );
                }
            }
        }
        // The fill dump reuses: 22 zero blocks over 4 scrambler keys.
        assert_eq!(expected_reuse(&filled.0, &filled.1), 22 - 4);
        // Block 16 repeats block 0's bytes, and under `wide` it has hits.
        let hits = search_dump(&filled.0, &filled.1, &wide).hits;
        assert!(hits.iter().any(|h| h.block_addr == 64 * 16));
    }

    #[test]
    fn streamed_search_respects_nonzero_base_and_region() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(53).wrapping_add(0x21));
        let keys = test_keys();
        let (dump, candidates) = build_dump(192, &master, &keys);
        // Rebase the same image at a nonzero physical address.
        let base = 0x4_0000u64;
        let dump = MemoryDump::new(dump.bytes().to_vec(), base);
        let config = SearchConfig {
            region: Some(base..base + 1024),
            ..SearchConfig::default()
        };
        let whole = search_dump(&dump, &candidates, &config);
        assert_eq!(whole.recovered.len(), 1);
        assert_eq!(whole.recovered[0].schedule_addr, base + 192);
        for wb in [2usize, 7] {
            let streamed = stream_in_windows(&dump, &candidates, &config, wb);
            assert_eq!(whole.hits, streamed.hits, "window={wb}");
            assert_eq!(whole.recovered, streamed.recovered, "window={wb}");
        }
    }

    #[test]
    fn observed_search_is_byte_identical_and_counts_add_up() {
        let (dump, candidates) = fill_dump();
        let config = SearchConfig::default();
        let plain = search_dump(&dump, &candidates, &config);

        let registry = MetricsRegistry::new();
        let metrics = SearchMetrics::register(&registry);
        let mut searcher =
            StreamSearcher::new(&candidates, &config).with_metrics(Arc::clone(&metrics));
        searcher.push(&dump);
        let observed = searcher.finish();
        assert_eq!(plain.hits, observed.hits, "metrics must not perturb hits");
        assert_eq!(plain.recovered, observed.recovered);
        assert_eq!(plain.blocks_scanned, observed.blocks_scanned);

        assert_eq!(metrics.blocks.get(), dump.len_blocks() as u64);
        assert_eq!(metrics.hits.get(), observed.hits.len() as u64);
        assert!(metrics.recoveries.get() >= observed.recovered.len() as u64);
        assert_eq!(
            metrics.hits.get(),
            metrics.recoveries.get() + metrics.verify_rejects.get(),
            "every hit is verified exactly once"
        );
        assert_eq!(
            metrics.reconstruct_us.count() + metrics.verify_reused.get(),
            metrics.hits.get(),
            "one run per span, every other hit reuses"
        );
        assert!(metrics.corrector_runs.get() <= metrics.reconstruct_us.count());
        // Every region block is either swept by the engine or reuses an
        // earlier block's hits.
        assert!(metrics.reused_blocks.get() > 0);
        assert_eq!(
            metrics.engine.items.get() + metrics.reused_blocks.get(),
            dump.len_blocks() as u64
        );
    }

    /// Runs one shard of a sharded search: blocks `[a, b)` of `dump` are
    /// this shard's region; windows covering `[a - ctx, b + ctx)` (clamped)
    /// are fed so hits at the region edges verify with full context —
    /// exactly what a cluster worker does with a CBDF block range.
    fn shard_search(
        dump: &MemoryDump,
        candidates: &[CandidateKey],
        config: &SearchConfig,
        a: usize,
        b: usize,
        window_blocks: usize,
    ) -> SearchPartial {
        let total = dump.len_blocks();
        let feed_start = a.saturating_sub(SCHEDULE_CONTEXT_BLOCKS);
        let feed_end = (b + SCHEDULE_CONTEXT_BLOCKS).min(total);
        let region_start = dump.base_addr() + (a * BLOCK_BYTES) as u64;
        let region_end = dump.base_addr() + (b * BLOCK_BYTES) as u64;
        let shard_config = SearchConfig {
            region: Some(region_start..region_end),
            ..config.clone()
        };
        let mut s = StreamSearcher::new(candidates, &shard_config);
        let mut i = feed_start;
        while i < feed_end {
            let take = window_blocks.min(feed_end - i);
            let w = MemoryDump::new(
                dump.bytes()[i * 64..(i + take) * 64].to_vec(),
                dump.block_addr(i),
            );
            s.push(&w);
            i += take;
        }
        s.finish_partial()
    }

    #[test]
    fn sharded_search_merge_is_byte_identical_to_whole_dump() {
        // Three schedules, one straddling a shard boundary, so cross-shard
        // context and the dedup replay are both exercised.
        let keys = test_keys();
        let mut image = vec![0x33u8; 64 * 96];
        let masters: Vec<[u8; 32]> = (0..3u8)
            .map(|t| {
                core::array::from_fn(|i| {
                    (i as u8)
                        .wrapping_mul(61)
                        .wrapping_add(t.wrapping_mul(87) ^ 0x19)
                })
            })
            .collect();
        for (n, master) in masters.iter().enumerate() {
            let sched = schedule_bytes(master);
            let at = 64 * (20 + n * 26); // blocks 20, 46, 72
            image[at..at + sched.len()].copy_from_slice(&sched);
        }
        for (i, chunk) in image.chunks_mut(64).enumerate() {
            let k = &keys[i % keys.len()];
            for (b, kb) in chunk.iter_mut().zip(k.iter()) {
                *b ^= kb;
            }
        }
        let candidates: Vec<CandidateKey> = keys
            .iter()
            .map(|k| CandidateKey {
                key: *k,
                observations: 1,
            })
            .collect();
        let dump = MemoryDump::new(image, 0);
        let config = SearchConfig::default();
        let whole = search_dump(&dump, &candidates, &config);
        assert_eq!(whole.recovered.len(), 3);
        let total = dump.len_blocks();
        for shards in [1usize, 2, 4, 8] {
            let per = total.div_ceil(shards);
            let parts: Vec<SearchPartial> = (0..shards)
                .filter_map(|s| {
                    let a = s * per;
                    let b = ((s + 1) * per).min(total);
                    (a < b).then(|| shard_search(&dump, &candidates, &config, a, b, 7))
                })
                .collect();
            let merged = merge_search_partials(parts);
            assert_eq!(whole.hits, merged.hits, "shards={shards}");
            assert_eq!(whole.recovered, merged.recovered, "shards={shards}");
            assert_eq!(
                whole.blocks_scanned, merged.blocks_scanned,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn finish_partial_of_whole_image_merges_to_finish() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(0xD2));
        let keys = test_keys();
        let (dump, candidates) = build_dump(320, &master, &keys);
        let config = SearchConfig::default();
        let whole = search_dump(&dump, &candidates, &config);
        let mut s = StreamSearcher::new(&candidates, &config);
        s.push(&dump);
        let merged = merge_search_partials([s.finish_partial()]);
        assert_eq!(whole.hits, merged.hits);
        assert_eq!(whole.recovered, merged.recovered);
        assert_eq!(whole.blocks_scanned, merged.blocks_scanned);
    }

    #[test]
    fn wrong_candidates_find_nothing() {
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(0xAB));
        let keys = test_keys();
        let (dump, _) = build_dump(192, &master, &keys);
        let wrong: Vec<CandidateKey> = (10..14u8)
            .map(|t| CandidateKey {
                key: core::array::from_fn(|i| (i as u8).wrapping_mul(13) ^ t.wrapping_mul(29)),
                observations: 1,
            })
            .collect();
        let outcome = search_dump(&dump, &wrong, &SearchConfig::default());
        assert!(outcome.recovered.is_empty());
    }

    /// Runs the retained per-candidate reference over every block in order
    /// — the exact hit list the batched sweep must reproduce.
    fn reference_hits(
        dump: &MemoryDump,
        candidates: &[CandidateKey],
        config: &SearchConfig,
    ) -> Vec<ScheduleHit> {
        let key_words: Vec<[u32; BLOCK_BYTES / 4]> = candidates
            .iter()
            .map(|cand| block_words(&cand.key))
            .collect();
        let mut hits = Vec::new();
        for i in 0..dump.len_blocks() {
            scan_block_reference(dump, candidates, &key_words, config, i, &mut hits);
        }
        hits
    }

    #[test]
    fn batched_sweep_matches_reference_on_schedule_dump() {
        let master: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(11).wrapping_add(5));
        let keys = test_keys();
        let (dump, candidates) = build_dump(256, &master, &keys);
        for threads in [1usize, 2, 8] {
            let config = SearchConfig {
                threads,
                ..SearchConfig::default()
            };
            let got = search_dump(&dump, &candidates, &config).hits;
            assert_eq!(
                got,
                reference_hits(&dump, &candidates, &config),
                "threads={threads}"
            );
            assert!(!got.is_empty(), "schedule dump must produce hits");
        }
    }

    #[test]
    fn residual_bound_planes_match_the_scalar_bound() {
        // The bit-sliced bound passes exactly the triples the scalar
        // `residual_bound_reference` passes, across partial lane groups,
        // every key-size subset, both start steps and tolerances 0–40, and
        // every match the reference litmus finds lies on a surviving
        // triple. Candidate c is K0 ^ Nc, where N0 = 0 and Nc sets each bit
        // with its own probability, so a block scrambled by K0 descrambles
        // under c to its plain words ^ Nc and bound popcounts spread over
        // 0..=32.
        let all_sizes = [KeySize::Aes256, KeySize::Aes192, KeySize::Aes128];
        let mut rng = SplitMix64::new(0x5EED);
        let noise = |rng: &mut SplitMix64, p: f64| -> [u32; 16] {
            from_fn(|_| (0..32).fold(0u32, |w, b| w | u32::from(rng.gen_bool(p)) << b))
        };
        // Plain blocks: zero fill (the block equals K0), a random block,
        // and one schedule block per key size, each also with three
        // decayed bits.
        let words = |bytes: &[u8]| -> [u32; 16] {
            from_fn(|j| u32::from_be_bytes(bytes[4 * j..4 * j + 4].try_into().unwrap()))
        };
        let mut plains: Vec<[u32; 16]> = vec![[0; 16], from_fn(|_| rng.next_u64() as u32)];
        for (key_len, at) in [(32usize, 64usize), (24, 84), (16, 48)] {
            let key: Vec<u8> = (0..key_len).map(|_| rng.next_u64() as u8).collect();
            let clean = words(&schedule_bytes(&key)[at..at + 64]);
            let mut decayed = clean;
            for _ in 0..3 {
                decayed[rng.range(0..16) as usize] ^= 1 << rng.range(0..32);
            }
            plains.extend([clean, decayed]);
        }
        // Per tolerance below 32: lanes whose bound popcount is exactly
        // the tolerance (they pass) and one more (they fail).
        let mut edges = [[0usize; 2]; 32];
        let mut matches = 0usize;
        for n in [1usize, 63, 64, 65, 130] {
            let k0: [u32; 16] = from_fn(|_| rng.next_u64() as u32);
            let key_words: Vec<[u32; 16]> = (0..n)
                .map(|c| {
                    let p = if c == 0 { 0.0 } else { rng.unit() };
                    let nc = noise(&mut rng, p);
                    from_fn(|j| k0[j] ^ nc[j])
                })
                .collect();
            let candidates: Vec<CandidateKey> = key_words
                .iter()
                .map(|kw| CandidateKey {
                    key: from_fn(|b| kw[b / 4].to_be_bytes()[b % 4]),
                    observations: 1,
                })
                .collect();
            let blocks: Vec<[u32; 16]> = plains.iter().map(|p| from_fn(|j| p[j] ^ k0[j])).collect();
            let image = blocks.iter().flatten().flat_map(|w| w.to_be_bytes());
            let dump = MemoryDump::new(image.collect(), 0);
            for subset in 1..8usize {
                let sizes: Vec<KeySize> = (0..3)
                    .filter(|bit| subset >> bit & 1 == 1)
                    .map(|bit| all_sizes[bit])
                    .collect();
                let pool = CandidatePool::new(&candidates, &sizes);
                for exhaustive in [false, true] {
                    let sliced = SlicedKeys::new(&pool, exhaustive);
                    for (i, block) in blocks.iter().enumerate() {
                        let bound = residual_bound_reference(block, &key_words, &sizes, exhaustive);
                        for tol in 0..=40u32 {
                            let ctx = format!(
                                "n={n} sizes={sizes:?} exhaustive={exhaustive} block={i} tol={tol}"
                            );
                            let mut got = Vec::new();
                            sliced.survivors(block, tol, &mut got);
                            got.sort_unstable();
                            let want: Vec<(usize, usize, usize)> = bound
                                .iter()
                                .filter(|&&(_, least)| least <= tol)
                                .map(|&(triple, _)| triple)
                                .collect();
                            assert_eq!(got, want, "{ctx}");
                            if let Some(edge) = edges.get_mut(tol as usize) {
                                for &(_, least) in &bound {
                                    if least == tol || least == tol + 1 {
                                        edge[(least - tol) as usize] += 1;
                                    }
                                }
                            }
                            let config = SearchConfig {
                                key_sizes: sizes.clone(),
                                block_tolerance_bits: tol,
                                exhaustive_word_offsets: exhaustive,
                                ..SearchConfig::default()
                            };
                            for ci in 0..n {
                                let mut hits = Vec::new();
                                scan_block_reference(
                                    &dump,
                                    &candidates[ci..=ci],
                                    &key_words[ci..=ci],
                                    &config,
                                    i,
                                    &mut hits,
                                );
                                for hit in &hits {
                                    let si = sizes.iter().position(|&s| s == hit.key_size).unwrap();
                                    let triple = (ci, si, hit.window_offset / 4);
                                    assert!(
                                        got.binary_search(&triple).is_ok(),
                                        "{ctx}: match at start {} on rejected triple {triple:?}",
                                        hit.start_word
                                    );
                                    matches += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        for (tol, [at, over]) in edges.iter().enumerate() {
            assert!(
                *at > 0 && *over > 0,
                "tol={tol}: {at} lanes at it, {over} one over"
            );
        }
        assert!(
            matches > 0,
            "the schedule blocks must produce litmus matches"
        );
    }

    mod batched_equivalence {
        use super::*;

        /// Seeded cases; case `i` draws from `SplitMix64::new(i)`.
        const CASES: u64 = 32;

        /// The batched candidate sweep is hit-for-hit identical to the
        /// per-candidate litmus on arbitrary images, candidate sets,
        /// key sizes, tolerances, and thread counts — including images
        /// with a planted schedule so the survivor path is exercised,
        /// not just the all-phase bail. Up to 130 candidates fill a
        /// partial third lane group; tolerances reach past the 24- and
        /// 32-bit phase widths; zeroed blocks scrambled by the first
        /// few keys equal those candidates, so repeats reuse hits.
        #[test]
        fn batched_litmus_matches_per_candidate_litmus() {
            for case in 0..CASES {
                let mut rng = SplitMix64::new(case);
                let mut image = vec![0u8; 64 * 10];
                rng.fill(&mut image);
                let scrambler_keys: Vec<[u8; 64]> =
                    (0..rng.range(1..131)).map(|_| rng.bytes()).collect();
                let scramblers = rng.range(1..5) as usize;
                let zeroed: Vec<bool> = (0..10).map(|_| rng.gen_bool(0.5)).collect();
                // Three cases in four keep the shape every job runs: the
                // default {AES-256, AES-128} at a tolerance below 12.
                let (size_mask, tolerance) = if rng.gen_bool(0.75) {
                    (0b101usize, rng.range(0..12) as u32)
                } else {
                    (rng.range(1..8) as usize, rng.range(0..41) as u32)
                };
                let threads = rng.range(1..4) as usize;
                let exhaustive = rng.gen_bool(0.5);
                let master: [u8; 32] =
                    core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(3));
                let sched = schedule_bytes(&master);
                image[64..64 + sched.len()].copy_from_slice(&sched);
                for (chunk, &zero) in image.chunks_mut(64).zip(&zeroed) {
                    if zero {
                        chunk.fill(0);
                    }
                }
                let scramblers = scramblers.min(scrambler_keys.len());
                for (i, chunk) in image.chunks_mut(64).enumerate() {
                    let k = &scrambler_keys[i % scramblers];
                    for (b, kb) in chunk.iter_mut().zip(k.iter()) {
                        *b ^= kb;
                    }
                }
                let candidates: Vec<CandidateKey> = scrambler_keys
                    .iter()
                    .map(|k| CandidateKey {
                        key: *k,
                        observations: 1,
                    })
                    .collect();
                let dump = MemoryDump::new(image, 0);
                let key_sizes = [KeySize::Aes256, KeySize::Aes192, KeySize::Aes128]
                    .into_iter()
                    .enumerate()
                    .filter(|&(bit, _)| size_mask >> bit & 1 == 1)
                    .map(|(_, size)| size)
                    .collect();
                let config = SearchConfig {
                    key_sizes,
                    block_tolerance_bits: tolerance,
                    threads,
                    exhaustive_word_offsets: exhaustive,
                    ..SearchConfig::default()
                };
                let got = search_dump(&dump, &candidates, &config).hits;
                assert_eq!(
                    got,
                    reference_hits(&dump, &candidates, &config),
                    "case {case}"
                );
            }
        }
    }

    /// Decays a [`build_dump`] image toward a pseudorandom per-cell ground
    /// state (in the scrambled domain, matching the physical channel) and
    /// returns the decayed dump, the matching ground-view dump, and the
    /// candidate set.
    fn decayed_dump(
        pre: usize,
        master: &[u8],
        keys: &[[u8; 64]],
        d: f64,
        seed: u64,
    ) -> (MemoryDump, Arc<MemoryDump>, Vec<CandidateKey>) {
        let (dump, candidates) = build_dump(pre, master, keys);
        let (dump, ground) = decay_toward_ground(&dump, d, seed);
        (dump, ground, candidates)
    }

    /// Decays a scrambled image toward a pseudorandom per-cell ground
    /// state; returns the decayed dump and the ground-view dump.
    fn decay_toward_ground(dump: &MemoryDump, d: f64, seed: u64) -> (MemoryDump, Arc<MemoryDump>) {
        let mut image = dump.bytes().to_vec();
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let ground: Vec<u8> = (0..image.len())
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect();
        coldboot_dram::retention::apply_decay(&mut image, &ground, d, seed);
        (
            MemoryDump::new(image, dump.base_addr()),
            Arc::new(MemoryDump::new(ground, dump.base_addr())),
        )
    }

    /// Scrambled zero fill: block `b` becomes its own scrambler key
    /// `keys[b % keys.len()]`, as [`build_dump`] scrambles.
    fn zero_fill(image: &mut [u8], keys: &[[u8; 64]], blocks: impl IntoIterator<Item = usize>) {
        for b in blocks {
            image[64 * b..64 * (b + 1)].copy_from_slice(&keys[b % keys.len()]);
        }
    }

    #[test]
    fn reconstruction_recovers_keys_where_deep_search_finds_nothing() {
        use coldboot_dram::retention::{BitChannel, DecayModel};
        // The warm-transfer transplant (≈ −10 °C, 8 s) decays ~19 % of
        // charged bits — the regime the issue's channel-model fix targets.
        let params = crate::attack::TransplantParams::warm_transfer();
        let d = DecayModel::paper_calibrated().decay_fraction(
            params.freeze_celsius,
            params.transfer_seconds,
            1.0,
        );
        assert!(d > 0.15 && d < 0.30, "warm transfer out of regime: {d}");
        let master: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5A);
        let keys = test_keys();
        let (dump, ground, candidates) = decayed_dump(192, &master, &keys, d, 7);

        // The historical pipeline — even the decay-hardened deep preset —
        // recovers nothing at this decay level.
        let baseline = search_dump(&dump, &candidates, &SearchConfig::deep());
        assert!(
            baseline.recovered.is_empty(),
            "raw-distance search unexpectedly survived ~19% decay"
        );

        let config = SearchConfig {
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(d),
                ground,
            )),
            ..SearchConfig::default()
        };
        let outcome = search_dump(&dump, &candidates, &config);
        assert_eq!(outcome.recovered.len(), 1, "channel search must recover");
        let rec = &outcome.recovered[0];
        assert_eq!(
            rec.master_key,
            master.to_vec(),
            "must recover the exact key"
        );
        assert_eq!(rec.schedule_addr, 192);
        let flips = rec.flips.expect("channel mode reports flip counts");
        assert!(flips.to_ground > 0, "heavy decay must show corrected bits");
        assert_eq!(flips.anti_ground, 0, "decay never flips away from ground");
        assert!(rec.cost_millinats.is_some(), "channel mode reports cost");
        // The corrected key round-trips through the AES key expansion.
        let ks = KeySchedule::expand(&rec.master_key).unwrap();
        assert_eq!(ks.to_bytes().len(), rec.key_size.schedule_len());
        assert_eq!(&ks.to_bytes()[..32], &rec.master_key[..]);
    }

    #[test]
    fn zero_filled_blocks_produce_no_channel_hits() {
        use coldboot_dram::retention::BitChannel;
        // A zero-filled region descrambles to all-zero spans under its own
        // scrambler key. No AES schedule is all-zero (Rcon injection), but
        // the transform-phase f(0) residual fits the generous heavy-decay
        // budget — without the explicit skip, every zero page becomes
        // ~LITMUS_OFFSETS hits and a corrector run apiece, turning common
        // zero-filled dumps into minutes of branch-and-bound churn.
        let keys = test_keys();
        let mut image = vec![0u8; 64 * 64];
        for (i, chunk) in image.chunks_mut(64).enumerate() {
            let k = &keys[i % keys.len()];
            for (b, kb) in chunk.iter_mut().zip(k.iter()) {
                *b ^= kb;
            }
        }
        let candidates: Vec<CandidateKey> = keys
            .iter()
            .map(|k| CandidateKey {
                key: *k,
                observations: 1,
            })
            .collect();
        let mut s = 41u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let ground: Vec<u8> = (0..image.len())
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect();
        let config = SearchConfig {
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(0.19),
                Arc::new(MemoryDump::new(ground, 0)),
            )),
            ..SearchConfig::default()
        };
        let outcome = search_dump(&MemoryDump::new(image, 0), &candidates, &config);
        assert!(
            outcome.hits.is_empty(),
            "zero fill must emit no channel hits"
        );
        assert!(outcome.recovered.is_empty());
    }

    #[test]
    fn sharded_reconstruction_merges_byte_identical_at_any_shard_count() {
        use coldboot_dram::retention::BitChannel;
        let master: [u8; 32] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(61).wrapping_add(0x2B));
        let keys = test_keys();
        let (dump, ground, candidates) = decayed_dump(256, &master, &keys, 0.18, 3);
        let config = SearchConfig {
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(0.18),
                ground,
            )),
            ..SearchConfig::default()
        };
        let whole = search_dump(&dump, &candidates, &config);
        assert_eq!(whole.recovered.len(), 1, "reconstruction must recover");
        assert_eq!(whole.recovered[0].master_key, master.to_vec());
        let total = dump.len_blocks();
        for shards in [1usize, 2, 4, 8] {
            let per = total.div_ceil(shards);
            let parts: Vec<SearchPartial> = (0..shards)
                .filter_map(|s| {
                    let a = s * per;
                    let b = ((s + 1) * per).min(total);
                    (a < b).then(|| shard_search(&dump, &candidates, &config, a, b, 7))
                })
                .collect();
            let merged = merge_search_partials(parts);
            assert_eq!(whole.hits, merged.hits, "shards={shards}");
            assert_eq!(whole.recovered, merged.recovered, "shards={shards}");
            assert_eq!(
                whole.blocks_scanned, merged.blocks_scanned,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn channel_search_is_identical_at_any_thread_and_window_count() {
        use coldboot_dram::retention::BitChannel;
        // An unaligned AES-256 schedule between decayed zero fill: each
        // fill block is its own scrambler key plus a few decayed bits,
        // which the channel sweep admits and verification rejects, so
        // parallel verification meets both outcomes. Lighter decay than
        // the sharded test keeps nine searches cheap.
        let master: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(43) ^ 0x6E);
        let keys = test_keys();
        let mut image = vec![0x5Au8; 64 * 16];
        let sched = schedule_bytes(&master);
        image[64 * 6 + 16..][..sched.len()].copy_from_slice(&sched);
        for (i, chunk) in image.chunks_mut(64).enumerate() {
            for (b, kb) in chunk.iter_mut().zip(&keys[i % keys.len()]) {
                *b ^= kb;
            }
        }
        zero_fill(&mut image, &keys, [2, 13]);
        let (dump, ground) = decay_toward_ground(&MemoryDump::new(image, 0), 0.1, 5);
        let candidates: Vec<CandidateKey> = keys
            .iter()
            .map(|k| CandidateKey {
                key: *k,
                observations: 1,
            })
            .collect();
        let config = SearchConfig {
            threads: 1,
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(0.1),
                ground,
            )),
            ..SearchConfig::default()
        };
        let whole = search_dump(&dump, &candidates, &config);
        assert_eq!(whole.recovered.len(), 1, "reconstruction must recover");
        assert_eq!(whole.recovered[0].master_key, master.to_vec());
        // Any thread count and window size: the same output, every hit
        // verified once, verification kept out of the sweep's engine
        // counters, and the same reconstruction tallies.
        let mut first_tally = None;
        for threads in [1usize, 2, 8] {
            for wb in [1usize, 7, 512] {
                let metrics = Arc::new(SearchMetrics::default());
                let streamed = stream_observed(
                    &dump,
                    &candidates,
                    &SearchConfig {
                        threads,
                        ..config.clone()
                    },
                    wb,
                    &metrics,
                );
                let at = format!("window={wb} threads={threads}");
                assert_eq!(whole.hits, streamed.hits, "{at}");
                assert_eq!(whole.recovered, streamed.recovered, "{at}");
                assert_eq!(whole.blocks_scanned, streamed.blocks_scanned, "{at}");
                assert_eq!(metrics.hits.get(), whole.hits.len() as u64, "{at}");
                assert_eq!(
                    metrics.hits.get(),
                    metrics.recoveries.get() + metrics.verify_rejects.get(),
                    "{at}: every hit is verified exactly once"
                );
                assert_eq!(metrics.blocks.get(), dump.len_blocks() as u64, "{at}");
                assert_eq!(
                    metrics.engine.items.get() + metrics.reused_blocks.get(),
                    metrics.blocks.get(),
                    "{at}: verification must not count as swept blocks"
                );
                assert_eq!(
                    metrics.reconstruct_us.count() + metrics.verify_reused.get(),
                    metrics.hits.get(),
                    "{at}: one run per span, every other hit reuses"
                );
                assert!(metrics.verify_reused.get() > 0, "{at}");
                let tally = (
                    metrics.reconstruct_expanded.get(),
                    metrics.reconstruct_pruned.get(),
                    metrics.corrected_bits.get(),
                    metrics.verify_rejects.get(),
                );
                assert_eq!(*first_tally.get_or_insert(tally), tally, "{at}");
            }
        }
        let (expanded, _, corrected, rejects) = first_tally.unwrap();
        assert!(expanded > 0 && corrected > 0, "the corrector must have run");
        assert!(rejects > 0, "decayed zero fill must yield rejected hits");
    }

    /// Seeded channel-mode input: an unaligned AES-256 schedule with
    /// decayed zero fill on the filler blocks before and after it, and
    /// the search configuration for decay `d`. Returns the dump, the
    /// candidates, the configuration and the planted key.
    fn decayed_fill_case(
        case: u64,
        d: f64,
    ) -> (MemoryDump, Vec<CandidateKey>, SearchConfig, [u8; 32]) {
        use coldboot_dram::retention::BitChannel;
        let mut rng = SplitMix64::new(case);
        let master: [u8; 32] = rng.bytes();
        let pre = 64 * 3 + 4 * rng.range(0..16) as usize;
        let keys = test_keys();
        let (dump, candidates) = build_dump(pre, &master, &keys);
        let mut image = dump.bytes().to_vec();
        let n = dump.len_blocks();
        zero_fill(&mut image, &keys, [0, 1, n - 2, n - 1]);
        let (dump, ground) = decay_toward_ground(&MemoryDump::new(image, 0), d, rng.next_u64());
        let config = SearchConfig {
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(d),
                ground,
            )),
            ..SearchConfig::default()
        };
        (dump, candidates, config, master)
    }

    /// Verifying each channel span once is exact: at several decay levels,
    /// thread counts 1–3 and window sizes 1/7/512, the deduplicated and the raw
    /// recoveries equal a replay of `verify_and_recover` on every hit in
    /// order, and the verifier ran once per distinct `(schedule_addr(),
    /// key_size)` among the hits (plus once per hit whose span would start
    /// below address 0, which has no span to share).
    #[test]
    fn channel_verification_runs_once_per_span_and_matches_per_hit_replay() {
        for (case, d) in [0.02, 0.08, 0.15].into_iter().enumerate() {
            let (dump, candidates, config, master) = decayed_fill_case(case as u64, d);
            let whole = search_dump(
                &dump,
                &candidates,
                &SearchConfig {
                    threads: 1,
                    ..config.clone()
                },
            );
            let mut raw = Vec::new();
            let mut expected = Vec::new();
            for hit in &whole.hits {
                if let Some(rec) = verify_and_recover(&dump, &candidates, hit, &config) {
                    raw.push(rec.clone());
                    merge_recovery(&mut expected, rec);
                }
            }
            expected.sort_by_key(|r| r.schedule_addr);
            assert!(
                expected.iter().any(|r| r.master_key == master),
                "d={d}: the planted key must be recovered"
            );
            let spans: HashSet<(u64, KeySize)> = whole
                .hits
                .iter()
                .filter_map(|h| Some((h.schedule_addr()?, h.key_size)))
                .collect();
            let unplaced = whole
                .hits
                .iter()
                .filter(|h| h.schedule_addr().is_none())
                .count();
            let runs = (spans.len() + unplaced) as u64;
            assert!(
                runs < whole.hits.len() as u64,
                "d={d}: hits must share spans"
            );
            // Each level runs every window size once and every thread
            // count once; over the three levels each (threads, window)
            // pair runs once.
            for (w, wb) in [1usize, 7, 512].into_iter().enumerate() {
                let threads = 1 + (case + w) % 3;
                let at = format!("d={d} window={wb} threads={threads}");
                let config = SearchConfig {
                    threads,
                    ..config.clone()
                };
                let metrics = Arc::new(SearchMetrics::default());
                let partial =
                    stream_fed(&dump, &candidates, &config, wb, &metrics).finish_partial();
                assert_eq!(partial.hits, whole.hits, "{at}");
                assert_eq!(partial.recoveries, raw, "{at}");
                assert_eq!(metrics.reconstruct_us.count(), runs, "{at}");
                // The planted schedule's span reaches the corrector; spans
                // that fail stage 1 do not.
                let corrected = metrics.corrector_runs.get();
                assert!(
                    corrected >= 1 && corrected <= runs,
                    "{at}: {corrected} of {runs}"
                );
                assert_eq!(
                    metrics.verify_reused.get(),
                    whole.hits.len() as u64 - runs,
                    "{at}"
                );
                let streamed = stream_in_windows(&dump, &candidates, &config, wb);
                assert_eq!(streamed.recovered, expected, "{at}");
            }
        }
    }

    /// The bounded pick returns what the full first-argmin loop returns
    /// once gated, on seeded pools that cover ties (duplicate
    /// candidates), every candidate over the gate, a minimum exactly at
    /// the gate, and the empty pool. Costs arrive in parts, as the
    /// verifiers sum them, and each evaluation stops at the limit the
    /// pick passes it.
    #[test]
    fn bounded_pick_matches_the_unbounded_first_argmin() {
        // Cases seen: [tied minimum, all over the gate, minimum at the
        // gate, empty pool].
        let mut seen = [0u32; 4];
        for case in 0..512u64 {
            let mut rng = SplitMix64::new(case);
            let n = rng.range(0..10) as usize;
            let mut parts: Vec<Vec<u64>> = Vec::with_capacity(n);
            for i in 0..n {
                if i > 0 && rng.gen_bool(0.3) {
                    let copy = parts[rng.range(0..i as u64) as usize].clone();
                    parts.push(copy);
                } else {
                    parts.push((0..rng.range(1..5)).map(|_| rng.range(0..40)).collect());
                }
            }
            let costs: Vec<u64> = parts.iter().map(|p| p.iter().sum()).collect();
            let min = costs.iter().min().copied();
            let gate = match (rng.range(0..3), min) {
                (0, Some(m)) => m,
                (1, Some(m)) if m > 0 => rng.range(0..m),
                _ => rng.range(0..160),
            };
            let got = bounded_pick(n, gate, |i, limit| {
                assert!(
                    limit <= gate + 1,
                    "case {case}: limit {limit} past the gate"
                );
                let mut sum = 0;
                for &part in &parts[i] {
                    sum += part;
                    if sum >= limit {
                        break;
                    }
                }
                sum
            });
            assert_eq!(got, bounded_pick_reference(&costs, gate), "case {case}");
            match min {
                None => seen[3] += 1,
                Some(m) if m > gate => seen[1] += 1,
                Some(m) => {
                    seen[2] += u32::from(m == gate);
                    seen[0] += u32::from(costs.iter().filter(|&&c| c == m).count() > 1);
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "an edge case never occurred: {seen:?}"
        );
    }

    /// An empty candidate pool fails verification in both modes, as the
    /// full per-block pick did before it was bounded.
    #[test]
    fn empty_candidate_pool_fails_verification() {
        use coldboot_dram::retention::BitChannel;
        let master: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(13) ^ 0x77);
        let keys = test_keys();
        let (dump, ground, candidates) = decayed_dump(192, &master, &keys, 0.02, 9);
        let channel = SearchConfig {
            reconstruct: Some(ReconstructConfig::new(
                BitChannel::from_decay_fraction(0.02),
                ground,
            )),
            ..SearchConfig::default()
        };
        for config in [SearchConfig::default(), channel] {
            let outcome = search_dump(&dump, &candidates, &config);
            assert_eq!(
                outcome.recovered.len(),
                1,
                "{:?}",
                config.reconstruct.is_some()
            );
            let hit = &outcome.recovered[0].hit;
            assert!(verify_and_recover(&dump, &candidates, hit, &config).is_some());
            assert!(verify_and_recover(&dump, &[], hit, &config).is_none());
        }
    }

    /// The span map lives across pushes but not past the retained tail:
    /// streamed in 1-block windows, after every push it holds no span
    /// below the retained base, and spans do leave it as the base moves.
    #[test]
    fn span_map_holds_no_span_below_the_retained_base() {
        let (dump, candidates, config, master) = decayed_fill_case(7, 0.05);
        let mut s = StreamSearcher::new(&candidates, &config);
        let mut seen = HashSet::new();
        for i in 0..dump.len_blocks() {
            s.push(&MemoryDump::new(
                dump.bytes()[i * 64..(i + 1) * 64].to_vec(),
                dump.block_addr(i),
            ));
            assert!(
                s.spans.keys().all(|&(addr, _)| addr >= s.buf_base),
                "after block {i}: a span below base {}",
                s.buf_base
            );
            seen.extend(s.spans.keys().copied());
        }
        assert!(!seen.is_empty(), "spans must have been verified");
        assert!(
            s.spans.len() < seen.len(),
            "trimming must have dropped spans"
        );
        let outcome = s.finish();
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(outcome.recovered[0].master_key, master);
    }

    mod channel_equivalence {
        use super::*;
        use coldboot_dram::retention::BitChannel;

        /// Seeded cases of the original input kind; case `i` draws from
        /// `SplitMix64::new(i)`.
        const CASES: u64 = 48;
        /// Seeded cases of each added input kind, drawn from
        /// `SplitMix64::new(CASES + i)` (low-popcount fill) and
        /// `SplitMix64::new(CASES + EXTRA + i)` (heavy decay).
        const EXTRA: u64 = 12;
        /// Fill bytes of one or two set bits.
        const LOW_FILLS: [u8; 6] = [0x01, 0x02, 0x10, 0x80, 0x03, 0x11];
        /// The heavier decay level of the heavy-decay kind.
        const HEAVY_DECAY: f64 = 0.40;

        /// What the filler blocks of a case hold.
        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            /// Zero fill, decay in 0.02–0.30: each fill block descrambles
            /// to a near-zero span under its own key.
            Zero,
            /// Constant fill of a low-popcount byte, with fill variants
            /// (key XOR another low-popcount byte) among the candidates:
            /// under the plain key or a variant, a fill block leaves a
            /// small, nonzero identity residual near the phase budgets.
            LowFill,
            /// Zero fill at [`HEAVY_DECAY`].
            Heavy,
        }

        /// Builds case `case` of `kind`: the decayed dump, the candidates
        /// and the configuration.
        fn case_input(case: u64, kind: Kind) -> (MemoryDump, Vec<CandidateKey>, SearchConfig) {
            let mut rng = SplitMix64::new(case);
            let pre = rng.range(0..320) as usize;
            let master_len = [16u8, 24, 32][rng.range(0..3) as usize];
            let keys: Vec<[u8; 64]> = (0..rng.range(1..9)).map(|_| rng.bytes()).collect();
            let scramblers = rng.range(1..5) as usize;
            let zeroed: Vec<bool> = (0..12).map(|_| rng.gen_bool(0.5)).collect();
            let decay = rng.range_f64(0.02..0.30);
            let seed = rng.next_u64();
            let (size_mask, exhaustive) = if rng.gen_bool(0.75) {
                (0b101usize, false)
            } else {
                (rng.range(1..8) as usize, rng.gen_bool(0.5))
            };
            let decay = if kind == Kind::Heavy {
                HEAVY_DECAY
            } else {
                decay
            };
            let fill = if kind == Kind::LowFill {
                LOW_FILLS[rng.range(0..LOW_FILLS.len() as u64) as usize]
            } else {
                0
            };
            let master: Vec<u8> = (0..master_len).map(|i| i.wrapping_mul(29) ^ 0xC3).collect();
            let scramblers = &keys[..scramblers.min(keys.len())];
            let (dump, _) = build_dump(pre, &master, scramblers);
            let mut image = dump.bytes().to_vec();
            let filled = zeroed
                .iter()
                .enumerate()
                .filter(|&(_, &z)| z)
                .map(|(b, _)| b);
            for b in filled.filter(|&b| b < dump.len_blocks()) {
                let key = &scramblers[b % scramblers.len()];
                for (x, k) in image[64 * b..64 * (b + 1)].iter_mut().zip(key) {
                    *x = k ^ fill;
                }
            }
            let (dump, ground) = decay_toward_ground(&MemoryDump::new(image, 0), decay, seed);
            let mut candidates: Vec<CandidateKey> = keys
                .iter()
                .map(|k| CandidateKey {
                    key: *k,
                    observations: 1,
                })
                .collect();
            if kind == Kind::LowFill {
                for k in &keys {
                    let variant = LOW_FILLS[rng.range(0..LOW_FILLS.len() as u64) as usize];
                    candidates.push(CandidateKey {
                        key: from_fn(|j| k[j] ^ variant),
                        observations: 1,
                    });
                }
            }
            let key_sizes = [KeySize::Aes256, KeySize::Aes192, KeySize::Aes128]
                .into_iter()
                .enumerate()
                .filter(|&(bit, _)| size_mask >> bit & 1 == 1)
                .map(|(_, size)| size)
                .collect();
            let config = SearchConfig {
                key_sizes,
                exhaustive_word_offsets: exhaustive,
                reconstruct: Some(ReconstructConfig::new(
                    BitChannel::from_decay_fraction(decay),
                    ground,
                )),
                ..SearchConfig::default()
            };
            (dump, candidates, config)
        }

        /// How far a (descrambled block, candidate) pair's identity bound
        /// lies above its nearest budget, in milli-nats: the minimum over
        /// key sizes, window offsets and reachable start phases of the
        /// priced identity-residual popcount minus the phase budget,
        /// evaluated directly on the descrambled words. The sweep runs its
        /// tables for the pair exactly when this is at most zero.
        fn identity_slack(desc: &[u32; BLOCK_BYTES / 4], sweep: &ChannelSweep) -> i64 {
            let mut slack = i64::MAX;
            for cs in &sweep.sizes {
                let nk = cs.size.nk();
                for &ph in &cs.phases {
                    for oi in 0..LITMUS_OFFSETS {
                        let bits: u32 = (0..cs.extend)
                            .filter(|&e| residual_kind(nk, ph + e) == RES_IDENT)
                            .map(|e| {
                                let j = oi + nk + e;
                                (desc[j] ^ desc[j - nk] ^ desc[j - 1]).count_ones()
                            })
                            .sum();
                        let cost = u64::from(bits) * sweep.price[RES_IDENT];
                        slack = slack.min(cost as i64 - cs.budgets[ph] as i64);
                    }
                }
            }
            slack
        }

        /// Checks one case block by block and returns how many of its
        /// (block, candidate) pairs have an identity bound within two bits
        /// of a budget: `[at or under it, over it]`.
        fn check_case(case: u64, kind: Kind) -> [u32; 2] {
            let (dump, candidates, config) = case_input(case, kind);
            let rc = config.reconstruct.as_ref().unwrap();
            let pool = CandidatePool::new(&candidates, &config.key_sizes);
            let sweep = ChannelSweep::new(rc, &config);
            let edge = 2 * sweep.price[RES_IDENT] as i64;
            let mut near = [0u32; 2];
            let mut acc = SweepAcc::default();
            for i in 0..dump.len_blocks() {
                acc.hits.clear();
                scan_block_channel(&dump, &pool, &sweep, i, i, &mut acc);
                let mut want = Vec::new();
                scan_block_channel_reference(
                    &dump,
                    &candidates,
                    &pool.words,
                    rc,
                    &config,
                    i,
                    &mut want,
                );
                assert!(acc.hits.iter().all(|&(p, _)| p == i), "case {case}");
                let got: Vec<ScheduleHit> = acc.hits.iter().map(|(_, h)| h.clone()).collect();
                assert_eq!(got, want, "case {case}: block {i}");
                let block_w = block_words(dump.block(i));
                for (ci, kw) in pool.words.iter().enumerate() {
                    let desc = from_fn(|j| block_w[j] ^ kw[j]);
                    let slack = identity_slack(&desc, &sweep);
                    if slack > 0 {
                        assert!(
                            want.iter().all(|h| h.scrambler_key != candidates[ci].key),
                            "case {case}: block {i}: a pair over every budget has hits"
                        );
                    }
                    if (-edge..=0).contains(&slack) {
                        near[0] += 1;
                    } else if (1..=edge).contains(&slack) {
                        near[1] += 1;
                    }
                }
            }
            near
        }

        /// The table-driven channel sweep, with its identity bound,
        /// appends exactly the hits of the direct residual evaluation,
        /// field for field and block by block (so verification cost stays
        /// out of the test): over decayed images with zero-fill blocks
        /// left in, which descramble to near-zero spans under their own
        /// key; 1–8 candidates; every key-size subset; both start steps.
        /// Three cases in four run the default {AES-256, AES-128} with
        /// exhaustive offsets off. Two added input kinds reach the bound's
        /// edge: low-popcount constant fill with fill-variant candidates,
        /// and zero fill at d = 0.40. Across the cases, pairs whose
        /// identity bound lies within two bits of a budget occur on both
        /// sides of it, so the boundary itself is exercised.
        #[test]
        fn channel_sweep_matches_reference() {
            let mut near = [0u32; 2];
            let cases = (0..CASES)
                .map(|c| (c, Kind::Zero))
                .chain((CASES..CASES + EXTRA).map(|c| (c, Kind::LowFill)))
                .chain((CASES + EXTRA..CASES + 2 * EXTRA).map(|c| (c, Kind::Heavy)));
            for (case, kind) in cases {
                let [under, over] = check_case(case, kind);
                near[0] += under;
                near[1] += over;
            }
            assert!(
                near[0] > 0 && near[1] > 0,
                "no pair within two bits of a budget on both sides: {near:?}"
            );
        }
    }

    mod off_mode_identity {
        use super::*;

        /// Seeded cases; case `i` draws from `SplitMix64::new(i)`.
        const CASES: u64 = 16;

        /// The byte-identity guarantee of `reconstruct: None`: the
        /// search produces exactly the historical raw-distance output —
        /// hits equal to the retained per-candidate reference sweep,
        /// recoveries equal to replaying the public verification entry
        /// point hit by hit, and no channel fields populated.
        #[test]
        fn reconstruction_off_is_byte_identical_to_raw_search() {
            for case in 0..CASES {
                let mut rng = SplitMix64::new(case);
                let pre = rng.range(0..320) as usize;
                let scrambler_keys: Vec<[u8; 64]> =
                    (0..rng.range(1..4)).map(|_| rng.bytes()).collect();
                let flip_stride = rng.range(101..997) as usize;
                let threads = rng.range(1..4) as usize;
                let master: [u8; 32] =
                    core::array::from_fn(|i| (i as u8).wrapping_mul(31).wrapping_add(9));
                let (dump, candidates) = build_dump(pre, &master, &scrambler_keys);
                let mut image = dump.bytes().to_vec();
                let nbits = image.len() * 8;
                let mut posn = flip_stride % 64;
                while posn < nbits {
                    image[posn / 8] ^= 1 << (posn % 8);
                    posn += flip_stride;
                }
                let dump = MemoryDump::new(image, 0);
                let config = SearchConfig {
                    threads,
                    reconstruct: None,
                    ..SearchConfig::default()
                };
                let outcome = search_dump(&dump, &candidates, &config);
                assert_eq!(
                    outcome.hits.clone(),
                    reference_hits(&dump, &candidates, &config),
                    "case {case}"
                );
                let mut expected: Vec<RecoveredAesKey> = Vec::new();
                for hit in &outcome.hits {
                    if let Some(rec) = verify_and_recover(&dump, &candidates, hit, &config) {
                        merge_recovery(&mut expected, rec);
                    }
                }
                assert_eq!(&outcome.recovered, &expected, "case {case}");
                for rec in &outcome.recovered {
                    assert!(
                        rec.cost_millinats.is_none(),
                        "case {case}: off-mode must not price"
                    );
                    assert!(
                        rec.flips.is_none(),
                        "case {case}: off-mode must not count flips"
                    );
                }
            }
        }
    }
}
