//! The scrambler key litmus test and candidate-key mining (paper §III-B).
//!
//! Zero-filled memory blocks pass through the scrambler as the raw
//! keystream itself (`0 ⊕ key = key`). The Skylake DDR4 scrambler's keys
//! satisfy four byte-pair XOR invariants inside every 16-byte-aligned
//! group, which random data violates with overwhelming probability — so
//! scanning a dump for blocks that satisfy the invariants recovers the key
//! pool. Because the invariants are XOR-linear, they also hold for
//! *combined* keys (victim ⊕ attacker scrambler), so the attacker's own
//! scrambler never needs to be disabled.
//!
//! Mining runs on the work-stealing [`crate::scan`] engine and is
//! deterministic for any [`MiningConfig::threads`]: the dump sweep
//! deduplicates observations into (value, count, first-seen-index) triples
//! with a commutative merge, and consolidation then processes the distinct
//! values in first-seen order — exactly the order the sequential algorithm
//! would have formed clusters in.

use crate::dump::MemoryDump;
use crate::scan::{self, EngineMetrics, ScanOptions};
use coldboot_crypto::{ct, hamming};
use coldboot_dram::BLOCK_BYTES;
use coldboot_metrics::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// Violated constraint bits of the four invariants within one 16-byte
/// group starting at byte `g` (`g ∈ {0, 16, 32, 48}`).
#[inline]
fn group_violations(block: &[u8; BLOCK_BYTES], g: usize) -> u32 {
    let w = |i: usize| u16::from_le_bytes([block[i], block[i + 1]]);
    // W1^W2 = W5^W6
    ((w(g + 2) ^ w(g + 4)) ^ (w(g + 10) ^ w(g + 12))).count_ones()
        // W0^W3 = W4^W7
        + ((w(g) ^ w(g + 6)) ^ (w(g + 8) ^ w(g + 14))).count_ones()
        // W0^W2 = W4^W6
        + ((w(g) ^ w(g + 4)) ^ (w(g + 8) ^ w(g + 12))).count_ones()
        // W0^W1 = W4^W5
        + ((w(g) ^ w(g + 2)) ^ (w(g + 8) ^ w(g + 10))).count_ones()
}

/// Result of scoring a single block against the invariants: the total
/// number of violated constraint bits (0 for a pristine key).
///
/// The four invariants per 16-byte group each constrain 16 bits; with 4
/// groups that is 256 constraint bits per block.
pub fn invariant_violations(block: &[u8; BLOCK_BYTES]) -> u32 {
    [0usize, 16, 32, 48]
        .iter()
        .map(|&g| group_violations(block, g))
        .sum()
}

/// Violated constraint bits of the **first 16-byte group only** — the
/// mining prefilter.
///
/// This is an exact lower bound on [`invariant_violations`] at a quarter of
/// its cost, so `first_group_violations(b) > tolerance` soundly rejects a
/// block without touching its remaining 48 bytes. On high-entropy data the
/// first group alone violates ~32 constraint bits on average, so nearly
/// every non-key block short-circuits here.
pub fn first_group_violations(block: &[u8; BLOCK_BYTES]) -> u32 {
    group_violations(block, 0)
}

/// The scrambler key litmus test: does `block` look like an exposed DDR4
/// scrambler key, tolerating up to `tolerance_bits` violated constraint
/// bits (bit decay)?
pub fn scrambler_key_litmus(block: &[u8; BLOCK_BYTES], tolerance_bits: u32) -> bool {
    invariant_violations(block) <= tolerance_bits
}

/// Mining configuration.
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Maximum violated constraint bits for a block to count as a key
    /// observation (decay tolerance).
    pub litmus_tolerance_bits: u32,
    /// Observations closer than this (in Hamming bits) are treated as the
    /// same key and merged by bitwise majority vote.
    pub consolidate_bits: u32,
    /// Drop the all-zeros "key" (an unscrambled zero block — only relevant
    /// when part of the image was captured with scrambling disabled).
    pub drop_null_key: bool,
    /// Keep at most this many candidates (most frequent first); `None`
    /// keeps all.
    pub max_candidates: Option<usize>,
    /// Worker threads for the sweep and consolidation. Defaults to every
    /// available core; set `1` to run inline (the output is byte-identical
    /// either way — see the module docs).
    pub threads: usize,
    /// Blocks per cache tile within one absorbed window
    /// ([`DEFAULT_TILE_BLOCKS`]). The sweep processes a window one tile at
    /// a time so the bytes under scan stay resident in a core's private
    /// cache instead of streaming the whole window through; tile size
    /// never changes the result (the dedup merge is commutative). Values
    /// `>= ` the window size disable tiling.
    pub tile_blocks: usize,
}

/// Default [`MiningConfig::tile_blocks`]: 256 KiB of blocks — a quarter of
/// the streaming pipeline's default 1 MiB window, sized to fit a per-core
/// L2 alongside the scan's candidate tables.
pub const DEFAULT_TILE_BLOCKS: usize = 4 * 1024;

impl Default for MiningConfig {
    fn default() -> Self {
        Self {
            litmus_tolerance_bits: 20,
            consolidate_bits: 40,
            drop_null_key: true,
            max_candidates: None,
            threads: scan::default_threads(),
            tile_blocks: DEFAULT_TILE_BLOCKS,
        }
    }
}

/// Mining-stage observability handles: counts only, never block contents.
///
/// The handles attach to the [`KeyMiner`] via [`KeyMiner::with_metrics`]
/// instead of living in the config. Totals are
/// tallied in the worker-local fold accumulators and published to the
/// atomics once per absorbed window — the per-block hot path never touches
/// a shared cache line.
#[derive(Debug, Default)]
pub struct MiningMetrics {
    /// Blocks swept (`mine_blocks`).
    pub blocks: Arc<Counter>,
    /// Blocks short-circuited by the first-group prefilter
    /// (`mine_prefilter_rejects`).
    pub prefilter_rejects: Arc<Counter>,
    /// Blocks that passed the full litmus test (`mine_litmus_hits`).
    pub litmus_hits: Arc<Counter>,
    /// Violated constraint bits absorbed across retained hits — the decay
    /// the majority vote is repairing (`mine_decayed_bits`).
    pub decayed_bits: Arc<Counter>,
    /// Consolidated candidates produced by [`KeyMiner::finish`]
    /// (`mine_candidates`).
    pub candidates: Arc<Counter>,
    /// Scan-engine counters for the sweep and consolidation passes
    /// (`mine_scan_*`).
    pub engine: Arc<EngineMetrics>,
}

impl MiningMetrics {
    /// Registers (or re-attaches to) the mining counters in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(Self {
            blocks: registry.counter("mine_blocks"),
            prefilter_rejects: registry.counter("mine_prefilter_rejects"),
            litmus_hits: registry.counter("mine_litmus_hits"),
            decayed_bits: registry.counter("mine_decayed_bits"),
            candidates: registry.counter("mine_candidates"),
            engine: EngineMetrics::register(registry, "mine"),
        })
    }
}

/// A mined candidate scrambler key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateKey {
    /// The (majority-vote consolidated) 64-byte key.
    pub key: [u8; BLOCK_BYTES],
    /// How many blocks in the dump matched this key.
    pub observations: u32,
}

/// An in-progress consolidation cluster: per-bit one-counts weighted by
/// observations.
struct Cluster {
    ones: [u32; BLOCK_BYTES * 8],
    observations: u32,
}

impl Cluster {
    fn new(block: &[u8; BLOCK_BYTES], count: u32) -> Self {
        let mut c = Self {
            ones: [0; BLOCK_BYTES * 8],
            observations: 0,
        };
        c.absorb(block, count);
        c
    }

    /// Adds `count` identical observations of `block` to the vote.
    fn absorb(&mut self, block: &[u8; BLOCK_BYTES], count: u32) {
        self.observations += count;
        for (byte_idx, &b) in block.iter().enumerate() {
            for bit in 0..8 {
                if b & (1 << bit) != 0 {
                    self.ones[byte_idx * 8 + bit] += count;
                }
            }
        }
    }

    fn majority(&self) -> [u8; BLOCK_BYTES] {
        let mut out = [0u8; BLOCK_BYTES];
        for (byte_idx, byte) in out.iter_mut().enumerate() {
            for bit in 0..8 {
                if self.ones[byte_idx * 8 + bit] * 2 > self.observations {
                    *byte |= 1 << bit;
                }
            }
        }
        out
    }
}

/// One distinct block value that passed the litmus test, with its
/// observation count and first block index (for deterministic ordering).
struct Observation {
    value: [u8; BLOCK_BYTES],
    count: u32,
    first_idx: usize,
}

/// A raw mining observation exported by [`KeyMiner::into_observations`]:
/// one distinct litmus-passing block value with its observation count and
/// first-seen global block index.
///
/// This is the mergeable partial form of a mining pass. A cluster shard
/// mines its block range (absorbing windows at their true global offsets),
/// exports observations, and a coordinator re-absorbs every shard's
/// observations into one miner before calling [`KeyMiner::finish`] — the
/// dedup merge is commutative, so the consolidated candidates are
/// byte-identical to a single whole-image pass for any sharding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedObservation {
    /// The distinct 64-byte block value.
    pub value: [u8; BLOCK_BYTES],
    /// How many blocks matched this value.
    pub count: u32,
    /// Smallest global block index where the value was seen.
    pub first_idx: usize,
}

/// Distinct values per parallel-clustering round. Bounds the sequential
/// fallback work (a value only probes clusters seeded within its own
/// round sequentially; earlier rounds are probed in parallel).
const CLUSTER_ROUND: usize = 256;

/// Distinct litmus-passing block values → (observation count, first global
/// block index). The merge is commutative, which is what makes both the
/// parallel sweep and the windowed [`KeyMiner`] byte-identical to a
/// sequential whole-dump pass.
type ValueMap = HashMap<[u8; BLOCK_BYTES], (u32, usize)>;

fn merge_value_maps(mut a: ValueMap, b: ValueMap) -> ValueMap {
    for (value, (count, first_idx)) in b {
        let entry = a.entry(value).or_insert((0, first_idx));
        entry.0 += count;
        entry.1 = entry.1.min(first_idx);
    }
    a
}

/// Worker-local sweep state: the dedup map plus plain-integer tallies.
/// Tallying is unconditional (three adds per retained block); the shared
/// [`MiningMetrics`] atomics are only touched once per absorbed window.
#[derive(Default)]
struct SweepAcc {
    map: ValueMap,
    prefilter_rejects: u64,
    litmus_hits: u64,
    decayed_bits: u64,
}

impl SweepAcc {
    fn merge(mut self, other: SweepAcc) -> SweepAcc {
        self.map = merge_value_maps(self.map, other.map);
        self.prefilter_rejects += other.prefilter_rejects;
        self.litmus_hits += other.litmus_hits;
        self.decayed_bits += other.decayed_bits;
        self
    }
}

/// Incremental scrambler-key mining over a dump delivered in pieces.
///
/// The file-backed CBDF pipeline cannot hold a multi-GiB image in memory,
/// so it feeds bounded windows here instead of calling
/// [`mine_candidate_keys`] — which is itself just a one-window absorb.
/// Stage 1 (sweep + exact dedup) runs per window on the scan engine with
/// the window's global block offset keeping first-seen indices absolute;
/// because the dedup merge is commutative and consolidation happens only
/// in [`KeyMiner::finish`], the result is byte-identical to mining the
/// whole image in memory, for any windowing and any thread count.
pub struct KeyMiner {
    config: MiningConfig,
    observed: ValueMap,
    metrics: Option<Arc<MiningMetrics>>,
    /// Sweep without the first-group prefilter: the reference that
    /// `prefilter_never_changes_the_result` compares against.
    #[cfg(test)]
    unfiltered: bool,
}

impl KeyMiner {
    /// Creates an empty miner.
    pub fn new(config: &MiningConfig) -> Self {
        Self {
            config: config.clone(),
            observed: ValueMap::new(),
            metrics: None,
            #[cfg(test)]
            unfiltered: false,
        }
    }

    /// Attaches mining counters; mining results are unaffected.
    pub fn with_metrics(mut self, metrics: Arc<MiningMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Sweeps one contiguous window of the dump. `first_block_index` is the
    /// index of the window's first block within the whole image; it anchors
    /// first-seen ordering globally, so windows must be absorbed with the
    /// offsets they actually occupy (any absorb *order* yields the same
    /// result).
    pub fn absorb(&mut self, window: &MemoryDump, first_block_index: usize) {
        let config = &self.config;
        let mut sweep_opts = ScanOptions::with_threads(config.threads);
        if let Some(metrics) = &self.metrics {
            sweep_opts = sweep_opts.with_metrics(Arc::clone(&metrics.engine));
        }
        // Sweep the window one cache tile at a time; the dedup merge is
        // commutative, so tiling never changes the result (covered by
        // `tile_size_never_changes_mining_results`).
        let tile = config.tile_blocks.max(1);
        let total = window.len_blocks();
        // Every block is first checked against the first 16-byte group's
        // invariants alone ([`first_group_violations`]), an exact lower
        // bound, so the prefilter never changes the result.
        #[cfg(not(test))]
        let prefilter = true;
        #[cfg(test)]
        let prefilter = !self.unfiltered;
        let mut local = SweepAcc::default();
        let mut tile_start = 0usize;
        while tile_start < total {
            let tile_len = tile.min(total - tile_start);
            let tile_acc: SweepAcc = scan::scan_fold(
                tile_len,
                &sweep_opts,
                SweepAcc::default,
                |acc, i| {
                    let i = tile_start + i;
                    let block = window.block(i);
                    if prefilter && first_group_violations(block) > config.litmus_tolerance_bits {
                        acc.prefilter_rejects += 1;
                        return;
                    }
                    let violations = invariant_violations(block);
                    if violations > config.litmus_tolerance_bits {
                        return;
                    }
                    acc.litmus_hits += 1;
                    acc.decayed_bits += u64::from(violations);
                    if config.drop_null_key && ct::is_zero(block) {
                        return;
                    }
                    let global = first_block_index + i;
                    let entry = acc.map.entry(*block).or_insert((0, global));
                    entry.0 += 1;
                    entry.1 = entry.1.min(global);
                },
                SweepAcc::merge,
            );
            local = local.merge(tile_acc);
            tile_start += tile_len;
        }
        if let Some(metrics) = &self.metrics {
            metrics.blocks.add(window.len_blocks() as u64);
            metrics.prefilter_rejects.add(local.prefilter_rejects);
            metrics.litmus_hits.add(local.litmus_hits);
            metrics.decayed_bits.add(local.decayed_bits);
        }
        self.observed = merge_value_maps(std::mem::take(&mut self.observed), local.map);
    }

    /// Exports everything absorbed so far as raw observations, sorted by
    /// `(first_idx, value)` so the serialized form is deterministic.
    ///
    /// See [`MinedObservation`] for the cross-shard merge contract.
    pub fn into_observations(self) -> Vec<MinedObservation> {
        let mut out: Vec<MinedObservation> = self
            .observed
            .into_iter()
            .map(|(value, (count, first_idx))| MinedObservation {
                value,
                count,
                first_idx,
            })
            .collect();
        out.sort_unstable_by(|a, b| (a.first_idx, a.value).cmp(&(b.first_idx, b.value)));
        out
    }

    /// Merges previously exported observations (typically from another
    /// shard's miner) into this miner. Counts add and first-seen indices
    /// take the minimum — the same commutative merge the windowed sweep
    /// uses, so absorb order never matters.
    pub fn absorb_observations<I>(&mut self, observations: I)
    where
        I: IntoIterator<Item = MinedObservation>,
    {
        for obs in observations {
            let entry = self.observed.entry(obs.value).or_insert((0, obs.first_idx));
            entry.0 += obs.count;
            entry.1 = entry.1.min(obs.first_idx);
        }
    }

    /// Consolidates everything absorbed so far into ranked candidate keys.
    pub fn finish(self) -> Vec<CandidateKey> {
        let config = self.config;
        let metrics = self.metrics;
        let mut distinct: Vec<Observation> = self
            .observed
            .into_iter()
            .map(|(value, (count, first_idx))| Observation {
                value,
                count,
                first_idx,
            })
            .collect();
        distinct.sort_unstable_by_key(|o| o.first_idx);

        // Stage 2: first-fit consolidation, parallel per round.
        let mut match_opts = ScanOptions::with_threads(config.threads).batch_items(8);
        if let Some(metrics) = &metrics {
            match_opts = match_opts.with_metrics(Arc::clone(&metrics.engine));
        }
        let budget = config.consolidate_bits;
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut reps: Vec<[u8; BLOCK_BYTES]> = Vec::new();
        for round in distinct.chunks(CLUSTER_ROUND) {
            let established = reps.len();
            // First matching cluster among those established before this round,
            // computed for the whole round in parallel (representatives are
            // frozen at creation, so these probes commute).
            let pre: Vec<Option<usize>> = if established == 0 {
                vec![None; round.len()]
            } else {
                let reps = &reps[..established];
                scan::scan_collect(round.len(), &match_opts, |j, out| {
                    out.push(
                        reps.iter()
                            .position(|r| hamming::within(r, &round[j].value, budget)),
                    )
                })
            };
            for (obs, first_fit) in round.iter().zip(pre) {
                // In-round seeds were created after every established cluster,
                // so first-fit order is: established match, else earliest
                // in-round seed match, else a new cluster.
                let idx = first_fit.or_else(|| {
                    (established..reps.len())
                        .find(|&i| hamming::within(&reps[i], &obs.value, budget))
                });
                match idx {
                    Some(i) => clusters[i].absorb(&obs.value, obs.count),
                    None => {
                        clusters.push(Cluster::new(&obs.value, obs.count));
                        reps.push(obs.value);
                    }
                }
            }
        }

        let mut candidates: Vec<CandidateKey> = clusters
            .iter()
            .map(|c| CandidateKey {
                key: c.majority(),
                observations: c.observations,
            })
            .collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(c.observations));
        if let Some(max) = config.max_candidates {
            candidates.truncate(max);
        }
        if let Some(metrics) = &metrics {
            metrics.candidates.add(candidates.len() as u64);
        }
        candidates
    }
}

/// Scans a dump for blocks passing the scrambler key litmus test and
/// consolidates them into candidate keys, most frequently observed first.
///
/// Frequency is the paper's signal separating true keys (zeros are the most
/// common block value in real memory) from coincidences such as
/// constant-pattern data, which also satisfies the linear invariants.
///
/// Both stages run on the work-stealing scan engine with
/// `config.threads` workers:
///
/// 1. **Sweep** — every block is prefiltered ([`first_group_violations`]),
///    litmus-tested, and deduplicated into worker-local
///    value → (count, first index) maps, merged commutatively. At realistic
///    decay most key observations are bit-identical to one already seen, so
///    this collapses millions of blocks into at most a few thousand
///    distinct values without any cross-thread contention.
/// 2. **Consolidation** — distinct values, in first-seen order, join the
///    first existing cluster within `consolidate_bits` of their value or
///    seed a new one (weighted majority vote repairs decay). Matching
///    against already-established clusters is fanned out across workers
///    round by round; the first-fit choice itself stays sequential, which
///    keeps the result identical to a fully sequential run.
///
/// This is the one-shot form of [`KeyMiner`]; dumps too large for memory go
/// through the miner window by window with identical results.
pub fn mine_candidate_keys(dump: &MemoryDump, config: &MiningConfig) -> Vec<CandidateKey> {
    let mut miner = KeyMiner::new(config);
    miner.absorb(dump, 0);
    miner.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_crypto::rng::SplitMix64;

    /// Builds a structured key like the Skylake scrambler's.
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

    #[test]
    fn structured_keys_pass() {
        for tag in 0..20u8 {
            assert_eq!(invariant_violations(&structured_key(tag)), 0, "tag {tag}");
            assert!(scrambler_key_litmus(&structured_key(tag), 0));
        }
    }

    #[test]
    fn constant_blocks_pass_trivially() {
        // Constant data satisfies all XOR-linear invariants — this is why
        // mining needs frequency ranking, not just the litmus test.
        let block = [0x77u8; 64];
        assert_eq!(invariant_violations(&block), 0);
    }

    #[test]
    fn random_blocks_fail() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..2000 {
            let block: [u8; 64] = rng.bytes();
            assert!(!scrambler_key_litmus(&block, 20));
        }
    }

    #[test]
    fn prefilter_is_a_lower_bound() {
        let mut rng = SplitMix64::new(7);
        let mut block = [0u8; 64];
        for _ in 0..2000 {
            rng.fill(&mut block);
            assert!(first_group_violations(&block) <= invariant_violations(&block));
        }
        // On pristine keys the prefilter never rejects.
        for tag in 0..20u8 {
            assert_eq!(first_group_violations(&structured_key(tag)), 0);
        }
    }

    #[test]
    fn decayed_keys_still_pass_with_tolerance() {
        let mut key = structured_key(5);
        for (byte, bit) in [(0usize, 1u8), (20, 7), (41, 3), (63, 0)] {
            key[byte] ^= 1 << bit;
        }
        let v = invariant_violations(&key);
        assert!(v > 0, "flips must violate something");
        assert!(v <= 20, "violations {v} exceed tolerance");
        assert!(scrambler_key_litmus(&key, 20));
    }

    #[test]
    fn xor_of_two_structured_keys_passes() {
        let a = structured_key(1);
        let b = structured_key(2);
        let mut x = [0u8; 64];
        for i in 0..64 {
            x[i] = a[i] ^ b[i];
        }
        assert_eq!(invariant_violations(&x), 0);
    }

    #[test]
    fn mining_finds_and_ranks_keys() {
        // Image: key A appears 5 times, key B twice, plus random filler.
        let mut rng = SplitMix64::new(2);
        let mut image = vec![0u8; 64 * 100];
        rng.fill(&mut image);
        let a = structured_key(10);
        let b = structured_key(11);
        for i in [3usize, 17, 40, 66, 90] {
            image[i * 64..(i + 1) * 64].copy_from_slice(&a);
        }
        for i in [8usize, 55] {
            image[i * 64..(i + 1) * 64].copy_from_slice(&b);
        }
        let dump = MemoryDump::new(image, 0);
        let found = mine_candidate_keys(&dump, &MiningConfig::default());
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].key, a);
        assert_eq!(found[0].observations, 5);
        assert_eq!(found[1].key, b);
        assert_eq!(found[1].observations, 2);
    }

    #[test]
    fn majority_vote_repairs_decay() {
        // Five observations of the same key, each with different single-bit
        // damage: the consolidated key must be pristine.
        let key = structured_key(9);
        let mut image = Vec::new();
        for i in 0..5 {
            let mut noisy = key;
            noisy[i * 7] ^= 1 << (i % 8);
            image.extend_from_slice(&noisy);
        }
        let dump = MemoryDump::new(image, 0);
        let found = mine_candidate_keys(&dump, &MiningConfig::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, key, "majority vote failed to repair decay");
        assert_eq!(found[0].observations, 5);
    }

    #[test]
    fn null_key_is_dropped_by_default() {
        let image = vec![0u8; 64 * 4];
        let dump = MemoryDump::new(image, 0);
        assert!(mine_candidate_keys(&dump, &MiningConfig::default()).is_empty());
        let keep = MiningConfig {
            drop_null_key: false,
            ..MiningConfig::default()
        };
        assert_eq!(mine_candidate_keys(&dump, &keep).len(), 1);
    }

    #[test]
    fn max_candidates_truncates() {
        let mut image = Vec::new();
        for tag in 0..10u8 {
            image.extend_from_slice(&structured_key(tag));
        }
        let dump = MemoryDump::new(image, 0);
        let config = MiningConfig {
            max_candidates: Some(3),
            ..MiningConfig::default()
        };
        assert_eq!(mine_candidate_keys(&dump, &config).len(), 3);
    }

    /// A synthetic scrambled dump: default-mix-ish content with many keys,
    /// repeated decayed observations, and clustered placement (all key
    /// observations in the last quarter) to provoke scheduling skew.
    fn skewed_dump() -> MemoryDump {
        let mut rng = SplitMix64::new(11);
        let blocks = 4096;
        let mut image = vec![0u8; 64 * blocks];
        rng.fill(&mut image);
        for k in 0..64u8 {
            for rep in 0..6usize {
                let mut key = structured_key(k);
                // Distinct single-bit decay per repetition.
                key[(rep * 11) % 64] ^= 1 << (rep % 8);
                let slot = blocks - 1 - (k as usize * 6 + rep);
                image[slot * 64..(slot + 1) * 64].copy_from_slice(&key);
            }
        }
        MemoryDump::new(image, 0)
    }

    #[test]
    fn parallel_mining_is_byte_identical_to_sequential() {
        let dump = skewed_dump();
        let sequential = MiningConfig {
            threads: 1,
            ..MiningConfig::default()
        };
        let seq = mine_candidate_keys(&dump, &sequential);
        assert!(
            seq.len() >= 64,
            "expected the planted keys, got {}",
            seq.len()
        );
        for threads in [2usize, 4, 8] {
            let parallel = MiningConfig {
                threads,
                ..MiningConfig::default()
            };
            let par = mine_candidate_keys(&dump, &parallel);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn windowed_mining_is_byte_identical_to_whole_dump() {
        let dump = skewed_dump();
        let config = MiningConfig::default();
        let whole = mine_candidate_keys(&dump, &config);
        for window_blocks in [64usize, 129, 1024] {
            let mut miner = KeyMiner::new(&config);
            let mut i = 0;
            while i < dump.len_blocks() {
                let take = window_blocks.min(dump.len_blocks() - i);
                let window = MemoryDump::new(
                    dump.bytes()[i * 64..(i + take) * 64].to_vec(),
                    dump.block_addr(i),
                );
                miner.absorb(&window, i);
                i += take;
            }
            assert_eq!(miner.finish(), whole, "window={window_blocks}");
        }
    }

    #[test]
    fn observed_mining_is_byte_identical_and_counts_add_up() {
        use coldboot_metrics::MetricsRegistry;
        let dump = skewed_dump();
        let config = MiningConfig::default();
        let plain = mine_candidate_keys(&dump, &config);

        let registry = MetricsRegistry::new();
        let metrics = MiningMetrics::register(&registry);
        let mut miner = KeyMiner::new(&config).with_metrics(Arc::clone(&metrics));
        miner.absorb(&dump, 0);
        let observed = miner.finish();
        assert_eq!(plain, observed, "metrics must not perturb mining");

        assert_eq!(metrics.blocks.get(), dump.len_blocks() as u64);
        assert_eq!(metrics.candidates.get(), observed.len() as u64);
        // skewed_dump plants 64 keys × 6 decayed repetitions.
        assert_eq!(metrics.litmus_hits.get(), 64 * 6);
        assert!(
            metrics.decayed_bits.get() > 0,
            "planted single-bit decay must be visible"
        );
        assert!(metrics.prefilter_rejects.get() > 0);
        assert!(
            metrics.blocks.get() >= metrics.prefilter_rejects.get() + metrics.litmus_hits.get(),
            "every block is swept at most once"
        );
        assert!(metrics.engine.items.get() >= dump.len_blocks() as u64);
    }

    #[test]
    fn tile_size_never_changes_mining_results() {
        let dump = skewed_dump();
        let base = mine_candidate_keys(&dump, &MiningConfig::default());
        // From degenerate single-block tiles through exact divisors, ragged
        // tails, and one tile spanning the whole window.
        for tile_blocks in [1usize, 7, 100, 1024, 1 << 20] {
            let config = MiningConfig {
                tile_blocks,
                ..MiningConfig::default()
            };
            assert_eq!(
                mine_candidate_keys(&dump, &config),
                base,
                "tile={tile_blocks}"
            );
        }
        // A zero tile is clamped, not an infinite loop.
        let config = MiningConfig {
            tile_blocks: 0,
            ..MiningConfig::default()
        };
        assert_eq!(mine_candidate_keys(&dump, &config), base);
    }

    #[test]
    fn sharded_mining_merge_is_byte_identical_to_whole_dump() {
        let dump = skewed_dump();
        let config = MiningConfig::default();
        let whole = mine_candidate_keys(&dump, &config);
        let total = dump.len_blocks();
        for shards in [1usize, 2, 4, 8] {
            let per = total.div_ceil(shards);
            // Absorb shards out of order to prove the merge is commutative.
            let mut partials: Vec<Vec<MinedObservation>> = Vec::new();
            for s in (0..shards).rev() {
                let start = s * per;
                let end = ((s + 1) * per).min(total);
                if start >= end {
                    continue;
                }
                let window = MemoryDump::new(
                    dump.bytes()[start * 64..end * 64].to_vec(),
                    dump.block_addr(start),
                );
                let mut shard_miner = KeyMiner::new(&config);
                shard_miner.absorb(&window, start);
                partials.push(shard_miner.into_observations());
            }
            let mut merged = KeyMiner::new(&config);
            for part in partials {
                merged.absorb_observations(part);
            }
            assert_eq!(merged.finish(), whole, "shards={shards}");
        }
    }

    #[test]
    fn exported_observations_are_deterministically_ordered() {
        let dump = skewed_dump();
        let config = MiningConfig::default();
        let export = |dump: &MemoryDump| {
            let mut miner = KeyMiner::new(&config);
            miner.absorb(dump, 0);
            miner.into_observations()
        };
        let first = export(&dump);
        assert!(!first.is_empty());
        for _ in 0..3 {
            assert_eq!(export(&dump), first, "HashMap order must not leak");
        }
        assert!(first
            .windows(2)
            .all(|w| (w[0].first_idx, w[0].value) < (w[1].first_idx, w[1].value)));
    }

    #[test]
    fn prefilter_never_changes_the_result() {
        let dump = skewed_dump();
        let config = MiningConfig::default();
        let mut unfiltered = KeyMiner::new(&config);
        unfiltered.unfiltered = true;
        unfiltered.absorb(&dump, 0);
        assert_eq!(mine_candidate_keys(&dump, &config), unfiltered.finish());
    }
}
