//! End-to-end attack pipelines and the scrambler analysis framework.
//!
//! * [`capture_dump_via_transplant`] — the physical half of a cold boot
//!   attack: freeze the victim's DIMM, pull it, carry it (decaying), seat
//!   it in the attacker's machine, and dump it through whatever transform
//!   the attacker's memory controller applies.
//! * [`run_ddr4_attack`] — the paper's §III-C algorithm: mine scrambler
//!   keys from a small prefix of the dump, then search for AES key
//!   schedules one descrambled block at a time.
//! * [`zero_fill_key_extraction`] / [`ground_state_key_extraction`] — the
//!   §III-A "reverse cold boot" analysis framework used to characterize an
//!   unknown scrambler in the first place.
//! * [`ddr3`] — the prior-work DDR3 baseline: plain frequency analysis and
//!   the cross-boot universal-key trick (which the paper shows is dead on
//!   Skylake DDR4).

use crate::dump::{xor_block, MemoryDump};
use crate::keysearch::{search_dump, SearchConfig, SearchOutcome};
use crate::litmus::{mine_candidate_keys, CandidateKey, MiningConfig};
use crate::scan::{self, ScanOptions};
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dram::transplant::Transplant;
use coldboot_dram::BLOCK_BYTES;
use coldboot_scrambler::controller::{Machine, MachineError};

/// Parameters for the physical transplant step.
#[derive(Debug, Clone, Copy)]
pub struct TransplantParams {
    /// Temperature the DIMM is sprayed down to before pulling it (°C).
    pub freeze_celsius: f64,
    /// Unpowered transfer time between machines (seconds).
    pub transfer_seconds: f64,
}

impl TransplantParams {
    /// The paper's demonstrated conditions: ≈ −25 °C, ≈ 5 s transfer.
    pub fn paper_demo() -> Self {
        Self {
            freeze_celsius: -25.0,
            transfer_seconds: 5.0,
        }
    }

    /// A sloppy attacker: no freezing, slow hands.
    pub fn unfrozen() -> Self {
        Self {
            freeze_celsius: coldboot_dram::module::OPERATING_TEMP_C,
            transfer_seconds: 5.0,
        }
    }

    /// A marginal transplant: light chill, slow transfer (≈ −10 °C, 8 s).
    ///
    /// Under the paper-calibrated retention model this decays ≈ 19 % of
    /// charged bits — far beyond what raw Hamming-distance search
    /// tolerates, but recoverable with channel-model reconstruction
    /// ([`crate::reconstruct`]).
    pub fn warm_transfer() -> Self {
        Self {
            freeze_celsius: -10.0,
            transfer_seconds: 8.0,
        }
    }
}

/// Freezes and moves the victim's module into the attacker's machine, then
/// dumps the attacker's entire physical address space.
///
/// The attacker's scrambler may be enabled: the litmus tests work on the
/// *combined* keystream (victim ⊕ attacker), as the paper notes.
///
/// # Errors
///
/// Fails if the victim has no module or the attacker's socket is occupied
/// or incompatible.
pub fn capture_dump_via_transplant(
    victim: &mut Machine,
    attacker: &mut Machine,
    params: TransplantParams,
    decay: DecayModel,
) -> Result<MemoryDump, MachineError> {
    // Freeze in place (Figure 2), then pull.
    if let Some(module) = victim.module_mut() {
        module.set_temperature(params.freeze_celsius);
    }
    let module = victim.remove_module()?;
    let module = Transplant::begin_with_model(module, decay)
        .unplug()
        .wait_seconds(params.transfer_seconds)
        .resocket();
    attacker.insert_module(module)?;
    let capacity = attacker.capacity();
    let image = attacker.dump(0, capacity as usize)?;
    Ok(MemoryDump::new(image, 0))
}

/// Configuration for the full DDR4 attack pipeline.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Scrambler-key mining parameters.
    pub mining: MiningConfig,
    /// AES search parameters.
    pub search: SearchConfig,
    /// Mine keys from at most this long a prefix of the dump. The paper:
    /// "we were able to mine all scrambler keys by running the tests on
    /// less than 16MB of the memory dump".
    pub mining_prefix_bytes: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            mining: MiningConfig::default(),
            search: SearchConfig::default(),
            mining_prefix_bytes: 16 << 20,
        }
    }
}

/// The result of a DDR4 attack run.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Mined candidate scrambler keys, most frequent first.
    pub candidates: Vec<CandidateKey>,
    /// The AES search outcome (hits + recovered master keys).
    pub outcome: SearchOutcome,
    /// Bytes of dump that were mined for keys.
    pub mined_bytes: usize,
}

impl AttackReport {
    /// Convenience: the recovered master keys.
    pub fn master_keys(&self) -> Vec<Vec<u8>> {
        self.outcome
            .recovered
            .iter()
            .map(|r| r.master_key.clone())
            .collect()
    }
}

/// Runs the paper's §III-C DDR4 cold boot attack on a captured dump:
///
/// 1. mine candidate scrambler keys from a prefix of the image
///    (zero-filled blocks expose keys; the litmus test finds them);
/// 2. scan the image one block at a time, descrambling with every
///    candidate and applying the AES key litmus test;
/// 3. verify hits against neighbouring blocks and run the key expansion
///    recurrence backwards to the master keys.
pub fn run_ddr4_attack(dump: &MemoryDump, config: &AttackConfig) -> AttackReport {
    let mined_bytes = config
        .mining_prefix_bytes
        .min(dump.len())
        .next_multiple_of(BLOCK_BYTES)
        .min(dump.len());
    let prefix = dump.prefix(mined_bytes);
    let candidates = mine_candidate_keys(&prefix, &config.mining);
    let outcome = search_dump(dump, &candidates, &config.search);
    AttackReport {
        candidates,
        outcome,
        mined_bytes,
    }
}

/// The §III-A zero-fill analysis: prepare a module filled with raw
/// (unscrambled) zeros on a rig with scrambling disabled, seat it in the
/// machine under analysis, and read it back — every block read is that
/// block's scrambler key (`0 ⊕ key`).
///
/// Returns `(block physical address, exposed key)` pairs.
///
/// # Errors
///
/// Fails if the machine under analysis has no free, compatible socket.
pub fn zero_fill_key_extraction(
    analyzed: &mut Machine,
    module_serial: u64,
) -> Result<Vec<(u64, [u8; BLOCK_BYTES])>, MachineError> {
    let capacity = analyzed.capacity() as usize;
    let mut module = DramModule::new(capacity, module_serial);
    module.fill(0); // raw zeros, as the FPGA rig writes them
    analyzed.insert_module(module)?;
    let image = analyzed.dump(0, capacity)?;
    let dump = MemoryDump::new(image, 0);
    Ok(scan::scan_collect(
        dump.block_count(),
        &ScanOptions::default(),
        |i, out| out.push((dump.block_addr(i), *dump.block(i))),
    ))
}

/// The §III-A ground-state variant: let the module decay fully, profile the
/// ground state with scrambling off, then read the decayed module through
/// the scrambler — `dump ⊕ ground = key`, with no decay clock ticking.
///
/// # Errors
///
/// Fails if the machine under analysis has no free, compatible socket.
pub fn ground_state_key_extraction(
    analyzed: &mut Machine,
    module_serial: u64,
) -> Result<Vec<(u64, [u8; BLOCK_BYTES])>, MachineError> {
    let capacity = analyzed.capacity() as usize;
    let mut module = DramModule::new(capacity, module_serial);
    module.decay_to_ground();
    // Profile the ground state (this is what a scrambler-off read returns,
    // since module storage is canonical-cell-indexed).
    analyzed.insert_module(module)?;
    let scrambled_view = analyzed.dump(0, capacity)?;
    // Re-derive the ground state view through a scrambler-off rig of the
    // same generation.
    let module = analyzed.remove_module()?;
    let mut rig = Machine::new(
        analyzed.microarchitecture(),
        *analyzed.mapping().geometry(),
        coldboot_scrambler::controller::BiosConfig::scrambler_disabled(),
        module_serial ^ 0xFEED,
    );
    rig.insert_module(module)?;
    let ground_view = rig.dump(0, capacity)?;
    let module = rig.remove_module()?;
    analyzed.insert_module(module)?;

    let scrambled = MemoryDump::new(scrambled_view, 0);
    let ground = MemoryDump::new(ground_view, 0);
    Ok(scan::scan_collect(
        scrambled.len_blocks(),
        &ScanOptions::default(),
        |i, out| {
            out.push((
                scrambled.block_addr(i),
                xor_block(scrambled.block(i), ground.block(i)),
            ))
        },
    ))
}

/// The DDR3 baseline attack (Bauer et al.), which the paper reproduces for
/// comparison.
pub mod ddr3 {
    use super::*;
    use std::collections::HashMap;

    /// Incremental block-value histogram over a dump delivered in pieces —
    /// the streaming form of [`frequency_keys`], used by the file-backed
    /// CBDF pipeline. Counts merge by summation (commutative), so the
    /// ranking is byte-identical to the one-shot pass for any windowing.
    #[derive(Default)]
    pub struct FrequencyCounter {
        counts: HashMap<[u8; BLOCK_BYTES], u32>,
    }

    impl FrequencyCounter {
        /// Creates an empty histogram.
        pub fn new() -> Self {
            Self::default()
        }

        /// Counts every block of one window.
        pub fn absorb(&mut self, window: &MemoryDump) {
            type Histogram = HashMap<[u8; BLOCK_BYTES], u32>;
            let local: Histogram = scan::scan_fold(
                window.len_blocks(),
                &ScanOptions::default(),
                Histogram::new,
                |acc, i| *acc.entry(*window.block(i)).or_insert(0) += 1,
                |mut a, b| {
                    for (key, n) in b {
                        *a.entry(key).or_insert(0) += n;
                    }
                    a
                },
            );
            for (key, n) in local {
                *self.counts.entry(key).or_insert(0) += n;
            }
        }

        /// Exports the raw histogram as `(value, count)` pairs sorted by
        /// value — the mergeable partial form of a frequency pass. A
        /// cluster shard counts its block range, exports, and a
        /// coordinator [`FrequencyCounter::absorb_counts`]s every shard's
        /// export into one counter before ranking; summation is
        /// commutative, so the ranking is byte-identical to a single
        /// whole-image pass for any sharding.
        pub fn into_counts(self) -> Vec<([u8; BLOCK_BYTES], u32)> {
            let mut out: Vec<_> = self.counts.into_iter().collect();
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        }

        /// Merges previously exported counts (typically from another
        /// shard's counter) into this histogram.
        pub fn absorb_counts<I>(&mut self, counts: I)
        where
            I: IntoIterator<Item = ([u8; BLOCK_BYTES], u32)>,
        {
            for (key, n) in counts {
                *self.counts.entry(key).or_insert(0) += n;
            }
        }

        /// The `top_n` most common block values, ties broken by key bytes.
        pub fn finish(self, top_n: usize) -> Vec<CandidateKey> {
            let mut all: Vec<CandidateKey> = self
                .counts
                .into_iter()
                .map(|(key, observations)| CandidateKey { key, observations })
                .collect();
            all.sort_by_key(|c| (std::cmp::Reverse(c.observations), c.key));
            all.truncate(top_n);
            all
        }
    }

    /// Frequency analysis: the `top_n` most common block values in a dump.
    /// On a DDR3 system with 16 keys per channel, zero-filled memory makes
    /// the 16 exposed keys the most frequent values.
    ///
    /// The histogram is built on the scan engine (worker-local maps merged
    /// by summation) and ties are broken by key bytes, so the ranking is
    /// fully deterministic for any thread count — the old sequential
    /// version left equal-count ordering to `HashMap` iteration order.
    /// This is the one-shot form of [`FrequencyCounter`].
    pub fn frequency_keys(dump: &MemoryDump, top_n: usize) -> Vec<CandidateKey> {
        let mut counter = FrequencyCounter::new();
        counter.absorb(dump);
        counter.finish(top_n)
    }

    /// The cross-boot universal key. On DDR3, re-reading retained memory
    /// after a reboot yields `data ⊕ K_old ⊕ K_new`, and the boot-seeded
    /// component factors out of `K_old ⊕ K_new`, so the whole dump is
    /// effectively scrambled with **one** 64-byte key. Because zeros
    /// dominate real memory, that key is simply the most frequent block
    /// value of the after-reboot view.
    ///
    /// Returns `None` if the dump contains no blocks.
    pub fn universal_key(after_reboot_view: &MemoryDump) -> Option<CandidateKey> {
        frequency_keys(after_reboot_view, 1).into_iter().next()
    }

    /// Descrambles an entire dump with a single key (valid after the
    /// universal-key collapse).
    pub fn descramble_all(dump: &MemoryDump, key: &[u8; BLOCK_BYTES]) -> Vec<u8> {
        let mut out = Vec::with_capacity(dump.len());
        for (_, block) in dump.iter_blocks() {
            out.extend_from_slice(&xor_block(block, key));
        }
        out
    }

    /// Configuration for the full DDR3 attack.
    #[derive(Debug, Clone)]
    pub struct Ddr3AttackConfig {
        /// Candidate keys to keep from frequency analysis. Bauer et al.
        /// needed 16 per channel; keep a margin for frequent data blocks.
        pub top_keys: usize,
        /// AES search parameters.
        pub search: SearchConfig,
    }

    impl Default for Ddr3AttackConfig {
        fn default() -> Self {
            Self {
                // 16 keys per channel x up to 2 channels, plus headroom for
                // frequent non-key values.
                top_keys: 48,
                search: SearchConfig::default(),
            }
        }
    }

    /// Result of the DDR3 baseline attack.
    #[derive(Debug, Clone)]
    pub struct Ddr3AttackReport {
        /// Frequency-ranked candidate keys.
        pub candidates: Vec<CandidateKey>,
        /// The AES search outcome.
        pub outcome: SearchOutcome,
    }

    /// Runs the complete DDR3 baseline attack (Bauer et al., reproduced by
    /// the paper for comparison): plain frequency analysis stands in for
    /// the DDR4 litmus test — with only 16 keys per channel, the exposed
    /// keys of zero-filled blocks dominate the block-value histogram — and
    /// the same single-block AES key search runs on the (much smaller)
    /// candidate pool.
    pub fn run_ddr3_attack(dump: &MemoryDump, config: &Ddr3AttackConfig) -> Ddr3AttackReport {
        let candidates = frequency_keys(dump, config.top_keys);
        let outcome = search_dump(dump, &candidates, &config.search);
        Ddr3AttackReport {
            candidates,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_dram::geometry::DramGeometry;
    use coldboot_dram::mapping::Microarchitecture;
    use coldboot_scrambler::controller::BiosConfig;
    use std::collections::HashSet;

    fn micro_geometry() -> DramGeometry {
        // 1 MiB: 1ch x 1rank x 2bg x 2banks x 64rows x 64blk
        DramGeometry {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows: 64,
            blocks_per_row: 64,
        }
    }

    fn skylake_machine(id: u64, bios: BiosConfig) -> Machine {
        Machine::new(Microarchitecture::Skylake, micro_geometry(), bios, id)
    }

    #[test]
    fn zero_fill_extracts_true_keys() {
        let mut victim = skylake_machine(1, BiosConfig::default());
        let keys = zero_fill_key_extraction(&mut victim, 42).unwrap();
        // Every extracted key must equal the machine's actual keystream.
        for (addr, key) in &keys {
            assert_eq!(*key, victim.transform().keystream(*addr), "addr {addr:#x}");
        }
        // And the pool must have the advertised size (1 MiB has 16384
        // blocks over 4096 ids, all present).
        let distinct: HashSet<_> = keys.iter().map(|(_, k)| *k).collect();
        assert_eq!(distinct.len(), coldboot_scrambler::DDR4_KEYS_PER_CHANNEL);
    }

    #[test]
    fn ground_state_extraction_matches_zero_fill() {
        let mut a = skylake_machine(3, BiosConfig::default());
        let mut b = skylake_machine(3, BiosConfig::default());
        let zero_keys = zero_fill_key_extraction(&mut a, 50).unwrap();
        let ground_keys = ground_state_key_extraction(&mut b, 51).unwrap();
        assert_eq!(zero_keys.len(), ground_keys.len());
        for ((a1, k1), (a2, k2)) in zero_keys.iter().zip(&ground_keys) {
            assert_eq!(a1, a2);
            assert_eq!(k1, k2);
        }
    }

    #[test]
    fn transplant_capture_sees_combined_keystream() {
        let mut victim = skylake_machine(1, BiosConfig::default());
        let size = victim.capacity() as usize;
        victim.insert_module(DramModule::new(size, 7)).unwrap();
        victim.fill(0).unwrap();
        let mut attacker = skylake_machine(2, BiosConfig::default());
        let dump = capture_dump_via_transplant(
            &mut victim,
            &mut attacker,
            TransplantParams {
                freeze_celsius: -25.0,
                transfer_seconds: 0.0, // lossless for exactness
            },
            DecayModel::lossless(),
        )
        .unwrap();
        // Dump block = 0 ^ K_victim ^ K_attacker.
        let (addr, block) = dump.blocks().nth(100).unwrap();
        let kv = victim.transform().keystream(addr);
        let ka = attacker.transform().keystream(addr);
        let expected: Vec<u8> = kv.iter().zip(ka.iter()).map(|(a, b)| a ^ b).collect();
        assert_eq!(&block[..], &expected[..]);
    }

    #[test]
    fn ddr3_frequency_analysis_finds_the_16_keys() {
        let g = DramGeometry {
            channels: 2,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 2,
            rows: 64,
            blocks_per_row: 32,
        };
        let mut m = Machine::new(Microarchitecture::SandyBridge, g, BiosConfig::default(), 5);
        let size = m.capacity() as usize;
        m.insert_module(DramModule::new(size, 1)).unwrap();
        m.fill(0).unwrap();
        let dump = MemoryDump::new(m.dump(0, size).unwrap(), 0);
        // Dump through own descrambler of zeros reads back zeros; instead
        // capture the RAW cells (a second machine with scrambler off).
        let raw = MemoryDump::new(m.peek_raw(0, size).unwrap(), 0);
        assert!(dump.bytes().iter().all(|&b| b == 0));
        let keys = ddr3::frequency_keys(&raw, 32);
        // Both channels: 16 keys each = 32 distinct values, each genuinely a
        // keystream of the machine.
        assert_eq!(keys.len(), 32);
        for cand in &keys {
            // Find at least one address using this keystream.
            let found = raw.blocks().any(|(_, b)| *b == cand.key);
            assert!(found);
        }
    }

    #[test]
    fn ddr3_frequency_ranking_breaks_ties_deterministically() {
        // Four distinct values, all observed exactly twice: ranking must be
        // stable (by key bytes) rather than leaking HashMap iteration order.
        let mut image = Vec::new();
        for _ in 0..2 {
            for tag in [0x40u8, 0x10, 0x30, 0x20] {
                image.extend_from_slice(&[tag; 64]);
            }
        }
        let dump = MemoryDump::new(image, 0);
        let keys = ddr3::frequency_keys(&dump, 4);
        let tags: Vec<u8> = keys.iter().map(|c| c.key[0]).collect();
        assert_eq!(tags, vec![0x10, 0x20, 0x30, 0x40]);
        for _ in 0..5 {
            assert_eq!(ddr3::frequency_keys(&dump, 4), keys);
        }
    }

    #[test]
    fn windowed_frequency_counting_matches_one_shot() {
        // 96 blocks of skewed repeated values.
        let mut image = Vec::new();
        for i in 0..96u8 {
            let tag = i % 7;
            image.extend_from_slice(&[tag.wrapping_mul(0x1D); 64]);
        }
        let dump = MemoryDump::new(image, 0);
        let whole = ddr3::frequency_keys(&dump, 10);
        for window_blocks in [1usize, 5, 64] {
            let mut counter = ddr3::FrequencyCounter::new();
            let mut i = 0;
            while i < dump.len_blocks() {
                let take = window_blocks.min(dump.len_blocks() - i);
                let w = MemoryDump::new(
                    dump.bytes()[i * 64..(i + take) * 64].to_vec(),
                    dump.block_addr(i),
                );
                counter.absorb(&w);
                i += take;
            }
            assert_eq!(counter.finish(10), whole, "window={window_blocks}");
        }
    }

    #[test]
    fn sharded_frequency_counting_matches_one_shot() {
        let mut image = Vec::new();
        for i in 0..96u8 {
            let tag = i % 7;
            image.extend_from_slice(&[tag.wrapping_mul(0x1D); 64]);
        }
        let dump = MemoryDump::new(image, 0);
        let whole = ddr3::frequency_keys(&dump, 10);
        let total = dump.len_blocks();
        for shards in [1usize, 2, 4, 8] {
            let per = total.div_ceil(shards);
            let mut merged = ddr3::FrequencyCounter::new();
            // Absorb shard exports out of order: summation commutes.
            for s in (0..shards).rev() {
                let a = s * per;
                let b = ((s + 1) * per).min(total);
                if a >= b {
                    continue;
                }
                let w = MemoryDump::new(dump.bytes()[a * 64..b * 64].to_vec(), dump.block_addr(a));
                let mut shard = ddr3::FrequencyCounter::new();
                shard.absorb(&w);
                merged.absorb_counts(shard.into_counts());
            }
            assert_eq!(merged.finish(10), whole, "shards={shards}");
        }
    }

    #[test]
    fn ddr3_universal_key_recovers_plaintext_after_reboot() {
        let g = DramGeometry {
            channels: 1,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 2,
            rows: 64,
            blocks_per_row: 32,
        };
        let mut m = Machine::new(Microarchitecture::SandyBridge, g, BiosConfig::default(), 9);
        let size = m.capacity() as usize;
        m.insert_module(DramModule::new(size, 1)).unwrap();
        // Mostly-zero memory with a secret in the middle.
        m.fill(0).unwrap();
        let secret = b"the DDR3 universal key trick recovers this secret text!";
        m.write(0x8000, secret).unwrap();
        // Reboot: new seed. Read the SAME retained cells through the new
        // descrambler: data ^ K_boot1 ^ K_boot2 — one universal key on DDR3.
        m.reboot();
        let after = MemoryDump::new(m.dump(0, size).unwrap(), 0);
        let uni = ddr3::universal_key(&after).expect("dump has blocks");
        let plain = ddr3::descramble_all(&after, &uni.key);
        assert_eq!(&plain[0x8000..0x8000 + secret.len()], secret);
        // The whole memory, not just the secret, must be recovered: the
        // zero-filled remainder descrambles to zeros.
        assert!(plain[..0x8000].iter().all(|&b| b == 0));
    }

    #[test]
    fn attack_config_prefix_is_respected() {
        let image = vec![0u8; 64 * 32];
        let dump = MemoryDump::new(image, 0);
        let config = AttackConfig {
            mining_prefix_bytes: 1000, // not block aligned; gets rounded
            ..AttackConfig::default()
        };
        let report = run_ddr4_attack(&dump, &config);
        assert_eq!(report.mined_bytes, 1024);
        assert!(report.master_keys().is_empty());
    }
}
