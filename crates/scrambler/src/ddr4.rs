//! The Skylake DDR4 scrambler model.
//!
//! Observable properties reproduced from §III-B of the paper:
//!
//! * **4096 distinct 64-byte keys per channel** (256× more than DDR3), so
//!   same-data correlations are 256× rarer (Figure 3d);
//! * every key satisfies the **byte-pair XOR invariants** the paper
//!   publishes — for each 16-byte-aligned group, with 2-byte words
//!   `W0..W7`:
//!
//!   ```text
//!   W1 ⊕ W2 = W5 ⊕ W6      W0 ⊕ W3 = W4 ⊕ W7
//!   W0 ⊕ W2 = W4 ⊕ W6      W0 ⊕ W1 = W4 ⊕ W5
//!   ```
//!
//!   These four relations are equivalent to: the second 8 bytes of each
//!   group equal the first 8 bytes XOR a per-group repeating 2-byte mask —
//!   exactly how this model generates keys (a 64-bit LFSR lane driving both
//!   halves of a 128-bit datapath through a stage that differs only in a
//!   16-bit whitening value would produce precisely this structure);
//! * key selection depends **only on physical address bits**, so blocks that
//!   share a key keep sharing one across reboots;
//! * each of the 4096 keys is perturbed *independently* by the boot seed, so
//!   the cross-boot XOR does **not** collapse to a universal key
//!   (Figure 3e) — the DDR3 attack is dead, as the paper observes;
//! * an optional BIOS misfeature (`reset_seed_on_boot = false` in
//!   [`crate::controller::BiosConfig`]) reuses the seed every boot, which
//!   the paper found in shipping firmware.

use crate::ddr3::{lfsr_block, mix64};
use crate::transform::MemoryTransform;
use coldboot_dram::mapping::AddressMapping;

/// The Skylake-style DDR4 scrambler.
///
/// Keys are precomputed per `(channel, key_id)` at boot: 4096 keys × 64
/// bytes per channel (the real hardware regenerates them in LFSR lanes; a
/// table is observationally identical and faster to simulate).
#[derive(Clone)]
pub struct Ddr4Scrambler {
    mapping: AddressMapping,
    /// `keys[channel][key_id]`.
    keys: Vec<Vec<[u8; 64]>>,
}

impl std::fmt::Debug for Ddr4Scrambler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ddr4Scrambler")
            .field("mapping", &self.mapping)
            .field("keys", &"[redacted]")
            .finish()
    }
}

impl Ddr4Scrambler {
    /// Creates a scrambler for the given mapping and boot seed.
    pub fn new(mapping: AddressMapping, boot_seed: u64) -> Self {
        let channels = mapping.geometry().channels as usize;
        let keys = (0..channels)
            .map(|ch| {
                (0..crate::DDR4_KEYS_PER_CHANNEL)
                    .map(|id| Self::generate_key(boot_seed, ch as u64, id as u64))
                    .collect()
            })
            .collect();
        Self { mapping, keys }
    }

    /// Generates one structured 64-byte key.
    ///
    /// Each 16-byte group is `[base(8B) || base ⊕ mask]` where `mask` is a
    /// 2-byte value repeated four times — the exact structure behind the
    /// paper's litmus invariants.
    fn generate_key(boot_seed: u64, channel: u64, key_id: u64) -> [u8; 64] {
        let material = lfsr_block(mix64(boot_seed, (channel << 13) | key_id));
        let mut key = [0u8; 64];
        for g in 0..4 {
            let base = &material[g * 16..g * 16 + 8];
            let mask = [material[g * 16 + 8], material[g * 16 + 9]];
            key[g * 16..g * 16 + 8].copy_from_slice(base);
            for i in 0..8 {
                key[g * 16 + 8 + i] = base[i] ^ mask[i % 2];
            }
        }
        key
    }

    /// The key id (0..4096) used for a physical address: 12 bits of the
    /// channel-local block index.
    pub fn key_id_of(&self, phys_addr: u64) -> usize {
        (self.mapping.channel_block_index(phys_addr) % crate::DDR4_KEYS_PER_CHANNEL as u64) as usize
    }

    /// The concrete 64-byte key for `(channel, key_id)`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` or `key_id` is out of range.
    pub fn key_for(&self, channel: usize, key_id: usize) -> [u8; 64] {
        self.keys[channel][key_id]
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }
}

impl MemoryTransform for Ddr4Scrambler {
    fn keystream(&self, phys_addr: u64) -> [u8; 64] {
        let channel = self.mapping.channel_of(phys_addr) as usize;
        self.keys[channel][self.key_id_of(phys_addr)]
    }

    fn name(&self) -> &'static str {
        "DDR4 scrambler (4096 keys/channel)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_dram::geometry::DramGeometry;
    use coldboot_dram::mapping::Microarchitecture;
    use std::collections::HashSet;

    fn mapping() -> AddressMapping {
        AddressMapping::new(
            Microarchitecture::Skylake,
            DramGeometry::ddr4_dual_channel_8gib(),
        )
    }

    /// The paper's litmus invariants, checked directly on a key.
    fn satisfies_invariants(key: &[u8; 64]) -> bool {
        let w = |i: usize| u16::from_le_bytes([key[i], key[i + 1]]);
        for g in [0usize, 16, 32, 48] {
            let checks = [
                w(g + 2) ^ w(g + 4) == w(g + 10) ^ w(g + 12),
                w(g) ^ w(g + 6) == w(g + 8) ^ w(g + 14),
                w(g) ^ w(g + 4) == w(g + 8) ^ w(g + 12),
                w(g) ^ w(g + 2) == w(g + 8) ^ w(g + 10),
            ];
            if checks.iter().any(|&c| !c) {
                return false;
            }
        }
        true
    }

    #[test]
    fn exactly_4096_keys_per_channel() {
        let s = Ddr4Scrambler::new(mapping(), 555);
        for ch in 0..2usize {
            let keys: HashSet<[u8; 64]> = (0..crate::DDR4_KEYS_PER_CHANNEL)
                .map(|id| s.key_for(ch, id))
                .collect();
            assert_eq!(keys.len(), crate::DDR4_KEYS_PER_CHANNEL);
        }
    }

    #[test]
    fn every_key_satisfies_the_paper_invariants() {
        let s = Ddr4Scrambler::new(mapping(), 987);
        for ch in 0..2usize {
            for id in 0..crate::DDR4_KEYS_PER_CHANNEL {
                assert!(
                    satisfies_invariants(&s.key_for(ch, id)),
                    "key ch{ch}/id{id} violates invariants"
                );
            }
        }
    }

    #[test]
    fn xor_of_two_keys_also_satisfies_invariants() {
        // The invariants are linear, so victim-key ⊕ attacker-key (what a
        // dump through a *different* scrambler exposes) still passes the
        // litmus test — the property that lets the attacker skip disabling
        // their own scrambler.
        let a = Ddr4Scrambler::new(mapping(), 1);
        let b = Ddr4Scrambler::new(mapping(), 2);
        for id in [0usize, 17, 4095] {
            let ka = a.key_for(0, id);
            let kb = b.key_for(0, id);
            let mut x = [0u8; 64];
            for i in 0..64 {
                x[i] = ka[i] ^ kb[i];
            }
            assert!(satisfies_invariants(&x));
        }
    }

    #[test]
    fn random_data_fails_the_invariants() {
        let mut rng = coldboot_crypto::rng::SplitMix64::new(3);
        for _ in 0..1000 {
            let mut block = [0u8; 64];
            rng.fill(&mut block);
            assert!(!satisfies_invariants(&block));
        }
    }

    #[test]
    fn cross_boot_xor_does_not_collapse() {
        let boot1 = Ddr4Scrambler::new(mapping(), 1);
        let boot2 = Ddr4Scrambler::new(mapping(), 2);
        let mut xored = HashSet::new();
        for id in 0..crate::DDR4_KEYS_PER_CHANNEL {
            let k1 = boot1.key_for(0, id);
            let k2 = boot2.key_for(0, id);
            let mut x = [0u8; 64];
            for i in 0..64 {
                x[i] = k1[i] ^ k2[i];
            }
            xored.insert(x);
        }
        assert_eq!(
            xored.len(),
            crate::DDR4_KEYS_PER_CHANNEL,
            "cross-boot XOR must not collapse (that was the DDR3 flaw)"
        );
    }

    #[test]
    fn key_sharing_is_stable_across_boots() {
        let boot1 = Ddr4Scrambler::new(mapping(), 1);
        let boot2 = Ddr4Scrambler::new(mapping(), 2);
        for addr in (0..(4u64 << 20)).step_by(64 * 31) {
            assert_eq!(boot1.key_id_of(addr), boot2.key_id_of(addr));
        }
    }

    #[test]
    fn same_seed_reproduces_keys() {
        let a = Ddr4Scrambler::new(mapping(), 42);
        let b = Ddr4Scrambler::new(mapping(), 42);
        assert_eq!(a.key_for(1, 100), b.key_for(1, 100));
    }

    #[test]
    fn scramble_is_symmetric_across_blocks() {
        let s = Ddr4Scrambler::new(mapping(), 7);
        let original: Vec<u8> = (0..500).map(|i| (i * 3) as u8).collect();
        let mut data = original.clone();
        s.apply(0xABC0, &mut data);
        assert_ne!(data, original);
        s.apply(0xABC0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn keystream_bits_are_roughly_balanced() {
        let s = Ddr4Scrambler::new(mapping(), 11);
        let mut ones = 0u64;
        for id in 0..crate::DDR4_KEYS_PER_CHANNEL {
            for b in s.key_for(0, id) {
                ones += u64::from(b.count_ones());
            }
        }
        let total = (crate::DDR4_KEYS_PER_CHANNEL * 64 * 8) as f64;
        let frac = ones as f64 / total;
        assert!((0.48..0.52).contains(&frac), "key bias {frac}");
    }
}
