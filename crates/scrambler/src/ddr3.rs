//! The DDR3-era (SandyBridge/IvyBridge) scrambler model.
//!
//! Observable properties reproduced from Bauer et al. and §II-C of the
//! paper:
//!
//! * only **16 distinct 64-byte keys per channel**, selected by low address
//!   bits, so identical data scrambled with the same key collides visibly
//!   (Figure 3b);
//! * each key is `boot_component ⊕ silicon_component[id]`: the boot-seeded
//!   part is *common to all 16 keys* of a channel, so re-reading memory
//!   after a reboot XORs the data with
//!   `key_old(a) ⊕ key_new(a) = boot_old ⊕ boot_new` — one **universal
//!   64-byte key for the whole channel** (Figure 3c), the property the DDR3
//!   cold boot attack rides on.

use crate::lfsr::Lfsr16;
use crate::transform::MemoryTransform;
use coldboot_dram::mapping::AddressMapping;

/// Mixes two 64-bit values into a seed (splitmix64 finalizer).
pub(crate) fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates a 64-byte LFSR keystream from a seed.
pub(crate) fn lfsr_block(seed: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    // Four independent 16-bit lanes, as a wide scrambler datapath would
    // implement it.
    for lane in 0..4 {
        let lane_seed = (mix64(seed, lane as u64) & 0xFFFF) as u16;
        let mut lfsr = Lfsr16::new(lane_seed);
        lfsr.fill(&mut out[lane * 16..(lane + 1) * 16]);
    }
    out
}

fn xor64(a: &[u8; 64], b: &[u8; 64]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for i in 0..64 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// The SandyBridge-style DDR3 scrambler.
#[derive(Debug, Clone)]
pub struct Ddr3Scrambler {
    mapping: AddressMapping,
    /// Per-channel boot-seeded component, shared by all 16 keys of the
    /// channel.
    boot_component: Vec<[u8; 64]>,
    /// Per-channel silicon-fixed components (identical across boots and
    /// across machines of the same generation).
    silicon_component: Vec<[[u8; 64]; crate::DDR3_KEYS_PER_CHANNEL]>,
}

impl Ddr3Scrambler {
    /// Creates a scrambler for the given mapping, seeded with the boot-time
    /// random value.
    pub fn new(mapping: AddressMapping, boot_seed: u64) -> Self {
        let channels = mapping.geometry().channels as usize;
        let boot_component = (0..channels)
            .map(|ch| lfsr_block(mix64(boot_seed, ch as u64)))
            .collect();
        // Silicon constants: a function of generation + channel + key id
        // only. The microarchitecture discriminant keeps SandyBridge and
        // IvyBridge from sharing constants.
        let gen_tag = mapping.microarchitecture().name().as_bytes()[0] as u64;
        let silicon_component = (0..channels)
            .map(|ch| {
                core::array::from_fn(|id| {
                    lfsr_block(mix64(0xC0FF_EE00 ^ gen_tag, ((ch as u64) << 8) | id as u64))
                })
            })
            .collect();
        Self {
            mapping,
            boot_component,
            silicon_component,
        }
    }

    /// The key id (0..16) used for a physical address.
    pub fn key_id_of(&self, phys_addr: u64) -> usize {
        (self.mapping.channel_block_index(phys_addr) % crate::DDR3_KEYS_PER_CHANNEL as u64) as usize
    }

    /// The concrete 64-byte key for `(channel, key_id)`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` or `key_id` is out of range.
    pub fn key_for(&self, channel: usize, key_id: usize) -> [u8; 64] {
        xor64(
            &self.boot_component[channel],
            &self.silicon_component[channel][key_id],
        )
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }
}

impl MemoryTransform for Ddr3Scrambler {
    fn keystream(&self, phys_addr: u64) -> [u8; 64] {
        let channel = self.mapping.channel_of(phys_addr) as usize;
        self.key_for(channel, self.key_id_of(phys_addr))
    }

    fn name(&self) -> &'static str {
        "DDR3 scrambler (16 keys/channel)"
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
            Microarchitecture::SandyBridge,
            DramGeometry::ddr3_dual_channel_4gib(),
        )
    }

    #[test]
    fn exactly_16_keys_per_channel() {
        let s = Ddr3Scrambler::new(mapping(), 1234);
        for target_channel in 0..2u32 {
            let mut keys = HashSet::new();
            for addr in (0..(16u64 << 20)).step_by(64) {
                if s.mapping().channel_of(addr) == target_channel {
                    keys.insert(s.keystream(addr));
                }
            }
            assert_eq!(keys.len(), crate::DDR3_KEYS_PER_CHANNEL);
        }
    }

    #[test]
    fn cross_boot_xor_collapses_to_universal_key() {
        let boot1 = Ddr3Scrambler::new(mapping(), 1);
        let boot2 = Ddr3Scrambler::new(mapping(), 2);
        for target_channel in 0..2u32 {
            let mut universal = HashSet::new();
            for addr in (0..(4u64 << 20)).step_by(64) {
                if boot1.mapping().channel_of(addr) == target_channel {
                    let k1 = boot1.keystream(addr);
                    let k2 = boot2.keystream(addr);
                    universal.insert(xor64(&k1, &k2));
                }
            }
            assert_eq!(
                universal.len(),
                1,
                "DDR3 cross-boot XOR must collapse to one universal key"
            );
        }
    }

    #[test]
    fn key_ids_stable_across_boots() {
        let boot1 = Ddr3Scrambler::new(mapping(), 1);
        let boot2 = Ddr3Scrambler::new(mapping(), 2);
        for addr in (0..(1u64 << 20)).step_by(4096 + 64) {
            assert_eq!(boot1.key_id_of(addr), boot2.key_id_of(addr));
        }
    }

    #[test]
    fn scramble_is_symmetric() {
        let s = Ddr3Scrambler::new(mapping(), 99);
        let mut data = vec![0x5Au8; 256];
        s.apply(0x1000, &mut data);
        assert_ne!(data, vec![0x5Au8; 256]);
        s.apply(0x1000, &mut data);
        assert_eq!(data, vec![0x5Au8; 256]);
    }

    #[test]
    fn different_generations_have_different_silicon_keys() {
        let g = DramGeometry::ddr3_dual_channel_4gib();
        let snb = Ddr3Scrambler::new(AddressMapping::new(Microarchitecture::SandyBridge, g), 7);
        let ivb = Ddr3Scrambler::new(AddressMapping::new(Microarchitecture::IvyBridge, g), 7);
        assert_ne!(snb.key_for(0, 0), ivb.key_for(0, 0));
    }

    #[test]
    fn keystream_bits_are_roughly_balanced() {
        let s = Ddr3Scrambler::new(mapping(), 42);
        let mut ones = 0u32;
        let mut total = 0u32;
        for id in 0..16 {
            for b in s.key_for(0, id) {
                ones += b.count_ones();
                total += 8;
            }
        }
        let frac = ones as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "scrambler key bias {frac}");
    }
}
