//! A functional encrypted memory bus: the scrambler replaced by a real
//! counter-mode cipher engine.
//!
//! [`EncryptedBus`] implements the same
//! [`MemoryTransform`] interface as the scramblers, with the keystream for
//! each 64-byte block generated from the **physical address as counter**
//! plus a boot-time key and nonce — the exact scheme of §IV-B. Because
//! every block gets a unique counter, no two blocks ever share a keystream:
//! there are no correlations to mine, no litmus-testable key structure, and
//! a cold boot attack degenerates to breaking AES/ChaCha.
//!
//! [`encrypted_machine`] builds a [`Machine`] whose "scrambler" is such an
//! engine, so the attack pipelines from the `coldboot` crate can be pointed
//! at it unchanged — the validation experiment for Key Idea 2.

use crate::engine::{CipherEngineSpec, EngineKind};
use coldboot_crypto::chacha::ChaCha;
use coldboot_crypto::ctr::AesCtr;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::timing::DDR4_MIN_CAS_NS;
use coldboot_scrambler::controller::{BiosConfig, BootContext, Machine, TransformFactory};
use coldboot_scrambler::MemoryTransform;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a boot seed into key material.
fn key_material(seed: u64, bytes: usize) -> Vec<u8> {
    (0..bytes.div_ceil(8))
        .flat_map(|i| {
            mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)))
                .to_le_bytes()
        })
        .take(bytes)
        .collect()
}

#[derive(Debug, Clone)]
enum BusCipher {
    Aes(AesCtr),
    ChaCha(ChaCha),
}

/// A memory-bus transform backed by a strong counter-mode cipher engine.
#[derive(Debug, Clone)]
pub struct EncryptedBus {
    spec: CipherEngineSpec,
    cipher: BusCipher,
}

impl EncryptedBus {
    /// Creates an encrypted bus with keys derived from the boot seed.
    pub fn new(kind: EngineKind, boot_seed: u64) -> Self {
        let spec = CipherEngineSpec::for_kind(kind);
        let nonce_seed = mix(boot_seed ^ 0x004E_4F4E_4345); // "NONCE"
        let cipher = match kind {
            EngineKind::Aes128 => BusCipher::Aes(
                AesCtr::new(&key_material(boot_seed, 16), nonce_seed)
                    // lint:allow(panic): key_material(_, 16) returns exactly 16 bytes
                    .expect("16 bytes is a valid AES key"),
            ),
            EngineKind::Aes256 => BusCipher::Aes(
                AesCtr::new(&key_material(boot_seed, 32), nonce_seed)
                    // lint:allow(panic): key_material(_, 32) returns exactly 32 bytes
                    .expect("32 bytes is a valid AES key"),
            ),
            EngineKind::ChaCha8 | EngineKind::ChaCha12 | EngineKind::ChaCha20 => {
                let key: [u8; 32] = key_material(boot_seed, 32)
                    .try_into()
                    // lint:allow(panic): key_material(_, 32) returns exactly 32 bytes
                    .expect("exactly 32 bytes requested");
                let nonce: [u8; 12] = key_material(nonce_seed, 12)
                    .try_into()
                    // lint:allow(panic): key_material(_, 12) returns exactly 12 bytes
                    .expect("exactly 12 bytes requested");
                BusCipher::ChaCha(match kind {
                    EngineKind::ChaCha8 => ChaCha::chacha8(key, nonce),
                    EngineKind::ChaCha12 => ChaCha::chacha12(key, nonce),
                    _ => ChaCha::chacha20(key, nonce),
                })
            }
        };
        Self { spec, cipher }
    }

    /// The engine pipeline backing this bus.
    pub fn spec(&self) -> &CipherEngineSpec {
        &self.spec
    }

    /// Exposed read latency for an unloaded row-buffer hit at the given CAS
    /// latency: `max(0, keystream completion − CAS)`.
    pub fn exposed_read_latency_ns(&self, cas_latency_ns: f64) -> f64 {
        (self.spec.block_latency_ns() - cas_latency_ns).max(0.0)
    }

    /// Exposed latency against the fastest JEDEC DDR4 part (the paper's
    /// zero-latency criterion for unloaded reads).
    pub fn exposed_at_min_cas_ns(&self) -> f64 {
        self.exposed_read_latency_ns(DDR4_MIN_CAS_NS)
    }
}

impl MemoryTransform for EncryptedBus {
    fn keystream(&self, phys_addr: u64) -> [u8; 64] {
        let block_base = phys_addr & !63;
        match &self.cipher {
            // Four consecutive 16-byte counters per block.
            BusCipher::Aes(ctr) => ctr.keystream64(block_base >> 4),
            // One 64-byte counter per block.
            BusCipher::ChaCha(chacha) => chacha.keystream_block((block_base >> 6) as u32),
        }
    }

    fn name(&self) -> &'static str {
        match self.spec.kind {
            EngineKind::Aes128 => "AES-128-CTR memory encryption",
            EngineKind::Aes256 => "AES-256-CTR memory encryption",
            EngineKind::ChaCha8 => "ChaCha8 memory encryption",
            EngineKind::ChaCha12 => "ChaCha12 memory encryption",
            EngineKind::ChaCha20 => "ChaCha20 memory encryption",
        }
    }
}

/// A [`TransformFactory`] that equips a machine with an encrypted bus
/// (fresh keys every boot).
pub fn encrypted_transform_factory(kind: EngineKind) -> TransformFactory {
    Box::new(move |ctx: &BootContext| Box::new(EncryptedBus::new(kind, ctx.seed)))
}

/// Builds a machine whose memory interface is a strong cipher engine
/// instead of a scrambler.
pub fn encrypted_machine(
    uarch: Microarchitecture,
    geometry: DramGeometry,
    bios: BiosConfig,
    machine_id: u64,
    kind: EngineKind,
) -> Machine {
    Machine::with_transform_factory(
        uarch,
        geometry,
        bios,
        machine_id,
        encrypted_transform_factory(kind),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_dram::module::DramModule;
    use std::collections::HashSet;

    fn machine(kind: EngineKind) -> Machine {
        let mut m = encrypted_machine(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::default(),
            1,
            kind,
        );
        let size = m.capacity() as usize;
        m.insert_module(DramModule::new(size, 9)).unwrap();
        m
    }

    #[test]
    fn round_trips_for_every_engine() {
        for kind in EngineKind::ALL {
            let mut m = machine(kind);
            m.write(0x1234, b"encrypted memory bus").unwrap();
            let mut buf = [0u8; 20];
            m.read(0x1234, &mut buf).unwrap();
            assert_eq!(&buf, b"encrypted memory bus", "{kind}");
            let raw = m.peek_raw(0x1234, 20).unwrap();
            assert_ne!(&raw[..], b"encrypted memory bus", "{kind}");
        }
    }

    #[test]
    fn every_block_has_a_unique_keystream() {
        // The defining difference from the scrambler: zero-filled memory
        // exposes thousands of *distinct* keystreams with no reuse.
        let bus = EncryptedBus::new(EngineKind::ChaCha8, 42);
        let mut seen = HashSet::new();
        for addr in (0..(1u64 << 20)).step_by(64) {
            assert!(
                seen.insert(bus.keystream(addr)),
                "keystream reuse at {addr:#x}"
            );
        }
    }

    #[test]
    fn keystreams_pass_no_litmus_structure() {
        // ChaCha/AES keystreams must not satisfy the scrambler-key
        // invariants (checked here structurally: the XOR relations).
        let bus = EncryptedBus::new(EngineKind::Aes128, 7);
        let w = |k: &[u8; 64], i: usize| u16::from_le_bytes([k[i], k[i + 1]]);
        let mut passes = 0;
        for addr in (0..4096u64 * 64).step_by(64) {
            let k = bus.keystream(addr);
            let ok = [0usize, 16, 32, 48]
                .iter()
                .all(|&g| w(&k, g) ^ w(&k, g + 2) == w(&k, g + 8) ^ w(&k, g + 10));
            if ok {
                passes += 1;
            }
        }
        assert_eq!(passes, 0, "cipher keystream shows scrambler structure");
    }

    #[test]
    fn reboot_rolls_keys() {
        let mut m = machine(EngineKind::ChaCha8);
        let before = m.transform().keystream(0);
        m.reboot();
        assert_ne!(before, m.transform().keystream(0));
    }

    #[test]
    fn fixed_nonce_weakness_is_modeled() {
        // §IV threat model: same boot, same address => same keystream (the
        // bus-snooping/replay weakness the paper concedes).
        let bus = EncryptedBus::new(EngineKind::ChaCha8, 5);
        assert_eq!(bus.keystream(4096), bus.keystream(4096));
    }

    #[test]
    fn zero_exposed_latency_for_viable_engines() {
        for kind in [EngineKind::Aes128, EngineKind::Aes256, EngineKind::ChaCha8] {
            let bus = EncryptedBus::new(kind, 1);
            assert_eq!(bus.exposed_at_min_cas_ns(), 0.0, "{kind}");
        }
        let slow = EncryptedBus::new(EngineKind::ChaCha20, 1);
        assert!(slow.exposed_at_min_cas_ns() > 8.0);
    }

    #[test]
    fn different_boots_have_unrelated_keystreams() {
        let a = EncryptedBus::new(EngineKind::Aes256, 1);
        let b = EncryptedBus::new(EngineKind::Aes256, 2);
        let ka = a.keystream(0);
        let kb = b.keystream(0);
        let differing: u32 = ka
            .iter()
            .zip(kb.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!((180..330).contains(&differing), "diff bits {differing}");
    }
}
