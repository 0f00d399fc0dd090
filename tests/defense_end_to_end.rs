//! Integration test: the paper's §IV claim — replacing the scrambler with
//! a strong counter-mode cipher stops the cold boot attack cold, at zero
//! exposed read latency.

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot::stats::obfuscation_report;
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dram::timing::jedec_ddr4_cas_latencies_ns;
use coldboot_memenc::controller::{encrypted_machine, EncryptedBus};
use coldboot_memenc::engine::EngineKind;
use coldboot_memenc::overlap::OverlapModel;
use coldboot_repro::test_support::fill_mostly_zero;
use coldboot_scrambler::controller::BiosConfig;
use coldboot_veracrypt::{MountedVolume, Volume};

fn geometry() -> DramGeometry {
    DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    }
}

#[test]
fn attack_fails_against_encrypted_memory() {
    for kind in [EngineKind::ChaCha8, EngineKind::Aes128] {
        let mut victim = encrypted_machine(
            Microarchitecture::Skylake,
            geometry(),
            BiosConfig::default(),
            1,
            kind,
        );
        let size = victim.capacity() as usize;
        victim
            .insert_module(DramModule::new(size, 5))
            .expect("fresh socket");
        fill_mostly_zero(&mut victim, 3).expect("module present");
        let volume = Volume::create(b"pw", b"secret payload", &mut SplitMix64::new(6));
        MountedVolume::mount(&mut victim, &volume, b"pw", 0x8_0070).expect("mountable");

        let mut attacker = encrypted_machine(
            Microarchitecture::Skylake,
            geometry(),
            BiosConfig::default(),
            2,
            kind,
        );
        let dump = capture_dump_via_transplant(
            &mut victim,
            &mut attacker,
            TransplantParams::paper_demo(),
            DecayModel::lossless(),
        )
        .expect("transplant");

        // The image is cryptographically featureless.
        let stats = obfuscation_report(&dump);
        assert!(
            stats.entropy_bits > 7.99,
            "{kind}: entropy {}",
            stats.entropy_bits
        );
        assert_eq!(
            stats.duplicate_fraction, 0.0,
            "{kind}: correlated blocks in encrypted memory"
        );

        // The attack pipeline finds nothing at all.
        let report = run_ddr4_attack(&dump, &AttackConfig::default());
        assert!(report.candidates.is_empty(), "{kind}: mined scrambler keys");
        assert!(
            report.outcome.recovered.is_empty(),
            "{kind}: recovered keys"
        );
    }
}

#[test]
fn viable_engines_have_zero_exposed_latency() {
    // Functional path (unloaded read, fastest JEDEC part).
    for kind in [EngineKind::Aes128, EngineKind::Aes256, EngineKind::ChaCha8] {
        let bus = EncryptedBus::new(kind, 1);
        for cl in jedec_ddr4_cas_latencies_ns() {
            assert_eq!(bus.exposed_read_latency_ns(cl), 0.0, "{kind} at CL {cl}");
        }
    }
    // Under load, only ChaCha8 stays fully hidden (the paper's Key Idea 2).
    assert!(OverlapModel::ddr4_2400(EngineKind::ChaCha8).zero_exposed_under_all_loads());
    assert!(!OverlapModel::ddr4_2400(EngineKind::Aes128).zero_exposed_under_all_loads());
}

#[test]
fn encrypted_machine_still_works_as_memory() {
    let mut m = encrypted_machine(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        9,
        EngineKind::ChaCha8,
    );
    let size = m.capacity() as usize;
    m.insert_module(DramModule::new(size, 1))
        .expect("fresh socket");
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    m.write(0x1234, &data).expect("in range");
    let mut buf = vec![0u8; data.len()];
    m.read(0x1234, &mut buf).expect("in range");
    assert_eq!(buf, data);
    // Rebooting rolls the keys: retained ciphertext becomes garbage.
    m.reboot();
    m.read(0x1234, &mut buf).expect("in range");
    assert_ne!(buf, data);
}
