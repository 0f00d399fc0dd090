//! Integration test: the DDR3 baseline attack (Bauer et al.) that the
//! paper reproduces for comparison — frequency analysis instead of litmus
//! mining, same single-block AES key search — steals disk keys from a
//! SandyBridge machine just as the DDR4 attack does from Skylake.

use coldboot::attack::{capture_dump_via_transplant, ddr3, TransplantParams};
use coldboot::dump::MemoryDump;
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_repro::test_support::fill_mostly_zero;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::volume::MasterKeys;
use coldboot_veracrypt::{MountedVolume, Volume};

fn geometry() -> DramGeometry {
    DramGeometry {
        channels: 2,
        ranks: 1,
        bank_groups: 1,
        banks_per_group: 4,
        rows: 32,
        blocks_per_row: 64,
    }
}

const SECRET: &[u8] = b"DDR3 never stood a chance";

#[test]
fn ddr3_frequency_attack_recovers_disk_keys() {
    let volume = Volume::create(b"pw", SECRET, &mut SplitMix64::new(3));
    let mut victim = Machine::new(
        Microarchitecture::SandyBridge,
        geometry(),
        BiosConfig::default(),
        1,
    );
    let size = victim.capacity() as usize;
    victim
        .insert_module(DramModule::with_quality(size, 5, 0.35))
        .expect("fresh socket");
    fill_mostly_zero(&mut victim, 4).expect("module present");
    MountedVolume::mount(&mut victim, &volume, b"pw", 0x2_0030).expect("mountable");

    // Same-generation attacker, scrambler enabled, frozen transplant.
    let mut attacker = Machine::new(
        Microarchitecture::SandyBridge,
        geometry(),
        BiosConfig::default(),
        2,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams::paper_demo(),
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");

    let report = ddr3::run_ddr3_attack(&dump, &ddr3::Ddr3AttackConfig::default());
    // Only 16 keys per channel: the candidate pool is tiny compared to the
    // DDR4 attack's thousands.
    assert!(report.candidates.len() <= 48);

    let mut recovered = report.outcome.recovered.clone();
    recovered.sort_by_key(|r| r.schedule_addr);
    let pair = recovered
        .windows(2)
        .find(|w| w[1].schedule_addr == w[0].schedule_addr + 240)
        .expect("XTS pair not recovered from DDR3 dump");
    let keys = MasterKeys {
        data_key: pair[0].master_key.clone().try_into().expect("32 bytes"),
        tweak_key: pair[1].master_key.clone().try_into().expect("32 bytes"),
    };
    let plaintext = volume.decrypt_all(&keys).expect("keys decrypt");
    assert_eq!(&plaintext[..SECRET.len()], SECRET);
}

#[test]
fn frequency_analysis_fails_on_ddr4_key_pool() {
    // The paper's motivation for the litmus test: 4096 keys per channel
    // starve each key of observations, so a frequency cutoff that works on
    // DDR3 no longer yields a usable pool within the same budget.
    let geometry = DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    };
    let mut machine = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        9,
    );
    let size = machine.capacity() as usize;
    machine
        .insert_module(DramModule::new(size, 1))
        .expect("fresh socket");
    fill_mostly_zero(&mut machine, 5).expect("module present");
    let raw = MemoryDump::new(machine.peek_raw(0, size).expect("module present"), 0);
    let top = ddr3::frequency_keys(&raw, 48);
    // 48 candidates cover at most 48/4096 of the key pool — under 2%.
    let covered = (0..size as u64)
        .step_by(64)
        .filter(|&addr| {
            let k = machine.transform().keystream(addr);
            top.iter().any(|c| c.key == k)
        })
        .count();
    let fraction = covered as f64 / (size / 64) as f64;
    assert!(
        fraction < 0.05,
        "frequency analysis unexpectedly effective on DDR4: {fraction}"
    );
}
