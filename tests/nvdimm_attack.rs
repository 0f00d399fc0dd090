//! Integration test: the paper's NVDIMM warning (§IV) — "the attacker
//! would not even need to cool down the modules before transferring data
//! to a separate machine". Against a non-volatile DIMM, a warm, slow,
//! sloppy transplant steals the keys that destroy a DRAM-based attempt
//! under the same conditions.

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_memenc::controller::encrypted_machine;
use coldboot_memenc::engine::EngineKind;
use coldboot_repro::test_support::fill_mostly_zero;
use coldboot_scrambler::controller::{BiosConfig, Machine};
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

/// A lazy attacker: room temperature, a full minute between machines.
fn lazy_transplant() -> TransplantParams {
    TransplantParams {
        freeze_celsius: 20.0,
        transfer_seconds: 60.0,
    }
}

fn prepared_victim(module: DramModule, machine_id: u64) -> Machine {
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        machine_id,
    );
    victim.insert_module(module).expect("fresh socket");
    fill_mostly_zero(&mut victim, machine_id).expect("module present");
    let volume = Volume::create(b"pw", b"nvdimm secret", &mut SplitMix64::new(machine_id));
    MountedVolume::mount(&mut victim, &volume, b"pw", 0x9_0070).expect("mountable");
    victim
}

#[test]
fn warm_attack_fails_on_dram_but_succeeds_on_nvdimm() {
    let size = DramGeometry::capacity_bytes(&geometry()) as usize;

    // DRAM victim, lazy transplant: everything decays away.
    let mut dram_victim = prepared_victim(DramModule::new(size, 1), 1);
    let mut attacker1 = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        101,
    );
    let dump = capture_dump_via_transplant(
        &mut dram_victim,
        &mut attacker1,
        lazy_transplant(),
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");
    let dram_report = run_ddr4_attack(&dump, &AttackConfig::default());
    assert!(
        dram_report.outcome.recovered.is_empty(),
        "a warm 60s transfer should destroy DRAM contents"
    );

    // NVDIMM victim, same lazy transplant: full recovery.
    let mut nvdimm_victim = prepared_victim(DramModule::nvdimm(size, 2), 2);
    let mut attacker2 = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        102,
    );
    let dump = capture_dump_via_transplant(
        &mut nvdimm_victim,
        &mut attacker2,
        lazy_transplant(),
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");
    let nvdimm_report = run_ddr4_attack(&dump, &AttackConfig::default());
    assert!(
        nvdimm_report.outcome.recovered.len() >= 2,
        "NVDIMM attack should recover both XTS schedules, got {}",
        nvdimm_report.outcome.recovered.len()
    );
    // And every recovery is pristine: zero decayed bits.
    for rec in &nvdimm_report.outcome.recovered {
        assert_eq!(rec.total_error_bits, 0);
    }
}

#[test]
fn encryption_protects_nvdimms_too() {
    // §IV's conclusion: "strong full memory encryption is going to be even
    // more crucial on such systems."
    let size = DramGeometry::capacity_bytes(&geometry()) as usize;
    let mut victim = encrypted_machine(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        3,
        EngineKind::ChaCha8,
    );
    victim
        .insert_module(DramModule::nvdimm(size, 3))
        .expect("fresh socket");
    fill_mostly_zero(&mut victim, 3).expect("module present");
    let volume = Volume::create(b"pw", b"nvdimm secret", &mut SplitMix64::new(3));
    MountedVolume::mount(&mut victim, &volume, b"pw", 0x9_0070).expect("mountable");

    let mut attacker = encrypted_machine(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        103,
        EngineKind::ChaCha8,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        lazy_transplant(),
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");
    let report = run_ddr4_attack(&dump, &AttackConfig::default());
    assert!(report.candidates.is_empty());
    assert!(report.outcome.recovered.is_empty());
}
