//! Integration test: the paper's full §III-C attack — freeze, transplant,
//! dump through an enabled scrambler, mine keys, find schedules, recover
//! the XTS master keys, decrypt the volume.

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_repro::test_support::fill_mostly_zero;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::volume::MasterKeys;
use coldboot_veracrypt::{MountedVolume, Volume};

const SECRET: &[u8] = b"integration-test secret: the quick brown fox";
const PASSWORD: &[u8] = b"pw";
const KEY_TABLE_ADDR: u64 = 0x9_0070;

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

fn victim_with_mounted_volume(volume: &Volume) -> Machine {
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        1,
    );
    let size = victim.capacity() as usize;
    // Retentive module (99% charge retention at -25C/5s — the good end of
    // the paper's observed 90-99% range).
    victim
        .insert_module(DramModule::with_quality(size, 42, 0.35))
        .expect("fresh socket");
    fill_mostly_zero(&mut victim, 7).expect("module present");
    MountedVolume::mount(&mut victim, volume, PASSWORD, KEY_TABLE_ADDR).expect("mountable");
    victim
}

#[test]
fn full_cold_boot_attack_recovers_the_disk_keys() {
    let volume = Volume::create(PASSWORD, SECRET, &mut SplitMix64::new(1));
    let mut victim = victim_with_mounted_volume(&volume);
    let true_keys = volume.unlock(PASSWORD).expect("password is correct");

    // Transplant with realistic decay.
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
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

    let report = run_ddr4_attack(&dump, &AttackConfig::default());
    assert!(
        report.candidates.len() >= 4000,
        "mining found only {} candidates",
        report.candidates.len()
    );

    // Both schedules recovered, at the right addresses.
    let mut recovered = report.outcome.recovered.clone();
    recovered.sort_by_key(|r| r.schedule_addr);
    let pair = recovered
        .windows(2)
        .find(|w| w[1].schedule_addr == w[0].schedule_addr + 240)
        .expect("XTS schedule pair not found");
    assert_eq!(pair[0].schedule_addr, KEY_TABLE_ADDR);

    let stolen = MasterKeys {
        data_key: pair[0].master_key.clone().try_into().expect("32 bytes"),
        tweak_key: pair[1].master_key.clone().try_into().expect("32 bytes"),
    };
    assert_eq!(stolen.data_key, true_keys.data_key);
    assert_eq!(stolen.tweak_key, true_keys.tweak_key);

    // And they actually decrypt the volume without the password.
    let plaintext = volume.decrypt_all(&stolen).expect("keys decrypt");
    assert_eq!(&plaintext[..SECRET.len()], SECRET);
}

#[test]
fn clean_unmount_defeats_the_attack() {
    // §II-B: erasing keys at unmount protects — if the attacker arrives
    // afterwards.
    let volume = Volume::create(PASSWORD, SECRET, &mut SplitMix64::new(2));
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        1,
    );
    let size = victim.capacity() as usize;
    victim
        .insert_module(DramModule::with_quality(size, 43, 0.35))
        .expect("fresh socket");
    fill_mostly_zero(&mut victim, 8).expect("module present");
    let mounted =
        MountedVolume::mount(&mut victim, &volume, PASSWORD, KEY_TABLE_ADDR).expect("mountable");
    mounted.unmount(&mut victim).expect("unmount zeroizes");

    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        2,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams::paper_demo(),
        DecayModel::lossless(),
    )
    .expect("transplant");
    let report = run_ddr4_attack(&dump, &AttackConfig::default());
    assert!(
        report.outcome.recovered.is_empty(),
        "attack found keys after a clean unmount"
    );
}

#[test]
fn tresor_style_key_storage_defeats_the_attack() {
    // §II-B: register-only key storage (TRESOR / Loop-Amnesia) keeps the
    // schedules out of DRAM entirely; the identical attack finds nothing
    // even with a lossless transplant.
    use coldboot_veracrypt::mount::KeyStoragePolicy;
    let volume = Volume::create(PASSWORD, SECRET, &mut SplitMix64::new(9));
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        4,
    );
    let size = victim.capacity() as usize;
    victim
        .insert_module(DramModule::new(size, 44))
        .expect("fresh socket");
    fill_mostly_zero(&mut victim, 9).expect("module present");
    let mounted = MountedVolume::mount_with_policy(
        &mut victim,
        &volume,
        PASSWORD,
        KEY_TABLE_ADDR,
        KeyStoragePolicy::RegistersOnly,
    )
    .expect("mountable");
    // The volume is live and readable...
    let sector = mounted
        .read_sector(&mut victim, &volume, 0)
        .expect("readable");
    assert_eq!(&sector[..SECRET.len()], SECRET);

    // ...but the attack comes up empty.
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        5,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams::paper_demo(),
        DecayModel::lossless(),
    )
    .expect("transplant");
    let report = run_ddr4_attack(&dump, &AttackConfig::default());
    assert!(
        report.outcome.recovered.is_empty(),
        "register-stored keys leaked into DRAM"
    );
}
