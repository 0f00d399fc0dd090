//! Recall and precision of the default attack at the paper's operating
//! point (§III-C): a VeraCrypt XTS volume mounted on a Skylake machine, the
//! DIMM frozen to −25 °C and moved in 5 s (`TransplantParams::paper_demo`,
//! about 0.5 % bit error on the retentive module), dumped through an
//! enabled scrambler and attacked with the default `AttackConfig`.
//!
//! The scenario is `crates/dumpio/tests/streamed_identity.rs`'s, drawn at
//! volume seeds 1–32. Each seed must yield both XTS master keys at the key
//! table, and no recovered key anywhere else. The check reads the
//! deduplicated outcome (`SearchOutcome::recovered`), not
//! `StreamSearcher::finish_partial`: partials are the pre-dedup
//! verification record a shard hands the merge, and they hold the
//! schedules shifted by whole round-key pairs by design, which only the
//! overlap dedup resolves.
//!
//! Runtime: about 2.2 s per seed in the test profile on a 2-vCPU host,
//! about 70 s for the test.

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::{MountedVolume, Volume};

const PASSWORD: &[u8] = b"a very strong password";
const SECRET: &[u8] = b"medical records, client ledgers, signing keys";
/// Where the mounted volume's two expanded AES-256 schedules start: the
/// data key's, then the tweak key's 240 bytes later.
const KEY_TABLE_ADDR: u64 = 0x8_0070;
/// Volume seeds checked.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=32;

#[test]
fn default_attack_recovers_both_xts_keys_and_nothing_else_at_the_paper_point() {
    let geometry = DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    };
    let mut missed = Vec::new();
    let mut stray = Vec::new();
    for seed in SEEDS {
        let volume = Volume::create(PASSWORD, SECRET, &mut SplitMix64::new(seed));
        let keys = volume.unlock(PASSWORD).expect("correct password");
        let mut victim = Machine::new(
            Microarchitecture::Skylake,
            geometry,
            BiosConfig::default(),
            1,
        );
        let capacity = victim.capacity() as usize;
        victim
            .insert_module(DramModule::with_quality(capacity, 7, 0.35))
            .expect("fresh socket");
        victim.fill(0).expect("module present");
        MountedVolume::mount(&mut victim, &volume, PASSWORD, KEY_TABLE_ADDR)
            .expect("correct password");
        let mut attacker = Machine::new(
            Microarchitecture::Skylake,
            geometry,
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

        let recovered = run_ddr4_attack(&dump, &AttackConfig::default())
            .outcome
            .recovered;
        let expected: [(u64, &[u8]); 2] = [
            (KEY_TABLE_ADDR, &keys.data_key),
            (KEY_TABLE_ADDR + 240, &keys.tweak_key),
        ];
        for (addr, key) in expected {
            if !recovered
                .iter()
                .any(|r| r.schedule_addr == addr && r.master_key == key)
            {
                missed.push((seed, addr));
            }
        }
        for r in &recovered {
            if !expected
                .iter()
                .any(|&(addr, key)| r.schedule_addr == addr && r.master_key == key)
            {
                stray.push((seed, r.schedule_addr));
            }
        }
    }
    // Seeds and addresses only, never key bytes.
    let at = |v: &[(u64, u64)]| -> Vec<String> {
        v.iter()
            .map(|(seed, addr)| format!("seed {seed} @ {addr:#x}"))
            .collect()
    };
    assert!(
        missed.is_empty() && stray.is_empty(),
        "over seeds {SEEDS:?}: XTS keys missed: {:?}; other keys recovered: {:?}",
        at(&missed),
        at(&stray)
    );
}
