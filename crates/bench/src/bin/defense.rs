//! Regenerates the paper's **§IV validation**: the same cold boot attack
//! that defeats the Skylake scrambler finds *nothing* when the scrambler is
//! replaced by a strong counter-mode cipher engine — at zero exposed read
//! latency.

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot::stats::obfuscation_report;
use coldboot_bench::machines::micro_geometry;
use coldboot_bench::table;
use coldboot_bench::workload::{fill_realistic, WorkloadMix};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dram::timing::jedec_ddr4_cas_latencies_ns;
use coldboot_memenc::controller::{encrypted_machine, EncryptedBus};
use coldboot_memenc::engine::EngineKind;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::{MountedVolume, Volume};

const KEY_TABLE_ADDR: u64 = 0x7_0040;

fn prepare_victim(mut victim: Machine, volume: &Volume) -> Machine {
    let size = victim.capacity() as usize;
    victim.insert_module(DramModule::new(size, 50)).unwrap();
    // Mostly-idle mix: on this deliberately small (1 MiB) memory each of
    // the 4096 key ids covers only 4 blocks, so a high zero fraction is
    // needed for every id to expose its key; at realistic memory sizes
    // (see attack_e2e) each id covers 64+ blocks and the default mix works.
    fill_realistic(&mut victim, WorkloadMix::mostly_idle(), 99).unwrap();
    MountedVolume::mount(&mut victim, volume, b"pw", KEY_TABLE_ADDR).unwrap();
    victim
}

fn attack(mut victim: Machine, attacker: &mut Machine) -> (usize, usize, f64) {
    let dump = capture_dump_via_transplant(
        &mut victim,
        attacker,
        TransplantParams::paper_demo(),
        DecayModel::lossless(), // isolate the cryptographic question
    )
    .unwrap();
    let config = AttackConfig {
        search: coldboot::keysearch::SearchConfig {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            ..Default::default()
        },
        ..Default::default()
    };
    let report = run_ddr4_attack(&dump, &config);
    let entropy = obfuscation_report(&dump).entropy_bits;
    (
        report.candidates.len(),
        report.outcome.recovered.len(),
        entropy,
    )
}

fn main() {
    let volume = Volume::create(
        b"pw",
        b"the same secret on both machines",
        &mut SplitMix64::new(5),
    );
    let geometry = micro_geometry();

    // Baseline: stock Skylake scrambler — the attack succeeds.
    let victim = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        1,
    );
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        2,
    );
    let (cand_s, rec_s, ent_s) = attack(prepare_victim(victim, &volume), &mut attacker);

    // Defense: ChaCha8 engine in place of the scrambler.
    let victim = encrypted_machine(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        3,
        EngineKind::ChaCha8,
    );
    let mut attacker2 = encrypted_machine(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        4,
        EngineKind::ChaCha8,
    );
    let (cand_e, rec_e, ent_e) = attack(prepare_victim(victim, &volume), &mut attacker2);

    table::print(
        "Section IV: the identical attack vs scrambler and vs strong cipher",
        &[
            "memory interface",
            "mined candidate keys",
            "recovered AES keys",
            "dump entropy bits/byte",
        ],
        &[
            vec![
                "DDR4 scrambler (Skylake)".into(),
                cand_s.to_string(),
                rec_s.to_string(),
                format!("{ent_s:.3}"),
            ],
            vec![
                "ChaCha8 engine".into(),
                cand_e.to_string(),
                rec_e.to_string(),
                format!("{ent_e:.3}"),
            ],
        ],
    );
    assert!(rec_s > 0, "baseline attack unexpectedly failed");
    assert_eq!(rec_e, 0, "attack must fail against strong encryption");

    // And the defense is free: exposed read latency at every JEDEC CAS bin.
    let bus = EncryptedBus::new(EngineKind::ChaCha8, 7);
    let rows: Vec<Vec<String>> = jedec_ddr4_cas_latencies_ns()
        .iter()
        .map(|&cl| {
            vec![
                format!("{cl:.2}"),
                format!("{:.2}", bus.exposed_read_latency_ns(cl)),
            ]
        })
        .collect();
    table::print(
        "ChaCha8 exposed read latency per JEDEC DDR4 CAS bin (ns)",
        &["CAS latency", "exposed latency"],
        &rows,
    );
    println!(
        "\nKey Idea 2 reproduced: the attack that recovers disk keys from \
         scrambled DDR4 finds zero scrambler keys and zero AES schedules \
         under ChaCha8, whose keystream completes before the fastest \
         possible DDR4 column access."
    );
}
