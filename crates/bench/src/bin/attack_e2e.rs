//! Regenerates the paper's **§III-C demonstration**: recovering
//! VeraCrypt/TrueCrypt AES-XTS master keys from a frozen, transplanted,
//! scrambled DDR4 DIMM — end to end.
//!
//! Stages (exactly the paper's):
//!  1. victim Skylake machine, realistic memory load, volume mounted
//!     (expanded XTS schedules cached in DRAM);
//!  2. DIMM sprayed to −25 °C, pulled, carried for 5 s (bits decay),
//!     seated in the attacker's same-generation machine — whose own
//!     scrambler stays ON;
//!  3. dump; mine scrambler keys from a ≤16 MB prefix via the litmus test;
//!  4. single-block AES key search over all (block × candidate) pairs;
//!  5. master-key recovery and full volume decryption.
//!
//! Usage: `attack_e2e [--micro]` (`--micro` = 1 MiB memory for a quick
//! run; default is the 16 MiB medium machine).

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot::keysearch::SearchConfig;
use coldboot_bench::machines::{medium_geometry, micro_geometry};
use coldboot_bench::workload::{fill_realistic, WorkloadMix};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::{bit_errors, DecayModel};
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::volume::MasterKeys;
use coldboot_veracrypt::{MountedVolume, Volume};
use std::time::Instant;

const PASSWORD: &[u8] = b"correct horse battery staple";
const SECRET: &[u8] = b"ATTACK AT DAWN. Wire transfer codes: 8832-1194-7718. Burn after reading.";
const KEY_TABLE_ADDR: u64 = 0xB_0050; // arbitrary, not 16-byte aligned

fn main() {
    let micro = std::env::args().any(|a| a == "--micro");
    let (geometry, mix) = if micro {
        (micro_geometry(), WorkloadMix::mostly_idle())
    } else {
        (medium_geometry(), WorkloadMix::default())
    };
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    println!("== Stage 0: the victim ==");
    let volume = Volume::create(PASSWORD, SECRET, &mut SplitMix64::new(2024));
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        1,
    );
    let size = victim.capacity() as usize;
    // A module at the retentive end of the paper's observed 90-99% charge
    // retention range (the demonstrated attack implies such a module: a 3%
    // charge loss leaves almost no clean 32-byte expansion window, while a
    // ~1% loss leaves several per schedule).
    victim
        .insert_module(DramModule::with_quality(size, 42, 0.35))
        .unwrap();
    fill_realistic(&mut victim, mix, 7).unwrap();
    let _mounted = MountedVolume::mount(&mut victim, &volume, PASSWORD, KEY_TABLE_ADDR).unwrap();
    println!(
        "   {} MiB DDR4, scrambler: {}, volume mounted, key table at {:#x}",
        size >> 20,
        victim.transform_name(),
        KEY_TABLE_ADDR
    );

    println!("== Stage 1: freeze to -25C, pull, carry 5s, re-socket ==");
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        2,
    );
    let t = Instant::now();
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams::paper_demo(),
        DecayModel::paper_calibrated(),
    )
    .unwrap();
    println!(
        "   dumped {} MiB through the attacker's ENABLED scrambler ({:.2?})",
        dump.len() >> 20,
        t.elapsed()
    );
    {
        // Measure what the transfer actually cost (attacker could not know
        // this; reported for the experiment record).
        let mut pristine = Machine::new(
            Microarchitecture::Skylake,
            geometry,
            BiosConfig::default(),
            1,
        );
        pristine
            .insert_module(DramModule::with_quality(size, 42, 0.35))
            .unwrap();
        fill_realistic(&mut pristine, mix, 7).unwrap();
        MountedVolume::mount(&mut pristine, &volume, PASSWORD, KEY_TABLE_ADDR).unwrap();
        let before = pristine.module().unwrap().contents().to_vec();
        let after = attacker.module().unwrap().contents();
        let errs = bit_errors(&before, after);
        println!(
            "   transfer decay: {} bit flips ({:.3}% of all bits)",
            errs,
            100.0 * errs as f64 / (before.len() as f64 * 8.0)
        );
    }

    println!("== Stage 2+3: mine scrambler keys, search for AES schedules ==");
    let config = AttackConfig {
        search: SearchConfig {
            threads,
            ..Default::default()
        },
        ..Default::default()
    };
    let t = Instant::now();
    let report = run_ddr4_attack(&dump, &config);
    let elapsed = t.elapsed();
    println!(
        "   mined {} candidate keys from {} MiB prefix",
        report.candidates.len(),
        report.mined_bytes >> 20
    );
    println!(
        "   scanned {} blocks with {} threads in {:.2?} ({:.2} MiB/s): {} litmus hits, {} verified keys",
        report.outcome.blocks_scanned,
        threads,
        elapsed,
        (report.outcome.blocks_scanned as f64 * 64.0 / (1 << 20) as f64) / elapsed.as_secs_f64(),
        report.outcome.hits.len(),
        report.outcome.recovered.len(),
    );
    for rec in &report.outcome.recovered {
        println!(
            "   recovered {:?} schedule at {:#x} ({} decayed bits absorbed)",
            rec.key_size, rec.schedule_addr, rec.total_error_bits
        );
    }

    println!("== Stage 4: reassemble the XTS master keys, decrypt the volume ==");
    let mut keys: Vec<&coldboot::keysearch::RecoveredAesKey> =
        report.outcome.recovered.iter().collect();
    keys.sort_by_key(|r| r.schedule_addr);
    let pair = keys
        .windows(2)
        .find(|w| w[1].schedule_addr == w[0].schedule_addr + 240)
        .expect("no adjacent schedule pair found — attack failed");
    let master = MasterKeys {
        data_key: pair[0].master_key.clone().try_into().expect("32-byte key"),
        tweak_key: pair[1].master_key.clone().try_into().expect("32-byte key"),
    };
    let plaintext = volume.decrypt_all(&master).expect("decryption failed");
    assert_eq!(
        &plaintext[..SECRET.len()],
        SECRET,
        "recovered keys are wrong"
    );
    println!("   decrypted volume WITHOUT the password:");
    println!(
        "   >>> {}",
        String::from_utf8_lossy(&plaintext[..SECRET.len()])
    );
    println!("\nCold boot attack on scrambled DDR4: SUCCESS");
}
