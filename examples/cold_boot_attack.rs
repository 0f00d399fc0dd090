//! The paper's headline demonstration as a library-usage example: steal a
//! VeraCrypt-style disk key from a locked, scrambled DDR4 machine.
//!
//! Run with: `cargo run --release --example cold_boot_attack`
//!
//! With `--dump-file PATH` the captured image is first written to a CBDF
//! container on disk and the attack then runs from the file in bounded
//! windows (`coldboot_dumpio`) instead of over the in-memory dump — the
//! realistic workflow, where capture and analysis are separate steps and
//! the image may be larger than RAM. The two paths recover identical keys.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, AttackReport, TransplantParams,
};
use coldboot::dump::MemoryDump;
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dumpio::format::DumpMeta;
use coldboot_dumpio::pipeline::{attack_file, ScanControl, DEFAULT_WINDOW_BLOCKS};
use coldboot_dumpio::reader::DumpReader;
use coldboot_dumpio::writer::write_image;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::volume::MasterKeys;
use coldboot_veracrypt::{MountedVolume, Volume};

/// Writes the dump to `path` as CBDF, then attacks it from the file in
/// bounded windows. Byte-identical to `run_ddr4_attack` on the dump.
fn attack_via_dump_file(dump: &MemoryDump, path: &str, config: &AttackConfig) -> AttackReport {
    let meta = DumpMeta {
        capture_temp_c: -25.0, // paper_demo transplant conditions
        transfer_seconds: 5.0,
        ..DumpMeta::for_image(dump.base_addr(), dump.len() as u64)
    };
    let out = File::create(path).expect("create dump file");
    write_image(BufWriter::new(out), meta, dump.bytes()).expect("write CBDF");
    let file = File::open(path).expect("reopen dump file");
    let mut reader = DumpReader::new(BufReader::new(file)).expect("CBDF header");
    println!(
        "dump written to {path} ({} KiB CBDF); attacking from file",
        std::fs::metadata(path).map(|m| m.len() >> 10).unwrap_or(0)
    );
    attack_file(
        &mut reader,
        config,
        DEFAULT_WINDOW_BLOCKS,
        &ScanControl::new(),
    )
    .expect("file-backed attack")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dump_file = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--dump-file" => match args.next() {
                Some(path) => dump_file = Some(path),
                None => {
                    eprintln!("--dump-file needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}\nusage: cold_boot_attack [--dump-file PATH]");
                std::process::exit(2);
            }
        }
    }

    let geometry = DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    };

    // The victim: a locked machine with a mounted encrypted volume. The
    // expanded XTS key schedules sit in scrambled DRAM.
    let secret = b"medical records, client ledgers, signing keys";
    let volume = Volume::create(b"a very strong password", secret, &mut SplitMix64::new(9));
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
    victim.fill(0).expect("module present"); // idle machine: mostly zeroed RAM
    MountedVolume::mount(&mut victim, &volume, b"a very strong password", 0x8_0070)
        .expect("password is correct");
    println!("victim ready: volume mounted, key schedules in scrambled DRAM");

    // The attack: freeze, pull, carry for five seconds, dump on our own
    // machine (same CPU generation; our scrambler stays on).
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        2,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams::paper_demo(), // -25C, 5 seconds
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");
    println!(
        "DIMM frozen, transplanted, dumped: {} KiB",
        dump.len() >> 10
    );

    // Mine scrambler keys, search for AES schedules, recover master keys —
    // from the CBDF file if asked, in memory otherwise.
    let config = AttackConfig::default();
    let report = match &dump_file {
        Some(path) => attack_via_dump_file(&dump, path, &config),
        None => run_ddr4_attack(&dump, &config),
    };
    println!(
        "mined {} candidate scrambler keys; {} AES schedules recovered",
        report.candidates.len(),
        report.outcome.recovered.len()
    );

    // Two adjacent AES-256 schedules = the XTS data + tweak keys.
    let mut recovered = report.outcome.recovered.clone();
    recovered.sort_by_key(|r| r.schedule_addr);
    let pair = recovered
        .windows(2)
        .find(|w| w[1].schedule_addr == w[0].schedule_addr + 240)
        .expect("attack failed to find the XTS key table");
    let keys = MasterKeys {
        data_key: pair[0].master_key.clone().try_into().expect("32 bytes"),
        tweak_key: pair[1].master_key.clone().try_into().expect("32 bytes"),
    };
    let plaintext = volume
        .decrypt_all(&keys)
        .expect("master keys decrypt the volume");
    assert_eq!(&plaintext[..secret.len()], secret);
    println!(
        "volume decrypted WITHOUT the password: {:?}",
        String::from_utf8_lossy(&plaintext[..secret.len()])
    );
}
