//! Ablation: attack success vs transfer decay (§III-C "Tolerating Data
//! Loss" + §III-D). The paper reports modules retaining 90–99 % of their
//! charge at −25 °C; this sweep shows where in that band the attack's
//! decay tolerance gives out, and how much freezing matters.
//!
//! Usage: `decay_sweep [--deep]` — `--deep` additionally re-runs each
//! scenario with `SearchConfig::deep()` (~10× slower), which extends the
//! envelope through the middle of the retention band.

use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot_bench::machines::micro_geometry;
use coldboot_bench::table;
use coldboot_bench::workload::{fill_realistic, WorkloadMix};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::{bit_errors, DecayModel};
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::{MountedVolume, Volume};

struct Scenario {
    label: &'static str,
    freeze_c: f64,
    transfer_s: f64,
    quality: f64,
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        label: "-50C, 5s, nominal module",
        freeze_c: -50.0,
        transfer_s: 5.0,
        quality: 1.0,
    },
    Scenario {
        label: "-25C, 5s, retentive module",
        freeze_c: -25.0,
        transfer_s: 5.0,
        quality: 0.35,
    },
    Scenario {
        label: "-25C, 5s, nominal module",
        freeze_c: -25.0,
        transfer_s: 5.0,
        quality: 1.0,
    },
    Scenario {
        label: "-25C, 15s, retentive module",
        freeze_c: -25.0,
        transfer_s: 15.0,
        quality: 0.35,
    },
    Scenario {
        label: "-25C, 5s, leaky module",
        freeze_c: -25.0,
        transfer_s: 5.0,
        quality: 4.0,
    },
    Scenario {
        label: "+20C, 3s (no freezing)",
        freeze_c: 20.0,
        transfer_s: 3.0,
        quality: 1.0,
    },
];

fn run_scenario(s: &Scenario, seed: u64, deep: bool) -> (f64, usize, usize) {
    let geometry = micro_geometry();
    let volume = Volume::create(b"pw", b"sweep secret", &mut SplitMix64::new(seed));
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        seed,
    );
    let size = victim.capacity() as usize;
    victim
        .insert_module(DramModule::with_quality(size, seed, s.quality))
        .expect("fresh socket");
    fill_realistic(&mut victim, WorkloadMix::mostly_idle(), seed).expect("module present");
    MountedVolume::mount(&mut victim, &volume, b"pw", 0x4_0040).expect("mountable");
    let pristine = victim.module().expect("socketed").contents().to_vec();

    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        seed + 500,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams {
            freeze_celsius: s.freeze_c,
            transfer_seconds: s.transfer_s,
        },
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");
    let errs = bit_errors(&pristine, attacker.module().expect("socketed").contents());
    let error_rate = errs as f64 / (pristine.len() as f64 * 8.0);

    let config = AttackConfig {
        search: if deep {
            coldboot::keysearch::SearchConfig::deep()
        } else {
            Default::default()
        },
        ..Default::default()
    };
    let report = run_ddr4_attack(&dump, &config);
    (
        error_rate,
        report.candidates.len(),
        report.outcome.recovered.len(),
    )
}

fn main() {
    let deep = std::env::args().any(|a| a == "--deep");
    let mut rows = Vec::new();
    for (i, s) in SCENARIOS.iter().enumerate() {
        let (error_rate, candidates, recovered) = run_scenario(s, 100 + i as u64, false);
        let mut row = vec![
            s.label.to_string(),
            format!("{:.3}%", 100.0 * error_rate),
            candidates.to_string(),
            recovered.to_string(),
            if recovered >= 2 { "SUCCESS" } else { "failed" }.to_string(),
        ];
        if deep {
            let (_, _, deep_recovered) = run_scenario(s, 100 + i as u64, true);
            row.push(
                if deep_recovered >= 2 {
                    "SUCCESS"
                } else {
                    "failed"
                }
                .to_string(),
            );
        }
        rows.push(row);
    }
    let mut headers = vec![
        "scenario",
        "bit error rate",
        "mined keys",
        "recovered",
        "outcome",
    ];
    if deep {
        headers.push("deep outcome");
    }
    table::print(
        "Attack success vs transfer decay (target: both XTS schedules)",
        &headers,
        &rows,
    );
    println!(
        "\nShape: key mining survives everywhere the DIMM was frozen \
         (majority voting repairs decayed keys). The default AES search \
         needs a litmus hit in one 48-byte window, then corrects the \
         schedule's decayed words from its redundancy during verification: \
         both schedules come back through ~1.5% bit error after a 5 s \
         transfer. SearchConfig::deep() (--deep) widens the litmus \
         tolerance and also covers the 15 s transfer at several times the \
         scan cost. Without freezing, nothing survives."
    );
}
