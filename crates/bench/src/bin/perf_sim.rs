//! Workload-level validation of "zero performance overhead": drive address
//! streams through the open-page DRAM timing model with each cipher engine
//! racing the column access, and compare average read latency against the
//! scrambler baseline.

use coldboot_bench::table;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::{AddressMapping, Microarchitecture};
use coldboot_dram::timing::TimingParams;
use coldboot_memenc::engine::{CipherEngineSpec, EngineKind};
use coldboot_memenc::simulation::{AccessPattern, ReadSimulator};

const ACCESSES: usize = 100_000;

fn run(
    engine: Option<EngineKind>,
    pattern: AccessPattern,
) -> coldboot_memenc::simulation::SimResult {
    let geometry = DramGeometry::ddr4_dual_channel_8gib();
    let mapping = AddressMapping::new(Microarchitecture::Skylake, geometry);
    let mut sim = ReadSimulator::new(
        mapping,
        TimingParams::ddr4_fastest(),
        engine.map(CipherEngineSpec::for_kind),
    );
    sim.run(&geometry, pattern, ACCESSES, 42)
}

fn main() {
    let patterns = [
        ("sequential", AccessPattern::Sequential),
        ("random", AccessPattern::Random),
        ("strided(17)", AccessPattern::Strided { stride_blocks: 17 }),
    ];
    let mut rows = Vec::new();
    for (pname, pattern) in patterns {
        let base = run(None, pattern);
        rows.push(vec![
            pname.to_string(),
            "scrambler (baseline)".to_string(),
            format!("{:.1}%", 100.0 * base.row_hit_rate),
            format!("{:.2}", base.avg_read_latency_ns),
            "-".to_string(),
        ]);
        for kind in EngineKind::ALL {
            let enc = run(Some(kind), pattern);
            rows.push(vec![
                pname.to_string(),
                kind.name().to_string(),
                format!("{:.1}%", 100.0 * enc.row_hit_rate),
                format!("{:.2}", enc.avg_read_latency_ns),
                format!("{:+.2}%", enc.overhead_pct(&base)),
            ]);
        }
    }
    table::print(
        &format!("Average read latency over {ACCESSES} accesses (fastest JEDEC DDR4, CL 12.5 ns)"),
        &[
            "pattern",
            "interface",
            "row hits",
            "avg latency ns",
            "overhead",
        ],
        &rows,
    );
    println!(
        "\nKey Idea 2 at workload level: AES-128/256 and ChaCha8 add exactly \
         0.00% on every pattern; ChaCha12/20 pay their pipeline difference on \
         each read."
    );
}
