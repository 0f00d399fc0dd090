//! Regenerates the paper's **§III-D retention measurements**: fraction of
//! charge retained by unpowered modules across a temperature × time sweep,
//! for seven simulated modules (five DDR3-era, two DDR4-era) with
//! manufacturing spread — including one DDR3 module that leaks faster than
//! the newer DDR4 parts, as the paper observed.

use coldboot_bench::table;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::{retention, DecayModel};
use coldboot_dram::transplant::Transplant;

struct TestedModule {
    name: &'static str,
    quality: f64,
}

const MODULES: [TestedModule; 7] = [
    TestedModule {
        name: "DDR3-A",
        quality: 1.1,
    },
    TestedModule {
        name: "DDR3-B",
        quality: 0.9,
    },
    TestedModule {
        name: "DDR3-C",
        quality: 1.3,
    },
    TestedModule {
        name: "DDR3-D (leaky)",
        quality: 4.0,
    },
    TestedModule {
        name: "DDR3-E",
        quality: 1.0,
    },
    TestedModule {
        name: "DDR4-A",
        quality: 0.8,
    },
    TestedModule {
        name: "DDR4-B",
        quality: 1.0,
    },
];

const SIZE: usize = 1 << 18; // 256 KiB sample per measurement

fn measure(quality: f64, serial: u64, celsius: f64, seconds: f64) -> f64 {
    let mut module = DramModule::with_quality(SIZE, serial, quality);
    let pattern: Vec<u8> = (0..SIZE).map(|i| (i as u8).wrapping_mul(31)).collect();
    module.write(0, &pattern);
    let module = Transplant::begin(module)
        .freeze_to(celsius)
        .unplug()
        .wait_seconds(seconds)
        .resocket();
    retention(&pattern, module.contents())
}

fn main() {
    let model = DecayModel::paper_calibrated();
    println!(
        "Decay model: lambda(T) = {} * exp({} * T_celsius) per charged bit per second",
        model.lambda0_per_sec, model.temp_coeff
    );

    // Analytic sweep (model-level): retention of charged cells.
    let temps = [20.0, 0.0, -25.0, -50.0];
    let times = [1.0, 3.0, 5.0, 10.0, 30.0, 60.0];
    let mut rows = Vec::new();
    for &t in &temps {
        let mut row = vec![format!("{t:>5.0} C")];
        for &s in &times {
            row.push(format!(
                "{:.1}%",
                100.0 * model.retention_fraction(t, s, 1.0)
            ));
        }
        rows.push(row);
    }
    table::print(
        "Charge retention of a nominal module (analytic)",
        &["temp", "1s", "3s", "5s", "10s", "30s", "60s"],
        &rows,
    );

    // Per-module simulated transfer at the paper's demo conditions.
    let mut rows = Vec::new();
    for (i, m) in MODULES.iter().enumerate() {
        let frozen = measure(m.quality, i as u64 + 1, -25.0, 5.0);
        let warm = measure(m.quality, i as u64 + 100, 20.0, 3.0);
        rows.push(vec![
            m.name.to_string(),
            format!("{:.2}", m.quality),
            format!("{:.2}%", 100.0 * frozen),
            format!("{:.2}%", 100.0 * warm),
        ]);
    }
    table::print(
        "Per-module bit retention (simulated transplant; includes bits already at ground)",
        &["module", "leak factor", "-25C / 5s", "+20C / 3s"],
        &rows,
    );

    println!(
        "\nPaper reference points: (i) at operating temperature a significant \
         fraction of data is lost within 3 seconds; (ii) super-cooled to \
         ~-25C, modules retain 90-99% of their charges over a ~5 second \
         transfer; (iii) one DDR3 module leaked faster than the DDR4 parts."
    );
}
