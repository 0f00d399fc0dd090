//! Regenerates the paper's **Figure 3** — the visual comparison of DDR3 and
//! DDR4 scrambling — as both PGM images and quantitative correlation
//! metrics.
//!
//! Panels:
//! (a) the original image in plaintext memory;
//! (b) raw DDR3-scrambled cells (ghosts visible: 16 keys/channel);
//! (c) DDR3 data read back after a reboot (universal-key collapse: the
//!     picture reappears, XORed with one constant block);
//! (d) raw DDR4-scrambled cells (256× fewer collisions);
//! (e) DDR4 data read back after a reboot (no collapse: still noise).
//!
//! Usage: `figure3 [output-dir]` (default `figure3_out/`).

use coldboot::dump::MemoryDump;
use coldboot::stats::{self, obfuscation_report};
use coldboot_bench::machines::micro_geometry;
use coldboot_bench::table;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use std::fs;
use std::path::Path;

const WIDTH: usize = 1024;
const HEIGHT: usize = 1024;

/// Draws a synthetic "photo": large flat regions + stripes, one byte per
/// pixel, so repeated 64-byte blocks abound (as in the paper's test image).
fn synthetic_image() -> Vec<u8> {
    let mut img = vec![0u8; WIDTH * HEIGHT];
    for y in 0..HEIGHT {
        for x in 0..WIDTH {
            let dx = x as f64 - 512.0;
            let dy = y as f64 - 512.0;
            let r = (dx * dx + dy * dy).sqrt();
            img[y * WIDTH + x] = if r < 200.0 {
                0xF0 // bright disc
            } else if r < 280.0 {
                0x20 // dark ring
            } else if (x / 64) % 2 == 0 {
                0x90 // vertical stripes
            } else {
                0x50
            };
        }
    }
    img
}

fn write_pgm(path: &Path, data: &[u8]) {
    let mut out = format!("P5\n{WIDTH} {HEIGHT}\n255\n").into_bytes();
    out.extend_from_slice(&data[..WIDTH * HEIGHT]);
    fs::write(path, out).expect("failed to write PGM");
}

fn machine(uarch: Microarchitecture, id: u64) -> Machine {
    let mut m = Machine::new(uarch, micro_geometry(), BiosConfig::default(), id);
    let size = m.capacity() as usize;
    m.insert_module(DramModule::new(size, id)).unwrap();
    m
}

/// Writes the image through the scrambler and returns
/// `(raw scrambled cells, view after reboot through the new descrambler)`.
fn scramble_panels(uarch: Microarchitecture, id: u64, image: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut m = machine(uarch, id);
    m.write(0, image).unwrap();
    let raw = m.peek_raw(0, image.len()).unwrap();
    m.reboot();
    let rebooted = m.dump(0, image.len()).unwrap();
    (raw, rebooted)
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "figure3_out".to_string());
    fs::create_dir_all(&out_dir).expect("cannot create output dir");
    let out = Path::new(&out_dir);

    let image = synthetic_image();
    let (ddr3_raw, ddr3_reboot) = scramble_panels(Microarchitecture::SandyBridge, 3, &image);
    let (ddr4_raw, ddr4_reboot) = scramble_panels(Microarchitecture::Skylake, 4, &image);

    let panels = [
        ("a_original", &image),
        ("b_ddr3_scrambled", &ddr3_raw),
        ("c_ddr3_after_reboot", &ddr3_reboot),
        ("d_ddr4_scrambled", &ddr4_raw),
        ("e_ddr4_after_reboot", &ddr4_reboot),
    ];
    let mut rows = Vec::new();
    for (name, data) in &panels {
        write_pgm(&out.join(format!("{name}.pgm")), data);
        let dump = MemoryDump::new(data.to_vec(), 0);
        let r = obfuscation_report(&dump);
        rows.push(vec![
            name.to_string(),
            r.blocks.to_string(),
            r.distinct_blocks.to_string(),
            format!("{:.4}", r.duplicate_fraction),
            format!("{:.3}", r.entropy_bits),
        ]);
    }
    table::print(
        "Figure 3: obfuscation metrics per panel",
        &[
            "panel",
            "blocks",
            "distinct blocks",
            "dup fraction",
            "entropy bits/byte",
        ],
        &rows,
    );

    // The collapse metric. The after-reboot view is data ^ K_old ^ K_new,
    // so XOR against the known original image isolates K_old ^ K_new.
    let ddr3_after = MemoryDump::new(ddr3_reboot.clone(), 0);
    let ddr4_after = MemoryDump::new(ddr4_reboot.clone(), 0);
    let image_dump = MemoryDump::new(image.clone(), 0);
    let ddr3_classes = stats::cross_dump_xor_classes(&ddr3_after, &image_dump);
    let ddr4_classes = stats::cross_dump_xor_classes(&ddr4_after, &image_dump);
    println!("\nCross-boot keystream classes (K_old xor K_new):");
    println!("  DDR3: {ddr3_classes} (paper: 1 universal key -> image reappears, panel c)");
    println!("  DDR4: {ddr4_classes} (paper: thousands -> still noise, panel e)");
    println!("\nPGM panels written to {out_dir}/ (view with any image tool).");
}
