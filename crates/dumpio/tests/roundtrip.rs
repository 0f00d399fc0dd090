//! CBDF container round-trip and corruption-rejection properties.
//!
//! Each property runs [`CASES`] seeded cases; case `i` draws its inputs
//! from `SplitMix64::new(i)`, so a failure replays from its case index.

use std::io::Cursor;

use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dumpio::format::{DumpMeta, CHUNK_HEADER_BYTES, HEADER_BYTES};
use coldboot_dumpio::module_io::{export_module, import_module};
use coldboot_dumpio::reader::DumpReader;
use coldboot_dumpio::writer::{write_image, DumpWriter};
use coldboot_dumpio::DumpError;

/// Cases per property.
const CASES: u64 = 256;

fn encode(image: &[u8], chunk_blocks: u32, base_addr: u64) -> Vec<u8> {
    let meta = DumpMeta {
        chunk_blocks,
        ..DumpMeta::for_image(base_addr, image.len() as u64)
    };
    write_image(Vec::new(), meta, image).expect("encode")
}

fn decode(file: &[u8]) -> Vec<u8> {
    let mut r = DumpReader::new(Cursor::new(file)).expect("header");
    r.read_to_memory().expect("decode").bytes().to_vec()
}

/// A block-aligned random image of 0–39 blocks.
fn random_image(rng: &mut SplitMix64) -> Vec<u8> {
    let mut image = vec![0u8; rng.range(0..40) as usize * 64];
    rng.fill(&mut image);
    image
}

/// Like [`random_image`] but 1–39 blocks of ~90% zero bytes — the shape
/// of an idle pool.
fn zero_heavy_image(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.range(1..40) as usize * 64;
    (0..len)
        .map(|_| {
            if rng.range(0..10) < 9 {
                0
            } else {
                rng.next_u64() as u8
            }
        })
        .collect()
}

#[test]
fn random_images_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let image = random_image(&mut rng);
        let chunk_blocks = rng.range(1..8) as u32;
        let file = encode(&image, chunk_blocks, 0x1_0000);
        assert_eq!(decode(&file), image, "case {case}");
    }
}

#[test]
fn zero_heavy_images_roundtrip_and_shrink() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let image = zero_heavy_image(&mut rng);
        let chunk_blocks = rng.range(1..8) as u32;
        let file = encode(&image, chunk_blocks, 0);
        assert_eq!(decode(&file), image, "case {case}");
    }
}

#[test]
fn decayed_pattern_images_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let seed = rng.next_u64();
        let chunk_blocks = rng.range(1..6) as u32;
        // A zeroed image with sparse decay flips, like a transplanted DIMM.
        let mut image = vec![0u8; 64 * 32];
        let mut state = seed | 1;
        for _ in 0..20 {
            // xorshift: cheap deterministic positions
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let at = (state % image.len() as u64) as usize;
            image[at] ^= 1 << (state % 8) as u8;
        }
        let file = encode(&image, chunk_blocks, 0);
        assert_eq!(decode(&file), image, "case {case}");
    }
}

#[test]
fn windows_reassemble_any_image() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let image = random_image(&mut rng);
        let chunk_blocks = rng.range(1..8) as u32;
        let window_blocks = rng.range(1..20) as usize;
        let file = encode(&image, chunk_blocks, 0x8000);
        let r = DumpReader::new(Cursor::new(&file)).expect("header");
        let mut reassembled = Vec::new();
        let mut next_addr = 0x8000u64;
        for window in r.windows(window_blocks) {
            let window = window.expect("clean stream");
            assert_eq!(window.base_addr(), next_addr, "case {case}");
            next_addr += window.len() as u64;
            reassembled.extend_from_slice(window.bytes());
        }
        assert_eq!(reassembled, image, "case {case}");
    }
}

#[test]
fn zero_heavy_file_is_much_smaller_than_raw() {
    // 90% of blocks fully zero: the RLE must collapse them.
    let mut image = vec![0u8; 64 * 1000];
    for block in 0..1000 {
        if block % 10 == 0 {
            for b in &mut image[block * 64..block * 64 + 64] {
                *b = 0x5A;
            }
        }
    }
    let file = encode(&image, 16, 0);
    assert!(
        file.len() < image.len() / 4,
        "zero-heavy file not compressed: {} of {}",
        file.len(),
        image.len()
    );
}

#[test]
fn decayed_module_roundtrips_through_cbdf() {
    let mut module = DramModule::with_quality(64 * 512, 0xD1AB10, 0.4);
    module.fill(0);
    module.write(64 * 10, &[0xEE; 256]);
    module.set_temperature(-25.0);
    module.power_off();
    module.elapse(5.0, &DecayModel::paper_calibrated());
    let file =
        export_module(&module, Some(DramGeometry::tiny_test()), 5.0, Vec::new()).expect("export");
    let restored = import_module(Cursor::new(&file)).expect("import");
    assert_eq!(restored.serial(), module.serial());
    assert_eq!(restored.temperature_c(), module.temperature_c());
    assert_eq!(restored.contents(), module.contents());
}

#[test]
fn corrupted_chunk_payload_is_rejected() {
    // Incompressible payload, so chunks are stored raw and a payload flip
    // must be caught by the chunk CRC (not the RLE decoder).
    let image: Vec<u8> = (0..64 * 64).map(|i| (i % 251 + 1) as u8).collect();
    let mut file = encode(&image, 8, 0);
    file[HEADER_BYTES + CHUNK_HEADER_BYTES + 100] ^= 0x40;
    let mut r = DumpReader::new(Cursor::new(&file)).expect("header");
    assert!(matches!(
        r.read_to_memory(),
        Err(DumpError::ChunkCrc { chunk: 0 })
    ));
}

#[test]
fn truncations_at_every_layer_are_detected() {
    let image: Vec<u8> = (0..64 * 64).map(|i| (i % 7) as u8).collect();
    let file = encode(&image, 8, 0);
    for cut in [0, 10, HEADER_BYTES - 1, HEADER_BYTES + 3, file.len() - 1] {
        let outcome =
            DumpReader::new(Cursor::new(&file[..cut])).and_then(|mut r| r.read_to_memory());
        assert!(
            matches!(outcome, Err(DumpError::Truncated(_))),
            "cut at {cut} undetected"
        );
    }
}

#[test]
fn foreign_and_future_files_are_rejected() {
    let file = encode(&[0u8; 64], 1, 0);
    let mut not_cbdf = file.clone();
    not_cbdf[..4].copy_from_slice(b"\x7fELF");
    assert!(matches!(
        DumpReader::new(Cursor::new(&not_cbdf)),
        Err(DumpError::BadMagic(_))
    ));

    let mut future = file.clone();
    future[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert!(matches!(
        DumpReader::new(Cursor::new(&future)),
        Err(DumpError::UnsupportedVersion(2))
    ));

    let mut header_flip = file;
    header_flip[24] ^= 1; // total_bytes field: header CRC must catch it
    assert!(matches!(
        DumpReader::new(Cursor::new(&header_flip)),
        Err(DumpError::HeaderCorrupt(_))
    ));
}

#[test]
fn writer_misuse_is_rejected_in_both_directions() {
    let meta = DumpMeta::for_image(0, 256);
    let mut w = DumpWriter::new(Vec::new(), meta.clone()).expect("writer");
    w.append(&[0u8; 128]).expect("within bounds");
    assert!(matches!(w.finish(), Err(DumpError::WriterMisuse(_))));

    let mut w = DumpWriter::new(Vec::new(), meta).expect("writer");
    assert!(matches!(
        w.append(&[0u8; 512]),
        Err(DumpError::WriterMisuse(_))
    ));

    let bad_meta = DumpMeta::for_image(7, 64); // misaligned base
    assert!(matches!(
        DumpWriter::new(Vec::new(), bad_meta),
        Err(DumpError::HeaderCorrupt(_))
    ));
}
