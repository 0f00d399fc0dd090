//! CBDF throughput: encode/decode MiB/s and streamed-scan overhead vs the
//! in-memory path. The end-to-end capture-file → recovered-key rate is
//! `attack_perf`'s to report.
//!
//! One timed pass per figure, reported as `BENCH_dumpio.json` and recorded
//! through `coldboot_bench::history` (same trajectory as `attack_perf`) so
//! `bench-diff` can gate the numbers without scraping output.

use std::io::Cursor;
use std::time::Instant;

use coldboot::attack::ddr3::frequency_keys;
use coldboot::dump::MemoryDump;
use coldboot_crypto::rng::SplitMix64;
use coldboot_dumpio::format::DumpMeta;
use coldboot_dumpio::json::Json;
use coldboot_dumpio::pipeline::{frequency_range, ScanControl};
use coldboot_dumpio::reader::DumpReader;
use coldboot_dumpio::writer::write_image;

const IMAGE_BYTES: usize = 4 << 20;

/// A cold-boot-shaped image: mostly zero-filled pool, some high-entropy
/// regions, sparse bit flips — the case the zero-run RLE is built for.
fn realistic_image(len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0xD00D);
    let mut image = vec![0u8; len];
    // A quarter of the image is high-entropy "in use" pages.
    let mut offset = len / 8;
    while offset + 4096 <= len / 2 {
        rng.fill(&mut image[offset..offset + 2048]);
        offset += 8192;
    }
    // Sparse decay flips everywhere.
    for _ in 0..len / 2048 {
        let at = rng.range(0..len as u64) as usize;
        image[at] ^= 1u8 << rng.range(0..8);
    }
    image
}

fn cbdf_of(image: &[u8]) -> Vec<u8> {
    write_image(
        Vec::new(),
        DumpMeta::for_image(0, image.len() as u64),
        image,
    )
    .expect("encode")
}

/// The streamed frequency pass over a whole encoded image.
fn frequency_streamed(file: &[u8]) -> Vec<coldboot::litmus::CandidateKey> {
    let mut r = DumpReader::new(Cursor::new(file)).expect("header");
    let blocks = r.meta().total_bytes / 64;
    frequency_range(&mut r, 16 * 1024, &(0..blocks), &ScanControl::new())
        .expect("stream")
        .finish(8)
}

/// One timed pass per figure, recorded as `BENCH_dumpio.json` plus a
/// `BENCH_history.jsonl` entry so `bench-diff` gates the rates.
fn main() {
    fn mib_per_s(bytes: usize, seconds: f64) -> f64 {
        bytes as f64 / (1 << 20) as f64 / seconds
    }

    let image = realistic_image(IMAGE_BYTES);
    let start = Instant::now();
    let file = cbdf_of(&image);
    let encode_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut r = DumpReader::new(Cursor::new(&file)).expect("header");
    let decoded = r.read_to_memory().expect("decode");
    let decode_s = start.elapsed().as_secs_f64();
    assert_eq!(decoded.bytes().len(), IMAGE_BYTES);

    let dump = MemoryDump::new(image, 0);
    let start = Instant::now();
    let in_memory = frequency_keys(&dump, 8);
    let in_memory_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let streamed = frequency_streamed(&file);
    let streamed_s = start.elapsed().as_secs_f64();
    assert_eq!(in_memory, streamed, "streamed scan must be byte-identical");

    let doc = Json::obj([
        ("bench", Json::Str("dumpio_throughput".into())),
        ("image_bytes", Json::Int(IMAGE_BYTES as i64)),
        ("cbdf_bytes", Json::Int(file.len() as i64)),
        (
            "compression_ratio",
            Json::Num(IMAGE_BYTES as f64 / file.len() as f64),
        ),
        (
            "encode_mib_per_s",
            Json::Num(mib_per_s(IMAGE_BYTES, encode_s)),
        ),
        (
            "decode_mib_per_s",
            Json::Num(mib_per_s(IMAGE_BYTES, decode_s)),
        ),
        (
            "freq_scan_in_memory_mib_per_s",
            Json::Num(mib_per_s(IMAGE_BYTES, in_memory_s)),
        ),
        (
            "freq_scan_streamed_mib_per_s",
            Json::Num(mib_per_s(IMAGE_BYTES, streamed_s)),
        ),
        (
            "streamed_overhead_ratio",
            Json::Num(streamed_s / in_memory_s.max(1e-9)),
        ),
    ]);
    match coldboot_bench::history::record("dumpio", &doc) {
        Ok(()) => println!("wrote BENCH_dumpio.json"),
        Err(e) => eprintln!("could not write BENCH_dumpio.json: {e}"),
    }
}
