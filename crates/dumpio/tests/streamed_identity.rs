//! The acceptance criterion for the streaming layer: a scrambled DDR4
//! image written to CBDF, re-opened through `DumpReader`, and scanned in
//! bounded windows must yield **byte-identical** mined scrambler keys and
//! recovered AES/XTS master keys to the in-memory pipeline.

use std::io::{Cursor, Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use coldboot::attack::ddr3::frequency_keys;
use coldboot::attack::ddr3::FrequencyCounter;
use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot::dump::MemoryDump;
use coldboot::keysearch::merge_search_partials;
use coldboot::keysearch::SearchConfig;
use coldboot::litmus::KeyMiner;
use coldboot::litmus::{mine_candidate_keys, MiningConfig};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dumpio::format::DumpMeta;
use coldboot_dumpio::pipeline::{
    attack_file, frequency_range, mine_range, plan_shards, search_range, PipelineError, ScanControl,
};
use coldboot_dumpio::reader::DumpReader;
use coldboot_dumpio::writer::write_image;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::volume::MasterKeys;
use coldboot_veracrypt::{MountedVolume, Volume};

const PASSWORD: &[u8] = b"a very strong password";
const SECRET: &[u8] = b"medical records, client ledgers, signing keys";

/// The example's scenario: a locked Skylake machine with a mounted
/// XTS volume in scrambled DRAM, captured via cold transplant.
fn captured_dump(seed: u64) -> (Volume, MemoryDump) {
    let geometry = DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    };
    let volume = Volume::create(PASSWORD, SECRET, &mut SplitMix64::new(seed));
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
    MountedVolume::mount(&mut victim, &volume, PASSWORD, 0x8_0070).expect("correct password");
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
    (volume, dump)
}

fn cbdf_of(dump: &MemoryDump) -> Vec<u8> {
    write_image(
        Vec::new(),
        DumpMeta::for_image(dump.base_addr(), dump.len() as u64),
        dump.bytes(),
    )
    .expect("encode")
}

#[test]
fn file_backed_attack_is_byte_identical_and_recovers_the_volume() {
    let (volume, dump) = captured_dump(9);
    let file = cbdf_of(&dump);
    let config = AttackConfig::default();
    let expected = run_ddr4_attack(&dump, &config);
    assert!(
        !expected.outcome.recovered.is_empty(),
        "scenario must recover keys for the identity check to mean anything"
    );

    // Window sizes chosen to hit: many windows per chunk, window == image,
    // and a window size coprime to the chunk size.
    for window_blocks in [96, 1024, 1_000_000] {
        let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
        let streamed = attack_file(&mut reader, &config, window_blocks, &ScanControl::new())
            .expect("streamed attack");
        assert_eq!(
            streamed.candidates, expected.candidates,
            "mined keys diverged at window_blocks={window_blocks}"
        );
        assert_eq!(streamed.outcome.hits, expected.outcome.hits);
        assert_eq!(streamed.outcome.recovered, expected.outcome.recovered);
        assert_eq!(
            streamed.outcome.blocks_scanned,
            expected.outcome.blocks_scanned
        );
        assert_eq!(streamed.mined_bytes, expected.mined_bytes);
    }

    // And the streamed report carries the real XTS master keys: decrypt
    // the volume with them, no password involved.
    let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
    let report = attack_file(&mut reader, &config, 512, &ScanControl::new()).expect("attack");
    let mut recovered = report.outcome.recovered;
    recovered.sort_by_key(|r| r.schedule_addr);
    let pair = recovered
        .windows(2)
        .find(|w| w[1].schedule_addr == w[0].schedule_addr + 240)
        .expect("adjacent AES-256 schedule pair (the XTS key table)");
    let keys = MasterKeys {
        data_key: pair[0].master_key.clone().try_into().expect("32 bytes"),
        tweak_key: pair[1].master_key.clone().try_into().expect("32 bytes"),
    };
    let plaintext = volume.decrypt_all(&keys).expect("master keys decrypt");
    assert_eq!(&plaintext[..SECRET.len()], SECRET);
}

/// A `Read + Seek` wrapper that fires a callback once, after `trigger_at`
/// total bytes have passed through it, and counts every byte read after
/// that — so a test can flip a cancel flag (or burn a deadline)
/// mid-stream and then assert the pass stopped within a bounded amount of
/// further input.
struct TriggerReader<R, F: FnMut()> {
    inner: R,
    read_so_far: u64,
    trigger_at: u64,
    on_trigger: Option<F>,
    after_trigger: Arc<AtomicU64>,
}

impl<R, F: FnMut()> TriggerReader<R, F> {
    fn new(inner: R, trigger_at: u64, on_trigger: F, after_trigger: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            read_so_far: 0,
            trigger_at,
            on_trigger: Some(on_trigger),
            after_trigger,
        }
    }
}

impl<R: Read, F: FnMut()> Read for TriggerReader<R, F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read_so_far += n as u64;
        if self.read_so_far >= self.trigger_at {
            if let Some(mut f) = self.on_trigger.take() {
                f();
            } else {
                self.after_trigger.fetch_add(n as u64, Ordering::Relaxed);
            }
        }
        Ok(n)
    }
}

impl<R: Seek, F: FnMut()> Seek for TriggerReader<R, F> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Bytes the driver may still pull after a stop condition fires: the rest
/// of the window being decoded plus the one look-ahead window the double
/// buffer allows, each up to a slice (512 blocks at one thread) and a
/// 64 KiB chunk of decode carry, plus headers. A pass ticked once per
/// full-file window would instead read everything, so staying under this
/// bound is what "overshoot ≤ one slice" means observably.
const STOP_SLACK_BYTES: u64 = 256 * 1024;

fn single_thread_attack_config() -> AttackConfig {
    AttackConfig {
        mining: MiningConfig {
            threads: 1,
            ..MiningConfig::default()
        },
        search: SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        },
        ..AttackConfig::default()
    }
}

#[test]
fn file_backed_attack_matches_in_memory_at_any_window_tile_and_thread_count() {
    let (_volume, dump) = captured_dump(17);
    let file = cbdf_of(&dump);

    for (window_blocks, threads, tile_blocks) in
        [(96, 1, 64), (1024, 2, 1024), (1_000_000, 4, 1 << 20)]
    {
        let config = AttackConfig {
            mining: MiningConfig {
                threads,
                tile_blocks,
                ..MiningConfig::default()
            },
            search: SearchConfig {
                threads,
                ..SearchConfig::default()
            },
            ..AttackConfig::default()
        };
        let expected = run_ddr4_attack(&dump, &config);
        assert!(!expected.outcome.recovered.is_empty());
        let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
        let streamed = attack_file(&mut reader, &config, window_blocks, &ScanControl::new())
            .expect("streamed attack");
        let tag = format!("window={window_blocks} threads={threads} tile={tile_blocks}");
        assert_eq!(streamed.candidates, expected.candidates, "candidates {tag}");
        assert_eq!(streamed.outcome.hits, expected.outcome.hits, "hits {tag}");
        assert_eq!(
            streamed.outcome.recovered, expected.outcome.recovered,
            "recovered {tag}"
        );
        assert_eq!(
            streamed.outcome.blocks_scanned, expected.outcome.blocks_scanned,
            "blocks {tag}"
        );
        assert_eq!(streamed.mined_bytes, expected.mined_bytes, "mined {tag}");
    }
}

#[test]
fn mid_stream_cancel_stops_the_attack_within_a_slice() {
    let (_volume, dump) = captured_dump(19);
    let file = cbdf_of(&dump);
    let cancel = Arc::new(AtomicBool::new(false));
    let after = Arc::new(AtomicU64::new(0));
    let trigger_at = file.len() as u64 / 4;
    assert!(
        file.len() as u64 - trigger_at > 2 * STOP_SLACK_BYTES,
        "fixture must leave enough input after the trigger for the bound to mean anything"
    );
    let flag = Arc::clone(&cancel);
    let inner = TriggerReader::new(
        Cursor::new(&file),
        trigger_at,
        move || flag.store(true, Ordering::Relaxed),
        Arc::clone(&after),
    );
    let mut reader = DumpReader::new(inner).expect("header");
    let config = single_thread_attack_config();
    let ctrl = ScanControl::new().with_cancel(&cancel);
    // Whole file as one caller window: only the per-slice ticks can stop it.
    let err = attack_file(&mut reader, &config, 1_000_000, &ctrl).unwrap_err();
    assert!(matches!(err, PipelineError::Cancelled), "got {err}");
    let overrun = after.load(Ordering::Relaxed);
    assert!(
        overrun <= STOP_SLACK_BYTES,
        "cancelled pass kept reading: {overrun} bytes after the flag"
    );
}

#[test]
fn deadline_overshoot_is_bounded_to_a_slice() {
    let (_volume, dump) = captured_dump(23);
    let file = cbdf_of(&dump);
    let after = Arc::new(AtomicU64::new(0));
    let trigger_at = file.len() as u64 / 4;
    // Burn well past the deadline mid-stream; whether the clock ran out
    // before or at the trigger, the pass must stop within a slice of it.
    let inner = TriggerReader::new(
        Cursor::new(&file),
        trigger_at,
        || std::thread::sleep(std::time::Duration::from_millis(80)),
        Arc::clone(&after),
    );
    let mut reader = DumpReader::new(inner).expect("header");
    let config = single_thread_attack_config();
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(40);
    let ctrl = ScanControl::new().with_deadline(deadline);
    let err = attack_file(&mut reader, &config, 1_000_000, &ctrl).unwrap_err();
    assert!(matches!(err, PipelineError::TimedOut), "got {err}");
    let overrun = after.load(Ordering::Relaxed);
    assert!(
        overrun <= STOP_SLACK_BYTES,
        "timed-out pass kept reading: {overrun} bytes past the deadline"
    );
}

#[test]
fn prefix_limited_mining_matches_across_window_boundaries() {
    let (_volume, dump) = captured_dump(11);
    let file = cbdf_of(&dump);
    let mining = coldboot::litmus::MiningConfig::default();
    // Limits chosen to land mid-window, mid-block, exactly on a window
    // edge, and past the end of the image.
    for max_bytes in [64 * 300, 64 * 300 + 17, 64 * 512, 64 * 100_000] {
        let rounded = (max_bytes.min(dump.len()))
            .next_multiple_of(64)
            .min(dump.len());
        let expected = mine_candidate_keys(&dump.prefix(rounded), &mining);
        let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
        let prefix = 0..(max_bytes as u64).div_ceil(64);
        let streamed = mine_range(&mut reader, &mining, 512, &prefix, &ScanControl::new())
            .expect("streamed mining")
            .finish();
        assert_eq!(streamed, expected, "diverged at max_bytes={max_bytes}");
    }
}

#[test]
fn sharded_passes_merge_byte_identically_at_any_shard_count() {
    let (_volume, dump) = captured_dump(29);
    let file = cbdf_of(&dump);
    let config = single_thread_attack_config();
    let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
    let expected = attack_file(&mut reader, &config, 512, &ScanControl::new()).expect("attack");
    assert!(
        !expected.outcome.recovered.is_empty(),
        "scenario must recover keys for the shard identity check to mean anything"
    );
    let expected_freq = frequency_keys(&dump, 24);

    let total_blocks = (dump.len() / 64) as u64;
    let mined_blocks = (expected.mined_bytes / 64) as u64;

    for shards in [1usize, 2, 4, 8] {
        // Phase 1: mine the prefix in shards; the observation merge is
        // commutative, so absorb in reverse arrival order and finish once.
        let mut miner = KeyMiner::new(&config.mining);
        for range in plan_shards(mined_blocks, shards).iter().rev() {
            let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
            let shard = mine_range(&mut reader, &config.mining, 512, range, &ScanControl::new())
                .expect("mine shard");
            miner.absorb_observations(shard.into_observations());
        }
        let candidates = miner.finish();
        assert_eq!(
            candidates, expected.candidates,
            "candidates diverged at shards={shards}"
        );

        // Phase 2: search the whole image in shards; partials concatenate
        // in shard (= global block) order and replay the overlap dedup.
        let mut partials = Vec::new();
        for range in plan_shards(total_blocks, shards) {
            let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
            partials.push(
                search_range(
                    &mut reader,
                    &candidates,
                    &config.search,
                    512,
                    &range,
                    &ScanControl::new(),
                )
                .expect("search shard"),
            );
        }
        let outcome = merge_search_partials(partials);
        assert_eq!(
            outcome.hits, expected.outcome.hits,
            "hits diverged at shards={shards}"
        );
        assert_eq!(
            outcome.recovered, expected.outcome.recovered,
            "recoveries diverged at shards={shards}"
        );
        assert_eq!(
            outcome.blocks_scanned, expected.outcome.blocks_scanned,
            "scan counts diverged at shards={shards}"
        );

        // The frequency histogram sums across disjoint shard ranges.
        let mut counter = FrequencyCounter::new();
        for range in plan_shards(total_blocks, shards).iter().rev() {
            let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
            let shard = frequency_range(&mut reader, 512, range, &ScanControl::new())
                .expect("frequency shard");
            counter.absorb_counts(shard.into_counts());
        }
        assert_eq!(
            counter.finish(24),
            expected_freq,
            "frequency diverged at shards={shards}"
        );
    }
}

#[test]
fn streamed_frequency_analysis_matches_in_memory() {
    let (_volume, dump) = captured_dump(13);
    let file = cbdf_of(&dump);
    let expected = frequency_keys(&dump, 24);
    for window_blocks in [33, 2048] {
        let mut reader = DumpReader::new(Cursor::new(&file)).expect("header");
        let all = 0..(dump.len() / 64) as u64;
        let streamed = frequency_range(&mut reader, window_blocks, &all, &ScanControl::new())
            .expect("streamed frequency pass")
            .finish(24);
        assert_eq!(
            streamed, expected,
            "diverged at window_blocks={window_blocks}"
        );
    }
}
