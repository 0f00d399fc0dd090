//! File-backed scan pipelines: the `coldboot` analyses fed from a
//! [`DumpReader`] in bounded-memory windows.
//!
//! There is one pass per analysis, each over a range of global blocks:
//! [`mine_range`], [`search_range`] and [`frequency_range`]. Each returns
//! the core accumulator ([`KeyMiner`], [`SearchPartial`],
//! [`FrequencyCounter`]) so the caller either finishes it — a whole-image
//! pass is the range `0..total_blocks` — or exports it as a cluster shard
//! result. Finished results are **byte-identical** to the in-memory entry
//! points (`mine_candidate_keys`, `search_dump`, `ddr3::frequency_keys`),
//! because the core streaming types are exactly what those delegate to.
//! [`attack_file`] chains mining and search into the twin of
//! `run_ddr4_attack`. Peak memory is two scan windows plus the searcher's
//! small verification tail, independent of file size.
//!
//! Every pass runs under one driver that overlaps decode and scan: a
//! producer thread reads, RLE-decodes, and CRC-checks window N+1 into a
//! recycled buffer while the scan engine consumes window N.
//!
//! A [`ScanControl`] threads cancellation, a wall-clock deadline, a
//! progress counter, and an optional [`PipelineMetrics`] bundle through a
//! pass — the hooks `coldboot-dumpd` jobs need. The control is checked
//! once per *read slice* ([`TICK_BLOCKS`] blocks per worker thread), not
//! once per caller-sized window, so a deadline overshoots by at most one
//! slice even when a job scans the whole file as a single window.

use std::io::{Read, Seek};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use coldboot::attack::ddr3::FrequencyCounter;
use coldboot::attack::{AttackConfig, AttackReport};
use coldboot::dump::MemoryDump;
use coldboot::keysearch::{
    merge_search_partials, SearchConfig, SearchPartial, StreamSearcher, SCHEDULE_CONTEXT_BLOCKS,
};
use coldboot::litmus::{CandidateKey, KeyMiner, MiningConfig};
use coldboot_dram::BLOCK_BYTES;

use crate::error::DumpError;
use crate::reader::DumpReader;
use crate::stats::PipelineMetrics;

/// Default scan window: 16 Ki blocks = 1 MiB, small enough that a dozen
/// concurrent jobs stay comfortably bounded, large enough to amortize the
/// per-window scan setup.
pub const DEFAULT_WINDOW_BLOCKS: usize = 16 * 1024;

/// Blocks per worker thread between [`ScanControl::tick`] checks.
///
/// Streaming passes read the image in slices of at most
/// `threads × TICK_BLOCKS` blocks regardless of the caller's window size.
/// The old behaviour ticked once per *window*, so a job scanning a large
/// file as one window could overshoot its wall-clock deadline by the
/// whole scan; slicing bounds the overshoot to one slice. Every slice
/// also costs a hand-off from the reader thread and a fork-join of the
/// scan workers, thread wake-ups that wait on the scheduler when the
/// CPUs are contended. At 256 blocks per worker, a two-thread raw attack
/// on a 2 MiB capture ran 128 slices of at most about 1 ms of work, and a
/// niced busy loop on each of two CPUs stretched the job about threefold;
/// at 512 the same load stretches it by 1.7–2.0×. Larger slices cut the
/// wake-ups further but hold more of a slice's hits and verification runs
/// in memory at once: at 1024, the four-schedule decayed attack on
/// 256 KiB peaked a third higher in resident memory. Results are
/// unchanged: the streaming scanners are windowing-invariant (see the
/// `streamed_identity` tests).
pub const TICK_BLOCKS: usize = 512;

/// The effective read-window for a pass with `threads` workers.
fn slice_blocks(window_blocks: usize, threads: usize) -> usize {
    window_blocks.min(threads.max(1) * TICK_BLOCKS).max(1)
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A streaming scan failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The underlying CBDF stream failed.
    Dump(DumpError),
    /// The pass was cancelled via its [`ScanControl`].
    Cancelled,
    /// The pass overran its [`ScanControl`] deadline.
    TimedOut,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Dump(e) => write!(f, "{e}"),
            PipelineError::Cancelled => write!(f, "scan cancelled"),
            PipelineError::TimedOut => write!(f, "scan deadline exceeded"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Dump(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DumpError> for PipelineError {
    fn from(e: DumpError) -> Self {
        PipelineError::Dump(e)
    }
}

/// Cooperative control for a streaming pass: checked once per read slice
/// (at most `threads ×` [`TICK_BLOCKS`] blocks).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanControl<'a> {
    cancel: Option<&'a AtomicBool>,
    deadline: Option<Instant>,
    progress: Option<&'a AtomicU64>,
    metrics: Option<&'a PipelineMetrics>,
    /// Blocks already accounted for by earlier phases; added to the
    /// progress counter so multi-phase pipelines report cumulatively.
    base: u64,
}

impl<'a> ScanControl<'a> {
    /// A control that never cancels, never times out, reports nowhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancels the pass when `flag` becomes true.
    pub fn with_cancel(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Fails the pass with [`PipelineError::TimedOut`] past `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Publishes blocks-processed into `counter` as the pass advances.
    pub fn with_progress(mut self, counter: &'a AtomicU64) -> Self {
        self.progress = Some(counter);
        self
    }

    /// Attaches observability: window timings land in `metrics` and the
    /// pass wires the nested mining/search bundles into its scanners.
    /// Detached passes skip all accounting, including the clock reads.
    pub fn with_metrics(mut self, metrics: &'a PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// A derived control whose progress starts from `base` blocks — for
    /// the second phase of a multi-phase pipeline.
    pub fn offset(&self, base: u64) -> Self {
        Self { base, ..*self }
    }

    /// Checks cancellation and deadline, then publishes progress.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cancelled`] or [`PipelineError::TimedOut`].
    pub fn tick(&self, blocks_done: u64) -> Result<(), PipelineError> {
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(PipelineError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(PipelineError::TimedOut);
            }
        }
        if let Some(counter) = self.progress {
            counter.store(self.base + blocks_done, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Normalizes a mining byte limit the way [`run_ddr4_attack`] does:
/// clamped to the image, rounded up to a whole block, clamped again.
///
/// [`run_ddr4_attack`]: coldboot::attack::run_ddr4_attack
fn mining_limit(max_bytes: u64, total_bytes: u64) -> u64 {
    max_bytes
        .min(total_bytes)
        .next_multiple_of(BLOCK_BYTES as u64)
        .min(total_bytes)
}

/// Scans image bytes `feed` (clamped by the caller to the image) window by
/// window, handing each to `scan`.
///
/// A producer thread reads, RLE-decodes, and CRC-checks window N+1 while
/// `scan` runs on window N on the calling thread. The rendezvous channel
/// bounds the pass to two in-flight windows — one being decoded, one being
/// scanned — and scanned buffers cycle back to the producer
/// ([`MemoryDump::into_vec`] reclaims the allocation once the scan drops
/// its borrows), so the steady state allocates nothing.
///
/// The control is ticked after every window, which is at most one read
/// slice, so cancellation and deadline checks keep a per-slice cadence.
/// When the pass stops early the producer's next `send` fails and it
/// exits before the scope joins it; producer-side stream errors arrive
/// in-band, after every window that preceded them.
fn drive<R: Read + Seek + Send>(
    reader: &mut DumpReader<R>,
    read_blocks: usize,
    feed: Range<u64>,
    ctrl: &ScanControl<'_>,
    scan: &mut dyn FnMut(&MemoryDump),
) -> Result<(), PipelineError> {
    ctrl.tick(0)?;
    if feed.is_empty() {
        return Ok(());
    }
    reader.seek_to_block(feed.start / BLOCK_BYTES as u64)?;
    let limit = feed.end - feed.start;
    let metrics = ctrl.metrics;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel::<Result<(Vec<u8>, u64), DumpError>>(0);
        let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<u8>>();
        s.spawn(move || {
            let mut read_bytes = 0u64;
            while read_bytes < limit {
                let mut buf = recycle_rx.try_recv().unwrap_or_default();
                let decode_started = metrics.map(|_| Instant::now());
                match reader.next_window_into(read_blocks, &mut buf) {
                    Ok(Some(addr)) => {
                        if let Some((pm, t0)) = metrics.zip(decode_started) {
                            pm.decode_us.observe(duration_us(t0.elapsed()));
                        }
                        read_bytes += buf.len() as u64;
                        // A failed send means the scan bailed (cancel,
                        // deadline): stop quietly.
                        if tx.send(Ok((buf, addr))).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });
        let mut bytes_done = 0u64;
        while bytes_done < limit {
            let recv_started = metrics.map(|_| Instant::now());
            let msg = rx.recv();
            if let Some((pm, t0)) = metrics.zip(recv_started) {
                pm.scan_stall_us.observe(duration_us(t0.elapsed()));
            }
            let (buf, addr) = match msg {
                // Producer hung up: end of image.
                Err(_) => break,
                Ok(Err(e)) => return Err(e.into()),
                Ok(Ok(window)) => window,
            };
            let window = MemoryDump::new(buf, addr);
            // `limit` and every window length are whole blocks, so the
            // clamp is block-aligned. The clamped view shares the window's
            // storage and drops before the buffer is reclaimed.
            let keep = (limit - bytes_done).min(window.len() as u64) as usize;
            let view = window.prefix(keep);
            let scan_started = metrics.map(|_| Instant::now());
            scan(&view);
            if let Some((pm, t0)) = metrics.zip(scan_started) {
                pm.window_scan_us.observe(duration_us(t0.elapsed()));
                pm.windows.inc();
            }
            drop(view);
            bytes_done += keep as u64;
            ctrl.tick(bytes_done / BLOCK_BYTES as u64)?;
            let _ = recycle_tx.send(window.into_vec());
        }
        Ok(())
    })
}

/// Splits `total_blocks` into at most `shards` contiguous near-equal
/// block ranges — the coordinator's work-distribution plan. Earlier
/// ranges absorb the remainder, every block lands in exactly one range,
/// and empty ranges are never produced (fewer ranges come back when there
/// are more shards than blocks).
pub fn plan_shards(total_blocks: u64, shards: usize) -> Vec<Range<u64>> {
    let shards = (shards.max(1) as u64).min(total_blocks.max(1));
    let base = total_blocks / shards;
    let extra = total_blocks % shards;
    let mut out = Vec::new();
    let mut start = 0u64;
    for i in 0..shards {
        let len = base + u64::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Clamps a block range to the image and converts it to byte bounds.
/// CBDF images are whole blocks, so the result is block-aligned.
fn range_bytes(blocks: &Range<u64>, total_bytes: u64) -> Range<u64> {
    let block = BLOCK_BYTES as u64;
    let start = blocks.start.saturating_mul(block).min(total_bytes);
    let end = blocks.end.saturating_mul(block).min(total_bytes);
    start..end.max(start)
}

/// Mines scrambler keys from global blocks `blocks` (clamped to the image)
/// and returns the miner unfinished.
///
/// Windows are absorbed at their true global offsets, so the caller can
/// either [`KeyMiner::finish`] it — byte-identical to
/// `mine_candidate_keys` over the same blocks — or export it with
/// [`KeyMiner::into_observations`] as a cluster shard result. A
/// coordinator absorbs every shard's observations into one miner
/// ([`KeyMiner::absorb_observations`]) and finishes once; the observation
/// merge is commutative and clustering happens only at finish, so the
/// result is byte-identical to one pass over the union. A prefix-limited
/// pass is the range `0..ceil(limit / 64)`.
///
/// # Errors
///
/// Stream corruption ([`PipelineError::Dump`]) or a [`ScanControl`] stop.
///
/// # Panics
///
/// Panics if `window_blocks` is zero.
pub fn mine_range<R: Read + Seek + Send>(
    reader: &mut DumpReader<R>,
    config: &MiningConfig,
    window_blocks: usize,
    blocks: &Range<u64>,
    ctrl: &ScanControl<'_>,
) -> Result<KeyMiner, PipelineError> {
    let image_base = reader.meta().base_addr;
    let feed = range_bytes(blocks, reader.meta().total_bytes);
    let mut miner = KeyMiner::new(config);
    if let Some(pm) = ctrl.metrics {
        miner = miner.with_metrics(Arc::clone(&pm.mining));
    }
    let read_blocks = slice_blocks(window_blocks, config.threads);
    drive(reader, read_blocks, feed, ctrl, &mut |window| {
        let first_block = ((window.base_addr() - image_base) / BLOCK_BYTES as u64) as usize;
        miner.absorb(window, first_block);
    })?;
    Ok(miner)
}

/// Runs the AES schedule search over global blocks `blocks` (clamped to
/// the image) and returns the mergeable [`SearchPartial`].
///
/// The pass owns region `blocks` but is fed [`SCHEDULE_CONTEXT_BLOCKS`] of
/// extra context on both sides (clamped to the image), so hits at its
/// region edges verify against exactly the bytes a whole-image pass sees;
/// the `SearchConfig` region filter keeps hit ownership disjoint across
/// shards. The partial carries *pre-dedup* recoveries in verification
/// order: [`merge_search_partials`] over the partials in block order —
/// one partial for a whole-image pass — replays the overlap dedup and
/// reproduces `search_dump` exactly.
///
/// # Errors
///
/// Stream corruption ([`PipelineError::Dump`]) or a [`ScanControl`] stop.
///
/// # Panics
///
/// Panics if `window_blocks` is zero.
pub fn search_range<R: Read + Seek + Send>(
    reader: &mut DumpReader<R>,
    candidates: &[CandidateKey],
    config: &SearchConfig,
    window_blocks: usize,
    blocks: &Range<u64>,
    ctrl: &ScanControl<'_>,
) -> Result<SearchPartial, PipelineError> {
    let image_base = reader.meta().base_addr;
    let total_bytes = reader.meta().total_bytes;
    let owned = range_bytes(blocks, total_bytes);
    let mut region = image_base + owned.start..image_base + owned.end;
    // A caller-set region narrows the range further.
    if let Some(r) = &config.region {
        region = region.start.max(r.start)..region.end.min(r.end);
    }
    let region_config = SearchConfig {
        region: Some(region),
        ..config.clone()
    };
    let mut searcher = StreamSearcher::new(candidates, &region_config);
    if let Some(pm) = ctrl.metrics {
        searcher = searcher.with_metrics(Arc::clone(&pm.search));
    }
    let ctx = (SCHEDULE_CONTEXT_BLOCKS * BLOCK_BYTES) as u64;
    let feed = if owned.is_empty() {
        owned
    } else {
        owned.start.saturating_sub(ctx)..owned.end.saturating_add(ctx).min(total_bytes)
    };
    let read_blocks = slice_blocks(window_blocks, config.threads);
    drive(reader, read_blocks, feed, ctrl, &mut |window| {
        searcher.push(window)
    })?;
    Ok(searcher.finish_partial())
}

/// Counts DDR3 block frequencies over global blocks `blocks` (clamped to
/// the image) and returns the counter unfinished.
///
/// [`FrequencyCounter::finish`] on it is byte-identical to
/// `ddr3::frequency_keys` over the same blocks;
/// [`FrequencyCounter::into_counts`] exports the histogram as a cluster
/// shard result, which a coordinator sums
/// ([`FrequencyCounter::absorb_counts`]) and finishes once — the sum of
/// disjoint histograms being the histogram of the union.
///
/// # Errors
///
/// Stream corruption ([`PipelineError::Dump`]) or a [`ScanControl`] stop.
///
/// # Panics
///
/// Panics if `window_blocks` is zero.
pub fn frequency_range<R: Read + Seek + Send>(
    reader: &mut DumpReader<R>,
    window_blocks: usize,
    blocks: &Range<u64>,
    ctrl: &ScanControl<'_>,
) -> Result<FrequencyCounter, PipelineError> {
    let feed = range_bytes(blocks, reader.meta().total_bytes);
    let mut counter = FrequencyCounter::new();
    // The frequency counter is a single-threaded byte histogram.
    let read_blocks = slice_blocks(window_blocks, 1);
    drive(reader, read_blocks, feed, ctrl, &mut |window| {
        counter.absorb(window)
    })?;
    Ok(counter)
}

/// The file-backed twin of [`run_ddr4_attack`]: mines scrambler keys from
/// a prefix of the file, then searches the whole image, producing an
/// identical [`AttackReport`].
///
/// Progress (when the control carries a counter) is cumulative across
/// both phases: mined blocks, then mined blocks + searched blocks.
///
/// # Errors
///
/// Stream corruption ([`PipelineError::Dump`]) or a [`ScanControl`] stop.
///
/// # Panics
///
/// Panics if `window_blocks` is zero.
///
/// [`run_ddr4_attack`]: coldboot::attack::run_ddr4_attack
pub fn attack_file<R: Read + Seek + Send>(
    reader: &mut DumpReader<R>,
    config: &AttackConfig,
    window_blocks: usize,
    ctrl: &ScanControl<'_>,
) -> Result<AttackReport, PipelineError> {
    let total = reader.meta().total_bytes;
    let mined_bytes = mining_limit(config.mining_prefix_bytes as u64, total);
    let mined_blocks = mined_bytes / BLOCK_BYTES as u64;
    let candidates = mine_range(
        reader,
        &config.mining,
        window_blocks,
        &(0..mined_blocks),
        ctrl,
    )?
    .finish();
    let partial = search_range(
        reader,
        &candidates,
        &config.search,
        window_blocks,
        &(0..total / BLOCK_BYTES as u64),
        &ctrl.offset(mined_blocks),
    )?;
    Ok(AttackReport {
        candidates,
        outcome: merge_search_partials([partial]),
        mined_bytes: mined_bytes as usize,
    })
}

/// Total blocks an [`attack_file`] pass processes across both phases —
/// the denominator for its progress counter.
pub fn attack_total_blocks(total_bytes: u64, config: &AttackConfig) -> u64 {
    let mined = mining_limit(config.mining_prefix_bytes as u64, total_bytes);
    (mined + total_bytes) / BLOCK_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::DumpMeta;
    use crate::writer::write_image;
    use coldboot::attack::ddr3::frequency_keys;
    use coldboot::litmus::mine_candidate_keys;
    use std::io::Cursor;

    fn cbdf_of(image: &[u8]) -> Vec<u8> {
        write_image(
            Vec::new(),
            DumpMeta::for_image(0, image.len() as u64),
            image,
        )
        .unwrap()
    }

    #[test]
    fn cancel_flag_stops_a_pass() {
        let file = cbdf_of(&vec![0u8; 64 * 64]);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let cancel = AtomicBool::new(true);
        let ctrl = ScanControl::new().with_cancel(&cancel);
        let result = frequency_range(&mut r, 8, &(0..64), &ctrl);
        assert!(matches!(result, Err(PipelineError::Cancelled)));
    }

    #[test]
    fn elapsed_deadline_times_out() {
        let file = cbdf_of(&vec![0u8; 64 * 64]);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let ctrl =
            ScanControl::new().with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let result = frequency_range(&mut r, 8, &(0..64), &ctrl);
        assert!(matches!(result, Err(PipelineError::TimedOut)));
    }

    #[test]
    fn progress_reaches_the_block_count() {
        let blocks = 100u64;
        let file = cbdf_of(&vec![0u8; 64 * blocks as usize]);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let progress = AtomicU64::new(0);
        let ctrl = ScanControl::new().with_progress(&progress);
        frequency_range(&mut r, 7, &(0..blocks), &ctrl).unwrap();
        assert_eq!(progress.load(Ordering::Relaxed), blocks);
        // A phase offset shifts the published counter.
        frequency_range(&mut r, 7, &(0..blocks), &ctrl.offset(1000)).unwrap();
        assert_eq!(progress.load(Ordering::Relaxed), 1000 + blocks);
    }

    #[test]
    fn read_slices_bound_tick_granularity() {
        // A whole-file window no longer means a single tick: the slice is
        // capped at TICK_BLOCKS per worker.
        assert_eq!(slice_blocks(1 << 20, 1), TICK_BLOCKS);
        assert_eq!(slice_blocks(1 << 20, 4), 4 * TICK_BLOCKS);
        // Small windows and degenerate thread counts stay as-is.
        assert_eq!(slice_blocks(7, 4), 7);
        assert_eq!(slice_blocks(1 << 20, 0), TICK_BLOCKS);
        assert_eq!(slice_blocks(0, 4), 1);
    }

    #[test]
    fn metrics_count_windows_decode_and_stall_without_changing_results() {
        use crate::stats::PipelineMetrics;
        use coldboot_metrics::MetricsRegistry;

        let blocks = 600usize;
        let image: Vec<u8> = (0..64 * blocks).map(|i| (i * 13 % 256) as u8).collect();
        let file = cbdf_of(&image);
        let config = MiningConfig {
            threads: 1,
            ..MiningConfig::default()
        };
        let all = 0..blocks as u64;

        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let plain = mine_range(&mut r, &config, 1 << 20, &all, &ScanControl::new())
            .unwrap()
            .finish();

        let registry = MetricsRegistry::new();
        let metrics = PipelineMetrics::register(&registry);
        let ctrl = ScanControl::new().with_metrics(&metrics);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let observed = mine_range(&mut r, &config, 1 << 20, &all, &ctrl)
            .unwrap()
            .finish();

        assert_eq!(plain, observed);
        // 600 blocks at one 256-block slice per tick → 3 windows, and the
        // nested mining bundle saw every block.
        let expected_windows = blocks.div_ceil(TICK_BLOCKS) as u64;
        assert_eq!(metrics.windows.get(), expected_windows);
        assert_eq!(metrics.window_scan_us.count(), expected_windows);
        // The producer timed every decode; the scan timed every hand-over.
        assert_eq!(metrics.decode_us.count(), expected_windows);
        assert_eq!(metrics.scan_stall_us.count(), expected_windows);
        assert_eq!(metrics.mining.blocks.get(), blocks as u64);
    }

    #[test]
    fn range_passes_match_in_memory_at_any_window_size() {
        let blocks = 700usize;
        let image: Vec<u8> = (0..64 * blocks).map(|i| (i * 7 % 256) as u8).collect();
        let dump = MemoryDump::new(image.clone(), 0);
        let file = cbdf_of(&image);
        let config = MiningConfig {
            threads: 2,
            ..MiningConfig::default()
        };
        let expected_freq = frequency_keys(&dump, 4);
        let expected_mine = mine_candidate_keys(&dump.prefix(64 * 300), &config);
        for window_blocks in [3, 128, 1 << 20] {
            let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
            let freq = frequency_range(
                &mut r,
                window_blocks,
                &(0..blocks as u64),
                &ScanControl::new(),
            )
            .unwrap()
            .finish(4);
            assert_eq!(
                freq, expected_freq,
                "frequency window_blocks={window_blocks}"
            );

            let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
            let mined = mine_range(
                &mut r,
                &config,
                window_blocks,
                &(0..300),
                &ScanControl::new(),
            )
            .unwrap()
            .finish();
            assert_eq!(mined, expected_mine, "mine window_blocks={window_blocks}");
        }
    }

    #[test]
    fn plan_shards_covers_every_block_exactly_once() {
        for (total, n) in [(0u64, 4usize), (1, 4), (7, 3), (96, 8), (100, 1), (5, 9)] {
            let plan = plan_shards(total, n);
            let mut next = 0u64;
            for r in &plan {
                assert_eq!(r.start, next, "gap in plan({total}, {n})");
                assert!(r.end > r.start, "empty range in plan({total}, {n})");
                next = r.end;
            }
            assert_eq!(next, total, "plan({total}, {n}) does not cover the image");
            assert!(plan.len() <= n.max(1));
        }
    }

    #[test]
    fn shard_passes_merge_to_the_whole_file_result() {
        let blocks = 600usize;
        let image: Vec<u8> = (0..64 * blocks).map(|i| (i * 13 % 256) as u8).collect();
        let file = cbdf_of(&image);
        let config = MiningConfig {
            threads: 1,
            ..MiningConfig::default()
        };
        let all = 0..blocks as u64;

        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let whole_mine = mine_range(&mut r, &config, 128, &all, &ScanControl::new())
            .unwrap()
            .finish();
        let whole_freq = frequency_range(&mut r, 128, &all, &ScanControl::new())
            .unwrap()
            .finish(6);

        for shards in [1usize, 2, 4, 8] {
            let plan = plan_shards(blocks as u64, shards);
            let mut miner = KeyMiner::new(&config);
            let mut counter = FrequencyCounter::new();
            // Absorb in reverse shard order: the merge is commutative, so
            // arrival order (which a cluster cannot control) is free.
            for range in plan.iter().rev() {
                let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
                let obs = mine_range(&mut r, &config, 128, range, &ScanControl::new()).unwrap();
                miner.absorb_observations(obs.into_observations());
                let counts = frequency_range(&mut r, 128, range, &ScanControl::new()).unwrap();
                counter.absorb_counts(counts.into_counts());
            }
            assert_eq!(
                miner.finish(),
                whole_mine,
                "mining diverged at shards={shards}"
            );
            assert_eq!(
                counter.finish(6),
                whole_freq,
                "frequency diverged at shards={shards}"
            );
        }
    }

    #[test]
    fn search_shard_scan_counts_partition_the_image() {
        let blocks = 200usize;
        let image: Vec<u8> = (0..64 * blocks).map(|i| (i * 7 % 256) as u8).collect();
        let file = cbdf_of(&image);
        let config = SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        };
        let candidates: Vec<CandidateKey> = Vec::new();
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let whole = search_range(
            &mut r,
            &candidates,
            &config,
            64,
            &(0..blocks as u64),
            &ScanControl::new(),
        )
        .unwrap();
        assert_eq!(whole.blocks_scanned, blocks);
        // A caller-set region still restricts a whole-image pass.
        let narrowed = SearchConfig {
            region: Some(64 * 10..64 * 30),
            ..config.clone()
        };
        let part = search_range(
            &mut r,
            &candidates,
            &narrowed,
            64,
            &(0..blocks as u64),
            &ScanControl::new(),
        )
        .unwrap();
        assert_eq!(part.blocks_scanned, 20);
        for shards in [2usize, 5] {
            let mut total = 0usize;
            for range in plan_shards(blocks as u64, shards) {
                let part = search_range(
                    &mut r,
                    &candidates,
                    &config,
                    64,
                    &range,
                    &ScanControl::new(),
                )
                .unwrap();
                total += part.blocks_scanned;
            }
            // Context blocks are fed but only region blocks are counted,
            // so the shard counts partition the whole-image count.
            assert_eq!(total, whole.blocks_scanned, "shards={shards}");
        }
    }

    #[test]
    fn mining_limit_matches_attack_rounding() {
        assert_eq!(mining_limit(0, 640), 0);
        assert_eq!(mining_limit(100, 640), 128);
        assert_eq!(mining_limit(10_000, 640), 640);
        assert_eq!(mining_limit(640, 640), 640);
    }
}
