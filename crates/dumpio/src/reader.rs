//! Streaming CBDF reader.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;
use std::time::Instant;

use coldboot::dump::MemoryDump;
use coldboot_dram::BLOCK_BYTES;

use crate::crc32::crc32;
use crate::error::DumpError;
use crate::format::{
    ChunkHeader, DumpMeta, CHUNK_HEADER_BYTES, ENCODING_RAW, ENCODING_ZERO_RLE, HEADER_BYTES,
};
use crate::rle;
use crate::stats::ReaderMetrics;

/// Reads a CBDF image incrementally from any [`Read`] source.
///
/// The reader verifies the header CRC up front and each chunk's CRC as it
/// is decoded, and tracks position so chunks spliced out of order, with
/// the wrong length, or truncated mid-stream all surface as typed errors
/// rather than silently corrupt scans.
pub struct DumpReader<R: Read> {
    inner: R,
    meta: DumpMeta,
    next_chunk: u32,
    /// Image bytes handed out (or buffered in `carry`) so far.
    bytes_out: u64,
    /// Decoded bytes not yet consumed by a window.
    carry: Vec<u8>,
    /// Physical address of the next window's first byte.
    window_addr: u64,
    /// Optional observability hook; `None` costs nothing per chunk.
    metrics: Option<Arc<ReaderMetrics>>,
    /// Scratch buffer for the encoded chunk payload; grows to the largest
    /// chunk once and is reused so steady-state reads allocate nothing.
    payload: Vec<u8>,
}

impl<R: Read> DumpReader<R> {
    /// Reads and validates the file header.
    ///
    /// # Errors
    ///
    /// [`DumpError::BadMagic`], [`DumpError::UnsupportedVersion`],
    /// [`DumpError::HeaderCorrupt`], [`DumpError::Truncated`], or an
    /// underlying I/O failure.
    pub fn new(mut inner: R) -> Result<Self, DumpError> {
        let mut header = [0u8; HEADER_BYTES];
        inner.read_exact(&mut header)?;
        let meta = DumpMeta::decode(&header)?;
        let window_addr = meta.base_addr;
        Ok(Self {
            inner,
            meta,
            next_chunk: 0,
            bytes_out: 0,
            carry: Vec::new(),
            window_addr,
            metrics: None,
            payload: Vec::new(),
        })
    }

    /// The capture metadata from the header.
    pub fn meta(&self) -> &DumpMeta {
        &self.meta
    }

    /// Attaches container-level counters ([`ReaderMetrics`]). Detached
    /// readers skip all accounting, including the per-chunk clock reads.
    pub fn set_metrics(&mut self, metrics: Arc<ReaderMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Reads, validates, and decodes the next chunk. `Ok(None)` at end of
    /// image.
    ///
    /// # Errors
    ///
    /// Any chunk-level corruption ([`DumpError::ChunkOrder`],
    /// [`DumpError::ChunkLength`], [`DumpError::BadEncoding`],
    /// [`DumpError::ChunkCrc`], [`DumpError::RleCorrupt`]),
    /// [`DumpError::Truncated`], or an underlying I/O failure.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, DumpError> {
        let mut out = Vec::new();
        Ok(self.read_chunk_into(&mut out)?.map(|_| out))
    }

    /// Reads, validates, and decodes the next chunk, appending the decoded
    /// bytes to `out` — the caller's buffer is the only allocation in the
    /// loop, so a recycled window buffer makes steady-state decoding
    /// allocation-free. Returns the appended byte count, `Ok(None)` at end
    /// of image. On error `out` is restored to its original length.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DumpReader::next_chunk`].
    pub fn read_chunk_into(&mut self, out: &mut Vec<u8>) -> Result<Option<usize>, DumpError> {
        let base = out.len();
        let result = match self.metrics.clone() {
            // Fast path: detached readers pay no clock read per chunk.
            None => self.read_chunk_inner(out),
            Some(metrics) => {
                let started = Instant::now();
                let result = self.read_chunk_inner(out);
                match &result {
                    Ok(Some(encoding)) => {
                        let elapsed = started.elapsed().as_micros();
                        metrics
                            .chunk_decode_us
                            .observe(u64::try_from(elapsed).unwrap_or(u64::MAX));
                        if *encoding == ENCODING_ZERO_RLE {
                            metrics.chunks_rle.inc();
                        } else {
                            metrics.chunks_raw.inc();
                        }
                    }
                    Ok(None) => {}
                    // CBDF has no retries: integrity failures are fatal to
                    // the read, so they are counted here and propagated.
                    Err(DumpError::ChunkCrc { .. } | DumpError::RleCorrupt { .. }) => {
                        metrics.integrity_errors.inc();
                    }
                    Err(_) => {}
                }
                result
            }
        };
        match result {
            Ok(Some(_)) => Ok(Some(out.len() - base)),
            Ok(None) => Ok(None),
            Err(e) => {
                out.truncate(base);
                Err(e)
            }
        }
    }

    /// Reads the next chunk header and checks it against the stream
    /// position and the header geometry: chunk order, raw length, and an
    /// encoding whose encoded length is in bounds. Both the decode path and
    /// [`DumpReader::seek_to_block`]'s skip path go through here, so a
    /// skipped chunk is held to the same checks as a decoded one.
    fn read_chunk_header(&mut self) -> Result<ChunkHeader, DumpError> {
        let mut header = [0u8; CHUNK_HEADER_BYTES];
        self.inner.read_exact(&mut header)?;
        let ch = ChunkHeader::decode(&header);
        if ch.index != self.next_chunk {
            return Err(DumpError::ChunkOrder {
                expected: self.next_chunk,
                found: ch.index,
            });
        }
        let expected_raw =
            (self.meta.total_bytes - self.bytes_out).min(self.meta.chunk_bytes() as u64);
        if u64::from(ch.raw_len) != expected_raw {
            return Err(DumpError::ChunkLength {
                chunk: ch.index,
                expected: expected_raw as u32,
                found: ch.raw_len,
            });
        }
        match ch.encoding {
            ENCODING_RAW if ch.encoded_len != ch.raw_len => Err(DumpError::ChunkLength {
                chunk: ch.index,
                expected: ch.raw_len,
                found: ch.encoded_len,
            }),
            // A valid RLE stream never beats raw by less than it costs;
            // cap the read so a corrupt length cannot balloon memory.
            ENCODING_ZERO_RLE if ch.encoded_len as usize > self.meta.chunk_bytes() + 64 => {
                Err(DumpError::RleCorrupt { chunk: ch.index })
            }
            ENCODING_RAW | ENCODING_ZERO_RLE => Ok(ch),
            other => Err(DumpError::BadEncoding {
                chunk: ch.index,
                encoding: other,
            }),
        }
    }

    /// The unobserved chunk read: validate → read → decode → CRC-check.
    /// Appends decoded bytes to `out` and returns the on-disk encoding id.
    fn read_chunk_inner(&mut self, out: &mut Vec<u8>) -> Result<Option<u8>, DumpError> {
        if self.bytes_out == self.meta.total_bytes {
            return Ok(None);
        }
        let ch = self.read_chunk_header()?;
        let base = out.len();
        match ch.encoding {
            ENCODING_RAW => {
                // Raw chunks decode straight into the caller's buffer.
                out.resize(base + ch.raw_len as usize, 0);
                self.inner.read_exact(&mut out[base..])?;
            }
            _ => {
                self.payload.clear();
                self.payload.resize(ch.encoded_len as usize, 0);
                self.inner.read_exact(&mut self.payload)?;
                if rle::decode_into(&self.payload, ch.raw_len as usize, out).is_none() {
                    return Err(DumpError::RleCorrupt { chunk: ch.index });
                }
            }
        }
        if crc32(&out[base..]) != ch.crc {
            return Err(DumpError::ChunkCrc { chunk: ch.index });
        }
        self.next_chunk += 1;
        self.bytes_out += (out.len() - base) as u64;
        Ok(Some(ch.encoding))
    }

    /// Assembles the next scan window of up to `window_blocks` blocks.
    /// `Ok(None)` at end of image. Consecutive windows are contiguous:
    /// each window's base address is the previous window's end.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DumpReader::next_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `window_blocks` is zero.
    pub fn next_window(&mut self, window_blocks: usize) -> Result<Option<MemoryDump>, DumpError> {
        let mut buf = Vec::new();
        Ok(self
            .next_window_into(window_blocks, &mut buf)?
            .map(|addr| MemoryDump::new(buf, addr)))
    }

    /// Assembles the next scan window directly into `out` (cleared first)
    /// and returns its base address; `Ok(None)` at end of image. This is
    /// the recycled-buffer form of [`DumpReader::next_window`]: chunks
    /// decode straight into `out`, so a buffer cycled back by the consumer
    /// makes the whole read→decode→CRC path allocation-free in steady
    /// state.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DumpReader::next_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `window_blocks` is zero.
    pub fn next_window_into(
        &mut self,
        window_blocks: usize,
        out: &mut Vec<u8>,
    ) -> Result<Option<u64>, DumpError> {
        assert!(window_blocks > 0, "window must hold at least one block");
        let want = window_blocks * BLOCK_BYTES;
        out.clear();
        out.append(&mut self.carry);
        while out.len() < want {
            if self.read_chunk_into(out)?.is_none() {
                break;
            }
        }
        if out.is_empty() {
            return Ok(None);
        }
        if out.len() > want {
            // Chunk lengths are validated against the header geometry,
            // whose sizes are all block multiples — so the cut is
            // block-aligned.
            self.carry.extend_from_slice(&out[want..]);
            out.truncate(want);
        }
        let addr = self.window_addr;
        self.window_addr += out.len() as u64;
        Ok(Some(addr))
    }

    /// Consumes the reader into an iterator of scan windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_blocks` is zero.
    pub fn windows(self, window_blocks: usize) -> Windows<R> {
        assert!(window_blocks > 0, "window must hold at least one block");
        Windows {
            reader: self,
            window_blocks,
            failed: false,
        }
    }

    /// Reads the remaining image into one in-memory dump.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DumpReader::next_chunk`].
    pub fn read_to_memory(&mut self) -> Result<MemoryDump, DumpError> {
        let base = self.window_addr;
        let mut image = std::mem::take(&mut self.carry);
        while self.read_chunk_into(&mut image)?.is_some() {}
        self.window_addr += image.len() as u64;
        Ok(MemoryDump::new(image, base))
    }
}

impl<R: Read + Seek> DumpReader<R> {
    /// Rewinds to the first chunk, so the same file can feed several scan
    /// passes (mining, then key search) without reopening it.
    ///
    /// # Errors
    ///
    /// Any I/O failure from the underlying seek.
    pub fn rewind(&mut self) -> Result<(), DumpError> {
        self.inner.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
        self.next_chunk = 0;
        self.bytes_out = 0;
        self.carry.clear();
        self.window_addr = self.meta.base_addr;
        Ok(())
    }

    /// Positions the stream so the next window starts at image block
    /// `block` (clamped to the end of the image). Chunk headers carry the
    /// encoded payload length, so whole chunks before the target are
    /// seeked past without decoding; only the boundary chunk is decoded
    /// (and CRC-checked), its prefix discarded into the carry buffer.
    ///
    /// This is what lets a cluster worker serve a shard of a CBDF dump in
    /// `O(skipped chunks)` header reads instead of decoding the whole
    /// prefix.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DumpReader::next_chunk`], plus any I/O
    /// failure from the underlying seeks.
    pub fn seek_to_block(&mut self, block: u64) -> Result<(), DumpError> {
        let target = (block.saturating_mul(BLOCK_BYTES as u64)).min(self.meta.total_bytes);
        self.rewind()?;
        while self.bytes_out < target {
            let ch = self.read_chunk_header()?;
            let raw_len = u64::from(ch.raw_len);
            if self.bytes_out + raw_len <= target {
                // The whole chunk lies before the target: its header passed
                // the same checks the decode path runs; skip the payload.
                self.inner
                    .seek(SeekFrom::Current(i64::from(ch.encoded_len)))?;
                self.next_chunk += 1;
                self.bytes_out += raw_len;
            } else {
                // Boundary chunk: decode it through the validating path
                // and keep only the bytes at and past the target.
                self.inner
                    .seek(SeekFrom::Current(-(CHUNK_HEADER_BYTES as i64)))?;
                let prefix = (target - self.bytes_out) as usize;
                let mut buf = Vec::new();
                if self.read_chunk_into(&mut buf)?.is_none() {
                    break;
                }
                self.carry.extend_from_slice(&buf[prefix..]);
                break;
            }
        }
        self.window_addr = self.meta.base_addr + target;
        Ok(())
    }
}

/// Iterator over bounded-memory scan windows; yielded by
/// [`DumpReader::windows`].
pub struct Windows<R: Read> {
    reader: DumpReader<R>,
    window_blocks: usize,
    failed: bool,
}

impl<R: Read> Iterator for Windows<R> {
    type Item = Result<MemoryDump, DumpError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.reader.next_window(self.window_blocks) {
            Ok(Some(window)) => Some(Ok(window)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_image;
    use std::io::Cursor;

    fn sample_image(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| if i % 7 == 0 { 0 } else { (i * 31 % 256) as u8 })
            .collect()
    }

    fn encode(image: &[u8], chunk_blocks: u32, base_addr: u64) -> Vec<u8> {
        let meta = DumpMeta {
            chunk_blocks,
            ..DumpMeta::for_image(base_addr, image.len() as u64)
        };
        write_image(Vec::new(), meta, image).unwrap()
    }

    #[test]
    fn read_to_memory_roundtrips() {
        let image = sample_image(64 * 100);
        let file = encode(&image, 16, 0x8000);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        assert_eq!(r.meta().total_bytes, image.len() as u64);
        let dump = r.read_to_memory().unwrap();
        assert_eq!(dump.bytes(), &image[..]);
        assert_eq!(dump.base_addr(), 0x8000);
    }

    #[test]
    fn windows_tile_the_image_contiguously() {
        let image = sample_image(64 * 100);
        let file = encode(&image, 16, 0x8000);
        for window_blocks in [1, 3, 16, 33, 1000] {
            let r = DumpReader::new(Cursor::new(&file)).unwrap();
            let mut reassembled = Vec::new();
            let mut next_addr = 0x8000u64;
            for window in r.windows(window_blocks) {
                let window = window.unwrap();
                assert_eq!(window.base_addr(), next_addr);
                assert!(window.len() <= window_blocks * BLOCK_BYTES);
                next_addr += window.len() as u64;
                reassembled.extend_from_slice(window.bytes());
            }
            assert_eq!(reassembled, image, "window_blocks={window_blocks}");
        }
    }

    #[test]
    fn next_window_into_recycles_one_buffer_without_reallocating() {
        let image = sample_image(64 * 100);
        let file = encode(&image, 16, 0x8000);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        // Pre-grown to window + one chunk (a decode may overshoot the
        // window by up to a chunk before the tail moves to carry): the
        // whole pass must then reuse the buffer in place.
        let mut buf = Vec::with_capacity((3 + 16) * BLOCK_BYTES);
        let cap = buf.capacity();
        let mut reassembled = Vec::new();
        let mut next_addr = 0x8000u64;
        while let Some(addr) = r.next_window_into(3, &mut buf).unwrap() {
            assert_eq!(addr, next_addr);
            assert!(buf.len() <= 3 * BLOCK_BYTES);
            assert_eq!(buf.capacity(), cap, "window buffer must not regrow");
            next_addr += buf.len() as u64;
            reassembled.extend_from_slice(&buf);
        }
        assert_eq!(reassembled, image);
        assert!(r.next_window_into(3, &mut buf).unwrap().is_none());
        assert!(buf.is_empty(), "end of image clears the buffer");
    }

    #[test]
    fn rewind_replays_the_stream() {
        let image = sample_image(64 * 37);
        let file = encode(&image, 8, 0);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let first = r.read_to_memory().unwrap();
        r.rewind().unwrap();
        let second = r.read_to_memory().unwrap();
        assert_eq!(first.bytes(), second.bytes());
        assert_eq!(first.base_addr(), second.base_addr());
    }

    #[test]
    fn seek_to_block_resumes_anywhere() {
        let image = sample_image(64 * 100);
        // chunk_blocks=16 → chunk boundaries at blocks 0, 16, 32, ...
        let file = encode(&image, 16, 0x8000);
        // Chunk-aligned, mid-chunk, block 0, last block, and past the end.
        for block in [0u64, 1, 15, 16, 17, 50, 99, 100, 1000] {
            let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
            r.seek_to_block(block).unwrap();
            let rest = r.read_to_memory().unwrap();
            let at = (block as usize * 64).min(image.len());
            assert_eq!(rest.bytes(), &image[at..], "block={block}");
            assert_eq!(rest.base_addr(), 0x8000 + at as u64, "block={block}");
        }
    }

    #[test]
    fn seek_to_block_windows_match_skipped_windows() {
        let image = sample_image(64 * 100);
        let file = encode(&image, 16, 0x8000);
        // Windows read after a seek are identical to the tail of the
        // windows a full scan yields (same boundaries, same addresses).
        let wb = 7usize;
        let all: Vec<(u64, Vec<u8>)> = DumpReader::new(Cursor::new(&file))
            .unwrap()
            .windows(wb)
            .map(|w| {
                let w = w.unwrap();
                (w.base_addr(), w.bytes().to_vec())
            })
            .collect();
        let skip_blocks = 3 * wb as u64; // aligned with window boundaries
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        r.seek_to_block(skip_blocks).unwrap();
        let tail: Vec<(u64, Vec<u8>)> = r
            .windows(wb)
            .map(|w| {
                let w = w.unwrap();
                (w.base_addr(), w.bytes().to_vec())
            })
            .collect();
        assert_eq!(&all[3..], &tail[..]);
    }

    #[test]
    fn seek_to_block_still_detects_corruption_in_the_boundary_chunk() {
        let image = sample_image(64 * 40);
        let mut file = encode(&image, 4, 0);
        // Corrupt the payload of the chunk holding block 10 (chunk 2).
        // Chunks here are raw (sample_image is incompressible) so payload
        // offsets are deterministic: header + 2*(chunk header + 4 blocks).
        let chunk2_payload = HEADER_BYTES + 2 * (CHUNK_HEADER_BYTES + 4 * 64) + CHUNK_HEADER_BYTES;
        file[chunk2_payload + 5] ^= 0x20;
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let err = r.seek_to_block(10).unwrap_err();
        assert!(
            matches!(
                err,
                DumpError::ChunkCrc { chunk: 2 } | DumpError::RleCorrupt { chunk: 2 }
            ),
            "{err}"
        );
        // Seeking PAST a corrupt chunk is allowed (payload never read) —
        // that is the point of skipping.
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        r.seek_to_block(12).unwrap();
    }

    #[test]
    fn seek_to_block_checks_the_headers_of_skipped_chunks() {
        let image = sample_image(64 * 40);
        let file = encode(&image, 4, 0);
        // Chunk 1's header; seeking to block 12 skips chunks 0-2 unread.
        let chunk1 = HEADER_BYTES + CHUNK_HEADER_BYTES + 4 * 64;
        let mut bad_encoding = file.clone();
        bad_encoding[chunk1 + 16] = 9;
        let mut r = DumpReader::new(Cursor::new(&bad_encoding)).unwrap();
        assert!(matches!(
            r.seek_to_block(12),
            Err(DumpError::BadEncoding {
                chunk: 1,
                encoding: 9
            })
        ));
        // An RLE chunk whose encoded length exceeds the cap.
        let mut oversized = file.clone();
        oversized[chunk1 + 16] = ENCODING_ZERO_RLE;
        oversized[chunk1 + 8..chunk1 + 12].copy_from_slice(&(4 * 64 + 65u32).to_le_bytes());
        let mut r = DumpReader::new(Cursor::new(&oversized)).unwrap();
        assert!(matches!(
            r.seek_to_block(12),
            Err(DumpError::RleCorrupt { chunk: 1 })
        ));
    }

    #[test]
    fn empty_image_yields_no_windows() {
        let file = encode(&[], 16, 0);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        assert!(r.next_window(4).unwrap().is_none());
    }

    #[test]
    fn flipped_payload_bit_fails_chunk_crc() {
        let image = sample_image(64 * 20);
        let mut file = encode(&image, 4, 0);
        // Flip a bit inside the first chunk's payload.
        let offset = HEADER_BYTES + CHUNK_HEADER_BYTES + 3;
        file[offset] ^= 0x10;
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        let err = r.read_to_memory().unwrap_err();
        assert!(
            matches!(
                err,
                DumpError::ChunkCrc { chunk: 0 } | DumpError::RleCorrupt { chunk: 0 }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_detected() {
        let image = sample_image(64 * 20);
        let file = encode(&image, 4, 0);
        for cut in [
            HEADER_BYTES - 1,                       // inside the file header
            HEADER_BYTES + 5,                       // inside a chunk header
            HEADER_BYTES + CHUNK_HEADER_BYTES + 10, // inside a payload
            file.len() - 1,                         // just short of complete
        ] {
            let result =
                DumpReader::new(Cursor::new(&file[..cut])).and_then(|mut r| r.read_to_memory());
            assert!(
                matches!(result, Err(DumpError::Truncated(_))),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn spliced_chunk_order_is_detected() {
        let image = sample_image(64 * 20);
        let mut file = encode(&image, 4, 0);
        // Overwrite chunk 0's index field.
        file[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&7u32.to_le_bytes());
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        assert!(matches!(
            r.read_to_memory(),
            Err(DumpError::ChunkOrder {
                expected: 0,
                found: 7
            })
        ));
    }

    #[test]
    fn reader_metrics_classify_chunks_and_count_integrity_errors() {
        use crate::stats::ReaderMetrics;
        use coldboot_metrics::MetricsRegistry;

        // 4 zero chunks (RLE) then 4 incompressible chunks (raw).
        let mut image = vec![0u8; 64 * 64];
        image.extend((0..64 * 64).map(|i| (i % 251 + 1) as u8));
        let file = encode(&image, 16, 0);
        let registry = MetricsRegistry::new();
        let metrics = ReaderMetrics::register(&registry);
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        r.set_metrics(Arc::clone(&metrics));
        let observed = r.read_to_memory().unwrap();
        assert_eq!(observed.bytes(), &image[..]);
        assert_eq!(metrics.chunks_rle.get(), 4);
        assert_eq!(metrics.chunks_raw.get(), 4);
        assert_eq!(metrics.integrity_errors.get(), 0);
        assert_eq!(metrics.chunk_decode_us.count(), 8);

        // A flipped payload bit is fatal *and* counted. The file ends with
        // the last raw chunk's payload, so the final byte is inside it.
        let mut corrupt = file.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        let mut r = DumpReader::new(Cursor::new(&corrupt)).unwrap();
        r.set_metrics(Arc::clone(&metrics));
        assert!(r.read_to_memory().is_err());
        assert_eq!(metrics.integrity_errors.get(), 1);
    }

    #[test]
    fn unknown_encoding_is_rejected() {
        let image = sample_image(64 * 4);
        let mut file = encode(&image, 4, 0);
        file[HEADER_BYTES + 16] = 9;
        let mut r = DumpReader::new(Cursor::new(&file)).unwrap();
        assert!(matches!(
            r.read_to_memory(),
            Err(DumpError::BadEncoding {
                chunk: 0,
                encoding: 9
            })
        ));
    }
}
