//! Streaming CBDF writer.

use std::io::Write;

use crate::crc32::crc32;
use crate::error::DumpError;
use crate::format::{ChunkHeader, DumpMeta, ENCODING_RAW, ENCODING_ZERO_RLE};
use crate::rle;

/// Writes a CBDF image incrementally to any [`Write`] sink.
///
/// Feed capture data in arbitrary-sized pieces with [`DumpWriter::append`];
/// the writer buffers at most one chunk and emits each full chunk as it
/// completes, picking raw or zero-run RLE per chunk, whichever is smaller.
/// Call [`DumpWriter::finish`] once exactly `meta.total_bytes` have been
/// appended.
pub struct DumpWriter<W: Write> {
    inner: W,
    meta: DumpMeta,
    /// Bytes of the current, not-yet-full chunk.
    pending: Vec<u8>,
    next_chunk: u32,
    bytes_in: u64,
    finished: bool,
}

/// Converts a length into the container's 32-bit on-disk field.
///
/// `DumpMeta::validate` already bounds every geometry the writer accepts,
/// so this is defense in depth: if a future code path assembles an
/// oversized chunk anyway, the write fails with [`DumpError::Oversize`]
/// instead of silently truncating the header field (the old `as u32`
/// behaviour, which produced a structurally valid but unreadable file).
fn chunk_field(what: &'static str, len: usize) -> Result<u32, DumpError> {
    u32::try_from(len).map_err(|_| DumpError::Oversize {
        what,
        len: len as u64,
    })
}

/// Encodes and writes one chunk. Free function so the borrow of
/// `self.pending` need not outlive the call.
fn write_chunk<W: Write>(w: &mut W, index: u32, raw: &[u8]) -> Result<(), DumpError> {
    let encoded = rle::encode(raw);
    let (encoding, payload): (u8, &[u8]) = if encoded.len() < raw.len() {
        (ENCODING_ZERO_RLE, &encoded)
    } else {
        (ENCODING_RAW, raw)
    };
    let header = ChunkHeader {
        index,
        raw_len: chunk_field("chunk raw", raw.len())?,
        encoded_len: chunk_field("chunk payload", payload.len())?,
        crc: crc32(raw),
        encoding,
    };
    w.write_all(&header.encode())?;
    w.write_all(payload)?;
    Ok(())
}

impl<W: Write> DumpWriter<W> {
    /// Validates `meta` and writes the file header.
    ///
    /// # Errors
    ///
    /// [`DumpError::HeaderCorrupt`] for inconsistent metadata, or any I/O
    /// failure from the sink.
    pub fn new(mut inner: W, meta: DumpMeta) -> Result<Self, DumpError> {
        meta.validate()?;
        inner.write_all(&meta.encode())?;
        Ok(Self {
            inner,
            meta,
            pending: Vec::new(),
            next_chunk: 0,
            bytes_in: 0,
            finished: false,
        })
    }

    /// The metadata this writer was opened with.
    pub fn meta(&self) -> &DumpMeta {
        &self.meta
    }

    /// Bytes appended so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_in
    }

    /// Appends image bytes, flushing each chunk as it fills.
    ///
    /// # Errors
    ///
    /// [`DumpError::WriterMisuse`] when the append would exceed the
    /// declared `total_bytes`, or any I/O failure from the sink.
    pub fn append(&mut self, mut data: &[u8]) -> Result<(), DumpError> {
        if self.finished {
            return Err(DumpError::WriterMisuse("append after finish"));
        }
        if self.bytes_in + data.len() as u64 > self.meta.total_bytes {
            return Err(DumpError::WriterMisuse(
                "more data than the declared image size",
            ));
        }
        let chunk_bytes = self.meta.chunk_bytes();
        self.bytes_in += data.len() as u64;
        while !data.is_empty() {
            let room = chunk_bytes - self.pending.len();
            let take = room.min(data.len());
            self.pending.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.pending.len() == chunk_bytes {
                write_chunk(&mut self.inner, self.next_chunk, &self.pending)?;
                self.next_chunk += 1;
                self.pending.clear();
            }
        }
        Ok(())
    }

    /// Emits the trailing partial chunk (if any), flushes the sink, and
    /// returns it.
    ///
    /// # Errors
    ///
    /// [`DumpError::WriterMisuse`] when fewer than `total_bytes` were
    /// appended, or any I/O failure from the sink.
    pub fn finish(mut self) -> Result<W, DumpError> {
        if self.bytes_in < self.meta.total_bytes {
            return Err(DumpError::WriterMisuse(
                "finish before the declared image size was appended",
            ));
        }
        if !self.pending.is_empty() {
            write_chunk(&mut self.inner, self.next_chunk, &self.pending)?;
            self.pending.clear();
        }
        self.finished = true;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Writes a whole in-memory image in one call.
///
/// # Errors
///
/// Same failure modes as [`DumpWriter::new`], [`DumpWriter::append`], and
/// [`DumpWriter::finish`]; additionally [`DumpError::WriterMisuse`] when
/// `image.len() != meta.total_bytes`.
pub fn write_image<W: Write>(inner: W, meta: DumpMeta, image: &[u8]) -> Result<W, DumpError> {
    if image.len() as u64 != meta.total_bytes {
        return Err(DumpError::WriterMisuse(
            "image length disagrees with the declared size",
        ));
    }
    let mut w = DumpWriter::new(inner, meta)?;
    w.append(image)?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{CHUNK_HEADER_BYTES, HEADER_BYTES};

    fn meta_for(total: u64, chunk_blocks: u32) -> DumpMeta {
        DumpMeta {
            chunk_blocks,
            ..DumpMeta::for_image(0x4000, total)
        }
    }

    #[test]
    fn zero_image_costs_almost_nothing() {
        let image = vec![0u8; 1 << 20];
        let meta = meta_for(image.len() as u64, 1024);
        let out = write_image(Vec::new(), meta.clone(), &image).unwrap();
        // 16 chunks, each a handful of RLE bytes plus its header.
        let budget = HEADER_BYTES + meta.num_chunks() as usize * (CHUNK_HEADER_BYTES + 8);
        assert!(out.len() <= budget, "{} > {}", out.len(), budget);
    }

    #[test]
    fn incompressible_image_stays_raw() {
        let image: Vec<u8> = (0..8192u32).map(|i| (i % 251 + 1) as u8).collect();
        let meta = meta_for(image.len() as u64, 16); // 1 KiB chunks
        let out = write_image(Vec::new(), meta.clone(), &image).unwrap();
        let expected = HEADER_BYTES + meta.num_chunks() as usize * CHUNK_HEADER_BYTES + image.len();
        assert_eq!(out.len(), expected);
        // First chunk after the file header is marked raw.
        assert_eq!(out[HEADER_BYTES + 16], ENCODING_RAW);
    }

    #[test]
    fn append_in_odd_pieces_matches_one_shot() {
        let image: Vec<u8> = (0..10_240u32).map(|i| (i * 7 % 256) as u8).collect();
        let meta = meta_for(image.len() as u64, 8); // 512-byte chunks
        let one_shot = write_image(Vec::new(), meta.clone(), &image).unwrap();
        let mut w = DumpWriter::new(Vec::new(), meta).unwrap();
        for piece in image.chunks(333) {
            w.append(piece).unwrap();
        }
        assert_eq!(w.finish().unwrap(), one_shot);
    }

    #[test]
    fn oversized_lengths_error_instead_of_truncating() {
        // The old `as u32` cast mapped 2^32 to 0 and 2^32+12 to 12 — both
        // would have been written as plausible-looking headers. (Checked via
        // the length helper: allocating a real 4 GiB chunk in a test is not
        // reasonable, and `write_chunk` feeds every length through it.)
        assert_eq!(chunk_field("chunk raw", 65536).unwrap(), 65536);
        assert_eq!(
            chunk_field("chunk raw", u32::MAX as usize).unwrap(),
            u32::MAX
        );
        for pathological in [1usize << 32, (1 << 32) + 12] {
            match chunk_field("chunk raw", pathological) {
                Err(DumpError::Oversize { what, len }) => {
                    assert_eq!(what, "chunk raw");
                    assert_eq!(len, pathological as u64);
                }
                other => panic!("expected Oversize, got {other:?}"),
            }
        }
        // And the geometry that would *produce* such a chunk is rejected at
        // writer construction, before any bytes hit the sink.
        let meta = DumpMeta {
            chunk_blocks: 1 << 26,
            ..DumpMeta::for_image(0, 1 << 32)
        };
        assert!(matches!(
            DumpWriter::new(Vec::new(), meta),
            Err(DumpError::HeaderCorrupt(_))
        ));
    }

    #[test]
    fn misuse_is_rejected() {
        let meta = meta_for(128, 4);
        let mut w = DumpWriter::new(Vec::new(), meta.clone()).unwrap();
        w.append(&[1u8; 64]).unwrap();
        assert!(matches!(w.finish(), Err(DumpError::WriterMisuse(_))));
        let mut w = DumpWriter::new(Vec::new(), meta).unwrap();
        assert!(matches!(
            w.append(&[1u8; 200]),
            Err(DumpError::WriterMisuse(_))
        ));
    }
}
