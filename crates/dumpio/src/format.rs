//! The CBDF on-disk layout: file header and chunk headers.
//!
//! ```text
//! file   := header chunk*
//! header := magic "CBDF" | version u16 | reserved u16
//!         | serial u64 | base_addr u64 | total_bytes u64
//!         | chunk_blocks u32
//!         | geometry 6 x u32 (all-zero = unknown)
//!         | capture_temp_c f64 | transfer_seconds f64
//!         | header_crc u32            (CRC32 of the 76 bytes before it)
//! chunk  := index u32 | raw_len u32 | encoded_len u32 | crc u32
//!         | encoding u8 | reserved [u8; 3]
//!         | encoded_len payload bytes
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns.
//! Every chunk holds `chunk_blocks` 64-byte blocks of the image except the
//! last, which holds the remainder. `crc` covers the chunk's **decoded**
//! bytes, so corruption is caught whichever encoding carried them.

use crate::crc32::crc32;
use crate::error::DumpError;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::BLOCK_BYTES;

/// The file magic.
pub const MAGIC: [u8; 4] = *b"CBDF";

/// The container version this crate reads and writes.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 80;

/// Fixed chunk-header size in bytes.
pub const CHUNK_HEADER_BYTES: usize = 20;

/// Default chunk size: 1024 blocks = 64 KiB of image per chunk.
pub const DEFAULT_CHUNK_BLOCKS: u32 = 1024;

/// Chunk payload is the raw image bytes.
pub const ENCODING_RAW: u8 = 0;

/// Chunk payload is a zero-run RLE stream ([`crate::rle`]).
pub const ENCODING_ZERO_RLE: u8 = 1;

/// Capture metadata carried by the CBDF header.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpMeta {
    /// Serial number of the dumped module (0 when unknown).
    pub serial: u64,
    /// Physical address of the image's first byte (64-byte aligned).
    pub base_addr: u64,
    /// Image length in bytes (a whole number of 64-byte blocks).
    pub total_bytes: u64,
    /// Blocks per chunk.
    pub chunk_blocks: u32,
    /// DRAM organization of the dumped module, when known.
    pub geometry: Option<DramGeometry>,
    /// Module temperature at capture (°C) — how hard the DIMM was frozen.
    pub capture_temp_c: f64,
    /// Unpowered transfer time between machines (seconds) — together with
    /// the temperature, this bounds the decay the analysis must tolerate.
    pub transfer_seconds: f64,
}

impl DumpMeta {
    /// Minimal metadata for an anonymous in-memory image: no module
    /// serial, no geometry, room-temperature capture, default chunking.
    pub fn for_image(base_addr: u64, total_bytes: u64) -> Self {
        Self {
            serial: 0,
            base_addr,
            total_bytes,
            chunk_blocks: DEFAULT_CHUNK_BLOCKS,
            geometry: None,
            capture_temp_c: coldboot_dram::module::OPERATING_TEMP_C,
            transfer_seconds: 0.0,
        }
    }

    /// Bytes per full chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_blocks as usize * BLOCK_BYTES
    }

    /// Number of chunks the image occupies (the last may be partial).
    pub fn num_chunks(&self) -> u64 {
        self.total_bytes.div_ceil(self.chunk_bytes() as u64)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`DumpError::HeaderCorrupt`] when the base address or length is not
    /// block-aligned, the chunk size is zero, or the geometry overflows the
    /// chunk headers' 32-bit length/index fields (the overflow used to slip
    /// through as a silent `as u32` truncation in the writer).
    pub fn validate(&self) -> Result<(), DumpError> {
        if self.base_addr % BLOCK_BYTES as u64 != 0 {
            return Err(DumpError::HeaderCorrupt("base address not block-aligned"));
        }
        if self.total_bytes % BLOCK_BYTES as u64 != 0 {
            return Err(DumpError::HeaderCorrupt(
                "image length not a whole number of blocks",
            ));
        }
        if self.chunk_blocks == 0 {
            return Err(DumpError::HeaderCorrupt("chunk size is zero"));
        }
        if self.chunk_bytes() as u64 > u32::MAX as u64 {
            return Err(DumpError::HeaderCorrupt(
                "chunk size exceeds the 32-bit chunk length field",
            ));
        }
        if self.num_chunks() > u32::MAX as u64 {
            return Err(DumpError::HeaderCorrupt(
                "image needs more chunks than the 32-bit index field",
            ));
        }
        Ok(())
    }

    /// Serializes the header, computing its CRC.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut h = [0u8; HEADER_BYTES];
        h[0..4].copy_from_slice(&MAGIC);
        h[4..6].copy_from_slice(&VERSION.to_le_bytes());
        // h[6..8] reserved, zero.
        h[8..16].copy_from_slice(&self.serial.to_le_bytes());
        h[16..24].copy_from_slice(&self.base_addr.to_le_bytes());
        h[24..32].copy_from_slice(&self.total_bytes.to_le_bytes());
        h[32..36].copy_from_slice(&self.chunk_blocks.to_le_bytes());
        let g = self.geometry.map_or([0u32; 6], |g| {
            [
                g.channels,
                g.ranks,
                g.bank_groups,
                g.banks_per_group,
                g.rows,
                g.blocks_per_row,
            ]
        });
        for (i, dim) in g.iter().enumerate() {
            h[36 + i * 4..40 + i * 4].copy_from_slice(&dim.to_le_bytes());
        }
        h[60..68].copy_from_slice(&self.capture_temp_c.to_bits().to_le_bytes());
        h[68..76].copy_from_slice(&self.transfer_seconds.to_bits().to_le_bytes());
        let crc = crc32(&h[0..76]);
        h[76..80].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Parses and validates a header.
    ///
    /// # Errors
    ///
    /// [`DumpError::BadMagic`], [`DumpError::UnsupportedVersion`], or
    /// [`DumpError::HeaderCorrupt`] (CRC mismatch or inconsistent fields).
    pub fn decode(h: &[u8; HEADER_BYTES]) -> Result<Self, DumpError> {
        let u16_at = |o: usize| u16::from_le_bytes([h[o], h[o + 1]]);
        let u32_at = |o: usize| u32::from_le_bytes([h[o], h[o + 1], h[o + 2], h[o + 3]]);
        let u64_at = |o: usize| {
            u64::from_le_bytes([
                h[o],
                h[o + 1],
                h[o + 2],
                h[o + 3],
                h[o + 4],
                h[o + 5],
                h[o + 6],
                h[o + 7],
            ])
        };
        if h[0..4] != MAGIC {
            return Err(DumpError::BadMagic([h[0], h[1], h[2], h[3]]));
        }
        let version = u16_at(4);
        if version != VERSION {
            return Err(DumpError::UnsupportedVersion(version));
        }
        if u32_at(76) != crc32(&h[0..76]) {
            return Err(DumpError::HeaderCorrupt("header CRC mismatch"));
        }
        let dims = [
            u32_at(36),
            u32_at(40),
            u32_at(44),
            u32_at(48),
            u32_at(52),
            u32_at(56),
        ];
        let geometry = if dims == [0; 6] {
            None
        } else {
            Some(DramGeometry {
                channels: dims[0],
                ranks: dims[1],
                bank_groups: dims[2],
                banks_per_group: dims[3],
                rows: dims[4],
                blocks_per_row: dims[5],
            })
        };
        let meta = Self {
            serial: u64_at(8),
            base_addr: u64_at(16),
            total_bytes: u64_at(24),
            chunk_blocks: u32_at(32),
            geometry,
            capture_temp_c: f64::from_bits(u64_at(60)),
            transfer_seconds: f64::from_bits(u64_at(68)),
        };
        meta.validate()?;
        Ok(meta)
    }
}

/// One chunk's header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Zero-based chunk index.
    pub index: u32,
    /// Decoded (image) byte count.
    pub raw_len: u32,
    /// On-disk payload byte count.
    pub encoded_len: u32,
    /// CRC32 of the decoded bytes.
    pub crc: u32,
    /// [`ENCODING_RAW`] or [`ENCODING_ZERO_RLE`].
    pub encoding: u8,
}

impl ChunkHeader {
    /// Serializes the chunk header.
    pub fn encode(&self) -> [u8; CHUNK_HEADER_BYTES] {
        let mut h = [0u8; CHUNK_HEADER_BYTES];
        h[0..4].copy_from_slice(&self.index.to_le_bytes());
        h[4..8].copy_from_slice(&self.raw_len.to_le_bytes());
        h[8..12].copy_from_slice(&self.encoded_len.to_le_bytes());
        h[12..16].copy_from_slice(&self.crc.to_le_bytes());
        h[16] = self.encoding;
        h
    }

    /// Parses a chunk header (field validation happens in the reader,
    /// which knows the expected geometry).
    pub fn decode(h: &[u8; CHUNK_HEADER_BYTES]) -> Self {
        let u32_at = |o: usize| u32::from_le_bytes([h[o], h[o + 1], h[o + 2], h[o + 3]]);
        Self {
            index: u32_at(0),
            raw_len: u32_at(4),
            encoded_len: u32_at(8),
            crc: u32_at(12),
            encoding: h[16],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> DumpMeta {
        DumpMeta {
            serial: 0xDEAD_BEEF,
            base_addr: 0x1_0000,
            total_bytes: 1 << 20,
            chunk_blocks: 512,
            geometry: Some(DramGeometry::tiny_test()),
            capture_temp_c: -25.0,
            transfer_seconds: 5.0,
        }
    }

    #[test]
    fn header_roundtrip() {
        let meta = sample_meta();
        assert_eq!(DumpMeta::decode(&meta.encode()).unwrap(), meta);
        let anon = DumpMeta::for_image(0, 4096);
        assert_eq!(DumpMeta::decode(&anon.encode()).unwrap(), anon);
        assert_eq!(anon.geometry, None);
    }

    #[test]
    fn header_crc_detects_corruption() {
        let mut h = sample_meta().encode();
        h[20] ^= 1;
        assert!(matches!(
            DumpMeta::decode(&h),
            Err(DumpError::HeaderCorrupt("header CRC mismatch"))
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut h = sample_meta().encode();
        h[0] = b'X';
        assert!(matches!(DumpMeta::decode(&h), Err(DumpError::BadMagic(_))));
        let mut h = sample_meta().encode();
        h[4..6].copy_from_slice(&9u16.to_le_bytes());
        // CRC is checked only after the version gate, so a future version
        // with a different layout still errors cleanly.
        assert!(matches!(
            DumpMeta::decode(&h),
            Err(DumpError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn validation_rejects_misalignment() {
        let mut meta = sample_meta();
        meta.base_addr = 7;
        assert!(meta.validate().is_err());
        let mut meta = sample_meta();
        meta.total_bytes = 100;
        assert!(meta.validate().is_err());
        let mut meta = sample_meta();
        meta.chunk_blocks = 0;
        assert!(meta.validate().is_err());
    }

    #[test]
    fn validation_rejects_32bit_field_overflow() {
        // chunk_blocks * 64 must fit the u32 raw_len field. 2^26 blocks is
        // exactly 2^32 bytes — one past the largest encodable chunk.
        let mut meta = sample_meta();
        meta.chunk_blocks = 1 << 26;
        assert!(matches!(
            meta.validate(),
            Err(DumpError::HeaderCorrupt(why)) if why.contains("chunk size")
        ));
        meta.chunk_blocks = (1 << 26) - 1;
        assert!(meta.validate().is_ok(), "largest encodable chunk is fine");

        // And the chunk *count* must fit the u32 index field: single-block
        // chunks over a 2^38+ byte image need 2^32 chunks.
        let mut meta = sample_meta();
        meta.chunk_blocks = 1;
        meta.total_bytes = (u32::MAX as u64 + 1) * BLOCK_BYTES as u64;
        assert!(matches!(
            meta.validate(),
            Err(DumpError::HeaderCorrupt(why)) if why.contains("chunks")
        ));
        meta.total_bytes -= BLOCK_BYTES as u64;
        assert!(meta.validate().is_ok());
        // A header carrying the overflow is rejected on decode too (the
        // *reader's* defense — it never trusts an unvalidated geometry).
        meta.total_bytes += BLOCK_BYTES as u64;
        assert!(DumpMeta::decode(&meta.encode()).is_err());
    }

    #[test]
    fn chunk_counts() {
        let mut meta = sample_meta();
        meta.chunk_blocks = 1024; // 64 KiB chunks
        meta.total_bytes = 1 << 20;
        assert_eq!(meta.num_chunks(), 16);
        meta.total_bytes = (1 << 20) + 64;
        assert_eq!(meta.num_chunks(), 17);
        meta.total_bytes = 0;
        assert_eq!(meta.num_chunks(), 0);
    }

    #[test]
    fn chunk_header_roundtrip() {
        let ch = ChunkHeader {
            index: 3,
            raw_len: 65536,
            encoded_len: 12,
            crc: 0x1234_5678,
            encoding: ENCODING_ZERO_RLE,
        };
        assert_eq!(ChunkHeader::decode(&ch.encode()), ch);
    }
}
