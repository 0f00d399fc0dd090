//! Errors of the CBDF container layer.

use std::fmt;
use std::io;

/// Everything that can go wrong reading or writing a CBDF image.
#[derive(Debug)]
pub enum DumpError {
    /// An underlying I/O failure (other than a short read, which maps to
    /// [`DumpError::Truncated`]).
    Io(io::Error),
    /// The file does not start with the `CBDF` magic.
    BadMagic([u8; 4]),
    /// The container version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// A header field is internally inconsistent (bad CRC, misaligned
    /// base address, zero chunk size, ...).
    HeaderCorrupt(&'static str),
    /// The file ended before the data the header promises.
    Truncated(&'static str),
    /// Chunks arrived out of order — the stream was spliced or corrupted.
    ChunkOrder {
        /// The chunk index the reader expected next.
        expected: u32,
        /// The chunk index found in the stream.
        found: u32,
    },
    /// A chunk declares a length inconsistent with the header geometry.
    ChunkLength {
        /// The offending chunk's index.
        chunk: u32,
        /// The length the header geometry requires.
        expected: u32,
        /// The length the chunk declares.
        found: u32,
    },
    /// A chunk uses an encoding id this reader does not know.
    BadEncoding {
        /// The offending chunk's index.
        chunk: u32,
        /// The unknown encoding byte.
        encoding: u8,
    },
    /// A chunk's decoded bytes do not match its recorded CRC32.
    ChunkCrc {
        /// The offending chunk's index.
        chunk: u32,
    },
    /// A chunk's RLE stream is malformed (overshoots, underruns, or
    /// carries trailing garbage).
    RleCorrupt {
        /// The offending chunk's index.
        chunk: u32,
    },
    /// The writer was driven incorrectly (too much or too little data for
    /// the declared image size).
    WriterMisuse(&'static str),
    /// A length does not fit the container's 32-bit on-disk fields. The
    /// old behaviour was a silent `as u32` truncation that corrupted chunk
    /// headers on pathological geometries; now the write fails loudly.
    Oversize {
        /// What was being encoded when the limit was hit.
        what: &'static str,
        /// The length that overflowed the field.
        len: u64,
    },
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Io(e) => write!(f, "I/O error: {e}"),
            DumpError::BadMagic(m) => write!(
                f,
                "not a CBDF file (magic {:02x} {:02x} {:02x} {:02x})",
                m[0], m[1], m[2], m[3]
            ),
            DumpError::UnsupportedVersion(v) => write!(f, "unsupported CBDF version {v}"),
            DumpError::HeaderCorrupt(why) => write!(f, "corrupt CBDF header: {why}"),
            DumpError::Truncated(context) => write!(f, "truncated CBDF file: {context}"),
            DumpError::ChunkOrder { expected, found } => {
                write!(f, "chunk out of order: expected {expected}, found {found}")
            }
            DumpError::ChunkLength {
                chunk,
                expected,
                found,
            } => write!(
                f,
                "chunk {chunk} declares length {found}, header geometry requires {expected}"
            ),
            DumpError::BadEncoding { chunk, encoding } => {
                write!(f, "chunk {chunk} uses unknown encoding {encoding}")
            }
            DumpError::ChunkCrc { chunk } => write!(f, "chunk {chunk} failed its CRC32 check"),
            DumpError::RleCorrupt { chunk } => {
                write!(f, "chunk {chunk} carries a malformed zero-run RLE stream")
            }
            DumpError::WriterMisuse(why) => write!(f, "dump writer misuse: {why}"),
            DumpError::Oversize { what, len } => {
                write!(
                    f,
                    "{what} length {len} exceeds the container's 32-bit field"
                )
            }
        }
    }
}

impl std::error::Error for DumpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DumpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DumpError {
    fn from(e: io::Error) -> Self {
        // A short read while the header promises more data is a truncation,
        // the most common way a dump transfer fails in the field.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            DumpError::Truncated("unexpected end of stream")
        } else {
            DumpError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexpected_eof_maps_to_truncated() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(DumpError::from(eof), DumpError::Truncated(_)));
        let other = io::Error::new(io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(DumpError::from(other), DumpError::Io(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = DumpError::ChunkLength {
            chunk: 3,
            expected: 65536,
            found: 12,
        };
        let s = e.to_string();
        assert!(
            s.contains("chunk 3") && s.contains("65536") && s.contains("12"),
            "{s}"
        );
        assert!(DumpError::BadMagic(*b"ELF\x7f")
            .to_string()
            .contains("not a CBDF"));
        let oversize = DumpError::Oversize {
            what: "chunk payload",
            len: 1 << 33,
        }
        .to_string();
        assert!(
            oversize.contains("chunk payload") && oversize.contains("8589934592"),
            "{oversize}"
        );
    }
}
