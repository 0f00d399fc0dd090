//! Zero-run RLE: the CBDF chunk encoding for zero-dominated memory.
//!
//! An idle machine's RAM is mostly zero-filled pages — which is exactly
//! why the cold boot attack works (zero blocks expose the scrambler
//! keystream) and exactly what makes raw dumps wastefully large. The
//! encoding is a flat sequence of records:
//!
//! ```text
//! record := varint(zero_len) varint(lit_len) lit_len literal bytes
//! ```
//!
//! decoded as `zero_len` zero bytes followed by the literal bytes, until
//! exactly the chunk's raw length has been produced. Varints are LEB128.
//! A zero-filled chunk encodes to ~4 bytes; high-entropy chunks grow by a
//! couple of bytes and are stored raw instead (the writer picks whichever
//! is smaller, per chunk).

/// Zero runs shorter than this stay inside a literal record: a run record
/// costs at least two varint bytes, so tiny runs are not worth breaking a
/// literal for.
const MIN_ZERO_RUN: usize = 8;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint; returns `(value, bytes consumed)`.
fn read_varint(data: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in data.iter().enumerate().take(10) {
        let payload = u64::from(byte & 0x7F);
        // The 10th byte may only carry the final bit of a u64.
        if i == 9 && byte > 1 {
            return None;
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Encodes `raw` as a zero-run RLE stream.
pub fn encode(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        // Zero run — emitted as a run when long enough to pay for its
        // record overhead, or when it finishes the chunk.
        let mut j = i;
        while j < raw.len() && raw[j] == 0 {
            j += 1;
        }
        let zeros = if j - i >= MIN_ZERO_RUN || j == raw.len() {
            j - i
        } else {
            0
        };
        if zeros > 0 {
            i = j;
        }
        // Literal run — up to the next zero run worth encoding.
        let lit_start = i;
        while i < raw.len() {
            if raw[i] != 0 {
                i += 1;
                continue;
            }
            let mut k = i;
            while k < raw.len() && raw[k] == 0 {
                k += 1;
            }
            if k - i >= MIN_ZERO_RUN || k == raw.len() {
                break;
            }
            i = k; // short interior run: keep it literal
        }
        write_varint(&mut out, zeros as u64);
        write_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&raw[lit_start..i]);
    }
    out
}

/// Decodes an RLE stream that must produce exactly `raw_len` bytes.
///
/// Returns `None` on any malformation: a record overshooting `raw_len`,
/// literal bytes missing from the stream, trailing bytes after the final
/// record, or a record that makes no progress.
pub fn decode(encoded: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    decode_into(encoded, raw_len, &mut out)?;
    Some(out)
}

/// Appends exactly `raw_len` decoded bytes to `out`, reusing whatever
/// capacity the caller's buffer already holds — the steady-state decode
/// path allocates nothing once the scratch vector has grown to chunk
/// size. Rejects the same malformations as [`decode`]; on failure `out`
/// may hold a partial record and the caller must discard or truncate it.
pub fn decode_into(encoded: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Option<()> {
    let base = out.len();
    out.reserve(raw_len);
    let mut pos = 0;
    while out.len() - base < raw_len {
        let (zeros, n) = read_varint(&encoded[pos..])?;
        pos += n;
        let (lit, n) = read_varint(&encoded[pos..])?;
        pos += n;
        let zeros = usize::try_from(zeros).ok()?;
        let lit = usize::try_from(lit).ok()?;
        if zeros == 0 && lit == 0 {
            return None; // no progress: the stream could loop forever
        }
        let after = (out.len() - base).checked_add(zeros)?.checked_add(lit)?;
        if after > raw_len {
            return None;
        }
        out.resize(out.len() + zeros, 0);
        let bytes = encoded.get(pos..pos + lit)?;
        out.extend_from_slice(bytes);
        pos += lit;
    }
    if pos != encoded.len() {
        return None; // trailing garbage
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) {
        let enc = encode(raw);
        assert_eq!(decode(&enc, raw.len()).as_deref(), Some(raw));
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"hello");
        roundtrip(&[0u8; 1000]);
        roundtrip(&[1u8; 1000]);
        let mut mixed = vec![0u8; 64];
        mixed.extend_from_slice(&[7u8; 3]);
        mixed.extend_from_slice(&[0u8; 5]); // short interior run stays literal
        mixed.extend_from_slice(&[9u8; 10]);
        mixed.extend_from_slice(&[0u8; 200]);
        roundtrip(&mixed);
        // Trailing short zero run.
        roundtrip(&[1, 2, 3, 0, 0]);
        // Leading short zero run.
        roundtrip(&[0, 0, 1, 2, 3]);
    }

    #[test]
    fn zero_chunks_collapse() {
        let enc = encode(&[0u8; 64 * 1024]);
        assert!(enc.len() <= 8, "zero chunk encoded to {} bytes", enc.len());
    }

    #[test]
    fn incompressible_overhead_is_tiny() {
        let raw: Vec<u8> = (0..4096).map(|i| (i % 251 + 1) as u8).collect();
        let enc = encode(&raw);
        assert!(
            enc.len() <= raw.len() + 8,
            "overhead {}",
            enc.len() - raw.len()
        );
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(read_varint(&buf), Some((v, buf.len())));
        }
    }

    #[test]
    fn decode_into_appends_and_reuses_capacity() {
        let raw: Vec<u8> = (0..300)
            .map(|i| (i % 17) as u8 * ((i % 9 != 0) as u8))
            .collect();
        let enc = encode(&raw);
        let mut out = b"prefix".to_vec();
        out.reserve(4096);
        let cap = out.capacity();
        assert_eq!(decode_into(&enc, raw.len(), &mut out), Some(()));
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &raw[..]);
        assert_eq!(out.capacity(), cap, "decode_into must not reallocate");
        // A failed decode leaves the prefix intact (callers truncate).
        let mut bad = b"xy".to_vec();
        assert_eq!(decode_into(&enc, raw.len() + 1, &mut bad), None);
        assert_eq!(&bad[..2], b"xy");
    }

    #[test]
    fn decode_rejects_malformed_streams() {
        // Record overshooting raw_len.
        let mut overshoot = Vec::new();
        write_varint(&mut overshoot, 100);
        write_varint(&mut overshoot, 0);
        assert_eq!(decode(&overshoot, 10), None);
        // Literal bytes missing.
        let mut short_lit = Vec::new();
        write_varint(&mut short_lit, 0);
        write_varint(&mut short_lit, 5);
        short_lit.extend_from_slice(&[1, 2]);
        assert_eq!(decode(&short_lit, 5), None);
        // Trailing garbage after the final record.
        let mut trailing = encode(&[0u8; 16]);
        trailing.push(0xAA);
        assert_eq!(decode(&trailing, 16), None);
        // Zero-progress record.
        let mut stuck = Vec::new();
        write_varint(&mut stuck, 0);
        write_varint(&mut stuck, 0);
        assert_eq!(decode(&stuck, 4), None);
        // Truncated varint.
        assert_eq!(decode(&[0x80], 4), None);
        // Empty stream for a nonzero length.
        assert_eq!(decode(&[], 4), None);
    }
}
