//! Captured memory images.
//!
//! A [`MemoryDump`] is what the paper's bare-metal GRUB module produces: a
//! linear byte image of physical memory as seen through the (attacker's)
//! memory interface, annotated with the physical base address so block
//! indices map back to addresses.

use std::sync::Arc;

use coldboot_dram::BLOCK_BYTES;

/// A captured physical-memory image.
///
/// Cloning and [`MemoryDump::prefix`] share the backing storage; a dump
/// covers the first `len` bytes of it.
#[derive(Debug, Clone)]
pub struct MemoryDump {
    data: Arc<Vec<u8>>,
    len: usize,
    base_addr: u64,
}

impl MemoryDump {
    /// Wraps an image captured starting at physical address `base_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `base_addr` is not 64-byte aligned or the image is not a
    /// whole number of blocks (a real dump always is; trailing partial
    /// blocks would silently skew every block-indexed algorithm).
    pub fn new(data: Vec<u8>, base_addr: u64) -> Self {
        assert_eq!(
            base_addr % BLOCK_BYTES as u64,
            0,
            "dump base address must be block-aligned"
        );
        assert_eq!(
            data.len() % BLOCK_BYTES,
            0,
            "dump length must be a multiple of {BLOCK_BYTES}"
        );
        Self {
            len: data.len(),
            data: Arc::new(data),
            base_addr,
        }
    }

    /// The physical address of the first byte.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-byte blocks.
    ///
    /// Both the in-memory pipelines and the file-backed CBDF backend index
    /// work by block, so this (with [`MemoryDump::iter_blocks`]) is the
    /// canonical block-level view of an image.
    pub fn len_blocks(&self) -> usize {
        self.len / BLOCK_BYTES
    }

    /// Number of 64-byte blocks (alias of [`MemoryDump::len_blocks`]).
    pub fn block_count(&self) -> usize {
        self.len_blocks()
    }

    /// The `i`-th block as a fixed-size array reference.
    ///
    /// # Panics
    ///
    /// Panics if `i >= block_count()`.
    pub fn block(&self, i: usize) -> &[u8; BLOCK_BYTES] {
        self.bytes()[i * BLOCK_BYTES..(i + 1) * BLOCK_BYTES]
            .try_into()
            // lint:allow(panic): the slice above is exactly BLOCK_BYTES long
            .expect("slice is exactly one block")
    }

    /// The physical address of block `i`.
    pub fn block_addr(&self, i: usize) -> u64 {
        self.base_addr + (i * BLOCK_BYTES) as u64
    }

    /// The block index containing physical address `addr`, if it lies in
    /// this dump.
    pub fn block_index_of(&self, addr: u64) -> Option<usize> {
        if addr < self.base_addr {
            return None;
        }
        let idx = ((addr - self.base_addr) / BLOCK_BYTES as u64) as usize;
        (idx < self.block_count()).then_some(idx)
    }

    /// Raw bytes for physical address range `[addr, addr + len)`, if fully
    /// contained.
    pub fn slice_at(&self, addr: u64, len: usize) -> Option<&[u8]> {
        if addr < self.base_addr {
            return None;
        }
        let start = (addr - self.base_addr) as usize;
        let end = start.checked_add(len)?;
        self.bytes().get(start..end)
    }

    /// Iterates over `(physical address, block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, &[u8; BLOCK_BYTES])> + '_ {
        (0..self.len_blocks()).map(move |i| (self.block_addr(i), self.block(i)))
    }

    /// Iterates over `(physical address, block)` pairs (alias of
    /// [`MemoryDump::iter_blocks`]).
    pub fn blocks(&self) -> impl Iterator<Item = (u64, &[u8; BLOCK_BYTES])> + '_ {
        self.iter_blocks()
    }

    /// The whole image.
    pub fn bytes(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// Reclaims the image's backing storage as a `Vec<u8>`.
    ///
    /// Zero-copy when this dump holds the sole reference to its storage
    /// (the common case for windows built from a freshly read buffer);
    /// shared storage is copied. The streaming scan driver uses this to
    /// cycle a scanned window's buffer back to its decode thread.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.data) {
            Ok(mut data) => {
                data.truncate(self.len);
                data
            }
            Err(shared) => shared[..self.len].to_vec(),
        }
    }

    /// A sub-dump covering the first `len` bytes (cheap; shares storage).
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a multiple of the block size or exceeds the
    /// image.
    pub fn prefix(&self, len: usize) -> MemoryDump {
        assert!(len <= self.len, "prefix longer than dump");
        assert_eq!(
            len % BLOCK_BYTES,
            0,
            "dump length must be a multiple of {BLOCK_BYTES}"
        );
        MemoryDump {
            data: Arc::clone(&self.data),
            len,
            base_addr: self.base_addr,
        }
    }
}

/// XOR of two 64-byte blocks — the descramble primitive.
///
/// Shared by the DDR3 universal-key pipeline and the §III-A analysis
/// framework, which used to hand-roll this loop.
#[inline]
pub fn xor_block(a: &[u8; BLOCK_BYTES], b: &[u8; BLOCK_BYTES]) -> [u8; BLOCK_BYTES] {
    let mut out = [0u8; BLOCK_BYTES];
    for i in 0..BLOCK_BYTES {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryDump {
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        MemoryDump::new(data, 0x1000)
    }

    #[test]
    fn block_addressing() {
        let d = sample();
        assert_eq!(d.block_count(), 4);
        assert_eq!(d.block_addr(2), 0x1080);
        assert_eq!(d.block(1)[0], 64);
    }

    #[test]
    fn block_index_of_bounds() {
        let d = sample();
        assert_eq!(d.block_index_of(0x1000), Some(0));
        assert_eq!(d.block_index_of(0x10FF), Some(3));
        assert_eq!(d.block_index_of(0x1100), None);
        assert_eq!(d.block_index_of(0xFFF), None);
    }

    #[test]
    fn slice_at_ranges() {
        let d = sample();
        assert_eq!(d.slice_at(0x1001, 3), Some(&[1u8, 2, 3][..]));
        assert!(d.slice_at(0x10FE, 3).is_none());
        assert!(d.slice_at(0x0, 1).is_none());
    }

    #[test]
    fn blocks_iterator_covers_all() {
        let d = sample();
        let addrs: Vec<u64> = d.blocks().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10C0]);
    }

    #[test]
    fn prefix_shares_base() {
        let d = sample();
        let p = d.prefix(128);
        assert_eq!(p.block_count(), 2);
        assert_eq!(p.base_addr(), 0x1000);
    }

    #[test]
    fn len_blocks_and_iter_blocks_match_legacy_names() {
        let d = sample();
        assert_eq!(d.len_blocks(), d.block_count());
        let a: Vec<u64> = d.iter_blocks().map(|(addr, _)| addr).collect();
        let b: Vec<u64> = d.blocks().map(|(addr, _)| addr).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn into_vec_round_trips_the_image() {
        let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let d = MemoryDump::new(data.clone(), 0x40);
        assert_eq!(d.into_vec(), data);
        // Shared storage still yields the right bytes (by copy).
        let d = MemoryDump::new(data.clone(), 0x40);
        let clone = d.clone();
        assert_eq!(d.into_vec(), data);
        assert_eq!(clone.bytes(), &data[..]);
        // A prefix view shares storage, and once it is gone the sole owner
        // reclaims the buffer without a copy.
        let d = MemoryDump::new(data.clone(), 0x40);
        let storage = d.bytes().as_ptr();
        let p = d.prefix(64);
        assert_eq!(p.bytes().as_ptr(), storage);
        assert_eq!(p.into_vec(), &data[..64]);
        let reclaimed = d.into_vec();
        assert_eq!(reclaimed.as_ptr(), storage);
    }

    #[test]
    fn xor_block_is_involutive() {
        let a: [u8; BLOCK_BYTES] = core::array::from_fn(|i| i as u8);
        let b: [u8; BLOCK_BYTES] = core::array::from_fn(|i| (i as u8).wrapping_mul(7) ^ 0x5A);
        let x = xor_block(&a, &b);
        assert_ne!(x, a);
        assert_eq!(xor_block(&x, &b), a);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn rejects_unaligned_base() {
        MemoryDump::new(vec![0u8; 64], 1);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn rejects_partial_blocks() {
        MemoryDump::new(vec![0u8; 65], 0);
    }
}
