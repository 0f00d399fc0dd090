//! The AES key schedule, including the non-standard directions the cold
//! boot attack needs:
//!
//! * [`KeySchedule::expand`] — the ordinary FIPS-197 forward expansion.
//! * [`KeySchedule::reconstruct`] — rebuild the *entire* schedule (and hence
//!   the master key) from any window of `Nk` consecutive schedule words at a
//!   known absolute position. This is what turns "I found three consecutive
//!   round keys in a 64-byte DRAM block" into "I have the disk key".

use std::fmt;

use crate::aes::sbox::{rot_word, sub_word};
use crate::InvalidKeyLengthError;

/// AES key size variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// All key sizes, largest first (the order the attack scans in).
    pub const ALL: [KeySize; 3] = [KeySize::Aes256, KeySize::Aes192, KeySize::Aes128];

    /// Number of 32-bit words in the cipher key (`Nk`).
    #[inline]
    pub const fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    /// Number of rounds (`Nr`).
    #[inline]
    pub const fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Length of the cipher key in bytes.
    #[inline]
    pub const fn key_len(self) -> usize {
        self.nk() * 4
    }

    /// Total number of 32-bit words in the expanded schedule
    /// (`4 * (Nr + 1)`).
    #[inline]
    pub const fn schedule_words(self) -> usize {
        4 * (self.rounds() + 1)
    }

    /// Total length of the expanded schedule in bytes (176/208/240).
    #[inline]
    pub const fn schedule_len(self) -> usize {
        self.schedule_words() * 4
    }

    /// Determines the key size from a key length in bytes.
    pub fn from_key_len(len: usize) -> Result<Self, InvalidKeyLengthError> {
        match len {
            16 => Ok(KeySize::Aes128),
            24 => Ok(KeySize::Aes192),
            32 => Ok(KeySize::Aes256),
            other => Err(InvalidKeyLengthError {
                supplied: other,
                expected: &[16, 24, 32],
            }),
        }
    }
}

/// Round constants for the expansion, as word values:
/// `RCON[j] = x^(j-1) << 24` in GF(2⁸) (index 0 is unused padding).
///
/// Precomputed because [`expansion_step`] sits in the attack's innermost
/// scan loop.
const RCON: [u32; 16] = build_rcon();

const fn build_rcon() -> [u32; 16] {
    let mut table = [0u32; 16];
    let mut v = 1u8;
    let mut j = 1usize;
    while j < 16 {
        table[j] = (v as u32) << 24;
        v = crate::gf::xtime(v);
        j += 1;
    }
    table
}

/// Round constant for expansion step `j = i / Nk` (1-based), as the high
/// byte of a word: `rcon(j) = x^(j-1) << 24` in GF(2⁸).
///
/// Public because the attack's scan loop specializes the expansion check by
/// Rcon phase.
///
/// # Panics
///
/// Panics (in debug builds) if `j` is outside `1..16`.
#[inline]
pub fn rcon(j: usize) -> u32 {
    debug_assert!((1..16).contains(&j));
    RCON[j]
}

/// Computes one step of the FIPS-197 key expansion recurrence: the word at
/// absolute index `i` is `w[i - Nk] ^ expansion_step(size, i, w[i - 1])`.
///
/// Exposed as a primitive so hot scan loops (the cold boot attack's AES key
/// litmus test runs this millions of times per megabyte) can extend
/// schedules word-at-a-time without allocating.
///
/// ```
/// use coldboot_crypto::aes::key_schedule::{expansion_step, KeySchedule, KeySize};
/// let ks = KeySchedule::expand(&[7u8; 32])?;
/// let w = ks.words();
/// assert_eq!(w[8] ^ expansion_step(KeySize::Aes256, 8, w[7]), w[0]);
/// # Ok::<(), coldboot_crypto::InvalidKeyLengthError>(())
/// ```
#[inline]
pub fn expansion_step(size: KeySize, i: usize, prev: u32) -> u32 {
    let nk = size.nk();
    if i.is_multiple_of(nk) {
        sub_word(rot_word(prev)) ^ rcon(i / nk)
    } else if nk > 6 && i % nk == 4 {
        sub_word(prev)
    } else {
        prev
    }
}

/// A fully expanded AES key schedule.
///
/// Holds every round key, so it is exactly the in-memory image the cold
/// boot attack mines for: `Debug` redacts the words and `Drop` zeroizes
/// them before the allocation is freed.
#[derive(Clone, PartialEq, Eq)]
pub struct KeySchedule {
    size: KeySize,
    words: Vec<u32>,
}

impl fmt::Debug for KeySchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeySchedule")
            .field("size", &self.size)
            .field("words", &"[redacted]")
            .finish()
    }
}

impl Drop for KeySchedule {
    fn drop(&mut self) {
        // Best-effort zeroization: `#![forbid(unsafe_code)]` rules out
        // volatile writes, so pin the cleared buffer with `black_box` to
        // keep the optimizer from eliding the stores. Simulation-grade —
        // see DESIGN.md ("Static analysis").
        for w in self.words.iter_mut() {
            *w = 0;
        }
        std::hint::black_box(&self.words);
    }
}

impl KeySchedule {
    /// Expands a cipher key into the full schedule.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLengthError`] if `key` is not 16, 24, or 32 bytes.
    ///
    /// ```
    /// use coldboot_crypto::aes::KeySchedule;
    /// let ks = KeySchedule::expand(&[0u8; 16])?;
    /// assert_eq!(ks.round_count(), 10);
    /// # Ok::<(), coldboot_crypto::InvalidKeyLengthError>(())
    /// ```
    pub fn expand(key: &[u8]) -> Result<Self, InvalidKeyLengthError> {
        let size = KeySize::from_key_len(key.len())?;
        let nk = size.nk();
        let total = size.schedule_words();
        let mut words = Vec::with_capacity(total);
        for chunk in key.chunks_exact(4) {
            words.push(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        for i in nk..total {
            let temp = expansion_step(size, i, words[i - 1]);
            words.push(words[i - nk] ^ temp);
        }
        Ok(Self { size, words })
    }

    /// Reconstructs the full schedule from `Nk` consecutive schedule words
    /// located at absolute word index `start`.
    ///
    /// The forward direction applies the ordinary recurrence; the backward
    /// direction inverts it (`w[i] = w[i+Nk] ^ temp(w[i+Nk-1])`), which is
    /// possible because `temp` only consumes *later* words when walking
    /// downward.
    ///
    /// Returns `None` if `start + Nk` exceeds the schedule length.
    pub fn reconstruct(size: KeySize, window: &[u32], start: usize) -> Option<Self> {
        let nk = size.nk();
        let total = size.schedule_words();
        if window.len() != nk || start + nk > total {
            return None;
        }
        let mut words = vec![0u32; total];
        words[start..start + nk].copy_from_slice(window);
        // Forward.
        for i in (start + nk)..total {
            let temp = expansion_step(size, i, words[i - 1]);
            words[i] = words[i - nk] ^ temp;
        }
        // Backward.
        for i in (0..start).rev() {
            let temp = expansion_step(size, i + nk, words[i + nk - 1]);
            words[i] = words[i + nk] ^ temp;
        }
        Some(Self { size, words })
    }

    /// The key size this schedule belongs to.
    #[inline]
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// Number of rounds (`Nr`).
    #[inline]
    pub fn round_count(&self) -> usize {
        self.size.rounds()
    }

    /// The schedule as 32-bit words.
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The 16-byte round key for round `r` (0 ≤ `r` ≤ `Nr`).
    ///
    /// # Panics
    ///
    /// Panics if `r > Nr`.
    pub fn round_key(&self, r: usize) -> [u8; 16] {
        assert!(r <= self.round_count(), "round {r} out of range");
        let mut out = [0u8; 16];
        for (i, w) in self.words[4 * r..4 * r + 4].iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The original cipher key (the first `Nk` words of the schedule).
    pub fn master_key(&self) -> Vec<u8> {
        self.words[..self.size.nk()]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect()
    }

    /// The full expanded schedule as bytes — the exact image a program
    /// leaves in DRAM when it caches round keys.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_be_bytes()).collect()
    }
}

/// Reconstructs a full schedule into a caller-provided buffer from `Nk`
/// consecutive schedule words at absolute word index `start`, without
/// allocating.
///
/// Semantically identical to [`KeySchedule::reconstruct`] but shaped for
/// hot loops that evaluate thousands of candidate windows (the
/// branch-and-bound schedule corrector re-expands on every node): `out`
/// must hold exactly [`KeySize::schedule_words`] words and is fully
/// overwritten. Returns `false` (leaving `out` unspecified) if the window
/// length or position is out of range.
///
/// The caller owns zeroization of `out`; the corrector keeps one scratch
/// buffer for its whole search and clears it once at the end.
pub fn reconstruct_into(size: KeySize, window: &[u32], start: usize, out: &mut [u32]) -> bool {
    let nk = size.nk();
    let total = size.schedule_words();
    if window.len() != nk || start + nk > total || out.len() != total {
        return false;
    }
    out[start..start + nk].copy_from_slice(window);
    for i in (start + nk)..total {
        let temp = expansion_step(size, i, out[i - 1]);
        out[i] = out[i - nk] ^ temp;
    }
    for i in (0..start).rev() {
        let temp = expansion_step(size, i + nk, out[i + nk - 1]);
        out[i] = out[i + nk] ^ temp;
    }
    true
}

/// Extends a window of schedule words forward by `count` words.
///
/// `window` must contain at least `Nk` words and is interpreted as the
/// schedule words at absolute indices `start .. start + window.len()`. Only
/// the last `Nk` words are consumed. Returns `None` if the extension would
/// run past the end of the schedule.
///
/// This is the primitive behind the paper's **AES key litmus test**: run one
/// (or more) expansion steps from 2·`Nk` bytes found in a memory block and
/// check the result against the adjacent bytes.
pub fn extend_forward(
    size: KeySize,
    window: &[u32],
    start: usize,
    count: usize,
) -> Option<Vec<u32>> {
    let nk = size.nk();
    if window.len() < nk {
        return None;
    }
    let end = start + window.len();
    if end + count > size.schedule_words() {
        return None;
    }
    let mut words = window[window.len() - nk..].to_vec();
    let mut out = Vec::with_capacity(count);
    let mut prev = words[nk - 1];
    for i in end..end + count {
        let temp = expansion_step(size, i, prev);
        let next = words[words.len() - nk] ^ temp;
        out.push(next);
        words.push(next);
        words.remove(0);
        prev = next;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn aes128_expansion_matches_fips197_appendix_a1() {
        // FIPS-197 A.1: key 2b7e151628aed2a6abf7158809cf4f3c
        let ks = KeySchedule::expand(&hex("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        assert_eq!(ks.words()[4], 0xa0fafe17);
        assert_eq!(ks.words()[5], 0x88542cb1);
        assert_eq!(ks.words()[43], 0xb6630ca6);
    }

    #[test]
    fn aes256_expansion_matches_fips197_appendix_a3() {
        let key = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let ks = KeySchedule::expand(&key).unwrap();
        assert_eq!(ks.words()[8], 0x9ba35411);
        assert_eq!(ks.words()[59], 0x706c631e);
    }

    #[test]
    fn aes192_expansion_matches_fips197_appendix_a2() {
        let key = hex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b");
        let ks = KeySchedule::expand(&key).unwrap();
        assert_eq!(ks.words()[6], 0xfe0c91f7);
        assert_eq!(ks.words()[51], 0x01002202);
    }

    #[test]
    fn schedule_lengths() {
        assert_eq!(KeySize::Aes128.schedule_len(), 176);
        assert_eq!(KeySize::Aes192.schedule_len(), 208);
        assert_eq!(KeySize::Aes256.schedule_len(), 240);
    }

    #[test]
    fn reconstruct_from_every_window_recovers_master_key() {
        for size in KeySize::ALL {
            let key: Vec<u8> = (0..size.key_len() as u8)
                .map(|b| b.wrapping_mul(37))
                .collect();
            let ks = KeySchedule::expand(&key).unwrap();
            let nk = size.nk();
            for start in 0..=(size.schedule_words() - nk) {
                let window = ks.words()[start..start + nk].to_vec();
                let rec = KeySchedule::reconstruct(size, &window, start).unwrap();
                assert_eq!(rec.master_key(), key, "size {size:?} window {start}");
                assert_eq!(rec.words(), ks.words());
            }
        }
    }

    #[test]
    fn reconstruct_rejects_out_of_range_window() {
        let window = vec![0u32; 8];
        assert!(KeySchedule::reconstruct(KeySize::Aes256, &window, 53).is_none());
        assert!(KeySchedule::reconstruct(KeySize::Aes256, &window[..4], 0).is_none());
    }

    #[test]
    fn reconstruct_into_matches_allocating_form() {
        for size in KeySize::ALL {
            let key: Vec<u8> = (0..size.key_len() as u8)
                .map(|b| b.wrapping_mul(91))
                .collect();
            let ks = KeySchedule::expand(&key).unwrap();
            let nk = size.nk();
            let mut scratch = vec![0u32; size.schedule_words()];
            for start in [0, 1, size.schedule_words() - nk] {
                let window = ks.words()[start..start + nk].to_vec();
                assert!(reconstruct_into(size, &window, start, &mut scratch));
                assert_eq!(&scratch[..], ks.words(), "size {size:?} window {start}");
            }
            assert!(!reconstruct_into(
                size,
                &vec![0u32; nk],
                size.schedule_words(),
                &mut scratch
            ));
            assert!(!reconstruct_into(size, &[0u32; 2], 0, &mut scratch));
            assert!(!reconstruct_into(
                size,
                &vec![0u32; nk],
                0,
                &mut scratch[..nk]
            ));
        }
    }

    #[test]
    fn extend_forward_matches_expansion() {
        let key = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let ks = KeySchedule::expand(&key).unwrap();
        for start in [0usize, 4, 8, 20, 40] {
            let window = ks.words()[start..start + 8].to_vec();
            let ext = extend_forward(KeySize::Aes256, &window, start, 4).unwrap();
            assert_eq!(&ext[..], &ks.words()[start + 8..start + 12]);
        }
    }

    #[test]
    fn extend_forward_refuses_past_end() {
        let ks = KeySchedule::expand(&[7u8; 32]).unwrap();
        let window = ks.words()[52..60].to_vec();
        assert!(extend_forward(KeySize::Aes256, &window, 52, 1).is_none());
    }

    #[test]
    fn round_keys_concatenate_to_schedule() {
        let ks = KeySchedule::expand(&[1u8; 16]).unwrap();
        let mut cat = Vec::new();
        for r in 0..=ks.round_count() {
            cat.extend_from_slice(&ks.round_key(r));
        }
        assert_eq!(cat, ks.to_bytes());
    }
}
