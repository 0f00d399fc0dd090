//! The AES block transformation (FIPS-197 §5).
//!
//! State layout: a block is kept as its 16-byte wire representation.
//! FIPS-197 maps `in[i]` to state column-major, so "row `r`" of the state is
//! the byte set `{r, r+4, r+8, r+12}` and "column `c`" is `bytes[4c..4c+4]`.

use crate::aes::key_schedule::{KeySchedule, KeySize};
use crate::aes::sbox::{INV_SBOX, SBOX};
use crate::gf::mul;
use crate::InvalidKeyLengthError;

/// An AES block cipher instance with an expanded key schedule.
///
/// ```
/// use coldboot_crypto::aes::Aes;
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// # Ok::<(), coldboot_crypto::InvalidKeyLengthError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    schedule: KeySchedule,
}

impl Aes {
    /// Creates a cipher from a 16-, 24-, or 32-byte key.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLengthError`] for any other key length.
    pub fn new(key: &[u8]) -> Result<Self, InvalidKeyLengthError> {
        Ok(Self {
            schedule: KeySchedule::expand(key)?,
        })
    }

    /// Creates a cipher from an existing (for example, reconstructed)
    /// schedule.
    pub fn from_schedule(schedule: KeySchedule) -> Self {
        Self { schedule }
    }

    /// The key size of this instance.
    pub fn key_size(&self) -> KeySize {
        self.schedule.key_size()
    }

    /// The expanded key schedule.
    pub fn schedule(&self) -> &KeySchedule {
        &self.schedule
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, mut block: [u8; 16]) -> [u8; 16] {
        let nr = self.schedule.round_count();
        add_round_key(&mut block, &self.schedule.round_key(0));
        for r in 1..nr {
            sub_bytes(&mut block);
            shift_rows(&mut block);
            mix_columns(&mut block);
            add_round_key(&mut block, &self.schedule.round_key(r));
        }
        sub_bytes(&mut block);
        shift_rows(&mut block);
        add_round_key(&mut block, &self.schedule.round_key(nr));
        block
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, mut block: [u8; 16]) -> [u8; 16] {
        let nr = self.schedule.round_count();
        add_round_key(&mut block, &self.schedule.round_key(nr));
        for r in (1..nr).rev() {
            inv_shift_rows(&mut block);
            inv_sub_bytes(&mut block);
            add_round_key(&mut block, &self.schedule.round_key(r));
            inv_mix_columns(&mut block);
        }
        inv_shift_rows(&mut block);
        inv_sub_bytes(&mut block);
        add_round_key(&mut block, &self.schedule.round_key(0));
        block
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// Rotates row `r` left by `r` positions (rows are strided byte sets).
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2 (swap pairs).
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 == right by 1.
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = state[13];
    state[13] = state[9];
    state[9] = state[5];
    state[5] = state[1];
    state[1] = t;
    // Row 2: shift right by 2 (swap pairs).
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift right by 3 == left by 1.
    let t = state[3];
    state[3] = state[7];
    state[7] = state[11];
    state[11] = state[15];
    state[15] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
        col[0] = mul(a0, 2) ^ mul(a1, 3) ^ a2 ^ a3;
        col[1] = a0 ^ mul(a1, 2) ^ mul(a2, 3) ^ a3;
        col[2] = a0 ^ a1 ^ mul(a2, 2) ^ mul(a3, 3);
        col[3] = mul(a0, 3) ^ a1 ^ a2 ^ mul(a3, 2);
    }
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
        col[0] = mul(a0, 14) ^ mul(a1, 11) ^ mul(a2, 13) ^ mul(a3, 9);
        col[1] = mul(a0, 9) ^ mul(a1, 14) ^ mul(a2, 11) ^ mul(a3, 13);
        col[2] = mul(a0, 13) ^ mul(a1, 9) ^ mul(a2, 14) ^ mul(a3, 11);
        col[3] = mul(a0, 11) ^ mul(a1, 13) ^ mul(a2, 9) ^ mul(a3, 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hexv(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    const FIPS_PT: &str = "00112233445566778899aabbccddeeff";

    #[test]
    fn aes128_fips197_appendix_c1() {
        let aes = Aes::new(&hexv("000102030405060708090a0b0c0d0e0f")).unwrap();
        let ct = aes.encrypt_block(hex16(FIPS_PT));
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), hex16(FIPS_PT));
    }

    #[test]
    fn aes192_fips197_appendix_c2() {
        let aes = Aes::new(&hexv("000102030405060708090a0b0c0d0e0f1011121314151617")).unwrap();
        let ct = aes.encrypt_block(hex16(FIPS_PT));
        assert_eq!(ct, hex16("dda97ca4864cdfe06eaf70a0ec0d7191"));
        assert_eq!(aes.decrypt_block(ct), hex16(FIPS_PT));
    }

    #[test]
    fn aes256_fips197_appendix_c3() {
        let aes = Aes::new(&hexv(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ))
        .unwrap();
        let ct = aes.encrypt_block(hex16(FIPS_PT));
        assert_eq!(ct, hex16("8ea2b7ca516745bfeafc49904b496089"));
        assert_eq!(aes.decrypt_block(ct), hex16(FIPS_PT));
    }

    #[test]
    fn aes128_sp800_38a_vector() {
        // NIST SP 800-38A F.1.1 ECB-AES128 block #1.
        let aes = Aes::new(&hexv("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        let ct = aes.encrypt_block(hex16("6bc1bee22e409f96e93d7e117393172a"));
        assert_eq!(ct, hex16("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn rejects_bad_key_length() {
        let err = Aes::new(&[0u8; 20]).unwrap_err();
        assert_eq!(err.supplied, 20);
    }

    #[test]
    fn shift_rows_round_trips() {
        let mut s: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_round_trips() {
        let mut s: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(17).wrapping_add(3));
        let orig = s;
        mix_columns(&mut s);
        assert_ne!(s, orig);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_fips_worked_column() {
        // FIPS-197 §5.1.3 example column: db 13 53 45 -> 8e 4d a1 bc
        let mut s = [0u8; 16];
        s[0..4].copy_from_slice(&[0xdb, 0x13, 0x53, 0x45]);
        mix_columns(&mut s);
        assert_eq!(&s[0..4], &[0x8e, 0x4d, 0xa1, 0xbc]);
    }

    #[test]
    fn from_schedule_equals_from_key() {
        let key = [9u8; 32];
        let direct = Aes::new(&key).unwrap();
        let via_schedule = Aes::from_schedule(crate::aes::KeySchedule::expand(&key).unwrap());
        let pt = [0x5au8; 16];
        assert_eq!(direct.encrypt_block(pt), via_schedule.encrypt_block(pt));
    }
}
