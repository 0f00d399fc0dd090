//! The AES S-box and its inverse, derived at compile time from first
//! principles (GF(2⁸) inversion followed by the FIPS-197 affine transform)
//! rather than transcribed, so a transcription error is impossible.

use crate::gf;

/// Applies the FIPS-197 affine transformation to a GF(2⁸) element.
const fn affine(b: u8) -> u8 {
    b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        table[i] = affine(gf::inv(i as u8));
        i += 1;
    }
    table
}

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        table[sbox[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// The AES substitution box.
pub const SBOX: [u8; 256] = build_sbox();

/// The inverse AES substitution box.
pub const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

/// Substitutes each byte of a 32-bit word through the S-box.
#[inline]
pub const fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// Substitutes each byte of a 32-bit word through the inverse S-box.
#[inline]
pub const fn inv_sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        INV_SBOX[b[0] as usize],
        INV_SBOX[b[1] as usize],
        INV_SBOX[b[2] as usize],
        INV_SBOX[b[3] as usize],
    ])
}

/// Rotates a word left by one byte (FIPS-197 `RotWord`).
#[inline]
pub const fn rot_word(w: u32) -> u32 {
    w.rotate_left(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_spot_values() {
        // Well-known anchor values from FIPS-197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
            assert_eq!(SBOX[INV_SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize], "duplicate S-box value {v:#04x}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn sbox_has_no_fixed_points() {
        for i in 0..=255u8 {
            assert_ne!(SBOX[i as usize], i);
            // Also no "anti-fixed" points (complement fixed points).
            assert_ne!(SBOX[i as usize], !i);
        }
    }

    #[test]
    fn rot_word_rotates() {
        assert_eq!(rot_word(0x09cf4f3c), 0xcf4f3c09);
    }

    #[test]
    fn sub_word_known_value() {
        // From the FIPS-197 AES-128 key expansion example (i = 4):
        // SubWord(RotWord(09cf4f3c)) = SubWord(cf4f3c09) = 8a84eb01.
        assert_eq!(sub_word(0xcf4f3c09), 0x8a84eb01);
    }
}
