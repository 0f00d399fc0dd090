//! SHA-512 (FIPS 180-4), implemented from first principles.
//!
//! The round constants (fractional parts of the cube roots of the first 80
//! primes) and initial hash values (fractional parts of the square roots of
//! the first 8 primes) are **derived at compile time** with integer
//! root-finding rather than transcribed, so a typo in an 80-entry constant
//! table is impossible; the NIST test vectors in the unit tests then pin
//! the whole construction.

/// Output length in bytes.
pub const DIGEST_BYTES: usize = 64;

/// Internal block (chunk) size in bytes.
pub const BLOCK_BYTES: usize = 128;

/// Multiplies two u128 values into a 256-bit (hi, lo) pair.
const fn mul_u128(a: u128, b: u128) -> (u128, u128) {
    let a_lo = a & 0xFFFF_FFFF_FFFF_FFFF;
    let a_hi = a >> 64;
    let b_lo = b & 0xFFFF_FFFF_FFFF_FFFF;
    let b_hi = b >> 64;
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = (ll >> 64) + (lh & 0xFFFF_FFFF_FFFF_FFFF) + (hl & 0xFFFF_FFFF_FFFF_FFFF);
    let lo = (ll & 0xFFFF_FFFF_FFFF_FFFF) | (mid << 64);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

/// Returns true if `x³ > p · 2¹⁹²` for 67-bit `x` (so the cube fits 256
/// bits split across two u128 halves).
const fn cube_exceeds(x: u128, p: u64) -> bool {
    // x² first (x < 2^67, x² < 2^134 → needs the split multiply).
    let (sq_hi, sq_lo) = mul_u128(x, x);
    // x³ = x² * x = (sq_hi·2¹²⁸ + sq_lo) · x.
    let (lo_hi, lo_lo) = mul_u128(sq_lo, x);
    let (hi_hi, hi_lo) = mul_u128(sq_hi, x);
    // x³ = hi_hi·2^256 + (hi_lo + lo_hi)·2^128 + lo_lo
    let mid = hi_lo + lo_hi; // cannot overflow: x³ < 2^201
                             // Target p·2¹⁹² = (p as u128) << 64 in the 2^128-weighted limb.
    let target_mid = (p as u128) << 64;
    if hi_hi > 0 {
        return true;
    }
    if mid != target_mid {
        return mid > target_mid;
    }
    lo_lo > 0
}

/// floor(cbrt(p · 2¹⁹²)) via binary search; the low 64 bits are the
/// fractional part of cbrt(p) — the SHA-512 round constant for prime `p`.
const fn cbrt_frac64(p: u64) -> u64 {
    let mut lo: u128 = 0;
    let mut hi: u128 = 1 << 67;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if cube_exceeds(mid, p) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo as u64
}

/// floor(sqrt(p · 2¹²⁸)) via binary search; low 64 bits are the fractional
/// part of sqrt(p) — the SHA-512 initial hash value for prime `p`.
const fn sqrt_frac64(p: u64) -> u64 {
    let mut lo: u128 = 0;
    let mut hi: u128 = 1 << 67;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        // Compare mid² against p·2¹²⁸ limb-wise: the target has `p` in the
        // 2¹²⁸-weighted limb and zero below.
        let (sq_hi, sq_lo) = mul_u128(mid, mid);
        let exceeds = if sq_hi != p as u128 {
            sq_hi > p as u128
        } else {
            sq_lo > 0
        };
        if exceeds {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo as u64
}

const fn first_n_primes<const N: usize>() -> [u64; N] {
    let mut primes = [0u64; N];
    let mut count = 0;
    let mut candidate = 2u64;
    while count < N {
        let mut is_prime = true;
        let mut d = 2u64;
        while d * d <= candidate {
            if candidate % d == 0 {
                is_prime = false;
                break;
            }
            d += 1;
        }
        if is_prime {
            primes[count] = candidate;
            count += 1;
        }
        candidate += 1;
    }
    primes
}

const fn build_k() -> [u64; 80] {
    let primes = first_n_primes::<80>();
    let mut k = [0u64; 80];
    let mut i = 0;
    while i < 80 {
        k[i] = cbrt_frac64(primes[i]);
        i += 1;
    }
    k
}

const fn build_h0() -> [u64; 8] {
    let primes = first_n_primes::<8>();
    let mut h = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        h[i] = sqrt_frac64(primes[i]);
        i += 1;
    }
    h
}

/// The 80 round constants.
const K: [u64; 80] = build_k();

/// The initial hash state.
const H0: [u64; 8] = build_h0();

#[inline]
fn big_sigma0(x: u64) -> u64 {
    x.rotate_right(28) ^ x.rotate_right(34) ^ x.rotate_right(39)
}

#[inline]
fn big_sigma1(x: u64) -> u64 {
    x.rotate_right(14) ^ x.rotate_right(18) ^ x.rotate_right(41)
}

#[inline]
fn small_sigma0(x: u64) -> u64 {
    x.rotate_right(1) ^ x.rotate_right(8) ^ (x >> 7)
}

#[inline]
fn small_sigma1(x: u64) -> u64 {
    x.rotate_right(19) ^ x.rotate_right(61) ^ (x >> 6)
}

/// Incremental SHA-512 hasher.
///
/// ```
/// use coldboot_crypto::sha512::Sha512;
/// let mut h = Sha512::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xdd);
/// ```
#[derive(Debug, Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; BLOCK_BYTES],
    buffered: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_BYTES],
            buffered: 0,
            total_len: 0,
        }
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u128;
        if self.buffered > 0 {
            let take = data.len().min(BLOCK_BYTES - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_BYTES {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= BLOCK_BYTES {
            let (block, rest) = data.split_at(BLOCK_BYTES);
            // lint:allow(panic): split_at(BLOCK_BYTES) guarantees the length
            let block: [u8; BLOCK_BYTES] = block.try_into().expect("exact split");
            self.compress(&block);
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        let bit_len = self.total_len * 8;
        // Padding: 0x80, zeros, 128-bit big-endian length.
        self.buffer[self.buffered] = 0x80;
        for b in self.buffer[self.buffered + 1..].iter_mut() {
            *b = 0;
        }
        if self.buffered + 1 > BLOCK_BYTES - 16 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; BLOCK_BYTES];
        }
        self.buffer[BLOCK_BYTES - 16..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);

        let mut out = [0u8; DIGEST_BYTES];
        for (i, word) in self.state.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_BYTES]) {
        let mut w = [0u64; 80];
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            // lint:allow(panic): chunks_exact(8) yields exactly 8 bytes
            w[i] = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
        }
        for i in 16..80 {
            w[i] = small_sigma1(w[i - 2])
                .wrapping_add(w[i - 7])
                .wrapping_add(small_sigma0(w[i - 15]))
                .wrapping_add(w[i - 16]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let t1 = h
                .wrapping_add(big_sigma1(e))
                .wrapping_add((e & f) ^ (!e & g))
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let t2 = big_sigma0(a).wrapping_add((a & b) ^ (a & c) ^ (b & c));
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// HMAC-SHA-512 (RFC 2104).
pub fn hmac_sha512(key: &[u8], message: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut key_block = [0u8; BLOCK_BYTES];
    if key.len() > BLOCK_BYTES {
        key_block[..DIGEST_BYTES].copy_from_slice(&Sha512::digest(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha512::new();
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha512::new();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// PBKDF2-HMAC-SHA-512 (RFC 8018) — the KDF VeraCrypt uses for header
/// keys.
///
/// # Panics
///
/// Panics if `iterations` is zero or `out_len` is zero.
pub fn pbkdf2_hmac_sha512(
    password: &[u8],
    salt: &[u8],
    iterations: u32,
    out_len: usize,
) -> Vec<u8> {
    assert!(iterations > 0, "pbkdf2 requires at least one iteration");
    assert!(out_len > 0, "pbkdf2 output length must be positive");
    let mut out = Vec::with_capacity(out_len);
    let mut block_index = 1u32;
    while out.len() < out_len {
        let mut salted = salt.to_vec();
        salted.extend_from_slice(&block_index.to_be_bytes());
        let mut u = hmac_sha512(password, &salted);
        let mut t = u;
        for _ in 1..iterations {
            u = hmac_sha512(password, &u);
            for (tb, ub) in t.iter_mut().zip(u.iter()) {
                *tb ^= ub;
            }
        }
        let take = (out_len - out.len()).min(DIGEST_BYTES);
        out.extend_from_slice(&t[..take]);
        block_index += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn derived_constants_spot_check() {
        // First and last of the published K table.
        assert_eq!(K[0], 0x428a2f98d728ae22);
        assert_eq!(K[1], 0x7137449123ef65cd);
        assert_eq!(K[79], 0x6c44198c4a475817);
        // Initial state.
        assert_eq!(H0[0], 0x6a09e667f3bcc908);
        assert_eq!(H0[7], 0x5be0cd19137e2179);
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            Sha512::digest(b"").to_vec(),
            hex(
                "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
                 47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
            )
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            Sha512::digest(b"abc").to_vec(),
            hex(
                "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
                 2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
            )
        );
    }

    #[test]
    fn nist_vector_two_block_message() {
        // FIPS 180-4 example: 896-bit message.
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            Sha512::digest(msg).to_vec(),
            hex(
                "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
                 501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
            )
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha512::digest(&data);
        for split in [0usize, 1, 127, 128, 129, 500, 999] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 112-byte padding threshold and block size.
        for len in [0usize, 1, 111, 112, 113, 127, 128, 129, 255, 256] {
            let data = vec![0xA7u8; len];
            // Must not panic, and incremental consistency holds.
            let d1 = Sha512::digest(&data);
            let mut h = Sha512::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn hmac_rfc4231_case1() {
        let key = vec![0x0bu8; 20];
        let mac = hmac_sha512(&key, b"Hi There");
        assert_eq!(
            mac.to_vec(),
            hex(
                "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
                 daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
            )
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        // key = "Jefe", data = "what do ya want for nothing?"
        let mac = hmac_sha512(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_vec(),
            hex(
                "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
                 9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
            )
        );
    }

    #[test]
    fn hmac_long_key_is_hashed_first() {
        // Keys longer than the block size must behave like their digest.
        let long_key = vec![0xAAu8; 200];
        let digest_key = Sha512::digest(&long_key);
        assert_eq!(
            hmac_sha512(&long_key, b"msg"),
            hmac_sha512(&digest_key, b"msg")
        );
    }

    #[test]
    fn pbkdf2_single_iteration_matches_definition() {
        // With c = 1, T1 = HMAC(password, salt || INT(1)).
        let mut salted = b"salt".to_vec();
        salted.extend_from_slice(&1u32.to_be_bytes());
        let expected = hmac_sha512(b"password", &salted);
        assert_eq!(
            pbkdf2_hmac_sha512(b"password", b"salt", 1, 64),
            expected.to_vec()
        );
    }

    #[test]
    fn pbkdf2_two_iterations_matches_definition() {
        let mut salted = b"salt".to_vec();
        salted.extend_from_slice(&1u32.to_be_bytes());
        let u1 = hmac_sha512(b"pw", &salted);
        let u2 = hmac_sha512(b"pw", &u1);
        let expected: Vec<u8> = u1.iter().zip(u2.iter()).map(|(a, b)| a ^ b).collect();
        assert_eq!(pbkdf2_hmac_sha512(b"pw", b"salt", 2, 64), expected);
    }

    #[test]
    fn pbkdf2_multi_block_output() {
        let out = pbkdf2_hmac_sha512(b"pw", b"salt", 3, 150);
        assert_eq!(out.len(), 150);
        // The first 64 bytes equal the one-block derivation (block
        // independence).
        assert_eq!(out[..64], pbkdf2_hmac_sha512(b"pw", b"salt", 3, 64)[..]);
    }

    #[test]
    fn pbkdf2_sensitivity() {
        let base = pbkdf2_hmac_sha512(b"pw", b"salt", 10, 32);
        assert_ne!(base, pbkdf2_hmac_sha512(b"pw!", b"salt", 10, 32));
        assert_ne!(base, pbkdf2_hmac_sha512(b"pw", b"salt!", 10, 32));
        assert_ne!(base, pbkdf2_hmac_sha512(b"pw", b"salt", 11, 32));
    }
}
