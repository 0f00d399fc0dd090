//! Property tests for the cryptographic primitives.
//!
//! Each property runs [`CASES`] seeded cases; case `i` draws its inputs
//! from `SplitMix64::new(i)`, so a failure replays from its case index.

use coldboot_crypto::aes::key_schedule::{expansion_step, KeySchedule};
use coldboot_crypto::aes::Aes;
use coldboot_crypto::chacha::{ChaCha, Rounds};
use coldboot_crypto::ct;
use coldboot_crypto::ctr::AesCtr;
use coldboot_crypto::hamming;
use coldboot_crypto::rng::SplitMix64;
use coldboot_crypto::xts::Xts;

/// Cases per property.
const CASES: u64 = 256;

/// `len` random bytes.
fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill(&mut out);
    out
}

/// A random AES-128, -192 or -256 key, each size equally likely.
fn aes_key(rng: &mut SplitMix64) -> Vec<u8> {
    let len = [16, 24, 32][rng.range(0..3) as usize];
    bytes(rng, len)
}

#[test]
fn aes_decrypt_inverts_encrypt() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let key = aes_key(&mut rng);
        let block: [u8; 16] = rng.bytes();
        let aes = Aes::new(&key).expect("valid key length");
        assert_eq!(
            aes.decrypt_block(aes.encrypt_block(block)),
            block,
            "case {case}"
        );
    }
}

#[test]
fn aes_encryption_changes_block() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let key = aes_key(&mut rng);
        let block: [u8; 16] = rng.bytes();
        let aes = Aes::new(&key).expect("valid key length");
        assert_ne!(aes.encrypt_block(block), block, "case {case}");
    }
}

#[test]
fn schedule_reconstructs_from_any_window() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let key = aes_key(&mut rng);
        let start_frac = rng.range_f64(0.0..1.0);
        let ks = KeySchedule::expand(&key).expect("valid length");
        let size = ks.key_size();
        let nk = size.nk();
        let max_start = size.schedule_words() - nk;
        let start = (start_frac * max_start as f64) as usize;
        let window = ks.words()[start..start + nk].to_vec();
        let rec = KeySchedule::reconstruct(size, &window, start).expect("in range");
        assert_eq!(rec.master_key(), key, "case {case}");
    }
}

#[test]
fn schedule_words_satisfy_recurrence() {
    for case in 0..CASES {
        let key = aes_key(&mut SplitMix64::new(case));
        let ks = KeySchedule::expand(&key).expect("valid length");
        let size = ks.key_size();
        let nk = size.nk();
        let w = ks.words();
        for i in nk..w.len() {
            assert_eq!(
                w[i],
                w[i - nk] ^ expansion_step(size, i, w[i - 1]),
                "case {case}"
            );
        }
    }
}

#[test]
fn chacha_apply_is_involutive() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let key: [u8; 32] = rng.bytes();
        let nonce: [u8; 12] = rng.bytes();
        let counter = rng.next_u64() as u32;
        let len = rng.range(0..300) as usize;
        let data = bytes(&mut rng, len);
        for rounds in Rounds::ALL {
            let cipher = ChaCha::new(key, nonce, rounds);
            let mut work = data.clone();
            cipher.apply(counter, &mut work);
            cipher.apply(counter, &mut work);
            assert_eq!(&work, &data, "case {case}");
        }
    }
}

#[test]
fn ctr_keystreams_are_position_unique() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let key = bytes(&mut rng, 16);
        let nonce = rng.next_u64();
        let (a, b) = loop {
            let (a, b) = (rng.range(0..10_000), rng.range(0..10_000));
            if a != b {
                break (a, b);
            }
        };
        let ctr = AesCtr::new(&key, nonce).expect("16 bytes");
        assert_ne!(ctr.keystream16(a), ctr.keystream16(b), "case {case}");
    }
}

#[test]
fn xts_round_trips() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let dk: [u8; 32] = rng.bytes();
        let tk: [u8; 32] = rng.bytes();
        let sector = rng.next_u64();
        let len = rng.range(1..8) as usize;
        let data = bytes(&mut rng, len);
        // Build a whole-block buffer from the seed data.
        let mut buf: Vec<u8> = data.iter().cycle().take(data.len() * 16).copied().collect();
        let original = buf.clone();
        let xts = Xts::new(&dk, &tk).expect("32-byte keys");
        xts.encrypt_data_unit(sector, &mut buf)
            .expect("multiple of 16");
        assert_ne!(&buf, &original, "case {case}");
        xts.decrypt_data_unit(sector, &mut buf)
            .expect("multiple of 16");
        assert_eq!(&buf, &original, "case {case}");
    }
}

#[test]
fn hamming_distance_is_a_metric() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b, c) = (
            bytes(&mut rng, 32),
            bytes(&mut rng, 32),
            bytes(&mut rng, 32),
        );
        // Symmetry, identity, triangle inequality.
        assert_eq!(
            hamming::distance(&a, &b),
            hamming::distance(&b, &a),
            "case {case}"
        );
        assert_eq!(hamming::distance(&a, &a), 0, "case {case}");
        assert!(
            hamming::distance(&a, &c) <= hamming::distance(&a, &b) + hamming::distance(&b, &c),
            "case {case}"
        );
    }
}

#[test]
fn hamming_within_agrees_with_distance() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b) = (bytes(&mut rng, 16), bytes(&mut rng, 16));
        let budget = rng.range(0..130) as u32;
        assert_eq!(
            hamming::within(&a, &b, budget),
            hamming::distance(&a, &b) <= budget,
            "case {case}"
        );
    }
}

#[test]
fn swar_hamming_matches_bytewise_reference() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        // Lengths 0..=257 cover every scalar-tail size (0..=7) around
        // multiple 8-byte lane boundaries of the SWAR kernels.
        let len = rng.range(0..258) as usize;
        let (a, b) = (bytes(&mut rng, len), bytes(&mut rng, len));
        let ref_distance: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        let ref_weight: u32 = a.iter().map(|x| x.count_ones()).sum();
        assert_eq!(hamming::distance(&a, &b), ref_distance, "case {case}");
        assert_eq!(hamming::weight(&a), ref_weight, "case {case}");
        assert!(hamming::within(&a, &b, ref_distance), "case {case}");
        if ref_distance > 0 {
            assert!(!hamming::within(&a, &b, ref_distance - 1), "case {case}");
        }
    }
}

#[test]
fn ct_eq_matches_plain_equality() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let len_a = rng.range(0..80) as usize;
        let a = bytes(&mut rng, len_a);
        let len_b = rng.range(0..80) as usize;
        let b = bytes(&mut rng, len_b);
        assert_eq!(ct::eq(&a, &b), a == b, "case {case}");
        assert!(ct::eq(&a, &a), "case {case}");
    }
}

#[test]
fn ct_is_zero_matches_plain_check() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let len = rng.range(0..80) as usize;
        let a = bytes(&mut rng, len);
        assert_eq!(ct::is_zero(&a), a.iter().all(|&x| x == 0), "case {case}");
    }
}

#[test]
fn kdf_is_injective_on_samples() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let len = rng.range(0..20) as usize;
        let pw1 = bytes(&mut rng, len);
        let pw2 = loop {
            let len = rng.range(0..20) as usize;
            let pw2 = bytes(&mut rng, len);
            if pw2 != pw1 {
                break pw2;
            }
        };
        let salt: [u8; 16] = rng.bytes();
        let a = coldboot_crypto::kdf::derive_key(&pw1, &salt, 5, 32);
        let b = coldboot_crypto::kdf::derive_key(&pw2, &salt, 5, 32);
        assert_ne!(a, b, "case {case}");
    }
}
