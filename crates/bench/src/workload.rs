//! Synthetic memory workloads.
//!
//! The attack's key-mining step depends on real memory content statistics:
//! "zeros occur more frequently than most other individual values in
//! memory" (the basis of memory-compression research the paper cites).
//! [`fill_realistic`] reproduces that shape: a configurable fraction of
//! zeroed blocks (freed pages, zero pages, bss), some constant-pattern
//! blocks, some ASCII-ish text, and high-entropy code/data.

use coldboot_crypto::rng::SplitMix64;
use coldboot_scrambler::controller::{Machine, MachineError};

/// Block-class mix for the synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Fraction of 64-byte blocks that are all zeros.
    pub zero: f64,
    /// Fraction that are a constant non-zero byte (e.g. 0xFF pools).
    pub constant: f64,
    /// Fraction that look like ASCII text.
    pub text: f64,
    // The remainder is high-entropy (code, compressed data, heap).
}

impl Default for WorkloadMix {
    /// A "heavily loaded system" mix: 40 % zero, 5 % constant, 15 % text,
    /// 40 % high-entropy.
    fn default() -> Self {
        Self {
            zero: 0.40,
            constant: 0.05,
            text: 0.15,
        }
    }
}

impl WorkloadMix {
    /// A nearly idle machine: mostly zeroed memory.
    pub fn mostly_idle() -> Self {
        Self {
            zero: 0.85,
            constant: 0.03,
            text: 0.05,
        }
    }
}

/// Generates a synthetic memory image of `len` bytes (whole blocks).
///
/// # Panics
///
/// Panics if `len` is not a multiple of 64 or the mix fractions exceed 1.
pub fn generate_image(len: usize, mix: WorkloadMix, seed: u64) -> Vec<u8> {
    assert_eq!(len % 64, 0, "image length must be whole blocks");
    assert!(
        mix.zero + mix.constant + mix.text <= 1.0 + 1e-9,
        "mix fractions exceed 1"
    );
    let mut rng = SplitMix64::new(seed);
    let mut image = vec![0u8; len];
    for block in image.chunks_mut(64) {
        let class = rng.unit();
        if class < mix.zero {
            // Already zero.
        } else if class < mix.zero + mix.constant {
            let b = if rng.gen_bool(0.5) {
                0xFF
            } else {
                rng.next_u64() as u8
            };
            block.fill(b);
        } else if class < mix.zero + mix.constant + mix.text {
            for byte in block.iter_mut() {
                *byte = if rng.gen_bool(0.15) {
                    b' '
                } else {
                    b'a' + rng.range(0..26) as u8
                };
            }
        } else {
            rng.fill(block);
        }
    }
    image
}

/// Fills a machine's entire memory with a realistic workload image,
/// written through its (scrambling/encrypting) memory interface.
///
/// # Errors
///
/// Fails if the machine has no module.
pub fn fill_realistic(
    machine: &mut Machine,
    mix: WorkloadMix,
    seed: u64,
) -> Result<(), MachineError> {
    let capacity = machine.capacity() as usize;
    let image = generate_image(capacity, mix, seed);
    // Write in 64 KiB strides to bound temporary allocations inside the
    // controller.
    for (i, chunk) in image.chunks(64 << 10).enumerate() {
        machine.write((i * (64 << 10)) as u64, chunk)?;
    }
    Ok(())
}

/// Fraction of zero blocks actually present in an image (sanity metric).
pub fn zero_block_fraction(image: &[u8]) -> f64 {
    let blocks = image.len() / 64;
    if blocks == 0 {
        return 0.0;
    }
    let zeros = image
        .chunks_exact(64)
        .filter(|b| b.iter().all(|&x| x == 0))
        .count();
    zeros as f64 / blocks as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_hits_zero_fraction() {
        let image = generate_image(1 << 20, WorkloadMix::default(), 1);
        let f = zero_block_fraction(&image);
        assert!((0.37..0.43).contains(&f), "zero fraction {f}");
    }

    #[test]
    fn idle_mix_is_mostly_zero() {
        let image = generate_image(1 << 20, WorkloadMix::mostly_idle(), 2);
        assert!(zero_block_fraction(&image) > 0.8);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_image(4096, WorkloadMix::default(), 7);
        let b = generate_image(4096, WorkloadMix::default(), 7);
        let c = generate_image(4096, WorkloadMix::default(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn rejects_partial_blocks() {
        generate_image(100, WorkloadMix::default(), 1);
    }
}
