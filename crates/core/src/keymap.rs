//! Inference of the scrambler's key-selection function from extracted
//! keys.
//!
//! §III-B concludes that Skylake's scrambler keys "appear to be generated
//! using a combination of a scrambler seed ... and portions of the
//! physical address bits". This module automates that conclusion: given
//! `(address, key)` observations from the reverse-cold-boot framework, it
//! determines which address bits participate in key selection, the spatial
//! period of key reuse, and the key-pool size — without any knowledge of
//! the scrambler's internals.

use coldboot_dram::BLOCK_BYTES;
use std::collections::HashMap;

/// What could be inferred about the key-selection function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMapInference {
    /// Number of distinct keys observed.
    pub distinct_keys: usize,
    /// The smallest power-of-two period, in 64-byte blocks, at which the
    /// key sequence repeats across the observed address range (`None` if
    /// no period ≤ the observed range is consistent).
    pub period_blocks: Option<u64>,
    /// Physical address bits (bit 6 upward) that affect key selection:
    /// flipping any of these bits (alone) changes the key for at least one
    /// observed address pair.
    pub selector_bits: Vec<u32>,
    /// Address bits verified to be ignored by key selection (flipping them
    /// never changed the key across all observed pairs).
    pub ignored_bits: Vec<u32>,
}

impl KeyMapInference {
    /// The key-pool size implied by the selector bits (2^n), if selection
    /// is a function of exactly those bits.
    pub fn implied_pool_size(&self) -> u64 {
        1u64 << self.selector_bits.len()
    }
}

/// Infers the key-selection structure from `(block address, key)`
/// observations (e.g. the output of
/// [`crate::attack::zero_fill_key_extraction`]).
///
/// Returns `None` when `observations` is empty — there is nothing to
/// infer from.
pub fn infer_key_mapping(observations: &[(u64, [u8; BLOCK_BYTES])]) -> Option<KeyMapInference> {
    // Intern keys to small ids for cheap comparison.
    let mut key_ids: HashMap<[u8; BLOCK_BYTES], u32> = HashMap::new();
    let mut by_addr: HashMap<u64, u32> = HashMap::new();
    for (addr, key) in observations {
        let next = u32::try_from(key_ids.len()).ok()?;
        let id = *key_ids.entry(*key).or_insert(next);
        by_addr.insert(*addr, id);
    }
    let max_addr = observations.iter().map(|(a, _)| *a).max()?;
    let addr_bits_in_play = 64 - max_addr.max(64).leading_zeros();

    // Spatial period: smallest power-of-two block count p such that every
    // observed pair (a, a + p*64) agrees.
    let mut period_blocks = None;
    let mut p = 1u64;
    while p * 64 <= max_addr {
        let consistent = by_addr.iter().all(|(&addr, &id)| {
            by_addr
                .get(&(addr + p * 64))
                .is_none_or(|&other| other == id)
        });
        // Demand at least one confirming pair so tiny samples do not
        // "prove" a period vacuously.
        let witnessed = by_addr
            .keys()
            .any(|&addr| by_addr.contains_key(&(addr + p * 64)));
        if consistent && witnessed {
            period_blocks = Some(p);
            break;
        }
        p *= 2;
    }

    // Per-bit relevance.
    let mut selector_bits = Vec::new();
    let mut ignored_bits = Vec::new();
    for bit in 6..addr_bits_in_play {
        let mask = 1u64 << bit;
        let mut saw_pair = false;
        let mut changes_key = false;
        for (&addr, &id) in &by_addr {
            if addr & mask != 0 {
                continue;
            }
            if let Some(&other) = by_addr.get(&(addr | mask)) {
                saw_pair = true;
                if other != id {
                    changes_key = true;
                    break;
                }
            }
        }
        if changes_key {
            selector_bits.push(bit);
        } else if saw_pair {
            ignored_bits.push(bit);
        }
    }

    Some(KeyMapInference {
        distinct_keys: key_ids.len(),
        period_blocks,
        selector_bits,
        ignored_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scrambler: key id = bits [6..6+n) of the address.
    fn observations(n_bits: u32, blocks: u64) -> Vec<(u64, [u8; 64])> {
        (0..blocks)
            .map(|b| {
                let addr = b * 64;
                let id = b % (1 << n_bits);
                let key =
                    core::array::from_fn(|i| (id as u8).wrapping_mul(37).wrapping_add(i as u8));
                (addr, key)
            })
            .collect()
    }

    #[test]
    fn infers_low_bit_selection() {
        let obs = observations(4, 256);
        let inf = infer_key_mapping(&obs).expect("non-empty observations");
        assert_eq!(inf.distinct_keys, 16);
        assert_eq!(inf.period_blocks, Some(16));
        assert_eq!(inf.selector_bits, vec![6, 7, 8, 9]);
        assert_eq!(inf.implied_pool_size(), 16);
        assert!(inf.ignored_bits.contains(&10));
    }

    #[test]
    fn infers_larger_pools() {
        let obs = observations(6, 512);
        let inf = infer_key_mapping(&obs).expect("non-empty observations");
        assert_eq!(inf.distinct_keys, 64);
        assert_eq!(inf.period_blocks, Some(64));
        assert_eq!(inf.selector_bits, vec![6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn single_key_scrambler_has_no_selector_bits() {
        let key = [9u8; 64];
        let obs: Vec<(u64, [u8; 64])> = (0..64).map(|b| (b * 64, key)).collect();
        let inf = infer_key_mapping(&obs).expect("non-empty observations");
        assert_eq!(inf.distinct_keys, 1);
        assert_eq!(inf.period_blocks, Some(1));
        assert!(inf.selector_bits.is_empty());
        assert_eq!(inf.implied_pool_size(), 1);
    }

    #[test]
    fn sparse_observations_still_work() {
        // Only even blocks observed: bit 6 pairs never co-occur, so it can
        // be neither confirmed nor denied; bit 7 upward still resolves.
        let obs: Vec<(u64, [u8; 64])> = observations(4, 256).into_iter().step_by(2).collect();
        let inf = infer_key_mapping(&obs).expect("non-empty observations");
        assert!(!inf.selector_bits.contains(&6));
        assert!(!inf.ignored_bits.contains(&6));
        assert!(inf.selector_bits.contains(&7));
    }

    #[test]
    fn empty_observations_yield_none() {
        assert!(infer_key_mapping(&[]).is_none());
    }
}
