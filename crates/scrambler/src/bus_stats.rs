//! Electrical statistics of memory-bus traffic — the reason scramblers
//! exist at all.
//!
//! §II-C: "DRAM traffic is not random and successive 1s and 0s can be
//! observed on the data bus under normal workloads. As a result, energy can
//! potentially be concentrated at certain frequencies or all the data lines
//! can switch in parallel resulting in high di/dt." Scrambling makes bus
//! bits "transition nearly 50% of the time", flattening the power spectrum.
//! §IV adds that a strong cipher does this at least as well, since secure
//! keystream is indistinguishable from random.
//!
//! This module measures those properties for any [`MemoryTransform`]: the
//! per-lane transition rate across burst beats, the worst simultaneous
//! switching burst (the di/dt proxy), and DC balance.

use crate::transform::MemoryTransform;

/// Width of the DDR data bus in bits.
pub const BUS_BITS: usize = 64;

/// Electrical statistics of a simulated burst stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusTransitionStats {
    /// Bursts analyzed.
    pub bursts: usize,
    /// Fraction of lane-beat boundaries where the lane toggled (0.5 is the
    /// scrambler design target).
    pub transition_rate: f64,
    /// The largest number of lanes that switched simultaneously on any
    /// beat boundary (64 = the full-bus di/dt worst case).
    pub worst_simultaneous_switch: u32,
    /// Fraction of beat boundaries where more than 48 of 64 lanes switched
    /// at once — the sustained-di/dt proxy that scrambling suppresses.
    pub high_switch_fraction: f64,
    /// Fraction of driven bits that are ones (DC balance; 0.5 is ideal).
    pub ones_fraction: f64,
}

/// Simulates writing `data` to the bus at `base_addr` through `transform`
/// and measures what the wires see.
///
/// Each 64-byte block becomes one 8-beat burst on a 64-bit bus; transitions
/// are counted per lane between consecutive beats, including the boundary
/// between bursts.
///
/// # Panics
///
/// Panics if `data` is empty or not a whole number of 64-byte blocks.
pub fn analyze_bus_traffic(
    transform: &dyn MemoryTransform,
    base_addr: u64,
    data: &[u8],
) -> BusTransitionStats {
    assert!(
        !data.is_empty() && data.len().is_multiple_of(64),
        "bus traffic must be whole bursts"
    );
    let mut wire = data.to_vec();
    transform.apply(base_addr, &mut wire);

    let beats: Vec<u64> = wire
        .chunks_exact(8)
        // lint:allow(panic): chunks_exact(8) yields exactly 8 bytes
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let mut transitions = 0u64;
    let mut worst = 0u32;
    let mut high_switch = 0u64;
    let mut ones = 0u64;
    for (i, &beat) in beats.iter().enumerate() {
        ones += u64::from(beat.count_ones());
        if i > 0 {
            let switched = (beat ^ beats[i - 1]).count_ones();
            transitions += u64::from(switched);
            worst = worst.max(switched);
            if switched > 48 {
                high_switch += 1;
            }
        }
    }
    let boundaries = (beats.len() - 1) as u64;
    BusTransitionStats {
        bursts: data.len() / 64,
        transition_rate: if boundaries == 0 {
            0.0
        } else {
            transitions as f64 / (boundaries * BUS_BITS as u64) as f64
        },
        worst_simultaneous_switch: worst,
        high_switch_fraction: if boundaries == 0 {
            0.0
        } else {
            high_switch as f64 / boundaries as f64
        },
        ones_fraction: ones as f64 / (beats.len() * BUS_BITS) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr4::Ddr4Scrambler;
    use crate::transform::Plaintext;
    use coldboot_dram::geometry::DramGeometry;
    use coldboot_dram::mapping::{AddressMapping, Microarchitecture};

    fn ddr4() -> Ddr4Scrambler {
        Ddr4Scrambler::new(
            AddressMapping::new(
                Microarchitecture::Skylake,
                DramGeometry::ddr4_dual_channel_8gib(),
            ),
            42,
        )
    }

    #[test]
    fn constant_plaintext_never_transitions() {
        // The pathological workload: all-zeros then all-ones in alternating
        // blocks concentrates energy exactly as §II-C warns.
        let stats = analyze_bus_traffic(&Plaintext, 0, &[0u8; 64 * 16]);
        assert_eq!(stats.transition_rate, 0.0);
        assert_eq!(stats.ones_fraction, 0.0);
    }

    #[test]
    fn alternating_plaintext_is_the_di_dt_worst_case() {
        let mut data = Vec::new();
        for i in 0..16 {
            data.extend_from_slice(&[if i % 2 == 0 { 0x00u8 } else { 0xFF }; 64]);
        }
        let stats = analyze_bus_traffic(&Plaintext, 0, &data);
        // Full-bus simultaneous switching: all 64 lanes at once.
        assert_eq!(stats.worst_simultaneous_switch, 64);
    }

    #[test]
    fn scrambling_constant_data_transitions_near_half() {
        let stats = analyze_bus_traffic(&ddr4(), 0, &[0u8; 64 * 256]);
        assert!(
            (0.44..0.56).contains(&stats.transition_rate),
            "transition rate {}",
            stats.transition_rate
        );
        assert!((0.45..0.55).contains(&stats.ones_fraction));
    }

    #[test]
    fn scrambling_tames_the_worst_case_workload() {
        let mut data = Vec::new();
        for i in 0..256 {
            data.extend_from_slice(&[if i % 2 == 0 { 0x00u8 } else { 0xFF }; 64]);
        }
        let plain = analyze_bus_traffic(&Plaintext, 0, &data);
        let scrambled = analyze_bus_traffic(&ddr4(), 0, &data);
        assert_eq!(plain.worst_simultaneous_switch, 64);
        // Every block boundary switches the full bus in plaintext (1 of 8
        // beat boundaries); scrambled traffic almost never does. (The
        // DDR4 key structure itself can make one intra-block boundary
        // switch heavily when a group mask is dense, so the *worst* single
        // event is not the discriminator — the sustained fraction is.)
        assert!(
            plain.high_switch_fraction > 0.12,
            "{}",
            plain.high_switch_fraction
        );
        assert!(
            scrambled.high_switch_fraction < 0.02,
            "high-switch fraction {}",
            scrambled.high_switch_fraction
        );
        assert!(scrambled.transition_rate > 0.4);
    }

    #[test]
    #[should_panic(expected = "whole bursts")]
    fn partial_bursts_rejected() {
        analyze_bus_traffic(&Plaintext, 0, &[0u8; 100]);
    }
}
