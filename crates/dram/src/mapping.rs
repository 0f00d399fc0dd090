//! Invertible physical-address → DRAM-location mappings.
//!
//! Different Intel CPU generations interleave channel, rank, bank, row, and
//! column bits differently. The paper's attack model notes that when a
//! second machine is used to dump a frozen DIMM, "the attacker must use a
//! CPU that is the same generation as the one being attacked" for exactly
//! this reason. We model the mappings as ordered bit-field layouts over the
//! block index (physical address with the 6 block-offset bits removed):
//! faithful in *structure* (interleaving order differs per generation,
//! channel bits sit low for fine-grained interleaving) even though Intel's
//! exact bit formulas are undocumented.

use crate::geometry::{DramGeometry, DramLocation};

/// CPU microarchitecture, which selects the address interleaving layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microarchitecture {
    /// 2nd generation Core (DDR3).
    SandyBridge,
    /// 3rd generation Core (DDR3); same DRAM layout family as SandyBridge
    /// but a different bank interleave.
    IvyBridge,
    /// 6th generation Core (DDR4) with bank groups.
    Skylake,
}

impl Microarchitecture {
    /// Human-readable name, matching the paper's Table I.
    pub fn name(self) -> &'static str {
        match self {
            Microarchitecture::SandyBridge => "SandyBridge",
            Microarchitecture::IvyBridge => "IvyBridge",
            Microarchitecture::Skylake => "Skylake",
        }
    }

    /// The memory standard this generation's controller speaks.
    pub fn memory_standard(self) -> &'static str {
        match self {
            Microarchitecture::SandyBridge | Microarchitecture::IvyBridge => "DDR3",
            Microarchitecture::Skylake => "DDR4",
        }
    }
}

/// The components of a DRAM location, in interleave order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Channel,
    Rank,
    BankGroup,
    Bank,
    Row,
    Block,
}

/// An invertible mapping between physical addresses and DRAM locations.
///
/// ```
/// use coldboot_dram::geometry::DramGeometry;
/// use coldboot_dram::mapping::{AddressMapping, Microarchitecture};
///
/// let map = AddressMapping::new(Microarchitecture::Skylake,
///                               DramGeometry::ddr4_dual_channel_8gib());
/// let loc = map.decompose(0x12345678);
/// assert_eq!(map.compose(loc), 0x12345678 & !0x3f); // block-aligned
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapping {
    uarch: Microarchitecture,
    geometry: DramGeometry,
    layout: Vec<(Field, u32)>,
}

impl AddressMapping {
    /// Creates a mapping for the given microarchitecture and geometry.
    ///
    /// # Panics
    ///
    /// Panics if any geometry dimension is not a power of two.
    pub fn new(uarch: Microarchitecture, geometry: DramGeometry) -> Self {
        assert!(
            geometry.is_power_of_two_shaped(),
            "geometry dimensions must be powers of two: {geometry}"
        );
        let w = |n: u32| n.trailing_zeros();
        let layout = match uarch {
            // DDR3 (no bank groups): channel interleave at the block
            // granularity, then column-high, bank, rank, row.
            Microarchitecture::SandyBridge => vec![
                (Field::Channel, w(geometry.channels)),
                (Field::Block, w(geometry.blocks_per_row)),
                (Field::Bank, w(geometry.banks_per_group)),
                (Field::BankGroup, w(geometry.bank_groups)),
                (Field::Rank, w(geometry.ranks)),
                (Field::Row, w(geometry.rows)),
            ],
            // IvyBridge: bank bits moved below the column bits (finer bank
            // interleave).
            Microarchitecture::IvyBridge => vec![
                (Field::Channel, w(geometry.channels)),
                (Field::Bank, w(geometry.banks_per_group)),
                (Field::BankGroup, w(geometry.bank_groups)),
                (Field::Block, w(geometry.blocks_per_row)),
                (Field::Rank, w(geometry.ranks)),
                (Field::Row, w(geometry.rows)),
            ],
            // Skylake DDR4: bank-group interleave right above the channel
            // bits to exploit tCCD_S, then column, bank, rank, row.
            Microarchitecture::Skylake => vec![
                (Field::Channel, w(geometry.channels)),
                (Field::BankGroup, w(geometry.bank_groups)),
                (Field::Block, w(geometry.blocks_per_row)),
                (Field::Bank, w(geometry.banks_per_group)),
                (Field::Rank, w(geometry.ranks)),
                (Field::Row, w(geometry.rows)),
            ],
        };
        Self {
            uarch,
            geometry,
            layout,
        }
    }

    /// The microarchitecture this mapping models.
    pub fn microarchitecture(&self) -> Microarchitecture {
        self.uarch
    }

    /// The geometry this mapping covers.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Total number of address bits consumed (above the 6 block-offset
    /// bits).
    fn index_bits(&self) -> u32 {
        self.layout.iter().map(|&(_, w)| w).sum()
    }

    /// Decomposes a physical byte address into a DRAM location.
    ///
    /// Addresses beyond the geometry's capacity wrap (the high bits are
    /// ignored), mirroring how a memory controller masks unpopulated bits.
    pub fn decompose(&self, phys_addr: u64) -> DramLocation {
        let mut index = (phys_addr >> 6) & ((1u64 << self.index_bits()) - 1);
        let mut loc = DramLocation {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 0,
            block: 0,
        };
        for &(field, width) in &self.layout {
            // lint:allow(truncating-cast): value is masked to `width` (< 32) bits before the cast
            let value = (index & ((1u64 << width) - 1)) as u32;
            index >>= width;
            match field {
                Field::Channel => loc.channel = value,
                Field::Rank => loc.rank = value,
                Field::BankGroup => loc.bank_group = value,
                Field::Bank => loc.bank = value,
                Field::Row => loc.row = value,
                Field::Block => loc.block = value,
            }
        }
        loc
    }

    /// Recomposes a DRAM location into the (block-aligned) physical address.
    ///
    /// # Panics
    ///
    /// Panics if any location component exceeds the geometry.
    pub fn compose(&self, loc: DramLocation) -> u64 {
        let mut addr = 0u64;
        let mut shift = 0u32;
        for &(field, width) in &self.layout {
            let value = match field {
                Field::Channel => loc.channel,
                Field::Rank => loc.rank,
                Field::BankGroup => loc.bank_group,
                Field::Bank => loc.bank,
                Field::Row => loc.row,
                Field::Block => loc.block,
            };
            assert!(
                u64::from(value) < (1u64 << width) || width == 0 && value == 0,
                "location component {field:?}={value} exceeds geometry width {width}"
            );
            addr |= u64::from(value) << shift;
            shift += width;
        }
        addr << 6
    }

    /// The channel a physical address falls in.
    pub fn channel_of(&self, phys_addr: u64) -> u32 {
        self.decompose(phys_addr).channel
    }

    /// The block index of a physical address *within its channel* — the
    /// quantity scrambler key selection is based on.
    pub fn channel_block_index(&self, phys_addr: u64) -> u64 {
        let mut index = (phys_addr >> 6) & ((1u64 << self.index_bits()) - 1);
        let mut out = 0u64;
        let mut shift = 0u32;
        for &(field, width) in &self.layout {
            let value = index & ((1u64 << width) - 1);
            index >>= width;
            if field != Field::Channel {
                out |= value << shift;
                shift += width;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_mappings() -> Vec<AddressMapping> {
        vec![
            AddressMapping::new(
                Microarchitecture::SandyBridge,
                DramGeometry::ddr3_dual_channel_4gib(),
            ),
            AddressMapping::new(
                Microarchitecture::IvyBridge,
                DramGeometry::ddr3_dual_channel_4gib(),
            ),
            AddressMapping::new(
                Microarchitecture::Skylake,
                DramGeometry::ddr4_dual_channel_8gib(),
            ),
        ]
    }

    #[test]
    fn compose_inverts_decompose() {
        for map in all_mappings() {
            for addr in (0..map.geometry().capacity_bytes()).step_by(64 * 7919) {
                let loc = map.decompose(addr);
                assert_eq!(
                    map.compose(loc),
                    addr & !0x3f,
                    "{:?}",
                    map.microarchitecture()
                );
            }
        }
    }

    #[test]
    fn offsets_within_block_map_to_same_location() {
        let map = AddressMapping::new(
            Microarchitecture::Skylake,
            DramGeometry::ddr4_dual_channel_8gib(),
        );
        assert_eq!(map.decompose(0x1000), map.decompose(0x103f));
        assert_ne!(map.decompose(0x1000), map.decompose(0x1040));
    }

    #[test]
    fn generations_differ() {
        let g = DramGeometry::ddr3_dual_channel_4gib();
        let snb = AddressMapping::new(Microarchitecture::SandyBridge, g);
        let ivb = AddressMapping::new(Microarchitecture::IvyBridge, g);
        // The interleavings must differ for at least some addresses.
        let mut differs = false;
        for addr in (0..(1u64 << 24)).step_by(64) {
            if snb.decompose(addr) != ivb.decompose(addr) {
                differs = true;
                break;
            }
        }
        assert!(differs, "SandyBridge and IvyBridge mappings are identical");
    }

    #[test]
    fn channel_interleave_is_fine_grained() {
        let map = AddressMapping::new(
            Microarchitecture::Skylake,
            DramGeometry::ddr4_dual_channel_8gib(),
        );
        // Adjacent blocks alternate channels (channel bits sit lowest).
        assert_ne!(map.channel_of(0), map.channel_of(64));
        assert_eq!(map.channel_of(0), map.channel_of(128));
    }

    #[test]
    fn channel_block_index_is_dense_and_unique() {
        let map = AddressMapping::new(Microarchitecture::Skylake, DramGeometry::tiny_test());
        let capacity = map.geometry().capacity_bytes();
        let per_channel = map.geometry().blocks_per_channel();
        let mut seen = vec![false; per_channel as usize];
        for addr in (0..capacity).step_by(64) {
            let idx = map.channel_block_index(addr) as usize;
            assert!(idx < per_channel as usize);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "channel block indices not dense");
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_non_power_of_two_geometry() {
        let mut g = DramGeometry::tiny_test();
        g.rows = 1000;
        AddressMapping::new(Microarchitecture::Skylake, g);
    }
}
