//! DRAM organization: channels, ranks, bank groups, banks, rows, columns.

use std::fmt;

/// The organization of a DRAM subsystem.
///
/// All dimensions are powers of two so that physical addresses decompose
/// into bit fields. Column count is expressed in 64-byte blocks per row
/// (i.e. one row of 8 KiB has 128 blocks).
///
/// ```
/// use coldboot_dram::geometry::DramGeometry;
/// let g = DramGeometry::ddr4_dual_channel_8gib();
/// assert_eq!(g.capacity_bytes(), 8 << 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Number of memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Bank groups per rank (DDR4 has 4; DDR3 is modeled as 1).
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// 64-byte blocks per row.
    pub blocks_per_row: u32,
}

impl DramGeometry {
    /// A dual-channel 8 GiB DDR4 configuration (Skylake desktop-like):
    /// 2 channels × 1 rank × 4 bank groups × 4 banks × 32768 rows × 128
    /// blocks/row.
    pub fn ddr4_dual_channel_8gib() -> Self {
        Self {
            channels: 2,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 32768,
            blocks_per_row: 128,
        }
    }

    /// A dual-channel 4 GiB DDR3 configuration (SandyBridge notebook-like):
    /// 2 channels × 1 rank × 8 banks × 32768 rows × 128 blocks/row.
    pub fn ddr3_dual_channel_4gib() -> Self {
        Self {
            channels: 2,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 8,
            rows: 32768,
            blocks_per_row: 64,
        }
    }

    /// A small single-channel geometry convenient for tests (16 MiB).
    pub fn tiny_test() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows: 1024,
            blocks_per_row: 64,
        }
    }

    /// Banks per rank.
    #[inline]
    pub fn banks(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total 64-byte blocks across all channels.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.ranks)
            * u64::from(self.banks())
            * u64::from(self.rows)
            * u64::from(self.blocks_per_row)
    }

    /// Blocks per channel.
    #[inline]
    pub fn blocks_per_channel(&self) -> u64 {
        self.total_blocks() / u64::from(self.channels)
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_blocks() * crate::BLOCK_BYTES as u64
    }

    /// Validates that every dimension is a nonzero power of two.
    pub fn is_power_of_two_shaped(&self) -> bool {
        [
            self.channels,
            self.ranks,
            self.bank_groups,
            self.banks_per_group,
            self.rows,
            self.blocks_per_row,
        ]
        .iter()
        .all(|d| d.is_power_of_two())
    }
}

impl fmt::Display for DramGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ch x {}rank x {}bg x {}banks x {}rows x {}blk ({} MiB)",
            self.channels,
            self.ranks,
            self.bank_groups,
            self.banks_per_group,
            self.rows,
            self.blocks_per_row,
            self.capacity_bytes() >> 20
        )
    }
}

/// A fully decomposed DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank group within the rank.
    pub bank_group: u32,
    /// Bank within the bank group.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// 64-byte block within the row.
    pub block: u32,
}

impl fmt::Display for DramLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/r{}/bg{}/b{}/row{}/blk{}",
            self.channel, self.rank, self.bank_group, self.bank, self.row, self.block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        assert_eq!(
            DramGeometry::ddr4_dual_channel_8gib().capacity_bytes(),
            8 << 30
        );
        assert_eq!(
            DramGeometry::ddr3_dual_channel_4gib().capacity_bytes(),
            2 << 30
        );
        assert_eq!(DramGeometry::tiny_test().capacity_bytes(), 16 << 20);
    }

    #[test]
    fn shapes_are_power_of_two() {
        assert!(DramGeometry::ddr4_dual_channel_8gib().is_power_of_two_shaped());
        assert!(DramGeometry::ddr3_dual_channel_4gib().is_power_of_two_shaped());
        assert!(DramGeometry::tiny_test().is_power_of_two_shaped());
    }

    #[test]
    fn blocks_per_channel_divides_total() {
        let g = DramGeometry::ddr4_dual_channel_8gib();
        assert_eq!(
            g.blocks_per_channel() * u64::from(g.channels),
            g.total_blocks()
        );
    }

    #[test]
    fn display_is_informative() {
        let s = DramGeometry::tiny_test().to_string();
        assert!(s.contains("16 MiB"), "{s}");
    }
}
