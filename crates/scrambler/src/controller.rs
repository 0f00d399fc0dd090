//! The [`Machine`]: a memory controller with a configurable memory-bus
//! transform, BIOS options, and a DIMM socket.
//!
//! This is the unit the experiments move DIMMs between: a victim Skylake
//! box, an attacker's same-generation box, an FPGA-equipped analysis rig
//! (a machine with the scrambler disabled), or a future machine whose
//! "scrambler" is a strong cipher engine from `coldboot-memenc`.
//!
//! Storage is indexed by *canonical cell position* (channel, rank, bank
//! group, bank, row, block), not by physical address: a DIMM carried to a
//! machine with a different address interleaving will be read back
//! permuted, which is exactly why the paper's attack model requires a
//! same-generation CPU on the attacker's side.

use crate::ddr3::{mix64, Ddr3Scrambler};
use crate::ddr4::Ddr4Scrambler;
use crate::transform::{MemoryTransform, Plaintext};
use coldboot_dram::geometry::{DramGeometry, DramLocation};
use coldboot_dram::mapping::{AddressMapping, Microarchitecture};
use coldboot_dram::module::DramModule;
use std::error::Error;
use std::fmt;

/// BIOS configuration bits relevant to the attack surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiosConfig {
    /// Whether the memory scrambler is enabled. The paper's analysis rig
    /// used a motherboard whose BIOS exposed this switch.
    pub scrambler_enabled: bool,
    /// Whether the scrambler seed is regenerated each boot. The paper found
    /// vendor BIOSes that reuse the seed — a bonus weakness.
    pub reset_seed_on_boot: bool,
}

impl Default for BiosConfig {
    /// Scrambler on, seed reset every boot (the secure configuration).
    fn default() -> Self {
        Self {
            scrambler_enabled: true,
            reset_seed_on_boot: true,
        }
    }
}

impl BiosConfig {
    /// Scrambler switched off (the analysis rig / FPGA-equivalent
    /// configuration).
    pub fn scrambler_disabled() -> Self {
        Self {
            scrambler_enabled: false,
            reset_seed_on_boot: true,
        }
    }

    /// Scrambler on but with the vendor bug that reuses the seed across
    /// boots.
    pub fn buggy_seed_reuse() -> Self {
        Self {
            scrambler_enabled: true,
            reset_seed_on_boot: false,
        }
    }
}

/// Context handed to a transform factory at each boot.
#[derive(Debug, Clone)]
pub struct BootContext {
    /// The boot-time random seed (already accounts for the BIOS seed-reuse
    /// bug).
    pub seed: u64,
    /// The machine's address mapping.
    pub mapping: AddressMapping,
}

/// Builds the bus transform at each (re)boot.
pub type TransformFactory = Box<dyn Fn(&BootContext) -> Box<dyn MemoryTransform> + Send + Sync>;

/// Errors from [`Machine`] memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// No module is socketed.
    NoModule,
    /// A module is already socketed.
    SocketOccupied,
    /// The module size does not match the controller's populated capacity.
    ModuleSizeMismatch {
        /// Capacity the controller expects.
        expected: u64,
        /// Size of the offered module.
        got: u64,
    },
    /// The access runs past the end of memory.
    OutOfBounds {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: usize,
        /// Total capacity.
        capacity: u64,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoModule => write!(f, "no DRAM module socketed"),
            MachineError::SocketOccupied => write!(f, "socket already holds a module"),
            MachineError::ModuleSizeMismatch { expected, got } => {
                write!(f, "module size {got} does not match capacity {expected}")
            }
            MachineError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(f, "access {addr:#x}+{len} exceeds capacity {capacity:#x}"),
        }
    }
}

impl Error for MachineError {}

/// A simulated computer: controller + transform + BIOS + DIMM socket.
pub struct Machine {
    uarch: Microarchitecture,
    mapping: AddressMapping,
    bios: BiosConfig,
    machine_id: u64,
    boot_count: u64,
    transform: Box<dyn MemoryTransform>,
    factory: Option<TransformFactory>,
    module: Option<DramModule>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("uarch", &self.uarch)
            .field("bios", &self.bios)
            .field("machine_id", &self.machine_id)
            .field("boot_count", &self.boot_count)
            .field("transform", &self.transform.name())
            .field("module", &self.module.as_ref().map(|m| m.serial()))
            .finish()
    }
}

impl Machine {
    /// Creates a machine whose bus transform is the stock scrambler for the
    /// microarchitecture (or plaintext if the BIOS disables scrambling).
    pub fn new(
        uarch: Microarchitecture,
        geometry: DramGeometry,
        bios: BiosConfig,
        machine_id: u64,
    ) -> Self {
        let mapping = AddressMapping::new(uarch, geometry);
        let mut machine = Self {
            uarch,
            mapping,
            bios,
            machine_id,
            boot_count: 0,
            transform: Box::new(Plaintext),
            factory: None,
            module: None,
        };
        machine.apply_boot();
        machine
    }

    /// Creates a machine with a custom transform factory (e.g. a strong
    /// cipher engine replacing the scrambler).
    pub fn with_transform_factory(
        uarch: Microarchitecture,
        geometry: DramGeometry,
        bios: BiosConfig,
        machine_id: u64,
        factory: TransformFactory,
    ) -> Self {
        let mapping = AddressMapping::new(uarch, geometry);
        let mut machine = Self {
            uarch,
            mapping,
            bios,
            machine_id,
            boot_count: 0,
            transform: Box::new(Plaintext),
            factory: Some(factory),
            module: None,
        };
        machine.apply_boot();
        machine
    }

    fn boot_seed(&self) -> u64 {
        let epoch = if self.bios.reset_seed_on_boot {
            self.boot_count
        } else {
            0
        };
        mix64(
            self.machine_id,
            epoch.wrapping_mul(0x1234_5678_9ABC_DEF1) ^ 0xB007,
        )
    }

    fn apply_boot(&mut self) {
        let ctx = BootContext {
            seed: self.boot_seed(),
            mapping: self.mapping.clone(),
        };
        self.transform = if let Some(factory) = &self.factory {
            factory(&ctx)
        } else if !self.bios.scrambler_enabled {
            Box::new(Plaintext)
        } else {
            match self.uarch {
                Microarchitecture::SandyBridge | Microarchitecture::IvyBridge => {
                    Box::new(Ddr3Scrambler::new(ctx.mapping, ctx.seed))
                }
                Microarchitecture::Skylake => Box::new(Ddr4Scrambler::new(ctx.mapping, ctx.seed)),
            }
        };
    }

    /// Reboots the machine: a new scrambler seed is drawn (unless the BIOS
    /// has the seed-reuse bug). DRAM contents are untouched — exactly the
    /// warm-reboot scenario of the paper's Figures 3c/3e.
    pub fn reboot(&mut self) {
        self.boot_count += 1;
        self.apply_boot();
    }

    /// Reboots with a new BIOS configuration (entering setup and flipping
    /// the scrambler toggle, as the paper's analysis rig allows).
    pub fn reboot_with_bios(&mut self, bios: BiosConfig) {
        self.bios = bios;
        self.reboot();
    }

    /// The machine's microarchitecture.
    pub fn microarchitecture(&self) -> Microarchitecture {
        self.uarch
    }

    /// The machine's address mapping.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Current BIOS configuration.
    pub fn bios(&self) -> BiosConfig {
        self.bios
    }

    /// Name of the active bus transform.
    pub fn transform_name(&self) -> &'static str {
        self.transform.name()
    }

    /// The active bus transform.
    pub fn transform(&self) -> &dyn MemoryTransform {
        self.transform.as_ref()
    }

    /// Total populated capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.mapping.geometry().capacity_bytes()
    }

    /// Seats a module.
    ///
    /// # Errors
    ///
    /// Fails if the socket is occupied or the module size does not match
    /// the controller capacity.
    pub fn insert_module(&mut self, mut module: DramModule) -> Result<(), MachineError> {
        if self.module.is_some() {
            return Err(MachineError::SocketOccupied);
        }
        if module.len() as u64 != self.capacity() {
            return Err(MachineError::ModuleSizeMismatch {
                expected: self.capacity(),
                got: module.len() as u64,
            });
        }
        module.power_on();
        self.module = Some(module);
        Ok(())
    }

    /// Removes the module, cutting its power (it starts decaying).
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed.
    pub fn remove_module(&mut self) -> Result<DramModule, MachineError> {
        let mut module = self.module.take().ok_or(MachineError::NoModule)?;
        module.power_off();
        Ok(module)
    }

    /// The socketed module, if any.
    pub fn module(&self) -> Option<&DramModule> {
        self.module.as_ref()
    }

    /// Mutable access to the socketed module (e.g. to freeze it in place
    /// before pulling it, as in the paper's Figure 2).
    pub fn module_mut(&mut self) -> Option<&mut DramModule> {
        self.module.as_mut()
    }

    fn check_bounds(&self, addr: u64, len: usize) -> Result<(), MachineError> {
        if addr
            .checked_add(len as u64)
            .is_none_or(|end| end > self.capacity())
        {
            return Err(MachineError::OutOfBounds {
                addr,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    /// The canonical cell offset for a DRAM location — the module-internal
    /// byte position of the start of that block.
    fn canonical_block_offset(&self, loc: DramLocation) -> usize {
        let g = self.mapping.geometry();
        let mut index = u64::from(loc.channel);
        index = index * u64::from(g.ranks) + u64::from(loc.rank);
        index = index * u64::from(g.bank_groups) + u64::from(loc.bank_group);
        index = index * u64::from(g.banks_per_group) + u64::from(loc.bank);
        index = index * u64::from(g.rows) + u64::from(loc.row);
        index = index * u64::from(g.blocks_per_row) + u64::from(loc.block);
        (index as usize) * coldboot_dram::BLOCK_BYTES
    }

    fn for_each_block<F>(&mut self, addr: u64, len: usize, mut f: F) -> Result<(), MachineError>
    where
        F: FnMut(&mut DramModule, &dyn MemoryTransform, u64, usize, usize, usize),
    {
        self.check_bounds(addr, len)?;
        if self.module.is_none() {
            return Err(MachineError::NoModule);
        }
        let mut cursor = addr;
        let end = addr + len as u64;
        let mut data_pos = 0usize;
        while cursor < end {
            let block_base = cursor & !63;
            let in_block = (cursor - block_base) as usize;
            let take = ((end - cursor) as usize).min(64 - in_block);
            let loc = self.mapping.decompose(block_base);
            let cell_offset = self.canonical_block_offset(loc) + in_block;
            // lint:allow(panic): self.module was checked for None on entry
            let module = self.module.as_mut().expect("checked above");
            f(
                module,
                self.transform.as_ref(),
                block_base,
                in_block,
                cell_offset,
                data_pos,
            );
            data_pos += take;
            cursor = block_base + 64;
        }
        Ok(())
    }

    /// Writes `data` at physical address `addr` through the bus transform.
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed or the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MachineError> {
        let end = addr + data.len() as u64;
        self.for_each_block(
            addr,
            data.len(),
            |module, transform, block_base, in_block, cell_offset, data_pos| {
                let take = ((end - (block_base + in_block as u64)) as usize).min(64 - in_block);
                let mut chunk = data[data_pos..data_pos + take].to_vec();
                transform.apply(block_base + in_block as u64, &mut chunk);
                module.write(cell_offset, &chunk);
            },
        )
    }

    /// Reads into `buf` from physical address `addr` through the bus
    /// transform.
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed or the range is out of bounds.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MachineError> {
        let len = buf.len();
        let end = addr + len as u64;
        // Collect per-block reads first to avoid aliasing `buf` in the
        // closure.
        let mut pieces: Vec<(usize, Vec<u8>)> = Vec::new();
        self.for_each_block(
            addr,
            len,
            |module, transform, block_base, in_block, cell_offset, data_pos| {
                let take = ((end - (block_base + in_block as u64)) as usize).min(64 - in_block);
                let mut chunk = vec![0u8; take];
                module.read(cell_offset, &mut chunk);
                transform.apply(block_base + in_block as u64, &mut chunk);
                pieces.push((data_pos, chunk));
            },
        )?;
        for (pos, chunk) in pieces {
            buf[pos..pos + chunk.len()].copy_from_slice(&chunk);
        }
        Ok(())
    }

    /// Dumps `len` bytes starting at `addr` as software sees them (through
    /// the descrambler) — what the paper's bare-metal GRUB module captures.
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed or the range is out of bounds.
    pub fn dump(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, MachineError> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Fills all of memory with one byte value through the transform
    /// (what `memset` over the whole address space would store).
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed.
    pub fn fill(&mut self, value: u8) -> Result<(), MachineError> {
        let capacity = self.capacity();
        let chunk = vec![value; 1 << 16];
        let mut addr = 0u64;
        while addr < capacity {
            let take = ((capacity - addr) as usize).min(chunk.len());
            self.write(addr, &chunk[..take])?;
            addr += take as u64;
        }
        Ok(())
    }

    /// Reads raw cells, bypassing the transform (the FPGA-style debug view).
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed or the range is out of bounds.
    pub fn peek_raw(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, MachineError> {
        let mut out = vec![0u8; len];
        let end = addr + len as u64;
        self.for_each_block(
            addr,
            len,
            |module, _transform, block_base, in_block, cell_offset, data_pos| {
                let take = ((end - (block_base + in_block as u64)) as usize).min(64 - in_block);
                let mut chunk = vec![0u8; take];
                module.read(cell_offset, &mut chunk);
                out[data_pos..data_pos + take].copy_from_slice(&chunk);
            },
        )?;
        Ok(out)
    }

    /// Writes raw cells, bypassing the transform (the FPGA writing
    /// unscrambled data).
    ///
    /// # Errors
    ///
    /// Fails if no module is socketed or the range is out of bounds.
    pub fn poke_raw(&mut self, addr: u64, data: &[u8]) -> Result<(), MachineError> {
        let end = addr + data.len() as u64;
        self.for_each_block(
            addr,
            data.len(),
            |module, _transform, block_base, in_block, cell_offset, data_pos| {
                let take = ((end - (block_base + in_block as u64)) as usize).min(64 - in_block);
                module.write(cell_offset, &data[data_pos..data_pos + take]);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skylake() -> Machine {
        Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::default(),
            1,
        )
    }

    fn with_module(mut m: Machine) -> Machine {
        let size = m.capacity() as usize;
        m.insert_module(DramModule::new(size, 99)).unwrap();
        m
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = with_module(skylake());
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        m.write(0x1234, &data).unwrap();
        let mut buf = vec![0u8; 300];
        m.read(0x1234, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn raw_cells_are_scrambled() {
        let mut m = with_module(skylake());
        m.write(0, &[0u8; 64]).unwrap();
        let raw = m.peek_raw(0, 64).unwrap();
        assert_ne!(raw, vec![0u8; 64], "zeros must be scrambled on the bus");
        // And the raw value of a zero block IS the scrambler key.
        let ks = m.transform().keystream(0);
        assert_eq!(&raw[..], &ks[..]);
    }

    #[test]
    fn scrambler_disabled_stores_plaintext() {
        let mut m = with_module(Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::scrambler_disabled(),
            1,
        ));
        m.write(64, b"visible").unwrap();
        let raw = m.peek_raw(64, 7).unwrap();
        assert_eq!(&raw[..], b"visible");
    }

    #[test]
    fn reboot_changes_keystream() {
        let mut m = skylake();
        let before = m.transform().keystream(0);
        m.reboot();
        let after = m.transform().keystream(0);
        assert_ne!(before, after);
    }

    #[test]
    fn buggy_bios_reuses_seed() {
        let mut m = Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::buggy_seed_reuse(),
            1,
        );
        let before = m.transform().keystream(0);
        m.reboot();
        assert_eq!(before, m.transform().keystream(0));
    }

    #[test]
    fn different_machines_have_different_keys() {
        let a = Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::default(),
            1,
        );
        let b = Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::default(),
            2,
        );
        assert_ne!(a.transform().keystream(0), b.transform().keystream(0));
    }

    #[test]
    fn module_transplant_preserves_raw_cells() {
        let mut victim = with_module(skylake());
        victim.write(0x2000, b"round keys live here").unwrap();
        let raw_before = victim.peek_raw(0x2000, 20).unwrap();

        let module = victim.remove_module().unwrap();
        assert!(!module.is_powered());

        let mut attacker = Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::scrambler_disabled(),
            2,
        );
        attacker.insert_module(module).unwrap();
        // Same generation => same canonical layout => raw cells readable at
        // the same physical addresses.
        let raw_after = attacker.peek_raw(0x2000, 20).unwrap();
        assert_eq!(raw_before, raw_after);
        // With the attacker's scrambler off, the dump shows the victim's
        // scrambled bytes directly.
        assert_eq!(attacker.dump(0x2000, 20).unwrap(), raw_before);
    }

    #[test]
    fn cross_generation_transplant_garbles_addresses() {
        let g = DramGeometry::ddr3_dual_channel_4gib();
        let small = DramGeometry { rows: 64, ..g };
        let mut snb = Machine::new(
            Microarchitecture::SandyBridge,
            small,
            BiosConfig::scrambler_disabled(),
            1,
        );
        let size = snb.capacity() as usize;
        snb.insert_module(DramModule::new(size, 5)).unwrap();
        let data: Vec<u8> = (0..=255)
            .cycle()
            .take(1 << 16)
            .map(|b: u16| b as u8)
            .collect();
        snb.write(0, &data).unwrap();
        let module = snb.remove_module().unwrap();

        let mut ivb = Machine::new(
            Microarchitecture::IvyBridge,
            small,
            BiosConfig::scrambler_disabled(),
            2,
        );
        ivb.insert_module(module).unwrap();
        let read_back = ivb.dump(0, 1 << 16).unwrap();
        assert_ne!(
            read_back, data,
            "different interleavings must permute the view"
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = with_module(skylake());
        let cap = m.capacity();
        assert!(matches!(
            m.write(cap - 3, &[0u8; 8]),
            Err(MachineError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 1];
        assert!(m.read(cap, &mut buf).is_err());
    }

    #[test]
    fn socket_rules() {
        let mut m = skylake();
        let mut buf = [0u8; 1];
        assert_eq!(m.read(0, &mut buf), Err(MachineError::NoModule));
        let size = m.capacity() as usize;
        m.insert_module(DramModule::new(size, 1)).unwrap();
        assert_eq!(
            m.insert_module(DramModule::new(size, 2)),
            Err(MachineError::SocketOccupied)
        );
        let wrong = DramModule::new(64, 3);
        let mut empty = skylake();
        assert!(matches!(
            empty.insert_module(wrong),
            Err(MachineError::ModuleSizeMismatch { .. })
        ));
    }

    #[test]
    fn fill_writes_everything() {
        let mut m = with_module(skylake());
        m.fill(0xEE).unwrap();
        let mut buf = vec![0u8; 128];
        m.read(m.capacity() - 128, &mut buf).unwrap();
        assert_eq!(buf, vec![0xEE; 128]);
    }

    #[test]
    fn reboot_after_write_garbles_reads() {
        let mut m = with_module(skylake());
        m.write(0, b"before reboot").unwrap();
        m.reboot();
        let mut buf = [0u8; 13];
        m.read(0, &mut buf).unwrap();
        assert_ne!(&buf, b"before reboot");
    }
}
