//! Mounted volumes: the in-DRAM attack surface.
//!
//! Mounting a volume caches the expanded AES-256 key schedules (data key
//! followed by tweak key, 480 bytes total) in simulated DRAM, where they
//! stay until the volume is cleanly unmounted — precisely the window the
//! paper's cold boot attack exploits ("even disk encryption tools ... are
//! still susceptible ... as the expanded keys for mounted volumes are
//! cached in DRAM until the drive is unmounted").

use crate::volume::{Volume, VolumeError};
use coldboot_crypto::aes::{Aes, KeySchedule};
use coldboot_crypto::ct;
use coldboot_crypto::xts::Xts;
use coldboot_scrambler::controller::{Machine, MachineError};
use std::error::Error;
use std::fmt;

/// Bytes of one expanded AES-256 schedule.
pub const SCHEDULE_BYTES: usize = 240;

/// Total key-table footprint in DRAM (data + tweak schedules).
pub const KEY_TABLE_BYTES: usize = 2 * SCHEDULE_BYTES;

/// Errors from mount operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountError {
    /// Volume-level failure (wrong password etc.).
    Volume(VolumeError),
    /// Memory-level failure (no module, out of bounds).
    Machine(MachineError),
}

impl fmt::Display for MountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MountError::Volume(e) => write!(f, "volume error: {e}"),
            MountError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl Error for MountError {}

impl From<VolumeError> for MountError {
    fn from(e: VolumeError) -> Self {
        MountError::Volume(e)
    }
}

impl From<MachineError> for MountError {
    fn from(e: MachineError) -> Self {
        MountError::Machine(e)
    }
}

/// Where a mounted volume's key material lives.
///
/// §II-B surveys mitigations that keep keys out of DRAM: Loop-Amnesia
/// stores them in MSRs, TRESOR in x86 debug registers. Both defeat the
/// cold boot attack at a per-operation performance cost (round keys must
/// be regenerated before every encryption and erased after).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyStoragePolicy {
    /// Expanded schedules cached in DRAM — the common case and the attack
    /// surface.
    #[default]
    DramCached,
    /// TRESOR-style: master keys live only in privileged CPU registers;
    /// schedules are re-expanded on every use and never written to DRAM.
    RegistersOnly,
}

/// A volume mounted on a simulated machine.
pub struct MountedVolume {
    key_table_addr: u64,
    policy: KeyStoragePolicy,
    /// TRESOR-style register bank (x86 debug registers / MSRs): present
    /// only under [`KeyStoragePolicy::RegistersOnly`]. Lives in the mount
    /// object — i.e. CPU state — never in the simulated DRAM.
    register_keys: Option<([u8; 32], [u8; 32])>,
}

impl fmt::Debug for MountedVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MountedVolume")
            .field("key_table_addr", &self.key_table_addr)
            .field("policy", &self.policy)
            .field(
                "register_keys",
                &self.register_keys.as_ref().map(|_| "[redacted]"),
            )
            .finish()
    }
}

impl Drop for MountedVolume {
    fn drop(&mut self) {
        // TRESOR semantics: the register bank is erased the moment the
        // mount object goes away (best-effort under forbid(unsafe_code);
        // the black_box pin keeps the stores from being optimized away).
        if let Some(bank) = self.register_keys.as_mut() {
            bank.0 = [0u8; 32];
            bank.1 = [0u8; 32];
        }
        std::hint::black_box(&self.register_keys);
    }
}

impl MountedVolume {
    /// Unlocks `volume` with `password` and caches the expanded key
    /// schedules in `machine`'s DRAM at `key_table_addr` (any byte address;
    /// real allocators rarely hand out block-aligned key structs).
    ///
    /// # Errors
    ///
    /// Fails on a wrong password or if the machine cannot store the table.
    pub fn mount(
        machine: &mut Machine,
        volume: &Volume,
        password: &[u8],
        key_table_addr: u64,
    ) -> Result<Self, MountError> {
        Self::mount_with_policy(
            machine,
            volume,
            password,
            key_table_addr,
            KeyStoragePolicy::DramCached,
        )
    }

    /// [`Self::mount`] with an explicit key-storage policy.
    ///
    /// Under [`KeyStoragePolicy::RegistersOnly`] nothing key-derived is
    /// written to DRAM at all; `key_table_addr` is recorded but unused.
    ///
    /// # Errors
    ///
    /// Fails on a wrong password or if the machine cannot store the table.
    pub fn mount_with_policy(
        machine: &mut Machine,
        volume: &Volume,
        password: &[u8],
        key_table_addr: u64,
        policy: KeyStoragePolicy,
    ) -> Result<Self, MountError> {
        let keys = volume.unlock(password)?;
        match policy {
            KeyStoragePolicy::DramCached => {
                let mut table = Vec::with_capacity(KEY_TABLE_BYTES);
                table.extend_from_slice(
                    &KeySchedule::expand(&keys.data_key)
                        // lint:allow(panic): data_key is a fixed 32-byte array
                        .expect("32-byte key")
                        .to_bytes(),
                );
                table.extend_from_slice(
                    &KeySchedule::expand(&keys.tweak_key)
                        // lint:allow(panic): tweak_key is a fixed 32-byte array
                        .expect("32-byte key")
                        .to_bytes(),
                );
                machine.write(key_table_addr, &table)?;
                Ok(Self {
                    key_table_addr,
                    policy,
                    register_keys: None,
                })
            }
            KeyStoragePolicy::RegistersOnly => Ok(Self {
                key_table_addr,
                policy,
                register_keys: Some((keys.data_key, keys.tweak_key)),
            }),
        }
    }

    /// Physical address of the in-DRAM key table (meaningless under
    /// [`KeyStoragePolicy::RegistersOnly`]).
    pub fn key_table_addr(&self) -> u64 {
        self.key_table_addr
    }

    /// The key-storage policy in effect.
    pub fn policy(&self) -> KeyStoragePolicy {
        self.policy
    }

    /// Reads a sector by loading the schedules back out of DRAM (as the
    /// driver's data path does) and decrypting with them — the keys in
    /// memory are live state, not a copy.
    ///
    /// # Errors
    ///
    /// Fails if DRAM cannot be read, the cached schedules no longer expand
    /// consistently (memory corrupted), or the sector is out of range.
    pub fn read_sector(
        &self,
        machine: &mut Machine,
        volume: &Volume,
        sector: u64,
    ) -> Result<Vec<u8>, MountError> {
        let xts = self.cipher_from_dram(machine)?;
        let mut data = volume.ciphertext_sector(sector)?.to_vec();
        xts.decrypt_data_unit(sector, &mut data)
            // lint:allow(panic): SECTOR_BYTES is a multiple of 16
            .expect("sector is a multiple of 16");
        Ok(data)
    }

    fn cipher_from_dram(&self, machine: &mut Machine) -> Result<Xts, MountError> {
        if let Some((data_key, tweak_key)) = &self.register_keys {
            // TRESOR path: re-expand from registers on every operation —
            // the §II-B performance cost ("round keys must be generated
            // before any encryption operation and subsequently erased").
            return Ok(Xts::from_ciphers(
                // lint:allow(panic): register bank keys are fixed 32-byte arrays
                Aes::from_schedule(KeySchedule::expand(data_key).expect("32-byte key")),
                // lint:allow(panic): register bank keys are fixed 32-byte arrays
                Aes::from_schedule(KeySchedule::expand(tweak_key).expect("32-byte key")),
            ));
        }
        let mut table = vec![0u8; KEY_TABLE_BYTES];
        machine.read(self.key_table_addr, &mut table)?;
        let data_key: Vec<u8> = table[..32].to_vec();
        let tweak_key: Vec<u8> = table[SCHEDULE_BYTES..SCHEDULE_BYTES + 32].to_vec();
        // lint:allow(panic): the slice is exactly 32 bytes
        let data_schedule = KeySchedule::expand(&data_key).expect("32-byte key");
        // lint:allow(panic): the slice is exactly 32 bytes
        let tweak_schedule = KeySchedule::expand(&tweak_key).expect("32-byte key");
        // Integrity check: the cached table must still be a consistent
        // expansion (detects DRAM corruption). Constant-time: the check
        // touches live key schedules, so it must not leak a matching-prefix
        // length through early exit.
        if !ct::eq(&data_schedule.to_bytes(), &table[..SCHEDULE_BYTES])
            || !ct::eq(&tweak_schedule.to_bytes(), &table[SCHEDULE_BYTES..])
        {
            return Err(MountError::Volume(VolumeError::MalformedContainer));
        }
        Ok(Xts::from_ciphers(
            Aes::from_schedule(data_schedule),
            Aes::from_schedule(tweak_schedule),
        ))
    }

    /// Cleanly unmounts: zeroizes the key table in DRAM (the mitigation
    /// §II-B describes — it only helps if the attacker arrives *after*
    /// unmount).
    ///
    /// # Errors
    ///
    /// Fails if the zeroizing write cannot be performed.
    pub fn unmount(self, machine: &mut Machine) -> Result<(), MountError> {
        if self.policy == KeyStoragePolicy::DramCached {
            machine.write(self.key_table_addr, &[0u8; KEY_TABLE_BYTES])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_crypto::rng::SplitMix64;
    use coldboot_dram::geometry::DramGeometry;
    use coldboot_dram::mapping::Microarchitecture;
    use coldboot_dram::module::DramModule;
    use coldboot_scrambler::controller::BiosConfig;

    const SECRET: &[u8] = b"quarterly numbers, customer database, private keys";

    fn machine() -> Machine {
        let mut m = Machine::new(
            Microarchitecture::Skylake,
            DramGeometry::tiny_test(),
            BiosConfig::default(),
            11,
        );
        let size = m.capacity() as usize;
        m.insert_module(DramModule::new(size, 77)).unwrap();
        m
    }

    fn volume() -> Volume {
        Volume::create(b"pw", SECRET, &mut SplitMix64::new(3))
    }

    #[test]
    fn mount_writes_expanded_schedules_to_dram() {
        let mut m = machine();
        let vol = volume();
        let keys = vol.unlock(b"pw").unwrap();
        let mounted = MountedVolume::mount(&mut m, &vol, b"pw", 0x4_0123).unwrap();
        // The plaintext (descrambled) view of DRAM holds the schedules.
        let mut table = vec![0u8; KEY_TABLE_BYTES];
        m.read(mounted.key_table_addr(), &mut table).unwrap();
        assert_eq!(&table[..32], &keys.data_key);
        assert_eq!(&table[SCHEDULE_BYTES..SCHEDULE_BYTES + 32], &keys.tweak_key);
        // But the raw cells are scrambled.
        let raw = m.peek_raw(mounted.key_table_addr(), 32).unwrap();
        assert_ne!(&raw[..], &keys.data_key);
    }

    #[test]
    fn read_sector_through_dram_resident_keys() {
        let mut m = machine();
        let vol = volume();
        let mounted = MountedVolume::mount(&mut m, &vol, b"pw", 0x1000).unwrap();
        let sector = mounted.read_sector(&mut m, &vol, 0).unwrap();
        assert_eq!(&sector[..SECRET.len()], SECRET);
    }

    #[test]
    fn wrong_password_does_not_mount() {
        let mut m = machine();
        let vol = volume();
        assert!(matches!(
            MountedVolume::mount(&mut m, &vol, b"nope", 0x1000),
            Err(MountError::Volume(VolumeError::WrongPassword))
        ));
    }

    #[test]
    fn unmount_zeroizes_the_key_table() {
        let mut m = machine();
        let vol = volume();
        let mounted = MountedVolume::mount(&mut m, &vol, b"pw", 0x2000).unwrap();
        let addr = mounted.key_table_addr();
        mounted.unmount(&mut m).unwrap();
        let mut table = vec![0u8; KEY_TABLE_BYTES];
        m.read(addr, &mut table).unwrap();
        assert!(table.iter().all(|&b| b == 0), "key table not zeroized");
    }

    #[test]
    fn registers_only_mount_leaves_dram_clean() {
        let mut m = machine();
        let vol = volume();
        let before = m.peek_raw(0, m.capacity() as usize).unwrap();
        let mounted = MountedVolume::mount_with_policy(
            &mut m,
            &vol,
            b"pw",
            0x1000,
            KeyStoragePolicy::RegistersOnly,
        )
        .unwrap();
        // Not a single DRAM cell changed...
        let after = m.peek_raw(0, m.capacity() as usize).unwrap();
        assert_eq!(before, after);
        // ...yet the volume still reads.
        let sector = mounted.read_sector(&mut m, &vol, 0).unwrap();
        assert_eq!(&sector[..SECRET.len()], SECRET);
        mounted.unmount(&mut m).unwrap();
    }

    #[test]
    fn corrupted_dram_is_detected() {
        let mut m = machine();
        let vol = volume();
        let mounted = MountedVolume::mount(&mut m, &vol, b"pw", 0x3000).unwrap();
        // Corrupt one byte of the cached schedule through the front door.
        let mut b = [0u8; 1];
        m.read(0x3000 + 100, &mut b).unwrap();
        m.write(0x3000 + 100, &[b[0] ^ 0xFF]).unwrap();
        assert!(mounted.read_sector(&mut m, &vol, 0).is_err());
    }
}
