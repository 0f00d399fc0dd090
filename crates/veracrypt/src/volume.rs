//! The encrypted container format.
//!
//! Layout (all sizes in bytes):
//!
//! ```text
//! [ 0..16)    salt (plaintext)
//! [16..144)   header: encrypted with the password-derived XTS keys
//!   [ 0.. 8)  magic "VCRYSIM1"
//!   [ 8..40)  data master key (AES-256)
//!   [40..72)  tweak master key (AES-256)
//!   [72..80)  payload sector count
//!   [80..128) reserved (zero)
//! [144.. )    payload sectors, AES-256-XTS under the master keys
//! ```
//!
//! As in the real format, the header is decrypted with keys derived from
//! the password via PBKDF2-HMAC-SHA512 (VeraCrypt's default KDF), and the
//! payload with independent random master keys — so recovering the master
//! keys (as the cold boot attack does) decrypts the disk without ever
//! learning the password.

use coldboot_crypto::ct;
use coldboot_crypto::rng::SplitMix64;
use coldboot_crypto::sha512::pbkdf2_hmac_sha512;
use coldboot_crypto::xts::Xts;
use std::error::Error;
use std::fmt;

/// Sector size of the simulated disk.
pub const SECTOR_BYTES: usize = 512;

/// Salt length.
pub const SALT_BYTES: usize = 16;

/// Encrypted header length (one XTS unit).
pub const HEADER_BYTES: usize = 128;

/// Magic bytes identifying a successfully decrypted header.
pub const MAGIC: &[u8; 8] = b"VCRYSIM1";

/// PBKDF2-HMAC-SHA512 iteration count. Real VeraCrypt defaults to 500 000
/// for SHA-512 headers; the simulation keeps the same construction with a
/// smaller count (the KDF is never under attack — the cold boot attack
/// bypasses it entirely by stealing the expanded master keys from DRAM).
pub const KDF_ITERATIONS: u32 = 2_000;

/// Errors from volume operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeError {
    /// The password failed to decrypt the header (bad password or
    /// corrupted volume).
    WrongPassword,
    /// The container bytes are too short or misshapen.
    MalformedContainer,
    /// A sector index beyond the payload was requested.
    SectorOutOfRange {
        /// Requested sector.
        sector: u64,
        /// Number of payload sectors.
        count: u64,
    },
}

impl fmt::Display for VolumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolumeError::WrongPassword => write!(f, "header did not decrypt (wrong password?)"),
            VolumeError::MalformedContainer => write!(f, "malformed volume container"),
            VolumeError::SectorOutOfRange { sector, count } => {
                write!(f, "sector {sector} out of range ({count} sectors)")
            }
        }
    }
}

impl Error for VolumeError {}

/// The two AES-256 master keys of an XTS volume.
///
/// This is the exact material the cold boot attack recovers from DRAM, so
/// the victim-side representation redacts `Debug` output and zeroizes on
/// `Drop`.
#[derive(Clone, PartialEq, Eq)]
pub struct MasterKeys {
    /// Key encrypting sector data.
    pub data_key: [u8; 32],
    /// Key deriving per-sector tweaks.
    pub tweak_key: [u8; 32],
}

impl fmt::Debug for MasterKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MasterKeys")
            .field("data_key", &"[redacted]")
            .field("tweak_key", &"[redacted]")
            .finish()
    }
}

impl Drop for MasterKeys {
    fn drop(&mut self) {
        // Best-effort zeroization under `#![forbid(unsafe_code)]`; the
        // black_box pin keeps the stores from being optimized away.
        self.data_key = [0u8; 32];
        self.tweak_key = [0u8; 32];
        std::hint::black_box(&self.data_key);
        std::hint::black_box(&self.tweak_key);
    }
}

impl MasterKeys {
    /// Builds the XTS cipher for these keys.
    pub fn cipher(&self) -> Xts {
        // lint:allow(panic): both key slices are fixed 32-byte arrays
        Xts::new(&self.data_key, &self.tweak_key).expect("32-byte keys are always valid")
    }
}

/// An encrypted volume container (the at-rest representation).
#[derive(Debug, Clone)]
pub struct Volume {
    bytes: Vec<u8>,
}

fn header_keys(password: &[u8], salt: &[u8; SALT_BYTES]) -> Xts {
    let material = pbkdf2_hmac_sha512(password, salt, KDF_ITERATIONS, 64);
    // lint:allow(panic): the KDF output is exactly 64 bytes by construction
    Xts::new(&material[..32], &material[32..]).expect("32-byte keys are always valid")
}

impl Volume {
    /// Creates a new volume holding `plaintext` (padded to whole sectors),
    /// protected by `password`. Master keys and salt are drawn from `rng`,
    /// a deterministic, non-cryptographic generator: the volume is a seeded
    /// simulation fixture, reproducible from its seed.
    pub fn create(password: &[u8], plaintext: &[u8], rng: &mut SplitMix64) -> Self {
        let mut salt = [0u8; SALT_BYTES];
        rng.fill(&mut salt);
        let keys = MasterKeys {
            data_key: rng.bytes(),
            tweak_key: rng.bytes(),
        };

        let sector_count = plaintext.len().div_ceil(SECTOR_BYTES).max(1);
        let mut payload = plaintext.to_vec();
        payload.resize(sector_count * SECTOR_BYTES, 0);
        let xts = keys.cipher();
        for (i, sector) in payload.chunks_mut(SECTOR_BYTES).enumerate() {
            xts.encrypt_data_unit(i as u64, sector)
                // lint:allow(panic): SECTOR_BYTES is a multiple of 16
                .expect("sector size is a multiple of 16");
        }

        let mut header = [0u8; HEADER_BYTES];
        header[..8].copy_from_slice(MAGIC);
        header[8..40].copy_from_slice(&keys.data_key);
        header[40..72].copy_from_slice(&keys.tweak_key);
        header[72..80].copy_from_slice(&(sector_count as u64).to_le_bytes());
        header_keys(password, &salt)
            .encrypt_data_unit(0, &mut header)
            // lint:allow(panic): HEADER_BYTES is a multiple of 16
            .expect("header is a multiple of 16");

        let mut bytes = Vec::with_capacity(SALT_BYTES + HEADER_BYTES + payload.len());
        bytes.extend_from_slice(&salt);
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&payload);
        Self { bytes }
    }

    /// Wraps existing container bytes.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::MalformedContainer`] if the container is too
    /// short or has a partial sector.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, VolumeError> {
        if bytes.len() < SALT_BYTES + HEADER_BYTES
            || !(bytes.len() - SALT_BYTES - HEADER_BYTES).is_multiple_of(SECTOR_BYTES)
        {
            return Err(VolumeError::MalformedContainer);
        }
        Ok(Self { bytes })
    }

    /// The raw container bytes (what sits on disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of payload sectors physically present.
    pub fn sector_capacity(&self) -> u64 {
        ((self.bytes.len() - SALT_BYTES - HEADER_BYTES) / SECTOR_BYTES) as u64
    }

    /// Attempts to unlock the volume with `password`, returning the master
    /// keys.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::WrongPassword`] if the decrypted header lacks
    /// the magic, or [`VolumeError::MalformedContainer`] if the recorded
    /// sector count disagrees with the container size.
    pub fn unlock(&self, password: &[u8]) -> Result<MasterKeys, VolumeError> {
        let salt: [u8; SALT_BYTES] = self.bytes[..SALT_BYTES]
            .try_into()
            // lint:allow(panic): container length checked in the constructor
            .expect("length checked in constructor");
        let mut header: [u8; HEADER_BYTES] = self.bytes[SALT_BYTES..SALT_BYTES + HEADER_BYTES]
            .try_into()
            // lint:allow(panic): container length checked in the constructor
            .expect("length checked in constructor");
        header_keys(password, &salt)
            .decrypt_data_unit(0, &mut header)
            // lint:allow(panic): HEADER_BYTES is a multiple of 16
            .expect("header is a multiple of 16");
        if !ct::eq(&header[..8], MAGIC) {
            return Err(VolumeError::WrongPassword);
        }
        // lint:allow(panic): the slice is exactly 8 bytes
        let sector_count = u64::from_le_bytes(header[72..80].try_into().expect("8 bytes"));
        if sector_count != self.sector_capacity() {
            return Err(VolumeError::MalformedContainer);
        }
        Ok(MasterKeys {
            // lint:allow(panic): the slice is exactly 32 bytes
            data_key: header[8..40].try_into().expect("32 bytes"),
            // lint:allow(panic): the slice is exactly 32 bytes
            tweak_key: header[40..72].try_into().expect("32 bytes"),
        })
    }

    /// Returns one payload sector's raw ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::SectorOutOfRange`] for a bad index.
    pub fn ciphertext_sector(&self, sector: u64) -> Result<&[u8], VolumeError> {
        if sector >= self.sector_capacity() {
            return Err(VolumeError::SectorOutOfRange {
                sector,
                count: self.sector_capacity(),
            });
        }
        let start = SALT_BYTES + HEADER_BYTES + sector as usize * SECTOR_BYTES;
        Ok(&self.bytes[start..start + SECTOR_BYTES])
    }

    /// Decrypts one payload sector with the given master keys.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::SectorOutOfRange`] for a bad index.
    pub fn read_sector(&self, keys: &MasterKeys, sector: u64) -> Result<Vec<u8>, VolumeError> {
        if sector >= self.sector_capacity() {
            return Err(VolumeError::SectorOutOfRange {
                sector,
                count: self.sector_capacity(),
            });
        }
        let mut data = self.ciphertext_sector(sector)?.to_vec();
        keys.cipher()
            .decrypt_data_unit(sector, &mut data)
            // lint:allow(panic): SECTOR_BYTES is a multiple of 16
            .expect("sector size is a multiple of 16");
        Ok(data)
    }

    /// Decrypts the whole payload.
    ///
    /// # Errors
    ///
    /// Propagates sector read failures (cannot occur for in-range data).
    pub fn decrypt_all(&self, keys: &MasterKeys) -> Result<Vec<u8>, VolumeError> {
        let mut out = Vec::with_capacity(self.sector_capacity() as usize * SECTOR_BYTES);
        for s in 0..self.sector_capacity() {
            out.extend_from_slice(&self.read_sector(keys, s)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(7)
    }

    const PLAINTEXT: &[u8] = b"Deeply secret business plans and tax documents.";

    #[test]
    fn create_unlock_decrypt_round_trip() {
        let vol = Volume::create(b"correct horse", PLAINTEXT, &mut rng());
        let keys = vol.unlock(b"correct horse").unwrap();
        let plain = vol.decrypt_all(&keys).unwrap();
        assert_eq!(&plain[..PLAINTEXT.len()], PLAINTEXT);
        assert!(plain[PLAINTEXT.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_password_rejected() {
        let vol = Volume::create(b"correct horse", PLAINTEXT, &mut rng());
        assert_eq!(
            vol.unlock(b"battery staple"),
            Err(VolumeError::WrongPassword)
        );
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let vol = Volume::create(b"pw", PLAINTEXT, &mut rng());
        let hay = vol.as_bytes();
        let needle = &PLAINTEXT[..16];
        assert!(
            !hay.windows(needle.len()).any(|w| w == needle),
            "plaintext leaked into container"
        );
    }

    #[test]
    fn master_keys_differ_per_volume() {
        let mut r = rng();
        let a = Volume::create(b"pw", PLAINTEXT, &mut r);
        let b = Volume::create(b"pw", PLAINTEXT, &mut r);
        let ka = a.unlock(b"pw").unwrap();
        let kb = b.unlock(b"pw").unwrap();
        assert_ne!(ka, kb);
        assert_ne!(ka.data_key, ka.tweak_key);
    }

    #[test]
    fn stolen_master_keys_bypass_the_password() {
        // The cold boot attack's premise: master keys decrypt the payload
        // with no password at all.
        let vol = Volume::create(b"unbreakable passphrase 9000", PLAINTEXT, &mut rng());
        let keys = vol.unlock(b"unbreakable passphrase 9000").unwrap();
        let rebuilt = MasterKeys {
            data_key: keys.data_key,
            tweak_key: keys.tweak_key,
        };
        let plain = vol.decrypt_all(&rebuilt).unwrap();
        assert_eq!(&plain[..PLAINTEXT.len()], PLAINTEXT);
    }

    #[test]
    fn sector_bounds() {
        let vol = Volume::create(b"pw", PLAINTEXT, &mut rng());
        let keys = vol.unlock(b"pw").unwrap();
        assert!(matches!(
            vol.read_sector(&keys, 99),
            Err(VolumeError::SectorOutOfRange { sector: 99, .. })
        ));
    }

    #[test]
    fn from_bytes_validation() {
        assert_eq!(
            Volume::from_bytes(vec![0u8; 10]).unwrap_err(),
            VolumeError::MalformedContainer
        );
        assert_eq!(
            Volume::from_bytes(vec![0u8; SALT_BYTES + HEADER_BYTES + 100]).unwrap_err(),
            VolumeError::MalformedContainer
        );
        let vol = Volume::create(b"pw", PLAINTEXT, &mut rng());
        let reparsed = Volume::from_bytes(vol.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.sector_capacity(), vol.sector_capacity());
    }

    #[test]
    fn empty_plaintext_still_makes_one_sector() {
        let vol = Volume::create(b"pw", b"", &mut rng());
        assert_eq!(vol.sector_capacity(), 1);
        let keys = vol.unlock(b"pw").unwrap();
        assert_eq!(vol.decrypt_all(&keys).unwrap(), vec![0u8; SECTOR_BYTES]);
    }
}
