//! A simulated DRAM module (DIMM): raw cell storage with a per-cell ground
//! state, power state, and temperature.
//!
//! The ground state is the value each capacitor decays *toward* when
//! unpowered. Real modules decay partly to 0 and partly to 1 depending on
//! cell topology; we generate a deterministic pseudo-random ground-state map
//! from the module serial number, exactly as the paper's "profiling" stage
//! observes ("portions of the DRAM cells decay to a zero while others decay
//! to a one").

use crate::retention::DecayModel;
use coldboot_crypto::rng::SplitMix64;

/// Ambient operating temperature in °C.
pub const OPERATING_TEMP_C: f64 = 20.0;

/// A simulated DRAM module.
///
/// All reads and writes are *raw*: they see the exact stored cell values.
/// Scrambling/encryption is applied by the memory controller models in the
/// `coldboot-scrambler` and `coldboot-memenc` crates.
#[derive(Debug, Clone)]
pub struct DramModule {
    serial: u64,
    data: Vec<u8>,
    ground: Vec<u8>,
    powered: bool,
    temperature_c: f64,
    /// Leakage-rate multiplier for this specific module (manufacturing
    /// variation; the paper observed one DDR3 module leaking faster than
    /// newer DDR4 parts).
    quality: f64,
    /// NVDIMM flag: cells persist with no power at all.
    non_volatile: bool,
    decay_events: u64,
}

impl DramModule {
    /// Creates a powered module of `size` bytes with the given serial
    /// number. Initial contents equal the ground state (a fully decayed
    /// module).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a multiple of [`crate::BLOCK_BYTES`].
    pub fn new(size: usize, serial: u64) -> Self {
        Self::with_quality(size, serial, 1.0)
    }

    /// Creates a **non-volatile** DIMM (NVDIMM) of `size` bytes: same bus,
    /// same scrambling, but cells that never decay when unpowered.
    ///
    /// §IV: "the emergence of non-volatile DIMMs that fit into DDR4 buses
    /// is going to exacerbate the risk of cold boot attacks ... the
    /// attacker would not even need to cool down the modules before
    /// transferring data to a separate machine."
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a multiple of [`crate::BLOCK_BYTES`].
    pub fn nvdimm(size: usize, serial: u64) -> Self {
        let mut module = Self::new(size, serial);
        module.non_volatile = true;
        module
    }

    /// Whether this module's cells persist without power.
    pub fn is_non_volatile(&self) -> bool {
        self.non_volatile
    }

    /// Creates a module with an explicit leakage-quality multiplier
    /// (1.0 = nominal; larger = leakier).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a multiple of [`crate::BLOCK_BYTES`],
    /// or if `quality` is not finite and positive.
    pub fn with_quality(size: usize, serial: u64, quality: f64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(crate::BLOCK_BYTES),
            "module size {size} must be a positive multiple of {}",
            crate::BLOCK_BYTES
        );
        assert!(
            quality.is_finite() && quality > 0.0,
            "quality must be positive, got {quality}"
        );
        let mut ground = vec![0u8; size];
        SplitMix64::new(serial ^ 0xD1A4_57A7E_u64).fill(&mut ground);
        Self {
            serial,
            data: ground.clone(),
            ground,
            powered: true,
            temperature_c: OPERATING_TEMP_C,
            quality,
            non_volatile: false,
            decay_events: 0,
        }
    }

    /// The module's serial number.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the module has zero capacity (never true for a constructed
    /// module).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether refresh is currently maintaining the cells.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Current module temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Sets the module temperature (spraying it with a gas duster, or
    /// letting it warm back up).
    pub fn set_temperature(&mut self, celsius: f64) {
        self.temperature_c = celsius;
    }

    /// Cuts power. Subsequent [`Self::elapse`] calls apply charge decay.
    pub fn power_off(&mut self) {
        self.powered = false;
    }

    /// Restores power (re-socketing into a live machine). Decay stops.
    pub fn power_on(&mut self) {
        self.powered = true;
    }

    /// Advances wall-clock time by `seconds` under the given decay model.
    /// While unpowered, cells flip toward the ground state; while powered,
    /// refresh holds them and nothing happens.
    pub fn elapse(&mut self, seconds: f64, model: &DecayModel) {
        if self.powered || self.non_volatile || seconds <= 0.0 {
            return;
        }
        let fraction = model.decay_fraction(self.temperature_c, seconds, self.quality);
        self.decay_events += 1;
        let seed = self
            .serial
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.decay_events);
        crate::retention::apply_decay(&mut self.data, &self.ground, fraction, seed);
    }

    /// Reads raw cells at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.data[offset..offset + buf.len()]);
    }

    /// Writes raw cells at `offset` from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or the module is unpowered
    /// (nothing can drive the bus of an unplugged DIMM).
    pub fn write(&mut self, offset: usize, buf: &[u8]) {
        assert!(self.powered, "cannot write to an unpowered module");
        self.data[offset..offset + buf.len()].copy_from_slice(buf);
    }

    /// Fills the entire module with one byte value (the analysis
    /// framework's "fill with unscrambled zeros" step).
    ///
    /// # Panics
    ///
    /// Panics if the module is unpowered.
    pub fn fill(&mut self, value: u8) {
        assert!(self.powered, "cannot write to an unpowered module");
        self.data.fill(value);
    }

    /// Lets every cell decay fully to its ground state (the alternative
    /// profiling technique in §III-A: "allowing the DRAM to fully decay").
    pub fn decay_to_ground(&mut self) {
        self.data.copy_from_slice(&self.ground);
    }

    /// Reconstructs a module from externally persisted cell contents (a
    /// CBDF dump import): same serial-derived ground state as a factory
    /// module of that serial, but with the captured cells restored.
    ///
    /// # Panics
    ///
    /// Panics if `contents` is empty or not a multiple of
    /// [`crate::BLOCK_BYTES`].
    pub fn restore(serial: u64, contents: Vec<u8>, temperature_c: f64) -> Self {
        let mut module = Self::new(contents.len(), serial);
        module.data = contents;
        module.temperature_c = temperature_c;
        module
    }

    /// A read-only view of the raw cell array.
    pub fn contents(&self) -> &[u8] {
        &self.data
    }

    /// A read-only view of the per-cell ground state.
    pub fn ground_state(&self) -> &[u8] {
        &self.ground
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::DecayModel;

    #[test]
    fn new_module_is_at_ground_state() {
        let m = DramModule::new(4096, 1);
        assert_eq!(m.contents(), m.ground_state());
        assert!(m.is_powered());
    }

    #[test]
    fn ground_state_is_deterministic_per_serial() {
        let a = DramModule::new(4096, 7);
        let b = DramModule::new(4096, 7);
        let c = DramModule::new(4096, 8);
        assert_eq!(a.ground_state(), b.ground_state());
        assert_ne!(a.ground_state(), c.ground_state());
    }

    #[test]
    fn ground_state_is_roughly_balanced() {
        let m = DramModule::new(1 << 16, 3);
        let ones: u32 = m.ground_state().iter().map(|b| b.count_ones()).sum();
        let frac = ones as f64 / ((1 << 16) as f64 * 8.0);
        assert!((0.48..0.52).contains(&frac), "ground bias {frac}");
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = DramModule::new(4096, 1);
        m.write(100, b"hello dram");
        let mut buf = [0u8; 10];
        m.read(100, &mut buf);
        assert_eq!(&buf, b"hello dram");
    }

    #[test]
    #[should_panic(expected = "unpowered")]
    fn write_to_unpowered_panics() {
        let mut m = DramModule::new(4096, 1);
        m.power_off();
        m.write(0, &[1]);
    }

    #[test]
    fn powered_module_does_not_decay() {
        let mut m = DramModule::new(4096, 1);
        m.fill(0xAA);
        m.elapse(3600.0, &DecayModel::paper_calibrated());
        assert!(m.contents().iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn unpowered_module_decays_toward_ground() {
        let mut m = DramModule::new(1 << 16, 1);
        m.fill(0xAA);
        m.power_off();
        m.set_temperature(OPERATING_TEMP_C);
        m.elapse(60.0, &DecayModel::paper_calibrated());
        // After a minute at room temperature nearly everything is gone.
        let errs = crate::retention::bit_errors(&vec![0xAAu8; 1 << 16], m.contents());
        let total_mismatch_at_ground =
            crate::retention::bit_errors(&vec![0xAAu8; 1 << 16], m.ground_state());
        assert!(
            errs as f64 > 0.95 * total_mismatch_at_ground as f64,
            "decay too weak: {errs}/{total_mismatch_at_ground}"
        );
    }

    #[test]
    fn frozen_module_decays_slowly() {
        let mut m = DramModule::new(1 << 16, 1);
        m.fill(0x55);
        m.set_temperature(-50.0);
        m.power_off();
        m.elapse(5.0, &DecayModel::paper_calibrated());
        let errs = crate::retention::bit_errors(&vec![0x55u8; 1 << 16], m.contents());
        let total = (1u64 << 16) * 8;
        assert!(
            (errs as f64 / total as f64) < 0.005,
            "frozen decay too fast: {errs}/{total}"
        );
    }

    #[test]
    fn decay_to_ground_is_total() {
        let mut m = DramModule::new(4096, 5);
        m.fill(0xFF);
        m.decay_to_ground();
        assert_eq!(m.contents(), m.ground_state());
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn rejects_unaligned_size() {
        DramModule::new(100, 1);
    }

    #[test]
    fn restore_round_trips_contents_and_ground_state() {
        let mut m = DramModule::new(4096, 9);
        m.fill(0x5C);
        m.write(128, b"captured");
        m.set_temperature(-25.0);
        let restored = DramModule::restore(9, m.contents().to_vec(), m.temperature_c());
        assert_eq!(restored.contents(), m.contents());
        assert_eq!(restored.ground_state(), m.ground_state());
        assert_eq!(restored.serial(), 9);
        assert_eq!(restored.temperature_c(), -25.0);
    }

    #[test]
    fn nvdimm_never_decays() {
        let mut m = DramModule::nvdimm(1 << 16, 7);
        assert!(m.is_non_volatile());
        m.fill(0xC3);
        m.power_off();
        m.set_temperature(40.0); // a warm day, no gas duster in sight
        m.elapse(86_400.0, &DecayModel::paper_calibrated());
        assert!(m.contents().iter().all(|&b| b == 0xC3));
    }

    #[test]
    fn regular_dimm_is_volatile() {
        let m = DramModule::new(4096, 7);
        assert!(!m.is_non_volatile());
    }

    #[test]
    fn leakier_module_decays_faster() {
        let model = DecayModel::paper_calibrated();
        let mut nominal = DramModule::with_quality(1 << 16, 1, 1.0);
        let mut leaky = DramModule::with_quality(1 << 16, 1, 8.0);
        for m in [&mut nominal, &mut leaky] {
            m.fill(0xAA);
            m.set_temperature(-25.0);
            m.power_off();
            m.elapse(5.0, &model);
        }
        let reference = vec![0xAAu8; 1 << 16];
        let errs_nominal = crate::retention::bit_errors(&reference, nominal.contents());
        let errs_leaky = crate::retention::bit_errors(&reference, leaky.contents());
        assert!(
            errs_leaky > errs_nominal * 2,
            "{errs_leaky} vs {errs_nominal}"
        );
    }
}
