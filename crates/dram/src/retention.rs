//! The charge-decay model: how fast unpowered DRAM cells flip toward their
//! ground state as a function of temperature.
//!
//! # Calibration
//!
//! The paper (§III-D) reports, for five DDR3 and two DDR4 modules:
//!
//! * at normal operating temperature "a significant fraction of the data is
//!   lost within 3 seconds";
//! * super-cooled to ≈ −25 °C with a gas duster, modules "retain 90 %–99 %
//!   of their charges if transferred ... in approximately 5 seconds";
//! * prior work (Halderman et al.) saw minutes of retention at −50 °C.
//!
//! We model the per-bit decay rate with an Arrhenius-style exponential in
//! temperature: `λ(T) = λ₀ · exp(k·T)` (T in °C), and the probability that
//! a charged cell has decayed after `t` seconds as `d = 1 − exp(−λ(T)·t)`.
//! [`DecayModel::paper_calibrated`] chooses `λ₀ = 0.07 s⁻¹`, `k = 0.098`,
//! which lands inside all three observations (see the `retention` bench
//! binary for the reproduced sweep).

use coldboot_crypto::rng::SplitMix64;

/// Temperature-dependent decay model for unpowered DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayModel {
    /// Base decay rate at 0 °C, in 1/seconds.
    pub lambda0_per_sec: f64,
    /// Exponential temperature coefficient, per °C.
    pub temp_coeff: f64,
}

impl DecayModel {
    /// The model calibrated to the paper's §III-D observations.
    pub fn paper_calibrated() -> Self {
        Self {
            lambda0_per_sec: 0.07,
            temp_coeff: 0.098,
        }
    }

    /// An idealized freezer: no decay at all (useful for isolating
    /// decay-free behaviour in tests).
    pub fn lossless() -> Self {
        Self {
            lambda0_per_sec: 0.0,
            temp_coeff: 0.0,
        }
    }

    /// The instantaneous decay rate λ(T) at `celsius`, scaled by a module
    /// quality multiplier.
    ///
    /// Domain: `celsius` must be finite and `quality` a finite positive
    /// multiplier; anything else (NaN, ±∞, `quality <= 0`) is treated as
    /// "no decay" and yields rate 0 rather than propagating NaN into the
    /// transplant simulation.
    pub fn rate_per_sec(&self, celsius: f64, quality: f64) -> f64 {
        if !celsius.is_finite() || !quality.is_finite() || quality <= 0.0 {
            return 0.0;
        }
        let rate = self.lambda0_per_sec * (self.temp_coeff * celsius).exp() * quality;
        if rate.is_finite() {
            rate.max(0.0)
        } else {
            f64::MAX
        }
    }

    /// Probability that a charged (non-ground) cell has decayed after
    /// `seconds` at `celsius`.
    ///
    /// Domain: `seconds` must be finite and non-negative — negative or
    /// non-finite elapsed time clamps to 0 (no decay). The result is
    /// always a probability in `[0, 1]`, so downstream callers
    /// ([`apply_decay`], the transplant simulation) never see NaN.
    pub fn decay_fraction(&self, celsius: f64, seconds: f64, quality: f64) -> f64 {
        let seconds = if seconds.is_finite() {
            seconds.max(0.0)
        } else {
            0.0
        };
        let lambda = self.rate_per_sec(celsius, quality);
        (1.0 - (-lambda * seconds).exp()).clamp(0.0, 1.0)
    }

    /// The fraction of *charge* retained (1 − decay fraction), the metric
    /// the paper's §III-D quotes.
    pub fn retention_fraction(&self, celsius: f64, seconds: f64, quality: f64) -> f64 {
        1.0 - self.decay_fraction(celsius, seconds, quality)
    }
}

impl Default for DecayModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// The asymmetric per-bit decay channel, in fixed-point log-likelihood
/// form.
///
/// [`apply_decay`] only ever flips charged bits *toward* ground: a bit
/// observed at its ground state may or may not have decayed, but a bit
/// observed *away* from ground was certainly written that way. Symmetric
/// Hamming distance ignores this and mis-ranks candidates once the decay
/// fraction is large. `BitChannel` prices the two mismatch directions
/// separately, as integer negative log-likelihood costs in **milli-nats**
/// (1000 × natural-log units) so scores are exactly reproducible across
/// platforms and thread interleavings:
///
/// * a predicted-vs-observed mismatch where the observed bit sits at
///   ground costs `to_ground_millinats` = ⌈1000·ln((1−d)/d)⌋ — a
///   plausible decay event;
/// * a mismatch where the observed bit sits *anti*-ground costs the
///   large constant `anti_ground_millinats` — a near-impossible event
///   under the channel (sensor noise, not decay).
///
/// Matching bits cost 0, which drops the common `−ln(1−d)` per-bit term;
/// rankings are unaffected because every candidate scores the same span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitChannel {
    /// Cost of one mismatch bit lying at ground (a plausible decay flip).
    pub to_ground_millinats: u32,
    /// Cost of one mismatch bit lying anti-ground (near-impossible).
    pub anti_ground_millinats: u32,
    /// Expected per-charged-bit flip probability, in parts per million
    /// (kept integer so the type stays `Eq`/hashable and deterministic).
    pub decay_ppm: u32,
}

/// Floor/ceiling for the decay fraction a [`BitChannel`] models: below
/// the floor the channel degenerates to exact matching, above the
/// ceiling toward-ground mismatches become nearly free and the litmus
/// filter loses all selectivity.
const CHANNEL_DECAY_FLOOR: f64 = 1e-4;
const CHANNEL_DECAY_CEIL: f64 = 0.45;

/// Residual probability assigned to an anti-ground flip (1e-5): read
/// noise exists, so the cost is large but finite — one stray bit must
/// not veto a schedule that matches everywhere else.
const ANTI_GROUND_RESIDUAL: f64 = 1e-5;

impl BitChannel {
    /// Builds the channel for a charged-bit flip probability `d`,
    /// clamped to the supported domain `[1e-4, 0.45]` (non-finite input
    /// clamps to the floor).
    pub fn from_decay_fraction(d: f64) -> Self {
        let d = if d.is_finite() {
            d.clamp(CHANNEL_DECAY_FLOOR, CHANNEL_DECAY_CEIL)
        } else {
            CHANNEL_DECAY_FLOOR
        };
        let to_ground = (1000.0 * ((1.0 - d) / d).ln()).round() as u32;
        let anti = (1000.0 * (1.0 / ANTI_GROUND_RESIDUAL).ln()).round() as u32;
        Self {
            to_ground_millinats: to_ground,
            anti_ground_millinats: anti,
            decay_ppm: (d * 1e6).round() as u32,
        }
    }

    /// Builds the channel from a [`DecayModel`] and transplant
    /// parameters, via [`DecayModel::decay_fraction`].
    pub fn from_model(model: &DecayModel, celsius: f64, seconds: f64, quality: f64) -> Self {
        Self::from_decay_fraction(model.decay_fraction(celsius, seconds, quality))
    }

    /// The modelled charged-bit flip probability.
    pub fn decay_fraction(&self) -> f64 {
        f64::from(self.decay_ppm) / 1e6
    }

    /// Channel cost of one 32-bit word: `mismatch` is predicted ⊕
    /// observed, `toward_ground` marks the mismatch bits whose observed
    /// value equals the ground state (i.e. plausible decay flips).
    pub fn word_cost_millinats(&self, mismatch: u32, toward_ground: u32) -> u64 {
        let tg = (mismatch & toward_ground).count_ones() as u64;
        let anti = (mismatch & !toward_ground).count_ones() as u64;
        tg * u64::from(self.to_ground_millinats) + anti * u64::from(self.anti_ground_millinats)
    }

    /// An accept budget for a span of `bits` charged-candidate bits: the
    /// expected decay cost plus a ≈4σ Poisson margin and two anti-ground
    /// allowances for stray read noise. A true schedule under this
    /// channel lands below the budget with overwhelming probability; a
    /// random span at any plausible `d` costs an order of magnitude more.
    pub fn span_budget_millinats(&self, bits: u32) -> u64 {
        let d = self.decay_fraction();
        let expected_flips = f64::from(bits) * 0.5 * d;
        let margin_flips = 4.0 * expected_flips.sqrt() + 4.0;
        let budget = (expected_flips + margin_flips) * f64::from(self.to_ground_millinats)
            + 2.0 * f64::from(self.anti_ground_millinats);
        budget.round() as u64
    }

    /// An accept budget for `bits` residual bits, where **every** bit of
    /// the span flips with this channel's `decay_fraction()` (a derived
    /// residual channel, not the raw 50%-charged cell channel): expected
    /// flips plus a ≈3σ binomial margin. The margin is deliberately
    /// tighter than [`Self::span_budget_millinats`] — residual scans run
    /// once per window position, so a few-percent false-positive rate is
    /// acceptable and keeps the budget below the random-span mean even at
    /// heavy decay.
    pub fn residual_budget_millinats(&self, bits: u32) -> u64 {
        let p = self.decay_fraction();
        let expected = f64::from(bits) * p;
        let margin = 3.0 * (expected * (1.0 - p)).sqrt() + 2.0;
        ((expected + margin) * f64::from(self.to_ground_millinats)).round() as u64
    }
}

/// Applies decay in place: every bit of `data` that differs from `ground`
/// flips toward `ground` with probability `fraction`, deterministically
/// derived from `seed`.
///
/// Candidate flip positions are drawn over **all** bits by geometric-gap
/// sampling (O(flips), not O(bits)), then only bits that actually hold
/// charge (differ from ground) are flipped — which realizes exactly the
/// per-charged-bit probability `fraction`.
///
/// # Panics
///
/// Panics if `data` and `ground` have different lengths or `fraction` is
/// outside `[0, 1]`.
pub fn apply_decay(data: &mut [u8], ground: &[u8], fraction: f64, seed: u64) {
    assert_eq!(data.len(), ground.len(), "data/ground length mismatch");
    assert!(
        (0.0..=1.0).contains(&fraction),
        "decay fraction {fraction} out of range"
    );
    if fraction <= 0.0 || data.is_empty() {
        return;
    }
    if fraction >= 1.0 {
        data.copy_from_slice(ground);
        return;
    }
    let total_bits = data.len() as u64 * 8;
    let mut rng = SplitMix64::new(seed);
    let ln_keep = (1.0 - fraction).ln();
    let mut pos: u64 = 0;
    loop {
        // Geometric gap: number of non-events before the next event.
        let u = rng.range_f64(f64::MIN_POSITIVE..1.0);
        let gap = (u.ln() / ln_keep).floor() as u64;
        pos = match pos.checked_add(gap) {
            Some(p) if p < total_bits => p,
            _ => break,
        };
        let byte = (pos / 8) as usize;
        let bit = (pos % 8) as u8;
        let mask = 1u8 << bit;
        // Only charged cells decay; cells already at ground are inert.
        if (data[byte] ^ ground[byte]) & mask != 0 {
            data[byte] ^= mask;
        }
        pos += 1;
        if pos >= total_bits {
            break;
        }
    }
}

/// Counts bit errors between a reference image and an observed image.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn bit_errors(reference: &[u8], observed: &[u8]) -> u64 {
    assert_eq!(reference.len(), observed.len(), "length mismatch");
    reference
        .iter()
        .zip(observed)
        .map(|(a, b)| u64::from((a ^ b).count_ones()))
        .sum()
}

/// Fraction of bits retained (unchanged) between a reference and an
/// observed image.
///
/// # Panics
///
/// Panics if lengths differ or `reference` is empty.
pub fn retention(reference: &[u8], observed: &[u8]) -> f64 {
    assert!(!reference.is_empty(), "empty reference");
    let errs = bit_errors(reference, observed);
    let total = reference.len() as u64 * 8;
    1.0 - errs as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_room_temperature_loses_data_fast() {
        let m = DecayModel::paper_calibrated();
        // "a significant fraction of the data is lost within 3 seconds"
        let d = m.decay_fraction(20.0, 3.0, 1.0);
        assert!(d > 0.5, "room-temp 3s decay only {d}");
    }

    #[test]
    fn calibration_frozen_retains_90_to_99_percent() {
        let m = DecayModel::paper_calibrated();
        let r = m.retention_fraction(-25.0, 5.0, 1.0);
        assert!((0.90..=0.99).contains(&r), "frozen retention {r}");
    }

    #[test]
    fn calibration_minus_50_survives_a_minute() {
        let m = DecayModel::paper_calibrated();
        let r = m.retention_fraction(-50.0, 60.0, 1.0);
        assert!(r > 0.95, "-50C/60s retention {r}");
    }

    #[test]
    fn decay_fraction_monotone_in_time_and_temperature() {
        let m = DecayModel::paper_calibrated();
        assert!(m.decay_fraction(20.0, 2.0, 1.0) < m.decay_fraction(20.0, 4.0, 1.0));
        assert!(m.decay_fraction(-25.0, 5.0, 1.0) < m.decay_fraction(0.0, 5.0, 1.0));
    }

    #[test]
    fn lossless_model_never_decays() {
        let m = DecayModel::lossless();
        assert_eq!(m.decay_fraction(100.0, 1e6, 1.0), 0.0);
    }

    #[test]
    fn apply_decay_fraction_zero_is_identity() {
        let mut data = vec![0xFFu8; 1024];
        let ground = vec![0x00u8; 1024];
        apply_decay(&mut data, &ground, 0.0, 1);
        assert_eq!(data, vec![0xFFu8; 1024]);
    }

    #[test]
    fn apply_decay_fraction_one_is_ground() {
        let mut data = vec![0xFFu8; 1024];
        let ground = vec![0x5Au8; 1024];
        apply_decay(&mut data, &ground, 1.0, 1);
        assert_eq!(data, ground);
    }

    #[test]
    fn apply_decay_hits_expected_rate() {
        let n = 1 << 18;
        let mut data = vec![0xFFu8; n];
        let ground = vec![0x00u8; n]; // every bit is charged
        apply_decay(&mut data, &ground, 0.05, 42);
        let flipped = bit_errors(&vec![0xFFu8; n], &data);
        let expected = (n as f64) * 8.0 * 0.05;
        let ratio = flipped as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "flip rate off: {ratio}");
    }

    #[test]
    fn apply_decay_never_flips_ground_bits() {
        let n = 4096;
        let mut data = vec![0xAAu8; n];
        let ground = vec![0xAAu8; n]; // fully decayed already
        apply_decay(&mut data, &ground, 0.9, 7);
        assert_eq!(data, vec![0xAAu8; n]);
    }

    #[test]
    fn apply_decay_is_deterministic_per_seed() {
        let ground = vec![0u8; 4096];
        let mut a = vec![0xFFu8; 4096];
        let mut b = vec![0xFFu8; 4096];
        apply_decay(&mut a, &ground, 0.1, 99);
        apply_decay(&mut b, &ground, 0.1, 99);
        assert_eq!(a, b);
        let mut c = vec![0xFFu8; 4096];
        apply_decay(&mut c, &ground, 0.1, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn nonsense_inputs_clamp_instead_of_nan() {
        let m = DecayModel::paper_calibrated();
        // quality <= 0 or non-finite: no decay, never NaN.
        assert_eq!(m.rate_per_sec(20.0, 0.0), 0.0);
        assert_eq!(m.rate_per_sec(20.0, -3.0), 0.0);
        assert_eq!(m.rate_per_sec(20.0, f64::NAN), 0.0);
        assert_eq!(m.rate_per_sec(f64::NAN, 1.0), 0.0);
        // negative / non-finite elapsed time clamps to zero seconds.
        assert_eq!(m.decay_fraction(20.0, -5.0, 1.0), 0.0);
        assert_eq!(m.decay_fraction(20.0, f64::NAN, 1.0), 0.0);
        assert_eq!(m.decay_fraction(20.0, f64::INFINITY, 1.0), 0.0);
        // extreme-but-finite inputs saturate inside [0, 1].
        let d = m.decay_fraction(1e6, 1e6, 1e6);
        assert!((0.0..=1.0).contains(&d), "{d}");
        let r = m.retention_fraction(20.0, -1.0, -1.0);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn channel_costs_match_log_likelihood() {
        let ch = BitChannel::from_decay_fraction(0.2);
        // ln(0.8/0.2) = ln 4 ≈ 1.386294 → 1386 mn.
        assert_eq!(ch.to_ground_millinats, 1386);
        // -ln(1e-5) ≈ 11.5129 → 11513 mn.
        assert_eq!(ch.anti_ground_millinats, 11513);
        assert_eq!(ch.decay_ppm, 200_000);
        // 3 toward-ground flips + 1 anti-ground flip.
        let cost = ch.word_cost_millinats(0b1111, 0b0111);
        assert_eq!(cost, 3 * 1386 + 11513);
        // matching word costs nothing.
        assert_eq!(ch.word_cost_millinats(0, u32::MAX), 0);
    }

    #[test]
    fn channel_domain_is_clamped() {
        assert_eq!(
            BitChannel::from_decay_fraction(0.0),
            BitChannel::from_decay_fraction(1e-4)
        );
        assert_eq!(
            BitChannel::from_decay_fraction(0.99),
            BitChannel::from_decay_fraction(0.45)
        );
        assert_eq!(
            BitChannel::from_decay_fraction(f64::NAN),
            BitChannel::from_decay_fraction(1e-4)
        );
    }

    #[test]
    fn span_budget_separates_true_from_random() {
        // At d = 0.2 a 384-bit span (one litmus test span) budgets for the
        // expected ~38 decay flips plus margin; a random candidate
        // mismatches ~96 bits toward ground AND ~96 bits anti-ground,
        // costing an order of magnitude more.
        let ch = BitChannel::from_decay_fraction(0.2);
        let budget = ch.span_budget_millinats(384);
        let random_cost =
            96 * u64::from(ch.to_ground_millinats) + 96 * u64::from(ch.anti_ground_millinats);
        assert!(
            budget * 5 < random_cost,
            "budget {budget} vs random {random_cost}"
        );
    }

    #[test]
    fn residual_budget_sits_between_expected_and_random_mean() {
        // A residual channel at p = 0.35 (the identity-phase residual
        // flip probability around d ≈ 0.13): the 3σ budget must cover
        // the expected flips but stay below the random mean of bits/2.
        let ch = BitChannel::from_decay_fraction(0.35);
        let bits = 128;
        let budget = ch.residual_budget_millinats(bits);
        let expected = (f64::from(bits) * 0.35 * f64::from(ch.to_ground_millinats)) as u64;
        let random_mean = u64::from(bits / 2) * u64::from(ch.to_ground_millinats);
        assert!(budget > expected, "budget {budget} <= expected {expected}");
        assert!(
            budget < random_mean,
            "budget {budget} >= random {random_mean}"
        );
    }

    #[test]
    fn retention_metric() {
        assert_eq!(retention(&[0xFF], &[0xFF]), 1.0);
        assert_eq!(retention(&[0xFF], &[0x00]), 0.0);
        assert_eq!(retention(&[0xF0], &[0x00]), 0.5);
    }
}
