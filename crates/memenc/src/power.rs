//! Power and area overhead model — the paper's Figure 7.
//!
//! The paper compares one synthesized cipher engine per memory channel
//! against four 45 nm Intel CPUs spanning the market (product-sheet TDP and
//! die size), at full bandwidth utilization and at a realistic 20 %
//! (Clearing-the-Clouds-style workloads use ≤15 % of DRAM bandwidth).
//!
//! # Calibration note (see DESIGN.md)
//!
//! The paper publishes the resulting overhead *percentages* but not the
//! absolute per-engine synthesis numbers. The `synthesis` table below backs
//! out absolute area/power figures that (a) are plausible for 45 nm
//! pipelined cipher datapaths and (b) reproduce the paper's headline
//! overheads: area ≈ ≤1 % everywhere, power < 3 % except the Atom
//! (≈17 % at full utilization, < 6 % at 20 %).

use crate::engine::{CipherEngineSpec, EngineKind, PipelineStyle};

/// A 45 nm CPU from the paper's Figure 7 comparison set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Product name.
    pub name: &'static str,
    /// Market segment label used in the paper.
    pub segment: &'static str,
    /// Thermal design power, W (product sheet).
    pub tdp_w: f64,
    /// Die size, mm² (product sheet).
    pub die_mm2: f64,
    /// Memory channels (one engine per channel).
    pub channels: u32,
}

/// The paper's four comparison CPUs.
pub const FIGURE7_CPUS: [CpuSpec; 4] = [
    CpuSpec {
        name: "Atom N280",
        segment: "mobile",
        tdp_w: 2.5,
        die_mm2: 26.0,
        channels: 1,
    },
    CpuSpec {
        name: "Core i3-330M",
        segment: "desktop",
        tdp_w: 35.0,
        die_mm2: 81.0,
        channels: 2,
    },
    CpuSpec {
        name: "Core i5-700",
        segment: "high-end desktop",
        tdp_w: 95.0,
        die_mm2: 296.0,
        channels: 2,
    },
    CpuSpec {
        name: "Xeon W3520",
        segment: "server",
        tdp_w: 130.0,
        die_mm2: 263.0,
        channels: 3,
    },
];

/// Absolute synthesis results for one engine instance at 45 nm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSynthesis {
    /// Cell area, mm².
    pub area_mm2: f64,
    /// Dynamic power at full bandwidth utilization, W.
    pub dynamic_w: f64,
    /// Static (leakage) power, W.
    pub static_w: f64,
}

/// Synthesis results for an engine kind (calibrated; see module docs).
pub fn synthesis(kind: EngineKind) -> EngineSynthesis {
    match kind {
        EngineKind::Aes128 => EngineSynthesis {
            area_mm2: 0.20,
            dynamic_w: 0.39,
            static_w: 0.035,
        },
        EngineKind::Aes256 => EngineSynthesis {
            area_mm2: 0.27,
            dynamic_w: 0.50,
            static_w: 0.045,
        },
        EngineKind::ChaCha8 => EngineSynthesis {
            area_mm2: 0.26,
            dynamic_w: 0.28,
            static_w: 0.040,
        },
        EngineKind::ChaCha12 => EngineSynthesis {
            area_mm2: 0.36,
            dynamic_w: 0.40,
            static_w: 0.055,
        },
        EngineKind::ChaCha20 => EngineSynthesis {
            area_mm2: 0.58,
            dynamic_w: 0.64,
            static_w: 0.090,
        },
    }
}

/// Synthesis results for an arbitrary engine configuration.
///
/// A time-multiplexed engine keeps a single round-function unit instead of
/// a `rounds`-deep pipeline: most of the datapath area and clock load
/// disappears, which is the §IV-B mobile trade-off. The scale factors are
/// modeled (a single round unit plus state registers and control).
pub fn synthesis_for_spec(spec: &CipherEngineSpec) -> EngineSynthesis {
    let base = synthesis(spec.kind);
    match spec.style {
        PipelineStyle::FullyPipelined => base,
        PipelineStyle::TimeMultiplexed => EngineSynthesis {
            area_mm2: base.area_mm2 * 0.30,
            dynamic_w: base.dynamic_w * 0.40,
            static_w: base.static_w * 0.35,
        },
    }
}

/// Computed overheads of adding per-channel engines to a CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Fraction of DRAM bandwidth in use (scales dynamic power).
    pub utilization: f64,
    /// Total engine power across channels, W.
    pub engine_power_w: f64,
    /// Power overhead relative to CPU TDP, percent.
    pub power_pct: f64,
    /// Total engine area across channels, mm².
    pub engine_area_mm2: f64,
    /// Area overhead relative to CPU die, percent.
    pub area_pct: f64,
}

/// Computes the Figure 7 overheads for one CPU + engine at a bandwidth
/// utilization in `[0, 1]`.
///
/// # Panics
///
/// Panics if `utilization` is outside `[0, 1]`.
pub fn overhead(cpu: &CpuSpec, kind: EngineKind, utilization: f64) -> Overhead {
    overhead_for_spec(cpu, &CipherEngineSpec::for_kind(kind), utilization)
}

/// [`overhead`] for an arbitrary engine configuration (e.g. the
/// time-multiplexed mobile variant).
///
/// # Panics
///
/// Panics if `utilization` is outside `[0, 1]`.
pub fn overhead_for_spec(cpu: &CpuSpec, spec: &CipherEngineSpec, utilization: f64) -> Overhead {
    assert!(
        (0.0..=1.0).contains(&utilization),
        "utilization {utilization} out of range"
    );
    let syn = synthesis_for_spec(spec);
    let per_engine_power = syn.dynamic_w * utilization + syn.static_w;
    let engine_power_w = per_engine_power * f64::from(cpu.channels);
    let engine_area_mm2 = syn.area_mm2 * f64::from(cpu.channels);
    Overhead {
        utilization,
        engine_power_w,
        power_pct: 100.0 * engine_power_w / cpu.tdp_w,
        engine_area_mm2,
        area_pct: 100.0 * engine_area_mm2 / cpu.die_mm2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom() -> CpuSpec {
        FIGURE7_CPUS[0]
    }

    #[test]
    fn area_overheads_are_about_one_percent_or_less() {
        // "In all cases, the area overheads are about or below 1%".
        for cpu in &FIGURE7_CPUS {
            for kind in [EngineKind::Aes128, EngineKind::ChaCha8] {
                let o = overhead(cpu, kind, 1.0);
                assert!(
                    o.area_pct <= 1.05,
                    "{} {kind:?}: {:.2}%",
                    cpu.name,
                    o.area_pct
                );
            }
        }
    }

    #[test]
    fn power_below_3pct_except_atom() {
        for cpu in FIGURE7_CPUS.iter().skip(1) {
            for kind in [EngineKind::Aes128, EngineKind::ChaCha8] {
                let o = overhead(cpu, kind, 1.0);
                assert!(
                    o.power_pct < 3.0,
                    "{} {kind:?}: {:.2}%",
                    cpu.name,
                    o.power_pct
                );
            }
        }
    }

    #[test]
    fn atom_power_up_to_17pct_at_full_utilization() {
        let o = overhead(&atom(), EngineKind::Aes128, 1.0);
        assert!(
            (16.0..=17.5).contains(&o.power_pct),
            "Atom full-util power {:.2}%",
            o.power_pct
        );
    }

    #[test]
    fn atom_power_below_6pct_at_20pct_utilization() {
        for kind in [EngineKind::Aes128, EngineKind::ChaCha8] {
            let o = overhead(&atom(), kind, 0.2);
            assert!(o.power_pct < 6.0, "{kind:?}: {:.2}%", o.power_pct);
        }
    }

    #[test]
    fn channels_scale_totals() {
        let xeon = FIGURE7_CPUS[3];
        let o = overhead(&xeon, EngineKind::ChaCha8, 1.0);
        let single = synthesis(EngineKind::ChaCha8);
        assert!((o.engine_area_mm2 - 3.0 * single.area_mm2).abs() < 1e-12);
    }

    #[test]
    fn utilization_scales_dynamic_only() {
        let idle = overhead(&atom(), EngineKind::Aes128, 0.0);
        let full = overhead(&atom(), EngineKind::Aes128, 1.0);
        let syn = synthesis(EngineKind::Aes128);
        assert!((idle.engine_power_w - syn.static_w).abs() < 1e-12);
        assert!((full.engine_power_w - (syn.static_w + syn.dynamic_w)).abs() < 1e-12);
    }

    #[test]
    fn bigger_ciphers_cost_more() {
        let a = synthesis(EngineKind::ChaCha8);
        let b = synthesis(EngineKind::ChaCha12);
        let c = synthesis(EngineKind::ChaCha20);
        assert!(a.area_mm2 < b.area_mm2 && b.area_mm2 < c.area_mm2);
        assert!(a.dynamic_w < b.dynamic_w && b.dynamic_w < c.dynamic_w);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_utilization() {
        overhead(&atom(), EngineKind::Aes128, 1.5);
    }

    #[test]
    fn time_multiplexed_halves_the_atom_power_problem() {
        // The paper's mobile recommendation: "more energy-efficient memory
        // encryption can be achieved by using cipher engines that have much
        // lower performance".
        let tm = crate::engine::CipherEngineSpec::time_multiplexed(EngineKind::ChaCha8);
        let piped = crate::engine::CipherEngineSpec::for_kind(EngineKind::ChaCha8);
        let o_tm = overhead_for_spec(&atom(), &tm, 1.0);
        let o_piped = overhead_for_spec(&atom(), &piped, 1.0);
        assert!(o_tm.power_pct < o_piped.power_pct / 2.0);
        assert!(o_tm.area_pct < o_piped.area_pct / 2.0);
        // And it still serves a mobile part's bandwidth: peak throughput
        // remains above a full DDR4-2400 channel (19.2 GB/s)... or at least
        // above a realistic 20% utilization of it.
        assert!(tm.throughput_gbps() > 0.2 * 19.2);
    }
}
