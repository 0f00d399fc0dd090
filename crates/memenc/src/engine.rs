//! Cipher engine pipeline models — the paper's Table II.
//!
//! The paper synthesized five engines to a 45 nm silicon-on-insulator
//! library:
//!
//! | Cipher   | Max Freq (GHz) | Cycles per 64 B | Max pipeline delay (ns) |
//! |----------|----------------|-----------------|-------------------------|
//! | AES-128  | 2.4            | 13              | 5.4                     |
//! | AES-256  | 2.4            | 17              | 7.08                    |
//! | ChaCha8  | 1.96           | 18              | 9.18                    |
//! | ChaCha12 | 1.96           | 26              | 13.27                   |
//! | ChaCha20 | 1.96           | 42              | 21.42                   |
//!
//! The cycle counts fall out of the pipeline structure: the AES design
//! spends one cycle per round plus three pipeline stages (I/O registers and
//! the counter XOR), and the ChaCha design splits each round's quarter-round
//! chain into two stages plus two stages for state init/final add.
//! [`CipherEngineSpec::for_kind`] *derives* the cycle counts from the round
//! counts with those formulas and the tests pin them to the paper's table.

use std::fmt;

/// The five candidate replacement ciphers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// AES-128 in counter mode (16-byte units; 4 counters per block).
    Aes128,
    /// AES-256 in counter mode.
    Aes256,
    /// ChaCha8 (64-byte native block; 1 counter per block).
    ChaCha8,
    /// ChaCha12.
    ChaCha12,
    /// ChaCha20.
    ChaCha20,
}

impl EngineKind {
    /// All engines, in the paper's Table II order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Aes128,
        EngineKind::Aes256,
        EngineKind::ChaCha8,
        EngineKind::ChaCha12,
        EngineKind::ChaCha20,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Aes128 => "AES-128",
            EngineKind::Aes256 => "AES-256",
            EngineKind::ChaCha8 => "ChaCha8",
            EngineKind::ChaCha12 => "ChaCha12",
            EngineKind::ChaCha20 => "ChaCha20",
        }
    }

    /// Cipher round count.
    pub fn rounds(self) -> u32 {
        match self {
            EngineKind::Aes128 => 10,
            EngineKind::Aes256 => 14,
            EngineKind::ChaCha8 => 8,
            EngineKind::ChaCha12 => 12,
            EngineKind::ChaCha20 => 20,
        }
    }

    /// Whether this is an AES variant (16-byte keystream units).
    pub fn is_aes(self) -> bool {
        matches!(self, EngineKind::Aes128 | EngineKind::Aes256)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the round function is laid out in silicon.
///
/// §IV-B ("Speed vs Area and Power"): "we have the option to have a single
/// hardware unit for a round function and time-multiplex it. Such design
/// will result in lower throughput, but also lower power" — the trade-off
/// the paper recommends for mobile parts, which rarely sustain deep
/// back-to-back CAS bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStyle {
    /// Dedicated stage per round, one counter accepted per cycle (the
    /// Table II configuration).
    FullyPipelined,
    /// One round-function unit iterated in place: the next counter can only
    /// enter once the previous keystream unit leaves.
    TimeMultiplexed,
}

/// A synthesized cipher engine pipeline (one per memory channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CipherEngineSpec {
    /// Which cipher.
    pub kind: EngineKind,
    /// Silicon layout of the round function.
    pub style: PipelineStyle,
    /// Maximum clock frequency at 45 nm, GHz.
    pub max_freq_ghz: f64,
    /// Depth in cycles from counter injection to keystream out.
    pub pipeline_cycles: u32,
    /// Counter injections needed per 64-byte memory block
    /// (AES: 4 × 16 B; ChaCha: 1 × 64 B).
    pub issues_per_block: u32,
    /// Cycles between successive accepted counter injections
    /// (1 when fully pipelined; the full iteration count when
    /// time-multiplexed).
    pub issue_interval_cycles: u32,
}

impl CipherEngineSpec {
    /// Builds the paper's synthesized (fully pipelined) engine for a
    /// cipher.
    pub fn for_kind(kind: EngineKind) -> Self {
        let (max_freq_ghz, pipeline_cycles, issues_per_block) = if kind.is_aes() {
            // 1 cycle per round + 3 stages, 2.4 GHz, 16-byte units.
            (2.4, kind.rounds() + 3, 4)
        } else {
            // 2 stages per round (split quarter-round chain) + init/final
            // add, 1.96 GHz, native 64-byte block.
            (1.96, kind.rounds() * 2 + 2, 1)
        };
        Self {
            kind,
            style: PipelineStyle::FullyPipelined,
            max_freq_ghz,
            pipeline_cycles,
            issues_per_block,
            issue_interval_cycles: 1,
        }
    }

    /// Builds the low-power, time-multiplexed variant: the same round
    /// latency, but the single round unit is busy for a whole keystream
    /// unit before accepting the next counter.
    pub fn time_multiplexed(kind: EngineKind) -> Self {
        let base = Self::for_kind(kind);
        Self {
            style: PipelineStyle::TimeMultiplexed,
            issue_interval_cycles: base.pipeline_cycles,
            ..base
        }
    }

    /// All five Table II engines.
    pub fn table2() -> Vec<Self> {
        EngineKind::ALL.iter().map(|&k| Self::for_kind(k)).collect()
    }

    /// One clock period, ns.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.max_freq_ghz
    }

    /// Table II's "Maximum Pipeline Delay": counter in → first keystream
    /// unit out.
    pub fn pipeline_delay_ns(&self) -> f64 {
        f64::from(self.pipeline_cycles) * self.cycle_ns()
    }

    /// Latency to produce the complete 64-byte keystream for one block
    /// (the last of the `issues_per_block` units), unloaded.
    pub fn block_latency_ns(&self) -> f64 {
        let last_issue = (self.issues_per_block - 1) * self.issue_interval_cycles;
        f64::from(self.pipeline_cycles + last_issue) * self.cycle_ns()
    }

    /// Time the engine's input port is occupied per block (its service
    /// time under load).
    pub fn service_time_ns(&self) -> f64 {
        f64::from(self.issues_per_block * self.issue_interval_cycles) * self.cycle_ns()
    }

    /// Peak keystream throughput in GB/s (one injection per
    /// `issue_interval_cycles`, 64 / `issues_per_block` bytes each).
    pub fn throughput_gbps(&self) -> f64 {
        self.max_freq_ghz * 64.0 / f64::from(self.issues_per_block * self.issue_interval_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: EngineKind) -> CipherEngineSpec {
        CipherEngineSpec::for_kind(kind)
    }

    #[test]
    fn table2_cycle_counts() {
        assert_eq!(spec(EngineKind::Aes128).pipeline_cycles, 13);
        assert_eq!(spec(EngineKind::Aes256).pipeline_cycles, 17);
        assert_eq!(spec(EngineKind::ChaCha8).pipeline_cycles, 18);
        assert_eq!(spec(EngineKind::ChaCha12).pipeline_cycles, 26);
        assert_eq!(spec(EngineKind::ChaCha20).pipeline_cycles, 42);
    }

    #[test]
    fn table2_pipeline_delays_ns() {
        let expect = [
            (EngineKind::Aes128, 5.4),
            (EngineKind::Aes256, 7.08),
            (EngineKind::ChaCha8, 9.18),
            (EngineKind::ChaCha12, 13.27),
            (EngineKind::ChaCha20, 21.42),
        ];
        for (kind, paper_ns) in expect {
            let got = spec(kind).pipeline_delay_ns();
            assert!(
                (got - paper_ns).abs() < 0.02,
                "{kind}: model {got:.3} vs paper {paper_ns}"
            );
        }
    }

    #[test]
    fn aes_throughput_matches_papers_39_gbps() {
        // "reduces throughput to 39 GB/s" (2.4 GHz × 16 B).
        let t = spec(EngineKind::Aes128).throughput_gbps();
        assert!((t - 38.4).abs() < 0.01, "throughput {t}");
    }

    #[test]
    fn chacha_issues_once_per_block() {
        for kind in [
            EngineKind::ChaCha8,
            EngineKind::ChaCha12,
            EngineKind::ChaCha20,
        ] {
            assert_eq!(spec(kind).issues_per_block, 1);
        }
        assert_eq!(spec(EngineKind::Aes128).issues_per_block, 4);
    }

    #[test]
    fn chacha8_beats_min_cas_aes_does_too() {
        use coldboot_dram::timing::DDR4_MIN_CAS_NS;
        assert!(spec(EngineKind::ChaCha8).block_latency_ns() < DDR4_MIN_CAS_NS);
        assert!(spec(EngineKind::Aes128).block_latency_ns() < DDR4_MIN_CAS_NS);
        assert!(spec(EngineKind::Aes256).block_latency_ns() < DDR4_MIN_CAS_NS);
        // ChaCha12's pipeline alone exceeds the fastest CAS.
        assert!(spec(EngineKind::ChaCha12).block_latency_ns() > DDR4_MIN_CAS_NS);
    }

    #[test]
    fn time_multiplexed_trades_throughput_for_nothing_in_latency() {
        for kind in EngineKind::ALL {
            let piped = CipherEngineSpec::for_kind(kind);
            let tm = CipherEngineSpec::time_multiplexed(kind);
            // First keystream unit arrives at the same time...
            assert_eq!(tm.pipeline_delay_ns(), piped.pipeline_delay_ns());
            // ...but throughput collapses by the iteration count.
            assert!(tm.throughput_gbps() < piped.throughput_gbps() / 10.0);
            // For ChaCha (single issue per block) even the full block
            // latency is unchanged.
            if !kind.is_aes() {
                assert_eq!(tm.block_latency_ns(), piped.block_latency_ns());
            } else {
                assert!(tm.block_latency_ns() > piped.block_latency_ns());
            }
        }
    }

    #[test]
    fn time_multiplexed_chacha8_still_beats_min_cas() {
        // The paper's mobile recommendation: a time-multiplexed ChaCha8
        // still hides inside the CAS window for single reads.
        use coldboot_dram::timing::DDR4_MIN_CAS_NS;
        let tm = CipherEngineSpec::time_multiplexed(EngineKind::ChaCha8);
        assert!(tm.block_latency_ns() < DDR4_MIN_CAS_NS);
    }

    #[test]
    fn service_time_ordering() {
        // AES occupies its input 4x longer per block than ChaCha — the root
        // of the Figure 6 queueing difference.
        let aes = spec(EngineKind::Aes128).service_time_ns();
        let chacha = spec(EngineKind::ChaCha8).service_time_ns();
        assert!(aes > 3.0 * chacha);
    }
}
