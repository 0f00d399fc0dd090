//! Shared infrastructure for the benchmark harness and the table/figure
//! regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact from the paper's
//! evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | binary               | paper artifact                               |
//! |----------------------|----------------------------------------------|
//! | `table1`             | Table I — tested machine configurations      |
//! | `table2`             | Table II — cipher engine performance         |
//! | `figure3`            | Figure 3 — scrambler obfuscation comparison  |
//! | `figure6`            | Figure 6 — decryption latency vs load        |
//! | `figure7`            | Figure 7 — power and area overhead           |
//! | `scrambler_analysis` | §III-B — key census, invariants, reboots     |
//! | `attack_e2e`         | §III-C — VeraCrypt key recovery demo         |
//! | `attack_perf`        | §III-C — attack scan throughput              |
//! | `retention`          | §III-D — DRAM retention sweep                |
//! | `defense`            | §IV    — attack vs encrypted memory          |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod machines;
pub mod table;
pub mod workload;
