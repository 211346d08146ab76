//! # gtv-bench
//!
//! Experiment harness regenerating every table and figure of the GTV
//! paper's evaluation (§4). One binary per experiment:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig3_motivation` | Fig. 3 — feature-importance case study |
//! | `fig8_partition` | Fig. 8 — 9 network partitions vs centralized |
//! | `fig10_11_data_partition` | Fig. 10, Fig. 11 and Table 2 — 1090/5050/9010 splits |
//! | `fig12_13_clients` | Fig. 12, Fig. 13 and Table 3 — 2–5 clients, default/enlarged generator |
//! | `fig5_6_privacy` | Fig. 5/6 — server reconstruction attack |
//! | `ablation_comm` | §4.3.1 — communication overhead by partition |
//! | `ablation_privacy` | §3.3 — membership inference, DP-noise trade-off, width boost |
//!
//! Scale is controlled by environment variables (`GTV_ROWS`, `GTV_ROUNDS`,
//! `GTV_REPEATS`, `GTV_BATCH`) so the same binaries run as a quick smoke or
//! a paper-scale reproduction. Performance is measured by `gtvbench/` (the
//! repository's one benchmark, `BENCHMARK.json`), not here.

pub mod report;
pub mod runner;

pub use runner::{run_centralized, run_gtv, ExperimentScale, RunOutcome};
