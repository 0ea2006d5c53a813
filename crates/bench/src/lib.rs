//! # sais-bench — figure and table regeneration for the SAIs reproduction
//!
//! One function per table/figure of the paper's evaluation (§V, §VI), each
//! printing paper-style rows and writing CSV under `target/experiments/`.
//! `cargo run --release -p sais-bench --bin all_figures -- --quick` runs
//! everything at quick scale; individual binaries
//! (`cargo run --release -p sais-bench --bin fig05_bandwidth_3gig`) run one
//! figure, and accept `--quick` / `--full` for the smaller or larger file
//! size. All figure binaries parse flags strictly (unknown flags are an
//! error, exit 2) and accept `--trace <path>` / `--metrics <path>` /
//! `--analyze <dir>` to additionally export a Perfetto trace, a metric
//! snapshot or trace-analysis reports of the fixed, instrumented demo
//! scenario — not of the figure's own cells (see [`harness::BenchArgs`]).
//!
//! The paper reads a 10 GB file per run; the default scale here is 128 MB
//! (full: 1 GB). Steady-state bandwidth is file-size invariant in this
//! model (and nearly so on the testbed), so scaling changes run time, not
//! conclusions; EXPERIMENTS.md records both scales for the headline rows.

pub mod analysis;
pub mod executor;
pub mod figures;
pub mod harness;
pub mod profile;
pub mod timeseries;

pub use harness::{BenchArgs, Scale, Sweep};
