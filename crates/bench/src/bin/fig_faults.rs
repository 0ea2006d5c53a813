//! Regenerate the fault-degradation table: `cargo run --release -p sais-bench --bin fig_faults [--quick|--full] [--trace <path>] [--metrics <path>] [--analyze <dir>]`.
//!
//! `--trace`, `--metrics` and `--analyze` instrument the fixed demo
//! scenario (`harness::observability_demo_config`), not this binary's cells.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig_faults(args.scale);
    args.emit_observability();
}
