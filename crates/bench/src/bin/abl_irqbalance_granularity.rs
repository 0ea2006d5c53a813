//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_irqbalance_granularity [--quick|--full] [--trace <path>] [--metrics <path>] [--analyze <dir>]`.
//!
//! `--trace`, `--metrics` and `--analyze` instrument the fixed demo
//! scenario (`harness::observability_demo_config`), not this binary's cells.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_irqbalance_granularity(args.scale);
    args.emit_observability();
}
