#!/usr/bin/env bash
# Full verification sweep: build, lint, every test, every example, every
# figure (quick scale), and the benchmark's output check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --workspace --release

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace --release

echo "== doctests =="
cargo test --workspace --doc

echo "== examples =="
for ex in quickstart ior_sweep multi_client memory_sim failure_injection \
          checkpoint_restart policy_tuner; do
    echo "-- example: $ex"
    cargo run --release --example "$ex" >/dev/null
done

echo "== figures (quick) =="
cargo run --release -p sais-bench --bin all_figures -- --quick >/dev/null

echo "== perfbench (output check) =="
cargo test --release --manifest-path perfbench/Cargo.toml

echo "ALL CHECKS PASSED"
