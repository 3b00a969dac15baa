#!/usr/bin/env bash
# Full local verification: format, lints, tests, docs, experiments smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace
# perfbench (its own Cargo workspace) pins hmtx_runtime's public API.
CARGO_TARGET_DIR=target/perfbench \
  cargo test --offline --locked --manifest-path perfbench/Cargo.toml
cargo doc --workspace --no-deps
cargo run --release -p hmtx-bench --bin experiments -- table2 --quick >/dev/null
echo "all checks passed"
