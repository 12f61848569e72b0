#!/usr/bin/env bash
# Build holo-serve and the benchmark from source, then run it.
#
#   bash perfbench/run.sh --workload <serve-score|stream-mixed> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare BASE.jsonl NEW.jsonl
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); only the benchmark's result reaches stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p holo-serve --bin holo-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release"
if [ "${1:-}" = compare ]; then
    exec "$bin/perfbench" "$@"
fi
exec "$bin/perfbench" "$@" --server "$bin/holo-serve"
