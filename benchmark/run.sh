#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json runs it from the repo root):
# builds the program under test — the release `repro` CLI — and the
# benchmark's own two binaries, offline, into one target directory, then
# runs `jigbench` with the caller's arguments. Build chatter goes to
# stderr; stdout is jigbench's alone.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p jigsaw_bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$CARGO_TARGET_DIR/release/jigbench" --work-dir "$here/work" "$@"
