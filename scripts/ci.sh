#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
#
# The workspace has no external dependencies, so everything here works
# offline (--offline keeps cargo from touching the network on machines
# with no registry cache). Requires rustfmt and clippy components.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release
cargo test --offline --workspace -q
# Property tests (seeded, replayable): vbuf ordering/accounting and CRL
# exactly-once under fault injection. Covered by the workspace run above;
# re-run by name so a failure is visible on its own line.
cargo test --offline -q -p fugu-glaze --test vbuf_props
cargo test --offline -q -p fugu-apps --test crl_chaos_props
# Chaos smoke: sweep fault injection over every app and assert the
# delivery guarantees (exits nonzero on any violation).
cargo run --offline --release -p fugu-bench --bin chaos -- --quick --jobs 4
# Differential property test: the slab event queue vs an ordered-map
# reference model (same pop order / now / cancel semantics). Covered by the
# workspace run; re-run by name for a standalone failure line.
cargo test --offline -q -p fugu-sim --test event_differential
# Benchmark smoke: perfbench (its own cargo workspace) builds against the
# crates as they are now, and its tests check every checksum-asserted
# layer probe and the results-row oracles.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
# Profiler determinism gate: run the span profiler twice on the same seed
# and demand byte-identical JSON and Perfetto outputs. The binary itself
# asserts 100% stitch rate, exact attribution sums, and that both
# artifacts round-trip through Json::parse (exits nonzero otherwise).
cargo run --offline --release -p fugu-bench --bin profile -- --quick --json "$tmpdir/profile_a.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin profile -- --quick --json "$tmpdir/profile_b.json" >/dev/null
cmp "$tmpdir/profile_a.json" "$tmpdir/profile_b.json" \
  || { echo "ci: profile JSON not deterministic across identical runs" >&2; exit 1; }
cmp "$tmpdir/profile_a.trace.json" "$tmpdir/profile_b.trace.json" \
  || { echo "ci: perfetto trace not deterministic across identical runs" >&2; exit 1; }
# Explorer smoke: a fixed-seed, bounded-budget sweep of the scenario
# space under the full oracle stack (exits nonzero on any invariant
# violation). Run twice at different host parallelism and demand
# byte-identical corpus JSON (the sweep is a pure function of seed and
# budget), then compare against the checked-in golden corpus — if a
# legitimate engine change shifts behavior, regenerate with:
#   cargo run --release -p fugu-bench --bin explore -- \
#     --quick --budget 32 --jobs 4 --json results/explore_corpus.json
# and commit the diff.
cargo run --offline --release -p fugu-bench --bin explore -- \
  --quick --budget 32 --jobs 4 --json "$tmpdir/explore_a.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin explore -- \
  --quick --budget 32 --jobs 1 --json "$tmpdir/explore_b.json" >/dev/null
cmp "$tmpdir/explore_a.json" "$tmpdir/explore_b.json" \
  || { echo "ci: explore corpus not deterministic across --jobs" >&2; exit 1; }
cmp results/explore_corpus.json "$tmpdir/explore_a.json" \
  || { echo "ci: results/explore_corpus.json drifted from regenerated output" >&2; exit 1; }
# Behavioral-drift gate: engine/perf work must never change simulated
# results. Regenerate every committed results/*.json with its committed
# flags (each binary's defaults) and demand byte-identical output. Progress
# lines go to a log that is shown only if the binary fails.
for bin in table4 table5 table6 fig7 fig8 fig9 fig10 ablate; do
  cargo run --offline --release -p fugu-bench --bin "$bin" -- --jobs 4 --json "$tmpdir/$bin.json" \
    >/dev/null 2>"$tmpdir/$bin.log" || { cat "$tmpdir/$bin.log" >&2; exit 1; }
  cmp "results/$bin.json" "$tmpdir/$bin.json" \
    || { echo "ci: results/$bin.json drifted from regenerated output" >&2; exit 1; }
done
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link resolves and none is redundant.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
echo "ci: all checks passed"
