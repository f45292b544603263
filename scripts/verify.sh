#!/usr/bin/env bash
# Tier-1 verification: build and test the whole workspace with zero
# network access, re-run the ee-rdf tests and the ee-serve state tests
# in release mode, lint with clippy and rustdoc as errors, fail on a
# public function that only tests call (scripts/check-public-api.sh),
# test and smoke-run the ee-serve benchmark suite on both of its
# workloads, run the federation example and check its two plans agree,
# then smoke-run the distributed-training (E4), classification (E5) and
# kernel-throughput (E-k0) experiments, plus the E2 selection arms and
# the E3 complexity and parallel-join sweeps at 4 threads (the harness
# aborts non-zero if the E2/E3 pushdown, post-filter and naive arms
# disagree on a hit count, or if a parallel run diverges from serial).
# The serving tier's identity verdicts (routed vs unsharded answers,
# crash recovery, as-of vs replay, top-k vs full sort, bounded memory
# under a stalled reader) are `cargo test` cases in the test suite.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: offline release build =="
cargo build --release --offline

echo "== tier-1: offline test suite =="
# Socket tests drive real servers: a hung client fails verify instead of
# stalling it.
timeout 1800 cargo test -q --offline

echo "== tier-1: ee-rdf tests in release mode =="
# The dictionary's byte arena does offset arithmetic: run its tests with
# release codegen too, where overflow checks are off.
cargo test -q --release --offline -p ee-rdf

echo "== tier-1: ee-serve state tests in release mode =="
# The start-up build fingerprint pins every id, term and byte the engines
# build; run it with release codegen too, where debug_assert!s are off.
cargo test -q --release --offline -p ee-serve --lib state::

echo "== lint: clippy (warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== lint: rustdoc (warnings are errors, e.g. dangling intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== lint: public surface (no pub fn that only tests name) =="
# Fails on a `pub fn` that no non-test code names, unless the script's
# allowlist says which tests or frozen suite keep it public.
scripts/check-public-api.sh

echo "== tier-1: benchmark suite's own tests =="
# The suite is a package with its own empty [workspace], so the root
# `cargo test` never reaches its tests. It shares `target` with run.sh.
CARGO_TARGET_DIR=target cargo test --release --offline \
    --manifest-path crates/bench/src/bin/suite/Cargo.toml

echo "== smoke: benchmark suite, both workloads (1 s open loop) =="
# Each run spawns a real ee-serve and checks every answer (browse-hot:
# byte-identical bodies; ingest-mix: SIGKILL recovery plus answers equal
# to the recovered store rewound to their commit). Its last stdout line
# is the result JSON.
for workload in browse-hot ingest-mix; do
    bash crates/bench/src/bin/suite/run.sh --workload "$workload" --seconds 1 --trace 0 \
        | tail -1 | grep -q '"correct":true'
done

echo "== smoke: federation example (same rows, fewer triples moved) =="
# `cargo test` only compiles the examples. The optimized plan must
# answer the naive plan's rows while moving fewer triples.
fed=$(cargo run --release --offline --example linked_data_federation | grep '^federation ')
echo "$fed"
echo "$fed" | awk '{ rows[$2] = $3; moved[$2] = $7 }
    END { exit !(rows["Naive:"] > 0 && rows["Optimized:"] == rows["Naive:"] \
                 && moved["Optimized:"] < moved["Naive:"]) }'

# The harness writes its BENCH_PR*.json artifacts to its cwd. Run it
# from a scratch dir under target/ so the smoke runs never rewrite the
# committed full-scale artifacts.
ART=target/verify-artifacts
mkdir -p "$ART"
harness() { (cd "$ART" && timeout 900 ../release/harness "$@"); }

echo "== smoke: harness e4 e5 kernels (quick scale) =="
harness e4 e5 kernels

echo "== smoke: harness e2, e3 --threads 4 (arms agree; serial-vs-parallel identity) =="
# E2 and E3 panic (non-zero exit) unless the pushdown, post-filter and
# naive arms agree on every window's hit count at every size.
harness e2
harness e3 --threads 4

echo "verify.sh: all green"
