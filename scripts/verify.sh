#!/usr/bin/env bash
# Tier-1 verify: hermetic offline build + full test suite.
#
# Fails on any compiler warning (RUSTFLAGS -D warnings) and never
# touches the network (CARGO_NET_OFFLINE): the workspace must build
# from path-local crates alone.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

cargo build --release --workspace --all-targets
# Lint gate: the workspace is clippy-clean, tests and benches included.
cargo clippy --workspace --all-targets -- -D warnings
# Format gate: the workspace is rustfmt-clean.
cargo fmt --all --check
# Rustdoc gate: the workspace's docs build without a warning (no broken
# or private intra-doc link).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test -q --workspace

# End-to-end telemetry: a fully-traced incast's exported artifacts must
# reconcile exactly with the simulator's ground truth.
cargo test -q -p tfc-repro --test telemetry

# Scheduler equivalence: the reference heap and the timing wheel must
# export byte-identical artifacts — including the open-loop streaming
# scenario, where flow retirement recycles ids mid-run and a same-seed
# wheel re-run must reproduce the whole bundle byte for byte, and the
# ECMP+churn fat-tree scenario, where multipath spray and
# selection-time reroute must not leak the backend into a single
# artifact byte. (Also part of the workspace suite above; run
# explicitly so a failure names the gate.)
cargo test -q -p tfc-repro --test sched_equivalence

# Multipath regression: ECMP spray, counted no-route drops, and
# link-down reroute onto surviving equal-cost members.
cargo test -q -p tfc-repro --test ecmp

# Streaming export: artifact files are written record by record through
# one pretty-writer, never built whole in memory. A counting allocator
# bounds export's live-heap growth at 1 MiB for 100k event records and
# 100k flows (a whole-file tree of that bundle takes ~170 MiB), so a
# regression to whole-file trees or strings names this gate.
cargo test -q -p tfc-repro --test export_memory

# TFC port state on first touch: a freshly built network holds one Init
# prototype per link rate per switch, not an engine and arbiter per
# port. A counting allocator bounds the k=36 fat-tree's TFC policies at
# 1 MiB of live heap over drop-tail switches (building every port up
# front takes 14.8 MiB), so a regression to eager port state names
# this gate.
cargo test -q -p tfc-repro --test policy_memory

# Completed-flow footprint: without retirement a finished flow keeps its
# record and its two endpoint boxes, not a drained reorder-map node or
# timer list. A counting allocator runs a lossy TFC incast at two round
# counts and bounds the extra rounds' completed flows at 2 live heap
# blocks each (keeping the drained node and list took 4), so a
# regression to per-flow scratch state names this gate.
cargo test -q -p tfc-repro --test flow_memory

# Compact fabric state: switch ports live in one table of 64-byte
# ports whose FIFOs are links through the packet arena, switches that
# forward identically share one interned route row, and TFC prototypes
# and config are shared across the fabric. A counting allocator bounds
# the live heap of a built k=36 TFC fat-tree at 5.25 MiB (104-byte
# ports and a route row per switch took 9.9 MiB; per-switch vectors of
# 128-byte ports and per-switch prototypes 12.2 MiB), so a regression
# to wider ports, per-switch rows or per-port allocations names this
# gate.
cargo test -q -p tfc-repro --test port_memory

# Compact event path: 16-byte events, 32-byte scheduler entries whose
# bucket link and timer slot sit in parallel columns, 16-byte live-run
# keys, 56-byte timer slots and 64-byte packet-arena slots, on the
# compact fabric above. A counting allocator bounds the live-heap peak
# of the benchmark's 1,100-flow k=36 fat-tree run at 18.25 MiB
# (104-byte ports and a route row per switch peaked at 22.3 MiB;
# 32-byte events, 56-byte entries and 80-byte arena slots on top at
# 25.5 MiB), so a regression that widens a per-event, per-packet or
# per-port record names this gate.
cargo test -q -p tfc-repro --test event_memory

# Never-moving tables: the packet arena's slots, the timing wheel's
# entry columns and the timer slots grow in segments that are never
# reallocated. A counting allocator bounds the bytes that reallocations
# of blocks of 64 KiB or more may copy during the benchmark's k=36 loop
# at 1,101,004 B (the wheel's live run, measured 1,048,576 B, plus 5%;
# doubling `Vec`s for those tables made 8,273,920 B), so a regression
# to a growable table that scales with in-flight packets names this
# gate.
cargo test -q -p tfc-repro --test loop_moves

# tfc-trace must summarize a smoke-run artifact bundle from the files
# alone (exported into a scratch dir so committed results/ stay put).
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

# Figure contract: every committed figure dump (results/*.json) must
# regenerate byte-identically at the default seed. The figures are
# dumped into the scratch dir, so committed results/ stay put.
for FIG in all ablations sweeps reroute; do
  TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin figures -- "$FIG" >/dev/null
done
for JSON in results/*.json; do
  cmp "$JSON" "$TRACE_DIR/$(basename "$JSON")" \
    || { echo "verify: $JSON does not regenerate byte-identically" >&2; exit 1; }
done
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --smoke
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- "$TRACE_DIR/smoke-incast" >/dev/null

# Chaos smoke: fixed-seed link-flap + host-stall runs export fault
# telemetry, and tfc-trace renders the recovery summary (fault windows,
# goodput dip, token reclamation) from the artifacts alone.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --chaos-smoke
# (plain grep, not -q: -q closes the pipe at first match and the
# still-printing tracer dies of SIGPIPE under pipefail)
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- "$TRACE_DIR/smoke-chaos-flap" | grep "tokens reclaimed" >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- "$TRACE_DIR/smoke-chaos-stall" | grep "fault windows:" >/dev/null

# ECMP smoke: a fixed-seed multipath reroute run (k=4 fat-tree, edge
# uplink flap) exports artifacts, and tfc-trace renders the per-port
# spray balance plus the selection-time reroute records from them.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --ecmp-smoke | tee "$TRACE_DIR/ecmpsmoke.out" >/dev/null
grep "per-port spray balance" "$TRACE_DIR/ecmpsmoke.out" >/dev/null
grep "reroutes (selection-time ECMP repair):" "$TRACE_DIR/ecmpsmoke.out" >/dev/null

# Zero-overhead tracing gate: TraceConfig::Off must record nothing and
# leave artifacts byte-identical to a traced run's non-span files.
cargo test -q -p tfc-repro --test spans

# Run-diff self-test: two same-seed full-trace runs must compare clean,
# and a perturbed seed must yield a first-divergence report.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --diff-smoke | tee "$TRACE_DIR/diffsmoke.out"
grep "no divergence" "$TRACE_DIR/diffsmoke.out" >/dev/null
grep "first divergence" "$TRACE_DIR/diffsmoke.out" >/dev/null

# Scale-bench smoke: the quick suite must run the heap and the wheel
# to identical outcomes — including the fat-tree and ECMP-multipath
# scenarios — and write a well-formed BENCH_scale.json (schema key,
# host-parallelism manifest, non-zero loop-only events/sec and speedup
# — the binary itself asserts positivity and outcome identity).
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-scale-bench -- --quick >/dev/null
test -s "$TRACE_DIR/bench/BENCH_scale.json"
grep '"schema": "tfc-bench-scale/v7"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"available_parallelism"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"active_threads"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"heap_events_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"wheel_events_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"heap_loop_ms"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"wheel_loop_ms"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"speedup"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "fat_tree"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "fat_tree_multipath"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null

# Determinism gate: two same-seed wheel chaos leaf-spine runs (full
# telemetry, profiling off) must export byte-identical artifact
# bundles under tfc-trace diff.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-scale-bench -- --det >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- diff \
  "$TRACE_DIR/det-a" "$TRACE_DIR/det-b" | grep "no divergence" >/dev/null

# Streaming smoke: tfc-million --quick validates its sketches against
# an exact oracle, completes 100k open-loop flows with bounded slab and
# arena high-water marks (asserted by the binary), and merges a
# well-formed "million" block into BENCH_scale.json.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-million -- --quick >/dev/null
grep '"million"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"flows_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"slab_capacity"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"oracle_classes_checked"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
# The scale-bench rows must survive the merge (and vice versa: a
# re-run of scale-bench preserves the million block).
grep '"schema": "tfc-bench-scale/v7"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"wheel_events_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null

# tfc-trace --flows: the per-class retired table must render from the
# v2 flows.json alone (self-test), and the streaming run's artifacts
# must summarize cleanly.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --flows-smoke >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --flows "$TRACE_DIR/million-quick" | grep "retired flows:" >/dev/null

# Tracing-overhead smoke: flow-sampled tracing on the leaf-spine run
# must stay within 10% of the untraced events/sec (ratio <= 1.10).
OVERHEAD="$(grep -m1 '"trace_overhead"' "$TRACE_DIR/bench/BENCH_scale.json" | sed 's/[^0-9.]*//g')"
awk -v o="$OVERHEAD" 'BEGIN { exit !(o > 0 && o <= 1.10) }' \
  || { echo "verify: trace overhead $OVERHEAD exceeds 1.10" >&2; exit 1; }

echo "verify: OK"
