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

# The benchmark harness is a Cargo workspace of its own that depends on
# the crates by path, so the workspace build above does not compile it:
# build it and run its tests, so an API change that breaks it fails
# here.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Loss recovery: every protocol delivers the exact byte stream under
# periodic switch loss, with pinned retransmit, timeout and completion
# counts. TFC's rows also assert no RTO and completion within 20 ms:
# its tail-loss probe recovers each loss in round trips, where the
# 200 ms min-RTO took 203-406 ms per run, so a regression in the probe
# or the send core's timer names this gate.
cargo test -q -p tfc-repro --test reliability

# TFC cold start: a switch port without a measured rtt_b sizes its
# token from the delimiter's SYN -> window-probe interval, so a lone
# 24 KB flow on an idle k=4 fat-tree finishes within handshake, probe,
# one RTT and serialisation (+10 %), and the lone flows of a seeded k=8
# matrix finish within 1.2x of that floor at the median. Under the old
# unconditional 4-MSS cap both fail (290.8 us against 199.3 us; 1.45).
cargo test -q -p tfc-repro --test cold_start

# End-to-end telemetry: a fully-traced incast's exported artifacts must
# reconcile exactly with the simulator's ground truth.
cargo test -q -p tfc-repro --test telemetry

# Scheduler equivalence: the reference heap and the timing wheel must
# export byte-identical artifacts — including the open-loop streaming
# scenario, where a retired flow's id goes to the next flow mid-run and
# a same-seed wheel re-run must reproduce the whole bundle byte for
# byte, and the ECMP+churn fat-tree scenario, where multipath spray and
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

# Completed-flow footprint: without retirement a finished flow keeps
# only its 80-byte flow-table record (FCT records are built from it on
# demand); its endpoints, timer list and transport scratch state are
# freed once no packet or timer can reach it. A counting allocator runs
# a lossy TFC incast at two round counts and bounds the extra rounds'
# completed flows at 0 live heap blocks and 89 live bytes each
# (84.875 B measured, ~82 B now, plus 5 %; a 24-byte FCT record per flow in a
# doubling vector took 121 B, 152-byte flow-table slots 193 B, keeping
# the two endpoint boxes 2 blocks and 683 B, keeping a drained reorder
# node and timer list 4 blocks), so a regression to per-flow state
# that outlives the flow or widens its record names this gate.
cargo test -q -p tfc-repro --test flow_memory

# Flow lifetime: a finished flow's endpoints are freed, and under
# retirement the flow is retired and its id reused, only once no
# packet or timer can reach it. Lossy and faulted TFC, DCTCP and TCP
# incasts, with and without retirement, and an open-loop TFC stream
# whose delay arbiter holds ACKs of finished flows must see no packet
# reach a host without its flow's endpoints, so a lifecycle regression
# names this gate.
cargo test -q -p tfc-repro --test endpoint_lifetime

# Endpoint lifetime and compact flow records at benchmark scale: the
# benchmark's incast_chaos run (12,000 flows in 100 rounds of fresh
# connections, no retirement) without its export. A counting allocator
# bounds its live-heap peak at 2,414,422 B plus 5 % (it measures
# 2,379,006 B; 2,429,886 B before a flow's last segment went unmarked,
# so delay arbiters held finished flows' RMAs; with one
# scheduler carrier stack the probes' sub-ms timers strand a 200 ms
# entry per flow, 3,214,374 B; a 24-byte FCT
# record per flow beside the flow table peaked at 2,807,638 B,
# 152-byte flow-table slots on top at 3,982,678 B, keeping every
# finished flow's endpoints on top of that at 8,735,814 B), so a
# regression that keeps per-flow endpoint or timer state past the
# flow's last packet, or widens the flow record, names this gate.
cargo test -q -p tfc-repro --test incast_memory

# Compact fabric state: every port, host NICs included, lives in one
# table of 32-byte ports whose FIFOs are links through the packet
# arena and whose rate, delay, buffer and fault state are rows of one
# interned parameter table, nodes are 16 bytes with each switch boxed,
# switches that forward identically share one interned route row, and
# TFC prototypes and config are shared across the fabric. A counting
# allocator bounds the live heap of a built k=36 TFC fat-tree at the
# measured 3,145,652 B plus 5% (NICs inline in 56-byte nodes took
# 3,174,164 B; 64-byte ports 5.0 MiB; 104-byte ports and a route row
# per switch 9.9 MiB; per-switch vectors of 128-byte ports and
# per-switch prototypes 12.2 MiB), so a regression to wider ports or
# nodes, per-switch rows or per-port allocations names this gate.
cargo test -q -p tfc-repro --test port_memory

# Compact event path: 16-byte events, 32-byte scheduler entries whose
# bucket link and timer slot sit in parallel columns, 16-byte live-run
# keys, 56-byte timer slots and 64-byte packet-arena slots, with pushes
# at the instant just popped in a FIFO through the bucket links, on
# the compact fabric above, with 80-byte flow-table records and each
# switch's policy timers in its box. A counting allocator bounds the
# live-heap peak of the benchmark's 1,100-flow k=36 fat-tree run at
# 14,574,348 B plus 5% (it measures 14,655,564 B since fresh TFC
# flows start at T / E instead of 4 MSS, 14,582,540 B before: the
# scheduler's far carrier stack adds 8,192 B; NICs inline in 56-byte nodes and
# a policy-timer list per switch beside them peaked at 14,642,640 B;
# an FCT record vector beside the flow table at 14,647,884 B;
# 152-byte flow-table slots at 14,790,732 B; 64-byte ports and
# those pushes in a heap at 17.3 MiB; 104-byte ports and a route row
# per switch at 22.3 MiB; 32-byte events, 56-byte entries and 80-byte
# arena slots on top at 25.5 MiB), so a regression that widens a
# per-event, per-packet, per-port or per-flow record names this gate.
cargo test -q -p tfc-repro --test event_memory

# Never-moving tables: the packet arena's slots, the timing wheel's
# entry columns and the timer slots grow in segments that are never
# reallocated. A counting allocator bounds the bytes that reallocations
# of blocks of 64 KiB or more may copy during the benchmark's k=36 loop
# at the measured 65,536 B plus 5% (the wheel's sorted `current`
# bucket; same-instant pushes in its `late` heap made 1,048,576 B and
# doubling `Vec`s for those tables 8,273,920 B), so a regression to a
# growable table that scales with in-flight packets names this gate.
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
# Paper-scale contract: the committed results/paper/*.json, which
# EXPERIMENTS.md quotes, must regenerate byte-identically too (~2 min).
mkdir -p "$TRACE_DIR/paper"
TFC_RESULTS_DIR="$TRACE_DIR/paper" cargo run --release -q -p tfc-bench --bin figures -- all --paper >/dev/null
for JSON in results/paper/*.json; do
  cmp "$JSON" "$TRACE_DIR/paper/$(basename "$JSON")" \
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

# Scale-bench smoke: the heap, the wheel and the flow-sampled traced
# wheel must reach identical outcomes on all five scenarios — including
# the fat-tree and ECMP-multipath ones — and write a well-formed
# BENCH_scale.json (schema key, host-parallelism manifest, the
# leaf-spine trace overhead — the binary itself asserts outcome
# identity and positivity). Simulator speed is perfbench's to measure.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-scale-bench >/dev/null
test -s "$TRACE_DIR/bench/BENCH_scale.json"
grep '"schema": "tfc-bench-scale/v8"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"available_parallelism"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"active_threads"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "fat_tree"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "fat_tree_multipath"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null

# Determinism gate: two same-seed wheel chaos leaf-spine runs (full
# telemetry, profiling off) must export byte-identical artifact
# bundles under tfc-trace diff.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-scale-bench -- --det >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- diff \
  "$TRACE_DIR/det-a" "$TRACE_DIR/det-b" | grep "no divergence" >/dev/null

# Streaming smoke: tfc-million --quick validates its sketches against
# an exact oracle, completes 100k open-loop flows with a flow slab no
# larger than its peak live count and a bounded arena high-water mark
# (asserted by the binary), and writes a
# well-formed BENCH_million.json (v2: counts only, no wall-clock
# speed).
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-million -- --quick >/dev/null
grep '"schema": "tfc-bench-million/v2"' "$TRACE_DIR/bench/BENCH_million.json" >/dev/null
grep '"events"' "$TRACE_DIR/bench/BENCH_million.json" >/dev/null
grep '"slab_capacity"' "$TRACE_DIR/bench/BENCH_million.json" >/dev/null
grep '"oracle_classes_checked"' "$TRACE_DIR/bench/BENCH_million.json" >/dev/null

# tfc-trace --flows: the per-class retired table must render from the
# v2 flows.json alone (self-test), and the streaming run's artifacts
# must summarize cleanly.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --flows-smoke >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --flows "$TRACE_DIR/million-quick" | grep "retired flows:" >/dev/null

# Tracing-overhead smoke: flow-sampled tracing on the leaf-spine run
# must stay within 10% of the untraced loop time (ratio <= 1.10).
OVERHEAD="$(grep -m1 '"trace_overhead"' "$TRACE_DIR/bench/BENCH_scale.json" | sed 's/[^0-9.]*//g')"
awk -v o="$OVERHEAD" 'BEGIN { exit !(o > 0 && o <= 1.10) }' \
  || { echo "verify: trace overhead $OVERHEAD exceeds 1.10" >&2; exit 1; }

echo "verify: OK"
