#!/usr/bin/env bash
# Offline verification gate for evlab.
#
# Runs, in order:
#   1. the hermetic release build;
#   2. `cargo clippy --workspace -- -D warnings` (offline lint gate);
#   3. the full workspace test suite;
#   4. the kernel bit-identity tests (tests/kernel_equivalence.rs):
#      the blocked GEMM, the direct register-tiled conv2d forward (swept
#      at 1 and 4 threads, partly filled tiles included) and the
#      im2col + GEMM conv2d backward must reproduce their naive
#      loop-nest oracles bit for bit, and
#      Scratch-arena reuse must be invisible;
#   5. a smoke sweep of the `hotpaths` benchmark at EVLAB_THREADS ∈
#      {1, 2, 4, 8} — the binary exits non-zero if any thread count
#      produces output whose checksum differs from the serial run. The
#      sweep now covers the blocked kernels themselves (`gemm`,
#      `conv_fwd`, `cnn_step` are panel/batch-parallel with fixed
#      partitions and ordered reductions), so this gates the kernels'
#      bitwise thread-count invariance, and the run still fails if
#      `gemm` vs `gemm_naive` / `conv_fwd` vs `conv_fwd_naive` checksums
#      disagree. This run is built with `--features count-alloc`, which
#      installs the counting global allocator: the binary additionally
#      fails if any instrumented workload's steady-state allocation
#      count exceeds the committed BENCH_alloc_budget.json (all zeros for
#      the kernels — the per-worker arena contract must hold at every
#      thread count — and, for the streaming engines, the returned
#      logits alone: two heap blocks per `gnn_stream` update, one `Vec`
#      per `snn_stream` event);
#   6. a smoke run of `serve_bench` (4 concurrent sessions per paradigm,
#      16-deep queues under 64-event bursts) — the binary exits non-zero
#      unless load was actually shed AND decisions kept flowing, which is
#      the serving runtime's graceful-degradation contract;
#   7. a smoke run of `chaos_bench` (seeded fault injection: packet drop,
#      AER bit corruption, timestamp jitter across all three paradigms) —
#      the binary exits non-zero unless faults fired, the hardened
#      ingress quarantined what it could not salvage, and every
#      degradation curve is monotone non-increasing in the fault rate;
#   8. a smoke run of `recovery_bench` (crash-consistent checkpointing:
#      snapshot + decision journal + WAL recovery across all three
#      paradigms, with a torn WAL tail forced everywhere and a torn
#      journal record in the GNN legs) — the binary exits non-zero unless
#      every recovered session is bit-identical to its uncrashed oracle
#      and a journal tear was absorbed; `obs_check` then requires the
#      `ckpt.*`/`wal.*` counters, journal appends included;
#   9. a smoke run of `fuzz_lab` (differential fuzzing: naive vs
#      optimized graph builders, blocked vs naive GEMM, serial vs
#      threaded execution, checkpoint/restore vs uninterrupted oracle,
#      reorder buffer vs its contract model, json writer/parser round
#      trips, the streaming GNN engine vs a frontier recompute, the conv2d
#      kernels vs their naive nests at 1 and 4 threads, the event-driven
#      SNN engine vs per-neuron decay-on-demand — 9 targets, 8 seeds per
#      target plus the committed regression corpus,
#      with `evlab_util::check` runtime invariants forced on) — the
#      binary exits non-zero on any mismatch, panic, or invariant
#      violation, and `obs_check --forbid 'check.*violations'` re-checks
#      the metrics for invariant-violation counters;
#  10. the full workspace test suite again under `EVLAB_CHECK=1`, so
#      every release-profile test also runs with the runtime invariant
#      layer active (debug builds get it from `debug_assertions`);
#  11. a clippy gate denying `unwrap()`/`expect()` on the ingestion,
#      serving, kernel, graph and util crates — faults on those paths
#      must surface as errors and quarantine counters, never as panics;
#  12. the serving benchmark (`servebench/`, a package of its own that
#      the workspace build does not cover): its self-tests, then a smoke
#      run of each workload (`replay`, `fanin`, `durable`), so an API
#      change in `par`, `serve` or `core::online` cannot break it
#      unnoticed. Each smoke run exits non-zero if its correctness gates
#      fail;
#  13. the committed result files: the standard output of `table1`,
#      `ablations`, `fig1`, `fig2_snn` and `fig2_gnn` must equal
#      `<bin>_output.txt` byte for byte (the outputs are deterministic at
#      every thread count, so a kernel change that moves a printed bit
#      fails here). `claims_output.txt` is regenerated the same way but
#      not diffed: `claims` prints wall-clock timings.
#
# The smoke runs execute under EVLAB_OBS=1 with --metrics; afterwards
# `obs_check` re-parses each metrics file with the crate's own JSON
# parser and fails if any required counter is zero — for hotpaths the
# built-in pipeline-stage list, for serve_bench the `serve.*` ingress,
# shedding and decision counters, for chaos_bench the `fault.*` injection
# counters plus the quarantine/supervisor ones (via --require; a trailing
# `.*` requires at least one nonzero counter under that prefix).
#
# Usage: scripts/verify.sh
# Requires no network access: the workspace has zero registry
# dependencies and must build with `--offline`.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test --workspace --offline"
cargo test -q --workspace --offline

out="$(mktemp /tmp/evlab_hotpaths_smoke.XXXXXX.json)"
metrics="$(mktemp /tmp/evlab_hotpaths_obs.XXXXXX.json)"
serve_out="$(mktemp /tmp/evlab_serve_smoke.XXXXXX.json)"
serve_metrics="$(mktemp /tmp/evlab_serve_obs.XXXXXX.json)"
chaos_out="$(mktemp /tmp/evlab_chaos_smoke.XXXXXX.json)"
chaos_metrics="$(mktemp /tmp/evlab_chaos_obs.XXXXXX.json)"
recovery_out="$(mktemp /tmp/evlab_recovery_smoke.XXXXXX.json)"
recovery_metrics="$(mktemp /tmp/evlab_recovery_obs.XXXXXX.json)"
fuzz_metrics="$(mktemp /tmp/evlab_fuzz_obs.XXXXXX.json)"
trap 'rm -f "$out" "$metrics" "$serve_out" "$serve_metrics" "$chaos_out" "$chaos_metrics" "$recovery_out" "$recovery_metrics" "$fuzz_metrics"' EXIT

echo "==> kernel bit-identity tests (blocked kernels vs naive oracles)"
cargo test -q --offline --test kernel_equivalence

echo "==> hotpaths smoke sweep (threads 1, 2, 4, 8; kernel checksum- and alloc-budget-gated; obs on)"
EVLAB_OBS=1 cargo run -q --release --offline -p evlab-bench --features count-alloc \
    --bin hotpaths -- --smoke --out "$out" --metrics "$metrics"

echo "==> obs_check: metrics parse + every pipeline stage reported activity"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- "$metrics"

echo "==> obs_check: dense-kernel counters nonzero (gemm dispatch + conv lowering)"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- \
    --require tensor.gemm.calls \
    --require tensor.gemm.par_chunks \
    --require tensor.conv.forward \
    --require tensor.conv.backward \
    --require tensor.conv.im2col_chunks \
    "$metrics"

echo "==> obs_check: sliding-window counters nonzero (inserts, evictions, streaming GNN updates and recomputed rows)"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- \
    --require 'gnn.window.*' \
    --require gnn.window.inserts \
    --require gnn.window.evictions \
    --require gnn.window.updates \
    --require gnn.window.recomputed_rows \
    "$metrics"

echo "==> serve_bench smoke (4 sessions/paradigm, forced overload, obs on)"
EVLAB_OBS=1 cargo run -q --release --offline -p evlab-bench --bin serve_bench -- \
    --smoke --out "$serve_out" --metrics "$serve_metrics"

echo "==> obs_check: serving ingress, shedding and decision counters nonzero"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- \
    --require serve.session.opened \
    --require serve.queue.offered \
    --require serve.queue.accepted \
    --require serve.shed.oldest \
    --require serve.session.decisions \
    "$serve_metrics"

echo "==> chaos_bench smoke (seeded faults x 3 paradigms; monotone degradation gated)"
EVLAB_OBS=1 cargo run -q --release --offline -p evlab-bench --bin chaos_bench -- \
    --smoke --out "$chaos_out" --metrics "$chaos_metrics"

echo "==> obs_check: fault injection, quarantine and supervisor counters nonzero"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- \
    --require 'fault.*' \
    --require ingest.quarantined \
    --require ingest.late_dropped \
    --require serve.supervisor.restarts \
    "$chaos_metrics"

echo "==> recovery_bench smoke (crash + torn WAL tail x 3 paradigms; bit-identical recovery gated)"
EVLAB_OBS=1 cargo run -q --release --offline -p evlab-bench --bin recovery_bench -- \
    --smoke --out "$recovery_out" --metrics "$recovery_metrics"

echo "==> obs_check: checkpoint and write-ahead-log counters nonzero"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- \
    --require 'ckpt.*' \
    --require 'wal.*' \
    --require wal.torn_tails \
    --require ckpt.journal_bytes \
    "$recovery_metrics"

echo "==> fuzz_lab smoke (9 differential targets + regression corpus; invariants forced on)"
EVLAB_OBS=1 EVLAB_CHECK=1 cargo run -q --release --offline -p evlab-bench --bin fuzz_lab -- \
    --smoke --metrics "$fuzz_metrics"

echo "==> obs_check: fuzz cases ran, zero invariant-violation counters"
cargo run -q --release --offline -p evlab-bench --bin obs_check -- \
    --require fuzz.cases \
    --require fuzz.targets \
    --require fuzz.regressions \
    --require check.runs \
    --forbid 'check.*violations' \
    "$fuzz_metrics"

echo "==> cargo test --workspace under EVLAB_CHECK=1 (runtime invariant layer active)"
EVLAB_CHECK=1 cargo test -q --workspace --offline

echo "==> clippy panic gate: no unwrap/expect on ingestion, serving, kernel, graph and util paths"
cargo clippy -p evlab-events -p evlab-serve -p evlab-tensor -p evlab-gnn -p evlab-util --no-deps --offline -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> servebench self-tests"
cargo test --release --offline --manifest-path servebench/Cargo.toml

for w in replay fanin durable; do
    echo "==> servebench smoke: $w"
    cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 --smoke
done

echo "==> committed result files match the binaries' standard output"
cargo build -q --release --offline -p evlab-bench --bins
for bin in table1 ablations fig1 fig2_snn fig2_gnn; do
    echo "    $bin"
    "target/release/$bin" | diff -u "${bin}_output.txt" -
done

echo "==> OK: build, lints, tests, kernel bit-identity, hot-path determinism, alloc budget, serving degradation, chaos degradation, crash recovery, differential fuzzing, runtime invariants, observability, the serving benchmark and the committed result files all pass"
