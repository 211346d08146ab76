#!/usr/bin/env bash
# Local CI gate: the build level, formatting, clippy under the workspace
# deny-list, the gtv-xtask protocol lints, and the test suite (the bit pins
# at two build levels). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "build level (x86-64-v3 from .cargo/config.toml, and a host that runs it)"
# The repository builds for x86-64-v3 (DESIGN.md §8). A `RUSTFLAGS` in the
# environment silently replaces the checked-in flags, and every timing and
# every "at the repository's level" pin below would then be of another
# build — so ask the compiler what it was told. And a host without AVX2
# would kill the first binary below with SIGILL; say so instead.
if [ "$(uname -m)" = x86_64 ]; then
    # Captured first: under `pipefail` a `grep -q` that exits at its match
    # would turn cargo's SIGPIPE into a failure.
    cfg="$(cargo rustc -q -p gtv-tensor --lib -- --print cfg)"
    if ! grep -qx 'target_feature="avx2"' <<<"$cfg"; then
        echo "ci: .cargo/config.toml did not take effect (gtv-tensor is not built with AVX2)." >&2
        echo "    Is RUSTFLAGS set in the environment? It replaces the checked-in flags; unset it." >&2
        exit 1
    fi
    if ! grep -qw avx2 /proc/cpuinfo; then
        echo "ci: this CPU has no AVX2, so it cannot run the repository's x86-64-v3 build level." >&2
        echo "    Build and test here at baseline with RUSTFLAGS=\"-C target-cpu=x86-64\" cargo test --workspace;" >&2
        echo "    this gate checks the v3 level and needs a Haswell/Excavator-or-later host." >&2
        exit 1
    fi
fi

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets"
cargo clippy --workspace --all-targets -- -D warnings

step "gtv-xtask lint"
# Human-readable pass against the checked-in baseline; the wall-time budget
# is split: 8 s total for the twelve passes plus the dataflow build, and no
# single pass (the taint engine is the heaviest) may take more than 4 s.
cargo run -q -p gtv-xtask -- lint --baseline tools/lint-baseline.json \
    --max-ms 8000 --max-pass-ms 4000

step "gtv-xtask lint --json"
# Machine-readable annotations (one JSON object per finding, sorted and
# byte-stable across runs). Stderr carries the timings record and goes to
# its own log — swallowing it with 2>/dev/null would hide analyzer crashes.
mkdir -p target
if ! cargo run -q -p gtv-xtask -- lint --json --baseline tools/lint-baseline.json \
        --max-ms 8000 --max-pass-ms 4000 \
        2>target/gtv-lint.stderr.log | tee target/gtv-lint.json; then
    echo "gtv-xtask lint --json failed; stderr follows" >&2
    cat target/gtv-lint.stderr.log >&2
    exit 1
fi

step "gtv-xtask lint --sarif (determinism check)"
# SARIF artifact for annotation tooling; two consecutive runs must be
# byte-identical — any diff means nondeterminism crept into the analyzer.
cargo run -q -p gtv-xtask -- lint --sarif --baseline tools/lint-baseline.json \
    2>/dev/null >target/gtv-lint.sarif
cargo run -q -p gtv-xtask -- lint --sarif --baseline tools/lint-baseline.json \
    2>/dev/null >target/gtv-lint.sarif.2
cmp target/gtv-lint.sarif target/gtv-lint.sarif.2
rm target/gtv-lint.sarif.2

step "cargo test -q"
cargo test -q --workspace

step "bit pins at baseline x86-64 (two-level check)"
# No output bit may depend on the build level (DESIGN.md §8): the same pins
# that just passed at x86-64-v3 — kernel-output hashes taken on a baseline
# build (the f32 kernels, the f64 exp and moment lanes, and the mixtures
# `Gmm1d::fit` reaches through them), the ULP sweeps and scalar-tail
# identities, matmul ≡ naive triple loop, the trained-weights fingerprint —
# must pass in a baseline build of the same tree. A target directory of its
# own, so neither build evicts the other's artifacts.
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-tensor --test target_invariance --test simd_math --test prop
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-encoders --test target_invariance
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv --test step_work

step "shim unit tests (shims/*)"
# The offline stand-ins under shims/ are this repository's code: the wire
# path relies on shims/bytes freezing without a copy, the trainer on
# shims/rand's streams. No `members` entry names them — they ride in the
# workspace run above only as path dependencies that happen to lie under the
# workspace root — so each is also run by its own manifest here, and keeps
# being run wherever it moves.
for s in shims/*; do
    cargo test --offline -q --manifest-path "$s/Cargo.toml"
done

step "gtvbench smoke (benchmark output checks at 1/50 size)"
# The repo's one benchmark (BENCHMARK.json) is a package of its own that the
# workspace run above does not see. Its unit tests include a pass over all
# four workloads with every output check (avg_jsd bound, finite losses,
# reply ≡ in-process request bytes), so a change that breaks a check or a
# public item the benchmark depends on fails here, not in the driver.
cargo test --offline --manifest-path gtvbench/Cargo.toml

step "socket loopback (transport-backend equivalence)"
# Real TCP and Unix-domain PartyNodes behind SocketTransport must train to
# byte-identical weights and identical byte accounting vs the in-process
# backend, and handshake/crash failures must be typed errors (DESIGN.md
# §13). Part of the workspace run above; re-run un-quieted so the gate
# names each backend and party count it proved.
cargo test -p gtv-suite --test socket_loopback

step "schedule explorer (protocol-conformance, dynamic half)"
# The loom-lite explorer over real trainer rounds (DESIGN.md §11): permuted
# delivery order must leave weights/synthesis bit-identical at 2 and 3
# parties, the happens-before trace must be clean, and the deadlock /
# lock-inversion detectors must fire on the intentional fixtures. Already
# part of the workspace test run above; re-run un-quieted so the gate names
# each property it proved.
cargo test -p gtv --test schedule_explorer

step "tensor benchmark (BENCH_tensor.json)"
# Hot-loop throughput sweep over pool sizes; the artifact records GFLOP/s,
# per-op speedup vs 1 thread and the host's core count (interpret speedups
# against it — a 1-core runner cannot show wall-clock gains).
cargo build -q --release -p gtv-bench --bin bench_tensor
GTV_BENCH_REPS="${GTV_BENCH_REPS:-2}" ./target/release/bench_tensor target/BENCH_tensor.json

step "training-step benchmark (BENCH_step.json)"
# Centralized and 2-client VFL training rounds with buffer recycling on and
# off: steps/s, allocator misses per step and the pool hit rate
# (DESIGN.md §9).
cargo build -q --release -p gtv-bench --bin bench_step
GTV_BENCH_REPS="${GTV_BENCH_REPS:-2}" ./target/release/bench_step target/BENCH_step.json

step "comms benchmark (BENCH_comms.json)"
# {lockstep, pipelined} x {dense, sparse} x parties {2, 3, 5}: bytes and
# messages per round, bytes_ratio_vs_dense and speedup_vs_lockstep
# (DESIGN.md §10). Pipelined byte counts must equal lockstep's.
cargo build -q --release -p gtv-bench --bin bench_comms
GTV_BENCH_REPS="${GTV_BENCH_REPS:-2}" ./target/release/bench_comms target/BENCH_comms.json

step "serve benchmark (BENCH_serve.json)"
# Closed-loop clients against the in-process synthesis service at rising
# concurrency: rows/s, request p50/p99 latency, the coalesced batch-size
# histogram and the tensor pool hit rate (DESIGN.md §14). Steady-state
# serving must run from recycled buffers.
cargo build -q --release -p gtv-bench --bin bench_serve
GTV_BENCH_REPS="${GTV_BENCH_REPS:-2}" ./target/release/bench_serve target/BENCH_serve.json

# Publish the benchmark artifacts at the repo root.
cp target/BENCH_tensor.json BENCH_tensor.json
cp target/BENCH_step.json BENCH_step.json
cp target/BENCH_comms.json BENCH_comms.json
cp target/BENCH_serve.json BENCH_serve.json

printf '\nci: all gates passed\n'
