#!/usr/bin/env bash
# Local CI gate: the build level, formatting, clippy under the workspace
# deny-list and `clippy.toml`, warning-free docs, clippy on the fixture that
# breaks each of its bans, the gtv-xtask privacy lints, the test suite (the
# bit pins at two build levels), the socket tests five times over, the
# kernels' allocation count, the shims and the gtvbench smoke pass; and the
# working tree left as it was found. The test suite, the socket repeats and
# the smoke pass run under a time limit.
# Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

# Runs a command under a time limit, so a hang (a blocking accept nobody
# wakes, a reply that never comes) fails the gate with the step's name
# instead of stalling it: bounded SECONDS NAME CMD... The build before it
# runs unbounded, so a cold compile does not count against the limit.
bounded() {
    local limit="$1" name="$2" status=0
    shift 2
    timeout --kill-after=30 "$limit" "$@" || status=$?
    if [ "$status" = 124 ] || [ "$status" = 137 ]; then
        echo "ci: '$name' did not finish within ${limit}s: a hang?" >&2
        exit 1
    fi
    return "$status"
}

# What git reports about the tree: each path's status and a hash of its
# content, so a file that was already dirty and changes again counts too.
tree_state() {
    git status --porcelain --untracked-files=all | while IFS= read -r entry; do
        printf '%s %s\n' "$entry" "$(git hash-object -- "${entry:3}" 2>/dev/null || echo -)"
    done
}
tree_before="$(tree_state)"

step "build level (x86-64-v3 from .cargo/config.toml, and a host that runs it)"
# The repository builds for x86-64-v3 (DESIGN.md §8). A `RUSTFLAGS` in the
# environment silently replaces the checked-in flags, and every timing and
# every "at the repository's level" pin below would then be of another
# build — so ask the compiler what it was told: AVX2 for the lane kernels,
# FMA for the matmul's fused terms (without it each term is a libm `fmaf`
# call — the same bits, many times slower). And a host without AVX2 would
# kill the first binary below with SIGILL; say so instead.
if [ "$(uname -m)" = x86_64 ]; then
    # Captured first: under `pipefail` a `grep -q` that exits at its match
    # would turn cargo's SIGPIPE into a failure.
    cfg="$(cargo rustc -q -p gtv-tensor --lib -- --print cfg)"
    for feature in avx2 fma; do
        if ! grep -qx "target_feature=\"$feature\"" <<<"$cfg"; then
            echo "ci: .cargo/config.toml did not take effect (gtv-tensor is not built with $feature)." >&2
            echo "    Is RUSTFLAGS set in the environment? It replaces the checked-in flags; unset it." >&2
            exit 1
        fi
    done
    if ! grep -qw avx2 /proc/cpuinfo; then
        echo "ci: this CPU has no AVX2, so it cannot run the repository's x86-64-v3 build level." >&2
        echo "    Build and test here at baseline with RUSTFLAGS=\"-C target-cpu=x86-64\" cargo test --workspace;" >&2
        echo "    this gate checks the v3 level and needs a Haswell/Excavator-or-later host." >&2
        exit 1
    fi
fi

step "cargo fmt --check"
cargo fmt --all --check
cargo fmt --check --manifest-path tools/kernel_allocs/Cargo.toml

step "cargo clippy --workspace --all-targets"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --workspace --no-deps (warning-free)"
# A public item's docs that link to a private one, or to a name that does
# not resolve, point the reader nowhere; rustdoc warns, and this fails on it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "clippy bans fire on their fixture"
# The panic, clock/thread, environment, process-id, seeding, hash-order,
# float-eq, cast and allow-reason rules are clippy configuration (DESIGN.md
# §7). The fixture crate breaks each once, plus a UFCS unwrap, a float `==`
# between two variables, the old L12 flows (an env-derived seed, a thread id
# into a kernel, a `for` over a `HashMap` into a payload) and the old L7
# calls (a seed from a literal, from `x ^ 17`, from a loop counter); clippy
# must fail on it
# and report each lint as often as the fixture breaks it. Its own target
# directory and checked-in lock file keep the tree as it was.
bans=crates/xtask/tests/fixtures/clippy_bans
if out="$(cargo clippy --offline -q --manifest-path "$bans/Cargo.toml" \
        --target-dir target/clippy_bans -- -D warnings 2>&1)"; then
    echo "ci: clippy passed $bans, so its bans no longer fire" >&2
    exit 1
fi
for expected in unwrap_used:2 expect_used:1 panic:1 unreachable:1 \
        disallowed_methods:13 iter_over_hash_type:1 float_cmp:2 \
        cast_possible_truncation:1 allow_attributes_without_reason:1; do
    lint="${expected%:*}"
    want="${expected#*:}"
    got="$(grep -c "index.html#$lint\$" <<<"$out" || true)"
    if [ "$got" != "$want" ]; then
        printf '%s\n' "$out" >&2
        echo "ci: clippy reported $lint $got time(s) on $bans, expected $want" >&2
        exit 1
    fi
done

step "gtv-xtask lint"
# The two privacy passes the compiler cannot express: L6 (no server path
# reaches the shuffle seed) and L11 (no raw column reaches the wire).
cargo run -q -p gtv-xtask -- lint

step "cargo test -q"
cargo test -q --workspace --no-run
bounded 900 "cargo test -q --workspace" cargo test -q --workspace

step "socket tests ×5"
# A fan-out's pops are in flight together on several links at once, so a
# race between them may show only in some interleavings: the transport's
# own tests, the loopback suite and the failure suite run five times in a
# row, under one time limit.
bounded 600 "socket tests ×5" bash -c 'for _ in 1 2 3 4 5; do
    cargo test -q -p gtv-vfl --lib &&
        cargo test -q -p gtv-suite --test socket_loopback --test failures || exit 1
done'

step "bit pins at baseline x86-64 (two-level check)"
# No output bit may depend on the build level (DESIGN.md §8): the same pins
# that just passed at x86-64-v3 — kernel-output hashes taken on a baseline
# build (the f32 kernels, the f64 exp and moment lanes, and the mixtures
# `Gmm1d::fit` reaches through them), the ULP sweeps and scalar-tail
# identities, matmul ≡ naive triple loop of fused multiply-adds, each fused
# graph op (affine + activation, row norm, batch-norm tail, output head) ≡
# the chain of primitives it replaces, the stochastic layer's lanes (`ln`,
# sine and cosine, normal draws, Gumbel noise under both uniform sources,
# dropout masks: `gtv-nn`'s noise pins and distributions), the
# trained-weights fingerprints (one party thread and five), the published
# and the served tables' hashes, and the served rows' independence of
# coalescing and thread count — must pass in a baseline build of the same
# tree, where every matmul term is a libm `fmaf` call. A target directory
# of its own, so neither build evicts the other's artifacts.
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-tensor --test target_invariance --test simd_math --test prop --test fused_ops
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-nn --test noise
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-encoders --test target_invariance
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv --test step_work --test pipeline_equivalence
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-suite --test generation_path --test party_threads
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --target-dir target/baseline \
    -p gtv-serve --test bit_identity

step "kernel allocations (tools/kernel_allocs)"
# Once warm, a kernel call takes every buffer the recycling pool would
# recycle from the pool (DESIGN.md §9): a counting global allocator, which
# needs the `unsafe` every workspace crate forbids, so a package of its own
# with a checked-in lock file and its own target directory.
cargo test --offline -q --manifest-path tools/kernel_allocs/Cargo.toml \
    --target-dir target/kernel_allocs

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
cargo test --offline --manifest-path gtvbench/Cargo.toml --no-run
bounded 600 "gtvbench smoke" cargo test --offline --manifest-path gtvbench/Cargo.toml

step "working tree unchanged"
# Nothing above may write into the tree outside the ignored build outputs.
tree_after="$(tree_state)"
if [ "$tree_before" != "$tree_after" ]; then
    echo "ci: the run changed these paths (< before, > after):" >&2
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") | grep '^[<>]' >&2 || true
    exit 1
fi

printf '\nci: all gates passed\n'
