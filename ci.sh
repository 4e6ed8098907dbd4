#!/usr/bin/env bash
# Local CI: formatting, lints, the test suite at both ends of the rayon
# and scheduler pool-size ranges, the fault-injection lanes, and bench
# smokes. There is one build configuration; parallelism and telemetry
# are runtime properties only.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no-sleep guard (daemon suites must synchronize on condvars, not time)"
# Sleep-based tests are flaky under load and slow everywhere; the serve
# harness is required to be event-driven end to end.
if grep -rn "thread::sleep" tests/serve_*.rs crates/serve/src; then
  echo "serve code/tests must not call thread::sleep" >&2
  exit 1
fi

echo "==> no-feature-fork guard (parallelism and telemetry are runtime-only)"
# The serial path is the 1-worker pool and the quiet path is a disabled
# Telemetry handle; neither may come back as a cargo feature.
if grep -rnE 'feature *= *"(parallel|telemetry|enabled)"' crates tests; then
  echo "parallel/telemetry/enabled must not be cargo features" >&2
  exit 1
fi

echo "==> cargo test (1 rayon worker)"
# The shim's pool size is env-pinned; running the suite at both ends of
# {1,4} workers covers the serial dispatch path and the chunked
# parallel paths (serial/parallel equivalence tests then compare real
# threads).
RAYON_NUM_THREADS=1 cargo test -q --workspace

echo "==> cargo test (4 rayon workers)"
RAYON_NUM_THREADS=4 cargo test -q --workspace

echo "==> cargo test (fault injection: crash/torn-write/bit-flip replay equivalence)"
cargo test -q -p chef-core --features fault-inject --test checkpoint_resume --test store_equivalence

echo "==> cargo test (daemon fault harness: kill-mid-round / torn-checkpoint / stale-replay under serve)"
cargo test -q -p chef-serve --features fault-inject --test serve_fault

# The pooled scheduler must preserve every serve invariant at both ends
# of its pool-size range: 1 worker (fully serialized slices) and the
# default 4. CHEF_SERVE_WORKERS pins the pool without touching tests.
echo "==> cargo test (serve suites, 1-worker pool)"
CHEF_SERVE_WORKERS=1 cargo test -q -p chef-serve
CHEF_SERVE_WORKERS=1 cargo test -q -p chef-serve --features fault-inject --test serve_fault

echo "==> cargo test (serve suites, 4-worker pool)"
CHEF_SERVE_WORKERS=4 cargo test -q -p chef-serve
CHEF_SERVE_WORKERS=4 cargo test -q -p chef-serve --features fault-inject --test serve_fault

# One framed submit + blocking results piped through the daemon's stdio
# mode: proves the binary, the protocol, and the job manager compose
# outside the test harness. `results` waits for the job, so the smoke
# needs no polling.
serve_smoke() {
  local spec='{"name":"smoke","dataset":"MIMIC","scale":30,"seed":5,"budget":10,"round_size":5}'
  local ask='{"job":1}'
  local out
  out=$( { printf 'chef-serve.v1 submit %d\n%s\n' "${#spec}" "$spec"
           printf 'chef-serve.v1 results %d\n%s\n' "${#ask}" "$ask"
         } | cargo run -q --release -p chef-serve "$@" -- --stdin )
  if ! grep -q '"final_test_f1"' <<<"$out"; then
    echo "serve smoke: no results frame in daemon output:" >&2
    echo "$out" >&2
    exit 1
  fi
}

echo "==> chef-serve stdio smoke"
serve_smoke

echo "==> serve_scale bench (quick smoke: pooled vs thread-per-job, thread census + bit identity)"
cargo run -q --release -p chef-serve --bin serve_scale -- --quick

echo "==> infl_kernels bench (quick smoke: batched kernels run end-to-end)"
cargo run -q --release -p chef-bench --bin infl_kernels -- --quick

echo "==> par_speedup bench (quick smoke: thread sweep re-execs at 1/2/4 workers)"
cargo run -q --release -p chef-bench --bin par_speedup -- --quick --threads 1,2,4

echo "==> train_kernels bench (quick smoke)"
cargo run -q --release -p chef-bench --bin train_kernels -- --quick

echo "==> oocs_scale bench (quick smoke, eager integrity: in-memory vs mmap bit-identity + RSS)"
cargo run -q --release -p chef-bench --bin oocs_scale -- --quick --integrity eager

echo "==> oocs_scale bench (quick smoke, lazy first-touch integrity + cold-open lane)"
cargo run -q --release -p chef-bench --bin oocs_scale -- --quick --integrity lazy

echo "==> oocs_scale bench (quick smoke, pread fallback under lazy integrity)"
cargo run -q --release -p chef-bench --bin oocs_scale -- --quick --integrity lazy --force-pread
# Scratch hygiene: the bench must remove its per-run store directories.
if compgen -G "target/oocs_scale-*" > /dev/null; then
  echo "oocs_scale left scratch directories behind:" >&2
  ls -d target/oocs_scale-* >&2
  exit 1
fi

echo "==> benchmark package tests (release: reporting rules + tiny replay of every workload)"
# benchmark/ is a package of its own, outside the workspace, so the
# lanes above never build it. Its smoke test fails on any broken check:
# pair identity, memory ≡ mmap, traced ≡ untraced, serve ≡ sync.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "ci.sh: all green"
