#!/usr/bin/env bash
# Local CI: formatting, lints, the test suite (fault-injection suites
# included) at both ends of the rayon and scheduler pool-size ranges,
# and bench smokes. There is one build configuration; parallelism,
# telemetry and fault injection are runtime properties only.
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

echo "==> no-feature-fork guard (one build configuration: no cargo features)"
# The serial path is the 1-worker pool, the quiet path is a disabled
# Telemetry handle and the fault-free path is the empty FaultPlan; no
# fork may come back as a cargo feature, and the serial path may not
# come back as a `*_serial` twin of an entry point (run the entry point
# under a 1-worker rayon::ThreadPool instead).
if grep -nE '^[[:space:]]*\[features\]' crates/*/Cargo.toml ||
   grep -rnE --include='*.rs' 'cfg(_attr)?!?\(.*feature *=' crates tests; then
  echo "no cargo features in crates/: make the fork a runtime setting" >&2
  exit 1
fi
# Test functions may keep `_serial` in their names (they compare a
# 1-worker pool with a 4-worker one); any other such fn is a twin.
if ! find crates tests -name '*.rs' -exec awk '
    FNR == 1 { prev = "" }
    /fn [a-z_]+_serial([^a-z_0-9]|$)/ && prev !~ /#\[test\]/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    { prev = $0 }
    END { exit bad }' {} +; then
  echo "no *_serial twins: install a 1-worker pool around the entry point" >&2
  exit 1
fi

echo "==> cargo test (1 rayon worker, 1-worker serve pool)"
# The process-wide pool size comes from RAYON_NUM_THREADS; running the
# suite at both ends of {1,4} workers covers every code path that does
# not install its own pool (the pool-size equivalence tests compare a
# 1-worker and a 4-worker scoped pool in-process in both lanes). The
# pooled scheduler must preserve every serve invariant at both ends of
# its pool-size range too: 1 worker (fully serialized slices) and the
# default 4. CHEF_SERVE_WORKERS pins the pool without touching tests.
# Both lanes include the fault-injection suites: crash/torn-write/
# bit-flip resume equivalence (checkpoint_resume, store_equivalence)
# and the daemon's kill-mid-round/torn-checkpoint drills (serve_fault).
RAYON_NUM_THREADS=1 CHEF_SERVE_WORKERS=1 cargo test -q --workspace

echo "==> cargo test (4 rayon workers, 4-worker serve pool)"
RAYON_NUM_THREADS=4 CHEF_SERVE_WORKERS=4 cargo test -q --workspace

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

# The kernel smokes pass --threads explicitly: on a 1-core runner the
# default sweep caps to t = 1 and would never switch pools.
echo "==> infl_kernels bench (quick smoke: batched kernels run end-to-end at 1/2 workers)"
cargo run -q --release -p chef-bench --bin infl_kernels -- --quick --threads 1,2

# par_speedup also asserts that the Increm-Infl snapshot holds exactly
# m + n·(C + 1) floats (w⁽⁰⁾ and the Hessian norms), so per-sample
# gradient rows cannot come back into the provenance unnoticed.
echo "==> par_speedup bench (quick smoke: in-process thread sweep at 1/2/4 workers + provenance size)"
cargo run -q --release -p chef-bench --bin par_speedup -- --quick --threads 1,2,4

echo "==> train_kernels bench (quick smoke at 1/2 workers)"
cargo run -q --release -p chef-bench --bin train_kernels -- --quick --threads 1,2

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
