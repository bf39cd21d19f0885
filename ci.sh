#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, format, golden suite, count gate.
# Run from the repo root. Hermetic: no network access required.
set -euo pipefail
cd "$(dirname "$0")"

# pin the property-test RNG so CI failures reproduce locally with the
# same seed (see DESIGN.md "Property-test determinism")
export PROPTEST_SEED="${PROPTEST_SEED:-6840025361058438157}"

cargo build --release
# the benchmark (specbench/) is a workspace of its own, so the workspace
# commands never compile it: check it here, so an API change that breaks
# the benchmark fails CI instead of the next benchmark run
cargo check --offline --manifest-path specbench/Cargo.toml --all-targets
# ...and run its tests, so the benchmark's own correctness checks (no
# failed request on a --quick run of every workload, exact counts that
# repeat, per-kernel counters equal to run_benchmark's) run on every
# change, not only when someone benchmarks. The target directory is shared
# the way specbench/run.sh shares it, so the tests find the specc built
# above beside the specbench binary.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo test --release --offline --manifest-path specbench/Cargo.toml
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# intra-doc links name functions and types that only rustdoc resolves: a
# rename or deletion that leaves one dangling fails here
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# the examples README lists as the way in: `cargo test` only compiles
# them, and three assert that speculation leaves the program result
# unchanged, so run each
for example in quickstart speculative_ssa smvp input_sensitivity; do
  cargo run --release -q --example "$example" > /dev/null
done

# FileCheck-style golden tests over the textual pass dumps — once as
# written, once with every pass boundary re-verified and every lowered
# function audited for ld.a/check pairing (the outputs must not change:
# verification is observation, not transformation)
cargo run --release -q -p spectest -- -q tests/golden
cargo run --release -q -p spectest -- -q --verify-each --audit-spec tests/golden

# the same suite re-lowered and re-simulated for the software-recovery
# backend: every case that does not pin epic-specific output (those
# declare `; UNSUPPORTED: target`) must still pass under --target swr,
# once as written and once with every pass boundary re-verified and
# every swr lowering audited for check pairing and speculative leaks
cargo run --release -q -p spectest -- -q --target swr tests/golden
cargo run --release -q -p spectest -- -q --target swr --verify-each --audit-spec --audit-leaks tests/golden

# the speculative-leak fencing contract over the whole corpus: every
# compiled module's lowering must fence to a clean re-audit with the
# architectural result unchanged (checked post-compile, so pinned golden
# output is untouched)
cargo run --release -q -p spectest -- -q --audit-leaks tests/golden

# expected-fail leak smoke: a hand-written advanced load whose value hits
# an address sink inside its speculation window MUST be rejected by
# --audit-leaks (recovery exhausts: exit 4), with the site report and a
# CONFIRMED forced-eviction witness on stderr; --fence-leaks on the same
# input must repair it (exit 0)
leak_err="$(cargo run --release -q -p specframe --bin specc -- \
  tests/smoke/leaky-motion.ir --spec none --control off --audit-leaks \
  -o /dev/null 2>&1)" \
  && { echo "ci.sh: --audit-leaks let the leaky motion through"; exit 1; } \
  || leak_rc=$?
[ "${leak_rc:-0}" -eq 4 ] \
  || { echo "ci.sh: leak smoke exit $leak_rc, wanted 4"; echo "$leak_err"; exit 1; }
echo "$leak_err" | grep -q "speculative leak in \`main\`" \
  || { echo "ci.sh: no leak site report"; echo "$leak_err"; exit 1; }
echo "$leak_err" | grep -q "CONFIRMED under \`--fault-policy evict-at:" \
  || { echo "ci.sh: no confirmed eviction witness"; echo "$leak_err"; exit 1; }
cargo run --release -q -p specframe --bin specc -- \
  tests/smoke/leaky-motion.ir --spec none --control off --fence-leaks \
  -o /dev/null 2>/dev/null \
  || { echo "ci.sh: --fence-leaks failed to repair the leaky motion"; exit 1; }
echo "leak smoke: --audit-leaks rejected with witness, --fence-leaks repaired"

# golden parity through the compile cache: the same suite, cold (populating
# a fresh cache) and warm (replaying from it) — FileCheck still passing on
# the warm run proves cached replay is byte-identical where it matters
golden_cache="$(mktemp -d)"
trap 'rm -rf "$golden_cache"' EXIT
cargo run --release -q -p spectest -- -q --cache-dir "$golden_cache" tests/golden
cargo run --release -q -p spectest -- -q --cache-dir "$golden_cache" tests/golden
echo "golden suite: cold + warm cache runs green"

# compile-service smoke: cold then warm --serve sessions in separate
# processes over one cache dir; the warm response must be all hits and the
# served outputs byte-identical
serve_dir="$(mktemp -d)"
printf 'mega 42:400 -o %s/cold.ir\nquit\n' "$serve_dir" \
  | cargo run --release -q -p specframe --bin specc -- --serve --cache-dir "$serve_dir/cache" \
  > "$serve_dir/cold.resp"
grep -q "ok in=mega:42:400 funcs=400 hits=0 misses=400" "$serve_dir/cold.resp" \
  || { echo "ci.sh: cold serve response unexpected"; cat "$serve_dir/cold.resp"; exit 1; }
printf 'mega 42:400 -o %s/warm.ir\nquit\n' "$serve_dir" \
  | cargo run --release -q -p specframe --bin specc -- --serve --cache-dir "$serve_dir/cache" \
  > "$serve_dir/warm.resp"
grep -q "ok in=mega:42:400 funcs=400 hits=400 misses=0 stale=0" "$serve_dir/warm.resp" \
  || { echo "ci.sh: warm serve response not all-hits"; cat "$serve_dir/warm.resp"; exit 1; }
cmp -s "$serve_dir/cold.ir" "$serve_dir/warm.ir" \
  || { echo "ci.sh: served cold/warm outputs differ"; exit 1; }
# the service's output is a module like any other: it parses, and it
# compiles again, without an entry function and around the names of the
# temporaries the first compile declared
cargo run --release -q -p specframe --bin specc -- "$serve_dir/cold.ir" \
  --spec heuristic --control static -o "$serve_dir/re.ir" \
  || { echo "ci.sh: the served output does not compile again"; exit 1; }
cargo run --release -q -p specframe --bin specc -- cache verify --cache-dir "$serve_dir/cache" > /dev/null \
  || { echo "ci.sh: cache verify found bad entries"; exit 1; }
rm -rf "$serve_dir"
echo "compile service smoke: cold/warm byte-identical, warm all-hits, output recompiles, cache verifies clean"

# chaos gate: kill the real specc at every storage/queue crashpoint
# mid-drain (SPECFRAME_CRASH_AT), restart it, and require convergence —
# cache verifies clean, re-drain completes, artifacts byte-identical to an
# uncrashed reference (tests/chaos.rs drives the matrix)
cargo test -q --release -p specframe --test chaos

# golden parity under injected storage faults: the whole suite through a
# cache whose storage tears writes and errors reads — retries repair
# underneath, but FileCheck still passing proves no output byte moved
fault_cache="$(mktemp -d)"
cargo run --release -q -p spectest -- -q --cache-dir "$fault_cache" \
  --cache-fault-policy torn-write:2 tests/golden
cargo run --release -q -p spectest -- -q --cache-dir "$fault_cache" \
  --cache-fault-policy eio-read:7:9 tests/golden
rm -rf "$fault_cache"
echo "golden suite: green under torn-write:2 (cold) and eio-read:7:9 (warm)"

# storage-fault byte-identity at every job count: the mega workload
# compiled through a torn-write cache must equal the fault-free compile
fault_dir="$(mktemp -d)"
cargo run --release -q -p specframe --bin specc -- --mega 42:200 \
  -o "$fault_dir/clean.ir"
for j in 1 2 4; do
  cargo run --release -q -p specframe --bin specc -- --mega 42:200 --jobs "$j" \
    --cache-dir "$fault_dir/cache$j" --cache-fault-policy torn-write:2 \
    -o "$fault_dir/fault$j.ir"
  cmp -s "$fault_dir/clean.ir" "$fault_dir/fault$j.ir" \
    || { echo "ci.sh: fault-policy output diverged at --jobs $j"; exit 1; }
done
rm -rf "$fault_dir"
echo "storage-fault smoke: byte-identical at --jobs 1/2/4 under torn-write:2"

# deadline smoke: an already-expired deadline must abort with exit code 5
cargo run --release -q -p specframe --bin specc -- --mega 42:200 \
  --deadline-ms 0 -o /dev/null 2>/dev/null \
  && { echo "ci.sh: --deadline-ms 0 did not fire"; exit 1; } || dl_rc=$?
[ "${dl_rc:-0}" -eq 5 ] \
  || { echo "ci.sh: deadline smoke exit $dl_rc, wanted 5"; exit 1; }
echo "deadline smoke: --deadline-ms 0 exits 5"

# differential misspeculation oracle: every workload and a batch of seeded
# random programs, every optimizer config, under the adversarial ALAT
# fault matrix — results must be bit-identical to the unoptimized
# reference interpreter no matter what the ALAT does
cargo run --release -q -p specframe-fuzzdiff --bin fuzzdiff -- \
  --seed "${FUZZDIFF_SEED:-1}" --random 256 --time-budget 240 \
  --policy default --policy always-miss \
  --policy random:1 --policy random:2 --policy random:3 \
  --policy flash-clear

# negative control: --break-checks deletes one check from every optimized
# module, which MUST make the oracle fail (proving it has teeth), and
# --reduce-on-failure must shrink the failure to a .spec-ready repro.
# Seed 4 at 40 steps is a known-diverging case (see fuzzdiff tests).
sabotage_out="$(cargo run --release -q -p specframe-fuzzdiff --bin fuzzdiff -- \
  --seed 4 --steps 40 --random 1 --skip-workloads \
  --policy always-miss --break-checks --reduce-on-failure 2>/dev/null)" \
  && { echo "ci.sh: sabotaged fuzzdiff unexpectedly passed"; exit 1; } || true
echo "$sabotage_out" | grep -q "RUN: specc" \
  || { echo "ci.sh: no .spec repro in sabotage output"; exit 1; }
echo "$sabotage_out" | grep -q "; reduce: .* probes" \
  || { echo "ci.sh: no reduction stats in sabotage output"; exit 1; }
# ...and that stdout, saved as it is, must be a .spec file spectest passes
sabotage_spec="$(mktemp --suffix=.spec)"
printf '%s\n' "$sabotage_out" > "$sabotage_spec"
cargo run --release -q -p spectest -- -q "$sabotage_spec" \
  || { echo "ci.sh: sabotage stdout is not a passing .spec file"; rm -f "$sabotage_spec"; exit 1; }
rm -f "$sabotage_spec"
echo "fuzzdiff sabotage smoke: oracle failed and reduced as expected"

# count gate: a quick traced specbench run of every workload must
# reproduce the exact counts in the committed BENCH_counts.jsonl (optimizer
# stats, dominator builds, cache hits and misses, output and machine
# instructions, simulator counters; 23 per workload) with no failed
# request. `specbench compare` exits 0 whatever it finds, so the gate
# reads its table. A change that moves a count regenerates the record and
# says why in CHANGES.md (README "Count gate").
count_gate() { # RECORD FRESH
  local table exact identical
  table="$("${CARGO_TARGET_DIR:-target}/release/specbench" compare "$1" "$2")" || return 1
  exact="$(grep -o '"exact":true' "$1" | wc -l)"
  identical="$(grep -c ' identical$' <<<"$table" || true)"
  if grep DIFFERS <<<"$table"; then return 1; fi
  [ "$identical" -ge "$exact" ] \
    || { echo "count gate: $identical identical rows, want $exact"; return 1; }
  [ "$(grep -c '"failed":0,' "$2")" -eq "$(wc -l < "$2")" ] \
    || { echo "count gate: a fresh record has failed requests"; return 1; }
}
counts_dir="$(mktemp -d)"
bash specbench/run.sh --all --seed 1 --quick --trace "$counts_dir/trace.json" \
  --out "$counts_dir/fresh.jsonl" > "$counts_dir/run.txt" \
  || { cat "$counts_dir/run.txt"; exit 1; }
count_gate BENCH_counts.jsonl "$counts_dir/fresh.jsonl" \
  || { echo "ci.sh: exact counts moved from BENCH_counts.jsonl"; exit 1; }
# negative control: one exact value changed in a copy of the record MUST
# fail the gate
sed '0,/"core.stats.transformed":{"value":/s//&1/' BENCH_counts.jsonl \
  > "$counts_dir/perturbed.jsonl"
count_gate "$counts_dir/perturbed.jsonl" "$counts_dir/fresh.jsonl" > /dev/null \
  && { echo "ci.sh: count gate passed a perturbed record"; exit 1; }
rm -rf "$counts_dir"
echo "count gate: $(grep -o '"exact":true' BENCH_counts.jsonl | wc -l) exact counts identical, perturbed record rejected"
