#!/usr/bin/env bash
# Tier-1 gate for the workspace: formatting, lints (clippy with the
# workspace lint table, comment markers, rfkit-analyze), release build,
# tests. Run before committing and as the run_all_experiments.sh
# preflight.
#
# --write-baseline: refresh results/PROFILE_BASELINE.json from this
# run's aggregate profile instead of gating against it. Use after an
# intentional perf change, commit the new baseline with the change.
set -uo pipefail

write_baseline=0
for arg in "$@"; do
  case "$arg" in
    --write-baseline) write_baseline=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (known: --write-baseline)"; exit 2 ;;
  esac
done

fail=0

echo "== cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
  cargo fmt --all -- --check || fail=1
else
  echo "   (rustfmt unavailable; skipping)"
fi

echo "== cargo clippy -D warnings (workspace lint table)"
# Required: the root Cargo.toml's [workspace.lints] table denies
# `unsafe_code` outside rfkit-par, undocumented `unsafe` blocks,
# `.unwrap()` outside tests, and `todo!`/`unimplemented!`, and all but
# `unsafe_code` are clippy lints. A toolchain without clippy fails here.
cargo clippy --workspace --all-targets -- -D warnings || fail=1

echo "== unfinished-work comment markers (git grep)"
# clippy's `todo`/`unimplemented` lints cover the macros; no rustc or
# clippy lint reads comments, so the four marker words are grepped here.
# Finish the work or file it in ROADMAP.md.
markers="$(git grep --untracked -nwE 'TODO|FIXME|XXX|HACK' -- '*.rs')"
case $? in
  0) echo "$markers"; fail=1 ;;
  1) ;;
  *) echo "   git grep failed (not a git checkout?)"; fail=1 ;;
esac

echo "== rfkit-analyze"
# Workspace lint engine: NaN-safe ordering, determinism, dataflow lints
# (hot-loop allocs, guards across solves, unseeded RNGs, fault-hook
# coverage, surrogate leaks), and the cross-artifact obs-name contract.
# Any unsuppressed finding fails the gate; suppressions are per-line
# `// rfkit-allow(<lint>)` comments and show up in review diffs.
cargo run --release -q -p rfkit-analyze || fail=1

echo "== obs name contract (counter-name-drift registry export)"
# The drift errors themselves fail the gate above; this stage guards the
# extraction machinery — if the AST-based obs-name export ever shrinks
# dramatically, the contract check would go quietly vacuous.
# Rows after the two-line table header = one per distinct instrument name.
names="$(cargo run --release -q -p rfkit-analyze -- --dump-obs-names | tail -n +3 | wc -l | tr -d ' ')"
echo "   $names instrument names extracted"
if [ "$names" -lt 50 ]; then
  echo "   obs-name extraction shrank unexpectedly (<50 names)"
  fail=1
fi

echo "== cargo doc -D warnings (intra-doc links resolve)"
# rustdoc checks what no compiler pass does: a doc link to a private or
# renamed item, or an ambiguous one, is a warning here and an error with
# this flag.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q || fail=1

echo "== cargo build --release"
cargo build --release || fail=1

echo "== cargo check perfbench (the benchmark still compiles)"
# perfbench is a workspace of its own, so neither the build above nor the
# tests below compile it: without this check an API cut that breaks the
# benchmark would surface only when the benchmark runs. --locked also
# fails when a dependency change would rewrite perfbench/Cargo.lock.
cargo check --release --offline --locked --manifest-path perfbench/Cargo.toml || fail=1

echo "== committed experiment outputs (byte-diff against results/)"
# Reruns each experiment binary whose committed output matches the code
# and fails on any byte of difference: a change that moves one of these
# results must commit the new output, and its diff shows the move.
# Each binary runs at RFKIT_THREADS=1 and 2, so the outputs' thread-count
# independence is checked, not assumed. An output joins this list once it
# is regenerated and its EXPERIMENTS.md claims re-read.
# (fig1_extraction_convergence stays out: its DE-only trace numbers calls
# in completion order, so it is not stable at 2 threads.)
diffed_outputs=(table3_final_design table4_performance table5_tsplitter table6_yield
  table8_constellations fig5_sparams_band fig6_nf_band fig7_im3 fig8_ga_ablation
  fig9_dispersion fig11_temperature fig12_harmonic_balance fig13_metaheuristics
  fig14_snap_repair)
outputs_tmp="$(mktemp -d)"
for bin in "${diffed_outputs[@]}"; do
  for threads in 1 2; do
    out="$outputs_tmp/$bin.t$threads.txt"
    if ! RFKIT_THREADS=$threads cargo run --release -q -p lna-bench --bin "$bin" >"$out"; then
      echo "   $bin failed to run at RFKIT_THREADS=$threads"
      fail=1
    elif ! cmp -s "results/$bin.txt" "$out"; then
      echo "   results/$bin.txt differs from a fresh run at RFKIT_THREADS=$threads:"
      diff "results/$bin.txt" "$out" | head -20
      fail=1
    fi
  done
done
rm -rf "$outputs_tmp"

echo "== cargo test -q"
cargo test -q --workspace --release || fail=1

echo "== cargo test --features numsan (numeric sanitizer armed)"
# Re-runs the numeric core and the end-to-end design tests with runtime
# NaN-creation checks compiled in. Catches silent NaN laundering that the
# default build (sanitizer compiled out, zero overhead) cannot see.
cargo test -q --release -p rfkit-num --features numsan || fail=1
cargo test -q --release -p gnss-lna --features numsan || fail=1

echo "== cargo test --features rfkit-faults (fault injection armed)"
# Re-runs the solver and degradation crates with the deterministic
# fault-injection hooks compiled in. This is the only configuration in
# which the recovery-path tests (fallback ladder, degraded sweeps, cache
# exclusion) exist; the default build compiles the hooks out entirely.
cargo test -q --release -p rfkit-robust --features rfkit-faults || fail=1
cargo test -q --release -p rfkit-circuit --features rfkit-faults || fail=1
cargo test -q --release -p lna --features rfkit-faults || fail=1
cargo test -q --release -p rfkit-serve --features rfkit-faults || fail=1

echo "== traced fault-injection smoke (RFKIT_TRACE=1, faults armed)"
# Arms a fault plan end to end and checks the retry/fallback/degradation
# counters actually reach the profile: the robustness telemetry is under
# test here, not the numerics. The plan is keyed by data, not timing, so
# the fault, retry and failed-point counts are pinned exactly (the same
# at any RFKIT_THREADS).
rm -f results/PROFILE_faults.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_faults.json \
  cargo run --release -q --features rfkit-faults --example robust_faults \
  >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect dc.retry.attempts --expect dc.fallback.stage \
  --expect band.points.failed --expect faults.injected \
  --expect-min faults.injected:4 --expect-max faults.injected:4 \
  --expect-min dc.retry.attempts:2 --expect-max dc.retry.attempts:2 \
  --expect-min band.points.failed:2 --expect-max band.points.failed:2 \
  results/PROFILE_faults.json >/dev/null || fail=1

echo "== traced design run and profile diff gate (vs committed baseline)"
# Runs the design example with tracing armed, checks the profile carries
# the top-level design spans (the tracing pipeline itself is under test
# here, not the numerics) and the memo-cache counters (the run records
# 102 hits, 8,241 misses and 4,145 evictions at one thread), and diffs
# per-path self time against the committed baseline. Tolerances are
# CI-grade: 4x relative with a 20ms self-time floor, because shared
# single-core runners jitter — the gate exists to catch
# order-of-magnitude structural regressions (a cache that stopped
# hitting, a fast path that fell off), not 10% drift. The run is
# pinned to one thread so its call paths (no `par.task` nodes) do not
# depend on the runner's core count. Refresh after an intentional perf
# change with `./ci.sh --write-baseline` and commit the result.
rm -f results/PROFILE_ci.json
RFKIT_THREADS=1 RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_ci.json \
  cargo run --release -q --example design_gnss_lna >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect design.total --expect design.optimize --expect opt.improved_goal \
  --expect band.evaluate \
  --expect design.cache.hit --expect design.cache.miss \
  --expect-min design.cache.evict:1 \
  results/PROFILE_ci.json >/dev/null || fail=1
if [ "$write_baseline" -eq 1 ]; then
  cp results/PROFILE_ci.json results/PROFILE_BASELINE.json || fail=1
  echo "   wrote results/PROFILE_BASELINE.json (commit it)"
fi
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- diff \
  --rel-tol 4.0 --min-self-us 20000 \
  results/PROFILE_BASELINE.json results/PROFILE_ci.json || fail=1

echo "== surrogate screening smoke (traced example + bench_surrogate)"
# Runs the surrogate-screened study example with tracing armed and
# bounds the evaluation budget: the screen must actually prune
# (surrogate.reject fires) and the total number of full band sweeps
# must stay under the budget a working screen leaves behind — an
# accidentally-disarmed screen blows straight through it. The fixed
# seed makes the decision sequence exact; the band.evaluations ceiling
# carries slack only for parallel duplicate evaluations (concurrent
# misses on identical offspring), which timing may or may not dedup.
rm -f results/PROFILE_surrogate.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_surrogate.json \
  cargo run --release -q --example surrogate_screening >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect surrogate.fit --expect surrogate.true_evals \
  --expect-min surrogate.reject:1 \
  --expect-min surrogate.accept:1 \
  --expect-max band.evaluations:800 \
  results/PROFILE_surrogate.json >/dev/null || fail=1
# bench_surrogate smoke on a small study, written to a scratch path so
# the committed full-size artifact survives. Proves the two-arm
# warm-continuation protocol runs end to end and well-formed JSON lands
# on disk; the ≥3x reduction target is only meaningful at full size
# (`bench_surrogate` with default arguments). The screen's decision
# counters are pinned exactly: decisions are made serially from a
# seeded RNG, so they move only when a prediction's bits move.
# band.evaluations stays unpinned because parallel duplicate misses can
# vary it.
rm -f results/BENCH_surrogate_smoke.json results/PROFILE_bench_surrogate_smoke.json
cargo run --release -q -p lna-bench --bin bench_surrogate -- \
  --pop 24 --gens 8 --warm-gens 16 \
  --out results/BENCH_surrogate_smoke.json \
  --profile-out results/PROFILE_bench_surrogate_smoke.json \
  >/dev/null || fail=1
grep -q '"reduction"' results/BENCH_surrogate_smoke.json || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect-min surrogate.fit:3 --expect-max surrogate.fit:3 \
  --expect-min surrogate.reject:109 --expect-max surrogate.reject:109 \
  --expect-min surrogate.accept:83 --expect-max surrogate.accept:83 \
  --expect-min surrogate.true_evals:83 --expect-max surrogate.true_evals:83 \
  results/PROFILE_bench_surrogate_smoke.json >/dev/null || fail=1

echo "== serve smoke (traced bench_serve, mixed concurrent load)"
# In-process load generator against the rfkit-serve batch server with
# tracing armed. bench_serve itself hard-asserts zero protocol errors,
# zero rejections at this queue size, and nonzero design- and plan-cache
# hits before it writes the report; the trace assertions then prove the
# request-lifecycle telemetry actually reached the profile — every
# request accepted was counted, the queue-depth and latency histograms
# fired, and nothing was rejected or malformed. 8 clients x 12 requests
# = 96 timed requests; the floor ignores the warmup pass on purpose.
# The verify requests exercise the AC sweep engine on real traffic: the
# shared plan cache must hit, and the seeded mix sweeps 63 grid points.
rm -f results/PROFILE_serve.json results/BENCH_serve_smoke.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_serve.json \
  cargo run --release -q -p lna-bench --bin bench_serve -- \
  --clients 8 --requests 12 --out results/BENCH_serve_smoke.json \
  >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect serve.requests.accepted --expect serve.requests.completed \
  --expect serve.queue.depth --expect serve.request.latency_us \
  --expect-min serve.requests.accepted:96 \
  --expect-max serve.requests.rejected:0 \
  --expect-max serve.protocol.errors:0 \
  --expect-min plan.cache.hit:1 \
  --expect-min circuit.ac.sweep.points:63 \
  results/PROFILE_serve.json >/dev/null || fail=1
grep -q '"throughput_rps"' results/BENCH_serve_smoke.json || fail=1

if [ "$fail" -ne 0 ]; then
  echo "ci.sh: FAILED"
  exit 1
fi
echo "ci.sh: all checks passed"
