#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: build + test the three
# CMake presets, replay the fuzz corpus, check the golden digests, and
# smoke-run bench/e2e.
# Run from anywhere; everything lands in the preset build dirs
# (build/, build-asan/, build-tsan/ — all gitignored).
#
#   scripts/ci-check.sh            # all presets
#   scripts/ci-check.sh default    # just one
#   scripts/ci-check.sh --bench    # the benchmark-regression gate only
#
# The tsan preset's test run is label-filtered to the parallel/query
# suites by CMakePresets.json, same as CI. --bench mirrors the CI
# bench-gate job: Release-preset bench_v3_blocks diffed against the
# committed bench/baselines/ (>15% wall regression fails) plus the
# decode<=v1 invariant; it can be combined with presets or run alone.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

bench=0
presets=()
for a in "$@"; do
    case "$a" in
        --bench) bench=1 ;;
        *) presets+=("$a") ;;
    esac
done
if [ ${#presets[@]} -eq 0 ] && [ "$bench" -eq 0 ]; then
    presets=(default asan tsan)
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
launcher=()
if command -v ccache >/dev/null 2>&1; then
    launcher=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
              -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

build_dir() { [ "$1" = default ] && echo build || echo "build-$1"; }

for p in ${presets[@]+"${presets[@]}"}; do
    # Prefer Ninja, but never fight a build dir that was already
    # configured with another generator.
    gen=()
    if [ ! -f "$(build_dir "$p")/CMakeCache.txt" ] &&
       command -v ninja >/dev/null 2>&1; then
        gen=(-G Ninja)
    fi
    echo "==> preset $p: configure"
    cmake --preset "$p" "${gen[@]}" "${launcher[@]}"
    echo "==> preset $p: build"
    cmake --build --preset "$p" -j "$jobs"
    echo "==> preset $p: test"
    ctest --preset "$p" -j "$jobs"
done

# The corpus replay, golden check and daemon soak need the
# default-preset binaries.
case " ${presets[*]-} " in *" default "*)
    echo "==> fuzz corpus replay"
    build/tests/fuzz_reader tests/trace/corpus
    build/tests/fuzz_serve_req tests/ta/corpus_serve
    echo "==> generator sweep (fresh valid + adversarial specimens)"
    # Bounded (~seconds): 48 seeded traces nobody has seen before, all
    # replayed through the strict and salvage readers. A crash here is
    # a new fuzz finding — commit the seed's specimen to the corpus.
    build/tools/trace_gen --sweep 32 --seed "${SWEEP_SEED:-1000}" \
        --out-dir build/gen-sweep/valid
    build/tools/trace_gen --sweep 16 --seed "${SWEEP_SEED:-1000}" \
        --adversarial --out-dir build/gen-sweep/adv
    build/tests/fuzz_reader build/gen-sweep/valid build/gen-sweep/adv
    echo "==> perturb-and-localize diff-corpus smoke"
    # Fresh A/B perturbation pairs through `ta diff-corpus`: output
    # must be byte-identical at 1 vs 4 threads and every injected
    # delay must be localized to a divergent window.
    build/tools/trace_gen --sweep 8 --seed "${SWEEP_SEED:-1000}" \
        --perturb --out-dir build/gen-sweep/pairs
    build/tools/ta diff-corpus build/gen-sweep/pairs/pairs.txt \
        --threads 1 > build/gen-sweep/diff_t1.txt
    build/tools/ta diff-corpus build/gen-sweep/pairs/pairs.txt \
        --threads 4 > build/gen-sweep/diff_t4.txt
    cmp build/gen-sweep/diff_t1.txt build/gen-sweep/diff_t4.txt
    n="$(grep -cv '^#' build/gen-sweep/pairs/pairs.txt)"
    [ "$n" -ge 1 ]
    [ "$(grep -c 'first divergence' build/gen-sweep/diff_t1.txt)" -eq "$n" ]
    echo "==> golden digest check"
    build/tools/ta_golden check tests/ta/golden
    echo "==> bench/e2e smoke (Release build into build-e2e)"
    # The only check that bench/e2e still compiles against the
    # analyzer's internal APIs; every op's output is verified too.
    python3 bench/e2e/run.py --smoke > build/e2e-smoke.json
    echo "==> serve soak (short local run; CI does 60s x 16)"
    scripts/serve-soak.sh "${SOAK_SECONDS:-10}" "${SOAK_CLIENTS:-4}"
    ;;
esac

if [ "$bench" -eq 1 ]; then
    echo "==> bench gate: configure + build (release preset)"
    gen=()
    if [ ! -f build-release/CMakeCache.txt ] &&
       command -v ninja >/dev/null 2>&1; then
        gen=(-G Ninja)
    fi
    cmake --preset release ${gen[@]+"${gen[@]}"} ${launcher[@]+"${launcher[@]}"}
    cmake --build --preset release -j "$jobs" --target bench_v3_blocks
    echo "==> bench gate: run decode benchmarks"
    (cd build-release && ./bench/bench_v3_blocks \
        --benchmark_filter='FileDecode_|FileReadV1|BlockReaderMmap' \
        --benchmark_out=BENCH_bench_v3_blocks.json \
        --benchmark_out_format=json)
    echo "==> bench gate: compare against committed baseline"
    python3 scripts/bench-compare.py --assert-decode \
        bench/baselines/BENCH_bench_v3_blocks.json \
        build-release/BENCH_bench_v3_blocks.json
fi

label="${presets[*]-}"
[ "$bench" -eq 1 ] && label="${label:+$label }--bench"
echo "==> ci-check OK ($label)"
