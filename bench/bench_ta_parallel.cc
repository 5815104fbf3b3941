/**
 * @file
 * Scaling benchmark for the parallel trace analyzer.
 *
 * One large triad trace is generated once; BM_AnalyzeSerial runs the
 * legacy single-thread pipeline over it, BM_AnalyzeParallel/N the
 * sharded pipeline at N threads (reusing one worker pool across
 * iterations, as the CLI does). items_per_second is records analyzed
 * per second, so the scaling curve reads directly off the JSON output:
 *
 *     cmake --build build --target bench   # writes BENCH_ta_parallel.json
 *
 * Note the outputs are asserted identical elsewhere (the differential
 * harness); this file measures nothing but wall clock. Speedup above 1
 * thread requires physical cores — on a single-core host the curve is
 * flat and the parallel path only pays its (small) coordination cost.
 */

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "ta/parallel.h"

namespace {

using namespace cell;

/**
 * One big trace, shared by every benchmark. Synthesized rather than
 * simulated: a traced run at bench scale yields only a few thousand
 * records (records scale with DMA chunks, not elements), which fits
 * in one or two shards and never exercises the parallel fan-out. A
 * synthetic 1M-record trace (~256 shards at the default shard size)
 * does, and builds in milliseconds. Shape: per-core sync records
 * first, then round-robin begin/end event pairs on all nine cores
 * with SPE decrementers counting down and the PPE timebase counting
 * up, plus a periodic drop marker so the loss path is on the clock.
 */
const trace::TraceData&
bigTrace()
{
    static const trace::TraceData data = [] {
        constexpr std::uint32_t kCores = 9; // PPE + 8 SPEs
        constexpr std::uint64_t kRecords = 1u << 20;
        trace::TraceData d;
        d.header.num_spes = kCores - 1;
        d.header.core_hz = 3'200'000'000ULL;
        d.header.timebase_divider = 8;
        d.spe_programs.assign(kCores - 1, "synthetic");
        d.records.reserve(kRecords + kCores);
        std::uint32_t raw[kCores];
        for (std::uint16_t c = 0; c < kCores; ++c) {
            raw[c] = c == 0 ? 1000u : 0xFFFFF000u;
            trace::Record r{};
            r.kind = trace::kSyncRecord;
            r.core = c;
            r.a = raw[c]; // raw stamp at the sync point
            r.b = 1000;   // timebase at the sync point
            d.records.push_back(r);
        }
        bool begin[kCores] = {};
        std::uint64_t dropped[kCores] = {};
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            const auto c = static_cast<std::uint16_t>(i % kCores);
            trace::Record r{};
            r.core = c;
            if (i % 65536 == 65535 && c != 0) {
                r.kind = trace::kDropRecord;
                r.a = 3;
                r.b = dropped[c] += 3;
            } else {
                r.kind = static_cast<std::uint8_t>(1 + (i / kCores) % 8);
                r.phase = begin[c] ? trace::kPhaseEnd : trace::kPhaseBegin;
                begin[c] = !begin[c];
            }
            raw[c] += c == 0 ? 50u : -50u; // SPE decrementers count down
            r.timestamp = raw[c];
            d.records.push_back(r);
        }
        d.header.record_count = d.records.size();
        return d;
    }();
    return data;
}

void
BM_AnalyzeSerial(benchmark::State& state)
{
    const trace::TraceData& data = bigTrace();
    for (auto _ : state) {
        const ta::Analysis a = ta::analyze(data);
        benchmark::DoNotOptimize(a.stats.total_records);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.records.size()));
}
BENCHMARK(BM_AnalyzeSerial)->Unit(benchmark::kMillisecond);

void
BM_AnalyzeParallel(benchmark::State& state)
{
    const trace::TraceData& data = bigTrace();
    ta::WorkerPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        ta::Analysis a{ta::buildModelParallel(data, pool), {}, {}};
        a.intervals = ta::buildIntervalsParallel(a.model, pool);
        a.stats = ta::buildStatsParallel(a.model, a.intervals, pool);
        benchmark::DoNotOptimize(a.stats.total_records);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.records.size()));
    state.counters["threads"] =
        benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_AnalyzeParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_BuildModelParallel(benchmark::State& state)
{
    const trace::TraceData& data = bigTrace();
    ta::WorkerPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const ta::TraceModel m = ta::buildModelParallel(data, pool);
        benchmark::DoNotOptimize(m.endTb());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.records.size()));
}
BENCHMARK(BM_BuildModelParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
