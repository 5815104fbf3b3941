/**
 * @file
 * v3 compressed-block benchmark: codec throughput and the R4
 * compression-ratio experiment.
 *
 * Throughput side: encode/decode a ~1M-record synthetic trace (same
 * shape as bench_ta_parallel's) through the v3 block codec, next to
 * the v1 fixed-record read it replaces, plus the bounded-memory
 * BlockReader streaming one block at a time. bytes_per_second counts
 * UNCOMPRESSED record bytes, so the rates compare directly.
 *
 * Ratio side: one iteration per real workload (triad, matmul, fft,
 * conv2d, pipeline, workqueue) records the trace under PDT and writes
 * it both ways. Counters report the record-region bytes/event of each
 * container and the ratio — the numbers EXPERIMENTS.md R4 quotes. The
 * shared header/name-table bytes are excluded so the ratio measures
 * the encoding itself.
 *
 *     cmake --build build --target bench   # writes BENCH_v3_blocks.json
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "pdt/tracer.h"
#include "rt/system.h"
#include "trace/block.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/worker_pool.h"
#include "wl/conv2d.h"
#include "wl/fft.h"
#include "wl/matmul.h"
#include "wl/pipeline.h"
#include "wl/triad.h"
#include "wl/workqueue.h"

namespace {

using namespace cell;

/** Same synthetic shape as bench_ta_parallel: nine cores, ~1M records,
 *  periodic drop markers, SPE decrementers counting down. */
trace::TraceData
bigTrace()
{
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
        r.a = raw[c];
        r.b = 1000;
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
        raw[c] += c == 0 ? 50u : -50u;
        r.timestamp = raw[c];
        d.records.push_back(r);
    }
    d.header.record_count = d.records.size();
    return d;
}

const trace::TraceData&
cachedBigTrace()
{
    static const trace::TraceData t = bigTrace();
    return t;
}

std::uint64_t
rawBytes(const trace::TraceData& t)
{
    return t.records.size() * sizeof(trace::Record);
}

void
BM_EncodeV3(benchmark::State& state)
{
    const trace::TraceData& t = cachedBigTrace();
    for (auto _ : state) {
        const auto buf =
            trace::writeBuffer(t, trace::WriteOptions{.compress = true});
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * rawBytes(t)));
}
BENCHMARK(BM_EncodeV3)->Unit(benchmark::kMillisecond);

void
BM_DecodeV1(benchmark::State& state)
{
    const trace::TraceData& t = cachedBigTrace();
    const auto buf = trace::writeBuffer(t);
    for (auto _ : state) {
        const trace::TraceData back = trace::readBuffer(buf);
        benchmark::DoNotOptimize(back.records.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * rawBytes(t)));
}
BENCHMARK(BM_DecodeV1)->Unit(benchmark::kMillisecond);

void
BM_DecodeV3(benchmark::State& state)
{
    const trace::TraceData& t = cachedBigTrace();
    const auto buf =
        trace::writeBuffer(t, trace::WriteOptions{.compress = true});
    for (auto _ : state) {
        const trace::TraceData back = trace::readBuffer(buf);
        benchmark::DoNotOptimize(back.records.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * rawBytes(t)));
    state.counters["compressed_bytes"] =
        benchmark::Counter(static_cast<double>(buf.size()));
}
BENCHMARK(BM_DecodeV3)->Unit(benchmark::kMillisecond);

void
BM_BlockReaderStream(benchmark::State& state)
{
    const trace::TraceData& t = cachedBigTrace();
    const auto buf =
        trace::writeBuffer(t, trace::WriteOptions{.compress = true});
    const std::string s(buf.begin(), buf.end());
    for (auto _ : state) {
        std::istringstream is(s);
        trace::BlockReader br(is);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * rawBytes(t)));
}
BENCHMARK(BM_BlockReaderStream)->Unit(benchmark::kMillisecond);

std::string
tempTracePath(const std::string& stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

/** Write the big synthetic trace to a temp file, return its path. */
std::string
bigTraceFile(bool compress)
{
    const std::string path = tempTracePath(
        compress ? "bench_v3_big.v3.pdt" : "bench_v3_big.v1.pdt");
    trace::writeFile(path, cachedBigTrace(),
                     trace::WriteOptions{.compress = compress});
    return path;
}

void
BM_FileReadV1(benchmark::State& state)
{
    const std::string path = bigTraceFile(false);
    for (auto _ : state) {
        const trace::TraceData back = trace::readFile(path);
        benchmark::DoNotOptimize(back.records.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * rawBytes(cachedBigTrace())));
    std::remove(path.c_str());
}
BENCHMARK(BM_FileReadV1)->Iterations(3)->Unit(benchmark::kMillisecond);

void
BM_FileDecodeV3Mmap(benchmark::State& state)
{
    const std::string path = bigTraceFile(true);
    for (auto _ : state) {
        const trace::TraceData back = trace::readFile(path);
        benchmark::DoNotOptimize(back.records.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * rawBytes(cachedBigTrace())));
    std::remove(path.c_str());
}
BENCHMARK(BM_FileDecodeV3Mmap)->Iterations(3)->Unit(benchmark::kMillisecond);

void
BM_BlockReaderMmap(benchmark::State& state)
{
    const std::string path = bigTraceFile(true);
    for (auto _ : state) {
        trace::BlockReader br(path);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * rawBytes(cachedBigTrace())));
    std::remove(path.c_str());
}
BENCHMARK(BM_BlockReaderMmap)->Iterations(3)->Unit(benchmark::kMillisecond);

void
BM_BlockReaderPipelined(benchmark::State& state)
{
    const std::string path = bigTraceFile(true);
    util::WorkerPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        trace::BlockReader br(path);
        br.pipeline(pool, 2);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * rawBytes(cachedBigTrace())));
    std::remove(path.c_str());
}
BENCHMARK(BM_BlockReaderPipelined)
    ->Arg(1)
    ->Arg(2)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------
// R4: compression ratio per workload (record region bytes/event).

using Factory =
    std::unique_ptr<wl::WorkloadBase> (*)(rt::CellSystem&);

trace::TraceData
recordWorkload(Factory make)
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys, {});
    auto workload = make(sys);
    workload->start();
    sys.run();
    if (!workload->verify())
        throw std::runtime_error("workload verification failed");
    return tracer.finalize();
}

void
ratioBench(benchmark::State& state, Factory make)
{
    const trace::TraceData t = recordWorkload(make);
    const auto v1 = trace::writeBuffer(t);
    const auto v3 =
        trace::writeBuffer(t, trace::WriteOptions{.compress = true});
    const double n = static_cast<double>(t.records.size());
    const double shared =
        static_cast<double>(v1.size()) - n * sizeof(trace::Record);
    const double v3_region = static_cast<double>(v3.size()) - shared;
    for (auto _ : state) {
        const auto again =
            trace::writeBuffer(t, trace::WriteOptions{.compress = true});
        benchmark::DoNotOptimize(again.data());
    }
    state.counters["events"] = benchmark::Counter(n);
    state.counters["v1_bytes_per_event"] =
        benchmark::Counter(sizeof(trace::Record));
    state.counters["v3_bytes_per_event"] = benchmark::Counter(v3_region / n);
    state.counters["ratio"] =
        benchmark::Counter(n * sizeof(trace::Record) / v3_region);
}

std::unique_ptr<wl::WorkloadBase>
makeTriad(rt::CellSystem& sys)
{
    wl::TriadParams p;
    p.n_elements = 65536;
    p.n_spes = 4;
    return std::make_unique<wl::Triad>(sys, p);
}
std::unique_ptr<wl::WorkloadBase>
makeMatmul(rt::CellSystem& sys)
{
    wl::MatmulParams p;
    p.n = 128;
    p.n_spes = 4;
    return std::make_unique<wl::Matmul>(sys, p);
}
std::unique_ptr<wl::WorkloadBase>
makeFft(rt::CellSystem& sys)
{
    wl::FftParams p;
    p.fft_size = 256;
    p.n_ffts = 512;
    p.batch = 2;
    p.n_spes = 4;
    return std::make_unique<wl::Fft>(sys, p);
}
std::unique_ptr<wl::WorkloadBase>
makeConv2d(rt::CellSystem& sys)
{
    wl::Conv2dParams p;
    p.width = 512;
    p.height = 128;
    p.n_spes = 4;
    return std::make_unique<wl::Conv2d>(sys, p);
}
std::unique_ptr<wl::WorkloadBase>
makePipeline(rt::CellSystem& sys)
{
    wl::PipelineParams p;
    p.n_elements = 32768;
    p.n_stages = 4;
    return std::make_unique<wl::Pipeline>(sys, p);
}
std::unique_ptr<wl::WorkloadBase>
makeWorkQueue(rt::CellSystem& sys)
{
    wl::WorkQueueParams p;
    p.n_items = 128;
    p.tile_elems = 256;
    p.n_spes = 4;
    return std::make_unique<wl::WorkQueue>(sys, p);
}

// ------------------------------------------------------------------
// R7: decode wall time per workload, v1 fixed records vs v3 columnar
// blocks. The recorded workload traces are a few hundred to a few
// thousand events — far too small to measure a decoder — so each one
// is tiled out to ~1M events first: the record mix, dictionary churn,
// and delta distributions stay the workload's own, at a size where
// per-record cost dominates the syscall noise.
//
// v1_read_ms is a full readFile() of the v1 file. v3_decode_ms is the
// streaming BlockReader decode of every block from the v3 file, which
// hands back records in a cache-resident block buffer instead of
// materializing a whole-trace vector. No `ta` command reads through
// BlockReader: the analyzer takes v3 records from readFile() (serial),
// readShardInto() (sharded parallel ingest) and per-block
// decodeBlockBody() calls (windowed queries). v3_file_read_ms, the
// full readFile() materialization, is what a serial `ta summary` pays.
// The CI bench gate pins v3_decode_ms <= v1_read_ms per workload.

constexpr int kDecodeReps = 5;
constexpr std::size_t kDecodeTargetRecords = 1u << 20;

trace::TraceData
tiledTrace(const trace::TraceData& base)
{
    trace::TraceData t;
    t.header = base.header;
    t.spe_programs = base.spe_programs;
    const std::size_t n = base.records.size();
    const std::size_t reps = (kDecodeTargetRecords + n - 1) / n;
    t.records.reserve(reps * n);
    for (std::size_t k = 0; k < reps; ++k)
        t.records.insert(t.records.end(), base.records.begin(),
                         base.records.end());
    t.header.record_count = t.records.size();
    return t;
}

template <typename Fn>
double
bestMs(Fn&& fn)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int i = 0; i <= kDecodeReps; ++i) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (i > 0) // iteration 0 is the cache warm-up
            best = std::min(best, ms);
    }
    return best;
}

void
fileDecodeBench(benchmark::State& state, Factory make, const char* name)
{
    const trace::TraceData t = tiledTrace(recordWorkload(make));
    const std::string v1p =
        tempTracePath(std::string("bench_fd_") + name + ".v1.pdt");
    const std::string v3p =
        tempTracePath(std::string("bench_fd_") + name + ".v3.pdt");
    trace::writeFile(v1p, t);
    trace::writeFile(v3p, t, trace::WriteOptions{.compress = true});
    const double v1_ms = bestMs([&] {
        const trace::TraceData back = trace::readFile(v1p);
        benchmark::DoNotOptimize(back.records.data());
    });
    const double v3_ms = bestMs([&] {
        trace::BlockReader br(v3p);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    });
    const double v3_file_ms = bestMs([&] {
        const trace::TraceData back = trace::readFile(v3p);
        benchmark::DoNotOptimize(back.records.data());
    });
    for (auto _ : state) {
        trace::BlockReader br(v3p);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    }
    state.counters["events"] =
        benchmark::Counter(static_cast<double>(t.records.size()));
    state.counters["v1_read_ms"] = benchmark::Counter(v1_ms);
    state.counters["v3_decode_ms"] = benchmark::Counter(v3_ms);
    state.counters["v3_file_read_ms"] = benchmark::Counter(v3_file_ms);
    state.counters["decode_speedup"] = benchmark::Counter(v1_ms / v3_ms);
    std::remove(v1p.c_str());
    std::remove(v3p.c_str());
}

/** Block-size sensitivity of the streaming decode, on the workload
 *  that stresses the codec hardest (triad: striding DMA operands). */
void
BM_DecodeBlockSize(benchmark::State& state)
{
    static const trace::TraceData t = tiledTrace(recordWorkload(makeTriad));
    const auto records = static_cast<std::uint32_t>(state.range(0));
    const std::string path = tempTracePath("bench_fd_blocksize.v3.pdt");
    trace::writeFile(path, t,
                     trace::WriteOptions{.compress = true,
                                         .block_records = records});
    const double ms = bestMs([&] {
        trace::BlockReader br(path);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    });
    for (auto _ : state) {
        trace::BlockReader br(path);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        benchmark::DoNotOptimize(n);
    }
    state.counters["decode_ms"] = benchmark::Counter(ms);
    std::remove(path.c_str());
}
BENCHMARK(BM_DecodeBlockSize)
    ->Arg(2048)
    ->Arg(8192)
    ->Arg(32768)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void
BM_FileDecode_triad(benchmark::State& s)
{ fileDecodeBench(s, makeTriad, "triad"); }
void
BM_FileDecode_matmul(benchmark::State& s)
{ fileDecodeBench(s, makeMatmul, "matmul"); }
void
BM_FileDecode_fft(benchmark::State& s)
{ fileDecodeBench(s, makeFft, "fft"); }
void
BM_FileDecode_conv2d(benchmark::State& s)
{ fileDecodeBench(s, makeConv2d, "conv2d"); }
void
BM_FileDecode_pipeline(benchmark::State& s)
{ fileDecodeBench(s, makePipeline, "pipeline"); }
void
BM_FileDecode_workqueue(benchmark::State& s)
{ fileDecodeBench(s, makeWorkQueue, "workqueue"); }

BENCHMARK(BM_FileDecode_triad)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FileDecode_matmul)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FileDecode_fft)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FileDecode_conv2d)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FileDecode_pipeline)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FileDecode_workqueue)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void
BM_Ratio_triad(benchmark::State& s) { ratioBench(s, makeTriad); }
void
BM_Ratio_matmul(benchmark::State& s) { ratioBench(s, makeMatmul); }
void
BM_Ratio_fft(benchmark::State& s) { ratioBench(s, makeFft); }
void
BM_Ratio_conv2d(benchmark::State& s) { ratioBench(s, makeConv2d); }
void
BM_Ratio_pipeline(benchmark::State& s) { ratioBench(s, makePipeline); }
void
BM_Ratio_workqueue(benchmark::State& s) { ratioBench(s, makeWorkQueue); }

BENCHMARK(BM_Ratio_triad)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ratio_matmul)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ratio_fft)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ratio_conv2d)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ratio_pipeline)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ratio_workqueue)->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
