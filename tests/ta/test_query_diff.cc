/**
 * @file
 * Query-conformance differential suite: the acceptance test of the
 * windowed-query layer's exactness contract.
 *
 * For every workload trace in the suite — plus the fault-injected
 * drop trace and a salvaged trace — every windowed query answered
 * through the v2 footer index must BYTE-match the brute-force filter
 * of the full serial analysis (windowReport() on both sides), at 1, 2,
 * 4 and 8 query threads, across windows chosen to hit the edges:
 * empty, single-tick, whole-file-with-margins, first third, middle
 * half, tail, and entirely-before-the-trace. The same holds when the
 * index is absent (v1 file), ignored (--full-scan), or corrupted —
 * those paths must degrade to the full scan, never mis-answer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pdt/tracer.h"
#include "rt/system.h"
#include "ta/analyzer.h"
#include "ta/parallel.h"
#include "ta/query.h"
#include "ta/report.h"
#include "trace/index.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "wl/conv2d.h"
#include "wl/fft.h"
#include "wl/matmul.h"
#include "wl/pipeline.h"
#include "wl/triad.h"
#include "wl/workqueue.h"

namespace cell {
namespace {

using Factory =
    std::function<std::unique_ptr<wl::WorkloadBase>(rt::CellSystem&)>;

trace::TraceData
record(const Factory& make, sim::MachineConfig mcfg = {},
       pdt::PdtConfig pcfg = {})
{
    rt::CellSystem sys(mcfg);
    pdt::Pdt tracer(sys, pcfg);
    auto workload = make(sys);
    workload->start();
    sys.run();
    EXPECT_TRUE(workload->verify());
    return tracer.finalize();
}

struct NamedTrace
{
    std::string name;
    trace::TraceData data;
};

std::vector<NamedTrace>
workloadTraces()
{
    std::vector<NamedTrace> out;
    out.push_back({"triad", record([](rt::CellSystem& sys) {
                       wl::TriadParams p;
                       p.n_elements = 4096;
                       p.n_spes = 2;
                       return std::make_unique<wl::Triad>(sys, p);
                   })});
    out.push_back({"matmul", record([](rt::CellSystem& sys) {
                       wl::MatmulParams p;
                       p.n = 64;
                       p.n_spes = 2;
                       return std::make_unique<wl::Matmul>(sys, p);
                   })});
    out.push_back({"fft", record([](rt::CellSystem& sys) {
                       wl::FftParams p;
                       p.fft_size = 256;
                       p.n_ffts = 16;
                       p.batch = 4;
                       p.n_spes = 2;
                       return std::make_unique<wl::Fft>(sys, p);
                   })});
    out.push_back({"conv2d", record([](rt::CellSystem& sys) {
                       wl::Conv2dParams p;
                       p.width = 256;
                       p.height = 64;
                       p.n_spes = 2;
                       return std::make_unique<wl::Conv2d>(sys, p);
                   })});
    out.push_back({"pipeline", record([](rt::CellSystem& sys) {
                       wl::PipelineParams p;
                       p.n_elements = 8192;
                       p.n_stages = 2;
                       return std::make_unique<wl::Pipeline>(sys, p);
                   })});
    out.push_back({"workqueue", record([](rt::CellSystem& sys) {
                       wl::WorkQueueParams p;
                       p.n_items = 32;
                       p.tile_elems = 256;
                       p.n_spes = 2;
                       return std::make_unique<wl::WorkQueue>(sys, p);
                   })});
    return out;
}

trace::TraceData
dropTrace()
{
    sim::MachineConfig mcfg;
    mcfg.faults.seed = 7;
    mcfg.faults.dma_delay_permille = 150;
    mcfg.faults.dma_delay_cycles = 3'000;
    mcfg.faults.mbox_stall_permille = 200;
    mcfg.faults.arena_exhaust_begin = 1;
    mcfg.faults.arena_exhaust_end = 4;
    pdt::PdtConfig pcfg;
    pcfg.spu_buffer_bytes = 512;
    pcfg.overflow_policy = pdt::OverflowPolicy::DropWithMarker;
    return record(
        [](rt::CellSystem& sys) {
            wl::TriadParams p;
            p.n_elements = 4096;
            p.n_spes = 2;
            return std::make_unique<wl::Triad>(sys, p);
        },
        mcfg, pcfg);
}

/** Edge-hitting windows for a trace spanning [start, end]. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
windowsFor(const ta::TraceModel& m)
{
    const std::uint64_t s = m.startTb();
    const std::uint64_t e = m.endTb();
    const std::uint64_t span = e - s;
    return {
        {s + span / 2, s + span / 2},         // empty
        {s + span / 2, s + span / 2 + 1},     // single tick
        {s > 10 ? s - 10 : 0, e + 10},        // whole file + margins
        {s, s + span / 3},                    // first third
        {s + span / 4, s + (3 * span) / 4},   // middle half
        {s + (7 * span) / 8, e + 1},          // tail, inclusive end
        {0, s},                               // entirely before
    };
}

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + "/query_diff_" + name;
}

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

void
expectWindowsMatch(const std::string& path, const ta::Analysis& full,
                   bool expect_index, const std::string& what,
                   bool force_full_scan = false)
{
    ta::BlockCache cache;
    for (const auto& [from, to] : windowsFor(full.model)) {
        const ta::WindowResult brute = ta::queryWindow(full, from, to);
        const std::string expect = ta::windowReport(brute);
        for (const unsigned threads : kThreadCounts) {
            SCOPED_TRACE(what + " [" + std::to_string(from) + ", " +
                         std::to_string(to) + ") @" +
                         std::to_string(threads) + "t");
            ta::QueryOptions opt;
            opt.threads = threads;
            opt.force_full_scan = force_full_scan;
            opt.cache = &cache;
            const ta::WindowResult w =
                ta::queryWindowFile(path, from, to, opt);
            EXPECT_EQ(w.used_index, expect_index && !force_full_scan);
            EXPECT_EQ(ta::windowReport(w), expect);
        }
    }
}

TEST(QueryDiff, AllWorkloadsIndexedMatchBruteForceAtEveryThreadCount)
{
    for (const NamedTrace& t : workloadTraces()) {
        const std::string path = tempPath(t.name + ".v2.pdt");
        trace::WriteOptions wopt;
        wopt.index_stride = 64; // many entries even on tiny traces
        trace::writeFile(path, t.data, wopt);
        const ta::Analysis full = ta::analyze(t.data);
        expectWindowsMatch(path, full, /*expect_index=*/true, t.name);
        std::remove(path.c_str());
    }
}

TEST(QueryDiff, AllWorkloadsCompressedMatchBruteForceAtEveryThreadCount)
{
    // The same conformance bar, through the v3 compressed container:
    // indexed windowed queries on a compressed+indexed file must
    // byte-match the brute-force filter at every thread count.
    for (const NamedTrace& t : workloadTraces()) {
        const std::string path = tempPath(t.name + ".v3.pdt");
        trace::WriteOptions wopt;
        wopt.index_stride = 64;
        wopt.compress = true;
        trace::writeFile(path, t.data, wopt);
        const ta::Analysis full = ta::analyze(t.data);
        expectWindowsMatch(path, full, /*expect_index=*/true,
                           t.name + "-v3");
        std::remove(path.c_str());
    }
}

TEST(QueryDiff, CompressedReportsMatchUncompressedByteForByte)
{
    // Full and loss reports from a v3 file must equal the v1 file's,
    // byte for byte, serial and parallel — the container must be
    // invisible to every analysis output.
    std::vector<NamedTrace> traces = workloadTraces();
    traces.push_back({"drops", dropTrace()});
    for (const NamedTrace& t : traces) {
        SCOPED_TRACE(t.name);
        const std::string p1 = tempPath(t.name + "_cmp.pdt");
        const std::string p3 = tempPath(t.name + "_cmp.v3.pdt");
        trace::writeFile(p1, t.data);
        trace::writeFile(p3, t.data, trace::WriteOptions{.compress = true});

        const ta::Analysis ref = ta::analyze(trace::readFile(p1));
        const std::string expect_full = ta::fullReport(ref);
        std::ostringstream expect_loss;
        ta::printLossReport(expect_loss, ref);

        for (const unsigned threads : kThreadCounts) {
            const ta::Analysis a =
                ta::analyzeFile(p3, {.threads = threads});
            EXPECT_EQ(ta::fullReport(a), expect_full)
                << threads << " threads";
            std::ostringstream loss;
            ta::printLossReport(loss, a);
            EXPECT_EQ(loss.str(), expect_loss.str())
                << threads << " threads";
        }
        std::remove(p1.c_str());
        std::remove(p3.c_str());
    }
}

TEST(QueryDiff, CompressedFileWithoutIndexFallsBackToFullScan)
{
    const NamedTrace t = workloadTraces().front();
    const std::string path = tempPath("v3_noindex.pdt");
    trace::writeFile(path, t.data, trace::WriteOptions{.compress = true});
    const ta::Analysis full = ta::analyze(t.data);
    expectWindowsMatch(path, full, /*expect_index=*/false, "v3-noindex");
    std::remove(path.c_str());
}

TEST(QueryDiff, V1FileFallsBackToFullScanWithIdenticalAnswers)
{
    const NamedTrace t = workloadTraces().front();
    const std::string path = tempPath("v1_fallback.pdt");
    trace::writeFile(path, t.data);
    const ta::Analysis full = ta::analyze(t.data);
    expectWindowsMatch(path, full, /*expect_index=*/false, "v1");
    std::remove(path.c_str());
}

TEST(QueryDiff, ForceFullScanMatchesIndexedAnswers)
{
    const NamedTrace t = workloadTraces().front();
    const std::string path = tempPath("force_full.v2.pdt");
    trace::WriteOptions wopt;
    wopt.index_stride = 64;
    trace::writeFile(path, t.data, wopt);
    const ta::Analysis full = ta::analyze(t.data);
    expectWindowsMatch(path, full, /*expect_index=*/true, "forced",
                       /*force_full_scan=*/true);
    std::remove(path.c_str());
}

TEST(QueryDiff, FaultInjectedDropTraceIndexedMatchesBruteForce)
{
    const trace::TraceData data = dropTrace();
    bool has_drop = false;
    for (const trace::Record& r : data.records)
        has_drop |= r.kind == trace::kDropRecord;
    ASSERT_TRUE(has_drop);

    const std::string path = tempPath("drops.v2.pdt");
    trace::WriteOptions wopt;
    wopt.index_stride = 16; // entries land between drop epochs
    trace::writeFile(path, data, wopt);
    const ta::Analysis full = ta::analyze(data);
    expectWindowsMatch(path, full, /*expect_index=*/true, "drops");
    std::remove(path.c_str());
}

TEST(QueryDiff, SalvagedTraceQueriesMatchBruteForceAndNeverUseIndex)
{
    // Damage a v2 trace mid-record-region: salvage recovers a subset,
    // byte offsets shift, and the (intact!) footer index no longer
    // describes the salvaged record stream — salvage queries must
    // ignore it.
    std::vector<std::uint8_t> bytes = trace::writeBuffer(
        record([](rt::CellSystem& sys) {
            wl::TriadParams p;
            p.n_elements = 4096;
            p.n_spes = 2;
            return std::make_unique<wl::Triad>(sys, p);
        }),
        trace::WriteOptions{.index_stride = 64});
    const std::size_t at = bytes.size() / 2;
    for (std::size_t i = 0; i < 200 && at + i < bytes.size(); ++i)
        bytes[at + i] = 0xFF;
    const std::string path = tempPath("salvaged.v2.pdt");
    {
        std::ofstream os(path, std::ios::binary);
        os.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }

    trace::ReadReport report;
    const trace::TraceData data = trace::readBufferSalvage(bytes, report);
    ASSERT_TRUE(report.salvaged);
    const ta::Analysis full = ta::analyze(data, {.salvage = true});

    ta::BlockCache cache;
    for (const auto& [from, to] : windowsFor(full.model)) {
        const std::string expect =
            ta::windowReport(ta::queryWindow(full, from, to));
        for (const unsigned threads : kThreadCounts) {
            SCOPED_TRACE("salvaged [" + std::to_string(from) + ", " +
                         std::to_string(to) + ") @" +
                         std::to_string(threads) + "t");
            ta::QueryOptions opt;
            opt.threads = threads;
            opt.salvage = true;
            opt.cache = &cache;
            const ta::WindowResult w =
                ta::queryWindowFile(path, from, to, opt);
            EXPECT_FALSE(w.used_index);
            EXPECT_EQ(ta::windowReport(w), expect);
        }
    }
    std::remove(path.c_str());
}

TEST(QueryDiff, CorruptedIndexDegradesToFullScanNeverMisanswers)
{
    const NamedTrace t = workloadTraces().front();
    std::vector<std::uint8_t> good = trace::writeBuffer(
        t.data, trace::WriteOptions{.index_stride = 64});
    const ta::Analysis full = ta::analyze(t.data);

    struct Mutation
    {
        const char* name;
        std::function<void(std::vector<std::uint8_t>&)> apply;
    };
    const Mutation mutations[] = {
        {"bad_checksum",
         [](std::vector<std::uint8_t>& b) { b[b.size() - 40] ^= 0x5A; }},
        {"bad_trailer_magic",
         [](std::vector<std::uint8_t>& b) { b[b.size() - 1] ^= 0xFF; }},
        {"truncated_footer",
         [](std::vector<std::uint8_t>& b) { b.resize(b.size() - 10); }},
    };

    for (const Mutation& m : mutations) {
        std::vector<std::uint8_t> bytes = good;
        m.apply(bytes);
        const std::string path =
            tempPath(std::string("corrupt_") + m.name + ".pdt");
        {
            std::ofstream os(path, std::ios::binary);
            os.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
        }
        // The v1 record region is untouched, so the full-scan fallback
        // still answers exactly.
        const trace::IndexReadResult ir = trace::readIndexFile(path);
        EXPECT_FALSE(ir.valid) << m.name;
        expectWindowsMatch(path, full, /*expect_index=*/false, m.name);
        std::remove(path.c_str());
    }
}

TEST(QueryDiff, CoreRestrictedQueryMatchesBruteForce)
{
    const NamedTrace t = workloadTraces().front();
    const std::string path = tempPath("core_restricted.v2.pdt");
    trace::WriteOptions wopt;
    wopt.index_stride = 64;
    trace::writeFile(path, t.data, wopt);
    const ta::Analysis full = ta::analyze(t.data);
    const std::uint64_t s = full.model.startTb();
    const std::uint64_t span = full.model.spanTb();

    ta::BlockCache cache;
    const std::uint32_t n_cores = t.data.header.num_spes + 1;
    for (std::uint32_t core = 0; core < n_cores; ++core) {
        SCOPED_TRACE("core " + std::to_string(core));
        const std::uint64_t from = s + span / 4;
        const std::uint64_t to = s + (3 * span) / 4;
        const std::string expect = ta::windowReport(
            ta::queryWindow(full, from, to, static_cast<int>(core)));
        ta::QueryOptions opt;
        opt.threads = 2;
        opt.core = static_cast<int>(core);
        opt.cache = &cache;
        const ta::WindowResult w = ta::queryWindowFile(path, from, to, opt);
        EXPECT_TRUE(w.used_index);
        EXPECT_EQ(ta::windowReport(w), expect);
    }
    std::remove(path.c_str());
}

TEST(QueryDiff, BlockCacheServesRepeatQueriesAndStaysBounded)
{
    const NamedTrace t = workloadTraces().front();
    const std::string path = tempPath("cache.v2.pdt");
    trace::WriteOptions wopt;
    wopt.index_stride = 64;
    trace::writeFile(path, t.data, wopt);
    const ta::Analysis full = ta::analyze(t.data);
    const std::uint64_t s = full.model.startTb();
    const std::uint64_t e = full.model.endTb();

    ta::BlockCache cache(1 << 20);
    ta::QueryOptions opt;
    opt.threads = 1;
    opt.cache = &cache;
    (void)ta::queryWindowFile(path, s, e + 1, opt);
    const auto first = cache.stats();
    EXPECT_GT(first.misses, 0u);
    (void)ta::queryWindowFile(path, s, e + 1, opt);
    const auto second = cache.stats();
    EXPECT_EQ(second.misses, first.misses); // all blocks served hot
    EXPECT_GT(second.hits, first.hits);
    EXPECT_LE(cache.sizeBytes(), std::size_t{1} << 20);
    std::remove(path.c_str());
}

} // namespace
} // namespace cell
