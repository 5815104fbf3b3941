/**
 * @file
 * Serial-vs-parallel differential harness: the acceptance test of the
 * parallel analysis pipeline's determinism contract.
 *
 * Every workload in the suite — plus a salvaged trace and a
 * fault-injected trace full of drop markers — is analyzed serially and
 * in parallel at 1, 2, 4 and 8 threads, with shard sizes small enough
 * to force many shards even on tiny traces. The two paths must agree
 * exactly: same events (field-wise), same intervals, same loss tables,
 * and byte-identical full reports.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pdt/tracer.h"
#include "rt/system.h"
#include "ta/analyzer.h"
#include "ta/parallel.h"
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

/** Run @p make traced and return the finalized trace. */
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
    bool lenient = false;
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

/** Triad under faults + tiny buffer + drop-with-marker: drop markers
 *  and gap epochs everywhere. */
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

/** Corrupt a healthy trace mid-record-region and salvage it: lenient
 *  analysis input with lost syncs and skipped records. */
trace::TraceData
salvagedTrace(trace::ReadReport& report)
{
    std::vector<std::uint8_t> bytes = trace::writeBuffer(
        record([](rt::CellSystem& sys) {
            wl::TriadParams p;
            p.n_elements = 4096;
            p.n_spes = 2;
            return std::make_unique<wl::Triad>(sys, p);
        }));
    const std::size_t at = bytes.size() / 2;
    for (std::size_t i = 0; i < 200 && at + i < bytes.size(); ++i)
        bytes[at + i] = 0xFF;
    return trace::readBufferSalvage(bytes, report);
}

/** The parallel pipeline at @p threads with @p shard_records-record
 *  shards, small enough to force many shards even on tiny traces. */
ta::Analysis
shardedAnalysis(const trace::TraceData& data, unsigned threads, bool lenient,
                std::uint64_t shard_records)
{
    ta::WorkerPool pool(threads);
    ta::Analysis a{
        ta::buildModelParallel(data, pool, lenient, shard_records), {}, {}};
    a.intervals = ta::buildIntervalsParallel(a.model, pool);
    a.stats = ta::buildStatsParallel(a.model, a.intervals, pool);
    return a;
}

/** Assert every derived structure matches, field by field, and the
 *  printed reports are byte-identical. */
void
expectIdentical(const ta::Analysis& s, const ta::Analysis& p,
                const std::string& what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(s.model.leniencySkipped(), p.model.leniencySkipped());
    EXPECT_EQ(s.model.startTb(), p.model.startTb());
    EXPECT_EQ(s.model.endTb(), p.model.endTb());
    ASSERT_EQ(s.model.cores().size(), p.model.cores().size());
    for (std::size_t c = 0; c < s.model.cores().size(); ++c) {
        EXPECT_EQ(s.model.cores()[c].core, p.model.cores()[c].core);
        EXPECT_EQ(s.model.cores()[c].label, p.model.cores()[c].label);
        EXPECT_TRUE(s.model.cores()[c].events == p.model.cores()[c].events)
            << "event mismatch on core " << c;
    }
    ASSERT_EQ(s.intervals.per_core.size(), p.intervals.per_core.size());
    for (std::size_t c = 0; c < s.intervals.per_core.size(); ++c) {
        EXPECT_TRUE(s.intervals.per_core[c] == p.intervals.per_core[c])
            << "interval mismatch on core " << c;
    }
    EXPECT_TRUE(s.stats.loss == p.stats.loss) << "loss table mismatch";
    EXPECT_EQ(s.stats.total_records, p.stats.total_records);
    EXPECT_EQ(ta::fullReport(s), ta::fullReport(p));
}

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

TEST(ParallelDiff, AllWorkloadsMatchSerialAtEveryThreadCount)
{
    for (const NamedTrace& t : workloadTraces()) {
        const ta::Analysis serial =
            ta::analyze(t.data, {.salvage = t.lenient});
        for (const unsigned threads : kThreadCounts) {
            const ta::Analysis par =
                shardedAnalysis(t.data, threads, t.lenient, 257);
            expectIdentical(serial, par,
                            t.name + " @" + std::to_string(threads) + "t");
        }
    }
}

TEST(ParallelDiff, FaultInjectedDropTraceMatchesSerial)
{
    const trace::TraceData data = dropTrace();
    // The trace must actually contain drop markers for this test to
    // mean anything.
    bool has_drop = false;
    for (const trace::Record& r : data.records)
        has_drop |= r.kind == trace::kDropRecord;
    ASSERT_TRUE(has_drop);

    const ta::Analysis serial = ta::analyze(data);
    for (const unsigned threads : kThreadCounts) {
        const ta::Analysis par = shardedAnalysis(data, threads, false, 129);
        expectIdentical(serial, par,
                        "drops @" + std::to_string(threads) + "t");
    }
}

TEST(ParallelDiff, SalvagedTraceMatchesSerialLenient)
{
    trace::ReadReport report;
    const trace::TraceData data = salvagedTrace(report);
    ASSERT_TRUE(report.salvaged);

    const ta::Analysis serial = ta::analyze(data, {.salvage = true});
    for (const unsigned threads : kThreadCounts) {
        const ta::Analysis par = shardedAnalysis(data, threads, true, 97);
        expectIdentical(serial, par,
                        "salvaged @" + std::to_string(threads) + "t");
    }
}

TEST(ParallelDiff, FileShardedIngestMatchesSerialRead)
{
    const std::string path =
        ::testing::TempDir() + "/parallel_diff_triad.pdt";
    const trace::TraceData data = record([](rt::CellSystem& sys) {
        wl::TriadParams p;
        p.n_elements = 4096;
        p.n_spes = 2;
        return std::make_unique<wl::Triad>(sys, p);
    });
    trace::writeFile(path, data);

    const ta::Analysis serial = ta::analyzeFile(path);
    for (const unsigned threads : {2u, 4u, 8u}) {
        const ta::Analysis par = ta::analyzeFile(path, {.threads = threads});
        expectIdentical(serial, par,
                        "file @" + std::to_string(threads) + "t");
    }
}

TEST(ParallelDiff, ThreadsOneIsExactlyTheLegacyPath)
{
    const trace::TraceData data = record([](rt::CellSystem& sys) {
        wl::TriadParams p;
        p.n_elements = 2048;
        p.n_spes = 2;
        return std::make_unique<wl::Triad>(sys, p);
    });
    expectIdentical(ta::analyze(data), ta::analyze(data, {.threads = 1}),
                    "threads=1");
}

TEST(ParallelDiff, StrictErrorsMatchSerialDiagnostics)
{
    // An event before any sync on its core: both paths must throw the
    // same message.
    trace::TraceData bad;
    bad.header.num_spes = 1;
    bad.header.core_hz = 3'200'000'000ULL;
    bad.header.timebase_divider = 120;
    bad.spe_programs = {""};
    trace::Record r{};
    r.kind = 2;
    r.core = 1;
    r.timestamp = 100;
    bad.records.assign(8, r);

    std::string serial_msg;
    std::string parallel_msg;
    try {
        (void)ta::TraceModel::build(bad);
    } catch (const std::runtime_error& e) {
        serial_msg = e.what();
    }
    try {
        ta::WorkerPool pool(4);
        (void)ta::buildModelParallel(bad, pool, false, /*shard_records=*/2);
    } catch (const std::runtime_error& e) {
        parallel_msg = e.what();
    }
    EXPECT_FALSE(serial_msg.empty());
    EXPECT_EQ(serial_msg, parallel_msg);

    // A record naming an impossible core: same again, and the
    // *earlier* offender must win when both problems exist.
    bad.records[0].core = 9;
    serial_msg.clear();
    parallel_msg.clear();
    try {
        (void)ta::TraceModel::build(bad);
    } catch (const std::runtime_error& e) {
        serial_msg = e.what();
    }
    try {
        ta::WorkerPool pool(4);
        (void)ta::buildModelParallel(bad, pool, false, /*shard_records=*/2);
    } catch (const std::runtime_error& e) {
        parallel_msg = e.what();
    }
    EXPECT_FALSE(serial_msg.empty());
    EXPECT_EQ(serial_msg, parallel_msg);
}

} // namespace
} // namespace cell
