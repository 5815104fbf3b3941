/**
 * @file
 * Property-style tests across the whole stack: invariants that must
 * hold for any workload/configuration, checked over parameter sweeps.
 *
 *  P1  Tracing never changes results (metamorphic correctness).
 *  P2  TA's view is consistent with PDT's own counters.
 *  P3  Breakdown sanity: stalls fit inside the run, utilization in
 *      [0,1], per-core event times monotone.
 *  P4  Clock reconstruction survives decrementer wrap mid-trace.
 *  P5  EIB byte conservation.
 *  P6  Determinism of the entire traced stack.
 *  P7  Any shard split of a trace merges to the same model as the
 *      serial builder (parallel-pipeline split invariance).
 *  P8  The scan/combine fold behind the parallel builder is
 *      associative and agrees with whole-range scans.
 *  P9  Windowed queries through the v2 index equal the brute-force
 *      filter of the full analysis, for random traces and random
 *      windows (empty, single-tick and whole-file included).
 *  P9b Adjacent windows concatenate exactly to their parent window.
 *  P10 The v3 compressed container is invisible: any random trace
 *      written with compression decodes byte-identically through the
 *      strict, salvage, windowed-query and 1/2/4/8-thread parallel
 *      paths (and throws the identical strict diagnostics).
 *  P10b A corrupt v3 block degrades to an exactly-accounted gap, and
 *      serial and parallel salvage agree on the result.
 *  P10c The I/O source is invisible: the same v3 bytes served from a
 *      regular file (mmap-backed), a non-seekable FIFO (buffered
 *      fallback) and an in-memory buffer produce byte-identical
 *      reports, at 1 and 4 threads.
 *  P11 A slice of any generated trace answers windowed queries
 *      byte-identically to the original (lenient traces included).
 *  P11a Splicing slices back at their cuts reproduces the original's
 *      full report, two- and three-way.
 *  P11b Filtering by cores/kind groups then analyzing equals
 *      analyzing then restricting the event streams.
 *  P12 The differential of a trace against itself is empty: no
 *      divergent window, every delta zero, no mover.
 *  P12a A delay injected at a random placed tick is localized: the
 *      first divergent window contains the perturbation tick.
 *  P12b The differential is antisymmetric: swapping A and B negates
 *      every attributed delta and swaps the unmatched tails, while
 *      the divergence geometry (windows, scores) is unchanged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include <sys/stat.h>

#include "pdt/tracer.h"
#include "ta/analyzer.h"
#include "ta/compare.h"
#include "ta/intervals.h"
#include "ta/parallel.h"
#include "ta/query.h"
#include "trace/block.h"
#include "trace/gen.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/surgery.h"
#include "trace/writer.h"
#include "wl/gather.h"
#include "wl/reduction.h"
#include "wl/triad.h"

namespace cell {
namespace {

struct SweepCase
{
    std::uint32_t spes;
    std::uint32_t buffer;
    bool double_buffered;
};

class StackSweep : public ::testing::TestWithParam<SweepCase>
{};

TEST_P(StackSweep, TracedEqualsUntracedResultsAndInvariantsHold)
{
    const auto& c = GetParam();

    // Untraced reference output.
    std::vector<float> untraced_out;
    {
        rt::CellSystem sys;
        wl::TriadParams p;
        p.n_elements = 8192;
        p.n_spes = c.spes;
        wl::Triad wl(sys, p);
        wl.start();
        sys.run();
        ASSERT_TRUE(wl.verify());
    }

    rt::CellSystem sys;
    pdt::PdtConfig cfg;
    cfg.spu_buffer_bytes = c.buffer;
    cfg.double_buffered = c.double_buffered;
    pdt::Pdt tracer(sys, cfg);
    wl::TriadParams p;
    p.n_elements = 8192;
    p.n_spes = c.spes;
    wl::Triad wl(sys, p);
    wl.start();
    sys.run();

    // P1: tracing must not corrupt results.
    ASSERT_TRUE(wl.verify());

    const trace::TraceData data = tracer.finalize();
    const ta::Analysis a = ta::analyze(data);

    // P2: per-core record counts agree between TA and PDT.
    for (std::uint32_t s = 0; s < sys.numSpes(); ++s) {
        EXPECT_EQ(a.model.spe(s).events.size(),
                  tracer.stats().spu[s].records)
            << "SPE" << s;
    }
    EXPECT_EQ(a.model.ppe().events.size(), tracer.stats().ppe_records);

    // P3: breakdown sanity per SPE.
    for (const auto& b : a.stats.spu) {
        if (!b.ran)
            continue;
        EXPECT_LE(b.stall_tb() + b.dma_cmd_tb, b.run_tb);
        EXPECT_GE(b.utilization(), 0.0);
        EXPECT_LE(b.utilization(), 1.0);
    }
    // Monotone per-core times.
    for (const auto& tl : a.model.cores()) {
        std::uint64_t prev = 0;
        for (const auto& ev : tl.events) {
            EXPECT_GE(ev.time_tb, prev);
            prev = ev.time_tb;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StackSweep,
    ::testing::Values(SweepCase{1, 4096, true}, SweepCase{2, 4096, true},
                      SweepCase{4, 256, true}, SweepCase{8, 256, false},
                      SweepCase{8, 128, true}, SweepCase{8, 16384, true},
                      SweepCase{3, 512, false}));

rt::CoTask<void>
wrapProgram(rt::SpuEnv& env)
{
    // Force the decrementer to wrap repeatedly while emitting events:
    // load a small value, then emit events spaced by compute.
    co_await env.writeDecrementer(50);
    for (std::uint32_t i = 0; i < 40; ++i) {
        co_await env.userEvent(i, 0);
        // 30 timebase ticks per step at divider 120 -> wraps the
        // 50-tick decrementer within two steps.
        co_await env.compute(3600);
    }
}

TEST(Properties, P4_DecrementerWrapMidTraceReconstructsCorrectly)
{
    rt::CellSystem sys;
    pdt::PdtConfig cfg;
    cfg.spu_buffer_bytes = 128; // frequent syncs (one per half)
    pdt::Pdt tracer(sys, cfg);

    sys.runPpe([&](rt::PpeEnv&) -> rt::CoTask<void> {
        rt::SpuProgramImage img;
        img.name = "wrap";
        img.main = wrapProgram;
        co_await sys.context(0).start(img);
        co_await sys.context(0).join();
    });
    sys.run();

    const ta::Analysis a = ta::analyze(tracer.finalize());
    // The user events are ~30 timebase ticks apart; after wrap
    // handling, consecutive reconstructed times must advance by
    // roughly that (within tracer-overhead slack), never jump by the
    // 2^32 a naive subtraction would produce.
    std::uint64_t prev = 0;
    bool first = true;
    std::uint32_t checked = 0;
    for (const auto& ev : a.model.spe(0).events) {
        if (ev.isToolRecord() || ev.op() != rt::ApiOp::SpuUserEvent)
            continue;
        if (!first) {
            const std::uint64_t gap = ev.time_tb - prev;
            EXPECT_GE(gap, 25u);
            EXPECT_LE(gap, 200u);
            ++checked;
        }
        prev = ev.time_tb;
        first = false;
    }
    EXPECT_GE(checked, 30u);
}

TEST(Properties, P5_EibByteConservation)
{
    rt::CellSystem sys;
    wl::GatherParams p;
    p.n_indices = 1024;
    p.n_spes = 4;
    wl::Gather wl(sys, p);
    wl.start();
    sys.run();
    ASSERT_TRUE(wl.verify());

    // Every byte the MFCs report moved must have crossed the EIB.
    std::uint64_t mfc_bytes = 0;
    for (std::uint32_t s = 0; s < sys.numSpes(); ++s) {
        const auto& st = sys.machine().spe(s).mfc().stats();
        mfc_bytes += st.bytes_get + st.bytes_put;
    }
    EXPECT_EQ(sys.machine().eib().stats().bytes, mfc_bytes);
}

TEST(Properties, P6_WholeTracedStackIsDeterministic)
{
    auto run = [] {
        rt::CellSystem sys;
        pdt::Pdt tracer(sys);
        wl::ReductionParams p;
        p.n_elements = 8192;
        p.n_spes = 4;
        p.report_every_tile = true;
        wl::Reduction wl(sys, p);
        wl.start();
        sys.run();
        return trace::writeBuffer(tracer.finalize());
    };
    EXPECT_EQ(run(), run()); // byte-identical trace files
}

TEST(Properties, P3b_IntervalsNestInsideTheRun)
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys);
    wl::TriadParams p;
    p.n_elements = 8192;
    p.n_spes = 2;
    wl::Triad wl(sys, p);
    wl.start();
    sys.run();
    const ta::Analysis a = ta::analyze(tracer.finalize());
    for (std::uint32_t s = 0; s < 2; ++s) {
        const ta::Interval* run = a.intervals.spuRun(s);
        ASSERT_NE(run, nullptr);
        for (const auto& iv : a.intervals.per_core[s + 1]) {
            if (iv.cls == ta::IntervalClass::Run)
                continue;
            EXPECT_GE(iv.start_tb, run->start_tb);
            EXPECT_LE(iv.end_tb, run->end_tb + 1);
        }
    }
}

/**
 * Seeded random trace: per-core sync records, drop markers, and event
 * records in random stream order. @p messy additionally injects
 * pre-sync events and bad core ids — records only lenient analysis
 * accepts. Timestamps follow the real raw-clock conventions (PPE
 * counts up, SPEs count down) but the property under test is pure
 * serial/parallel agreement, whatever the values.
 */
trace::TraceData
randomTrace(std::uint32_t seed, std::uint32_t n_spes, std::size_t n_records,
            bool messy)
{
    std::mt19937 rng(seed);
    trace::TraceData t;
    t.header.num_spes = n_spes;
    t.header.core_hz = 3'200'000'000ULL;
    t.header.timebase_divider = 120;
    t.spe_programs.resize(n_spes, "rand");

    const std::uint32_t n_cores = n_spes + 1;
    std::vector<std::uint64_t> tb(n_cores, 1'000);
    std::vector<std::uint64_t> sync_tb(n_cores, 0);
    std::vector<std::uint32_t> sync_raw(n_cores, 0);
    std::vector<bool> synced(n_cores, false);
    const auto raw = [&](std::uint32_t core) {
        return core == 0 ? static_cast<std::uint32_t>(tb[core])
                         : static_cast<std::uint32_t>(~tb[core]);
    };

    for (std::size_t i = 0; i < n_records; ++i) {
        const auto core = static_cast<std::uint16_t>(rng() % n_cores);
        tb[core] += rng() % 50;
        trace::Record r{};
        r.core = core;
        r.timestamp = raw(core);
        const std::uint32_t roll = rng() % 100;
        if (messy && roll < 3) {
            r.core = static_cast<std::uint16_t>(n_cores + rng() % 4);
            r.kind = static_cast<std::uint8_t>(rng() % 30);
        } else if ((!synced[core] && !messy) || roll < 8) {
            r.kind = trace::kSyncRecord;
            sync_raw[core] = raw(core);
            sync_tb[core] = tb[core];
            synced[core] = true;
            r.a = sync_raw[core];
            r.b = sync_tb[core];
        } else if (roll < 14) {
            r.kind = trace::kDropRecord;
            r.a = 1 + rng() % 20;
            r.b = rng() % 1'000;
        } else {
            r.kind = static_cast<std::uint8_t>(rng() % 30);
            r.phase = static_cast<std::uint8_t>(rng() % 2);
            r.a = rng();
            r.b = rng();
            r.c = rng();
            r.d = rng();
        }
        t.records.push_back(r);
    }
    t.header.record_count = t.records.size();
    return t;
}

void
expectSameModel(const ta::TraceModel& s, const ta::TraceModel& p)
{
    EXPECT_EQ(s.leniencySkipped(), p.leniencySkipped());
    EXPECT_EQ(s.startTb(), p.startTb());
    EXPECT_EQ(s.endTb(), p.endTb());
    ASSERT_EQ(s.cores().size(), p.cores().size());
    for (std::size_t c = 0; c < s.cores().size(); ++c) {
        EXPECT_EQ(s.cores()[c].label, p.cores()[c].label);
        EXPECT_TRUE(s.cores()[c].events == p.cores()[c].events)
            << "core " << c << " events differ";
    }
}

TEST(Properties, P7_AnyShardSplitMergesToTheSameModel)
{
    constexpr std::uint64_t kShardSizes[] = {1, 3, 7, 64, 1'000'000};
    for (const std::uint32_t seed : {11u, 22u, 33u}) {
        const bool messy = seed != 11u; // strict-valid and messy inputs
        const trace::TraceData data = randomTrace(seed, 3, 4'000, messy);
        const ta::TraceModel serial = ta::TraceModel::build(data, messy);
        for (const std::uint64_t shard : kShardSizes) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " shard " +
                         std::to_string(shard));
            ta::WorkerPool pool(3);
            const ta::TraceModel par =
                ta::buildModelParallel(data, pool, messy, shard);
            expectSameModel(serial, par);
        }
    }
}

TEST(Properties, P7b_WorkloadTraceSplitInvariance)
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys);
    wl::TriadParams p;
    p.n_elements = 8192;
    p.n_spes = 2;
    wl::Triad wl(sys, p);
    wl.start();
    sys.run();
    ASSERT_TRUE(wl.verify());
    const trace::TraceData data = tracer.finalize();

    const ta::TraceModel serial = ta::TraceModel::build(data);
    for (const std::uint64_t shard : {1ull, 13ull, 257ull}) {
        ta::WorkerPool pool(4);
        const ta::TraceModel par =
            ta::buildModelParallel(data, pool, false, shard);
        expectSameModel(serial, par);
    }
}

TEST(Properties, P8_ScanCombineIsAssociativeAndSplitInvariant)
{
    const std::uint32_t n_cores = 4;
    const trace::TraceData data = randomTrace(77, 3, 3'000, true);
    const auto n = static_cast<std::uint64_t>(data.records.size());
    const ta::scan::RangeScan whole =
        ta::scan::scanRange(data, 0, n, n_cores);

    std::mt19937 rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        std::uint64_t i = rng() % (n + 1);
        std::uint64_t j = rng() % (n + 1);
        if (i > j)
            std::swap(i, j);
        const ta::scan::RangeScan a =
            ta::scan::scanRange(data, 0, i, n_cores);
        const ta::scan::RangeScan b =
            ta::scan::scanRange(data, i, j - i, n_cores);
        const ta::scan::RangeScan c =
            ta::scan::scanRange(data, j, n - j, n_cores);

        // (a · b) · c
        ta::scan::RangeScan left = a;
        ta::scan::combine(left, b);
        ta::scan::combine(left, c);
        // a · (b · c)
        ta::scan::RangeScan right_inner = b;
        ta::scan::combine(right_inner, c);
        ta::scan::RangeScan right = a;
        ta::scan::combine(right, right_inner);

        EXPECT_TRUE(left == right) << "associativity broke at cuts " << i
                                   << "," << j;
        // Split invariance: the fold equals the whole-range scan.
        EXPECT_TRUE(left == whole) << "split invariance broke at cuts "
                                   << i << "," << j;
    }
}

TEST(Properties, P9_RandomWindowedQueriesEqualBruteForceFilter)
{
    for (const std::uint32_t seed : {101u, 202u, 303u}) {
        const trace::TraceData data =
            randomTrace(seed, 3, 4'000, /*messy=*/false);
        const std::string path = ::testing::TempDir() + "/p9_" +
                                 std::to_string(seed) + ".v2.pdt";
        trace::writeFile(path, data,
                         trace::WriteOptions{.index_stride = 32});
        const ta::Analysis full = ta::analyze(data);
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t e = full.model.endTb();

        std::mt19937 rng(seed * 7 + 1);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {
            {s + (e - s) / 2, s + (e - s) / 2}, // empty
            {s + (e - s) / 3, s + (e - s) / 3 + 1}, // single tick
            {s > 10 ? s - 10 : 0, e + 10},      // whole file
        };
        for (int i = 0; i < 8; ++i) {
            std::uint64_t a = s + rng() % (e - s + 1);
            std::uint64_t b = s + rng() % (e - s + 1);
            if (a > b)
                std::swap(a, b);
            windows.emplace_back(a, b);
        }

        ta::BlockCache cache;
        for (const auto& [from, to] : windows) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " [" +
                         std::to_string(from) + ", " + std::to_string(to) +
                         ")");
            const std::string expect =
                ta::windowReport(ta::queryWindow(full, from, to));
            for (const unsigned threads : {1u, 4u}) {
                ta::QueryOptions opt;
                opt.threads = threads;
                opt.cache = &cache;
                const ta::WindowResult w =
                    ta::queryWindowFile(path, from, to, opt);
                EXPECT_TRUE(w.used_index);
                EXPECT_EQ(ta::windowReport(w), expect);
            }
        }
        std::remove(path.c_str());
    }
}

TEST(Properties, P9_MessyTraceWindowedQueryThrowsLikeFullScan)
{
    // A messy trace (pre-sync events / bad core ids) fails strict
    // analysis; its index says so (strict-unclean), and the query
    // layer must reproduce the full-scan diagnostic, not answer.
    const trace::TraceData data = randomTrace(42, 3, 1'000, /*messy=*/true);
    const std::string path = ::testing::TempDir() + "/p9_messy.v2.pdt";
    trace::writeFile(path, data, trace::WriteOptions{.index_stride = 32});

    std::string scan_msg;
    try {
        (void)ta::analyzeFile(path, {.threads = 2});
    } catch (const std::runtime_error& ex) {
        scan_msg = ex.what();
    }
    ASSERT_FALSE(scan_msg.empty());

    std::string query_msg;
    try {
        ta::QueryOptions opt;
        opt.threads = 2;
        (void)ta::queryWindowFile(path, 0, ~std::uint64_t{0}, opt);
    } catch (const std::runtime_error& ex) {
        query_msg = ex.what();
    }
    EXPECT_EQ(query_msg, scan_msg);
    std::remove(path.c_str());
}

TEST(Properties, P9b_AdjacentWindowsConcatenateToParentWindow)
{
    for (const std::uint32_t seed : {404u, 505u}) {
        const trace::TraceData data =
            randomTrace(seed, 3, 4'000, /*messy=*/false);
        const std::string path = ::testing::TempDir() + "/p9b_" +
                                 std::to_string(seed) + ".v2.pdt";
        trace::writeFile(path, data,
                         trace::WriteOptions{.index_stride = 32});
        const ta::Analysis full = ta::analyze(data);
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t e = full.model.endTb();

        std::mt19937 rng(seed);
        ta::BlockCache cache;
        ta::QueryOptions opt;
        opt.threads = 2;
        opt.cache = &cache;
        for (int i = 0; i < 6; ++i) {
            std::uint64_t cuts[3] = {s + rng() % (e - s + 1),
                                     s + rng() % (e - s + 1),
                                     s + rng() % (e - s + 1)};
            std::sort(std::begin(cuts), std::end(cuts));
            const auto [a, m, b] = std::tuple(cuts[0], cuts[1], cuts[2]);
            SCOPED_TRACE("seed " + std::to_string(seed) + " cuts " +
                         std::to_string(a) + "/" + std::to_string(m) +
                         "/" + std::to_string(b));
            const ta::WindowResult left =
                ta::queryWindowFile(path, a, m, opt);
            const ta::WindowResult right =
                ta::queryWindowFile(path, m, b, opt);
            const ta::WindowResult parent =
                ta::queryWindowFile(path, a, b, opt);
            ASSERT_EQ(parent.cores.size(), left.cores.size());
            for (std::size_t c = 0; c < parent.cores.size(); ++c) {
                std::vector<ta::Event> events = left.cores[c].events;
                events.insert(events.end(), right.cores[c].events.begin(),
                              right.cores[c].events.end());
                EXPECT_TRUE(events == parent.cores[c].events)
                    << "event concat mismatch on core " << c;
                std::vector<ta::Interval> ivs = left.intervals[c];
                ivs.insert(ivs.end(), right.intervals[c].begin(),
                           right.intervals[c].end());
                EXPECT_TRUE(ivs == parent.intervals[c])
                    << "interval concat mismatch on core " << c;
            }
        }
        std::remove(path.c_str());
    }
}

TEST(Properties, P10_CompressedContainerIsInvisibleOnEveryReadPath)
{
    for (const std::uint32_t seed : {111u, 222u, 333u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const bool messy = seed != 111u;
        const trace::TraceData data = randomTrace(seed, 3, 4'000, messy);
        const auto v1 = trace::writeBuffer(data);
        const auto v3 = trace::writeBuffer(
            data, trace::WriteOptions{.index_stride = 32, .compress = true});
        ASSERT_LT(v3.size(), v1.size());

        // Strict decode reproduces the records byte-identically, with
        // the in-memory header normalized back to version 1.
        const trace::TraceData strict = trace::readBuffer(v3);
        EXPECT_EQ(strict.header.version, trace::kFormatVersion);
        ASSERT_EQ(strict.records.size(), data.records.size());
        EXPECT_EQ(0, std::memcmp(strict.records.data(), data.records.data(),
                                 data.records.size() *
                                     sizeof(trace::Record)));

        // Salvage of the intact v3 file equals salvage of its v1 twin
        // (both filter the same implausible records on messy input).
        trace::ReadReport r1, r3;
        const trace::TraceData s1 = trace::readBufferSalvage(v1, r1);
        const trace::TraceData s3 = trace::readBufferSalvage(v3, r3);
        EXPECT_EQ(r3.records_read, r1.records_read);
        EXPECT_EQ(r3.records_skipped, r1.records_skipped);
        ASSERT_EQ(s3.records.size(), s1.records.size());
        EXPECT_EQ(0, std::memcmp(s3.records.data(), s1.records.data(),
                                 s1.records.size() * sizeof(trace::Record)));

        const std::string p1 = ::testing::TempDir() + "/p10_" +
                               std::to_string(seed) + ".pdt";
        const std::string p3 = ::testing::TempDir() + "/p10_" +
                               std::to_string(seed) + ".v3.pdt";
        trace::writeFile(p1, data);
        trace::writeFile(
            p3, data,
            trace::WriteOptions{.index_stride = 32, .compress = true});

        if (messy) {
            // Strict analysis rejects messy traces; both containers
            // must fail with the IDENTICAL diagnostic.
            std::string m1, m3;
            for (const unsigned threads : {1u, 4u}) {
                try {
                    (void)ta::analyzeFile(p1, {.threads = threads});
                } catch (const std::runtime_error& ex) {
                    m1 = ex.what();
                }
                try {
                    (void)ta::analyzeFile(p3, {.threads = threads});
                } catch (const std::runtime_error& ex) {
                    m3 = ex.what();
                }
                ASSERT_FALSE(m1.empty());
                EXPECT_EQ(m3, m1) << threads << " threads";
            }
        } else {
            // Full report from the compressed file matches the
            // uncompressed one at every thread count...
            const ta::Analysis full = ta::analyze(data);
            const std::string expect = ta::fullReport(full);
            for (const unsigned threads : {1u, 2u, 4u, 8u}) {
                const ta::Analysis a3 =
                    ta::analyzeFile(p3, {.threads = threads});
                EXPECT_EQ(ta::fullReport(a3), expect)
                    << threads << " threads";
            }
            // ...and indexed windowed queries answer exactly.
            const std::uint64_t s = full.model.startTb();
            const std::uint64_t e = full.model.endTb();
            ta::BlockCache cache;
            for (const auto& [from, to] :
                 {std::pair<std::uint64_t, std::uint64_t>{s, e + 1},
                  {s + (e - s) / 4, s + (3 * (e - s)) / 4}}) {
                const std::string brute =
                    ta::windowReport(ta::queryWindow(full, from, to));
                for (const unsigned threads : {1u, 4u}) {
                    ta::QueryOptions opt;
                    opt.threads = threads;
                    opt.cache = &cache;
                    const ta::WindowResult w =
                        ta::queryWindowFile(p3, from, to, opt);
                    EXPECT_TRUE(w.used_index);
                    EXPECT_EQ(ta::windowReport(w), brute);
                }
            }
        }
        std::remove(p1.c_str());
        std::remove(p3.c_str());
    }
}

TEST(Properties, P10b_CorruptBlockSalvagesToExactGapSeriallyAndInParallel)
{
    const trace::TraceData data =
        randomTrace(606, 3, 4'000, /*messy=*/false);
    auto bytes = trace::writeBuffer(
        data, trace::WriteOptions{.compress = true, .block_records = 256});

    // Find block 4 via the region directory and flip a payload bit.
    std::uint64_t region_off = sizeof(trace::Header);
    for (const auto& n : data.spe_programs)
        region_off += sizeof(std::uint32_t) + n.size();
    trace::BlockRegionHeader rh;
    std::memcpy(&rh, bytes.data() + region_off, sizeof(rh));
    ASSERT_EQ(rh.magic, trace::kBlockRegionMagic);
    ASSERT_GE(rh.block_count, 6u);
    trace::BlockDirEntry de;
    std::memcpy(&de, bytes.data() + rh.directory_offset + 4 * sizeof(de),
                sizeof(de));
    bytes[de.offset + sizeof(trace::BlockHeader) + 11] ^= 0x20;

    const std::string path = ::testing::TempDir() + "/p10b.v3.pdt";
    {
        std::ofstream os(path, std::ios::binary);
        os.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }

    trace::ReadReport serial_rep;
    const trace::TraceData serial =
        trace::readBufferSalvage(bytes, serial_rep);
    EXPECT_TRUE(serial_rep.salvaged);
    EXPECT_EQ(serial_rep.records_skipped, de.record_count);
    // Every record outside the lost block survives; the only additions
    // are the synthetic sync/drop markers bridging the gap.
    EXPECT_GE(serial.records.size(), data.records.size() - de.record_count);

    const ta::Analysis ref = ta::analyze(serial, {.salvage = true});
    for (const unsigned threads : {2u, 4u}) {
        trace::ReadReport rep;
        const ta::Analysis par = ta::analyzeFile(
            path, {.threads = threads, .salvage = true, .report = &rep});
        EXPECT_EQ(rep.records_read, serial_rep.records_read);
        EXPECT_EQ(rep.records_skipped, serial_rep.records_skipped);
        EXPECT_EQ(ta::fullReport(par), ta::fullReport(ref))
            << threads << " threads";
    }
    std::remove(path.c_str());
}

TEST(Properties, P10c_MmapAndBufferedSourcesProduceIdenticalReports)
{
    for (const std::uint32_t seed : {404u, 505u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const trace::TraceData data =
            randomTrace(seed, 3, 4'000, /*messy=*/false);
        const auto v3 = trace::writeBuffer(
            data, trace::WriteOptions{.compress = true,
                                      .block_records = 256});
        const std::string expect = ta::fullReport(ta::analyze(data));

        // Regular file: readFile takes the mmap path, and the
        // parallel analyzer reads the same file at 1 and 4 threads.
        const std::string path = ::testing::TempDir() + "/p10c_" +
                                 std::to_string(seed) + ".v3.pdt";
        {
            std::ofstream os(path, std::ios::binary);
            os.write(reinterpret_cast<const char*>(v3.data()),
                     static_cast<std::streamsize>(v3.size()));
        }
        EXPECT_EQ(ta::fullReport(ta::analyze(trace::readFile(path))),
                  expect);
        for (const unsigned threads : {1u, 4u}) {
            const ta::Analysis a =
                ta::analyzeFile(path, {.threads = threads});
            EXPECT_EQ(ta::fullReport(a), expect) << threads << " threads";
        }

        // FIFO: not mappable and not seekable — readFile must degrade
        // to the buffered serial path and still report identically.
        const std::string fifo = ::testing::TempDir() + "/p10c_" +
                                 std::to_string(seed) + ".fifo";
        std::remove(fifo.c_str());
        ASSERT_EQ(0, mkfifo(fifo.c_str(), 0600));
        std::thread writer([&] {
            std::ofstream os(fifo, std::ios::binary);
            os.write(reinterpret_cast<const char*>(v3.data()),
                     static_cast<std::streamsize>(v3.size()));
        });
        const trace::TraceData piped = trace::readFile(fifo);
        writer.join();
        EXPECT_EQ(ta::fullReport(ta::analyze(piped)), expect);

        std::remove(fifo.c_str());
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------------------
// P11 family: trace surgery vs. the seeded scenario generator. Every
// failure message leads with the seed — re-running that seed alone
// reproduces the trace bit-for-bit.

namespace gen = trace::gen;

std::string
winRep(const trace::TraceData& d, std::uint64_t from, std::uint64_t to,
       bool lenient = false)
{
    return ta::windowReport(
        ta::queryWindow(ta::analyze(d, {.salvage = lenient}), from, to));
}

/** Generated trace plus, for a subset of seeds, a lenient variant with
 *  a pre-sync record the analyzer provably skips. */
trace::TraceData
genTrace(std::uint64_t seed, bool messy)
{
    gen::GenOptions opt;
    opt.seed = seed;
    trace::TraceData d = gen::generate(opt);
    if (messy) {
        trace::Record r{};
        r.kind = 1;
        r.core = 1;
        r.timestamp = 123;
        d.records.insert(d.records.begin(), r);
        d.header.record_count = d.records.size();
    }
    return d;
}

TEST(Properties, P11_SliceOfAnyGeneratedTraceAnswersWindowsIdentically)
{
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const bool messy = seed % 5 == 0; // 40 lenient seeds
        SCOPED_TRACE("P11 seed " + std::to_string(seed) +
                     (messy ? " (lenient)" : ""));
        const trace::TraceData data = genTrace(seed, messy);
        const ta::Analysis full = ta::analyze(data, {.salvage = messy});
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t e = full.model.endTb();
        const std::uint64_t span = e - s;

        std::mt19937_64 rng(seed * 9'176'321 + 7);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {
            {s + span / 4, s + (3 * span) / 4},
            {s > 10 ? s - 10 : 0, e + 10},
        };
        for (int i = 0; i < 2; ++i) {
            std::uint64_t a = s + rng() % (span + 1);
            std::uint64_t b = s + rng() % (span + 1);
            if (a > b)
                std::swap(a, b);
            windows.emplace_back(a, b);
        }
        trace::SliceOptions sopt;
        sopt.lenient = messy;
        for (const auto& [from, to] : windows) {
            SCOPED_TRACE("[" + std::to_string(from) + ", " +
                         std::to_string(to) + ")");
            const trace::TraceData sliced =
                trace::slice(data, from, to, sem, sopt);
            EXPECT_EQ(winRep(sliced, from, to, messy),
                      ta::windowReport(ta::queryWindow(full, from, to)));
        }
    }
}

TEST(Properties, P11a_SplicingSlicesAtTheirCutsReassemblesTheOriginal)
{
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const bool messy = seed % 7 == 0;
        SCOPED_TRACE("P11a seed " + std::to_string(seed) +
                     (messy ? " (lenient)" : ""));
        const trace::TraceData data = genTrace(seed, messy);
        const ta::Analysis full = ta::analyze(data, {.salvage = messy});
        const std::string expect = ta::fullReport(full);
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t span = full.model.endTb() - s;

        trace::SliceOptions sopt;
        sopt.lenient = messy;
        trace::SpliceOptions jopt;
        jopt.lenient = messy;

        // Two-way at a seeded cut point.
        std::mt19937_64 rng(seed * 1'442'695 + 3);
        const std::uint64_t m = s + rng() % (span + 1);
        jopt.cuts = {m};
        EXPECT_EQ(ta::fullReport(ta::analyze(
                      trace::splice(
                          {trace::slice(data, 0, m, sem, sopt),
                           trace::slice(data, m, ~std::uint64_t{0}, sem,
                                        sopt)},
                          jopt),
                      {.salvage = messy})),
                  expect)
            << "cut " << m;

        // Three-way at the thirds.
        const std::uint64_t m1 = s + span / 3;
        const std::uint64_t m2 = s + (2 * span) / 3;
        jopt.cuts = {m1, m2};
        EXPECT_EQ(ta::fullReport(ta::analyze(
                      trace::splice(
                          {trace::slice(data, 0, m1, sem, sopt),
                           trace::slice(data, m1, m2, sem, sopt),
                           trace::slice(data, m2, ~std::uint64_t{0}, sem,
                                        sopt)},
                          jopt),
                      {.salvage = messy})),
                  expect)
            << "cuts " << m1 << ", " << m2;
    }
}

TEST(Properties, P11b_FilterThenAnalyzeEqualsAnalyzeThenRestrict)
{
    const auto restricted = [](const ta::Analysis& a,
                               const std::vector<std::uint16_t>& cores,
                               std::uint64_t kind_mask) {
        std::vector<char> keep(a.model.cores().size(),
                               cores.empty() ? 1 : 0);
        for (const std::uint16_t c : cores)
            keep[c] = 1;
        std::vector<ta::CoreTimeline> tls = a.model.cores();
        for (auto& tl : tls) {
            if (!keep[tl.core]) {
                tl.events.clear();
                continue;
            }
            std::vector<ta::Event> kept;
            for (const ta::Event& ev : tl.events) {
                if (ev.kind >= 64 || ((kind_mask >> ev.kind) & 1))
                    kept.push_back(ev);
            }
            tl.events = std::move(kept);
        }
        std::vector<std::vector<ta::Interval>> ivs(tls.size());
        for (const auto& tl : tls)
            ivs[tl.core] = ta::buildCoreIntervals(tl);
        ta::WindowResult r;
        r.from = 0;
        r.to = ~std::uint64_t{0};
        r.header = a.model.header();
        r.cores = std::move(tls);
        r.intervals = std::move(ivs);
        r.leniency_skipped = a.model.leniencySkipped();
        return ta::windowReport(r);
    };

    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const bool messy = seed % 9 == 0;
        SCOPED_TRACE("P11b seed " + std::to_string(seed) +
                     (messy ? " (lenient)" : ""));
        const trace::TraceData data = genTrace(seed, messy);
        const ta::Analysis full = ta::analyze(data, {.salvage = messy});
        std::mt19937_64 rng(seed * 6'364'136 + 11);

        // A random non-empty core subset.
        const std::uint32_t n_cores = data.header.num_spes + 1;
        std::vector<std::uint16_t> cores;
        for (std::uint32_t c = 0; c < n_cores; ++c) {
            if (rng() % 2)
                cores.push_back(static_cast<std::uint16_t>(c));
        }
        if (cores.empty())
            cores.push_back(static_cast<std::uint16_t>(rng() % n_cores));

        // A random kind mask; kinds beyond the known ops always pass.
        const std::uint64_t kind_mask =
            rng() | (~std::uint64_t{0} << rt::kNumApiOps);

        trace::FilterOptions fopt;
        fopt.cores = cores;
        fopt.kind_mask = kind_mask;
        fopt.lenient = messy;
        EXPECT_EQ(winRep(trace::filter(data, fopt), 0, ~std::uint64_t{0},
                         messy),
                  restricted(full, cores, kind_mask));
    }
}

// ---------------------------------------------------------------------------
// P12 family: the cross-trace differential engine against the seeded
// generator. Same seed-first failure messages as P11.

/** Placed (clamped) event times in stream order — the same placements
 *  the analyzer derives, for picking perturbation ticks. */
std::vector<std::uint64_t>
placedTimes(const trace::TraceData& d)
{
    std::vector<trace::ClockReplay> clk(d.header.num_spes + 1);
    std::vector<std::uint64_t> prev(d.header.num_spes + 1, 0);
    std::vector<std::uint64_t> times;
    for (const trace::Record& rec : d.records) {
        if (rec.core >= clk.size())
            continue;
        std::uint64_t t = 0;
        if (!clk[rec.core].feed(rec, t))
            continue;
        t = std::max(t, prev[rec.core]);
        prev[rec.core] = t;
        times.push_back(t);
    }
    return times;
}

TEST(Properties, P12_DiffOfATraceAgainstItselfIsEmpty)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const bool messy = seed % 5 == 0;
        SCOPED_TRACE("P12 seed " + std::to_string(seed) +
                     (messy ? " (lenient)" : ""));
        const trace::TraceData data = genTrace(seed, messy);
        const ta::Analysis a = ta::analyze(data, {.salvage = messy});
        const ta::DiffResult r = ta::diffAnalyses(a, a);
        EXPECT_FALSE(r.diverged);
        EXPECT_EQ(r.windows_diverged, 0u);
        EXPECT_FALSE(r.have_mover);
        for (const ta::CoreDelta& d : r.cores) {
            EXPECT_EQ(d.run_tb, 0);
            EXPECT_EQ(d.unmatched_a, 0u);
            EXPECT_EQ(d.unmatched_b, 0u);
            for (const std::int64_t b : d.bucket_tb)
                EXPECT_EQ(b, 0);
        }
    }
}

TEST(Properties, P12a_InjectedDelayIsLocalizedToItsWindow)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("P12a seed " + std::to_string(seed));
        const trace::TraceData data = genTrace(seed, false);
        const std::vector<std::uint64_t> times = placedTimes(data);
        if (times.size() < 2)
            continue; // degenerate scenario: nothing to perturb

        // Perturb at a random PLACED tick: the event there moves, so
        // its window provably diverges and no earlier one can.
        std::mt19937_64 rng(seed * 2'862'933 + 29);
        const std::uint64_t t = times[rng() % times.size()];
        const ta::Analysis a = ta::analyze(data);
        trace::DelayOptions dopt;
        dopt.at = t;
        dopt.delta = a.model.spanTb() / 8 + 1 + rng() % 1000;
        const ta::Analysis b = ta::analyze(trace::delay(data, dopt));

        const ta::DiffResult r = ta::diffAnalyses(a, b);
        ASSERT_TRUE(r.diverged) << "tick " << t;
        EXPECT_LE(r.first.from_tb, t);
        EXPECT_LT(t, r.first.to_tb);
    }
}

TEST(Properties, P12b_DiffIsAntisymmetric)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const bool messy = seed % 7 == 0;
        SCOPED_TRACE("P12b seed " + std::to_string(seed) +
                     (messy ? " (lenient)" : ""));
        const trace::TraceData data = genTrace(seed, messy);
        const ta::Analysis a = ta::analyze(data, {.salvage = messy});

        // B: a different seed of the same scenario when core counts
        // align, else a perturbed variant of A — either way a real,
        // nonzero differential.
        trace::TraceData data_b = genTrace(seed + 1000, false);
        bool messy_b = false;
        if (data_b.header.num_spes != data.header.num_spes) {
            trace::DelayOptions dopt;
            dopt.at = (a.model.startTb() + a.model.endTb()) / 2;
            dopt.delta = a.model.spanTb() / 6 + 31;
            dopt.lenient = messy;
            data_b = trace::delay(data, dopt);
            messy_b = messy;
        }
        const ta::Analysis b = ta::analyze(data_b, {.salvage = messy_b});

        const ta::DiffResult ab = ta::diffAnalyses(a, b);
        const ta::DiffResult ba = ta::diffAnalyses(b, a);

        ASSERT_EQ(ab.cores.size(), ba.cores.size());
        for (std::size_t i = 0; i < ab.cores.size(); ++i) {
            const ta::CoreDelta& f = ab.cores[i];
            const ta::CoreDelta& g = ba.cores[i];
            EXPECT_EQ(f.matched, g.matched);
            EXPECT_EQ(f.run_tb, -g.run_tb);
            for (std::size_t k = 0; k < ta::kNumDiffBuckets; ++k)
                EXPECT_EQ(f.bucket_tb[k], -g.bucket_tb[k]);
            EXPECT_EQ(f.unmatched_a, g.unmatched_b);
            EXPECT_EQ(f.unmatched_b, g.unmatched_a);
            EXPECT_EQ(f.unmatched_tb_a, g.unmatched_tb_b);
            EXPECT_EQ(f.unmatched_tb_b, g.unmatched_tb_a);
        }
        // Divergence geometry is direction-free: |x - y| == |y - x|.
        EXPECT_EQ(ab.window_tb, ba.window_tb);
        EXPECT_EQ(ab.windows_total, ba.windows_total);
        EXPECT_EQ(ab.windows_diverged, ba.windows_diverged);
        EXPECT_EQ(ab.diverged, ba.diverged);
        if (ab.diverged) {
            EXPECT_EQ(ab.first.index, ba.first.index);
            EXPECT_EQ(ab.first.score, ba.first.score);
        }
        EXPECT_EQ(ab.have_mover, ba.have_mover);
        if (ab.have_mover) {
            EXPECT_EQ(ab.mover_tb, -ba.mover_tb);
        }
    }
}

} // namespace
} // namespace cell
