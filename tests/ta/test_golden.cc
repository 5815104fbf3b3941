/**
 * @file
 * Golden-trace regression tests.
 *
 * tests/ta/golden/ holds small committed PDT traces plus, per trace, a
 * `.digest` file with the FNV-1a 64 hash of the serial analyzer's full
 * report (every view + CSV export concatenated). Both the serial and
 * the sharded parallel analyzer must keep reproducing those digests —
 * any change to a reported number fails here, and must either be fixed
 * or deliberately blessed by regenerating the fixtures:
 *
 *     build/tools/ta_golden gen tests/ta/golden
 *
 * CELL_GOLDEN_DIR is injected by the build (tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "ta/analyzer.h"
#include "ta/compare.h"
#include "ta/parallel.h"
#include "ta/query.h"
#include "trace/block.h"
#include "trace/index.h"
#include "trace/reader.h"

namespace cell {
namespace {

const char* const kFixtures[] = {"triad",           "matmul",
                                 "workqueue",       "triad_drops",
                                 "workqueue_slice", "triad_splice",
                                 "gen_skew",        "triad_perturbed"};

std::string
goldenPath(const std::string& name, const char* ext)
{
    return std::string(CELL_GOLDEN_DIR) + "/" + name + ext;
}

std::string
committedDigest(const std::string& name)
{
    std::ifstream is(goldenPath(name, ".digest"));
    std::string s;
    is >> s;
    return s;
}

/** The parallel pipeline on 4 threads with 64-record shards, so even
 *  tiny fixtures split into many shards. */
ta::Analysis
shardedAnalysis(const trace::TraceData& data)
{
    ta::WorkerPool pool(4);
    ta::Analysis a{ta::buildModelParallel(data, pool, false, 64), {}, {}};
    a.intervals = ta::buildIntervalsParallel(a.model, pool);
    a.stats = ta::buildStatsParallel(a.model, a.intervals, pool);
    return a;
}

std::string
digestOf(const ta::Analysis& a)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << ta::fnv1a64(ta::fullReport(a));
    return os.str();
}

TEST(Golden, SerialAnalyzerReproducesCommittedDigests)
{
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string expect = committedDigest(name);
        ASSERT_FALSE(expect.empty()) << "missing digest for " << name;
        const trace::TraceData data =
            trace::readFile(goldenPath(name, ".pdt"));
        EXPECT_EQ(digestOf(ta::analyze(data)), expect);
    }
}

TEST(Golden, ParallelAnalyzerReproducesCommittedDigests)
{
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string expect = committedDigest(name);
        ASSERT_FALSE(expect.empty()) << "missing digest for " << name;
        const trace::TraceData data =
            trace::readFile(goldenPath(name, ".pdt"));
        EXPECT_EQ(digestOf(shardedAnalysis(data)), expect);
    }
}

TEST(Golden, FileShardedIngestReproducesCommittedDigests)
{
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string expect = committedDigest(name);
        EXPECT_EQ(digestOf(ta::analyzeFile(goldenPath(name, ".pdt"),
                                           {.threads = 4})),
                  expect);
    }
}

TEST(Golden, V2VariantsReadViaTheV1PathReproduceCommittedDigests)
{
    // Each fixture also exists as `<name>.v2.pdt` — the same trace
    // written with a footer index. The v1 reader must see the
    // identical trace (footer ignored), hence the identical digest.
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string expect = committedDigest(name);
        ASSERT_FALSE(expect.empty()) << "missing digest for " << name;
        const trace::TraceData data =
            trace::readFile(goldenPath(name, ".v2.pdt"));
        EXPECT_EQ(digestOf(ta::analyze(data)), expect);
    }
}

TEST(Golden, V3VariantsDecodeToTheCommittedDigests)
{
    // Each fixture also exists as `<name>.v3.pdt` — the same trace in
    // the compressed block container, plus a footer index. Decode is
    // transparent, so serial, in-memory parallel, and file-sharded
    // parallel analysis must all reproduce the v1 digest.
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string expect = committedDigest(name);
        ASSERT_FALSE(expect.empty()) << "missing digest for " << name;
        const trace::TraceData data =
            trace::readFile(goldenPath(name, ".v3.pdt"));
        EXPECT_EQ(data.header.version, trace::kFormatVersion);
        EXPECT_EQ(digestOf(ta::analyze(data)), expect);

        EXPECT_EQ(digestOf(shardedAnalysis(data)), expect);
        EXPECT_EQ(digestOf(ta::analyzeFile(goldenPath(name, ".v3.pdt"),
                                           {.threads = 4})),
                  expect);
    }
}

TEST(Golden, V3IndexesValidateAndAnswerWindowedQueriesExactly)
{
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string path = goldenPath(name, ".v3.pdt");
        const trace::IndexReadResult ir = trace::readIndexFile(path);
        ASSERT_TRUE(ir.present) << ir.reason;
        ASSERT_TRUE(ir.valid) << ir.reason;
        EXPECT_TRUE(ir.index.strictClean());

        const ta::Analysis full = ta::analyze(trace::readFile(path));
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t span = full.model.spanTb();
        ta::BlockCache cache;
        ta::QueryOptions opt;
        opt.threads = 2;
        opt.cache = &cache;
        const std::uint64_t from = s + span / 4;
        const std::uint64_t to = s + (3 * span) / 4;
        const ta::WindowResult w = ta::queryWindowFile(path, from, to, opt);
        EXPECT_TRUE(w.used_index);
        EXPECT_EQ(ta::windowReport(w),
                  ta::windowReport(ta::queryWindow(full, from, to)));
    }
}

TEST(Golden, V3VariantsCompressTheRecordRegion)
{
    // Even these deliberately tiny fixtures (tens of records — far too
    // small to amortize the per-block seed/directory overhead that the
    // 2.5x bytes/event bar on real-size traces absorbs; see
    // EXPERIMENTS.md R4 and Block.CompressesRegularTracesWell) must
    // come out with a record region smaller than the fixed 32-byte
    // encoding, and the probe must agree with the committed geometry.
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const trace::BlockRegionProbe p =
            trace::probeBlockRegionFile(goldenPath(name, ".v3.pdt"));
        ASSERT_TRUE(p.present);
        const std::uint64_t n = p.region.record_count;
        ASSERT_GT(n, 0u);
        EXPECT_LT(p.region_bytes, n * sizeof(trace::Record));
    }
}

TEST(Golden, DiffJsonReproducesTheCommittedDigest)
{
    // triad vs triad_perturbed is the committed differential pair; the
    // FNV of `ta diff --json` over it is pinned in triad_diff.digest.
    // Any change to alignment, bucket attribution, window localization
    // or the JSON rendering fails here and must be deliberately
    // re-blessed via `ta_golden gen`.
    std::ifstream is(std::string(CELL_GOLDEN_DIR) + "/triad_diff.digest");
    std::string expect;
    is >> expect;
    ASSERT_FALSE(expect.empty()) << "missing triad_diff.digest";

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ta::DiffFileOptions opt;
        opt.threads = threads;
        const ta::DiffFileOutcome out =
            ta::diffFiles(goldenPath("triad", ".pdt"),
                          goldenPath("triad_perturbed", ".pdt"), opt);
        std::ostringstream os;
        os << std::hex << std::setw(16) << std::setfill('0')
           << ta::fnv1a64(ta::diffJson(out.result));
        EXPECT_EQ(os.str(), expect);
        EXPECT_TRUE(out.result.diverged);
    }
}

TEST(Golden, V2IndexesValidateAndAnswerWindowedQueriesExactly)
{
    for (const char* name : kFixtures) {
        SCOPED_TRACE(name);
        const std::string path = goldenPath(name, ".v2.pdt");
        const trace::IndexReadResult ir = trace::readIndexFile(path);
        ASSERT_TRUE(ir.present) << ir.reason;
        ASSERT_TRUE(ir.valid) << ir.reason;
        EXPECT_TRUE(ir.index.strictClean());

        const ta::Analysis full = ta::analyze(trace::readFile(path));
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t span = full.model.spanTb();
        ta::BlockCache cache;
        ta::QueryOptions opt;
        opt.threads = 2;
        opt.cache = &cache;
        const std::uint64_t from = s + span / 4;
        const std::uint64_t to = s + (3 * span) / 4;
        const ta::WindowResult w = ta::queryWindowFile(path, from, to, opt);
        EXPECT_TRUE(w.used_index);
        EXPECT_EQ(ta::windowReport(w),
                  ta::windowReport(ta::queryWindow(full, from, to)));
    }
}

} // namespace
} // namespace cell
