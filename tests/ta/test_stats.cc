/**
 * @file
 * Statistics tests: histogram math and trace-derived metrics on
 * synthetic streams with known answers, and DMA transfer matching
 * against the wait-scan oracle on random interval sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "ta/stats.h"

namespace cell::ta {
namespace {

using trace::Record;
using trace::TraceData;

TEST(Histogram, BucketsByPowersOfTwo)
{
    Histogram h;
    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(1024);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1024u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 2 + 3 + 1024) / 5.0);
    EXPECT_EQ(h.buckets()[0], 1u); // [0,1)
    EXPECT_EQ(h.buckets()[1], 1u); // [1,2)
    EXPECT_EQ(h.buckets()[2], 2u); // [2,4)
    EXPECT_EQ(h.buckets()[11], 1u); // [1024,2048)
}

TEST(Histogram, QuantilesAreMonotone)
{
    Histogram h;
    for (std::uint64_t i = 1; i <= 1000; ++i)
        h.add(i);
    EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_LE(h.quantile(0.9), h.max());
    // The true median (500) lies in the [256,512) bucket; the
    // quantile reports that bucket's floor.
    EXPECT_EQ(h.quantile(0.5), 256u);
}

TEST(Histogram, ClampsToTheLastBucket)
{
    Histogram h; // 40 bits: buckets 0..40
    h.add(std::uint64_t{1} << 40);
    h.add(UINT64_MAX);
    EXPECT_EQ(h.buckets().size(), 41u);
    EXPECT_EQ(h.buckets()[40], 2u);

    Histogram small(4); // buckets [0,1) [1,2) [2,4) [4,8) [8,inf)
    for (std::uint64_t v : {0, 1, 2, 3, 7, 8, 1000})
        small.add(v);
    EXPECT_EQ(small.buckets(),
              (std::vector<std::uint64_t>{1, 1, 2, 1, 2}));
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

/** Build a synthetic 1-SPE trace with a known breakdown. */
TraceData
syntheticTrace()
{
    TraceData t;
    t.header.num_spes = 1;
    t.header.core_hz = 3'200'000'000ULL;
    t.header.timebase_divider = 120;
    t.spe_programs = {"synthetic"};

    auto add = [&](std::uint16_t core, std::uint64_t tb, std::uint8_t kind,
                   std::uint8_t phase, std::uint64_t a = 0,
                   std::uint64_t b = 0, std::uint32_t c = 0,
                   std::uint32_t d = 0) {
        Record r{};
        r.kind = kind;
        r.phase = phase;
        r.core = core;
        r.timestamp = static_cast<std::uint32_t>(
            core == 0 ? tb : 1'000'000 - tb); // down-counter for SPE
        r.a = a;
        r.b = b;
        r.c = c;
        r.d = d;
        t.records.push_back(r);
    };
    auto op = [](rt::ApiOp o) { return static_cast<std::uint8_t>(o); };

    // Syncs.
    add(0, 0, trace::kSyncRecord, 0, 0, 0);
    {
        Record sync{};
        sync.kind = trace::kSyncRecord;
        sync.core = 1;
        sync.timestamp = 1'000'000;
        sync.a = 1'000'000;
        sync.b = 0;
        t.records.push_back(sync);
    }

    // SPE stream: run 0..1000; DMA cmd 10..20 (size 4096, tag 2);
    // tag wait 30..130 (mask 0x4); mbox wait 200..260; flush marker.
    add(1, 0, op(rt::ApiOp::SpuStart), trace::kPhaseBegin);
    add(1, 10, op(rt::ApiOp::SpuMfcGet), trace::kPhaseBegin, 0x100, 0x8000,
        4096, 2);
    add(1, 20, op(rt::ApiOp::SpuMfcGet), trace::kPhaseEnd);
    add(1, 30, op(rt::ApiOp::SpuTagWaitAll), trace::kPhaseBegin, 0x4);
    add(1, 130, op(rt::ApiOp::SpuTagWaitAll), trace::kPhaseEnd, 0x4, 0x4);
    add(1, 200, op(rt::ApiOp::SpuMboxRead), trace::kPhaseBegin);
    add(1, 260, op(rt::ApiOp::SpuMboxRead), trace::kPhaseEnd, 42);
    add(1, 300, trace::kFlushRecord, 0, /*records*/ 7, /*wait*/ 55);
    add(1, 1000, op(rt::ApiOp::SpuStop), trace::kPhaseBegin, 0);
    return t;
}

TEST(TraceStats, BreakdownMatchesHandComputedValues)
{
    const TraceData t = syntheticTrace();
    const TraceModel m = TraceModel::build(t);
    const IntervalSet ivs = IntervalSet::build(m);
    const TraceStats st = TraceStats::build(m, ivs);

    const SpuBreakdown& b = st.spu[0];
    EXPECT_TRUE(b.ran);
    EXPECT_EQ(b.run_tb, 1000u);
    EXPECT_EQ(b.dma_cmd_tb, 10u);
    EXPECT_EQ(b.dma_wait_tb, 100u);
    EXPECT_EQ(b.mbox_wait_tb, 60u);
    EXPECT_EQ(b.signal_wait_tb, 0u);
    EXPECT_EQ(b.stall_tb(), 160u);
    EXPECT_EQ(b.busy_tb(), 1000u - 160u - 10u);
    EXPECT_NEAR(b.utilization(), 0.83, 0.001);
}

TEST(TraceStats, DmaLatencyMatchedToCoveringTagWait)
{
    const TraceData t = syntheticTrace();
    const TraceModel m = TraceModel::build(t);
    const TraceStats st =
        TraceStats::build(m, IntervalSet::build(m));

    const DmaStats& d = st.dma[0];
    EXPECT_EQ(d.commands, 1u);
    EXPECT_EQ(d.bytes, 4096u);
    EXPECT_EQ(d.unobserved, 0u);
    ASSERT_EQ(d.latency_tb.count(), 1u);
    // Command begin at tb 10; tag wait (mask covers tag 2) ends 130.
    EXPECT_EQ(d.latency_tb.max(), 120u);
}

TEST(TraceStats, FlushMarkersAggregated)
{
    const TraceData t = syntheticTrace();
    const TraceModel m = TraceModel::build(t);
    const TraceStats st =
        TraceStats::build(m, IntervalSet::build(m));
    EXPECT_EQ(st.flush[0].flushes, 1u);
    EXPECT_EQ(st.flush[0].flushed_records, 7u);
    EXPECT_EQ(st.flush[0].flush_wait_cycles, 55u);
}

TEST(TraceStats, OpCountsCountBeginsOnly)
{
    const TraceData t = syntheticTrace();
    const TraceModel m = TraceModel::build(t);
    const TraceStats st =
        TraceStats::build(m, IntervalSet::build(m));
    EXPECT_EQ(st.op_counts[1][static_cast<std::size_t>(rt::ApiOp::SpuMfcGet)],
              1u);
    EXPECT_EQ(
        st.op_counts[1][static_cast<std::size_t>(rt::ApiOp::SpuTagWaitAll)],
        1u);
    EXPECT_EQ(st.op_counts[1][static_cast<std::size_t>(rt::ApiOp::SpuStart)],
              1u);
}

TEST(TraceStats, OverlapScoreBounds)
{
    const TraceData t = syntheticTrace();
    const TraceModel m = TraceModel::build(t);
    const TraceStats st =
        TraceStats::build(m, IntervalSet::build(m));
    // wait 100 of 120 service => overlap 1 - 100/120.
    EXPECT_NEAR(st.overlapScore(0), 1.0 - 100.0 / 120.0, 1e-9);
}

TEST(TraceStats, LoadImbalanceOfSingleSpeIsOne)
{
    const TraceData t = syntheticTrace();
    const TraceModel m = TraceModel::build(t);
    const TraceStats st =
        TraceStats::build(m, IntervalSet::build(m));
    EXPECT_DOUBLE_EQ(st.loadImbalance(), 1.0);
}

/** Reference matcher, a direct reading of the rule: for each command,
 *  walk the end-sorted waits from the front to the first that ends at
 *  or after the issue and covers the tag. Quadratic, so tests only. */
std::vector<DmaTransfer>
matchByScan(const IntervalSet& ivs, std::uint32_t spe)
{
    const auto& intervals = ivs.per_core.at(spe + 1);
    std::vector<const Interval*> waits;
    for (const Interval& iv : intervals) {
        if (iv.cls == IntervalClass::DmaWait)
            waits.push_back(&iv);
    }
    std::sort(waits.begin(), waits.end(),
              [](const Interval* x, const Interval* y) {
                  return x->end_tb < y->end_tb;
              });

    std::vector<DmaTransfer> out;
    for (const Interval& iv : intervals) {
        if (iv.cls != IntervalClass::DmaCommand)
            continue;
        DmaTransfer t;
        t.op = iv.op;
        t.spe = spe;
        t.ls = iv.a;
        t.ea = iv.b;
        t.size = iv.c;
        t.tag = iv.d & 31u;
        t.issue_tb = iv.start_tb;
        const std::uint32_t tag_bit = 1u << t.tag;
        for (const Interval* w : waits) {
            if (w->end_tb < iv.start_tb)
                continue;
            const auto mask =
                static_cast<std::uint32_t>(w->end_b ? w->end_b : w->a);
            if (mask & tag_bit) {
                t.complete_tb = w->end_tb;
                t.observed = true;
                break;
            }
        }
        out.push_back(t);
    }
    return out;
}

/** How often the random interval sets hit each matching corner. */
struct MatchCoverage
{
    std::uint64_t multi_bit_masks = 0;
    std::uint64_t end_b_fallbacks = 0;
    std::uint64_t zero_masks = 0;
    std::uint64_t equal_end_ticks = 0;
    std::uint64_t ends_at_issue = 0;
    std::uint64_t unobserved = 0;
};

/**
 * A random SPE interval stream: DMA commands, tag waits and other
 * classes on a narrow tick range, so ends collide and waits end at
 * command issues. Masks mix single and multi-bit, requested-only
 * (end_b == 0), empty, and 64-bit values whose low 32 bits are zero.
 */
std::vector<Interval>
randomSpeIntervals(std::mt19937_64& rng, std::uint16_t core)
{
    auto pick = [&](std::uint64_t n) {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    };
    // A few tags carry most traffic so that waits cover commands.
    const std::uint32_t hot_tags = 1 + static_cast<std::uint32_t>(pick(6));
    auto randomTag = [&]() -> std::uint32_t {
        return static_cast<std::uint32_t>(pick(8) == 0 ? pick(32)
                                                       : pick(hot_tags));
    };
    auto randomMask = [&]() -> std::uint64_t {
        switch (pick(8)) {
          case 0:
            return 0;
          case 1:
            return std::uint64_t{1} << (32 + pick(32)); // low half empty
          case 2:
            return static_cast<std::uint32_t>(rng()); // any bits
          default: {
            std::uint64_t m = 0;
            for (std::uint64_t k = 1 + pick(3); k > 0; --k)
                m |= std::uint64_t{1} << randomTag();
            return m;
          }
        }
    };

    const std::uint64_t span = 20 + pick(400);
    const std::size_t n = pick(120);
    std::vector<Interval> out;
    for (std::size_t i = 0; i < n; ++i) {
        Interval iv;
        iv.core = core;
        iv.start_tb = pick(span);
        iv.end_tb = iv.start_tb + pick(4) * pick(30);
        switch (pick(5)) {
          case 0:
          case 1:
            iv.cls = IntervalClass::DmaCommand;
            iv.op = static_cast<rt::ApiOp>(
                static_cast<std::uint8_t>(rt::ApiOp::SpuMfcGet) + pick(8));
            iv.a = rng();
            iv.b = rng();
            iv.c = static_cast<std::uint32_t>(rng());
            // Bits above the tag are ignored by the matcher.
            iv.d = randomTag() | (pick(4) == 0 ? 0xFFFF'FFE0u : 0u);
            break;
          case 2:
          case 3:
            iv.cls = IntervalClass::DmaWait;
            iv.op = rt::ApiOp::SpuTagWaitAll;
            iv.a = randomMask();
            iv.end_b = pick(3) == 0 ? 0 : randomMask();
            break;
          default:
            iv.cls = pick(2) ? IntervalClass::Run : IntervalClass::MailboxWait;
            iv.a = randomMask();
            break;
        }
        out.push_back(iv);
    }
    // Some waits end exactly where a command was issued.
    for (std::size_t i = 0, n_cmd = out.size(); i < n_cmd; ++i) {
        if (out[i].cls != IntervalClass::DmaCommand || pick(4) != 0)
            continue;
        Interval w;
        w.cls = IntervalClass::DmaWait;
        w.op = rt::ApiOp::SpuTagWaitAll;
        w.core = core;
        w.end_tb = out[i].start_tb;
        w.start_tb = w.end_tb - std::min<std::uint64_t>(w.end_tb, pick(10));
        w.a = (std::uint64_t{1} << (out[i].d & 31u)) | randomMask();
        out.push_back(w);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Interval& x, const Interval& y) {
                         return x.start_tb < y.start_tb;
                     });
    return out;
}

void
countCoverage(const std::vector<Interval>& ivs,
              const std::vector<DmaTransfer>& ts, MatchCoverage& cov)
{
    std::vector<std::uint64_t> ends;
    std::vector<std::uint64_t> issues;
    for (const Interval& iv : ivs) {
        if (iv.cls == IntervalClass::DmaCommand)
            issues.push_back(iv.start_tb);
        if (iv.cls != IntervalClass::DmaWait)
            continue;
        const auto mask =
            static_cast<std::uint32_t>(iv.end_b ? iv.end_b : iv.a);
        cov.multi_bit_masks += std::popcount(mask) > 1;
        cov.end_b_fallbacks += iv.end_b == 0;
        cov.zero_masks += mask == 0;
        ends.push_back(iv.end_tb);
    }
    std::sort(ends.begin(), ends.end());
    cov.equal_end_ticks +=
        std::adjacent_find(ends.begin(), ends.end()) != ends.end();
    for (std::uint64_t t : issues)
        cov.ends_at_issue += std::binary_search(ends.begin(), ends.end(), t);
    for (const DmaTransfer& t : ts)
        cov.unobserved += !t.observed;
}

::testing::AssertionResult
sameTransfers(const std::vector<DmaTransfer>& got,
              const std::vector<DmaTransfer>& want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << got.size() << " transfers, oracle " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
        const DmaTransfer& g = got[i];
        const DmaTransfer& w = want[i];
        if (g.op != w.op || g.spe != w.spe || g.ls != w.ls ||
            g.ea != w.ea || g.size != w.size || g.tag != w.tag ||
            g.issue_tb != w.issue_tb || g.complete_tb != w.complete_tb ||
            g.observed != w.observed)
            return ::testing::AssertionFailure()
                   << "transfer " << i << ": tag " << g.tag << " issue "
                   << g.issue_tb << " -> complete " << g.complete_tb
                   << " observed " << g.observed << ", oracle tag "
                   << w.tag << " issue " << w.issue_tb << " -> complete "
                   << w.complete_tb << " observed " << w.observed;
    }
    return ::testing::AssertionSuccess();
}

TEST(DmaMatching, PerTagSearchEqualsTheWaitScanOnRandomIntervalSets)
{
    MatchCoverage cov;
    std::uint64_t transfers = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        std::mt19937_64 rng(seed);
        const auto n_spes = static_cast<std::uint32_t>(1 + rng() % 4);
        IntervalSet ivs;
        ivs.per_core.resize(n_spes + 1);
        for (std::uint32_t s = 0; s < n_spes; ++s) {
            ivs.per_core[s + 1] =
                randomSpeIntervals(rng, static_cast<std::uint16_t>(s + 1));
        }
        for (std::uint32_t s = 0; s < n_spes; ++s) {
            const std::vector<DmaTransfer> want = matchByScan(ivs, s);
            ASSERT_TRUE(sameTransfers(matchDmaTransfers(ivs, s), want))
                << "seed " << seed << " spe " << s;
            countCoverage(ivs.per_core[s + 1], want, cov);
            transfers += want.size();
        }
    }
    // Every corner of the matching rule was exercised.
    EXPECT_GT(transfers, 0u);
    EXPECT_GT(cov.multi_bit_masks, 0u);
    EXPECT_GT(cov.end_b_fallbacks, 0u);
    EXPECT_GT(cov.zero_masks, 0u);
    EXPECT_GT(cov.equal_end_ticks, 0u);
    EXPECT_GT(cov.ends_at_issue, 0u);
    EXPECT_GT(cov.unobserved, 0u);
    EXPECT_LT(cov.unobserved, transfers);
}

TEST(TraceStats, NoRunMeansNoBreakdown)
{
    TraceData t;
    t.header.num_spes = 2;
    t.header.core_hz = 3'200'000'000ULL;
    t.header.timebase_divider = 120;
    t.spe_programs.resize(2);
    const TraceModel m = TraceModel::build(t);
    const TraceStats st =
        TraceStats::build(m, IntervalSet::build(m));
    EXPECT_FALSE(st.spu[0].ran);
    EXPECT_FALSE(st.spu[1].ran);
    EXPECT_DOUBLE_EQ(st.loadImbalance(), 1.0);
    EXPECT_DOUBLE_EQ(st.overlapScore(0), 1.0);
}

} // namespace
} // namespace cell::ta
