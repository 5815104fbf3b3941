/**
 * @file
 * Interval-matcher tests on hand-built event streams.
 */

#include <gtest/gtest.h>

#include "ta/analyzer.h"
#include "ta/intervals.h"

namespace cell::ta {
namespace {

using trace::Record;
using trace::TraceData;

struct StreamBuilder
{
    TraceData t;

    explicit StreamBuilder(std::uint32_t spes = 1)
    {
        t.header.num_spes = spes;
        t.header.core_hz = 3'200'000'000ULL;
        t.header.timebase_divider = 120;
        t.spe_programs.resize(spes);
        // One sync per core at tb 0 with an up-counting raw clock so
        // raw == tb for PPE; SPE uses a down counter from 10^6.
        Record ppe_sync{};
        ppe_sync.kind = trace::kSyncRecord;
        ppe_sync.core = 0;
        ppe_sync.a = 0;
        ppe_sync.b = 0;
        t.records.push_back(ppe_sync);
        for (std::uint32_t s = 0; s < spes; ++s) {
            Record sync{};
            sync.kind = trace::kSyncRecord;
            sync.core = static_cast<std::uint16_t>(s + 1);
            sync.timestamp = 1'000'000;
            sync.a = 1'000'000;
            sync.b = 0;
            t.records.push_back(sync);
        }
    }

    /** Append an SPE event at timebase @p tb. */
    StreamBuilder&
    spu(std::uint32_t spe, std::uint64_t tb, rt::ApiOp op,
        trace::Record proto = {})
    {
        Record r = proto;
        r.kind = static_cast<std::uint8_t>(op);
        r.core = static_cast<std::uint16_t>(spe + 1);
        r.timestamp = static_cast<std::uint32_t>(1'000'000 - tb);
        t.records.push_back(r);
        return *this;
    }

    StreamBuilder&
    begin(std::uint32_t spe, std::uint64_t tb, rt::ApiOp op,
          std::uint64_t a = 0, std::uint32_t c = 0, std::uint32_t d = 0)
    {
        Record proto{};
        proto.phase = trace::kPhaseBegin;
        proto.a = a;
        proto.c = c;
        proto.d = d;
        return spu(spe, tb, op, proto);
    }

    StreamBuilder&
    end(std::uint32_t spe, std::uint64_t tb, rt::ApiOp op,
        std::uint64_t b = 0)
    {
        Record proto{};
        proto.phase = trace::kPhaseEnd;
        proto.b = b;
        return spu(spe, tb, op, proto);
    }

    IntervalSet build() const
    {
        return IntervalSet::build(TraceModel::build(t));
    }
};

TEST(Intervals, MatchesBeginEndPairs)
{
    StreamBuilder sb;
    sb.begin(0, 100, rt::ApiOp::SpuTagWaitAll, 0xF)
      .end(0, 250, rt::ApiOp::SpuTagWaitAll, 0xF);
    const IntervalSet ivs = sb.build();
    const auto waits = ivs.select(1, IntervalClass::DmaWait);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_EQ(waits[0].start_tb, 100u);
    EXPECT_EQ(waits[0].end_tb, 250u);
    EXPECT_EQ(waits[0].duration(), 150u);
    EXPECT_EQ(waits[0].a, 0xFu);
    EXPECT_EQ(waits[0].end_b, 0xFu);
    EXPECT_FALSE(waits[0].truncated);
}

TEST(Intervals, RunIntervalFromStartStop)
{
    StreamBuilder sb;
    sb.begin(0, 10, rt::ApiOp::SpuStart)
      .begin(0, 500, rt::ApiOp::SpuStop, /*exit code*/ 3);
    const IntervalSet ivs = sb.build();
    const Interval* run = ivs.spuRun(0);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->start_tb, 10u);
    EXPECT_EQ(run->end_tb, 500u);
    EXPECT_EQ(run->a, 3u);
}

TEST(Intervals, SingleMarkerOpsAreZeroLength)
{
    StreamBuilder sb;
    sb.begin(0, 42, rt::ApiOp::SpuUserEvent, 7);
    const IntervalSet ivs = sb.build();
    const auto others = ivs.select(1, IntervalClass::Other);
    ASSERT_EQ(others.size(), 1u);
    EXPECT_EQ(others[0].start_tb, others[0].end_tb);
    EXPECT_EQ(others[0].a, 7u);
}

TEST(Intervals, DanglingBeginIsClosedAtTraceEnd)
{
    StreamBuilder sb;
    sb.begin(0, 100, rt::ApiOp::SpuMboxRead)
      .begin(0, 400, rt::ApiOp::SpuUserEvent); // trace ends at 400
    const IntervalSet ivs = sb.build();
    const auto waits = ivs.select(1, IntervalClass::MailboxWait);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_TRUE(waits[0].truncated);
    EXPECT_EQ(waits[0].end_tb, 400u);
}

TEST(Intervals, EndWithoutBeginDegradesGracefully)
{
    StreamBuilder sb;
    sb.end(0, 100, rt::ApiOp::SpuTagWaitAll, 1);
    const IntervalSet ivs = sb.build();
    const auto waits = ivs.select(1, IntervalClass::DmaWait);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_TRUE(waits[0].truncated);
    EXPECT_EQ(waits[0].duration(), 0u);
}

TEST(Intervals, DifferentOpsInterleaveIndependently)
{
    StreamBuilder sb;
    sb.begin(0, 10, rt::ApiOp::SpuMfcGet, 0, 4096, 2)
      .end(0, 20, rt::ApiOp::SpuMfcGet)
      .begin(0, 20, rt::ApiOp::SpuMfcPut, 0, 2048, 3)
      .begin(0, 25, rt::ApiOp::SpuTagWaitAll, 0xC)
      .end(0, 30, rt::ApiOp::SpuMfcPut)
      .end(0, 90, rt::ApiOp::SpuTagWaitAll, 0x4);
    const IntervalSet ivs = sb.build();
    EXPECT_EQ(ivs.select(1, IntervalClass::DmaCommand).size(), 2u);
    const auto waits = ivs.select(1, IntervalClass::DmaWait);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_EQ(waits[0].duration(), 65u);
}

TEST(Intervals, SortedByStartTime)
{
    StreamBuilder sb;
    sb.begin(0, 50, rt::ApiOp::SpuMfcGet).end(0, 60, rt::ApiOp::SpuMfcGet)
      .begin(0, 10, rt::ApiOp::SpuUserEvent) // out-of-order stamp gets
                                             // clamped by the model
      .begin(0, 70, rt::ApiOp::SpuMfcPut).end(0, 80, rt::ApiOp::SpuMfcPut);
    const IntervalSet ivs = sb.build();
    std::uint64_t prev = 0;
    for (const Interval& iv : ivs.per_core[1]) {
        EXPECT_GE(iv.start_tb, prev);
        prev = iv.start_tb;
    }
}

TEST(Intervals, ToolRecordsAreIgnored)
{
    StreamBuilder sb;
    Record flush{};
    flush.kind = trace::kFlushRecord;
    flush.core = 1;
    flush.timestamp = 1'000'000 - 30;
    sb.begin(0, 10, rt::ApiOp::SpuMfcGet);
    sb.t.records.push_back(flush);
    sb.end(0, 50, rt::ApiOp::SpuMfcGet);
    const IntervalSet ivs = sb.build();
    const auto cmds = ivs.select(1, IntervalClass::DmaCommand);
    ASSERT_EQ(cmds.size(), 1u);
    EXPECT_EQ(cmds[0].duration(), 40u);
}

TEST(Intervals, PpeCallsClassified)
{
    StreamBuilder sb;
    Record proto{};
    proto.phase = trace::kPhaseBegin;
    Record r = proto;
    r.kind = static_cast<std::uint8_t>(rt::ApiOp::PpeMboxRead);
    r.core = 0;
    r.timestamp = 100;
    sb.t.records.push_back(r);
    r.phase = trace::kPhaseEnd;
    r.timestamp = 300;
    sb.t.records.push_back(r);
    const IntervalSet ivs = sb.build();
    const auto calls = ivs.select(0, IntervalClass::PpeCall);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].duration(), 200u);
}

TEST(Intervals, FullBuildKeepsIntervalsStartingAtTheLastTick)
{
    // A sync record's timebase field is not validated, so a stream can
    // place events at UINT64_MAX. The full build takes no window, so it
    // keeps them: "no window" is not the window [0, UINT64_MAX).
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    StreamBuilder sb;
    Record sync{};
    sync.kind = trace::kSyncRecord;
    sync.core = 1;
    sync.timestamp = 500;
    sync.a = 500;
    sync.b = kMax;
    sb.t.records.push_back(sync);
    Record r{};
    r.core = 1;
    r.timestamp = 500; // zero delta from the sync: placed at kMax
    r.kind = static_cast<std::uint8_t>(rt::ApiOp::SpuTagWaitAll);
    r.phase = trace::kPhaseBegin;
    sb.t.records.push_back(r);
    r.phase = trace::kPhaseEnd;
    sb.t.records.push_back(r);
    r.kind = static_cast<std::uint8_t>(rt::ApiOp::SpuUserEvent);
    r.phase = trace::kPhaseBegin;
    sb.t.records.push_back(r);

    for (const IntervalSet& ivs :
         {sb.build(), analyze(sb.t, {.threads = 2}).intervals}) {
        const auto waits = ivs.select(1, IntervalClass::DmaWait);
        ASSERT_EQ(waits.size(), 1u);
        EXPECT_EQ(waits[0].start_tb, kMax);
        EXPECT_EQ(waits[0].end_tb, kMax);
        EXPECT_FALSE(waits[0].truncated);
        const auto others = ivs.select(1, IntervalClass::Other);
        ASSERT_EQ(others.size(), 1u);
        EXPECT_EQ(others[0].start_tb, kMax);
    }
}

TEST(Intervals, ClassNamesAreStable)
{
    EXPECT_STREQ(intervalClassName(IntervalClass::Run), "RUN");
    EXPECT_STREQ(intervalClassName(IntervalClass::DmaWait), "DMA_WAIT");
    EXPECT_STREQ(intervalClassName(IntervalClass::MailboxWait), "MBOX_WAIT");
}

} // namespace
} // namespace cell::ta
