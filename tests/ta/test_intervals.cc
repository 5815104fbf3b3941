/**
 * @file
 * Interval-matcher tests on hand-built event streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

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

/** Corner cases the oracle met, counted so the property test can show
 *  that every one of them occurred. */
struct MatchCorners
{
    std::uint64_t equal_ticks = 0;        ///< consecutive events, one tick
    std::uint64_t replaced_begins = 0;    ///< Begin over a pending Begin
    std::uint64_t ends_without_begin = 0; ///< End with nothing pending
    std::uint64_t other_ops = 0;          ///< zero-length Other intervals
    std::uint64_t repeated_starts = 0;    ///< SpuStart over an open run
    std::uint64_t stops_without_start = 0;
    std::uint64_t phantom_ends = 0;       ///< End consumed by a phantom
    std::uint64_t phantom_stops = 0;      ///< SpuStop of a phantom run
    std::uint64_t stopped_replays = 0;    ///< pendingIn stopped the feed
    std::uint64_t unordered_feeds = 0;    ///< times not non-decreasing
    /** Equal starts whose End order differs from their Begin order. */
    std::uint64_t reordered_ties = 0;
};

/**
 * The matcher as it was before output slots: each interval is appended
 * when it ends and take() stable-sorts by start, so at equal starts End
 * order wins. The oracle of the slot-reserving IntervalMatcher. It also
 * remembers at which fed event each interval started, to count ties
 * whose End order differs from their start order.
 */
class EmitAtEndMatcher
{
  public:
    EmitAtEndMatcher(std::uint16_t core, std::uint64_t phantom_ops,
                     bool phantom_run, MatchCorners& corners)
        : core_(core), phantom_ops_(phantom_ops), phantom_run_(phantom_run),
          corners_(corners)
    {
    }

    void
    feed(const Event& ev)
    {
        const std::uint64_t at = fed_++;
        final_epoch_ = ev.epoch;
        if (ev.isToolRecord() || !ev.isKnownOp())
            return;
        const rt::ApiOp op = ev.op();

        if (op == rt::ApiOp::SpuStart) {
            corners_.repeated_starts += run_start_ ? 1 : 0;
            run_start_ = ev;
            run_start_at_ = at;
            phantom_run_ = false;
            return;
        }
        if (op == rt::ApiOp::SpuStop) {
            if (!run_start_ && phantom_run_) {
                corners_.phantom_stops += 1;
                phantom_run_ = false;
                return;
            }
            corners_.stops_without_start += run_start_ ? 0 : 1;
            Interval run;
            run.cls = IntervalClass::Run;
            run.op = rt::ApiOp::SpuStart;
            run.core = core_;
            run.start_tb = run_start_ ? run_start_->time_tb : ev.time_tb;
            run.end_tb = ev.time_tb;
            run.a = ev.a;
            run.truncated = !run_start_;
            run.gap = run_start_ && run_start_->epoch != ev.epoch;
            out_.push_back({run, run_start_ ? run_start_at_ : at});
            run_start_.reset();
            return;
        }

        const auto idx = static_cast<std::size_t>(op);
        const std::uint64_t bit = std::uint64_t{1} << idx;
        if (ev.isBegin()) {
            const IntervalClass cls = classifyOp(op);
            if (cls == IntervalClass::Other) {
                corners_.other_ops += 1;
                Interval i;
                i.cls = cls;
                i.op = op;
                i.core = core_;
                i.start_tb = i.end_tb = ev.time_tb;
                i.a = ev.a;
                i.b = ev.b;
                i.c = ev.c;
                i.d = ev.d;
                out_.push_back({i, at});
            } else {
                corners_.replaced_begins += pending_[idx] ? 1 : 0;
                pending_[idx] = ev;
                pending_at_[idx] = at;
                phantom_ops_ &= ~bit;
            }
            return;
        }

        Interval i;
        i.cls = classifyOp(op);
        i.op = op;
        i.core = core_;
        std::uint64_t started = at;
        if (pending_[idx]) {
            const Event& b = *pending_[idx];
            i.start_tb = b.time_tb;
            i.a = b.a;
            i.b = b.b;
            i.c = b.c;
            i.d = b.d;
            i.gap = b.epoch != ev.epoch;
            started = pending_at_[idx];
            pending_[idx].reset();
        } else if (phantom_ops_ & bit) {
            corners_.phantom_ends += 1;
            phantom_ops_ &= ~bit;
            return;
        } else {
            corners_.ends_without_begin += 1;
            i.start_tb = ev.time_tb;
            i.truncated = true;
        }
        i.end_tb = ev.time_tb;
        i.end_b = ev.b;
        out_.push_back({i, started});
    }

    void
    finish(std::uint64_t last_time)
    {
        for (std::size_t k = 0; k < pending_.size(); ++k) {
            const std::optional<Event>& p = pending_[k];
            if (!p)
                continue;
            Interval i;
            i.cls = classifyOp(p->op());
            i.op = p->op();
            i.core = core_;
            i.start_tb = p->time_tb;
            i.end_tb = last_time;
            i.a = p->a;
            i.b = p->b;
            i.c = p->c;
            i.d = p->d;
            i.truncated = true;
            i.gap = p->epoch != final_epoch_;
            out_.push_back({i, pending_at_[k]});
        }
        if (run_start_) {
            Interval run;
            run.cls = IntervalClass::Run;
            run.op = rt::ApiOp::SpuStart;
            run.core = core_;
            run.start_tb = run_start_->time_tb;
            run.end_tb = last_time;
            run.truncated = true;
            run.gap = run_start_->epoch != final_epoch_;
            out_.push_back({run, run_start_at_});
        }
    }

    bool
    pendingIn(std::uint64_t from, std::uint64_t to) const
    {
        for (const auto& p : pending_) {
            if (p && p->time_tb >= from && p->time_tb < to)
                return true;
        }
        return run_start_ && run_start_->time_tb >= from &&
               run_start_->time_tb < to;
    }

    std::vector<Interval>
    take()
    {
        std::stable_sort(out_.begin(), out_.end(),
                         [](const Emitted& x, const Emitted& y) {
                             return x.iv.start_tb < y.iv.start_tb;
                         });
        std::vector<Interval> ivs;
        for (std::size_t k = 0; k < out_.size(); ++k) {
            if (k > 0 && out_[k].iv.start_tb == out_[k - 1].iv.start_tb &&
                out_[k].started < out_[k - 1].started)
                corners_.reordered_ties += 1;
            ivs.push_back(out_[k].iv);
        }
        return ivs;
    }

  private:
    struct Emitted
    {
        Interval iv;
        std::uint64_t started; ///< index of the event it started at
    };

    std::uint16_t core_;
    std::uint64_t phantom_ops_;
    bool phantom_run_;
    MatchCorners& corners_;
    std::array<std::optional<Event>, rt::kNumApiOps> pending_;
    std::array<std::uint64_t, rt::kNumApiOps> pending_at_{};
    std::optional<Event> run_start_;
    std::uint64_t run_start_at_ = 0;
    std::uint32_t final_epoch_ = 0;
    std::uint64_t fed_ = 0;
    std::vector<Emitted> out_;
};

/** A random event stream for one core: few ops, so Begins collide and
 *  Ends go unmatched; coarse steps, so ticks repeat. Non-decreasing
 *  times unless @p ordered is false. */
std::vector<Event>
randomStream(std::mt19937_64& rng, std::uint16_t core, bool ordered)
{
    static constexpr rt::ApiOp kPendable[] = {
        rt::ApiOp::SpuMfcGet, rt::ApiOp::SpuTagWaitAll,
        rt::ApiOp::SpuMboxRead, rt::ApiOp::PpeMboxWrite};
    static constexpr rt::ApiOp kOther[] = {rt::ApiOp::SpuUserEvent,
                                           rt::ApiOp::SpuDecrRead};
    static constexpr std::uint64_t kSteps[] = {0, 0, 0, 1, 2, 7, 40};
    std::vector<Event> evs(rng() % 160);
    std::uint64_t t = rng() % 1000;
    std::uint32_t epoch = 0;
    for (Event& ev : evs) {
        t = ordered ? t + kSteps[rng() % std::size(kSteps)] : rng() % 300;
        epoch += rng() % 20 == 0 ? 1 : 0;
        ev.time_tb = t;
        ev.core = core;
        ev.epoch = epoch;
        ev.a = rng() % 5;
        ev.b = rng() % 5;
        ev.c = static_cast<std::uint32_t>(rng() % 5);
        ev.d = static_cast<std::uint32_t>(rng() % 5);
        ev.phase = trace::kPhaseBegin;
        const unsigned r = rng() % 100;
        rt::ApiOp op = kPendable[rng() % std::size(kPendable)];
        if (r < 8) {
            op = rt::ApiOp::SpuStart;
        } else if (r < 16) {
            op = rt::ApiOp::SpuStop;
        } else if (r < 26) {
            op = kOther[rng() % std::size(kOther)];
        } else if (r < 29) {
            ev.kind = rng() % 2 ? trace::kSyncRecord : trace::kDropRecord;
            continue;
        } else if (r < 31) {
            ev.kind = static_cast<std::uint8_t>(rt::kNumApiOps + rng() % 8);
            continue;
        } else if (r < 62) {
            ev.phase = trace::kPhaseEnd;
        }
        ev.kind = static_cast<std::uint8_t>(op);
    }
    return evs;
}

TEST(Intervals, SlotMatcherEqualsEmitAtEndOracleOnRandomStreams)
{
    MatchCorners cov;
    std::uint64_t intervals = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        std::mt19937_64 rng(seed);
        const auto core = static_cast<std::uint16_t>(rng() % 3);
        const bool ordered = rng() % 8 != 0;
        const std::vector<Event> evs = randomStream(rng, core, ordered);
        const std::uint64_t phantom_ops =
            rng() % 3 == 0 ? rng() & pendableOpsMask() : 0;
        const bool phantom_run = rng() % 3 == 0;
        // A third of the streams replay a window the way
        // queryWindowFile does: stop once past it with nothing that
        // started inside it still pending, and skip finish().
        const bool windowed = rng() % 3 == 0;
        const std::uint64_t from = evs.empty() ? 0 : evs[rng() % evs.size()].time_tb;
        const std::uint64_t to = from + rng() % 60;

        IntervalMatcher slots(core, phantom_ops, phantom_run);
        EmitAtEndMatcher oracle(core, phantom_ops, phantom_run, cov);
        bool stopped = false;
        for (std::size_t k = 0; k < evs.size() && !stopped; ++k) {
            cov.equal_ticks +=
                k > 0 && evs[k].time_tb == evs[k - 1].time_tb ? 1 : 0;
            cov.unordered_feeds +=
                k > 0 && evs[k].time_tb < evs[k - 1].time_tb ? 1 : 0;
            slots.feed(evs[k]);
            oracle.feed(evs[k]);
            ASSERT_EQ(slots.pendingIn(from, to), oracle.pendingIn(from, to))
                << "seed " << seed << " event " << k;
            stopped = windowed && evs[k].time_tb >= to &&
                      !oracle.pendingIn(from, to);
        }
        if (stopped) {
            cov.stopped_replays += 1;
        } else {
            const std::uint64_t last = evs.empty() ? 0 : evs.back().time_tb;
            slots.finish(last);
            oracle.finish(last);
        }
        const std::vector<Interval> want = oracle.take();
        ASSERT_TRUE(slots.take() == want) << "seed " << seed;
        intervals += want.size();
    }
    // Every corner of the matching rules was exercised.
    EXPECT_GT(intervals, 0u);
    EXPECT_GT(cov.equal_ticks, 0u);
    EXPECT_GT(cov.replaced_begins, 0u);
    EXPECT_GT(cov.ends_without_begin, 0u);
    EXPECT_GT(cov.other_ops, 0u);
    EXPECT_GT(cov.repeated_starts, 0u);
    EXPECT_GT(cov.stops_without_start, 0u);
    EXPECT_GT(cov.phantom_ends, 0u);
    EXPECT_GT(cov.phantom_stops, 0u);
    EXPECT_GT(cov.stopped_replays, 0u);
    EXPECT_GT(cov.unordered_feeds, 0u);
    EXPECT_GT(cov.reordered_ties, 0u);
}

TEST(Intervals, ClassNamesAreStable)
{
    EXPECT_STREQ(intervalClassName(IntervalClass::Run), "RUN");
    EXPECT_STREQ(intervalClassName(IntervalClass::DmaWait), "DMA_WAIT");
    EXPECT_STREQ(intervalClassName(IntervalClass::MailboxWait), "MBOX_WAIT");
}

} // namespace
} // namespace cell::ta
