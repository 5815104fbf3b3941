/**
 * @file
 * Trace surgery unit suite: slice / splice / filter semantics and the
 * scenario generator, checked in memory against the analyzer's own
 * reference paths. The heavyweight cross-container / cross-thread
 * differential matrix lives in tests/ta/test_surgery_diff.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ta/analyzer.h"
#include "ta/intervals.h"
#include "ta/query.h"
#include "trace/format.h"
#include "trace/gen.h"
#include "trace/reader.h"
#include "trace/surgery.h"
#include "trace/writer.h"

namespace cell {
namespace {

using trace::Record;
using trace::TraceData;

/** Windowed report of an in-memory trace (the byte-compare artifact). */
std::string
winRep(const TraceData& d, std::uint64_t from, std::uint64_t to,
       bool lenient = false)
{
    const ta::Analysis a = ta::analyze(d, {.salvage = lenient});
    return ta::windowReport(ta::queryWindow(a, from, to));
}

Record
syncRec(std::uint16_t core, std::uint32_t raw, std::uint64_t tb)
{
    Record r{};
    r.kind = trace::kSyncRecord;
    r.core = core;
    r.timestamp = raw;
    r.a = raw;
    r.b = tb;
    return r;
}

Record
opRec(std::uint16_t core, std::uint8_t kind, std::uint8_t phase,
      std::uint32_t ts, std::uint64_t a = 0)
{
    Record r{};
    r.kind = kind;
    r.phase = phase;
    r.core = core;
    r.timestamp = ts;
    r.a = a;
    return r;
}

/** A hand-built 1-SPE trace with drops, an overwritten Begin, a
 *  backward re-sync (clamp work), and a cross-window pending. */
TraceData
handTrace()
{
    TraceData d;
    d.header.num_spes = 1;
    d.header.core_hz = 3'200'000'000ull;
    d.header.timebase_divider = 8;
    d.spe_programs = {"hand"};

    // PPE: up-counter, sync at raw 1000 == tb 1000.
    d.records.push_back(syncRec(0, 1000, 1000));
    d.records.push_back(opRec(0, 22, trace::kPhaseBegin, 1100)); // PpeContextCreate
    d.records.push_back(opRec(0, 22, trace::kPhaseEnd, 1400));
    // Drop on PPE: epoch 1 from here.
    {
        Record r{};
        r.kind = trace::kDropRecord;
        r.core = 0;
        r.timestamp = 1500;
        r.a = 7;
        r.b = 7;
        d.records.push_back(r);
    }
    d.records.push_back(opRec(0, 25, trace::kPhaseBegin, 1600)); // PpeMboxWrite
    d.records.push_back(opRec(0, 25, trace::kPhaseEnd, 2600));

    // SPE 0: down-counter, sync raw 5000 == tb 1000.
    d.records.push_back(syncRec(1, 5000, 1000));
    d.records.push_back(opRec(1, 17, trace::kPhaseBegin, 5000 - 50)); // SpuStart
    d.records.push_back(opRec(1, 0, trace::kPhaseBegin, 5000 - 200)); // MfcGet
    d.records.push_back(opRec(1, 0, trace::kPhaseBegin, 5000 - 300)); // overwrite
    d.records.push_back(opRec(1, 0, trace::kPhaseEnd, 5000 - 700));
    // Backward re-sync: next events place behind the clamp carry.
    d.records.push_back(syncRec(1, 9000, 1500));
    d.records.push_back(opRec(1, 9, trace::kPhaseBegin, 9000 - 100)); // TagWaitAny
    d.records.push_back(opRec(1, 9, trace::kPhaseEnd, 9000 - 1200));
    d.records.push_back(opRec(1, 18, trace::kPhaseBegin, 9000 - 1300)); // SpuStop
    d.header.record_count = d.records.size();
    return d;
}

// ---------------------------------------------------------------------------
// slice
// ---------------------------------------------------------------------------

TEST(Slice, WindowedReportMatchesOriginalOnHandTrace)
{
    const TraceData d = handTrace();
    const auto sem = ta::surgeryOpSemantics();
    const ta::Analysis a = ta::analyze(d);
    const std::uint64_t s = a.model.startTb();
    const std::uint64_t e = a.model.endTb() + 1;
    // Sweep every window over a grid fine enough to hit each edge:
    // mid-interval cuts, epoch boundaries, the backward-sync clamp.
    for (std::uint64_t from = s; from <= e; from += 100) {
        for (std::uint64_t to = from; to <= e; to += 150) {
            const TraceData sl = trace::slice(d, from, to, sem);
            EXPECT_EQ(winRep(sl, from, to), winRep(d, from, to))
                << "window [" << from << ", " << to << ")";
        }
    }
}

TEST(Slice, CrossWindowPendingIsReopenedByPreamble)
{
    // A Begin before the window whose End lands inside it: without
    // the preamble Begin the slice would emit a spurious truncated
    // interval starting inside the window.
    const TraceData d = handTrace();
    const auto sem = ta::surgeryOpSemantics();
    // PPE PpeMboxWrite spans [1600, 2600); cut the window at 2000.
    const TraceData sl = trace::slice(d, 2000, 3000, sem);
    EXPECT_EQ(winRep(sl, 2000, 3000), winRep(d, 2000, 3000));
}

TEST(Slice, EmptyWindowIsValidAndEmpty)
{
    const TraceData d = handTrace();
    const TraceData sl =
        trace::slice(d, 1234, 1234, ta::surgeryOpSemantics());
    EXPECT_EQ(winRep(sl, 1234, 1234), winRep(d, 1234, 1234));
}

TEST(Slice, WholeRangeSliceKeepsFullAnalysis)
{
    const TraceData d = handTrace();
    const TraceData sl =
        trace::slice(d, 0, ~std::uint64_t{0}, ta::surgeryOpSemantics());
    const std::string full = ta::fullReport(ta::analyze(d));
    EXPECT_EQ(ta::fullReport(ta::analyze(sl)), full);
}

TEST(Slice, InvertedWindowThrows)
{
    EXPECT_THROW(
        trace::slice(handTrace(), 10, 5, ta::surgeryOpSemantics()),
        std::invalid_argument);
}

TEST(Slice, StrictThrowsOnPreSyncRecord)
{
    TraceData d = handTrace();
    Record stray = opRec(0, 3, trace::kPhaseBegin, 900);
    d.records.insert(d.records.begin(), stray);
    EXPECT_THROW(trace::slice(d, 0, ~std::uint64_t{0},
                              ta::surgeryOpSemantics()),
                 std::runtime_error);
}

TEST(Slice, LenientKeepsSkipAccounting)
{
    TraceData d = handTrace();
    // Two pre-sync strays and one bad-core record: lenient analysis
    // skips all three.
    d.records.insert(d.records.begin(),
                     opRec(0, 3, trace::kPhaseBegin, 900));
    d.records.insert(d.records.begin(),
                     opRec(1, 4, trace::kPhaseEnd, 4000));
    Record bad = opRec(0, 5, trace::kPhaseBegin, 2000);
    bad.core = 9;
    d.records.push_back(bad);

    trace::SliceOptions sopt;
    sopt.lenient = true;
    const TraceData sl =
        trace::slice(d, 1200, 2200, ta::surgeryOpSemantics(), sopt);
    EXPECT_EQ(ta::analyze(sl, {.salvage = true}).model.leniencySkipped(), 3u);
    EXPECT_EQ(winRep(sl, 1200, 2200, true), winRep(d, 1200, 2200, true));
}

TEST(Slice, FileRoundTripAcrossContainers)
{
    const TraceData d = handTrace();
    const TraceData sl =
        trace::slice(d, 1200, 2200, ta::surgeryOpSemantics());
    for (int container = 1; container <= 3; ++container) {
        trace::WriteOptions w;
        if (container >= 2)
            w.index_stride = 4;
        if (container == 3)
            w.compress = true;
        const auto bytes = trace::writeBuffer(sl, w);
        const TraceData back = trace::readBuffer(bytes);
        EXPECT_EQ(winRep(back, 1200, 2200), winRep(d, 1200, 2200))
            << "container v" << container;
    }
}

// ---------------------------------------------------------------------------
// splice
// ---------------------------------------------------------------------------

TEST(Splice, CutRoundTripsHandTrace)
{
    const TraceData d = handTrace();
    const auto sem = ta::surgeryOpSemantics();
    const ta::Analysis a = ta::analyze(d);
    const std::uint64_t m = (a.model.startTb() + a.model.endTb()) / 2;

    const TraceData lo = trace::slice(d, 0, m, sem);
    const TraceData hi = trace::slice(d, m, ~std::uint64_t{0}, sem);
    trace::SpliceOptions sopt;
    sopt.cuts = {m};
    const TraceData back = trace::splice({lo, hi}, sopt);

    // A cut splice of a from-zero slice pair reassembles the original
    // record-for-record per core: the full reports agree, not just a
    // window.
    EXPECT_EQ(ta::fullReport(ta::analyze(back)),
              ta::fullReport(ta::analyze(d)));
}

TEST(Splice, RejectsBadShapes)
{
    const TraceData d = handTrace();
    EXPECT_THROW(trace::splice({}), std::invalid_argument);

    trace::SpliceOptions one_cut_too_many;
    one_cut_too_many.cuts = {5, 10};
    EXPECT_THROW(trace::splice({d, d}, one_cut_too_many),
                 std::invalid_argument);

    TraceData other = d;
    other.header.num_spes = 3;
    EXPECT_THROW(trace::splice({d, other}), std::invalid_argument);

    TraceData slow = d;
    slow.header.core_hz = 1'000'000ull;
    EXPECT_THROW(trace::splice({d, slow}), std::invalid_argument);

    trace::SpliceOptions both;
    both.align = true;
    both.offsets = {0, 0};
    EXPECT_THROW(trace::splice({d, d}, both), std::invalid_argument);
}

TEST(Splice, BladesRemapsCoresAndPreservesPerCoreAnalysis)
{
    trace::gen::GenOptions g1;
    g1.seed = 42;
    g1.scenario = static_cast<int>(trace::gen::Scenario::Basic);
    g1.num_spes = 2;
    trace::gen::GenOptions g2 = g1;
    g2.seed = 43;
    g2.num_spes = 1;
    const TraceData a = trace::gen::generate(g1);
    const TraceData b = trace::gen::generate(g2);

    trace::SpliceOptions sopt;
    sopt.blades = true;
    const TraceData merged = trace::splice({a, b}, sopt);
    // blade 0: cores 0..2 kept; blade 1: PPE -> core 3, SPE0 -> core 4.
    EXPECT_EQ(merged.header.num_spes, 4u);

    const ta::Analysis ma = ta::analyze(merged);
    const ta::Analysis aa = ta::analyze(a);
    const ta::Analysis ab = ta::analyze(b);
    ASSERT_EQ(ma.model.cores().size(), 5u);
    for (std::uint16_t c = 0; c < 3; ++c) {
        EXPECT_EQ(ma.model.cores()[c].events.size(),
                  aa.model.cores()[c].events.size())
            << "blade 0 core " << c;
    }
    for (std::uint16_t c = 0; c < 2; ++c) {
        const auto& src = ab.model.cores()[c].events;
        const auto& dst = ma.model.cores()[3 + c].events;
        ASSERT_EQ(dst.size(), src.size()) << "blade 1 core " << c;
        for (std::size_t i = 0; i < src.size(); ++i) {
            EXPECT_EQ(dst[i].time_tb, src[i].time_tb);
            EXPECT_EQ(dst[i].kind, src[i].kind);
            EXPECT_EQ(dst[i].epoch, src[i].epoch);
        }
    }
    // Interval structure survives the remap (incl. the reflected PPE
    // clock on blade 1's core 3).
    for (std::uint16_t c = 0; c < 2; ++c) {
        const auto& src = ab.intervals.per_core[c];
        const auto& dst = ma.intervals.per_core[3 + c];
        ASSERT_EQ(dst.size(), src.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            EXPECT_EQ(dst[i].start_tb, src[i].start_tb);
            EXPECT_EQ(dst[i].end_tb, src[i].end_tb);
            EXPECT_EQ(dst[i].op, src[i].op);
        }
    }
}

TEST(Splice, AlignShiftsEveryInputToACommonStart)
{
    trace::gen::GenOptions g;
    g.seed = 7;
    g.scenario = static_cast<int>(trace::gen::Scenario::Basic);
    g.num_spes = 1;
    const TraceData a = trace::gen::generate(g);
    g.seed = 8;
    const TraceData b = trace::gen::generate(g);

    trace::SpliceOptions sopt;
    sopt.blades = true;
    sopt.align = true;
    const TraceData merged = trace::splice({a, b}, sopt);
    const ta::Analysis ma = ta::analyze(merged);
    const std::uint64_t ref =
        std::max(ta::analyze(a).model.startTb(),
                 ta::analyze(b).model.startTb());
    EXPECT_EQ(ma.model.startTb(), ref);
}

// ---------------------------------------------------------------------------
// filter
// ---------------------------------------------------------------------------

/** Reference restriction: keep events of the chosen cores/kinds on the
 *  original model, rebuild intervals, keep the leniency count. */
std::string
restrictedReport(const TraceData& d, const std::vector<std::uint16_t>& cores,
                 std::uint64_t kind_mask, bool lenient = false)
{
    const ta::Analysis a = ta::analyze(d, {.salvage = lenient});
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
}

std::string
filteredReport(const TraceData& d, const trace::FilterOptions& fopt)
{
    const TraceData f = trace::filter(d, fopt);
    const ta::Analysis a = ta::analyze(f, {.salvage = fopt.lenient});
    return ta::windowReport(ta::queryWindow(a, 0, ~std::uint64_t{0}));
}

TEST(Filter, CoreRestrictionMatchesReference)
{
    const TraceData d = handTrace();
    for (const std::vector<std::uint16_t>& cores :
         {std::vector<std::uint16_t>{0}, std::vector<std::uint16_t>{1},
          std::vector<std::uint16_t>{0, 1}}) {
        trace::FilterOptions fopt;
        fopt.cores = cores;
        EXPECT_EQ(filteredReport(d, fopt),
                  restrictedReport(d, cores, ~std::uint64_t{0}))
            << "cores " << cores.size();
    }
}

TEST(Filter, KindRestrictionMatchesReference)
{
    const TraceData d = handTrace();
    const std::uint64_t unknown_bits = ~std::uint64_t{0} << 33;
    const std::vector<std::uint64_t> masks = {
        (1ull << 0) | (1ull << 9) | unknown_bits,     // dma only
        ((1ull << 17) | (1ull << 18)) | unknown_bits, // lifecycle
        (1ull << 22) | (1ull << 25) | unknown_bits,   // ppe calls
        unknown_bits,                                 // nothing known
    };
    for (const std::uint64_t mask : masks) {
        trace::FilterOptions fopt;
        fopt.kind_mask = mask;
        EXPECT_EQ(filteredReport(d, fopt), restrictedReport(d, {}, mask))
            << "mask " << mask;
    }
}

TEST(Filter, DroppedClampCarrierDoesNotMoveSurvivors)
{
    // The second Begin (kind 0) carries the clamp maximum on SPE0 in
    // handTrace (the backward re-sync places later records behind it);
    // filtering kind 0 out must not let the survivors spring back.
    const TraceData d = handTrace();
    trace::FilterOptions fopt;
    fopt.kind_mask = ~(1ull << 0);
    EXPECT_EQ(filteredReport(d, fopt),
              restrictedReport(d, {}, ~(1ull << 0)));
}

TEST(Filter, ToolRecordsAlwaysSurvive)
{
    const TraceData d = handTrace();
    trace::FilterOptions fopt;
    fopt.kind_mask = 0; // drop every maskable kind
    const TraceData f = trace::filter(d, fopt);
    std::size_t syncs = 0;
    std::size_t drops = 0;
    for (const Record& r : f.records) {
        syncs += r.kind == trace::kSyncRecord;
        drops += r.kind == trace::kDropRecord;
    }
    EXPECT_EQ(syncs, 3u);
    EXPECT_EQ(drops, 1u);
    EXPECT_EQ(filteredReport(d, fopt), restrictedReport(d, {}, 0));
}

TEST(Filter, OutOfRangeCoreThrows)
{
    trace::FilterOptions fopt;
    fopt.cores = {7};
    EXPECT_THROW(trace::filter(handTrace(), fopt), std::invalid_argument);
}

TEST(Filter, LenientKeepsSkipAccounting)
{
    TraceData d = handTrace();
    d.records.insert(d.records.begin(),
                     opRec(1, 4, trace::kPhaseEnd, 4000));
    trace::FilterOptions fopt;
    fopt.cores = {0}; // the stray pre-sync record is on a dropped core
    fopt.lenient = true;
    const TraceData f = trace::filter(d, fopt);
    EXPECT_EQ(ta::analyze(f, {.salvage = true}).model.leniencySkipped(), 1u);
    EXPECT_EQ(filteredReport(d, fopt),
              restrictedReport(d, {0}, ~0ull, true));
}

// ---------------------------------------------------------------------------
// generator
// ---------------------------------------------------------------------------

TEST(Gen, DeterministicBytes)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        trace::gen::BytesOptions b;
        b.gen.seed = seed;
        b.adversarial = (seed % 2) == 0;
        std::string d1;
        std::string d2;
        EXPECT_EQ(trace::gen::generateBytes(b, &d1),
                  trace::gen::generateBytes(b, &d2));
        EXPECT_EQ(d1, d2);
    }
}

TEST(Gen, SeedsDiffer)
{
    trace::gen::BytesOptions b1;
    b1.gen.seed = 100;
    trace::gen::BytesOptions b2;
    b2.gen.seed = 101;
    EXPECT_NE(trace::gen::generateBytes(b1), trace::gen::generateBytes(b2));
}

TEST(Gen, EveryScenarioYieldsAStrictValidTrace)
{
    for (std::size_t s = 0; s < trace::gen::kNumScenarios; ++s) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            trace::gen::GenOptions g;
            g.seed = seed * 17 + s;
            g.scenario = static_cast<int>(s);
            const TraceData d = trace::gen::generate(g);
            ASSERT_FALSE(d.records.empty());
            // Strict analysis must accept every valid-scenario trace.
            const ta::Analysis a = ta::analyze(d);
            EXPECT_EQ(a.model.leniencySkipped(), 0u)
                << trace::gen::scenarioName(
                       static_cast<trace::gen::Scenario>(s));
            // And it must survive a container round trip.
            const auto bytes = trace::writeBuffer(d);
            EXPECT_EQ(ta::fullReport(ta::analyze(trace::readBuffer(bytes))),
                      ta::fullReport(a));
        }
    }
}

TEST(Gen, ScenarioNamesRoundTrip)
{
    for (std::size_t s = 0; s < trace::gen::kNumScenarios; ++s) {
        const auto sc = static_cast<trace::gen::Scenario>(s);
        trace::gen::Scenario back{};
        ASSERT_TRUE(trace::gen::scenarioFromName(
            trace::gen::scenarioName(sc), back));
        EXPECT_EQ(back, sc);
    }
    trace::gen::Scenario out{};
    EXPECT_FALSE(trace::gen::scenarioFromName("bogus", out));
}

TEST(Gen, AdversarialBytesNeverCrashTheReaders)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        trace::gen::BytesOptions b;
        b.gen.seed = seed;
        b.adversarial = true;
        std::string desc;
        const auto bytes = trace::gen::generateBytes(b, &desc);
        SCOPED_TRACE("seed " + std::to_string(seed) + " (" + desc + ")");
        try {
            const TraceData strict = trace::readBuffer(bytes);
            ta::TraceModel::build(strict, true);
        } catch (const std::runtime_error&) {
            // Documented failure mode for structural damage.
        }
        try {
            trace::ReadReport rep;
            const TraceData salv = trace::readBufferSalvage(bytes, rep);
            ta::TraceModel::build(salv, true);
        } catch (const std::runtime_error&) {
            // Salvage still refuses files it cannot identify at all
            // (smashed magic) — also documented.
        }
    }
}

TEST(Gen, SlicesOfGeneratedTracesHoldTheInvariant)
{
    // The bridge between the generator and the surgery invariant the
    // property suite hammers at scale: a handful of seeds here keeps
    // the fast unit suite sensitive to both layers.
    const auto sem = ta::surgeryOpSemantics();
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        trace::gen::GenOptions g;
        g.seed = seed;
        const TraceData d = trace::gen::generate(g);
        const ta::Analysis a = ta::analyze(d);
        const std::uint64_t s = a.model.startTb();
        const std::uint64_t span = a.model.spanTb();
        const std::uint64_t from = s + span / 4;
        const std::uint64_t to = s + (3 * span) / 4;
        const TraceData sl = trace::slice(d, from, to, sem);
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_EQ(winRep(sl, from, to), winRep(d, from, to));
    }
}

} // namespace
} // namespace cell
