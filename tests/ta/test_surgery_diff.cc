/**
 * @file
 * Surgery differential suite: the acceptance test of the trace-surgery
 * exactness contract, over real workload traces.
 *
 * For every workload in the suite — plus the fault-injected drop trace
 * and a salvaged trace — and for edge-hitting windows:
 *
 *  - slice: the windowed query answered from the sliced file must
 *    BYTE-match the same windowed query on the original, across the
 *    v1/v2/v3 containers and at 1 and 4 query threads. The slice's
 *    synthetic preamble (seed sync, drop accounting, re-opened
 *    Begins) is exactly what makes this hold.
 *  - splice: slicing a trace at a cut and splicing the halves back
 *    (--cut semantics) must reproduce the original's full report.
 *  - filter: restricting by core must match the core-restricted query
 *    on the original; restricting by event-kind group must match
 *    restricting the analyzed event streams; the identity filter is
 *    lossless.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pdt/tracer.h"
#include "rt/system.h"
#include "ta/analyzer.h"
#include "ta/intervals.h"
#include "ta/query.h"
#include "ta/report.h"
#include "trace/reader.h"
#include "trace/surgery.h"
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
    bool lenient = false;
};

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

/** Smash 200 bytes mid-file and recover what salvage can. */
NamedTrace
salvagedTrace()
{
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
    trace::ReadReport report;
    NamedTrace t{"salvaged", trace::readBufferSalvage(bytes, report),
                 /*lenient=*/true};
    EXPECT_TRUE(report.salvaged);
    return t;
}

/** The six standard workloads + fault-injected drops + salvaged. */
std::vector<NamedTrace>
suiteTraces()
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
    out.push_back({"drops", dropTrace(), /*lenient=*/false});
    out.push_back(salvagedTrace());
    return out;
}

/** Edge-hitting windows for a trace spanning [start, end]. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
windowsFor(const ta::TraceModel& m)
{
    const std::uint64_t s = m.startTb();
    const std::uint64_t e = m.endTb();
    const std::uint64_t span = e - s;
    return {
        {s > 10 ? s - 10 : 0, e + 10},      // whole file + margins
        {s, s + span / 3},                  // first third
        {s + span / 4, s + (3 * span) / 4}, // middle half
        {s + (7 * span) / 8, e + 1},        // tail, inclusive end
    };
}

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + "/surgery_diff_" + name;
}

struct Container
{
    const char* tag;
    trace::WriteOptions wopt;
};

const Container kContainers[] = {
    {"v1", {}},
    {"v2", {.index_stride = 64}},
    {"v3", {.index_stride = 64, .compress = true}},
};

constexpr unsigned kThreadCounts[] = {1, 4};

std::uint64_t
groupMask(std::initializer_list<rt::ApiGroup> groups)
{
    std::uint64_t m = ~std::uint64_t{0} << rt::kNumApiOps;
    for (const rt::ApiGroup g : groups) {
        for (std::size_t k = 0; k < rt::kNumApiOps; ++k) {
            if (rt::apiOpGroup(static_cast<rt::ApiOp>(k)) == g)
                m |= std::uint64_t{1} << k;
        }
    }
    return m;
}

/** Reference for the filter invariant: restrict the analyzed event
 *  streams (not the record stream — dropping records could move
 *  clamp carriers) and re-extract intervals. */
std::string
restrictedReport(const ta::Analysis& a,
                 const std::vector<std::uint16_t>& cores,
                 std::uint64_t kind_mask)
{
    std::vector<char> keep(a.model.cores().size(), cores.empty() ? 1 : 0);
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

TEST(SurgeryDiff, SliceWindowedQueriesMatchOriginalEverywhere)
{
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    for (const NamedTrace& t : suiteTraces()) {
        const ta::Analysis full =
            ta::analyze(t.data, {.salvage = t.lenient});
        for (const auto& [from, to] : windowsFor(full.model)) {
            const std::string expect =
                ta::windowReport(ta::queryWindow(full, from, to));
            trace::SliceOptions sopt;
            sopt.lenient = t.lenient;
            const trace::TraceData sliced =
                trace::slice(t.data, from, to, sem, sopt);

            // In-memory: windowed query on the slice's own analysis.
            EXPECT_EQ(ta::windowReport(ta::queryWindow(
                          ta::analyze(sliced, {.salvage = t.lenient}), from,
                          to)),
                      expect)
                << t.name << " [" << from << ", " << to << ")";

            // Through every container and the file query path (what
            // `ta window` runs), serial and 4-thread.
            for (const Container& c : kContainers) {
                const std::string path = tempPath(
                    t.name + "_" + std::to_string(from) + "." + c.tag +
                    ".pdt");
                trace::writeFile(path, sliced, c.wopt);
                for (const unsigned threads : kThreadCounts) {
                    SCOPED_TRACE(t.name + " " + c.tag + " [" +
                                 std::to_string(from) + ", " +
                                 std::to_string(to) + ") @" +
                                 std::to_string(threads) + "t");
                    ta::QueryOptions opt;
                    opt.threads = threads;
                    opt.salvage = t.lenient;
                    const ta::WindowResult w =
                        ta::queryWindowFile(path, from, to, opt);
                    EXPECT_EQ(ta::windowReport(w), expect);
                }
                std::remove(path.c_str());
            }
        }
    }
}

TEST(SurgeryDiff, SpliceCutRoundTripReassemblesEveryTrace)
{
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    for (const NamedTrace& t : suiteTraces()) {
        SCOPED_TRACE(t.name);
        const ta::Analysis full =
            ta::analyze(t.data, {.salvage = t.lenient});
        const std::string expect = ta::fullReport(full);
        const std::uint64_t m =
            full.model.startTb() + full.model.spanTb() / 2;

        trace::SliceOptions sopt;
        sopt.lenient = t.lenient;
        const trace::TraceData head =
            trace::slice(t.data, 0, m, sem, sopt);
        const trace::TraceData tail =
            trace::slice(t.data, m, ~std::uint64_t{0}, sem, sopt);
        trace::SpliceOptions jopt;
        jopt.cuts = {m};
        jopt.lenient = t.lenient;
        const trace::TraceData whole = trace::splice({head, tail}, jopt);
        EXPECT_EQ(ta::fullReport(ta::analyze(whole, {.salvage = t.lenient})),
                  expect);
    }
}

TEST(SurgeryDiff, SpliceRoundTripSurvivesTheV3Container)
{
    // The same cut round-trip, but with each half written to and read
    // back from a compressed v3 file — what the CLI pipeline
    // `ta surgery slice; ta surgery splice` actually does.
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    const NamedTrace t = suiteTraces().front();
    const ta::Analysis full = ta::analyze(t.data);
    const std::uint64_t m = full.model.startTb() + full.model.spanTb() / 2;

    const std::string ph = tempPath("head.v3.pdt");
    const std::string pt = tempPath("tail.v3.pdt");
    const trace::WriteOptions wopt{.index_stride = 32, .compress = true};
    trace::writeFile(ph, trace::slice(t.data, 0, m, sem), wopt);
    trace::writeFile(pt, trace::slice(t.data, m, ~std::uint64_t{0}, sem),
                     wopt);
    trace::SpliceOptions jopt;
    jopt.cuts = {m};
    const trace::TraceData whole =
        trace::splice({trace::readFile(ph), trace::readFile(pt)}, jopt);
    EXPECT_EQ(ta::fullReport(ta::analyze(whole)), ta::fullReport(full));
    std::remove(ph.c_str());
    std::remove(pt.c_str());
}

TEST(SurgeryDiff, FilterByCoreMatchesCoreRestrictedQuery)
{
    // Keeping one core and analyzing must answer exactly like the
    // core-restricted windowed query on the original: per-core record
    // streams are independent, and the filter's timestamp re-encode
    // pins every survivor to its original placed time.
    for (const NamedTrace& t : suiteTraces()) {
        const ta::Analysis full =
            ta::analyze(t.data, {.salvage = t.lenient});
        const std::uint64_t s = full.model.startTb();
        const std::uint64_t span = full.model.spanTb();
        const std::uint64_t from = s + span / 4;
        const std::uint64_t to = s + (3 * span) / 4;
        const std::uint32_t n_cores = t.data.header.num_spes + 1;
        for (std::uint32_t core = 0; core < n_cores; ++core) {
            SCOPED_TRACE(t.name + " core " + std::to_string(core));
            trace::FilterOptions fopt;
            fopt.cores = {static_cast<std::uint16_t>(core)};
            fopt.lenient = t.lenient;
            const trace::TraceData kept = trace::filter(t.data, fopt);
            const std::string expect = ta::windowReport(ta::queryWindow(
                full, from, to, static_cast<int>(core)));
            EXPECT_EQ(ta::windowReport(ta::queryWindow(
                          ta::analyze(kept, {.salvage = t.lenient}), from,
                          to)),
                      expect);
        }
    }
}

TEST(SurgeryDiff, FilterByKindGroupMatchesEventRestriction)
{
    const std::vector<std::pair<const char*, std::uint64_t>> masks = {
        {"dma", groupMask({rt::ApiGroup::Dma, rt::ApiGroup::DmaWait})},
        {"mailbox+signal",
         groupMask({rt::ApiGroup::Mailbox, rt::ApiGroup::Signal})},
        {"lifecycle", groupMask({rt::ApiGroup::Lifecycle})},
    };
    for (const NamedTrace& t : suiteTraces()) {
        const ta::Analysis full =
            ta::analyze(t.data, {.salvage = t.lenient});
        for (const auto& [name, mask] : masks) {
            SCOPED_TRACE(t.name + std::string(" ") + name);
            trace::FilterOptions fopt;
            fopt.kind_mask = mask;
            fopt.lenient = t.lenient;
            const trace::TraceData kept = trace::filter(t.data, fopt);
            EXPECT_EQ(
                ta::windowReport(
                    ta::queryWindow(ta::analyze(kept, {.salvage = t.lenient}),
                                    0, ~std::uint64_t{0})),
                restrictedReport(full, {}, mask));
        }
    }
}

TEST(SurgeryDiff, IdentityFilterIsLossless)
{
    for (const NamedTrace& t : suiteTraces()) {
        SCOPED_TRACE(t.name);
        trace::FilterOptions fopt;
        fopt.lenient = t.lenient;
        EXPECT_EQ(ta::fullReport(ta::analyze(trace::filter(t.data, fopt),
                                             {.salvage = t.lenient})),
                  ta::fullReport(ta::analyze(t.data, {.salvage = t.lenient})));
    }
}

} // namespace
} // namespace cell
