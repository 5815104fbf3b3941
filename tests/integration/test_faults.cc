/**
 * @file
 * End-to-end fault-injection tests: the acceptance criteria of the
 * fault subsystem. Disabled injection is byte-identical to no
 * injection; a fixed seed reproduces traces bit-for-bit; injected
 * faults slow the workload but never break it; and TA's per-core loss
 * report agrees exactly with the tracer's drop counters.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "pdt/tracer.h"
#include "ta/analyzer.h"
#include "trace/writer.h"
#include "wl/triad.h"

namespace cell {
namespace {

struct FaultRun
{
    std::vector<std::uint8_t> bytes; ///< serialized trace
    pdt::PdtStats pdt_stats;
    sim::FaultStats fault_stats;
    sim::Tick elapsed = 0;
    bool verified = false;
};

/** Run a 2-SPE triad under tracing on a machine with @p faults. */
FaultRun
runTriad(const sim::FaultPlan& faults, pdt::PdtConfig pcfg = {})
{
    sim::MachineConfig mcfg;
    mcfg.faults = faults;
    rt::CellSystem sys(mcfg);
    pdt::Pdt tracer(sys, pcfg);
    wl::TriadParams p;
    p.n_elements = 4096;
    p.n_spes = 2;
    wl::Triad wl(sys, p);
    wl.start();
    sys.run();

    FaultRun out;
    out.bytes = trace::writeBuffer(tracer.finalize());
    out.pdt_stats = tracer.stats();
    out.fault_stats = sys.machine().faults().stats();
    out.elapsed = sys.engine().now();
    out.verified = wl.verify();
    return out;
}

sim::FaultPlan
noisyPlan(std::uint64_t seed)
{
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.dma_delay_permille = 150;
    plan.dma_delay_cycles = 3'000;
    plan.dma_fail_permille = 30;
    plan.eib_spike_permille = 80;
    plan.mbox_stall_permille = 200;
    plan.signal_stall_permille = 100;
    return plan;
}

TEST(FaultInjection, DisabledPlanIsByteIdenticalToDefault)
{
    // Acceptance: with injection disabled the simulation and its trace
    // are byte-for-byte what they were before this subsystem existed.
    const FaultRun base = runTriad(sim::FaultPlan{});
    sim::FaultPlan zeroed;
    zeroed.seed = 999; // a different seed alone must change nothing
    const FaultRun alt = runTriad(zeroed);
    EXPECT_TRUE(base.verified);
    EXPECT_EQ(base.bytes, alt.bytes);
    EXPECT_EQ(base.elapsed, alt.elapsed);
    EXPECT_EQ(base.fault_stats.totalInjected(), 0u);
}

TEST(FaultInjection, FixedSeedReproducesTraceExactly)
{
    const FaultRun a = runTriad(noisyPlan(42));
    const FaultRun b = runTriad(noisyPlan(42));
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_GT(a.fault_stats.totalInjected(), 0u);
    EXPECT_EQ(a.bytes, b.bytes); // bit-identical traces
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.fault_stats.injected, b.fault_stats.injected);
    EXPECT_EQ(a.fault_stats.injected_cycles, b.fault_stats.injected_cycles);
}

TEST(FaultInjection, DifferentSeedsProduceDifferentRuns)
{
    const FaultRun a = runTriad(noisyPlan(1));
    const FaultRun b = runTriad(noisyPlan(2));
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_NE(a.bytes, b.bytes);
}

TEST(FaultInjection, FaultsSlowTheWorkloadButNeverBreakIt)
{
    const FaultRun clean = runTriad(sim::FaultPlan{});
    sim::FaultPlan heavy;
    heavy.dma_delay_permille = 1000;
    heavy.dma_delay_cycles = 2'000;
    heavy.mbox_stall_permille = 1000;
    heavy.mbox_stall_cycles = 1'000;
    const FaultRun slow = runTriad(heavy);
    EXPECT_TRUE(slow.verified); // data still correct under faults
    EXPECT_GT(slow.elapsed, clean.elapsed);
    EXPECT_GT(slow.fault_stats.injected_cycles, 0u);
}

TEST(FaultInjection, TaLossReportMatchesTracerCountersExactly)
{
    // Starve the trace arena mid-run on every SPE; the analyzer's
    // per-core loss accounting must agree with the tracer's ground
    // truth to the event.
    sim::FaultPlan plan;
    plan.arena_exhaust_begin = 1;
    plan.arena_exhaust_end = 4;
    pdt::PdtConfig pcfg;
    pcfg.spu_buffer_bytes = 512;
    pcfg.overflow_policy = pdt::OverflowPolicy::DropWithMarker;

    const FaultRun r = runTriad(plan, pcfg);
    EXPECT_TRUE(r.verified);

    std::uint64_t total_dropped = 0;
    for (const auto& s : r.pdt_stats.spu)
        total_dropped += s.dropped;
    ASSERT_GT(total_dropped, 0u) << "fault window injected no loss";

    const trace::TraceData data = [&] {
        trace::ReadReport rep;
        return trace::readBufferSalvage(r.bytes, rep);
    }();
    const ta::Analysis a = ta::analyze(data, {.salvage = true});

    ASSERT_EQ(a.stats.loss.size(), r.pdt_stats.spu.size() + 1);
    for (std::size_t i = 0; i < r.pdt_stats.spu.size(); ++i) {
        EXPECT_EQ(a.stats.loss[i + 1].dropped_events,
                  r.pdt_stats.spu[i].dropped)
            << "SPE" << i;
        if (r.pdt_stats.spu[i].dropped > 0) {
            EXPECT_GT(a.stats.loss[i + 1].drop_markers, 0u);
            EXPECT_GT(a.stats.loss[i + 1].lossPct(), 0.0);
        }
    }
    EXPECT_EQ(a.stats.loss[0].dropped_events, 0u); // PPE never drops
    EXPECT_TRUE(a.stats.anyLoss());
}

TEST(FaultInjection, GapSpanningIntervalsAreFlagged)
{
    sim::FaultPlan plan;
    plan.arena_exhaust_begin = 1;
    plan.arena_exhaust_end = 4;
    pdt::PdtConfig pcfg;
    pcfg.spu_buffer_bytes = 512;
    pcfg.overflow_policy = pdt::OverflowPolicy::DropWithMarker;

    const FaultRun r = runTriad(plan, pcfg);
    trace::ReadReport rep;
    const ta::Analysis a =
        ta::analyze(trace::readBufferSalvage(r.bytes, rep), {.salvage = true});

    // Some interval must span a drop gap (the SPU run interval always
    // does: SpuStart sits before the gap, SpuStop after it).
    std::uint64_t gaps = 0;
    for (const auto& l : a.stats.loss)
        gaps += l.gap_intervals;
    EXPECT_GT(gaps, 0u);
}

TEST(FaultInjection, LossReportPrintsPercentages)
{
    sim::FaultPlan plan;
    plan.arena_exhaust_begin = 1;
    plan.arena_exhaust_end = 4;
    pdt::PdtConfig pcfg;
    pcfg.spu_buffer_bytes = 512;
    pcfg.overflow_policy = pdt::OverflowPolicy::DropWithMarker;
    const FaultRun r = runTriad(plan, pcfg);

    trace::ReadReport rep;
    const ta::Analysis a =
        ta::analyze(trace::readBufferSalvage(r.bytes, rep), {.salvage = true});
    std::ostringstream os;
    ta::printLossReport(os, a);
    EXPECT_NE(os.str().find("loss%"), std::string::npos);
    EXPECT_NE(os.str().find("SPE0"), std::string::npos);

    // And the summary warns about the incomplete trace.
    std::ostringstream sum;
    ta::printSummary(sum, a);
    EXPECT_NE(sum.str().find("WARNING"), std::string::npos);
}

TEST(FaultInjection, MailboxStallsShowUpAsWaitTime)
{
    // Triad is mailbox-free, so drive an explicit PPE<->SPU mailbox
    // ping-pong and compare the analyzer's mailbox-wait time.
    auto mboxWait = [](const sim::FaultPlan& plan) {
        sim::MachineConfig mcfg;
        mcfg.faults = plan;
        rt::CellSystem sys(mcfg);
        pdt::Pdt tracer(sys);
        sys.runPpe([&](rt::PpeEnv&) -> rt::CoTask<void> {
            rt::SpuProgramImage img;
            img.name = "mbox_pingpong";
            img.main = [](rt::SpuEnv& env) -> rt::CoTask<void> {
                for (std::uint32_t i = 0; i < 20; ++i) {
                    const std::uint32_t v = co_await env.readInMbox();
                    co_await env.writeOutMbox(v + 1);
                }
            };
            co_await sys.context(0).start(img);
            for (std::uint32_t i = 0; i < 20; ++i) {
                co_await sys.context(0).writeInMbox(i);
                co_await sys.context(0).readOutMbox();
            }
            co_await sys.context(0).join();
        });
        sys.run();
        const ta::Analysis a = ta::analyze(tracer.finalize());
        return a.stats.spu[0].mbox_wait_tb;
    };

    sim::FaultPlan plan;
    plan.mbox_stall_permille = 1000;
    plan.mbox_stall_cycles = 2'000;
    EXPECT_GT(mboxWait(plan), mboxWait(sim::FaultPlan{}));
}

} // namespace
} // namespace cell
