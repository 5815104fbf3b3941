/**
 * @file
 * Work-queue workload tests: correctness in both scheduling modes,
 * accounting, and the balancing property itself.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "pdt/tracer.h"
#include "ta/analyzer.h"
#include "wl/workqueue.h"

namespace cell::wl {
namespace {

struct WqCase
{
    std::uint32_t items;
    std::uint32_t spes;
    bool dynamic;
};

/** Prints a case by its fields, e.g. items64_spes8_dynamic.
 *  gtest_discover_tests names each case after this text; gtest's
 *  default would print the struct's bytes, padding included, so the
 *  names changed from build to build. */
void
PrintTo(const WqCase& c, std::ostream* os)
{
    *os << "items" << c.items << "_spes" << c.spes
        << (c.dynamic ? "_dynamic" : "_static");
}

class WqP : public ::testing::TestWithParam<WqCase>
{};

TEST_P(WqP, Verifies)
{
    const auto& c = GetParam();
    rt::CellSystem sys;
    WorkQueueParams p;
    p.n_items = c.items;
    p.n_spes = c.spes;
    p.dynamic = c.dynamic;
    p.tile_elems = 256;
    WorkQueue wq(sys, p);
    wq.start();
    sys.run();
    EXPECT_TRUE(wq.verify());
    const auto total = std::accumulate(wq.itemsPerSpe().begin(),
                                       wq.itemsPerSpe().end(), 0u);
    EXPECT_EQ(total, c.items);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WqP,
                         ::testing::Values(WqCase{8, 1, true},
                                           WqCase{8, 1, false},
                                           WqCase{16, 4, true},
                                           WqCase{16, 4, false},
                                           WqCase{64, 8, true},
                                           WqCase{64, 8, false},
                                           // Fewer items than SPEs.
                                           WqCase{3, 8, true},
                                           WqCase{3, 8, false},
                                           WqCase{1, 2, true}));

TEST(WorkQueue, DynamicBeatsStaticOnRampedCosts)
{
    auto run = [](bool dynamic) {
        rt::CellSystem sys;
        WorkQueueParams p;
        p.dynamic = dynamic;
        p.n_items = 48;
        p.n_spes = 8;
        p.cost_slope = 400; // steep ramp
        WorkQueue wq(sys, p);
        wq.start();
        sys.run();
        EXPECT_TRUE(wq.verify());
        return wq.elapsed();
    };
    EXPECT_LT(run(true), run(false));
}

TEST(WorkQueue, DynamicModeBalancesBusyTime)
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys);
    WorkQueueParams p;
    p.dynamic = true;
    p.n_items = 64;
    p.n_spes = 8;
    p.cost_slope = 400;
    WorkQueue wq(sys, p);
    wq.start();
    sys.run();
    ASSERT_TRUE(wq.verify());
    const ta::Analysis a = ta::analyze(tracer.finalize());
    EXPECT_LT(a.stats.loadImbalance(), 1.3);
}

TEST(WorkQueue, StaticModeShowsTailStraggler)
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys);
    WorkQueueParams p;
    p.dynamic = false;
    p.n_items = 64;
    p.n_spes = 8;
    p.cost_slope = 400;
    WorkQueue wq(sys, p);
    wq.start();
    sys.run();
    ASSERT_TRUE(wq.verify());
    const ta::Analysis a = ta::analyze(tracer.finalize());
    EXPECT_GT(a.stats.loadImbalance(), 1.5);
}

TEST(WorkQueue, TracedDynamicRunStillVerifies)
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys);
    WorkQueueParams p;
    p.n_items = 16;
    p.n_spes = 4;
    WorkQueue wq(sys, p);
    wq.start();
    sys.run();
    EXPECT_TRUE(wq.verify());
    // The dynamic protocol shows up as interrupt-mailbox traffic.
    const ta::Analysis a = ta::analyze(tracer.finalize());
    std::uint64_t irq_writes = 0;
    for (const auto& row : a.stats.op_counts)
        irq_writes +=
            row[static_cast<std::size_t>(rt::ApiOp::SpuMboxIrqWrite)];
    EXPECT_EQ(irq_writes, 16u + 4u); // one per item + one final per SPE
}

TEST(WorkQueue, RejectsBadParams)
{
    rt::CellSystem sys;
    WorkQueueParams p;
    p.n_items = 0;
    EXPECT_THROW(WorkQueue(sys, p), std::invalid_argument);
    p = {};
    p.tile_elems = 10;
    EXPECT_THROW(WorkQueue(sys, p), std::invalid_argument);
    p = {};
    p.n_spes = 0;
    EXPECT_THROW(WorkQueue(sys, p), std::invalid_argument);
}

} // namespace
} // namespace cell::wl
