/**
 * @file
 * Allocation bound of the parallel model builder. Every core's
 * timeline is allocated once, at its exact size, and the only other
 * allocations are per-(shard, core) bookkeeping: the scan summaries,
 * the entry clock states and the slice offsets. A global operator-new
 * hook counts the bytes, so per-shard event copies cannot come back
 * unnoticed. The hook replaces operator new for the whole binary,
 * which is why this test has an executable of its own.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "ta/parallel.h"
#include "trace/gen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_bytes{0};

} // namespace

// Byte-counting hook: while g_counting is set, every global allocation
// in this binary, on any thread, adds its size to g_bytes. The deletes
// stay out of line: inlined next to a `new` expression, GCC would flag
// their free() as mismatched with the built-in operator new.
void*
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace cell {
namespace {

/** Bookkeeping allowed per (shard, core) slice: a scan summary (56
 *  bytes), an entry clock state (24) and a slice offset (8), rounded
 *  up. Anything per event would dwarf it. */
constexpr std::uint64_t kSliceBytes = 128;
/** Bookkeeping allowed per shard besides its slices, and per build. */
constexpr std::uint64_t kShardBytes = 64;
constexpr std::uint64_t kFixedBytes = 64 << 10;

TEST(ModelAllocation, ParallelBuildAllocatesEachTimelineOnce)
{
    const trace::TraceData data = trace::gen::generate(
        {.seed = 1,
         .scenario = static_cast<int>(trace::gen::Scenario::MultiCore),
         .records = 200'000});
    const std::uint64_t n = data.records.size();
    const std::uint64_t n_cores = data.header.num_spes + 1;
    ASSERT_GT(data.header.num_spes, 1u);

    for (const unsigned threads : {2u, 4u}) {
        // 0 derives the shard size from the thread count; it is never
        // below 4096 records.
        for (const std::uint64_t shard : {0ull, 1024ull}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, shard " +
                         std::to_string(shard));
            ta::WorkerPool pool(threads);
            g_bytes.store(0);
            g_counting.store(true);
            const ta::TraceModel model =
                ta::buildModelParallel(data, pool, false, shard);
            g_counting.store(false);

            std::uint64_t events = 0;
            for (const ta::CoreTimeline& tl : model.cores())
                events += tl.events.size();
            const std::uint64_t timelines = events * sizeof(ta::Event);
            const std::uint64_t shards =
                (n + (shard != 0 ? shard : 4096) - 1) /
                (shard != 0 ? shard : 4096);
            const std::uint64_t bound =
                timelines + shards * (n_cores * kSliceBytes + kShardBytes) +
                kFixedBytes;
            EXPECT_GE(g_bytes.load(), timelines);
            EXPECT_LE(g_bytes.load(), bound)
                << "timelines " << timelines << " B, " << shards
                << " shards x " << n_cores << " cores";
        }
    }
}

} // namespace
} // namespace cell
