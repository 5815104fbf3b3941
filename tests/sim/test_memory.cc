/**
 * @file
 * Unit tests for LocalStore and MainMemory.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <ostream>
#include <vector>

#include "sim/local_store.h"
#include "sim/main_memory.h"

namespace cell::sim {
namespace {

TEST(LocalStore, IsZeroInitialized256KiB)
{
    LocalStore ls;
    EXPECT_EQ(ls.size(), kLocalStoreSize);
    EXPECT_EQ(ls.load<std::uint64_t>(0), 0u);
    EXPECT_EQ(ls.load<std::uint64_t>(kLocalStoreSize - 8), 0u);
}

TEST(LocalStore, TypedRoundTrip)
{
    LocalStore ls;
    ls.store<std::uint32_t>(0x100, 0xDEADBEEF);
    ls.store<double>(0x200, 3.25);
    EXPECT_EQ(ls.load<std::uint32_t>(0x100), 0xDEADBEEFu);
    EXPECT_EQ(ls.load<double>(0x200), 3.25);
}

TEST(LocalStore, BulkRoundTrip)
{
    LocalStore ls;
    std::vector<std::uint8_t> in(4096);
    std::iota(in.begin(), in.end(), 0);
    ls.write(0x8000, in.data(), in.size());
    std::vector<std::uint8_t> out(4096);
    ls.read(0x8000, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(LocalStore, OutOfRangeAccessThrows)
{
    LocalStore ls;
    std::uint8_t b = 0;
    EXPECT_THROW(ls.read(kLocalStoreSize, &b, 1), std::out_of_range);
    EXPECT_THROW(ls.write(kLocalStoreSize - 1, &b, 2), std::out_of_range);
    EXPECT_NO_THROW(ls.write(kLocalStoreSize - 1, &b, 1));
}

TEST(LocalStore, ClearZeroesRange)
{
    LocalStore ls;
    ls.store<std::uint32_t>(0x40, 0xFFFFFFFF);
    ls.clear(0x40, 4);
    EXPECT_EQ(ls.load<std::uint32_t>(0x40), 0u);
}

struct DmaShapeCase
{
    LsAddr ls;
    EffAddr ea;
    std::size_t len;
    bool ok;
};

/** Prints a case by its fields, e.g. ls0x100_ea0x4000_len16384_ok.
 *  gtest_discover_tests names each case after this text; gtest's
 *  default would print the struct's bytes, padding included, so the
 *  names changed from build to build. */
void
PrintTo(const DmaShapeCase& c, std::ostream* os)
{
    *os << std::hex << "ls0x" << c.ls << "_ea0x" << c.ea << std::dec
        << "_len" << c.len << (c.ok ? "_ok" : "_bad");
}

class DmaShape : public ::testing::TestWithParam<DmaShapeCase>
{};

TEST_P(DmaShape, ValidatesPerMfcRules)
{
    const auto& c = GetParam();
    if (c.ok) {
        EXPECT_NO_THROW(LocalStore::checkDmaShape(c.ls, c.ea, c.len));
    } else {
        EXPECT_THROW(LocalStore::checkDmaShape(c.ls, c.ea, c.len),
                     std::invalid_argument);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DmaShape,
    ::testing::Values(
        // Legal small transfers: naturally aligned, matching quadword offset.
        DmaShapeCase{0x0, 0x1000, 1, true},
        DmaShapeCase{0x2, 0x1002, 2, true},
        DmaShapeCase{0x4, 0x1004, 4, true},
        DmaShapeCase{0x8, 0x1008, 8, true},
        // Small transfer with mismatched quadword offsets.
        DmaShapeCase{0x4, 0x1008, 4, false},
        // Small transfer not naturally aligned.
        DmaShapeCase{0x2, 0x1002, 4, false},
        // Legal quadword-multiple transfers.
        DmaShapeCase{0x10, 0x2000, 16, true},
        DmaShapeCase{0x100, 0x4000, 16384, true},
        DmaShapeCase{0x100, 0x4000, 4096, true},
        // Bad: over 16 KiB, zero, unaligned, odd size.
        DmaShapeCase{0x100, 0x4000, 16400, false},
        DmaShapeCase{0x100, 0x4000, 0, false},
        DmaShapeCase{0x108, 0x4000, 32, false},
        DmaShapeCase{0x100, 0x4008, 32, false},
        DmaShapeCase{0x100, 0x4000, 24, false},
        DmaShapeCase{0x100, 0x4000, 3, false}));

TEST(MainMemory, UnbackedReadsAsZeroWithoutAllocating)
{
    MainMemory mem;
    std::uint64_t v = 1;
    mem.read(0x12345678, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(MainMemory, RoundTripAcrossPageBoundary)
{
    MainMemory mem;
    const EffAddr ea = MainMemory::kPageSize - 100;
    std::vector<std::uint8_t> in(300);
    std::iota(in.begin(), in.end(), 7);
    mem.write(ea, in.data(), in.size());
    EXPECT_EQ(mem.pagesAllocated(), 2u);
    std::vector<std::uint8_t> out(300);
    mem.read(ea, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(MainMemory, TypedPeekPoke)
{
    MainMemory mem;
    mem.poke<float>(0x1000, 2.5f);
    EXPECT_EQ(mem.peek<float>(0x1000), 2.5f);
}

TEST(MainMemory, HighAddressesWork)
{
    MainMemory mem;
    const EffAddr ea = 0x7FFF'FFFF'0000ULL;
    mem.poke<std::uint64_t>(ea, 0xA5A5A5A5A5A5A5A5ULL);
    EXPECT_EQ(mem.peek<std::uint64_t>(ea), 0xA5A5A5A5A5A5A5A5ULL);
}

TEST(MainMemory, BytesWrittenAccumulates)
{
    MainMemory mem;
    std::uint8_t buf[64] = {};
    mem.write(0, buf, 64);
    mem.write(100, buf, 32);
    EXPECT_EQ(mem.bytesWritten(), 96u);
}

} // namespace
} // namespace cell::sim
