/**
 * @file
 * The trace writer against the serial writer it replaced.
 *
 * The oracle is that earlier writer, kept here: encodeBlockRegion
 * threaded each core's replay state through a serial loop over the
 * blocks and concatenated the region, and buildIndex replayed every
 * record a second time for the footer index. trace::writeBuffer and
 * trace::writeFile must give its bytes at every thread count, block
 * size, index stride and payload layout, on generator scenarios and on
 * traces the replay has to skip records of (cores out of range,
 * records before a core's first sync), down to one record and none.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "trace/block.h"
#include "trace/format.h"
#include "trace/gen.h"
#include "trace/index.h"
#include "trace/replay.h"
#include "trace/writer.h"

namespace cell::trace {
namespace {

// -------------------------------------------------------------------------
// Oracle: the serial writer (encodeBlockRegion + buildIndex)

std::vector<std::uint8_t>
oracleBlockRegion(const TraceData& trace, const Header& header,
                  std::uint64_t region_offset, std::uint32_t block_records,
                  bool legacy_payload)
{
    std::uint32_t capacity =
        block_records == 0 ? kDefaultBlockRecords : block_records;
    if (capacity > kMaxBlockRecords)
        capacity = kMaxBlockRecords;

    const std::uint32_t n_cores = header.num_spes + 1;
    const std::uint64_t count = trace.records.size();

    BlockRegionHeader rh;
    rh.block_capacity = capacity;
    rh.block_count = (count + capacity - 1) / capacity;
    rh.record_count = count;

    std::vector<std::uint8_t> out(sizeof(BlockRegionHeader)); // patched last
    std::vector<BlockDirEntry> dir;

    struct CoreState
    {
        ClockReplay clk;
        std::uint64_t clamp = 0;
        std::uint64_t open = 0;
        std::uint64_t seen = 0;
    };
    std::vector<CoreState> cores(n_cores);

    std::vector<BlockSeed> seeds(n_cores);
    std::vector<std::uint8_t> block;
    for (std::uint64_t first = 0; first < count; first += capacity) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(capacity, count - first));
        for (std::uint32_t c = 0; c < n_cores; ++c) {
            BlockSeed& s = seeds[c];
            s = BlockSeed{};
            s.tick = cores[c].clamp;
            s.sync_tb = cores[c].clk.sync_tb;
            s.open_begins = cores[c].open;
            s.records_before = cores[c].seen;
            s.sync_raw = cores[c].clk.sync_raw;
            s.epoch = cores[c].clk.epoch;
            s.core = static_cast<std::uint16_t>(c);
            s.flags = cores[c].clk.have_sync ? kSeedHaveSync : 0;
        }
        encodeBlock(trace.records.data() + first, n, first, seeds.data(),
                    n_cores, legacy_payload, block);

        BlockDirEntry de;
        de.offset = region_offset + out.size();
        de.block_bytes = static_cast<std::uint32_t>(block.size());
        de.record_count = n;
        dir.push_back(de);
        out.insert(out.end(), block.begin(), block.end());

        for (std::uint32_t i = 0; i < n; ++i) {
            const Record& rec = trace.records[first + i];
            if (rec.core >= n_cores)
                continue;
            CoreState& c = cores[rec.core];
            c.seen += 1;
            std::uint64_t t = 0;
            if (!c.clk.feed(rec, t))
                continue;
            if (t < c.clamp)
                t = c.clamp;
            c.clamp = t;
            updateOpenBegins(c.open, rec);
        }
    }

    rh.directory_offset = region_offset + out.size();
    const auto* dp = reinterpret_cast<const std::uint8_t*>(dir.data());
    out.insert(out.end(), dp, dp + dir.size() * sizeof(BlockDirEntry));
    BlockDirTrailer tr;
    tr.dir_bytes = dir.size() * sizeof(BlockDirEntry);
    tr.checksum = fnv1a64Bytes(dir.data(), dir.size() * sizeof(BlockDirEntry));
    const auto* tp = reinterpret_cast<const std::uint8_t*>(&tr);
    out.insert(out.end(), tp, tp + sizeof(tr));

    std::memcpy(out.data(), &rh, sizeof(rh));
    return out;
}

TraceIndex
oracleIndex(const TraceData& trace, const Header& header,
            std::uint64_t record_region_offset, std::uint32_t stride)
{
    TraceIndex idx;
    idx.header.stride = stride;
    idx.header.record_count = header.record_count;
    idx.header.record_region_offset = record_region_offset;
    const std::uint32_t n_cores = header.num_spes + 1;
    idx.header.num_cores = n_cores;

    struct CoreBuild
    {
        ClockReplay clk;
        std::uint64_t clamp = 0;
        std::uint64_t open = 0;
        std::uint64_t seen = 0;
        std::uint64_t begin_offset = 0;
        std::uint64_t end_offset = 0;
        std::vector<IndexEntry> entries;
    };
    std::vector<CoreBuild> cores(n_cores);

    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const Record& rec = trace.records[i];
        const std::uint64_t off = record_region_offset + i * sizeof(Record);
        if (rec.core >= n_cores) {
            idx.header.bad_core_records += 1;
            continue;
        }
        CoreBuild& c = cores[rec.core];
        if (c.seen % stride == 0) {
            IndexEntry e;
            e.tick = c.clamp;
            e.byte_offset = off;
            e.sync_tb = c.clk.sync_tb;
            e.open_begins = c.open;
            e.sync_raw = c.clk.sync_raw;
            e.epoch = c.clk.epoch;
            e.core = rec.core;
            e.flags = c.clk.have_sync ? kEntryHaveSync : 0;
            c.entries.push_back(e);
        }
        c.entries.back().record_count += 1;
        if (c.seen == 0)
            c.begin_offset = off;
        c.end_offset = off + sizeof(Record);
        c.seen += 1;

        std::uint64_t t = 0;
        if (!c.clk.feed(rec, t)) {
            idx.header.presync_records += 1;
            continue;
        }
        if (t < c.clamp)
            t = c.clamp;
        c.clamp = t;
        updateOpenBegins(c.open, rec);
    }

    idx.cores.resize(n_cores);
    std::uint32_t next_entry = 0;
    for (std::uint32_t c = 0; c < n_cores; ++c) {
        IndexCoreSummary& s = idx.cores[c];
        s.total_records = cores[c].seen;
        s.begin_offset = cores[c].begin_offset;
        s.end_offset = cores[c].end_offset;
        s.max_tick = cores[c].clamp;
        s.first_entry = next_entry;
        s.num_entries = static_cast<std::uint32_t>(cores[c].entries.size());
        next_entry += s.num_entries;
        idx.entries.insert(idx.entries.end(), cores[c].entries.begin(),
                           cores[c].entries.end());
    }
    idx.header.entry_count = next_entry;
    return idx;
}

std::vector<std::uint8_t>
oracleWrite(const TraceData& trace, const WriteOptions& opt)
{
    Header hdr = trace.header;
    hdr.magic = kMagic;
    hdr.version = opt.compress ? kFormatVersionV3 : kFormatVersion;
    hdr.num_spes = static_cast<std::uint32_t>(trace.spe_programs.size());
    hdr.record_count = trace.records.size();

    std::vector<std::uint8_t> out;
    const auto append = [&out](const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        out.insert(out.end(), b, b + n);
    };
    append(&hdr, sizeof(hdr));
    for (const std::string& name : trace.spe_programs) {
        const auto len = static_cast<std::uint32_t>(name.size());
        append(&len, sizeof(len));
        append(name.data(), name.size());
    }
    const std::uint64_t region_offset = out.size();
    if (opt.compress) {
        const std::vector<std::uint8_t> region =
            oracleBlockRegion(trace, hdr, region_offset, opt.block_records,
                              opt.legacy_payload);
        append(region.data(), region.size());
    } else if (!trace.records.empty()) {
        append(trace.records.data(), trace.records.size() * sizeof(Record));
    }
    if (opt.index_stride > 0) {
        const std::vector<std::uint8_t> bytes = serializeIndex(
            oracleIndex(trace, hdr, region_offset, opt.index_stride));
        append(bytes.data(), bytes.size());
    }
    return out;
}

// -------------------------------------------------------------------------
// The comparison

std::vector<std::uint8_t>
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/** writeBuffer and writeFile equal the oracle over the whole grid:
 *  the v1 container, and v3 at each block size in both payload
 *  layouts, each with and without an index, at every thread count. */
void
expectOracleBytes(const TraceData& t)
{
    const std::string path = ::testing::TempDir() + "writer_oracle_" +
                             std::to_string(::getpid()) + "_" +
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name() +
                             ".pdt";
    std::vector<WriteOptions> containers = {WriteOptions{}};
    for (const std::uint32_t block_records : {1u, 7u, 2048u}) {
        for (const bool legacy : {false, true}) {
            containers.push_back({.compress = true,
                                  .block_records = block_records,
                                  .legacy_payload = legacy});
        }
    }
    for (WriteOptions opt : containers) {
        for (const std::uint32_t stride : {0u, 1u, 1024u}) {
            opt.index_stride = stride;
            const std::vector<std::uint8_t> want = oracleWrite(t, opt);
            for (const unsigned threads : {0u, 1u, 2u, 3u, 4u, 8u}) {
                opt.threads = threads;
                SCOPED_TRACE("compress " + std::to_string(opt.compress) +
                             " block_records " +
                             std::to_string(opt.block_records) + " legacy " +
                             std::to_string(opt.legacy_payload) +
                             " stride " + std::to_string(stride) +
                             " threads " + std::to_string(threads));
                EXPECT_TRUE(writeBuffer(t, opt) == want);
                writeFile(path, t, opt);
                EXPECT_TRUE(slurp(path) == want);
            }
        }
    }
    std::remove(path.c_str());
}

TraceData
scenario(gen::Scenario s, std::uint64_t records)
{
    gen::GenOptions g;
    g.seed = 29;
    g.scenario = static_cast<int>(s);
    g.records = records;
    return gen::generate(g);
}

// Large enough that 2048-record blocks still make two of them (so the
// pool runs at every block size), small enough for the TSan preset.
constexpr std::uint64_t kScenarioRecords = 2500;

TEST(WriterOracle, DropStorm)
{
    expectOracleBytes(scenario(gen::Scenario::DropStorm, kScenarioRecords));
}

TEST(WriterOracle, ClockSkew)
{
    expectOracleBytes(scenario(gen::Scenario::ClockSkew, kScenarioRecords));
}

TEST(WriterOracle, WrapAround)
{
    expectOracleBytes(scenario(gen::Scenario::WrapAround, kScenarioRecords));
}

TEST(WriterOracle, SparseCores)
{
    expectOracleBytes(
        scenario(gen::Scenario::SparseCores, kScenarioRecords));
}

TEST(WriterOracle, Tiny)
{
    const TraceData t = scenario(gen::Scenario::Tiny, 0);
    ASSERT_LE(t.records.size(), 8u);
    expectOracleBytes(t);
}

/** Records the replay must skip or cannot place: cores beyond the name
 *  table and records before their core's first sync, interleaved with
 *  placeable ones and with arbitrary field values. */
TEST(WriterOracle, OutOfRangeCoresAndPresyncRecords)
{
    TraceData t = scenario(gen::Scenario::Basic, kScenarioRecords);
    const auto n_spes = static_cast<std::uint32_t>(t.spe_programs.size());
    std::vector<Record> mixed;
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
    const auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (std::uint32_t c = 0; c <= n_spes; ++c) { // before any sync
        Record r{};
        r.kind = static_cast<std::uint8_t>(next() % 64);
        r.phase = static_cast<std::uint8_t>(next() % 2);
        r.core = static_cast<std::uint16_t>(c);
        r.timestamp = static_cast<std::uint32_t>(next());
        r.a = next();
        mixed.push_back(r);
    }
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        mixed.push_back(t.records[i]);
        if (i % 37 == 5) {
            Record r = t.records[i];
            r.core = static_cast<std::uint16_t>(n_spes + 1 + next() % 300);
            r.b = next();
            mixed.push_back(r);
        }
    }
    t.records = std::move(mixed);
    t.header.record_count = t.records.size();
    expectOracleBytes(t);
}

TEST(WriterOracle, OneRecord)
{
    TraceData t;
    t.header.num_spes = 2;
    t.spe_programs = {"a.elf", "b.elf"};
    Record sync{};
    sync.kind = kSyncRecord;
    sync.timestamp = 100;
    sync.a = 100;
    sync.b = 5000;
    t.records.push_back(sync);
    t.header.record_count = 1;
    expectOracleBytes(t);
}

TEST(WriterOracle, Empty)
{
    TraceData t;
    t.header.num_spes = 2;
    t.spe_programs = {"a.elf", ""};
    expectOracleBytes(t);
}

} // namespace
} // namespace cell::trace
