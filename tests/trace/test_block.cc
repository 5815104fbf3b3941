/**
 * @file
 * Unit tests for the v3 compressed block format: exact round-trip
 * (including adversarial field values), block/tail geometry, strict
 * rejection of damage, salvage gap accounting from block seeds,
 * directory validation with walk-rebuild fallback, the streaming
 * BlockReader, the region probe, and block-aligned shard plans.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "trace/block.h"
#include "trace/format.h"
#include "trace/index.h"
#include "trace/mmap.h"
#include "trace/reader.h"
#include "trace/shard.h"
#include "trace/writer.h"
#include "util/worker_pool.h"

namespace cell::trace {
namespace {

/** A deterministic multi-core trace shaped like real PDT output:
 *  per-core syncs first, then plausible API records with slowly
 *  drifting payloads, periodic flush + drop markers. */
TraceData
sampleTrace(std::uint32_t n_spes = 3, std::uint32_t n_records = 5000)
{
    TraceData t;
    t.header.num_spes = n_spes;
    t.header.core_hz = 3'200'000'000ULL;
    t.header.timebase_divider = 120;
    t.spe_programs.assign(n_spes, "prog.elf");

    const std::uint32_t n_cores = n_spes + 1;
    for (std::uint32_t c = 0; c < n_cores; ++c) {
        Record sync{};
        sync.kind = kSyncRecord;
        sync.core = static_cast<std::uint16_t>(c);
        sync.timestamp = c == 0 ? 1'000 : 900'000;
        sync.a = sync.timestamp;
        sync.b = 50'000 + c * 10;
        t.records.push_back(sync);
    }
    std::uint32_t raw_ppe = 1'000;
    std::uint32_t raw_spe = 900'000;
    std::uint64_t addr = 0x10000;
    for (std::uint32_t i = 0; i < n_records; ++i) {
        Record r{};
        r.core = static_cast<std::uint16_t>(i % n_cores);
        if (r.core == 0) {
            raw_ppe += 7;
            r.timestamp = raw_ppe;
        } else {
            raw_spe -= 5; // SPU decrementer counts down
            r.timestamp = raw_spe;
        }
        if (i % 97 == 96) {
            r.kind = kDropRecord;
            r.a = 3;
            r.b = i / 97 * 3;
        } else if (i % 53 == 52) {
            r.kind = kFlushRecord;
            r.a = 53;
            r.b = 1'000;
        } else {
            r.kind = static_cast<std::uint8_t>(i % 6);
            r.phase = static_cast<std::uint8_t>(i & 1);
            r.a = addr += 128;
            r.b = 16'384;
            r.c = static_cast<std::uint32_t>(i);
            r.d = 7;
        }
        t.records.push_back(r);
    }
    t.header.record_count = t.records.size();
    return t;
}

bool
sameRecords(const std::vector<Record>& a, const std::vector<Record>& b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(Record)) == 0);
}

/** Absolute offset of the record region (== region header) in a
 *  serialized buffer of @p t. */
std::uint64_t
regionOffsetOf(const TraceData& t)
{
    std::uint64_t off = sizeof(Header);
    for (const auto& n : t.spe_programs)
        off += sizeof(std::uint32_t) + n.size();
    return off;
}

/** Parse the region header + directory straight out of a v3 buffer. */
void
parseRegion(const std::vector<std::uint8_t>& buf, std::uint64_t region_off,
            BlockRegionHeader& rh, std::vector<BlockDirEntry>& dir)
{
    ASSERT_GE(buf.size(), region_off + sizeof(rh));
    std::memcpy(&rh, buf.data() + region_off, sizeof(rh));
    ASSERT_EQ(rh.magic, kBlockRegionMagic);
    dir.resize(rh.block_count);
    ASSERT_GE(buf.size(), rh.directory_offset + dir.size() * sizeof(dir[0]));
    std::memcpy(dir.data(), buf.data() + rh.directory_offset,
                dir.size() * sizeof(dir[0]));
}

TEST(Block, RoundTripStrict)
{
    const TraceData t = sampleTrace();
    const auto v1 = writeBuffer(t);
    const auto v3 = writeBuffer(t, {.compress = true});
    ASSERT_LT(v3.size(), v1.size());

    const TraceData back = readBuffer(v3);
    EXPECT_EQ(back.header.version, kFormatVersion); // normalized
    EXPECT_EQ(back.header.record_count, t.records.size());
    EXPECT_EQ(back.spe_programs, t.spe_programs);
    EXPECT_TRUE(sameRecords(back.records, t.records));
}

TEST(Block, CompressesRegularTracesWell)
{
    const TraceData t = sampleTrace(5, 50'000);
    const auto v1 = writeBuffer(t);
    const auto v3 = writeBuffer(t, {.compress = true});
    // The acceptance bar is 2.5x on realistic workloads; this
    // synthetic-but-representative trace should clear it comfortably.
    EXPECT_GT(static_cast<double>(v1.size()),
              2.5 * static_cast<double>(v3.size()));
}

TEST(Block, RoundTripArbitraryFieldValues)
{
    // Delta coding is modular, so decode must be exact for ANY field
    // values — including ones no tracer would emit (wild kinds, wrapped
    // timestamps, huge payload jumps). Strict v1 reads preserve such
    // bytes verbatim; strict v3 must too.
    std::mt19937_64 rng(0xB10C);
    TraceData t;
    t.header.num_spes = 2;
    t.spe_programs = {"a", "b"};
    for (int i = 0; i < 4000; ++i) {
        Record r{};
        r.kind = static_cast<std::uint8_t>(rng());
        r.phase = static_cast<std::uint8_t>(rng());
        r.core = static_cast<std::uint16_t>(rng());
        r.timestamp = static_cast<std::uint32_t>(rng());
        r.a = rng();
        r.b = rng();
        r.c = static_cast<std::uint32_t>(rng());
        r.d = static_cast<std::uint32_t>(rng());
        t.records.push_back(r);
    }
    t.header.record_count = t.records.size();

    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 512});
    const TraceData back = readBuffer(v3);
    EXPECT_TRUE(sameRecords(back.records, t.records));
}

TEST(Block, TailBlockGeometry)
{
    TraceData t = sampleTrace(2, 1000 - 3); // 1001 records: 15 full + tail
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 64});

    BlockRegionHeader rh;
    std::vector<BlockDirEntry> dir;
    parseRegion(v3, regionOffsetOf(t), rh, dir);
    EXPECT_EQ(rh.block_capacity, 64u);
    EXPECT_EQ(rh.record_count, t.records.size());
    EXPECT_EQ(rh.block_count, (t.records.size() + 63) / 64);
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < dir.size(); ++k) {
        EXPECT_EQ(dir[k].record_count,
                  k + 1 < dir.size()
                      ? 64u
                      : static_cast<std::uint32_t>(t.records.size() -
                                                   64 * (dir.size() - 1)));
        sum += dir[k].record_count;
    }
    EXPECT_EQ(sum, t.records.size());
    EXPECT_TRUE(sameRecords(readBuffer(v3).records, t.records));
}

TEST(Block, EmptyTraceRoundTrips)
{
    TraceData t;
    t.header.num_spes = 1;
    t.spe_programs = {"p"};
    const auto v3 = writeBuffer(t, {.compress = true});
    const TraceData back = readBuffer(v3);
    EXPECT_TRUE(back.records.empty());

    std::string s(v3.begin(), v3.end());
    std::istringstream is(s);
    BlockReader br(is);
    EXPECT_EQ(br.blockCount(), 0u);
    DecodedBlock blk;
    EXPECT_FALSE(br.next(blk));
}

TEST(Block, StrictThrowsOnCorruptBlock)
{
    const TraceData t = sampleTrace();
    auto v3 = writeBuffer(t, {.compress = true, .block_records = 256});
    BlockRegionHeader rh;
    std::vector<BlockDirEntry> dir;
    parseRegion(v3, regionOffsetOf(t), rh, dir);

    v3[dir[2].offset + sizeof(BlockHeader) + 5] ^= 0x40; // seed/payload bit
    try {
        readBuffer(v3);
        FAIL() << "strict read accepted a corrupt block";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("salvage"), std::string::npos)
            << e.what();
    }
}

TEST(Block, StrictReadRejectsHugeSeedCountBeforeSizingTheBody)
{
    // A block header whose seed count claims ~96 GiB of seeds: the
    // serial strict reader sizes its scratch body from the header, so
    // it must reject the header first, naming the block, on both the
    // buffer path and the stream path (which has no zero-copy view).
    const TraceData t = sampleTrace();
    auto v3 = writeBuffer(t, {.compress = true, .block_records = 256});
    BlockRegionHeader rh;
    std::vector<BlockDirEntry> dir;
    parseRegion(v3, regionOffsetOf(t), rh, dir);
    BlockHeader bh;
    std::memcpy(&bh, v3.data() + dir[1].offset, sizeof(bh));
    bh.seed_count = 0x80000000u;
    std::memcpy(v3.data() + dir[1].offset, &bh, sizeof(bh));

    const std::string want = "block 1 of " + std::to_string(dir.size());
    try {
        readBuffer(v3);
        FAIL() << "strict read accepted a block with 2^31 seeds";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
    }
    std::istringstream is(std::string(v3.begin(), v3.end()));
    try {
        read(is);
        FAIL() << "strict stream read accepted a block with 2^31 seeds";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
    }
}

TEST(Block, SalvageOfIntactFileMatchesStrict)
{
    const TraceData t = sampleTrace();
    const auto v3 = writeBuffer(t, {.compress = true});
    ReadReport rep;
    const TraceData back = readBufferSalvage(v3, rep);
    EXPECT_FALSE(rep.salvaged);
    EXPECT_EQ(rep.records_read, t.records.size());
    EXPECT_EQ(rep.records_skipped, 0u);
    EXPECT_TRUE(rep.notes.empty());
    EXPECT_TRUE(sameRecords(back.records, t.records));
}

TEST(Block, SalvageTurnsCorruptBlockIntoExactGap)
{
    const std::uint32_t kBlk = 128;
    const TraceData t = sampleTrace(3, 2000);
    auto v3 = writeBuffer(t, {.compress = true, .block_records = kBlk});
    BlockRegionHeader rh;
    std::vector<BlockDirEntry> dir;
    parseRegion(v3, regionOffsetOf(t), rh, dir);
    ASSERT_GE(dir.size(), 6u);

    const std::size_t bad = 3;
    v3[dir[bad].offset + sizeof(BlockHeader) + 9] ^= 0x04;

    ReadReport rep;
    const TraceData back = readBufferSalvage(v3, rep);
    EXPECT_TRUE(rep.salvaged);
    EXPECT_EQ(rep.records_skipped, dir[bad].record_count);
    EXPECT_EQ(rep.records_expected, t.records.size());

    // Prefix (blocks before the bad one) survives byte-identically...
    const std::size_t before = bad * kBlk;
    ASSERT_GE(back.records.size(), before);
    EXPECT_EQ(0, std::memcmp(back.records.data(), t.records.data(),
                             before * sizeof(Record)));
    // ...and so does the suffix (blocks after it).
    const std::size_t after_first = (bad + 1) * kBlk;
    const std::size_t after_n = t.records.size() - after_first;
    ASSERT_GE(back.records.size(), after_n);
    EXPECT_EQ(0, std::memcmp(back.records.data() +
                                 (back.records.size() - after_n),
                             t.records.data() + after_first,
                             after_n * sizeof(Record)));

    // Between them: only synthetic sync/drop markers, whose drop
    // counts add up to exactly the lost block.
    std::uint64_t synth = back.records.size() - before - after_n;
    std::uint64_t dropped = 0;
    for (std::size_t i = before; i < before + synth; ++i) {
        const Record& r = back.records[i];
        EXPECT_TRUE(r.kind == kSyncRecord || r.kind == kDropRecord)
            << "unexpected synthetic kind " << int(r.kind);
        if (r.kind == kDropRecord)
            dropped += r.a;
    }
    EXPECT_EQ(dropped, dir[bad].record_count);
}

TEST(Block, SalvageRecoversPrefixOfTruncatedFile)
{
    const std::uint32_t kBlk = 128;
    const TraceData t = sampleTrace(2, 2000);
    auto v3 = writeBuffer(t, {.compress = true, .block_records = kBlk});
    BlockRegionHeader rh;
    std::vector<BlockDirEntry> dir;
    parseRegion(v3, regionOffsetOf(t), rh, dir);
    ASSERT_GE(dir.size(), 8u);

    // Cut mid-way through block 5 (directory gone too).
    v3.resize(dir[5].offset + sizeof(BlockHeader) + 3);

    ReadReport rep;
    const TraceData back = readBufferSalvage(v3, rep);
    EXPECT_TRUE(rep.salvaged);
    const std::size_t keep = 5 * kBlk;
    ASSERT_EQ(back.records.size(), keep);
    EXPECT_EQ(0, std::memcmp(back.records.data(), t.records.data(),
                             keep * sizeof(Record)));
}

TEST(Block, BlockReaderStreamsEveryBlock)
{
    const TraceData t = sampleTrace(3, 3000);
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 256});
    std::string s(v3.begin(), v3.end());
    std::istringstream is(s);

    BlockReader br(is);
    EXPECT_EQ(br.header().version, kFormatVersion);
    EXPECT_EQ(br.header().record_count, t.records.size());
    EXPECT_EQ(br.spePrograms(), t.spe_programs);
    EXPECT_EQ(br.blockCount(), (t.records.size() + 255) / 256);

    std::vector<Record> all;
    DecodedBlock blk;
    std::uint64_t blocks = 0;
    std::size_t peak = 0;
    while (br.next(blk)) {
        ++blocks;
        peak = std::max(peak, blk.records.size());
        EXPECT_EQ(blk.header.first_record, all.size());
        EXPECT_EQ(blk.seeds.size(), t.header.num_spes + 1u);
        all.insert(all.end(), blk.records.begin(), blk.records.end());
    }
    EXPECT_EQ(blocks, br.blockCount());
    EXPECT_LE(peak, 256u); // bounded memory: one block at a time
    EXPECT_TRUE(sameRecords(all, t.records));
}

TEST(Block, BlockReaderRandomAccessMatchesSequential)
{
    const TraceData t = sampleTrace(2, 2000);
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 128});
    std::string s(v3.begin(), v3.end());
    std::istringstream is(s);

    BlockReader br(is);
    const auto& dir = br.directory();
    ASSERT_EQ(dir.size(), br.blockCount());
    DecodedBlock blk;
    for (std::uint64_t k = br.blockCount(); k-- > 0;) { // reverse order
        br.readBlock(k, blk);
        ASSERT_EQ(blk.records.size(), dir[k].record_count);
        EXPECT_EQ(blk.header.first_record, k * 128);
        EXPECT_EQ(0, std::memcmp(blk.records.data(),
                                 t.records.data() + k * 128,
                                 blk.records.size() * sizeof(Record)));
    }
}

TEST(Block, DirectoryFallsBackToBlockWalk)
{
    const TraceData t = sampleTrace(2, 2000);
    auto v3 = writeBuffer(t, {.compress = true, .block_records = 128});
    BlockRegionHeader rh;
    std::vector<BlockDirEntry> pristine;
    parseRegion(v3, regionOffsetOf(t), rh, pristine);

    // Corrupt one directory entry: checksum fails, walk rebuilds.
    v3[rh.directory_offset + 20] ^= 0xFF;
    std::string s(v3.begin(), v3.end());
    std::istringstream is(s);
    BlockReader br(is);
    EXPECT_EQ(br.directory(), pristine);

    // The shard planner rides the same fallback: the plan still decodes
    // to the full record sequence.
    std::istringstream is2(s);
    ShardPlan plan =
        planShards(is2, {.target_shards = 4, .min_records_per_shard = 1});
    EXPECT_TRUE(plan.v3);
    std::vector<Record> all;
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
        const auto part = readShard(is2, plan, i);
        all.insert(all.end(), part.begin(), part.end());
    }
    EXPECT_TRUE(sameRecords(all, t.records));
}

TEST(Block, ShardPlanPartitionsOnBlockBoundaries)
{
    const TraceData t = sampleTrace(3, 5000);
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 256});
    std::string s(v3.begin(), v3.end());

    for (unsigned target : {1u, 3u, 8u}) {
        std::istringstream is(s);
        ShardPlan plan = planShards(
            is, {.target_shards = target, .min_records_per_shard = 1});
        EXPECT_TRUE(plan.v3);
        EXPECT_EQ(plan.block_capacity, 256u);
        EXPECT_EQ(plan.header.version, kFormatVersion);
        std::uint64_t next = 0;
        std::vector<Record> all;
        for (std::size_t i = 0; i < plan.shards.size(); ++i) {
            const Shard& sh = plan.shards[i];
            EXPECT_EQ(sh.first_record, next);
            EXPECT_EQ(sh.first_record % 256, 0u); // block-aligned
            next += sh.num_records;
            const auto part = readShard(is, plan, i);
            all.insert(all.end(), part.begin(), part.end());
        }
        EXPECT_EQ(next, t.records.size());
        EXPECT_TRUE(sameRecords(all, t.records));
    }
}

TEST(Block, ProbeSniffsBothContainers)
{
    const TraceData t = sampleTrace(2, 500);
    const auto v1 = writeBuffer(t);
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 64});

    std::string s1(v1.begin(), v1.end());
    std::istringstream is1(s1);
    EXPECT_FALSE(probeBlockRegion(is1).present);
    EXPECT_EQ(is1.tellg(), std::streampos(0)); // position restored

    std::string s3(v3.begin(), v3.end());
    std::istringstream is3(s3);
    const BlockRegionProbe p = probeBlockRegion(is3);
    ASSERT_TRUE(p.present);
    EXPECT_EQ(p.region.record_count, t.records.size());
    EXPECT_EQ(p.region.block_capacity, 64u);
    EXPECT_GT(p.region_bytes, 0u);
    EXPECT_LE(regionOffsetOf(t) + p.region_bytes, v3.size());
    EXPECT_EQ(is3.tellg(), std::streampos(0));
}

TEST(Block, FooterIndexComposesWithCompression)
{
    const TraceData t = sampleTrace(3, 4000);
    const auto v3 =
        writeBuffer(t, {.index_stride = 64, .compress = true});

    // Strict read ignores the trailing index, exactly like v1.
    EXPECT_TRUE(sameRecords(readBuffer(v3).records, t.records));

    const IndexReadResult ir = readIndexBuffer(v3);
    ASSERT_TRUE(ir.present);
    ASSERT_TRUE(ir.valid) << ir.reason;
    EXPECT_EQ(ir.index.header.record_count, t.records.size());

    // Entries address records through VIRTUAL v1 offsets.
    const std::uint64_t region_off = regionOffsetOf(t);
    for (const IndexEntry& e : ir.index.entries) {
        EXPECT_GE(e.byte_offset, region_off);
        EXPECT_EQ((e.byte_offset - region_off) % sizeof(Record), 0u);
        EXPECT_LT((e.byte_offset - region_off) / sizeof(Record),
                  t.records.size());
    }
}

/** Write @p bytes to a fresh temp file and return its path. */
std::string
writeTemp(const std::vector<std::uint8_t>& bytes, const std::string& stem)
{
    const std::string path = ::testing::TempDir() + "/" + stem;
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(os.good());
    return path;
}

TEST(Block, MmapBackedFileReadMatchesBuffer)
{
    const TraceData t = sampleTrace(2, 2000);
    for (const bool compress : {false, true}) {
        const auto bytes = writeBuffer(t, {.compress = compress});
        const std::string path = writeTemp(bytes, "mmap_read.pdt");

        MappedFile map(path);
        ASSERT_TRUE(map.valid());
        ASSERT_EQ(map.size(), bytes.size());
        EXPECT_EQ(0, std::memcmp(map.data(), bytes.data(), bytes.size()));

        const TraceData got = readFile(path);
        EXPECT_TRUE(sameRecords(got.records, t.records));

        if (compress) {
            BlockReader br(path);
            EXPECT_TRUE(br.mapped());
            std::vector<Record> all;
            DecodedBlock blk;
            while (br.next(blk))
                all.insert(all.end(), blk.records.begin(),
                           blk.records.end());
            EXPECT_TRUE(sameRecords(all, t.records));
        }
        std::remove(path.c_str());
    }
}

TEST(Block, NonSeekableFifoFallsBackToBufferedRead)
{
    const TraceData t = sampleTrace(2, 1500);
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 128});
    const std::string path = ::testing::TempDir() + "/mmap_fifo.pdt";
    std::remove(path.c_str());
    ASSERT_EQ(0, mkfifo(path.c_str(), 0600));

    // A FIFO is not S_ISREG: the mapping must refuse it, and readFile
    // must degrade to the buffered stream path with identical output.
    std::thread writer([&] {
        std::ofstream os(path, std::ios::binary); // blocks for a reader
        os.write(reinterpret_cast<const char*>(v3.data()),
                 static_cast<std::streamsize>(v3.size()));
    });
    const TraceData got = readFile(path);
    writer.join();
    EXPECT_TRUE(sameRecords(got.records, t.records));

    MappedFile map(path);
    EXPECT_FALSE(map.valid());
    std::remove(path.c_str());
}

TEST(Block, ProcPseudoFileFallsBackToBufferedRead)
{
    // /proc files stat as empty regular files, so mmap refuses them;
    // the buffered fallback must still READ the real content — proven
    // by the reader rejecting the bytes as a non-trace, not failing
    // to open or seeing an empty file.
    const std::string path = "/proc/self/status";
    if (!std::ifstream(path).good())
        GTEST_SKIP() << "no procfs on this system";

    MappedFile map(path);
    EXPECT_FALSE(map.valid());

    try {
        (void)readFile(path);
        FAIL() << "a procfs file is not a PDT trace";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

/** Splice two single-payload twins of the same trace into one file
 *  whose blocks alternate interleaved / columnar layouts, with a
 *  rebuilt directory + trailer. */
std::vector<std::uint8_t>
spliceMixedPayloads(const TraceData& t, const std::vector<std::uint8_t>& a,
                    const std::vector<std::uint8_t>& b)
{
    const std::uint64_t region_off = regionOffsetOf(t);
    BlockRegionHeader rha, rhb;
    std::vector<BlockDirEntry> dira, dirb;
    parseRegion(a, region_off, rha, dira);
    parseRegion(b, region_off, rhb, dirb);
    EXPECT_EQ(dira.size(), dirb.size());

    std::vector<std::uint8_t> out(a.begin(),
                                  a.begin() + region_off + sizeof(rha));
    std::vector<BlockDirEntry> dir;
    for (std::size_t k = 0; k < dira.size(); ++k) {
        const auto& src = (k % 2) ? b : a;
        const auto& de = (k % 2) ? dirb[k] : dira[k];
        BlockDirEntry ne = de;
        ne.offset = out.size();
        out.insert(out.end(), src.begin() + de.offset,
                   src.begin() + de.offset + de.block_bytes);
        dir.push_back(ne);
    }
    BlockRegionHeader rh = rha;
    rh.directory_offset = out.size();
    const auto* dp = reinterpret_cast<const std::uint8_t*>(dir.data());
    out.insert(out.end(), dp, dp + dir.size() * sizeof(BlockDirEntry));
    BlockDirTrailer tr;
    tr.dir_bytes = dir.size() * sizeof(BlockDirEntry);
    tr.checksum = fnv1a64Bytes(dir.data(),
                               static_cast<std::size_t>(tr.dir_bytes));
    const auto* tp = reinterpret_cast<const std::uint8_t*>(&tr);
    out.insert(out.end(), tp, tp + sizeof(tr));
    std::memcpy(out.data() + region_off, &rh, sizeof(rh));
    return out;
}

TEST(Block, MixedPayloadBlocksDecodeIdentically)
{
    const TraceData t = sampleTrace(3, 3000);
    const WriteOptions legacy{.compress = true, .block_records = 256,
                              .legacy_payload = true};
    const WriteOptions columnar{.compress = true, .block_records = 256};
    const auto mixed = spliceMixedPayloads(t, writeBuffer(t, legacy),
                                           writeBuffer(t, columnar));

    // The payload bit really alternates block by block...
    std::string s(mixed.begin(), mixed.end());
    std::istringstream is(s);
    BlockReader br(is);
    DecodedBlock blk;
    std::vector<Record> all;
    std::uint64_t k = 0;
    while (br.next(blk)) {
        EXPECT_EQ(blk.header.payload,
                  (k % 2) ? kPayloadColumnar : kPayloadInterleaved)
            << "block " << k;
        all.insert(all.end(), blk.records.begin(), blk.records.end());
        ++k;
    }
    EXPECT_GE(k, 4u);
    // ...and every read path decodes the mix byte-identically.
    EXPECT_TRUE(sameRecords(all, t.records));
    EXPECT_TRUE(sameRecords(readBuffer(mixed).records, t.records));
    ReadReport rep;
    EXPECT_TRUE(
        sameRecords(readBufferSalvage(mixed, rep).records, t.records));
    EXPECT_EQ(rep.records_skipped, 0u);

    std::istringstream is2(s);
    ShardPlan plan =
        planShards(is2, {.target_shards = 4, .min_records_per_shard = 1});
    std::vector<Record> sharded;
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
        const auto part = readShard(is2, plan, i);
        sharded.insert(sharded.end(), part.begin(), part.end());
    }
    EXPECT_TRUE(sameRecords(sharded, t.records));
}

TEST(Block, LegacyPayloadOptionRoundTrips)
{
    const TraceData t = sampleTrace(2, 2000);
    const auto v3l = writeBuffer(
        t, {.compress = true, .block_records = 256, .legacy_payload = true});
    const auto v3c = writeBuffer(t, {.compress = true, .block_records = 256});
    EXPECT_TRUE(sameRecords(readBuffer(v3l).records, t.records));
    EXPECT_TRUE(sameRecords(readBuffer(v3c).records, t.records));

    // On-disk contract: the payload bit selects both the layout and
    // the checksum algorithm (byte-serial FNV for interleaved blocks —
    // what every pre-columnar file carries — word-lane FNV for
    // columnar ones).
    const std::uint64_t region_off = regionOffsetOf(t);
    for (const bool legacy : {true, false}) {
        const auto& buf = legacy ? v3l : v3c;
        BlockRegionHeader rh;
        std::vector<BlockDirEntry> dir;
        parseRegion(buf, region_off, rh, dir);
        ASSERT_GE(dir.size(), 2u);
        for (const BlockDirEntry& de : dir) {
            BlockHeader bh;
            std::memcpy(&bh, buf.data() + de.offset, sizeof(bh));
            EXPECT_EQ(bh.payload,
                      legacy ? kPayloadInterleaved : kPayloadColumnar);
            const std::uint8_t* body = buf.data() + de.offset + sizeof(bh);
            const std::size_t body_len = de.block_bytes - sizeof(bh);
            EXPECT_EQ(bh.checksum, legacy
                                       ? fnv1a64Bytes(body, body_len)
                                       : fnv1a64Words(body, body_len));
        }
    }
}

TEST(Block, PipelinedReaderMatchesSerialOnEverySource)
{
    const TraceData t = sampleTrace(3, 4000);
    const auto v3 = writeBuffer(t, {.compress = true, .block_records = 256});
    const std::string path = writeTemp(v3, "pipelined.v3.pdt");
    util::WorkerPool pool(2);

    for (const bool mapped : {true, false}) {
        std::string s(v3.begin(), v3.end());
        std::istringstream is(s);
        auto br = mapped ? std::make_unique<BlockReader>(path)
                         : std::make_unique<BlockReader>(is);
        EXPECT_EQ(br->mapped(), mapped);
        for (const unsigned window : {1u, 3u}) {
            if (window != 1u) { // a reader streams once; rebuild
                is.clear();
                is.seekg(0);
                br = mapped ? std::make_unique<BlockReader>(path)
                            : std::make_unique<BlockReader>(is);
            }
            br->pipeline(pool, window);
            std::vector<Record> all;
            DecodedBlock blk;
            while (br->next(blk)) {
                EXPECT_EQ(blk.header.first_record, all.size());
                all.insert(all.end(), blk.records.begin(),
                           blk.records.end());
            }
            EXPECT_TRUE(sameRecords(all, t.records))
                << (mapped ? "mapped" : "stream") << " window " << window;
        }
    }
    std::remove(path.c_str());
}

TEST(Block, PipelinedReaderThrowsAtTheCorruptBlock)
{
    const TraceData t = sampleTrace(2, 2000);
    auto v3 = writeBuffer(t, {.compress = true, .block_records = 128});
    BlockRegionHeader rh;
    std::vector<BlockDirEntry> dir;
    parseRegion(v3, regionOffsetOf(t), rh, dir);
    ASSERT_GE(dir.size(), 6u);
    // Damage block 3's payload: decode-ahead may already be chewing on
    // it while blocks 0-2 are handed out, but the throw must surface
    // exactly from the next() call that would have returned block 3.
    v3[dir[3].offset + sizeof(BlockHeader) + 9] ^= 0x40;

    util::WorkerPool pool(2);
    const std::string path = writeTemp(v3, "pipelined_corrupt.v3.pdt");
    BlockReader br(path);
    br.pipeline(pool, 4);
    DecodedBlock blk;
    for (int k = 0; k < 3; ++k)
        ASSERT_TRUE(br.next(blk)) << "block " << k;
    EXPECT_THROW(br.next(blk), std::runtime_error);
    std::remove(path.c_str());
}

} // namespace
} // namespace cell::trace
