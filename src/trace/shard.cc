/**
 * @file
 * Shard planner and per-shard reads.
 */

#include "trace/shard.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "trace/reader.h"

namespace cell::trace {

namespace {

/** Read exactly @p n bytes or throw with the absolute offset. */
void
readExact(std::istream& is, void* dst, std::size_t n, std::uint64_t at)
{
    is.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is || static_cast<std::size_t>(is.gcount()) != n) {
        throw std::runtime_error(
            "trace::planShards: truncated input at byte " +
            std::to_string(at + static_cast<std::uint64_t>(
                                    std::max<std::streamsize>(is.gcount(), 0))));
    }
}

} // namespace

ShardPlan
planShards(std::istream& is, const ShardOptions& opt)
{
    // Sharding needs random access: the plan needs the end offset and
    // every worker seeks to its shard. Probe seekability the same way
    // the serial reader does, but treat failure as an error here.
    const std::streampos start = is.tellg();
    std::streampos end(-1);
    if (start != std::streampos(-1)) {
        is.seekg(0, std::ios::end);
        end = is.tellg();
        is.seekg(start);
    }
    is.clear();
    if (start == std::streampos(-1) || end == std::streampos(-1)) {
        throw std::runtime_error(
            "trace::planShards: input is not seekable (pipe?); sharded "
            "parallel analysis needs a file — use --threads 1 to read "
            "the stream serially");
    }

    ShardPlan plan;
    std::uint64_t at = static_cast<std::uint64_t>(start);
    readExact(is, &plan.header, sizeof(Header), at);
    at += sizeof(Header);
    if (plan.header.magic != kMagic)
        throw std::runtime_error(
            "trace::planShards: bad magic (not a PDT trace)");
    if (plan.header.version != kFormatVersion &&
        plan.header.version != kFormatVersionV3)
        throw std::runtime_error(
            "trace::planShards: unsupported format version");

    plan.spe_programs.resize(plan.header.num_spes);
    for (std::uint32_t i = 0; i < plan.header.num_spes; ++i) {
        std::uint32_t len = 0;
        readExact(is, &len, sizeof(len), at);
        at += sizeof(len);
        if (len > (1u << 20))
            throw std::runtime_error(
                "trace::planShards: implausible name length " +
                std::to_string(len) + " (in name table entry " +
                std::to_string(i) + ")");
        plan.spe_programs[i].resize(len);
        readExact(is, plan.spe_programs[i].data(), len, at);
        at += len;
    }

    plan.record_region_offset = at;
    const std::uint64_t remaining = static_cast<std::uint64_t>(end) - at;
    const std::uint64_t count = plan.header.record_count;
    if (count > std::numeric_limits<std::uint64_t>::max() / sizeof(Record))
        throw std::runtime_error("trace::planShards: record count overflows");

    // v3 compressed region: shard on whole blocks — the smallest
    // independently decodable unit — via the (validated or rebuilt)
    // directory. No boundary probing: every block is checksummed, so a
    // boundary cannot sit on damaged ground undetected.
    if (plan.header.version == kFormatVersionV3) {
        BlockRegionHeader rh;
        readExact(is, &rh, sizeof(rh), at);
        if (rh.magic != kBlockRegionMagic ||
            rh.version != kFormatVersionV3 || rh.block_capacity == 0 ||
            rh.block_capacity > kMaxBlockRecords ||
            rh.record_count != count ||
            rh.block_count != (count + rh.block_capacity - 1) /
                                  rh.block_capacity ||
            rh.directory_offset > static_cast<std::uint64_t>(end)) {
            throw std::runtime_error(
                "trace::planShards: corrupt v3 block region header; "
                "--salvage recovers the decodable blocks");
        }
        plan.v3 = true;
        plan.block_capacity = rh.block_capacity;
        plan.record_count = count;
        plan.header.version = kFormatVersion; // decode is transparent
        try {
            plan.blocks = loadBlockDirectory(is, at, rh);
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(std::string("trace::planShards: ") +
                                     e.what());
        }

        unsigned targetv3 = opt.target_shards;
        if (targetv3 == 0)
            targetv3 = std::max(1u, std::thread::hardware_concurrency()) * 4;
        std::uint64_t per_shardv3 = std::max<std::uint64_t>(
            opt.min_records_per_shard, (count + targetv3 - 1) / targetv3);
        per_shardv3 = std::max<std::uint64_t>(per_shardv3, 1);

        Shard cur;
        cur.byte_offset = plan.record_region_offset;
        for (std::size_t k = 0; k < plan.blocks.size(); ++k) {
            if (cur.num_records >= per_shardv3) {
                plan.shards.push_back(cur);
                cur = Shard{};
                cur.first_record =
                    static_cast<std::uint64_t>(k) * rh.block_capacity;
                cur.first_block = k;
                cur.byte_offset = plan.record_region_offset +
                                  cur.first_record * sizeof(Record);
            }
            cur.num_records += plan.blocks[k].record_count;
            cur.num_blocks += 1;
        }
        plan.shards.push_back(cur); // the tail (or one empty shard)
        is.seekg(start);
        return plan;
    }

    if (count * sizeof(Record) > remaining) {
        throw std::runtime_error(
            "trace::planShards: truncated input: header claims " +
            std::to_string(count) + " records but only " +
            std::to_string(remaining / sizeof(Record)) +
            " complete records remain after byte " + std::to_string(at) +
            "; --salvage recovers the parsable prefix");
    }
    plan.record_count = count;

    // Fixed-record-range boundaries.
    unsigned target = opt.target_shards;
    if (target == 0)
        target = std::max(1u, std::thread::hardware_concurrency()) * 4;
    std::uint64_t per_shard = std::max<std::uint64_t>(
        opt.min_records_per_shard, (count + target - 1) / target);
    per_shard = std::max<std::uint64_t>(per_shard, 1);

    std::vector<std::uint64_t> bounds; // shard start indices
    for (std::uint64_t r = 0; r < count; r += per_shard)
        bounds.push_back(r);
    if (bounds.empty())
        bounds.push_back(0); // one (empty) shard keeps callers simple

    // Boundary validation: probe each interior boundary with the
    // salvage resync predicate. An implausible record at a boundary
    // suggests stride damage; slide the boundary forward (growing the
    // previous shard) until a plausible record starts the shard, or
    // keep it if the window is exhausted — serial semantics accept the
    // damage either way, the partition just starts shards on cleaner
    // ground for diagnostics.
    for (std::size_t b = 1; b < bounds.size(); ++b) {
        const std::uint64_t limit = std::min<std::uint64_t>(
            bounds[b] + opt.boundary_resync_window,
            (b + 1 < bounds.size()) ? bounds[b + 1] : count);
        std::uint64_t r = bounds[b];
        for (; r < limit; ++r) {
            Record rec;
            is.seekg(static_cast<std::streamoff>(plan.record_region_offset +
                                                 r * sizeof(Record)));
            readExact(is, &rec, sizeof(rec),
                      plan.record_region_offset + r * sizeof(Record));
            if (plausibleRecord(rec, plan.header.num_spes))
                break;
        }
        if (r != bounds[b] && r < limit) {
            bounds[b] = r;
            plan.boundaries_adjusted += 1;
        }
    }
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    plan.shards.reserve(bounds.size());
    for (std::size_t b = 0; b < bounds.size(); ++b) {
        Shard s;
        s.first_record = bounds[b];
        s.num_records =
            ((b + 1 < bounds.size()) ? bounds[b + 1] : count) - bounds[b];
        s.byte_offset =
            plan.record_region_offset + s.first_record * sizeof(Record);
        plan.shards.push_back(s);
    }
    is.seekg(start); // leave the stream where we found it
    return plan;
}

ShardPlan
planShardsFile(const std::string& path, const ShardOptions& opt)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("trace::planShardsFile: cannot open " + path);
    return planShards(is, opt);
}

void
readShardInto(std::istream& is, const ShardPlan& plan, std::size_t index,
              Record* dst)
{
    const Shard& s = plan.shards.at(index);
    if (s.num_records == 0)
        return;
    if (plan.v3) {
        // Decode the shard's whole blocks in order; the directory was
        // validated (or rebuilt from block headers) by planShards.
        std::vector<std::uint8_t> buf;
        std::uint64_t done = 0;
        for (std::uint64_t k = s.first_block;
             k < s.first_block + s.num_blocks; ++k) {
            const BlockDirEntry& de = plan.blocks.at(
                static_cast<std::size_t>(k));
            buf.resize(de.block_bytes);
            is.clear();
            is.seekg(static_cast<std::streamoff>(de.offset));
            is.read(reinterpret_cast<char*>(buf.data()),
                    static_cast<std::streamsize>(buf.size()));
            if (!is || static_cast<std::uint64_t>(is.gcount()) != buf.size())
                throw std::runtime_error(
                    "trace::readShard: short read in block " +
                    std::to_string(k) + " at byte " +
                    std::to_string(de.offset));
            BlockHeader bh;
            std::memcpy(&bh, buf.data(), sizeof(bh));
            // Check the claimed count against the directory BEFORE
            // decoding so the fused decode can never write past dst.
            if (bh.record_count != de.record_count ||
                done + bh.record_count > s.num_records)
                throw std::runtime_error(
                    "trace::readShard: block " + std::to_string(k) +
                    " record count disagrees with the directory");
            decodeBlockBodyInto(bh, buf.data() + sizeof(bh),
                                buf.size() - sizeof(bh), plan.block_capacity,
                                k, plan.blocks.size(), dst + done);
            done += bh.record_count;
        }
        if (done != s.num_records)
            throw std::runtime_error(
                "trace::readShard: shard " + std::to_string(index) +
                " decoded " + std::to_string(done) + " of " +
                std::to_string(s.num_records) + " records");
        return;
    }
    is.clear();
    is.seekg(static_cast<std::streamoff>(s.byte_offset));
    is.read(reinterpret_cast<char*>(dst),
            static_cast<std::streamsize>(s.num_records * sizeof(Record)));
    if (!is || static_cast<std::uint64_t>(is.gcount()) !=
                   s.num_records * sizeof(Record)) {
        throw std::runtime_error(
            "trace::readShard: short read in shard " + std::to_string(index) +
            " at byte " + std::to_string(s.byte_offset));
    }
}

std::vector<Record>
readShard(std::istream& is, const ShardPlan& plan, std::size_t index)
{
    std::vector<Record> out(plan.shards.at(index).num_records);
    readShardInto(is, plan, index, out.data());
    return out;
}

} // namespace cell::trace
