/**
 * @file
 * Trace writer: one replay pass, a per-block encode on a worker pool,
 * and one serializer behind write, writeFile and writeBuffer.
 *
 * A v3 block is decodable on its own because its seeds carry the
 * replay state its cores enter it with (trace/block.h). The writer
 * uses the same property in reverse: one serial walk of the records
 * through trace::ClockReplay yields every block's seeds and, when an
 * index is asked for, the footer index entries (trace/index.h), which
 * snapshot the same state every `stride` records of a core. With the
 * seeds known, each block is encoded into its own buffer on a
 * util::WorkerPool, and the buffers are written in order behind the
 * region header, whose directory offset their sizes fix. Nothing
 * concatenates the region, and the bytes do not depend on the thread
 * count.
 */

#include "trace/writer.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "trace/block.h"
#include "trace/index.h"
#include "trace/replay.h"
#include "util/worker_pool.h"

namespace cell::trace {

namespace {

/** The header as it should appear on disk for @p trace. */
Header
headerFor(const TraceData& trace, const WriteOptions& opt)
{
    Header hdr = trace.header;
    hdr.magic = kMagic;
    hdr.version = opt.compress ? kFormatVersionV3 : kFormatVersion;
    hdr.num_spes = static_cast<std::uint32_t>(trace.spe_programs.size());
    hdr.record_count = trace.records.size();
    return hdr;
}

/** Absolute offset of the first record for @p trace as written. */
std::uint64_t
recordRegionOffsetFor(const TraceData& trace)
{
    std::uint64_t off = sizeof(Header);
    for (const std::string& name : trace.spe_programs)
        off += sizeof(std::uint32_t) + name.size();
    return off;
}

/** What the replay pass yields. */
struct Replay
{
    /** Block-major: block b's seeds are [b * n_cores, (b + 1) * n_cores). */
    std::vector<BlockSeed> seeds;
    TraceIndex index;
};

/**
 * The write side's one replay. Records go in stream order, each
 * core's through its own ClockReplay and monotonic clamp, as the
 * analyzer's lenient serial loop places them (TraceModel::build).
 * Before the first record of every block of @p capacity records it
 * snapshots each core's state as that block's seeds (capacity 0: no
 * blocks). Before each core's first record and every @p stride-th
 * after it, it snapshots the core's state as an index entry (stride 0:
 * no index). Index offsets are v1 offsets from @p region_offset, also
 * on a v3 file (trace/block.h, virtual offsets).
 */
Replay
replay(const TraceData& trace, std::uint32_t n_cores,
       std::uint64_t region_offset, std::uint32_t capacity,
       std::uint32_t stride)
{
    struct CoreReplay
    {
        ClockReplay clk;
        std::uint64_t clamp = 0;      ///< max clamped event time so far
        std::uint64_t open = 0;       ///< open-begin mask
        std::uint64_t seen = 0;       ///< this core's records so far
        std::uint64_t next_entry = 0; ///< `seen` at the next index entry
        std::uint64_t begin_offset = 0;
        std::uint64_t end_offset = 0;
        std::vector<IndexEntry> entries;
    };
    std::vector<CoreReplay> cores(n_cores);

    Replay out;
    IndexHeader& ih = out.index.header;
    const std::uint64_t count = trace.records.size();
    // Block by block, the seeds taken at each block's start; without
    // blocks, the records are one span.
    const std::uint64_t step =
        capacity > 0 ? capacity : std::max<std::uint64_t>(count, 1);
    if (capacity > 0)
        out.seeds.reserve(
            static_cast<std::size_t>((count + capacity - 1) / capacity) *
            n_cores);
    for (std::uint64_t first = 0; first < count; first += step) {
        for (std::uint32_t c = 0; capacity > 0 && c < n_cores; ++c) {
            const CoreReplay& cr = cores[c];
            BlockSeed s;
            s.tick = cr.clamp;
            s.sync_tb = cr.clk.sync_tb;
            s.open_begins = cr.open;
            s.records_before = cr.seen;
            s.sync_raw = cr.clk.sync_raw;
            s.epoch = cr.clk.epoch;
            s.core = static_cast<std::uint16_t>(c);
            s.flags = cr.clk.have_sync ? kSeedHaveSync : 0;
            out.seeds.push_back(s);
        }
        const std::uint64_t end = std::min(count, first + step);
        for (std::uint64_t i = first; i < end; ++i) {
            const Record& rec = trace.records[i];
            if (rec.core >= n_cores) {
                ih.bad_core_records += 1;
                continue;
            }
            CoreReplay& c = cores[rec.core];
            if (stride > 0) {
                const std::uint64_t off = region_offset + i * sizeof(Record);
                if (c.seen == c.next_entry) {
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
                    c.next_entry += stride;
                }
                c.entries.back().record_count += 1;
                if (c.seen == 0)
                    c.begin_offset = off;
                c.end_offset = off + sizeof(Record);
            }
            c.seen += 1;

            std::uint64_t t = 0;
            if (!c.clk.feed(rec, t)) {
                ih.presync_records += 1;
                continue;
            }
            if (t < c.clamp)
                t = c.clamp;
            c.clamp = t;
            updateOpenBegins(c.open, rec);
        }
    }
    if (stride == 0)
        return out;

    TraceIndex& idx = out.index;
    ih.stride = stride;
    ih.record_count = count;
    ih.record_region_offset = region_offset;
    ih.num_cores = n_cores;
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
    }
    idx.entries.reserve(next_entry);
    for (const CoreReplay& c : cores)
        idx.entries.insert(idx.entries.end(), c.entries.begin(),
                           c.entries.end());
    ih.entry_count = next_entry;
    return out;
}

/** A v3 block region, held as the pieces it is written from. */
struct Region
{
    BlockRegionHeader header;
    /** Each block's bytes: BlockHeader, seeds, payload. */
    std::vector<std::vector<std::uint8_t>> blocks;
    std::vector<BlockDirEntry> directory;
    BlockDirTrailer trailer;
};

/** Encode @p trace's records as blocks of @p capacity, block b from
 *  the seeds replay() took for it, on a pool of opt.threads. */
Region
encodeRegion(const TraceData& trace, const std::vector<BlockSeed>& seeds,
             std::uint32_t n_cores, std::uint32_t capacity,
             std::uint64_t region_offset, const WriteOptions& opt)
{
    Region r;
    const std::uint64_t count = trace.records.size();
    r.header.block_capacity = capacity;
    r.header.block_count = (count + capacity - 1) / capacity;
    r.header.record_count = count;

    const auto records_in = [&](std::uint64_t b) {
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(capacity, count - b * capacity));
    };
    r.blocks.resize(static_cast<std::size_t>(r.header.block_count));
    const auto encode_one = [&](std::uint64_t b) {
        encodeBlock(trace.records.data() + b * capacity, records_in(b),
                    b * capacity, seeds.data() + b * n_cores, n_cores,
                    opt.legacy_payload, r.blocks[b]);
    };
    if (r.blocks.size() > 1) {
        // No more threads than blocks: a thread with no block to
        // encode would only add its start-up to the write.
        const unsigned threads =
            opt.threads != 0 ? opt.threads
                             : std::max(1u, std::thread::hardware_concurrency());
        util::WorkerPool pool(static_cast<unsigned>(
            std::min<std::uint64_t>(threads, r.blocks.size())));
        pool.parallelFor(r.blocks.size(), encode_one);
    } else if (r.blocks.size() == 1) {
        encode_one(0);
    }

    std::uint64_t off = region_offset + sizeof(BlockRegionHeader);
    r.directory.resize(r.blocks.size());
    for (std::size_t b = 0; b < r.blocks.size(); ++b) {
        BlockDirEntry& de = r.directory[b];
        de.offset = off;
        de.block_bytes = static_cast<std::uint32_t>(r.blocks[b].size());
        de.record_count = records_in(b);
        off += de.block_bytes;
    }
    r.header.directory_offset = off;
    r.trailer.dir_bytes = r.directory.size() * sizeof(BlockDirEntry);
    r.trailer.checksum = fnv1a64Bytes(
        r.directory.data(), static_cast<std::size_t>(r.trailer.dir_bytes));
    return r;
}

/** Every byte of a trace file, held as the pieces it is emitted from. */
struct Encoded
{
    const TraceData& trace;
    Header header;
    bool compress = false;
    Region region; ///< compress only; v1 writes trace.records as they are
    std::vector<std::uint8_t> index; ///< serialized footer, or empty
};

Encoded
encode(const TraceData& trace, const WriteOptions& opt)
{
    Encoded e{trace, headerFor(trace, opt), opt.compress, {}, {}};
    const std::uint32_t n_cores = e.header.num_spes + 1;
    const std::uint64_t region_offset = recordRegionOffsetFor(trace);
    std::uint32_t capacity = 0;
    if (opt.compress)
        capacity = std::min(opt.block_records == 0 ? kDefaultBlockRecords
                                                   : opt.block_records,
                            kMaxBlockRecords);
    const Replay r =
        replay(trace, n_cores, region_offset, capacity, opt.index_stride);
    if (opt.compress)
        e.region =
            encodeRegion(trace, r.seeds, n_cores, capacity, region_offset,
                         opt);
    if (opt.index_stride > 0)
        e.index = serializeIndex(r.index);
    return e;
}

/** The one serializer: the file's bytes in order, through
 *  @p put(const void* bytes, std::size_t n). */
template <typename Put>
void
emit(const Encoded& e, Put&& put)
{
    put(&e.header, sizeof(Header));
    for (const std::string& name : e.trace.spe_programs) {
        const auto len = static_cast<std::uint32_t>(name.size());
        put(&len, sizeof(len));
        if (!name.empty())
            put(name.data(), name.size());
    }
    if (e.compress) {
        const Region& r = e.region;
        put(&r.header, sizeof(r.header));
        for (const std::vector<std::uint8_t>& block : r.blocks)
            put(block.data(), block.size());
        if (!r.directory.empty())
            put(r.directory.data(),
                r.directory.size() * sizeof(BlockDirEntry));
        put(&r.trailer, sizeof(r.trailer));
    } else if (!e.trace.records.empty()) {
        put(e.trace.records.data(), e.trace.records.size() * sizeof(Record));
    }
    if (!e.index.empty())
        put(e.index.data(), e.index.size());
}

} // namespace

void
write(std::ostream& os, const TraceData& trace, const WriteOptions& opt)
{
    emit(encode(trace, opt), [&os](const void* p, std::size_t n) {
        os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    });
    if (!os)
        throw std::runtime_error("trace::write: stream failure");
}

void
writeFile(const std::string& path, const TraceData& trace,
          const WriteOptions& opt)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("trace::writeFile: cannot open " + path);
    write(os, trace, opt);
}

std::vector<std::uint8_t>
writeBuffer(const TraceData& trace, const WriteOptions& opt)
{
    const Encoded e = encode(trace, opt);
    std::size_t total = 0;
    emit(e, [&total](const void*, std::size_t n) { total += n; });
    std::vector<std::uint8_t> out(total);
    std::uint8_t* at = out.data();
    emit(e, [&at](const void* p, std::size_t n) {
        std::memcpy(at, p, n);
        at += n;
    });
    return out;
}

} // namespace cell::trace
