/**
 * @file
 * v3 block codec: varint payload encode/decode, region writer, the
 * salvage walk, the streaming BlockReader, and directory loading.
 *
 * Exactness argument for the delta scheme: every delta is computed
 * with modular (two's-complement) subtraction and re-applied with
 * modular addition, so encode/decode round-trips ARBITRARY field
 * values — including the garbage fields of deliberately-messy test
 * traces — not just well-formed ones. Zigzag only affects how many
 * varint bytes a delta costs, never whether it survives.
 */

#include "trace/block.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <unordered_map>

#include "trace/index.h"
#include "trace/replay.h"

namespace cell::trace {

namespace {

// -------------------------------------------------------------------------
// Varint / zigzag primitives

void
appendVarint(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
}

/** Bounded varint reader over a block payload. */
struct PayloadCursor
{
    const std::uint8_t* p;
    const std::uint8_t* end;

    /** Hot path: most deltas fit one byte; fall out of line otherwise
     *  so the fused record loop stays small. */
    std::uint64_t varint()
    {
        if (p != end && *p < 0x80)
            return *p++;
        return varintSlow();
    }

    /** Multi-byte (or end-of-stream) path. When at least 10 bytes
     *  remain the ladder runs with a single up-front bounds check;
     *  near the stream's end the checked loop takes over, so
     *  truncation still throws instead of over-reading. */
    __attribute__((noinline)) std::uint64_t varintSlow()
    {
        if (end - p >= 10) {
            const std::uint8_t* q = p;
            std::uint64_t b = *q++;
            std::uint64_t v = b & 0x7F;
            unsigned shift = 7;
            do {
                b = *q++;
                v |= (b & 0x7F) << shift;
                shift += 7;
            } while (b >= 0x80 && shift < 63);
            if (b >= 0x80) { // 10th byte carries bit 63
                b = *q++;
                if (b > 1)
                    throw std::runtime_error(
                        "trace::block: varint overflows 64 bits");
                v |= b << 63;
            }
            p = q;
            return v;
        }
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            if (p == end)
                throw std::runtime_error(
                    "trace::block: payload truncated inside a varint");
            const std::uint8_t byte = *p++;
            if (shift >= 63 && byte > 1)
                throw std::runtime_error(
                    "trace::block: varint overflows 64 bits");
            v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                return v;
            shift += 7;
        }
    }
};

/** Zero-run varint stream writer (columnar operand streams): nonzero
 *  values are plain varints; a run of zeros is a 0x00 escape byte plus
 *  a varint count. Unambiguous because a nonzero value's varint never
 *  starts with 0x00 (a zero low group forces the continuation bit). */
struct RunStream
{
    std::vector<std::uint8_t> bytes;
    std::uint64_t zeros = 0;

    void put(std::uint64_t z)
    {
        if (z == 0) {
            ++zeros;
            return;
        }
        flush();
        appendVarint(bytes, z);
    }

    void flush()
    {
        if (zeros > 0) {
            bytes.push_back(0);
            appendVarint(bytes, zeros);
            zeros = 0;
        }
    }
};

/** Zero-run varint stream reader, mirror of RunStream. */
struct RunCursor
{
    PayloadCursor in;
    std::uint64_t zeros = 0; ///< zero deltas still owed by a run

    std::uint64_t next()
    {
        if (zeros > 0) {
            --zeros;
            return 0;
        }
        if (in.p == in.end)
            throw std::runtime_error(
                "trace::block: operand stream truncated");
        if (*in.p == 0) {
            ++in.p;
            zeros = in.varint();
            if (zeros == 0)
                throw std::runtime_error(
                    "trace::block: empty zero run in operand stream");
            --zeros;
            return 0;
        }
        return in.varint();
    }

    void finish(const char* what) const
    {
        // A leftover run means the encoder claimed more zero deltas
        // than the block has records; leftover bytes mean the stream
        // length lied. Both are damage.
        if (zeros != 0 || in.p != in.end)
            throw std::runtime_error(
                std::string("trace::block: trailing bytes in the ") + what +
                " stream");
    }
};

// -------------------------------------------------------------------------
// Payload codec

/** Dictionary entry: one (kind, phase, core) triple plus the previous
 *  payload words of its last record (delta bases). The columnar layout
 *  additionally chains the previous DELTAS (qa..qd): its operand
 *  streams carry second-order differences, so a constant stride — DMA
 *  addresses marching through a buffer, a counter bumping by a fixed
 *  amount — flattens to a run of zeros. */
struct DictEntry
{
    std::uint8_t kind = 0;
    std::uint8_t phase = 0;
    std::uint16_t core = 0;
    std::uint64_t pa = 0, pb = 0;
    std::uint32_t pc = 0, pd = 0;
    std::uint64_t qa = 0, qb = 0;
    std::uint32_t qc = 0, qd = 0;
};

/**
 * Reusable per-thread decode state. The core->slot tables are stamped
 * with an epoch instead of cleared between blocks, so a block touching
 * 3 cores pays for 3 slots, not 65536 — while an adversarial block
 * whose dictionary sprays arbitrary u16 cores still decodes in O(n)
 * instead of the O(n^2) a linear slot scan would cost.
 */
struct DecodeScratch
{
    std::vector<std::uint32_t> core_epoch;   ///< stamp per core id
    std::vector<std::uint32_t> core_prev_ts; ///< valid when stamped
    std::uint32_t epoch = 0;
    std::vector<DictEntry> dict;

    void newEpoch()
    {
        if (++epoch == 0) { // u32 wrapped: stale stamps could alias
            std::fill(core_epoch.begin(), core_epoch.end(), 0);
            epoch = 1;
        }
    }

    void ensure(std::uint16_t core)
    {
        if (core >= core_epoch.size()) {
            std::size_t sz = core_epoch.empty() ? 64 : core_epoch.size();
            while (sz <= core)
                sz *= 2;
            core_epoch.resize(sz, 0);
            core_prev_ts.resize(sz, 0);
        }
    }
};

DecodeScratch&
scratch()
{
    thread_local DecodeScratch s;
    return s;
}

std::uint32_t
dictKey(const Record& r)
{
    return (static_cast<std::uint32_t>(r.core) << 16) |
           (static_cast<std::uint32_t>(r.phase) << 8) | r.kind;
}

/** Build the (kind, phase, core) dictionary in first-appearance order. */
void
buildDict(const Record* recs, std::size_t n, std::vector<DictEntry>& dict,
          std::unordered_map<std::uint32_t, std::uint32_t>& dict_of)
{
    dict_of.reserve(64);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t key = dictKey(recs[i]);
        if (dict_of.emplace(key, dict.size()).second) {
            DictEntry e;
            e.kind = recs[i].kind;
            e.phase = recs[i].phase;
            e.core = recs[i].core;
            dict.push_back(e);
        }
    }
}

void
appendDict(std::vector<std::uint8_t>& out, const std::vector<DictEntry>& dict)
{
    appendVarint(out, dict.size());
    for (const DictEntry& e : dict) {
        appendVarint(out, (static_cast<std::uint64_t>(e.core) << 16) |
                              (static_cast<std::uint64_t>(e.phase) << 8) |
                              e.kind);
    }
}

/** Parse a dictionary stream into @p dict (shared validation). */
void
readDict(PayloadCursor& in, std::uint32_t record_count,
         std::vector<DictEntry>& dict)
{
    const std::uint64_t dict_count = in.varint();
    if (dict_count > record_count || (record_count > 0 && dict_count == 0))
        throw std::runtime_error(
            "trace::block: dictionary size implausible (" +
            std::to_string(dict_count) + " entries, " +
            std::to_string(record_count) + " records)");
    dict.assign(static_cast<std::size_t>(dict_count), DictEntry{});
    for (DictEntry& e : dict) {
        const std::uint64_t packed = in.varint();
        if (packed > 0xFFFFFFFFULL)
            throw std::runtime_error(
                "trace::block: dictionary entry out of range");
        e.core = static_cast<std::uint16_t>(packed >> 16);
        e.phase = static_cast<std::uint8_t>(packed >> 8);
        e.kind = static_cast<std::uint8_t>(packed);
    }
}

/** The original interleaved layout (BlockHeader::payload == 0). */
void
encodeInterleavedPayload(const Record* recs, std::size_t n,
                         std::vector<std::uint8_t>& out)
{
    std::vector<DictEntry> dict;
    std::unordered_map<std::uint32_t, std::uint32_t> dict_of;
    buildDict(recs, n, dict, dict_of);
    appendDict(out, dict);

    DecodeScratch& sc = scratch();
    sc.newEpoch();
    for (std::size_t i = 0; i < n; ++i) {
        const Record& r = recs[i];
        const std::uint32_t idx = dict_of.find(dictKey(r))->second;
        DictEntry& e = dict[idx];
        appendVarint(out, idx);

        sc.ensure(r.core);
        if (sc.core_epoch[r.core] != sc.epoch) {
            appendVarint(out, r.timestamp);
            sc.core_epoch[r.core] = sc.epoch;
        } else {
            const auto d = static_cast<std::int32_t>(
                r.timestamp - sc.core_prev_ts[r.core]);
            appendVarint(out, zigzag(d));
        }
        sc.core_prev_ts[r.core] = r.timestamp;

        appendVarint(out, zigzag(static_cast<std::int64_t>(r.a - e.pa)));
        appendVarint(out, zigzag(static_cast<std::int64_t>(r.b - e.pb)));
        appendVarint(
            out, zigzag(static_cast<std::int32_t>(r.c - e.pc)));
        appendVarint(
            out, zigzag(static_cast<std::int32_t>(r.d - e.pd)));
        e.pa = r.a;
        e.pb = r.b;
        e.pc = r.c;
        e.pd = r.d;
    }
}

void
decodeInterleavedInto(const std::uint8_t* p, std::size_t len,
                      std::uint32_t record_count, Record* dst)
{
    PayloadCursor in{p, p + len};

    DecodeScratch& sc = scratch();
    readDict(in, record_count, sc.dict);
    const std::uint64_t dict_count = sc.dict.size();
    DictEntry* const dict = sc.dict.data();

    sc.newEpoch();
    std::uint16_t max_core = 0;
    for (std::uint64_t k = 0; k < dict_count; ++k)
        max_core = std::max(max_core, dict[k].core);
    sc.ensure(max_core);
    std::uint32_t* const core_epoch = sc.core_epoch.data();
    std::uint32_t* const core_prev_ts = sc.core_prev_ts.data();
    for (std::uint32_t i = 0; i < record_count; ++i) {
        const std::uint64_t idx = in.varint();
        if (idx >= dict_count)
            throw std::runtime_error(
                "trace::block: dictionary index out of range at record " +
                std::to_string(i));
        DictEntry& e = dict[static_cast<std::size_t>(idx)];

        Record& r = dst[i];
        r.kind = e.kind;
        r.phase = e.phase;
        r.core = e.core;

        const std::uint64_t tv = in.varint();
        if (core_epoch[e.core] != sc.epoch) {
            if (tv > 0xFFFFFFFFULL)
                throw std::runtime_error(
                    "trace::block: absolute timestamp out of range");
            r.timestamp = static_cast<std::uint32_t>(tv);
            core_epoch[e.core] = sc.epoch;
        } else {
            r.timestamp = core_prev_ts[e.core] +
                          static_cast<std::uint32_t>(unzigzag(tv));
        }
        core_prev_ts[e.core] = r.timestamp;

        r.a = e.pa + static_cast<std::uint64_t>(unzigzag(in.varint()));
        r.b = e.pb + static_cast<std::uint64_t>(unzigzag(in.varint()));
        r.c = e.pc + static_cast<std::uint32_t>(unzigzag(in.varint()));
        r.d = e.pd + static_cast<std::uint32_t>(unzigzag(in.varint()));
        e.pa = r.a;
        e.pb = r.b;
        e.pc = r.c;
        e.pd = r.d;
    }
    if (in.p != in.end)
        throw std::runtime_error("trace::block: trailing payload bytes");
}

/** Columnar layout (BlockHeader::payload == 1): a u32[7] stream-length
 *  table, then the dict / index / timestamp / a / b / c / d streams
 *  back to back. Field semantics are identical to interleaved. */
constexpr std::size_t kStreamTableBytes = 7 * sizeof(std::uint32_t);

void
encodeColumnarPayload(const Record* recs, std::size_t n,
                      std::vector<std::uint8_t>& out)
{
    std::vector<DictEntry> dict;
    std::unordered_map<std::uint32_t, std::uint32_t> dict_of;
    buildDict(recs, n, dict, dict_of);

    std::vector<std::uint8_t> s_dict, s_idx, s_ts;
    RunStream s_a, s_b, s_c, s_d;
    appendDict(s_dict, dict);
    s_idx.reserve(n);
    s_ts.reserve(n * 2);

    DecodeScratch& sc = scratch();
    sc.newEpoch();
    for (std::size_t i = 0; i < n; ++i) {
        const Record& r = recs[i];
        const std::uint32_t idx = dict_of.find(dictKey(r))->second;
        DictEntry& e = dict[idx];
        appendVarint(s_idx, idx);

        sc.ensure(r.core);
        if (sc.core_epoch[r.core] != sc.epoch) {
            appendVarint(s_ts, r.timestamp);
            sc.core_epoch[r.core] = sc.epoch;
        } else {
            const auto d = static_cast<std::int32_t>(
                r.timestamp - sc.core_prev_ts[r.core]);
            appendVarint(s_ts, zigzag(d));
        }
        sc.core_prev_ts[r.core] = r.timestamp;

        const std::uint64_t da = r.a - e.pa;
        const std::uint64_t db = r.b - e.pb;
        const std::uint32_t dc = r.c - e.pc;
        const std::uint32_t dd = r.d - e.pd;
        s_a.put(zigzag(static_cast<std::int64_t>(da - e.qa)));
        s_b.put(zigzag(static_cast<std::int64_t>(db - e.qb)));
        s_c.put(zigzag(static_cast<std::int32_t>(dc - e.qc)));
        s_d.put(zigzag(static_cast<std::int32_t>(dd - e.qd)));
        e.qa = da;
        e.qb = db;
        e.qc = dc;
        e.qd = dd;
        e.pa = r.a;
        e.pb = r.b;
        e.pc = r.c;
        e.pd = r.d;
    }
    s_a.flush();
    s_b.flush();
    s_c.flush();
    s_d.flush();

    const std::uint32_t lens[7] = {
        static_cast<std::uint32_t>(s_dict.size()),
        static_cast<std::uint32_t>(s_idx.size()),
        static_cast<std::uint32_t>(s_ts.size()),
        static_cast<std::uint32_t>(s_a.bytes.size()),
        static_cast<std::uint32_t>(s_b.bytes.size()),
        static_cast<std::uint32_t>(s_c.bytes.size()),
        static_cast<std::uint32_t>(s_d.bytes.size()),
    };
    const std::size_t at = out.size();
    out.resize(at + kStreamTableBytes);
    std::memcpy(out.data() + at, lens, kStreamTableBytes);
    for (const std::vector<std::uint8_t>* s :
         {&s_dict, &s_idx, &s_ts, &s_a.bytes, &s_b.bytes, &s_c.bytes,
          &s_d.bytes})
        out.insert(out.end(), s->begin(), s->end());
}

void
decodeColumnarInto(const std::uint8_t* p, std::size_t len,
                   std::uint32_t record_count, Record* dst)
{
    if (len < kStreamTableBytes)
        throw std::runtime_error(
            "trace::block: columnar payload missing its stream table");
    std::uint32_t lens[7];
    std::memcpy(lens, p, kStreamTableBytes);
    std::uint64_t total = kStreamTableBytes;
    for (const std::uint32_t l : lens)
        total += l;
    if (total != len)
        throw std::runtime_error(
            "trace::block: stream lengths disagree with the payload size");
    const std::uint8_t* streams[7];
    const std::uint8_t* s = p + kStreamTableBytes;
    for (int i = 0; i < 7; ++i) {
        streams[i] = s;
        s += lens[i];
    }

    DecodeScratch& sc = scratch();

    PayloadCursor dict_in{streams[0], streams[0] + lens[0]};
    readDict(dict_in, record_count, sc.dict);
    if (dict_in.p != dict_in.end)
        throw std::runtime_error(
            "trace::block: trailing bytes in the dictionary stream");
    const std::uint64_t dict_count = sc.dict.size();
    DictEntry* const dict = sc.dict.data();

    // Every core in the block appears in the dictionary, so one grow
    // up front keeps the record loop free of bounds housekeeping.
    sc.newEpoch();
    std::uint16_t max_core = 0;
    for (std::uint64_t k = 0; k < dict_count; ++k)
        max_core = std::max(max_core, dict[k].core);
    sc.ensure(max_core);
    std::uint32_t* const core_epoch = sc.core_epoch.data();
    std::uint32_t* const core_prev_ts = sc.core_prev_ts.data();

    // Fused pass: each record pulls its next value from all seven
    // cursors and lands in its final slot with one full 32-byte store —
    // the destination is touched exactly once, which is what lets the
    // whole-file decode keep up with the v1 memcpy it replaces.
    PayloadCursor idx_in{streams[1], streams[1] + lens[1]};
    PayloadCursor ts_in{streams[2], streams[2] + lens[2]};
    RunCursor a_in{{streams[3], streams[3] + lens[3]}, 0};
    RunCursor b_in{{streams[4], streams[4] + lens[4]}, 0};
    RunCursor c_in{{streams[5], streams[5] + lens[5]}, 0};
    RunCursor d_in{{streams[6], streams[6] + lens[6]}, 0};
    for (std::uint32_t i = 0; i < record_count; ++i) {
        const std::uint64_t idx = idx_in.varint();
        if (idx >= dict_count)
            throw std::runtime_error(
                "trace::block: dictionary index out of range at record " +
                std::to_string(i));
        DictEntry& e = dict[static_cast<std::size_t>(idx)];
        Record& r = dst[i];
        r.kind = e.kind;
        r.phase = e.phase;
        r.core = e.core;

        const std::uint64_t tv = ts_in.varint();
        if (core_epoch[e.core] != sc.epoch) {
            if (tv > 0xFFFFFFFFULL)
                throw std::runtime_error(
                    "trace::block: absolute timestamp out of range");
            r.timestamp = static_cast<std::uint32_t>(tv);
            core_epoch[e.core] = sc.epoch;
        } else {
            r.timestamp = core_prev_ts[e.core] +
                          static_cast<std::uint32_t>(unzigzag(tv));
        }
        core_prev_ts[e.core] = r.timestamp;

        r.a = e.pa +=
            e.qa += static_cast<std::uint64_t>(unzigzag(a_in.next()));
        r.b = e.pb +=
            e.qb += static_cast<std::uint64_t>(unzigzag(b_in.next()));
        r.c = e.pc +=
            e.qc += static_cast<std::uint32_t>(unzigzag(c_in.next()));
        r.d = e.pd +=
            e.qd += static_cast<std::uint32_t>(unzigzag(d_in.next()));
    }
    if (idx_in.p != idx_in.end)
        throw std::runtime_error(
            "trace::block: trailing bytes in the index stream");
    if (ts_in.p != ts_in.end)
        throw std::runtime_error(
            "trace::block: trailing bytes in the timestamp stream");
    a_in.finish("a");
    b_in.finish("b");
    c_in.finish("c");
    d_in.finish("d");
}

/** Payload dispatch on the (already validated) header. */
void
decodePayloadInto(const BlockHeader& hdr, const std::uint8_t* payload,
                  Record* dst)
{
    if (hdr.payload == kPayloadColumnar)
        decodeColumnarInto(payload, hdr.payload_size, hdr.record_count, dst);
    else
        decodeInterleavedInto(payload, hdr.payload_size, hdr.record_count,
                              dst);
}

// -------------------------------------------------------------------------
// Shared validation

/** Structural plausibility of a block header against the region's
 *  capacity — everything checkable without touching the body. */
bool
plausibleBlockHeader(const BlockHeader& bh, std::uint32_t capacity)
{
    return bh.magic == kBlockMagic && bh.record_count > 0 &&
           bh.record_count <= capacity && bh.seed_count <= 4096 &&
           (bh.payload == kPayloadInterleaved ||
            bh.payload == kPayloadColumnar) &&
           bh.uncompressed_size ==
               bh.record_count * static_cast<std::uint32_t>(sizeof(Record)) &&
           static_cast<std::uint64_t>(bh.seed_count) * sizeof(BlockSeed) +
                   bh.payload_size <=
               maxBlockBodyBytes(bh.record_count, bh.seed_count) &&
           bh.first_record < (std::uint64_t{1} << 48);
}

/** Structural plausibility of a region header (lengths unchecked). */
bool
plausibleRegionHeader(const BlockRegionHeader& rh)
{
    return rh.magic == kBlockRegionMagic && rh.version == kFormatVersionV3 &&
           rh.block_capacity >= 1 && rh.block_capacity <= kMaxBlockRecords &&
           rh.record_count < (std::uint64_t{1} << 48) &&
           rh.block_count ==
               (rh.record_count + rh.block_capacity - 1) / rh.block_capacity;
}

/** Salvage-note helper, same 16-note cap as the v1 salvage reader. */
void
note(ReadReport& rep, std::string text)
{
    constexpr std::size_t kMaxNotes = 16;
    rep.salvaged = true;
    if (rep.notes.size() < kMaxNotes)
        rep.notes.push_back(std::move(text));
    else if (rep.notes.size() == kMaxNotes)
        rep.notes.push_back("... further problems elided");
}

/** Read exactly @p n bytes from @p is or throw with context. */
void
readExact(std::istream& is, void* dst, std::size_t n, const char* what)
{
    is.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is || static_cast<std::size_t>(is.gcount()) != n)
        throw std::runtime_error(std::string("trace::block: truncated ") +
                                 what);
}

} // namespace

// -------------------------------------------------------------------------
// Public codec

std::uint64_t
maxBlockBodyBytes(std::uint32_t record_count, std::uint32_t seed_count)
{
    // Varint worst cases: <= 3 bytes dict index (dict <= 2^20 entries),
    // 5 timestamp, 10 + 10 a/b, 5 + 5 c/d = 38 per record; <= 5 bytes
    // per dictionary entry (packed < 2^32) with at most one entry per
    // record; 10 for the dictionary count. The columnar layout adds a
    // 28-byte stream table and at worst 2 bytes for an isolated zero
    // delta (0x00 escape + count 1), both under the same envelope:
    // fixed 28 + 10 <= 64 and per-record 38 + 5 <= 48. So one bound,
    // 48/record + 64, covers both layouts.
    return static_cast<std::uint64_t>(seed_count) * sizeof(BlockSeed) + 64 +
           static_cast<std::uint64_t>(record_count) * 48;
}

std::vector<std::uint8_t>
encodeBlockRegion(const TraceData& trace, const Header& header,
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
    dir.reserve(static_cast<std::size_t>(rh.block_count));

    // Per-core replay state, mirroring buildIndex: the seeds written
    // for block k are the state a serial decode carries into record
    // k * capacity.
    struct CoreState
    {
        ClockReplay clk;
        std::uint64_t clamp = 0;
        std::uint64_t open = 0;
        std::uint64_t seen = 0;
    };
    std::vector<CoreState> cores(n_cores);

    std::vector<std::uint8_t> body;
    for (std::uint64_t first = 0; first < count; first += capacity) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(capacity, count - first));

        body.clear();
        for (std::uint32_t c = 0; c < n_cores; ++c) {
            BlockSeed s;
            s.tick = cores[c].clamp;
            s.sync_tb = cores[c].clk.sync_tb;
            s.open_begins = cores[c].open;
            s.records_before = cores[c].seen;
            s.sync_raw = cores[c].clk.sync_raw;
            s.epoch = cores[c].clk.epoch;
            s.core = static_cast<std::uint16_t>(c);
            s.flags = cores[c].clk.have_sync ? kSeedHaveSync : 0;
            const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
            body.insert(body.end(), p, p + sizeof(s));
        }
        const std::size_t seeds_bytes = body.size();
        if (legacy_payload)
            encodeInterleavedPayload(trace.records.data() + first, n, body);
        else
            encodeColumnarPayload(trace.records.data() + first, n, body);

        BlockHeader bh;
        bh.record_count = static_cast<std::uint32_t>(n);
        bh.payload_size = static_cast<std::uint32_t>(body.size() - seeds_bytes);
        bh.seed_count = n_cores;
        bh.first_record = first;
        // Columnar blocks use the word-lane FNV: the byte-serial form
        // runs at ~1 mul/byte and would dominate the decode time the
        // columnar layout exists to save. The payload bit that selects
        // the decoder selects the checksum algorithm too.
        bh.checksum = legacy_payload
                          ? fnv1a64Bytes(body.data(), body.size())
                          : fnv1a64Words(body.data(), body.size());
        bh.uncompressed_size =
            static_cast<std::uint32_t>(n * sizeof(Record));
        bh.payload = legacy_payload ? kPayloadInterleaved : kPayloadColumnar;

        BlockDirEntry de;
        de.offset = region_offset + out.size();
        de.block_bytes =
            static_cast<std::uint32_t>(sizeof(BlockHeader) + body.size());
        de.record_count = bh.record_count;
        dir.push_back(de);

        const auto* hp = reinterpret_cast<const std::uint8_t*>(&bh);
        out.insert(out.end(), hp, hp + sizeof(bh));
        out.insert(out.end(), body.begin(), body.end());

        // Advance the replay state through this block's records.
        for (std::size_t i = 0; i < n; ++i) {
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
    if (!dir.empty()) {
        const auto* dp = reinterpret_cast<const std::uint8_t*>(dir.data());
        out.insert(out.end(), dp, dp + dir.size() * sizeof(BlockDirEntry));
    }
    BlockDirTrailer tr;
    tr.dir_bytes = dir.size() * sizeof(BlockDirEntry);
    tr.checksum = fnv1a64Bytes(dir.data(), static_cast<std::size_t>(
                                               tr.dir_bytes));
    const auto* tp = reinterpret_cast<const std::uint8_t*>(&tr);
    out.insert(out.end(), tp, tp + sizeof(tr));

    std::memcpy(out.data(), &rh, sizeof(rh));
    return out;
}

namespace {

/** Shared structural validation: everything but the payload decode.
 *  Returns the seed-bytes length. */
std::uint64_t
validateBlockBody(const BlockHeader& hdr, const std::uint8_t* body,
                  std::size_t body_len, std::uint32_t capacity)
{
    if (!plausibleBlockHeader(hdr, capacity))
        throw std::runtime_error(
            "trace::block: implausible block header (record " +
            std::to_string(hdr.first_record) + ")");
    const std::uint64_t seeds_bytes =
        static_cast<std::uint64_t>(hdr.seed_count) * sizeof(BlockSeed);
    if (body_len != seeds_bytes + hdr.payload_size)
        throw std::runtime_error(
            "trace::block: body size disagrees with its header");
    const std::uint64_t sum = hdr.payload == kPayloadColumnar
                                  ? fnv1a64Words(body, body_len)
                                  : fnv1a64Bytes(body, body_len);
    if (sum != hdr.checksum)
        throw std::runtime_error(
            "trace::block: checksum mismatch in block at record " +
            std::to_string(hdr.first_record));
    return seeds_bytes;
}

} // namespace

void
decodeBlockBody(const BlockHeader& hdr, const std::uint8_t* body,
                std::size_t body_len, std::uint32_t capacity,
                DecodedBlock& out)
{
    const std::uint64_t seeds_bytes =
        validateBlockBody(hdr, body, body_len, capacity);
    out.header = hdr;
    out.seeds.resize(hdr.seed_count);
    if (hdr.seed_count > 0)
        std::memcpy(out.seeds.data(), body,
                    static_cast<std::size_t>(seeds_bytes));
    out.records.resize(hdr.record_count);
    decodePayloadInto(hdr, body + seeds_bytes, out.records.data());
}

void
decodeBlockBodyInto(const BlockHeader& hdr, const std::uint8_t* body,
                    std::size_t body_len, std::uint32_t capacity,
                    Record* dst)
{
    const std::uint64_t seeds_bytes =
        validateBlockBody(hdr, body, body_len, capacity);
    decodePayloadInto(hdr, body + seeds_bytes, dst);
}

// -------------------------------------------------------------------------
// Salvage walk

void
salvageBlockRegion(const std::uint8_t* data, std::size_t len,
                   std::uint64_t region_offset, std::uint32_t num_spes,
                   std::vector<Record>& raw, ReadReport& rep)
{
    if (len < sizeof(BlockRegionHeader)) {
        note(rep, "block region truncated before its header");
        rep.bytes_dropped += len;
        return;
    }
    BlockRegionHeader rh;
    std::memcpy(&rh, data, sizeof(rh));
    const bool rh_ok = plausibleRegionHeader(rh) &&
                       rh.directory_offset >=
                           region_offset + sizeof(BlockRegionHeader) &&
                       rh.directory_offset - region_offset <= len;
    std::uint64_t walk_end = len;
    std::uint32_t capacity = kMaxBlockRecords;
    if (rh_ok) {
        walk_end = rh.directory_offset - region_offset;
        capacity = rh.block_capacity;
    } else {
        note(rep, "block region header corrupt; scanning for blocks");
    }

    const std::uint32_t n_cores = num_spes + 1;
    struct CoreSt
    {
        bool have_sync = false;
        std::uint32_t sync_raw = 0;
        std::uint64_t sync_tb = 0;
        std::uint64_t decoded = 0;      ///< this core's records recovered
        std::uint64_t cum_dropped = 0;  ///< running drop-marker cumulative
    };
    std::vector<CoreSt> cores(n_cores);

    std::uint64_t next_ordinal = 0; ///< records accounted (decoded + lost)
    std::uint64_t good_bytes = 0;
    std::uint64_t pos = sizeof(BlockRegionHeader);
    DecodedBlock blk;

    while (pos + sizeof(BlockHeader) <= walk_end) {
        BlockHeader bh;
        std::memcpy(&bh, data + pos, sizeof(bh));
        const std::uint64_t body_len =
            static_cast<std::uint64_t>(bh.seed_count) * sizeof(BlockSeed) +
            bh.payload_size;
        // seed_count is deliberately NOT checked against n_cores: when
        // the FILE header's SPE count is the corrupt field, the blocks
        // (whose checksums still pass) are the ground truth.
        bool ok = plausibleBlockHeader(bh, capacity) &&
                  bh.first_record >= next_ordinal &&
                  pos + sizeof(BlockHeader) + body_len <= walk_end;
        if (ok) {
            try {
                decodeBlockBody(bh, data + pos + sizeof(BlockHeader),
                                static_cast<std::size_t>(body_len), capacity,
                                blk);
            } catch (const std::runtime_error& e) {
                note(rep, std::string(e.what()) + "; block dropped");
                ok = false;
            }
        }
        if (!ok) {
            // Resynchronize: scan byte-by-byte for the next block magic.
            std::uint64_t next = pos + 1;
            for (; next + sizeof(BlockHeader) <= walk_end; ++next) {
                std::uint32_t m;
                std::memcpy(&m, data + next, sizeof(m));
                if (m == kBlockMagic)
                    break;
            }
            pos = next;
            continue;
        }

        if (bh.first_record > next_ordinal) {
            const std::uint64_t lost = bh.first_record - next_ordinal;
            rep.records_skipped += lost;
            note(rep, "block gap: records " + std::to_string(next_ordinal) +
                          ".." + std::to_string(bh.first_record - 1) + " (" +
                          std::to_string(lost) + ") lost; resynced from "
                          "block seeds");
            // Resynchronize each core from the good block's seeds:
            // restore the clock mapping a full decode would have had
            // (synthetic sync) and mark the loss (synthetic drop with
            // the exact per-core count) so post-gap events place
            // identically and the analyzer flags the gap.
            for (const BlockSeed& s : blk.seeds) {
                if (s.core >= n_cores)
                    continue;
                CoreSt& c = cores[s.core];
                const std::uint64_t lost_c =
                    s.records_before > c.decoded ? s.records_before - c.decoded
                                                 : 0;
                if ((s.flags & kSeedHaveSync) != 0 &&
                    (!c.have_sync || c.sync_raw != s.sync_raw ||
                     c.sync_tb != s.sync_tb)) {
                    Record sync{};
                    sync.kind = kSyncRecord;
                    sync.core = s.core;
                    sync.timestamp = s.sync_raw;
                    sync.a = s.sync_raw;
                    sync.b = s.sync_tb;
                    raw.push_back(sync);
                    c.have_sync = true;
                    c.sync_raw = s.sync_raw;
                    c.sync_tb = s.sync_tb;
                }
                if (lost_c > 0 && c.have_sync) {
                    // Place the marker at the seed tick when it is
                    // representable from the mapping; the analyzer's
                    // monotonic clamp absorbs any shortfall.
                    const std::uint64_t delta =
                        s.tick >= s.sync_tb &&
                                s.tick - s.sync_tb <= 0xFFFFFFFFULL
                            ? s.tick - s.sync_tb
                            : 0;
                    Record drop{};
                    drop.kind = kDropRecord;
                    drop.core = s.core;
                    drop.timestamp = rawTimestamp(
                        s.core, c.sync_raw, static_cast<std::uint32_t>(delta));
                    drop.a = lost_c;
                    drop.b = c.cum_dropped += lost_c;
                    raw.push_back(drop);
                }
                if (lost_c > 0)
                    c.decoded = s.records_before;
            }
        }

        for (const Record& r : blk.records) {
            raw.push_back(r);
            if (r.core >= n_cores)
                continue;
            CoreSt& c = cores[r.core];
            c.decoded += 1;
            if (r.kind == kSyncRecord) {
                c.have_sync = true;
                c.sync_raw = static_cast<std::uint32_t>(r.a);
                c.sync_tb = r.b;
            } else if (r.kind == kDropRecord) {
                c.cum_dropped = r.b;
            }
        }
        next_ordinal = bh.first_record + bh.record_count;
        good_bytes += sizeof(BlockHeader) + body_len;
        pos += sizeof(BlockHeader) + body_len;
    }

    if (rh_ok && rh.record_count > next_ordinal) {
        const std::uint64_t lost = rh.record_count - next_ordinal;
        rep.records_skipped += lost;
        note(rep, "trailing blocks lost: records " +
                      std::to_string(next_ordinal) + ".." +
                      std::to_string(rh.record_count - 1) + " (" +
                      std::to_string(lost) + ")");
    }
    const std::uint64_t walked = walk_end - sizeof(BlockRegionHeader);
    if (walked > good_bytes)
        rep.bytes_dropped += walked - good_bytes;
}

// -------------------------------------------------------------------------
// Streaming reader

BlockReader::BlockReader(std::istream& is) : is_(&is) { parseHeaders(); }

BlockReader::BlockReader(const std::string& path) : map_(path)
{
    if (map_.valid()) {
        mem_ = map_.data();
        mem_len_ = map_.size();
    } else {
        // Not mappable (FIFO, /proc-style pseudo-file, no mmap on this
        // platform): buffered stream reads produce identical output.
        owned_is_ = std::make_unique<std::ifstream>(path, std::ios::binary);
        if (!*owned_is_)
            throw std::runtime_error("trace::BlockReader: cannot open " +
                                     path);
        is_ = owned_is_.get();
    }
    parseHeaders();
}

BlockReader::~BlockReader()
{
    // In-flight decodes hold raw pointers into the inflight slots (and
    // the mapping); let them land before anything is torn down.
    for (const std::unique_ptr<Inflight>& inf : inflight_) {
        if (inf->done.valid())
            inf->done.wait();
    }
}

void
BlockReader::readSeq(void* dst, std::size_t n, const char* what)
{
    if (mem_ != nullptr) {
        if (seq_pos_ > mem_len_ || n > mem_len_ - seq_pos_)
            throw std::runtime_error(std::string("trace::block: truncated ") +
                                     what);
        std::memcpy(dst, mem_ + seq_pos_, n);
        seq_pos_ += n;
        return;
    }
    readExact(*is_, dst, n, what);
}

void
BlockReader::parseHeaders()
{
    std::uint64_t at = 0;
    if (is_ != nullptr) {
        const auto base = is_->tellg();
        if (base != std::streampos(-1))
            at = static_cast<std::uint64_t>(base);
        is_->clear();
    }

    readSeq(&header_, sizeof(header_), "file header");
    at += sizeof(header_);
    if (header_.magic != kMagic)
        throw std::runtime_error(
            "trace::BlockReader: bad magic (not a PDT trace)");
    if (header_.version != kFormatVersionV3)
        throw std::runtime_error(
            "trace::BlockReader: not a v3 compressed trace (version " +
            std::to_string(header_.version) + ")");

    names_.resize(header_.num_spes);
    for (std::string& name : names_) {
        std::uint32_t nlen = 0;
        readSeq(&nlen, sizeof(nlen), "name table");
        if (nlen > (1u << 20))
            throw std::runtime_error(
                "trace::BlockReader: implausible name length " +
                std::to_string(nlen));
        name.resize(nlen);
        readSeq(name.data(), nlen, "name table");
        at += sizeof(nlen) + nlen;
    }

    region_offset_ = at;
    readSeq(&region_, sizeof(region_), "block region header");
    if (!plausibleRegionHeader(region_) ||
        region_.record_count != header_.record_count)
        throw std::runtime_error(
            "trace::BlockReader: corrupt block region header");
    next_offset_ = at + sizeof(region_);
    header_.version = kFormatVersion; // decode is transparent
}

void
BlockReader::pipeline(util::WorkerPool& pool, unsigned window)
{
    pool_ = &pool;
    window_ = std::min(std::max(window, 1u), 16u);
}

bool
BlockReader::startPrefetch()
{
    // Source-side cursor: the consumer is at next_block_, the source
    // has additionally been read ahead by the in-flight count.
    const std::uint64_t k = next_block_ + inflight_.size();
    if (src_failed_ || k >= region_.block_count)
        return false;

    std::unique_ptr<Inflight> inf;
    if (!free_.empty()) {
        inf = std::move(free_.back());
        free_.pop_back();
        inf->error = nullptr;
        inf->done = std::future<void>();
    } else {
        inf = std::make_unique<Inflight>();
    }
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    try {
        if (mem_ != nullptr) {
            seq_pos_ = next_offset_;
        } else {
            // Re-seek when possible so next() composes with
            // readBlock(); a non-seekable stream is simply assumed
            // still in sequence.
            is_->clear();
            const auto pos = is_->tellg();
            if (pos != std::streampos(-1) &&
                static_cast<std::uint64_t>(pos) != next_offset_)
                is_->seekg(static_cast<std::streamoff>(next_offset_));
        }

        BlockHeader& bh = inf->header;
        readSeq(&bh, sizeof(bh), "block header");
        if (!plausibleBlockHeader(bh, region_.block_capacity) ||
            bh.first_record != next_first_)
            throw std::runtime_error(
                "trace::BlockReader: corrupt block header at block " +
                std::to_string(k));
        const std::uint64_t expect = std::min<std::uint64_t>(
            region_.block_capacity, region_.record_count - next_first_);
        if (bh.record_count != expect)
            throw std::runtime_error(
                "trace::BlockReader: block " + std::to_string(k) +
                " claims " + std::to_string(bh.record_count) + " records, " +
                std::to_string(expect) + " expected");

        body_len = static_cast<std::size_t>(bh.seed_count) *
                       sizeof(BlockSeed) +
                   bh.payload_size;
        if (mem_ != nullptr) {
            if (seq_pos_ > mem_len_ || body_len > mem_len_ - seq_pos_)
                throw std::runtime_error(
                    "trace::block: truncated block body");
            body = mem_ + seq_pos_; // zero copy off the mapping
            seq_pos_ += body_len;
        } else {
            inf->body.resize(body_len);
            readSeq(inf->body.data(), body_len, "block body");
            body = inf->body.data();
        }
        next_offset_ += sizeof(BlockHeader) + body_len;
        next_first_ += inf->header.record_count;
    } catch (...) {
        // Surface the failure when the consumer reaches this block —
        // not while it is still draining earlier, intact ones — and
        // stop reading a source whose cursor is now undefined.
        inf->error = std::current_exception();
        src_failed_ = true;
        inflight_.push_back(std::move(inf));
        return false;
    }

    const std::uint32_t capacity = region_.block_capacity;
    Inflight* raw = inf.get();
    auto decode = [raw, body, body_len, capacity]() {
        try {
            decodeBlockBody(raw->header, body, body_len, capacity,
                            raw->block);
        } catch (...) {
            raw->error = std::current_exception();
        }
    };
    if (pool_ != nullptr)
        inf->done = pool_->submit(decode);
    else
        decode();
    inflight_.push_back(std::move(inf));
    return true;
}

bool
BlockReader::next(DecodedBlock& out)
{
    const unsigned window = pool_ != nullptr ? window_ : 1;
    while (inflight_.size() < window && startPrefetch()) {
    }
    if (inflight_.empty())
        return false;

    std::unique_ptr<Inflight> inf = std::move(inflight_.front());
    inflight_.pop_front();
    if (inf->done.valid())
        inf->done.get(); // decode errors land in inf->error, not here
    if (inf->error)
        std::rethrow_exception(inf->error);
    // Swap rather than move: the caller's previous block buffers flow
    // back into the slot pool, so steady state allocates nothing.
    std::swap(out, inf->block);
    free_.push_back(std::move(inf));
    next_block_ += 1;
    return true;
}

const std::vector<BlockDirEntry>&
BlockReader::directory()
{
    if (!have_directory_) {
        directory_ = mem_ != nullptr
                         ? loadBlockDirectory(mem_, mem_len_, region_offset_,
                                              region_)
                         : loadBlockDirectory(*is_, region_offset_, region_);
        have_directory_ = true;
    }
    return directory_;
}

void
BlockReader::readBlock(std::uint64_t index, DecodedBlock& out)
{
    const std::vector<BlockDirEntry>& dir = directory();
    if (index >= dir.size())
        throw std::runtime_error("trace::BlockReader: block index " +
                                 std::to_string(index) + " out of range");
    const BlockDirEntry& de = dir[index];
    BlockHeader bh;
    if (mem_ != nullptr) {
        if (de.block_bytes < sizeof(bh) || de.offset > mem_len_ ||
            de.block_bytes > mem_len_ - de.offset)
            throw std::runtime_error("trace::block: truncated block header");
        std::memcpy(&bh, mem_ + de.offset, sizeof(bh));
        if (bh.record_count != de.record_count ||
            sizeof(bh) + static_cast<std::uint64_t>(bh.seed_count) *
                             sizeof(BlockSeed) +
                bh.payload_size !=
                de.block_bytes)
            throw std::runtime_error(
                "trace::BlockReader: block disagrees with the directory at "
                "block " +
                std::to_string(index));
        decodeBlockBody(bh, mem_ + de.offset + sizeof(bh),
                        de.block_bytes - sizeof(bh), region_.block_capacity,
                        out);
        return;
    }
    is_->clear();
    is_->seekg(static_cast<std::streamoff>(de.offset));
    readExact(*is_, &bh, sizeof(bh), "block header");
    if (bh.record_count != de.record_count ||
        sizeof(bh) + static_cast<std::uint64_t>(bh.seed_count) *
                         sizeof(BlockSeed) +
            bh.payload_size !=
            de.block_bytes)
        throw std::runtime_error(
            "trace::BlockReader: block disagrees with the directory at "
            "block " +
            std::to_string(index));
    const std::size_t body_len = de.block_bytes - sizeof(bh);
    std::vector<std::uint8_t> body(body_len);
    readExact(*is_, body.data(), body_len, "block body");
    decodeBlockBody(bh, body.data(), body_len, region_.block_capacity, out);
}

// -------------------------------------------------------------------------
// Directory loading

namespace {

/** Directory load over any random-access source. @p readAt copies n
 *  bytes from an absolute offset, returning false on a short read. */
template <typename ReadAt>
std::vector<BlockDirEntry>
loadDirectoryImpl(const ReadAt& readAt, std::uint64_t region_offset,
                  const BlockRegionHeader& region)
{
    const std::uint64_t first_block =
        region_offset + sizeof(BlockRegionHeader);

    // Primary path: the committed directory, fully validated.
    auto tryDirectory = [&]() -> std::vector<BlockDirEntry> {
        std::vector<BlockDirEntry> dir(
            static_cast<std::size_t>(region.block_count));
        const std::uint64_t dir_bytes = dir.size() * sizeof(BlockDirEntry);
        BlockDirTrailer tr;
        if ((!dir.empty() &&
             !readAt(region.directory_offset, dir.data(), dir_bytes)) ||
            !readAt(region.directory_offset + dir_bytes, &tr, sizeof(tr)))
            throw std::runtime_error("trace::block: directory unreadable");
        if (tr.magic != kBlockRegionMagic ||
            tr.dir_bytes != dir.size() * sizeof(BlockDirEntry) ||
            fnv1a64Bytes(dir.data(),
                         static_cast<std::size_t>(tr.dir_bytes)) !=
                tr.checksum)
            throw std::runtime_error("trace::block: directory corrupt");

        std::uint64_t expect_off = first_block;
        std::uint64_t records = 0;
        for (std::size_t i = 0; i < dir.size(); ++i) {
            const BlockDirEntry& de = dir[i];
            const std::uint64_t expect_count = std::min<std::uint64_t>(
                region.block_capacity, region.record_count - records);
            if (de.offset != expect_off ||
                de.block_bytes < sizeof(BlockHeader) ||
                de.record_count != expect_count)
                throw std::runtime_error(
                    "trace::block: directory entries inconsistent");
            expect_off += de.block_bytes;
            records += de.record_count;
        }
        if (records != region.record_count ||
            expect_off != region.directory_offset)
            throw std::runtime_error(
                "trace::block: directory does not cover the region");
        return dir;
    };

    // Fallback: rebuild the directory by walking the block headers —
    // the blocks are self-describing, so a damaged directory does not
    // take the parallel readers down with it.
    auto walkBlocks = [&]() -> std::vector<BlockDirEntry> {
        std::vector<BlockDirEntry> dir;
        dir.reserve(static_cast<std::size_t>(region.block_count));
        std::uint64_t off = first_block;
        std::uint64_t records = 0;
        for (std::uint64_t i = 0; i < region.block_count; ++i) {
            BlockHeader bh;
            if (!readAt(off, &bh, sizeof(bh)))
                throw std::runtime_error(
                    "trace::block: truncated block header");
            if (!plausibleBlockHeader(bh, region.block_capacity) ||
                bh.first_record != records)
                throw std::runtime_error(
                    "trace::block: corrupt block header at block " +
                    std::to_string(i) + " while rebuilding the directory");
            BlockDirEntry de;
            de.offset = off;
            de.block_bytes = static_cast<std::uint32_t>(
                sizeof(BlockHeader) +
                static_cast<std::uint64_t>(bh.seed_count) *
                    sizeof(BlockSeed) +
                bh.payload_size);
            de.record_count = bh.record_count;
            dir.push_back(de);
            off += de.block_bytes;
            records += bh.record_count;
        }
        if (records != region.record_count)
            throw std::runtime_error(
                "trace::block: walked blocks do not cover the region");
        return dir;
    };

    try {
        return tryDirectory();
    } catch (const std::runtime_error&) {
        return walkBlocks(); // throws if the blocks are damaged too
    }
}

} // namespace

std::vector<BlockDirEntry>
loadBlockDirectory(std::istream& is, std::uint64_t region_offset,
                   const BlockRegionHeader& region)
{
    const auto saved = is.tellg();
    if (saved == std::streampos(-1)) {
        is.clear();
        throw std::runtime_error(
            "trace::block: directory access needs a seekable stream");
    }
    auto readAt = [&is](std::uint64_t off, void* dst, std::size_t n) -> bool {
        is.clear();
        is.seekg(static_cast<std::streamoff>(off));
        is.read(reinterpret_cast<char*>(dst),
                static_cast<std::streamsize>(n));
        return static_cast<bool>(is) &&
               static_cast<std::size_t>(is.gcount()) == n;
    };
    std::vector<BlockDirEntry> dir =
        loadDirectoryImpl(readAt, region_offset, region);
    is.clear();
    is.seekg(saved);
    return dir;
}

std::vector<BlockDirEntry>
loadBlockDirectory(const std::uint8_t* file, std::size_t file_len,
                   std::uint64_t region_offset,
                   const BlockRegionHeader& region)
{
    auto readAt = [file, file_len](std::uint64_t off, void* dst,
                                   std::size_t n) -> bool {
        if (off > file_len || n > file_len - off)
            return false;
        std::memcpy(dst, file + off, n);
        return true;
    };
    return loadDirectoryImpl(readAt, region_offset, region);
}

// -------------------------------------------------------------------------
// Probe

BlockRegionProbe
probeBlockRegion(std::istream& is)
{
    BlockRegionProbe probe;
    const auto saved = is.tellg();
    try {
        Header fh;
        readExact(is, &fh, sizeof(fh), "file header");
        if (fh.magic != kMagic || fh.version != kFormatVersionV3)
            throw std::runtime_error("not v3");
        for (std::uint32_t i = 0; i < fh.num_spes; ++i) {
            std::uint32_t nlen = 0;
            readExact(is, &nlen, sizeof(nlen), "name table");
            if (nlen > (1u << 20))
                throw std::runtime_error("bad name");
            is.seekg(static_cast<std::streamoff>(nlen), std::ios::cur);
            if (!is)
                throw std::runtime_error("bad name table");
        }
        const auto region_pos = is.tellg();
        BlockRegionHeader rh;
        readExact(is, &rh, sizeof(rh), "block region header");
        if (!plausibleRegionHeader(rh) || rh.record_count != fh.record_count)
            throw std::runtime_error("bad region header");
        probe.present = true;
        probe.region = rh;
        if (region_pos != std::streampos(-1)) {
            probe.region_bytes =
                rh.directory_offset +
                rh.block_count * sizeof(BlockDirEntry) +
                sizeof(BlockDirTrailer) -
                static_cast<std::uint64_t>(region_pos);
        }
    } catch (const std::exception&) {
        probe = BlockRegionProbe{};
    }
    is.clear();
    if (saved != std::streampos(-1))
        is.seekg(saved);
    return probe;
}

BlockRegionProbe
probeBlockRegionFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return {};
    return probeBlockRegion(is);
}

} // namespace cell::trace
