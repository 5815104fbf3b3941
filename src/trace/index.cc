/**
 * @file
 * v2 footer index: builder, serializer, validating reader.
 *
 * The reader is deliberately paranoid: the index duplicates facts the
 * record region already encodes, so every duplicated fact is checked
 * against the file (record counts, region offsets, per-core entry
 * partitioning, offset alignment and monotonicity, stride arithmetic)
 * on top of the checksum. Rejection is soft — the caller falls back to
 * the v1 full scan — so the worst a corrupted or lying index can do is
 * waste the seek it was supposed to save.
 */

#include "trace/index.h"

#include <cstring>
#include <fstream>
#include <istream>

#include "rt/hooks.h"
#include "trace/block.h"

namespace cell::trace {

/** Mechanical open-begin tracking for one core's stream: bit k set
 *  when the most recent kind-k record was a Begin. SpuStop (a
 *  Begin-only marker, like SpuStart) closes the run interval, so it
 *  clears SpuStart's bit instead of setting its own. */
void
updateOpenBegins(std::uint64_t& mask, const Record& rec)
{
    if (rec.kind >= 64)
        return; // tool records (and junk kinds) never open intervals
    constexpr auto kStart = static_cast<std::uint8_t>(rt::ApiOp::SpuStart);
    constexpr auto kStop = static_cast<std::uint8_t>(rt::ApiOp::SpuStop);
    const std::uint64_t bit = std::uint64_t{1} << rec.kind;
    if (rec.kind == kStop) {
        mask &= ~(std::uint64_t{1} << kStart);
        return;
    }
    // The interval matcher treats ANY SpuStart event as the run start,
    // phase ignored (it is a Begin-only marker); mirror that here or a
    // stray End-phase SpuStart would hide a live run from the mask.
    if (rec.kind == kStart || rec.phase == kPhaseBegin)
        mask |= bit;
    else
        mask &= ~bit;
}

std::uint64_t
fnv1a64Bytes(const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

/** Load an 8-byte little-endian word (free on LE hosts). */
inline std::uint64_t
loadLe64(const unsigned char* p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

} // namespace

std::uint64_t
fnv1a64Words(const void* data, std::size_t len)
{
    constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    const auto* p = static_cast<const unsigned char*>(data);
    // Four chains seeded basis+lane so identical lanes stay distinct;
    // independent multiplies keep the carried dependency off the
    // critical path (the serial form is one mul per BYTE).
    std::uint64_t h0 = kBasis, h1 = kBasis + 1;
    std::uint64_t h2 = kBasis + 2, h3 = kBasis + 3;
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        h0 = (h0 ^ loadLe64(p + i)) * kPrime;
        h1 = (h1 ^ loadLe64(p + i + 8)) * kPrime;
        h2 = (h2 ^ loadLe64(p + i + 16)) * kPrime;
        h3 = (h3 ^ loadLe64(p + i + 24)) * kPrime;
    }
    std::uint64_t h = kBasis;
    h = (h ^ h0) * kPrime;
    h = (h ^ h1) * kPrime;
    h = (h ^ h2) * kPrime;
    h = (h ^ h3) * kPrime;
    for (; i < len; ++i)
        h = (h ^ p[i]) * kPrime;
    h = (h ^ static_cast<std::uint64_t>(len)) * kPrime;
    return h;
}

std::vector<std::uint8_t>
serializeIndex(const TraceIndex& index)
{
    const std::size_t body = sizeof(IndexHeader) +
                             index.cores.size() * sizeof(IndexCoreSummary) +
                             index.entries.size() * sizeof(IndexEntry);
    std::vector<std::uint8_t> out(body + sizeof(IndexTrailer));
    std::uint8_t* p = out.data();
    auto append = [&p](const void* src, std::size_t n) {
        std::memcpy(p, src, n);
        p += n;
    };
    append(&index.header, sizeof(IndexHeader));
    if (!index.cores.empty())
        append(index.cores.data(),
               index.cores.size() * sizeof(IndexCoreSummary));
    if (!index.entries.empty())
        append(index.entries.data(),
               index.entries.size() * sizeof(IndexEntry));
    IndexTrailer tr;
    tr.checksum = fnv1a64Bytes(out.data(), body);
    tr.index_size = body;
    append(&tr, sizeof(tr));
    return out;
}

namespace {

/**
 * Parse + validate an index region whose checksum already matched.
 * @p index_start is the absolute offset of the IndexHeader within the
 * trace stream; @p fh / @p region_off come from the file itself.
 * @p v3 marks a compressed record region: entry offsets are then
 * VIRTUAL (region_off + ordinal * 32, as if the region were plain v1
 * records), so bounds are checked against the virtual region end
 * instead of the physical index position. Fills @p r (valid + index on
 * success, reason on rejection).
 */
void
parseAndValidate(const Header& fh, bool v3, std::uint64_t region_off,
                 std::uint64_t index_start,
                 const std::vector<std::uint8_t>& bytes, IndexReadResult& r)
{
    if (bytes.size() < sizeof(IndexHeader)) {
        r.reason = "index region smaller than its header";
        return;
    }
    TraceIndex idx;
    std::memcpy(&idx.header, bytes.data(), sizeof(IndexHeader));
    const IndexHeader& h = idx.header;

    if (h.magic != kIndexMagic) {
        r.reason = "index header magic mismatch";
        return;
    }
    if (h.version != kIndexVersion) {
        r.reason = "unsupported index version " + std::to_string(h.version);
        return;
    }
    if (h.stride == 0) {
        r.reason = "index stride is zero";
        return;
    }
    const std::uint64_t expect_size =
        sizeof(IndexHeader) +
        std::uint64_t{h.num_cores} * sizeof(IndexCoreSummary) +
        std::uint64_t{h.entry_count} * sizeof(IndexEntry);
    if (expect_size != bytes.size()) {
        r.reason = "index size disagrees with its core/entry counts";
        return;
    }
    if (h.num_cores != fh.num_spes + 1) {
        r.reason = "index core count disagrees with file header";
        return;
    }
    if (h.record_count != fh.record_count) {
        r.reason = "index record count disagrees with file header";
        return;
    }
    if (h.record_region_offset != region_off) {
        r.reason = "index record-region offset disagrees with file";
        return;
    }
    if (h.record_count > (std::uint64_t{1} << 48)) {
        r.reason = "index record count implausible";
        return;
    }
    // Where entry offsets may point: one past the last record, in the
    // (virtual, for v3) uncompressed record address space.
    const std::uint64_t record_end =
        region_off + h.record_count * sizeof(Record);
    if (v3) {
        if (index_start < region_off + sizeof(BlockRegionHeader)) {
            r.reason = "index overlaps the block region header";
            return;
        }
    } else if (index_start < region_off || index_start != record_end) {
        r.reason = "index does not sit at the end of the record region";
        return;
    }

    idx.cores.resize(h.num_cores);
    if (h.num_cores > 0)
        std::memcpy(idx.cores.data(), bytes.data() + sizeof(IndexHeader),
                    h.num_cores * sizeof(IndexCoreSummary));
    idx.entries.resize(h.entry_count);
    if (h.entry_count > 0)
        std::memcpy(idx.entries.data(),
                    bytes.data() + sizeof(IndexHeader) +
                        h.num_cores * sizeof(IndexCoreSummary),
                    h.entry_count * std::size_t{sizeof(IndexEntry)});

    // Structural cross-checks against the record region. Everything
    // the query layer will trust gets verified here.
    std::uint64_t next_entry = 0;
    std::uint64_t total_records = 0;
    for (std::uint32_t c = 0; c < h.num_cores; ++c) {
        const IndexCoreSummary& s = idx.cores[c];
        if (s.first_entry != next_entry) {
            r.reason = "core summaries do not partition the entry array";
            return;
        }
        next_entry += s.num_entries;
        total_records += s.total_records;
        if (s.num_entries == 0) {
            if (s.total_records != 0) {
                r.reason = "core has records but no index entries";
                return;
            }
            continue;
        }
        if (s.total_records == 0) {
            r.reason = "core has index entries but no records";
            return;
        }
        if (s.num_entries !=
            (s.total_records + h.stride - 1) / h.stride) {
            r.reason = "core entry count disagrees with stride";
            return;
        }
        if (next_entry > h.entry_count) {
            r.reason = "core summaries overrun the entry array";
            return;
        }
        std::uint64_t prev_off = 0;
        std::uint64_t prev_tick = 0;
        std::uint64_t recs = 0;
        for (std::uint32_t k = 0; k < s.num_entries; ++k) {
            const IndexEntry& e = idx.entries[s.first_entry + k];
            if (e.core != c) {
                r.reason = "entry core disagrees with its summary";
                return;
            }
            if (e.byte_offset < region_off ||
                e.byte_offset + sizeof(Record) > record_end ||
                (e.byte_offset - region_off) % sizeof(Record) != 0) {
                r.reason = "entry offset outside the record region";
                return;
            }
            if (k == 0) {
                if (e.byte_offset != s.begin_offset) {
                    r.reason = "first entry disagrees with begin offset";
                    return;
                }
            } else {
                if (e.byte_offset <= prev_off) {
                    r.reason = "entry offsets not strictly increasing";
                    return;
                }
                if (e.tick < prev_tick) {
                    r.reason = "entry ticks decrease";
                    return;
                }
            }
            // Every block but the core's last holds exactly `stride`
            // of the core's records.
            if (k + 1 < s.num_entries ? e.record_count != h.stride
                                      : (e.record_count == 0 ||
                                         e.record_count > h.stride)) {
                r.reason = "entry record count disagrees with stride";
                return;
            }
            recs += e.record_count;
            prev_off = e.byte_offset;
            prev_tick = e.tick;
        }
        if (recs != s.total_records) {
            r.reason = "entry record counts do not sum to the core total";
            return;
        }
        if (s.end_offset <= prev_off || s.end_offset > record_end ||
            (s.end_offset - region_off) % sizeof(Record) != 0) {
            r.reason = "core end offset implausible";
            return;
        }
    }
    if (next_entry != h.entry_count) {
        r.reason = "core summaries do not cover every entry";
        return;
    }
    if (total_records + h.bad_core_records != h.record_count) {
        r.reason = "per-core totals do not sum to the record count";
        return;
    }

    r.valid = true;
    r.index = std::move(idx);
}

/**
 * Shared footer discovery over random-access bytes. @p read_at must
 * copy @p n bytes at stream offset @p off, returning false past EOF;
 * @p size is the total stream size.
 */
template <typename ReadAt>
IndexReadResult
readIndexImpl(std::uint64_t size, const ReadAt& read_at)
{
    IndexReadResult r;

    Header fh;
    if (size < sizeof(Header) || !read_at(0, &fh, sizeof(fh)))
        return r;
    if (fh.magic != kMagic || (fh.version != kFormatVersion &&
                               fh.version != kFormatVersionV3))
        return r;

    // Skip the name table to find the record region.
    std::uint64_t off = sizeof(Header);
    for (std::uint32_t i = 0; i < fh.num_spes; ++i) {
        std::uint32_t len = 0;
        if (off + sizeof(len) > size || !read_at(off, &len, sizeof(len)))
            return r;
        if (len > (1u << 20))
            return r; // implausible name, not a healthy trace
        off += sizeof(len) + len;
        if (off > size)
            return r;
    }
    const std::uint64_t region_off = off;

    IndexTrailer tr;
    if (size < region_off + sizeof(IndexTrailer) ||
        !read_at(size - sizeof(IndexTrailer), &tr, sizeof(tr)))
        return r;
    if (tr.magic != kIndexMagic)
        return r; // no index footer: a plain v1 trace

    r.present = true;
    const std::uint64_t max_index =
        size - sizeof(IndexTrailer) - region_off;
    if (tr.index_size < sizeof(IndexHeader) || tr.index_size > max_index) {
        r.reason = "trailer index size out of range";
        return r;
    }
    const std::uint64_t index_start =
        size - sizeof(IndexTrailer) - tr.index_size;
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(tr.index_size));
    if (!read_at(index_start, bytes.data(), bytes.size())) {
        r.reason = "index region unreadable";
        return r;
    }
    if (fnv1a64Bytes(bytes.data(), bytes.size()) != tr.checksum) {
        r.reason = "index checksum mismatch";
        return r;
    }
    parseAndValidate(fh, fh.version == kFormatVersionV3, region_off,
                     index_start, bytes, r);
    return r;
}

} // namespace

IndexReadResult
readIndex(std::istream& is)
{
    const auto base = is.tellg();
    if (base == std::streampos(-1)) {
        is.clear();
        return {}; // non-seekable: indexes need random access
    }
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    if (end == std::streampos(-1) || !is) {
        is.clear();
        is.seekg(base);
        return {};
    }
    const auto size = static_cast<std::uint64_t>(end - base);

    const auto read_at = [&](std::uint64_t off, void* dst,
                             std::size_t n) -> bool {
        is.clear();
        is.seekg(base + static_cast<std::streamoff>(off));
        is.read(reinterpret_cast<char*>(dst),
                static_cast<std::streamsize>(n));
        return static_cast<bool>(is) &&
               static_cast<std::size_t>(is.gcount()) == n;
    };
    IndexReadResult r = readIndexImpl(size, read_at);
    is.clear();
    is.seekg(base);
    return r;
}

IndexReadResult
readIndexFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return {};
    return readIndex(is);
}

IndexReadResult
readIndexBuffer(const std::vector<std::uint8_t>& buf)
{
    const auto read_at = [&](std::uint64_t off, void* dst,
                             std::size_t n) -> bool {
        if (off + n > buf.size())
            return false;
        std::memcpy(dst, buf.data() + off, n);
        return true;
    };
    return readIndexImpl(buf.size(), read_at);
}

} // namespace cell::trace
