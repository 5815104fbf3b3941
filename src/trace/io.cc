/**
 * @file
 * Trace reader implementation (the writer is trace/writer.cc).
 *
 * Layout: Header, then per SPE {u32 length, bytes} program names, then
 * header.record_count fixed 32-byte records.
 *
 * readBuffer parses straight out of the byte vector — no stringstream
 * detour, no intermediate string copy. Stream-based read() sizes the
 * record array in one step when the stream is seekable, after
 * validating the untrusted record count against the bytes actually
 * remaining; only non-seekable streams fall back to bounded chunked
 * reads.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "trace/block.h"
#include "trace/mmap.h"
#include "trace/reader.h"

namespace cell::trace {

namespace {

/** Sequential reader over an in-memory byte range. */
class BufReader
{
  public:
    BufReader(const std::uint8_t* begin, std::size_t len)
        : p_(begin), end_(begin + len)
    {}

    void read(void* dst, std::size_t n)
    {
        if (n > remaining()) {
            throw std::runtime_error(
                "trace::read: truncated input at byte " +
                std::to_string(consumed_) + " (need " + std::to_string(n) +
                " bytes, " + std::to_string(remaining()) + " left)");
        }
        std::memcpy(dst, p_, n);
        p_ += n;
        consumed_ += n;
    }

    /** Best-effort read for salvage slurps: up to @p n bytes. */
    std::size_t readSome(void* dst, std::size_t n)
    {
        const std::size_t m =
            std::min<std::size_t>(n, static_cast<std::size_t>(remaining()));
        std::memcpy(dst, p_, m);
        p_ += m;
        consumed_ += m;
        return m;
    }

    /** Zero-copy view of the next @p n bytes, advancing past them, or
     *  nullptr when fewer remain (the caller's read() fallback then
     *  reports the truncation with the standard message). */
    const std::uint8_t* tryView(std::size_t n)
    {
        if (n > remaining())
            return nullptr;
        const std::uint8_t* p = p_;
        p_ += n;
        consumed_ += n;
        return p;
    }

    /** Exact; an in-memory buffer always knows its size. */
    bool knowsRemaining() const { return true; }
    std::uint64_t remaining() const
    {
        return static_cast<std::uint64_t>(end_ - p_);
    }
    std::uint64_t consumed() const { return consumed_; }

  private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    std::uint64_t consumed_ = 0;
};

/** Sequential reader over an istream; remaining() needs seekability. */
class StreamReader
{
  public:
    explicit StreamReader(std::istream& is) : is_(is)
    {
        // Probe seekability once: tellg()/seekg() fail harmlessly on
        // pipes. Clear the state afterwards so reads still work.
        const auto pos = is_.tellg();
        if (pos != std::streampos(-1)) {
            is_.seekg(0, std::ios::end);
            const auto end = is_.tellg();
            is_.seekg(pos);
            if (end != std::streampos(-1) && is_) {
                knows_remaining_ = true;
                remaining_ = static_cast<std::uint64_t>(end - pos);
            }
        }
        is_.clear();
    }

    void read(void* dst, std::size_t n)
    {
        is_.read(reinterpret_cast<char*>(dst),
                 static_cast<std::streamsize>(n));
        const auto got = static_cast<std::size_t>(is_.gcount());
        if (!is_ || got != n) {
            throw std::runtime_error(
                "trace::read: truncated input at byte " +
                std::to_string(consumed_ + got) + " (need " +
                std::to_string(n - got) + " more bytes)");
        }
        consumed_ += n;
        if (knows_remaining_)
            remaining_ -= n;
    }

    /** Best-effort read for salvage slurps: up to @p n bytes. */
    std::size_t readSome(void* dst, std::size_t n)
    {
        is_.read(reinterpret_cast<char*>(dst),
                 static_cast<std::streamsize>(n));
        const auto got = static_cast<std::size_t>(is_.gcount());
        is_.clear();
        consumed_ += got;
        if (knows_remaining_)
            remaining_ -= std::min<std::uint64_t>(remaining_, got);
        return got;
    }

    /** Streams have no stable bytes to point at. */
    const std::uint8_t* tryView(std::size_t) { return nullptr; }

    bool knowsRemaining() const { return knows_remaining_; }
    std::uint64_t remaining() const { return remaining_; }
    std::uint64_t consumed() const { return consumed_; }

  private:
    std::istream& is_;
    bool knows_remaining_ = false;
    std::uint64_t remaining_ = 0;
    std::uint64_t consumed_ = 0;
};

/**
 * Strict decode of a v3 block region: one block body in memory at a
 * time (the scratch buffer is bounded by maxBlockBodyBytes), each
 * block's checksum and structural claims verified, blocks required to
 * tile [0, record_count) exactly. Trailing bytes — the directory and
 * any v2 index footer — are ignored, mirroring how the v1 strict
 * reader ignores everything past the claimed records.
 */
template <typename Reader>
void
readBlocksStrict(Reader& in, TraceData& trace)
{
    BlockRegionHeader rh;
    in.read(&rh, sizeof(rh));
    if (rh.magic != kBlockRegionMagic || rh.version != kFormatVersionV3 ||
        rh.block_capacity == 0 || rh.block_capacity > kMaxBlockRecords ||
        rh.record_count != trace.header.record_count ||
        rh.block_count != (rh.record_count + rh.block_capacity - 1) /
                              rh.block_capacity) {
        throw std::runtime_error(
            "trace::read: corrupt v3 block region header at byte " +
            std::to_string(in.consumed() - sizeof(rh)) +
            "; --salvage recovers the decodable blocks");
    }

    // One allocation, then every block decodes in place: the fused
    // decodeBlockBodyInto writes records straight into their final
    // slots, and a memory-backed reader (buffer or mmap) hands the
    // block body out as a zero-copy view.
    trace.records.resize(static_cast<std::size_t>(rh.record_count));
    std::vector<std::uint8_t> body;
    std::uint64_t next_first = 0;
    for (std::uint64_t b = 0; b < rh.block_count; ++b) {
        BlockHeader bh;
        in.read(&bh, sizeof(bh));
        // The header sizes the body read below: it must be plausible
        // (seed_count bounded) before any buffer is sized from it.
        if (!plausibleBlockHeader(bh, rh.block_capacity) ||
            bh.first_record != next_first ||
            bh.record_count > rh.record_count - next_first) {
            throw std::runtime_error(
                "trace::read: corrupt block header (block " +
                std::to_string(b) + " of " + std::to_string(rh.block_count) +
                ", at byte " +
                std::to_string(in.consumed() - sizeof(bh)) +
                "); --salvage recovers the decodable blocks");
        }
        const std::uint64_t body_len =
            std::uint64_t{bh.seed_count} * sizeof(BlockSeed) +
            bh.payload_size;
        const std::uint8_t* bp =
            in.tryView(static_cast<std::size_t>(body_len));
        if (bp == nullptr) {
            body.resize(static_cast<std::size_t>(body_len));
            in.read(body.data(), body.size());
            bp = body.data();
        }
        decodeBlockBodyInto(bh, bp, static_cast<std::size_t>(body_len),
                            rh.block_capacity, b, rh.block_count,
                            trace.records.data() + next_first);
        next_first += bh.record_count;
    }
    if (next_first != rh.record_count)
        throw std::runtime_error(
            "trace::read: blocks decode to " + std::to_string(next_first) +
            " records, header claims " + std::to_string(rh.record_count));
}

/** Shared parse over any sequential reader. */
template <typename Reader>
TraceData
readImpl(Reader& in)
{
    TraceData trace;
    in.read(&trace.header, sizeof(Header));
    if (trace.header.magic != kMagic)
        throw std::runtime_error("trace::read: bad magic (not a PDT trace)");
    if (trace.header.version != kFormatVersion &&
        trace.header.version != kFormatVersionV3)
        throw std::runtime_error("trace::read: unsupported format version");

    std::uint32_t name_index = 0;
    trace.spe_programs.resize(trace.header.num_spes);
    for (auto& name : trace.spe_programs) {
        std::uint32_t len = 0;
        try {
            in.read(&len, sizeof(len));
            if (len > (1u << 20))
                throw std::runtime_error(
                    "trace::read: implausible name length " +
                    std::to_string(len));
            name.resize(len);
            in.read(name.data(), len);
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(std::string(e.what()) +
                                     " (in name table entry " +
                                     std::to_string(name_index) + " of " +
                                     std::to_string(trace.header.num_spes) +
                                     ")");
        }
        ++name_index;
    }

    // The record count is untrusted input. When the reader knows how
    // many bytes are left (memory buffer, seekable stream), reject an
    // oversized count up front and read everything in one step.
    // Otherwise read in bounded chunks so a corrupt header cannot
    // trigger a giant allocation — the stream runs dry (and throws)
    // long before memory does.
    const std::uint64_t count = trace.header.record_count;
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(Record))
        throw std::runtime_error("trace::read: record count overflows");
    if (trace.header.version == kFormatVersionV3) {
        readBlocksStrict(in, trace);
        trace.header.version = kFormatVersion; // decode is transparent
        return trace;
    }
    if (in.knowsRemaining()) {
        if (count * sizeof(Record) > in.remaining()) {
            throw std::runtime_error(
                "trace::read: truncated input: header claims " +
                std::to_string(count) + " records but only " +
                std::to_string(in.remaining() / sizeof(Record)) +
                " complete records (" + std::to_string(in.remaining()) +
                " bytes) remain after byte " + std::to_string(in.consumed()) +
                "; --salvage recovers the parsable prefix");
        }
        trace.records.resize(static_cast<std::size_t>(count));
        if (count > 0)
            in.read(trace.records.data(),
                    static_cast<std::size_t>(count) * sizeof(Record));
        return trace;
    }
    constexpr std::uint64_t kChunk = 4096;
    std::uint64_t remaining = count;
    trace.records.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kChunk)));
    std::vector<Record> chunk;
    while (remaining > 0) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, kChunk));
        chunk.resize(n);
        try {
            in.read(chunk.data(), n * sizeof(Record));
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(
                std::string(e.what()) + " (after record " +
                std::to_string(trace.records.size()) + " of " +
                std::to_string(count) + ")");
        }
        trace.records.insert(trace.records.end(), chunk.begin(), chunk.end());
        remaining -= n;
    }
    return trace;
}

/** Append one problem note, capping the list so a trace with thousands
 *  of corrupt records cannot balloon the report. */
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

/** Keep the plausible subset of @p raw, reporting everything skipped. */
void
filterRecords(const std::vector<Record>& raw, TraceData& trace,
              ReadReport& rep)
{
    trace.records.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const Record& r = raw[i];
        if (plausibleRecord(r, trace.header.num_spes)) {
            trace.records.push_back(r);
            continue;
        }
        rep.records_skipped += 1;
        rep.bytes_dropped += sizeof(Record);
        note(rep, "record " + std::to_string(i) + ": implausible fields "
                  "(kind=" + std::to_string(r.kind) +
                  " phase=" + std::to_string(r.phase) +
                  " core=" + std::to_string(r.core) + "), skipped");
    }
    rep.records_read = trace.records.size();
}

/**
 * Salvage parse: never throws past the header. Reads whatever prefix
 * is structurally sound, resynchronizes on the 32-byte record stride
 * past corrupt records, and reports every skip.
 */
template <typename Reader>
TraceData
readSalvageImpl(Reader& in, ReadReport& rep)
{
    rep = ReadReport{};
    TraceData trace;
    in.read(&trace.header, sizeof(Header)); // unrecoverable if absent
    if (trace.header.magic != kMagic)
        throw std::runtime_error("trace::read: bad magic (not a PDT trace)");
    if (trace.header.version != kFormatVersion &&
        trace.header.version != kFormatVersionV3)
        throw std::runtime_error("trace::read: unsupported format version");

    rep.records_expected = trace.header.record_count;

    // Name table. An implausible SPE count or a truncated name means
    // everything after it is unaligned guesswork; salvage what parses
    // and treat the rest of the file as the record region.
    constexpr std::uint32_t kMaxSpes = 1024;
    std::uint32_t num_spes = trace.header.num_spes;
    if (num_spes > kMaxSpes) {
        note(rep, "implausible SPE count " + std::to_string(num_spes) +
                  ", clamped to 0 (names unrecoverable)");
        num_spes = 0;
        trace.header.num_spes = kMaxSpes; // plausibility bound for cores
    }
    trace.spe_programs.resize(num_spes);
    for (std::uint32_t i = 0; i < num_spes; ++i) {
        try {
            std::uint32_t len = 0;
            in.read(&len, sizeof(len));
            if (len > (1u << 20)) {
                note(rep, "name table entry " + std::to_string(i) +
                          ": implausible length " + std::to_string(len) +
                          ", name table abandoned");
                break;
            }
            trace.spe_programs[i].resize(len);
            in.read(trace.spe_programs[i].data(), len);
        } catch (const std::runtime_error& e) {
            note(rep, std::string("name table entry ") + std::to_string(i) +
                      ": " + e.what());
            return trace; // file ended inside the name table
        }
    }

    // v3: slurp the rest of the input and walk the block region. Every
    // decodable block survives; corrupt blocks become gaps whose exact
    // per-core losses the next good block's seeds reconstruct.
    if (trace.header.version == kFormatVersionV3) {
        const std::uint64_t region_off = in.consumed();
        std::vector<std::uint8_t> rest;
        if (in.knowsRemaining()) {
            rest.resize(static_cast<std::size_t>(in.remaining()));
            if (!rest.empty())
                in.read(rest.data(), rest.size());
        } else {
            constexpr std::size_t kChunk = 1u << 16;
            std::size_t got = kChunk;
            while (got == kChunk) {
                const std::size_t old = rest.size();
                rest.resize(old + kChunk);
                got = in.readSome(rest.data() + old, kChunk);
                rest.resize(old + got);
            }
        }
        std::vector<Record> decoded;
        salvageBlockRegion(rest.data(), rest.size(), region_off,
                           trace.header.num_spes, decoded, rep);
        filterRecords(decoded, trace, rep);
        trace.header.record_count = trace.records.size();
        trace.header.version = kFormatVersion; // decode is transparent
        return trace;
    }

    // Records: read every complete 32-byte record present, regardless
    // of what the (untrusted) header count says, then filter.
    std::vector<Record> raw;
    if (in.knowsRemaining()) {
        const std::uint64_t avail = in.remaining() / sizeof(Record);
        const std::uint64_t tail = in.remaining() % sizeof(Record);
        if (rep.records_expected > avail) {
            note(rep, "header claims " +
                      std::to_string(rep.records_expected) +
                      " records, only " + std::to_string(avail) +
                      " complete records present; reading those");
        }
        const std::uint64_t n =
            std::min<std::uint64_t>(rep.records_expected, avail);
        raw.resize(static_cast<std::size_t>(n));
        if (n > 0)
            in.read(raw.data(), static_cast<std::size_t>(n) * sizeof(Record));
        if (tail > 0 && rep.records_expected > avail) {
            rep.bytes_dropped += tail;
            note(rep, "partial trailing record (" + std::to_string(tail) +
                      " bytes) dropped");
        }
    } else {
        // Non-seekable stream: read record-by-record until the claimed
        // count is reached or the stream runs dry.
        raw.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(rep.records_expected, 4096)));
        for (std::uint64_t i = 0; i < rep.records_expected; ++i) {
            Record r;
            try {
                in.read(&r, sizeof(r));
            } catch (const std::runtime_error&) {
                note(rep, "stream ended after record " + std::to_string(i) +
                          " of " + std::to_string(rep.records_expected));
                break;
            }
            raw.push_back(r);
        }
    }
    filterRecords(raw, trace, rep);
    trace.header.record_count = trace.records.size();
    return trace;
}

} // namespace

std::string
ReadReport::summary() const
{
    std::string s = salvaged ? "salvaged " : "read ";
    s += std::to_string(records_read) + "/" +
         std::to_string(records_expected) + " records";
    if (records_skipped > 0)
        s += ", skipped " + std::to_string(records_skipped) + " corrupt";
    if (bytes_dropped > 0)
        s += ", dropped " + std::to_string(bytes_dropped) + " bytes";
    if (!notes.empty())
        s += " (" + std::to_string(notes.size()) + " notes)";
    return s;
}

bool
plausibleRecord(const Record& rec, std::uint32_t num_spes)
{
    // API records use a small dense kind space; tool records sit at
    // 200..202. Anything else is damage (a bit flip has a ~3/4 chance
    // of leaving the kind byte outside both ranges).
    constexpr std::uint8_t kMaxApiKind = 64;
    const bool kind_ok = rec.kind < kMaxApiKind ||
                         (rec.kind >= kSyncRecord && rec.kind <= kDropRecord);
    const bool phase_ok = rec.phase <= kPhaseEnd;
    const bool core_ok = rec.core <= num_spes; // 0 = PPE, 1+i = SPE i
    return kind_ok && phase_ok && core_ok;
}

TraceData
read(std::istream& is)
{
    StreamReader in(is);
    return readImpl(in);
}

TraceData
readFile(const std::string& path)
{
    // Regular files read through a private mapping: the v3 decode then
    // works zero-copy off the page cache. Anything mmap rejects — a
    // FIFO, a /proc-style pseudo-file, an empty file — falls back to
    // buffered stream reads with identical output and errors.
    MappedFile map(path);
    if (map.valid()) {
        BufReader in(map.data(), map.size());
        return readImpl(in);
    }
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("trace::readFile: cannot open " + path);
    return read(is);
}

TraceData
readBuffer(const std::vector<std::uint8_t>& buf)
{
    BufReader in(buf.data(), buf.size());
    return readImpl(in);
}

TraceData
readSalvage(std::istream& is, ReadReport& report)
{
    StreamReader in(is);
    return readSalvageImpl(in, report);
}

TraceData
readFileSalvage(const std::string& path, ReadReport& report)
{
    MappedFile map(path);
    if (map.valid()) {
        BufReader in(map.data(), map.size());
        return readSalvageImpl(in, report);
    }
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("trace::readFileSalvage: cannot open " + path);
    return readSalvage(is, report);
}

TraceData
readBufferSalvage(const std::vector<std::uint8_t>& buf, ReadReport& report)
{
    BufReader in(buf.data(), buf.size());
    return readSalvageImpl(in, report);
}

} // namespace cell::trace
