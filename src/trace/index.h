/**
 * @file
 * Optional v2 footer index for PDT trace files.
 *
 * The v1 byte stream (header, name table, record region) is untouched
 * — the file header keeps version 1 and every v1 reader keeps working,
 * because the strict reader reads exactly header.record_count records
 * and ignores trailing bytes, and the salvage reader clamps to the
 * record count it can trust. The index is appended AFTER the record
 * region:
 *
 *   IndexHeader                     (64 bytes)
 *   IndexCoreSummary x num_cores    (40 bytes each)
 *   IndexEntry x entry_count        (48 bytes each, grouped per core)
 *   IndexTrailer                    (24 bytes, at EOF)
 *
 * Per core, one IndexEntry is emitted every `stride` records of that
 * core's stream. An entry snapshots everything a windowed query needs
 * to resume the analyzer's per-record replay mid-stream with EXACTLY
 * the state a full scan would have reached:
 *
 *   - the clock mapping (sync_raw/sync_tb/have_sync) and drop epoch,
 *   - `tick`, the maximum reconstructed (clamped) event time of this
 *     core BEFORE the entry's block — both the monotonic-clamp seed
 *     and the seek key (the latest entry with tick < window start is
 *     the correct resume point),
 *   - `open_begins`, a mechanical bitmask of record kinds whose most
 *     recent occurrence was a Begin. The query layer intersects it
 *     with the pending-capable ops to reconstruct the interval
 *     matcher's one-slot-per-op pending state without storing event
 *     payloads: a pre-entry pending whose End falls inside the block
 *     becomes an interval that STARTED before the window, so the
 *     matcher only needs to know the slot is occupied (consume the
 *     End, emit nothing). One non-mechanical rule: SpuStop — a
 *     Begin-only marker like SpuStart — clears SpuStart's bit, since
 *     it closes the run interval.
 *
 * The trailer carries an FNV-1a 64 checksum of the index region and
 * the region's size, so a reader seeks EOF-24, validates, and walks
 * back. ANY mismatch — checksum, structural inconsistency against the
 * file header, lying offsets or counts — invalidates the whole index
 * and the caller falls back to the v1 full-scan path; a bad index can
 * cost time but never a wrong answer.
 */

#ifndef CELL_TRACE_INDEX_H
#define CELL_TRACE_INDEX_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/format.h"

namespace cell::trace {

/** Index magic: "CBEPDTIX" (the trailer carries it too). */
constexpr std::uint64_t kIndexMagic = 0x5849544450454243ULL;

/** Index format version (the FILE header stays at version 1). */
constexpr std::uint32_t kIndexVersion = 2;

/** Default records-per-core between index entries. */
constexpr std::uint32_t kDefaultIndexStride = 4096;

/** IndexEntry.flags: the core had seen a sync record before the entry. */
constexpr std::uint16_t kEntryHaveSync = 1;

/** One per-core resume point. */
struct IndexEntry
{
    /** Max clamped event time of this core before this block (0 if
     *  none): monotonic-clamp seed and window seek key. */
    std::uint64_t tick = 0;
    /** Absolute file offset of the block's first record. */
    std::uint64_t byte_offset = 0;
    std::uint64_t sync_tb = 0;
    /** Bit k set: the last kind-k (k < 64) record before this entry
     *  was a Begin (SpuStop clears SpuStart's bit — see file docs). */
    std::uint64_t open_begins = 0;
    std::uint32_t sync_raw = 0;
    /** Drop epoch entering the block. */
    std::uint32_t epoch = 0;
    /** This core's records in [this entry, next entry of this core). */
    std::uint32_t record_count = 0;
    std::uint16_t core = 0;
    std::uint16_t flags = 0;

    bool operator==(const IndexEntry&) const = default;
};
static_assert(sizeof(IndexEntry) == 48, "index entries are 48 bytes");

/** Whole-stream summary of one core. */
struct IndexCoreSummary
{
    /** Records with rec.core == this core (including pre-sync ones). */
    std::uint64_t total_records = 0;
    /** Absolute offset of the core's first record (0 if none). */
    std::uint64_t begin_offset = 0;
    /** One past the core's last record (0 if none). */
    std::uint64_t end_offset = 0;
    /** Final clamped event time (0 if no placeable events). */
    std::uint64_t max_tick = 0;
    std::uint32_t first_entry = 0;
    std::uint32_t num_entries = 0;

    bool operator==(const IndexCoreSummary&) const = default;
};
static_assert(sizeof(IndexCoreSummary) == 40, "core summaries are 40 bytes");

struct IndexHeader
{
    std::uint64_t magic = kIndexMagic;
    std::uint32_t version = kIndexVersion;
    std::uint32_t stride = 0;
    /** Must equal the file header's record_count. */
    std::uint64_t record_count = 0;
    /** Absolute offset of the first record (validated vs the file). */
    std::uint64_t record_region_offset = 0;
    std::uint32_t num_cores = 0; ///< num_spes + 1
    std::uint32_t entry_count = 0;
    /** Records a lenient replay skipped (no sync yet on their core).
     *  Nonzero means a STRICT analysis of this trace throws — the
     *  query layer must take the full-scan path to reproduce that. */
    std::uint64_t presync_records = 0;
    /** Records naming an impossible core (same strictness caveat). */
    std::uint64_t bad_core_records = 0;
    std::uint64_t reserved = 0;

    bool operator==(const IndexHeader&) const = default;
};
static_assert(sizeof(IndexHeader) == 64, "index header is 64 bytes");

struct IndexTrailer
{
    /** FNV-1a 64 over header + summaries + entries bytes. */
    std::uint64_t checksum = 0;
    /** Bytes from IndexHeader start to trailer start. */
    std::uint64_t index_size = 0;
    std::uint64_t magic = kIndexMagic;
};
static_assert(sizeof(IndexTrailer) == 24, "index trailer is 24 bytes");

/** A parsed (and validated) index. */
struct TraceIndex
{
    IndexHeader header;
    std::vector<IndexCoreSummary> cores;
    /** Grouped per core: cores[c] owns
     *  entries[first_entry .. first_entry + num_entries). */
    std::vector<IndexEntry> entries;

    /** Usable for strict-semantics queries: a strict full scan of the
     *  indexed trace would not have thrown. */
    bool strictClean() const
    {
        return header.presync_records == 0 && header.bad_core_records == 0;
    }
};

/** Outcome of an index read. */
struct IndexReadResult
{
    /** A trailer with the index magic was found at EOF. */
    bool present = false;
    /** The index passed checksum + every structural check. */
    bool valid = false;
    /** Why an index-shaped footer was rejected (diagnostics). */
    std::string reason;
    TraceIndex index;
};

/** FNV-1a 64 over raw bytes (the index checksum). */
std::uint64_t fnv1a64Bytes(const void* data, std::size_t len);

/**
 * FNV-1a 64 folded over 8-byte little-endian lanes: four independent
 * FNV chains stride the input 32 bytes at a time, the lane digests and
 * any tail bytes fold into one final chain, and the total length is
 * mixed last so prefixes of zero blocks cannot collide. Roughly an
 * order of magnitude faster than the byte-serial form on long inputs —
 * used for columnar v3 block payloads, where the checksum would
 * otherwise dominate decode time (BlockHeader::payload selects the
 * algorithm; interleaved blocks keep fnv1a64Bytes for back-compat).
 */
std::uint64_t fnv1a64Words(const void* data, std::size_t len);

/** Mechanical open-begin mask update (see IndexEntry::open_begins).
 *  The writer's replay pass (trace/writer.h) folds it into the index
 *  entries and the v3 block seeds, which snapshot the same pending
 *  state per block (trace/block.h). */
void updateOpenBegins(std::uint64_t& mask, const Record& rec);

/** Serialize header + summaries + entries + trailer. */
std::vector<std::uint8_t> serializeIndex(const TraceIndex& index);

/**
 * Look for a v2 footer index. @p is must be seekable and positioned at
 * the start of the trace stream; the position is restored. Never
 * throws on damaged input: a missing/truncated/corrupt index reports
 * present/valid flags instead (the full-scan path is the fallback).
 */
IndexReadResult readIndex(std::istream& is);

/** Same, for the trace file at @p path. */
IndexReadResult readIndexFile(const std::string& path);

/** Same, for an in-memory trace image. */
IndexReadResult readIndexBuffer(const std::vector<std::uint8_t>& buf);

} // namespace cell::trace

#endif // CELL_TRACE_INDEX_H
