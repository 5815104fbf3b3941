/**
 * @file
 * v3 compressed block format for the record region.
 *
 * A v1 record region stores full 32-byte records even though
 * consecutive records are nearly identical: timestamps advance by
 * small deltas, the same few (kind, phase, core) triples repeat, and
 * payload words change slowly. The v3 region (file header version 3,
 * opt-in via WriteOptions::compress) exploits exactly that redundancy
 * while keeping every other property of the format:
 *
 *   Header (40 bytes, version = 3)
 *   name table                         (unchanged from v1)
 *   BlockRegionHeader                  (48 bytes)
 *   Block 0:  BlockHeader + BlockSeed x num_cores + varint payload
 *   ...
 *   Block n-1
 *   BlockDirEntry x n                  (16 bytes each)
 *   BlockDirTrailer                    (24 bytes)
 *   [optional v2 footer index]         (unchanged, virtual offsets)
 *
 * Each block covers exactly `block_capacity` records (the last may be
 * short) and is INDEPENDENTLY decodable: its header carries the
 * uncompressed record count/size and an FNV-1a 64 checksum over the
 * seeds + payload, and its seeds snapshot, per core, the same replay
 * state the v2 index entries snapshot (clock mapping, drop epoch,
 * monotonic-clamp tick, open-begin pending mask) plus the number of
 * the core's records before the block. A corrupt block therefore
 * becomes a bounded gap: salvage resynchronizes on the next block's
 * magic, knows exactly how many records each core lost from the seed
 * deltas, and injects synthetic sync + drop markers so the analyzer
 * places every post-gap event exactly where a full decode would have
 * and flags the gap in its loss report.
 *
 * Payload encoding (per block): a dictionary of the distinct
 * (kind, phase, core) triples in first-appearance order, then the
 * per-record fields — a varint dictionary index, a timestamp
 * (absolute for the core's first record in the block, zigzag delta
 * against the core's previous record otherwise), and zigzag deltas of
 * a/b/c/d against the previous record of the SAME dictionary entry.
 * All varints are LEB128; deltas are modulo arithmetic, so decode is
 * exact for arbitrary field values. Typical traces compress 3-5x.
 *
 * Two payload LAYOUTS carry those fields (BlockHeader::payload):
 *
 *  - kPayloadInterleaved (0): the original layout — all six fields of
 *    record i, then all six of record i+1. This is what every earlier
 *    writer produced (the field was a zero reserved word), so old v3
 *    files decode unchanged.
 *  - kPayloadColumnar (1): what the writer emits now. A 28-byte table
 *    of seven u32 stream lengths [dict, index, timestamp, a, b, c, d]
 *    followed by the seven streams back to back, each field a
 *    contiguous varint run. The a/b/c/d streams add zero-run
 *    encoding: a 0x00 lead byte is followed by a varint count of
 *    consecutive zero deltas (a nonzero delta's varint never starts
 *    with 0x00, so the escape is unambiguous). Decode is a tight loop
 *    per stream writing straight into Record storage — measurably
 *    faster than v1's raw read on typical traces, and the reason v3
 *    decode now beats v1 wall time (bench_v3_blocks).
 *
 * Both layouts encode identical information: a block re-encoded from
 * one layout to the other decodes to identical records, and files may
 * mix layouts block by block (readers dispatch per block header).
 *
 * The v2 footer index is reused unchanged via VIRTUAL offsets: entries
 * address record `i` as region_offset + i*32 exactly as if the region
 * were uncompressed, and the query layer maps the virtual offset to
 * (block = i / capacity, offset-in-block) through the directory — the
 * indexed seek win survives compression.
 */

#ifndef CELL_TRACE_BLOCK_H
#define CELL_TRACE_BLOCK_H

#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/format.h"
#include "trace/mmap.h"
#include "trace/reader.h"
#include "util/worker_pool.h"

namespace cell::trace {

/** Region magic: "CBEPDTB3". */
constexpr std::uint64_t kBlockRegionMagic = 0x3342544450454243ULL;

/** Per-block magic: "PDB3". */
constexpr std::uint32_t kBlockMagic = 0x33424450;

/** Default records per block (2048 x 32 bytes = 64 KiB uncompressed). */
constexpr std::uint32_t kDefaultBlockRecords = 2048;

/** Hard cap on records per block (keeps per-block buffers bounded). */
constexpr std::uint32_t kMaxBlockRecords = 1u << 20;

/** BlockSeed.flags: the core had seen a sync record before the block. */
constexpr std::uint16_t kSeedHaveSync = 1;

/** BlockHeader.payload: original interleaved per-record layout. */
constexpr std::uint32_t kPayloadInterleaved = 0;

/** BlockHeader.payload: per-field columnar streams (current writer). */
constexpr std::uint32_t kPayloadColumnar = 1;

/** Leads the block region (at the record-region offset). */
struct BlockRegionHeader
{
    std::uint64_t magic = kBlockRegionMagic;
    std::uint32_t version = kFormatVersionV3;
    /** Records per block; every block but the last holds exactly this. */
    std::uint32_t block_capacity = kDefaultBlockRecords;
    std::uint64_t block_count = 0;
    /** Must equal the file header's record_count. */
    std::uint64_t record_count = 0;
    /** Absolute file offset of the first BlockDirEntry. */
    std::uint64_t directory_offset = 0;
    std::uint64_t reserved = 0;
};
static_assert(sizeof(BlockRegionHeader) == 48,
              "block region header is 48 bytes");

/** Per-core replay snapshot taken BEFORE the block's first record —
 *  the same state a v2 IndexEntry snapshots, plus the core's record
 *  ordinal, so salvage can account a lost block exactly. */
struct BlockSeed
{
    /** Max clamped event time of this core before the block. */
    std::uint64_t tick = 0;
    std::uint64_t sync_tb = 0;
    /** Open-begin pending mask (see trace/index.h). */
    std::uint64_t open_begins = 0;
    /** This core's records before the block (all blocks so far). */
    std::uint64_t records_before = 0;
    std::uint32_t sync_raw = 0;
    /** Drop epoch entering the block. */
    std::uint32_t epoch = 0;
    std::uint16_t core = 0;
    std::uint16_t flags = 0;
    std::uint32_t reserved = 0;
};
static_assert(sizeof(BlockSeed) == 48, "block seeds are 48 bytes");

/** Leads each block; the checksum covers the seeds + payload bytes. */
struct BlockHeader
{
    std::uint32_t magic = kBlockMagic;
    /** Records encoded in this block (<= region block_capacity). */
    std::uint32_t record_count = 0;
    /** Encoded payload bytes following the seeds. */
    std::uint32_t payload_size = 0;
    /** Seeds following this header (== num_spes + 1 as written). */
    std::uint32_t seed_count = 0;
    /** Global ordinal of the block's first record. */
    std::uint64_t first_record = 0;
    /** FNV-1a 64 over the seed bytes then the payload bytes. */
    std::uint64_t checksum = 0;
    /** record_count * 32: what the block decodes to. */
    std::uint32_t uncompressed_size = 0;
    /** Payload layout: kPayloadInterleaved (every pre-columnar writer
     *  left this word zero) or kPayloadColumnar. */
    std::uint32_t payload = kPayloadInterleaved;
};
static_assert(sizeof(BlockHeader) == 40, "block headers are 40 bytes");

/** Directory: one entry per block, written after the last block. */
struct BlockDirEntry
{
    /** Absolute file offset of the block's BlockHeader. */
    std::uint64_t offset = 0;
    /** Whole block size: header + seeds + payload. */
    std::uint32_t block_bytes = 0;
    std::uint32_t record_count = 0;

    bool operator==(const BlockDirEntry&) const = default;
};
static_assert(sizeof(BlockDirEntry) == 16, "directory entries are 16 bytes");

/** Closes the directory. */
struct BlockDirTrailer
{
    /** FNV-1a 64 over the directory entry bytes. */
    std::uint64_t checksum = 0;
    /** Directory entry bytes (block_count * 16). */
    std::uint64_t dir_bytes = 0;
    std::uint64_t magic = kBlockRegionMagic;
};
static_assert(sizeof(BlockDirTrailer) == 24, "directory trailer is 24 bytes");

/** One fully-decoded block. */
struct DecodedBlock
{
    BlockHeader header;
    std::vector<BlockSeed> seeds;
    std::vector<Record> records;
};

/** Upper bound on seeds + payload bytes for a plausible block: varint
 *  worst cases sum below 48 bytes per record plus dictionary slack. */
std::uint64_t maxBlockBodyBytes(std::uint32_t record_count,
                                std::uint32_t seed_count);

/** Structural plausibility of a block header against the region's
 *  @p capacity: everything checkable without touching the body,
 *  including seed_count <= 4096, so a body length computed from a
 *  plausible header is bounded. Readers check it before sizing any
 *  buffer from the header. */
bool plausibleBlockHeader(const BlockHeader& bh, std::uint32_t capacity);

/**
 * Encode one block into @p out, replacing its contents: the
 * BlockHeader, then @p seed_count seeds, then the payload of the @p n
 * records at @p recs, whose first is record @p first_record of the
 * trace. The payload is columnar, or interleaved (the layout old
 * readers saw) when @p legacy_payload. The bytes depend only on the
 * arguments — the seeds carry everything a block needs from the
 * records before it — so blocks encode independently, in any order
 * and on any thread (trace::writeFile runs them on a pool).
 */
void encodeBlock(const Record* recs, std::uint32_t n,
                 std::uint64_t first_record, const BlockSeed* seeds,
                 std::uint32_t seed_count, bool legacy_payload,
                 std::vector<std::uint8_t>& out);

/**
 * Decode one block body (seeds + payload, as checksummed). Validates
 * the checksum and every structural claim; @p capacity is the region's
 * block_capacity. @throws std::runtime_error on any mismatch.
 */
void decodeBlockBody(const BlockHeader& hdr, const std::uint8_t* body,
                     std::size_t body_len, std::uint32_t capacity,
                     DecodedBlock& out);

/**
 * Fused decode: identical validation to decodeBlockBody, but the
 * hdr.record_count records are written straight into @p dst (caller
 * owns at least that much storage) with no intermediate buffers, and
 * the seeds are checksummed but not copied out. This is the strict
 * read path — the serial reader and the sharded one decode every
 * block in place through it. A damaged body throws naming the block
 * (@p index of @p count) and pointing at --salvage, so both readers
 * report it in the same words.
 */
void decodeBlockBodyInto(const BlockHeader& hdr, const std::uint8_t* body,
                         std::size_t body_len, std::uint32_t capacity,
                         std::uint64_t index, std::uint64_t count,
                         Record* dst);

/**
 * Salvage walk over the bytes of a (possibly damaged) block region.
 * @p data points at where the BlockRegionHeader should be and spans
 * everything up to end-of-input (directory and any index footer
 * included — the walk stops at the directory). Decodable blocks append
 * their records to @p raw in order; a corrupt or missing block becomes
 * a gap: the next good block's seeds resynchronize each core's clock
 * (synthetic sync record) and account the loss (synthetic drop marker
 * with the exact per-core count), and @p rep records what was lost.
 * Records in @p raw are NOT plausibility-filtered; the caller applies
 * the same filter the v1 salvage path uses.
 */
void salvageBlockRegion(const std::uint8_t* data, std::size_t len,
                        std::uint64_t region_offset, std::uint32_t num_spes,
                        std::vector<Record>& raw, ReadReport& rep);

/**
 * Bounded-memory streaming reader over a v3 trace: decodes one block
 * at a time, never materializing the whole record region. Sequential
 * use (next()) works on non-seekable streams; random access
 * (directory()/readBlock()) needs a seekable one. Strict semantics:
 * any structural damage throws.
 *
 * The path constructor memory-maps regular files (zero-copy block
 * bodies) and falls back to buffered stream reads on anything mmap
 * rejects — FIFOs, /proc-style pseudo-files — with identical output.
 *
 * pipeline() arms prefetch-decode: next() hands out block N while
 * blocks N+1..N+window decode on WorkerPool workers. Byte reads stay
 * on the consumer thread (streams are not shared across threads; on a
 * mapped file the "read" is a pointer slice), only the CPU-heavy
 * decode moves. Output and error behavior are identical to the
 * unpipelined reader: a corrupt block throws from the next() call
 * that would have returned it.
 */
class BlockReader
{
  public:
    /** Reads the file header, name table, and region header.
     *  @throws std::runtime_error unless @p is holds a v3 trace. */
    explicit BlockReader(std::istream& is);

    /** Same, from a file: mmap-backed when the file is mappable,
     *  buffered stream I/O otherwise. */
    explicit BlockReader(const std::string& path);

    /** Drains any in-flight prefetch decodes before tearing down. */
    ~BlockReader();

    BlockReader(const BlockReader&) = delete;
    BlockReader& operator=(const BlockReader&) = delete;

    /** File header, version normalized to 1 (decode is transparent). */
    const Header& header() const { return header_; }
    const std::vector<std::string>& spePrograms() const { return names_; }
    const BlockRegionHeader& region() const { return region_; }
    std::uint64_t blockCount() const { return region_.block_count; }

    /** True when the source is a memory mapping (path constructor on a
     *  mappable file); false on the buffered fallback. */
    bool mapped() const { return mem_ != nullptr; }

    /** Arm pipelined decode-ahead on @p pool: up to @p window blocks
     *  (clamped to [1, 16]) decode ahead of the consumer. Call before
     *  the first next(); a pool of 1 degrades to inline decode. */
    void pipeline(util::WorkerPool& pool, unsigned window = 2);

    /** Decode the next block in file order into @p out. Returns false
     *  once every block has been read. @throws on damage. */
    bool next(DecodedBlock& out);

    /** The validated directory (lazily loaded; falls back to walking
     *  the block headers when the directory bytes are damaged).
     *  @throws if the stream is not seekable. */
    const std::vector<BlockDirEntry>& directory();

    /** Random access: decode block @p index via the directory. */
    void readBlock(std::uint64_t index, DecodedBlock& out);

  private:
    /** One decode-ahead slot: the block's bytes were read on the
     *  consumer thread; the decode ran (or is running) on a worker. */
    struct Inflight
    {
        BlockHeader header;
        std::vector<std::uint8_t> body; ///< empty on a mapped source
        DecodedBlock block;
        std::exception_ptr error;
        std::future<void> done;
    };

    void parseHeaders();
    void readSeq(void* dst, std::size_t n, const char* what);
    /** Read the next block's header + body bytes (sequentially) and
     *  start its decode; false when no blocks remain. */
    bool startPrefetch();

    std::istream* is_ = nullptr; ///< null on a mapped source
    std::unique_ptr<std::ifstream> owned_is_;
    MappedFile map_;
    const std::uint8_t* mem_ = nullptr; ///< whole file when mapped
    std::size_t mem_len_ = 0;
    std::uint64_t seq_pos_ = 0; ///< header-parse cursor (mapped source)

    Header header_;
    std::vector<std::string> names_;
    BlockRegionHeader region_;
    std::uint64_t region_offset_ = 0; ///< absolute region-header offset
    std::uint64_t next_block_ = 0;
    std::uint64_t next_offset_ = 0; ///< absolute offset of next block
    std::uint64_t next_first_ = 0;  ///< expected first_record of it
    bool have_directory_ = false;
    std::vector<BlockDirEntry> directory_;

    util::WorkerPool* pool_ = nullptr; ///< non-null once pipelined
    unsigned window_ = 0;
    bool src_failed_ = false; ///< a prefetch read failed; stop reading
    std::deque<std::unique_ptr<Inflight>> inflight_;
    std::deque<std::unique_ptr<Inflight>> free_; ///< recycled slots
};

/** What probeBlockRegion() learns about a file's record region. */
struct BlockRegionProbe
{
    /** The file is a v3 trace with a readable region header. */
    bool present = false;
    BlockRegionHeader region{};
    /** Region header + blocks + directory + trailer, in bytes. */
    std::uint64_t region_bytes = 0;
};

/** Cheap v3 sniff: header + name table + region header only. Restores
 *  the stream position; returns present=false instead of throwing. */
BlockRegionProbe probeBlockRegion(std::istream& is);

/** Same, for the file at @p path. */
BlockRegionProbe probeBlockRegionFile(const std::string& path);

/**
 * Read + validate the block directory of a v3 trace whose region
 * header is @p region (checksum, entry bounds, capacity partition).
 * Damaged directory bytes fall back to a sequential walk of the block
 * headers, which reconstructs the same entries — parallel consumers
 * keep working, and keep matching the serial reader, on a trace whose
 * blocks are fine but whose directory is not. @throws when neither
 * path yields a consistent directory.
 */
std::vector<BlockDirEntry> loadBlockDirectory(std::istream& is,
                                              std::uint64_t region_offset,
                                              const BlockRegionHeader& region);

/** Same, over the whole file mapped in memory (@p file / @p file_len
 *  span the file from byte 0, so directory offsets index directly). */
std::vector<BlockDirEntry> loadBlockDirectory(const std::uint8_t* file,
                                              std::size_t file_len,
                                              std::uint64_t region_offset,
                                              const BlockRegionHeader& region);

} // namespace cell::trace

#endif // CELL_TRACE_BLOCK_H
