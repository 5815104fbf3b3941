/**
 * @file
 * Windowed trace queries: analyze only the part of a trace that
 * intersects a [from, to) timebase window, seeking via the optional v2
 * footer index instead of scanning the whole file.
 *
 * Semantics are defined by the brute-force reference, queryWindow():
 * take the FULL serial analysis and keep the events whose time lies in
 * [from, to) and the intervals whose START lies in [from, to) — with
 * their full durations, even when the End falls past `to`. The indexed
 * path, queryWindowFile(), must reproduce that exactly (field-wise
 * equal structures, byte-identical windowReport() text); the
 * differential suite tests/ta/test_query_diff.cc enforces it on every
 * workload, fault-injected, and salvaged trace at 1/2/4/8 threads.
 *
 * How the indexed path gets exact answers without a full scan: per
 * core it resumes the clock replay (trace::ClockReplay) at the latest
 * index entry whose `tick` (max event time before the entry) is
 * strictly below `from` — every skipped event is provably before the
 * window — with the entry's snapshot of the clock mapping, drop epoch,
 * monotonic clamp, and open-begin mask. It feeds the placed events to
 * the analyzer's own IntervalMatcher, seeded with the Begins open at
 * the entry as "phantom" pendings: their End is consumed silently
 * (the interval started before the window), so it is never
 * misclassified as an End-without-Begin. Replay stops early once the
 * clock passes `to` and no real pending interval started inside the
 * window.
 *
 * Fallbacks keep every answer exact: no index, a checksum/structural
 * mismatch, salvage mode (salvage shifts byte offsets), a trace whose
 * strict analysis would throw (the index records pre-sync/bad-core
 * skips), or force_full_scan all route through analyzeFile() plus the
 * brute-force filter.
 *
 * Record blocks decoded from the file are cached in a bounded,
 * thread-safe LRU keyed by (file identity, block range), shared across
 * queries by default.
 */

#ifndef CELL_TA_QUERY_H
#define CELL_TA_QUERY_H

#include <array>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ta/analyzer.h"
#include "ta/cancel.h"
#include "trace/index.h"

namespace cell::ta {

/**
 * Bounded LRU over decoded record blocks, keyed by (file identity,
 * block index). Thread-safe; concurrent misses on the same key may
 * both load, last insert wins (harmless: blocks are immutable).
 */
class BlockCache
{
  public:
    /** Records per cached block (128 KiB of record bytes). */
    static constexpr std::uint64_t kBlockRecords = 4096;

    using Block = std::shared_ptr<const std::vector<trace::Record>>;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    explicit BlockCache(std::size_t capacity_bytes = 64u << 20);

    /** Fetch block @p block of @p file_id, calling @p load on a miss. */
    Block get(const std::string& file_id, std::uint64_t block,
              const std::function<std::vector<trace::Record>()>& load);

    /** Identity key for @p path: path + size + mtime + a content
     *  fingerprint (FNV-1a over the first and last 4 KiB), so an
     *  overwritten file never serves stale blocks — even an in-place
     *  rewrite of the same size landing within the mtime granularity,
     *  which (path,size,mtime) alone cannot see. */
    static std::string fileId(const std::string& path);

    Stats stats() const;
    std::size_t sizeBytes() const;
    void clear();

  private:
    struct Entry
    {
        std::string key;
        Block block;
    };

    mutable std::mutex mu_;
    std::size_t capacity_;
    std::size_t bytes_ = 0;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map_;
    Stats stats_;
};

/** The process-wide cache queryWindowFile uses by default. */
BlockCache& sharedBlockCache();

/** Knobs for queryWindowFile: the analysis fields (threads, salvage,
 *  cancel, report) as for analyzeFile, plus the query's own. A salvage
 *  read is never indexed. The cancel token is polled at block
 *  boundaries on the indexed path and at shard boundaries on the
 *  full-scan fallback. */
struct QueryOptions : AnalyzeOptions
{
    /** Ignore any index; take the full-scan path (benchmarks, and the
     *  degradation tests that pin fallback == indexed). */
    bool force_full_scan = false;
    /** Restrict to one core id (0 = PPE, 1 + i = SPE i); -1 = all. */
    int core = -1;
    /** Block cache to use; nullptr = sharedBlockCache(). */
    BlockCache* cache = nullptr;
};

/** One windowed query's result. */
struct WindowResult
{
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    trace::Header header;
    /** Per-core timelines holding only events with time in [from, to). */
    std::vector<CoreTimeline> cores;
    /** Per-core intervals whose start lies in [from, to), full
     *  durations, sorted by start time. */
    std::vector<std::vector<Interval>> intervals;
    std::uint64_t leniency_skipped = 0;

    // Diagnostics — deliberately NOT part of windowReport(), so the
    // indexed and full-scan paths stay byte-comparable.
    bool used_index = false;
    std::uint64_t records_scanned = 0;
};

/** Brute-force reference: filter a full analysis down to the window. */
WindowResult queryWindow(const Analysis& a, std::uint64_t from,
                         std::uint64_t to, int core = -1);

/** Windowed query over a trace file, seeking via the v2 index when
 *  one is present and trustworthy (see file docs for the fallbacks).
 *  @throws std::runtime_error exactly where the equivalent full-scan
 *  analysis would (damaged file, strict-analysis failures). */
WindowResult queryWindowFile(const std::string& path, std::uint64_t from,
                             std::uint64_t to,
                             const QueryOptions& opt = {});

/** Deterministic textual report: per-core counts, then every event
 *  and interval row in absolute timebase ticks. The byte-compare
 *  artifact of the query differential suite. */
std::string windowReport(const WindowResult& r);

/** Assemble a full Analysis (model, intervals, stats) from a window —
 *  lets every existing view (activity profile, breakdowns) run on a
 *  window slice, e.g. `ta profile --from --to`. */
Analysis windowAnalysis(const WindowResult& r);

/**
 * Per-window, per-core signature for the rolling divergence scan
 * (`ta diff`). A window's signature is sensitive to every way a run
 * can differ inside it: the event count, the sum of event offsets from
 * the window start (so a pure time shift registers even when counts
 * and occupancy match), and the per-class interval occupancy clipped
 * to the window. Two runs are identical inside a window iff their
 * signatures match core-for-core.
 */
struct WindowSignature
{
    std::uint64_t events = 0;
    /** Σ (event time - window start) over in-window events. */
    std::uint64_t time_sum = 0;
    /** Interval time overlapping this window, per IntervalClass. */
    std::array<std::uint64_t, kNumIntervalClasses> occupancy{};

    bool operator==(const WindowSignature&) const = default;
};

/**
 * Signatures for @p count consecutive windows of @p width ticks
 * starting at @p origin, indexed [window][core]. Windows use the same
 * convention as queryWindow: an event belongs to the window containing
 * its time; interval occupancy is clipped to each window it overlaps.
 * @p width must be nonzero.
 */
std::vector<std::vector<WindowSignature>>
windowSignatures(const Analysis& a, std::uint64_t origin,
                 std::uint64_t width, std::uint64_t count);

} // namespace cell::ta

#endif // CELL_TA_QUERY_H
