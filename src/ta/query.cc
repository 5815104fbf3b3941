/**
 * @file
 * Windowed query implementation: block cache, the brute-force
 * reference filter, and the indexed per-core replay.
 *
 * The indexed replay places records through trace::ClockReplay and
 * matches them with IntervalMatcher, the same replay and matcher the
 * full analysis uses. Correctness rests on three facts (enforced end
 * to end by tests/ta/test_query_diff.cc and properties P9/P9b):
 *
 *   1. Entry selection uses the LATEST index entry whose tick is
 *      STRICTLY below the window start, so every skipped event has a
 *      clamped time <= entry.tick < from — none can be in the window.
 *   2. The matcher's per-op pending occupancy at the entry is exactly
 *      the entry's open_begins mask intersected with the pendable ops.
 *      Seeded as phantoms, those pendings' Ends emit nothing; their
 *      intervals started before the window.
 *   3. Keeping the intervals that start in [from, to) commutes with
 *      the matcher's stable sort by start time, so the replay's
 *      intervals equal the reference's, order included.
 */

#include "ta/query.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ta/parallel.h"
#include "trace/replay.h"
#include "trace/shard.h"

namespace cell::ta {

// ---------------------------------------------------------------------------
// Block cache

BlockCache::BlockCache(std::size_t capacity_bytes)
    : capacity_(capacity_bytes)
{
}

namespace {

std::string
blockKey(const std::string& file_id, std::uint64_t block)
{
    return file_id + '#' + std::to_string(block);
}

std::size_t
blockBytes(const std::string& key, const BlockCache::Block& b)
{
    return key.size() + sizeof(trace::Record) * b->size() + 128;
}

} // namespace

BlockCache::Block
BlockCache::get(const std::string& file_id, std::uint64_t block,
                const std::function<std::vector<trace::Record>()>& load)
{
    const std::string key = blockKey(file_id, block);
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            stats_.hits += 1;
            return it->second->block;
        }
        stats_.misses += 1;
    }

    // Load outside the lock: concurrent misses on the same key may
    // both read the file; the blocks are identical and immutable, so
    // whichever insert loses just drops its copy.
    Block loaded = std::make_shared<const std::vector<trace::Record>>(load());

    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->block;
    }
    lru_.push_front(Entry{key, loaded});
    map_[key] = lru_.begin();
    bytes_ += blockBytes(key, loaded);
    while (bytes_ > capacity_ && lru_.size() > 1) {
        const Entry& victim = lru_.back();
        bytes_ -= blockBytes(victim.key, victim.block);
        map_.erase(victim.key);
        lru_.pop_back();
        stats_.evictions += 1;
    }
    return loaded;
}

std::string
BlockCache::fileId(const std::string& path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    std::uint64_t sz = ec ? 0 : static_cast<std::uint64_t>(size);
    const auto mtime = std::filesystem::last_write_time(path, ec);
    const std::uint64_t mt =
        ec ? 0
           : static_cast<std::uint64_t>(
                 mtime.time_since_epoch().count());

    // Content fingerprint: FNV-1a over the first and last 4 KiB. An
    // in-place same-size rewrite that lands within the filesystem's
    // mtime granularity is invisible to (path,size,mtime); the
    // fingerprint catches it as long as the rewrite touches the head
    // or tail block — which every header/footer-bearing trace rewrite
    // does. Two small reads per query, amortized over many block hits.
    std::uint64_t fp = 14695981039346656037ULL; // FNV-1a offset basis
    const auto fold = [&fp](const char* data, std::streamsize n) {
        for (std::streamsize i = 0; i < n; ++i) {
            fp ^= static_cast<unsigned char>(data[i]);
            fp *= 1099511628211ULL;
        }
    };
    std::ifstream is(path, std::ios::binary);
    if (is) {
        char buf[4096];
        is.read(buf, sizeof(buf));
        fold(buf, is.gcount());
        if (sz > sizeof(buf)) {
            is.clear();
            is.seekg(static_cast<std::streamoff>(
                sz - std::min<std::uint64_t>(sz, sizeof(buf))));
            is.read(buf, sizeof(buf));
            fold(buf, is.gcount());
        }
    }
    return path + '|' + std::to_string(sz) + '|' + std::to_string(mt) +
           '|' + std::to_string(fp);
}

BlockCache::Stats
BlockCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::size_t
BlockCache::sizeBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return bytes_;
}

void
BlockCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    lru_.clear();
    map_.clear();
    bytes_ = 0;
}

BlockCache&
sharedBlockCache()
{
    static BlockCache cache;
    return cache;
}

// ---------------------------------------------------------------------------
// Brute-force reference

WindowResult
queryWindow(const Analysis& a, std::uint64_t from, std::uint64_t to,
            int core)
{
    WindowResult r;
    r.from = from;
    r.to = to;
    r.header = a.model.header();
    r.leniency_skipped = a.model.leniencySkipped();
    r.cores.resize(a.model.cores().size());
    r.intervals.resize(a.model.cores().size());
    for (const CoreTimeline& tl : a.model.cores()) {
        CoreTimeline& dst = r.cores[tl.core];
        dst.core = tl.core;
        dst.label = tl.label;
        if (core >= 0 && tl.core != core)
            continue;
        for (const Event& ev : tl.events) {
            if (ev.time_tb >= from && ev.time_tb < to)
                dst.events.push_back(ev);
        }
        r.records_scanned += tl.events.size();
        for (const Interval& iv : a.intervals.per_core[tl.core]) {
            if (iv.start_tb >= from && iv.start_tb < to)
                r.intervals[tl.core].push_back(iv);
        }
    }
    return r;
}

// ---------------------------------------------------------------------------
// Indexed per-core replay

namespace {

struct CoreReplay
{
    std::vector<Event> events;
    std::vector<Interval> intervals;
    std::uint64_t scanned = 0;
};

/** Replay one core's window from its best index entry. @p plan carries
 *  the container: for a v3 file the index entry's byte_offset is
 *  VIRTUAL (region + ordinal * 32), and cache blocks are the
 *  compressed blocks themselves (one decode per miss), so the indexed
 *  seek reads only the blocks the window actually touches. */
CoreReplay
replayCoreWindow(const std::string& path, const trace::ShardPlan& plan,
                 const trace::TraceIndex& idx, BlockCache& cache,
                 const std::string& file_id, std::uint16_t core,
                 std::uint64_t from, std::uint64_t to,
                 const CancelToken* cancel)
{
    CoreReplay out;
    const trace::IndexCoreSummary& s = idx.cores[core];
    if (s.num_entries == 0 || from >= to)
        return out;

    // Latest entry with tick strictly below the window start; entry
    // ticks are validated non-decreasing, so partition_point applies.
    const auto begin = idx.entries.begin() + s.first_entry;
    const auto end = begin + s.num_entries;
    auto it = std::partition_point(
        begin, end,
        [from](const trace::IndexEntry& e) { return e.tick < from; });
    if (it != begin)
        --it;
    const trace::IndexEntry& e = *it;

    const std::uint64_t region = idx.header.record_region_offset;
    const std::uint64_t total = idx.header.record_count;
    std::uint64_t rec_i = (e.byte_offset - region) / sizeof(trace::Record);
    const std::uint64_t rec_end =
        (s.end_offset - region) / sizeof(trace::Record);

    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("ta::queryWindowFile: cannot open " + path);

    trace::ClockReplay clk;
    clk.have_sync = (e.flags & trace::kEntryHaveSync) != 0;
    clk.sync_raw = e.sync_raw;
    clk.sync_tb = e.sync_tb;
    clk.epoch = e.epoch;
    std::uint64_t prev = e.tick;
    std::uint64_t last_time = e.tick;

    // Begins open at the entry are phantoms: their intervals start
    // before the entry, hence before the window.
    IntervalMatcher matcher(
        core, e.open_begins & pendableOpsMask(),
        (e.open_begins >> static_cast<unsigned>(rt::ApiOp::SpuStart)) & 1);
    bool stopped = false;

    // Cache granularity: fixed 4096-record spans for v1 files, the
    // compressed block for v3 (its capacity IS the decode unit).
    const std::uint64_t cap =
        plan.v3 ? plan.block_capacity : BlockCache::kBlockRecords;
    while (rec_i < rec_end && !stopped) {
        if (cancel)
            cancel->checkpoint("queryWindowFile/block");
        const std::uint64_t blk = rec_i / cap;
        const std::uint64_t blk_first = blk * cap;
        BlockCache::Block records = cache.get(
            file_id, blk,
            [&is, &path, &plan, region, total, blk, blk_first, cap] {
                if (plan.v3) {
                    const trace::BlockDirEntry& de = plan.blocks.at(
                        static_cast<std::size_t>(blk));
                    std::vector<std::uint8_t> buf(de.block_bytes);
                    is.clear();
                    is.seekg(static_cast<std::streamoff>(de.offset));
                    is.read(reinterpret_cast<char*>(buf.data()),
                            static_cast<std::streamsize>(buf.size()));
                    if (!is || static_cast<std::uint64_t>(is.gcount()) !=
                                   buf.size())
                        throw std::runtime_error(
                            "ta::queryWindowFile: short read in " + path);
                    trace::BlockHeader bh;
                    std::memcpy(&bh, buf.data(), sizeof(bh));
                    trace::DecodedBlock db;
                    trace::decodeBlockBody(bh, buf.data() + sizeof(bh),
                                           buf.size() - sizeof(bh),
                                           plan.block_capacity, db);
                    return std::move(db.records);
                }
                const std::uint64_t n = std::min(cap, total - blk_first);
                std::vector<trace::Record> v(n);
                is.clear();
                is.seekg(static_cast<std::streamoff>(
                    region + blk_first * sizeof(trace::Record)));
                is.read(reinterpret_cast<char*>(v.data()),
                        static_cast<std::streamsize>(
                            n * sizeof(trace::Record)));
                if (!is)
                    throw std::runtime_error(
                        "ta::queryWindowFile: short read in " + path);
                return v;
            });

        for (std::uint64_t j = rec_i - blk_first;
             j < records->size() && rec_i < rec_end; ++j, ++rec_i) {
            const trace::Record& rec = (*records)[j];
            out.scanned += 1;
            if (rec.core != core)
                continue;
            std::uint64_t t = 0;
            if (!clk.feed(rec, t))
                continue; // unreachable on a strictClean() index
            if (t < prev)
                t = prev;
            prev = t;

            const Event ev = Event::placed(rec, t, clk.epoch);
            if (t >= from && t < to)
                out.events.push_back(ev);
            matcher.feed(ev);
            last_time = t;

            // Past the window with nothing window-started still open:
            // every later event and interval start is >= to.
            if (t >= to && !matcher.pendingIn(from, to)) {
                stopped = true;
                break;
            }
        }
    }

    // If we replayed to the core's end, last_time is the core's true
    // last event time (strict-clean: every record places) — the same
    // closure time the reference uses. If we stopped early, no real
    // pending started in the window, so the closure would emit nothing
    // the window keeps.
    if (!stopped)
        matcher.finish(last_time);
    out.intervals = matcher.take();
    std::erase_if(out.intervals, [from, to](const Interval& iv) {
        return iv.start_tb < from || iv.start_tb >= to;
    });
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// File query

WindowResult
queryWindowFile(const std::string& path, std::uint64_t from,
                std::uint64_t to, const QueryOptions& opt)
{
    // Salvage shifts byte offsets, so a salvage read never seeks.
    bool use_index = !opt.salvage && !opt.force_full_scan;
    trace::ShardPlan plan;
    trace::IndexReadResult ir;
    if (use_index) {
        try {
            plan = trace::planShardsFile(path);
            ir = trace::readIndexFile(path);
        } catch (const std::exception&) {
            // Let the full-scan path produce its own diagnostic.
            use_index = false;
        }
        if (use_index && (!ir.valid || !ir.index.strictClean()))
            use_index = false;
    }
    if (!use_index)
        return queryWindow(analyzeFile(path, opt), from, to, opt.core);

    const trace::TraceIndex& idx = ir.index;
    WindowResult r;
    r.from = from;
    r.to = to;
    r.header = plan.header;
    r.used_index = true;
    {
        trace::TraceData shell;
        shell.header = plan.header;
        shell.spe_programs = plan.spe_programs;
        r.cores = TraceModel::emptyTimelines(shell);
    }
    r.intervals.resize(r.cores.size());

    BlockCache& cache = opt.cache ? *opt.cache : sharedBlockCache();
    const std::string file_id = BlockCache::fileId(path);
    const std::uint32_t n_cores = plan.header.num_spes + 1;
    std::vector<CoreReplay> per(n_cores);

    const auto run_core = [&](std::uint64_t c) {
        if (opt.core >= 0 && c != static_cast<std::uint64_t>(opt.core))
            return;
        per[c] = replayCoreWindow(path, plan, idx, cache, file_id,
                                  static_cast<std::uint16_t>(c), from, to,
                                  opt.cancel);
    };
    if (opt.threads == 1) {
        for (std::uint64_t c = 0; c < n_cores; ++c)
            run_core(c);
    } else {
        WorkerPool pool(opt.threads);
        pool.parallelFor(n_cores, run_core);
    }

    for (std::uint32_t c = 0; c < n_cores; ++c) {
        r.cores[c].events = std::move(per[c].events);
        r.intervals[c] = std::move(per[c].intervals);
        r.records_scanned += per[c].scanned;
    }
    return r;
}

// ---------------------------------------------------------------------------
// Report / re-analysis

std::string
windowReport(const WindowResult& r)
{
    std::ostringstream os;
    os << "== window [" << r.from << ", " << r.to << ") tb ==\n";
    for (std::size_t c = 0; c < r.cores.size(); ++c) {
        os << "  core " << c << " " << r.cores[c].label << ": "
           << r.cores[c].events.size() << " events, "
           << (c < r.intervals.size() ? r.intervals[c].size() : 0)
           << " intervals\n";
    }
    os << "  leniency skipped: " << r.leniency_skipped << "\n";

    os << "events: core,time_tb,epoch,kind,phase,a,b,c,d\n";
    for (const CoreTimeline& tl : r.cores) {
        for (const Event& ev : tl.events) {
            os << ev.core << ',' << ev.time_tb << ',' << ev.epoch << ','
               << static_cast<unsigned>(ev.kind) << ','
               << static_cast<unsigned>(ev.phase) << ',' << ev.a << ','
               << ev.b << ',' << ev.c << ',' << ev.d << '\n';
        }
    }

    os << "intervals: core,class,op,start_tb,end_tb,a,b,c,d,end_b,"
          "truncated,gap\n";
    for (const auto& per_core : r.intervals) {
        for (const Interval& iv : per_core) {
            os << iv.core << ',' << intervalClassName(iv.cls) << ','
               << rt::apiOpName(iv.op) << ',' << iv.start_tb << ','
               << iv.end_tb << ',' << iv.a << ',' << iv.b << ',' << iv.c
               << ',' << iv.d << ',' << iv.end_b << ','
               << (iv.truncated ? 1 : 0) << ',' << (iv.gap ? 1 : 0)
               << '\n';
        }
    }
    return os.str();
}

Analysis
windowAnalysis(const WindowResult& r)
{
    std::vector<CoreTimeline> cores = r.cores;
    Analysis a{TraceModel::assemble(r.header, std::move(cores),
                                    r.leniency_skipped),
               {}, {}};
    a.intervals.per_core = r.intervals;
    a.stats = TraceStats::build(a.model, a.intervals);
    return a;
}

std::vector<std::vector<WindowSignature>>
windowSignatures(const Analysis& a, std::uint64_t origin,
                 std::uint64_t width, std::uint64_t count)
{
    if (width == 0)
        throw std::invalid_argument("windowSignatures: zero window width");
    const std::size_t n_cores = a.model.cores().size();
    std::vector<std::vector<WindowSignature>> sigs(
        count, std::vector<WindowSignature>(n_cores));
    if (count == 0)
        return sigs;
    const std::uint64_t end = origin + width * count;
    const auto windowOf = [&](std::uint64_t t) {
        return (t - origin) / width;
    };

    for (const CoreTimeline& tl : a.model.cores()) {
        for (const Event& ev : tl.events) {
            if (ev.time_tb < origin || ev.time_tb >= end)
                continue;
            WindowSignature& s = sigs[windowOf(ev.time_tb)][tl.core];
            s.events += 1;
            s.time_sum += ev.time_tb - (origin + windowOf(ev.time_tb) * width);
        }
    }
    for (const auto& per_core : a.intervals.per_core) {
        for (const Interval& iv : per_core) {
            if (iv.end_tb <= origin || iv.start_tb >= end)
                continue;
            const std::uint64_t lo = std::max(iv.start_tb, origin);
            const std::uint64_t hi = std::min(iv.end_tb, end);
            const std::size_t cls = static_cast<std::size_t>(iv.cls);
            for (std::uint64_t w = windowOf(lo); w < count; ++w) {
                const std::uint64_t wlo = origin + w * width;
                if (wlo >= hi)
                    break;
                const std::uint64_t whi = wlo + width;
                sigs[w][iv.core].occupancy[cls] +=
                    std::min(hi, whi) - std::max(lo, wlo);
            }
        }
    }
    return sigs;
}

} // namespace cell::ta
