/**
 * @file
 * Parallel analysis pipeline implementation.
 *
 * The determinism argument, phase by phase:
 *
 *  - SCAN summaries are pure functions of their record range.
 *  - COMBINE folds them strictly left-to-right, so the clock state
 *    entering shard s is exactly the state the serial builder holds
 *    after record s*shard_records - 1.
 *  - EMIT replays the serial per-record loop verbatim from that state;
 *    per-(shard, core) event runs are therefore the exact slices of
 *    the serial per-core timelines.
 *  - MERGE concatenates the slices in shard order — which is stream
 *    order — and applies the same monotonic clamp, so the timelines,
 *    and everything derived from them, are identical to serial.
 *
 * Threads only ever write disjoint state (their own shard's summary /
 * event runs, their own core's timeline, intervals, or stats slots);
 * phases are separated by the pool's completion barrier.
 */

#include "ta/parallel.h"

#include <algorithm>
#include <stdexcept>

#include "trace/replay.h"

namespace cell::ta {

// ---------------------------------------------------------------------------
// Scan / combine
// ---------------------------------------------------------------------------

namespace scan {

namespace {
constexpr std::uint64_t kNone = ~std::uint64_t{0};
} // namespace

RangeScan
scanRange(const trace::TraceData& trace, std::uint64_t first,
          std::uint64_t count, std::uint32_t n_cores)
{
    RangeScan rs;
    rs.cores.resize(n_cores);
    for (std::uint64_t i = first; i < first + count; ++i) {
        const trace::Record& rec = trace.records[i];
        if (rec.core >= n_cores) {
            rs.bad_core_records += 1;
            if (rs.first_bad_core_index == kNone)
                rs.first_bad_core_index = i;
            continue;
        }
        CoreScan& cs = rs.cores[rec.core];
        if (rec.kind == trace::kSyncRecord) {
            cs.saw_sync = true;
            cs.last_sync_raw = static_cast<std::uint32_t>(rec.a);
            cs.last_sync_tb = rec.b;
            continue; // the sync itself is never "before the sync"
        }
        if (rec.kind == trace::kDropRecord) {
            cs.drops_total += 1;
            if (!cs.saw_sync)
                cs.drops_before_sync += 1;
        }
        if (!cs.saw_sync) {
            cs.records_before_sync += 1;
            if (cs.first_presync_index == kNone)
                cs.first_presync_index = i;
        }
    }
    return rs;
}

void
combine(RangeScan& into, const RangeScan& next)
{
    into.bad_core_records += next.bad_core_records;
    into.first_bad_core_index =
        std::min(into.first_bad_core_index, next.first_bad_core_index);
    for (std::size_t c = 0; c < into.cores.size(); ++c) {
        CoreScan& a = into.cores[c];
        const CoreScan& b = next.cores[c];
        if (!a.saw_sync) {
            // Everything pre-sync in `next` is still pre-(first-ever)-
            // sync of the concatenation.
            a.records_before_sync += b.records_before_sync;
            a.drops_before_sync += b.drops_before_sync;
            a.first_presync_index =
                std::min(a.first_presync_index, b.first_presync_index);
            a.saw_sync = b.saw_sync;
            if (b.saw_sync) {
                a.last_sync_raw = b.last_sync_raw;
                a.last_sync_tb = b.last_sync_tb;
            }
        } else if (b.saw_sync) {
            a.last_sync_raw = b.last_sync_raw;
            a.last_sync_tb = b.last_sync_tb;
        }
        a.drops_total += b.drops_total;
    }
}

} // namespace scan

// ---------------------------------------------------------------------------
// Sharded model build
// ---------------------------------------------------------------------------

namespace {

/** Clock state after the records summarized by @p prefix. */
std::vector<trace::ClockReplay>
clockStatesFrom(const scan::RangeScan& prefix)
{
    std::vector<trace::ClockReplay> states(prefix.cores.size());
    for (std::size_t c = 0; c < states.size(); ++c) {
        const scan::CoreScan& cs = prefix.cores[c];
        trace::ClockReplay& st = states[c];
        st.have_sync = cs.saw_sync;
        st.sync_raw = cs.last_sync_raw;
        st.sync_tb = cs.last_sync_tb;
        // Only drops after the first-ever sync bump the epoch.
        st.epoch =
            static_cast<std::uint32_t>(cs.drops_total - cs.drops_before_sync);
    }
    return states;
}

/** Replay records [first, first+count) from @p clocks, the clock
 *  state entering the range, into per-core event runs. */
std::vector<std::vector<Event>>
emitRange(const trace::TraceData& trace, std::uint64_t first,
          std::uint64_t count, std::vector<trace::ClockReplay> clocks)
{
    const auto n_cores = static_cast<std::uint32_t>(clocks.size());
    std::vector<std::vector<Event>> out(n_cores);
    for (std::uint64_t i = first; i < first + count; ++i) {
        const trace::Record& rec = trace.records[i];
        if (rec.core >= n_cores)
            continue; // accounted in phase 2 (or thrown, strict)
        trace::ClockReplay& clk = clocks[rec.core];
        std::uint64_t t = 0;
        if (!clk.feed(rec, t))
            continue; // accounted in phase 2 (or thrown, strict)
        out[rec.core].push_back(Event::placed(rec, t, clk.epoch));
    }
    return out;
}

} // namespace

TraceModel
buildModelParallel(const trace::TraceData& trace, WorkerPool& pool,
                   bool lenient, std::uint64_t shard_records,
                   const CancelToken* cancel)
{
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    const std::uint32_t n_cores = trace.header.num_spes + 1;
    const std::uint64_t n = trace.records.size();
    if (shard_records == 0) {
        const std::uint64_t target = std::uint64_t{pool.threads()} * 8;
        shard_records = std::max<std::uint64_t>(4096, (n + target - 1) /
                                                          std::max<std::uint64_t>(target, 1));
    }
    const std::uint64_t n_shards =
        n == 0 ? 0 : (n + shard_records - 1) / shard_records;

    // Phase 1: scan every shard into its per-core summary.
    std::vector<scan::RangeScan> scans(n_shards);
    pool.parallelFor(n_shards, [&](std::uint64_t s) {
        if (cancel)
            cancel->checkpoint("buildModelParallel/scan");
        const std::uint64_t first = s * shard_records;
        scans[s] = scan::scanRange(trace, first,
                                   std::min(shard_records, n - first),
                                   n_cores);
    });

    // Phase 2: fold summaries left to right; record the exact clock
    // state entering each shard.
    std::vector<std::vector<trace::ClockReplay>> entry(n_shards);
    scan::RangeScan prefix;
    prefix.cores.resize(n_cores);
    for (std::uint64_t s = 0; s < n_shards; ++s) {
        entry[s] = clockStatesFrom(prefix);
        scan::combine(prefix, scans[s]);
    }

    std::uint64_t leniency = 0;
    if (lenient) {
        leniency = prefix.bad_core_records;
        for (const scan::CoreScan& cs : prefix.cores)
            leniency += cs.records_before_sync;
    } else {
        // Strict mode: fail on the earliest offender, with the same
        // diagnostics the serial builder raises.
        std::uint64_t presync_idx = kNone;
        std::uint16_t presync_core = 0;
        for (std::size_t c = 0; c < prefix.cores.size(); ++c) {
            if (prefix.cores[c].first_presync_index < presync_idx) {
                presync_idx = prefix.cores[c].first_presync_index;
                presync_core = static_cast<std::uint16_t>(c);
            }
        }
        const std::uint64_t bad_idx = prefix.first_bad_core_index;
        if (bad_idx != kNone || presync_idx != kNone) {
            if (bad_idx < presync_idx)
                throw std::runtime_error(
                    "TraceModel: record with bad core id");
            throw std::runtime_error(
                "TraceModel: event before first sync record on core " +
                std::to_string(presync_core));
        }
    }

    // Phase 3: emit per-shard, per-core event runs.
    std::vector<std::vector<std::vector<Event>>> emitted(n_shards);
    pool.parallelFor(n_shards, [&](std::uint64_t s) {
        if (cancel)
            cancel->checkpoint("buildModelParallel/emit");
        const std::uint64_t first = s * shard_records;
        emitted[s] = emitRange(trace, first, std::min(shard_records, n - first),
                               entry[s]);
    });

    // Phase 4: merge in canonical (core, shard) order + monotonic
    // clamp — shard order is stream order, so each core's event
    // sequence equals the serial builder's.
    std::vector<CoreTimeline> cores = TraceModel::emptyTimelines(trace);
    pool.parallelFor(n_cores, [&](std::uint64_t c) {
        auto& events = cores[c].events;
        std::size_t total = 0;
        for (std::uint64_t s = 0; s < n_shards; ++s)
            total += emitted[s][c].size();
        events.reserve(total);
        for (std::uint64_t s = 0; s < n_shards; ++s)
            events.insert(events.end(), emitted[s][c].begin(),
                          emitted[s][c].end());
        std::uint64_t prev = 0;
        for (Event& ev : events) {
            if (ev.time_tb < prev)
                ev.time_tb = prev;
            prev = ev.time_tb;
        }
    });
    return TraceModel::assemble(trace.header, std::move(cores), leniency);
}

IntervalSet
buildIntervalsParallel(const TraceModel& model, WorkerPool& pool,
                       const CancelToken* cancel)
{
    IntervalSet out;
    out.per_core.resize(model.cores().size());
    pool.parallelFor(model.cores().size(), [&](std::uint64_t c) {
        if (cancel)
            cancel->checkpoint("buildIntervalsParallel");
        out.per_core[c] = buildCoreIntervals(model.cores()[c]);
    });
    return out;
}

TraceStats
buildStatsParallel(const TraceModel& model, const IntervalSet& ivs,
                   WorkerPool& pool, const CancelToken* cancel)
{
    TraceStats st;
    st.resizeFor(model);
    pool.parallelFor(model.cores().size(), [&](std::uint64_t c) {
        if (cancel)
            cancel->checkpoint("buildStatsParallel");
        st.buildCore(model, ivs, static_cast<std::uint16_t>(c));
    });
    for (const CoreTimeline& tl : model.cores())
        st.total_records += tl.events.size();
    return st;
}

} // namespace cell::ta
