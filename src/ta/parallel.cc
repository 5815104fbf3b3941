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
 *  - The same fold tells how many records of each (shard, core) slice
 *    place: all of the core's records when a sync precedes the shard,
 *    else all but those before the shard's first sync of that core.
 *    Prefix sums over shards give each slice's offset in the core's
 *    exactly-sized timeline.
 *  - EMIT replays the serial per-record loop verbatim from that state
 *    into the slice, so slices laid end to end in shard order — which
 *    is stream order — are the serial per-core timelines.
 *  - CLAMP applies the serial builder's monotonic clamp per core, so
 *    the timelines, and everything derived from them, are identical
 *    to serial.
 *
 * Threads only ever write disjoint state (their own shard's summary,
 * their own slices of the timelines, their own core's clamp,
 * intervals, or stats slots); phases are separated by the pool's
 * completion barrier.
 */

#include "ta/parallel.h"

#include <algorithm>
#include <cassert>
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
scanRange(std::span<const trace::Record> records, std::uint64_t first,
          std::uint64_t count, std::uint32_t n_cores)
{
    RangeScan rs;
    rs.cores.resize(n_cores);
    for (std::uint64_t i = first; i < first + count; ++i) {
        const trace::Record& rec = records[i];
        if (rec.core >= n_cores) {
            rs.bad_core_records += 1;
            if (rs.first_bad_core_index == kNone)
                rs.first_bad_core_index = i;
            continue;
        }
        CoreScan& cs = rs.cores[rec.core];
        cs.records += 1;
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
        a.records += b.records;
        a.drops_total += b.drops_total;
    }
}

std::uint64_t
placedEvents(const CoreScan& cs, bool have_sync)
{
    return cs.records - (have_sync ? 0 : cs.records_before_sync);
}

} // namespace scan

// ---------------------------------------------------------------------------
// Sharded model build
// ---------------------------------------------------------------------------

namespace {

/** Clock state after the records @p cs summarizes. */
trace::ClockReplay
clockStateAfter(const scan::CoreScan& cs)
{
    trace::ClockReplay st;
    st.have_sync = cs.saw_sync;
    st.sync_raw = cs.last_sync_raw;
    st.sync_tb = cs.last_sync_tb;
    // Only drops after the first-ever sync bump the epoch.
    st.epoch =
        static_cast<std::uint32_t>(cs.drops_total - cs.drops_before_sync);
    return st;
}

/** Replay records [first, first+count) from @p clocks, the clock
 *  state entering the range, writing core c's events to timeline[c]
 *  at indices [start[c], end[c]): the slice sized for them. */
void
emitRange(std::span<const trace::Record> records, std::uint64_t first,
          std::uint64_t count, std::uint32_t n_cores,
          trace::ClockReplay* clocks, const std::uint64_t* start,
          [[maybe_unused]] const std::uint64_t* end, Event* const* timeline)
{
    std::vector<std::uint64_t> next(start, start + n_cores);
    for (std::uint64_t i = first; i < first + count; ++i) {
        const trace::Record& rec = records[i];
        if (rec.core >= n_cores)
            continue; // accounted in phase 2 (or thrown, strict)
        trace::ClockReplay& clk = clocks[rec.core];
        std::uint64_t t = 0;
        if (!clk.feed(rec, t))
            continue; // accounted in phase 2 (or thrown, strict)
        // scan::placedEvents and ClockReplay::feed must agree on which
        // records place, or the slice over- or underflows.
        assert(next[rec.core] < end[rec.core]);
        timeline[rec.core][next[rec.core]++] =
            Event::placed(rec, t, clk.epoch);
    }
    for (std::uint32_t c = 0; c < n_cores; ++c)
        assert(next[c] == end[c]);
}

} // namespace

TraceModel
buildModelParallel(const trace::TraceData& trace, WorkerPool& pool,
                   bool lenient, std::uint64_t shard_records,
                   const CancelToken* cancel)
{
    return buildModelParallel(trace.header, trace.spe_programs,
                              trace.records, pool, lenient, shard_records,
                              cancel);
}

TraceModel
buildModelParallel(const trace::Header& header,
                   const std::vector<std::string>& spe_programs,
                   std::span<const trace::Record> records, WorkerPool& pool,
                   bool lenient, std::uint64_t shard_records,
                   const CancelToken* cancel)
{
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    const std::uint32_t n_cores = header.num_spes + 1;
    const std::uint64_t n = records.size();
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
        scans[s] = scan::scanRange(records, first,
                                   std::min(shard_records, n - first),
                                   n_cores);
    });

    // Phase 2: fold summaries left to right; record the exact clock
    // state entering each shard (entry[s * n_cores + c]) and where each
    // (shard, core) slice starts in its core's timeline (start[...]).
    std::vector<trace::ClockReplay> entry(n_shards * n_cores);
    std::vector<std::uint64_t> start(n_shards * n_cores);
    std::vector<std::uint64_t> core_events(n_cores, 0);
    scan::RangeScan prefix;
    prefix.cores.resize(n_cores);
    for (std::uint64_t s = 0; s < n_shards; ++s) {
        for (std::uint32_t c = 0; c < n_cores; ++c) {
            trace::ClockReplay& st = entry[s * n_cores + c];
            st = clockStateAfter(prefix.cores[c]);
            start[s * n_cores + c] = core_events[c];
            core_events[c] +=
                scan::placedEvents(scans[s].cores[c], st.have_sync);
        }
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

    // Phase 3: size every timeline once (resize value-initializes it,
    // one thread per core), then emit each shard over its slices; a
    // slice ends where the next shard's begins.
    std::vector<CoreTimeline> cores =
        TraceModel::emptyTimelines(header.num_spes, spe_programs);
    std::vector<Event*> timeline(n_cores);
    pool.parallelFor(n_cores, [&](std::uint64_t c) {
        cores[c].events.resize(core_events[c]);
        timeline[c] = cores[c].events.data();
    });
    pool.parallelFor(n_shards, [&](std::uint64_t s) {
        if (cancel)
            cancel->checkpoint("buildModelParallel/emit");
        const std::uint64_t first = s * shard_records;
        emitRange(records, first, std::min(shard_records, n - first),
                  n_cores, &entry[s * n_cores], &start[s * n_cores],
                  s + 1 < n_shards ? &start[(s + 1) * n_cores]
                                   : core_events.data(),
                  timeline.data());
    });

    // Phase 4: the serial builder's monotonic clamp, per core.
    pool.parallelFor(n_cores, [&](std::uint64_t c) {
        std::uint64_t prev = 0;
        for (Event& ev : cores[c].events) {
            if (ev.time_tb < prev)
                ev.time_tb = prev;
            prev = ev.time_tb;
        }
    });
    return TraceModel::assemble(header, std::move(cores), leniency);
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
