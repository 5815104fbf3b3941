/**
 * @file
 * Parallel trace analysis: a work-stealing worker pool plus a sharded,
 * three-phase TraceModel builder and per-core parallel interval /
 * statistics construction.
 *
 * Pipeline (docs/MODEL.md "Parallel analysis" has the full story):
 *
 *   1. SCAN (parallel)    — each shard (a contiguous record range) is
 *      scanned into a per-core summary: last sync seen, drop-marker
 *      counts split around the shard's first sync, records that
 *      precede any sync. The summary is a transfer function over the
 *      per-core clock state, independent of what came before.
 *   2. COMBINE (serial, O(shards x cores)) — summaries fold left to
 *      right into the exact clock state entering every shard. The
 *      fold is associative (property-tested), so any shard split of a
 *      trace yields the same states.
 *   3. EMIT (parallel)    — each shard replays the serial per-record
 *      loop from its incoming state, producing per-core event runs.
 *   4. MERGE (parallel per core) — runs concatenate in canonical
 *      (core, shard) order — shard order IS stream order, so per-core
 *      event order equals the serial builder's — then the same
 *      monotonic-clamp pass runs per core.
 *
 * Intervals and statistics then build per core in parallel, through
 * the very same per-core functions the serial path uses.
 *
 * analyze() and analyzeFile() (ta/analyzer.h) run this pipeline when
 * AnalyzeOptions asks for more than one thread or carries a cancel
 * token; the three builders below are its stages, exposed for callers
 * that time them separately or force a shard size.
 *
 * Determinism contract: for any trace, any thread count, and any
 * shard granularity, every structure this header produces is
 * IDENTICAL to the serial analyzer's — same events, intervals,
 * statistics, and byte-identical printed reports. Parallelism changes
 * wall-clock time, never output. The differential test harness
 * (tests/ta/test_parallel_diff.cc) enforces this on every workload,
 * salvaged, and fault-injected trace in the suite.
 */

#ifndef CELL_TA_PARALLEL_H
#define CELL_TA_PARALLEL_H

#include <cstdint>
#include <functional>
#include <vector>

#include "ta/analyzer.h"
#include "ta/cancel.h"
#include "util/worker_pool.h"

namespace cell::ta {

/**
 * The work-stealing pool now lives in util/worker_pool.h so the trace
 * layer (pipelined block decode) and the analysis layer share one
 * implementation; re-exported here so every existing ta::WorkerPool
 * call site keeps compiling unchanged.
 */
using util::WorkerPool;

/** Parallel equivalent of TraceModel::build — identical output.
 *  @p shard_records: records per shard; 0 derives one from the thread
 *  count. Small values are legal (tests use them to force many
 *  shards). @p cancel is polled per shard. */
TraceModel buildModelParallel(const trace::TraceData& trace,
                              WorkerPool& pool, bool lenient = false,
                              std::uint64_t shard_records = 0,
                              const CancelToken* cancel = nullptr);

/** Parallel equivalent of IntervalSet::build — identical output. */
IntervalSet buildIntervalsParallel(const TraceModel& model,
                                   WorkerPool& pool,
                                   const CancelToken* cancel = nullptr);

/** Parallel equivalent of TraceStats::build — identical output. */
TraceStats buildStatsParallel(const TraceModel& model,
                              const IntervalSet& ivs, WorkerPool& pool,
                              const CancelToken* cancel = nullptr);

/**
 * Internals of the scan/combine phases, exposed so property tests can
 * check the invariants the pipeline rests on (split-invariance and
 * associativity of combine). Not part of the stable API.
 */
namespace scan {

/** Per-core summary of one record range. */
struct CoreScan
{
    bool saw_sync = false;
    std::uint32_t last_sync_raw = 0;
    std::uint64_t last_sync_tb = 0;
    /** Drop markers in the range (all of them). */
    std::uint64_t drops_total = 0;
    /** Drop markers before the range's first sync record (==
     *  drops_total when the range has no sync). */
    std::uint64_t drops_before_sync = 0;
    /** This core's records before the range's first sync record. */
    std::uint64_t records_before_sync = 0;
    /** Absolute index of the first such record (strict diagnostics). */
    std::uint64_t first_presync_index = ~std::uint64_t{0};

    bool operator==(const CoreScan&) const = default;
};

/** Summary of one record range over all cores. */
struct RangeScan
{
    std::vector<CoreScan> cores;
    std::uint64_t bad_core_records = 0;
    std::uint64_t first_bad_core_index = ~std::uint64_t{0};

    bool operator==(const RangeScan&) const = default;
};

/** Scan records [first, first+count) of @p trace. */
RangeScan scanRange(const trace::TraceData& trace, std::uint64_t first,
                    std::uint64_t count, std::uint32_t n_cores);

/** Fold @p next (the range immediately after) into @p into.
 *  Associative: combine(combine(a,b),c) == combine(a,combine(b,c)). */
void combine(RangeScan& into, const RangeScan& next);

} // namespace scan

} // namespace cell::ta

#endif // CELL_TA_PARALLEL_H
