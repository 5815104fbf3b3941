/**
 * @file
 * TA facade: run the full analysis pipeline on a trace and print the
 * tool's textual views (summary, stall breakdown, DMA report, event
 * counts) or export machine-readable CSV.
 */

#ifndef CELL_TA_ANALYZER_H
#define CELL_TA_ANALYZER_H

#include <iosfwd>
#include <string>

#include "ta/cancel.h"
#include "ta/intervals.h"
#include "ta/model.h"
#include "ta/stats.h"
#include "trace/reader.h"

namespace cell::ta {

/** The complete analysis of one trace. */
struct Analysis
{
    TraceModel model;
    IntervalSet intervals;
    TraceStats stats;
};

/** How analyze() and analyzeFile() run. QueryOptions and
 *  DiffFileOptions extend it, so every front end takes the same
 *  fields. */
struct AnalyzeOptions
{
    /** Worker threads; 0 = hardware concurrency. 1 (the default) is
     *  the serial reference path, unless @p cancel is set. */
    unsigned threads = 1;
    /** The input may be damaged: analyzeFile() reads it with the
     *  salvage reader, and both analyze the records leniently — those
     *  that cannot be placed (sync lost, impossible core id) are
     *  skipped and counted in TraceModel::leniencySkipped() instead of
     *  failing the analysis. */
    bool salvage = false;
    /** Optional cooperative cancellation, polled at shard and core
     *  boundaries; a tripped token aborts the analysis with
     *  DeadlineExceeded. When set, threads == 1 runs the
     *  (output-identical) parallel pipeline on an inline pool rather
     *  than the serial path, so the checkpoints stay in play. */
    const CancelToken* cancel = nullptr;
    /** When salvage-reading, receives what the salvage reader had to
     *  skip. */
    trace::ReadReport* report = nullptr;
};

/**
 * Analyze an already-loaded trace: model building, interval matching
 * and statistics. The output is identical at every thread count; with
 * default options this is the serial reference every other path is
 * tested against.
 */
Analysis analyze(const trace::TraceData& trace,
                 const AnalyzeOptions& opt = {});

/**
 * Load a trace file and analyze it. Strict reads of a v1/v2/v3 file
 * shard it (trace::planShardsFile) and ingest the shards on the
 * analysis pool; a damaged or non-seekable file fails with a
 * diagnostic. Salvage reads are serial (resync needs the whole
 * stream); the recovered subset is then analyzed on the pool.
 */
Analysis analyzeFile(const std::string& path,
                     const AnalyzeOptions& opt = {});

/** The stderr lines `ta --salvage` prints for a salvage read: the
 *  report's summary and each note, each line prefixed "ta: ". Empty
 *  when the read found no damage. `ta serve` returns the same text as
 *  its warning. */
std::string salvageDiagnostics(const trace::ReadReport& report);

/** One-paragraph overview: span, per-core record counts, utilization. */
void printSummary(std::ostream& os, const Analysis& a);

/** Per-SPE time breakdown table (compute / dma / waits), percentages. */
void printStallBreakdown(std::ostream& os, const Analysis& a);

/** Per-SPE DMA statistics: commands, bytes, latency distribution. */
void printDmaReport(std::ostream& os, const Analysis& a);

/** Text-bar histogram of DMA latencies, aggregated over SPEs. */
void printDmaHistogram(std::ostream& os, const Analysis& a);

/** Per-op event count table. */
void printEventCounts(std::ostream& os, const Analysis& a);

/** Tracing self-observation: flushes, flush waits, record volume. */
void printTracingReport(std::ostream& os, const Analysis& a);

/** Per-core event-loss table: recorded vs dropped events, drop
 *  markers, gap-spanning intervals, loss percentage. Prints a single
 *  "no event loss" line when the trace is complete. */
void printLossReport(std::ostream& os, const Analysis& a);

/** CSV: one row per SPE with the breakdown columns. */
void exportBreakdownCsv(std::ostream& os, const Analysis& a);

/** CSV: one row per interval (core,class,op,start_us,dur_us). */
void exportIntervalsCsv(std::ostream& os, const Analysis& a);

/** CSV: one row per DMA command with its observed completion
 *  (spe,op,ls,ea,size,tag,issue_us,latency_us,observed). */
void exportDmaTransfersCsv(std::ostream& os, const Analysis& a);

/** Every textual view and CSV export concatenated into one string —
 *  the canonical byte-compare artifact for the serial-vs-parallel
 *  differential tests and the committed golden-trace digests. */
std::string fullReport(const Analysis& a);

/** FNV-1a 64-bit hash (golden-trace report digests). */
std::uint64_t fnv1a64(const std::string& data);

} // namespace cell::ta

#endif // CELL_TA_ANALYZER_H
