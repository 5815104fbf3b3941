/**
 * @file
 * Cross-trace differential engine.
 *
 * The paper's workflow was iterative: trace, find the bottleneck, fix
 * it, trace again. This layer automates the "again" step at three
 * depths:
 *
 *  - the legacy side-by-side Comparison (per-SPE breakdown deltas,
 *    `ta compare`), kept for quick eyeballing;
 *  - an interval-level aligner + delta attributor (`ta diff`): match
 *    intervals of the same workload across two runs core-by-core and
 *    op-by-op (tolerating drop-gap tails and core remaps), and split
 *    each aligned pair's time delta into DMA wait / mailbox stall /
 *    DMA command (EIB transfer) / PPE call / compute buckets per core;
 *  - a rolling-window divergence localizer: scan fixed-width windows
 *    (ta::windowSignatures, built on the v2/v3 window machinery) and
 *    report the first window where the runs diverge beyond a
 *    threshold — the causal anchor ("it went wrong HERE first").
 *
 * Verified by the perturb-and-localize suites: generate A, surgically
 * delay B at a known tick (trace::delay), and the diff must localize
 * the first divergence to the window containing that tick and name the
 * perturbed bucket. diff(A, A) is empty and diff is antisymmetric
 * (properties P12/P12a/P12b). See docs/DIFF.md.
 */

#ifndef CELL_TA_COMPARE_H
#define CELL_TA_COMPARE_H

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "ta/analyzer.h"
#include "ta/cancel.h"

namespace cell::ta {

/** Per-SPE deltas between two analyses (B minus A), timebase ticks. */
struct SpuDelta
{
    std::uint32_t spe = 0;
    bool ran_in_both = false;
    std::int64_t run_tb = 0;
    std::int64_t busy_tb = 0;
    std::int64_t dma_wait_tb = 0;
    std::int64_t mbox_wait_tb = 0;
    std::int64_t signal_wait_tb = 0;
};

/** The comparison of two analyses. */
struct Comparison
{
    std::vector<SpuDelta> spu;
    /** Span ratio: B / A (< 1 means B is faster). */
    double span_ratio = 1.0;
    /** Record-count ratio: B / A. */
    double records_ratio = 1.0;

    static Comparison build(const Analysis& a, const Analysis& b);
};

/** Print a human-readable comparison (B relative to A). */
void printComparison(std::ostream& os, const Analysis& a, const Analysis& b);

/** One line per core: "core 3: SPE2 (triad_spu)". The diagnostic `ta
 *  compare` / `ta diff` print when two traces' core maps disagree. */
std::string coreMapSummary(const Analysis& a);

/** Non-empty human-readable diagnostic iff the two analyses disagree
 *  on the core count — the misaligned-table case `ta compare` must
 *  refuse (exit 1) instead of silently truncating. */
std::string coreMapMismatch(const Analysis& a, const Analysis& b);

/** Attribution buckets the differential engine splits deltas into.
 *  The first five mirror the interval stall classes; Compute is the
 *  residual of the Run delta not explained by them. */
enum class DiffBucket : std::uint8_t
{
    DmaWait,    ///< tag-status waits
    MboxWait,   ///< blocking mailbox accesses
    SignalWait, ///< blocking signal reads
    DmaCmd,     ///< MFC command enqueue (EIB transfer issue)
    PpeCall,    ///< PPE-side runtime calls
    Compute,    ///< run-time delta not explained by the stalls above
};
constexpr std::size_t kNumDiffBuckets =
    static_cast<std::size_t>(DiffBucket::Compute) + 1;

const char* diffBucketName(DiffBucket b);

/** Aligned core pair with its matched-interval delta attribution.
 *  All deltas are B minus A in timebase ticks. */
struct CoreDelta
{
    int core_a = -1; ///< core id in A, -1 = only present in B
    int core_b = -1; ///< core id in B, -1 = only present in A
    std::string label_a;
    std::string label_b;
    /** Aligned interval pairs (k-th vs k-th of each op, start order). */
    std::uint64_t matched = 0;
    /** Tail intervals with no partner (drop-gap / divergence slack). */
    std::uint64_t unmatched_a = 0;
    std::uint64_t unmatched_b = 0;
    std::uint64_t unmatched_tb_a = 0; ///< their summed durations
    std::uint64_t unmatched_tb_b = 0;
    /** Σ duration deltas of matched Run pairs. */
    std::int64_t run_tb = 0;
    /** Per-bucket delta; [Compute] = run_tb minus the others when the
     *  core has matched Run pairs, else 0. */
    std::array<std::int64_t, kNumDiffBuckets> bucket_tb{};
};

/** One rolling window of the divergence scan. */
struct DiffWindow
{
    std::uint64_t index = 0;
    std::uint64_t from_tb = 0;
    std::uint64_t to_tb = 0; ///< exclusive
    /** Divergence magnitude: Σ over aligned cores of the signature
     *  difference (occupancy + event-offset + count terms), ticks. */
    std::uint64_t score = 0;
};

/** Knobs for diffAnalyses. */
struct DiffOptions
{
    /** Rolling-window width in ticks; 0 = max(span)/64 (min 1). */
    std::uint64_t window = 0;
    /** A window diverges when its score exceeds this (default: any
     *  difference at all). */
    std::uint64_t threshold = 0;
};

/** The full differential of two analyses (B relative to A). */
struct DiffResult
{
    std::uint64_t records_a = 0;
    std::uint64_t records_b = 0;
    std::uint64_t start_a = 0;
    std::uint64_t start_b = 0;
    std::uint64_t span_a = 0;
    std::uint64_t span_b = 0;
    bool salvaged_a = false; ///< side was salvage-read (diffFiles)
    bool salvaged_b = false;

    /** Aligned pairs first (A order), then A-only, then B-only. */
    std::vector<CoreDelta> cores;

    std::uint64_t window_tb = 0;    ///< effective window width
    std::uint64_t threshold_tb = 0;
    std::uint64_t windows_total = 0;
    std::uint64_t windows_diverged = 0;
    bool diverged = false;
    DiffWindow first; ///< first divergent window; valid iff diverged

    /** Bucket with the largest absolute total delta across cores;
     *  have_mover is false when every bucket total is zero. */
    bool have_mover = false;
    DiffBucket mover = DiffBucket::Compute;
    std::int64_t mover_tb = 0;
};

/** Diff two in-memory analyses. @throws std::invalid_argument if the
 *  derived window count would be absurd (tiny --window over a huge
 *  span); @throws std::runtime_error never otherwise. */
DiffResult diffAnalyses(const Analysis& a, const Analysis& b,
                        const DiffOptions& opt = {});

/** Knobs for diffFiles: the analysis fields as for analyzeFile, per
 *  side (`salvage` salvage-reads both sides; `cancel` carries the
 *  per-pair deadlines of `ta diff-corpus`), plus the diff's own.
 *  `report` is not used: each side's salvage summary lands in
 *  DiffFileOutcome::note_a / note_b. */
struct DiffFileOptions : AnalyzeOptions
{
    DiffOptions diff;
    /** Strict read failed -> retry that side in salvage mode (the
     *  serve path's degradation contract), noting what was lost. */
    bool auto_downgrade = false;
};

/** diffFiles plus what degradation had to be applied per side. */
struct DiffFileOutcome
{
    DiffResult result;
    /** Salvage summaries, empty when the side read cleanly. */
    std::string note_a;
    std::string note_b;
};

/** Load (parallel, optionally salvaging) and diff two trace files. */
DiffFileOutcome diffFiles(const std::string& path_a,
                          const std::string& path_b,
                          const DiffFileOptions& opt = {});

/** Deterministic textual report (B relative to A), ticks throughout —
 *  the byte-compare artifact of the diff differential tests. */
std::string diffReport(const DiffResult& r);

/** Deterministic JSON rendering (stable key order, integers only) —
 *  `ta diff --json` and the committed golden diff digest. */
std::string diffJson(const DiffResult& r);

} // namespace cell::ta

#endif // CELL_TA_COMPARE_H
