/**
 * @file
 * Interval extraction: Begin/End event pairs -> typed intervals.
 *
 * The analyzer's unit of reasoning is the interval: an SPU run span, a
 * DMA command enqueue, a tag wait, a blocking mailbox access. Within a
 * core the instrumented runtime is sequential, so Begin/End pairs of
 * the same operation cannot nest and matching is a one-slot-per-op
 * affair; unterminated Begins (program killed mid-call) are closed at
 * the trace end and flagged.
 */

#ifndef CELL_TA_INTERVALS_H
#define CELL_TA_INTERVALS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ta/model.h"
#include "trace/surgery.h"

namespace cell::ta {

/** Classification of an interval for stall accounting. */
enum class IntervalClass : std::uint8_t
{
    Run,         ///< SPU program lifetime (SpuStart .. SpuStop)
    DmaCommand,  ///< MFC command enqueue (incl. queue back-pressure)
    DmaWait,     ///< tag-status wait
    MailboxWait, ///< blocking mailbox read/write
    SignalWait,  ///< blocking signal read
    PpeCall,     ///< PPE-side runtime call (mbox, proxy, join, ...)
    Other,
};

constexpr std::size_t kNumIntervalClasses =
    static_cast<std::size_t>(IntervalClass::Other) + 1;

const char* intervalClassName(IntervalClass c);

/** A matched Begin/End pair. */
struct Interval
{
    IntervalClass cls = IntervalClass::Other;
    rt::ApiOp op = rt::ApiOp::SpuUserEvent;
    std::uint16_t core = 0;
    std::uint64_t start_tb = 0;
    std::uint64_t end_tb = 0;
    /** Payload of the Begin event (LS/EA/size/tag for DMA, mask for
     *  waits, value for mailboxes). */
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t d = 0;
    /** Payload b of the End event (completed mask / read value). */
    std::uint64_t end_b = 0;
    /** True if no End was found (closed at trace end). */
    bool truncated = false;
    /** True if a recording gap (drop marker) falls between Begin and
     *  End: events were lost inside this interval, so its duration may
     *  include unobserved activity. */
    bool gap = false;

    std::uint64_t duration() const { return end_tb - start_tb; }

    /** Field-wise equality (serial-vs-parallel differential tests). */
    bool operator==(const Interval&) const = default;
};

/** Intervals extracted from one trace, grouped per core. */
struct IntervalSet
{
    /** intervals[core] sorted by start time. */
    std::vector<std::vector<Interval>> per_core;

    /** Extract from a model. */
    static IntervalSet build(const TraceModel& model);

    /** All intervals of one class on one core. */
    std::vector<Interval> select(std::uint16_t core, IntervalClass cls) const;

    /** The Run interval of SPE @p index, if present. */
    const Interval* spuRun(std::uint32_t spe_index) const;
};

/** Stall classification for one operation, or Other. */
IntervalClass classifyOp(rt::ApiOp op);

/**
 * The Begin/End matching rules for one core's event stream: the one
 * matcher behind both the full build (buildCoreIntervals) and the
 * windowed query replay (queryWindowFile).
 *
 * The instrumented runtime is sequential per core, so each op has one
 * pending slot, and SpuStart opens the run slot that SpuStop closes.
 * A Begin classified Other has no End and emits a zero-length interval
 * at once. An End with no pending Begin emits a zero-length, truncated
 * interval. Whatever is still pending at finish() closes at the core's
 * last event time, truncated.
 *
 * A matcher that resumes mid-stream (a windowed query starting at an
 * index entry) is seeded with phantom pendings: ops whose Begin lies
 * before the resume point. A phantom's End is consumed without
 * emitting, since its interval started before the resume point, and a
 * real Begin replaces the phantom.
 *
 * Output order: every interval gets its slot in the output when it
 * starts — at its Begin, at SpuStart for the run, at the event itself
 * for the zero-length ones — and is filled in when it ends. Fed events
 * in time order, slots are therefore already in start order. At equal
 * start ticks the interval that ended first comes first (emission
 * order, the order a stable sort by start of End-ordered output gives),
 * so take() insertion-sorts on (start, emission sequence), which moves
 * only runs of equal starts.
 * A slot that never closes — a Begin replaced by a second Begin of its
 * op, or a pending left open when a window replay stops early — emits
 * nothing and is dropped.
 */
class IntervalMatcher
{
  public:
    /** Match @p core's stream. @p phantom_ops (bit k = op k) and
     *  @p phantom_run seed a mid-stream resume; left at zero, matching
     *  starts at the stream's first event. */
    explicit IntervalMatcher(std::uint16_t core,
                             std::uint64_t phantom_ops = 0,
                             bool phantom_run = false);

    /** Room for @p n intervals. Each event opens at most one, so a
     *  stream's event count bounds its intervals. */
    void reserve(std::size_t n);

    /** Feed the core's next event, placed and clamped. */
    void feed(const Event& ev);

    /** Close every pending Begin at @p last_time, the core's last
     *  event time. */
    void finish(std::uint64_t last_time);

    /** True if a real pending Begin (or the run start) lies in
     *  [from, to): an interval starting there is yet to be emitted. */
    bool pendingIn(std::uint64_t from, std::uint64_t to) const;

    /** The emitted intervals sorted by start time: at equal starts,
     *  emission order (End order) wins. Linear for a feed in time
     *  order; one out of order costs O(inversions) more. */
    std::vector<Interval> take();

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};
    static constexpr std::uint64_t kOpen = ~std::uint64_t{0};

    /** An interval started but not yet ended: its slot in out_ and the
     *  drop epoch of its start. */
    struct Pending
    {
        std::size_t slot = kNoSlot;
        std::uint32_t epoch = 0;
    };

    /** Append the slot of an interval starting (and, until filled in,
     *  ending) at @p ev. */
    std::size_t open(IntervalClass cls, rt::ApiOp op, const Event& ev);
    /** Record that @p slot's interval is complete: it is emitted. */
    void emit(std::size_t slot) { sequence_[slot] = next_sequence_++; }

    std::uint16_t core_;
    std::uint64_t phantom_ops_;
    bool phantom_run_;
    std::array<Pending, rt::kNumApiOps> pending_{};
    Pending run_{};
    /** Epoch of the newest event seen (tool records included):
     *  intervals closed by finish() compare against it. */
    std::uint32_t final_epoch_ = 0;
    /** Intervals in slot (start) order, and per slot its emission
     *  sequence, or kOpen while it has not been emitted. */
    std::vector<Interval> out_;
    std::vector<std::uint64_t> sequence_;
    std::uint64_t next_sequence_ = 0;
};

/** Extract one core's intervals, sorted by start time. Cores are
 *  independent — IntervalSet::build calls this per core, and the
 *  parallel analyzer runs the same function on all cores at once. */
std::vector<Interval> buildCoreIntervals(const CoreTimeline& tl);

/** Ops the matcher keeps a pending Begin for: everything classified
 *  away from Other (Other Begins emit immediately and SpuStart /
 *  SpuStop use the dedicated run slot). Bit k = op k. */
std::uint64_t pendableOpsMask();

/** The matcher's slot semantics packaged for trace surgery: the slice
 *  preamble (trace::slice) must re-open Begins that were pending at
 *  window entry, and this is the analyzer's word on which ones pend. */
trace::OpSemantics surgeryOpSemantics();

} // namespace cell::ta

#endif // CELL_TA_INTERVALS_H
