/**
 * @file
 * TA trace model: raw records -> per-core event timelines on one
 * coherent global clock.
 *
 * Trace records carry raw core-local 32-bit timestamps (SPU
 * decrementer values, which count DOWN and wrap; PPE timebase low 32
 * bits, which count up and wrap). Each core's stream contains sync
 * records pinning a raw value to the full 64-bit timebase. The model
 * walks each stream, tracking the most recent sync, and rebuilds the
 * global time of every event with modulo-2^32 deltas — correct across
 * wrap-arounds as long as successive syncs are less than 2^31 apart,
 * which PDT guarantees by emitting a sync at the head of every
 * flushed buffer.
 */

#ifndef CELL_TA_MODEL_H
#define CELL_TA_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "rt/hooks.h"
#include "trace/format.h"

namespace cell::ta {

/** One event placed on the global clock. */
struct Event
{
    std::uint64_t time_tb = 0; ///< global timebase ticks
    std::uint8_t kind = 0;     ///< rt::ApiOp value or tool record kind
    std::uint8_t phase = 0;
    std::uint16_t core = 0;    ///< 0 = PPE, 1 + i = SPE i
    /** Drop epoch: incremented at every kDropRecord on this core. Two
     *  events with different epochs have a recording gap between them —
     *  the tracer lost events there, so durations spanning them are
     *  suspect. */
    std::uint32_t epoch = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t d = 0;

    bool isToolRecord() const { return kind >= trace::kSyncRecord; }
    /** True if kind decodes to a known runtime operation. A trace from
     *  a newer tool may carry ops this analyzer does not know; they
     *  are skipped rather than misdecoded. */
    bool isKnownOp() const { return kind < rt::kNumApiOps; }
    rt::ApiOp op() const { return static_cast<rt::ApiOp>(kind); }
    bool isBegin() const { return phase == trace::kPhaseBegin; }

    /** @p rec placed at @p time_tb in drop epoch @p epoch — the last
     *  step of every builder's clock replay. */
    static Event placed(const trace::Record& rec, std::uint64_t time_tb,
                        std::uint32_t epoch)
    {
        return Event{time_tb, rec.kind, rec.phase, rec.core, epoch,
                     rec.a,   rec.b,    rec.c,     rec.d};
    }

    /** Field-wise equality (serial-vs-parallel differential tests). */
    bool operator==(const Event&) const = default;
};

/** All events of one core, time-ordered. */
struct CoreTimeline
{
    std::uint16_t core = 0;
    std::string label;        ///< "PPE" or "SPE3 (progname)"
    std::vector<Event> events;

    bool empty() const { return events.empty(); }
    std::uint64_t firstTime() const { return events.front().time_tb; }
    std::uint64_t lastTime() const { return events.back().time_tb; }
};

/** The reconstructed trace. */
class TraceModel
{
  public:
    /**
     * Build from a loaded trace. Strict (default): @throws
     * std::runtime_error if a core's stream has events before its
     * first sync record or a record names an impossible core. Lenient
     * (@p lenient true, for salvaged traces): such records are skipped
     * and counted in leniencySkipped() instead — a salvaged trace may
     * have lost the sync a stream's prefix depended on.
     */
    static TraceModel build(const trace::TraceData& trace,
                            bool lenient = false);

    /**
     * Assemble a model from built timelines (the last step of build(),
     * of the parallel builder's merge stage, and of windowAnalysis).
     * @p cores must already be in canonical form: indexed by core id,
     * labeled, and with per-core non-decreasing event times — assemble
     * only derives the global start/end span.
     */
    static TraceModel assemble(const trace::Header& header,
                               std::vector<CoreTimeline>&& cores,
                               std::uint64_t leniency_skipped);

    /** Empty, labeled timelines for @p trace — the canonical shells
     *  both the serial and parallel builders fill. */
    static std::vector<CoreTimeline>
    emptyTimelines(const trace::TraceData& trace);

    const trace::Header& header() const { return header_; }

    /** Records skipped by lenient mode (0 after a strict build). */
    std::uint64_t leniencySkipped() const { return leniency_skipped_; }

    /** Timelines indexed by core id (0 = PPE, 1 + i = SPE i). */
    const std::vector<CoreTimeline>& cores() const { return cores_; }
    const CoreTimeline& ppe() const { return cores_.at(0); }
    const CoreTimeline& spe(std::uint32_t i) const { return cores_.at(i + 1); }
    std::uint32_t numSpes() const { return header_.num_spes; }

    /** Earliest / latest event time across all cores (timebase ticks). */
    std::uint64_t startTb() const { return start_tb_; }
    std::uint64_t endTb() const { return end_tb_; }
    std::uint64_t spanTb() const { return end_tb_ - start_tb_; }

    /** Convert timebase ticks to nanoseconds / microseconds. */
    double tbToNs(std::uint64_t tb) const
    {
        return static_cast<double>(tb) * header_.timebase_divider * 1e9 /
               static_cast<double>(header_.core_hz);
    }
    double tbToUs(std::uint64_t tb) const { return tbToNs(tb) / 1e3; }

    /** Timebase ticks to core-clock cycles. */
    std::uint64_t tbToCycles(std::uint64_t tb) const
    {
        return tb * header_.timebase_divider;
    }

  private:
    trace::Header header_;
    std::vector<CoreTimeline> cores_;
    std::uint64_t start_tb_ = 0;
    std::uint64_t end_tb_ = 0;
    std::uint64_t leniency_skipped_ = 0;
};

} // namespace cell::ta

#endif // CELL_TA_MODEL_H
