/**
 * @file
 * Per-core clock replay: the record-level state machine that places a
 * raw trace record on the reconstructed global timebase, and its
 * inverse, rawTimestamp().
 *
 * This is the one copy of the replay semantics. TraceModel::build, the
 * parallel model builder's emit phase, the windowed query replay, the
 * index and v3 block-seed builders and trace surgery all place records
 * through it: sync records update the raw->timebase mapping and are
 * themselves placed, records before a core's first sync cannot be
 * placed, and drop markers bump the core's gap epoch before placement.
 *
 * Placement does NOT apply the monotonic clamp (equal-or-earlier
 * stamps from back-to-back events inside one timebase tick); the
 * caller folds the clamp over placed times, seeded with the largest
 * time already seen on the core.
 */

#ifndef CELL_TRACE_REPLAY_H
#define CELL_TRACE_REPLAY_H

#include <cstdint>

#include "trace/format.h"

namespace cell::trace {

/** Clock-reconstruction state of one core's record stream. */
struct ClockReplay
{
    bool have_sync = false;
    std::uint32_t sync_raw = 0;
    std::uint64_t sync_tb = 0;
    /** Drop epoch: bumped at every placeable kDropRecord. */
    std::uint32_t epoch = 0;

    /**
     * Feed the next record of this core's stream. Returns true and
     * sets @p time_tb (unclamped) when the record can be placed on the
     * global clock; false when it precedes the core's first sync
     * record (strict analysis throws on those, lenient skips them).
     */
    bool feed(const Record& rec, std::uint64_t& time_tb)
    {
        if (rec.kind == kSyncRecord) {
            have_sync = true;
            sync_raw = static_cast<std::uint32_t>(rec.a);
            sync_tb = rec.b;
        }
        if (!have_sync)
            return false;
        if (rec.kind == kDropRecord)
            epoch += 1; // the gap ends here; what follows is new

        // Raw 32-bit delta since the sync point: the SPU decrementer
        // counts down, the PPE timebase counts up; modulo-2^32
        // subtraction handles wrap in both directions.
        const std::uint32_t delta = rec.core != 0
                                        ? sync_raw - rec.timestamp
                                        : rec.timestamp - sync_raw;
        time_tb = sync_tb + delta;
        return true;
    }
};

/** The inverse of placement: the raw timestamp that places at
 *  `sync_tb + delta` on @p core under a mapping whose sync record read
 *  @p sync_raw. SPE decrementers count down, the PPE timebase up. */
inline std::uint32_t
rawTimestamp(std::uint16_t core, std::uint32_t sync_raw, std::uint32_t delta)
{
    return core != 0 ? sync_raw - delta : sync_raw + delta;
}

} // namespace cell::trace

#endif // CELL_TRACE_REPLAY_H
