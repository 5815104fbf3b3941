/**
 * @file
 * Global-time reconstruction.
 */

#include "ta/model.h"

#include <algorithm>
#include <stdexcept>

#include "ta/parallel.h"
#include "trace/replay.h"

namespace cell::ta {

std::vector<CoreTimeline>
TraceModel::emptyTimelines(std::uint32_t num_spes,
                           const std::vector<std::string>& spe_programs)
{
    std::vector<CoreTimeline> cores(num_spes + 1);
    cores[0].core = 0;
    cores[0].label = "PPE";
    for (std::uint32_t i = 0; i < num_spes; ++i) {
        auto& tl = cores[i + 1];
        tl.core = static_cast<std::uint16_t>(i + 1);
        tl.label = "SPE" + std::to_string(i);
        if (i < spe_programs.size() && !spe_programs[i].empty())
            tl.label += " (" + spe_programs[i] + ")";
    }
    return cores;
}

TraceModel
TraceModel::build(const trace::TraceData& trace, bool lenient)
{
    const std::uint32_t n_cores = trace.header.num_spes + 1;
    std::vector<CoreTimeline> cores =
        emptyTimelines(trace.header.num_spes, trace.spe_programs);

    // Count each core's placeable records first, by the count the
    // parallel builder sizes its slices by, so every timeline is
    // allocated once, at its exact size.
    const scan::RangeScan whole =
        scan::scanRange(trace.records, 0, trace.records.size(), n_cores);
    for (std::uint32_t c = 0; c < n_cores; ++c)
        cores[c].events.reserve(
            scan::placedEvents(whole.cores[c], /*have_sync=*/false));

    std::vector<trace::ClockReplay> clocks(n_cores);
    std::uint64_t skipped = 0;

    for (const trace::Record& rec : trace.records) {
        if (rec.core >= n_cores) {
            if (lenient) {
                skipped += 1;
                continue;
            }
            throw std::runtime_error("TraceModel: record with bad core id");
        }
        trace::ClockReplay& clk = clocks[rec.core];
        std::uint64_t t = 0;
        if (!clk.feed(rec, t)) {
            // A salvaged trace may have lost the sync record this
            // stream prefix depended on; without it the events cannot
            // be placed on the global clock.
            if (lenient) {
                skipped += 1;
                continue;
            }
            throw std::runtime_error(
                "TraceModel: event before first sync record on core " +
                std::to_string(rec.core));
        }
        cores[rec.core].events.push_back(Event::placed(rec, t, clk.epoch));
    }

    // Per-core streams are recorded in order; enforce monotonic times
    // (clock reconstruction can produce equal stamps for back-to-back
    // events within one timebase tick).
    for (auto& tl : cores) {
        std::uint64_t prev = 0;
        for (auto& ev : tl.events) {
            if (ev.time_tb < prev)
                ev.time_tb = prev;
            prev = ev.time_tb;
        }
    }
    return assemble(trace.header, std::move(cores), skipped);
}

TraceModel
TraceModel::assemble(const trace::Header& header,
                     std::vector<CoreTimeline>&& cores,
                     std::uint64_t leniency_skipped)
{
    TraceModel model;
    model.header_ = header;
    model.cores_ = std::move(cores);
    model.leniency_skipped_ = leniency_skipped;

    bool any = false;
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (const auto& tl : model.cores_) {
        if (tl.empty())
            continue;
        any = true;
        lo = std::min(lo, tl.firstTime());
        hi = std::max(hi, tl.lastTime());
    }
    model.start_tb_ = any ? lo : 0;
    model.end_tb_ = any ? hi : 0;
    return model;
}

} // namespace cell::ta
