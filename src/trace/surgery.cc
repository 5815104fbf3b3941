/**
 * @file
 * Trace surgery implementation.
 *
 * All three ops walk the record stream with the same per-core replay
 * the analyzer uses (ClockReplay + the monotonic clamp folded in
 * stream order), so placement decisions here agree with
 * TraceModel::build record-for-record. The differential suites
 * (tests/ta/test_surgery_diff.cc, property tests P11*) hold this file
 * to byte-identical analyzer output.
 */

#include "trace/surgery.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "trace/format.h"
#include "trace/replay.h"

namespace cell::trace {
namespace {

constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
constexpr std::uint64_t kU32Max = 0xFFFFFFFFull;

/**
 * A record the lenient analyzer provably skips and the salvage reader
 * keeps: core 0, ordinary kind, placed at the absolute front of the
 * stream where no core-0 sync precedes it. One is emitted per record
 * the rewrite had to drop (pre-sync, bad core id), so the output's
 * `leniency skipped` count matches the original's.
 */
Record
fillerRecord()
{
    Record r{};
    r.kind = 0;
    r.phase = kPhaseBegin;
    r.core = 0;
    r.timestamp = 0;
    return r;
}

/** One pending Begin (or the SpuStart run slot) of the analyzer's
 *  matcher, tracked with its placed clamped time. */
struct Pending
{
    bool occ = false;
    std::uint64_t t = 0;
    Record rec{};
};

struct MatcherShadow
{
    std::array<Pending, 64> pend{};
    Pending run;

    /** Mirror of IntervalMatcher's slot updates (ta/intervals.cc):
     *  SpuStart/SpuStop use the run slot regardless of phase, Begins
     *  of pendable ops occupy (and overwrite) their op slot, any other
     *  known-op phase clears the slot. */
    void feed(const OpSemantics& sem, const Record& rec, std::uint64_t t)
    {
        if (rec.kind >= sem.num_known_ops)
            return; // tool record or unknown op: never matched
        if (rec.kind == sem.spu_start) {
            run = Pending{true, t, rec};
            return;
        }
        if (rec.kind == sem.spu_stop) {
            run.occ = false;
            return;
        }
        if (rec.phase == kPhaseBegin) {
            if ((sem.pendable_mask >> rec.kind) & 1)
                pend[rec.kind] = Pending{true, t, rec};
        } else {
            pend[rec.kind].occ = false;
        }
    }

    /** True if a pending began inside [from, to): its interval is a
     *  window member that only materializes later. Mirrors
     *  IntervalMatcher::pendingIn (ta/intervals.h). */
    bool windowPending(std::uint64_t from, std::uint64_t to) const
    {
        for (const Pending& p : pend) {
            if (p.occ && p.t >= from && p.t < to)
                return true;
        }
        return run.occ && run.t >= from && run.t < to;
    }
};

} // namespace

TraceData
slice(const TraceData& data, std::uint64_t from, std::uint64_t to,
      const OpSemantics& sem, const SliceOptions& opt)
{
    if (from > to)
        throw std::invalid_argument("slice: window start exceeds end");
    const std::uint32_t n_cores = data.header.num_spes + 1;

    struct CoreState
    {
        ClockReplay clk;
        std::uint64_t prev = 0;       ///< monotonic clamp carry
        std::uint64_t pre_placed = 0; ///< placed records before entry
        bool entered = false;
        bool done = false;
        std::vector<Record> pre_drops; ///< placed drops before entry
        MatcherShadow match;
    };
    std::vector<CoreState> cores(n_cores);

    std::uint64_t fillers = 0;
    std::vector<Record> preamble; ///< synthetic seeds, all placed < from
    std::vector<Record> kept;

    // Reconstruct the seed state a core carries into the window as a
    // synthetic record preamble: a sync that restores both the clock
    // mapping and the clamp carry, one drop per pre-window drop (the
    // absolute epoch), and a Begin per occupied pending slot (so an
    // in-window End still matches a Begin that started before the
    // window — on both sides the interval starts < from and is
    // filtered). Everything places at the clamp carry, below `from`.
    auto emitPreamble = [&preamble](std::uint16_t core, const CoreState& s,
                                    std::uint32_t sync_raw,
                                    std::uint64_t sync_tb) {
        if (s.pre_placed == 0)
            return; // first placed record is the entry: no seed state
        const std::uint64_t carry = s.prev;
        const std::uint64_t need = carry - sync_tb;
        if (need <= kU32Max) {
            Record sy{};
            sy.kind = kSyncRecord;
            sy.core = core;
            sy.a = sync_raw;
            sy.b = sync_tb;
            sy.timestamp = rawTimestamp(core, sync_raw,
                                        static_cast<std::uint32_t>(need));
            preamble.push_back(sy);
        } else {
            // The carry is out of 32-bit delta range of the real sync:
            // seed the clamp with a self-mapped sync at the carry,
            // then restore the real mapping (placed at sync_tb, the
            // clamp lifts it back to the carry).
            Record s1{};
            s1.kind = kSyncRecord;
            s1.core = core;
            s1.a = static_cast<std::uint32_t>(carry);
            s1.b = carry;
            s1.timestamp = static_cast<std::uint32_t>(carry);
            preamble.push_back(s1);
            Record s2{};
            s2.kind = kSyncRecord;
            s2.core = core;
            s2.a = sync_raw;
            s2.b = sync_tb;
            s2.timestamp = sync_raw;
            preamble.push_back(s2);
        }
        for (Record d : s.pre_drops) {
            d.timestamp = sync_raw; // places at sync_tb, clamped under from
            preamble.push_back(d);
        }
        for (const Pending& p : s.match.pend) {
            if (!p.occ)
                continue;
            Record b = p.rec;
            b.timestamp = sync_raw;
            preamble.push_back(b);
        }
        if (s.match.run.occ) {
            Record b = s.match.run.rec;
            b.timestamp = sync_raw;
            preamble.push_back(b);
        }
    };

    for (const Record& rec : data.records) {
        if (rec.core >= n_cores) {
            if (!opt.lenient)
                throw std::runtime_error("slice: record with bad core id");
            ++fillers;
            continue;
        }
        CoreState& s = cores[rec.core];
        if (s.done)
            continue;

        // Snapshot the mapping first: if the entry record is itself a
        // sync, the preamble must encode against the mapping in effect
        // *before* it.
        const std::uint32_t raw0 = s.clk.sync_raw;
        const std::uint64_t tb0 = s.clk.sync_tb;

        std::uint64_t t = 0;
        if (!s.clk.feed(rec, t)) {
            if (!opt.lenient)
                throw std::runtime_error(
                    "slice: event before first sync record on core " +
                    std::to_string(rec.core));
            ++fillers;
            continue;
        }
        if (t < s.prev)
            t = s.prev;

        if (!s.entered) {
            if (t < from) {
                s.prev = t;
                s.pre_placed += 1;
                if (rec.kind == kDropRecord)
                    s.pre_drops.push_back(rec);
                s.match.feed(sem, rec, t);
                continue;
            }
            emitPreamble(rec.core, s, raw0, tb0);
            s.entered = true;
        }
        s.prev = t;
        kept.push_back(rec);
        s.match.feed(sem, rec, t);
        // Past the window with nothing window-started still open:
        // every later event and interval start on this core is >= to.
        // Mirrors the windowed-query early stop (ta/query.cc).
        if (t >= to && !s.match.windowPending(from, to))
            s.done = true;
    }

    TraceData out;
    out.header = data.header;
    out.spe_programs = data.spe_programs;
    out.spe_programs.resize(
        std::max<std::size_t>(out.spe_programs.size(),
                              data.header.num_spes));
    out.records.reserve(fillers + preamble.size() + kept.size());
    for (std::uint64_t i = 0; i < fillers; ++i)
        out.records.push_back(fillerRecord());
    out.records.insert(out.records.end(), preamble.begin(), preamble.end());
    out.records.insert(out.records.end(), kept.begin(), kept.end());
    out.header.record_count = out.records.size();
    return out;
}

TraceData
splice(const std::vector<TraceData>& inputs, const SpliceOptions& opt)
{
    if (inputs.empty())
        throw std::invalid_argument("splice: no inputs");
    if (!opt.cuts.empty() && opt.cuts.size() + 1 != inputs.size())
        throw std::invalid_argument(
            "splice: need exactly one cut per junction (inputs - 1)");
    for (std::size_t i = 1; i < opt.cuts.size(); ++i) {
        if (opt.cuts[i] < opt.cuts[i - 1])
            throw std::invalid_argument("splice: cuts must be ascending");
    }
    if (!opt.offsets.empty() && opt.offsets.size() != inputs.size())
        throw std::invalid_argument(
            "splice: offsets must match input count");
    if (opt.align && !opt.offsets.empty())
        throw std::invalid_argument(
            "splice: --align and explicit offsets are exclusive");

    const Header& h0 = inputs[0].header;
    for (const TraceData& in : inputs) {
        if (in.header.core_hz != h0.core_hz ||
            in.header.timebase_divider != h0.timebase_divider)
            throw std::invalid_argument(
                "splice: inputs disagree on clock rate");
        if (!opt.blades && in.header.num_spes != h0.num_spes)
            throw std::invalid_argument(
                "splice: inputs disagree on SPE count (use blades mode)");
    }

    std::vector<std::uint64_t> offsets(inputs.size(), 0);
    if (!opt.offsets.empty())
        offsets = opt.offsets;
    if (opt.align) {
        // Shift every input so all recordings start together at the
        // latest input's start.
        std::vector<std::uint64_t> start(inputs.size(), kNoLimit);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            std::vector<ClockReplay> clk(inputs[i].header.num_spes + 1);
            for (const Record& rec : inputs[i].records) {
                if (rec.core >= clk.size())
                    continue;
                std::uint64_t t = 0;
                if (clk[rec.core].feed(rec, t))
                    start[i] = std::min(start[i], t);
            }
        }
        std::uint64_t ref = 0;
        for (const std::uint64_t s : start) {
            if (s != kNoLimit)
                ref = std::max(ref, s);
        }
        for (std::size_t i = 0; i < inputs.size(); ++i)
            offsets[i] = start[i] == kNoLimit ? 0 : ref - start[i];
    }

    TraceData out;
    out.header = h0;

    // Blades mode: input i's cores move to a disjoint range starting
    // at base[i]; later inputs' PPE streams become SPE-numbered cores.
    std::vector<std::uint16_t> base(inputs.size(), 0);
    if (opt.blades) {
        std::uint32_t spes = inputs[0].header.num_spes;
        for (std::size_t i = 1; i < inputs.size(); ++i) {
            base[i] = static_cast<std::uint16_t>(spes + 1);
            spes += inputs[i].header.num_spes + 1;
        }
        out.header.num_spes = spes;
        out.spe_programs.resize(spes);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const auto& progs = inputs[i].spe_programs;
            const std::uint32_t n = inputs[i].header.num_spes;
            if (i == 0) {
                for (std::uint32_t j = 0; j < n; ++j)
                    out.spe_programs[j] = j < progs.size() ? progs[j] : "";
                continue;
            }
            const std::string tag = "b" + std::to_string(i) + ":";
            out.spe_programs[base[i] - 1u] = tag + "PPE";
            for (std::uint32_t j = 0; j < n; ++j) {
                out.spe_programs[base[i] + j] =
                    tag + (j < progs.size() && !progs[j].empty()
                               ? progs[j]
                               : "spe" + std::to_string(j));
            }
        }
    } else {
        out.spe_programs = inputs[0].spe_programs;
        out.spe_programs.resize(std::max<std::size_t>(
            out.spe_programs.size(), h0.num_spes));
    }

    std::uint64_t fillers = 0;
    std::vector<Record> body;

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const TraceData& in = inputs[i];
        const std::uint32_t n_cores = in.header.num_spes + 1;
        const std::uint64_t lo =
            !opt.cuts.empty() && i > 0 ? opt.cuts[i - 1] : 0;
        const std::uint64_t hi = !opt.cuts.empty() && i + 1 < inputs.size()
                                     ? opt.cuts[i]
                                     : kNoLimit;

        std::vector<ClockReplay> clk(n_cores);
        std::vector<std::uint64_t> prev(n_cores, 0);
        std::uint64_t dropped = 0; ///< this input's lenient skips

        for (const Record& rec : in.records) {
            if (rec.core >= n_cores) {
                if (!opt.lenient)
                    throw std::runtime_error(
                        "splice: record with bad core id in input " +
                        std::to_string(i));
                ++dropped;
                continue;
            }
            std::uint64_t t = 0;
            const bool placed = clk[rec.core].feed(rec, t);
            if (placed) {
                t = std::max(t, prev[rec.core]);
                prev[rec.core] = t;
            }

            if (!placed) {
                if (opt.blades) {
                    // Keep verbatim: it stays pre-sync on the remapped
                    // core and the analyzer skips it there too.
                    Record r = rec;
                    r.core = static_cast<std::uint16_t>(base[i] + rec.core);
                    body.push_back(r);
                    continue;
                }
                if (!opt.lenient)
                    throw std::runtime_error(
                        "splice: event before first sync record in input " +
                        std::to_string(i));
                ++dropped;
                continue;
            }
            if (t < lo || t >= hi)
                continue; // outside this input's band

            Record r = rec;
            if (opt.blades) {
                r.core = static_cast<std::uint16_t>(base[i] + rec.core);
                if (i > 0 && rec.core == 0) {
                    // The remapped PPE stream now decodes as a
                    // down-counter; reflect the raw stamp around the
                    // sync point so the delta is preserved.
                    r.timestamp = 2 * clk[0].sync_raw - rec.timestamp;
                }
            }
            if (r.kind == kSyncRecord)
                r.b += offsets[i];
            body.push_back(r);
        }
        // Each input of a band splice typically carries the whole
        // original's skip accounting (slices replicate it), so the
        // shared-core merge takes the max, not the sum; disjoint-core
        // blades add up.
        if (opt.blades)
            fillers += dropped;
        else
            fillers = std::max(fillers, dropped);
    }

    out.records.reserve(fillers + body.size());
    for (std::uint64_t i = 0; i < fillers; ++i)
        out.records.push_back(fillerRecord());
    out.records.insert(out.records.end(), body.begin(), body.end());
    out.header.record_count = out.records.size();
    return out;
}

TraceData
filter(const TraceData& data, const FilterOptions& opt)
{
    const std::uint32_t n_cores = data.header.num_spes + 1;
    std::vector<char> keep_core(n_cores, opt.cores.empty() ? 1 : 0);
    for (const std::uint16_t c : opt.cores) {
        if (c >= n_cores)
            throw std::invalid_argument(
                "filter: core id " + std::to_string(c) +
                " out of range (trace has cores 0.." +
                std::to_string(n_cores - 1) + ")");
        keep_core[c] = 1;
    }

    std::vector<ClockReplay> clk(n_cores);
    std::vector<std::uint64_t> prev(n_cores, 0);
    std::uint64_t fillers = 0;
    std::vector<Record> body;

    for (const Record& rec : data.records) {
        if (rec.core >= n_cores) {
            if (!opt.lenient)
                throw std::runtime_error("filter: record with bad core id");
            ++fillers;
            continue;
        }
        std::uint64_t t = 0;
        if (!clk[rec.core].feed(rec, t)) {
            if (!opt.lenient)
                throw std::runtime_error(
                    "filter: event before first sync record on core " +
                    std::to_string(rec.core));
            ++fillers; // skipped in the original analysis too
            continue;
        }
        t = std::max(t, prev[rec.core]);
        prev[rec.core] = t;

        if (!keep_core[rec.core])
            continue;
        // Tool records (sync/flush/drop, >= 64) are structurally
        // unmaskable: dropping a sync or drop marker would corrupt the
        // clock mapping / loss accounting of everything after it.
        if (rec.kind < 64 && !((opt.kind_mask >> rec.kind) & 1))
            continue;

        // Re-encode the timestamp so this record still places at its
        // original clamped time: a dropped neighbour may have carried
        // the clamp maximum, and the survivors must not move.
        const std::uint64_t delta = t - clk[rec.core].sync_tb;
        if (delta > kU32Max)
            throw std::runtime_error(
                "filter: clamp carry out of 32-bit delta range on core " +
                std::to_string(rec.core) + "; cannot re-encode timestamp");
        Record r = rec;
        r.timestamp = rawTimestamp(rec.core, clk[rec.core].sync_raw,
                                   static_cast<std::uint32_t>(delta));
        body.push_back(r);
    }

    TraceData out;
    out.header = data.header;
    out.spe_programs = data.spe_programs;
    out.spe_programs.resize(std::max<std::size_t>(
        out.spe_programs.size(), data.header.num_spes));
    out.records.reserve(fillers + body.size());
    for (std::uint64_t i = 0; i < fillers; ++i)
        out.records.push_back(fillerRecord());
    out.records.insert(out.records.end(), body.begin(), body.end());
    out.header.record_count = out.records.size();
    return out;
}

TraceData
delay(const TraceData& data, const DelayOptions& opt)
{
    const std::uint32_t n_cores = data.header.num_spes + 1;
    if (opt.core >= static_cast<int>(n_cores))
        throw std::invalid_argument(
            "delay: core id " + std::to_string(opt.core) +
            " out of range (trace has cores 0.." +
            std::to_string(n_cores - 1) + ")");
    const auto applies = [&opt](std::uint16_t core, std::uint64_t t) {
        return (opt.core < 0 || core == opt.core) && t >= opt.at;
    };

    std::vector<ClockReplay> clk(n_cores);
    std::vector<std::uint64_t> prev(n_cores, 0);

    TraceData out;
    out.header = data.header;
    out.spe_programs = data.spe_programs;
    out.spe_programs.resize(std::max<std::size_t>(
        out.spe_programs.size(), data.header.num_spes));
    out.records.reserve(data.records.size());

    for (const Record& rec : data.records) {
        if (rec.core >= n_cores) {
            if (!opt.lenient)
                throw std::runtime_error("delay: record with bad core id");
            out.records.push_back(rec); // lenient analyzers skip it here too
            continue;
        }
        std::uint64_t t = 0;
        if (!clk[rec.core].feed(rec, t)) {
            if (!opt.lenient)
                throw std::runtime_error(
                    "delay: event before first sync record on core " +
                    std::to_string(rec.core));
            out.records.push_back(rec);
            continue;
        }
        t = std::max(t, prev[rec.core]);
        prev[rec.core] = t;

        // Shift is monotone per core (once t >= at, it stays there), so
        // shifted placements never violate the monotonic clamp and the
        // output analysis sees exactly t' = t + delta past the mark.
        const std::uint64_t tt = t + (applies(rec.core, t) ? opt.delta : 0);
        Record r = rec;
        if (rec.kind == kSyncRecord && applies(rec.core, clk[rec.core].sync_tb))
            r.b = rec.b + opt.delta;
        // Re-encode against the *output* mapping: the input's current
        // sync shifted by the same rule. tt >= out_tb always holds
        // because t >= sync_tb and the shift is monotone in t.
        const std::uint64_t out_tb =
            clk[rec.core].sync_tb +
            (applies(rec.core, clk[rec.core].sync_tb) ? opt.delta : 0);
        const std::uint64_t d = tt - out_tb;
        if (d > kU32Max)
            throw std::runtime_error(
                "delay: shifted delta out of 32-bit range on core " +
                std::to_string(rec.core) + "; reduce --delta");
        r.timestamp = rawTimestamp(rec.core, clk[rec.core].sync_raw,
                                   static_cast<std::uint32_t>(d));
        out.records.push_back(r);
    }
    out.header.record_count = out.records.size();
    return out;
}

} // namespace cell::trace
