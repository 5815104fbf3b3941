/**
 * @file
 * Statistics computation.
 */

#include "ta/stats.h"

#include <algorithm>
#include <cmath>

namespace cell::ta {

using rt::ApiOp;

Histogram::Histogram(unsigned bits) : buckets_(bits + 1, 0) {}

void
Histogram::add(std::uint64_t value)
{
    std::size_t b = 0;
    while (b + 1 < buckets_.size() && bucketLo(b + 1) <= value)
        ++b;
    buckets_[b] += 1;
    count_ += 1;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen > target)
            return bucketLo(b);
    }
    return max_;
}

// The wait scan below is quadratic, and its inner loop is sensitive to
// where the linker places it: on a 4-vCPU Intel Xeon VM, `ta summary`
// on bench/e2e's `skew` trace ran 15-20% slower with this function
// starting 32 bytes past a 64-byte boundary than with it aligned. Pin
// the alignment so that code added elsewhere in the library cannot
// move the loop, until the scan is made linear.
[[gnu::aligned(64)]] std::vector<DmaTransfer>
matchDmaTransfers(const IntervalSet& ivs, std::uint32_t spe)
{
    const auto& intervals = ivs.per_core.at(spe + 1);
    std::vector<const Interval*> waits;
    for (const Interval& iv : intervals) {
        if (iv.cls == IntervalClass::DmaWait)
            waits.push_back(&iv);
    }
    std::sort(waits.begin(), waits.end(),
              [](const Interval* x, const Interval* y) {
                  return x->end_tb < y->end_tb;
              });

    std::vector<DmaTransfer> out;
    for (const Interval& iv : intervals) {
        if (iv.cls != IntervalClass::DmaCommand)
            continue;
        DmaTransfer t;
        t.op = iv.op;
        t.spe = spe;
        t.ls = iv.a;
        t.ea = iv.b;
        t.size = iv.c;
        t.tag = iv.d & 31u;
        t.issue_tb = iv.start_tb;
        const std::uint32_t tag_bit = 1u << t.tag;
        for (const Interval* w : waits) {
            if (w->end_tb < iv.start_tb)
                continue;
            // a = requested mask; end_b = completed mask.
            const auto mask =
                static_cast<std::uint32_t>(w->end_b ? w->end_b : w->a);
            if (mask & tag_bit) {
                t.complete_tb = w->end_tb;
                t.observed = true;
                break;
            }
        }
        out.push_back(t);
    }
    return out;
}

void
TraceStats::resizeFor(const TraceModel& model)
{
    const std::uint32_t n_spes = model.numSpes();
    spu.resize(n_spes);
    dma.resize(n_spes);
    flush.resize(n_spes);
    loss.resize(n_spes + 1);
    op_counts.resize(n_spes + 1);
    for (auto& row : op_counts)
        row.fill(0);
}

void
TraceStats::buildCore(const TraceModel& model, const IntervalSet& ivs,
                      std::uint16_t core)
{
    // Event counts, flush markers and drop markers straight from the
    // timeline.
    const CoreTimeline& tl = model.cores()[core];
    for (const Event& ev : tl.events) {
        if (ev.kind == trace::kFlushRecord && core > 0) {
            FlushStats& f = flush[core - 1];
            f.flushes += 1;
            f.flushed_records += ev.a;
            f.flush_wait_cycles += ev.b;
        }
        if (ev.kind == trace::kDropRecord) {
            CoreLoss& l = loss[core];
            l.drop_markers += 1;
            l.dropped_events += ev.a; // events lost in this gap
        }
        if (!ev.isToolRecord())
            loss[core].recorded_events += 1;
        if (!ev.isToolRecord() && ev.isKnownOp() && ev.isBegin())
            op_counts[core][static_cast<std::size_t>(ev.op())] += 1;
    }

    // Gap-spanning intervals.
    for (const Interval& iv : ivs.per_core[core]) {
        if (iv.gap)
            loss[core].gap_intervals += 1;
    }

    if (core == 0) {
        for (const Interval& iv : ivs.per_core[0]) {
            if (iv.cls == IntervalClass::PpeCall)
                ppe_call_tb += iv.duration();
        }
        return;
    }

    // Interval-derived SPE breakdown.
    const std::uint32_t i = core - 1;
    SpuBreakdown& b = spu[i];
    b.spe = i;
    for (const Interval& iv : ivs.per_core[core]) {
        switch (iv.cls) {
          case IntervalClass::Run:
            b.ran = true;
            b.run_tb += iv.duration();
            break;
          case IntervalClass::DmaCommand:
            b.dma_cmd_tb += iv.duration();
            break;
          case IntervalClass::DmaWait:
            b.dma_wait_tb += iv.duration();
            break;
          case IntervalClass::MailboxWait:
            b.mbox_wait_tb += iv.duration();
            break;
          case IntervalClass::SignalWait:
            b.signal_wait_tb += iv.duration();
            break;
          default:
            break;
        }
    }

    // DMA latency: each command matched to the first tag-wait end
    // covering its tag group.
    DmaStats& d = dma[i];
    for (const DmaTransfer& t : matchDmaTransfers(ivs, i)) {
        d.commands += 1;
        // For plain commands size = bytes; list commands carry the
        // list byte count instead, so only count plain bytes.
        if (t.op != ApiOp::SpuMfcGetList && t.op != ApiOp::SpuMfcPutList)
            d.bytes += t.size;
        if (t.observed)
            d.latency_tb.add(t.latency_tb());
        else
            d.unobserved += 1;
    }
}

TraceStats
TraceStats::build(const TraceModel& model, const IntervalSet& ivs)
{
    TraceStats st;
    st.resizeFor(model);
    for (std::size_t core = 0; core < model.cores().size(); ++core)
        st.buildCore(model, ivs, static_cast<std::uint16_t>(core));
    for (const CoreTimeline& tl : model.cores())
        st.total_records += tl.events.size();
    return st;
}

double
TraceStats::overlapScore(std::uint32_t i) const
{
    const auto& d = dma.at(i);
    const auto& b = spu.at(i);
    const std::uint64_t service = d.latency_tb.sum();
    if (service == 0)
        return 1.0;
    const double waited = static_cast<double>(b.dma_wait_tb);
    const double score = 1.0 - waited / static_cast<double>(service);
    return std::clamp(score, 0.0, 1.0);
}

double
TraceStats::loadImbalance() const
{
    std::uint64_t max_busy = 0;
    std::uint64_t total = 0;
    std::uint32_t n = 0;
    for (const SpuBreakdown& b : spu) {
        if (!b.ran)
            continue;
        max_busy = std::max(max_busy, b.busy_tb());
        total += b.busy_tb();
        n += 1;
    }
    if (n == 0 || total == 0)
        return 1.0;
    const double mean = static_cast<double>(total) / n;
    return static_cast<double>(max_busy) / mean;
}

} // namespace cell::ta
