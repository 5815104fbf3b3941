/**
 * @file
 * Interval matcher implementation.
 */

#include "ta/intervals.h"

#include <algorithm>

namespace cell::ta {

using rt::ApiOp;

const char*
intervalClassName(IntervalClass c)
{
    switch (c) {
      case IntervalClass::Run: return "RUN";
      case IntervalClass::DmaCommand: return "DMA_CMD";
      case IntervalClass::DmaWait: return "DMA_WAIT";
      case IntervalClass::MailboxWait: return "MBOX_WAIT";
      case IntervalClass::SignalWait: return "SIGNAL_WAIT";
      case IntervalClass::PpeCall: return "PPE_CALL";
      case IntervalClass::Other: return "OTHER";
    }
    return "?";
}

IntervalClass
classifyOp(ApiOp op)
{
    switch (op) {
      case ApiOp::SpuMfcGet:
      case ApiOp::SpuMfcGetFence:
      case ApiOp::SpuMfcGetBarrier:
      case ApiOp::SpuMfcPut:
      case ApiOp::SpuMfcPutFence:
      case ApiOp::SpuMfcPutBarrier:
      case ApiOp::SpuMfcGetList:
      case ApiOp::SpuMfcPutList:
        return IntervalClass::DmaCommand;
      case ApiOp::SpuTagWaitAny:
      case ApiOp::SpuTagWaitAll:
        return IntervalClass::DmaWait;
      case ApiOp::SpuMboxRead:
      case ApiOp::SpuMboxWrite:
      case ApiOp::SpuMboxIrqWrite:
        return IntervalClass::MailboxWait;
      case ApiOp::SpuSignalRead1:
      case ApiOp::SpuSignalRead2:
        return IntervalClass::SignalWait;
      case ApiOp::PpeContextCreate:
      case ApiOp::PpeContextRun:
      case ApiOp::PpeContextJoin:
      case ApiOp::PpeMboxWrite:
      case ApiOp::PpeMboxRead:
      case ApiOp::PpeMboxIrqRead:
      case ApiOp::PpeSignalPost:
      case ApiOp::PpeProxyGet:
      case ApiOp::PpeProxyPut:
      case ApiOp::PpeProxyTagWait:
        return IntervalClass::PpeCall;
      default:
        return IntervalClass::Other;
    }
}

// The phantom mask and pendableOpsMask() hold one bit per op.
static_assert(rt::kNumApiOps <= 64);

IntervalMatcher::IntervalMatcher(std::uint16_t core,
                                 std::uint64_t phantom_ops, bool phantom_run)
    : core_(core), phantom_ops_(phantom_ops), phantom_run_(phantom_run)
{
}

void
IntervalMatcher::reserve(std::size_t n)
{
    out_.reserve(n);
    sequence_.reserve(n);
}

std::size_t
IntervalMatcher::open(IntervalClass cls, ApiOp op, const Event& ev)
{
    Interval& i = out_.emplace_back();
    i.cls = cls;
    i.op = op;
    i.core = core_;
    i.start_tb = i.end_tb = ev.time_tb;
    sequence_.push_back(kOpen);
    return out_.size() - 1;
}

void
IntervalMatcher::feed(const Event& ev)
{
    final_epoch_ = ev.epoch;
    if (ev.isToolRecord() || !ev.isKnownOp())
        return;
    const ApiOp op = ev.op();

    if (op == ApiOp::SpuStart) {
        // A second SpuStart abandons the first one's slot.
        run_ = {open(IntervalClass::Run, ApiOp::SpuStart, ev), ev.epoch};
        phantom_run_ = false;
        return;
    }
    if (op == ApiOp::SpuStop) {
        if (run_.slot == kNoSlot && phantom_run_) {
            // The run started before the resume point.
            phantom_run_ = false;
            return;
        }
        const bool started = run_.slot != kNoSlot;
        const std::size_t slot =
            started ? run_.slot : open(IntervalClass::Run, ApiOp::SpuStart, ev);
        Interval& run = out_[slot];
        run.end_tb = ev.time_tb;
        run.a = ev.a; // exit code
        run.truncated = !started;
        run.gap = started && run_.epoch != ev.epoch;
        emit(slot);
        run_ = {};
        return;
    }

    const auto idx = static_cast<std::size_t>(op);
    const std::uint64_t bit = std::uint64_t{1} << idx;
    const IntervalClass cls = classifyOp(op);
    if (ev.isBegin()) {
        const std::size_t slot = open(cls, op, ev);
        Interval& i = out_[slot];
        i.a = ev.a;
        i.b = ev.b;
        i.c = ev.c;
        i.d = ev.d;
        if (cls == IntervalClass::Other) {
            // Single-marker events (user events, decrementer ops) have
            // no End: the zero-length interval is complete at once.
            emit(slot);
        } else {
            // A Begin still pending for this op is abandoned.
            pending_[idx] = {slot, ev.epoch};
            phantom_ops_ &= ~bit;
        }
        return;
    }

    std::size_t slot = pending_[idx].slot;
    if (slot != kNoSlot) {
        out_[slot].gap = pending_[idx].epoch != ev.epoch;
        pending_[idx] = {};
    } else if (phantom_ops_ & bit) {
        // The Begin lies before the resume point.
        phantom_ops_ &= ~bit;
        return;
    } else {
        // End without Begin (Begin filtered out?): degrade to a
        // zero-length interval at the End time.
        slot = open(cls, op, ev);
        out_[slot].truncated = true;
    }
    out_[slot].end_tb = ev.time_tb;
    out_[slot].end_b = ev.b;
    emit(slot);
}

void
IntervalMatcher::finish(std::uint64_t last_time)
{
    for (Pending& p : pending_) {
        if (p.slot == kNoSlot)
            continue;
        Interval& i = out_[p.slot];
        i.end_tb = last_time;
        i.truncated = true;
        i.gap = p.epoch != final_epoch_;
        emit(p.slot);
        p = {};
    }
    if (run_.slot != kNoSlot) {
        Interval& run = out_[run_.slot];
        run.end_tb = last_time;
        run.truncated = true;
        run.gap = run_.epoch != final_epoch_;
        emit(run_.slot);
        run_ = {};
    }
}

bool
IntervalMatcher::pendingIn(std::uint64_t from, std::uint64_t to) const
{
    const auto in = [&](const Pending& p) {
        return p.slot != kNoSlot && out_[p.slot].start_tb >= from &&
               out_[p.slot].start_tb < to;
    };
    return std::any_of(pending_.begin(), pending_.end(), in) || in(run_);
}

std::vector<Interval>
IntervalMatcher::take()
{
    // Drop the slots that were never emitted.
    std::size_t n = static_cast<std::size_t>(
        std::find(sequence_.begin(), sequence_.end(), kOpen) -
        sequence_.begin());
    for (std::size_t k = n; k < out_.size(); ++k) {
        if (sequence_[k] == kOpen)
            continue;
        out_[n] = out_[k];
        sequence_[n] = sequence_[k];
        ++n;
    }
    out_.resize(n);
    sequence_.resize(n);

    // Order by (start, emission sequence). An insertion sort costs
    // O(n + inversions); fed in time order, only runs of equal starts
    // can be out of emission order, and a slot is passed only by slots
    // that were open when it was emitted — at most one per op plus the
    // run — so it stays linear.
    const auto before = [this](std::uint64_t start, std::uint64_t seq,
                               std::size_t y) {
        return start != out_[y].start_tb ? start < out_[y].start_tb
                                         : seq < sequence_[y];
    };
    for (std::size_t k = 1; k < n; ++k) {
        if (!before(out_[k].start_tb, sequence_[k], k - 1))
            continue;
        const Interval iv = out_[k];
        const std::uint64_t seq = sequence_[k];
        std::size_t j = k;
        do {
            out_[j] = out_[j - 1];
            sequence_[j] = sequence_[j - 1];
            --j;
        } while (j > 0 && before(iv.start_tb, seq, j - 1));
        out_[j] = iv;
        sequence_[j] = seq;
    }
    sequence_.clear();
    return std::move(out_);
}

std::vector<Interval>
buildCoreIntervals(const CoreTimeline& tl)
{
    IntervalMatcher m(tl.core);
    m.reserve(tl.events.size());
    for (const Event& ev : tl.events)
        m.feed(ev);
    m.finish(tl.empty() ? 0 : tl.lastTime());
    return m.take();
}

std::uint64_t
pendableOpsMask()
{
    static const std::uint64_t mask = [] {
        std::uint64_t m = 0;
        for (std::size_t k = 0; k < rt::kNumApiOps && k < 64; ++k) {
            const auto op = static_cast<ApiOp>(k);
            if (op == ApiOp::SpuStart || op == ApiOp::SpuStop)
                continue;
            if (classifyOp(op) != IntervalClass::Other)
                m |= std::uint64_t{1} << k;
        }
        return m;
    }();
    return mask;
}

trace::OpSemantics
surgeryOpSemantics()
{
    trace::OpSemantics sem;
    sem.pendable_mask = pendableOpsMask();
    sem.spu_start = static_cast<std::uint8_t>(ApiOp::SpuStart);
    sem.spu_stop = static_cast<std::uint8_t>(ApiOp::SpuStop);
    sem.num_known_ops = static_cast<std::uint8_t>(rt::kNumApiOps);
    return sem;
}

IntervalSet
IntervalSet::build(const TraceModel& model)
{
    IntervalSet out;
    out.per_core.resize(model.cores().size());
    for (const CoreTimeline& tl : model.cores())
        out.per_core[tl.core] = buildCoreIntervals(tl);
    return out;
}

std::vector<Interval>
IntervalSet::select(std::uint16_t core, IntervalClass cls) const
{
    std::vector<Interval> out;
    for (const Interval& i : per_core.at(core)) {
        if (i.cls == cls)
            out.push_back(i);
    }
    return out;
}

const Interval*
IntervalSet::spuRun(std::uint32_t spe_index) const
{
    for (const Interval& i : per_core.at(spe_index + 1)) {
        if (i.cls == IntervalClass::Run)
            return &i;
    }
    return nullptr;
}

} // namespace cell::ta
