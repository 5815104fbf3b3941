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
IntervalMatcher::feed(const Event& ev)
{
    final_epoch_ = ev.epoch;
    if (ev.isToolRecord() || !ev.isKnownOp())
        return;
    const ApiOp op = ev.op();

    if (op == ApiOp::SpuStart) {
        run_start_ = ev;
        have_run_start_ = true;
        phantom_run_ = false;
        return;
    }
    if (op == ApiOp::SpuStop) {
        if (!have_run_start_ && phantom_run_) {
            // The run started before the resume point.
            phantom_run_ = false;
            return;
        }
        Interval run;
        run.cls = IntervalClass::Run;
        run.op = ApiOp::SpuStart;
        run.core = core_;
        run.start_tb = have_run_start_ ? run_start_.time_tb : ev.time_tb;
        run.end_tb = ev.time_tb;
        run.a = ev.a; // exit code
        run.truncated = !have_run_start_;
        run.gap = have_run_start_ && run_start_.epoch != ev.epoch;
        out_.push_back(run);
        have_run_start_ = false;
        return;
    }

    const auto idx = static_cast<std::size_t>(op);
    const std::uint64_t bit = std::uint64_t{1} << idx;
    if (ev.isBegin()) {
        // Single-marker events (user events, decrementer ops) have no
        // End; emit a zero-length interval directly.
        const auto cls = classifyOp(op);
        if (cls == IntervalClass::Other) {
            Interval i;
            i.cls = cls;
            i.op = op;
            i.core = core_;
            i.start_tb = i.end_tb = ev.time_tb;
            i.a = ev.a;
            i.b = ev.b;
            i.c = ev.c;
            i.d = ev.d;
            out_.push_back(i);
        } else {
            pending_[idx] = ev;
            phantom_ops_ &= ~bit;
        }
        return;
    }

    Interval i;
    i.cls = classifyOp(op);
    i.op = op;
    i.core = core_;
    if (pending_[idx]) {
        const Event& b = *pending_[idx];
        i.start_tb = b.time_tb;
        i.a = b.a;
        i.b = b.b;
        i.c = b.c;
        i.d = b.d;
        i.gap = b.epoch != ev.epoch;
        pending_[idx].reset();
    } else if (phantom_ops_ & bit) {
        // The Begin lies before the resume point.
        phantom_ops_ &= ~bit;
        return;
    } else {
        // End without Begin (Begin filtered out?): degrade to a
        // zero-length interval at the End time.
        i.start_tb = ev.time_tb;
        i.truncated = true;
    }
    i.end_tb = ev.time_tb;
    i.end_b = ev.b;
    out_.push_back(i);
}

void
IntervalMatcher::finish(std::uint64_t last_time)
{
    for (const auto& p : pending_) {
        if (!p)
            continue;
        Interval i;
        i.cls = classifyOp(p->op());
        i.op = p->op();
        i.core = core_;
        i.start_tb = p->time_tb;
        i.end_tb = last_time;
        i.a = p->a;
        i.b = p->b;
        i.c = p->c;
        i.d = p->d;
        i.truncated = true;
        i.gap = p->epoch != final_epoch_;
        out_.push_back(i);
    }
    if (have_run_start_) {
        Interval run;
        run.cls = IntervalClass::Run;
        run.op = ApiOp::SpuStart;
        run.core = core_;
        run.start_tb = run_start_.time_tb;
        run.end_tb = last_time;
        run.truncated = true;
        run.gap = run_start_.epoch != final_epoch_;
        out_.push_back(run);
    }
}

bool
IntervalMatcher::pendingIn(std::uint64_t from, std::uint64_t to) const
{
    for (const auto& p : pending_) {
        if (p && p->time_tb >= from && p->time_tb < to)
            return true;
    }
    return have_run_start_ && run_start_.time_tb >= from &&
           run_start_.time_tb < to;
}

std::vector<Interval>
IntervalMatcher::take()
{
    std::stable_sort(out_.begin(), out_.end(),
                     [](const Interval& x, const Interval& y) {
                         return x.start_tb < y.start_tb;
                     });
    return std::move(out_);
}

std::vector<Interval>
buildCoreIntervals(const CoreTimeline& tl)
{
    IntervalMatcher m(tl.core);
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
