/**
 * @file
 * Cross-trace differential engine implementation.
 *
 * Alignment is structural, not temporal: within an aligned core pair,
 * the k-th interval of each op in A matches the k-th in B (start
 * order), so a time shift never breaks the pairing — it shows up as a
 * duration delta on the interval that absorbed it and as a signature
 * mismatch in the rolling-window scan. Unpaired tails (drop gaps, one
 * run doing more work) are reported, not force-matched.
 */

#include "ta/compare.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ta/query.h"

namespace cell::ta {

namespace {

std::int64_t
delta(std::uint64_t b, std::uint64_t a)
{
    return static_cast<std::int64_t>(b) - static_cast<std::int64_t>(a);
}

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

/** Stall/cmd bucket of an interval class, or -1 (Run, Other). */
int
bucketOf(IntervalClass cls)
{
    switch (cls) {
    case IntervalClass::DmaWait:
        return static_cast<int>(DiffBucket::DmaWait);
    case IntervalClass::MailboxWait:
        return static_cast<int>(DiffBucket::MboxWait);
    case IntervalClass::SignalWait:
        return static_cast<int>(DiffBucket::SignalWait);
    case IntervalClass::DmaCommand:
        return static_cast<int>(DiffBucket::DmaCmd);
    case IntervalClass::PpeCall:
        return static_cast<int>(DiffBucket::PpeCall);
    default:
        return -1;
    }
}

/** Pair the cores of two analyses. Same core count: identity (the
 *  common case — same machine, same workload). Different counts: PPE
 *  to PPE, then SPEs greedily by equal label (tolerates core remaps,
 *  e.g. a blades-spliced run whose programs moved ids), leftovers
 *  reported as one-sided. */
std::vector<CoreDelta>
alignCores(const Analysis& a, const Analysis& b)
{
    const auto& ca = a.model.cores();
    const auto& cb = b.model.cores();
    std::vector<CoreDelta> out;
    if (ca.size() == cb.size()) {
        for (std::size_t i = 0; i < ca.size(); ++i) {
            CoreDelta d;
            d.core_a = static_cast<int>(i);
            d.core_b = static_cast<int>(i);
            d.label_a = ca[i].label;
            d.label_b = cb[i].label;
            out.push_back(std::move(d));
        }
        return out;
    }
    std::vector<char> used_b(cb.size(), 0);
    for (std::size_t i = 0; i < ca.size(); ++i) {
        CoreDelta d;
        d.core_a = static_cast<int>(i);
        d.label_a = ca[i].label;
        if (i == 0 && !cb.empty()) {
            d.core_b = 0;
            d.label_b = cb[0].label;
            used_b[0] = 1;
        } else {
            for (std::size_t j = 1; j < cb.size(); ++j) {
                if (!used_b[j] && cb[j].label == ca[i].label) {
                    d.core_b = static_cast<int>(j);
                    d.label_b = cb[j].label;
                    used_b[j] = 1;
                    break;
                }
            }
        }
        out.push_back(std::move(d));
    }
    // Order: aligned pairs and A-only cores in A order, then B-only.
    std::stable_partition(out.begin(), out.end(),
                          [](const CoreDelta& d) { return d.core_b >= 0; });
    for (std::size_t j = 0; j < cb.size(); ++j) {
        if (used_b[j])
            continue;
        CoreDelta d;
        d.core_b = static_cast<int>(j);
        d.label_b = cb[j].label;
        out.push_back(std::move(d));
    }
    return out;
}

/** Attribute one aligned core pair: k-th-vs-k-th per op. */
void
attributePair(const Analysis& a, const Analysis& b, CoreDelta& d)
{
    static const std::vector<Interval> kNone;
    const auto& iva = d.core_a >= 0
                          ? a.intervals.per_core[static_cast<std::size_t>(
                                d.core_a)]
                          : kNone;
    const auto& ivb = d.core_b >= 0
                          ? b.intervals.per_core[static_cast<std::size_t>(
                                d.core_b)]
                          : kNone;

    std::array<std::vector<const Interval*>, rt::kNumApiOps> by_a{};
    std::array<std::vector<const Interval*>, rt::kNumApiOps> by_b{};
    for (const Interval& iv : iva)
        by_a[static_cast<std::size_t>(iv.op)].push_back(&iv);
    for (const Interval& iv : ivb)
        by_b[static_cast<std::size_t>(iv.op)].push_back(&iv);

    bool run_pair = false;
    for (std::size_t op = 0; op < rt::kNumApiOps; ++op) {
        const auto& va = by_a[op];
        const auto& vb = by_b[op];
        const std::size_t m = std::min(va.size(), vb.size());
        for (std::size_t k = 0; k < m; ++k) {
            const std::int64_t dd =
                delta(vb[k]->duration(), va[k]->duration());
            const IntervalClass cls = va[k]->cls;
            if (cls == IntervalClass::Run) {
                d.run_tb += dd;
                run_pair = true;
            } else {
                const int bk = bucketOf(cls);
                if (bk >= 0)
                    d.bucket_tb[static_cast<std::size_t>(bk)] += dd;
            }
        }
        d.matched += m;
        d.unmatched_a += va.size() - m;
        d.unmatched_b += vb.size() - m;
        for (std::size_t k = m; k < va.size(); ++k)
            d.unmatched_tb_a += va[k]->duration();
        for (std::size_t k = m; k < vb.size(); ++k)
            d.unmatched_tb_b += vb[k]->duration();
    }
    // Compute is the residual of the Run delta the stall/cmd buckets
    // do not explain; without a matched Run pair there is no run time
    // to take a residual of.
    if (run_pair) {
        std::int64_t explained = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(DiffBucket::Compute); ++i)
            explained += d.bucket_tb[i];
        d.bucket_tb[static_cast<std::size_t>(DiffBucket::Compute)] =
            d.run_tb - explained;
    }
}

/** Divergence magnitude between two window signatures: occupancy and
 *  event-offset terms in ticks, plus width ticks per count mismatch. */
std::uint64_t
sigScore(const WindowSignature& x, const WindowSignature& y,
         std::uint64_t width)
{
    std::uint64_t s = 0;
    for (std::size_t c = 0; c < kNumIntervalClasses; ++c)
        s += absDiff(x.occupancy[c], y.occupancy[c]);
    s += absDiff(x.time_sum, y.time_sum);
    s += width * absDiff(x.events, y.events);
    return s;
}

bool
hasEvents(const Analysis& a)
{
    for (const CoreTimeline& tl : a.model.cores()) {
        if (!tl.events.empty())
            return true;
    }
    return false;
}

void
jsonEscape(std::ostream& os, const std::string& s)
{
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << "\\u"
                   << std::setfill('0') << std::setw(4) << std::hex
                   << static_cast<int>(c) << std::dec << std::setfill(' ');
            else
                os << c;
        }
    }
}

} // namespace

Comparison
Comparison::build(const Analysis& a, const Analysis& b)
{
    Comparison out;
    const std::size_t n = std::min(a.stats.spu.size(), b.stats.spu.size());
    out.spu.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SpuBreakdown& ba = a.stats.spu[i];
        const SpuBreakdown& bb = b.stats.spu[i];
        SpuDelta& d = out.spu[i];
        d.spe = static_cast<std::uint32_t>(i);
        d.ran_in_both = ba.ran && bb.ran;
        d.run_tb = delta(bb.run_tb, ba.run_tb);
        d.busy_tb = delta(bb.busy_tb(), ba.busy_tb());
        d.dma_wait_tb = delta(bb.dma_wait_tb, ba.dma_wait_tb);
        d.mbox_wait_tb = delta(bb.mbox_wait_tb, ba.mbox_wait_tb);
        d.signal_wait_tb = delta(bb.signal_wait_tb, ba.signal_wait_tb);
    }
    out.span_ratio = a.model.spanTb()
                         ? static_cast<double>(b.model.spanTb()) /
                               static_cast<double>(a.model.spanTb())
                         : 1.0;
    out.records_ratio =
        a.stats.total_records
            ? static_cast<double>(b.stats.total_records) /
                  static_cast<double>(a.stats.total_records)
            : 1.0;
    return out;
}

void
printComparison(std::ostream& os, const Analysis& a, const Analysis& b)
{
    const Comparison cmp = Comparison::build(a, b);
    os << "=== Trace comparison (B relative to A) ===\n"
       << std::fixed << std::setprecision(3)
       << "span: " << a.model.tbToUs(a.model.spanTb()) << " us -> "
       << b.model.tbToUs(b.model.spanTb()) << " us  (x" << cmp.span_ratio
       << ")\n"
       << "records: " << a.stats.total_records << " -> "
       << b.stats.total_records << "  (x" << cmp.records_ratio << ")\n\n"
       << "SPE    d.run(us)  d.compute  d.dmawait  d.mboxwait  d.sigwait\n";
    for (const SpuDelta& d : cmp.spu) {
        if (!d.ran_in_both)
            continue;
        auto us = [&](std::int64_t tb) {
            return (tb < 0 ? -1.0 : 1.0) *
                   a.model.tbToUs(static_cast<std::uint64_t>(
                       tb < 0 ? -tb : tb));
        };
        os << std::left << std::setw(5) << ("SPE" + std::to_string(d.spe))
           << std::right << std::setprecision(1) << std::setw(11)
           << us(d.run_tb) << std::setw(11) << us(d.busy_tb)
           << std::setw(11) << us(d.dma_wait_tb) << std::setw(12)
           << us(d.mbox_wait_tb) << std::setw(11) << us(d.signal_wait_tb)
           << "\n";
    }

    // Verdict: which stall class moved the most, summed over SPEs.
    std::int64_t dma = 0, mbox = 0, sig = 0;
    for (const SpuDelta& d : cmp.spu) {
        dma += d.dma_wait_tb;
        mbox += d.mbox_wait_tb;
        sig += d.signal_wait_tb;
    }
    const std::int64_t adma = dma < 0 ? -dma : dma;
    const std::int64_t ambox = mbox < 0 ? -mbox : mbox;
    const std::int64_t asig = sig < 0 ? -sig : sig;
    const char* what = "DMA wait";
    std::int64_t moved = dma;
    if (ambox > adma && ambox >= asig) {
        what = "mailbox wait";
        moved = mbox;
    } else if (asig > adma && asig > ambox) {
        what = "signal wait";
        moved = sig;
    }
    os << "\nbiggest mover: " << what << " ("
       << (moved <= 0 ? "-" : "+") << std::setprecision(1)
       << a.model.tbToUs(static_cast<std::uint64_t>(moved < 0 ? -moved
                                                              : moved))
       << " us total across SPEs)\n";
}

std::string
coreMapSummary(const Analysis& a)
{
    std::ostringstream os;
    for (const CoreTimeline& tl : a.model.cores())
        os << "  core " << tl.core << ": " << tl.label << "\n";
    return os.str();
}

std::string
coreMapMismatch(const Analysis& a, const Analysis& b)
{
    if (a.model.cores().size() == b.model.cores().size())
        return {};
    std::ostringstream os;
    os << "core maps disagree: A has " << a.model.numSpes()
       << " SPE(s), B has " << b.model.numSpes() << " SPE(s)\n"
       << "A cores:\n"
       << coreMapSummary(a) << "B cores:\n"
       << coreMapSummary(b);
    return os.str();
}

const char*
diffBucketName(DiffBucket b)
{
    switch (b) {
    case DiffBucket::DmaWait:
        return "dma_wait";
    case DiffBucket::MboxWait:
        return "mbox_wait";
    case DiffBucket::SignalWait:
        return "signal_wait";
    case DiffBucket::DmaCmd:
        return "dma_cmd";
    case DiffBucket::PpeCall:
        return "ppe_call";
    case DiffBucket::Compute:
        return "compute";
    }
    return "?";
}

DiffResult
diffAnalyses(const Analysis& a, const Analysis& b, const DiffOptions& opt)
{
    DiffResult r;
    r.records_a = a.stats.total_records;
    r.records_b = b.stats.total_records;
    r.start_a = a.model.startTb();
    r.start_b = b.model.startTb();
    r.span_a = a.model.spanTb();
    r.span_b = b.model.spanTb();
    r.threshold_tb = opt.threshold;

    r.cores = alignCores(a, b);
    for (CoreDelta& d : r.cores)
        attributePair(a, b, d);

    // Biggest mover: largest absolute bucket total across cores (ties
    // go to the first bucket in enum order, deterministically).
    std::array<std::int64_t, kNumDiffBuckets> totals{};
    for (const CoreDelta& d : r.cores) {
        for (std::size_t i = 0; i < kNumDiffBuckets; ++i)
            totals[i] += d.bucket_tb[i];
    }
    std::int64_t best = 0;
    for (std::size_t i = 0; i < kNumDiffBuckets; ++i) {
        const std::int64_t mag = totals[i] < 0 ? -totals[i] : totals[i];
        if (mag > best) {
            best = mag;
            r.mover = static_cast<DiffBucket>(i);
            r.mover_tb = totals[i];
            r.have_mover = true;
        }
    }

    // Rolling-window divergence scan over the union of both spans.
    const bool ea = hasEvents(a);
    const bool eb = hasEvents(b);
    r.window_tb = opt.window;
    if (ea || eb) {
        const std::uint64_t origin = ea && eb ? std::min(r.start_a, r.start_b)
                                     : ea     ? r.start_a
                                              : r.start_b;
        const std::uint64_t end =
            std::max(ea ? r.start_a + r.span_a : 0,
                     eb ? r.start_b + r.span_b : 0);
        if (r.window_tb == 0)
            r.window_tb = std::max<std::uint64_t>(
                1, std::max(r.span_a, r.span_b) / 64);
        const std::uint64_t count = (end - origin) / r.window_tb + 1;
        if (count > (1u << 22))
            throw std::invalid_argument(
                "diff: window width " + std::to_string(r.window_tb) +
                " yields " + std::to_string(count) +
                " windows over this span; use a wider --window");
        const auto sa = windowSignatures(a, origin, r.window_tb, count);
        const auto sb = windowSignatures(b, origin, r.window_tb, count);
        static const WindowSignature kEmpty{};
        r.windows_total = count;
        for (std::uint64_t w = 0; w < count; ++w) {
            std::uint64_t score = 0;
            for (const CoreDelta& d : r.cores) {
                const WindowSignature& xa =
                    d.core_a >= 0
                        ? sa[w][static_cast<std::size_t>(d.core_a)]
                        : kEmpty;
                const WindowSignature& xb =
                    d.core_b >= 0
                        ? sb[w][static_cast<std::size_t>(d.core_b)]
                        : kEmpty;
                score += sigScore(xa, xb, r.window_tb);
            }
            if (score > opt.threshold) {
                if (!r.diverged) {
                    r.diverged = true;
                    r.first = DiffWindow{w, origin + w * r.window_tb,
                                         origin + (w + 1) * r.window_tb,
                                         score};
                }
                r.windows_diverged += 1;
            }
        }
    } else if (r.window_tb == 0) {
        r.window_tb = 1;
    }
    return r;
}

DiffFileOutcome
diffFiles(const std::string& path_a, const std::string& path_b,
          const DiffFileOptions& opt)
{
    const auto loadSide = [&opt](const std::string& path, bool& salvaged,
                                 std::string& note) {
        trace::ReadReport report;
        AnalyzeOptions side = opt;
        side.report = &report;
        const auto salvageLoad = [&] {
            side.salvage = true;
            Analysis a = analyzeFile(path, side);
            salvaged = true;
            if (report.salvaged)
                note = report.summary();
            return a;
        };
        if (opt.salvage)
            return salvageLoad();
        try {
            return analyzeFile(path, side);
        } catch (const DeadlineExceeded&) {
            throw;
        } catch (const std::exception& e) {
            if (!opt.auto_downgrade)
                throw;
            const std::string why = e.what();
            Analysis a = salvageLoad();
            note = note.empty() ? "downgraded to salvage: " + why
                                : "downgraded to salvage (" + why + "); " +
                                      note;
            return a;
        }
    };

    DiffFileOutcome out;
    bool salvaged_a = false;
    bool salvaged_b = false;
    const Analysis a = loadSide(path_a, salvaged_a, out.note_a);
    const Analysis b = loadSide(path_b, salvaged_b, out.note_b);
    out.result = diffAnalyses(a, b, opt.diff);
    out.result.salvaged_a = salvaged_a;
    out.result.salvaged_b = salvaged_b;
    return out;
}

std::string
diffReport(const DiffResult& r)
{
    std::ostringstream os;
    os << "=== Trace diff (B relative to A) ===\n"
       << "A: " << r.records_a << " records, span " << r.span_a
       << " tb (start " << r.start_a << ")"
       << (r.salvaged_a ? ", salvaged" : "") << "\n"
       << "B: " << r.records_b << " records, span " << r.span_b
       << " tb (start " << r.start_b << ")"
       << (r.salvaged_b ? ", salvaged" : "") << "\n";

    std::uint64_t aligned = 0;
    for (const CoreDelta& d : r.cores)
        aligned += d.core_a >= 0 && d.core_b >= 0;
    os << "cores: " << aligned << " aligned, "
       << (r.cores.size() - aligned) << " one-sided\n\n"
       << "core                     matched  unA  unB      d.run "
          "d.dma_wait d.mbox_wait d.sig_wait  d.dma_cmd d.ppe_call "
          "d.compute\n";
    for (const CoreDelta& d : r.cores) {
        std::string name;
        if (d.core_a >= 0 && d.core_b >= 0)
            name = d.label_a == d.label_b
                       ? d.label_a
                       : d.label_a + "->" + d.label_b;
        else if (d.core_a >= 0)
            name = d.label_a + " (A only)";
        else
            name = d.label_b + " (B only)";
        if (name.size() > 24)
            name.resize(24);
        os << std::left << std::setw(24) << name << std::right
           << std::setw(9) << d.matched << std::setw(5) << d.unmatched_a
           << std::setw(5) << d.unmatched_b << std::setw(11) << d.run_tb;
        for (std::size_t i = 0; i < kNumDiffBuckets; ++i)
            os << std::setw(11) << d.bucket_tb[i];
        os << "\n";
        if (d.unmatched_tb_a || d.unmatched_tb_b) {
            os << "  unmatched interval time: A " << d.unmatched_tb_a
               << " tb, B " << d.unmatched_tb_b << " tb\n";
        }
    }

    os << "\nwindows: " << r.windows_total << " x " << r.window_tb
       << " tb, " << r.windows_diverged << " diverged (threshold "
       << r.threshold_tb << ")\n";
    if (r.diverged) {
        os << "first divergence: window #" << r.first.index << " ["
           << r.first.from_tb << ", " << r.first.to_tb << ") score "
           << r.first.score << "\n";
        if (r.have_mover) {
            os << "biggest mover: " << diffBucketName(r.mover) << " ("
               << (r.mover_tb >= 0 ? "+" : "") << r.mover_tb
               << " tb total across cores)\n";
        } else {
            os << "biggest mover: none (no attributable duration "
                  "delta; timing shift only)\n";
        }
    } else {
        os << "no divergence: runs are behaviorally identical at this "
              "window width\n";
    }
    return os.str();
}

std::string
diffJson(const DiffResult& r)
{
    std::ostringstream os;
    const auto side = [&os](const char* k, std::uint64_t records,
                            std::uint64_t start, std::uint64_t span,
                            bool salvaged) {
        os << "\"" << k << "\":{\"records\":" << records
           << ",\"start_tb\":" << start << ",\"span_tb\":" << span
           << ",\"salvaged\":" << (salvaged ? "true" : "false") << "}";
    };
    os << "{";
    side("a", r.records_a, r.start_a, r.span_a, r.salvaged_a);
    os << ",";
    side("b", r.records_b, r.start_b, r.span_b, r.salvaged_b);
    os << ",\"cores\":[";
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        const CoreDelta& d = r.cores[i];
        if (i)
            os << ",";
        os << "{\"a\":" << d.core_a << ",\"b\":" << d.core_b
           << ",\"label_a\":\"";
        jsonEscape(os, d.label_a);
        os << "\",\"label_b\":\"";
        jsonEscape(os, d.label_b);
        os << "\",\"matched\":" << d.matched
           << ",\"unmatched_a\":" << d.unmatched_a
           << ",\"unmatched_b\":" << d.unmatched_b
           << ",\"unmatched_tb_a\":" << d.unmatched_tb_a
           << ",\"unmatched_tb_b\":" << d.unmatched_tb_b
           << ",\"run_tb\":" << d.run_tb << ",\"buckets\":{";
        for (std::size_t k = 0; k < kNumDiffBuckets; ++k) {
            if (k)
                os << ",";
            os << "\"" << diffBucketName(static_cast<DiffBucket>(k))
               << "\":" << d.bucket_tb[k];
        }
        os << "}}";
    }
    os << "],\"windows\":{\"width_tb\":" << r.window_tb
       << ",\"threshold\":" << r.threshold_tb
       << ",\"total\":" << r.windows_total
       << ",\"diverged\":" << r.windows_diverged << "}";
    os << ",\"first_divergence\":";
    if (r.diverged) {
        os << "{\"index\":" << r.first.index
           << ",\"from_tb\":" << r.first.from_tb
           << ",\"to_tb\":" << r.first.to_tb
           << ",\"score\":" << r.first.score << "}";
    } else {
        os << "null";
    }
    os << ",\"biggest_mover\":";
    if (r.have_mover) {
        os << "{\"bucket\":\"" << diffBucketName(r.mover)
           << "\",\"delta_tb\":" << r.mover_tb << "}";
    } else {
        os << "null";
    }
    os << ",\"diverged\":" << (r.diverged ? "true" : "false") << "}";
    return os.str();
}

} // namespace cell::ta
