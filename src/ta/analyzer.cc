/**
 * @file
 * Analysis pipeline and report printers.
 */

#include "ta/analyzer.h"

#include <fstream>
#include <iomanip>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ta/parallel.h"
#include "trace/reader.h"
#include "trace/shard.h"

namespace cell::ta {

namespace {

unsigned
resolveThreads(unsigned threads)
{
    return threads != 0 ? threads
                        : std::max(1u, std::thread::hardware_concurrency());
}

/** The model of @p trace: serial, or on a pool placed in @p pool when
 *  @p opt asks for threads or carries a cancel token. */
TraceModel
modelOf(const trace::TraceData& trace, const AnalyzeOptions& opt,
        std::optional<WorkerPool>& pool)
{
    const unsigned threads = resolveThreads(opt.threads);
    if (threads <= 1 && !opt.cancel)
        return TraceModel::build(trace, opt.salvage);
    // With a cancel token, even one thread runs the (output-identical)
    // pipeline so the per-shard checkpoints can abort it.
    pool.emplace(threads);
    return buildModelParallel(trace, *pool, opt.salvage, 0, opt.cancel);
}

/** Intervals and statistics of @p model: on @p pool, or serially
 *  when it is null. */
Analysis
deriveFrom(TraceModel&& model, WorkerPool* pool, const CancelToken* cancel)
{
    Analysis a{std::move(model), {}, {}};
    if (pool) {
        a.intervals = buildIntervalsParallel(a.model, *pool, cancel);
        a.stats = buildStatsParallel(a.model, a.intervals, *pool, cancel);
    } else {
        a.intervals = IntervalSet::build(a.model);
        a.stats = TraceStats::build(a.model, a.intervals);
    }
    return a;
}

/** analyze() of a trace read for it: the records are freed as soon as
 *  the model is built, before intervals and statistics allocate. */
Analysis
analyzeRead(trace::TraceData&& trace, const AnalyzeOptions& opt)
{
    std::optional<WorkerPool> pool;
    TraceModel model = modelOf(trace, opt, pool);
    trace = {};
    return deriveFrom(std::move(model), pool ? &*pool : nullptr, opt.cancel);
}

} // namespace

Analysis
analyze(const trace::TraceData& trace, const AnalyzeOptions& opt)
{
    std::optional<WorkerPool> pool;
    TraceModel model = modelOf(trace, opt, pool);
    return deriveFrom(std::move(model), pool ? &*pool : nullptr, opt.cancel);
}

Analysis
analyzeFile(const std::string& path, const AnalyzeOptions& opt)
{
    if (opt.salvage) {
        // Salvage resync is inherently sequential (it must walk the
        // damage to find the stride again), so the read stays serial.
        // The token is polled before the read, then per shard.
        if (opt.cancel)
            opt.cancel->checkpoint("analyzeFile/salvage-read");
        trace::ReadReport local;
        return analyzeRead(
            trace::readFileSalvage(path, opt.report ? *opt.report : local),
            opt);
    }
    const unsigned threads = resolveThreads(opt.threads);
    if (threads <= 1 && !opt.cancel)
        return analyzeRead(trace::readFile(path), opt);

    trace::ShardOptions sopt;
    sopt.target_shards = threads * 4;
    const trace::ShardPlan plan = trace::planShardsFile(path, sopt);
    // Not zero-filled: each shard reader first-touches its own slice.
    const auto n = static_cast<std::size_t>(plan.record_count);
    auto records = std::make_unique_for_overwrite<trace::Record[]>(n);

    WorkerPool pool(threads);
    pool.parallelFor(plan.shards.size(), [&](std::uint64_t s) {
        if (opt.cancel)
            opt.cancel->checkpoint("analyzeFile/ingest");
        std::ifstream is(path, std::ios::binary);
        if (!is)
            throw std::runtime_error("analyzeFile: cannot open " + path);
        trace::readShardInto(is, plan, static_cast<std::size_t>(s),
                             records.get() + plan.shards[s].first_record);
    });
    TraceModel model = buildModelParallel(
        plan.header, plan.spe_programs, {records.get(), n}, pool,
        /*lenient=*/false, 0, opt.cancel);
    records.reset();
    return deriveFrom(std::move(model), &pool, opt.cancel);
}

std::string
salvageDiagnostics(const trace::ReadReport& report)
{
    if (!report.salvaged)
        return {};
    std::string out = "ta: " + report.summary() + "\n";
    for (const std::string& note : report.notes)
        out += "ta:   " + note + "\n";
    return out;
}

namespace {

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

} // namespace

void
printSummary(std::ostream& os, const Analysis& a)
{
    const auto& m = a.model;
    os << "=== Trace summary ===\n"
       << "cores: PPE + " << m.numSpes() << " SPEs, span "
       << std::fixed << std::setprecision(1) << m.tbToUs(m.spanTb())
       << " us (" << m.spanTb() << " timebase ticks)\n"
       << "records: " << a.stats.total_records << " total\n";
    if (a.stats.anyLoss()) {
        std::uint64_t dropped = 0;
        for (const CoreLoss& l : a.stats.loss)
            dropped += l.dropped_events;
        os << "WARNING: incomplete trace — " << dropped
           << " events dropped during tracing (see event-loss report)\n";
    }
    for (const auto& tl : m.cores()) {
        os << "  " << std::left << std::setw(20) << tl.label << std::right
           << " " << std::setw(8) << tl.events.size() << " records";
        if (tl.core > 0) {
            const auto& b = a.stats.spu[tl.core - 1];
            if (b.ran) {
                os << ", run " << std::setprecision(1) << std::setw(9)
                   << m.tbToUs(b.run_tb) << " us, util "
                   << std::setprecision(1) << 100.0 * b.utilization() << "%";
            } else {
                os << ", idle";
            }
        }
        os << "\n";
    }
}

void
printStallBreakdown(std::ostream& os, const Analysis& a)
{
    const auto& m = a.model;
    os << "=== SPE time breakdown ===\n"
       << "SPE     run(us)  compute%  dmaissue%  dmawait%  mboxwait%  sigwait%\n";
    for (const auto& b : a.stats.spu) {
        if (!b.ran)
            continue;
        os << std::left << std::setw(6) << ("SPE" + std::to_string(b.spe))
           << std::right << std::fixed << std::setprecision(1)
           << std::setw(10) << m.tbToUs(b.run_tb)
           << std::setw(9) << pct(b.busy_tb(), b.run_tb)
           << std::setw(11) << pct(b.dma_cmd_tb, b.run_tb)
           << std::setw(10) << pct(b.dma_wait_tb, b.run_tb)
           << std::setw(11) << pct(b.mbox_wait_tb, b.run_tb)
           << std::setw(10) << pct(b.signal_wait_tb, b.run_tb) << "\n";
    }
    os << "load imbalance (max/mean busy): " << std::setprecision(2)
       << a.stats.loadImbalance() << "\n";
}

void
printDmaReport(std::ostream& os, const Analysis& a)
{
    const auto& m = a.model;
    os << "=== DMA report ===\n"
       << "SPE     cmds     bytes   lat_mean(us)  lat_p50  lat_max  overlap\n";
    for (std::uint32_t i = 0; i < a.stats.dma.size(); ++i) {
        const auto& d = a.stats.dma[i];
        if (d.commands == 0)
            continue;
        os << std::left << std::setw(6) << ("SPE" + std::to_string(i))
           << std::right << std::setw(6) << d.commands << std::setw(10)
           << d.bytes << std::fixed << std::setprecision(2) << std::setw(14)
           << m.tbToUs(static_cast<std::uint64_t>(d.latency_tb.mean()))
           << std::setw(9) << m.tbToUs(d.latency_tb.quantile(0.5))
           << std::setw(9) << m.tbToUs(d.latency_tb.max()) << std::setw(9)
           << a.stats.overlapScore(i) << "\n";
    }
}

void
printDmaHistogram(std::ostream& os, const Analysis& a)
{
    // Merge the per-SPE power-of-two bucket counts.
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
    for (const DmaStats& d : a.stats.dma) {
        const auto& b = d.latency_tb.buckets();
        if (buckets.size() < b.size())
            buckets.resize(b.size(), 0);
        for (std::size_t i = 0; i < b.size(); ++i)
            buckets[i] += b[i];
        total += d.latency_tb.count();
    }
    os << "=== DMA latency histogram (" << total << " transfers) ===\n";
    if (total == 0)
        return;
    std::uint64_t peak = 0;
    for (auto c : buckets)
        peak = std::max(peak, c);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        const double lo_us = a.model.tbToUs(Histogram::bucketLo(i));
        const auto bar = static_cast<std::size_t>(
            50.0 * static_cast<double>(buckets[i]) /
            static_cast<double>(peak));
        os << std::fixed << std::setprecision(2) << std::setw(9) << lo_us
           << " us |" << std::string(std::max<std::size_t>(bar, 1), '#')
           << " " << buckets[i] << "\n";
    }
}

void
printEventCounts(std::ostream& os, const Analysis& a)
{
    os << "=== Event counts (Begin events) ===\n";
    for (std::size_t op = 0; op < rt::kNumApiOps; ++op) {
        std::uint64_t total = 0;
        for (const auto& row : a.stats.op_counts)
            total += row[op];
        if (total == 0)
            continue;
        os << "  " << std::left << std::setw(22)
           << rt::apiOpName(static_cast<rt::ApiOp>(op)) << std::right
           << std::setw(10) << total << "\n";
    }
}

void
printTracingReport(std::ostream& os, const Analysis& a)
{
    os << "=== Tracing self-observation ===\n"
       << "SPE     flushes  flushed_recs  flush_wait_cycles\n";
    for (std::uint32_t i = 0; i < a.stats.flush.size(); ++i) {
        const auto& f = a.stats.flush[i];
        if (f.flushes == 0)
            continue;
        os << std::left << std::setw(6) << ("SPE" + std::to_string(i))
           << std::right << std::setw(9) << f.flushes << std::setw(14)
           << f.flushed_records << std::setw(19) << f.flush_wait_cycles
           << "\n";
    }
}

void
printLossReport(std::ostream& os, const Analysis& a)
{
    os << "=== Event loss ===\n";
    if (!a.stats.anyLoss() && a.model.leniencySkipped() == 0) {
        os << "no event loss: every emitted event is in the trace\n";
        return;
    }
    os << "core    recorded   dropped  markers  gap_intervals   loss%\n";
    for (std::size_t c = 0; c < a.stats.loss.size(); ++c) {
        const CoreLoss& l = a.stats.loss[c];
        if (l.recorded_events == 0 && l.dropped_events == 0)
            continue;
        const std::string label =
            c == 0 ? "PPE" : "SPE" + std::to_string(c - 1);
        os << std::left << std::setw(6) << label << std::right
           << std::setw(10) << l.recorded_events << std::setw(10)
           << l.dropped_events << std::setw(9) << l.drop_markers
           << std::setw(15) << l.gap_intervals << std::fixed
           << std::setprecision(2) << std::setw(8) << l.lossPct() << "\n";
    }
    if (a.model.leniencySkipped() > 0) {
        os << "salvage: " << a.model.leniencySkipped()
           << " records unusable (sync lost), excluded from timelines\n";
    }
    os << "durations of gap-spanning intervals include unobserved "
          "activity; treat them as lower-quality samples\n";
}

void
exportBreakdownCsv(std::ostream& os, const Analysis& a)
{
    os << "spe,run_us,compute_us,dma_issue_us,dma_wait_us,mbox_wait_us,"
          "signal_wait_us,utilization,overlap\n";
    const auto& m = a.model;
    for (const auto& b : a.stats.spu) {
        if (!b.ran)
            continue;
        os << b.spe << ',' << m.tbToUs(b.run_tb) << ','
           << m.tbToUs(b.busy_tb()) << ',' << m.tbToUs(b.dma_cmd_tb) << ','
           << m.tbToUs(b.dma_wait_tb) << ',' << m.tbToUs(b.mbox_wait_tb)
           << ',' << m.tbToUs(b.signal_wait_tb) << ',' << b.utilization()
           << ',' << a.stats.overlapScore(b.spe) << "\n";
    }
}

void
exportDmaTransfersCsv(std::ostream& os, const Analysis& a)
{
    os << "spe,op,ls,ea,size,tag,issue_us,latency_us,observed\n";
    const auto& m = a.model;
    for (std::uint32_t s = 0; s < a.stats.dma.size(); ++s) {
        for (const DmaTransfer& t : matchDmaTransfers(a.intervals, s)) {
            os << s << ',' << rt::apiOpName(t.op) << ",0x" << std::hex
               << t.ls << ",0x" << t.ea << std::dec << ',' << t.size << ','
               << t.tag << ',' << m.tbToUs(t.issue_tb - m.startTb()) << ','
               << m.tbToUs(t.latency_tb()) << ','
               << (t.observed ? 1 : 0) << "\n";
        }
    }
}

std::string
fullReport(const Analysis& a)
{
    std::ostringstream os;
    printSummary(os, a);
    printStallBreakdown(os, a);
    printDmaReport(os, a);
    printDmaHistogram(os, a);
    printEventCounts(os, a);
    printTracingReport(os, a);
    printLossReport(os, a);
    exportBreakdownCsv(os, a);
    exportIntervalsCsv(os, a);
    exportDmaTransfersCsv(os, a);
    return os.str();
}

std::uint64_t
fnv1a64(const std::string& data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : data) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
exportIntervalsCsv(std::ostream& os, const Analysis& a)
{
    os << "core,class,op,start_us,duration_us\n";
    const auto& m = a.model;
    for (const auto& per_core : a.intervals.per_core) {
        for (const Interval& iv : per_core) {
            os << iv.core << ',' << intervalClassName(iv.cls) << ','
               << rt::apiOpName(iv.op) << ','
               << m.tbToUs(iv.start_tb - m.startTb()) << ','
               << m.tbToUs(iv.duration()) << "\n";
        }
    }
}

} // namespace cell::ta
