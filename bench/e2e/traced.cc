/**
 * @file
 * The traced pass: each op calls the library functions its command
 * calls, in the same order, and times every call as a layer step.
 * One step is not a call: ta.release times joining the analysis pool
 * and freeing the records and, once rendered, the analyses, so that the
 * spans cover the op.
 *
 * This is the one file of the benchmark tied to internal APIs
 * (planShardsFile/readShardInto, build*Parallel, the record path of
 * pdt_record). When the commands change how they reach the library,
 * this file follows them; the untraced pass does not depend on it, and
 * the references use only recordInProcess.
 */

#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench.h"
#include "pdt/tracer.h"
#include "ta/compare.h"
#include "ta/intervals.h"
#include "ta/parallel.h"
#include "ta/query.h"
#include "trace/block.h"
#include "trace/index.h"
#include "trace/shard.h"
#include "trace/surgery.h"
#include "trace/writer.h"
#include "wl/conv2d.h"
#include "wl/fft.h"
#include "wl/gather.h"
#include "wl/matmul.h"
#include "wl/pipeline.h"
#include "wl/reduction.h"
#include "wl/triad.h"

namespace cell::bench_e2e {

namespace {

/** tools/pdt_record.cc's workload table, at its default 8 SPEs. */
std::unique_ptr<wl::WorkloadBase>
makeWorkload(const std::string& name, rt::CellSystem& sys)
{
    constexpr std::uint32_t spes = 8;
    if (name == "triad" || name == "triad1" || name == "triad3") {
        wl::TriadParams p;
        p.n_spes = spes;
        p.buffering = name == "triad1" ? 1 : (name == "triad3" ? 3 : 2);
        return std::make_unique<wl::Triad>(sys, p);
    }
    if (name == "matmul" || name == "matmul-skewed") {
        wl::MatmulParams p;
        p.n_spes = spes;
        p.skew = name == "matmul-skewed" ? 4 : 0;
        return std::make_unique<wl::Matmul>(sys, p);
    }
    if (name == "conv2d") {
        wl::Conv2dParams p;
        p.n_spes = spes;
        return std::make_unique<wl::Conv2d>(sys, p);
    }
    if (name == "fft") {
        wl::FftParams p;
        p.n_spes = spes;
        return std::make_unique<wl::Fft>(sys, p);
    }
    if (name == "reduction" || name == "reduction-chatty") {
        wl::ReductionParams p;
        p.n_spes = spes;
        p.report_every_tile = name == "reduction-chatty";
        return std::make_unique<wl::Reduction>(sys, p);
    }
    if (name == "pipeline") {
        wl::PipelineParams p;
        p.n_stages = spes;
        return std::make_unique<wl::Pipeline>(sys, p);
    }
    if (name == "gather") {
        wl::GatherParams p;
        p.n_spes = spes;
        return std::make_unique<wl::Gather>(sys, p);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

/** Resident set of this process, MiB. Raw syscalls keep the read to a
 *  few microseconds inside the timed op. */
double
rssMb()
{
    char buf[128] = {};
    const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 0;
    const ssize_t n = ::read(fd, buf, sizeof buf - 1);
    ::close(fd);
    unsigned long long size = 0, resident = 0;
    if (n <= 0 || std::sscanf(buf, "%llu %llu", &size, &resident) != 2)
        return 0;
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

using Extra = std::map<std::string, double>;

/** analyzeFileParallel: shard the file, ingest the shards on a pool,
 *  then the parallel model, interval and statistics builders. Sets
 *  @p ingest_rss_mb, when given, to the growth over @p rss0 after
 *  ingest. */
ta::Analysis
parallelFile(const std::string& path, unsigned threads, Steps& s,
             double rss0 = 0, double* ingest_rss_mb = nullptr)
{
    trace::TraceData data;
    std::optional<ta::WorkerPool> pool;
    s.run("trace.ingest", [&] {
        trace::ShardOptions sopt;
        sopt.target_shards = threads * 4;
        const trace::ShardPlan plan = trace::planShardsFile(path, sopt);
        data.header = plan.header;
        data.spe_programs = plan.spe_programs;
        data.records.resize(static_cast<std::size_t>(plan.record_count));
        pool.emplace(threads);
        pool->parallelFor(plan.shards.size(), [&](std::uint64_t i) {
            std::ifstream is(path, std::ios::binary);
            if (!is)
                throw std::runtime_error("cannot open " + path);
            trace::readShardInto(is, plan, static_cast<std::size_t>(i),
                                 data.records.data() +
                                     plan.shards[i].first_record);
        });
    });
    if (ingest_rss_mb)
        *ingest_rss_mb = rssMb() - rss0;
    ta::Analysis a{s.run("ta.model",
                         [&] { return ta::buildModelParallel(data, *pool); }),
                   {},
                   {}};
    a.intervals = s.run("ta.intervals", [&] {
        return ta::buildIntervalsParallel(a.model, *pool);
    });
    a.stats = s.run("ta.stats", [&] {
        return ta::buildStatsParallel(a.model, a.intervals, *pool);
    });
    s.run("ta.release", [&] {
        pool.reset();
        data = {};
    });
    return a;
}

/** `ta [--salvage] --threads N summary`: the CLI's load() then
 *  printSummary. @p rss0 is the resident set before the op. */
std::string
summaryOp(Op op, const Inputs& in, unsigned threads, double rss0, Steps& s,
          Extra& extra)
{
    const std::string& path = op == Op::SummaryV1 ? in.a_v2 : in.a_v3;
    ta::Analysis a;
    if (op == Op::SummarySerial) {
        // analyzeFile: the serial reader and builders.
        trace::TraceData data =
            s.run("trace.ingest", [&] { return trace::readFile(path); });
        extra["ingest.rss_mb"] = rssMb() - rss0;
        a.model =
            s.run("ta.model", [&] { return ta::TraceModel::build(data); });
        a.intervals = s.run("ta.intervals", [&] {
            return ta::IntervalSet::build(a.model);
        });
        a.stats = s.run("ta.stats", [&] {
            return ta::TraceStats::build(a.model, a.intervals);
        });
        s.run("ta.release", [&] { data = {}; });
    } else if (op == Op::Salvage) {
        // analyzeFileSalvageParallel: serial salvage read, then the
        // lenient parallel analysis on a fresh pool.
        trace::ReadReport report;
        trace::TraceData data = s.run("trace.ingest", [&] {
            return trace::readFileSalvage(path, report);
        });
        extra["ingest.rss_mb"] = rssMb() - rss0;
        std::optional<ta::WorkerPool> pool;
        a.model = s.run("ta.model", [&] {
            pool.emplace(threads);
            return ta::buildModelParallel(data, *pool, /*lenient=*/true);
        });
        a.intervals = s.run("ta.intervals", [&] {
            return ta::buildIntervalsParallel(a.model, *pool);
        });
        a.stats = s.run("ta.stats", [&] {
            return ta::buildStatsParallel(a.model, a.intervals, *pool);
        });
        s.run("ta.release", [&] {
            pool.reset();
            data = {};
        });
    } else {
        a = parallelFile(path, threads, s, rss0, &extra["ingest.rss_mb"]);
    }
    extra["stats.rss_mb"] = rssMb() - rss0;
    std::string out = s.run("ta.render", [&] {
        std::ostringstream os;
        ta::printSummary(os, a);
        return os.str();
    });
    s.run("ta.release", [&] { a = {}; });
    return out;
}

std::string
runOp(const Task& t, const Inputs& in, const Config& cfg, double rss0,
      Steps& s, Extra& extra)
{
    const unsigned threads = t.op == Op::SummarySerial ? 1 : cfg.threads;
    switch (t.op) {
      case Op::Summary:
      case Op::SummaryV1:
      case Op::SummarySerial:
      case Op::Salvage:
        return summaryOp(t.op, in, threads, rss0, s, extra);
      case Op::Diff: {
        // diffFiles: both sides through analyzeFileParallel.
        ta::Analysis a = parallelFile(in.a_v3, threads, s);
        ta::Analysis b = parallelFile(in.b_v3, threads, s);
        const ta::DiffResult d =
            s.run("ta.diff", [&] { return ta::diffAnalyses(a, b); });
        std::string out =
            s.run("ta.render", [&] { return ta::diffReport(d); });
        s.run("ta.release", [&] {
            a = {};
            b = {};
        });
        return out;
      }
      case Op::Window:
      case Op::WindowWide: {
        const WindowRef& w =
            t.op == Op::Window ? in.narrow[t.index] : in.wide[t.index];
        ta::BlockCache cache; // each CLI process starts cold
        ta::QueryOptions q;
        q.threads = threads;
        q.cache = &cache;
        const ta::WindowResult r = s.run("ta.query", [&] {
            return ta::queryWindowFile(in.a_v3, w.from, w.to, q);
        });
        std::string out =
            s.run("ta.render", [&] { return ta::windowReport(r); });
        extra["records_scanned"] = static_cast<double>(r.records_scanned);
        extra["index_hit_ratio"] = r.used_index ? 1.0 : 0.0;
        extra["cache_misses"] = static_cast<double>(cache.stats().misses);
        return out;
      }
      case Op::Convert: {
        const trace::TraceData data =
            s.run("trace.read", [&] { return trace::readFile(in.a_v2); });
        trace::WriteOptions wopt;
        wopt.compress = true;
        const trace::IndexReadResult ir = s.run(
            "trace.index", [&] { return trace::readIndexFile(in.a_v2); });
        if (ir.valid)
            wopt.index_stride = ir.index.header.stride;
        const trace::BlockRegionProbe probe = s.run("trace.write", [&] {
            trace::writeFile(in.out_convert, data, wopt);
            return trace::probeBlockRegionFile(in.out_convert);
        });
        extra["out_bytes"] = static_cast<double>(fileSize(in.out_convert));
        return "converted " + std::to_string(data.records.size()) +
               " records -> " + in.out_convert + " (" +
               (probe.present ? "v3 compressed" : "v1") +
               (wopt.index_stride
                    ? ", index stride " + std::to_string(wopt.index_stride)
                    : std::string()) +
               ")\n";
      }
      case Op::Slice: {
        const trace::TraceData src =
            s.run("trace.read", [&] { return trace::readFile(in.a_v3); });
        const trace::TraceData cut = s.run("trace.slice", [&] {
            return trace::slice(src, in.slice_from, in.slice_to,
                                ta::surgeryOpSemantics());
        });
        s.run("trace.write", [&] {
            trace::WriteOptions wopt;
            wopt.compress = true;
            trace::writeFile(in.out_slice, cut, wopt);
        });
        return "sliced " + std::to_string(src.records.size()) + " -> " +
               std::to_string(cut.records.size()) + " records [" +
               std::to_string(in.slice_from) + ", " +
               std::to_string(in.slice_to) + ") -> " + in.out_slice + "\n";
      }
      case Op::Record: {
        std::string out;
        for (std::size_t i = 0; i < kRecordWorkloads.size(); ++i) {
            out += recordInProcess(kRecordWorkloads[i], in.out_record, s);
            if (fileDigest(in.out_record) != in.record[i].digest)
                throw std::runtime_error(kRecordWorkloads[i] +
                                         ": output file differs");
        }
        return out;
      }
      case Op::kCount:
        break;
    }
    throw std::logic_error("bench_e2e: unknown op");
}

/** Written files must match too; the record op checks its own. */
bool
outputFileMatches(const Task& t, const Inputs& in)
{
    if (t.op == Op::Convert)
        return fileDigest(in.out_convert) == in.convert_digest;
    if (t.op == Op::Slice)
        return fileDigest(in.out_slice) == in.slice_digest;
    return true;
}

template <typename F>
double
probeMs(F&& f)
{
    std::vector<double> ms;
    for (int i = 0; i <= 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        f();
        if (i > 0) // the first repetition warms the page cache
            ms.push_back(msSince(t0));
    }
    return median(ms);
}

} // namespace

std::string
recordInProcess(const std::string& name, const std::string& out, Steps& s)
{
    std::unique_ptr<rt::CellSystem> sys;
    std::unique_ptr<pdt::Pdt> tracer;
    std::unique_ptr<wl::WorkloadBase> w;
    s.run("sim.run", [&] {
        sys = std::make_unique<rt::CellSystem>();
        tracer = std::make_unique<pdt::Pdt>(*sys, pdt::PdtConfig{});
        w = makeWorkload(name, *sys);
        w->start();
        sys->run();
    });
    if (!s.run("wl.verify", [&] { return w->verify(); }))
        throw std::runtime_error(name + ": workload verification FAILED");
    const trace::TraceData data =
        s.run("pdt.finalize", [&] { return tracer->finalize(); });
    s.run("trace.write", [&] {
        trace::WriteOptions wopt;
        wopt.compress = true;
        trace::writeFile(out, data, wopt);
    });
    return "recorded " + std::to_string(data.records.size()) + " records (" +
           std::to_string(data.records.size() * sizeof(trace::Record)) +
           " bytes, v3 compressed) in " + std::to_string(w->elapsed()) +
           " cycles -> " + out + "\n";
}

TracedOutcome
runTraced(const WorkloadSpec& w, const Inputs& in, const Config& cfg,
          double seconds, std::uint64_t min_rounds,
          std::vector<Span>& spans)
{
    TracedOutcome out;
    const auto runRound = [&](std::uint64_t round, bool timed) {
        const double calibration = calibrationMs();
        if (timed)
            out.calibration_ms.push_back(calibration);
        for (const Task& t : roundTasks(round, in.narrow.size(),
                                        in.wide.size())) {
            // The command first, so that startup_ms compares the two
            // at one host speed.
            CliResult cli = runCliOp(t, in, cfg);
            out.attempted += cli.commands;
            out.failed += cli.errors.size();
            for (std::string& e : cli.errors) {
                if (out.errors.size() < 8)
                    out.errors.push_back(std::move(e));
            }

            Span op_span;
            op_span.id = nextSpanId();
            op_span.workload = w.name;
            op_span.round = round;
            op_span.name = opName(t.op);
            Steps s(op_span);
            Extra extra;
            std::string output;
            std::string error;
#if defined(__GLIBC__)
            // Start every op from a trimmed heap, as a fresh process
            // does, so the rss figures are the op's own.
            ::malloc_trim(0);
#endif
            const double rss0 = rssMb();
            const Clock::time_point t0 = Clock::now();
            try {
                output = runOp(t, in, cfg, rss0, s, extra);
            } catch (const std::exception& e) {
                error = e.what();
            }
            const Clock::time_point t1 = Clock::now();
            if (error.empty() && output != expectedStdout(t, in))
                error = "output differs from the reference";
            if (error.empty() && !outputFileMatches(t, in))
                error = "output file differs from the reference";
            out.attempted += 1;
            if (!error.empty()) {
                out.failed += 1;
                if (out.errors.size() < 8)
                    out.errors.push_back(std::string("traced ") +
                                         opName(t.op) + ": " + error);
            }
            if (!timed)
                continue;
            op_span.start_us = usSinceStart(t0);
            op_span.dur_us = usSinceStart(t1) - op_span.start_us;
            spans.push_back(op_span);
            spans.insert(spans.end(), s.spans.begin(), s.spans.end());

            const double self = op_span.dur_us / 1e3;
            const double scale = kReferenceCalibrationMs / calibration;
            double covered = 0;
            auto& steps = out.steps[static_cast<std::size_t>(t.op)];
            for (const auto& [name, ms] : s.ms) {
                steps[name + "_ms"].push_back(ms * scale);
                covered += ms;
            }
            for (const auto& [name, v] : extra)
                steps[name].push_back(v);
            steps["self_ms"].push_back(self * scale);
            steps["startup_ms"].push_back((cli.wall_ms - self) * scale);
            steps["coverage"].push_back(self > 0 ? covered / self : 0);
        }
    };

    out.rounds = runRounds(runRound, cfg.warmup_seconds, seconds, min_rounds);

    out.block_drain_ms = probeMs([&] {
        trace::BlockReader br(in.a_v3);
        trace::DecodedBlock blk;
        std::uint64_t n = 0;
        while (br.next(blk))
            n += blk.records.size();
        if (n == 0)
            throw std::runtime_error("block drain read no records");
    });
    out.v1_read_ms = probeMs([&] {
        if (trace::readFile(in.a_v2).records.empty())
            throw std::runtime_error("v1 read found no records");
    });
    return out;
}

} // namespace cell::bench_e2e
