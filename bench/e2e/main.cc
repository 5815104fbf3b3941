/**
 * @file
 * bench_e2e — times the shipped `ta` and `pdt_record` commands on
 * seeded workloads and, with --trace 1, attributes their time to the
 * library layers in a separate traced pass.
 *
 *   bench_e2e [--workload even|skew|small|all] [--seed N] [--seconds S]
 *             [--trace 0|1] [--smoke] [--out result.json]
 *             [--spans spans.json] [--rev REVISION]
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and the metrics (the end-to-end set with --trace 0, the
 * per-layer set with --trace 1). --out writes the same metrics with
 * the host metadata and per-op diagnostics; --spans writes the traced
 * pass's spans. --smoke runs one CLI round and three traced rounds on
 * 20k-record inputs and exits nonzero on any mismatch, missing metric,
 * span coverage below 0.95, startup_ms not above 0 or a peak_rss_mb not
 * below the driver's own peak. See README.md.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <unistd.h>

#include "bench.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_E2E_COMPILER
#define BENCH_E2E_COMPILER "unknown"
#endif

namespace cell::bench_e2e {

namespace {

const Clock::time_point kStart = Clock::now();

// Why each workload exists: README.md "Workloads".
const WorkloadSpec kWorkloads[] = {
    {"even", trace::gen::Scenario::MultiCore, 8, 500'000},
    {"skew", trace::gen::Scenario::SparseCores, 6, 250'000},
    {"small", trace::gen::Scenario::MultiCore, 8, 25'000},
};

constexpr std::uint64_t kSmokeRecords = 20'000;
/** setup_s is the median of at least this many set-ups, repeated until
 *  kMinSetupSeconds have passed: one 11 ms set-up of `small` is mostly
 *  noise. */
constexpr unsigned kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 1.5;
constexpr std::uint64_t kTracedRounds = 5;
/** Smoke checks startup_ms > 0 and coverage on medians of three
 *  instances: one instance of a 5 ms op is one preemption away from
 *  failing either. */
constexpr std::uint64_t kSmokeTracedRounds = 3;
constexpr double kWarmupSeconds = 2;
constexpr double kMinCoverage = 0.95;

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** Metric name suffixes per op in the traced pass, with units. */
std::vector<std::pair<std::string, std::string>>
layerSteps(Op op)
{
    std::vector<std::pair<std::string, std::string>> s;
    switch (op) {
      case Op::Summary:
      case Op::SummaryV1:
      case Op::SummarySerial:
      case Op::Salvage:
        s = {{"trace.ingest_ms", "ms"}, {"ta.model_ms", "ms"},
             {"ta.intervals_ms", "ms"}, {"ta.stats_ms", "ms"},
             {"ta.render_ms", "ms"},    {"ingest.rss_mb", "MiB"},
             {"stats.rss_mb", "MiB"}};
        break;
      case Op::Diff:
        s = {{"trace.ingest_ms", "ms"}, {"ta.model_ms", "ms"},
             {"ta.intervals_ms", "ms"}, {"ta.stats_ms", "ms"},
             {"ta.diff_ms", "ms"},      {"ta.render_ms", "ms"}};
        break;
      case Op::Window:
      case Op::WindowWide:
        s = {{"ta.query_ms", "ms"},
             {"ta.render_ms", "ms"},
             {"records_scanned", "count"},
             {"index_hit_ratio", "ratio"},
             {"cache_misses", "count"}};
        break;
      case Op::Convert:
        s = {{"trace.read_ms", "ms"},
             {"trace.index_ms", "ms"},
             {"trace.write_ms", "ms"},
             {"out_bytes", "bytes"}};
        break;
      case Op::Slice:
        s = {{"trace.read_ms", "ms"},
             {"trace.slice_ms", "ms"},
             {"trace.write_ms", "ms"}};
        break;
      case Op::Record:
        s = {{"sim.run_ms", "ms"},
             {"wl.verify_ms", "ms"},
             {"pdt.finalize_ms", "ms"},
             {"trace.write_ms", "ms"}};
        break;
      case Op::kCount:
        break;
    }
    s.insert(s.end(),
             {{"self_ms", "ms"}, {"startup_ms", "ms"}, {"coverage", "ratio"}});
    return s;
}

double
mean(const std::vector<double>& v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/** Nearest-rank percentile of sorted @p v. */
double
percentile(const std::vector<double>& sorted, double p)
{
    const std::size_t n = sorted.size();
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return sorted[std::min(n, std::max<std::size_t>(rank, 1)) - 1];
}

/** Sample count, p50 and the highest of p90/p99/p99.9 with at least
 *  ten samples beyond it (p50 when none has). */
struct Diagnostic
{
    std::size_t n = 0;
    double p50 = 0;
    std::string tail = "p50";
    double tail_ms = 0;
};

Diagnostic
diagnose(std::vector<double> v)
{
    Diagnostic d;
    d.n = v.size();
    if (v.empty())
        return d;
    std::sort(v.begin(), v.end());
    d.p50 = percentile(v, 50);
    d.tail_ms = d.p50;
    static const std::pair<const char*, double> kTails[] = {
        {"p90", 90.0}, {"p99", 99.0}, {"p99.9", 99.9}};
    for (const auto& [name, p] : kTails) {
        if (static_cast<double>(d.n) * (100.0 - p) / 100.0 < 10)
            break;
        d.tail = name;
        d.tail_ms = percentile(v, p);
    }
    return d;
}

/** Shortest round-trip text of @p v; null when it is not finite (a
 *  failed run), which JSON cannot hold as a number. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric>& ms, const std::string& prefix = "")
{
    std::string out;
    for (const Metric& m : ms) {
        out += (out.empty() ? "" : ", ") + quote(prefix + m.name) +
               ": {\"value\": " + num(m.value) + ", \"unit\": " +
               quote(m.unit) + "}";
    }
    return out;
}

/** Field 8 of /proc/stat's "cpu" line: time stolen by the hypervisor. */
std::uint64_t
stealJiffies()
{
    std::ifstream is("/proc/stat");
    std::string cpu;
    std::uint64_t f[8] = {};
    is >> cpu;
    for (std::uint64_t& x : f)
        is >> x;
    return f[7];
}

/** VmHWM of /proc/self/status: this process's peak resident set, MiB. */
double
driverHwmMb()
{
    std::ifstream is("/proc/self/status");
    std::string key;
    double kb = 0;
    while (is >> key) {
        if (key == "VmHWM:" && is >> kb)
            return kb / 1024.0;
        is.ignore(1 << 20, '\n');
    }
    return std::nan("");
}

std::string
loadAverage()
{
    std::ifstream is("/proc/loadavg");
    std::string a, b, c;
    is >> a >> b >> c;
    return a + " " + b + " " + c;
}

struct Args
{
    std::vector<const WorkloadSpec*> workloads;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    bool smoke = false;
    std::string out, spans, rev = "unknown";
};

int
usage(const std::string& why)
{
    std::cerr << "bench_e2e: " << why << "\n"
              << "usage: bench_e2e [--workload even|skew|small|all] "
                 "[--seed N] [--seconds S]\n"
                 "                 [--trace 0|1] [--smoke] [--out FILE] "
                 "[--spans FILE] [--rev REV]\n";
    return 2;
}

bool
parseArgs(int argc, char** argv, Args& a, std::string& err)
{
    std::string workload = "all";
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            err = "missing value for " + f;
            return false;
        }
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (f == "--workload")
                workload = v;
            else if (f == "--seed")
                a.seed = std::stoull(v, &used);
            else if (f == "--seconds")
                a.seconds = std::stod(v, &used);
            else if (f == "--trace" && (v == "0" || v == "1"))
                a.trace = v == "1";
            else if (f == "--out")
                a.out = v;
            else if (f == "--spans")
                a.spans = v;
            else if (f == "--rev")
                a.rev = v;
            else {
                err = "bad flag or value: " + f + " " + v;
                return false;
            }
            if (used != 0 && used != v.size()) {
                err = "bad number: " + v;
                return false;
            }
        } catch (const std::exception&) {
            err = "bad number: " + v;
            return false;
        }
    }
    if (!(a.seconds >= 0) || a.seconds > 3600) {
        err = "--seconds must be in [0, 3600]";
        return false;
    }
    for (const WorkloadSpec& w : kWorkloads) {
        if (workload == "all" || workload == w.name)
            a.workloads.push_back(&w);
    }
    if (a.workloads.empty()) {
        err = "unknown workload: " + workload;
        return false;
    }
    return true;
}

/** Everything one workload reported. */
struct WorkloadResult
{
    std::string name;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, Diagnostic>> ops;
    std::map<std::string, std::uint64_t> counts;
    std::uint64_t cli_rounds = 0, traced_rounds = 0;
    std::uint64_t setup_reps = 0;
    std::uint64_t attempted = 0, failed = 0;
    double driver_hwm_mb = 0;
    std::uint64_t steal = 0;
    std::string load_start, load_end;
    double calibration_ms = 0; ///< median kernel time of the run
    /** Reference over median kernel time: scales the probes; every
     *  other time is scaled by the kernel run beside it. */
    double time_scale = 1;
    std::vector<std::string> errors;
    std::vector<std::string> problems; ///< smoke-mode findings
};

/** Op times come scaled by their rounds' kernel; set-up is scaled by
 *  the kernel runs of the set-up phase. */
std::vector<Metric>
endToEndMetrics(const SetupTimes& setup, const CliOutcome& cli)
{
    std::vector<Metric> m{{"setup_s", "s",
                           median(setup.secs) * kReferenceCalibrationMs /
                               median(setup.calibration_ms)}};
    for (std::size_t i = 0; i < kNumOps; ++i) {
        m.push_back({std::string(opName(static_cast<Op>(i))) + "_ms", "ms",
                     median(cli.scaled_ms[i])});
    }
    m.push_back({"peak_rss_mb", "MiB", median(cli.round_peak_rss_mb)});
    m.push_back({"bytes_per_record", "bytes", cli.bytes_per_record});
    return m;
}

std::vector<Metric>
perLayerMetrics(const TracedOutcome& tr, double scale,
                std::vector<std::string>& problems)
{
    std::vector<Metric> m;
    for (std::size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        const auto& steps = tr.steps[i];
        for (const auto& [suffix, unit] : layerSteps(op)) {
            const std::string name = std::string(opName(op)) + "." + suffix;
            if (!steps.count(suffix)) {
                problems.push_back("missing metric " + name);
                continue;
            }
            const auto& xs = steps.at(suffix);
            const double v =
                suffix == "index_hit_ratio" ? mean(xs) : median(xs);
            if (suffix == "coverage" && v < kMinCoverage)
                problems.push_back(name + " = " + num(v) + " < " +
                                   num(kMinCoverage));
            // A command cannot take less than its own work in process.
            if (suffix == "startup_ms" && !(v > 0))
                problems.push_back(name + " = " + num(v) + " <= 0");
            m.push_back({name, unit, v});
        }
    }
    // The probes run after the rounds: the run's median kernel time
    // scales them.
    m.push_back(
        {"probe.trace.block_drain_ms", "ms", tr.block_drain_ms * scale});
    m.push_back({"probe.trace.v1_read_ms", "ms", tr.v1_read_ms * scale});
    return m;
}

WorkloadResult
runWorkload(const WorkloadSpec& spec, const Args& args, const Config& cfg,
            const std::string& dir, std::vector<Span>& spans)
{
    WorkloadResult r;
    r.name = spec.name;
    WorkloadSpec w = spec;
    if (args.smoke)
        w.records = kSmokeRecords;
    std::filesystem::create_directories(dir);
    const std::uint64_t steal0 = stealJiffies();
    r.load_start = loadAverage();

    // Set-up is timed once in a traced run, which does not report it.
    const bool one_setup = args.smoke || args.trace;
    Inputs in;
    const SetupTimes setup =
        setupInputs(w, args.seed, dir, one_setup ? 1 : kMinSetupReps,
                    one_setup ? 0 : kMinSetupSeconds, in);
    computeReferences(args.seed, in);
    r.counts = in.counts;
    r.setup_reps = setup.secs.size();

    const bool untraced = !args.trace || args.smoke;
    const bool traced = args.trace || args.smoke;
    CliOutcome cli;
    if (untraced) {
        cli = runCli(in, cfg, args.smoke ? 0 : args.seconds);
        r.cli_rounds = cli.rounds;
        r.attempted += cli.attempted;
        r.failed += cli.failed;
        r.errors = cli.errors;
        for (std::size_t i = 0; i < kNumOps; ++i)
            r.ops.emplace_back(opName(static_cast<Op>(i)),
                               diagnose(cli.wall_ms[i]));
    }

    TracedOutcome tr;
    if (traced) {
        tr = runTraced(w, in, cfg, args.smoke ? 0 : args.seconds,
                       args.smoke ? kSmokeTracedRounds : kTracedRounds,
                       spans);
        r.traced_rounds = tr.rounds;
        r.attempted += tr.attempted;
        r.failed += tr.failed;
        r.errors.insert(r.errors.end(), tr.errors.begin(), tr.errors.end());
    }
    std::vector<double> calibration = cli.calibration_ms;
    calibration.insert(calibration.end(), tr.calibration_ms.begin(),
                       tr.calibration_ms.end());
    r.calibration_ms = median(calibration);
    r.time_scale = kReferenceCalibrationMs / r.calibration_ms;
    r.driver_hwm_mb = driverHwmMb();
    if (untraced) {
        r.metrics = endToEndMetrics(setup, cli);
        // The commands' peak must be their own, not the driver's
        // (cli.cc): the driver holds the inputs and references.
        const double peak = median(cli.round_peak_rss_mb);
        if (!(peak < r.driver_hwm_mb))
            r.problems.push_back("peak_rss_mb " + num(peak) +
                                 " is not below the driver's VmHWM " +
                                 num(r.driver_hwm_mb));
    }
    if (traced) {
        const std::vector<Metric> layer =
            perLayerMetrics(tr, r.time_scale, r.problems);
        r.metrics.insert(r.metrics.end(), layer.begin(), layer.end());
    }
    for (const Metric& m : r.metrics) {
        if (!std::isfinite(m.value))
            r.problems.push_back("metric " + m.name + " is not finite");
    }
    for (const std::string& e : r.errors)
        r.problems.push_back(e);

    r.steal = stealJiffies() - steal0;
    r.load_end = loadAverage();
    std::filesystem::remove_all(dir);
    return r;
}

void
printHuman(const WorkloadResult& r)
{
    std::cout << "== " << r.name << ": " << r.cli_rounds << " CLI round(s), "
              << r.traced_rounds << " traced round(s), " << r.setup_reps
              << " set-up(s), " << r.attempted << " attempted, " << r.failed
              << " failed, " << r.steal << " steal jiffies, driver VmHWM "
              << r.driver_hwm_mb << " MiB, median calibration "
              << r.calibration_ms << " ms (op p50s below are raw)\n";
    for (const auto& [op, d] : r.ops) {
        std::cout << "   " << op << ": n=" << d.n << " p50=" << d.p50
                  << " ms " << d.tail << "=" << d.tail_ms << " ms\n";
    }
    for (const auto& [name, v] : r.counts)
        std::cout << "   " << name << " = " << v << "\n";
    for (const Metric& m : r.metrics)
        std::cout << "   " << m.name << " = " << num(m.value) << " " << m.unit
                  << "\n";
    for (const std::string& e : r.errors)
        std::cout << "   FAILED " << e << "\n";
}

void
writeResultFile(const std::string& path, const Args& args, const Config& cfg,
                const std::vector<WorkloadResult>& results)
{
    std::ofstream os(path);
    os << "{\n  \"schema\": \"bench_e2e/1\",\n"
       << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"threads\": " << cfg.threads
       << ", \"build_type\": " << quote(BENCH_E2E_BUILD_TYPE)
       << ", \"compiler\": " << quote(BENCH_E2E_COMPILER)
       << ", \"git_rev\": " << quote(args.rev) << "},\n"
       << "  \"seed\": " << args.seed << ", \"seconds\": " << num(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"smoke\": " << (args.smoke ? "true" : "false") << ",\n"
       << "  \"workloads\": {";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult& r = results[i];
        os << (i ? "," : "") << "\n    " << quote(r.name) << ": {\n"
           << "      \"rounds\": " << r.cli_rounds
           << ", \"traced_rounds\": " << r.traced_rounds
           << ", \"setup_reps\": " << r.setup_reps
           << ", \"driver_hwm_mb\": " << num(r.driver_hwm_mb)
           << ", \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed
           << ", \"steal_jiffies\": " << r.steal
           << ", \"loadavg_start\": " << quote(r.load_start)
           << ", \"loadavg_end\": " << quote(r.load_end)
           << ", \"calibration_ms\": " << num(r.calibration_ms)
           << ", \"time_scale\": " << num(r.time_scale) << ",\n"
           << "      \"metrics\": {" << metricsJson(r.metrics) << "},\n"
           << "      \"inputs\": {";
        bool first = true;
        for (const auto& [name, v] : r.counts) {
            os << (first ? "" : ", ") << quote(name) << ": " << v;
            first = false;
        }
        os << "},\n      \"ops\": {";
        first = true;
        for (const auto& [op, d] : r.ops) {
            os << (first ? "" : ", ") << quote(op) << ": {\"n\": " << d.n
               << ", \"p50_ms\": " << num(d.p50)
               << ", \"tail\": " << quote(d.tail)
               << ", \"tail_ms\": " << num(d.tail_ms) << "}";
            first = false;
        }
        os << "}\n    }";
    }
    os << "\n  }\n}\n";
}

void
writeSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream os(path);
    os << "{\"schema\": \"bench_e2e.spans/1\", \"clock\": \"steady_clock\", "
          "\"unit\": \"us\", \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        os << (i ? "," : "") << "\n  {\"id\": " << s.id
           << ", \"parent\": " << s.parent
           << ", \"workload\": " << quote(s.workload)
           << ", \"round\": " << s.round << ", \"name\": " << quote(s.name)
           << ", \"start_us\": " << num(s.start_us)
           << ", \"dur_us\": " << num(s.dur_us) << "}";
    }
    os << "\n]}\n";
}

} // namespace

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
usSinceStart(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - kStart).count();
}

std::uint32_t
nextSpanId()
{
    static std::uint32_t next = 0;
    return ++next;
}

void
Steps::add(const char* name, Clock::time_point t0, Clock::time_point t1)
{
    const double dur_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ms[name] += dur_ms;
    Span s = proto_;
    s.parent = proto_.id;
    s.id = nextSpanId();
    s.name = name;
    s.start_us = usSinceStart(t0);
    s.dur_us = dur_ms * 1e3;
    spans.push_back(std::move(s));
}

double
calibrationMs()
{
    static const std::vector<std::uint64_t> keys = [] {
        std::vector<std::uint64_t> k(500'000);
        std::uint64_t s = 0x9E3779B97F4A7C15ull;
        for (std::uint64_t& x : k) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            x = s;
        }
        return k;
    }();
    std::vector<std::uint64_t> v = keys;
    const Clock::time_point t0 = Clock::now();
    std::sort(v.begin(), v.end());
    const double ms = msSince(t0);
    if (!std::is_sorted(v.begin(), v.end()))
        throw std::logic_error("calibration sort failed");
    return ms;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const char*
opName(Op op)
{
    switch (op) {
      case Op::Summary: return "summary";
      case Op::SummaryV1: return "summary_v1";
      case Op::SummarySerial: return "summary_serial";
      case Op::Salvage: return "salvage";
      case Op::Diff: return "diff";
      case Op::Window: return "window";
      case Op::WindowWide: return "window_wide";
      case Op::Convert: return "convert";
      case Op::Slice: return "slice";
      case Op::Record: return "record";
      case Op::kCount: break;
    }
    return "?";
}

const std::vector<std::string> kRecordWorkloads = {
    "triad",     "triad1",           "triad3",   "matmul",
    "matmul-skewed", "conv2d",       "fft",      "reduction",
    "reduction-chatty", "pipeline",  "gather",
};

std::uint64_t
runRounds(const std::function<void(std::uint64_t, bool)>& run_round,
          double warmup_seconds, double seconds, std::uint64_t min_rounds)
{
    const Clock::time_point w0 = Clock::now();
    do
        run_round(0, false);
    while (msSince(w0) < warmup_seconds * 1e3);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t n = 0;
    do
        run_round(++n, true);
    while (n < min_rounds || msSince(t0) < seconds * 1e3);
    return n;
}

std::vector<Task>
roundTasks(std::uint64_t round, std::size_t n_narrow, std::size_t n_wide)
{
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (op == Op::Window) {
            for (unsigned k = 0; k < kNarrowPerRound; ++k)
                tasks.push_back({op, (round * kNarrowPerRound + k) % n_narrow});
        } else if (op == Op::WindowWide) {
            for (unsigned k = 0; k < kWidePerRound; ++k)
                tasks.push_back({op, (round * kWidePerRound + k) % n_wide});
        } else {
            tasks.push_back({op, 0});
        }
    }
    const auto shift = static_cast<std::ptrdiff_t>(round % tasks.size());
    std::rotate(tasks.begin(), tasks.begin() + shift, tasks.end());
    return tasks;
}

} // namespace cell::bench_e2e

int
main(int argc, char** argv)
{
    using namespace cell::bench_e2e;
    Args args;
    std::string err;
    if (!parseArgs(argc, argv, args, err))
        return usage(err);

    const std::filesystem::path exe =
        std::filesystem::read_symlink("/proc/self/exe").parent_path();
    Config cfg;
    cfg.threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    cfg.ta = (exe / "tools" / "ta").string();
    cfg.pdt_record = (exe / "tools" / "pdt_record").string();
    cfg.warmup_seconds = args.smoke ? 0 : kWarmupSeconds;
    for (const std::string& bin : {cfg.ta, cfg.pdt_record}) {
        if (::access(bin.c_str(), X_OK) != 0) {
            std::cerr << "bench_e2e: missing " << bin << "\n";
            return 1;
        }
    }
    const std::filesystem::path work =
        exe / "work" / std::to_string(::getpid());

    std::vector<WorkloadResult> results;
    std::vector<Span> spans;
    try {
        startSpawner();
        for (const WorkloadSpec* w : args.workloads) {
            results.push_back(runWorkload(*w, args, cfg,
                                          (work / w->name).string(), spans));
            printHuman(results.back());
        }
    } catch (const std::exception& e) {
        stopSpawner();
        std::filesystem::remove_all(work);
        std::cerr << "bench_e2e: " << e.what() << "\n";
        return 1;
    }
    stopSpawner();
    std::filesystem::remove_all(work);

    if (!args.out.empty())
        writeResultFile(args.out, args, cfg, results);
    if (!args.spans.empty())
        writeSpans(args.spans, spans);

    std::uint64_t attempted = 0, failed = 0;
    std::string metrics;
    std::vector<std::string> problems;
    for (const WorkloadResult& r : results) {
        attempted += r.attempted;
        failed += r.failed;
        const std::string m = metricsJson(
            r.metrics, results.size() > 1 ? r.name + "/" : std::string());
        metrics += (metrics.empty() || m.empty() ? "" : ", ") + m;
        for (const std::string& p : r.problems)
            problems.push_back(r.name + ": " + p);
    }
    for (const std::string& p : problems)
        std::cerr << "bench_e2e: " << (args.smoke ? "smoke: " : "note: ")
                  << p << "\n";
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {" << metrics << "}}" << std::endl;
    return args.smoke && !problems.empty() ? 1 : 0;
}
