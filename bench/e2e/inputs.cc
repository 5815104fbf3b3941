/**
 * @file
 * Workload set-up and reference outputs. Inputs come from the seeded
 * generator and are written with the public writer; references come
 * from the in-process analyzer on the generated traces, never from the
 * files the commands read.
 */

#include <algorithm>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>
#include <unistd.h>

#include "bench.h"
#include "ta/analyzer.h"
#include "ta/compare.h"
#include "ta/intervals.h"
#include "ta/query.h"
#include "trace/replay.h"
#include "trace/surgery.h"
#include "trace/writer.h"

namespace cell::bench_e2e {

namespace {

/** Footer-index stride of A.v2 and A.v3 (records per core). */
constexpr std::uint32_t kIndexStride = 1024;

/** The `trace_gen --perturb` rule: delay every core from the median
 *  placed event time by a quarter of the span. */
trace::DelayOptions
perturbRule(const trace::TraceData& a)
{
    std::vector<trace::ClockReplay> clk(a.header.num_spes + 1);
    std::vector<std::uint64_t> prev(a.header.num_spes + 1, 0);
    std::vector<std::uint64_t> times;
    times.reserve(a.records.size());
    for (const trace::Record& rec : a.records) {
        if (rec.core >= clk.size())
            continue;
        std::uint64_t t = 0;
        if (!clk[rec.core].feed(rec, t))
            continue;
        t = std::max(t, prev[rec.core]);
        prev[rec.core] = t;
        times.push_back(t);
    }
    if (times.size() < 2)
        throw std::runtime_error("bench_e2e: too few events to perturb");
    const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
    trace::DelayOptions d;
    d.at = times[times.size() / 2];
    d.delta = (*hi - *lo) / 4 + 64;
    return d;
}

/** splitmix64: the window positions derive from the seed alone. */
std::uint64_t
splitmix(std::uint64_t& s)
{
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<WindowRef>
seededWindows(const ta::Analysis& a, std::uint64_t& rng, std::uint64_t count,
              std::uint64_t divisor)
{
    const std::uint64_t start = a.model.startTb();
    const std::uint64_t span = a.model.spanTb();
    const std::uint64_t width = std::max<std::uint64_t>(1, span / divisor);
    std::vector<WindowRef> out(count);
    for (WindowRef& w : out) {
        w.from = start + splitmix(rng) % (span > width ? span - width : 1);
        w.to = w.from + width;
        w.report = ta::windowReport(ta::queryWindow(a, w.from, w.to));
    }
    return out;
}

std::uint64_t
digest(const std::vector<std::uint8_t>& bytes)
{
    return ta::fnv1a64(std::string(bytes.begin(), bytes.end()));
}

void
syncFile(const std::string& path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
        if (fd >= 0)
            ::close(fd);
        throw std::runtime_error("bench_e2e: cannot sync " + path);
    }
    ::close(fd);
}

} // namespace

std::string
expectedStdout(const Task& t, const Inputs& in)
{
    switch (t.op) {
      case Op::Summary:
      case Op::SummaryV1:
      case Op::SummarySerial:
      case Op::Salvage:
        return in.summary;
      case Op::Diff:
        return in.diff;
      case Op::Window:
        return in.narrow[t.index].report;
      case Op::WindowWide:
        return in.wide[t.index].report;
      case Op::Convert:
        return in.convert_stdout;
      case Op::Slice:
        return in.slice_stdout;
      case Op::Record: {
        std::string out;
        for (const RecordRef& r : in.record)
            out += r.stdout_text;
        return out;
      }
      case Op::kCount:
        break;
    }
    throw std::logic_error("bench_e2e: unknown op");
}

std::uint64_t
fileDigest(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return 0;
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    return ta::fnv1a64(bytes);
}

std::uint64_t
fileSize(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

SetupTimes
setupInputs(const WorkloadSpec& w, std::uint64_t seed, const std::string& dir,
            unsigned min_reps, double min_seconds, Inputs& in)
{
    in.dir = dir;
    in.a_v3 = dir + "/A.v3.pdt";
    in.a_v2 = dir + "/A.v2.pdt";
    in.b_v3 = dir + "/B.v3.pdt";
    in.out_convert = dir + "/convert.out.pdt";
    in.out_slice = dir + "/slice.out.pdt";
    in.out_record = dir + "/record.out.pdt";

    trace::gen::GenOptions g;
    g.seed = seed;
    g.scenario = static_cast<int>(w.scenario);
    g.num_spes = w.spes;
    g.records = w.records;
    trace::WriteOptions v3;
    v3.index_stride = kIndexStride;
    v3.compress = true;
    trace::WriteOptions v2;
    v2.index_stride = kIndexStride;

    SetupTimes out;
    const Clock::time_point start = Clock::now();
    while (out.secs.size() < kMaxSetupReps &&
           (out.secs.size() < min_reps ||
            msSince(start) < min_seconds * 1e3)) {
        const Clock::time_point t0 = Clock::now();
        in.a = trace::gen::generate(g);
        trace::writeFile(in.a_v3, in.a, v3);
        trace::writeFile(in.a_v2, in.a, v2);
        in.b = trace::delay(in.a, perturbRule(in.a));
        trace::writeFile(in.b_v3, in.b, v3);
        out.secs.push_back(msSince(t0) / 1e3);
        // Untimed: with the inputs on disk, the kernel's writeback of
        // them cannot land inside the next repetition or a timed round.
        for (const std::string* p : {&in.a_v3, &in.a_v2, &in.b_v3})
            syncFile(*p);
        // The host runs at another speed in a process's first seconds
        // than in the rounds after, so set-up has its own calibration.
        out.calibration_ms.push_back(calibrationMs());
    }
    return out;
}

void
computeReferences(std::uint64_t seed, Inputs& in)
{
    const ta::Analysis a = ta::analyze(in.a);
    const ta::Analysis b = ta::analyze(in.b);
    {
        std::ostringstream os;
        ta::printSummary(os, a);
        in.summary = os.str();
    }
    in.diff = ta::diffReport(ta::diffAnalyses(a, b));

    std::uint64_t rng = seed ^ 0xE2E0B0A7ull;
    const std::uint64_t n_narrow = 8 * kNarrowPerRound;
    const std::uint64_t n_wide = 8 * kWidePerRound;
    in.narrow = seededWindows(a, rng, n_narrow, 1024);
    in.wide = seededWindows(a, rng, n_wide, 16);

    const std::uint64_t n = in.a.records.size();
    in.convert_stdout = "converted " + std::to_string(n) + " records -> " +
                        in.out_convert + " (v3 compressed, index stride " +
                        std::to_string(kIndexStride) + ")\n";
    in.convert_digest = fileDigest(in.a_v3);

    const std::uint64_t start = a.model.startTb();
    const std::uint64_t span = a.model.spanTb();
    in.slice_from = start + span / 4;
    in.slice_to = start + span / 4 * 3;
    const trace::TraceData sliced = trace::slice(
        in.a, in.slice_from, in.slice_to, ta::surgeryOpSemantics());
    trace::WriteOptions compress;
    compress.compress = true;
    in.slice_digest = digest(trace::writeBuffer(sliced, compress));
    in.slice_stdout = "sliced " + std::to_string(n) + " -> " +
                      std::to_string(sliced.records.size()) + " records [" +
                      std::to_string(in.slice_from) + ", " +
                      std::to_string(in.slice_to) + ") -> " + in.out_slice +
                      "\n";

    in.record.clear();
    for (const std::string& name : kRecordWorkloads) {
        Steps untimed;
        RecordRef ref;
        ref.stdout_text = recordInProcess(name, in.out_record, untimed);
        ref.digest = fileDigest(in.out_record);
        in.record.push_back(std::move(ref));
    }

    std::uint64_t max_events = 0;
    for (const ta::CoreTimeline& tl : a.model.cores())
        max_events = std::max<std::uint64_t>(max_events, tl.events.size());
    std::uint64_t max_dma = 0;
    for (const ta::DmaStats& d : a.stats.dma)
        max_dma = std::max(max_dma, d.commands);
    in.counts = {
        {"input.records", n},
        {"input.max_core_events", max_events},
        {"input.max_core_dma_cmds", max_dma},
        {"input.v1_bytes", fileSize(in.a_v2)},
        {"input.v3_bytes", fileSize(in.a_v3)},
        {"slice.out_records", sliced.records.size()},
    };

    in.a = {};
    in.b = {};
}

} // namespace cell::bench_e2e
