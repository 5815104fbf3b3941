/**
 * @file
 * bench_e2e: end-to-end benchmark of the shipped `ta` and `pdt_record`
 * commands, with a separate traced pass that attributes each command's
 * time to the library layers it calls.
 *
 * Every workload is one seeded set of input traces. Each round runs
 * every op of the workload once (the op order rotates from round to
 * round); ops are real CLI processes in the untraced pass and the same
 * library calls, in the same order, in the traced pass. Every output
 * is checked against a reference computed in process. README.md has
 * the metric tables and the reasoning behind each workload.
 */

#ifndef CELL_BENCH_E2E_BENCH_H
#define CELL_BENCH_E2E_BENCH_H

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace/gen.h"

namespace cell::bench_e2e {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

/** The commands a round runs. */
enum class Op : std::uint8_t
{
    Summary,       ///< ta --threads T summary A.v3
    SummaryV1,     ///< ta --threads T summary A.v2
    SummarySerial, ///< ta --threads 1 summary A.v3
    Salvage,       ///< ta --threads T --salvage summary A.v3
    Diff,          ///< ta --threads T diff A.v3 B.v3
    Window,        ///< ta --threads T window A.v3 (1/1024 of the span)
    WindowWide,    ///< ta --threads T window A.v3 (1/16 of the span)
    Convert,       ///< ta convert A.v2 out --compress
    Slice,         ///< ta surgery slice A.v3 out <middle half> --compress
    Record,        ///< pdt_record <w> out --compress, all 11 workloads
    kCount,
};
constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);

const char* opName(Op op);

/** Window queries of each size a round runs. */
constexpr unsigned kNarrowPerRound = 8;
constexpr unsigned kWidePerRound = 2;

/** One op invocation of a round; @c index picks the window. */
struct Task
{
    Op op = Op::Summary;
    std::size_t index = 0;
};

/** Round @p round's tasks, rotated by the round number. */
std::vector<Task> roundTasks(std::uint64_t round, std::size_t n_narrow,
                             std::size_t n_wide);

/** Run untimed warm-up rounds (numbered 0) for @p warmup_seconds,
 *  at least one, then timed rounds numbered from 1 until @p seconds
 *  have passed and at least @p min_rounds ran. Returns the timed
 *  rounds. */
std::uint64_t
runRounds(const std::function<void(std::uint64_t, bool)>& run_round,
          double warmup_seconds, double seconds, std::uint64_t min_rounds);

/** The `pdt_record` workloads of one record sweep. */
extern const std::vector<std::string> kRecordWorkloads;

/** The input shape of one benchmark workload. */
struct WorkloadSpec
{
    const char* name;
    trace::gen::Scenario scenario;
    std::uint32_t spes;
    std::uint64_t records;
};

struct Config
{
    unsigned threads = 1; ///< T = min(4, nproc)
    /** Untimed warm-up before the timed rounds of each pass: a shared
     *  VM runs slow for a second or two after an idle spell. */
    double warmup_seconds = 0;
    std::string ta;       ///< path of the `ta` binary
    std::string pdt_record;
};

/** A window query with its reference report. */
struct WindowRef
{
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    std::string report;
};

/** Reference output of one `pdt_record` run. */
struct RecordRef
{
    std::string stdout_text;
    std::uint64_t digest = 0; ///< FNV-1a of the written file
};

/** One workload's files on disk and the references every output is
 *  checked against. */
struct Inputs
{
    /** The generated traces; released once the references exist. */
    trace::TraceData a, b;

    std::string dir; ///< the workload's working directory
    std::string a_v3, a_v2, b_v3;
    std::string out_convert, out_slice, out_record;

    std::string summary; ///< stdout of every summary op
    std::string diff;
    std::vector<WindowRef> narrow, wide;
    std::uint64_t slice_from = 0, slice_to = 0;
    std::string slice_stdout;
    std::uint64_t slice_digest = 0;
    std::string convert_stdout;
    std::uint64_t convert_digest = 0;
    std::vector<RecordRef> record; ///< parallel to kRecordWorkloads

    /** Exact facts about the input, reported beside the metrics. */
    std::map<std::string, std::uint64_t> counts;
};

/** Seconds of each set-up repetition, and the calibration kernel
 *  timed after each, at the host speed of the set-up phase. */
struct SetupTimes
{
    std::vector<double> secs;
    std::vector<double> calibration_ms;
};

/** Generate and write the workload's inputs (A.v3, A.v2, B.v3) into
 *  @p dir, at least @p min_reps times and until @p min_seconds have
 *  passed (at most kMaxSetupReps). */
SetupTimes setupInputs(const WorkloadSpec& w, std::uint64_t seed,
                       const std::string& dir, unsigned min_reps,
                       double min_seconds, Inputs& in);
constexpr unsigned kMaxSetupReps = 100;

/** Compute every reference output, untimed, from the generated traces
 *  (setupInputs must have run), then release the traces. */
void computeReferences(std::uint64_t seed, Inputs& in);

/** What the command of @p t must print to stdout. */
std::string expectedStdout(const Task& t, const Inputs& in);

std::uint64_t fileDigest(const std::string& path);
std::uint64_t fileSize(const std::string& path);

/**
 * Milliseconds of one run of the calibration kernel: sorting a fixed
 * set of 500k pseudo-random keys in process. The speed of the shared
 * 4-vCPU VM the baselines come from drifts by 10-15% over tens of
 * seconds, alike for every op, and longer runs do not average it out;
 * every round, and every set-up repetition, times the kernel once so
 * that the times measured beside it can be scaled to a reference host
 * speed (README.md).
 */
double calibrationMs();

/** calibrationMs() on the reference host (4-vCPU Xeon VM, Release):
 *  a time t measured beside a kernel run of k ms is reported as
 *  t * kReferenceCalibrationMs / k. */
constexpr double kReferenceCalibrationMs = 40.0;

/** Fork the process that starts every command (cli.cc says why). Call
 *  before building any input and before starting any thread. */
void startSpawner();

/** Close the spawner's pipe and wait for it to exit. */
void stopSpawner();

/** The commands of one op: wall times summed over them, their largest
 *  ru_maxrss and one line per failed command. */
struct CliResult
{
    double wall_ms = 0;
    double maxrss_mb = 0;
    std::uint64_t commands = 0;
    std::vector<std::string> errors;
};

/** Run the command(s) of @p t and check their outputs. */
CliResult runCliOp(const Task& t, const Inputs& in, const Config& cfg);

/** Result of the untraced pass over the real commands. */
struct CliOutcome
{
    std::array<std::vector<double>, kNumOps> wall_ms; ///< timed samples
    /** wall_ms, each scaled by its own round's calibration kernel. */
    std::array<std::vector<double>, kNumOps> scaled_ms;
    std::vector<double> calibration_ms;    ///< one per timed round
    std::vector<double> round_peak_rss_mb; ///< per timed round
    std::uint64_t rounds = 0;              ///< timed rounds
    std::uint64_t attempted = 0;           ///< commands run
    std::uint64_t failed = 0;
    double bytes_per_record = 0;
    std::vector<std::string> errors; ///< first few failures
};

/** The untraced pass: runRounds with CLI processes. */
CliOutcome runCli(const Inputs& in, const Config& cfg, double seconds);

/** One span of the traced pass: an op (parent 0) or a layer step. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string workload;
    std::uint64_t round = 0;
    std::string name;
    double start_us = 0; ///< since the driver started
    double dur_us = 0;
};

/** Microseconds from the driver's start to @p t. */
double usSinceStart(Clock::time_point t);

/**
 * Times the layer steps of one traced op instance. Each step adds its
 * milliseconds to ms[name] and a child span of the op's span (built
 * from @p proto) to spans.
 */
class Steps
{
  public:
    Steps() = default;
    explicit Steps(Span proto) : proto_(std::move(proto)) {}

    template <typename F>
    decltype(auto) run(const char* name, F&& f)
    {
        struct Stop
        {
            Steps& s;
            const char* name;
            Clock::time_point t0 = Clock::now();
            ~Stop() { s.add(name, t0, Clock::now()); }
        } stop{*this, name};
        return f();
    }

    std::map<std::string, double> ms;
    std::vector<Span> spans;

  private:
    void add(const char* name, Clock::time_point t0, Clock::time_point t1);

    Span proto_;
};

/** Next span id (ids start at 1; 0 means "no parent"). */
std::uint32_t nextSpanId();

/** Result of the traced in-process pass. */
struct TracedOutcome
{
    /** Per op: metric suffix ("trace.ingest_ms", "self_ms",
     *  "startup_ms", ...) -> one value per timed op instance; times are
     *  scaled by their round's calibration kernel. */
    std::array<std::map<std::string, std::vector<double>>, kNumOps> steps;
    std::vector<double> calibration_ms; ///< one per timed round
    std::uint64_t rounds = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    double block_drain_ms = 0; ///< probe medians
    double v1_read_ms = 0;
};

/** The traced pass: runRounds in which every op runs as its CLI
 *  command and, right after, as in-process calls, then the probes.
 *  Pairing the two gives startup_ms per instance, at one host speed.
 *  Spans of timed rounds are appended to @p spans. */
TracedOutcome runTraced(const WorkloadSpec& w, const Inputs& in,
                        const Config& cfg, double seconds,
                        std::uint64_t min_rounds,
                        std::vector<Span>& spans);

/** Run pdt_record's workload @p name in process, as pdt_record does,
 *  and write it to @p out; returns the line pdt_record prints. */
std::string recordInProcess(const std::string& name, const std::string& out,
                            Steps& steps);

double median(std::vector<double> v);

} // namespace cell::bench_e2e

#endif // CELL_BENCH_E2E_BENCH_H
