/**
 * @file
 * The real commands: every op is a `ta` or `pdt_record` process, timed
 * from spawn to reap, its stdout and written file checked against the
 * references.
 *
 * The driver does not start the commands itself. glibc's posix_spawn
 * shares the caller's address space until exec, and at exec the kernel
 * folds that address space's high-water resident set into the child's
 * ru_maxrss; the driver's high-water mark, set while it builds inputs
 * and references, would then be every command's peak_rss_mb. A spawner
 * child forked at driver start, while the driver is still small, starts
 * every command instead and hands back its wall time, rusage and stdout
 * over a pipe.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"

extern char** environ;

namespace cell::bench_e2e {

namespace {

struct Command
{
    std::int64_t status = -1; ///< exit code; 128 + signal; -1 if never started
    double wall_ms = 0;
    double maxrss_mb = 0;
    std::string out;
};

/** Spawn @p argv with stdout captured and stderr to @p err_path, then
 *  reap it with wait4 for its resource usage. */
Command
spawn(const std::vector<std::string>& argv, const std::string& err_path)
{
    Command c;
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("bench_e2e: pipe2 failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv)
        args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);

    const Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        return c;
    }
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0)
            c.out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int st = 0;
    struct rusage ru{};
    while (::wait4(pid, &st, 0, &ru) < 0 && errno == EINTR) {
    }
    c.wall_ms = msSince(t0);
    c.status = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
    c.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return c;
}

// The spawner pipes, in the driver: requests out, responses in.
int g_request = -1;
int g_response = -1;
pid_t g_spawner = -1;

void
writeAll(int fd, const std::string& bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("bench_e2e: spawner pipe write failed");
        done += static_cast<std::size_t>(n);
    }
}

/** Fill @p p with @p n bytes; false on end of input before the first. */
bool
readAll(int fd, void* p, std::size_t n)
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t r = ::read(fd, static_cast<char*>(p) + done, n - done);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0) {
            if (done == 0 && r == 0)
                return false;
            throw std::runtime_error("bench_e2e: spawner pipe read failed");
        }
        done += static_cast<std::size_t>(r);
    }
    return true;
}

template <typename T>
void
put(std::string& buf, T v)
{
    buf.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void
putString(std::string& buf, const std::string& s)
{
    put<std::uint64_t>(buf, s.size());
    buf += s;
}

template <typename T>
T
get(int fd)
{
    T v{};
    if (!readAll(fd, &v, sizeof v))
        throw std::runtime_error("bench_e2e: the spawner exited");
    return v;
}

std::string
getString(int fd)
{
    std::string s(get<std::uint64_t>(fd), '\0');
    if (!s.empty() && !readAll(fd, s.data(), s.size()))
        throw std::runtime_error("bench_e2e: the spawner exited");
    return s;
}

/** The spawner: one command per request until the driver closes the
 *  request pipe. */
[[noreturn]] void
spawnerMain(int request, int response)
{
    try {
        std::uint64_t argc = 0;
        while (readAll(request, &argc, sizeof argc)) {
            std::vector<std::string> argv(argc);
            for (std::string& a : argv)
                a = getString(request);
            const std::string err_path = getString(request);
            const Command c = spawn(argv, err_path);
            std::string buf;
            put(buf, c.status);
            put(buf, c.wall_ms);
            put(buf, c.maxrss_mb);
            putString(buf, c.out);
            writeAll(response, buf);
        }
        ::_exit(0);
    } catch (...) {
        ::_exit(1);
    }
}

/** Run one command through the spawner. */
Command
run(const std::vector<std::string>& argv, const std::string& err_path)
{
    if (g_spawner < 0)
        throw std::logic_error("bench_e2e: the spawner is not running");
    std::string buf;
    put<std::uint64_t>(buf, argv.size());
    for (const std::string& a : argv)
        putString(buf, a);
    putString(buf, err_path);
    writeAll(g_request, buf);
    Command c;
    c.status = get<std::int64_t>(g_response);
    c.wall_ms = get<double>(g_response);
    c.maxrss_mb = get<double>(g_response);
    c.out = getString(g_response);
    return c;
}

/** Run one command and check its stdout and, when @p file is set, the
 *  digest of the file it wrote. */
void
check(CliResult& r, const std::vector<std::string>& argv,
      const std::string& expect, const std::string& file,
      std::uint64_t file_digest, const std::string& err_path)
{
    if (!file.empty())
        ::unlink(file.c_str()); // a failed write must not pass
    const Command c = run(argv, err_path);
    r.commands += 1;
    r.wall_ms += c.wall_ms;
    r.maxrss_mb = std::max(r.maxrss_mb, c.maxrss_mb);
    std::string error;
    if (c.status != 0)
        error = "exit status " + std::to_string(c.status);
    else if (c.out != expect)
        error = "stdout differs from the reference";
    else if (!file.empty() && fileDigest(file) != file_digest)
        error = "output file differs from the reference";
    if (error.empty())
        return;
    std::string cmd;
    for (std::size_t i = 1; i < argv.size(); ++i)
        cmd += (i > 1 ? " " : "") + argv[i];
    r.errors.push_back(cmd + ": " + error);
}

} // namespace

void
startSpawner()
{
    int req[2], resp[2];
    if (::pipe2(req, O_CLOEXEC) != 0 || ::pipe2(resp, O_CLOEXEC) != 0)
        throw std::runtime_error("bench_e2e: pipe2 failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("bench_e2e: fork failed");
    if (pid == 0) {
        ::close(req[1]);
        ::close(resp[0]);
        spawnerMain(req[0], resp[1]);
    }
    ::close(req[0]);
    ::close(resp[1]);
    g_request = req[1];
    g_response = resp[0];
    g_spawner = pid;
    // A spawner that dies must surface as a failed write, not kill the
    // driver. The spawner keeps the default, so the commands do too.
    std::signal(SIGPIPE, SIG_IGN);
}

void
stopSpawner()
{
    if (g_spawner < 0)
        return;
    ::close(g_request);
    ::close(g_response);
    while (::waitpid(g_spawner, nullptr, 0) < 0 && errno == EINTR) {
    }
    g_spawner = -1;
}

CliResult
runCliOp(const Task& t, const Inputs& in, const Config& cfg)
{
    CliResult r;
    const std::string err_path = in.dir + "/command.stderr";
    const std::string T = std::to_string(cfg.threads);
    const auto ta = [&](std::vector<std::string> args) {
        args.insert(args.begin(), cfg.ta);
        check(r, args, expectedStdout(t, in), {}, 0, err_path);
    };
    switch (t.op) {
      case Op::Summary:
        ta({"--threads", T, "summary", in.a_v3});
        break;
      case Op::SummaryV1:
        ta({"--threads", T, "summary", in.a_v2});
        break;
      case Op::SummarySerial:
        ta({"--threads", "1", "summary", in.a_v3});
        break;
      case Op::Salvage:
        ta({"--threads", T, "--salvage", "summary", in.a_v3});
        break;
      case Op::Diff:
        ta({"--threads", T, "diff", in.a_v3, in.b_v3});
        break;
      case Op::Window:
      case Op::WindowWide: {
        const WindowRef& w =
            t.op == Op::Window ? in.narrow[t.index] : in.wide[t.index];
        ta({"--threads", T, "window", in.a_v3, std::to_string(w.from),
            std::to_string(w.to)});
        break;
      }
      case Op::Convert:
        check(r, {cfg.ta, "convert", in.a_v2, in.out_convert, "--compress"},
              expectedStdout(t, in), in.out_convert, in.convert_digest,
              err_path);
        break;
      case Op::Slice:
        check(r,
              {cfg.ta, "surgery", "slice", in.a_v3, in.out_slice,
               std::to_string(in.slice_from), std::to_string(in.slice_to),
               "--compress"},
              expectedStdout(t, in), in.out_slice, in.slice_digest,
              err_path);
        break;
      case Op::Record:
        for (std::size_t i = 0; i < kRecordWorkloads.size(); ++i)
            check(r,
                  {cfg.pdt_record, kRecordWorkloads[i], in.out_record,
                   "--compress"},
                  in.record[i].stdout_text, in.out_record,
                  in.record[i].digest, err_path);
        break;
      case Op::kCount:
        break;
    }
    return r;
}

CliOutcome
runCli(const Inputs& in, const Config& cfg, double seconds)
{
    CliOutcome out;
    const auto runRound = [&](std::uint64_t round, bool timed) {
        const double calibration = calibrationMs();
        if (timed)
            out.calibration_ms.push_back(calibration);
        double peak = 0;
        for (const Task& t : roundTasks(round, in.narrow.size(),
                                        in.wide.size())) {
            CliResult r = runCliOp(t, in, cfg);
            out.attempted += r.commands;
            out.failed += r.errors.size();
            for (std::string& e : r.errors) {
                if (out.errors.size() < 8)
                    out.errors.push_back(std::move(e));
            }
            // A failed command keeps its sample: it took that long, and
            // `failed` reports it (compare.py refuses a gain with more
            // failures than the parent).
            if (!timed)
                continue;
            const auto i = static_cast<std::size_t>(t.op);
            out.wall_ms[i].push_back(r.wall_ms);
            out.scaled_ms[i].push_back(r.wall_ms * kReferenceCalibrationMs /
                                       calibration);
            peak = std::max(peak, r.maxrss_mb);
            if (t.op == Op::Convert)
                out.bytes_per_record =
                    static_cast<double>(fileSize(in.out_convert)) /
                    static_cast<double>(in.counts.at("input.records"));
        }
        if (timed)
            out.round_peak_rss_mb.push_back(peak);
    };

    out.rounds = runRounds(runRound, cfg.warmup_seconds, seconds, 1);
    return out;
}

} // namespace cell::bench_e2e
