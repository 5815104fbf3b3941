/**
 * @file
 * `ta` — the trace analyzer command-line tool.
 *
 * The paper's TA was an interactive (Eclipse-based) viewer; this CLI
 * exposes the same analyses over PDT trace files:
 *
 *   ta summary    <trace.pdt>              overview
 *   ta breakdown  <trace.pdt>              per-SPE stall breakdown
 *   ta dma        <trace.pdt>              DMA statistics
 *   ta events     <trace.pdt>              event counts
 *   ta tracing    <trace.pdt>              tracer self-observation
 *   ta loss       <trace.pdt>              per-core event-loss report
 *   ta timeline   <trace.pdt> [width]      ASCII timeline
 *   ta svg        <trace.pdt> <out.svg>    SVG timeline
 *   ta csv        <trace.pdt> <out.csv>    per-SPE breakdown CSV
 *   ta intervals  <trace.pdt> <out.csv>    raw interval CSV
 *   ta compare    <a.pdt> <b.pdt>          A/B comparison
 *   ta diff       <a.pdt> <b.pdt>          differential: aligned-interval
 *                                          delta attribution + first
 *                                          divergent window localization
 *   ta diff-corpus <pairs-file>            batch diff over trace pairs
 *   ta all        <trace.pdt>              every textual view
 *   ta window     <trace.pdt> <from> <to>  windowed query report (ticks)
 *   ta profile    <trace.pdt> [buckets]    activity profile; --from/--to
 *                                          restrict it to a time window
 *   ta convert    <in.pdt> <out.pdt>       rewrite a trace; --compress
 *                                          selects the v3 block
 *                                          container (a valid footer
 *                                          index is carried over at
 *                                          its original stride)
 *
 * `window` and windowed `profile` seek via the v2 footer index when the
 * trace carries one (see docs/TRACE_FORMAT.md), falling back to a full
 * scan otherwise; `--full-scan` forces the fallback. Results are
 * identical either way.
 *
 * A damaged trace fails with a diagnostic naming where parsing stopped
 * (exit 1). `ta --salvage <command> <trace.pdt>` analyzes whatever a
 * salvage read recovers, reporting what was skipped on stderr.
 *
 * `--threads N` is the command's thread budget (default: hardware
 * concurrency). The parallel analysis shards the file on the record
 * stride, ingests and analyzes the shards concurrently, and produces
 * byte-identical output to the serial analyzer; `--threads 1` forces
 * the serial path. `convert` and `surgery` encode the v3 blocks they
 * write on the same budget; the bytes written are the same at any
 * count.
 */

#include <cctype>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "rt/hooks.h"
#include "ta/analyzer.h"
#include "ta/intervals.h"
#include "ta/parallel.h"
#include "ta/compare.h"
#include "ta/profile.h"
#include "ta/query.h"
#include "ta/report.h"
#include "ta/serve.h"
#include "ta/timeline.h"
#include "trace/block.h"
#include "trace/index.h"
#include "trace/reader.h"
#include "trace/surgery.h"
#include "trace/writer.h"

#include "cli_flags.h"

namespace {

int
usage()
{
    std::cerr
        << "usage: ta [--salvage] [--threads N] [--full-scan] <command> "
           "<trace.pdt> [args]\n"
           "commands: summary breakdown dma events tracing loss timeline\n"
           "          activity window profile convert serve query surgery\n"
           "          svg html csv intervals transfers compare diff\n"
           "          diff-corpus all\n"
           "  window  <trace.pdt> <from> <to>   windowed query report\n"
           "          (timebase ticks; seeks via the v2 index if present)\n"
           "  profile <trace.pdt> [buckets]     activity profile;\n"
           "          --from T --to T restricts it to a time window\n"
           "  convert <in.pdt> <out.pdt>        rewrite; --compress "
           "selects\n"
           "          the v3 block container (any valid footer index is\n"
           "          carried over at its original stride)\n"
           "  serve   <socket> <name=trace.pdt> [more...]   query daemon\n"
           "          (docs/SERVE.md); --workers N --queue-depth N\n"
           "          --per-query N --max-conns N --deadline-ms N\n"
           "          --threads N (total analysis-thread budget)\n"
           "          --faults PLAN (Serve* fault-injection plan file)\n"
           "  query   --connect <socket> <op> [name] [args]  served query\n"
           "          ops: ping | server-stats | shutdown |\n"
           "               window <name> <from> <to> |\n"
           "               profile <name> [buckets] (--from/--to) |\n"
           "               loss <name> | stats <name>\n"
           "          --deadline-ms N --attempts N --salvage\n"
           "          exits 0 ok, 3 typed shed/timeout, 1 error\n"
           "  surgery slice  <in.pdt> <out.pdt> <from> <to>\n"
           "          cut [from, to) ticks into a standalone trace whose\n"
           "          windowed report matches the original's\n"
           "  surgery splice <out.pdt> <a.pdt> <b.pdt> [more...]\n"
           "          merge traces; one --cut T per junction band-stitches\n"
           "          slices of a common recording back together;\n"
           "          --blades stacks core spaces; --align shifts inputs\n"
           "          to a common start\n"
           "  surgery filter <in.pdt> <out.pdt>\n"
           "          rewrite keeping --cores 0,2 and/or --kinds groups\n"
           "          (lifecycle dma dma_wait mailbox signal decrementer\n"
           "          user); tool records always survive\n"
           "  surgery delay  <in.pdt> <out.pdt> <at> <delta>\n"
           "          shift every placement at tick >= <at> by <delta>\n"
           "          ticks (--cores N restricts to one core) — the\n"
           "          perturbation primitive the diff suites localize\n"
           "          surgery output: --index N / --compress pick the\n"
           "          container; --salvage reads damaged inputs\n"
           "  diff    <a.pdt> <b.pdt>           differential report:\n"
           "          aligned-interval delta attribution per core plus\n"
           "          the first divergent rolling window; --window N\n"
           "          sets the window width in ticks (default span/64),\n"
           "          --threshold N the divergence score floor, --json\n"
           "          machine-readable output (docs/DIFF.md)\n"
           "  diff-corpus <pairs-file>          batch diff: each line\n"
           "          'name a.pdt b.pdt' (# comments ok), fanned over\n"
           "          --threads N workers; per-pair strict reads\n"
           "          downgrade to salvage with a note; --deadline-ms N\n"
           "          bounds each pair; output is input-ordered and\n"
           "          byte-identical at any thread count\n"
           "--threads N: thread budget (default: hardware concurrency;\n"
           "             1 forces the serial path): analysis, and the v3\n"
           "             block encode of convert and surgery writes;\n"
           "             output and written bytes are identical at any N\n"
           "--full-scan: ignore any v2 footer index\n";
    return 2;
}

/** Analyze @p path as the flags ask; salvage diagnostics go to
 *  stderr. */
cell::ta::Analysis
load(const cell::cli::Flags& f, const std::string& path)
{
    cell::trace::ReadReport report;
    cell::ta::Analysis a = cell::ta::analyzeFile(
        path,
        {.threads = f.threads, .salvage = f.salvage, .report = &report});
    std::cerr << cell::ta::salvageDiagnostics(report);
    return a;
}

/** The windowed query behind `window` and `profile --from/--to`;
 *  salvage diagnostics and the query's path go to stderr. */
cell::ta::WindowResult
loadWindow(const cell::cli::Flags& f, const std::string& path,
           std::uint64_t from, std::uint64_t to)
{
    cell::trace::ReadReport report;
    cell::ta::QueryOptions qopt;
    qopt.threads = f.threads;
    qopt.salvage = f.salvage;
    qopt.report = &report;
    qopt.force_full_scan = f.full_scan;
    cell::ta::WindowResult w =
        cell::ta::queryWindowFile(path, from, to, qopt);
    std::cerr << cell::ta::salvageDiagnostics(report) << "ta: "
              << (w.used_index ? "indexed" : "full-scan") << " query, "
              << w.records_scanned << " records scanned\n";
    return w;
}

volatile std::sig_atomic_t g_signalled = 0;

void
onSignal(int)
{
    g_signalled = 1;
}

/** `ta serve <socket> <name=trace.pdt>...` — run the query daemon
 *  until SIGINT/SIGTERM or a client's shutdown request. */
int
runServe(const cell::cli::Flags& f)
{
    using namespace cell;
    const auto& pos = f.positionals;
    if (pos.size() < 3) {
        std::cerr << "ta: serve needs a socket path and at least one "
                     "name=trace.pdt registration\n";
        return usage();
    }
    ta::serve::ServerConfig cfg;
    cfg.socket_path = pos[1];
    if (f.workers != 0)
        cfg.workers = f.workers;
    if (f.queue_depth != 0)
        cfg.queue_depth = static_cast<std::size_t>(f.queue_depth);
    if (f.threads != 0)
        cfg.thread_budget = f.threads;
    if (f.per_query != 0)
        cfg.per_query_threads = f.per_query;
    if (f.max_conns != 0)
        cfg.max_connections = f.max_conns;
    if (f.deadline_ms != 0)
        cfg.default_deadline_ms = static_cast<std::uint32_t>(f.deadline_ms);
    if (!f.faults_path.empty()) {
        std::ifstream in(f.faults_path);
        if (!in) {
            std::cerr << "ta: cannot read fault plan: " << f.faults_path
                      << "\n";
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        cfg.faults = sim::FaultPlan::parse(ss.str());
    }

    ta::serve::Server server(cfg);
    for (std::size_t i = 2; i < pos.size(); ++i) {
        const std::size_t eq = pos[i].find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pos[i].size()) {
            std::cerr << "ta: registrations are name=trace.pdt, got: "
                      << pos[i] << "\n";
            return usage();
        }
        server.registerTrace(pos[i].substr(0, eq), pos[i].substr(eq + 1));
    }
    server.start();
    std::cerr << "ta: serving " << (pos.size() - 2) << " trace(s) on "
              << cfg.socket_path << "\n";
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!server.shutdownRequested() && !g_signalled)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::cerr << "ta: shutting down\n";
    server.stop();
    return 0;
}

/** `ta query --connect <socket> <op> [name] [args]` — the daemon's
 *  client. Report bodies go to stdout (byte-identical to the serial
 *  CLI); degradation warnings to stderr. Exit: 0 ok, 3 typed
 *  shed/timeout, 1 error, 2 usage. */
int
runQuery(const cell::cli::Flags& f)
{
    using namespace cell;
    using namespace cell::ta::serve;
    const auto& pos = f.positionals;
    if (f.connect.empty()) {
        std::cerr << "ta: query requires --connect <socket>\n";
        return usage();
    }
    const std::string& op = pos[1];
    Request req;
    req.salvage = f.salvage;
    req.deadline_ms = static_cast<std::uint32_t>(f.deadline_ms);
    if (op == "ping" || op == "server-stats" || op == "shutdown") {
        req.op = op == "ping" ? Op::Ping
                 : op == "server-stats" ? Op::ServerStats
                                        : Op::Shutdown;
        if (pos.size() != 2)
            return usage();
    } else if (op == "window") {
        req.op = Op::Window;
        if (pos.size() != 5) {
            std::cerr << "ta: query window needs <name> <from> <to>\n";
            return usage();
        }
        req.name = pos[2];
        if (!cli::parseU64(pos[3], req.from) ||
            !cli::parseU64(pos[4], req.to)) {
            std::cerr << "ta: window bounds must be timebase ticks\n";
            return usage();
        }
        if (req.from > req.to) {
            std::cerr << "ta: window 'from' exceeds 'to'\n";
            return usage();
        }
    } else if (op == "profile") {
        req.op = Op::Profile;
        if (pos.size() < 3 || pos.size() > 4) {
            std::cerr << "ta: query profile needs <name> [buckets]\n";
            return usage();
        }
        req.name = pos[2];
        if (pos.size() == 4) {
            std::uint64_t b = 0;
            if (!cli::parseU64(pos[3], b) || b == 0 || b > 0xFFFF) {
                std::cerr << "ta: buckets must be a count in [1, 65535]\n";
                return usage();
            }
            req.buckets = static_cast<std::uint16_t>(b);
        }
        if (f.have_from || f.have_to) {
            if (f.from > f.to) {
                std::cerr << "ta: --from exceeds --to\n";
                return usage();
            }
            req.windowed = true;
            req.from = f.from;
            req.to = f.to;
        }
    } else if (op == "loss" || op == "stats") {
        req.op = op == "loss" ? Op::Loss : Op::Stats;
        if (pos.size() != 3) {
            std::cerr << "ta: query " << op << " needs <name>\n";
            return usage();
        }
        req.name = pos[2];
    } else {
        std::cerr << "ta: unknown query op: " << op << "\n";
        return usage();
    }

    ClientOptions copt;
    if (f.attempts != 0)
        copt.max_attempts = f.attempts;
    Client client(f.connect, copt);
    const Response rsp = client.callWithRetry(req);
    if (!rsp.warning.empty())
        std::cerr << rsp.warning; // newline-terminated by the server
    if (rsp.status == Status::Ok) {
        std::cout << rsp.body;
        return 0;
    }
    std::cerr << "ta: " << statusName(rsp.status) << ": " << rsp.body
              << "\n";
    const bool typed = rsp.status == Status::RetryAfter ||
                       rsp.status == Status::Timeout ||
                       rsp.status == Status::ShuttingDown;
    return typed ? 3 : 1;
}

/** `ta diff <a.pdt> <b.pdt>` — full differential report or JSON.
 *  Bad values exit 2 with usage; unreadable inputs exit 1. */
int
runDiff(const cell::cli::Flags& f)
{
    using namespace cell;
    const auto& pos = f.positionals;
    if (pos.size() != 3) {
        std::cerr << "ta: diff needs <a.pdt> <b.pdt>\n";
        return usage();
    }
    ta::DiffFileOptions dopt;
    dopt.diff.window = f.window;
    dopt.diff.threshold = f.threshold;
    dopt.threads = f.threads;
    dopt.salvage = f.salvage;
    ta::CancelToken token;
    if (f.deadline_ms != 0) {
        token.setDeadlineAfter(std::chrono::milliseconds(f.deadline_ms));
        dopt.cancel = &token;
    }
    ta::DiffFileOutcome o;
    try {
        o = ta::diffFiles(pos[1], pos[2], dopt);
    } catch (const std::invalid_argument& e) {
        // A window width that explodes the scan is an operator typo.
        std::cerr << "ta: " << e.what() << "\n";
        return usage();
    }
    if (!o.note_a.empty())
        std::cerr << "ta: A: " << o.note_a << "\n";
    if (!o.note_b.empty())
        std::cerr << "ta: B: " << o.note_b << "\n";
    if (f.json)
        std::cout << ta::diffJson(o.result) << "\n";
    else
        std::cout << ta::diffReport(o.result);
    return 0;
}

/** `ta diff-corpus <pairs-file>` — fan trace pairs through a
 *  WorkerPool. Results print in input order whatever the thread
 *  count, so the output is byte-identical at 1/2/4/8 threads. Exit:
 *  0 all pairs ok, 3 some pair hit its deadline, 1 harder errors,
 *  2 usage (malformed pairs file / bad values). */
int
runDiffCorpus(const cell::cli::Flags& f)
{
    using namespace cell;
    const auto& pos = f.positionals;
    if (pos.size() != 2) {
        std::cerr << "ta: diff-corpus needs a pairs file "
                     "(lines: name a.pdt b.pdt)\n";
        return usage();
    }
    struct Pair
    {
        std::string name, a, b;
    };
    std::vector<Pair> pairs;
    {
        std::ifstream in(pos[1]);
        if (!in) {
            std::cerr << "ta: cannot read pairs file: " << pos[1] << "\n";
            return 1;
        }
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            const std::size_t hash = line.find('#');
            if (hash != std::string::npos)
                line.resize(hash);
            std::istringstream ss(line);
            Pair p;
            std::string extra_tok;
            if (!(ss >> p.name))
                continue; // blank / comment-only line
            if (!(ss >> p.a >> p.b) || (ss >> extra_tok)) {
                std::cerr << "ta: malformed pairs line " << lineno
                          << " (want: name a.pdt b.pdt): " << line << "\n";
                return usage();
            }
            pairs.push_back(std::move(p));
        }
    }

    struct Outcome
    {
        bool ok = false;
        bool timeout = false;
        std::string error;
        std::string note_a, note_b;
        cell::ta::DiffResult diff;
    };
    std::vector<Outcome> results(pairs.size());

    ta::WorkerPool pool(f.threads);
    pool.parallelFor(pairs.size(), [&](std::uint64_t i) {
        Outcome& out = results[i];
        ta::DiffFileOptions dopt;
        dopt.diff.window = f.window;
        dopt.diff.threshold = f.threshold;
        dopt.threads = 1; // corpus-level parallelism only
        dopt.salvage = f.salvage;
        dopt.auto_downgrade = true;
        ta::CancelToken token;
        if (f.deadline_ms != 0) {
            token.setDeadlineAfter(
                std::chrono::milliseconds(f.deadline_ms));
            dopt.cancel = &token;
        }
        try {
            ta::DiffFileOutcome o =
                ta::diffFiles(pairs[i].a, pairs[i].b, dopt);
            out.diff = std::move(o.result);
            out.note_a = std::move(o.note_a);
            out.note_b = std::move(o.note_b);
            out.ok = true;
        } catch (const ta::DeadlineExceeded& e) {
            out.timeout = true;
            out.error = e.what();
        } catch (const std::exception& e) {
            out.error = e.what();
        }
    });

    std::uint64_t diverged = 0, errors = 0, timeouts = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const Outcome& out = results[i];
        if (f.json) {
            // One JSON object per line, input order.
            std::cout << "{\"pair\":\"" << pairs[i].name << "\",";
            if (out.ok) {
                if (!out.note_a.empty() || !out.note_b.empty())
                    std::cout << "\"degraded\":true,";
                std::cout << "\"diff\":" << ta::diffJson(out.diff) << "}";
            } else {
                std::cout << (out.timeout ? "\"timeout\":true,"
                                          : "\"error\":true,")
                          << "\"message\":\"" << out.error << "\"}";
            }
            std::cout << "\n";
        } else {
            std::cout << "== pair " << pairs[i].name << " ==\n";
            if (!out.note_a.empty())
                std::cout << "A: " << out.note_a << "\n";
            if (!out.note_b.empty())
                std::cout << "B: " << out.note_b << "\n";
            if (out.ok)
                std::cout << ta::diffReport(out.diff) << "\n";
            else
                std::cout << (out.timeout ? "TIMEOUT: " : "ERROR: ")
                          << out.error << "\n\n";
        }
        diverged += out.ok && out.diff.diverged;
        errors += !out.ok && !out.timeout;
        timeouts += out.timeout;
    }
    std::cerr << "ta: diff-corpus: " << pairs.size() << " pair(s), "
              << diverged << " diverged, " << timeouts << " timeout(s), "
              << errors << " error(s)\n";
    if (errors)
        return 1;
    if (timeouts)
        return 3;
    return 0;
}

/** Build a record-kind keep mask from a comma-separated list of API
 *  group names (case-insensitive). Kinds above the known-op range are
 *  always kept — the filter cannot claim to know what they are. */
bool
kindsMaskFromGroups(const std::string& list, std::uint64_t& mask,
                    std::string& error)
{
    using cell::rt::ApiGroup;
    using cell::rt::ApiOp;
    const auto lower = [](std::string s) {
        for (char& c : s)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return s;
    };
    mask = ~std::uint64_t{0} << cell::rt::kNumApiOps;
    std::stringstream ss(list);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        bool matched = false;
        for (std::size_t g = 0; g < cell::rt::kNumApiGroups; ++g) {
            const auto group = static_cast<ApiGroup>(g);
            if (lower(tok) != lower(cell::rt::apiGroupName(group)))
                continue;
            for (std::size_t k = 0; k < cell::rt::kNumApiOps; ++k) {
                if (cell::rt::apiOpGroup(static_cast<ApiOp>(k)) == group)
                    mask |= std::uint64_t{1} << k;
            }
            matched = true;
            break;
        }
        if (!matched) {
            error = "unknown event group: '" + tok +
                    "' (groups: lifecycle dma dma_wait mailbox signal "
                    "decrementer user)";
            return false;
        }
    }
    return true;
}

/** `ta surgery slice|splice|filter` — structural trace rewrites (see
 *  docs/SURGERY.md). Bad values exit 2 with usage; analysis-grade
 *  failures (unreadable input, splice shape errors detected inside
 *  the library) exit 1 via main's catch. */
int
runSurgery(const cell::cli::Flags& f)
{
    using namespace cell;
    const auto& pos = f.positionals;
    if (pos.size() < 2) {
        std::cerr << "ta: surgery needs an operation: slice, splice, "
                     "filter or delay\n";
        return usage();
    }
    const std::string sub = pos[1];
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    trace::WriteOptions wopt;
    wopt.index_stride = static_cast<std::size_t>(f.index_stride);
    wopt.compress = f.compress;
    wopt.threads = f.threads;
    const auto loadTrace = [&f](const std::string& p) {
        if (!f.salvage)
            return trace::readFile(p);
        trace::ReadReport report;
        trace::TraceData d = trace::readFileSalvage(p, report);
        std::cerr << ta::salvageDiagnostics(report);
        return d;
    };

    if (sub == "slice") {
        if (pos.size() != 6) {
            std::cerr << "ta: surgery slice needs "
                         "<in.pdt> <out.pdt> <from> <to>\n";
            return usage();
        }
        std::uint64_t from = 0;
        std::uint64_t to = 0;
        if (!cli::parseU64(pos[4], from) || !cli::parseU64(pos[5], to)) {
            std::cerr << "ta: window bounds must be timebase ticks\n";
            return usage();
        }
        if (from > to) {
            std::cerr << "ta: window 'from' exceeds 'to'\n";
            return usage();
        }
        const trace::TraceData in = loadTrace(pos[2]);
        trace::SliceOptions sopt;
        sopt.lenient = f.salvage;
        const trace::TraceData out = trace::slice(in, from, to, sem, sopt);
        trace::writeFile(pos[3], out, wopt);
        std::cout << "sliced " << in.records.size() << " -> "
                  << out.records.size() << " records [" << from << ", "
                  << to << ") -> " << pos[3] << "\n";
        return 0;
    }
    if (sub == "splice") {
        if (pos.size() < 5) {
            std::cerr << "ta: surgery splice needs "
                         "<out.pdt> <a.pdt> <b.pdt> [more...]\n";
            return usage();
        }
        const std::size_t n_inputs = pos.size() - 3;
        if (!f.cuts.empty() && f.cuts.size() != n_inputs - 1) {
            std::cerr << "ta: splice takes one --cut per junction ("
                      << (n_inputs - 1) << " for " << n_inputs
                      << " inputs, got " << f.cuts.size() << ")\n";
            return usage();
        }
        if (f.align && f.blades) {
            std::cerr << "ta: --align shifts onto a shared clock; it "
                         "cannot combine with --blades\n";
            return usage();
        }
        std::vector<trace::TraceData> inputs;
        inputs.reserve(n_inputs);
        for (std::size_t i = 3; i < pos.size(); ++i)
            inputs.push_back(loadTrace(pos[i]));
        trace::SpliceOptions sopt;
        sopt.cuts = f.cuts;
        sopt.align = f.align;
        sopt.blades = f.blades;
        sopt.lenient = f.salvage;
        const trace::TraceData out = trace::splice(inputs, sopt);
        trace::writeFile(pos[2], out, wopt);
        std::cout << "spliced " << n_inputs << " inputs -> "
                  << out.records.size() << " records ("
                  << static_cast<unsigned>(out.header.num_spes)
                  << " SPEs) -> " << pos[2] << "\n";
        return 0;
    }
    if (sub == "filter") {
        if (pos.size() != 4) {
            std::cerr << "ta: surgery filter needs <in.pdt> <out.pdt>\n";
            return usage();
        }
        trace::FilterOptions fopt;
        fopt.lenient = f.salvage;
        if (!f.cores_list.empty()) {
            std::stringstream ss(f.cores_list);
            std::string tok;
            while (std::getline(ss, tok, ',')) {
                std::uint64_t c = 0;
                if (!cli::parseU64(tok, c) || c > 0xFFFF) {
                    std::cerr << "ta: --cores takes comma-separated "
                                 "core ids, got: '" << tok << "'\n";
                    return usage();
                }
                fopt.cores.push_back(static_cast<std::uint16_t>(c));
            }
        }
        if (!f.kinds_list.empty()) {
            std::string err;
            if (!kindsMaskFromGroups(f.kinds_list, fopt.kind_mask, err)) {
                std::cerr << "ta: " << err << "\n";
                return usage();
            }
        }
        const trace::TraceData in = loadTrace(pos[2]);
        trace::TraceData out;
        try {
            out = trace::filter(in, fopt);
        } catch (const std::invalid_argument& e) {
            // A core id beyond the trace's range is an operator typo,
            // not an analysis failure.
            std::cerr << "ta: " << e.what() << "\n";
            return usage();
        }
        trace::writeFile(pos[3], out, wopt);
        std::cout << "filtered " << in.records.size() << " -> "
                  << out.records.size() << " records -> " << pos[3]
                  << "\n";
        return 0;
    }
    if (sub == "delay") {
        if (pos.size() != 6) {
            std::cerr << "ta: surgery delay needs "
                         "<in.pdt> <out.pdt> <at> <delta>\n";
            return usage();
        }
        trace::DelayOptions dopt;
        dopt.lenient = f.salvage;
        if (!cli::parseU64(pos[4], dopt.at) ||
            !cli::parseU64(pos[5], dopt.delta)) {
            std::cerr << "ta: delay <at> and <delta> must be timebase "
                         "ticks\n";
            return usage();
        }
        if (!f.cores_list.empty()) {
            std::uint64_t c = 0;
            if (!cli::parseU64(f.cores_list, c) || c > 0xFFFF) {
                std::cerr << "ta: delay takes a single core id via "
                             "--cores, got: '" << f.cores_list << "'\n";
                return usage();
            }
            dopt.core = static_cast<int>(c);
        }
        const trace::TraceData in = loadTrace(pos[2]);
        trace::TraceData out;
        try {
            out = trace::delay(in, dopt);
        } catch (const std::invalid_argument& e) {
            std::cerr << "ta: " << e.what() << "\n";
            return usage();
        }
        trace::writeFile(pos[3], out, wopt);
        std::cout << "delayed "
                  << (dopt.core < 0 ? std::string("all cores")
                                    : "core " + std::to_string(dopt.core))
                  << " by " << dopt.delta << " ticks from tick " << dopt.at
                  << " -> " << pos[3] << "\n";
        return 0;
    }
    std::cerr << "ta: unknown surgery op: " << sub << "\n";
    return usage();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cell;
    cli::FlagSpec spec;
    spec.salvage = true;
    spec.threads = true;
    spec.window = true;
    spec.full_scan = true;
    spec.compress = true;
    spec.serve = true;
    spec.connect = true;
    spec.deadline = true;
    spec.surgery = true;
    spec.index = true;
    spec.diff = true;
    cli::Flags f;
    f.threads = 0; // 0 = hardware concurrency
    if (!cli::parseFlags(argc, argv, spec, f)) {
        std::cerr << "ta: " << f.error << "\n";
        return usage();
    }
    const auto& pos = f.positionals;
    if (pos.size() < 2)
        return usage();
    const std::string cmd = pos[0];
    const std::string path = pos[1];
    const auto extra = [&pos](std::size_t i) -> const std::string& {
        return pos[i + 2];
    };
    const std::size_t n_extra = pos.size() - 2;

    try {
        if (cmd == "serve")
            return runServe(f);
        if (cmd == "query")
            return runQuery(f);
        if (cmd == "surgery")
            return runSurgery(f);
        if (cmd == "diff")
            return runDiff(f);
        if (cmd == "diff-corpus")
            return runDiffCorpus(f);
        if (cmd == "convert") {
            if (n_extra < 1)
                return usage();
            const std::string out_path = extra(0);
            const trace::TraceData data = trace::readFile(path);
            trace::WriteOptions wopt;
            wopt.compress = f.compress;
            wopt.threads = f.threads;
            // Carry a valid footer index over at its original stride;
            // a damaged or absent one is simply not rewritten.
            const trace::IndexReadResult ir = trace::readIndexFile(path);
            if (ir.valid)
                wopt.index_stride = ir.index.header.stride;
            trace::writeFile(out_path, data, wopt);
            const trace::BlockRegionProbe probe =
                trace::probeBlockRegionFile(out_path);
            std::cout << "converted " << data.records.size() << " records -> "
                      << out_path << " ("
                      << (probe.present ? "v3 compressed" : "v1")
                      << (wopt.index_stride
                              ? ", index stride " +
                                    std::to_string(wopt.index_stride)
                              : std::string())
                      << ")\n";
            return 0;
        }
        if (cmd == "compare") {
            if (n_extra < 1)
                return usage();
            const ta::Analysis a = load(f, path);
            const ta::Analysis b = load(f, extra(0));
            // A misaligned table is worse than no table: refuse
            // mismatched core maps with both maps printed (use `ta
            // diff`, which aligns by label, for cross-shape runs).
            const std::string mismatch = ta::coreMapMismatch(a, b);
            if (!mismatch.empty()) {
                std::cerr << "ta: " << mismatch;
                return 1;
            }
            ta::printComparison(std::cout, a, b);
            return 0;
        }
        if (cmd == "window") {
            if (n_extra < 2)
                return usage();
            std::uint64_t from = 0;
            std::uint64_t to = 0;
            if (!cli::parseU64(extra(0), from) ||
                !cli::parseU64(extra(1), to)) {
                std::cerr << "ta: window bounds must be timebase ticks\n";
                return usage();
            }
            if (from > to) {
                std::cerr << "ta: window 'from' exceeds 'to'\n";
                return usage();
            }
            std::cout << ta::windowReport(loadWindow(f, path, from, to));
            return 0;
        }
        if (cmd == "profile") {
            unsigned buckets = 60;
            if (n_extra >= 1) {
                std::uint64_t b = 0;
                if (!cli::parseU64(extra(0), b) || b == 0) {
                    std::cerr << "ta: buckets must be a positive count\n";
                    return usage();
                }
                buckets = static_cast<unsigned>(b);
            }
            if (f.have_from && f.have_to && f.from > f.to) {
                std::cerr << "ta: --from exceeds --to\n";
                return usage();
            }
            const ta::Analysis a =
                f.have_from || f.have_to
                    ? ta::windowAnalysis(loadWindow(f, path, f.from, f.to))
                    : load(f, path);
            ta::printActivity(std::cout, a, buckets);
            return 0;
        }

        const ta::Analysis a = load(f, path);
        if (cmd == "summary") {
            ta::printSummary(std::cout, a);
        } else if (cmd == "breakdown") {
            ta::printStallBreakdown(std::cout, a);
        } else if (cmd == "dma") {
            ta::printDmaReport(std::cout, a);
            std::cout << "\n";
            ta::printDmaHistogram(std::cout, a);
        } else if (cmd == "events") {
            ta::printEventCounts(std::cout, a);
        } else if (cmd == "tracing") {
            ta::printTracingReport(std::cout, a);
        } else if (cmd == "loss") {
            ta::printLossReport(std::cout, a);
        } else if (cmd == "timeline") {
            ta::TimelineOptions opt;
            if (n_extra >= 1) {
                std::uint64_t w = 0;
                if (!cli::parseU64(extra(0), w) || w == 0) {
                    std::cerr << "ta: width must be a positive count\n";
                    return usage();
                }
                opt.width = static_cast<unsigned>(w);
            }
            std::cout << ta::renderAscii(a.model, a.intervals, opt);
        } else if (cmd == "activity") {
            unsigned buckets = 60;
            if (n_extra >= 1) {
                std::uint64_t b = 0;
                if (!cli::parseU64(extra(0), b) || b == 0) {
                    std::cerr << "ta: buckets must be a positive count\n";
                    return usage();
                }
                buckets = static_cast<unsigned>(b);
            }
            ta::printActivity(std::cout, a, buckets);
        } else if (cmd == "html") {
            if (n_extra < 1)
                return usage();
            ta::writeHtmlReport(extra(0), a, path);
            std::cout << "wrote " << extra(0) << "\n";
        } else if (cmd == "svg") {
            if (n_extra < 1)
                return usage();
            ta::writeSvg(extra(0), a.model, a.intervals,
                         ta::TimelineOptions{.width = 900});
            std::cout << "wrote " << extra(0) << "\n";
        } else if (cmd == "csv") {
            if (n_extra < 1)
                return usage();
            std::ofstream os(extra(0));
            ta::exportBreakdownCsv(os, a);
            std::cout << "wrote " << extra(0) << "\n";
        } else if (cmd == "intervals") {
            if (n_extra < 1)
                return usage();
            std::ofstream os(extra(0));
            ta::exportIntervalsCsv(os, a);
            std::cout << "wrote " << extra(0) << "\n";
        } else if (cmd == "transfers") {
            if (n_extra < 1)
                return usage();
            std::ofstream os(extra(0));
            ta::exportDmaTransfersCsv(os, a);
            std::cout << "wrote " << extra(0) << "\n";
        } else if (cmd == "all") {
            ta::printSummary(std::cout, a);
            std::cout << "\n";
            ta::printStallBreakdown(std::cout, a);
            std::cout << "\n";
            ta::printDmaReport(std::cout, a);
            std::cout << "\n";
            ta::printDmaHistogram(std::cout, a);
            std::cout << "\n";
            ta::printEventCounts(std::cout, a);
            std::cout << "\n";
            ta::printTracingReport(std::cout, a);
            std::cout << "\n";
            ta::printLossReport(std::cout, a);
            std::cout << "\n"
                      << ta::renderAscii(a.model, a.intervals) << "\n";
            ta::printActivity(std::cout, a);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::cerr << "ta: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
