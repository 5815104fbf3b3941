/**
 * @file
 * `ta serve` acceptance suite — the daemon's differential and
 * robustness contract (docs/SERVE.md).
 *
 * Differential: for every workload trace in the suite (plus the
 * fault-injected drop trace), window / profile / loss / stats answered
 * through the daemon must BYTE-match the serial analyzer's reports, at
 * 1, 4 and 16 concurrent clients, with and without serving-path fault
 * injection. A query either succeeds identically or fails with a typed
 * shed/timeout status — never a wrong answer, a hang, or a crash.
 *
 * Robustness: admission control sheds with RETRY_AFTER when the
 * bounded queue fills; per-query deadlines cancel cooperatively and
 * answer TIMEOUT; a trace that fails strict reading degrades to a
 * salvage answer with a loss warning; malformed request frames cost
 * one connection, never the daemon; a registered file rewritten on
 * disk is revalidated, never served stale.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pdt/tracer.h"
#include "rt/system.h"
#include "ta/analyzer.h"
#include "ta/cancel.h"
#include "ta/parallel.h"
#include "ta/profile.h"
#include "ta/query.h"
#include "ta/serve.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "wl/conv2d.h"
#include "wl/fft.h"
#include "wl/matmul.h"
#include "wl/pipeline.h"
#include "wl/triad.h"
#include "wl/workqueue.h"

namespace cell {
namespace {

using namespace cell::ta::serve;

using Factory =
    std::function<std::unique_ptr<wl::WorkloadBase>(rt::CellSystem&)>;

trace::TraceData
record(const Factory& make, sim::MachineConfig mcfg = {},
       pdt::PdtConfig pcfg = {})
{
    rt::CellSystem sys(mcfg);
    pdt::Pdt tracer(sys, pcfg);
    auto workload = make(sys);
    workload->start();
    sys.run();
    EXPECT_TRUE(workload->verify());
    return tracer.finalize();
}

struct NamedTrace
{
    std::string name;
    trace::TraceData data;
};

std::vector<NamedTrace>
workloadTraces()
{
    std::vector<NamedTrace> out;
    out.push_back({"triad", record([](rt::CellSystem& sys) {
                       wl::TriadParams p;
                       p.n_elements = 4096;
                       p.n_spes = 2;
                       return std::make_unique<wl::Triad>(sys, p);
                   })});
    out.push_back({"matmul", record([](rt::CellSystem& sys) {
                       wl::MatmulParams p;
                       p.n = 64;
                       p.n_spes = 2;
                       return std::make_unique<wl::Matmul>(sys, p);
                   })});
    out.push_back({"fft", record([](rt::CellSystem& sys) {
                       wl::FftParams p;
                       p.fft_size = 256;
                       p.n_ffts = 16;
                       p.batch = 4;
                       p.n_spes = 2;
                       return std::make_unique<wl::Fft>(sys, p);
                   })});
    out.push_back({"conv2d", record([](rt::CellSystem& sys) {
                       wl::Conv2dParams p;
                       p.width = 256;
                       p.height = 64;
                       p.n_spes = 2;
                       return std::make_unique<wl::Conv2d>(sys, p);
                   })});
    out.push_back({"pipeline", record([](rt::CellSystem& sys) {
                       wl::PipelineParams p;
                       p.n_elements = 8192;
                       p.n_stages = 2;
                       return std::make_unique<wl::Pipeline>(sys, p);
                   })});
    out.push_back({"workqueue", record([](rt::CellSystem& sys) {
                       wl::WorkQueueParams p;
                       p.n_items = 32;
                       p.tile_elems = 256;
                       p.n_spes = 2;
                       return std::make_unique<wl::WorkQueue>(sys, p);
                   })});
    return out;
}

trace::TraceData
dropTrace()
{
    sim::MachineConfig mcfg;
    mcfg.faults.seed = 7;
    mcfg.faults.dma_delay_permille = 150;
    mcfg.faults.dma_delay_cycles = 3'000;
    mcfg.faults.mbox_stall_permille = 200;
    mcfg.faults.arena_exhaust_begin = 1;
    mcfg.faults.arena_exhaust_end = 4;
    pdt::PdtConfig pcfg;
    pcfg.spu_buffer_bytes = 512;
    pcfg.overflow_policy = pdt::OverflowPolicy::DropWithMarker;
    return record(
        [](rt::CellSystem& sys) {
            wl::TriadParams p;
            p.n_elements = 4096;
            p.n_spes = 2;
            return std::make_unique<wl::Triad>(sys, p);
        },
        mcfg, pcfg);
}

/** A synthetic trace big enough that its analysis cannot finish
 *  inside a 1 ms deadline (the bench fixture's recipe, smaller). */
trace::TraceData
bigTrace(std::uint64_t n_records)
{
    constexpr std::uint32_t kCores = 9;
    trace::TraceData d;
    d.header.num_spes = kCores - 1;
    d.header.core_hz = 3'200'000'000ULL;
    d.header.timebase_divider = 8;
    d.spe_programs.assign(kCores - 1, "synthetic");
    d.records.reserve(n_records + kCores);
    std::uint32_t raw[kCores];
    for (std::uint16_t c = 0; c < kCores; ++c) {
        raw[c] = c == 0 ? 1000u : 0xFFFFF000u;
        trace::Record r{};
        r.kind = trace::kSyncRecord;
        r.core = c;
        r.a = raw[c];
        r.b = 1000;
        d.records.push_back(r);
    }
    bool begin[kCores] = {};
    for (std::uint64_t i = 0; i < n_records; ++i) {
        const auto c = static_cast<std::uint16_t>(i % kCores);
        trace::Record r{};
        r.core = c;
        r.kind = static_cast<std::uint8_t>(1 + (i / kCores) % 8);
        r.phase = begin[c] ? trace::kPhaseEnd : trace::kPhaseBegin;
        begin[c] = !begin[c];
        raw[c] += c == 0 ? 50u : -50u;
        r.timestamp = raw[c];
        d.records.push_back(r);
    }
    d.header.record_count = d.records.size();
    return d;
}

std::string
tempPath(const std::string& name)
{
    // ctest runs every case as its own process, possibly in parallel;
    // pid-keyed paths keep concurrent cases from rebuilding the same
    // fixture files (and sockets) under each other.
    return ::testing::TempDir() + "/serve_" +
           std::to_string(::getpid()) + "_" + name;
}

/** Expected report bodies for one trace, computed through the same
 *  printers the serial CLI calls. */
struct Expected
{
    std::string name;
    std::string path;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
    std::vector<std::string> window_bodies;
    std::string stats_body;
    std::string loss_body;
    std::string profile_body;
    std::string profile_windowed_body;
};

Expected
expectedFor(const NamedTrace& t, const std::string& path)
{
    Expected e;
    e.name = t.name;
    e.path = path;
    const ta::Analysis full = ta::analyze(t.data);
    const std::uint64_t s = full.model.startTb();
    const std::uint64_t end = full.model.endTb();
    const std::uint64_t span = end - s;
    e.windows = {
        {s > 10 ? s - 10 : 0, end + 10},    // whole file + margins
        {s + span / 4, s + (3 * span) / 4}, // middle half
        {s + span / 2, s + span / 2},       // empty
    };
    for (const auto& [from, to] : e.windows)
        e.window_bodies.push_back(
            ta::windowReport(ta::queryWindow(full, from, to)));
    std::ostringstream stats, loss, prof, profw;
    ta::printSummary(stats, full);
    e.stats_body = stats.str();
    ta::printLossReport(loss, full);
    e.loss_body = loss.str();
    ta::printActivity(prof, full, 60);
    e.profile_body = prof.str();
    const auto& [wf, wt] = e.windows[1];
    ta::printActivity(profw,
                      ta::windowAnalysis(ta::queryWindow(full, wf, wt)),
                      60);
    e.profile_windowed_body = profw.str();
    return e;
}

/** The per-trace query set: three windows, stats, loss, profile,
 *  windowed profile — each answered via callWithRetry and compared
 *  byte-for-byte. Returns the number of queries that came back OK. */
unsigned
queryAllAndCompare(Client& client, const Expected& e)
{
    unsigned ok = 0;
    const auto check = [&](Request req, const std::string& want,
                           const char* what) {
        req.name = e.name;
        const Response rsp = client.callWithRetry(req);
        SCOPED_TRACE(std::string(what) + " on " + e.name);
        ASSERT_EQ(rsp.status, Status::Ok)
            << statusName(rsp.status) << ": " << rsp.body;
        EXPECT_EQ(rsp.body, want);
        EXPECT_EQ(rsp.warning, "");
        ++ok;
    };
    for (std::size_t i = 0; i < e.windows.size(); ++i) {
        Request req;
        req.op = Op::Window;
        req.from = e.windows[i].first;
        req.to = e.windows[i].second;
        check(req, e.window_bodies[i], "window");
    }
    Request stats;
    stats.op = Op::Stats;
    check(stats, e.stats_body, "stats");
    Request loss;
    loss.op = Op::Loss;
    check(loss, e.loss_body, "loss");
    Request prof;
    prof.op = Op::Profile;
    check(prof, e.profile_body, "profile");
    Request profw;
    profw.op = Op::Profile;
    profw.windowed = true;
    profw.from = e.windows[1].first;
    profw.to = e.windows[1].second;
    check(profw, e.profile_windowed_body, "windowed profile");
    return ok;
}

/** Build the corpus once per binary run (the simulations dominate
 *  this suite's runtime). Files live for the whole run. */
const std::vector<Expected>&
corpus()
{
    static const std::vector<Expected> fixtures = [] {
        std::vector<NamedTrace> traces = workloadTraces();
        traces.push_back({"drops", dropTrace()});
        std::vector<Expected> out;
        for (const NamedTrace& t : traces) {
            const std::string path = tempPath(t.name + ".v2.pdt");
            trace::writeFile(path, t.data,
                             trace::WriteOptions{.index_stride = 64});
            out.push_back(expectedFor(t, path));
        }
        return out;
    }();
    return fixtures;
}

ServerConfig
baseConfig(const std::string& socket_name)
{
    ServerConfig cfg;
    cfg.socket_path = tempPath(socket_name);
    cfg.workers = 4;
    cfg.queue_depth = 32;
    cfg.thread_budget = 4;
    cfg.per_query_threads = 2;
    cfg.default_deadline_ms = 60'000;
    cfg.max_deadline_ms = 60'000;
    return cfg;
}

void
registerCorpus(Server& server)
{
    for (const Expected& e : corpus())
        server.registerTrace(e.name, e.path);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughTheWire)
{
    Request req;
    req.op = Op::Profile;
    req.salvage = true;
    req.windowed = true;
    req.buckets = 123;
    req.deadline_ms = 4567;
    req.from = 0x1122334455667788ull;
    req.to = 0x99AABBCCDDEEFF00ull;
    req.name = "some-trace";
    const std::vector<std::uint8_t> wire = encodeRequest(req);

    Request back;
    std::size_t consumed = 0;
    std::string err;
    ASSERT_EQ(decodeRequest(wire.data(), wire.size(), back, consumed, err),
              Decode::Ok)
        << err;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(back, req);
}

TEST(ServeProtocol, ResponseRoundTripsThroughTheWire)
{
    Response rsp;
    rsp.status = Status::Timeout;
    rsp.warning = "warning line\n";
    rsp.body = std::string(100'000, 'x');
    const std::vector<std::uint8_t> wire = encodeResponse(rsp);

    Response back;
    std::size_t consumed = 0;
    std::string err;
    ASSERT_EQ(decodeResponse(wire.data(), wire.size(), back, consumed,
                             err),
              Decode::Ok)
        << err;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(back.status, rsp.status);
    EXPECT_EQ(back.warning, rsp.warning);
    EXPECT_EQ(back.body, rsp.body);
}

TEST(ServeProtocol, EveryProperPrefixNeedsMoreNeverMisdecodes)
{
    Request req;
    req.op = Op::Window;
    req.name = "prefix-test";
    const std::vector<std::uint8_t> wire = encodeRequest(req);
    for (std::size_t n = 0; n < wire.size(); ++n) {
        Request out;
        std::size_t consumed = 0;
        std::string err;
        EXPECT_EQ(decodeRequest(wire.data(), n, out, consumed, err),
                  Decode::NeedMore)
            << "prefix of " << n << " bytes";
    }
}

TEST(ServeProtocol, GarbageOversizeAndMismatchedFramesAreBad)
{
    Request out;
    std::size_t consumed = 0;
    std::string err;

    // Wrong magic.
    std::vector<std::uint8_t> junk(64, 0xFF);
    EXPECT_EQ(decodeRequest(junk.data(), junk.size(), out, consumed, err),
              Decode::Bad);

    // Hostile length: valid magic, body length far past the cap. The
    // decoder must reject instead of waiting for (or allocating) 1 GiB.
    Request req;
    req.name = "x";
    std::vector<std::uint8_t> wire = encodeRequest(req);
    wire[4] = 0x00;
    wire[5] = 0x00;
    wire[6] = 0x00;
    wire[7] = 0x40; // body_len = 1 GiB
    EXPECT_EQ(decodeRequest(wire.data(), wire.size(), out, consumed, err),
              Decode::Bad);

    // Inconsistent name length.
    wire = encodeRequest(req);
    wire[8 + 24] = 0xEE; // name_len no longer matches body_len
    EXPECT_EQ(decodeRequest(wire.data(), wire.size(), out, consumed, err),
              Decode::Bad);

    // Unknown op and unknown flags.
    wire = encodeRequest(req);
    wire[8] = 0x7F;
    EXPECT_EQ(decodeRequest(wire.data(), wire.size(), out, consumed, err),
              Decode::Bad);
    wire = encodeRequest(req);
    wire[9] = 0xF0;
    EXPECT_EQ(decodeRequest(wire.data(), wire.size(), out, consumed, err),
              Decode::Bad);

    // Response with an unknown status byte.
    std::vector<std::uint8_t> rw = encodeResponse(Response{});
    rw[8] = 0x7F;
    Response rout;
    EXPECT_EQ(decodeResponse(rw.data(), rw.size(), rout, consumed, err),
              Decode::Bad);

    // Response whose warning length overruns the payload.
    rw = encodeResponse(Response{Status::Ok, "w", "b"});
    rw[9] = 0xFF;
    EXPECT_EQ(decodeResponse(rw.data(), rw.size(), rout, consumed, err),
              Decode::Bad);
}

// ---------------------------------------------------------------------------
// Admission-control primitives
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, ShedsAtCapacityAndDrainsFifo)
{
    AdmissionQueue q(2);
    std::vector<int> ran;
    EXPECT_TRUE(q.tryPush([&] { ran.push_back(1); }));
    EXPECT_TRUE(q.tryPush([&] { ran.push_back(2); }));
    EXPECT_FALSE(q.tryPush([&] { ran.push_back(3); })); // shed, not queued
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_EQ(q.peakDepth(), 2u);

    std::function<void()> job;
    ASSERT_TRUE(q.pop(job));
    job();
    ASSERT_TRUE(q.pop(job));
    job();
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.depth(), 0u);

    // Close drops pending work and wakes poppers with `false`.
    EXPECT_TRUE(q.tryPush([] {}));
    q.close();
    EXPECT_FALSE(q.pop(job));
    EXPECT_FALSE(q.tryPush([] {}));
}

TEST(AdmissionQueue, CloseUnblocksAWaitingPopper)
{
    AdmissionQueue q(4);
    std::atomic<bool> returned{false};
    std::thread popper([&] {
        std::function<void()> job;
        EXPECT_FALSE(q.pop(job));
        returned = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned);
    q.close();
    popper.join();
    EXPECT_TRUE(returned);
}

TEST(ThreadBudget, GrantsBetweenOneAndWant)
{
    ThreadBudget budget(3);
    EXPECT_EQ(budget.acquire(2, nullptr), 2u); // capped by want
    EXPECT_EQ(budget.acquire(8, nullptr), 1u); // capped by free
    EXPECT_EQ(budget.available(), 0u);
    budget.release(3);
    EXPECT_EQ(budget.available(), 3u);
}

TEST(ThreadBudget, BlockedAcquireHonoursTheDeadline)
{
    ThreadBudget budget(1);
    ASSERT_EQ(budget.acquire(1, nullptr), 1u); // drain the pool
    ta::CancelToken token;
    token.setDeadlineAfter(std::chrono::milliseconds(20));
    EXPECT_THROW(budget.acquire(1, &token), ta::DeadlineExceeded);
    budget.release(1);
}

TEST(ThreadBudget, BlockedAcquireWakesOnRelease)
{
    ThreadBudget budget(1);
    ASSERT_EQ(budget.acquire(1, nullptr), 1u);
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        EXPECT_EQ(budget.acquire(1, nullptr), 1u);
        got = true;
        budget.release(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(got);
    budget.release(1);
    waiter.join();
    EXPECT_TRUE(got);
}

TEST(CancelTokens, DeadlineStopFlagAndCancelAllTrip)
{
    ta::CancelToken fresh;
    EXPECT_FALSE(fresh.expired());
    EXPECT_NO_THROW(fresh.checkpoint("here"));

    ta::CancelToken deadline;
    deadline.setDeadlineAfter(std::chrono::milliseconds(0));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(deadline.expired());
    EXPECT_THROW(deadline.checkpoint("here"), ta::DeadlineExceeded);

    std::atomic<bool> stop{false};
    ta::CancelToken flagged;
    flagged.bindStopFlag(&stop);
    EXPECT_FALSE(flagged.expired());
    stop = true;
    EXPECT_TRUE(flagged.expired());

    ta::CancelToken cancelled;
    cancelled.cancel();
    EXPECT_TRUE(cancelled.expired());
}

// ---------------------------------------------------------------------------
// Differential serving
// ---------------------------------------------------------------------------

TEST(ServeDifferential, ConcurrentClientsByteMatchTheSerialAnalyzer)
{
    Server server(baseConfig("diff.sock"));
    registerCorpus(server);
    server.start();

    for (const unsigned n_clients : {1u, 4u, 16u}) {
        SCOPED_TRACE(std::to_string(n_clients) + " clients");
        std::atomic<unsigned> ok{0};
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < n_clients; ++c) {
            clients.emplace_back([&, c] {
                ClientOptions copt;
                copt.backoff_seed = 1000 + c;
                Client client(server.socketPath(), copt);
                // Each client covers a slice of the corpus; together
                // a round covers every trace at least once.
                for (std::size_t i = c; i < corpus().size();
                     i += n_clients)
                    ok += queryAllAndCompare(client, corpus()[i]);
            });
        }
        for (std::thread& t : clients)
            t.join();
        // 3 windows + stats + loss + 2 profiles per trace, every
        // query conclusive and byte-identical.
        EXPECT_EQ(ok, 7 * corpus().size());
    }

    const ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.bad_requests, 0u);
    EXPECT_EQ(s.errors, 0u);
    EXPECT_EQ(s.timeouts, 0u);
    server.stop();
}

TEST(ServeDifferential, FaultInjectedServingStaysByteIdentical)
{
    // Torn reads, torn writes, accept delays and cache thrash on the
    // serving path — reproducible under the fixed seed — must never
    // change an answer: every response is OK-and-identical or typed.
    ServerConfig cfg = baseConfig("faults.sock");
    cfg.faults.seed = 42;
    cfg.faults.serve_accept_delay_permille = 500;
    cfg.faults.serve_accept_delay_us = 500;
    cfg.faults.serve_read_chop_permille = 400;
    cfg.faults.serve_read_delay_us = 50;
    cfg.faults.serve_write_chop_permille = 400;
    cfg.faults.serve_write_delay_us = 50;
    cfg.faults.serve_cache_clear_permille = 300;
    Server server(cfg);
    registerCorpus(server);
    server.start();

    std::atomic<unsigned> ok{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            ClientOptions copt;
            copt.backoff_seed = 2000 + c;
            Client client(server.socketPath(), copt);
            for (std::size_t i = c; i < corpus().size(); i += 4)
                ok += queryAllAndCompare(client, corpus()[i]);
        });
    }
    for (std::thread& t : clients)
        t.join();
    EXPECT_EQ(ok, 7 * corpus().size());

    const ServerStatsSnapshot s = server.stats();
    EXPECT_GT(s.faults_injected, 0u) << "fault plan never fired";
    EXPECT_EQ(s.errors, 0u);
    server.stop();
}

TEST(ServeDifferential, FaultDrawPatternIsReproducibleAcrossRestarts)
{
    // One sequential client makes the draw order deterministic: two
    // identically-seeded server lifetimes must injected the same
    // number of faults at the same draw indices.
    const auto run = [](std::uint64_t seed) {
        ServerConfig cfg = baseConfig("replay.sock");
        cfg.faults.seed = seed;
        cfg.faults.serve_read_chop_permille = 300;
        cfg.faults.serve_read_delay_us = 10;
        cfg.faults.serve_write_chop_permille = 300;
        cfg.faults.serve_write_delay_us = 10;
        cfg.faults.serve_cache_clear_permille = 250;
        Server server(cfg);
        registerCorpus(server);
        server.start();
        Client client(server.socketPath());
        unsigned ok = queryAllAndCompare(client, corpus().front());
        EXPECT_EQ(ok, 7u);
        const std::uint64_t injected = server.stats().faults_injected;
        server.stop();
        return injected;
    };
    const std::uint64_t a = run(9);
    const std::uint64_t b = run(9);
    EXPECT_EQ(a, b);
    // (Seed sensitivity of the draw stream itself is covered at the
    // injector level in tests/sim/test_fault.cc — two different seeds
    // can coincidentally fire the same COUNT here.)
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(ServeRobustness, CorruptTraceAutoDowngradesToSalvageWithWarning)
{
    // Damage a trace mid-file: strict analysis throws, so the daemon
    // must answer from a salvage analysis and say so.
    std::vector<std::uint8_t> bytes = trace::writeBuffer(
        workloadTraces().front().data,
        trace::WriteOptions{.index_stride = 64});
    const std::size_t at = bytes.size() / 2;
    for (std::size_t i = 0; i < 200 && at + i < bytes.size(); ++i)
        bytes[at + i] = 0xFF;
    const std::string path = tempPath("corrupt.v2.pdt");
    {
        std::ofstream os(path, std::ios::binary);
        os.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }

    trace::ReadReport report;
    const trace::TraceData salvaged =
        trace::readFileSalvage(path, report);
    ASSERT_TRUE(report.salvaged);
    std::ostringstream want;
    ta::printSummary(want, ta::analyze(salvaged, {.salvage = true}));

    ServerConfig cfg = baseConfig("salvage.sock");
    Server server(cfg);
    server.registerTrace("corrupt", path);
    server.start();
    Client client(server.socketPath());

    // Strict request: degraded, answered, loudly warned.
    Request req;
    req.op = Op::Stats;
    req.name = "corrupt";
    const Response rsp = client.callWithRetry(req);
    EXPECT_EQ(rsp.status, Status::Ok) << rsp.body;
    EXPECT_EQ(rsp.body, want.str());
    EXPECT_NE(rsp.warning.find("degraded to salvage"), std::string::npos)
        << rsp.warning;
    EXPECT_NE(rsp.warning.find("salvaged"), std::string::npos);

    // Salvage requested up front: same body, salvage notes only.
    req.salvage = true;
    const Response rsp2 = client.callWithRetry(req);
    EXPECT_EQ(rsp2.status, Status::Ok) << rsp2.body;
    EXPECT_EQ(rsp2.body, want.str());
    EXPECT_NE(rsp2.warning.find("ta: salvaged"), std::string::npos)
        << rsp2.warning;
    EXPECT_EQ(rsp2.warning.find("degraded"), std::string::npos);

    EXPECT_EQ(server.stats().salvaged, 1u);
    server.stop();
    std::remove(path.c_str());
}

TEST(ServeRobustness, MalformedFramesCostOneConnectionNeverTheDaemon)
{
    Server server(baseConfig("malformed.sock"));
    registerCorpus(server);
    server.start();

    const auto rawSocket = [&] {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, server.socketPath().c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    };

    // Garbage bytes: the daemon replies BAD_REQUEST and hangs up.
    {
        const int fd = rawSocket();
        const std::uint8_t junk[16] = {0xDE, 0xAD, 0xBE, 0xEF};
        ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof(junk)));
        std::vector<std::uint8_t> buf;
        std::uint8_t tmp[4096];
        ssize_t k;
        while ((k = ::recv(fd, tmp, sizeof(tmp), 0)) > 0)
            buf.insert(buf.end(), tmp, tmp + k);
        Response rsp;
        std::size_t consumed = 0;
        std::string err;
        ASSERT_EQ(decodeResponse(buf.data(), buf.size(), rsp, consumed,
                                 err),
                  Decode::Ok)
            << err;
        EXPECT_EQ(rsp.status, Status::BadRequest);
        ::close(fd);
    }

    // A hostile length prefix gets the same typed rejection.
    {
        const int fd = rawSocket();
        std::vector<std::uint8_t> frame =
            encodeRequest(Request{}); // valid...
        frame[7] = 0x40;              // ...until body_len says 1 GiB
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        std::vector<std::uint8_t> buf;
        std::uint8_t tmp[4096];
        ssize_t k;
        while ((k = ::recv(fd, tmp, sizeof(tmp), 0)) > 0)
            buf.insert(buf.end(), tmp, tmp + k);
        Response rsp;
        std::size_t consumed = 0;
        std::string err;
        ASSERT_EQ(decodeResponse(buf.data(), buf.size(), rsp, consumed,
                                 err),
                  Decode::Ok)
            << err;
        EXPECT_EQ(rsp.status, Status::BadRequest);
        ::close(fd);
    }

    // A truncated frame followed by a hangup is silently dropped.
    {
        const int fd = rawSocket();
        const std::vector<std::uint8_t> frame = encodeRequest(Request{});
        ASSERT_EQ(::send(fd, frame.data(), 5, MSG_NOSIGNAL), 5);
        ::close(fd);
    }

    // After all that abuse, the daemon still answers correctly.
    Client client(server.socketPath());
    Request ping;
    ping.op = Op::Ping;
    const Response pong = client.callWithRetry(ping);
    EXPECT_EQ(pong.status, Status::Ok);
    EXPECT_EQ(pong.body, "pong\n");

    const unsigned ok = queryAllAndCompare(client, corpus().front());
    EXPECT_EQ(ok, 7u);
    EXPECT_EQ(server.stats().bad_requests, 2u);
    server.stop();
}

TEST(ServeRobustness, UnknownTraceAnswersNotFound)
{
    Server server(baseConfig("notfound.sock"));
    server.start();
    Client client(server.socketPath());
    Request req;
    req.op = Op::Stats;
    req.name = "no-such-trace";
    const Response rsp = client.callWithRetry(req);
    EXPECT_EQ(rsp.status, Status::NotFound);
    EXPECT_NE(rsp.body.find("no-such-trace"), std::string::npos);
    server.stop();
}

TEST(ServeRobustness, DeadlineExceededAnswersTypedTimeout)
{
    const std::string path = tempPath("big.v1.pdt");
    trace::writeFile(path, bigTrace(192 * 1024));

    ServerConfig cfg = baseConfig("deadline.sock");
    Server server(cfg);
    server.registerTrace("big", path);
    server.start();

    // A 1 ms deadline cannot cover a ~200k-record analysis: the typed
    // TIMEOUT must come back (cooperative cancellation, not a hang).
    ClientOptions copt;
    copt.max_attempts = 1; // a retry would just time out again
    Client client(server.socketPath(), copt);
    Request req;
    req.op = Op::Stats;
    req.name = "big";
    req.deadline_ms = 1;
    const Response timed_out = client.call(req);
    EXPECT_EQ(timed_out.status, Status::Timeout) << timed_out.body;
    EXPECT_NE(timed_out.body.find("deadline"), std::string::npos);

    // The worker it freed answers the same query given time.
    req.deadline_ms = 60'000;
    const Response fine = client.call(req);
    EXPECT_EQ(fine.status, Status::Ok) << fine.body;
    std::ostringstream want;
    ta::printSummary(want, ta::analyzeFile(path));
    EXPECT_EQ(fine.body, want.str());

    EXPECT_EQ(server.stats().timeouts, 1u);
    server.stop();
    std::remove(path.c_str());
}

TEST(ServeRobustness, OverloadShedsWithRetryAfterNeverWrongAnswers)
{
    const std::string path = tempPath("load.v1.pdt");
    trace::writeFile(path, bigTrace(128 * 1024));
    std::ostringstream want;
    ta::printSummary(want, ta::analyzeFile(path));

    ServerConfig cfg = baseConfig("shed.sock");
    cfg.workers = 1;     // one request in flight...
    cfg.queue_depth = 1; // ...one waiting; the rest shed
    Server server(cfg);
    server.registerTrace("load", path);
    server.start();

    constexpr unsigned kClients = 6;
    std::atomic<unsigned> ok{0}, shed{0}, other{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            ClientOptions copt;
            copt.max_attempts = 1; // observe the shed, don't retry it
            Client client(server.socketPath(), copt);
            Request req;
            req.op = Op::Stats;
            req.name = "load";
            const Response rsp = client.call(req);
            if (rsp.status == Status::Ok) {
                EXPECT_EQ(rsp.body, want.str());
                ok += 1;
            } else if (rsp.status == Status::RetryAfter) {
                shed += 1;
            } else {
                other += 1;
            }
        });
    }
    for (std::thread& t : clients)
        t.join();

    // Admission control, not collapse: some answers, some typed sheds,
    // nothing else — and every answer byte-correct.
    EXPECT_GE(ok, 1u);
    EXPECT_GE(shed, 1u);
    EXPECT_EQ(other, 0u);
    EXPECT_EQ(ok + shed, kClients);
    EXPECT_EQ(server.stats().shed, shed);

    // A client that backs off and retries eventually gets through.
    ClientOptions copt;
    copt.max_attempts = 16;
    copt.backoff_seed = 77;
    Client patient(server.socketPath(), copt);
    Request req;
    req.op = Op::Stats;
    req.name = "load";
    const Response rsp = patient.callWithRetry(req);
    EXPECT_EQ(rsp.status, Status::Ok);
    EXPECT_EQ(rsp.body, want.str());
    server.stop();
    std::remove(path.c_str());
}

TEST(ServeRobustness, RewrittenTraceIsRevalidatedNeverServedStale)
{
    std::vector<NamedTrace> traces = workloadTraces();
    const std::string path = tempPath("mutable.v2.pdt");
    trace::writeFile(path, traces[0].data,
                     trace::WriteOptions{.index_stride = 64});

    Server server(baseConfig("reval.sock"));
    server.registerTrace("mutable", path);
    server.start();
    Client client(server.socketPath());

    Request req;
    req.op = Op::Stats;
    req.name = "mutable";
    std::ostringstream want_a;
    ta::printSummary(want_a, ta::analyze(traces[0].data));
    const Response first = client.callWithRetry(req);
    EXPECT_EQ(first.status, Status::Ok);
    EXPECT_EQ(first.body, want_a.str());
    EXPECT_EQ(first.warning, "");

    // Replace the file with a different trace under the same name.
    trace::writeFile(path, traces[1].data,
                     trace::WriteOptions{.index_stride = 64});
    std::ostringstream want_b;
    ta::printSummary(want_b, ta::analyze(traces[1].data));
    const Response second = client.callWithRetry(req);
    EXPECT_EQ(second.status, Status::Ok);
    EXPECT_EQ(second.body, want_b.str()) << "stale answer served";
    EXPECT_NE(second.warning.find("revalidated"), std::string::npos)
        << second.warning;

    EXPECT_EQ(server.stats().revalidated, 1u);
    server.stop();
    std::remove(path.c_str());
}

TEST(ServeRobustness, ShutdownOpStopsTheServeLoop)
{
    Server server(baseConfig("shutdown.sock"));
    server.start();
    EXPECT_FALSE(server.shutdownRequested());
    Client client(server.socketPath());
    Request req;
    req.op = Op::Shutdown;
    const Response rsp = client.callWithRetry(req);
    EXPECT_EQ(rsp.status, Status::Ok);
    server.waitShutdownRequested(); // returns because the op fired
    EXPECT_TRUE(server.shutdownRequested());
    server.stop();
}

TEST(ServeRobustness, ServerStatsReportsCounters)
{
    Server server(baseConfig("stats.sock"));
    registerCorpus(server);
    server.start();
    Client client(server.socketPath());
    queryAllAndCompare(client, corpus().front());
    Request req;
    req.op = Op::ServerStats;
    const Response rsp = client.callWithRetry(req);
    ASSERT_EQ(rsp.status, Status::Ok);
    EXPECT_NE(rsp.body.find("requests=8"), std::string::npos) << rsp.body;
    EXPECT_NE(rsp.body.find("completed=8"), std::string::npos);
    EXPECT_NE(rsp.body.find("shed=0"), std::string::npos);
    EXPECT_NE(rsp.body.find("queue_depth=0"), std::string::npos);
    server.stop();
}

} // namespace
} // namespace cell
