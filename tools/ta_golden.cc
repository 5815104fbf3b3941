/**
 * @file
 * `ta_golden` — golden-trace fixture maintenance.
 *
 * The golden fixtures under tests/ta/golden/ are small committed PDT
 * traces plus a `.digest` file per trace holding the FNV-1a 64 hash of
 * the serial analyzer's full report. tests/ta/test_golden.cc fails if
 * either the serial or the parallel analyzer stops reproducing a
 * digest — i.e. if an analyzer change silently alters any number any
 * report prints.
 *
 * Each fixture exists in three on-disk variants sharing ONE digest:
 * `<name>.pdt` (plain v1), `<name>.v2.pdt` (same trace written with a
 * footer index, stride 64), and `<name>.v3.pdt` (compressed blocks +
 * footer index). The v1 reader ignores the footer and the v3 decode is
 * transparent, so all variants must analyze to the identical report —
 * `check` verifies that, that the indexes validate, and that windowed
 * queries through them byte-match the brute-force filter.
 *
 *   ta_golden gen   <dir> [--force]   regenerate every fixture
 *   ta_golden check <dir>             re-analyze, verify digests
 *
 * `gen` refuses to overwrite a fixture whose committed digest differs
 * from the regenerated one unless --force is given — it prints the
 * digest diff instead, so a digest change is always a deliberate,
 * visible act. Regenerate (and commit the diff) only when an analyzer
 * change is *supposed* to change reported numbers; `check` is what CI
 * runs.
 */

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pdt/tracer.h"
#include "rt/system.h"
#include "ta/analyzer.h"
#include "ta/compare.h"
#include "ta/intervals.h"
#include "ta/parallel.h"
#include "ta/query.h"
#include "trace/gen.h"
#include "trace/index.h"
#include "trace/surgery.h"
#include "trace/writer.h"
#include "wl/matmul.h"
#include "wl/triad.h"
#include "wl/workqueue.h"

namespace {

using namespace cell;

/** One deterministic fixture: a named trace-producing run. */
struct Fixture
{
    const char* name;
    trace::TraceData (*produce)();
};

trace::TraceData
runTriad()
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys, {});
    wl::TriadParams p;
    p.n_elements = 4096;
    p.n_spes = 2;
    wl::Triad wl(sys, p);
    wl.start();
    sys.run();
    if (!wl.verify())
        throw std::runtime_error("triad verification failed");
    return tracer.finalize();
}

trace::TraceData
runMatmul()
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys, {});
    wl::MatmulParams p;
    p.n = 64;
    p.n_spes = 2;
    wl::Matmul wl(sys, p);
    wl.start();
    sys.run();
    if (!wl.verify())
        throw std::runtime_error("matmul verification failed");
    return tracer.finalize();
}

trace::TraceData
runWorkQueue()
{
    rt::CellSystem sys;
    pdt::Pdt tracer(sys, {});
    wl::WorkQueueParams p;
    p.n_items = 32;
    p.tile_elems = 256;
    p.n_spes = 2;
    wl::WorkQueue wl(sys, p);
    wl.start();
    sys.run();
    if (!wl.verify())
        throw std::runtime_error("workqueue verification failed");
    return tracer.finalize();
}

/** Triad under injected faults and a tiny SPU buffer with the
 *  drop-with-marker overflow policy: a trace full of drop markers and
 *  gap epochs — the bookkeeping the merge must preserve exactly. */
trace::TraceData
runTriadDrops()
{
    sim::MachineConfig mcfg;
    mcfg.faults.seed = 42;
    mcfg.faults.dma_delay_permille = 150;
    mcfg.faults.dma_delay_cycles = 3'000;
    mcfg.faults.mbox_stall_permille = 200;
    mcfg.faults.arena_exhaust_begin = 1; // flush attempts 1..3 fail →
    mcfg.faults.arena_exhaust_end = 4;   // guaranteed drop markers
    rt::CellSystem sys(mcfg);
    pdt::PdtConfig pcfg;
    pcfg.spu_buffer_bytes = 512;
    pcfg.overflow_policy = pdt::OverflowPolicy::DropWithMarker;
    pdt::Pdt tracer(sys, pcfg);
    wl::TriadParams p;
    p.n_elements = 4096;
    p.n_spes = 2;
    wl::Triad wl(sys, p);
    wl.start();
    sys.run();
    if (!wl.verify())
        throw std::runtime_error("triad (drops) verification failed");
    return tracer.finalize();
}

/** The middle half of the workqueue trace, cut by `ta surgery slice`:
 *  the synthetic preamble (seed sync, drop accounting, re-opened
 *  Begins) is part of the digest, so a surgery change that altered it
 *  — or an analyzer change that read it differently — trips the
 *  golden test. */
trace::TraceData
runWorkQueueSlice()
{
    const trace::TraceData data = runWorkQueue();
    const ta::Analysis a = ta::analyze(data);
    const std::uint64_t s = a.model.startTb();
    const std::uint64_t span = a.model.spanTb();
    return trace::slice(data, s + span / 4, s + (3 * span) / 4,
                        ta::surgeryOpSemantics());
}

/** Triad cut in half and spliced back at the cut — the round-trip
 *  composition. Analyzes identically to the original triad, but its
 *  record stream (entry preambles, junction) is surgery's own. */
trace::TraceData
runTriadSplice()
{
    const trace::TraceData data = runTriad();
    const ta::Analysis a = ta::analyze(data);
    const std::uint64_t m = a.model.startTb() + a.model.spanTb() / 2;
    const trace::OpSemantics sem = ta::surgeryOpSemantics();
    trace::SpliceOptions jopt;
    jopt.cuts = {m};
    return trace::splice(
        {trace::slice(data, 0, m, sem),
         trace::slice(data, m, ~std::uint64_t{0}, sem)},
        jopt);
}

/** The triad trace delayed on every core from its midpoint — the B
 *  side of the committed differential pair. `gen` also derives a
 *  digest of `ta diff --json triad triad_perturbed` from it, so a
 *  change to the diff engine's alignment, attribution or localization
 *  output is as visible (and as deliberate) as an analyzer change. */
trace::TraceData
runTriadPerturbed()
{
    const trace::TraceData data = runTriad();
    const ta::Analysis a = ta::analyze(data);
    trace::DelayOptions dopt;
    dopt.at = a.model.startTb() + a.model.spanTb() / 2;
    dopt.delta = a.model.spanTb() / 8 + 100;
    return trace::delay(data, dopt);
}

/** A generated clock-skew scenario: backward sync steps exercise the
 *  monotonic clamp on every analyzer path that replays the fixture. */
trace::TraceData
runGenSkew()
{
    trace::gen::GenOptions opt;
    opt.seed = 20'08; // ISPASS'08
    opt.scenario = static_cast<int>(trace::gen::Scenario::ClockSkew);
    return trace::gen::generate(opt);
}

const std::vector<Fixture> kFixtures = {
    {"triad", runTriad},
    {"matmul", runMatmul},
    {"workqueue", runWorkQueue},
    {"triad_drops", runTriadDrops},
    {"workqueue_slice", runWorkQueueSlice},
    {"triad_splice", runTriadSplice},
    {"gen_skew", runGenSkew},
    {"triad_perturbed", runTriadPerturbed},
};

/** FNV-1a 64 hex of the triad -> triad_perturbed diff JSON. */
std::string
diffDigestHex(const std::filesystem::path& dir)
{
    ta::DiffFileOptions opt;
    opt.threads = 1;
    const ta::DiffFileOutcome out =
        ta::diffFiles((dir / "triad.pdt").string(),
                      (dir / "triad_perturbed.pdt").string(), opt);
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << ta::fnv1a64(ta::diffJson(out.result));
    return os.str();
}

std::string
reportDigest(const ta::Analysis& a)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << ta::fnv1a64(ta::fullReport(a));
    return os.str();
}

std::string
digestHex(const trace::TraceData& data)
{
    return reportDigest(ta::analyze(data));
}

/** The parallel pipeline on 4 threads with 64-record shards, so even
 *  tiny fixtures split into many shards. */
ta::Analysis
shardedAnalysis(const trace::TraceData& data)
{
    ta::WorkerPool pool(4);
    ta::Analysis a{ta::buildModelParallel(data, pool, false, 64), {}, {}};
    a.intervals = ta::buildIntervalsParallel(a.model, pool);
    a.stats = ta::buildStatsParallel(a.model, a.intervals, pool);
    return a;
}

std::string
readDigestFile(const std::filesystem::path& p)
{
    std::ifstream is(p);
    std::string s;
    is >> s;
    return s;
}

int
gen(const std::filesystem::path& dir, bool force)
{
    std::filesystem::create_directories(dir);
    int refused = 0;
    for (const Fixture& f : kFixtures) {
        const trace::TraceData data = f.produce();
        const std::string digest = digestHex(data);
        const auto digest_path = dir / (std::string(f.name) + ".digest");
        const std::string committed = readDigestFile(digest_path);
        if (!committed.empty() && committed != digest && !force) {
            // A digest change rewrites committed history — make it a
            // deliberate act, never a silent side effect of a rerun.
            std::cerr << f.name << ": digest would change\n"
                      << "  committed   " << committed << "\n"
                      << "  regenerated " << digest << "\n"
                      << "  (analyzer output changed; rerun with --force "
                         "to overwrite, then commit the diff)\n";
            ++refused;
            continue;
        }
        const auto trace_path = dir / (std::string(f.name) + ".pdt");
        trace::writeFile(trace_path.string(), data);
        const auto v2_path = dir / (std::string(f.name) + ".v2.pdt");
        trace::WriteOptions wopt;
        wopt.index_stride = 64; // small stride: several entries even
                                // on these tiny fixture traces
        trace::writeFile(v2_path.string(), data, wopt);
        const auto v3_path = dir / (std::string(f.name) + ".v3.pdt");
        trace::WriteOptions w3 = wopt;
        w3.compress = true;
        trace::writeFile(v3_path.string(), data, w3);
        std::ofstream os(digest_path);
        os << digest << "\n";
        std::cout << f.name << ": " << data.records.size() << " records, "
                  << "digest " << digest << "\n";
    }
    if (refused)
        return 1;

    // The cross-trace differential digest rides on the fixtures just
    // written: `ta diff --json` of triad vs triad_perturbed.
    const auto diff_path = dir / "triad_diff.digest";
    const std::string diff_digest = diffDigestHex(dir);
    const std::string diff_committed = readDigestFile(diff_path);
    if (!diff_committed.empty() && diff_committed != diff_digest &&
        !force) {
        std::cerr << "triad_diff: digest would change\n"
                  << "  committed   " << diff_committed << "\n"
                  << "  regenerated " << diff_digest << "\n"
                  << "  (diff output changed; rerun with --force to "
                     "overwrite, then commit the diff)\n";
        return 1;
    }
    std::ofstream dos(diff_path);
    dos << diff_digest << "\n";
    std::cout << "triad_diff: digest " << diff_digest << "\n";
    return 0;
}

int
check(const std::filesystem::path& dir)
{
    int failures = 0;
    for (const Fixture& f : kFixtures) {
        const auto trace_path = dir / (std::string(f.name) + ".pdt");
        const auto digest_path = dir / (std::string(f.name) + ".digest");
        const std::string expect = readDigestFile(digest_path);
        if (expect.empty()) {
            std::cerr << f.name << ": missing digest file\n";
            ++failures;
            continue;
        }
        // Serial and the sharded parallel pipeline must both hit it.
        const trace::TraceData data = trace::readFile(trace_path.string());
        const std::string serial = digestHex(data);
        const std::string parallel = reportDigest(shardedAnalysis(data));
        if (serial != expect || parallel != expect) {
            std::cerr << f.name << ": digest mismatch (expect " << expect
                      << ", serial " << serial << ", parallel " << parallel
                      << ")\n";
            ++failures;
            continue;
        }

        // The v2 variant must be invisible to the v1 reader: same
        // trace, same digest, footer ignored.
        const auto v2_path = dir / (std::string(f.name) + ".v2.pdt");
        const std::string v2_digest =
            digestHex(trace::readFile(v2_path.string()));
        if (v2_digest != expect) {
            std::cerr << f.name << ": v2 variant digest mismatch (expect "
                      << expect << ", got " << v2_digest << ")\n";
            ++failures;
            continue;
        }
        const trace::IndexReadResult ir =
            trace::readIndexFile(v2_path.string());
        if (!ir.present || !ir.valid) {
            std::cerr << f.name << ": v2 index invalid ("
                      << (ir.reason.empty() ? "absent" : ir.reason)
                      << ")\n";
            ++failures;
            continue;
        }
        // Windowed query through the index == brute-force filter of
        // the full analysis, byte for byte (middle half of the span).
        const ta::Analysis full =
            ta::analyze(trace::readFile(v2_path.string()));
        const std::uint64_t span = full.model.spanTb();
        const std::uint64_t from = full.model.startTb() + span / 4;
        const std::uint64_t to = full.model.startTb() + (3 * span) / 4;
        ta::BlockCache cache;
        ta::QueryOptions qopt;
        qopt.threads = 1;
        qopt.cache = &cache;
        const ta::WindowResult indexed =
            ta::queryWindowFile(v2_path.string(), from, to, qopt);
        const ta::WindowResult brute = ta::queryWindow(full, from, to);
        if (!indexed.used_index ||
            ta::windowReport(indexed) != ta::windowReport(brute)) {
            std::cerr << f.name << ": windowed query mismatch (index "
                      << (indexed.used_index ? "used" : "unused") << ")\n";
            ++failures;
            continue;
        }

        // The v3 variant: transparent decode (same digest, serial and
        // sharded-parallel), a valid index, and exact indexed windowed
        // answers — compression must be invisible everywhere.
        const auto v3_path = dir / (std::string(f.name) + ".v3.pdt");
        const std::string v3_digest =
            digestHex(trace::readFile(v3_path.string()));
        const std::string v3_parallel =
            reportDigest(ta::analyzeFile(v3_path.string(), {.threads = 4}));
        if (v3_digest != expect || v3_parallel != expect) {
            std::cerr << f.name << ": v3 variant digest mismatch (expect "
                      << expect << ", serial " << v3_digest << ", parallel "
                      << v3_parallel << ")\n";
            ++failures;
            continue;
        }
        const trace::IndexReadResult ir3 =
            trace::readIndexFile(v3_path.string());
        if (!ir3.present || !ir3.valid) {
            std::cerr << f.name << ": v3 index invalid ("
                      << (ir3.reason.empty() ? "absent" : ir3.reason)
                      << ")\n";
            ++failures;
            continue;
        }
        const ta::WindowResult indexed3 =
            ta::queryWindowFile(v3_path.string(), from, to, qopt);
        if (!indexed3.used_index ||
            ta::windowReport(indexed3) != ta::windowReport(brute)) {
            std::cerr << f.name << ": v3 windowed query mismatch (index "
                      << (indexed3.used_index ? "used" : "unused") << ")\n";
            ++failures;
            continue;
        }
        std::cout << f.name << ": ok (" << expect << ")\n";
    }

    // The committed diff digest: single- and multi-threaded diffFiles
    // must both keep rendering the identical JSON.
    const std::string diff_expect =
        readDigestFile(dir / "triad_diff.digest");
    if (diff_expect.empty()) {
        std::cerr << "triad_diff: missing digest file\n";
        ++failures;
    } else {
        const std::string serial = diffDigestHex(dir);
        ta::DiffFileOptions opt4;
        opt4.threads = 4;
        const ta::DiffFileOutcome out4 =
            ta::diffFiles((dir / "triad.pdt").string(),
                          (dir / "triad_perturbed.pdt").string(), opt4);
        std::ostringstream p4;
        p4 << std::hex << std::setw(16) << std::setfill('0')
           << ta::fnv1a64(ta::diffJson(out4.result));
        if (serial != diff_expect || p4.str() != diff_expect) {
            std::cerr << "triad_diff: digest mismatch (expect "
                      << diff_expect << ", serial " << serial
                      << ", 4-thread " << p4.str() << ")\n";
            ++failures;
        } else {
            std::cout << "triad_diff: ok (" << diff_expect << ")\n";
        }
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto usage = [] {
        std::cerr << "usage: ta_golden {gen [--force]|check} <dir>\n";
        return 2;
    };
    std::string mode, dir;
    bool force = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--force")
            force = true;
        else if (mode.empty())
            mode = arg;
        else if (dir.empty())
            dir = arg;
        else
            return usage();
    }
    if (mode.empty() || dir.empty())
        return usage();
    try {
        if (mode == "gen")
            return gen(dir, force);
        if (mode == "check") {
            if (force)
                return usage(); // --force only applies to gen
            return check(dir);
        }
    } catch (const std::exception& e) {
        std::cerr << "ta_golden: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
