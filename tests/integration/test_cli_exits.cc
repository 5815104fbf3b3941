/**
 * @file
 * CLI exit-code contract tests, run against the real binaries.
 *
 * The convention unified across `ta` and `pdt_dump`:
 *   0  success
 *   1  runtime error (unreadable file, damaged trace, dead socket)
 *   2  usage error — bad flags, bad positional VALUES (non-numeric
 *      counts, inverted ranges), unknown commands — always with the
 *      usage text on stderr so the caller sees how to fix it
 *   3  (`ta query` only) typed shed/timeout from the daemon
 *
 * Bad VALUES were historically a mix of 1s and 2s depending on which
 * parse caught them; scripts could not tell "you typed it wrong" from
 * "the trace is damaged". These tests pin every class.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>
#include <sys/wait.h>
#include <unistd.h>

#include "trace/format.h"
#include "trace/writer.h"

namespace cell {
namespace {

struct RunResult
{
    int exit_code = -1;
    std::string output; ///< stdout + stderr, interleaved
};

/** Run @p cmd; @p redirect picks what reaches RunResult::output
 *  (default: stdout and stderr). */
RunResult
run(const std::string& cmd, const std::string& redirect = " 2>&1")
{
    RunResult r;
    FILE* p = ::popen((cmd + redirect).c_str(), "r");
    if (p == nullptr)
        return r;
    char buf[4096];
    std::size_t k;
    while ((k = std::fread(buf, 1, sizeof(buf), p)) > 0)
        r.output.append(buf, k);
    const int rc = ::pclose(p);
    if (WIFEXITED(rc))
        r.exit_code = WEXITSTATUS(rc);
    return r;
}

std::string
quoted(const std::string& s)
{
    return "'" + s + "'";
}

const std::string kTa = CELL_TA_BIN;
const std::string kDump = CELL_PDT_DUMP_BIN;

/** A valid synthetic trace: one sync per core, then @p n records
 *  alternating between the PPE and one SPE. */
trace::TraceData
syntheticTrace(std::uint64_t n)
{
    trace::TraceData d;
    d.header.num_spes = 1;
    d.header.core_hz = 3'200'000'000ULL;
    d.header.timebase_divider = 8;
    d.spe_programs = {"synthetic"};
    for (std::uint16_t c = 0; c < 2; ++c) {
        trace::Record r{};
        r.kind = trace::kSyncRecord;
        r.core = c;
        r.a = 1000;
        r.b = 1000;
        d.records.push_back(r);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        trace::Record r{};
        r.core = static_cast<std::uint16_t>(i % 2);
        r.kind = static_cast<std::uint8_t>(1 + i % 8);
        r.phase = (i / 2) % 2 ? trace::kPhaseEnd : trace::kPhaseBegin;
        r.timestamp = static_cast<std::uint32_t>(1000 + 40 * (i / 2 + 1));
        d.records.push_back(r);
    }
    d.header.record_count = d.records.size();
    return d;
}

/** A trace file of @p bytes for this process. ctest runs every case
 *  as its own process; a shared fixture path would let two processes
 *  write it concurrently and a third read the torn file. Key it by
 *  pid. */
std::string
writeFixture(const std::string& name, const std::vector<std::uint8_t>& bytes)
{
    const std::string p = ::testing::TempDir() + "/" + name + "_" +
                          std::to_string(::getpid()) + ".pdt";
    std::ofstream os(p, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    return p;
}

/** A small valid trace written once for the whole suite. */
const std::string&
tracePath()
{
    static const std::string path =
        writeFixture("cli_exits", trace::writeBuffer(syntheticTrace(200)));
    return path;
}

/** A 2000-record synthetic trace with 96 bytes of its record region
 *  smashed: three records a salvage read must skip. */
const std::string&
damagedTracePath()
{
    static const std::string path = [] {
        std::vector<std::uint8_t> bytes =
            trace::writeBuffer(syntheticTrace(2000));
        const std::size_t at = bytes.size() / 2 / 32 * 32;
        for (std::size_t i = 0; i < 96; ++i)
            bytes[at + i] = 0xFF;
        return writeFixture("cli_damaged", bytes);
    }();
    return path;
}

// ---------------------------------------------------------------------------
// ta
// ---------------------------------------------------------------------------

TEST(TaSalvage, WindowedCommandsPrintTheSummarySalvageLines)
{
    // Stderr only: the salvage diagnostics, then (windowed commands)
    // the query-path line.
    const std::string stderr_only = " 2>&1 >/dev/null";
    const std::string trace = quoted(damagedTracePath());
    const RunResult summary =
        run(kTa + " --salvage summary " + trace, stderr_only);
    ASSERT_EQ(summary.exit_code, 0);
    ASSERT_NE(summary.output.find("ta: salvaged "), std::string::npos)
        << summary.output;
    ASSERT_NE(summary.output.find("ta:   "), std::string::npos)
        << "salvage notes missing: " << summary.output;

    const RunResult window = run(
        kTa + " --salvage window " + trace + " 0 1000000", stderr_only);
    EXPECT_EQ(window.exit_code, 0);
    EXPECT_EQ(window.output.substr(0, summary.output.size()),
              summary.output);
    EXPECT_NE(window.output.find("full-scan query"), std::string::npos);

    const RunResult profile = run(kTa + " --salvage --from 0 --to 1000000 "
                                        "profile " + trace,
                                  stderr_only);
    EXPECT_EQ(profile.exit_code, 0);
    EXPECT_EQ(profile.output.substr(0, summary.output.size()),
              summary.output);
}

TEST(TaExitCodes, NoArgumentsIsUsage)
{
    const RunResult r = run(kTa);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TaExitCodes, UnknownCommandIsUsage)
{
    const RunResult r = run(kTa + " frobnicate " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TaExitCodes, UnknownFlagIsUsage)
{
    const RunResult r = run(kTa + " --bogus summary " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TaExitCodes, NonNumericThreadsIsUsage)
{
    const RunResult r =
        run(kTa + " --threads many summary " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TaExitCodes, NonNumericWindowBoundsAreUsage)
{
    const RunResult r =
        run(kTa + " window " + quoted(tracePath()) + " abc def");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("timebase ticks"), std::string::npos);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TaExitCodes, InvertedWindowIsUsage)
{
    const RunResult r =
        run(kTa + " window " + quoted(tracePath()) + " 900 100");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("exceeds"), std::string::npos);
}

TEST(TaExitCodes, ZeroProfileBucketsIsUsage)
{
    const RunResult r = run(kTa + " profile " + quoted(tracePath()) + " 0");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("buckets"), std::string::npos);
}

TEST(TaExitCodes, NonNumericTimelineWidthIsUsage)
{
    const RunResult r =
        run(kTa + " timeline " + quoted(tracePath()) + " wide");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("width"), std::string::npos);
}

TEST(TaExitCodes, NonNumericActivityBucketsAreUsage)
{
    const RunResult r =
        run(kTa + " activity " + quoted(tracePath()) + " some");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("buckets"), std::string::npos);
}

TEST(TaExitCodes, MissingTraceIsRuntimeError)
{
    const RunResult r = run(kTa + " summary /no/such/trace.pdt");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos)
        << "runtime errors must not dump usage";
}

TEST(TaExitCodes, GoodSummaryExitsZero)
{
    const RunResult r = run(kTa + " summary " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 0);
}

// ---------------------------------------------------------------------------
// ta query / serve
// ---------------------------------------------------------------------------

TEST(QueryExitCodes, QueryWithoutConnectIsUsage)
{
    const RunResult r = run(kTa + " query ping");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("--connect"), std::string::npos);
}

TEST(QueryExitCodes, UnknownOpIsUsage)
{
    const RunResult r =
        run(kTa + " query --connect /tmp/none.sock bogus");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("unknown query op"), std::string::npos);
}

TEST(QueryExitCodes, NonNumericWindowBoundsAreUsage)
{
    const RunResult r =
        run(kTa + " query --connect /tmp/none.sock window m lo hi");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("timebase ticks"), std::string::npos);
}

TEST(QueryExitCodes, OutOfRangeBucketsAreUsage)
{
    const RunResult r =
        run(kTa + " query --connect /tmp/none.sock profile m 70000");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("[1, 65535]"), std::string::npos);
}

TEST(QueryExitCodes, DeadSocketIsRuntimeError)
{
    const RunResult r = run(
        kTa + " query --connect /no/such/dir/none.sock --attempts 1 ping");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos);
}

TEST(ServeExitCodes, MalformedRegistrationIsUsage)
{
    const RunResult r =
        run(kTa + " serve /tmp/none.sock just-a-name-no-path");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("name=trace.pdt"), std::string::npos);
}

TEST(ServeExitCodes, MissingRegistrationIsUsage)
{
    const RunResult r = run(kTa + " serve /tmp/none.sock");
    EXPECT_EQ(r.exit_code, 2);
}

// ---------------------------------------------------------------------------
// ta surgery
// ---------------------------------------------------------------------------

TEST(SurgeryExitCodes, MissingOperationIsUsage)
{
    const RunResult r = run(kTa + " surgery");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(SurgeryExitCodes, UnknownOperationIsUsage)
{
    const RunResult r = run(kTa + " surgery transplant " +
                            quoted(tracePath()) + " /tmp/out.pdt");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("unknown surgery op"), std::string::npos);
}

TEST(SurgeryExitCodes, NonNumericSliceBoundsAreUsage)
{
    const RunResult r = run(kTa + " surgery slice " + quoted(tracePath()) +
                            " /tmp/out.pdt lo hi");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("timebase ticks"), std::string::npos);
}

TEST(SurgeryExitCodes, InvertedSliceWindowIsUsage)
{
    const RunResult r = run(kTa + " surgery slice " + quoted(tracePath()) +
                            " /tmp/out.pdt 900 100");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("exceeds"), std::string::npos);
}

TEST(SurgeryExitCodes, CutCountMismatchIsUsage)
{
    const RunResult r =
        run(kTa + " surgery splice /tmp/out.pdt " + quoted(tracePath()) +
            " " + quoted(tracePath()) + " --cut 10 --cut 20");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("one --cut per junction"), std::string::npos);
}

TEST(SurgeryExitCodes, AlignWithBladesIsUsage)
{
    const RunResult r =
        run(kTa + " surgery splice /tmp/out.pdt " + quoted(tracePath()) +
            " " + quoted(tracePath()) + " --align --blades");
    EXPECT_EQ(r.exit_code, 2);
}

TEST(SurgeryExitCodes, BadKindGroupIsUsage)
{
    const RunResult r = run(kTa + " surgery filter " + quoted(tracePath()) +
                            " /tmp/out.pdt --kinds dma,bogus");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("unknown event group"), std::string::npos);
}

TEST(SurgeryExitCodes, NonNumericCoreListIsUsage)
{
    const RunResult r = run(kTa + " surgery filter " + quoted(tracePath()) +
                            " /tmp/out.pdt --cores 0,ppe");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("--cores"), std::string::npos);
}

TEST(SurgeryExitCodes, OutOfRangeCoreIdIsUsage)
{
    // The fixture has 1 SPE -> valid cores are 0 and 1.
    const RunResult r = run(kTa + " surgery filter " + quoted(tracePath()) +
                            " /tmp/out.pdt --cores 9");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(SurgeryExitCodes, MissingInputIsRuntimeError)
{
    const RunResult r =
        run(kTa + " surgery slice /no/such/trace.pdt /tmp/out.pdt 0 100");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos);
}

TEST(SurgeryExitCodes, GoodSliceSpliceFilterExitZero)
{
    const std::string base = ::testing::TempDir() + "/cli_surgery_" +
                             std::to_string(::getpid());
    const std::string a = base + "_a.pdt";
    const std::string b = base + "_b.pdt";
    const std::string sp = base + "_sp.pdt";
    const std::string fl = base + "_fl.pdt";

    RunResult r = run(kTa + " surgery slice " + quoted(tracePath()) + " " +
                      quoted(a) + " 0 3000");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " surgery slice " + quoted(tracePath()) + " " +
            quoted(b) + " 3000 99999999");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " surgery splice " + quoted(sp) + " " + quoted(a) + " " +
            quoted(b) + " --cut 3000");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " surgery filter " + quoted(tracePath()) + " " +
            quoted(fl) + " --cores 0,1 --kinds dma,mailbox");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " summary " + quoted(sp));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    for (const std::string& p : {a, b, sp, fl})
        std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// ta diff / diff-corpus
// ---------------------------------------------------------------------------

TEST(DiffExitCodes, MissingFileArgumentIsUsage)
{
    const RunResult r = run(kTa + " diff " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(DiffExitCodes, ZeroWindowIsUsage)
{
    const RunResult r = run(kTa + " diff --window 0 " +
                            quoted(tracePath()) + " " +
                            quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("--window"), std::string::npos);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(DiffExitCodes, NonNumericWindowIsUsage)
{
    const RunResult r = run(kTa + " diff --window wide " +
                            quoted(tracePath()) + " " +
                            quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(DiffExitCodes, NonNumericThresholdIsUsage)
{
    const RunResult r = run(kTa + " diff --threshold lots " +
                            quoted(tracePath()) + " " +
                            quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(DiffExitCodes, MissingTraceIsRuntimeError)
{
    const RunResult r =
        run(kTa + " diff " + quoted(tracePath()) + " /no/such/trace.pdt");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos);
}

TEST(DiffExitCodes, SelfDiffExitsZeroAndReportsNoDivergence)
{
    const RunResult r = run(kTa + " diff " + quoted(tracePath()) + " " +
                            quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("no divergence"), std::string::npos)
        << r.output;
}

TEST(DiffCorpusExitCodes, MissingPairsFileIsRuntimeError)
{
    const RunResult r = run(kTa + " diff-corpus /no/such/pairs.txt");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos);
}

TEST(DiffCorpusExitCodes, MalformedPairsLineIsUsage)
{
    const std::string pairs = ::testing::TempDir() + "/cli_pairs_" +
                              std::to_string(::getpid()) + ".txt";
    {
        std::ofstream os(pairs);
        os << "# comment\n"
           << "only_two_tokens " << tracePath() << "\n";
    }
    const RunResult r = run(kTa + " diff-corpus " + quoted(pairs));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("malformed pairs line 2"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
    std::remove(pairs.c_str());
}

TEST(DiffCorpusExitCodes, GoodCorpusExitsZero)
{
    const std::string pairs = ::testing::TempDir() + "/cli_pairs_ok_" +
                              std::to_string(::getpid()) + ".txt";
    {
        std::ofstream os(pairs);
        os << "self " << tracePath() << " " << tracePath() << "\n";
    }
    const RunResult r = run(kTa + " diff-corpus " + quoted(pairs));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 pair(s)"), std::string::npos) << r.output;
    std::remove(pairs.c_str());
}

TEST(SurgeryExitCodes, NonNumericDelayValuesAreUsage)
{
    RunResult r = run(kTa + " surgery delay " + quoted(tracePath()) +
                      " /tmp/out.pdt soon 5");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
    r = run(kTa + " surgery delay " + quoted(tracePath()) +
            " /tmp/out.pdt 100 lots");
    EXPECT_EQ(r.exit_code, 2);
}

TEST(SurgeryExitCodes, DelayCoreListIsUsage)
{
    // delay takes a single --cores value, not a list.
    const RunResult r = run(kTa + " surgery delay " + quoted(tracePath()) +
                            " /tmp/out.pdt 100 5 --cores 0,1");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(SurgeryExitCodes, GoodDelayThenDiffLocalizes)
{
    // A generated trace, not the synthetic fixture: its sync records
    // carry real raw timestamps, so the delayed stream re-encodes.
    const std::string base = ::testing::TempDir() + "/cli_delay_" +
                             std::to_string(::getpid());
    const std::string in = base + "_in.pdt";
    const std::string out = base + "_out.pdt";
    RunResult r =
        run(std::string(CELL_TRACE_GEN_BIN) +
            " --seed 11 --scenario multi_core " + quoted(in));
    ASSERT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " surgery delay " + quoted(in) + " " + quoted(out) +
            " 0 5000");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " diff " + quoted(in) + " " + quoted(out));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("first divergence"), std::string::npos)
        << r.output;
    r = run(kTa + " diff --json " + quoted(in) + " " + quoted(out));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("\"diverged\":true"), std::string::npos)
        << r.output;
    std::remove(in.c_str());
    std::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// trace_gen
// ---------------------------------------------------------------------------

const std::string kGen = CELL_TRACE_GEN_BIN;

TEST(TraceGenExitCodes, NoOutputPathIsUsage)
{
    const RunResult r = run(kGen);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TraceGenExitCodes, UnknownFlagIsUsage)
{
    const RunResult r = run(kGen + " --bogus /tmp/out.pdt");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TraceGenExitCodes, UnknownScenarioIsUsage)
{
    const RunResult r = run(kGen + " --scenario nope /tmp/out.pdt");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("unknown scenario"), std::string::npos);
}

TEST(TraceGenExitCodes, NonNumericSeedIsUsage)
{
    const RunResult r = run(kGen + " --seed lucky /tmp/out.pdt");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TraceGenExitCodes, SweepWithoutOutDirIsUsage)
{
    const RunResult r = run(kGen + " --sweep 3");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("--out-dir"), std::string::npos);
}

TEST(TraceGenExitCodes, PerturbWithAdversarialIsUsage)
{
    const RunResult r =
        run(kGen + " --sweep 2 --out-dir /tmp/gen_x --perturb "
                   "--adversarial");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("--adversarial"), std::string::npos);
}

TEST(TraceGenExitCodes, ListScenariosExitsZero)
{
    const RunResult r = run(kGen + " --list-scenarios");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("drop_storm"), std::string::npos);
}

TEST(TraceGenExitCodes, GoodGenerateExitsZeroAndAnalyzes)
{
    const std::string p = ::testing::TempDir() + "/cli_gen_" +
                          std::to_string(::getpid()) + ".pdt";
    RunResult r = run(kGen + " --seed 11 --scenario multi_core " +
                      quoted(p));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = run(kTa + " summary " + quoted(p));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// pdt_dump
// ---------------------------------------------------------------------------

TEST(PdtDumpExitCodes, NoArgumentsIsUsage)
{
    const RunResult r = run(kDump);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(PdtDumpExitCodes, UnknownFlagIsUsage)
{
    const RunResult r = run(kDump + " --bogus " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(PdtDumpExitCodes, NonNumericMaxIsUsage)
{
    const RunResult r =
        run(kDump + " " + quoted(tracePath()) + " everything");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("record count"), std::string::npos);
}

TEST(PdtDumpExitCodes, InvertedWindowIsUsage)
{
    const RunResult r =
        run(kDump + " --from 900 --to 100 " + quoted(tracePath()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("exceeds"), std::string::npos);
}

TEST(PdtDumpExitCodes, MissingTraceIsRuntimeError)
{
    const RunResult r = run(kDump + " /no/such/trace.pdt");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos);
}

TEST(PdtDumpExitCodes, GoodDumpExitsZero)
{
    const RunResult r = run(kDump + " " + quoted(tracePath()) + " 5");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("records"), std::string::npos);
}

} // namespace
} // namespace cell
