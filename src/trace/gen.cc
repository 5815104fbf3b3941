/**
 * @file
 * Seeded scenario generator implementation.
 */

#include "trace/gen.h"

#include <algorithm>

#include "trace/format.h"
#include "trace/replay.h"
#include "trace/writer.h"

namespace cell::trace::gen {
namespace {

/** splitmix64: tiny, fast, and stable across platforms — the seed is
 *  the whole reproduction recipe, so the stream must never change. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
    bool chance(unsigned pct) { return below(100) < pct; }
};

constexpr const char* kScenarioNames[] = {
    "basic",       "deep_nesting", "drop_storm", "clock_skew",
    "wrap_around", "multi_core",   "unknown_ops", "flush_heavy",
    "sparse_cores", "tiny",
};
static_assert(sizeof(kScenarioNames) / sizeof(kScenarioNames[0]) ==
              kNumScenarios);

/** Per-core emission state. */
struct CoreGen
{
    bool synced = false;
    std::uint32_t sync_raw = 0;
    std::uint64_t sync_tb = 0;
    std::uint64_t since_sync = 0;
    std::uint64_t drops_cum = 0;
    std::vector<std::uint8_t> open; ///< kinds with an un-Ended Begin
};

} // namespace

const char*
scenarioName(Scenario s)
{
    const auto i = static_cast<std::size_t>(s);
    return i < kNumScenarios ? kScenarioNames[i] : "?";
}

bool
scenarioFromName(const std::string& name, Scenario& out)
{
    for (std::size_t i = 0; i < kNumScenarios; ++i) {
        if (name == kScenarioNames[i]) {
            out = static_cast<Scenario>(i);
            return true;
        }
    }
    return false;
}

Scenario
scenarioFor(const GenOptions& opt)
{
    if (opt.scenario >= 0 &&
        opt.scenario < static_cast<int>(kNumScenarios))
        return static_cast<Scenario>(opt.scenario);
    Rng rng(opt.seed ^ 0x5CE11A51ull);
    return static_cast<Scenario>(rng.below(kNumScenarios));
}

TraceData
generate(const GenOptions& opt)
{
    const Scenario sc = scenarioFor(opt);
    Rng rng(opt.seed);

    std::uint32_t num_spes = opt.num_spes;
    if (num_spes == 0) {
        switch (sc) {
          case Scenario::MultiCore: num_spes = 6 + rng.below(3); break;
          case Scenario::SparseCores: num_spes = 4 + rng.below(3); break;
          case Scenario::DropStorm:
          case Scenario::ClockSkew: num_spes = 3; break;
          case Scenario::Tiny: num_spes = 1; break;
          default: num_spes = 2; break;
        }
    }
    std::uint64_t records = opt.records;
    if (records == 0) {
        records = sc == Scenario::Tiny ? 1 + rng.below(8)
                                       : 200 + rng.below(800);
    }

    TraceData d;
    d.header.num_spes = num_spes;
    d.header.core_hz = 3'200'000'000ull;
    d.header.timebase_divider = 8;
    d.spe_programs.resize(num_spes);
    for (std::uint32_t i = 0; i < num_spes; ++i)
        d.spe_programs[i] = std::string("gen_") + scenarioName(sc);

    const std::uint32_t n_cores = num_spes + 1;
    std::vector<CoreGen> cores(n_cores);
    std::uint64_t tb = 10'000 + rng.below(100'000);

    auto emitSync = [&](std::uint16_t c, std::uint64_t local_tb) {
        CoreGen& cg = cores[c];
        std::uint64_t sync_tb = local_tb;
        if (sc == Scenario::ClockSkew && cg.synced && rng.chance(30)) {
            // A re-sync that steps the mapping backward: later events
            // place behind the clamp carry and get flattened — the
            // analyzer path this scenario exists to exercise.
            sync_tb = local_tb - std::min<std::uint64_t>(local_tb,
                                                         rng.below(500));
        }
        cg.sync_raw = sc == Scenario::WrapAround
                          ? static_cast<std::uint32_t>(rng.below(1024))
                          : static_cast<std::uint32_t>(rng.next());
        cg.sync_tb = sync_tb;
        cg.synced = true;
        cg.since_sync = 0;
        Record r{};
        r.kind = kSyncRecord;
        r.core = c;
        r.timestamp = cg.sync_raw; // delta 0: places at sync_tb
        r.a = cg.sync_raw;
        r.b = cg.sync_tb;
        d.records.push_back(r);
    };

    while (d.records.size() < records) {
        // Pick a core; SparseCores funnels nearly everything to SPE 0.
        std::uint16_t c;
        if (sc == Scenario::SparseCores && rng.chance(80))
            c = 1;
        else
            c = static_cast<std::uint16_t>(rng.below(n_cores));
        CoreGen& cg = cores[c];

        tb += 1 + rng.below(64);
        std::uint64_t local_tb = tb;
        if (sc == Scenario::ClockSkew) {
            const std::uint64_t jitter = rng.below(11);
            local_tb = tb + jitter - std::min<std::uint64_t>(tb, 5);
        }

        const bool need_sync =
            !cg.synced || cg.since_sync >= 50 ||
            local_tb - cg.sync_tb > 0x40000000ull;
        if (need_sync) {
            emitSync(c, local_tb);
            continue;
        }

        const std::uint64_t raw_delta =
            local_tb > cg.sync_tb ? local_tb - cg.sync_tb : 0;
        const std::uint32_t delta = static_cast<std::uint32_t>(raw_delta);

        Record r{};
        r.core = c;
        r.timestamp = rawTimestamp(c, cg.sync_raw, delta);
        r.a = rng.below(4096);
        r.b = rng.next() & 0xFFFFFFull;
        r.c = static_cast<std::uint32_t>(rng.below(256));
        r.d = static_cast<std::uint32_t>(rng.below(16));

        if (sc == Scenario::DropStorm && rng.chance(20)) {
            r.kind = kDropRecord;
            r.phase = 0;
            r.a = 1 + rng.below(50);
            cg.drops_cum += r.a;
            r.b = cg.drops_cum;
        } else if (sc == Scenario::FlushHeavy && rng.chance(30)) {
            r.kind = kFlushRecord;
            r.phase = 0;
            r.a = r.b = 0;
        } else if (sc == Scenario::UnknownOps && rng.chance(25)) {
            r.kind = static_cast<std::uint8_t>(40 + rng.below(24));
            r.phase = static_cast<std::uint8_t>(rng.below(2));
        } else {
            const unsigned close_bias =
                sc == Scenario::DeepNesting
                    ? (cg.open.size() > 20 ? 80 : 10)
                    : 45;
            if (!cg.open.empty() && rng.chance(close_bias)) {
                const std::size_t k = rng.below(cg.open.size());
                r.kind = cg.open[k];
                r.phase = kPhaseEnd;
                cg.open.erase(cg.open.begin() +
                              static_cast<std::ptrdiff_t>(k));
            } else {
                r.kind = static_cast<std::uint8_t>(rng.below(33));
                r.phase = kPhaseBegin;
                cg.open.push_back(r.kind);
            }
        }
        cg.since_sync += 1;
        d.records.push_back(r);
    }

    d.header.record_count = d.records.size();
    return d;
}

std::vector<std::uint8_t>
generateBytes(const BytesOptions& opt, std::string* desc)
{
    const TraceData d = generate(opt.gen);
    Rng rng(opt.gen.seed ^ 0xADE5A17Aull);

    int container = opt.container;
    if (container < 1 || container > 3)
        container = 1 + static_cast<int>(rng.below(3));
    WriteOptions w;
    if (container == 2)
        w.index_stride = 32;
    if (container == 3) {
        w.index_stride = 32;
        w.compress = true;
    }
    std::vector<std::uint8_t> bytes = writeBuffer(d, w);

    std::string tag = std::string(scenarioName(scenarioFor(opt.gen))) +
                      " v" + std::to_string(container);
    if (opt.adversarial) {
        tag += " adv[";
        const std::uint64_t n_mut = 1 + rng.below(2);
        for (std::uint64_t m = 0; m < n_mut; ++m) {
            if (m)
                tag += ',';
            switch (rng.below(16)) {
              case 0:
              case 1:
              case 14:
                bytes.resize(std::max<std::size_t>(
                    1, rng.below(bytes.size() + 1)));
                tag += "truncate";
                break;
              case 2:
              case 3:
              case 12:
              case 13: {
                const std::uint64_t flips = 1 + rng.below(8);
                for (std::uint64_t f = 0; f < flips; ++f)
                    bytes[rng.below(bytes.size())] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                tag += "bitflip";
                break;
              }
              case 4:
              case 5: {
                const std::size_t run = static_cast<std::size_t>(
                    16 + rng.below(std::max<std::uint64_t>(
                             1, std::min<std::uint64_t>(
                                    200, bytes.size() / 4))));
                const std::size_t at = static_cast<std::size_t>(
                    rng.below(bytes.size()));
                const std::size_t end =
                    std::min(bytes.size(), at + run);
                std::fill(bytes.begin() +
                              static_cast<std::ptrdiff_t>(at),
                          bytes.begin() +
                              static_cast<std::ptrdiff_t>(end),
                          std::uint8_t{0xFF});
                tag += "midsmash";
                break;
              }
              case 6:
                // Lie about the record count (header bytes 32..39).
                if (bytes.size() >= 40) {
                    const std::uint64_t lie = rng.next();
                    for (int b = 0; b < 8; ++b)
                        bytes[32 + static_cast<std::size_t>(b)] =
                            static_cast<std::uint8_t>(lie >> (8 * b));
                }
                tag += "headerlie";
                break;
              case 7:
                if (bytes.size() > 44) {
                    for (std::size_t b = 40; b < 44; ++b)
                        bytes[b] = static_cast<std::uint8_t>(rng.next());
                }
                tag += "namegarbage";
                break;
              case 8:
              case 9: {
                const std::uint64_t extra = 16 + rng.below(48);
                for (std::uint64_t b = 0; b < extra; ++b)
                    bytes.push_back(
                        static_cast<std::uint8_t>(rng.next()));
                tag += "tailgarbage";
                break;
              }
              case 10:
              case 11:
                if (bytes.size() >= 24) {
                    for (std::size_t b = bytes.size() - 16;
                         b < bytes.size() - 8; ++b)
                        bytes[b] ^= static_cast<std::uint8_t>(
                            1 + rng.below(255));
                }
                tag += "footersmash";
                break;
              default:
                if (bytes.size() >= 4) {
                    for (std::size_t b = 0; b < 4; ++b)
                        bytes[b] = static_cast<std::uint8_t>(rng.next());
                }
                tag += "magicsmash";
                break;
            }
        }
        tag += ']';
    }
    if (desc != nullptr)
        *desc = tag;
    return bytes;
}

} // namespace cell::trace::gen
