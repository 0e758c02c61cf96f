#include "harness/report.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/json.hh"
#include "common/stats.hh"
#include "isa/opcode.hh"
#include "isa/program.hh"
#include "trace/events.hh"

namespace si {

namespace {

/** Per-opcode key of slots with no instruction: after every opcode. */
constexpr std::uint32_t noOpcode = 0x100;

/** Histogram rows keyed by pc or opcode, in ascending key order. */
using StallHistogram = std::map<std::uint32_t, StallCounts>;

std::uint64_t
rowTotal(const StallCounts &row)
{
    std::uint64_t t = 0;
    for (const std::uint64_t v : row)
        t += v;
    return t;
}

/** result.stallsByPc as one row per pc ("(no subwarp)" last). */
StallHistogram
stallsPerPc(const GpuResult &result)
{
    StallHistogram hist;
    for (const PcStall &c : result.stallsByPc)
        hist[c.pc][std::size_t(c.reason)] += c.slots;
    return hist;
}

/** @p per_pc folded by the opcode at each pc. */
StallHistogram
stallsPerOpcode(const StallHistogram &per_pc, const Program &prog)
{
    StallHistogram hist;
    for (const auto &[pc, counts] : per_pc) {
        StallCounts &row =
            hist[pc < prog.size() ? std::uint32_t(prog.at(pc).op)
                                  : noOpcode];
        for (std::size_t k = 0; k < numStallReasons; ++k)
            row[k] += counts[k];
    }
    return hist;
}

std::string
opcodeLabel(std::uint32_t op)
{
    return op == noOpcode ? "(none)" : opcodeName(static_cast<Opcode>(op));
}

} // namespace

StatGroup
statsGroup(const std::string &name, const SmStats &s,
           std::uint64_t norm_cycles)
{
    const std::uint64_t norm = norm_cycles ? norm_cycles : s.cycles;
    StatGroup g(name);
    for (const StatField<SmStats> &f : smStatFields) {
        if (f.kind == StatKind::Reasons) {
            for (unsigned k = 0; k < numStallReasons; ++k)
                g.scalar(std::string(f.key) + "_" +
                         stallReasonKey(StallReason(k))) =
                    (s.*f.reasons)[k];
        } else if (f.kind != StatKind::Real) {
            // Real rows are listed as exposed_stall_frac_divergent.
            g.scalar(f.key) = f.word(s);
        }
    }

    g.formula("ipc", [&s]() {
        return s.cycles ? double(s.instrsIssued) / double(s.cycles) : 0.0;
    });
    g.formula("exposed_stall_frac", [&s, norm]() {
        return norm ? double(s.exposedLoadStallCycles) / double(norm)
                    : 0.0;
    });
    g.formula("exposed_stall_frac_divergent", [&s, norm]() {
        return norm ? s.exposedLoadStallCyclesDivergent / double(norm)
                    : 0.0;
    });
    g.formula("l1d_miss_rate", [&s]() {
        const double total = double(s.l1dHits + s.l1dMisses);
        return total > 0 ? double(s.l1dMisses) / total : 0.0;
    });
    g.formula("l0i_miss_rate", [&s]() {
        const double total = double(s.l0iHits + s.l0iMisses);
        return total > 0 ? double(s.l0iMisses) / total : 0.0;
    });
    // Zero by the warp-cycle partition identity (core/sm.hh); anything
    // else means the instrumentation lost a warp-cycle.
    g.formula("warp_cycle_residual", [&s]() {
        return double(s.liveWarpCycles) -
               double(s.instrsIssued + s.arbLossCycles +
                      rowTotal(s.stallCyclesByReason));
    });
    return g;
}

std::string
statsReport(const std::string &name, const SmStats &s,
            std::uint64_t norm_cycles)
{
    return statsGroup(name, s, norm_cycles).dump();
}

std::string
statsReport(const GpuResult &result)
{
    std::string out =
        statsReport("gpu", result.total, result.smCycleSum());
    for (std::size_t i = 0; i < result.perSm.size(); ++i)
        out += statsReport("sm" + std::to_string(i), result.perSm[i]);
    return out;
}

std::string
statsJson(const GpuResult &result, const std::string &kernel,
          const StatsJsonOptions &options)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").value("si-stats-v1");
    if (!kernel.empty())
        w.key("kernel").value(kernel);
    w.key("ok").value(result.ok());
    w.key("status").value(result.status.ok() ? "ok"
                                             : result.status.summary());
    w.key("cycles").value(std::uint64_t(result.cycles));
    w.key("groups").beginArray();
    w.raw(statsGroup("gpu", result.total, result.smCycleSum()).dumpJson());
    for (std::size_t i = 0; i < result.perSm.size(); ++i) {
        w.raw(statsGroup("sm" + std::to_string(i), result.perSm[i])
                  .dumpJson());
    }
    w.endArray();
    // Aggregate per-region warp-cycle partition (swprof --diff input).
    w.key("regions").beginArray();
    for (std::size_t i = 0; i < result.total.regions.size(); ++i) {
        const RegionCounters &rc = result.total.regions[i];
        w.beginObject();
        w.key("name").value(i < options.regionNames.size()
                                ? options.regionNames[i]
                                : "region" + std::to_string(i));
        for (const StatField<RegionCounters> &f : regionStatFields) {
            w.key(f.key);
            if (f.kind != StatKind::Reasons) {
                w.value(f.word(rc));
                continue;
            }
            w.beginObject();
            for (unsigned k = 0; k < numStallReasons; ++k)
                w.key(stallReasonName(StallReason(k)))
                    .value((rc.*f.reasons)[k]);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    if (options.includeTrace) {
        w.key("trace").beginObject();
        w.key("recorded").value(options.traceRecorded);
        w.key("dropped").value(options.traceDropped);
        w.endObject();
    }
    w.endObject();
    return w.take();
}

std::string
stallReport(const GpuResult &result, const Program &prog,
            std::size_t top_n)
{
    std::string out;
    char line[256];
    const StallCounts &totals = result.total.stallCyclesByReason;
    const std::uint64_t issued = result.total.instrsIssued;
    const std::uint64_t total = rowTotal(totals);

    out += "== stall attribution (lost issue slots) ==\n";
    std::snprintf(line, sizeof(line),
                  "issued %llu, stalled %llu of %llu warp-cycles\n",
                  static_cast<unsigned long long>(issued),
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(total + issued));
    out += line;
    for (unsigned r = 0; r < numStallReasons; ++r) {
        const double share =
            total ? 100.0 * double(totals[r]) / double(total) : 0.0;
        std::snprintf(line, sizeof(line), "  %-18s %12llu  %6.2f%%\n",
                      stallReasonName(static_cast<StallReason>(r)),
                      static_cast<unsigned long long>(totals[r]), share);
        out += line;
    }

    auto section = [&](const char *title, const StallHistogram &hist,
                       auto label) {
        out += title;
        std::snprintf(line, sizeof(line),
                      "  %-16s %10s %12s %8s %8s %9s %6s %7s\n", "",
                      "total", "load2use", "ifetch", "barrier", "no-ready",
                      "pipe", "switch");
        out += line;
        std::vector<std::pair<std::uint32_t, StallCounts>> rows(
            hist.begin(), hist.end());
        std::stable_sort(rows.begin(), rows.end(),
                         [](const auto &a, const auto &b) {
                             return rowTotal(a.second) >
                                    rowTotal(b.second);
                         });
        rows.resize(std::min(rows.size(), top_n));
        for (const auto &[key, c] : rows) {
            std::snprintf(
                line, sizeof(line),
                "  %-16s %10llu %12llu %8llu %8llu %9llu %6llu %7llu\n",
                label(key).c_str(),
                static_cast<unsigned long long>(rowTotal(c)),
                static_cast<unsigned long long>(c[0]),
                static_cast<unsigned long long>(c[1]),
                static_cast<unsigned long long>(c[2]),
                static_cast<unsigned long long>(c[3]),
                static_cast<unsigned long long>(c[4]),
                static_cast<unsigned long long>(c[5]));
            out += line;
        }
    };
    const StallHistogram per_pc = stallsPerPc(result);
    section("== per-pc hotspots ==\n", per_pc, [&](std::uint32_t pc) {
        if (pc == noSubwarpPc)
            return std::string("(no subwarp)");
        char buf[48];
        if (pc < prog.size()) {
            std::snprintf(buf, sizeof(buf), "%4u %-6s", pc,
                          opcodeName(prog.at(pc).op));
        } else {
            std::snprintf(buf, sizeof(buf), "%4u", pc);
        }
        return std::string(buf);
    });
    section("== per-opcode ==\n", stallsPerOpcode(per_pc, prog),
            opcodeLabel);
    return out;
}

std::string
stallReportJson(const GpuResult &result, const Program &prog)
{
    const StallCounts &totals = result.total.stallCyclesByReason;
    json::Writer w;
    w.beginObject();
    w.key("schema").value("si-stall-v1");
    w.key("kernel").value(prog.name());
    w.key("issued").value(result.total.instrsIssued);
    w.key("totalStalls").value(rowTotal(totals));
    w.key("byReason").beginObject();
    for (unsigned r = 0; r < numStallReasons; ++r)
        w.key(stallReasonName(StallReason(r))).value(totals[r]);
    w.endObject();
    auto hist = [&](const char *name, const StallHistogram &rows,
                    auto label) {
        w.key(name).beginArray();
        for (const auto &[key, counts] : rows) {
            w.beginObject();
            w.key("key").value(label(key));
            w.key("total").value(rowTotal(counts));
            for (unsigned r = 0; r < numStallReasons; ++r)
                w.key(stallReasonName(StallReason(r))).value(counts[r]);
            w.endObject();
        }
        w.endArray();
    };
    const StallHistogram per_pc = stallsPerPc(result);
    hist("perPc", per_pc, [&](std::uint32_t pc) {
        if (pc == noSubwarpPc)
            return std::string("(no subwarp)");
        std::string label = std::to_string(pc);
        if (pc < prog.size())
            label += std::string(" ") + opcodeName(prog.at(pc).op);
        return label;
    });
    hist("perOpcode", stallsPerOpcode(per_pc, prog), opcodeLabel);
    w.endObject();
    return w.take();
}

} // namespace si
