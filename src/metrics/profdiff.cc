#include "metrics/profdiff.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/json.hh"

namespace si {

namespace {

std::uint64_t
u64Of(const json::Value &v)
{
    return v.isNumber() && v.number > 0 ? std::uint64_t(v.number) : 0;
}

std::uint64_t
u64Field(const json::Value &obj, std::string_view key)
{
    const json::Value *v = obj.find(key);
    return v ? u64Of(*v) : 0;
}

/** Read a {"reason-name": count, ...} object into a reason array. */
void
readStallMap(const json::Value *map,
             std::array<std::uint64_t, numStallReasons> &out)
{
    if (!map || !map->isObject())
        return;
    for (const auto &[key, val] : map->object)
        for (unsigned k = 0; k < numStallReasons; ++k)
            if (key == stallReasonName(StallReason(k)))
                out[k] += u64Of(val);
}

bool
loadStatsV1(const json::Value &doc, ProfSide &out, std::string &error)
{
    const json::Value *groups = doc.find("groups");
    if (!groups || !groups->isArray()) {
        error = "si-stats-v1 document has no groups array";
        return false;
    }
    const json::Value *gpu = nullptr;
    for (const json::Value &g : groups->array) {
        const json::Value *name = g.find("name");
        if (name && name->isString() && name->str == "gpu") {
            gpu = &g;
            break;
        }
    }
    if (!gpu) {
        error = "si-stats-v1 document has no \"gpu\" group";
        return false;
    }
    const json::Value *scalars = gpu->find("scalars");
    if (!scalars || !scalars->isObject()) {
        error = "gpu group has no scalars object";
        return false;
    }
    out.cycles = u64Field(doc, "cycles");
    out.liveWarpCycles = u64Field(*scalars, "live_warp_cycles");
    out.instrsIssued = u64Field(*scalars, "instrs_issued");
    out.arbLossCycles = u64Field(*scalars, "arb_loss_cycles");
    if (!scalars->find("live_warp_cycles")) {
        error = "gpu group has no live_warp_cycles scalar (export "
                "predates the warp-cycle partition?)";
        return false;
    }
    for (unsigned k = 0; k < numStallReasons; ++k)
        out.stall[k] = u64Field(
            *scalars, "stall_cycles_" + stallReasonKey(StallReason(k)));

    const json::Value *regions = doc.find("regions");
    if (!regions || !regions->isArray()) {
        error = "si-stats-v1 document has no regions array";
        return false;
    }
    for (const json::Value &r : regions->array) {
        RegionTotals rt;
        const json::Value *name = r.find("name");
        if (!name || !name->isString()) {
            error = "region entry has no name";
            return false;
        }
        rt.name = name->str;
        rt.warpCycles = u64Field(r, "warp_cycles");
        rt.instrsIssued = u64Field(r, "instrs_issued");
        rt.arbLossCycles = u64Field(r, "arb_loss_cycles");
        readStallMap(r.find("stall_cycles"), rt.stall);
        out.regions.push_back(std::move(rt));
    }
    return true;
}

bool
loadMetricsV1(const json::Value &doc, ProfSide &out, std::string &error)
{
    if (u64Field(doc, "dropped_total") != 0) {
        error = "si-metrics-v1 input dropped windows; its series no "
                "longer covers the run (raise the ring capacity)";
        return false;
    }
    const json::Value *names = doc.find("regions");
    if (!names || !names->isArray()) {
        error = "si-metrics-v1 document has no regions name table";
        return false;
    }
    for (const json::Value &n : names->array) {
        RegionTotals rt;
        rt.name = n.isString() ? n.str
                               : "region" + std::to_string(out.regions.size());
        out.regions.push_back(std::move(rt));
    }
    const json::Value *sms = doc.find("sms");
    if (!sms || !sms->isArray()) {
        error = "si-metrics-v1 document has no sms array";
        return false;
    }
    for (const json::Value &sm : sms->array) {
        const json::Value *windows = sm.find("windows");
        if (!windows || !windows->isArray())
            continue;
        std::uint64_t sm_cycles = 0;
        for (const json::Value &win : windows->array) {
            sm_cycles += u64Field(win, "cycles");
            out.liveWarpCycles += u64Field(win, "live_warp_cycles");
            out.instrsIssued += u64Field(win, "instrs_issued");
            out.arbLossCycles += u64Field(win, "arb_loss_cycles");
            readStallMap(win.find("stall_cycles"), out.stall);
            const json::Value *regions = win.find("regions");
            if (!regions || !regions->isArray())
                continue;
            for (const json::Value &r : regions->array) {
                const std::uint64_t idx = u64Field(r, "region");
                if (idx >= out.regions.size()) {
                    error = "window references region index " +
                            std::to_string(idx) +
                            " beyond the regions name table";
                    return false;
                }
                RegionTotals &rt = out.regions[idx];
                rt.warpCycles += u64Field(r, "warp_cycles");
                rt.instrsIssued += u64Field(r, "instrs_issued");
                rt.arbLossCycles += u64Field(r, "arb_loss_cycles");
                readStallMap(r.find("stall_cycles"), rt.stall);
            }
        }
        out.cycles = std::max(out.cycles, sm_cycles);
    }
    return true;
}

std::int64_t
diff64(std::uint64_t test, std::uint64_t base)
{
    return std::int64_t(test) - std::int64_t(base);
}

std::int64_t
abs64(std::int64_t v)
{
    return v < 0 ? -v : v;
}

void
appendSigned(std::string &out, std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+lld", (long long)(v));
    out += buf;
}

void
totalsLine(std::string &out, const char *label, std::uint64_t base,
           std::uint64_t test)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%-22s %12llu -> %12llu  ", label,
                  (unsigned long long)(base), (unsigned long long)(test));
    out += buf;
    appendSigned(out, diff64(test, base));
    out += '\n';
}

void
writeSideJson(json::Writer &w, const char *key, const ProfSide &s)
{
    w.key(key).beginObject();
    w.key("file").value(s.file);
    w.key("schema").value(s.schema);
    w.key("kernel").value(s.kernel);
    w.key("cycles").value(s.cycles);
    w.key("live_warp_cycles").value(s.liveWarpCycles);
    w.key("instrs_issued").value(s.instrsIssued);
    w.key("arb_loss_cycles").value(s.arbLossCycles);
    w.key("stall_cycles").beginObject();
    for (unsigned k = 0; k < numStallReasons; ++k)
        w.key(stallReasonName(StallReason(k))).value(s.stall[k]);
    w.endObject();
    w.endObject();
}

} // namespace

bool
loadProfInput(const std::string &text, const std::string &file,
              ProfSide &out, std::string &error)
{
    out = ProfSide{};
    out.file = file;
    json::ParseResult parsed = json::parse(text);
    if (!parsed.ok) {
        error = file + ": JSON parse error at offset " +
                std::to_string(parsed.offset) + ": " + parsed.error;
        return false;
    }
    const json::Value &doc = parsed.value;
    const json::Value *schema = doc.find("schema");
    if (!schema || !schema->isString()) {
        error = file + ": document has no schema field";
        return false;
    }
    out.schema = schema->str;
    if (const json::Value *kernel = doc.find("kernel");
        kernel && kernel->isString())
        out.kernel = kernel->str;

    bool ok;
    if (out.schema == "si-stats-v1")
        ok = loadStatsV1(doc, out, error);
    else if (out.schema == "si-metrics-v1")
        ok = loadMetricsV1(doc, out, error);
    else {
        error = "unsupported schema \"" + out.schema +
                "\" (expected si-stats-v1 or si-metrics-v1)";
        ok = false;
    }
    if (!ok)
        error = file + ": " + error;
    return ok;
}

ProfDiff
diffProf(const ProfSide &base, const ProfSide &test)
{
    ProfDiff d;
    d.base = base;
    d.test = test;
    d.deltaCycles = diff64(test.cycles, base.cycles);
    d.deltaLiveWarpCycles = diff64(test.liveWarpCycles, base.liveWarpCycles);
    d.deltaInstrsIssued = diff64(test.instrsIssued, base.instrsIssued);
    d.deltaArbLossCycles = diff64(test.arbLossCycles, base.arbLossCycles);
    for (unsigned k = 0; k < numStallReasons; ++k)
        d.deltaStall[k] = diff64(test.stall[k], base.stall[k]);

    // Align regions by name: union of both sides, in base order first,
    // then test-only regions in test order.
    std::map<std::string, std::size_t> index;
    for (const RegionTotals &rt : base.regions) {
        index.emplace(rt.name, d.regions.size());
        RegionDelta rd;
        rd.name = rt.name;
        rd.inBase = true;
        rd.warpCycles = -std::int64_t(rt.warpCycles);
        rd.instrsIssued = -std::int64_t(rt.instrsIssued);
        rd.arbLossCycles = -std::int64_t(rt.arbLossCycles);
        for (unsigned k = 0; k < numStallReasons; ++k)
            rd.stall[k] = -std::int64_t(rt.stall[k]);
        d.regions.push_back(std::move(rd));
    }
    for (const RegionTotals &rt : test.regions) {
        auto [it, fresh] = index.emplace(rt.name, d.regions.size());
        if (fresh)
            d.regions.push_back(RegionDelta{});
        RegionDelta &rd = d.regions[it->second];
        rd.name = rt.name;
        rd.inTest = true;
        rd.warpCycles += std::int64_t(rt.warpCycles);
        rd.instrsIssued += std::int64_t(rt.instrsIssued);
        rd.arbLossCycles += std::int64_t(rt.arbLossCycles);
        for (unsigned k = 0; k < numStallReasons; ++k)
            rd.stall[k] += std::int64_t(rt.stall[k]);
    }
    std::sort(d.regions.begin(), d.regions.end(),
              [](const RegionDelta &a, const RegionDelta &b) {
                  const std::int64_t aw = abs64(a.warpCycles);
                  const std::int64_t bw = abs64(b.warpCycles);
                  if (aw != bw)
                      return aw > bw;
                  return a.name < b.name;
              });

    std::int64_t region_sum = 0;
    for (const RegionDelta &rd : d.regions)
        region_sum += rd.warpCycles;
    d.residual = d.deltaLiveWarpCycles - region_sum;
    return d;
}

std::string
profDiffReport(const ProfDiff &d)
{
    std::string out;
    out += "profdiff: " + d.base.file + " -> " + d.test.file + "\n";
    out += "kernel: " + d.base.kernel;
    if (d.test.kernel != d.base.kernel)
        out += " vs " + d.test.kernel;
    out += "\n\n";

    totalsLine(out, "cycles", d.base.cycles, d.test.cycles);
    totalsLine(out, "live_warp_cycles", d.base.liveWarpCycles,
               d.test.liveWarpCycles);
    totalsLine(out, "instrs_issued", d.base.instrsIssued,
               d.test.instrsIssued);
    totalsLine(out, "arb_loss_cycles", d.base.arbLossCycles,
               d.test.arbLossCycles);
    for (unsigned k = 0; k < numStallReasons; ++k) {
        const std::string label =
            std::string("stall ") + stallReasonName(StallReason(k));
        totalsLine(out, label.c_str(), d.base.stall[k], d.test.stall[k]);
    }

    out += "\nregions (by |warp-cycle delta|):\n";
    for (const RegionDelta &rd : d.regions) {
        out += "  " + rd.name;
        if (!rd.inBase)
            out += " [test only]";
        if (!rd.inTest)
            out += " [base only]";
        out += ": warp cycles ";
        appendSigned(out, rd.warpCycles);
        out += " (issued ";
        appendSigned(out, rd.instrsIssued);
        out += ", arb ";
        appendSigned(out, rd.arbLossCycles);
        for (unsigned k = 0; k < numStallReasons; ++k) {
            if (rd.stall[k] == 0)
                continue;
            out += ", ";
            out += stallReasonName(StallReason(k));
            out += ' ';
            appendSigned(out, rd.stall[k]);
        }
        out += ")\n";
    }

    out += "\nresidual: ";
    appendSigned(out, d.residual);
    out += d.residual == 0 ? " (exact decomposition)\n"
                           : " (WARNING: inputs do not reconcile)\n";
    return out;
}

std::string
profDiffJson(const ProfDiff &d)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").value("si-profdiff-v1");
    writeSideJson(w, "base", d.base);
    writeSideJson(w, "test", d.test);
    w.key("delta").beginObject();
    w.key("cycles").value(d.deltaCycles);
    w.key("live_warp_cycles").value(d.deltaLiveWarpCycles);
    w.key("instrs_issued").value(d.deltaInstrsIssued);
    w.key("arb_loss_cycles").value(d.deltaArbLossCycles);
    w.key("stall_cycles").beginObject();
    for (unsigned k = 0; k < numStallReasons; ++k)
        w.key(stallReasonName(StallReason(k))).value(d.deltaStall[k]);
    w.endObject();
    w.endObject();
    w.key("regions").beginArray();
    for (const RegionDelta &rd : d.regions) {
        w.beginObject();
        w.key("region").value(rd.name);
        w.key("in_base").value(rd.inBase);
        w.key("in_test").value(rd.inTest);
        w.key("warp_cycles").value(rd.warpCycles);
        w.key("instrs_issued").value(rd.instrsIssued);
        w.key("arb_loss_cycles").value(rd.arbLossCycles);
        w.key("stall_cycles").beginObject();
        for (unsigned k = 0; k < numStallReasons; ++k)
            w.key(stallReasonName(StallReason(k))).value(rd.stall[k]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("residual").value(d.residual);
    w.endObject();
    return w.take();
}

} // namespace si
