#include "metrics/profdiff.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>

#include "common/json.hh"
#include "metrics/partition_json.hh"

namespace si {

namespace {

/** A row's key in SM-wide totals (gpu scalars, windows, diff sides). */
const char *
totalsKey(const StatField<RegionCounters> &f)
{
    return f.u64 == &RegionCounters::warpCycles ? "live_warp_cycles"
                                                 : f.key;
}

/**
 * Reads the u64 members of an export. An absent member reads as 0; one
 * that is not an unsigned 64-bit integer (json::asU64) reads as 0 too
 * and is remembered, so a loader walks the document once and then
 * refuses it through ok().
 */
struct U64Reader
{
    std::string bad; ///< first unusable member's key

    std::uint64_t
    field(const json::Value &obj, std::string_view key)
    {
        const json::Value *v = obj.find(key);
        const std::optional<std::uint64_t> n =
            v ? json::asU64(*v) : std::uint64_t(0);
        if (!n && bad.empty())
            bad = key;
        return n.value_or(0);
    }

    /**
     * Add the partition row @p obj holds into @p rc: keyed as a region
     * entry or (@p totals) by totalsKey(), with the stall reasons as a
     * reason object or (@p flat) as <key>_<reason key> members.
     */
    void
    row(const json::Value &obj, RegionCounters &rc, bool totals,
        bool flat = false)
    {
        for (const StatField<RegionCounters> &f : regionStatFields) {
            const std::string key = totals ? totalsKey(f) : f.key;
            if (f.kind != StatKind::Reasons) {
                rc.*f.u64 += field(obj, key);
                continue;
            }
            const json::Value *reasons = flat ? &obj : obj.find(key);
            if (!reasons || !reasons->isObject())
                continue;
            for (unsigned k = 0; k < numStallReasons; ++k) {
                const StallReason r = StallReason(k);
                (rc.*f.reasons)[k] +=
                    field(*reasons, flat ? key + "_" + stallReasonKey(r)
                                         : stallReasonName(r));
            }
        }
    }

    /** False, with @p error naming the member, after a bad one. */
    bool
    ok(std::string &error) const
    {
        if (!bad.empty())
            error = "member \"" + bad +
                    "\" is not an unsigned 64-bit integer";
        return bad.empty();
    }
};

bool
loadStatsV1(const json::Value &doc, ProfSide &out, std::string &error)
{
    U64Reader rd;
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
    out.cycles = rd.field(doc, "cycles");
    rd.row(*scalars, out.totals, /*totals=*/true, /*flat=*/true);
    const std::string total_key = totalsKey(regionStatFields[0]);
    if (!scalars->find(total_key)) {
        error = "gpu group has no " + total_key +
                " scalar (export predates the warp-cycle partition?)";
        return false;
    }

    const json::Value *regions = doc.find("regions");
    if (!regions || !regions->isArray()) {
        error = "si-stats-v1 document has no regions array";
        return false;
    }
    for (const json::Value &r : regions->array) {
        const json::Value *name = r.find("name");
        if (!name || !name->isString()) {
            error = "region entry has no name";
            return false;
        }
        RegionCounters rc;
        rd.row(r, rc, /*totals=*/false);
        out.regions.emplace_back(name->str, rc);
    }
    return rd.ok(error);
}

bool
loadMetricsV1(const json::Value &doc, ProfSide &out, std::string &error)
{
    U64Reader rd;
    if (rd.field(doc, "dropped_total") != 0) {
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
        out.regions.emplace_back(
            n.isString() ? n.str
                         : "region" + std::to_string(out.regions.size()),
            RegionCounters{});
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
            sm_cycles += rd.field(win, "cycles");
            rd.row(win, out.totals, /*totals=*/true);
            const json::Value *regions = win.find("regions");
            if (!regions || !regions->isArray())
                continue;
            for (const json::Value &r : regions->array) {
                const std::uint64_t idx = rd.field(r, "region");
                if (idx >= out.regions.size()) {
                    error = "window references region index " +
                            std::to_string(idx) +
                            " beyond the regions name table";
                    return false;
                }
                rd.row(r, out.regions[idx].second, /*totals=*/false);
            }
        }
        out.cycles = std::max(out.cycles, sm_cycles);
    }
    return rd.ok(error);
}

void
appendSigned(std::string &out, std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+lld", (long long)(v));
    out += buf;
}

void
totalsLine(std::string &out, const std::string &label, std::uint64_t base,
           std::uint64_t test, std::int64_t delta)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-22s %12llu -> %12llu  %+lld\n",
                  label.c_str(), (unsigned long long)(base),
                  (unsigned long long)(test), (long long)(delta));
    out += buf;
}

/** Region-line label per regionStatFields row (reasons: their names). */
constexpr const char *regionLabels[] = {"warp cycles", "issued", "arb",
                                        nullptr};
static_assert(std::size(regionLabels) == std::size(regionStatFields),
              "every regionStatFields row needs a region-line label");

void
writeSideJson(json::Writer &w, const char *key, const ProfSide &s)
{
    w.key(key).beginObject();
    w.key("file").value(s.file);
    w.key("schema").value(s.schema);
    w.key("kernel").value(s.kernel);
    w.key("cycles").value(s.cycles);
    writeRegionCounters(w, s.totals, totalsKey);
    w.endObject();
}

} // namespace

RegionCounters
partitionDelta(const RegionCounters &base, const RegionCounters &test)
{
    RegionCounters d;
    zipStatFields(regionStatFields, d, base, test,
                  [](StatKind, auto b, auto t) { return t - b; });
    return d;
}

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
    d.deltaCycles = std::int64_t(test.cycles) - std::int64_t(base.cycles);
    d.delta = partitionDelta(base.totals, test.totals);

    // Align regions by name: union of both sides, in base order first,
    // then test-only regions in test order.
    std::map<std::string, std::size_t> index;
    for (const auto &[name, rc] : base.regions) {
        index.emplace(name, d.regions.size());
        d.regions.push_back({name, true, false, partitionDelta(rc, {})});
    }
    for (const auto &[name, rc] : test.regions) {
        auto [it, fresh] = index.emplace(name, d.regions.size());
        if (fresh)
            d.regions.push_back({name, false, false, {}});
        RegionDelta &rd = d.regions[it->second];
        rd.inTest = true;
        rd.delta.accumulate(rc);
    }
    const auto magnitude = [](const RegionDelta &rd) {
        return std::abs(std::int64_t(rd.delta.warpCycles));
    };
    std::sort(d.regions.begin(), d.regions.end(),
              [&](const RegionDelta &a, const RegionDelta &b) {
                  return magnitude(a) != magnitude(b)
                             ? magnitude(a) > magnitude(b)
                             : a.name < b.name;
              });

    std::uint64_t region_sum = 0;
    for (const RegionDelta &rd : d.regions)
        region_sum += rd.delta.warpCycles;
    d.residual = std::int64_t(d.delta.warpCycles - region_sum);
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

    totalsLine(out, "cycles", d.base.cycles, d.test.cycles, d.deltaCycles);
    const RegionCounters &b = d.base.totals, &t = d.test.totals;
    for (const StatField<RegionCounters> &f : regionStatFields) {
        if (f.kind != StatKind::Reasons) {
            totalsLine(out, totalsKey(f), f.word(b), f.word(t),
                       std::int64_t(f.word(d.delta)));
            continue;
        }
        for (unsigned k = 0; k < numStallReasons; ++k) {
            totalsLine(out,
                       std::string("stall ") +
                           stallReasonName(StallReason(k)),
                       (b.*f.reasons)[k], (t.*f.reasons)[k],
                       std::int64_t((d.delta.*f.reasons)[k]));
        }
    }

    out += "\nregions (by |warp-cycle delta|):\n";
    for (const RegionDelta &rd : d.regions) {
        out += "  " + rd.name;
        if (!rd.inBase)
            out += " [test only]";
        if (!rd.inTest)
            out += " [base only]";
        // "total (count, count, ...)" with zero reasons left out.
        out += ": ";
        const char *sep = "";
        const auto item = [&](const char *label, std::uint64_t delta) {
            out += sep;
            out += label;
            out += ' ';
            appendSigned(out, std::int64_t(delta));
            sep = *sep ? ", " : " (";
        };
        for (std::size_t i = 0; i < std::size(regionStatFields); ++i) {
            const StatField<RegionCounters> &f = regionStatFields[i];
            if (f.kind != StatKind::Reasons) {
                item(regionLabels[i], f.word(rd.delta));
                continue;
            }
            for (unsigned k = 0; k < numStallReasons; ++k) {
                if ((rd.delta.*f.reasons)[k] != 0)
                    item(stallReasonName(StallReason(k)),
                         (rd.delta.*f.reasons)[k]);
            }
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
    writeRegionCounters<std::int64_t>(w, d.delta, totalsKey);
    w.endObject();
    w.key("regions").beginArray();
    for (const RegionDelta &rd : d.regions) {
        w.beginObject();
        w.key("region").value(rd.name);
        w.key("in_base").value(rd.inBase);
        w.key("in_test").value(rd.inTest);
        writeRegionCounters<std::int64_t>(w, rd.delta);
        w.endObject();
    }
    w.endArray();
    w.key("residual").value(d.residual);
    w.endObject();
    return w.take();
}

} // namespace si
