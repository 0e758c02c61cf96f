/**
 * @file
 * swprof — per-region CPI-stack difference of two runs.
 *
 *   swprof --diff BASE.json TEST.json [--json FILE]
 *
 * Loads two exported documents (si-stats-v1 from swsim --stats-json,
 * or si-metrics-v1 from swsim --metrics-out) of the same workload run
 * under two configurations — canonically SI off vs SI on — aligns
 * their kernel regions by name, and prints a per-region CPI-stack
 * difference: how each region's warp-cycles moved, decomposed into
 * issued / arbitration-loss / per-stall-reason contributions. The
 * decomposition is exact (zero residual) by the simulator's warp-cycle
 * partition identity. --json writes the same diff as si-profdiff-v1.
 *
 * A single run's stall profile comes from swsim --stall-report and
 * --stall-json.
 *
 * Exit status: 0 on success, 1 on bad usage, unreadable inputs or a
 * nonzero residual.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "metrics/profdiff.hh"

int
main(int argc, char **argv)
{
    std::string json_path;
    std::vector<std::string> files;
    si::cli::Parser cli("swprof", "--diff BASE.json TEST.json [--json FILE]");
    cli.positional(files, "BASE.json TEST.json", 2, 2)
        .flag("--diff", [] {},
              "diff two si-stats-v1/si-metrics-v1 documents per region")
        .text("--json", json_path, "FILE",
              "also write the diff as si-profdiff-v1; - is stdout");
    if (const std::optional<int> status = cli.parse(argc, argv))
        return *status;

    si::ProfSide sides[2];
    for (int s = 0; s < 2; ++s) {
        std::ifstream in(files[std::size_t(s)]);
        if (!in) {
            std::fprintf(stderr, "swprof: cannot open '%s'\n",
                         files[std::size_t(s)].c_str());
            return 1;
        }
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        if (!si::loadProfInput(text.str(), files[std::size_t(s)],
                               sides[s], error)) {
            std::fprintf(stderr, "swprof: %s\n", error.c_str());
            return 1;
        }
    }

    const si::ProfDiff result = si::diffProf(sides[0], sides[1]);
    std::printf("%s", si::profDiffReport(result).c_str());
    if (!json_path.empty() &&
        !si::cli::writeOutput(json_path, si::profDiffJson(result), "swprof"))
        return 1;
    if (result.residual != 0) {
        std::fprintf(stderr,
                     "swprof: nonzero residual %lld — the inputs do not "
                     "reconcile with the warp-cycle partition\n",
                     static_cast<long long>(result.residual));
        return 1;
    }
    return 0;
}
