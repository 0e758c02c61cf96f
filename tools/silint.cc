/**
 * @file
 * silint — static lint for SASS-like kernels: CFG + dataflow checks for
 * scoreboard discipline, convergence-barrier pairing, and the
 * si-order-dependent memory-order hazard pass (src/verify).
 *
 *   silint [options] kernel.sasm...
 *
 * `silint --help` lists every option. --report prints the one-line
 * per-file summary that the CI golden file (tests/golden/silint_kernels.txt)
 * records for every checked-in kernel; --json writes si-lint-v1
 * (schema: tools/lint_schema.json).
 *
 * Exit status: 0 = every file assembled and carries no error (nor
 * warning under --Werror); 1 = some file has findings at the gating
 * severity; 2 = file unreadable or failed to assemble, or bad usage.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "parallel/executor.hh"
#include "verify/verifier.hh"

namespace {

/** Strip directories: diagnostics and reports stay path-independent. */
std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Everything linting one file produces, merged in argument order. */
struct FileReport
{
    std::string text;    ///< rendered diagnostics (stdout)
    std::string summary; ///< --report line (stdout)
    std::string error;   ///< open/assembly failure (stderr)
    std::string json;    ///< one object for the "files" array
    unsigned errors = 0;
    unsigned warnings = 0;
    unsigned notes = 0;
    bool broken = false; ///< unreadable or failed to assemble
};

/** Serialize one file's verdict as a si-lint-v1 "files" entry. */
std::string
fileJson(const std::string &file, const si::VerifyReport *rep,
         const si::Program *prog, const std::string &error)
{
    si::json::Writer w;
    w.beginObject();
    w.key("file").value(file);
    if (rep == nullptr) {
        w.key("status").value(error.empty() ? "unreadable"
                                            : "assembly-error");
        w.key("error").value(error);
        w.endObject();
        return w.take();
    }
    w.key("status").value("checked");
    w.key("errors").value(rep->errors());
    w.key("warnings").value(rep->warnings());
    w.key("notes").value(rep->notes());
    w.key("diagnostics").beginArray();
    // Same order as VerifyReport::render: line (pc) first, then
    // severity — the ordering contract that keeps --jobs N output and
    // the golden files stable.
    std::vector<si::VerifyDiag> sorted = rep->diags;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const si::VerifyDiag &a, const si::VerifyDiag &b) {
                         if (a.pc != b.pc)
                             return a.pc < b.pc;
                         return a.severity < b.severity;
                     });
    for (const si::VerifyDiag &d : sorted) {
        w.beginObject();
        w.key("pc").value(d.pc);
        w.key("line").value(prog ? prog->sourceLine(d.pc) : 0u);
        w.key("severity").value(si::severityName(d.severity));
        w.key("code").value(d.code);
        w.key("message").value(d.message);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

} // namespace

int
main(int argc, char **argv)
{
    si::verboseLogging = false;

    bool werror = false;
    bool report = false;
    bool quiet = false;
    unsigned jobs = 1;
    std::string json_path;
    si::VerifyOptions opts;
    std::vector<std::string> files;

    si::cli::Parser cli("silint", "[options] file.sasm...", 2);
    cli.positional(files, "file.sasm", 1, SIZE_MAX)
        .flag("--Werror", werror, "exit nonzero on warnings, not just errors")
        .flag("--no-notes", [&opts] { opts.notes = false; },
              "suppress Note-severity diagnostics")
        .flag("--report", report,
              "append a one-line per-file summary (\"file: N errors, N "
              "warnings, N notes\")")
        .flag("--quiet", quiet,
              "print summaries/exit status only, not diagnostics")
        .text("--json", json_path, "FILE",
              "also write a machine-readable si-lint-v1 report; - is "
              "stdout")
        .jobs(jobs);
    if (const std::optional<int> status = cli.parse(argc, argv))
        return *status;

    bool gated = false;
    bool broken = false;
    unsigned total_errors = 0, total_warnings = 0, total_notes = 0;
    std::vector<std::string> file_json;

    // Files are independent cells: each one's diagnostics, summary, and
    // JSON fragment are produced in a FileReport and merged in argument
    // order by the in-order sink, so every output channel is
    // byte-identical at any --jobs value.
    si::parallel::mapIndexed<FileReport>(
        jobs, files.size(),
        [&](std::size_t idx) {
            const std::string &path = files[idx];
            const std::string base = baseName(path);
            FileReport fr;

            std::ifstream in(path);
            if (!in) {
                fr.error = "silint: cannot open " + path + "\n";
                fr.broken = true;
                fr.json = fileJson(base, nullptr, nullptr, "");
                return fr;
            }
            std::ostringstream text;
            text << in.rdbuf();

            const si::AsmResult asm_res = si::assemble(text.str());
            if (!asm_res.ok) {
                fr.error = "silint: " + base + ": assembly failed: " +
                           asm_res.error + "\n";
                fr.broken = true;
                fr.json = fileJson(base, nullptr, nullptr, asm_res.error);
                return fr;
            }

            const si::VerifyReport rep =
                si::verifyProgram(asm_res.program, opts);
            fr.text = rep.render(&asm_res.program, base);
            if (report) {
                fr.summary = base + ": " + std::to_string(rep.errors()) +
                             " errors, " + std::to_string(rep.warnings()) +
                             " warnings, " + std::to_string(rep.notes()) +
                             " notes\n";
            }
            fr.errors = rep.errors();
            fr.warnings = rep.warnings();
            fr.notes = rep.notes();
            fr.json = fileJson(base, &rep, &asm_res.program, "");
            return fr;
        },
        [&](std::size_t, const FileReport &fr) {
            if (!fr.error.empty())
                std::fputs(fr.error.c_str(), stderr);
            if (!quiet)
                std::fputs(fr.text.c_str(), stdout);
            if (!fr.summary.empty())
                std::fputs(fr.summary.c_str(), stdout);
            broken |= fr.broken;
            gated |= fr.errors > 0 || (werror && fr.warnings > 0);
            total_errors += fr.errors;
            total_warnings += fr.warnings;
            total_notes += fr.notes;
            file_json.push_back(fr.json);
        });

    const int status = broken ? 2 : gated ? 1 : 0;
    if (!json_path.empty()) {
        si::json::Writer w;
        w.beginObject();
        w.key("schema").value("si-lint-v1");
        w.key("tool").value("silint");
        w.key("werror").value(werror);
        w.key("files").beginArray();
        for (const std::string &fj : file_json)
            w.raw(fj);
        w.endArray();
        w.key("totals").beginObject();
        w.key("files").value(std::uint64_t(file_json.size()));
        w.key("errors").value(total_errors);
        w.key("warnings").value(total_warnings);
        w.key("notes").value(total_notes);
        w.endObject();
        w.key("exit_status").value(status);
        w.endObject();
        if (!si::cli::writeOutput(json_path, w.take() + "\n", "silint"))
            return 2;
    }
    return status;
}
