/**
 * @file
 * Static kernel verifier: CFG + dataflow lint pass over isa::Program
 * for the count-based scoreboard annotations (&wr=sbN / &req=sbN) and
 * the BSSY/BSYNC convergence barriers of the paper's Figure 9 ISA.
 *
 * PR 2's differential oracle found barrier-register reuse corrupting
 * reconvergence *dynamically* on 56/256 random seeds; this pass proves
 * the same structural properties before simulation and reports
 * precisely-located diagnostics instead.
 *
 * Severity model (see DESIGN.md section 7):
 *   - Error:   architecturally unsound — mask corruption or deadlock is
 *     possible (barrier-register reuse across concurrently-occupiable
 *     regions, BSSY that can never sync, inescapable loops), or the
 *     program is structurally invalid (bad indices, no EXIT).
 *   - Warning: annotation discipline violated. The cycle model
 *     transfers operand values at issue, so scoreboard misuse only
 *     mis-models *timing* — but it silently voids the latency-hiding
 *     the annotation promises (waits on never-written scoreboards,
 *     producer aliasing on one counter, BSYNC with no reaching BSSY).
 *   - Note:    informational (e.g. a &req whose &wr reaches on some
 *     paths only — the normal shape for loads inside divergent arms).
 *
 * The verifier is static and sees the program as written: faults
 * injected at runtime via src/fault corrupt live machine state and
 * remain the dynamic oracle's job (tools/difftest). `difftest --verify`
 * cross-checks the two: a kernel this pass blesses must run
 * divergence-free through the whole config matrix.
 */

#ifndef SI_VERIFY_VERIFIER_HH
#define SI_VERIFY_VERIFIER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace si {

/** Diagnostic severity, ordered most severe first. */
enum class Severity : std::uint8_t { Error, Warning, Note };

/** Display name: "error", "warning", "note". */
const char *severityName(Severity s);

/** One diagnostic, anchored to an instruction. */
struct VerifyDiag
{
    Severity severity = Severity::Error;

    /** Stable kebab-case code, e.g. "bar-reuse-sibling". */
    const char *code = "";

    /** Anchor pc (instruction index into the program). */
    std::uint32_t pc = 0;

    std::string message;
};

/** Analysis knobs. */
struct VerifyOptions
{
    /** Suppress Note-severity diagnostics. */
    bool notes = true;
};

/** The verifier's verdict: every diagnostic, plus rendering helpers. */
struct VerifyReport
{
    std::vector<VerifyDiag> diags;

    unsigned errors() const;
    unsigned warnings() const;
    unsigned notes() const;

    /** True when the program carries no Error-severity diagnostic. */
    bool clean() const { return errors() == 0; }

    /** True when there is nothing at Error or Warning severity. */
    bool spotless() const { return errors() == 0 && warnings() == 0; }

    /** True when some diagnostic carries @p code. */
    bool has(const char *code) const;

    /**
     * Render "file:line: severity: message [code]" lines, one per
     * diagnostic. Uses @p program's source-line map when present
     * (text-assembled kernels), "pc N" otherwise. @p filename defaults
     * to the program name.
     */
    std::string render(const Program *program = nullptr,
                       const std::string &filename = "") const;
};

/** Run every analysis over @p program. */
VerifyReport verifyProgram(const Program &program,
                           const VerifyOptions &opts = {});

} // namespace si

#endif // SI_VERIFY_VERIFIER_HH
