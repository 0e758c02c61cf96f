/**
 * @file
 * Program: an assembled kernel — the instruction vector plus the static
 * resource requirements that determine occupancy.
 */

#ifndef SI_ISA_PROGRAM_HH
#define SI_ISA_PROGRAM_HH

#include <map>
#include <string>
#include <vector>

#include "isa/instr.hh"

namespace si {

/** One violation of the well-formed-program rules (Program::defects). */
struct ProgramDefect
{
    const char *code; ///< stable kebab-case code, e.g. "target-oob"
    std::uint32_t pc; ///< anchor instruction; 0 for whole-program rules
    std::string message;
};

/**
 * An assembled kernel. PCs are indices into instrs. Instruction
 * addresses (for the instruction caches) are pc * bytesPerInstr at
 * a per-program base address.
 */
class Program
{
  public:
    /** Encoded size of one instruction in the instruction caches. */
    static constexpr unsigned bytesPerInstr = 16;

    Program() = default;
    Program(std::string name, std::vector<Instr> instrs, unsigned num_regs);

    const std::string &name() const { return name_; }
    const std::vector<Instr> &instrs() const { return instrs_; }
    const Instr &at(std::uint32_t pc) const { return instrs_[pc]; }
    std::uint32_t size() const { return std::uint32_t(instrs_.size()); }

    /** Per-thread architectural register demand (drives occupancy). */
    unsigned numRegs() const { return numRegs_; }

    /** Instruction memory address of @p pc. */
    Addr
    instrAddr(std::uint32_t pc) const
    {
        return baseAddr_ + Addr(pc) * bytesPerInstr;
    }

    /** Base address of the kernel's instruction image. */
    Addr baseAddr() const { return baseAddr_; }
    void setBaseAddr(Addr a) { baseAddr_ = a; }

    /** Optional label map for nicer disassembly and assembler round trips. */
    void setLabels(std::map<std::string, std::uint32_t> labels);
    const std::map<std::string, std::uint32_t> &labels() const
    {
        return labels_;
    }

    /**
     * Optional pc -> source-line map recorded by the text assembler so
     * the static verifier (src/verify) can report file:line diagnostics.
     * Programs built programmatically have no line info.
     */
    void setSourceLines(std::vector<std::uint32_t> lines);

    /** 1-based source line of @p pc, or 0 when unknown. */
    std::uint32_t
    sourceLine(std::uint32_t pc) const
    {
        return pc < srcLines_.size() ? srcLines_[pc] : 0;
    }

    /**
     * Region-name table for MARKER attribution. Index 0 is always
     * "_entry", the implicit region every warp starts in; MARKER's imm
     * is a direct index into this table. addRegion() interns by name
     * (the table keeps first-occurrence order, so sourceText() round-
     * trips indices exactly).
     */
    const std::vector<std::string> &regionNames() const
    {
        return regionNames_;
    }

    /** Intern @p name; returns its (existing or new) table index. */
    std::uint32_t addRegion(const std::string &name);

    /** Replace the whole table; index 0 must be "_entry". */
    void setRegions(std::vector<std::string> names);

    /**
     * Every violation of the one rule list of a well-formed program
     * (DESIGN.md section 7), in pc order; the executors rely on it. A
     * valid program allocates nothing. silint reports each as an error.
     */
    std::vector<ProgramDefect> defects() const;

    /** The first defect as "<where>: <message>", or "" when valid. */
    std::string check() const;

    /** check(), throwing SimError(ErrorKind::Parse) on a defect. */
    void validate() const;

    /** "line N" when the source line of @p pc is known, else "pc N". */
    std::string pcRef(std::uint32_t pc) const;

    /** Full disassembly listing. */
    std::string disasm() const;

    /**
     * Assembler-compatible source text (.kernel/.regs header plus one
     * instruction per line) that round-trips through assemble(). The
     * differential harness uses it to persist shrunk failing kernels.
     */
    std::string sourceText() const;

    /**
     * A copy of this program with the instruction at @p pc removed and
     * every branch/BSSY target remapped. Targets past @p pc shift down
     * by one; a target at exactly @p pc now names the instruction that
     * followed the deleted one. The result is NOT validated — the
     * shrinker probes check() itself and skips illegal deletions.
     */
    Program withoutInstr(std::uint32_t pc) const;

  private:
    std::string name_;
    std::vector<Instr> instrs_;
    unsigned numRegs_ = 32;
    Addr baseAddr_ = 0x10000000;
    std::map<std::string, std::uint32_t> labels_;
    std::vector<std::uint32_t> srcLines_;
    std::vector<std::string> regionNames_{"_entry"};
};

} // namespace si

#endif // SI_ISA_PROGRAM_HH
