#include "isa/stall_hints.hh"

namespace si {

unsigned
pathStallWeight(const Program &program, std::uint32_t pc,
                unsigned horizon)
{
    unsigned weight = 0;
    std::uint8_t written = 0; // scoreboards produced on this path

    for (unsigned steps = 0; steps < horizon && pc < program.size();
         ++steps) {
        const Instr &in = program.at(pc);

        // A consumer of a scoreboard written on this path is a
        // load-to-use stall candidate.
        if (in.reqSbMask & written)
            ++weight;
        if (in.wrSb != sbNone)
            written |= std::uint8_t(1u << in.wrSb);

        switch (in.op) {
          case Opcode::EXIT:
          case Opcode::BSYNC:
            return weight; // path ends (convergence or death)
          case Opcode::BRA:
            if (in.guard != predNone)
                return weight; // nested divergence: stop scoring
            pc = in.target;
            break;
          default:
            ++pc;
            break;
        }
    }
    return weight;
}

StallHintReport
annotateStallHints(Program &program, unsigned horizon)
{
    StallHintReport report;
    // Score each conditional branch; Program only hands out const
    // access, so rebuild the instruction list with hints applied.
    std::vector<Instr> instrs = program.instrs();
    for (std::uint32_t pc = 0; pc < instrs.size(); ++pc) {
        Instr &in = instrs[pc];
        if (in.op != Opcode::BRA || in.guard == predNone)
            continue;
        ++report.branchesAnalyzed;
        const unsigned taken =
            pathStallWeight(program, in.target, horizon);
        const unsigned fallthrough =
            pathStallWeight(program, pc + 1, horizon);
        if (taken > fallthrough)
            in.stallHint = 1;
        else if (fallthrough > taken)
            in.stallHint = -1;
        else
            in.stallHint = 0;
        if (in.stallHint != 0)
            ++report.branchesHinted;
    }

    Program updated(program.name(), std::move(instrs),
                    program.numRegs());
    updated.setBaseAddr(program.baseAddr());
    updated.setLabels(program.labels());
    updated.setRegions(program.regionNames());
    program = std::move(updated);
    return report;
}

} // namespace si
