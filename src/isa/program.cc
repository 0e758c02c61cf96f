#include "isa/program.hh"

#include <cstdio>
#include <set>

#include "common/log.hh"
#include "common/sim_error.hh"

namespace si {

Program::Program(std::string name, std::vector<Instr> instrs,
                 unsigned num_regs)
    : name_(std::move(name)), instrs_(std::move(instrs)), numRegs_(num_regs)
{
}

void
Program::setLabels(std::map<std::string, std::uint32_t> labels)
{
    labels_ = std::move(labels);
}

void
Program::setSourceLines(std::vector<std::uint32_t> lines)
{
    srcLines_ = std::move(lines);
}

std::uint32_t
Program::addRegion(const std::string &name)
{
    for (std::uint32_t i = 0; i < regionNames_.size(); ++i) {
        if (regionNames_[i] == name)
            return i;
    }
    regionNames_.push_back(name);
    return std::uint32_t(regionNames_.size() - 1);
}

void
Program::setRegions(std::vector<std::string> names)
{
    sim_throw_if(names.empty() || names[0] != "_entry", ErrorKind::Parse,
                 "region table must start with the implicit \"_entry\"");
    regionNames_ = std::move(names);
}

std::string
Program::check() const
{
    if (instrs_.empty())
        return "program is empty";
    if (numRegs_ == 0 || numRegs_ > 255)
        return "numRegs out of range";

    bool has_exit = false;
    for (std::uint32_t pc = 0; pc < instrs_.size(); ++pc) {
        const Instr &in = instrs_[pc];
        if (in.op == Opcode::EXIT)
            has_exit = true;

        if (in.op == Opcode::BRA || in.op == Opcode::BSSY) {
            if (in.target >= instrs_.size()) {
                return "pc " + std::to_string(pc) +
                       ": branch target out of range";
            }
        }
        if ((in.op == Opcode::BSSY || in.op == Opcode::BSYNC) &&
            in.bar >= 16) {
            return "pc " + std::to_string(pc) + ": barrier index invalid";
        }
        if (in.op == Opcode::MARKER &&
            (in.imm < 0 || std::size_t(in.imm) >= regionNames_.size())) {
            return "pc " + std::to_string(pc) +
                   ": MARKER region index out of range";
        }

        auto check_reg = [&](RegIndex r) {
            return r == regNone || r < numRegs_;
        };
        if (!check_reg(in.dst) || !check_reg(in.srcA) ||
            (!in.bImm && !check_reg(in.srcB)) || !check_reg(in.srcC)) {
            return "pc " + std::to_string(pc) +
                   ": register index exceeds numRegs";
        }
        if (in.wrSb != sbNone && in.wrSb >= 8)
            return "pc " + std::to_string(pc) + ": scoreboard id invalid";
        if (in.wrSb != sbNone && !isLongLatency(in.op))
            return "pc " + std::to_string(pc) +
                   ": &wr on a fixed-latency opcode";

        // Falling off the end of the program is a bug in the generator.
        if (pc + 1 == instrs_.size() && in.op != Opcode::EXIT &&
            !(in.op == Opcode::BRA && in.guard == predNone)) {
            return "program does not end in EXIT or an unconditional BRA";
        }
    }
    if (!has_exit)
        return "program contains no EXIT";
    return "";
}

void
Program::validate() const
{
    std::string err = check();
    if (!err.empty()) {
        throw SimError(ErrorKind::Parse,
                       "program '" + name_ + "' invalid: " + err);
    }
}

std::string
Program::disasm() const
{
    // Invert the label map for per-PC annotations.
    std::map<std::uint32_t, std::string> by_pc;
    for (const auto &[name, pc] : labels_)
        by_pc[pc] = name;

    std::string out;
    for (std::uint32_t pc = 0; pc < instrs_.size(); ++pc) {
        auto it = by_pc.find(pc);
        if (it != by_pc.end())
            out += it->second + ":\n";
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%5u:  ", pc);
        out += buf;
        out += instrs_[pc].disasm();
        out += "\n";
    }
    return out;
}

std::string
Program::sourceText() const
{
    std::set<std::uint32_t> targets;
    for (const Instr &in : instrs_) {
        if (in.op == Opcode::BRA || in.op == Opcode::BSSY)
            targets.insert(in.target);
    }

    std::string out = ".kernel " + name_ + "\n.regs " +
                      std::to_string(numRegs_) + "\n\n";
    for (std::uint32_t pc = 0; pc < instrs_.size(); ++pc) {
        if (targets.count(pc))
            out += "L" + std::to_string(pc) + ":\n";
        out += "    " +
               formatInstr(instrs_[pc], InstrStyle::Source, regionNames_) +
               "\n";
    }
    return out;
}

Program
Program::withoutInstr(std::uint32_t pc) const
{
    Program out;
    out.name_ = name_;
    out.numRegs_ = numRegs_;
    out.baseAddr_ = baseAddr_;
    out.regionNames_ = regionNames_;
    out.instrs_.reserve(instrs_.empty() ? 0 : instrs_.size() - 1);
    for (std::uint32_t i = 0; i < instrs_.size(); ++i) {
        if (i == pc)
            continue;
        Instr in = instrs_[i];
        if ((in.op == Opcode::BRA || in.op == Opcode::BSSY) &&
            in.target > pc) {
            in.target -= 1;
        }
        out.instrs_.push_back(in);
        if (i < srcLines_.size())
            out.srcLines_.push_back(srcLines_[i]);
    }
    for (const auto &[name, lpc] : labels_) {
        if (lpc > pc && lpc - 1 <= out.instrs_.size())
            out.labels_[name] = lpc - 1;
        else if (lpc <= pc && lpc <= out.instrs_.size())
            out.labels_[name] = lpc;
    }
    return out;
}

} // namespace si
