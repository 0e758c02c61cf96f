#include "isa/program.hh"

#include <cstdio>
#include <set>
#include <string_view>

#include "common/sim_error.hh"
#include "isa/op_table.hh"

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

// Every reqSbMask bit names a modeled scoreboard, so &req needs no rule.
static_assert(8 * sizeof(Instr::reqSbMask) <= numScoreboards);

std::vector<ProgramDefect>
Program::defects() const
{
    std::vector<ProgramDefect> out;
    auto flag = [&](const char *code, std::uint32_t pc, std::string msg) {
        out.push_back({code, pc, std::move(msg)});
    };
    auto num = [](auto v) { return std::to_string(v); };

    if (instrs_.empty()) {
        flag("empty-program", 0, "program is empty");
        return out;
    }
    if (numRegs_ == 0 || numRegs_ > maxRegs) {
        flag("bad-reg-count", 0,
             "register count " + num(numRegs_) + " outside 1.." +
                 num(maxRegs));
    }

    bool has_exit = false;
    for (std::uint32_t pc = 0; pc < size(); ++pc) {
        const Instr &in = instrs_[pc];
        const OpInfo &info = opInfo(in.op);
        has_exit |= in.op == Opcode::EXIT;

        if ((in.op == Opcode::BRA || in.op == Opcode::BSSY) &&
            in.target >= size()) {
            flag("target-oob", pc,
                 "branch target " + num(in.target) +
                     " outside the program");
        }
        if ((in.op == Opcode::BSSY || in.op == Opcode::BSYNC) &&
            in.bar >= numBarriers) {
            flag("bad-bar-index", pc,
                 "barrier register B" + num(in.bar) + " exceeds the " +
                     num(numBarriers) + " modeled registers");
        }
        if (in.wrSb != sbNone && in.wrSb >= numScoreboards) {
            flag("bad-sb-index", pc,
                 "&wr=sb" + num(in.wrSb) + " exceeds the " +
                     num(numScoreboards) + " modeled scoreboards");
        }
        if (in.wrSb != sbNone && !isLongLatency(in.op)) {
            flag("wr-on-short-op", pc,
                 "&wr=sb" + num(in.wrSb) + " on fixed-latency opcode " +
                     info.name +
                     " (no scoreboarded writeback will release it)");
        }

        // A window of @p width registers from @p r; RZ only as a scalar.
        // Forced inline: as calls, the operand checks triple the cost.
        auto reg = [&](RegIndex r, unsigned width,
                       const char *role) __attribute__((always_inline)) {
            if (r == regNone ? width > 1 : r + width > numRegs_) {
                flag("bad-reg-index", pc,
                     std::string(role) + " register " +
                         (width > 1 ? "window of " + num(width) + " at "
                                    : "") +
                         (r == regNone ? "RZ" : "R" + num(r)) +
                         " exceeds .regs " + num(numRegs_));
            }
        };
        reg(in.dst, info.dstRegs, "destination");
        reg(in.srcA, info.srcARegs, "source");
        if (!in.bImm)
            reg(in.srcB, 1, "source");
        reg(in.srcC, 1, "source");

        auto pred = [&](PredIndex p,
                        const char *role) __attribute__((always_inline)) {
            if (p != predNone && p >= numPredicates) {
                flag("bad-pred-index", pc,
                     std::string(role) + " predicate P" + num(p) +
                         " outside P0..P" + num(numPredicates - 1) +
                         " (P" + num(predNone) + " is PT)");
            }
        };
        pred(in.guard, "guard");
        pred(in.pdst,
             info.shape == OpShape::Sel ? "selector" : "destination");

        if (in.op == Opcode::MARKER &&
            (in.imm < 0 || std::size_t(in.imm) >= regionNames_.size())) {
            flag("bad-region-index", pc,
                 "MARKER region index " + num(in.imm) + " outside the " +
                     num(regionNames_.size()) + "-entry region table");
        }

        if (pc + 1 == size() && in.op != Opcode::EXIT &&
            !(in.op == Opcode::BRA && in.guard == predNone)) {
            flag("bad-last-instr", pc,
                 "program can fall off the end: last instruction is "
                 "neither EXIT nor an unconditional BRA");
        }
    }
    if (!has_exit)
        flag("no-exit", 0, "program contains no EXIT");
    return out;
}

std::string
Program::check() const
{
    const std::vector<ProgramDefect> found = defects();
    if (found.empty())
        return "";
    const ProgramDefect &d = found.front();
    const std::string_view code = d.code;
    if (code == "empty-program" || code == "bad-reg-count" ||
        code == "no-exit") {
        return d.message; // a whole-program rule names no instruction
    }
    return pcRef(d.pc) + ": " + d.message;
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
Program::pcRef(std::uint32_t pc) const
{
    const std::uint32_t line = sourceLine(pc);
    return line != 0 ? "line " + std::to_string(line)
                     : "pc " + std::to_string(pc);
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
