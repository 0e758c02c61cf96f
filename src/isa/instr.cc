#include "isa/instr.hh"

#include <cstdio>

#include "isa/op_table.hh"

namespace si {

OpClass
opClassOf(Opcode op)
{
    return opInfo(op).cls;
}

bool
isLongLatency(Opcode op)
{
    switch (opClassOf(op)) {
      case OpClass::GlobalLoad:
      case OpClass::Texture:
      case OpClass::RtQuery:
        return true;
      default:
        return false;
    }
}

bool
readsGlobalMemory(Opcode op)
{
    return op == Opcode::LDG || op == Opcode::TEX || op == Opcode::TLD;
}

bool
writesGlobalMemory(Opcode op)
{
    return op == Opcode::STG;
}

bool
accessesGlobalMemory(Opcode op)
{
    return readsGlobalMemory(op) || writesGlobalMemory(op);
}

const char *
opcodeName(Opcode op)
{
    return op < Opcode::NumOpcodes ? opInfo(op).name : "???";
}

const char *
cmpName(CmpOp cmp)
{
    switch (cmp) {
      case CmpOp::LT: return "LT";
      case CmpOp::LE: return "LE";
      case CmpOp::GT: return "GT";
      case CmpOp::GE: return "GE";
      case CmpOp::EQ: return "EQ";
      case CmpOp::NE: return "NE";
      default: return "??";
    }
}

std::string
sregName(SReg sr)
{
    switch (sr) {
      case SReg::TID: return "TID";
      case SReg::CTAID: return "CTAID";
      case SReg::LANEID: return "LANEID";
      case SReg::WARPID: return "WARPID";
      default: return "SR" + std::to_string(unsigned(sr));
    }
}

std::string
formatInstr(const Instr &in, InstrStyle style,
            const std::vector<std::string> &regions)
{
    const OpInfo &info = opInfo(in.op);
    const bool source = style == InstrStyle::Source;

    auto reg = [](RegIndex r) {
        return r == regNone ? std::string("RZ")
                            : "R" + std::to_string(unsigned(r));
    };
    auto pred = [&](PredIndex p) {
        return source && p == predNone ? std::string("PT")
                                       : "P" + std::to_string(unsigned(p));
    };
    auto b = [&]() -> std::string {
        if (!in.bImm)
            return reg(in.srcB);
        if (!info.floatImm)
            return std::to_string(in.imm);
        const float f = Instr::bitsToFloat(in.imm);
        if (!source)
            return std::to_string(f) + "f";
        // Enough digits to reparse bit-exactly.
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.9g", double(f));
        return std::string(buf) + "f";
    };
    auto label = [&]() {
        return (source ? "L" : "") + std::to_string(in.target);
    };
    auto bar = [&]() { return "B" + std::to_string(unsigned(in.bar)); };
    auto addr = [&]() {
        return "[" + reg(in.srcA) + "+" + std::to_string(in.imm) + "]";
    };

    std::string out;
    if (in.guard != predNone) {
        out += "@";
        if (in.guardNeg)
            out += "!";
        out += "P" + std::to_string(unsigned(in.guard)) + " ";
    }
    out += info.name;

    const std::string d = " " + reg(in.dst) + ", ";
    switch (info.shape) {
      case OpShape::None:
        break;
      case OpShape::Mov:
        // The raw imm bits reparse exactly whether they encode an int or
        // a float, so always print them as an integer.
        out += d + (in.bImm ? std::to_string(in.imm) : reg(in.srcA));
        break;
      case OpShape::S2r:
        out += d + sregName(SReg(in.imm));
        break;
      case OpShape::Unary:
        out += d + reg(in.srcA);
        break;
      case OpShape::Binary:
        out += d + reg(in.srcA) + ", " + b();
        break;
      case OpShape::Ternary:
        out += d + reg(in.srcA) + ", " + b() + ", " + reg(in.srcC);
        break;
      case OpShape::SetP:
        out += "." + std::string(cmpName(in.cmp)) + " " + pred(in.pdst) +
               ", " + reg(in.srcA) + ", " + b();
        break;
      case OpShape::Sel:
        out += d + reg(in.srcA) + ", " + b();
        if (source)
            out += ", " + pred(in.pdst);
        break;
      case OpShape::Load:
        out += d + addr();
        break;
      case OpShape::Store:
        out += " " + addr() + ", " + reg(in.srcB);
        break;
      case OpShape::Const:
        out += d + "c[" + std::to_string(in.imm) + "]";
        break;
      case OpShape::Tex:
        out += d + reg(in.srcA) + ", " + reg(in.srcB);
        break;
      case OpShape::Branch:
        out += " " + label();
        break;
      case OpShape::Bssy:
        out += " " + bar() + ", " + label();
        break;
      case OpShape::Bsync:
        out += " " + bar();
        break;
      case OpShape::Marker:
        // Source names the region: the assembler re-interns names in
        // first-occurrence order, which is how every in-tree producer
        // builds the table. Disasm shows the raw table index.
        out += " " + (source && std::size_t(in.imm) < regions.size()
                          ? regions[std::size_t(in.imm)]
                          : std::to_string(in.imm));
        break;
    }

    if (in.stallHint > 0)
        out += " &hint=taken";
    else if (in.stallHint < 0)
        out += " &hint=fall";
    if (in.wrSb != sbNone)
        out += " &wr=sb" + std::to_string(unsigned(in.wrSb));
    for (unsigned i = 0; i < numScoreboards; ++i) {
        if (in.reqSbMask & (1u << i))
            out += " &req=sb" + std::to_string(i);
    }
    return out;
}

std::string
Instr::disasm() const
{
    return formatInstr(*this, InstrStyle::Disasm);
}

} // namespace si
