#include "isa/builder.hh"

#include "common/sim_error.hh"

namespace si {

namespace {
constexpr std::uint32_t unboundPc = 0xffffffffu;
} // namespace

KernelBuilder::KernelBuilder(std::string name) : name_(std::move(name)) {}

Label
KernelBuilder::newLabel(const std::string &name)
{
    std::uint32_t id = std::uint32_t(labelPc_.size());
    labelPc_.push_back(unboundPc);
    labelName_.push_back(name.empty() ? ("L" + std::to_string(id)) : name);
    return Label(id);
}

void
KernelBuilder::bind(Label l)
{
    sim_throw_if(!l.valid_, ErrorKind::Parse, "binding an invalid label");
    sim_throw_if(labelPc_[l.id_] != unboundPc, ErrorKind::Parse,
                 "label '%s' bound twice", labelName_[l.id_].c_str());
    labelPc_[l.id_] = here();
}

Instr &
KernelBuilder::push(Instr in)
{
    instrs_.push_back(in);
    return instrs_.back();
}

Instr &
KernelBuilder::emit(const Instr &in)
{
    return push(in);
}

Instr &
KernelBuilder::mov(RegIndex d, RegIndex a)
{
    Instr in;
    in.op = Opcode::MOV;
    in.dst = d;
    in.srcA = a;
    return push(in);
}

Instr &
KernelBuilder::movi(RegIndex d, std::int32_t imm)
{
    Instr in;
    in.op = Opcode::MOV;
    in.dst = d;
    in.bImm = true;
    in.imm = imm;
    return push(in);
}

Instr &
KernelBuilder::movf(RegIndex d, float imm)
{
    return movi(d, Instr::fbits(imm));
}

Instr &
KernelBuilder::s2r(RegIndex d, SReg sr)
{
    Instr in;
    in.op = Opcode::S2R;
    in.dst = d;
    in.imm = std::int32_t(sr);
    return push(in);
}

namespace {

Instr
alu3(Opcode op, RegIndex d, RegIndex a, RegIndex b)
{
    Instr in;
    in.op = op;
    in.dst = d;
    in.srcA = a;
    in.srcB = b;
    return in;
}

Instr
alu3i(Opcode op, RegIndex d, RegIndex a, std::int32_t imm)
{
    Instr in;
    in.op = op;
    in.dst = d;
    in.srcA = a;
    in.bImm = true;
    in.imm = imm;
    return in;
}

} // namespace

Instr &
KernelBuilder::iadd(RegIndex d, RegIndex a, RegIndex b)
{
    return push(alu3(Opcode::IADD, d, a, b));
}

Instr &
KernelBuilder::iaddi(RegIndex d, RegIndex a, std::int32_t imm)
{
    return push(alu3i(Opcode::IADD, d, a, imm));
}

Instr &
KernelBuilder::isub(RegIndex d, RegIndex a, RegIndex b)
{
    return push(alu3(Opcode::ISUB, d, a, b));
}

Instr &
KernelBuilder::imul(RegIndex d, RegIndex a, RegIndex b)
{
    return push(alu3(Opcode::IMUL, d, a, b));
}

Instr &
KernelBuilder::imuli(RegIndex d, RegIndex a, std::int32_t imm)
{
    return push(alu3i(Opcode::IMUL, d, a, imm));
}

Instr &
KernelBuilder::imad(RegIndex d, RegIndex a, RegIndex b, RegIndex c)
{
    Instr in = alu3(Opcode::IMAD, d, a, b);
    in.srcC = c;
    return push(in);
}

Instr &
KernelBuilder::imadi(RegIndex d, RegIndex a, std::int32_t imm, RegIndex c)
{
    Instr in = alu3i(Opcode::IMAD, d, a, imm);
    in.srcC = c;
    return push(in);
}

Instr &
KernelBuilder::andi(RegIndex d, RegIndex a, std::int32_t imm)
{
    return push(alu3i(Opcode::AND, d, a, imm));
}

Instr &
KernelBuilder::xorr(RegIndex d, RegIndex a, RegIndex b)
{
    return push(alu3(Opcode::XOR, d, a, b));
}

Instr &
KernelBuilder::shli(RegIndex d, RegIndex a, std::int32_t imm)
{
    return push(alu3i(Opcode::SHL, d, a, imm));
}

Instr &
KernelBuilder::shri(RegIndex d, RegIndex a, std::int32_t imm)
{
    return push(alu3i(Opcode::SHR, d, a, imm));
}

Instr &
KernelBuilder::fadd(RegIndex d, RegIndex a, RegIndex b)
{
    return push(alu3(Opcode::FADD, d, a, b));
}

Instr &
KernelBuilder::faddi(RegIndex d, RegIndex a, float imm)
{
    return push(alu3i(Opcode::FADD, d, a, Instr::fbits(imm)));
}

Instr &
KernelBuilder::fmul(RegIndex d, RegIndex a, RegIndex b)
{
    return push(alu3(Opcode::FMUL, d, a, b));
}

Instr &
KernelBuilder::fmuli(RegIndex d, RegIndex a, float imm)
{
    return push(alu3i(Opcode::FMUL, d, a, Instr::fbits(imm)));
}

Instr &
KernelBuilder::ffma(RegIndex d, RegIndex a, RegIndex b, RegIndex c)
{
    Instr in = alu3(Opcode::FFMA, d, a, b);
    in.srcC = c;
    return push(in);
}

Instr &
KernelBuilder::frcp(RegIndex d, RegIndex a)
{
    Instr in;
    in.op = Opcode::FRCP;
    in.dst = d;
    in.srcA = a;
    return push(in);
}

Instr &
KernelBuilder::fsqrt(RegIndex d, RegIndex a)
{
    Instr in;
    in.op = Opcode::FSQRT;
    in.dst = d;
    in.srcA = a;
    return push(in);
}

Instr &
KernelBuilder::i2f(RegIndex d, RegIndex a)
{
    Instr in;
    in.op = Opcode::I2F;
    in.dst = d;
    in.srcA = a;
    return push(in);
}

Instr &
KernelBuilder::f2i(RegIndex d, RegIndex a)
{
    Instr in;
    in.op = Opcode::F2I;
    in.dst = d;
    in.srcA = a;
    return push(in);
}

Instr &
KernelBuilder::isetp(PredIndex pd, CmpOp cmp, RegIndex a, RegIndex b)
{
    Instr in = alu3(Opcode::ISETP, regNone, a, b);
    in.pdst = pd;
    in.cmp = cmp;
    return push(in);
}

Instr &
KernelBuilder::isetpi(PredIndex pd, CmpOp cmp, RegIndex a, std::int32_t imm)
{
    Instr in = alu3i(Opcode::ISETP, regNone, a, imm);
    in.pdst = pd;
    in.cmp = cmp;
    return push(in);
}

Instr &
KernelBuilder::fsetp(PredIndex pd, CmpOp cmp, RegIndex a, RegIndex b)
{
    Instr in = alu3(Opcode::FSETP, regNone, a, b);
    in.pdst = pd;
    in.cmp = cmp;
    return push(in);
}

Instr &
KernelBuilder::fsetpi(PredIndex pd, CmpOp cmp, RegIndex a, float imm)
{
    Instr in = alu3i(Opcode::FSETP, regNone, a, Instr::fbits(imm));
    in.pdst = pd;
    in.cmp = cmp;
    return push(in);
}

Instr &
KernelBuilder::sel(RegIndex d, RegIndex a, RegIndex b, PredIndex p)
{
    Instr in = alu3(Opcode::SEL, d, a, b);
    in.pdst = p; // SEL reads the predicate; reuse pdst as the selector
    return push(in);
}

Instr &
KernelBuilder::ldg(RegIndex d, RegIndex addr, std::int32_t offset)
{
    Instr in;
    in.op = Opcode::LDG;
    in.dst = d;
    in.srcA = addr;
    in.imm = offset;
    return push(in);
}

Instr &
KernelBuilder::stg(RegIndex addr, std::int32_t offset, RegIndex val)
{
    Instr in;
    in.op = Opcode::STG;
    in.srcA = addr;
    in.srcB = val;
    in.imm = offset;
    return push(in);
}

Instr &
KernelBuilder::ldc(RegIndex d, std::int32_t offset)
{
    Instr in;
    in.op = Opcode::LDC;
    in.dst = d;
    in.imm = offset;
    return push(in);
}

Instr &
KernelBuilder::tex(RegIndex d, RegIndex u, RegIndex v)
{
    Instr in;
    in.op = Opcode::TEX;
    in.dst = d;
    in.srcA = u;
    in.srcB = v;
    return push(in);
}

Instr &
KernelBuilder::tld(RegIndex d, RegIndex u, RegIndex v)
{
    Instr in;
    in.op = Opcode::TLD;
    in.dst = d;
    in.srcA = u;
    in.srcB = v;
    return push(in);
}

Instr &
KernelBuilder::rtquery(RegIndex d, RegIndex ray_base)
{
    Instr in;
    in.op = Opcode::RTQUERY;
    in.dst = d;
    in.srcA = ray_base;
    return push(in);
}

Instr &
KernelBuilder::bra(Label target)
{
    sim_throw_if(!target.valid_, ErrorKind::Parse, "BRA to invalid label");
    Instr in;
    in.op = Opcode::BRA;
    fixups_.emplace_back(here(), target.id_);
    return push(in);
}

Instr &
KernelBuilder::bssy(BarIndex b, Label conv_point)
{
    sim_throw_if(!conv_point.valid_, ErrorKind::Parse,
                 "BSSY to invalid label");
    Instr in;
    in.op = Opcode::BSSY;
    in.bar = b;
    fixups_.emplace_back(here(), conv_point.id_);
    return push(in);
}

Instr &
KernelBuilder::bsync(BarIndex b)
{
    Instr in;
    in.op = Opcode::BSYNC;
    in.bar = b;
    return push(in);
}

Instr &
KernelBuilder::yield()
{
    Instr in;
    in.op = Opcode::YIELD;
    return push(in);
}

Instr &
KernelBuilder::exit()
{
    Instr in;
    in.op = Opcode::EXIT;
    return push(in);
}

Instr &
KernelBuilder::nop()
{
    return push(Instr{});
}

Instr &
KernelBuilder::marker(const std::string &region)
{
    std::uint32_t idx = 0;
    while (idx < regionNames_.size() && regionNames_[idx] != region)
        ++idx;
    if (idx == regionNames_.size())
        regionNames_.push_back(region);
    Instr in;
    in.op = Opcode::MARKER;
    in.imm = std::int32_t(idx);
    return push(in);
}

Program
KernelBuilder::build(unsigned num_regs)
{
    for (const auto &[pc, label_id] : fixups_) {
        sim_throw_if(labelPc_[label_id] == unboundPc, ErrorKind::Parse,
                     "kernel '%s': label '%s' never bound", name_.c_str(),
                     labelName_[label_id].c_str());
        instrs_[pc].target = labelPc_[label_id];
    }

    Program prog(name_, instrs_, num_regs);
    std::map<std::string, std::uint32_t> labels;
    for (std::size_t i = 0; i < labelPc_.size(); ++i) {
        if (labelPc_[i] != unboundPc)
            labels[labelName_[i]] = labelPc_[i];
    }
    prog.setLabels(std::move(labels));
    prog.setRegions(regionNames_);
    prog.validate();
    return prog;
}

} // namespace si
