#include "isa/assembler.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/sim_error.hh"
#include "isa/op_table.hh"

namespace si {

namespace {

/** Split a line into tokens; commas are separators, brackets kept. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::string cur;
    auto flush = [&]() {
        if (!cur.empty()) {
            toks.push_back(cur);
            cur.clear();
        }
    };
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == ';' || (c == '/' && i + 1 < line.size() &&
                         line[i + 1] == '/')) {
            break; // comment
        }
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            flush();
        } else if (c == '[' || c == ']') {
            flush();
            toks.push_back(std::string(1, c));
        } else {
            cur += c;
        }
    }
    flush();
    return toks;
}

/**
 * Thrown by parseInt() for a literal outside [INT32_MIN, UINT32_MAX];
 * assemble() reports it against the line being parsed.
 */
struct LiteralOutOfRange
{
    std::string text;
};

bool
parseInt(const std::string &s, std::int32_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size())
        return false;
    if (errno == ERANGE || v < INT32_MIN || v > std::int64_t(UINT32_MAX))
        throw LiteralOutOfRange{s};
    out = std::int32_t(v);
    return true;
}

bool
parseFloat(const std::string &s, float &out)
{
    if (s.empty())
        return false;
    std::string body = s;
    if (body.back() == 'f' || body.back() == 'F')
        body.pop_back();
    char *end = nullptr;
    out = std::strtof(body.c_str(), &end);
    return end == body.c_str() + body.size();
}

bool
parseReg(const std::string &s, RegIndex &out)
{
    if (s == "RZ") {
        out = regNone;
        return true;
    }
    if (s.size() < 2 || s[0] != 'R')
        return false;
    std::int32_t v;
    if (!parseInt(s.substr(1), v) || v < 0 || unsigned(v) >= maxRegs)
        return false;
    out = RegIndex(v);
    return true;
}

bool
parsePred(const std::string &s, PredIndex &out)
{
    if (s == "PT") {
        out = predNone;
        return true;
    }
    if (s.size() < 2 || s[0] != 'P')
        return false;
    std::int32_t v;
    if (!parseInt(s.substr(1), v) || v < 0 || unsigned(v) >= numPredicates)
        return false;
    out = PredIndex(v);
    return true;
}

bool
parseBar(const std::string &s, BarIndex &out)
{
    if (s.size() < 2 || s[0] != 'B')
        return false;
    std::int32_t v;
    if (!parseInt(s.substr(1), v) || v < 0 || unsigned(v) >= numBarriers)
        return false;
    out = BarIndex(v);
    return true;
}

std::optional<CmpOp>
parseCmp(const std::string &s)
{
    for (unsigned c = 0; c <= unsigned(CmpOp::NE); ++c) {
        if (s == cmpName(CmpOp(c)))
            return CmpOp(c);
    }
    return std::nullopt;
}

std::optional<SReg>
parseSReg(const std::string &s)
{
    for (unsigned r = 0; r <= unsigned(SReg::WARPID); ++r) {
        if (s == sregName(SReg(r)))
            return SReg(r);
    }
    return std::nullopt;
}

std::optional<Opcode>
parseOpcode(const std::string &s)
{
    static const std::map<std::string, Opcode> byName = [] {
        std::map<std::string, Opcode> m;
        for (const OpInfo &info : opTable)
            m.emplace(info.name, info.op);
        return m;
    }();
    auto it = byName.find(s);
    if (it == byName.end())
        return std::nullopt;
    return it->second;
}

/** Pending label reference: instruction pc awaiting label resolution. */
struct Fixup
{
    std::uint32_t pc;
    std::string label;
    int line;
};

} // namespace

AsmResult
assemble(const std::string &source)
{
    AsmResult res;
    std::vector<Instr> instrs;
    std::vector<std::uint32_t> lines;
    std::map<std::string, std::uint32_t> labels;
    std::vector<Fixup> fixups;
    std::string kernel_name = "asm_kernel";
    unsigned num_regs = 32;
    // Region table for MARKER, interned in first-occurrence order so
    // sourceText() -> assemble() round-trips marker indices exactly.
    std::vector<std::string> regions = {"_entry"};

    auto fail = [&](int line, const std::string &msg) {
        res.ok = false;
        res.error = "line " + std::to_string(line) + ": " + msg;
        return res;
    };

    std::istringstream in(source);
    std::string raw;
    int line_no = 0;
    try {
        while (std::getline(in, raw)) {
            ++line_no;
            auto toks = tokenize(raw);
            if (toks.empty())
                continue;

            // Directives.
            if (toks[0] == ".kernel") {
                if (toks.size() != 2)
                    return fail(line_no, ".kernel expects a name");
                kernel_name = toks[1];
                continue;
            }
            if (toks[0] == ".regs") {
                std::int32_t v;
                if (toks.size() != 2 || !parseInt(toks[1], v) || v < 1 ||
                    unsigned(v) > maxRegs) {
                    return fail(line_no, ".regs expects 1.." +
                                             std::to_string(maxRegs));
                }
                num_regs = unsigned(v);
                continue;
            }

            // Label definitions (possibly followed by an instruction).
            std::size_t ti = 0;
            while (ti < toks.size() && toks[ti].back() == ':') {
                std::string name = toks[ti].substr(0, toks[ti].size() - 1);
                if (name.empty())
                    return fail(line_no, "empty label");
                if (labels.count(name))
                    return fail(line_no, "label '" + name + "' redefined");
                labels[name] = std::uint32_t(instrs.size());
                ++ti;
            }
            if (ti >= toks.size())
                continue;

            Instr ins;

            // Guard predicate @Pn / @!Pn.
            if (toks[ti][0] == '@') {
                std::string p = toks[ti].substr(1);
                if (!p.empty() && p[0] == '!') {
                    ins.guardNeg = true;
                    p = p.substr(1);
                }
                if (!parsePred(p, ins.guard))
                    return fail(line_no, "bad guard predicate");
                ++ti;
                if (ti >= toks.size())
                    return fail(line_no, "guard with no instruction");
            }

            // Mnemonic, with optional .CMP suffix.
            std::string mnem = toks[ti++];
            std::optional<CmpOp> cmp;
            if (auto dot = mnem.find('.'); dot != std::string::npos) {
                cmp = parseCmp(mnem.substr(dot + 1));
                if (!cmp)
                    return fail(line_no, "bad compare suffix on " + mnem);
                mnem = mnem.substr(0, dot);
            }
            auto op = parseOpcode(mnem);
            if (!op)
                return fail(line_no, "unknown mnemonic '" + mnem + "'");
            ins.op = *op;
            if (cmp)
                ins.cmp = *cmp;

            // Collect scoreboard annotations from the tail.
            std::vector<std::string> ops(toks.begin() + ti, toks.end());
            while (!ops.empty() && ops.back().rfind("&", 0) == 0) {
                const std::string &ann = ops.back();
                std::int32_t id;
                auto sb = [&](std::size_t prefix) {
                    return parseInt(ann.substr(prefix), id) && id >= 0 &&
                           unsigned(id) < numScoreboards;
                };
                if (ann.rfind("&wr=sb", 0) == 0 && sb(6)) {
                    ins.wr(SbIndex(id));
                } else if (ann.rfind("&req=sb", 0) == 0 && sb(7)) {
                    ins.req(SbIndex(id));
                } else if (ann == "&hint=taken") {
                    ins.stallHint = 1;
                } else if (ann == "&hint=fall") {
                    ins.stallHint = -1;
                } else {
                    return fail(line_no, "bad annotation '" + ann + "'");
                }
                ops.pop_back();
            }

            // Helper lambdas over the operand list.
            auto need = [&](std::size_t n) { return ops.size() == n; };
            auto reg = [&](std::size_t i, RegIndex &r) {
                return i < ops.size() && parseReg(ops[i], r);
            };

            // Accept either a register or an immediate (int or float) in
            // the B-operand slot.
            auto reg_or_imm = [&](std::size_t i, bool flt) {
                if (i >= ops.size())
                    return false;
                if (parseReg(ops[i], ins.srcB))
                    return true;
                std::int32_t iv;
                float fv;
                if (!flt && parseInt(ops[i], iv)) {
                    ins.bImm = true;
                    ins.imm = iv;
                    return true;
                }
                if (flt && parseFloat(ops[i], fv)) {
                    ins.bImm = true;
                    ins.imm = Instr::fbits(fv);
                    return true;
                }
                // Integer immediates are permitted in float ops too
                // (e.g. FMUL R1, R2, 2 means 2.0f).
                if (flt && parseInt(ops[i], iv)) {
                    ins.bImm = true;
                    ins.imm = Instr::fbits(float(iv));
                    return true;
                }
                return false;
            };

            const OpInfo &info = opInfo(ins.op);
            bool bad = false;
            switch (info.shape) {
              case OpShape::None:
                bad = !need(0);
                break;

              case OpShape::Mov:
                bad = !need(2) || !reg(0, ins.dst);
                if (!bad && !parseReg(ops[1], ins.srcA)) {
                    std::int32_t iv;
                    float fv;
                    if (parseInt(ops[1], iv)) {
                        ins.bImm = true;
                        ins.imm = iv;
                    } else if (parseFloat(ops[1], fv)) {
                        ins.bImm = true;
                        ins.imm = Instr::fbits(fv);
                    } else {
                        bad = true;
                    }
                }
                break;

              case OpShape::S2r: {
                bad = !need(2) || !reg(0, ins.dst);
                if (!bad) {
                    auto sr = parseSReg(ops[1]);
                    if (!sr)
                        bad = true;
                    else
                        ins.imm = std::int32_t(*sr);
                }
                break;
              }

              case OpShape::Unary:
                bad = !need(2) || !reg(0, ins.dst) || !reg(1, ins.srcA);
                break;

              case OpShape::Binary:
                bad = !need(3) || !reg(0, ins.dst) || !reg(1, ins.srcA) ||
                      !reg_or_imm(2, info.floatImm);
                break;

              case OpShape::Ternary:
                bad = !need(4) || !reg(0, ins.dst) || !reg(1, ins.srcA) ||
                      !reg_or_imm(2, info.floatImm) || !reg(3, ins.srcC);
                break;

              case OpShape::SetP:
                bad = !need(3) || !parsePred(ops[0], ins.pdst) ||
                      !reg(1, ins.srcA) || !reg_or_imm(2, info.floatImm);
                break;

              case OpShape::Sel:
                bad = !need(4) || !reg(0, ins.dst) || !reg(1, ins.srcA) ||
                      !reg_or_imm(2, info.floatImm) ||
                      !parsePred(ops[3], ins.pdst);
                break;

              case OpShape::Load:
              case OpShape::Store: {
                // LDG Rd [ Rn + off ]  /  STG [ Rn + off ] Rs
                // tokenizer splits brackets, so expect: for LDG:
                //   Rd, '[', Rn(+off)?, ']'
                std::vector<std::string> mem;
                RegIndex data_reg = regNone;
                bool seen_bracket = false;
                for (const auto &t : ops) {
                    if (t == "[") {
                        seen_bracket = true;
                    } else if (t == "]") {
                        // done
                    } else if (seen_bracket && mem.empty()) {
                        mem.push_back(t);
                    } else if (data_reg == regNone && parseReg(t, data_reg)) {
                        // data operand
                    } else {
                        bad = true;
                    }
                }
                if (mem.empty())
                    bad = true;
                if (!bad) {
                    // Parse Rn, Rn+imm, or bare imm.
                    const std::string &m = mem[0];
                    auto plus = m.find('+');
                    std::string base = m.substr(0, plus);
                    ins.imm = 0;
                    if (plus != std::string::npos) {
                        if (!parseInt(m.substr(plus + 1), ins.imm))
                            bad = true;
                    }
                    if (!parseReg(base, ins.srcA)) {
                        std::int32_t abs_addr;
                        if (plus == std::string::npos &&
                            parseInt(base, abs_addr)) {
                            ins.srcA = regNone;
                            ins.imm = abs_addr;
                        } else {
                            bad = true;
                        }
                    }
                }
                if (!bad) {
                    if (info.shape == OpShape::Load)
                        ins.dst = data_reg;
                    else
                        ins.srcB = data_reg;
                }
                break;
              }

              case OpShape::Const: {
                // LDC Rd, c[imm] — the tokenizer splits brackets, so the
                // operand arrives as: Rd, "c", "[", imm, "]".
                bad = !need(5) || !reg(0, ins.dst) || ops[1] != "c" ||
                      ops[2] != "[" || ops[4] != "]" ||
                      !parseInt(ops[3], ins.imm);
                break;
              }

              case OpShape::Tex:
                bad = !need(3) || !reg(0, ins.dst) || !reg(1, ins.srcA) ||
                      !reg(2, ins.srcB);
                break;

              case OpShape::Branch:
                bad = !need(1);
                if (!bad)
                    fixups.push_back({std::uint32_t(instrs.size()), ops[0],
                                      line_no});
                break;

              case OpShape::Bssy:
                bad = !need(2) || !parseBar(ops[0], ins.bar);
                if (!bad)
                    fixups.push_back({std::uint32_t(instrs.size()), ops[1],
                                      line_no});
                break;

              case OpShape::Bsync:
                bad = !need(1) || !parseBar(ops[0], ins.bar);
                break;

              case OpShape::Marker: {
                // MARKER <region-name>: intern the name, imm = table index.
                bad = !need(1);
                if (!bad) {
                    std::uint32_t idx = 0;
                    while (idx < regions.size() && regions[idx] != ops[0])
                        ++idx;
                    if (idx == regions.size())
                        regions.push_back(ops[0]);
                    ins.imm = std::int32_t(idx);
                }
                break;
              }
            }

            if (bad)
                return fail(line_no, "malformed operands for " + mnem);
            instrs.push_back(ins);
            lines.push_back(std::uint32_t(line_no));
        }
    } catch (const LiteralOutOfRange &e) {
        return fail(line_no, "integer literal '" + e.text + "' out of range");
    }

    for (const auto &f : fixups) {
        auto it = labels.find(f.label);
        if (it == labels.end())
            return fail(f.line, "undefined label '" + f.label + "'");
        instrs[f.pc].target = it->second;
    }

    Program prog(kernel_name, std::move(instrs), num_regs);
    prog.setLabels(std::move(labels));
    prog.setSourceLines(std::move(lines));
    prog.setRegions(std::move(regions));
    std::string err = prog.check();
    if (!err.empty()) {
        res.ok = false;
        res.error = err;
        return res;
    }
    res.ok = true;
    res.program = std::move(prog);
    return res;
}

Program
assembleOrDie(const std::string &source)
{
    AsmResult r = assemble(source);
    if (!r.ok)
        throw SimError(ErrorKind::Parse, "assembly failed: " + r.error);
    return std::move(r.program);
}

} // namespace si
