#include "verify/memdep.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "isa/op_table.hh"
#include "mem/memory.hh"
#include "verify/cfg.hh"

namespace si {

namespace {

// Saturation guards. Addresses are 32-bit at runtime; symbolic terms
// that grow past these caps carry no alias-precision anyway, so they
// collapse to top / unbounded instead of risking int64 overflow in the
// interval arithmetic below.
constexpr std::int64_t kMaxImm = std::int64_t(1) << 40;
constexpr std::int64_t kMaxCoeff = std::int64_t(1) << 34;
constexpr std::uint64_t kMaxRange = std::uint64_t(1) << 40;
constexpr std::int64_t kInf = std::int64_t(1) << 60;

// Bounds assumed for the symbolic inputs (DESIGN.md section 11's
// documented launch contract): laneId < 32 by construction; tid, warp
// and cta ids bounded by launch geometry far below these caps.
constexpr std::int64_t kLaneMax = 31;
constexpr std::int64_t kTidMax = (std::int64_t(1) << 24) - 1;
constexpr std::int64_t kWarpMax = (std::int64_t(1) << 20) - 1;
constexpr std::int64_t kCtaMax = (std::int64_t(1) << 16) - 1;

AffineVal
top()
{
    return AffineVal{};
}

AffineVal
constant(std::int64_t v)
{
    AffineVal a;
    a.top = false;
    a.imm = v;
    return a;
}

/** Collapse to top / unbounded when any component leaves its cap. */
AffineVal
clamp(AffineVal v)
{
    if (v.top)
        return v;
    const auto bad = [](std::int64_t c) { return c > kMaxCoeff ||
                                                 c < -kMaxCoeff; };
    if (v.imm > kMaxImm || v.imm < -kMaxImm || bad(v.cLane) ||
        bad(v.cTid) || bad(v.cWarp) || bad(v.cCta))
        return top();
    if (v.range != AffineVal::unboundedRange && v.range > kMaxRange)
        v.range = AffineVal::unboundedRange;
    return v;
}

bool
isConst(const AffineVal &v)
{
    return !v.top && v.range == 0 && v.cLane == 0 && v.cTid == 0 &&
           v.cWarp == 0 && v.cCta == 0;
}

AffineVal
add(const AffineVal &a, const AffineVal &b)
{
    if (a.top || b.top)
        return top();
    AffineVal r;
    r.top = false;
    r.imm = a.imm + b.imm;
    r.cLane = a.cLane + b.cLane;
    r.cTid = a.cTid + b.cTid;
    r.cWarp = a.cWarp + b.cWarp;
    r.cCta = a.cCta + b.cCta;
    r.range = (a.range == AffineVal::unboundedRange ||
               b.range == AffineVal::unboundedRange)
                  ? AffineVal::unboundedRange
                  : a.range + b.range;
    return clamp(r);
}

AffineVal
sub(const AffineVal &a, const AffineVal &b)
{
    if (a.top || b.top)
        return top();
    // a - b with b in [b.imm, b.imm + b.range]: lower the base by the
    // full slack of b so the result interval stays an over-approximation.
    AffineVal r;
    r.top = false;
    r.cLane = a.cLane - b.cLane;
    r.cTid = a.cTid - b.cTid;
    r.cWarp = a.cWarp - b.cWarp;
    r.cCta = a.cCta - b.cCta;
    if (a.range == AffineVal::unboundedRange ||
        b.range == AffineVal::unboundedRange) {
        r.imm = a.imm - b.imm;
        r.range = AffineVal::unboundedRange;
    } else {
        r.imm = a.imm - b.imm - std::int64_t(b.range);
        r.range = a.range + b.range;
    }
    return clamp(r);
}

AffineVal
mulConst(const AffineVal &a, std::int64_t k)
{
    if (a.top)
        return top();
    if (k == 0)
        return constant(0);
    AffineVal r;
    r.top = false;
    r.cLane = a.cLane * k;
    r.cTid = a.cTid * k;
    r.cWarp = a.cWarp * k;
    r.cCta = a.cCta * k;
    if (a.range == AffineVal::unboundedRange) {
        r.imm = a.imm * k;
        r.range = AffineVal::unboundedRange;
    } else if (k > 0) {
        r.imm = a.imm * k;
        r.range = a.range * std::uint64_t(k);
    } else {
        r.imm = a.imm * k - std::int64_t(a.range) * (-k);
        r.range = a.range * std::uint64_t(-k);
    }
    return clamp(r);
}

/** Pure interval [0, hi] with no symbolic terms. */
AffineVal
bounded(std::uint64_t hi)
{
    AffineVal r;
    r.top = false;
    r.range = hi;
    return clamp(r);
}

/** Lattice join: both values possible. */
AffineVal
joinVal(const AffineVal &a, const AffineVal &b)
{
    if (a.top || b.top)
        return top();
    if (!a.sameCoeffs(b))
        return top();
    AffineVal r = a;
    r.imm = std::min(a.imm, b.imm);
    if (a.range == AffineVal::unboundedRange ||
        b.range == AffineVal::unboundedRange) {
        r.range = AffineVal::unboundedRange;
        return clamp(r);
    }
    const std::int64_t hi = std::max(a.imm + std::int64_t(a.range),
                                     b.imm + std::int64_t(b.range));
    r.range = std::uint64_t(hi - r.imm);
    return clamp(r);
}

bool
sameVal(const AffineVal &a, const AffineVal &b)
{
    if (a.top != b.top)
        return false;
    if (a.top)
        return true;
    return a.imm == b.imm && a.range == b.range && a.sameCoeffs(b);
}

/** Conservative absolute value interval under the launch bounds. */
struct Interval
{
    std::int64_t lo = -kInf;
    std::int64_t hi = kInf;
};

Interval
absInterval(const AffineVal &v)
{
    if (v.top)
        return {};
    Interval r{v.imm, v.imm};
    const auto term = [&r](std::int64_t c, std::int64_t bound) {
        if (c >= 0)
            r.hi += c * bound;
        else
            r.lo += c * bound;
    };
    term(v.cLane, kLaneMax);
    term(v.cTid, kTidMax);
    term(v.cWarp, kWarpMax);
    term(v.cCta, kCtaMax);
    if (v.range == AffineVal::unboundedRange)
        r.hi = kInf;
    else
        r.hi += std::int64_t(v.range);
    return r;
}

/** Can the two 4-byte accesses never share a word, for any lanes? */
bool
absDisjoint(const AffineVal &a, const AffineVal &b)
{
    const Interval ia = absInterval(a);
    const Interval ib = absInterval(b);
    return ia.hi + 3 < ib.lo || ib.hi + 3 < ia.lo;
}

/**
 * May two *distinct* lanes i != j of one warp produce overlapping word
 * addresses, lane i evaluating @p a and lane j evaluating @p b?
 * Within a warp tid = warpBase + lane, so equal cTid/cWarp/cCta terms
 * cancel up to the lane delta and the effective lane coefficient is
 * cLane + cTid.
 */
bool
mayAliasCrossLane(const AffineVal &a, const AffineVal &b)
{
    if (absDisjoint(a, b))
        return false;
    if (a.top || b.top)
        return true;
    if (a.cTid != b.cTid || a.cWarp != b.cWarp || a.cCta != b.cCta)
        return true; // symbolic bases differ; intervals already overlap
    if (a.range == AffineVal::unboundedRange ||
        b.range == AffineVal::unboundedRange)
        return true;

    const std::int64_t ea = a.cLane + a.cTid;
    const std::int64_t eb = b.cLane + b.cTid;
    const std::int64_t c = a.imm - b.imm;
    const std::int64_t slackLo = -std::int64_t(b.range) - 3;
    const std::int64_t slackHi = std::int64_t(a.range) + 3;

    if (ea == eb) {
        // a(i) - b(j) = c + ea*(i - j), i != j so the delta k is
        // nonzero: lane-private strides (|ea| > range sum + 3) can
        // never collide across lanes.
        for (std::int64_t k = -kLaneMax; k <= kLaneMax; ++k) {
            if (k == 0)
                continue;
            const std::int64_t d = c + ea * k;
            if (d + slackLo <= 0 && 0 <= d + slackHi)
                return true;
        }
        return false;
    }

    // Different effective strides: bound ea*i - eb*j over i, j in
    // [0, 31] (the i == j exclusion buys nothing here).
    const std::int64_t lo =
        std::min<std::int64_t>(0, ea * kLaneMax) -
        std::max<std::int64_t>(0, eb * kLaneMax);
    const std::int64_t hi =
        std::max<std::int64_t>(0, ea * kLaneMax) -
        std::min<std::int64_t>(0, eb * kLaneMax);
    return c + lo + slackLo <= 0 && 0 <= c + hi + slackHi;
}

/**
 * May two distinct lanes of the *same* subwarp executing this one
 * store share a word? (The static cover for the dynamic detector's
 * intra-instruction conflicts.)
 */
bool
laneSharedStore(const AffineVal &addr)
{
    if (addr.top || addr.range == AffineVal::unboundedRange)
        return true;
    const std::int64_t e = addr.cLane + addr.cTid;
    const std::int64_t mag = e >= 0 ? e : -e;
    return mag <= std::int64_t(addr.range) + 3;
}

// ---- abstract interpretation over the CFG -------------------------------

struct AbsState
{
    bool reached = false;
    std::vector<AffineVal> regs;
};

class MemDepAnalysis
{
  public:
    explicit MemDepAnalysis(const Program &program)
        : program_(program), cfg_(Cfg::build(program))
    {
    }

    MemDepResult
    run()
    {
        fixpoint();
        collectSites();
        pairSites();
        return std::move(result_);
    }

  private:
    /** Source register read; regNone is the hardwired zero RZ. */
    static AffineVal
    regVal(const std::vector<AffineVal> &regs, RegIndex r)
    {
        if (r == regNone)
            return constant(0);
        return r < regs.size() ? regs[r] : top();
    }

    AffineVal
    operandB(const Instr &in, const std::vector<AffineVal> &regs) const
    {
        return in.bImm ? constant(in.imm) : regVal(regs, in.srcB);
    }

    void
    setReg(std::vector<AffineVal> &regs, const Instr &in, RegIndex dst,
           AffineVal v) const
    {
        if (dst == regNone || dst >= regs.size())
            return;
        // Guarded instructions may not execute: weak update.
        if (in.guard != predNone)
            v = joinVal(regs[dst], v);
        regs[dst] = v;
    }

    void
    transfer(const Instr &in, std::vector<AffineVal> &regs) const
    {
        switch (in.op) {
          case Opcode::MOV:
            setReg(regs, in, in.dst,
                   in.bImm ? constant(in.imm) : regVal(regs, in.srcA));
            break;
          case Opcode::S2R: {
            AffineVal v = constant(0);
            switch (SReg(in.imm)) {
              case SReg::TID: v.cTid = 1; break;
              case SReg::CTAID: v.cCta = 1; break;
              case SReg::LANEID: v.cLane = 1; break;
              case SReg::WARPID: v.cWarp = 1; break;
            }
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::IADD:
            setReg(regs, in, in.dst,
                   add(regVal(regs, in.srcA), operandB(in, regs)));
            break;
          case Opcode::ISUB:
            setReg(regs, in, in.dst,
                   sub(regVal(regs, in.srcA), operandB(in, regs)));
            break;
          case Opcode::IMUL: {
            const AffineVal a = regVal(regs, in.srcA);
            const AffineVal b = operandB(in, regs);
            AffineVal v = top();
            if (isConst(b))
                v = mulConst(a, b.imm);
            else if (isConst(a))
                v = mulConst(b, a.imm);
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::IMAD: {
            const AffineVal a = regVal(regs, in.srcA);
            const AffineVal b = operandB(in, regs);
            const AffineVal c = regVal(regs, in.srcC);
            AffineVal v = top();
            if (isConst(b))
                v = add(mulConst(a, b.imm), c);
            else if (isConst(a))
                v = add(mulConst(b, a.imm), c);
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::SHL: {
            const AffineVal a = regVal(regs, in.srcA);
            const AffineVal b = operandB(in, regs);
            AffineVal v = top();
            if (isConst(b))
                v = mulConst(a, std::int64_t(1)
                                    << (std::uint64_t(b.imm) & 31));
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::SHR: {
            const AffineVal a = regVal(regs, in.srcA);
            const AffineVal b = operandB(in, regs);
            AffineVal v = top();
            if (isConst(b)) {
                const unsigned k = unsigned(b.imm) & 31;
                if (isConst(a) && a.imm >= 0)
                    v = constant(std::int64_t(std::uint64_t(a.imm) >> k));
                else
                    v = bounded(0xffffffffu >> k);
            }
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::AND: {
            const AffineVal a = regVal(regs, in.srcA);
            const AffineVal b = operandB(in, regs);
            AffineVal v;
            if (isConst(a) && isConst(b)) {
                v = constant(std::int64_t(std::uint32_t(a.imm) &
                                          std::uint32_t(b.imm)));
            } else {
                // x & m <= m (unsigned); take the tightest mask bound.
                std::uint64_t hi = 0xffffffffu;
                if (isConst(a))
                    hi = std::min(hi, std::uint64_t(std::uint32_t(a.imm)));
                if (isConst(b))
                    hi = std::min(hi, std::uint64_t(std::uint32_t(b.imm)));
                v = hi == 0xffffffffu ? top() : bounded(hi);
            }
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::OR:
          case Opcode::XOR: {
            const AffineVal a = regVal(regs, in.srcA);
            const AffineVal b = operandB(in, regs);
            AffineVal v = top();
            if (isConst(a) && isConst(b)) {
                const std::uint32_t ua = std::uint32_t(a.imm);
                const std::uint32_t ub = std::uint32_t(b.imm);
                v = constant(std::int64_t(in.op == Opcode::OR ? (ua | ub)
                                                              : (ua ^ ub)));
            }
            setReg(regs, in, in.dst, v);
            break;
          }
          case Opcode::IMIN:
          case Opcode::IMAX:
          case Opcode::SEL:
            setReg(regs, in, in.dst,
                   joinVal(regVal(regs, in.srcA), operandB(in, regs)));
            break;
          case Opcode::RTQUERY:
            for (unsigned i = 0; i < opInfo(in.op).dstRegs; ++i) {
                const unsigned d = unsigned(in.dst) + i;
                if (d < regs.size())
                    regs[d] = top();
            }
            break;
          case Opcode::ISETP:
          case Opcode::FSETP:
          case Opcode::STG:
          case Opcode::NOP:
          case Opcode::BRA:
          case Opcode::BSSY:
          case Opcode::BSYNC:
          case Opcode::YIELD:
          case Opcode::EXIT:
            break;
          default:
            // Everything else (float pipe, conversions, loads) produces
            // a value this lattice does not model.
            if (in.dst != regNone)
                setReg(regs, in, in.dst, top());
            break;
        }
    }

    void
    fixpoint()
    {
        const auto &blocks = cfg_.blocks();
        in_.assign(blocks.size(), AbsState{});
        if (blocks.empty())
            return;
        in_[0].reached = true;
        in_[0].regs.assign(program_.numRegs(), top());

        // RPO iteration; after widenAfter passes any register still
        // changing at a join is forced to top, which makes every chain
        // finite and the iteration terminate.
        constexpr unsigned widenAfter = 4;
        bool changed = true;
        for (unsigned pass = 0; changed; ++pass) {
            changed = false;
            const bool widen = pass >= widenAfter;
            for (std::uint32_t bid : cfg_.rpo()) {
                if (!in_[bid].reached)
                    continue;
                std::vector<AffineVal> out = in_[bid].regs;
                const CfgBlock &blk = blocks[bid];
                for (std::uint32_t pc = blk.first; pc < blk.end; ++pc)
                    transfer(program_.at(pc), out);
                for (std::uint32_t succ : blk.succs) {
                    AbsState &dst = in_[succ];
                    if (!dst.reached) {
                        dst.reached = true;
                        dst.regs = out;
                        changed = true;
                        continue;
                    }
                    for (std::size_t r = 0; r < dst.regs.size(); ++r) {
                        AffineVal j = joinVal(dst.regs[r], out[r]);
                        if (sameVal(j, dst.regs[r]))
                            continue;
                        dst.regs[r] = widen ? top() : j;
                        changed = true;
                    }
                }
            }
        }
    }

    void
    collectSites()
    {
        const auto &blocks = cfg_.blocks();
        for (std::uint32_t bid = 0; bid < blocks.size(); ++bid) {
            if (!in_[bid].reached)
                continue;
            std::vector<AffineVal> regs = in_[bid].regs;
            const CfgBlock &blk = blocks[bid];
            for (std::uint32_t pc = blk.first; pc < blk.end; ++pc) {
                const Instr &in = program_.at(pc);
                if (accessesGlobalMemory(in.op)) {
                    MemSite site;
                    site.pc = pc;
                    site.isStore = writesGlobalMemory(in.op);
                    if (in.op == Opcode::TEX || in.op == Opcode::TLD) {
                        // texelAddress() hashes (u, v) into the texture
                        // segment; model the whole segment.
                        AffineVal seg = constant(
                            std::int64_t(texSegmentBase));
                        seg.range = std::uint64_t(0x3fffff) * 4 + 3;
                        site.addr = seg;
                    } else {
                        site.addr = add(regVal(regs, in.srcA),
                                        constant(in.imm));
                    }
                    result_.sites.push_back(site);
                }
                transfer(in, regs);
            }
        }
        std::sort(result_.sites.begin(), result_.sites.end(),
                  [](const MemSite &a, const MemSite &b) {
                      return a.pc < b.pc;
                  });
        for (const MemSite &s : result_.sites) {
            if (s.isStore && laneSharedStore(s.addr))
                result_.laneShared.push_back(s.pc);
        }
    }

    void
    pairSites()
    {
        const auto &sites = result_.sites;
        if (sites.empty())
            return;

        // Site-to-site forward reachability, cached (reaches() is
        // linear in the graph per query).
        const std::size_t n = sites.size();
        std::vector<std::vector<bool>> reach(n, std::vector<bool>(n));
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                reach[i][j] = cfg_.reaches(sites[i].pc, sites[j].pc);

        std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
        for (std::uint32_t s = 0; s < program_.size(); ++s) {
            const Instr &bssy = program_.at(s);
            if (bssy.op != Opcode::BSSY)
                continue;
            if (!cfg_.reachable(cfg_.blockOf(s)))
                continue;

            // The region armed by this BSSY: pcs reachable from it that
            // still reach one of its reconverging BSYNCs.
            std::vector<std::uint32_t> syncs;
            for (std::uint32_t y = 0; y < program_.size(); ++y) {
                const Instr &in = program_.at(y);
                if (in.op == Opcode::BSYNC && in.bar == bssy.bar &&
                    cfg_.reaches(s, y))
                    syncs.push_back(y);
            }
            if (syncs.empty())
                continue;

            std::vector<std::size_t> region;
            for (std::size_t i = 0; i < n; ++i) {
                if (!cfg_.reaches(s, sites[i].pc))
                    continue;
                for (std::uint32_t y : syncs) {
                    if (cfg_.reaches(sites[i].pc, y)) {
                        region.push_back(i);
                        break;
                    }
                }
            }

            // Two sites of the region are subwarp-concurrent when they
            // lie on mutually exclusive paths (sibling arms) or on a
            // common cycle (divergent loop iterations).
            for (std::size_t a = 0; a < region.size(); ++a) {
                for (std::size_t b = a; b < region.size(); ++b) {
                    const std::size_t i = region[a];
                    const std::size_t j = region[b];
                    const MemSite &p = sites[i];
                    const MemSite &q = sites[j];
                    if (!p.isStore && !q.isStore)
                        continue;
                    bool loop_carried;
                    if (i == j) {
                        if (!reach[i][i] || !p.isStore)
                            continue;
                        loop_carried = true;
                    } else if (!reach[i][j] && !reach[j][i]) {
                        loop_carried = false;
                    } else if (reach[i][j] && reach[j][i]) {
                        loop_carried = true;
                    } else {
                        continue; // one strictly precedes the other
                    }
                    if (!mayAliasCrossLane(p.addr, q.addr))
                        continue;
                    const std::uint32_t lo = std::min(p.pc, q.pc);
                    const std::uint32_t hi = std::max(p.pc, q.pc);
                    if (!seen.insert({lo, hi}).second)
                        continue;
                    MayRacePair pair;
                    pair.pcA = lo;
                    pair.pcB = hi;
                    pair.storeStore = p.isStore && q.isStore;
                    pair.loopCarried = loop_carried;
                    result_.pairs.push_back(pair);
                }
            }
        }
        std::sort(result_.pairs.begin(), result_.pairs.end(),
                  [](const MayRacePair &a, const MayRacePair &b) {
                      return a.pcA != b.pcA ? a.pcA < b.pcA
                                            : a.pcB < b.pcB;
                  });
    }

    const Program &program_;
    Cfg cfg_;
    std::vector<AbsState> in_;
    MemDepResult result_;
};

} // namespace

bool
MemDepResult::mayRace(std::uint32_t a, std::uint32_t b) const
{
    const std::uint32_t lo = std::min(a, b);
    const std::uint32_t hi = std::max(a, b);
    for (const MayRacePair &p : pairs)
        if (p.pcA == lo && p.pcB == hi)
            return true;
    if (lo == hi)
        return std::find(laneShared.begin(), laneShared.end(), lo) !=
               laneShared.end();
    return false;
}

MemDepResult
analyzeMemDep(const Program &program)
{
    return MemDepAnalysis(program).run();
}

} // namespace si
