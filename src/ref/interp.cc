#include "ref/interp.hh"

#include <algorithm>

#include "isa/op_table.hh"
#include "rtcore/rtcore.hh"

namespace si {

namespace {

/**
 * Executes one warp to completion under the canonical schedule. State is
 * the architectural subset of core/warp.hh: lanes are either runnable
 * (the cycle model's Active/Ready/Stalled collapse into one), blocked at
 * a BSYNC, or dead.
 */
class WarpInterp
{
  public:
    WarpInterp(const Program &prog, Memory &memory, RtCore *rtcore,
               unsigned logical_id, unsigned cta_id)
        : prog_(prog),
          memory_(memory),
          rtcore_(rtcore),
          logicalId_(logical_id),
          ctaId_(cta_id)
    {
        result_.regs.assign(std::size_t(prog.numRegs()) * warpSize, 0u);
        live_ = ThreadMask::firstN(warpSize);
        blockedOn_.fill(barNone);
    }

    /** @return empty string on success, else an error description. */
    std::string
    run(std::uint64_t max_steps, std::uint64_t &steps_out, bool &deadlock)
    {
        std::uint64_t steps = 0;
        while (!live_.empty()) {
            const ThreadMask runnable = live_ - blocked_;
            if (runnable.empty()) {
                deadlock = true;
                steps_out = steps;
                return "warp " + std::to_string(logicalId_) +
                       ": convergence barrier deadlock (all live lanes "
                       "blocked)";
            }
            if (steps >= max_steps) {
                steps_out = steps;
                return "warp " + std::to_string(logicalId_) +
                       ": step limit (" + std::to_string(max_steps) +
                       ") exceeded — probable infinite loop";
            }
            std::uint32_t pc = UINT32_MAX;
            for (unsigned lane : lanesOf(runnable))
                pc = std::min(pc, pc_[lane]);
            ThreadMask group;
            for (unsigned lane : lanesOf(runnable)) {
                if (pc_[lane] == pc)
                    group.set(lane);
            }
            step(pc, group);
            ++steps;
        }
        steps_out = steps;
        deadlock = false;
        return "";
    }

    RefWarpResult take() { return std::move(result_); }

  private:
    std::uint32_t
    rd(unsigned lane, RegIndex r) const
    {
        return result_.reg(lane, r);
    }

    void
    wr(unsigned lane, RegIndex r, std::uint32_t v)
    {
        if (r != regNone)
            result_.regs[std::size_t(r) * warpSize + lane] = v;
    }

    bool
    pred(unsigned lane, PredIndex p) const
    {
        return result_.predicate(lane, p);
    }

    void
    setPred(unsigned lane, PredIndex p, bool v)
    {
        if (p == predNone)
            return;
        if (v)
            result_.preds[lane] |= std::uint8_t(1u << p);
        else
            result_.preds[lane] &= std::uint8_t(~(1u << p));
    }

    /** Execute the instruction at @p pc for the subwarp @p active. */
    void
    step(std::uint32_t pc, ThreadMask active)
    {
        const Instr &in = prog_.at(pc);

        ThreadMask exec;
        for (unsigned lane : lanesOf(active)) {
            if (pred(lane, in.guard) != in.guardNeg)
                exec.set(lane);
        }

        for (unsigned lane : lanesOf(active))
            result_.trace[lane].push_back({pc, exec.test(lane)});

        auto advance = [&]() {
            for (unsigned lane : lanesOf(active))
                pc_[lane] = pc + 1;
        };
        auto for_exec = [&](auto &&fn) {
            for (unsigned lane : lanesOf(exec))
                fn(lane);
        };
        auto rdf = [&](unsigned lane, RegIndex r) {
            return asFloat(rd(lane, r));
        };

        bool advanced = false;

        switch (in.op) {
          case Opcode::LDC:
            for_exec([&](unsigned lane) {
                wr(lane, in.dst, memory_.readConst(std::uint32_t(in.imm)));
            });
            break;

          case Opcode::LDG:
            for_exec([&](unsigned lane) {
                const Addr addr =
                    Addr(rd(lane, in.srcA)) + Addr(std::int64_t(in.imm));
                wr(lane, in.dst, memory_.read(addr));
            });
            break;

          case Opcode::STG:
            for_exec([&](unsigned lane) {
                const Addr addr =
                    Addr(rd(lane, in.srcA)) + Addr(std::int64_t(in.imm));
                memory_.write(addr, rd(lane, in.srcB));
            });
            break;

          case Opcode::TEX:
          case Opcode::TLD:
            for_exec([&](unsigned lane) {
                const Addr addr =
                    texelAddress(rd(lane, in.srcA), rd(lane, in.srcB));
                wr(lane, in.dst, memory_.read(addr));
            });
            break;

          case Opcode::RTQUERY: {
            if (!rtcore_ || !rtcore_->hasScene()) {
                rtError_ = true;
                break;
            }
            std::array<Ray, warpSize> rays;
            for (unsigned lane : lanesOf(exec)) {
                Ray &r = rays[lane];
                r.origin = {rdf(lane, RegIndex(in.srcA + 0)),
                            rdf(lane, RegIndex(in.srcA + 1)),
                            rdf(lane, RegIndex(in.srcA + 2))};
                r.dir = {rdf(lane, RegIndex(in.srcA + 3)),
                         rdf(lane, RegIndex(in.srcA + 4)),
                         rdf(lane, RegIndex(in.srcA + 5))};
            }
            const WarpQueryResult q = rtcore_->query(0, exec, rays);
            for (unsigned lane : lanesOf(exec)) {
                const Hit &h = q.hits[lane];
                wr(lane, in.dst, h.valid ? h.materialId + 1 : 0);
                wr(lane, RegIndex(in.dst + 1),
                   asBits(h.valid ? h.t : 1e30f));
                wr(lane, RegIndex(in.dst + 2), h.primId);
            }
            break;
          }

          case Opcode::BRA: {
            if (exec.empty())
                break; // no lane takes: all fall through
            if (exec == active) {
                for (unsigned lane : lanesOf(active))
                    pc_[lane] = in.target;
                advanced = true;
                break;
            }
            // Divergence: both sides stay runnable; which one the cycle
            // model keeps Active is a scheduling choice, invisible here.
            for (unsigned lane : lanesOf(exec))
                pc_[lane] = in.target;
            for (unsigned lane : lanesOf(active - exec))
                pc_[lane] = pc + 1;
            advanced = true;
            break;
          }

          case Opcode::BSSY:
            // Registers the whole active subwarp, like the cycle model
            // (the guard does not gate barrier membership).
            barriers_[in.bar] |= active;
            break;

          case Opcode::BSYNC: {
            arriveBsync(in.bar, pc, active);
            advanced = true;
            break;
          }

          case Opcode::EXIT: {
            for (unsigned lane : lanesOf(active - exec))
                pc_[lane] = pc + 1;
            exitLanes(exec);
            advanced = true;
            break;
          }

          default:
            // Lane-valued opcodes; NOP, YIELD and MARKER have no
            // architectural effect.
            withLaneOp(in.op, [&](auto op) {
                constexpr OpInfo info = opInfo(decltype(op)::value);
                for (unsigned lane : lanesOf(exec)) {
                    const LaneArgs x{rd(lane, in.srcA),
                                     in.bImm ? std::uint32_t(in.imm)
                                             : rd(lane, in.srcB),
                                     rd(lane, in.srcC),
                                     pred(lane, in.pdst),
                                     lane,
                                     logicalId_,
                                     ctaId_};
                    const std::uint32_t v = info.lane(in, x);
                    if constexpr (info.shape == OpShape::SetP)
                        setPred(lane, in.pdst, v != 0);
                    else
                        wr(lane, in.dst, v);
                }
            });
            break;
        }

        if (!advanced)
            advance();
    }

    void
    arriveBsync(BarIndex bar, std::uint32_t sync_pc, ThreadMask active)
    {
        const ThreadMask participants = barriers_[bar] & live_;
        const ThreadMask others = participants - active;

        bool all_arrived = true;
        for (unsigned lane : lanesOf(others)) {
            if (!blocked_.test(lane) || blockedOn_[lane] != bar) {
                all_arrived = false;
                break;
            }
        }

        if (all_arrived) {
            for (unsigned lane : lanesOf(participants)) {
                blocked_.clear(lane);
                blockedOn_[lane] = barNone;
                pc_[lane] = sync_pc + 1;
            }
            for (unsigned lane : lanesOf(active - participants))
                pc_[lane] = sync_pc + 1;
            barriers_[bar] = ThreadMask();
            return;
        }

        for (unsigned lane : lanesOf(active)) {
            blocked_.set(lane);
            blockedOn_[lane] = bar;
        }
    }

    void
    exitLanes(ThreadMask kill)
    {
        live_ -= kill;
        if (live_.empty())
            return;

        // Mirror SubwarpUnit::exitLanes: a barrier whose surviving
        // participants are all blocked on it can never complete — release
        // it (the released lanes' BSYNC already retired when they
        // blocked, so they just advance).
        for (BarIndex b = 0; b < 16; ++b) {
            const ThreadMask parts = barriers_[b] & live_;
            if (parts.empty())
                continue;
            bool all_blocked = true;
            for (unsigned lane : lanesOf(parts)) {
                if (!blocked_.test(lane) || blockedOn_[lane] != b) {
                    all_blocked = false;
                    break;
                }
            }
            if (!all_blocked)
                continue;
            for (unsigned lane : lanesOf(parts)) {
                blocked_.clear(lane);
                blockedOn_[lane] = barNone;
                pc_[lane] += 1;
            }
            barriers_[b] = ThreadMask();
        }
    }

  public:
    bool rtError_ = false;

  private:
    const Program &prog_;
    Memory &memory_;
    RtCore *rtcore_;
    unsigned logicalId_;
    unsigned ctaId_;

    RefWarpResult result_;
    std::array<std::uint32_t, warpSize> pc_{};
    ThreadMask live_;
    ThreadMask blocked_;
    std::array<BarIndex, warpSize> blockedOn_{};
    std::array<ThreadMask, 16> barriers_{};
};

} // namespace

RefResult
interpret(const Program &program, Memory &memory, const RefLaunch &launch,
          const Bvh *scene, std::uint64_t max_steps)
{
    RefResult res;
    std::string err = program.check();
    if (!err.empty()) {
        res.error = "invalid program: " + err;
        return res;
    }
    if (launch.numWarps == 0 || launch.warpsPerCta == 0) {
        res.error = "invalid launch geometry";
        return res;
    }

    RtCore rtcore(scene, RtCoreConfig{});

    for (unsigned i = 0; i < launch.numWarps; ++i) {
        WarpInterp warp(program, memory, &rtcore, i,
                        i / launch.warpsPerCta);
        std::uint64_t steps = 0;
        bool deadlock = false;
        err = warp.run(max_steps, steps, deadlock);
        res.steps += steps;
        if (warp.rtError_) {
            res.error = "RTQUERY issued but no scene is attached";
            return res;
        }
        if (!err.empty()) {
            res.error = err;
            res.deadlock = deadlock;
            return res;
        }
        res.warps.push_back(warp.take());
    }
    res.ok = true;
    return res;
}

} // namespace si
