#include "verify/verifier.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "verify/cfg.hh"
#include "verify/memdep.hh"

namespace si {

namespace {

std::string
pcRef(const Program &prog, std::uint32_t pc)
{
    const std::uint32_t line = prog.sourceLine(pc);
    if (line != 0)
        return "line " + std::to_string(line);
    return "pc " + std::to_string(pc);
}

// ---- abstract state ------------------------------------------------------
//
// Joint lattice for both dataflow analyses, one value per basic block
// (the IN state). Sets grow and booleans saturate monotonically, so the
// round-robin sweep below reaches a fixpoint.

struct AbsState
{
    bool reachable = false;

    /** Per scoreboard: static pcs of &wr sites that may still be
     *  outstanding (no &req consumed them on this path). */
    std::vector<std::set<std::uint32_t>> sbPending;

    /** Bit k: some path to here contains at least one &wr=sbk. */
    std::uint32_t sbMayWritten = 0;

    /** Bit k: some path to here contains no &wr=sbk at all. */
    std::uint32_t sbMayNever = 0;

    /** Per barrier register: static pcs of BSSYs that may have armed it
     *  with no BSYNC since. */
    std::vector<std::set<std::uint32_t>> barArmed;

    /** Bit b: some path to here has barrier b unarmed. */
    std::uint32_t barMayUnarmed = 0;

    AbsState(unsigned num_sb, unsigned num_bar)
        : sbPending(num_sb), barArmed(num_bar)
    {
    }

    /** Union-join @p other into *this; true when *this changed. */
    bool
    join(const AbsState &other)
    {
        bool changed = !reachable;
        reachable = true;
        for (std::size_t k = 0; k < sbPending.size(); ++k) {
            for (std::uint32_t pc : other.sbPending[k])
                changed |= sbPending[k].insert(pc).second;
        }
        for (std::size_t b = 0; b < barArmed.size(); ++b) {
            for (std::uint32_t pc : other.barArmed[b])
                changed |= barArmed[b].insert(pc).second;
        }
        auto or_into = [&](std::uint32_t &dst, std::uint32_t src) {
            changed |= (dst | src) != dst;
            dst |= src;
        };
        or_into(sbMayWritten, other.sbMayWritten);
        or_into(sbMayNever, other.sbMayNever);
        or_into(barMayUnarmed, other.barMayUnarmed);
        return changed;
    }
};

class Verifier
{
  public:
    Verifier(const Program &prog, const VerifyOptions &opts)
        : prog_(prog), opts_(opts)
    {
    }

    VerifyReport
    run()
    {
        if (boundsPass())
            finish();
        return std::move(report_);
    }

  private:
    void
    diag(Severity sev, const char *code, std::uint32_t pc,
         std::string message)
    {
        if (sev == Severity::Note && !opts_.notes)
            return;
        report_.diags.push_back({sev, code, pc, std::move(message)});
    }

    // ---- pass 1: index bounds and structural shape ----------------------
    //
    // Returns false when the program is too malformed for CFG
    // construction (out-of-range targets / barrier / scoreboard ids
    // would index out of the analysis arrays).

    bool
    boundsPass()
    {
        if (prog_.size() == 0) {
            diag(Severity::Error, "empty-program", 0, "program is empty");
            return false;
        }
        if (prog_.numRegs() == 0 || prog_.numRegs() > 255) {
            diag(Severity::Error, "bad-reg-count", 0,
                 "register count " + std::to_string(prog_.numRegs()) +
                     " outside 1..255");
        }

        bool cfg_safe = true;
        bool has_exit = false;
        for (std::uint32_t pc = 0; pc < prog_.size(); ++pc) {
            const Instr &in = prog_.at(pc);
            has_exit |= in.op == Opcode::EXIT;

            if ((in.op == Opcode::BRA || in.op == Opcode::BSSY) &&
                in.target >= prog_.size()) {
                diag(Severity::Error, "target-oob", pc,
                     "branch target " + std::to_string(in.target) +
                         " outside the program");
                cfg_safe = false;
            }
            if ((in.op == Opcode::BSSY || in.op == Opcode::BSYNC) &&
                in.bar >= numBarriers) {
                diag(Severity::Error, "bad-bar-index", pc,
                     "barrier register B" + std::to_string(in.bar) +
                         " exceeds the " +
                         std::to_string(numBarriers) +
                         " modeled registers");
                cfg_safe = false;
            }
            if (in.wrSb != sbNone && in.wrSb >= numScoreboards) {
                diag(Severity::Error, "bad-sb-index", pc,
                     "&wr=sb" + std::to_string(in.wrSb) + " exceeds the " +
                         std::to_string(numScoreboards) +
                         " modeled scoreboards");
                cfg_safe = false;
            }
            const std::uint32_t req_hi =
                std::uint32_t(in.reqSbMask) >> numScoreboards;
            if (req_hi != 0) {
                diag(Severity::Error, "bad-sb-index", pc,
                     "&req names a scoreboard past sb" +
                         std::to_string(numScoreboards - 1));
                cfg_safe = false;
            }
            if (in.wrSb != sbNone && !isLongLatency(in.op)) {
                diag(Severity::Error, "wr-on-short-op", pc,
                     "&wr=sb" + std::to_string(in.wrSb) +
                         " on fixed-latency opcode " +
                         opcodeName(in.op) +
                         " (no scoreboarded writeback will release it)");
            }

            auto check_reg = [&](RegIndex r, const char *role) {
                if (r != regNone && r >= prog_.numRegs()) {
                    diag(Severity::Error, "bad-reg-index", pc,
                         std::string(role) + " register R" +
                             std::to_string(r) + " exceeds .regs " +
                             std::to_string(prog_.numRegs()));
                }
            };
            check_reg(in.dst, "destination");
            check_reg(in.srcA, "source");
            if (!in.bImm)
                check_reg(in.srcB, "source");
            check_reg(in.srcC, "source");

            auto check_pred = [&](PredIndex p, const char *role) {
                if (p != predNone && p > 6) {
                    diag(Severity::Error, "bad-pred-index", pc,
                         std::string(role) + " predicate P" +
                             std::to_string(p) +
                             " outside P0..P6 (P7 is PT)");
                }
            };
            check_pred(in.guard, "guard");
            check_pred(in.pdst, "destination");

            if ((in.op == Opcode::ISETP || in.op == Opcode::FSETP) &&
                in.pdst == predNone) {
                diag(Severity::Warning, "setp-writes-pt", pc,
                     "comparison writes PT; the result is discarded");
            }

            if (pc + 1 == prog_.size() && in.op != Opcode::EXIT &&
                !(in.op == Opcode::BRA && in.guard == predNone)) {
                diag(Severity::Error, "bad-last-instr", pc,
                     "program can fall off the end: last instruction is "
                     "neither EXIT nor an unconditional BRA");
            }
        }
        if (!has_exit) {
            diag(Severity::Error, "no-exit", 0,
                 "program contains no EXIT");
        }
        return cfg_safe;
    }

    // ---- pass 2: dataflow over the CFG ----------------------------------

    /** Abstract transfer of one instruction. @p emit enables
     *  diagnostics (the final walk); the fixpoint sweeps pass false. */
    void
    transfer(const Instr &in, std::uint32_t pc, AbsState &st, bool emit)
    {
        // &req first: issue waits for the counters to read zero before
        // the instruction's own &wr increments anything.
        for (unsigned k = 0; k < numScoreboards; ++k) {
            if (!(in.reqSbMask & (1u << k)))
                continue;
            if (emit) {
                if (!(st.sbMayWritten & (1u << k))) {
                    diag(Severity::Warning, "sb-wait-never-written", pc,
                         "&req=sb" + std::to_string(k) + " but no &wr=sb" +
                             std::to_string(k) +
                             " reaches on any path — the wait is a no-op");
                } else if (st.sbMayNever & (1u << k)) {
                    diag(Severity::Note, "sb-wait-partial", pc,
                         "&req=sb" + std::to_string(k) + " but &wr=sb" +
                             std::to_string(k) +
                             " reaches on some paths only");
                }
            }
            st.sbPending[k].clear();
        }

        if (in.wrSb != sbNone) {
            const unsigned k = in.wrSb;
            if (emit) {
                for (std::uint32_t other : st.sbPending[k]) {
                    if (other == pc)
                        continue;
                    diag(Severity::Warning, "sb-rewrite-in-flight", pc,
                         "&wr=sb" + std::to_string(k) +
                             " while the write from " +
                             pcRef(prog_, other) +
                             " may still be in flight with no "
                             "intervening &req — two producers alias one "
                             "counter");
                    break;
                }
            }
            st.sbPending[k].insert(pc);
            st.sbMayWritten |= 1u << k;
            st.sbMayNever &= ~(1u << k);
        }

        if (in.op == Opcode::BSSY) {
            const unsigned b = in.bar;
            if (emit) {
                bool rearmed_other = false;
                for (std::uint32_t other : st.barArmed[b]) {
                    if (other == pc)
                        continue;
                    diag(Severity::Error, "bar-rearm-live", pc,
                         "BSSY B" + std::to_string(b) +
                             " while the region opened at " +
                             pcRef(prog_, other) +
                             " may still be live — the two masks merge "
                             "into one bogus barrier");
                    flaggedPairs_.insert(pcPair(pc, other));
                    rearmed_other = true;
                    break;
                }
                if (!rearmed_other && st.barArmed[b].count(pc)) {
                    diag(Severity::Warning, "bar-rearm-loop", pc,
                         "BSSY B" + std::to_string(b) +
                             " can re-execute before its BSYNC (loop "
                             "path) — lanes re-register while others may "
                             "be blocked");
                }
            }
            st.barArmed[b].insert(pc);
            st.barMayUnarmed &= ~(1u << b);
        } else if (in.op == Opcode::BSYNC) {
            const unsigned b = in.bar;
            if (emit) {
                if (st.barArmed[b].empty()) {
                    diag(Severity::Warning, "bsync-before-bssy", pc,
                         "BSYNC B" + std::to_string(b) +
                             " with no reaching BSSY on any path — the "
                             "barrier is empty and the sync is a no-op");
                } else if (st.barMayUnarmed & (1u << b)) {
                    diag(Severity::Warning, "bsync-partial", pc,
                         "lanes can reach BSYNC B" + std::to_string(b) +
                             " without passing its BSSY — they slip "
                             "through unsynchronized");
                }
            }
            st.barArmed[b].clear();
            st.barMayUnarmed |= 1u << b;
        }
    }

    static std::pair<std::uint32_t, std::uint32_t>
    pcPair(std::uint32_t a, std::uint32_t b)
    {
        return {std::min(a, b), std::max(a, b)};
    }

    void
    dataflow(const Cfg &cfg)
    {
        AbsState entry(numScoreboards, numBarriers);
        entry.reachable = true;
        entry.sbMayNever = (1u << numScoreboards) - 1u;
        entry.barMayUnarmed = (1u << numBarriers) - 1u;

        std::vector<AbsState> in(
            cfg.numBlocks(),
            AbsState(numScoreboards, numBarriers));
        in[0] = entry;

        bool changed = true;
        while (changed) {
            changed = false;
            for (std::uint32_t id : cfg.rpo()) {
                if (!in[id].reachable)
                    continue;
                AbsState out = in[id];
                const CfgBlock &b = cfg.block(id);
                for (std::uint32_t pc = b.first; pc < b.end; ++pc)
                    transfer(prog_.at(pc), pc, out, false);
                for (std::uint32_t s : b.succs)
                    changed |= in[s].join(out);
            }
        }

        // Final walk: re-run the transfer from each converged IN state,
        // now emitting diagnostics (blocks in pc order for stable
        // output).
        for (std::uint32_t id = 0; id < cfg.numBlocks(); ++id) {
            if (!in[id].reachable)
                continue;
            AbsState st = in[id];
            const CfgBlock &b = cfg.block(id);
            for (std::uint32_t pc = b.first; pc < b.end; ++pc)
                transfer(prog_.at(pc), pc, st, true);
        }
    }

    // ---- pass 3: structural barrier / CFG checks ------------------------

    void
    structural(const Cfg &cfg)
    {
        const std::vector<std::uint32_t> idom = cfg.immediateDominators();

        // Collect the static BSSY/BSYNC sites per barrier register.
        std::vector<std::vector<std::uint32_t>> bssys(numBarriers);
        std::vector<std::vector<std::uint32_t>> bsyncs(numBarriers);
        for (std::uint32_t pc = 0; pc < prog_.size(); ++pc) {
            const Instr &in = prog_.at(pc);
            if (in.op == Opcode::BSSY)
                bssys[in.bar].push_back(pc);
            else if (in.op == Opcode::BSYNC)
                bsyncs[in.bar].push_back(pc);
        }

        for (unsigned b = 0; b < numBarriers; ++b) {
            // Convergence-point hygiene and region closure per BSSY.
            for (std::uint32_t pc : bssys[b]) {
                const Instr &target = prog_.at(prog_.at(pc).target);
                if (target.op != Opcode::BSYNC || target.bar != b) {
                    diag(Severity::Warning, "bssy-target-not-bsync", pc,
                         "BSSY B" + std::to_string(b) +
                             " names a convergence point (" +
                             pcRef(prog_, prog_.at(pc).target) +
                             ") that is not BSYNC B" + std::to_string(b));
                }
                bool closes = false;
                for (std::uint32_t s : bsyncs[b])
                    closes |= cfg.reaches(pc, s);
                if (!closes) {
                    diag(Severity::Error, "bar-no-sync", pc,
                         "no BSYNC B" + std::to_string(b) +
                             " is reachable from this BSSY — the region "
                             "never closes and any other subwarp's "
                             "BSYNC B" + std::to_string(b) +
                             " waits on it forever");
                }
            }

            // Reuse of one barrier register by several static BSSYs.
            // Safe-ish only when all lanes provably serialize through a
            // closing BSYNC between the two regions (dominator chain
            // BSSY1 -> BSYNC -> BSSY2). Anything else — notably sibling
            // regions on mutually exclusive divergent arms, the exact
            // bug class PR 2's oracle caught dynamically — can be
            // occupied by two subwarps of one warp concurrently, which
            // merges their masks.
            auto sequential = [&](std::uint32_t p, std::uint32_t q) {
                for (std::uint32_t s : bsyncs[b]) {
                    if (cfg.dominates(p, s, idom) &&
                        cfg.dominates(s, q, idom) && s != q) {
                        return true;
                    }
                }
                return false;
            };
            for (std::size_t i = 0; i < bssys[b].size(); ++i) {
                for (std::size_t j = i + 1; j < bssys[b].size(); ++j) {
                    const std::uint32_t p = bssys[b][i];
                    const std::uint32_t q = bssys[b][j];
                    if (flaggedPairs_.count(pcPair(p, q)))
                        continue; // dataflow already flagged the overlap
                    if (sequential(p, q) || sequential(q, p)) {
                        diag(Severity::Warning, "bar-reuse-sequential", q,
                             "barrier register B" + std::to_string(b) +
                                 " reused after the region from " +
                                 pcRef(prog_, p) +
                                 " closes — safe only while no subwarp "
                                 "roams ahead unsynchronized");
                    } else {
                        diag(Severity::Error, "bar-reuse-sibling", q,
                             "barrier register B" + std::to_string(b) +
                                 " also armed at " + pcRef(prog_, p) +
                                 " on an unordered or mutually exclusive "
                                 "path; two subwarps can occupy both "
                                 "regions concurrently and merge masks");
                    }
                }
            }
        }

        // Branch into a BSSY's shadow: a jump that lands between a BSSY
        // and the divergent branch it shields, from code the BSSY does
        // not dominate, enters the armed region without registering.
        for (std::uint32_t pc = 0; pc < prog_.size(); ++pc) {
            if (prog_.at(pc).op != Opcode::BSSY)
                continue;
            std::uint32_t shadow_end = pc + 1;
            while (shadow_end < prog_.size() &&
                   !prog_.at(shadow_end).isControl() &&
                   prog_.at(shadow_end).op != Opcode::BSSY) {
                ++shadow_end;
            }
            if (shadow_end >= prog_.size())
                continue;
            for (std::uint32_t j = 0; j < prog_.size(); ++j) {
                const Instr &br = prog_.at(j);
                if (br.op != Opcode::BRA)
                    continue;
                if (br.target > pc && br.target <= shadow_end &&
                    !cfg.dominates(pc, j, idom)) {
                    diag(Severity::Warning, "branch-into-bssy-shadow", j,
                         "branch target lands between the BSSY at " +
                             pcRef(prog_, pc) +
                             " and its divergent branch; entering lanes "
                             "skip barrier registration");
                }
            }
        }

        // Unreachable code and inescapable loops.
        for (std::uint32_t id = 0; id < cfg.numBlocks(); ++id) {
            if (!cfg.reachable(id)) {
                diag(Severity::Warning, "unreachable-code",
                     cfg.block(id).first, "instruction is unreachable");
            }
        }
        const std::vector<bool> exits = cfg.canReachExit(prog_);
        for (std::uint32_t id = 0; id < cfg.numBlocks(); ++id) {
            if (cfg.reachable(id) && !exits[id]) {
                diag(Severity::Error, "no-exit-path",
                     cfg.block(id).first,
                     "control reaching here can never reach an EXIT — "
                     "lanes trapped in this loop deadlock every barrier "
                     "waiting on them");
            }
        }
    }

    // ---- pass 4: subwarp memory-order hazards (verify/memdep) -----------
    //
    // A may-aliasing store/load or store/store pair on subwarp-concurrent
    // paths (sibling divergent arms, or distinct iterations of a
    // divergent loop) with no BSYNC ordering the two accesses: the
    // observed memory state depends on the subwarp schedule. Warning
    // severity — the baseline lockstep schedule executes such programs
    // deterministically, but any interleaving schedule (the paper's
    // feature) legally reorders them; silint --Werror promotes it.

    void
    memdepPass()
    {
        const MemDepResult dep = analyzeMemDep(prog_);
        for (const MayRacePair &p : dep.pairs) {
            const char *opA = opcodeName(prog_.at(p.pcA).op);
            const char *opB = opcodeName(prog_.at(p.pcB).op);
            std::string msg;
            if (p.pcA == p.pcB) {
                msg = std::string(opA) +
                      " may store to the same address on different "
                      "iterations of a divergent loop with no BSYNC "
                      "between them — the final value depends on subwarp "
                      "schedule";
            } else {
                msg = std::string(opB) + " and the " + opA + " at " +
                      pcRef(prog_, p.pcA) +
                      " may touch the same address from " +
                      (p.loopCarried
                           ? "different iterations of a divergent loop"
                           : "sibling divergent arms") +
                      " with no BSYNC ordering them — the " +
                      (p.storeStore ? "final value" : "observed value") +
                      " depends on subwarp schedule";
            }
            diag(Severity::Warning, "si-order-dependent", p.pcB,
                 std::move(msg));
        }
    }

    void
    finish()
    {
        const Cfg cfg = Cfg::build(prog_);
        dataflow(cfg);
        structural(cfg);
        memdepPass();
    }

    const Program &prog_;
    const VerifyOptions &opts_;
    VerifyReport report_;
    std::set<std::pair<std::uint32_t, std::uint32_t>> flaggedPairs_;
};

} // namespace

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
      case Severity::Note: return "note";
    }
    return "?";
}

unsigned
VerifyReport::errors() const
{
    unsigned n = 0;
    for (const VerifyDiag &d : diags)
        n += d.severity == Severity::Error ? 1 : 0;
    return n;
}

unsigned
VerifyReport::warnings() const
{
    unsigned n = 0;
    for (const VerifyDiag &d : diags)
        n += d.severity == Severity::Warning ? 1 : 0;
    return n;
}

unsigned
VerifyReport::notes() const
{
    unsigned n = 0;
    for (const VerifyDiag &d : diags)
        n += d.severity == Severity::Note ? 1 : 0;
    return n;
}

bool
VerifyReport::has(const char *code) const
{
    for (const VerifyDiag &d : diags) {
        if (std::string(d.code) == code)
            return true;
    }
    return false;
}

std::string
VerifyReport::render(const Program *program,
                     const std::string &filename) const
{
    std::string file = filename;
    if (file.empty())
        file = program ? program->name() : "<program>";

    std::vector<VerifyDiag> sorted = diags;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const VerifyDiag &a, const VerifyDiag &b) {
                         if (a.pc != b.pc)
                             return a.pc < b.pc;
                         return a.severity < b.severity;
                     });

    std::string out;
    for (const VerifyDiag &d : sorted) {
        const std::uint32_t line =
            program ? program->sourceLine(d.pc) : 0;
        out += file + ":";
        out += line != 0 ? std::to_string(line)
                         : "pc " + std::to_string(d.pc);
        out += ": ";
        out += severityName(d.severity);
        out += ": " + d.message + " [" + d.code + "]\n";
    }
    return out;
}

VerifyReport
verifyProgram(const Program &program, const VerifyOptions &opts)
{
    return Verifier(program, opts).run();
}

} // namespace si
