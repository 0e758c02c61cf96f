/**
 * @file
 * difftest — differential-testing oracle for the cycle-level model.
 *
 * Generates seeded random divergent kernels, executes each through the
 * functional reference interpreter AND the cycle model in every matrix
 * configuration (SI on/off x {2,4,8} warp slots), and fails on any
 * architectural divergence: final memory, registers, predicates, or
 * per-lane retirement traces.
 *
 *   difftest [options]     (difftest --help lists every option)
 *
 * Optional oracles ride along: the static verifier (--verify), the
 * race sanitizer against the static may-race set (--race) and
 * checkpoint replay (--snapshot). --inject corrupts every cycle-model
 * run instead, to prove the oracle notices.
 *
 * Exit status: 0 = all seeds agree (or, with --inject, every fired fault
 * was detected); 1 = a divergence (or an undetected injected fault, or a
 * --verify finding), or bad usage.
 */

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>

#include "common/cli.hh"
#include "parallel/executor.hh"
#include "ref/difftest.hh"
#include "snapshot/replay.hh"
#include "verify/verifier.hh"

namespace {

/** printf into a per-seed output buffer (emitted later in seed order). */
void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n > 0) {
        std::string buf(std::size_t(n) + 1, '\0');
        std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
        buf.resize(std::size_t(n));
        out += buf;
    }
    va_end(ap2);
}

/** Everything one seed produces, merged deterministically afterwards. */
struct SeedReport
{
    unsigned failures = 0;
    unsigned fired = 0;
    unsigned escaped_ok = 0;
    unsigned lint_rejected = 0;
    unsigned blessed_diverged = 0;
    unsigned snap_checked = 0;
    unsigned snap_checkpointed = 0;
    unsigned snap_diverged = 0;
    unsigned race_clean_flagged = 0;   ///< clean kernel flagged/racing
    unsigned race_witness_missed = 0;  ///< witness not flagged or silent
    unsigned race_unsound = 0;         ///< dynamic race outside static set
    std::string out; ///< buffered stdout text

    /** Add @p sr's counters to these (its text is printed, not kept). */
    void
    add(const SeedReport &sr)
    {
        failures += sr.failures;
        fired += sr.fired;
        escaped_ok += sr.escaped_ok;
        lint_rejected += sr.lint_rejected;
        blessed_diverged += sr.blessed_diverged;
        snap_checked += sr.snap_checked;
        snap_checkpointed += sr.snap_checkpointed;
        snap_diverged += sr.snap_diverged;
        race_clean_flagged += sr.race_clean_flagged;
        race_witness_missed += sr.race_witness_missed;
        race_unsound += sr.race_unsound;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t num_seeds = 64;
    std::uint64_t first_seed = 1;
    bool shrink = false;
    bool verify = false;
    bool race = false;
    bool snapshot = false;
    bool dump = false;
    bool verbose = false;
    unsigned jobs = 1;
    std::optional<si::FaultKind> inject;
    si::DiffOptions opts;

    si::cli::Parser cli("difftest", "[options]");
    cli.number("--seeds", num_seeds,
               "number of consecutive seeds to test, 1..1000000 (default "
               "64)",
               1, 1000000)
        .number("--seed", first_seed,
                "first seed (default 1); with --seeds 1 tests just N")
        .flag("--shrink", shrink,
              "on failure, greedily shrink the failing kernel")
        .choice("--inject", inject, si::faultKindCliNames(),
                "inject that fault into every cycle-model run. Barrier-mask "
                "corruption is architectural, so every fired fault must "
                "make the oracle disagree (exit 1 on any escape); "
                "scoreboard faults only perturb timing, so those modes "
                "only require that at least one fault is detected")
        .flag("--verify", verify,
              "also run the static verifier over every generated kernel: "
              "fail on any error or warning, and on a verifier-blessed "
              "kernel that diverges dynamically")
        .flag("--race", race,
              "SI-hazard soundness mode: run every seed with the race "
              "sanitizer and check it against the static may-race set. A "
              "clean kernel must show no static pair and no dynamic race; "
              "the same seed with the racy-witness diamond must be caught "
              "by both; every dynamic race must lie in the static set")
        .flag("--snapshot", snapshot,
              "also check the determinism contract: each kernel runs "
              "fresh, fresh with a mid-run checkpoint, and restored from "
              "it, on a baseline and an SI point; any divergence fails "
              "the seed")
        .fastForward(opts.fastForward)
        .flag("--dump", dump, "print each generated kernel before testing")
        .jobs(jobs)
        .flag("-v", verbose, "per-seed progress output");
    if (const std::optional<int> status = cli.parse(argc, argv))
        return *status;
    opts.inject = inject.has_value();
    opts.injectKind = inject.value_or(opts.injectKind);

    if (verify && opts.inject) {
        // Injected faults corrupt live machine state the static pass
        // cannot see; combining the modes only muddles the accounting.
        std::fprintf(stderr,
                     "difftest: --verify and --inject are exclusive\n");
        return 1;
    }
    if (snapshot && opts.inject) {
        // The injector fires once per injector, not once per leg, so an
        // injected run is non-deterministic across legs by construction.
        std::fprintf(stderr,
                     "difftest: --snapshot and --inject are exclusive\n");
        return 1;
    }
    if (race && opts.inject) {
        // Injected faults corrupt live machine state; races observed on
        // a corrupted machine prove nothing about the static pass.
        std::fprintf(stderr,
                     "difftest: --race and --inject are exclusive\n");
        return 1;
    }

    // The determinism contract is checked on one baseline and one SI
    // point of the matrix; the full matrix would triple an already
    // three-legged run for little extra coverage.
    std::vector<si::DiffPoint> snap_points;
    if (snapshot) {
        for (const si::DiffPoint &pt : si::diffMatrix()) {
            if (pt.name == "base-slots4" || pt.name == "si-slots4")
                snap_points.push_back(pt);
        }
    }
    // Seeds are independent cells: each one's counters and stdout text
    // are accumulated in a SeedReport and merged in seed order by the
    // in-order sink, so output and exit status are byte-identical at
    // any --jobs value.
    SeedReport total;
    si::parallel::mapIndexed<SeedReport>(
        jobs, std::size_t(num_seeds),
        [&](std::size_t idx) {
            const std::uint64_t s = first_seed + idx;
            SeedReport sr;
            const si::Program prog = si::generateKernel(s);
            if (dump) {
                appendf(sr.out, "---- seed %llu ----\n%s",
                        (unsigned long long)s,
                        prog.sourceText().c_str());
            }

            bool blessed = true;
            if (verify) {
                const si::VerifyReport rep = si::verifyProgram(prog);
                if (!rep.spotless()) {
                    // The generator promises spotless output; anything
                    // at error or warning severity is a bug on one side.
                    blessed = rep.clean();
                    ++sr.lint_rejected;
                    ++sr.failures;
                    appendf(sr.out,
                            "seed %llu: static verifier flagged the "
                            "generated kernel:\n%s%s",
                            (unsigned long long)s,
                            rep.render(&prog).c_str(),
                            prog.sourceText().c_str());
                }
            }

            bool race_bad = false;
            if (race) {
                // Negative control: a clean generated kernel honors the
                // soundness contract, so the static pass must diagnose
                // nothing and the sanitizer must stay silent.
                const si::RaceCheckResult rc =
                    si::raceCheckProgram(prog, opts);
                if (!rc.runError.empty() || rc.staticPairs != 0 ||
                    !rc.dynamicRaces.empty()) {
                    race_bad = true;
                    ++sr.race_clean_flagged;
                    appendf(sr.out,
                            "seed %llu: clean kernel not race-free: "
                            "%zu static pairs, %zu dynamic races%s%s\n",
                            (unsigned long long)s, rc.staticPairs,
                            rc.dynamicRaces.size(),
                            rc.runError.empty() ? "" : ", run failed: ",
                            rc.runError.c_str());
                    for (const si::RaceReport &rr : rc.dynamicRaces) {
                        appendf(sr.out,
                                "  race: pc %u vs pc %u (%s, warp %u, "
                                "lanes %u/%u)\n",
                                rr.pcA, rr.pcB,
                                rr.storeStore ? "store/store"
                                              : "store/load",
                                rr.warpId, rr.laneA, rr.laneB);
                    }
                }
                if (!rc.sound()) {
                    race_bad = true;
                    ++sr.race_unsound;
                }

                // Positive control: the same seed with the racy-witness
                // diamond appended must be flagged on both sides and
                // stay inside the static may-race set.
                si::KernelGenOptions gen;
                gen.racyWitness = true;
                const si::RaceCheckResult wc = si::raceCheckProgram(
                    si::generateKernel(s, gen), opts);
                if (!wc.runError.empty() || wc.staticPairs == 0 ||
                    wc.dynamicRaces.empty()) {
                    race_bad = true;
                    ++sr.race_witness_missed;
                    appendf(sr.out,
                            "seed %llu: racy witness missed: "
                            "%zu static pairs, %zu dynamic races%s%s\n",
                            (unsigned long long)s, wc.staticPairs,
                            wc.dynamicRaces.size(),
                            wc.runError.empty() ? "" : ", run failed: ",
                            wc.runError.c_str());
                }
                if (!wc.sound()) {
                    race_bad = true;
                    ++sr.race_unsound;
                    for (const si::RaceReport &rr : wc.unsound) {
                        appendf(sr.out,
                                "seed %llu: UNSOUND dynamic race outside "
                                "the static may-race set: pc %u vs pc %u "
                                "(warp %u, lanes %u/%u)\n",
                                (unsigned long long)s, rr.pcA, rr.pcB,
                                rr.warpId, rr.laneA, rr.laneB);
                    }
                }
            }

            const si::DiffResult r = si::diffProgram(prog, opts);
            if (verify && blessed && !r.agree && !opts.inject) {
                // The static/dynamic cross-check proper: a kernel the
                // verifier blessed must run divergence-free.
                ++sr.blessed_diverged;
                appendf(sr.out,
                        "seed %llu: verifier-blessed kernel diverged "
                        "dynamically\n",
                        (unsigned long long)s);
            }

            bool snap_bad = false;
            for (const si::DiffPoint &pt : snap_points) {
                si::ReplayCheckOptions ropts;
                ropts.initMemory = [&opts](si::Memory &m) {
                    m = si::makeInputImage(opts.imageSeed);
                };
                const std::vector<si::KernelLaunch> kernels = {
                    {&prog, {opts.numWarps, opts.warpsPerCta}}};
                si::GpuConfig snap_cfg = pt.config;
                snap_cfg.fastForward = opts.fastForward;
                const si::ReplayCheckResult rep =
                    si::validateDeterministicReplay(snap_cfg, kernels,
                                                    ropts);
                ++sr.snap_checked;
                sr.snap_checkpointed += rep.checkpointTaken ? 1 : 0;
                if (!rep.ok()) {
                    snap_bad = true;
                    ++sr.snap_diverged;
                    appendf(sr.out,
                            "seed %llu: replay NOT deterministic at %s "
                            "(checkpoint @%llu of %llu cycles)\n"
                            "  detail: %s\n",
                            (unsigned long long)s, pt.name.c_str(),
                            (unsigned long long)rep.checkpointCycle,
                            (unsigned long long)rep.cycles,
                            rep.detail.c_str());
                } else if (verbose) {
                    appendf(sr.out,
                            "seed %llu: replay deterministic at %s "
                            "(checkpoint @%llu of %llu cycles)\n",
                            (unsigned long long)s, pt.name.c_str(),
                            (unsigned long long)rep.checkpointCycle,
                            (unsigned long long)rep.cycles);
                }
            }

            bool bad;
            if (opts.inject) {
                // A fired fault that still agrees escaped the oracle;
                // an unfired fault (kernel never reached an injectable
                // state) proves nothing. Escapes only fail the run for
                // the architectural fault kind (see header comment).
                if (r.faultFired())
                    ++sr.fired;
                bad = r.faultFired() && r.agree &&
                      opts.injectKind ==
                          si::FaultKind::BarrierMaskCorruption;
                if (r.faultFired() && r.agree && !bad)
                    ++sr.escaped_ok;
            } else {
                bad = !r.agree;
            }
            bad = bad || snap_bad || race_bad;

            if (verbose || bad) {
                appendf(sr.out, "seed %llu: %s%s\n",
                        (unsigned long long)s,
                        r.agree ? "agree" : "DIVERGED",
                        r.faultFired() ? " [fault fired]" : "");
                if (!r.agree) {
                    appendf(sr.out, "  point:  %s\n  detail: %s\n",
                            r.point.c_str(), r.detail.c_str());
                }
                if (r.faultFired())
                    appendf(sr.out, "  fault:  %s\n", r.fault.c_str());
            }
            if (!bad)
                return sr;
            ++sr.failures;

            if (opts.inject) {
                appendf(sr.out,
                        "seed %llu: injected fault FIRED but the oracle "
                        "still agrees — detection gap\n",
                        (unsigned long long)s);
            }
            appendf(sr.out, "%s", prog.sourceText().c_str());

            if (shrink && !opts.inject && !r.agree) {
                const si::DiffOptions sopts = opts;
                const si::Program small = si::shrinkProgram(
                    prog, [&](const si::Program &p) {
                        return !si::diffProgram(p, sopts).agree;
                    });
                appendf(sr.out, "shrunk to %u instructions:\n%s",
                        small.size(), small.sourceText().c_str());
            }
            return sr;
        },
        [&](std::size_t, const SeedReport &sr) {
            std::fwrite(sr.out.data(), 1, sr.out.size(), stdout);
            total.add(sr);
        });

    if (opts.inject) {
        const unsigned detected =
            total.fired - total.escaped_ok - total.failures;
        std::printf("difftest: %llu seeds, %u faults fired, %u detected, "
                    "%u architecturally silent, %u escaped detection\n",
                    (unsigned long long)num_seeds, total.fired, detected,
                    total.escaped_ok, total.failures);
        if (total.fired == 0) {
            std::printf("difftest: no injected fault ever fired — "
                        "treating as failure\n");
            return 1;
        }
        if (detected == 0) {
            std::printf("difftest: no injected fault was ever detected — "
                        "treating as failure\n");
            return 1;
        }
    } else {
        std::printf("difftest: %llu seeds, %u divergences\n",
                    (unsigned long long)num_seeds,
                    total.failures - total.lint_rejected);
    }
    if (verify) {
        std::printf("difftest: verifier rejected %u kernels, "
                    "%u blessed kernels diverged dynamically\n",
                    total.lint_rejected, total.blessed_diverged);
    }
    if (race) {
        std::printf("difftest: race oracle: %u clean kernels flagged, "
                    "%u racy witnesses missed, %u unsound dynamic "
                    "races\n",
                    total.race_clean_flagged, total.race_witness_missed,
                    total.race_unsound);
    }
    if (snapshot) {
        std::printf("difftest: replay oracle: %u runs, %u mid-run "
                    "checkpoints frozen, %u non-deterministic\n",
                    total.snap_checked, total.snap_checkpointed,
                    total.snap_diverged);
        if (total.snap_checkpointed == 0) {
            // Every kernel retiring before any checkpoint could freeze
            // would mean the oracle never exercised restore at all.
            std::printf("difftest: replay oracle never froze a "
                        "checkpoint — treating as failure\n");
            return 1;
        }
    }
    return total.failures == 0 ? 0 : 1;
}
