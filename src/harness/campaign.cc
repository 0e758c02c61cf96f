#include "harness/campaign.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/rng.hh"
#include "parallel/executor.hh"
#include "snapshot/snapshot.hh"

namespace si {

namespace {

/** Reverse of errorKindName(), for manifest/result parsing. */
ErrorKind
errorKindFromName(const std::string &name)
{
    for (unsigned k = 0; k <= unsigned(lastErrorKind); ++k) {
        if (name == errorKindName(ErrorKind(k)))
            return ErrorKind(k);
    }
    return ErrorKind::Internal;
}

/** Filename-safe stem from a cell identity. */
std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '.';
        out.push_back(keep ? c : '_');
    }
    return out;
}

/** Per-cell result document the child leaves for the parent. */
std::string
cellResultJson(const CampaignCellRecord &rec, const GpuResult &result,
               bool resumed)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").value("si-cell-v1");
    w.key("workload").value(rec.workload);
    w.key("config").value(rec.configLabel);
    w.key("kind").value(errorKindName(result.status.kind));
    w.key("detail").value(result.status.ok() ? ""
                                             : result.status.message);
    w.key("cycles").value(std::uint64_t(result.cycles));
    w.key("instrs").value(result.total.instrsIssued);
    w.key("warpsRetired").value(result.total.warpsRetired);
    w.key("resumed").value(resumed);
    w.endObject();
    return w.take();
}

} // namespace

ChildConfigHook
faultFirstAttempt(FaultKind kind, Cycle at)
{
    return [kind, at](GpuConfig &c, const CampaignCellRecord &rec,
                      unsigned attempt) {
        if (attempt > 1)
            return;
        // Stream-seed by the cell's stable identity, not the shared
        // base seed, so the fault site does not depend on cell order.
        Fnv1a ident;
        ident.update(rec.workload);
        ident.update(rec.configLabel);
        // The injector must outlive the child's whole run, so the hook
        // owns it.
        auto inj = std::make_shared<FaultInjector>(FaultSpec{
            kind, at, Rng::streamSeed(c.rngSeed, ident.digest())});
        c.faultHook = [inj](Gpu &gpu, Cycle now) {
            return inj->onCycle(gpu, now);
        };
        c.checkInvariants = true;
    };
}

CampaignRunner::CampaignRunner(
    std::vector<Workload> suite,
    std::vector<std::pair<std::string, GpuConfig>> configs,
    CampaignOptions options)
    : suite_(std::move(suite)),
      configs_(std::move(configs)),
      options_(std::move(options))
{
}

std::string
CampaignRunner::cellStem(const CampaignCellRecord &rec) const
{
    return sanitize(rec.workload) + "__" + sanitize(rec.configLabel);
}

std::string
CampaignRunner::checkpointPath(const CampaignCellRecord &rec) const
{
    return options_.stateDir + "/" + cellStem(rec) + ".ckpt";
}

std::string
CampaignRunner::resultPath(const CampaignCellRecord &rec) const
{
    return options_.stateDir + "/" + cellStem(rec) + ".result.json";
}

std::string
CampaignRunner::manifestJson(const CampaignReport &report)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").value("si-campaign-v1");
    w.key("complete").value(report.complete);
    w.key("done").value(report.numDone());
    w.key("failed").value(report.numFailed());
    w.key("cells").beginArray();
    for (const CampaignCellRecord &c : report.cells) {
        w.beginObject();
        w.key("workload").value(c.workload);
        w.key("config").value(c.configLabel);
        w.key("state").value(c.state);
        w.key("attempts").value(c.attempts);
        w.key("kind").value(errorKindName(c.kind));
        w.key("detail").value(c.detail);
        w.key("diagnosis").value(c.diagnosis);
        w.key("cycles").value(std::uint64_t(c.cycles));
        w.key("checkpoint").value(c.checkpoint);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

bool
CampaignRunner::parseManifest(const std::string &text, CampaignReport &out,
                              std::string &error)
{
    json::ParseResult parsed = json::parse(text);
    if (!parsed.ok) {
        error = "manifest is not valid JSON: " + parsed.error;
        return false;
    }
    const json::Value &root = parsed.value;
    const json::Value *schema = root.find("schema");
    if (!schema || !schema->isString() ||
        schema->str != "si-campaign-v1") {
        error = "manifest schema is not si-campaign-v1";
        return false;
    }
    const json::Value *complete = root.find("complete");
    const json::Value *cells = root.find("cells");
    if (!complete || !complete->isBool() || !cells ||
        !cells->isArray()) {
        error = "manifest lacks complete/cells members";
        return false;
    }
    out = CampaignReport{};
    out.complete = complete->boolean;
    for (const json::Value &cv : cells->array) {
        CampaignCellRecord rec;
        auto need = [&](const char *key) -> const json::Value * {
            const json::Value *v = cv.find(key);
            if (!v)
                error = std::string("cell lacks '") + key + "'";
            return v;
        };
        const json::Value *wl = need("workload");
        const json::Value *cfg = need("config");
        const json::Value *state = need("state");
        const json::Value *attempts = need("attempts");
        const json::Value *kind = need("kind");
        if (!wl || !cfg || !state || !attempts || !kind)
            return false;
        rec.workload = wl->str;
        rec.configLabel = cfg->str;
        rec.state = state->str;
        const std::optional<std::uint64_t> tries = json::asU64(*attempts);
        if (!tries || *tries > std::numeric_limits<unsigned>::max()) {
            error = "cell 'attempts' is not an attempt count";
            return false;
        }
        rec.attempts = unsigned(*tries);
        rec.kind = errorKindFromName(kind->str);
        if (const json::Value *v = cv.find("detail"))
            rec.detail = v->str;
        if (const json::Value *v = cv.find("diagnosis"))
            rec.diagnosis = v->str;
        if (const json::Value *v = cv.find("cycles")) {
            const std::optional<std::uint64_t> cycles = json::asU64(*v);
            if (!cycles) {
                error = "cell 'cycles' is not a cycle count";
                return false;
            }
            rec.cycles = *cycles;
        }
        if (const json::Value *v = cv.find("checkpoint"))
            rec.checkpoint = v->str;
        out.cells.push_back(std::move(rec));
    }
    return true;
}

void
CampaignRunner::writeManifest(const CampaignReport &report) const
{
    writeFileAtomic(options_.stateDir + "/campaign.json",
                    manifestJson(report));
}

/**
 * Simulate one cell attempt: config prep, checkpoint hook, resume from
 * an earlier attempt's checkpoint when one exists; then leave the result
 * file for the parent and _exit.
 */
void
CampaignRunner::childMain(const CampaignCellRecord &rec,
                          const Workload &workload, GpuConfig config)
{
    GpuResult result;
    bool resumed = false;
    try {
        if (options_.childConfigHook)
            options_.childConfigHook(config, rec, rec.attempts);

        const std::string ckpt = checkpointPath(rec);
        if (options_.checkpointEvery) {
            config.checkpointInterval = options_.checkpointEvery;
            config.checkpointHook = [ckpt](const Gpu &gpu, Cycle) {
                SnapshotWriter w;
                gpu.save(w);
                writeFileAtomic(ckpt, w.finish());
            };
        }

        // A checkpoint from an earlier attempt (or an earlier campaign
        // invocation) resumes the cell mid-run; a corrupt or mismatched
        // checkpoint falls back to a fresh run rather than failing the
        // cell on its own recovery mechanism.
        if (const std::optional<std::string> data = readWholeFile(ckpt)) {
            result = runWorkload(workload, config, &*data);
            resumed = result.status.kind != ErrorKind::Snapshot;
        }
        if (!resumed)
            result = runWorkload(workload, config);
    } catch (const std::exception &e) {
        result.status = RunStatus::failure(
            ErrorKind::Internal,
            std::string("unexpected exception: ") + e.what());
    }

    try {
        writeFileAtomic(resultPath(rec),
                        cellResultJson(rec, result, resumed));
    } catch (const std::exception &) {
        _exit(3); // parent classifies a missing result as Internal
    }
    _exit(0);
}

pid_t
CampaignRunner::launchAttempt(CampaignCellRecord &rec,
                              const Workload &workload,
                              const GpuConfig &config)
{
    ++rec.attempts;
    std::remove(resultPath(rec).c_str());

    const pid_t pid = fork();
    sim_throw_if(pid < 0, ErrorKind::Internal, "fork failed: %s",
                 std::strerror(errno));
    if (pid == 0)
        childMain(rec, workload, config); // never returns
    return pid;
}

void
CampaignRunner::classifyAttempt(CampaignCellRecord &rec, int wstatus,
                                bool timed_out) const
{
    // A child that overran is killed outright (ChildTimeout — the
    // parent's budget, distinct from the simulator's own watchdogs).
    if (timed_out) {
        rec.kind = ErrorKind::ChildTimeout;
        rec.detail = "cell exceeded its " +
                     std::to_string(options_.cellTimeoutSec) +
                     "s wall budget and was killed";
        return;
    }
    if (WIFSIGNALED(wstatus)) {
        rec.kind = ErrorKind::ChildCrash;
        rec.detail = "cell died on signal " +
                     std::to_string(WTERMSIG(wstatus));
        return;
    }
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
        rec.kind = ErrorKind::Internal;
        rec.detail = "cell exited with status " +
                     std::to_string(WEXITSTATUS(wstatus));
        return;
    }

    const std::optional<std::string> text = readWholeFile(resultPath(rec));
    if (!text) {
        rec.kind = ErrorKind::Internal;
        rec.detail = "cell exited cleanly but left no result file";
        return;
    }
    json::ParseResult parsed = json::parse(*text);
    const json::Value *kind =
        parsed.ok ? parsed.value.find("kind") : nullptr;
    const json::Value *cycles =
        parsed.ok ? parsed.value.find("cycles") : nullptr;
    const std::optional<std::uint64_t> n_cycles =
        cycles ? json::asU64(*cycles) : std::uint64_t(0);
    if (!kind || !kind->isString() || !n_cycles) {
        rec.kind = ErrorKind::Internal;
        rec.detail = "cell result file is malformed";
        return;
    }
    rec.kind = errorKindFromName(kind->str);
    rec.detail = "";
    if (const json::Value *v = parsed.value.find("detail"))
        rec.detail = v->str;
    rec.cycles = *n_cycles;
}

bool
CampaignRunner::settleAttempt(CampaignCellRecord &rec) const
{
    if (rec.kind == ErrorKind::None) {
        rec.state = "done";
        rec.diagnosis = "";
        if (std::filesystem::exists(checkpointPath(rec)))
            rec.checkpoint = checkpointPath(rec);
        return true;
    }
    const bool transient =
        errorKindIsTransient(rec.kind, options_.faultInjectionActive);
    if (!transient || rec.attempts > options_.maxRetries) {
        rec.state = "failed";
        rec.diagnosis = errorDetectorName(rec.kind);
        if (std::filesystem::exists(checkpointPath(rec)))
            rec.checkpoint = checkpointPath(rec);
        std::fprintf(stderr,
                     "warn: campaign cell %s/%s failed permanently after "
                     "%u attempt(s): %s [%s]%s%s\n",
                     rec.workload.c_str(), rec.configLabel.c_str(),
                     rec.attempts, rec.detail.c_str(),
                     rec.diagnosis.c_str(),
                     rec.checkpoint.empty() ? "" : "; last checkpoint: ",
                     rec.checkpoint.c_str());
        return true;
    }
    // A timeout or crash kill leaves a healthy machine's checkpoint
    // worth resuming. A detector trip (livelock, invariant violation,
    // ...) means the machine state itself went bad, and
    // auto-checkpoints from that attempt may have captured the
    // corruption — drop them so the retry starts clean instead of
    // resuming straight back into the failure.
    if (rec.kind != ErrorKind::ChildTimeout &&
        rec.kind != ErrorKind::ChildCrash) {
        std::error_code ec;
        std::filesystem::remove(checkpointPath(rec), ec);
    }
    return false;
}

CampaignReport
CampaignRunner::run()
{
    std::error_code ec;
    std::filesystem::create_directories(options_.stateDir, ec);
    sim_throw_if(ec.value() != 0, ErrorKind::Config,
                 "cannot create campaign state directory '%s': %s",
                 options_.stateDir.c_str(), ec.message().c_str());

    CampaignReport report;
    report.manifestPath = options_.stateDir + "/campaign.json";
    for (const Workload &wl : suite_) {
        for (const auto &[label, config] : configs_) {
            (void)config;
            CampaignCellRecord rec;
            rec.workload = wl.name;
            rec.configLabel = label;
            report.cells.push_back(std::move(rec));
        }
    }

    // A fresh (non-resuming) campaign must not inherit checkpoints or
    // results a previous campaign left in the same state directory.
    if (!options_.resume) {
        for (const CampaignCellRecord &rec : report.cells) {
            std::error_code ec;
            std::filesystem::remove(checkpointPath(rec), ec);
            std::filesystem::remove(resultPath(rec), ec);
        }
    }

    // Resume: adopt the terminal cells of a previous invocation; cells
    // left pending (including a cell the previous parent died inside)
    // re-run, picking up their last auto-checkpoint if one exists.
    if (options_.resume) {
        const std::optional<std::string> text =
            readWholeFile(report.manifestPath);
        std::string error;
        CampaignReport prior;
        if (text && parseManifest(*text, prior, error)) {
            for (CampaignCellRecord &rec : report.cells) {
                for (const CampaignCellRecord &old : prior.cells) {
                    if (old.workload == rec.workload &&
                        old.configLabel == rec.configLabel &&
                        (old.done() || old.failed())) {
                        rec = old;
                        break;
                    }
                }
            }
        } else if (text && !text->empty()) {
            std::fprintf(stderr,
                         "warn: campaign resume: ignoring unusable "
                         "manifest (%s)\n",
                         error.c_str());
        }
    }
    writeManifest(report);

    // Resolve the pending cells into an execution list up front.
    using clock = std::chrono::steady_clock;
    struct PendingCell
    {
        std::size_t index; ///< into report.cells
        const Workload *workload;
        const GpuConfig *config;
        CampaignCellRecord rec;       ///< committed once terminal
        pid_t pid = 0;                ///< the running attempt's child
        clock::time_point deadline{}; ///< of the running attempt
    };
    std::vector<PendingCell> todo;
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        CampaignCellRecord &rec = report.cells[i];
        if (rec.done() || rec.failed())
            continue;
        if (options_.maxCellsThisRun &&
            todo.size() >= options_.maxCellsThisRun)
            break;

        const Workload *workload = nullptr;
        for (const Workload &wl : suite_) {
            if (wl.name == rec.workload) {
                workload = &wl;
                break;
            }
        }
        const GpuConfig *config = nullptr;
        for (const auto &[label, cfg] : configs_) {
            if (label == rec.configLabel) {
                config = &cfg;
                break;
            }
        }
        sim_throw_if(!workload || !config, ErrorKind::Internal,
                     "campaign cell '%s'/'%s' lost its definition",
                     rec.workload.c_str(), rec.configLabel.c_str());
        todo.push_back({i, workload, config, rec});
    }

    // The parent loop, single-threaded: keep up to `jobs` children
    // running, each under a deadline that starts at its own fork, and
    // settle each one as it exits. A retry goes back to the front of
    // the queue, so jobs = 1 runs attempts in the serial order. Every
    // commit writes the record at its cell index, so the final manifest
    // is byte-identical at any jobs value (intermediate ones differ in
    // completion order only). No thread is alive here — bench::Grid
    // joins its build workers before it returns — so a child never
    // inherits a lock.
    const unsigned jobs = parallel::resolveJobs(options_.jobs);
    const bool bounded = options_.cellTimeoutSec > 0;
    const auto seconds = [](double s) {
        return std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(s));
    };
    std::deque<PendingCell *> queue;
    for (PendingCell &cell : todo)
        queue.push_back(&cell);
    std::vector<PendingCell *> running;

    // Should the loop unwind (a failed fork, waitpid or manifest
    // write), no child outlives it.
    struct KillOnUnwind
    {
        std::vector<PendingCell *> &children;
        ~KillOnUnwind()
        {
            for (const PendingCell *c : children) {
                kill(c->pid, SIGKILL);
                waitpid(c->pid, nullptr, 0);
            }
        }
    } kill_on_unwind{running};

    while (true) {
        while (running.size() < jobs && !queue.empty()) {
            PendingCell *cell = queue.front();
            queue.pop_front();
            cell->pid = launchAttempt(cell->rec, *cell->workload,
                                      *cell->config);
            cell->deadline =
                clock::now() + seconds(options_.cellTimeoutSec);
            running.push_back(cell);
        }
        if (running.empty() && queue.empty())
            break;

        // Poll: no portable call waits for one of several given pids
        // with a timeout.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

        for (std::size_t i = 0; i < running.size();) {
            PendingCell *cell = running[i];
            // Reap this child by its own pid: waitpid(-1) could reap a
            // child the embedding process started.
            int wstatus = 0;
            const pid_t r = waitpid(cell->pid, &wstatus, WNOHANG);
            sim_throw_if(r < 0, ErrorKind::Internal, "waitpid failed: %s",
                         std::strerror(errno));
            const bool timed_out =
                r == 0 && bounded && clock::now() >= cell->deadline;
            if (r == 0 && !timed_out) {
                ++i;
                continue;
            }
            if (timed_out) {
                kill(cell->pid, SIGKILL);
                waitpid(cell->pid, &wstatus, 0);
            }
            running.erase(running.begin() + std::ptrdiff_t(i));

            classifyAttempt(cell->rec, wstatus, timed_out);
            if (settleAttempt(cell->rec)) {
                report.cells[cell->index] = cell->rec;
                ++report.cellsRun;
                writeManifest(report);
            } else {
                queue.push_front(cell);
            }
        }
    }

    report.complete = true;
    for (const CampaignCellRecord &rec : report.cells) {
        if (!rec.done() && !rec.failed()) {
            report.complete = false;
            break;
        }
    }
    writeManifest(report);
    return report;
}

} // namespace si
