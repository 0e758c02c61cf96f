/**
 * @file
 * Deterministic parallel execution engine.
 *
 * Two layers:
 *
 *  - ThreadPool: a small work-stealing thread pool. Each worker owns a
 *    deque; owners pop newest-first (cache-warm), idle workers steal
 *    oldest-first from their siblings. Nothing about the pool is
 *    deterministic — it only promises that every submitted task runs
 *    exactly once.
 *
 *  - mapIndexed(): the determinism contract on top. N independent cells
 *    are executed by up to `jobs` workers in whatever order the pool
 *    reaches them, but results are collected into an index-keyed vector
 *    and an optional `in_order` callback fires for cell 0, 1, 2, ... in
 *    strict index order regardless of completion order. A sweep whose
 *    cells are pure functions of their index therefore produces
 *    byte-identical tables, stats, and logs at any --jobs value.
 *
 * Fault isolation: a cell that throws does not poison its siblings.
 * Every cell runs to completion (or failure); the lowest-index
 * exception — a deterministic choice — is rethrown from mapIndexed()
 * after the whole batch has finished.
 *
 * jobs == 1 never starts a thread: cells run inline on the caller, in
 * index order, which keeps the serial path fork-safe and bit-identical
 * to the pre-parallel code by construction.
 */

#ifndef SI_PARALLEL_EXECUTOR_HH
#define SI_PARALLEL_EXECUTOR_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace si::parallel {

/** Hardware concurrency, clamped to at least 1. */
unsigned defaultJobs();

/**
 * Resolve a --jobs argument: 0 means "all cores" (defaultJobs()),
 * anything else passes through.
 */
unsigned resolveJobs(unsigned jobs);

/** Work-stealing thread pool. */
class ThreadPool
{
  public:
    /** Start @p jobs workers (clamped to >= 1). */
    explicit ThreadPool(unsigned jobs);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned jobs() const { return unsigned(workers_.size()); }

    /**
     * Enqueue @p task on one worker's deque (round-robin). Tasks must
     * not throw — wrap fallible work and capture the exception (as
     * mapIndexed() does).
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

  private:
    struct Worker
    {
        std::deque<std::function<void()>> tasks;
        std::mutex mutex;
    };

    /** Pop from own deque (newest first) or steal (oldest first). */
    bool findTask(unsigned self, std::function<void()> &out);

    void workerLoop(unsigned self);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    // Guards the counters and wakeups. Task deques have their own
    // mutexes so submit/steal contention stays per-worker.
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    std::size_t queued_ = 0;    ///< submitted, not yet started
    std::size_t running_ = 0;   ///< started, not yet finished
    std::size_t nextWorker_ = 0;
    bool stop_ = false;
};

namespace detail {

/** Shared bookkeeping for one mapIndexed() batch. */
struct OrderedDelivery
{
    std::mutex mutex;
    std::vector<bool> done;
    std::size_t next = 0;

    explicit OrderedDelivery(std::size_t n) : done(n, false) {}

    /**
     * Mark @p index complete and run @p deliver for every cell of the
     * now-contiguous completed prefix, in index order. The mutex is
     * held across delivery so callbacks are serialized — they are for
     * logging/streaming, not for heavy work.
     */
    void
    complete(std::size_t index,
             const std::function<void(std::size_t)> &deliver)
    {
        std::lock_guard<std::mutex> lock(mutex);
        done[index] = true;
        while (next < done.size() && done[next]) {
            if (deliver)
                deliver(next);
            ++next;
        }
    }
};

} // namespace detail

/**
 * Execute @p fn(0..n-1) with up to @p jobs concurrent workers (never
 * more than @p n) and deterministic, index-keyed collection.
 *
 * @param in_order  optional streaming callback, invoked as (index,
 *                  result) in strict index order once the contiguous
 *                  prefix through that index has completed. Runs under
 *                  a lock — keep it to printing/accumulation.
 *
 * Exceptions thrown by @p fn are captured per cell; after ALL cells
 * have finished, the exception of the lowest failing index (if any) is
 * rethrown. Cells whose index precedes the first failure are always
 * delivered to @p in_order before the rethrow; later successful cells
 * are delivered too (their results are valid — only the rethrow
 * signals the batch failure).
 */
template <typename R>
std::vector<R>
mapIndexed(unsigned jobs, std::size_t n,
           const std::function<R(std::size_t)> &fn,
           const std::function<void(std::size_t, const R &)> &in_order =
               nullptr)
{
    std::vector<R> results(n);
    if (n == 0)
        return results;

    // Never more workers than cells; results are index-keyed, so the
    // bound is invisible in the output.
    jobs = unsigned(std::min<std::size_t>(resolveJobs(jobs), n));
    if (jobs <= 1) {
        // Serial path: no threads, strict index order. Exceptions
        // propagate immediately — with one worker the lowest failing
        // index is by definition the first one reached.
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = fn(i);
            if (in_order)
                in_order(i, results[i]);
        }
        return results;
    }

    std::vector<std::exception_ptr> errors(n);
    detail::OrderedDelivery delivery(n);
    const auto deliver = [&](std::size_t idx) {
        if (in_order && !errors[idx])
            in_order(idx, results[idx]);
    };

    {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                try {
                    results[i] = fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                delivery.complete(i, deliver);
            });
        }
        pool.wait();
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
    return results;
}

/** mapIndexed for void cells (side-effecting work). */
void forIndexed(unsigned jobs, std::size_t n,
                const std::function<void(std::size_t)> &fn);

} // namespace si::parallel

#endif // SI_PARALLEL_EXECUTOR_HH
