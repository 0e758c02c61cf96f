/**
 * @file
 * Deterministic parallel execution engine.
 *
 * mapIndexed() runs N independent cells on up to `jobs` worker threads.
 * Each worker claims the next unclaimed index from one shared counter,
 * so cells start in index order; results are collected into an
 * index-keyed vector and an optional `in_order` callback fires for cell
 * 0, 1, 2, ... in strict index order regardless of completion order. A
 * sweep whose cells are pure functions of their index therefore
 * produces byte-identical tables, stats, and logs at any --jobs value.
 *
 * Fault isolation: a cell that throws does not poison its siblings.
 * Every cell runs to completion (or failure); the lowest-index
 * exception — a deterministic choice — is rethrown from mapIndexed()
 * after the whole batch has finished.
 *
 * jobs == 1 never starts a thread: cells run inline on the caller, in
 * index order, which keeps the serial path bit-identical to the
 * pre-parallel code by construction. Every worker is joined before
 * mapIndexed() returns, so a caller may fork() afterwards (the campaign
 * runner does) without a child inheriting a lock another thread holds.
 */

#ifndef SI_PARALLEL_EXECUTOR_HH
#define SI_PARALLEL_EXECUTOR_HH

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

namespace si::parallel {

/** Hardware concurrency, clamped to at least 1. */
unsigned defaultJobs();

/**
 * Resolve a --jobs argument: 0 means "all cores" (defaultJobs()),
 * anything else passes through.
 */
unsigned resolveJobs(unsigned jobs);

namespace detail {

/**
 * Run @p cell(0..n-1) on @p workers threads, each claiming the next
 * unclaimed index from one shared counter until none is left; returns
 * once every cell has finished. @p cell must not throw.
 */
void runCells(unsigned workers, std::size_t n,
              const std::function<void(std::size_t)> &cell);

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

    detail::runCells(jobs, n, [&](std::size_t i) {
        try {
            results[i] = fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
        delivery.complete(i, deliver);
    });

    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
    return results;
}

} // namespace si::parallel

#endif // SI_PARALLEL_EXECUTOR_HH
