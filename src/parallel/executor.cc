#include "parallel/executor.hh"

#include <atomic>
#include <thread>

namespace si::parallel {

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs == 0 ? defaultJobs() : jobs;
}

namespace detail {

void
runCells(unsigned workers, std::size_t n,
         const std::function<void(std::size_t)> &cell)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++)
                cell(i);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

} // namespace detail

} // namespace si::parallel
