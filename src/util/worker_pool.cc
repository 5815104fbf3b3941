/**
 * @file
 * WorkerPool implementation (moved verbatim from ta/parallel.cc, plus
 * the async task lane used by the pipelined block decoder).
 */

#include "util/worker_pool.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace cell::util {

WorkerPool::WorkerPool(unsigned threads)
    : n_threads_(threads != 0
                     ? threads
                     : std::max(1u, std::thread::hardware_concurrency())),
      ranges_(n_threads_)
{
    workers_.reserve(n_threads_ - 1);
    for (unsigned i = 1; i < n_threads_; ++i)
        workers_.emplace_back(&WorkerPool::workerMain, this, i);
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_)
        t.join();
    // Tasks still queued when shutdown won the race run here, so every
    // future handed out by submit() completes.
    for (std::packaged_task<void()>& t : tasks_)
        t();
    tasks_.clear();
}

std::future<void>
WorkerPool::submit(std::function<void()> fn)
{
    std::packaged_task<void()> task(std::move(fn));
    std::future<void> fut = task.get_future();
    if (n_threads_ == 1) {
        task(); // no helpers: degrade to synchronous execution
        return fut;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        tasks_.push_back(std::move(task));
    }
    wake_cv_.notify_one();
    return fut;
}

void
WorkerPool::execute(std::uint64_t index)
{
    const auto* fn = job_.load(std::memory_order_acquire);
    try {
        (*fn)(index);
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_ || index < error_index_) {
            error_ = std::current_exception();
            error_index_ = index;
        }
    }
    const std::uint64_t done =
        items_done_.fetch_add(1, std::memory_order_acq_rel) + 1;
    assert(done <= items_total_.load(std::memory_order_acquire) &&
           "WorkerPool executed an index twice");
    if (done >= items_total_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lk(mu_); // pair with the caller's wait
        done_cv_.notify_all();
    }
}

bool
WorkerPool::runOne(unsigned self)
{
    // Pop the front of our own range.
    auto& my = ranges_[self].bits;
    std::uint64_t cur = my.load(std::memory_order_acquire);
    for (;;) {
        const auto b = static_cast<std::uint32_t>(cur >> 32);
        const auto e = static_cast<std::uint32_t>(cur);
        if (b >= e)
            break;
        if (my.compare_exchange_weak(cur, pack(b + 1, e),
                                     std::memory_order_acq_rel)) {
            execute(b);
            return true;
        }
    }
    // Dry: steal the upper half of the largest remaining range. Within
    // a job only the owner ever grows its own range (and only while it
    // is empty), and thieves only CAS-shrink non-empty ranges, so the
    // blind store below cannot clobber a concurrent transfer; the
    // caller refills ranges only while the pool is quiescent.
    for (;;) {
        int victim = -1;
        std::uint32_t best = 0;
        std::uint64_t vcur = 0;
        for (unsigned v = 0; v < n_threads_; ++v) {
            if (v == self)
                continue;
            const std::uint64_t c =
                ranges_[v].bits.load(std::memory_order_acquire);
            const auto b = static_cast<std::uint32_t>(c >> 32);
            const auto e = static_cast<std::uint32_t>(c);
            // A single-item range has no upper half to take (mid would
            // equal e, an index outside the range); its owner runs it.
            if (e - b >= 2 && e - b > best) {
                best = e - b;
                victim = static_cast<int>(v);
                vcur = c;
            }
        }
        if (victim < 0)
            return false;
        const auto b = static_cast<std::uint32_t>(vcur >> 32);
        const auto e = static_cast<std::uint32_t>(vcur);
        const std::uint32_t mid = b + (e - b + 1) / 2; // victim keeps [b,mid)
        if (!ranges_[static_cast<unsigned>(victim)].bits.compare_exchange_weak(
                vcur, pack(b, mid), std::memory_order_acq_rel))
            continue; // raced with the victim or another thief; rescan
        ranges_[self].bits.store(pack(mid + 1, e), std::memory_order_release);
        execute(mid);
        return true;
    }
}

void
WorkerPool::workerMain(unsigned id)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        wake_cv_.wait(lk, [&] {
            return shutdown_ || generation_ != seen || !tasks_.empty();
        });
        if (shutdown_)
            return;
        if (!tasks_.empty()) {
            std::packaged_task<void()> task = std::move(tasks_.front());
            tasks_.pop_front();
            lk.unlock();
            task(); // exceptions land in the future
            lk.lock();
            continue;
        }
        seen = generation_;
        ++active_;
        lk.unlock();
        while (runOne(id)) {
        }
        lk.lock();
        // The last worker to park lets the next parallelFor refill the
        // steal ranges: a worker still inside runOne() could hold a
        // stale snapshot of a range and, because range layouts repeat
        // across generations, CAS-steal from the *next* job and clobber
        // its own freshly refilled range. Quiescence makes that window
        // impossible.
        if (--active_ == 0)
            idle_cv_.notify_all();
    }
}

void
WorkerPool::parallelFor(std::uint64_t n,
                        const std::function<void(std::uint64_t)>& fn)
{
    if (n == 0)
        return;
    if (n_threads_ == 1 || n == 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (n > std::numeric_limits<std::uint32_t>::max())
        throw std::logic_error("WorkerPool: index space too large");

    {
        std::unique_lock<std::mutex> lk(mu_);
        // Wait for every worker from the previous job to park before
        // touching the ranges (see the note in workerMain).
        idle_cv_.wait(lk, [&] { return active_ == 0; });
        error_ = nullptr;
        items_done_.store(0, std::memory_order_relaxed);
        items_total_.store(n, std::memory_order_relaxed);
        job_.store(&fn, std::memory_order_release);
        const std::uint64_t per = n / n_threads_;
        const std::uint64_t rem = n % n_threads_;
        std::uint64_t begin = 0;
        for (unsigned w = 0; w < n_threads_; ++w) {
            const std::uint64_t len = per + (w < rem ? 1 : 0);
            ranges_[w].bits.store(
                pack(static_cast<std::uint32_t>(begin),
                     static_cast<std::uint32_t>(begin + len)),
                std::memory_order_release);
            begin += len;
        }
        ++generation_;
    }
    wake_cv_.notify_all();
    while (runOne(0)) {
    }
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(mu_);
        done_cv_.wait(lk, [&] {
            return items_done_.load(std::memory_order_acquire) >=
                   items_total_.load(std::memory_order_relaxed);
        });
        job_.store(nullptr, std::memory_order_relaxed);
        err = error_;
        error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace cell::util
