/**
 * @file
 * A persistent pool of worker threads running index-space jobs with
 * contiguous-range work stealing, plus a small async task lane.
 *
 * parallelFor(n, fn) splits [0, n) into one contiguous range per
 * worker (the calling thread is worker 0). Each worker pops indices
 * off the front of its own range; a worker whose range runs dry
 * steals the upper half of the largest remaining range. Ranges are
 * single atomic words, so pop and steal are lock-free CAS loops.
 *
 * fn must be safe to call concurrently for distinct indices. An
 * exception thrown by fn is captured and rethrown on the calling
 * thread after the job drains; remaining indices still run. When
 * several indices throw, the lowest index's exception wins, whatever
 * order the threads ran them in, so the error a job reports is the one
 * a serial loop would have stopped at. Nested parallelFor on the same
 * pool is not supported.
 *
 * submit(fn) runs one task asynchronously on a pool worker and
 * returns a future for its completion; the pipelined trace decoder
 * (trace::BlockReader) uses it to decode block N+1 while the consumer
 * drains block N. Tasks and parallelFor jobs share the same workers
 * and may interleave freely: tasks never touch the steal ranges, and
 * the job completion barrier is driven by the calling thread, so a
 * worker busy with a task can never stall a job.
 *
 * This lives below the trace and analysis layers so both can share
 * one pool; ta/parallel.h re-exports it as ta::WorkerPool.
 */

#ifndef CELL_UTIL_WORKER_POOL_H
#define CELL_UTIL_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cell::util {

class WorkerPool
{
  public:
    /** @p threads total workers including the caller; 0 = hardware
     *  concurrency. A pool of 1 runs everything inline. */
    explicit WorkerPool(unsigned threads = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    unsigned threads() const { return n_threads_; }

    void parallelFor(std::uint64_t n,
                     const std::function<void(std::uint64_t)>& fn);

    /**
     * Run @p fn once, asynchronously, on a pool worker. The returned
     * future completes when the task finishes; an exception thrown by
     * the task is rethrown from future::get(). A pool of 1 (no helper
     * threads) executes the task inline before returning, so callers
     * degrade gracefully to synchronous behavior. Tasks still queued
     * at destruction run to completion on the destroying thread —
     * futures obtained from submit() never dangle.
     */
    std::future<void> submit(std::function<void()> fn);

  private:
    /** One steal range, packed begin:32 | end:32, cache-line apart. */
    struct alignas(64) StealRange
    {
        std::atomic<std::uint64_t> bits{0};
    };

    static constexpr std::uint64_t pack(std::uint32_t b, std::uint32_t e)
    {
        return (static_cast<std::uint64_t>(b) << 32) | e;
    }

    void workerMain(unsigned id);
    bool runOne(unsigned self);
    void execute(std::uint64_t index);

    unsigned n_threads_;
    std::vector<StealRange> ranges_;
    std::vector<std::thread> workers_; ///< n_threads_ - 1 helpers

    std::atomic<const std::function<void(std::uint64_t)>*> job_{nullptr};
    std::atomic<std::uint64_t> items_total_{0};
    std::atomic<std::uint64_t> items_done_{0};

    std::mutex mu_;
    std::condition_variable wake_cv_; ///< workers wait for a new job
    std::condition_variable done_cv_; ///< caller waits for completion
    std::condition_variable idle_cv_; ///< caller waits for quiescence
    std::uint64_t generation_ = 0;    ///< guarded by mu_
    unsigned active_ = 0;             ///< workers still draining; mu_
    bool shutdown_ = false;           ///< guarded by mu_
    std::exception_ptr error_;        ///< lowest failing index's; mu_
    std::uint64_t error_index_ = 0;   ///< guarded by mu_
    std::deque<std::packaged_task<void()>> tasks_; ///< guarded by mu_
};

} // namespace cell::util

#endif // CELL_UTIL_WORKER_POOL_H
