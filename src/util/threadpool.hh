/**
 * @file
 * A fixed-size worker pool for batch jobs.
 *
 * The pool is deliberately minimal: N threads created up front, a FIFO
 * task queue, and a drain() barrier. Higher layers (svc/replay_service.hh)
 * get their determinism by *not* communicating through the pool at all —
 * each task writes to a slot it exclusively owns, and all merging happens
 * after drain() on the calling thread. The pool therefore needs no
 * futures, no task priorities, and no work stealing.
 *
 * Exception contract: a task that throws does not kill the worker; the
 * first exception is captured and rethrown from the next drain() (or
 * swallowed by the destructor if the caller never drains). Tasks that
 * must report per-item errors should catch locally instead.
 */

#ifndef TEA_UTIL_THREADPOOL_HH
#define TEA_UTIL_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tea {

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * Start `workers` threads. 0 is clamped to 1: a pool with no
     * workers would deadlock the first drain().
     */
    explicit ThreadPool(size_t workers);

    /** Pending tasks run to completion, then workers join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Per-task completion hook: called on the worker thread after each
     * task finishes, thrown or not, with the task's wall-clock
     * duration. The observability layer wires this into a task-latency
     * histogram (net/server.cc); failures() already counts the
     * throwers. Installing one while tasks are running is safe. Pass
     * an empty function to clear.
     */
    using TaskObserver = std::function<void(double ms)>;
    void setTaskObserver(TaskObserver fn);

    /** Enqueue a task. @throws PanicError after shutdown began. */
    void submit(Task task);

    /**
     * Block until every submitted task has finished executing (not just
     * been dequeued). Rethrows the first task exception captured since
     * the previous drain(). The pool is reusable afterwards.
     */
    void drain();

    size_t workers() const { return threads.size(); }

    /** Tasks executed since construction (for tests and stats). */
    uint64_t executed() const;

    /**
     * Tasks that exited by throwing, since construction. Included in
     * executed(): a throwing task still completes — it never kills its
     * worker or skews pending()/drain() accounting
     * (tests/test_threadpool.cc pins this).
     */
    uint64_t failures() const;

    /**
     * Queue depth: tasks submitted but not yet picked up by a worker.
     * Admission control (net/server.hh) and the batch-replay CLI read
     * this to bound and report backlog; the value is advisory — it can
     * change the moment the lock is released.
     */
    size_t pending() const;

  private:
    void workerLoop();

    mutable std::mutex mu;
    std::condition_variable cvTask;  ///< signals workers: task or stop
    std::condition_variable cvIdle;  ///< signals drain(): all work done
    std::deque<Task> queue;
    std::vector<std::thread> threads;
    size_t inFlight = 0;     ///< tasks dequeued but not finished
    uint64_t doneCount = 0;  ///< tasks finished since construction
    uint64_t failCount = 0;  ///< tasks that finished by throwing
    bool stopping = false;
    std::exception_ptr firstError;
    TaskObserver observer; ///< copied under mu before each call
};

} // namespace tea

#endif // TEA_UTIL_THREADPOOL_HH
