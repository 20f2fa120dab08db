#include "util/threadpool.hh"

#include <chrono>

#include "util/logging.hh"

namespace tea {

ThreadPool::ThreadPool(size_t workers)
{
    if (workers == 0)
        workers = 1;
    threads.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cvTask.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
ThreadPool::setTaskObserver(TaskObserver fn)
{
    std::lock_guard<std::mutex> lock(mu);
    observer = std::move(fn);
}

void
ThreadPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping)
            panic("threadpool: submit after shutdown");
        queue.push_back(std::move(task));
    }
    cvTask.notify_one();
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    cvIdle.wait(lock, [this] { return queue.empty() && inFlight == 0; });
    if (firstError) {
        std::exception_ptr err = firstError;
        firstError = nullptr;
        std::rethrow_exception(err);
    }
}

uint64_t
ThreadPool::executed() const
{
    std::lock_guard<std::mutex> lock(mu);
    return doneCount;
}

uint64_t
ThreadPool::failures() const
{
    std::lock_guard<std::mutex> lock(mu);
    return failCount;
}

size_t
ThreadPool::pending() const
{
    std::lock_guard<std::mutex> lock(mu);
    return queue.size();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cvTask.wait(lock, [this] { return stopping || !queue.empty(); });
        if (queue.empty()) {
            if (stopping)
                return;
            continue;
        }
        Task task = std::move(queue.front());
        queue.pop_front();
        ++inFlight;
        TaskObserver obs = observer;
        lock.unlock();
        auto begin = std::chrono::steady_clock::now();
        std::exception_ptr err;
        std::string what;
        try {
            task();
        } catch (const std::exception &e) {
            // The worker survives any throwing task; the first
            // exception is reported at the next drain().
            err = std::current_exception();
            what = e.what();
        } catch (...) {
            err = std::current_exception();
            what = "non-standard exception";
        }
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
        if (err && sharedWarnLimiter().allow()) {
            uint64_t dropped = sharedWarnLimiter().suppressedAndReset();
            if (dropped > 0)
                warn("threadpool: task failed: %s (%llu similar warnings "
                     "suppressed)",
                     what.c_str(),
                     static_cast<unsigned long long>(dropped));
            else
                warn("threadpool: task failed: %s", what.c_str());
        }
        if (obs)
            obs(ms);
        lock.lock();
        if (err) {
            ++failCount;
            if (!firstError)
                firstError = err;
        }
        --inFlight;
        ++doneCount;
        if (queue.empty() && inFlight == 0)
            cvIdle.notify_all();
    }
}

} // namespace tea
