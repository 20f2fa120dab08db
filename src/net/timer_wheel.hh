/**
 * @file
 * A hashed timer wheel for the server's event loop.
 *
 * The loop folds every connection clock — idle timeout, mid-request
 * deadline, drain deadline — into one wheel instead of keeping a poll
 * budget per socket. The wheel is sized for
 * that exact load profile: tens of thousands of coarse (millisecond-
 * granularity) timers that are nearly always rescheduled or cancelled
 * before they fire, so insert/cancel must be O(1) and firing cost must
 * be proportional to what actually expires, not to what is armed.
 *
 * Design:
 *
 * - `kSlots` buckets hashed by due-tick; a timer further than one
 *   wheel revolution away simply stays in its bucket and is re-bucketed
 *   when the cursor passes it (classic hashed wheel, not hierarchical —
 *   the server's horizons are seconds, one level is plenty);
 * - timers are keyed by an opaque uint64 the caller packs (the loop
 *   uses connId << 2 | clock-kind). schedule() on a live key moves it;
 *   cancel() is lazy: the map entry is erased and stale bucket entries
 *   are dropped by a generation check when the cursor meets them, so
 *   neither operation ever walks a bucket;
 * - time is an explicit uint64 milliseconds parameter — the wheel never
 *   reads a clock. The loop passes steadyMs(); the unit tests pass
 *   fixed virtual timestamps and prove firing order exactly
 *   (tests/test_event_loop.cc).
 *
 * Not thread-safe: the wheel belongs to the loop thread alone, which is
 * the point — no lock appears anywhere on the timer path.
 */

#ifndef TEA_NET_TIMER_WHEEL_HH
#define TEA_NET_TIMER_WHEEL_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tea {

class TimerWheel
{
  public:
    /** @param tickMs wheel granularity; deadlines round *up* to it. */
    explicit TimerWheel(uint64_t tickMs = 4) : tickMs_(tickMs ? tickMs : 1)
    {
        buckets_.resize(kSlots);
    }

    /**
     * Arm (or move) the timer `key` to fire at `deadlineMs`. A deadline
     * at or before the last advance() fires on the next advance call —
     * never synchronously, so callers may schedule from inside their
     * own expiry handling.
     */
    void
    schedule(uint64_t key, uint64_t deadlineMs)
    {
        Entry &e = live_[key];
        e.deadlineMs = deadlineMs;
        ++e.gen;
        uint64_t tick = dueTick(deadlineMs);
        buckets_[tick % kSlots].push_back(Armed{key, e.gen, tick});
        ++armed_;
    }

    /** Disarm `key`; firing and re-scheduling both count as disarmed. */
    void
    cancel(uint64_t key)
    {
        live_.erase(key);
    }

    /** True when `key` is armed. */
    bool armed(uint64_t key) const { return live_.count(key) != 0; }

    /** Armed timers (for gauges; stale bucket entries excluded). */
    size_t size() const { return live_.size(); }

    /**
     * Advance the cursor to `nowMs`, appending every key whose deadline
     * has passed to `expired` — earlier ticks first; within one tick,
     * insertion order. A fired timer is disarmed; re-arm it from the
     * expiry handler if it should repeat. First call latches `nowMs`
     * as the epoch.
     */
    void
    advance(uint64_t nowMs, std::vector<uint64_t> &expired)
    {
        uint64_t tick = nowMs / tickMs_;
        if (!started_) {
            started_ = true;
            cursor_ = tick;
        }
        while (cursor_ <= tick) {
            sweepBucket(cursor_, expired);
            if (cursor_ == tick)
                break;
            ++cursor_;
        }
    }

    /**
     * Milliseconds until the earliest armed timer could fire after
     * `nowMs`, or `idleCapMs` when nothing is armed — the loop's poll
     * timeout. Conservative: never returns more than one tick past the
     * earliest deadline, never less than 0.
     */
    uint64_t
    pollBudgetMs(uint64_t nowMs, uint64_t idleCapMs) const
    {
        if (live_.empty())
            return idleCapMs;
        uint64_t earliest = UINT64_MAX;
        for (const auto &kv : live_)
            if (kv.second.deadlineMs < earliest)
                earliest = kv.second.deadlineMs;
        uint64_t budget =
            earliest > nowMs ? earliest - nowMs : 0;
        // Round up to the tick so a deadline mid-tick still fires on
        // the advance() after the poll wakes.
        budget += tickMs_;
        return budget < idleCapMs ? budget : idleCapMs;
    }

  private:
    static constexpr size_t kSlots = 256;

    struct Entry
    {
        uint64_t deadlineMs = 0;
        uint64_t gen = 0;
    };

    struct Armed
    {
        uint64_t key;
        uint64_t gen;
        uint64_t tick; ///< absolute due tick (deadline / tickMs_)
    };

    uint64_t
    dueTick(uint64_t deadlineMs) const
    {
        // Round up: a timer never fires before its deadline.
        uint64_t tick = (deadlineMs + tickMs_ - 1) / tickMs_;
        // Entries due behind the cursor land *on* the cursor so the
        // very next advance() sweeps them.
        return started_ && tick < cursor_ ? cursor_ : tick;
    }

    void
    sweepBucket(uint64_t tick, std::vector<uint64_t> &expired)
    {
        std::vector<Armed> &bucket = buckets_[tick % kSlots];
        size_t keep = 0;
        for (size_t i = 0; i < bucket.size(); ++i) {
            Armed &a = bucket[i];
            auto it = live_.find(a.key);
            if (it == live_.end() || it->second.gen != a.gen) {
                --armed_; // cancelled or moved: drop silently
                continue;
            }
            if (a.tick > tick) {
                // More than one revolution out when armed: re-bucket
                // for its real due tick now that the cursor moved.
                bucket[keep++] = a;
                continue;
            }
            expired.push_back(a.key);
            live_.erase(it);
            --armed_;
        }
        // Entries that survived (future revolutions) stay; if their due
        // tick maps to this same bucket they are re-seen next pass.
        bucket.resize(keep);
    }

    uint64_t tickMs_;
    uint64_t cursor_ = 0; ///< next tick to sweep
    bool started_ = false;
    size_t armed_ = 0; ///< bucket entries incl. stale (debug accounting)
    std::vector<std::vector<Armed>> buckets_;
    std::unordered_map<uint64_t, Entry> live_;
};

} // namespace tea

#endif // TEA_NET_TIMER_WHEEL_HH
