/**
 * @file
 * Per-request span tracing for the replay stack.
 *
 * A Span is one timed phase of one request on one connection: the
 * server stamps Accept when a connection is admitted and Reply/Request
 * when it answers; the session stamps Decode (frame extraction),
 * Lookup (registry snapshot), and Replay (the kernel run). Spans
 * carry monotonic nanosecond timestamps, so a dump reads as a causal
 * timeline without any clock juggling.
 *
 * SpanRing keeps the most recent spans in a fixed, lock-free ring:
 *
 * - push() is a relaxed ticket fetch_add plus a per-slot seqlock
 *   (sequence odd while writing, even when stable) that a writer
 *   claims by compare-exchange, so only one writer ever fills a slot;
 *   a writer that finds its slot held by another drops its span.
 *   Writers never block and never allocate, so the request path
 *   stays flat;
 * - recent() walks backwards from the newest ticket and drops any slot
 *   whose sequence moved mid-copy — a reader racing a wrap loses that
 *   one slot, never coherence. All slot fields are atomics, so the
 *   race is benign under TSan too;
 * - overflow simply overwrites the oldest entries; pushed() tells an
 *   observer how many spans existed in total, so "ring wrapped, N
 *   dropped" is computable.
 *
 * The ring is dumpable on demand (STATS includes the newest spans) and
 * is flushed into the slow-request log: any request slower than
 * ServerConfig::slowRequestMs gets its per-phase breakdown written as
 * one rate-limited warning (net/server.cc).
 */

#ifndef TEA_OBS_TRACE_HH
#define TEA_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace tea {
namespace obs {

/** Current time on the steady clock, in nanoseconds. */
uint64_t monotonicNanos();

/** The traced phases of one request's lifecycle. */
enum class SpanPhase : uint8_t {
    Accept = 0, ///< connection admitted to a session worker
    Decode,     ///< wire bytes -> frames (FrameDecoder)
    Lookup,     ///< automaton registry snapshot pin
    Replay,     ///< replay walk: a REPLAY_CHUNK that walked, REPLAY_END
    Reply,      ///< reply bytes flushed to the socket
    Request,    ///< the whole request, first byte to last reply byte
    Dispatch,   ///< event loop: read-ready to worker pickup latency
    StoreFaultIn, ///< store: cold .teac image mmap'd into residency
};

const char *spanPhaseName(SpanPhase phase);

/** One timed phase of one request. */
struct Span
{
    uint64_t conn = 0;    ///< server connection id
    uint64_t request = 0; ///< request ordinal within the connection
    SpanPhase phase = SpanPhase::Request;
    uint64_t startNs = 0; ///< monotonicNanos() at phase start
    uint64_t durNs = 0;   ///< phase duration
};

class SpanRing
{
  public:
    /** @param capacity slots, rounded up to a power of two (min 8) */
    explicit SpanRing(size_t capacity = 1024);

    /** Record a span; lock-free, overwrites the oldest on overflow
     *  (dropped when a writer a full ring behind still holds its slot). */
    void push(const Span &span);

    /**
     * The newest spans, oldest first, at most `max`. Best-effort under
     * concurrent writers: slots being overwritten are skipped.
     */
    std::vector<Span> recent(size_t max = SIZE_MAX) const;

    /**
     * recent() without the allocation: copy at most `max` of the
     * newest spans into caller-owned storage, oldest first, and
     * return how many were written. Same best-effort semantics as
     * recent(). Async-signal-safe — the flight recorder's crash path
     * calls this from a SIGSEGV handler, where malloc is off-limits.
     */
    size_t snapshotInto(Span *out, size_t max) const;

    /** Spans ever pushed (≥ what the ring still holds). */
    uint64_t pushed() const
    {
        return head.load(std::memory_order_relaxed);
    }

    size_t capacity() const { return slots.size(); }

  private:
    struct Slot
    {
        /** Seqlock: 0 = never written, odd = mid-write, even = stable. */
        std::atomic<uint64_t> seq{0};
        std::atomic<uint64_t> conn{0};
        std::atomic<uint64_t> request{0};
        std::atomic<uint8_t> phase{0};
        std::atomic<uint64_t> startNs{0};
        std::atomic<uint64_t> durNs{0};
    };

    std::vector<Slot> slots;
    size_t mask;
    std::atomic<uint64_t> head{0}; ///< next ticket (= total pushed)
};

} // namespace obs
} // namespace tea

#endif // TEA_OBS_TRACE_HH
