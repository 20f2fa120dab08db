#include "obs/trace.hh"

#include <algorithm>
#include <chrono>

namespace tea {
namespace obs {

uint64_t
monotonicNanos()
{
    using namespace std::chrono;
    return static_cast<uint64_t>(
        duration_cast<nanoseconds>(
            steady_clock::now().time_since_epoch())
            .count());
}

const char *
spanPhaseName(SpanPhase phase)
{
    switch (phase) {
    case SpanPhase::Accept: return "accept";
    case SpanPhase::Decode: return "decode";
    case SpanPhase::Lookup: return "lookup";
    case SpanPhase::Replay: return "replay";
    case SpanPhase::Reply: return "reply";
    case SpanPhase::Request: return "request";
    case SpanPhase::Dispatch: return "dispatch";
    case SpanPhase::StoreFaultIn: return "store.fault_in";
    }
    return "?";
}

SpanRing::SpanRing(size_t capacity)
{
    size_t cap = 8;
    while (cap < capacity && cap < (size_t(1) << 20))
        cap <<= 1;
    slots = std::vector<Slot>(cap);
    mask = cap - 1;
}

void
SpanRing::push(const Span &span)
{
    uint64_t ticket = head.fetch_add(1, std::memory_order_relaxed);
    Slot &s = slots[ticket & mask];
    // Per-slot seqlock keyed to the ticket. Two writers a full ring
    // apart share a slot, so a writer first claims it: a compare-
    // exchange from a stable (even) sequence older than its ticket to
    // its own odd one. Only the claimer writes the fields and closes
    // the slot; a writer that finds the slot held (odd) or already
    // newer drops its span — one lost span, never a torn one.
    uint64_t cur = s.seq.load(std::memory_order_relaxed);
    do {
        if ((cur & 1) != 0 || cur >= 2 * ticket + 2)
            return;
    } while (!s.seq.compare_exchange_weak(cur, 2 * ticket + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed));
    // The odd sequence is visible before any field store below.
    std::atomic_thread_fence(std::memory_order_release);
    s.conn.store(span.conn, std::memory_order_relaxed);
    s.request.store(span.request, std::memory_order_relaxed);
    s.phase.store(static_cast<uint8_t>(span.phase),
                  std::memory_order_relaxed);
    s.startNs.store(span.startNs, std::memory_order_relaxed);
    s.durNs.store(span.durNs, std::memory_order_relaxed);
    s.seq.store(2 * ticket + 2, std::memory_order_release);
}

size_t
SpanRing::snapshotInto(Span *out, size_t max) const
{
    uint64_t end = head.load(std::memory_order_acquire);
    uint64_t count = std::min<uint64_t>(end, slots.size());
    count = std::min<uint64_t>(count, max);
    size_t n = 0;
    // Walk newest -> oldest, then reverse so callers read a timeline.
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t ticket = end - 1 - i;
        const Slot &s = slots[ticket & mask];
        uint64_t a = s.seq.load(std::memory_order_acquire);
        if (a != 2 * ticket + 2)
            continue; // unwritten, mid-write, or already overwritten
        Span span;
        span.conn = s.conn.load(std::memory_order_relaxed);
        span.request = s.request.load(std::memory_order_relaxed);
        span.phase = static_cast<SpanPhase>(
            s.phase.load(std::memory_order_relaxed));
        span.startNs = s.startNs.load(std::memory_order_relaxed);
        span.durNs = s.durNs.load(std::memory_order_relaxed);
        // Order the field loads before the re-check: a field written
        // by a later claimer implies that claimer's odd sequence here.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) != a)
            continue;
        out[n++] = span;
    }
    std::reverse(out, out + n);
    return n;
}

std::vector<Span>
SpanRing::recent(size_t max) const
{
    size_t cap = std::min<size_t>(
        slots.size(), max == SIZE_MAX ? slots.size() : max);
    std::vector<Span> out(cap);
    out.resize(snapshotInto(out.data(), cap));
    return out;
}

} // namespace obs
} // namespace tea
