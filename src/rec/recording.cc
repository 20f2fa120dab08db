#include "rec/recording.hh"

#include <chrono>

#include "obs/metrics.hh"
#include "rec/service.hh"
#include "trace/factory.hh"
#include "util/logging.hh"

namespace tea {
namespace rec {

RecordingSession::RecordingSession(std::string name,
                                   AutomatonRegistry &registry_,
                                   AutomatonStore *store_,
                                   RecordingConfig config,
                                   const RecMetrics *metrics_)
    : name_(std::move(name)), registry(registry_), store(store_),
      cfg(std::move(config)), metrics(metrics_),
      recorder(makeSelector(cfg.selector))
{
    // Store-name rules apply even without a store attached, so a
    // recording can always be persisted later.
    if (!AutomatonStore::validName(name_))
        fatal("rec: invalid automaton name '%s'", name_.c_str());
    if (cfg.swapInterval == 0)
        fatal("rec: swap interval must be positive");
    if (metrics != nullptr && metrics->sessions != nullptr)
        metrics->sessions->inc();
    // Resolve the per-automaton ingest series once; feedBatch() then
    // pays one relaxed fetch_add per batch, not a label-map lookup.
    if (metrics != nullptr && metrics->transitionsBy != nullptr)
        transitionsBy_ = &metrics->transitionsBy->at(name_);
}

RecordingSession::~RecordingSession()
{
    if (!finished_ && metrics != nullptr && metrics->aborted != nullptr)
        metrics->aborted->inc();
    if (owner != nullptr)
        owner->release(name_);
}

void
RecordingSession::feed(const BlockTransition &tr)
{
    feedBatch(&tr, 1);
}

void
RecordingSession::feedBatch(const BlockTransition *batch, size_t n)
{
    TEA_ASSERT(!finished_, "rec: feed after finish");
    const uint64_t before = transitionCount;
    try {
        for (size_t i = 0; i < n; ++i) {
            recorder.feed(batch[i]);
            ++transitionCount;
            ++sinceSwap;
            maybeSwap();
        }
    } catch (...) {
        // A transition the recorder took stays counted, as it stays
        // in the automaton, even when a later one (or its publish)
        // throws.
        countFed(transitionCount - before);
        throw;
    }
    countFed(transitionCount - before);
}

void
RecordingSession::countFed(uint64_t n)
{
    if (metrics != nullptr && metrics->transitions != nullptr)
        metrics->transitions->inc(n);
    if (transitionsBy_ != nullptr)
        transitionsBy_->inc(n);
}

void
RecordingSession::maybeSwap()
{
    if (sinceSwap < cfg.swapInterval)
        return;
    if (recorder.snapshot() == current_) {
        // Idle interval: no install, so the recorder still walks the
        // published snapshot. Reset so the next interval starts here.
        sinceSwap = 0;
        return;
    }
    swapNow();
}

void
RecordingSession::swapNow()
{
    auto t0 = std::chrono::steady_clock::now();

    // The recorder compiled this snapshot at its last install and
    // never mutates it, so it is publishable as it stands.
    current_ = recorder.snapshot();
    sinceSwap = 0;

    // Publish: new requests resolve the grown automaton; in-flight
    // replays keep the snapshot they pinned.
    if (store != nullptr)
        store->replaceResident(name_, current_);
    else
        registry.replace(name_, current_);
    ++swapCount;

    if (metrics != nullptr) {
        if (metrics->swaps != nullptr)
            metrics->swaps->inc();
        if (metrics->swapMs != nullptr) {
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            metrics->swapMs->observe(ms);
        }
    }
}

RecordingResultSummary
RecordingSession::finish()
{
    TEA_ASSERT(!finished_, "rec: finish called twice");

    // Publish any unpublished growth; a trace-free recording publishes
    // the recorder's first snapshot, so the name still resolves (an
    // all-NTE automaton replays every stream as untraced).
    if (recorder.snapshot() != current_)
        swapNow();

    if (store != nullptr)
        store->writeThrough(name_, *current_);

    finished_ = true;
    RecordingResultSummary out;
    out.transitions = transitionCount;
    out.traces = recorder.traces().size();
    out.states = recorder.tea().numStates();
    out.swaps = swapCount;
    return out;
}

} // namespace rec
} // namespace tea
