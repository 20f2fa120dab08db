#include "rec/service.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace tea {
namespace rec {

RecordingService::RecordingService(AutomatonRegistry &registry_,
                                   AutomatonStore *store_)
    : registry(registry_), store(store_)
{
}

std::unique_ptr<RecordingSession>
RecordingService::begin(const std::string &name, RecordingConfig config)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!active.insert(name).second)
            fatal("rec: '%s' is already being recorded", name.c_str());
    }
    std::unique_ptr<RecordingSession> session;
    try {
        session = std::make_unique<RecordingSession>(
            name, registry, store, std::move(config), &instruments);
    } catch (...) {
        // The session never existed, so its destructor will not
        // release the name — undo the claim here.
        std::lock_guard<std::mutex> lock(mu);
        active.erase(name);
        throw;
    }
    session->owner = this;
    return session;
}

size_t
RecordingService::activeSessions() const
{
    std::lock_guard<std::mutex> lock(mu);
    return active.size();
}

bool
RecordingService::recording(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    return active.count(name) != 0;
}

void
RecordingService::release(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    active.erase(name);
}

void
RecordingService::bindMetrics(obs::MetricsRegistry &metrics)
{
    instruments.sessions = &metrics.counter("rec.sessions");
    instruments.transitions = &metrics.counter("rec.transitions");
    instruments.swaps = &metrics.counter("rec.swaps");
    instruments.aborted = &metrics.counter("rec.aborted");
    instruments.swapMs = &metrics.histogram("rec.swap_ms");
    instruments.transitionsBy =
        &metrics.labeledCounter("rec.transitions_by_automaton");
    metrics.gaugeFn("rec.active", [this] {
        return static_cast<int64_t>(activeSessions());
    });
}

} // namespace rec
} // namespace tea
