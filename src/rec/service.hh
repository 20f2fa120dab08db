/**
 * @file
 * RecordingService: admission control and metrics for online
 * recordings.
 *
 * A RecordingSession is single-writer by design (rec/recording.hh);
 * the service is the thin concurrent layer above it that the server
 * shares across connections. It enforces the one invariant sessions
 * cannot see alone — at most one live recording per automaton name,
 * so two clients can never interleave transition streams into one
 * recorder — and owns the `rec.*` instrument handles every session
 * writes through.
 *
 * Lifecycle: begin() registers the name and hands back an owning
 * session wired to this service; the session's destructor releases
 * the name whether it finished cleanly or was abandoned by a
 * disconnect. The service must outlive its sessions (the server drains
 * connections before teardown, so this holds by construction).
 */

#ifndef TEA_REC_SERVICE_HH
#define TEA_REC_SERVICE_HH

#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "rec/recording.hh"

namespace tea {

namespace obs {
class MetricsRegistry;
} // namespace obs

namespace rec {

class RecordingService
{
  public:
    /**
     * @param registry publish target for every session
     * @param store    optional persistent tier (may also be attached
     *                 later via setStore; must outlive the service)
     */
    explicit RecordingService(AutomatonRegistry &registry,
                              AutomatonStore *store = nullptr);

    void setStore(AutomatonStore *s) { store = s; }

    /**
     * Start recording `name`.
     * @throws FatalError on invalid names, unknown selectors, or a
     *         recording already live under `name`
     */
    std::unique_ptr<RecordingSession>
    begin(const std::string &name, RecordingConfig config = {});

    /** Live recording count (the `rec.active` gauge). */
    size_t activeSessions() const;

    /** Is `name` being recorded right now? */
    bool recording(const std::string &name) const;

    /**
     * Register the `rec.*` instruments in `metrics` and start counting:
     * rec.sessions, rec.transitions, rec.swaps, rec.aborted, the
     * rec.swap_ms histogram, the rec.transitions_by_automaton family,
     * and the rec.active callback gauge (see docs/OBSERVABILITY.md).
     */
    void bindMetrics(obs::MetricsRegistry &metrics);

  private:
    friend class RecordingSession;

    /** Called by the session destructor: the name is free again. */
    void release(const std::string &name);

    AutomatonRegistry &registry;
    AutomatonStore *store = nullptr;
    RecMetrics instruments;

    mutable std::mutex mu;
    std::set<std::string> active;
};

} // namespace rec
} // namespace tea

#endif // TEA_REC_SERVICE_HH
