/**
 * @file
 * RecordingSession: one online recording of one named automaton.
 *
 * The paper's Algorithm 2 lives in tea::TeaRecorder as an offline,
 * single-process loop: feed transitions, read the grown Tea at the
 * end. A RecordingSession productionizes that loop for the serving
 * stack (the ROADMAP's record-and-serve item): it wraps a TeaRecorder
 * behind a deliberately mutex-free single-writer API, accepts streamed
 * BlockTransition batches (the RECORD wire verb's chunks, or a local
 * driver), and periodically *publishes* the grown automaton — an
 * atomic registry hot-swap of the recorder's own compiled snapshot
 * (TeaRecorder::snapshot(), compiled once per install) — so replay
 * traffic sees the automaton grow while the recording is still
 * running. A publish copies nothing and compiles nothing.
 *
 * Concurrency contract: exactly ONE thread drives feed()/finish() —
 * the net session's connection thread, or a bench loop. The session
 * itself takes no locks; the only cross-thread edges are the publish
 * steps, which go through the registry's shard mutex (replace()) and
 * the store's budget mutex (replaceResident()). Readers never see a
 * half-built automaton: they pin whichever immutable snapshot was
 * current when they resolved the name, exactly as with PUT/evict.
 *
 * Swap policy: a swap is attempted after every `swapInterval` fed
 * transitions, and performed only if the recorder installed at least
 * one trace since the last published snapshot — an idle interval
 * publishes nothing. finish() publishes whatever growth is still
 * unpublished (at least the recorder's first snapshot, so even a
 * trace-free recording leaves the name resolvable) and, when a store
 * is attached, writes that same snapshot's `.teac` through the atomic
 * tmp+rename path. An *abandoned* session (destroyed unfinished — the chaos
 * disconnect case) publishes nothing further: the last swapped
 * snapshot stays installed and any partial batch is discarded.
 */

#ifndef TEA_REC_RECORDING_HH
#define TEA_REC_RECORDING_HH

#include <cstdint>
#include <memory>
#include <string>

#include "store/store.hh"
#include "svc/registry.hh"
#include "tea/recorder.hh"

namespace tea {

namespace obs {
class Counter;
class Histogram;
class LabeledCounter;
} // namespace obs

namespace rec {

/** Knobs for one recording session. */
struct RecordingConfig
{
    /** Trace-selection policy (trace/factory.hh names). */
    std::string selector = "mret";

    /** Transitions fed between hot-swap attempts. */
    uint32_t swapInterval = 4096;
};

/**
 * Borrowed rec.* instrument handles (obs borrowed-pointer idiom, cf.
 * SessionObs): RecordingService::bindMetrics() fills one of these and
 * every session it creates writes through it. All pointers may be
 * null — an unbound service records without counting.
 */
struct RecMetrics
{
    obs::Counter *sessions = nullptr;      ///< sessions ever begun
    obs::Counter *transitions = nullptr;   ///< transitions ingested
    obs::Counter *swaps = nullptr;         ///< snapshots published
    obs::Counter *aborted = nullptr;       ///< sessions abandoned
    obs::Histogram *swapMs = nullptr;      ///< registry swap latency
    /** Per-automaton ingest family (rec.transitions_by_automaton).
     *  Each session resolves its own series handle once at open. */
    obs::LabeledCounter *transitionsBy = nullptr;
};

class RecordingService;

/** Final accounting returned by finish(). */
struct RecordingResultSummary
{
    uint64_t transitions = 0; ///< total transitions ingested
    uint64_t traces = 0;      ///< traces in the final automaton
    uint64_t states = 0;      ///< states incl. NTE in the final automaton
    uint64_t swaps = 0;       ///< snapshots published (incl. the final)
};

class RecordingSession
{
  public:
    /**
     * Begin recording `name`. Prefer RecordingService::begin(), which
     * also enforces one live recording per name.
     *
     * @param registry publish target (must outlive the session)
     * @param store    optional persistent tier: swaps go through
     *                 replaceResident() and finish() writes the final
     *                 `.teac` through; null publishes registry-only
     * @throws FatalError on invalid names or unknown selectors
     */
    RecordingSession(std::string name, AutomatonRegistry &registry,
                     AutomatonStore *store, RecordingConfig config,
                     const RecMetrics *metrics = nullptr);

    /** Abandoning an unfinished session releases its name (via the
     *  owning service) and publishes nothing further. */
    ~RecordingSession();

    RecordingSession(const RecordingSession &) = delete;
    RecordingSession &operator=(const RecordingSession &) = delete;

    /** Ingest one transition: feedBatch(&tr, 1). */
    void feed(const BlockTransition &tr);

    /**
     * Ingest a decoded batch — one RECORD_CHUNK's worth — in order
     * (single-writer; see file comment). The swap check runs after
     * every transition, so batching never moves a publish. The
     * rec.transitions counters are bumped once, by the count fed,
     * when the batch returns or throws: a scrape during a batch lags
     * by less than one batch, and nothing is counted per transition.
     */
    void feedBatch(const BlockTransition *batch, size_t n);

    /**
     * Publish the final snapshot (and write the `.teac` through when a
     * store is attached), then seal the session: further feed() panics.
     * @return final accounting. @throws FatalError on I/O failure
     */
    RecordingResultSummary finish();

    /** The automaton recorded so far (single-writer access only). */
    const Tea &tea() const { return recorder.tea(); }

    /** The embedded recorder's cumulative replay counters. */
    ReplayStats stats() const { return recorder.stats(); }

    const std::string &name() const { return name_; }
    uint64_t transitions() const { return transitionCount; }
    uint64_t swaps() const { return swapCount; }
    bool finished() const { return finished_; }

    /**
     * The most recently published snapshot (null before the first
     * swap): the recorder's own snapshot object at that point. Exposed
     * for tests; readers should resolve through the registry like any
     * other traffic.
     */
    const std::shared_ptr<const CompiledTea> &current() const
    {
        return current_;
    }

  private:
    friend class RecordingService;

    /** Bump the rec.transitions counters by `n` fed transitions. */
    void countFed(uint64_t n);

    /** Swap if the interval elapsed and the automaton grew. */
    void maybeSwap();

    /** Publish the recorder's current snapshot unconditionally. */
    void swapNow();

    std::string name_;
    AutomatonRegistry &registry;
    AutomatonStore *store = nullptr;
    RecordingConfig cfg;
    const RecMetrics *metrics = nullptr;
    /** This name's series in rec.transitions_by_automaton (or null). */
    obs::Counter *transitionsBy_ = nullptr;
    RecordingService *owner = nullptr; ///< set by RecordingService::begin

    TeaRecorder recorder;
    std::shared_ptr<const CompiledTea> current_;

    uint64_t transitionCount = 0;
    uint64_t sinceSwap = 0;           ///< transitions since last publish
    uint64_t swapCount = 0;
    bool finished_ = false;
};

} // namespace rec
} // namespace tea

#endif // TEA_REC_RECORDING_HH
