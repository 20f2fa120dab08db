/**
 * @file
 * Concurrent batch replay of recorded trace logs.
 *
 * The service pairs immutable automaton snapshots (svc/registry.hh)
 * with trace logs (svc/tracelog.hh) and replays each pairing on a fixed
 * worker pool. The concurrency design keeps the hot transition function
 * exactly as single-threaded as the paper's:
 *
 * - each job constructs its *own* TeaReplayer — the per-state local
 *   caches and the global B+ tree are private to the job, so the
 *   transition function takes no locks;
 * - the shared `Tea` is read-only after build, so any number of
 *   replayers may walk it concurrently;
 * - every job writes its result into a slot it exclusively owns, and
 *   all cross-job merging happens on the calling thread after the pool
 *   drains, folding in job-submission order.
 *
 * That last point is what makes the batch *deterministic*: the merged
 * per-TBB profile and summed ReplayStats are pure uint64 sums folded in
 * a fixed order, hence bit-identical to a sequential run regardless of
 * worker count or OS scheduling.
 */

#ifndef TEA_SVC_REPLAY_SERVICE_HH
#define TEA_SVC_REPLAY_SERVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "tea/replayer.hh"
#include "util/threadpool.hh"

namespace tea {

/** One replay request: an automaton snapshot plus one trace log. */
struct ReplayJob
{
    /**
     * The source automaton. May be null when `compiled` is set: jobs
     * against registry names (which hold only compiled images) replay
     * on the compiled snapshot alone (the reference kernel then needs
     * a rehydrated Tea — net/session.hh does that per-request).
     */
    std::shared_ptr<const Tea> tea;

    /** File-backed log; used when `logBytes` is null. */
    std::string logPath;

    /**
     * In-memory log (benches, tests). Not owned; must outlive the
     * batch. Readers only consume these bytes, so many jobs may share
     * one buffer.
     */
    const std::vector<uint8_t> *logBytes = nullptr;

    /**
     * Compiled snapshot of `tea`, shared across every job replaying
     * the same automaton (a registry name's image; runBatch fills it
     * for ad-hoc jobs under either kernel). It is also the decode
     * automaton of elided logs, so a job without it replays only logs
     * that elide nothing. When null and the lookup config selects the
     * compiled kernel, runReplayJob() compiles privately for the walk
     * — correct but wasteful for concurrent streams.
     */
    std::shared_ptr<const CompiledTea> compiled;

    /**
     * Open the log in TraceLogReader salvage mode: a torn log replays
     * its valid chunk prefix and reports the tear in
     * StreamResult::salvage* instead of failing the stream. Strict
     * (the default) keeps the old behavior: any defect fails the job.
     */
    bool salvage = false;
};

/** Outcome of one job (one replayed stream). */
struct StreamResult
{
    ReplayStats stats;
    /**
     * Per-state execution counts (index = StateId, slot 0 = NTE) — the
     * per-TBB profile of the stream.
     */
    std::vector<uint64_t> execCounts;
    /** Empty on success; the FatalError message otherwise. */
    std::string error;

    /** Salvage-mode jobs only: did the log tear? (Still counts as ok.) */
    bool salvaged = false;
    /** Why the log tore (empty unless salvaged). */
    std::string salvageReason;
    /** Bytes after the last valid chunk, dropped by salvage. */
    uint64_t salvageBytesDropped = 0;

    /**
     * Per-phase wall-clock profile, stamped only at chunk boundaries
     * so no clock read lands in the transition loop. Deliberately
     * *not* part of ReplayStats: stats stay pure event counts with a
     * defaulted operator== (the determinism checks and the 11-u64 wire
     * encoding depend on that), while timing is scheduler noise that
     * may differ between identical runs.
     */
    uint64_t validateNs = 0; ///< chunk framing + CRC
    uint64_t walkNs = 0;     ///< decode + transition walk
    uint64_t batches = 0;    ///< chunks walked into the replayer

    /** Transition rate over the walk phase, for profiling reports. */
    double
    transitionsPerSec() const
    {
        return walkNs == 0 ? 0.0
                           : static_cast<double>(stats.transitions) *
                                 1e9 / static_cast<double>(walkNs);
    }

    bool ok() const { return error.empty(); }
};

/** Outcome of a whole batch. */
struct BatchResult
{
    /** Per-stream results, in job-submission order. */
    std::vector<StreamResult> streams;
    /** Sum of successful streams' stats, folded in job order. */
    ReplayStats total;
    /**
     * Merged per-TBB profile: elementwise sum of the successful
     * streams' execCounts, folded in job order. Only populated when
     * every job shares one automaton (the common batch shape);
     * otherwise empty, because state ids from different automata are
     * not comparable.
     */
    std::vector<uint64_t> mergedExecCounts;
    /** Jobs that failed (bad log file, corrupt chunk, ...). */
    size_t failures = 0;
};

/**
 * Replay one job synchronously on the calling thread: the unit of work
 * ReplayService fans out over its worker pool. A strict job pushes its
 * whole log through the TraceLogPushReader a served replay streams its
 * REPLAY_CHUNKs through (net/session.hh), so local and remote replays
 * share one walk. Failures are reported in the result, never thrown.
 */
StreamResult runReplayJob(const ReplayJob &job, LookupConfig cfg);

/**
 * A fixed worker pool replaying batches of trace logs.
 *
 * runBatch() blocks until the whole batch completes; per-job failures
 * are reported in the result, never thrown (one corrupt log must not
 * poison the other streams of the batch).
 */
class ReplayService
{
  public:
    /**
     * @param workers pool size; 0 picks hardware_concurrency
     * @param config  lookup configuration for every job's replayer
     */
    explicit ReplayService(size_t workers, LookupConfig config = {});

    /** Replay every job; deterministic merge (see file comment). */
    BatchResult runBatch(const std::vector<ReplayJob> &jobs);

    /**
     * Wire the service to a metrics registry: registers the svc.*
     * counters (batches, streams, stream_failures, transitions,
     * salvaged) and bumps them after every runBatch() merge — on the
     * calling thread, outside the replay hot path. Pass nullptr to
     * detach. The registry must outlive the service.
     */
    void setMetrics(obs::MetricsRegistry *m);

    size_t workers() const { return pool.workers(); }

    /** Jobs submitted but not yet picked up by a worker. */
    size_t pendingJobs() const { return pool.pending(); }

    /** Jobs executed since construction. */
    uint64_t executedJobs() const { return pool.executed(); }

  private:
    LookupConfig cfg;
    ThreadPool pool;

    // Metric handles, null until setMetrics(). Raw pointers into the
    // registry's stable storage (obs/metrics.hh guarantees counters
    // never move once created).
    obs::Counter *mBatches = nullptr;
    obs::Counter *mStreams = nullptr;
    obs::Counter *mFailures = nullptr;
    obs::Counter *mTransitions = nullptr;
    obs::Counter *mSalvaged = nullptr;
};

} // namespace tea

#endif // TEA_SVC_REPLAY_SERVICE_HH
