/**
 * @file
 * TeaServer: the networked replay service ("tead").
 *
 * The paper's automata are pure data, so the replay side can be a
 * remote service: clients upload serialized TEAs into the server's
 * AutomatonRegistry and stream trace logs at it; the server replays
 * each stream and returns its ReplayStats (plus the per-TBB profile on
 * request). Results are computed by the same runReplayJob() the
 * in-process ReplayService uses, so a remote replay is bit-identical
 * to a local one — enforced by tests/test_net.cc and
 * bench/net_throughput.
 *
 * Concurrency model — one event-loop thread owns every socket, the
 * ThreadPool runs the work (mechanics in net/event_loop.hh):
 *
 * - the loop accepts, reads and writes; each batch of bytes a
 *   connection sends becomes one Session::consume() task on the pool,
 *   so `workers` bounds concurrent replay/record work, not the number
 *   of connections — an idle client costs memory, not a thread;
 * - admission control is checked at accept: when `maxQueue` consume
 *   tasks already wait for a worker (ThreadPool::pending()), or
 *   `maxSessions` connections are live, the new connection gets one
 *   BUSY frame — carrying the queue depth and the cap, so the client
 *   can log *why* and back off smarter — and is closed once it
 *   flushes: backpressure instead of unbounded memory;
 * - connections carry deadlines, kept as timer-wheel clocks:
 *   `idleTimeoutMs` bounds how long a connection may sit sending
 *   nothing, `requestDeadlineMs` bounds how long one request (a partial
 *   frame, or an open replay stream) may take end to end. A dead peer
 *   trips the idle clock; a slowloris trickling a byte at a time keeps
 *   the idle clock happy but trips the request clock. Either way the
 *   server sends a best-effort fatal ERROR frame, counts the eviction,
 *   and emits a rate-limited warning — a flapping client cannot flood
 *   the log;
 * - stop() is graceful: accepts and reads stop, a consume task already
 *   running completes and its reply is flushed to the client before
 *   the connection closes, and stragglers are cut at `drainDeadlineMs`.
 *   stop() returns only after the loop thread and every task finished.
 */

#ifndef TEA_NET_SERVER_HH
#define TEA_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/event_loop.hh"
#include "net/fault.hh"
#include "net/session.hh"
#include "net/socket.hh"
#include "obs/history.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/registry.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace tea {

struct ServerConfig
{
    /** "tcp:host:port" (port 0 = ephemeral) or "unix:/path". */
    std::string endpoint = "tcp:127.0.0.1:0";
    /**
     * Session workers; 0 picks max(1, hardware_concurrency / 2). On a
     * 4-thread host, servebench's two-client replay-fleet ran at p50
     * 0.95 / 0.67 / 0.64 ms with 1 / 2 / 4 workers, and peak RSS rose
     * 6.7 -> 7.9 MiB from 2 to 4: each worker keeps a malloc arena.
     */
    size_t workers = 0;
    /** Consume tasks allowed to wait for a worker before BUSY (≥ 1). */
    size_t maxQueue = 64;
    /** Live-connection cap before BUSY; 0 = no cap. */
    size_t maxSessions = 0;
    /**
     * Evict a connection that sends nothing for this long (ms);
     * 0 disables. A stalled or dead client stops holding its slot.
     */
    uint32_t idleTimeoutMs = 0;
    /**
     * Evict a connection whose single request (first byte of a frame
     * through to its completion, or REPLAY_BEGIN through REPLAY_END)
     * exceeds this budget (ms); 0 disables. Catches slowloris clients
     * that trickle bytes fast enough to dodge the idle clock.
     */
    uint32_t requestDeadlineMs = 0;
    /**
     * Log (rate-limited, with the request's per-phase span breakdown)
     * any request slower than this many milliseconds; 0 disables the
     * slow-request log. Every slow request also bumps the
     * server.slow_requests counter regardless of log rate limiting.
     */
    uint32_t slowRequestMs = 0;
    /** Span ring capacity (entries; rounded up to a power of two). */
    size_t traceRing = 1024;
    /**
     * Persistent automaton store directory (store/store.hh); empty
     * disables the store and keeps the RAM-only registry. With a store,
     * PUTs write `.teac` images through to disk and replays of cold
     * names fault them in by mmap — no recompile on restart.
     */
    std::string storeDir;
    /** Resident-tier budgets for the store; 0 = unlimited. */
    size_t storeMaxResidentBytes = 0;
    size_t storeMaxResident = 0;
    /**
     * Default hot-swap interval for RECORD sessions (transitions fed
     * between publish attempts); a client's RECORD_BEGIN may override
     * it per recording.
     */
    uint32_t recordSwapInterval = 4096;

    /**
     * Spans included in a STATS reply and statsReport() (newest
     * first). Clamped to [1, 4096] at construction; the span ring's
     * own capacity is the effective ceiling below that.
     */
    size_t statsSpanLimit = 64;
    /**
     * Cadence of the metrics history sampler (ms): a background thread
     * snapshots a fixed set of counters into the delta-compressed
     * history ring (obs/history.hh) this often, serving
     * `teadbt stats --history` and GET /history.json. 0 disables the
     * sampler and the ring entirely.
     */
    uint32_t historyIntervalMs = 1000;
    /** Frames the history ring retains (raised to 2 when sampling). */
    size_t historyFrames = 120;

    // ----- event-loop tuning -----

    /**
     * Hard cap on one connection's queued-but-unsent reply bytes. A
     * peer that stops reading while requesting more output is fatally
     * closed when its queue would pass this — per-connection memory is
     * bounded no matter what the peer does.
     */
    size_t maxWriteQueueBytes = 64u << 20;
    /**
     * Stop reading from a connection whose write queue passes this
     * (backpressure: its next request would only pile more replies
     * onto a peer that is not draining the current ones) ...
     */
    size_t writeHighWatermark = 4u << 20;
    /** ... and resume reading once the queue drains below this. */
    size_t writeLowWatermark = 1u << 20;
    /**
     * stop()'s patience: a connection still holding unflushed replies
     * (or an unfinished consume) this long after drain began is
     * evicted. 0 means close stragglers immediately.
     */
    uint32_t drainDeadlineMs = 2000;
    /** Use the poll(2) backend even where epoll is available (tests). */
    bool loopForcePoll = false;
    /**
     * Chaos-test fault injection on the loop's nonblocking sockets
     * (EAGAIN storms, partial writes, spurious readiness). Default:
     * nothing armed, exact pass-through.
     */
    FaultConfig loopFaults;
    uint64_t loopFaultSeed = 1;
};

class TeaServer
{
  public:
    explicit TeaServer(ServerConfig config);

    /** Calls stop(). */
    ~TeaServer();

    TeaServer(const TeaServer &) = delete;
    TeaServer &operator=(const TeaServer &) = delete;

    /**
     * Bind, listen, and start accepting. @throws FatalError when the
     * endpoint cannot be bound. One-shot: a stopped server does not
     * restart.
     */
    void start();

    /** Graceful shutdown (see file comment); idempotent. */
    void stop();

    /** The bound endpoint with any ephemeral port resolved. */
    std::string endpoint() const;

    /** Resolved TCP port (0 for Unix endpoints). */
    uint16_t port() const;

    /** The resident automaton tier; preload or inspect it directly. */
    AutomatonRegistry &registry() { return registry_; }

    /** The persistent store, or nullptr when storeDir is empty. */
    AutomatonStore *store() { return store_.get(); }

    /** The RECORD verb's session broker (always present). */
    rec::RecordingService &recorder() { return *recSvc_; }

    size_t workers() const { return pool.workers(); }

    /** Consume tasks queued behind busy workers. */
    size_t queueDepth() const { return pool.pending(); }

    /** Live admitted connections (BUSY-bounced ones excluded). */
    size_t activeSessions() const;

    /** Milliseconds since start(); 0 before it. */
    uint64_t uptimeMs() const;

    // Counters for the CLI's exit report and the tests.
    uint64_t sessionsServed() const { return mSessions->value(); }
    uint64_t busyRejected() const { return mBusy->value(); }
    /** Connections evicted by a deadline or the write-queue cap. */
    uint64_t
    sessionsEvicted() const
    {
        return mEvictIdle->value() + mEvictDeadline->value();
    }
    /** Requests that exceeded ServerConfig::slowRequestMs. */
    uint64_t slowRequests() const { return mSlow->value(); }

    /** The server's metric store (counters, gauges, histograms). */
    obs::MetricsRegistry &metrics() { return metrics_; }

    /** The span ring every session traces into. */
    const obs::SpanRing &spans() const { return spans_; }

    /**
     * Render the full observability snapshot: every metric plus the
     * newest spans (ServerConfig::statsSpanLimit of them). text=false
     * yields the JSON document the STATS frame and `teadbt stats
     * --json` serve; text=true the human rendering. Callable from any
     * thread.
     */
    std::string statsReport(bool text) const;

    /**
     * The history ring as `{"series": [...], "frames": [[tMs, v...],
     * ...]}` (GET /history.json); an empty document when the sampler
     * is disabled.
     */
    std::string historyJson() const;

    /** The metrics snapshot as OpenMetrics text (GET /metrics). */
    std::string openMetricsText() const;

    /** True once stop() began: GET /healthz answers 503 then. */
    bool draining() const { return stopping.load(); }

  private:
    friend class EventLoop; ///< the loop is this class's engine

    /** A Session wired to this server's registry, store and metrics. */
    std::unique_ptr<Session> makeSession(uint64_t connId);

    ServerConfig cfg;
    AutomatonRegistry registry_;
    std::unique_ptr<AutomatonStore> store_; ///< set when storeDir != ""
    std::unique_ptr<rec::RecordingService> recSvc_;

    // Observability state. Declared before the pool so the worker
    // threads (and their task observer) die before the instruments.
    obs::MetricsRegistry metrics_;
    obs::SpanRing spans_;
    obs::Counter *mRequests;       ///< server.requests
    obs::Counter *mSlow;           ///< server.slow_requests
    obs::Counter *mBytesIn;        ///< server.bytes_in
    obs::Counter *mBytesOut;       ///< server.bytes_out
    obs::Counter *mBusy;           ///< server.busy_rejected
    obs::Counter *mEvictIdle;      ///< server.evictions_idle
    obs::Counter *mEvictDeadline;  ///< server.evictions_deadline
    obs::Counter *mSessions;       ///< server.sessions_served
    obs::Histogram *hRequestMs;    ///< server.request_ms
    obs::Histogram *hTaskMs;       ///< pool.task_ms
    // Event-loop health.
    obs::Counter *mLoopIterations; ///< loop.iterations
    obs::Counter *mLoopWakeups;    ///< loop.wakeups
    obs::Counter *mLoopTimers;     ///< loop.timers_fired
    obs::Counter *mLoopDeferred;   ///< loop.writes_deferred
    obs::Counter *mLoopStalls;     ///< loop.backpressure_stalls
    obs::Counter *mLoopOverflow;   ///< loop.wq_overflow
    obs::Counter *mLoopFaults;     ///< loop.faults_injected
    obs::Counter *mHttpRequests;   ///< loop.http_requests
    obs::Histogram *hLoopMs;       ///< loop.latency_ms
    // Handles the history sampler reads (owned by other subsystems'
    // catalogs; counter() is get-or-create so these alias them).
    obs::Counter *mRecTransitions; ///< rec.transitions
    obs::Counter *mStoreHits;      ///< store.hits
    obs::Counter *mStoreFaults;    ///< store.mmap_loads
    SessionObs svcObs_; ///< per-session template; conn id stamped in

    // History sampler: a thread recording counter values into the ring
    // every historyIntervalMs, stopped via the cv. Null/never started
    // when historyIntervalMs == 0.
    std::unique_ptr<obs::HistoryRing> history_;
    std::thread samplerThread_;
    std::mutex samplerMu_;
    std::condition_variable samplerCv_;
    bool samplerStop_ = false;
    void samplerLoop();
    void recordHistorySample();

    ThreadPool pool;
    Listener listener;
    EventLoop loop_{*this}; ///< started by start()

    std::atomic<bool> started{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopped{false};
    std::atomic<uint64_t> startedAtMs{0}; ///< steady clock, for uptime
};

} // namespace tea

#endif // TEA_NET_SERVER_HH
