#include "net/server.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "net/event_loop.hh"
#include "net/frame.hh"
#include "net/session.hh"
#include "obs/flightrec.hh"
#include "obs/openmetrics.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace tea {

namespace {

uint64_t
steadyMs()
{
    using namespace std::chrono;
    return static_cast<uint64_t>(duration_cast<milliseconds>(
                                     steady_clock::now().time_since_epoch())
                                     .count());
}

} // namespace

TeaServer::TeaServer(ServerConfig config)
    : cfg(std::move(config)),
      spans_(cfg.traceRing),
      pool(cfg.workers != 0
               ? cfg.workers
               : std::max(1u, std::thread::hardware_concurrency() / 2))
{
    if (cfg.maxQueue == 0)
        cfg.maxQueue = 1;
    // Bounds-check the STATS span limit: at least one span, and no
    // more than a sane report can carry (the ring caps it below this).
    cfg.statsSpanLimit =
        std::min<size_t>(std::max<size_t>(cfg.statsSpanLimit, 1), 4096);

    // The metric catalog (docs/OBSERVABILITY.md). Handles are grabbed
    // once here; the hot paths below touch only the cached pointers.
    mRequests = &metrics_.counter("server.requests");
    mSlow = &metrics_.counter("server.slow_requests");
    mBytesIn = &metrics_.counter("server.bytes_in");
    mBytesOut = &metrics_.counter("server.bytes_out");
    mBusy = &metrics_.counter("server.busy_rejected");
    mEvictIdle = &metrics_.counter("server.evictions_idle");
    mEvictDeadline = &metrics_.counter("server.evictions_deadline");
    mSessions = &metrics_.counter("server.sessions_served");
    hRequestMs = &metrics_.histogram("server.request_ms");
    hTaskMs = &metrics_.histogram("pool.task_ms");

    // Event-loop health.
    mLoopIterations = &metrics_.counter("loop.iterations");
    mLoopWakeups = &metrics_.counter("loop.wakeups");
    mLoopTimers = &metrics_.counter("loop.timers_fired");
    mLoopDeferred = &metrics_.counter("loop.writes_deferred");
    mLoopStalls = &metrics_.counter("loop.backpressure_stalls");
    mLoopOverflow = &metrics_.counter("loop.wq_overflow");
    mLoopFaults = &metrics_.counter("loop.faults_injected");
    mHttpRequests = &metrics_.counter("loop.http_requests");
    hLoopMs = &metrics_.histogram("loop.latency_ms");

    svcObs_.spans = &spans_;
    svcObs_.requests = mRequests;
    svcObs_.replays = &metrics_.counter("svc.streams");
    svcObs_.replayFailures = &metrics_.counter("svc.stream_failures");
    svcObs_.transitions = &metrics_.counter("svc.transitions");
    svcObs_.salvaged = &metrics_.counter("svc.salvaged");
    svcObs_.recWireBytes = &metrics_.counter("rec.wire_bytes");
    // Per-automaton families. Named *_by_automaton so they never
    // collide with the scalar family in the OpenMetrics exposition
    // (one family name cannot be both unlabeled and labeled).
    svcObs_.replaysBy =
        &metrics_.labeledCounter("svc.streams_by_automaton");
    svcObs_.transitionsBy =
        &metrics_.labeledCounter("svc.transitions_by_automaton");
    svcObs_.replayMsBy =
        &metrics_.labeledHistogram("svc.replay_ms_by_automaton");

    // Values other objects already maintain are exported as callback
    // gauges, read at snapshot time — no mirrored state to drift.
    metrics_.gaugeFn("server.active_sessions", [this] {
        return static_cast<int64_t>(activeSessions());
    });
    metrics_.gaugeFn("server.queue_depth", [this] {
        return static_cast<int64_t>(pool.pending());
    });
    metrics_.gaugeFn("server.uptime_ms", [this] {
        return static_cast<int64_t>(uptimeMs());
    });
    metrics_.gaugeFn("pool.workers", [this] {
        return static_cast<int64_t>(pool.workers());
    });
    metrics_.gaugeFn("pool.failures", [this] {
        return static_cast<int64_t>(pool.failures());
    });
    metrics_.gaugeFn("log.suppressed", [] {
        return static_cast<int64_t>(sharedWarnLimiter().totalSuppressed());
    });
    metrics_.gaugeFn("spans.pushed", [this] {
        return static_cast<int64_t>(spans_.pushed());
    });
    // Resident compiled bytes: the number the store's maxResidentBytes
    // budget caps, observable whether or not a store is configured.
    metrics_.gaugeFn("registry.footprint_bytes", [this] {
        return static_cast<int64_t>(registry_.footprintBytes());
    });

    if (!cfg.storeDir.empty()) {
        StoreConfig sc;
        sc.dir = cfg.storeDir;
        sc.maxResidentBytes = cfg.storeMaxResidentBytes;
        sc.maxResident = cfg.storeMaxResident;
        store_ = std::make_unique<AutomatonStore>(registry_, sc);
        store_->bindMetrics(metrics_);
        store_->bindTrace(&spans_);
    }

    // The RECORD verb's broker: with a store, hot-swaps publish through
    // replaceResident() and the final snapshot lands on disk.
    recSvc_ = std::make_unique<rec::RecordingService>(registry_,
                                                      store_.get());
    recSvc_->bindMetrics(metrics_);

    // Handles the history sampler reads each tick. counter() is
    // get-or-create by name, so these alias the instruments the store
    // and recorder already bump (or stay zero without a store).
    mRecTransitions = &metrics_.counter("rec.transitions");
    mStoreHits = &metrics_.counter("store.hits");
    mStoreFaults = &metrics_.counter("store.mmap_loads");
    if (cfg.historyIntervalMs != 0) {
        history_ = std::make_unique<obs::HistoryRing>(
            std::vector<std::string>{
                "server.requests", "server.bytes_in",
                "server.bytes_out", "svc.streams", "svc.transitions",
                "rec.transitions", "store.hits", "store.mmap_loads",
                "server.active_sessions"},
            std::max<size_t>(cfg.historyFrames, 2));
    }

    pool.setTaskObserver([this](double ms) { hTaskMs->observe(ms); });
}

std::string
TeaServer::statsReport(bool text) const
{
    obs::MetricsSnapshot snap = metrics_.snapshot();
    if (text)
        return snap.toText();
    JsonWriter w;
    w.beginObject();
    snap.writeJson(w);
    w.key("spans");
    w.beginArray();
    for (const obs::Span &s : spans_.recent(cfg.statsSpanLimit)) {
        w.beginObject();
        w.key("conn");
        w.value(s.conn);
        w.key("request");
        w.value(s.request);
        w.key("phase");
        w.value(obs::spanPhaseName(s.phase));
        w.key("startNs");
        w.value(s.startNs);
        w.key("durNs");
        w.value(s.durNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
TeaServer::historyJson() const
{
    if (history_)
        return history_->toJson();
    JsonWriter w;
    w.beginObject();
    w.key("series");
    w.beginArray();
    w.endArray();
    w.key("frames");
    w.beginArray();
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
TeaServer::openMetricsText() const
{
    return obs::toOpenMetrics(metrics_.snapshot());
}

void
TeaServer::samplerLoop()
{
    std::unique_lock<std::mutex> lock(samplerMu_);
    while (!samplerStop_) {
        recordHistorySample();
        samplerCv_.wait_for(lock,
                            std::chrono::milliseconds(
                                cfg.historyIntervalMs),
                            [this] { return samplerStop_; });
    }
    // One final frame so a drain's last counter movements are kept.
    recordHistorySample();
}

void
TeaServer::recordHistorySample()
{
    std::vector<uint64_t> vals{
        mRequests->value(),
        mBytesIn->value(),
        mBytesOut->value(),
        svcObs_.replays->value(),
        svcObs_.transitions->value(),
        mRecTransitions->value(),
        mStoreHits->value(),
        mStoreFaults->value(),
        static_cast<uint64_t>(activeSessions()),
    };
    history_->record(uptimeMs(), vals);
    obs::FlightRecorder &flight = obs::FlightRecorder::instance();
    if (flight.armed()) {
        // Keep the black box current: a crash between frames still
        // dumps the last completed one.
        std::string json = history_->toJson();
        flight.noteHistoryJson(json.data(), json.size());
    }
}

TeaServer::~TeaServer()
{
    stop();
}

void
TeaServer::start()
{
    if (started.exchange(true))
        panic("tead server: started twice");
    startedAtMs.store(steadyMs());
    listener = Listener::open(Endpoint::parse(cfg.endpoint));
    loop_.start();
    if (history_)
        samplerThread_ = std::thread([this] { samplerLoop(); });
}

size_t
TeaServer::activeSessions() const
{
    return loop_.liveConns();
}

uint64_t
TeaServer::uptimeMs() const
{
    uint64_t at = startedAtMs.load();
    return at == 0 ? 0 : steadyMs() - at;
}

std::string
TeaServer::endpoint() const
{
    return started.load() ? listener.local().str() : cfg.endpoint;
}

uint16_t
TeaServer::port() const
{
    return listener.local().port;
}

std::unique_ptr<Session>
TeaServer::makeSession(uint64_t connId)
{
    auto session = std::make_unique<Session>(registry_);
    session->setStore(store_.get());
    session->setRecorder(recSvc_.get(), cfg.recordSwapInterval);
    session->setStatusFn([this] {
        ServerStatus st;
        st.queueDepth = static_cast<uint32_t>(
            std::min<size_t>(pool.pending(), UINT32_MAX));
        st.activeSessions = static_cast<uint32_t>(
            std::min<size_t>(activeSessions(), UINT32_MAX));
        st.uptimeMs = uptimeMs();
        return st;
    });
    session->setStatsFn([this](bool text) { return statsReport(text); });
    SessionObs ob = svcObs_;
    ob.conn = connId;
    session->setObs(ob);
    return session;
}

void
TeaServer::stop()
{
    if (!started.load() || stopped.exchange(true))
        return;
    stopping.store(true);
    if (samplerThread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(samplerMu_);
            samplerStop_ = true;
        }
        samplerCv_.notify_all();
        samplerThread_.join();
    }
    // The loop drains itself: accepts stop, in-flight consume tasks
    // finish, queued replies flush, stragglers are evicted at the drain
    // deadline. The listener closes after the loop thread joined — it
    // owns the fd's poller registration.
    loop_.stop();
    listener.close();
    pool.drain();
}

} // namespace tea
