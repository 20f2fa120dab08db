/**
 * @file
 * The metric catalog in docs/OBSERVABILITY.md, checked against a live
 * server.
 *
 * One store-backed TeaServer serves a scripted mix of traffic: a PUT,
 * resident and cold (mmap fault-in) replays, a failing replay, a
 * RECORD, an abandoned RECORD, a BUSY-bounced connect, an idle
 * eviction and an HTTP scrape. A ReplayService bound to the same
 * registry runs one batch with a torn log in salvage mode, so the
 * `svc.*` instruments it registers appear too. Then the test fails
 *
 * - (a) when the snapshot has an instrument the catalog does not list,
 * - (b) when the catalog lists an instrument the snapshot lacks, or
 *   lists it under another kind,
 * - (c) when a catalog row has no entry in expected() below, the
 *   test's own table of what this traffic must read.
 *
 * Every instrument therefore carries a checked value. The fault and
 * overload counters this traffic can drive without timing luck are
 * driven (busy_rejected, evictions_idle, stream_failures, salvaged,
 * rec.aborted); the rest must read exactly 0 on this clean run, and
 * the test named beside each one drives it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "util/logging.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

enum class Kind
{
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    LabeledHistogram
};

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Counter:
        return "counter";
    case Kind::Gauge:
        return "gauge";
    case Kind::Histogram:
        return "histogram";
    case Kind::LabeledCounter:
        return "labeled counter";
    case Kind::LabeledHistogram:
        return "labeled histogram";
    }
    return "?";
}

/**
 * The catalog tables of docs/OBSERVABILITY.md: every backticked name
 * in the first cell of a table row under "## Metric catalog" (kind from
 * the Counters/Gauges/Histograms lead-in line above the table) and
 * "## Labeled families" (a "(histogram)" note marks a labeled
 * histogram).
 */
std::map<std::string, Kind>
readCatalog()
{
    std::ifstream in(TEA_SOURCE_DIR "/docs/OBSERVABILITY.md");
    EXPECT_TRUE(in.good()) << "docs/OBSERVABILITY.md not found";
    std::map<std::string, Kind> catalog;
    bool inCatalog = false;
    Kind kind = Kind::Counter;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            inCatalog = line == "## Metric catalog" ||
                        line.rfind("## Labeled families", 0) == 0;
            kind = Kind::LabeledCounter;
            continue;
        }
        if (!inCatalog)
            continue;
        if (line.rfind("Counters", 0) == 0)
            kind = Kind::Counter;
        else if (line.rfind("Gauges", 0) == 0)
            kind = Kind::Gauge;
        else if (line.rfind("Histograms", 0) == 0)
            kind = Kind::Histogram;
        if (line.rfind("| `", 0) != 0)
            continue;
        std::string cell = line.substr(1, line.find('|', 1) - 1);
        Kind rowKind = kind;
        if (kind == Kind::LabeledCounter &&
            cell.find("(histogram)") != std::string::npos)
            rowKind = Kind::LabeledHistogram;
        for (size_t at = cell.find('`'); at != std::string::npos;) {
            size_t end = cell.find('`', at + 1);
            EXPECT_NE(end, std::string::npos) << line;
            if (end == std::string::npos)
                break;
            std::string name = cell.substr(at + 1, end - at - 1);
            EXPECT_TRUE(catalog.emplace(name, rowKind).second)
                << name << " has two catalog rows";
            at = cell.find('`', end + 1);
        }
    }
    return catalog;
}

/** One reading per instrument: value, observation count, or series sum. */
struct Reading
{
    Kind kind;
    int64_t value;
};

std::map<std::string, Reading>
readings(const obs::MetricsSnapshot &snap)
{
    std::map<std::string, Reading> out;
    for (const auto &[name, v] : snap.counters)
        out[name] = {Kind::Counter, static_cast<int64_t>(v)};
    for (const auto &[name, v] : snap.gauges)
        out[name] = {Kind::Gauge, v};
    for (const auto &[name, h] : snap.histograms)
        out[name] = {Kind::Histogram, static_cast<int64_t>(h.count)};
    for (const obs::LabeledCounterView &f : snap.labeledCounters) {
        int64_t sum = 0;
        for (const auto &[label, v] : f.series)
            sum += static_cast<int64_t>(v);
        out[f.name] = {Kind::LabeledCounter, sum};
    }
    for (const obs::LabeledHistogramView &f : snap.labeledHistograms) {
        int64_t sum = 0;
        for (const auto &[label, h] : f.series)
            sum += static_cast<int64_t>(h.count);
        out[f.name] = {Kind::LabeledHistogram, sum};
    }
    return out;
}

/**
 * The server's idle timeout. Every scripted connection but the idle one
 * finishes its requests well inside it, even on a loaded sanitizer host.
 */
constexpr uint32_t kIdleMs = 1000;

/** What the traffic below must leave on one instrument. */
struct Expect
{
    enum Op { Eq, AtLeast } op;
    int64_t value;
};

/** What the scripted clients saw, for the exact expectations. */
struct Tally
{
    int64_t requests = 0;  ///< request frames sent (chunks excluded)
    int64_t bytesSent = 0; ///< by every client the server admitted
    int64_t bytesRead = 0; ///< replies clients read, HTTP included
    int64_t connections = 0;      ///< admitted (served) connections
    int64_t remoteTransitions = 0; ///< successful remote replays
    int64_t batchTransitions = 0;  ///< the in-process batch
    int64_t recorded = 0;          ///< transitions fed to recordings
    int64_t recWireBytes = 0;      ///< RECORD_CHUNK payload bytes
    int64_t swaps = 0;             ///< RECORD_RESULT's swap count
    int64_t residentBytes = 0;     ///< store.resident_bytes reading
};

/**
 * The test's own table: what the traffic in
 * Catalog.LiveSnapshotMatchesTheDocument must leave on every catalog
 * instrument. Exact wherever the script fixes the value; a floor where
 * the kernel's read splitting or the clock decides (each of the
 * t.requests requests is one poll return, one consume task and one
 * `request` span at least).
 */
std::map<std::string, Expect>
expected(const Tally &t)
{
    using E = Expect;
    return {
        {"server.requests", {E::Eq, t.requests}},
        // test_obs SlowRequests.* drives it.
        {"server.slow_requests", {E::Eq, 0}},
        {"server.bytes_in", {E::AtLeast, t.bytesSent}},
        {"server.bytes_out", {E::AtLeast, t.bytesRead}},
        {"server.busy_rejected", {E::Eq, 1}},
        {"server.evictions_idle", {E::Eq, 1}},
        // test_net RequestDeadlineEvictsASlowlorisMidFrame drives it.
        {"server.evictions_deadline", {E::Eq, 0}},
        {"server.sessions_served", {E::Eq, t.connections}},
        {"server.request_ms", {E::Eq, t.requests}},
        {"server.active_sessions", {E::Eq, 0}},
        {"server.queue_depth", {E::Eq, 0}},
        {"server.uptime_ms", {E::AtLeast, kIdleMs}}, // the idle wait
        {"loop.iterations", {E::AtLeast, t.requests}},
        {"loop.wakeups", {E::AtLeast, 1}},
        {"loop.timers_fired", {E::AtLeast, 1}}, // the idle eviction
        // test_event_loop's backpressure and hard-cap tests drive
        // these three; replies this small never fill a socket buffer.
        {"loop.writes_deferred", {E::Eq, 0}},
        {"loop.backpressure_stalls", {E::Eq, 0}},
        {"loop.wq_overflow", {E::Eq, 0}},
        {"loop.faults_injected", {E::Eq, 0}}, // test_chaos Benign*
        {"loop.http_requests", {E::Eq, 1}},
        {"loop.latency_ms", {E::AtLeast, t.requests}},
        {"pool.workers", {E::Eq, 2}},
        // test_threadpool's throwing tasks drive the pool's count; a
        // consume task never throws.
        {"pool.failures", {E::Eq, 0}},
        {"pool.task_ms", {E::AtLeast, t.requests}},
        {"log.suppressed", {E::Eq, 0}}, // one warn line: the eviction
        {"spans.pushed", {E::AtLeast, t.requests}},
        {"registry.footprint_bytes", {E::Eq, t.residentBytes}},
        {"svc.batches", {E::Eq, 1}},
        {"svc.streams", {E::Eq, 5}}, // 3 remote, 2 in the batch
        {"svc.stream_failures", {E::Eq, 1}},
        {"svc.transitions",
         {E::Eq, t.remoteTransitions + t.batchTransitions}},
        {"svc.salvaged", {E::Eq, 1}},
        {"svc.streams_by_automaton", {E::Eq, 3}},
        {"svc.transitions_by_automaton", {E::Eq, t.remoteTransitions}},
        {"svc.replay_ms_by_automaton", {E::Eq, 3}},
        {"store.hits", {E::Eq, 2}},
        {"store.misses", {E::Eq, 1}},
        {"store.mmap_loads", {E::Eq, 1}},
        // test_store MetricsCountHitsMissesLoadsEvictions drives it;
        // no budget here.
        {"store.evictions", {E::Eq, 0}},
        {"store.resident", {E::Eq, 2}},
        {"store.resident_bytes", {E::AtLeast, 1}},
        {"store.hits_by_automaton", {E::Eq, 2}},
        {"store.faults_by_automaton", {E::Eq, 1}},
        {"rec.sessions", {E::Eq, 2}},
        {"rec.transitions", {E::Eq, t.recorded}},
        {"rec.swaps", {E::Eq, t.swaps}},
        {"rec.swap_ms", {E::Eq, t.swaps}},
        {"rec.aborted", {E::Eq, 1}},
        {"rec.active", {E::Eq, 0}},
        {"rec.wire_bytes", {E::Eq, t.recWireBytes}},
        {"rec.transitions_by_automaton", {E::Eq, t.recorded}},
    };
}

std::vector<BlockTransition>
transitions(const Program &prog)
{
    std::vector<BlockTransition> out;
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { out.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return out;
}

/** Poll `done` for up to `ms` milliseconds. */
bool
waitFor(const std::function<bool()> &done, int ms)
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
    while (!done()) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

TEST(Catalog, LiveSnapshotMatchesTheDocument)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<BlockTransition> stream = transitions(wl.program);
    std::vector<uint8_t> log;
    {
        TraceLogWriter w(&log);
        for (const BlockTransition &tr : stream)
            w.append(tr);
        w.finish();
    }
    std::vector<uint8_t> torn(log.begin(), log.end() - 4);
    DbtRuntime dbt(wl.program);
    auto tea =
        std::make_shared<const Tea>(buildTea(dbt.record("mret").traces));

    std::string dir = ::testing::TempDir() + "catalog_store_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.storeDir = dir;
    cfg.maxSessions = 2;
    cfg.idleTimeoutMs = kIdleMs;
    cfg.historyIntervalMs = 0;
    TeaServer server(cfg);
    ReplayService batchSvc(1);
    batchSvc.setMetrics(&server.metrics());
    server.start();
    std::string ep = server.endpoint();
    auto counter = [&](const char *name) {
        return server.metrics().snapshot().counterValue(name);
    };

    // One connection per step, closed at once, so no connection but
    // the deliberately idle one ever nears the idle timeout.
    Tally t;
    auto done = [&](TeaClient &c, int64_t requests) {
        t.requests += requests + 1; // + HELLO
        t.bytesSent += static_cast<int64_t>(c.bytesSent());
        t.bytesRead += static_cast<int64_t>(c.bytesReceived());
        ++t.connections;
    };
    {
        TeaClient c = TeaClient::connect(ep);
        c.putAutomaton("gz", *tea);
        // Resident: a store hit.
        t.remoteTransitions += c.replay("gz", log).stats.transitions;
        done(c, 3);
    }
    {
        TeaClient c = TeaClient::connect(ep);
        EXPECT_TRUE(c.evict("gz")); // drops residency; the .teac stays
        // Cold: the store faults the image in by mmap.
        t.remoteTransitions += c.replay("gz", log).stats.transitions;
        done(c, 3);
    }
    {
        TeaClient c = TeaClient::connect(ep);
        EXPECT_THROW(c.replay("gz", torn), FatalError); // stream failure
        done(c, 2);
    }
    {
        TeaClient c = TeaClient::connect(ep);
        RemoteRecordOptions opt;
        opt.swapInterval = 512; // several publishes, most incremental
        RemoteRecordResult res = c.record("rec", stream, opt);
        EXPECT_EQ(res.transitions, stream.size());
        t.swaps = static_cast<int64_t>(res.swaps);
        done(c, 2);
    }
    for (size_t off = 0; off < stream.size();
         off += TraceLogFormat::kChunkRecords) {
        std::vector<uint8_t> chunk;
        encodeWireChunk(chunk, stream.data() + off,
                        std::min<size_t>(TraceLogFormat::kChunkRecords,
                                         stream.size() - off));
        t.recWireBytes += static_cast<int64_t>(chunk.size());
    }
    t.recorded = static_cast<int64_t>(stream.size());
    {
        // Abandoned mid-RECORD: rec.aborted once the session is gone.
        TeaClient c = TeaClient::connect(ep);
        c.recordBegin("gone");
        c.recordChunk(stream.data(), 64);
        std::vector<uint8_t> chunk;
        encodeWireChunk(chunk, stream.data(), 64);
        t.recWireBytes += static_cast<int64_t>(chunk.size());
        t.recorded += 64;
        done(c, 1);
    }
    ASSERT_TRUE(waitFor([&] { return counter("rec.aborted") == 1; }, 5000));
    ASSERT_TRUE(waitFor([&] { return server.activeSessions() == 0; }, 5000));
    {
        // maxSessions = 2: a third connection bounces with BUSY.
        TeaClient a = TeaClient::connect(ep);
        TeaClient b = TeaClient::connect(ep);
        EXPECT_THROW(TeaClient::connect(ep), ServerBusy);
        done(a, 0);
        done(b, 0);
    }
    ASSERT_TRUE(waitFor([&] { return server.activeSessions() == 0; }, 5000));
    {
        // Idle past the timeout: evicted by the server.
        TeaClient idle = TeaClient::connect(ep);
        EXPECT_TRUE(waitFor(
            [&] { return counter("server.evictions_idle") == 1; }, 5000));
        done(idle, 0);
    }
    ASSERT_TRUE(waitFor([&] { return server.activeSessions() == 0; }, 5000));
    // Every byte an admitted client sent was read (the BUSY-bounced
    // HELLO never is); the scrape below adds its own request.
    EXPECT_EQ(static_cast<int64_t>(counter("server.bytes_in")), t.bytesSent);
    HttpReply scrape = httpGet(ep, "/metrics");
    EXPECT_EQ(scrape.status, 200);
    t.bytesRead += static_cast<int64_t>(scrape.headers.size() +
                                        4 /* blank line */ +
                                        scrape.body.size());
    ++t.connections;
    ASSERT_TRUE(waitFor([&] { return server.activeSessions() == 0; }, 5000));

    // In-process batch on the bound service: one strict stream and one
    // torn log salvaged to its chunk prefix.
    std::vector<ReplayJob> jobs(2);
    jobs[0].tea = tea;
    jobs[0].logBytes = &log;
    jobs[1].tea = tea;
    jobs[1].logBytes = &torn;
    jobs[1].salvage = true;
    BatchResult batch = batchSvc.runBatch(jobs);
    EXPECT_EQ(batch.failures, 0u);
    t.batchTransitions = static_cast<int64_t>(batch.total.transitions);

    obs::MetricsSnapshot snap = server.metrics().snapshot();
    std::map<std::string, Reading> live = readings(snap);
    auto resident = live.find("store.resident_bytes");
    t.residentBytes = resident == live.end() ? -1 : resident->second.value;
    std::map<std::string, Expect> want = expected(t);
    std::map<std::string, Kind> catalog = readCatalog();
    ASSERT_FALSE(catalog.empty());

    for (const auto &[name, r] : live) {
        auto it = catalog.find(name);
        if (it == catalog.end())
            ADD_FAILURE() << "(a) " << name << " (" << kindName(r.kind)
                          << ") is exported but has no row in "
                             "docs/OBSERVABILITY.md";
        else
            EXPECT_STREQ(kindName(it->second), kindName(r.kind))
                << "(b) " << name << " is documented as the wrong kind";
    }
    for (const auto &[name, kind] : catalog) {
        auto it = live.find(name);
        if (it == live.end())
            ADD_FAILURE() << "(b) " << name << " (" << kindName(kind)
                          << ") is documented but missing from the "
                             "live snapshot";
        auto w = want.find(name);
        if (w == want.end()) {
            ADD_FAILURE() << "(c) " << name
                          << " has a catalog row but no expected value";
            continue;
        }
        if (it == live.end())
            continue;
        if (w->second.op == Expect::Eq)
            EXPECT_EQ(it->second.value, w->second.value) << name;
        else
            EXPECT_GE(it->second.value, w->second.value) << name;
    }
    for (const auto &[name, w] : want)
        EXPECT_TRUE(catalog.count(name))
            << name << " has an expected value but no catalog row";

    server.stop();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace tea
