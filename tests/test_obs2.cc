/**
 * @file
 * Observability v2: labeled per-automaton instruments, the time-series
 * history ring, OpenMetrics exposition on the shared listener, and the
 * flight recorder.
 *
 * The load-bearing assertions:
 *
 * - labeled counter totals are exact once writer threads join, and
 *   raced at() calls for one label resolve to one instrument;
 * - label cardinality is bounded: past maxLabels every new label lands
 *   in the shared `other` series;
 * - histogram quantiles interpolate linearly and clamp the +inf bucket
 *   to the last finite bound, and the snapshot JSON carries them;
 * - the history ring's delta codec round-trips exactly, including
 *   across base-frame eviction;
 * - a `GET /metrics` against the event-loop wire listener returns
 *   OpenMetrics with per-automaton labeled series after a replay (the
 *   acceptance criterion), and /healthz, /history.json, and unknown
 *   paths behave;
 * - /history.json and /flight.json, the documents `teadbt` fetches,
 *   are served on tcp: and unix: listeners alike;
 * - a SIGSEGV in a forked child leaves a parseable flight dump behind.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/flightrec.hh"
#include "obs/history.hh"
#include "obs/metrics.hh"
#include "obs/openmetrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "util/logging.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

/** Record a workload's transition stream into an in-memory log. */
std::vector<uint8_t>
recordLog(const Program &prog)
{
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { writer.append(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    writer.finish();
    return bytes;
}

Tea
recordTea(const Program &prog)
{
    DbtRuntime dbt(prog);
    return buildTea(dbt.record("mret").traces);
}

std::string
tempPath(const std::string &tag)
{
    static std::atomic<int> seq{0};
    return ::testing::TempDir() + "obs2_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(seq.fetch_add(1));
}

// ------------------------------------------------------ labeled metrics

TEST(Labeled, CounterTotalsAreExactAfterJoin)
{
    obs::LabeledCounter family("automaton");
    const std::vector<std::string> labels = {"a", "b", "c", "d"};
    constexpr uint64_t kPerThread = 20000;
    constexpr int kThreads = 8;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            obs::Counter &c = family.at(labels[t % labels.size()]);
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (std::thread &t : threads)
        t.join();

    auto series = family.series();
    ASSERT_EQ(series.size(), labels.size());
    uint64_t total = 0;
    for (const auto &[label, v] : series) {
        EXPECT_EQ(v, 2 * kPerThread) << label;
        total += v;
    }
    EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(Labeled, OverflowRoutesToOtherAndStaysBounded)
{
    obs::LabeledCounter family("automaton", /*maxLabels=*/2);
    family.at("one").inc(1);
    family.at("two").inc(2);
    // The cap is hit: every further label shares one catch-all series.
    obs::Counter &c3 = family.at("three");
    obs::Counter &c4 = family.at("four");
    EXPECT_EQ(&c3, &c4);
    c3.inc(5);
    c4.inc(7);

    auto series = family.series();
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0].first, "one");
    EXPECT_EQ(series[0].second, 1u);
    EXPECT_EQ(series[1].first, std::string(obs::kOtherLabel));
    EXPECT_EQ(series[1].second, 12u);
    EXPECT_EQ(series[2].first, "two");

    // A known label still resolves to its own series after the cap.
    EXPECT_EQ(&family.at("one"), &family.at("one"));
}

TEST(Labeled, RacedRegistrationResolvesToOneInstrument)
{
    obs::MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 10000;
    std::vector<obs::Counter *> handles(kThreads, nullptr);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Race the family registration AND the label interning.
            obs::LabeledCounter &fam =
                reg.labeledCounter("svc.raced_by_automaton");
            obs::Counter &c = fam.at("same");
            handles[t] = &c;
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (std::thread &t : threads)
        t.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(handles[t], handles[0]);
    EXPECT_EQ(reg.snapshot().labeledValue("svc.raced_by_automaton",
                                          "same"),
              kThreads * kPerThread);
}

TEST(Labeled, HistogramSeriesMergeAndOverflow)
{
    obs::LabeledHistogram family("automaton", {1.0, 10.0},
                                 /*maxLabels=*/1);
    family.at("hot").observe(0.5);
    family.at("hot").observe(5.0);
    obs::Histogram &spill = family.at("cold");
    EXPECT_EQ(&spill, &family.at("colder"));
    spill.observe(100.0);

    auto series = family.series();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].first, "hot");
    EXPECT_EQ(series[0].second.count, 2u);
    EXPECT_EQ(series[1].first, std::string(obs::kOtherLabel));
    EXPECT_EQ(series[1].second.count, 1u);
}

// ------------------------------------------------------------- quantiles

TEST(Quantile, LinearInterpolationIsExact)
{
    obs::Histogram h({10.0, 20.0, 40.0});
    h.observe(5.0);  // bucket ≤10
    h.observe(15.0); // bucket ≤20
    h.observe(25.0); // bucket ≤40
    h.observe(35.0); // bucket ≤40
    obs::HistogramView v = h.view();

    // rank = q * 4; lerp inside the holding bucket.
    EXPECT_DOUBLE_EQ(obs::quantile(v, 0.50), 20.0);
    EXPECT_DOUBLE_EQ(obs::quantile(v, 0.90), 36.0);
    EXPECT_DOUBLE_EQ(obs::quantile(v, 0.99), 39.6);
}

TEST(Quantile, InfBucketClampsAndEmptyIsZero)
{
    obs::Histogram h({10.0, 40.0});
    EXPECT_DOUBLE_EQ(obs::quantile(h.view(), 0.5), 0.0);
    h.observe(1000.0); // lands past the last bound
    EXPECT_DOUBLE_EQ(obs::quantile(h.view(), 0.5), 40.0);
    EXPECT_DOUBLE_EQ(obs::quantile(h.view(), 0.99), 40.0);
}

TEST(Quantile, SnapshotJsonCarriesExactQuantiles)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("svc.q_ms", {10.0, 20.0, 40.0});
    h.observe(5.0);
    h.observe(15.0);
    h.observe(25.0);
    h.observe(35.0);
    std::string json = reg.snapshot().toJson();
    EXPECT_NE(json.find("\"p50\": 20"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p90\": 36"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\": 39.6"), std::string::npos) << json;
}

// --------------------------------------------------------------- history

TEST(History, DeltaRoundTripSurvivesEviction)
{
    obs::HistoryRing ring({"a", "b", "c"}, /*maxFrames=*/4);
    // Values move in both directions, so the zigzag path is exercised;
    // 10 frames against a 4-frame cap forces six base evictions.
    std::vector<obs::HistoryRing::Frame> want;
    for (uint64_t i = 0; i < 10; ++i) {
        obs::HistoryRing::Frame f;
        f.tMs = 100 * i;
        f.values = {i * 1000, 5000 - i * 13, (i % 3) * 7};
        ring.record(f.tMs, f.values);
        want.push_back(std::move(f));
    }
    want.erase(want.begin(), want.end() - 4);

    ASSERT_EQ(ring.frameCount(), 4u);
    std::vector<obs::HistoryRing::Frame> got = ring.frames();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].tMs, want[i].tMs);
        EXPECT_EQ(got[i].values, want[i].values);
    }
    EXPECT_GT(ring.encodedBytes(), 0u);

    std::string json = ring.toJson();
    EXPECT_NE(json.find("\"series\": [\"a\", \"b\", \"c\"]"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"frames\""), std::string::npos);
    // The newest frame's absolutes survived the codec into the JSON.
    EXPECT_NE(json.find("[900, 9000, 4883, 0]"), std::string::npos)
        << json;
}

// ----------------------------------------------------------- openmetrics

TEST(OpenMetrics, NamesAreFlattenedAndPrefixed)
{
    EXPECT_EQ(obs::openMetricsName("svc.replay-ms"),
              "tea_svc_replay_ms");
    EXPECT_EQ(obs::openMetricsName("loop.wakeups"), "tea_loop_wakeups");
}

TEST(OpenMetrics, RendersCountersHistogramsAndLabels)
{
    obs::MetricsRegistry reg;
    reg.counter("svc.streams").inc(3);
    reg.gauge("svc.depth").set(-2);
    obs::Histogram &h = reg.histogram("svc.ms", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    reg.labeledCounter("svc.streams_by_automaton").at("gz\"ip").inc(2);

    std::string om = obs::toOpenMetrics(reg.snapshot());
    EXPECT_NE(om.find("# TYPE tea_svc_streams counter\n"
                      "tea_svc_streams_total 3\n"),
              std::string::npos)
        << om;
    EXPECT_NE(om.find("# TYPE tea_svc_depth gauge\ntea_svc_depth -2\n"),
              std::string::npos);
    // Histogram buckets are cumulative and close with +Inf.
    EXPECT_NE(om.find("tea_svc_ms_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(om.find("tea_svc_ms_bucket{le=\"10\"} 2"),
              std::string::npos);
    EXPECT_NE(om.find("tea_svc_ms_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(om.find("tea_svc_ms_count 2"), std::string::npos);
    // Labeled series carry the label pair, value escaped.
    EXPECT_NE(om.find("tea_svc_streams_by_automaton_total"
                      "{automaton=\"gz\\\"ip\"} 2"),
              std::string::npos)
        << om;
    // Spec framing: the document ends with # EOF.
    EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6);
}

// ----------------------------------------------- http on the wire listener

TEST(Http, MetricsHealthHistoryAnd404OnSharedListener)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    Tea tea = recordTea(wl.program);

    ServerConfig cfg;
    cfg.workers = 2;
    cfg.historyIntervalMs = 50; // fast sampler so /history.json fills
    TeaServer server(cfg);
    server.start();

    // Wire traffic first: the same listener must still speak frames.
    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("gz", tea);
    client.replay("gz", log);
    client.close();

    HttpReply metrics = httpGet(server.endpoint(), "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.headers.find("application/openmetrics-text"),
              std::string::npos);
    // The acceptance criterion: per-automaton labeled series after a
    // replay, attributed to the name the client replayed under.
    EXPECT_NE(metrics.body.find("tea_svc_streams_by_automaton_total"
                                "{automaton=\"gz\"} 1"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("tea_svc_transitions_by_automaton_total"
                                "{automaton=\"gz\"}"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("tea_svc_replay_ms_by_automaton_bucket"
                                "{automaton=\"gz\",le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("# EOF\n"), std::string::npos);

    HttpReply health = httpGet(server.endpoint(), "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    // Wait for at least two sampler frames, then fetch the history.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    HttpReply hist = httpGet(server.endpoint(), "/history.json");
    EXPECT_EQ(hist.status, 200);
    EXPECT_NE(hist.body.find("\"svc.streams\""), std::string::npos)
        << hist.body;
    EXPECT_NE(hist.body.find("\"frames\""), std::string::npos);

    EXPECT_EQ(httpGet(server.endpoint(), "/nope").status, 404);

    // Query strings are routing noise, not a different resource.
    EXPECT_EQ(httpGet(server.endpoint(), "/healthz?probe=1").status, 200);

    // The scrapes were counted on the shared loop.
    EXPECT_GE(server.metrics().snapshot().counterValue(
                  "loop.http_requests"),
              5u);
    server.stop();
}

TEST(Http, HistoryAndFlightDocumentsOnUnixAndTcpListeners)
{
    // The two documents `teadbt stats --history` and `teadbt
    // flight-dump` GET, through the same helper, on both listener
    // families: the loop sniffs `GET ` on every listener.
    for (const std::string &endpoint :
         {std::string("tcp:127.0.0.1:0"),
          "unix:" + tempPath("http") + ".sock"}) {
        ServerConfig cfg;
        cfg.endpoint = endpoint;
        cfg.workers = 1;
        cfg.historyIntervalMs = 50;
        TeaServer server(cfg);
        server.start();
        std::this_thread::sleep_for(std::chrono::milliseconds(120));

        HttpReply hist = httpGet(server.endpoint(), "/history.json");
        EXPECT_EQ(hist.status, 200) << endpoint;
        EXPECT_NE(hist.headers.find("Content-Type: application/json"),
                  std::string::npos)
            << hist.headers;
        EXPECT_NE(hist.body.find("\"series\""), std::string::npos)
            << hist.body;
        EXPECT_NE(hist.body.find("\"server.requests\""),
                  std::string::npos);

        HttpReply flight = httpGet(server.endpoint(), "/flight.json");
        EXPECT_EQ(flight.status, 200) << endpoint;
        EXPECT_NE(flight.body.find("\"reason\": \"http\""),
                  std::string::npos)
            << flight.body;
        EXPECT_NE(flight.body.find("\"version\": 1"), std::string::npos);
        server.stop();
    }
}

TEST(Http, StatsSpanLimitBoundsTheSnapshot)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    Tea tea = recordTea(wl.program);

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.statsSpanLimit = 2;
    cfg.historyIntervalMs = 0; // no sampler: deterministic span count
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("gz", tea);
    for (int i = 0; i < 4; ++i)
        client.replay("gz", log); // >> 2 spans pushed
    std::string json = client.stats(false);
    client.close();
    server.stop();

    size_t phases = 0;
    for (size_t at = json.find("\"phase\""); at != std::string::npos;
         at = json.find("\"phase\"", at + 1))
        ++phases;
    EXPECT_EQ(phases, 2u) << json;
    EXPECT_GT(server.spans().pushed(), 2u);
}

// ------------------------------------------------------- store attribution

TEST(StoreObs, FaultInEmitsSpanAndLabeledCounters)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    Tea tea = recordTea(wl.program);

    std::string dir = tempPath("store");
    AutomatonRegistry reg;
    AutomatonStore store(reg, StoreConfig{dir});
    obs::MetricsRegistry metrics;
    obs::SpanRing spans(64);
    store.bindMetrics(metrics);
    store.bindTrace(&spans);

    store.put("alpha", std::make_shared<const Tea>(std::move(tea)));
    ASSERT_TRUE(store.get("alpha")); // resident hit
    ASSERT_TRUE(store.evictResident("alpha"));
    ASSERT_TRUE(store.get("alpha")); // cold: mmap fault-in

    obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.labeledValue("store.hits_by_automaton", "alpha"), 1u);
    EXPECT_EQ(snap.labeledValue("store.faults_by_automaton", "alpha"),
              1u);

    bool sawFault = false;
    for (const obs::Span &s : spans.recent(64))
        if (s.phase == obs::SpanPhase::StoreFaultIn) {
            sawFault = true;
            EXPECT_GT(s.durNs, 0u);
        }
    EXPECT_TRUE(sawFault);
    std::remove((dir + "/alpha.teac").c_str());
    ::rmdir(dir.c_str());
}

// --------------------------------------------------------- flight recorder

TEST(Flight, LogRingRetainsNewestAndRendersJson)
{
    obs::FlightRecorder rec;
    rec.setFingerprint("unit-test fingerprint");
    for (size_t i = 0; i < obs::FlightRecorder::kMaxLogs + 8; ++i)
        rec.noteLog("warn", ("message-" + std::to_string(i)).c_str());
    EXPECT_EQ(rec.logCount(), obs::FlightRecorder::kMaxLogs);

    obs::SpanRing spans(8);
    obs::Span s;
    s.phase = obs::SpanPhase::StoreFaultIn;
    s.startNs = 1;
    s.durNs = 42;
    spans.push(s);
    rec.attachSpans(&spans);
    rec.noteHistoryJson("{\"series\": []}", 14);

    std::string json = rec.toJson("unit");
    EXPECT_NE(json.find("\"reason\": \"unit\""), std::string::npos);
    EXPECT_NE(json.find("unit-test fingerprint"), std::string::npos);
    // Oldest lines fell off the ring; the newest survived.
    EXPECT_EQ(json.find("\"message-0\""), std::string::npos);
    EXPECT_NE(json.find("message-71"), std::string::npos) << json;
    EXPECT_NE(json.find("store.fault_in"), std::string::npos);
    EXPECT_NE(json.find("\"history\": {\"series\": []}"),
              std::string::npos)
        << json;
}

TEST(Flight, TruncatesOversizeInputsInsteadOfGrowing)
{
    obs::FlightRecorder rec;
    std::string longMsg(obs::FlightRecorder::kMaxLogMsg * 3, 'x');
    rec.noteLog("a-very-long-tag-name-here", longMsg.c_str());
    EXPECT_EQ(rec.logCount(), 1u);
    std::string json = rec.toJson("trunc");
    // The stored message is bounded; the render still closes cleanly.
    EXPECT_EQ(json.find(longMsg), std::string::npos);
    ASSERT_GE(json.size(), 2u);
    EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(Flight, DumpNowWritesTheArmedPath)
{
    std::string path = tempPath("flight") + ".json";
    obs::FlightRecorder &rec = obs::FlightRecorder::instance();
    rec.setFingerprint("dump-now test");
    rec.arm(path);
    ASSERT_TRUE(rec.armed());
    EXPECT_EQ(rec.path(), path);
    ASSERT_TRUE(rec.dumpNow("graceful"));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();
    EXPECT_NE(doc.find("\"reason\": \"graceful\""), std::string::npos);
    EXPECT_NE(doc.find("dump-now test"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Flight, FatalLogLinesAreTeedIntoTheBox)
{
    obs::FlightRecorder &rec = obs::FlightRecorder::instance();
    std::string path = tempPath("flightlog") + ".json";
    rec.arm(path); // arming installs the log sink tee
    size_t before = rec.logCount();
    try {
        fatal("obs2 flight tee probe %d", 7);
    } catch (const FatalError &) {
    }
    EXPECT_GT(rec.logCount(), before);
    EXPECT_NE(rec.toJson("check").find("obs2 flight tee probe 7"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Flight, SigsegvInForkedChildWritesAParseableDump)
{
    std::string path = tempPath("crash") + ".json";
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm the black box, push some state, then die the way
        // a real crash does. _exit on any unexpected path so gtest
        // never runs twice.
        obs::FlightRecorder &rec = obs::FlightRecorder::instance();
        rec.setFingerprint("chaos-child");
        rec.noteLog("info", "child about to crash");
        rec.arm(path);
        ::raise(SIGSEGV);
        ::_exit(97); // unreachable when the handler re-raises
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no flight dump at " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();
    EXPECT_NE(doc.find("\"reason\": \"SIGSEGV\""), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("chaos-child"), std::string::npos);
    EXPECT_NE(doc.find("child about to crash"), std::string::npos);
    // Structurally a JSON object: opens and closes.
    ASSERT_GE(doc.size(), 2u);
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.substr(doc.size() - 2), "}\n");
    std::remove(path.c_str());
}

} // namespace
} // namespace tea
