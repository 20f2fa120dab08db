/**
 * @file
 * The observability layer: sharded metrics, span tracing, and their
 * end-to-end exposure through the STATS wire frame.
 *
 * The load-bearing assertions:
 *
 * - counter totals are *exact* once writer threads join, despite every
 *   increment being a relaxed atomic on a per-thread shard;
 * - histogram bucket boundaries are inclusive upper bounds;
 * - the span ring survives wrap and concurrent writers without losing
 *   coherence (a reader may skip a slot, never tear one);
 * - a loopback STATS exchange reports request/transition counters that
 *   match the client-side tally bit-for-bit (the scripted-exchange
 *   acceptance criterion);
 * - the slow-request log fires for an injected-latency request and
 *   stays silent otherwise.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/frame.hh"
#include "net/server.hh"
#include "net/session.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/serialize.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
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

/** Record traces with the DBT side and build the automaton. */
Tea
recordTea(const Program &prog)
{
    DbtRuntime dbt(prog);
    return buildTea(dbt.record("mret").traces);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterTotalsAreExactAfterJoin)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("test.ops");
    constexpr int kWriters = 8;
    constexpr uint64_t kPerWriter = 200000;

    // Snapshot readers race the writers on purpose: a mid-write
    // snapshot may miss in-flight increments but must never exceed the
    // true total or crash.
    std::atomic<bool> stop{false};
    std::vector<std::thread> snappers;
    for (int s = 0; s < 2; ++s)
        snappers.emplace_back([&] {
            while (!stop.load()) {
                uint64_t v = reg.snapshot().counterValue("test.ops");
                ASSERT_LE(v, kWriters * kPerWriter);
            }
        });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerWriter; ++i)
                c.inc();
        });
    for (std::thread &t : writers)
        t.join();
    stop.store(true);
    for (std::thread &t : snappers)
        t.join();

    // Exact, not approximate: after join the relaxed adds are all
    // visible because thread join is a synchronizing handoff.
    EXPECT_EQ(c.value(), kWriters * kPerWriter);
    EXPECT_EQ(reg.snapshot().counterValue("test.ops"),
              kWriters * kPerWriter);
}

TEST(Metrics, RegistryReturnsStableHandles)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("same");
    obs::Counter &b = reg.counter("same");
    EXPECT_EQ(&a, &b) << "re-registration must return the same counter";
    a.inc(3);
    b.inc(4);
    EXPECT_EQ(a.value(), 7u);

    reg.gauge("g").set(-5);
    EXPECT_EQ(reg.gauge("g").value(), -5);
    reg.gauge("g").add(2);
    EXPECT_EQ(reg.gauge("g").value(), -3);

    reg.gaugeFn("fn", [] { return int64_t(42); });
    obs::MetricsSnapshot snap = reg.snapshot();
    bool found = false;
    for (const auto &[name, v] : snap.gauges)
        if (name == "fn") {
            found = true;
            EXPECT_EQ(v, 42);
        }
    EXPECT_TRUE(found) << "callback gauges render into the snapshot";
}

TEST(Metrics, HistogramBucketBoundariesAreInclusive)
{
    obs::Histogram h(std::vector<double>{1.0, 10.0});
    h.observe(0.5);  // bucket 0
    h.observe(1.0);  // bucket 0: bounds are inclusive upper bounds
    h.observe(1.001); // bucket 1
    h.observe(10.0); // bucket 1
    h.observe(10.5); // +inf bucket
    obs::HistogramView v = h.view();
    ASSERT_EQ(v.counts.size(), 3u);
    EXPECT_EQ(v.counts[0], 2u);
    EXPECT_EQ(v.counts[1], 2u);
    EXPECT_EQ(v.counts[2], 1u);
    EXPECT_EQ(v.count, 5u);
    EXPECT_DOUBLE_EQ(v.sum, 0.5 + 1.0 + 1.001 + 10.0 + 10.5);
    EXPECT_GT(v.mean(), 0.0);
}

TEST(Metrics, HistogramTotalsAreExactAfterJoin)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("lat", {1.0, 2.0, 3.0});
    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 50000;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&h] {
            for (uint64_t i = 0; i < kPerWriter; ++i)
                h.observe(static_cast<double>(i % 4) + 0.5);
        });
    for (std::thread &t : writers)
        t.join();
    obs::HistogramView v = h.view();
    EXPECT_EQ(v.count, kWriters * kPerWriter);
    // i%4 + 0.5 lands one quarter of observations in each bucket.
    for (uint64_t c : v.counts)
        EXPECT_EQ(c, kWriters * kPerWriter / 4);
}

TEST(Metrics, RejectsUnsortedHistogramBounds)
{
    EXPECT_THROW(obs::Histogram(std::vector<double>{2.0, 1.0}),
                 PanicError);
}

TEST(Metrics, SnapshotRendersTextAndJson)
{
    obs::MetricsRegistry reg;
    reg.counter("a.count").inc(7);
    reg.gauge("b.depth").set(3);
    reg.histogram("c.ms", {1.0}).observe(0.5);
    obs::MetricsSnapshot snap = reg.snapshot();

    std::string text = snap.toText();
    EXPECT_NE(text.find("counter"), std::string::npos);
    EXPECT_NE(text.find("a.count"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);

    std::string json = snap.toJson();
    EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"b.depth\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"c.ms\""), std::string::npos) << json;
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

// --------------------------------------------------------------- spanring

TEST(SpanRing, KeepsNewestOnWrapAndCountsPushed)
{
    obs::SpanRing ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (uint64_t i = 0; i < 20; ++i) {
        obs::Span s;
        s.conn = 1;
        s.request = i;
        s.phase = obs::SpanPhase::Decode;
        s.startNs = i * 10;
        s.durNs = 1;
        ring.push(s);
    }
    EXPECT_EQ(ring.pushed(), 20u);
    std::vector<obs::Span> got = ring.recent();
    ASSERT_EQ(got.size(), 8u) << "ring holds only the newest capacity";
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].request, 12 + i) << "oldest-first, newest kept";

    std::vector<obs::Span> three = ring.recent(3);
    ASSERT_EQ(three.size(), 3u);
    EXPECT_EQ(three.front().request, 17u);
    EXPECT_EQ(three.back().request, 19u);
}

TEST(SpanRing, RoundsCapacityUpToPowerOfTwo)
{
    EXPECT_EQ(obs::SpanRing(1).capacity(), 8u) << "minimum capacity";
    EXPECT_EQ(obs::SpanRing(9).capacity(), 16u);
    EXPECT_EQ(obs::SpanRing(1024).capacity(), 1024u);
}

TEST(SpanRing, ConcurrentWritersNeverTearSlots)
{
    obs::SpanRing ring(64);
    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 50000;
    std::atomic<bool> stop{false};

    std::thread reader([&] {
        while (!stop.load()) {
            for (const obs::Span &s : ring.recent()) {
                // Writers encode dur = conn so a torn slot is visible.
                ASSERT_EQ(s.durNs, s.conn);
            }
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&ring, w] {
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                obs::Span s;
                s.conn = static_cast<uint64_t>(w) + 1;
                s.request = i;
                s.phase = obs::SpanPhase::Replay;
                s.startNs = i;
                s.durNs = static_cast<uint64_t>(w) + 1;
                ring.push(s);
            }
        });
    for (std::thread &t : writers)
        t.join();
    stop.store(true);
    reader.join();
    EXPECT_EQ(ring.pushed(), kWriters * kPerWriter);
}

// ----------------------------------------------------------- service wiring

TEST(Obs, ReplayServiceFeedsSvcCounters)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    auto tea = std::make_shared<const Tea>(recordTea(wl.program));

    obs::MetricsRegistry reg;
    ReplayService svc(2);
    svc.setMetrics(&reg);

    std::vector<ReplayJob> jobs(3);
    for (ReplayJob &j : jobs) {
        j.tea = tea;
        j.logBytes = &log;
    }
    BatchResult batch = svc.runBatch(jobs);
    ASSERT_EQ(batch.failures, 0u);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterValue("svc.batches"), 1u);
    EXPECT_EQ(snap.counterValue("svc.streams"), 3u);
    EXPECT_EQ(snap.counterValue("svc.stream_failures"), 0u);
    EXPECT_EQ(snap.counterValue("svc.transitions"),
              batch.total.transitions);
    EXPECT_EQ(snap.counterValue("svc.salvaged"), 0u);
}

TEST(Obs, StreamResultCarriesBatchTimingOutsideStats)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    auto tea = std::make_shared<const Tea>(recordTea(wl.program));

    ReplayJob job;
    job.tea = tea;
    job.logBytes = &log;
    StreamResult res = runReplayJob(job, LookupConfig{});
    ASSERT_TRUE(res.ok()) << res.error;
    // One validation and one walk per chunk of the log.
    EXPECT_EQ(res.batches, inspectTraceLog(log.data(), log.size())
                               .chunks.size());
    EXPECT_GT(res.walkNs + res.validateNs, 0u);
    if (res.walkNs > 0) {
        EXPECT_GT(res.transitionsPerSec(), 0.0);
    }

    // The timing must not perturb the deterministic stats: two runs of
    // the same job produce bit-identical ReplayStats.
    StreamResult res2 = runReplayJob(job, LookupConfig{});
    ASSERT_TRUE(res2.ok());
    EXPECT_EQ(res.stats, res2.stats);
}

// ----------------------------------------------------------- STATS frame

/** Drive a raw Session through HELLO, return it ready for requests. */
void
shakeHands(Session &session, std::vector<uint8_t> &out)
{
    PayloadWriter hello;
    hello.u32(Wire::kMagic);
    hello.u32(Wire::kVersion);
    std::vector<uint8_t> wire;
    appendFrame(wire, MsgType::Hello, hello.out());
    out.clear();
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));
}

/** Decode exactly one frame from reply bytes. */
Frame
oneFrame(const std::vector<uint8_t> &bytes)
{
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame f;
    if (!dec.poll(f))
        throw FatalError("no complete frame in reply");
    return f;
}

TEST(Stats, EmptyPayloadMeansJsonAndExtraBytesAreIgnored)
{
    AutomatonRegistry reg;
    Session session(reg);
    std::vector<uint8_t> out;
    shakeHands(session, out);

    // No stats provider installed: the session answers "{}" — and an
    // *empty* payload must be accepted (the tolerant-request rule).
    std::vector<uint8_t> wire;
    appendFrame(wire, MsgType::Stats, nullptr, 0);
    out.clear();
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));
    Frame f = oneFrame(out);
    ASSERT_EQ(f.type, MsgType::StatsOk);
    EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "{}");

    // Extra payload bytes after the format selector are ignored.
    session.setStatsFn(
        [](bool text) { return std::string(text ? "TEXT" : "JSON"); });
    PayloadWriter w;
    w.u8(0);
    w.u8(99);
    w.u8(99);
    wire.clear();
    appendFrame(wire, MsgType::Stats, w.out());
    out.clear();
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));
    f = oneFrame(out);
    ASSERT_EQ(f.type, MsgType::StatsOk);
    EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "JSON");

    // Format byte 1 selects the text rendering.
    PayloadWriter t;
    t.u8(1);
    wire.clear();
    appendFrame(wire, MsgType::Stats, t.out());
    out.clear();
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));
    f = oneFrame(out);
    ASSERT_EQ(f.type, MsgType::StatsOk);
    EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "TEXT");

    // The retired history (2) and flight (3) bytes, like any byte other
    // than 1, answer the JSON report: those documents are HTTP routes.
    for (uint8_t format : {2, 3, 99}) {
        PayloadWriter old;
        old.u8(format);
        wire.clear();
        appendFrame(wire, MsgType::Stats, old.out());
        out.clear();
        ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));
        f = oneFrame(out);
        ASSERT_EQ(f.type, MsgType::StatsOk);
        EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "JSON")
            << "format " << int(format);
    }
}

TEST(Stats, StatsBeforeHelloIsAProtocolViolation)
{
    AutomatonRegistry reg;
    Session session(reg);
    std::vector<uint8_t> wire, out;
    appendFrame(wire, MsgType::Stats, nullptr, 0);
    EXPECT_FALSE(session.consume(wire.data(), wire.size(), out));
}

// ------------------------------------------------------- replay spans

TEST(Obs, ReplaySpansAddUpToTheStreamsReplayTime)
{
    // A served replay walks each chunk as its bytes arrive. Its Replay
    // spans cover that walk — one per REPLAY_CHUNK frame that completed
    // a chunk, plus REPLAY_END's read of the log's end — and
    // svc.replay_ms_by_automaton takes one observation per stream:
    // their sum.
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    AutomatonRegistry reg;
    reg.put("wl", recordTea(wl.program));
    obs::SpanRing ring(4096);
    obs::LabeledHistogram replayMs;
    SessionObs o;
    o.spans = &ring;
    o.replayMsBy = &replayMs;
    Session session(reg);
    session.setObs(o);
    std::vector<uint8_t> out;
    shakeHands(session, out);

    // 4 KiB frames: most end inside a chunk frame and walk nothing.
    constexpr size_t kFrame = 4096;
    std::vector<uint8_t> wire;
    PayloadWriter begin;
    begin.str("wl");
    begin.u8(0);
    appendFrame(wire, MsgType::ReplayBegin, begin.out());
    for (size_t at = 0; at < log.size(); at += kFrame)
        appendFrame(wire, MsgType::ReplayChunk, log.data() + at,
                    std::min(kFrame, log.size() - at));
    appendFrame(wire, MsgType::ReplayEnd, nullptr, 0);
    out.clear();
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));
    FrameDecoder dec;
    dec.feed(out.data(), out.size());
    Frame f;
    ASSERT_TRUE(dec.poll(f));
    EXPECT_EQ(f.type, MsgType::ReplayOk);
    ASSERT_TRUE(dec.poll(f));
    EXPECT_EQ(f.type, MsgType::ReplayResult);

    // The frames that complete a chunk: each chunk frame ends after
    // its 9-byte head, its payload and its CRC word.
    std::set<size_t> walking;
    size_t end = 8;
    for (const TraceLogChunkInfo &c :
         inspectTraceLog(log.data(), log.size()).chunks) {
        end += 9 + c.payloadBytes + 4;
        walking.insert((end - 1) / kFrame);
    }
    ASSERT_GT(walking.size(), 1u);
    ASSERT_LT(walking.size(), (log.size() + kFrame - 1) / kFrame)
        << "every frame completes a chunk: nothing to tell apart";

    uint64_t spans = 0;
    uint64_t spanNs = 0;
    for (const obs::Span &s : ring.recent()) {
        if (s.phase != obs::SpanPhase::Replay)
            continue;
        ++spans;
        spanNs += s.durNs;
        EXPECT_EQ(s.request, 2u) << "the stream's REPLAY_BEGIN ordinal";
    }
    EXPECT_EQ(spans, walking.size() + 1);
    auto series = replayMs.series();
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].first, "wl");
    EXPECT_EQ(series[0].second.count, 1u) << "one observation per stream";
    EXPECT_NEAR(series[0].second.sum * 1e6, static_cast<double>(spanNs),
                1.0);
}

TEST(Stats, LoopbackSnapshotMatchesClientSideTally)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    Tea tea = recordTea(wl.program);

    ServerConfig cfg;
    cfg.workers = 2;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("wl", tea);
    RemoteReplayResult r1 = client.replay("wl", log);
    RemoteReplayResult r2 = client.replay("wl", log);
    uint64_t wantTransitions = r1.stats.transitions + r2.stats.transitions;

    // The scripted exchange so far: HELLO, PUT, BEGIN+END x2 (chunks
    // are stream payload, not requests) — and the STATS request below
    // counts itself, because requests are tallied when handling
    // starts. The wire-visible total is therefore exactly 7.
    std::string json = client.stats(/*text=*/false);
    EXPECT_NE(json.find("\"server.requests\": 7"), std::string::npos)
        << json;
    EXPECT_NE(json.find(strprintf("\"svc.transitions\": %llu",
                                  static_cast<unsigned long long>(
                                      wantTransitions))),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"svc.streams\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"svc.stream_failures\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"server.request_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"spans\""), std::string::npos)
        << "snapshot carries the recent span dump";

    // Counters only grow: a second snapshot sees its own request.
    std::string again = client.stats(false);
    EXPECT_NE(again.find("\"server.requests\": 8"), std::string::npos)
        << again;

    // The text rendering serves the same counters.
    std::string text = client.stats(/*text=*/true);
    EXPECT_NE(text.find("server.requests"), std::string::npos);
    EXPECT_NE(text.find("svc.transitions"), std::string::npos);

    client.close();
    server.stop();

    // Server-side accessors agree with the remote view.
    EXPECT_EQ(server.metrics().snapshot().counterValue("svc.streams"),
              2u);
    EXPECT_EQ(server.sessionsServed(), 1u);
    EXPECT_GT(server.spans().pushed(), 0u);
}

// ------------------------------------------------------------ slow requests

TEST(SlowRequests, InjectedLatencyTripsTheLogAndCleanRunsStaySilent)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    std::vector<uint8_t> log = recordLog(wl.program);
    Tea tea = recordTea(wl.program);

    // Clean run first: a generous threshold must never fire.
    {
        ServerConfig cfg;
        cfg.workers = 1;
        cfg.slowRequestMs = 60000;
        TeaServer server(cfg);
        server.start();
        TeaClient client = TeaClient::connect(server.endpoint());
        client.putAutomaton("wl", tea);
        client.replay("wl", log);
        client.close();
        server.stop();
        EXPECT_EQ(server.slowRequests(), 0u) << "clean run, no slow log";
    }

    // Injected latency: every client send sleeps 1–5 ms, so the replay
    // request (BEGIN through END, several sends) takes well over the
    // 1 ms threshold on the server's clock.
    {
        ServerConfig cfg;
        cfg.workers = 1;
        cfg.slowRequestMs = 1;
        TeaServer server(cfg);
        server.start();
        FaultConfig faults;
        faults.delay = 1.0;
        faults.delayMaxMs = 5;
        TeaClient client =
            TeaClient::connect(server.endpoint(), faults, /*seed=*/7);
        client.putAutomaton("wl", tea);
        client.replay("wl", log);
        uint64_t delays = client.faultsInjected(FaultKind::Delay);
        EXPECT_GT(delays, 0u);
        EXPECT_EQ(client.faultsInjected(), delays)
            << "only delay faults were configured";
        client.close();
        server.stop();
        EXPECT_GE(server.slowRequests(), 1u)
            << "delayed stream must trip the slow-request log";
        EXPECT_GT(server.metrics()
                      .snapshot()
                      .counterValue("server.slow_requests"),
                  0u);
    }
}

} // namespace
} // namespace tea
