/**
 * @file
 * The server event loop's own mechanics, beyond what the test_net /
 * test_chaos suites already prove on it:
 *
 * - the timer wheel under fixed *virtual* timestamps — firing order,
 *   round-up, lazy cancel, reschedule, multi-revolution survival —
 *   with no real clock anywhere;
 * - write-queue backpressure: the high watermark stalls reads while a
 *   peer refuses to drain, the low watermark resumes them, and the
 *   session keeps working afterwards;
 * - the hard cap: a peer that demands unbounded output without reading
 *   any of it is fatally closed, with the loop.wq_overflow counter as
 *   the audit trail;
 * - the poll(2) fallback backend serving a full replay round trip;
 * - read-on: a streamed REPLAY many read chunks long runs in fewer
 *   consume tasks than the loop's own reads would have dispatched;
 * - a 10k-idle-connection smoke test (opt-in via TEA_BIG_NET_TESTS)
 *   proving connection count does not move the thread count.
 *
 * The deterministic backpressure tests drive the loop's sendNb through
 * the nonblocking fault kinds (net/fault.hh) instead of fighting
 * kernel socket buffers: nbEagainWrite = 1.0 means *nothing* ever
 * flushes, which makes queue growth, the stall, and the overflow exact
 * rather than timing-dependent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/frame.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "net/timer_wheel.hh"
#include "obs/metrics.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "util/logging.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

// ------------------------------------------------------------ timer wheel

TEST(TimerWheel, FiresInTickOrderUnderVirtualTime)
{
    TimerWheel wheel(/*tickMs=*/4);
    std::vector<uint64_t> fired;
    wheel.advance(100, fired); // latch the epoch at t=100
    ASSERT_TRUE(fired.empty());

    wheel.schedule(/*key=*/30, /*deadlineMs=*/130);
    wheel.schedule(/*key=*/10, /*deadlineMs=*/110);
    wheel.schedule(/*key=*/20, /*deadlineMs=*/118);
    wheel.schedule(/*key=*/99, /*deadlineMs=*/500);
    EXPECT_EQ(wheel.size(), 4u);

    // Nothing due yet: deadlines round UP to the tick, so a timer never
    // fires before its deadline.
    wheel.advance(108, fired);
    EXPECT_TRUE(fired.empty());

    // t=132 covers 110, 118, and 130 — they come out earliest tick
    // first, regardless of insertion order.
    wheel.advance(132, fired);
    EXPECT_EQ(fired, (std::vector<uint64_t>{10, 20, 30}));
    EXPECT_EQ(wheel.size(), 1u);
    EXPECT_FALSE(wheel.armed(10));
    EXPECT_TRUE(wheel.armed(99));

    fired.clear();
    wheel.advance(504, fired);
    EXPECT_EQ(fired, (std::vector<uint64_t>{99}));
    EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CancelAndRescheduleAreLazyButExact)
{
    TimerWheel wheel(4);
    std::vector<uint64_t> fired;
    wheel.advance(0, fired);

    wheel.schedule(1, 40);
    wheel.schedule(2, 40);
    wheel.cancel(1);
    EXPECT_FALSE(wheel.armed(1));

    // Rescheduling moves the deadline: the stale bucket entry must be
    // dropped by the generation check, not fire early.
    wheel.schedule(2, 400);

    wheel.advance(60, fired);
    EXPECT_TRUE(fired.empty()) << "cancelled/moved timers fired";

    wheel.advance(404, fired);
    EXPECT_EQ(fired, (std::vector<uint64_t>{2}));
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvanceNeverSynchronously)
{
    TimerWheel wheel(4);
    std::vector<uint64_t> fired;
    wheel.advance(1000, fired);

    // A deadline already in the past: armed now, fired on the *next*
    // advance — so expiry handlers may re-arm without re-entrancy.
    wheel.schedule(7, 500);
    EXPECT_TRUE(wheel.armed(7));
    wheel.advance(1000, fired);
    EXPECT_EQ(fired, (std::vector<uint64_t>{7}));
}

TEST(TimerWheel, FarFutureTimersSurviveWheelRevolutions)
{
    // 256 slots x 4 ms = 1024 ms per revolution; schedule several
    // revolutions out and sweep the cursor across the whole span.
    TimerWheel wheel(4);
    std::vector<uint64_t> fired;
    wheel.advance(0, fired);
    wheel.schedule(5, 5000); // ~5 revolutions away
    for (uint64_t t = 100; t <= 4900; t += 100) {
        wheel.advance(t, fired);
        ASSERT_TRUE(fired.empty()) << "fired early at t=" << t;
    }
    wheel.advance(5004, fired);
    EXPECT_EQ(fired, (std::vector<uint64_t>{5}));
}

TEST(TimerWheel, PollBudgetTracksEarliestDeadline)
{
    TimerWheel wheel(4);
    std::vector<uint64_t> fired;
    wheel.advance(0, fired);

    EXPECT_EQ(wheel.pollBudgetMs(0, 200), 200u); // idle: the cap
    wheel.schedule(1, 100);
    wheel.schedule(2, 60);
    // Budget covers the earliest deadline plus at most one tick.
    uint64_t b = wheel.pollBudgetMs(10, 200);
    EXPECT_GE(b, 50u);
    EXPECT_LE(b, 54u);
    // Already-due timers demand an immediate (≤ one tick) poll.
    EXPECT_LE(wheel.pollBudgetMs(80, 200), 4u);
}

// ------------------------------------------------- loopback helpers

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

/** HELLO + `pings` pipelined PINGs as one wire blob. */
std::vector<uint8_t>
helloPlusPings(size_t pings)
{
    std::vector<uint8_t> wire;
    PayloadWriter hello;
    hello.u32(Wire::kMagic);
    hello.u32(Wire::kVersion);
    appendFrame(wire, MsgType::Hello, hello.out());
    for (size_t i = 0; i < pings; ++i)
        appendFrame(wire, MsgType::Ping, nullptr, 0);
    return wire;
}

uint64_t
counterValue(TeaServer &server, const std::string &name)
{
    return server.metrics().counter(name).value();
}

/** Threads in this process, from /proc/self/status (Linux). */
int
processThreads()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    return -1;
}

// --------------------------------------------------------- backpressure

TEST(EventLoopBackpressure, HighWatermarkStallsReadsAndLowResumes)
{
    ServerConfig cfg;
    cfg.workers = 1;
    // Tiny watermarks so ~40 PONG frames (~25 bytes each) are
    // guaranteed to cross them no matter how the reads chunk.
    cfg.writeHighWatermark = 256;
    cfg.writeLowWatermark = 64;
    // Slow the flush down (partial nonblocking writes + frequent
    // spurious EAGAINs) so the queue demonstrably builds above the
    // high watermark before it drains.
    cfg.loopFaults.nbPartialWrite = 1.0;
    cfg.loopFaults.nbEagainWrite = 0.7;
    cfg.loopFaultSeed = 42;
    TeaServer server(cfg);
    server.start();

    Socket s = Socket::connectTo(Endpoint::parse(server.endpoint()));
    std::vector<uint8_t> wire = helloPlusPings(200);
    s.sendAll(wire.data(), wire.size());

    // Drain everything: 1 HELLO_OK + 200 PONGs must all arrive despite
    // the stall — backpressure defers delivery, never loses it.
    FrameDecoder dec;
    Frame f;
    size_t pongs = 0;
    bool helloOk = false;
    uint8_t buf[4096];
    while (pongs < 200 || !helloOk) {
        size_t n = s.recvSome(buf, sizeof(buf));
        ASSERT_GT(n, 0u) << "EOF before all replies arrived";
        dec.feed(buf, n);
        while (dec.poll(f)) {
            if (f.type == MsgType::Pong)
                ++pongs;
            else if (f.type == MsgType::HelloOk)
                helloOk = true;
        }
    }
    EXPECT_EQ(pongs, 200u);
    EXPECT_GE(counterValue(server, "loop.backpressure_stalls"), 1u)
        << "the queue never crossed the high watermark";
    EXPECT_GE(counterValue(server, "loop.writes_deferred"), 1u);

    // Recovery: reads resumed after the drain, so the session still
    // answers — and the connection was never evicted.
    std::vector<uint8_t> one;
    appendFrame(one, MsgType::Ping, nullptr, 0);
    s.sendAll(one.data(), one.size());
    bool gotPong = false;
    while (!gotPong) {
        size_t n = s.recvSome(buf, sizeof(buf));
        ASSERT_GT(n, 0u);
        dec.feed(buf, n);
        while (dec.poll(f))
            if (f.type == MsgType::Pong)
                gotPong = true;
    }
    EXPECT_EQ(server.sessionsEvicted(), 0u);
    s.close();
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 1u);
}

TEST(EventLoopBackpressure, HardCapOverflowFatallyClosesTheConnection)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxWriteQueueBytes = 2048;
    // Watermarks ABOVE the cap: the stall must not engage first and
    // pause the reads that feed the overflow — this test is about the
    // cap alone, however the client's blob happens to chunk.
    cfg.writeHighWatermark = 64u << 10;
    cfg.writeLowWatermark = 16u << 10;
    // Nothing EVER flushes: every queued reply byte stays queued, so
    // the 200 pipelined PONGs (~5 KB) must cross the 2 KB hard cap
    // deterministically.
    cfg.loopFaults.nbEagainWrite = 1.0;
    cfg.loopFaultSeed = 7;
    // Safety net only — the overflow must close the connection long
    // before any clock does.
    cfg.idleTimeoutMs = 2000;
    TeaServer server(cfg);
    server.start();

    Socket s = Socket::connectTo(Endpoint::parse(server.endpoint()));
    std::vector<uint8_t> wire = helloPlusPings(200);
    s.sendAll(wire.data(), wire.size());

    // The only possible outcome is a close: no reply byte can flush
    // (EAGAIN storm), and the owed replies exceed the cap.
    uint8_t buf[4096];
    size_t n;
    do {
        n = s.recvSome(buf, sizeof(buf));
    } while (n != 0);

    EXPECT_GE(counterValue(server, "loop.wq_overflow"), 1u);
    EXPECT_GE(server.sessionsEvicted(), 1u);
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 1u);
}

// ------------------------------------------------------- poll fallback

TEST(EventLoopPollBackend, FullReplayRoundTripOnForcedPoll)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    Tea tea = buildTea(DbtRuntime(w.program).record("mret").traces);
    std::vector<uint8_t> log = recordLog(w.program);

    ServerConfig cfg;
    cfg.loopForcePoll = true; // the fallback is tested, not decorative
    cfg.workers = 2;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("gzip", tea);
    RemoteReplayResult res = client.replay("gzip", log);

    TeaReplayer reference(tea, LookupConfig{});
    for (const BlockTransition &tr : readTraceLog(log))
        reference.feed(tr);
    EXPECT_EQ(res.stats, reference.stats());

    client.close();
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 1u);
    EXPECT_GT(counterValue(server, "loop.iterations"), 0u);
}

// ------------------------------------------------------------- read-on

TEST(EventLoopReadOn, AStreamedReplayTakesFewerTasksThanReadChunks)
{
    // syn.gzip's run, repeated into a log of at least 2 MiB. The client
    // writes a REPLAY's frames as fast as it can copy them and the
    // server decodes and replays each one, so bytes keep waiting on
    // the socket while a task runs. The loop reads at most 64 KiB per
    // task it dispatches; a task that owes no reply reads on itself.
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    Tea tea = buildTea(DbtRuntime(w.program).record("mret").traces);
    std::vector<BlockTransition> run = readTraceLog(recordLog(w.program));
    TeaReplayer reference(tea, LookupConfig{});
    std::vector<uint8_t> log;
    {
        TraceLogWriter writer(&log);
        while (log.size() < (2u << 20))
            for (const BlockTransition &tr : run) {
                writer.append(tr);
                reference.feed(tr);
            }
        writer.finish();
    }
    const size_t readChunks = log.size() / (64 * 1024);

    ServerConfig cfg;
    cfg.workers = 1;
    TeaServer server(cfg);
    server.start();
    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("gzip", tea);

    obs::Histogram &tasks = server.metrics().histogram("pool.task_ms");
    uint64_t before = tasks.view().count;
    RemoteReplayResult res = client.replay("gzip", log);
    // A task records its wall time after its reply can reach the
    // client, so the PUT's task or the REPLAY's last one may land on
    // the other side of a read: off by one at most, far inside the
    // margin.
    uint64_t taken = tasks.view().count - before;

    EXPECT_EQ(res.stats, reference.stats());
    EXPECT_LT(taken, readChunks)
        << "each consume task read at most one 64 KiB chunk";
    client.close();
    server.stop();
}

// --------------------------------------------------------- 10k smoke

TEST(EventLoopBigNet, TenThousandIdleConnectionsNoThreadGrowth)
{
    if (std::getenv("TEA_BIG_NET_TESTS") == nullptr)
        GTEST_SKIP() << "set TEA_BIG_NET_TESTS=1 to run the 10k smoke";

    // Both ends live in this process: ~2 fds per connection + slack.
    // Target 10k, raise the soft limit as far as the hard cap allows,
    // and scale the count to what actually fits (containers often pin
    // the hard cap near 2x10k, leaving no room for the slack).
    constexpr size_t kTarget = 10000;
    rlimit lim{};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &lim), 0);
    rlim_t need = 2 * kTarget + 512;
    if (lim.rlim_cur < need) {
        rlimit want = lim;
        want.rlim_cur = need > lim.rlim_max ? lim.rlim_max : need;
        if (setrlimit(RLIMIT_NOFILE, &want) == 0)
            lim.rlim_cur = want.rlim_cur;
    }
    const size_t kConns =
        std::min<size_t>(kTarget, (lim.rlim_cur - 512) / 2);
    if (kConns < 1000)
        GTEST_SKIP() << "RLIMIT_NOFILE " << lim.rlim_cur
                     << " leaves no room for a meaningful smoke";
    if (kConns < kTarget)
        warn("big-net smoke scaled to %zu connections "
             "(RLIMIT_NOFILE %llu)",
             kConns, static_cast<unsigned long long>(lim.rlim_cur));

    ServerConfig cfg;
    cfg.workers = 2;
    cfg.maxQueue = 64;
    cfg.maxSessions = 0; // unbounded: this test IS the scale proof
    TeaServer server(cfg);
    server.start();
    std::string ep = server.endpoint();

    auto waitLive = [&](size_t atLeast) {
        using namespace std::chrono;
        auto t0 = steady_clock::now();
        while (server.activeSessions() < atLeast &&
               steady_clock::now() - t0 < seconds(60))
            std::this_thread::sleep_for(milliseconds(1));
        return server.activeSessions();
    };

    // Baseline thread count with a handful of live connections: the
    // loop thread and the pool already exist.
    std::vector<Socket> conns;
    conns.reserve(kConns);
    for (size_t i = 0; i < 100; ++i)
        conns.push_back(Socket::connectTo(Endpoint::parse(ep)));
    ASSERT_GE(waitLive(100), 100u);
    int threadsBaseline = processThreads();
    ASSERT_GT(threadsBaseline, 0);

    for (size_t i = conns.size(); i < kConns; ++i) {
        conns.push_back(Socket::connectTo(Endpoint::parse(ep)));
        // Stay ahead of the accept backlog.
        if (i % 512 == 0)
            waitLive(i - 256);
    }
    ASSERT_GE(waitLive(kConns), kConns);

    // The core claim: 100 connections and 10 000 connections cost the
    // exact same number of threads.
    EXPECT_EQ(processThreads(), threadsBaseline);

    // The server still *works* under the pile: a real client gets a
    // real answer while 10k idle sockets sit in the poller.
    {
        TeaClient client = TeaClient::connect(ep);
        ServerStatus st = client.ping();
        EXPECT_GE(st.activeSessions, kConns);
    }

    conns.clear(); // EOF flood: the loop must retire all of them
    using namespace std::chrono;
    auto t0 = steady_clock::now();
    while (server.activeSessions() > 0 &&
           steady_clock::now() - t0 < seconds(60))
        std::this_thread::sleep_for(milliseconds(5));
    EXPECT_EQ(server.activeSessions(), 0u);

    server.stop();
    EXPECT_GE(server.sessionsServed(), kConns);
}

} // namespace
} // namespace tea
