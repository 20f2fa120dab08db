/**
 * @file
 * The networked replay service: wire framing, the session state
 * machine, and full loopback client/server integration — including the
 * ISSUE acceptance criterion that ≥ 4 concurrent clients receive
 * per-stream ReplayStats and a merged per-TBB profile bit-identical to
 * a local ReplayService::runBatch over the same inputs, plus BUSY
 * admission control and graceful shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/frame.hh"
#include "net/server.hh"
#include "net/session.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/serialize.hh"
#include "util/logging.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

/** Record a workload's transition stream into an in-memory log. */
std::vector<uint8_t>
recordLog(const Program &prog, uint32_t version = TraceLogFormat::kVersion)
{
    std::vector<uint8_t> bytes;
    TraceLogOptions opts;
    opts.version = version;
    TraceLogWriter writer(&bytes, opts);
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { writer.append(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    writer.finish();
    return bytes;
}

/** `times` back-to-back copies of a log's transition stream. */
std::vector<uint8_t>
repeatLog(const std::vector<uint8_t> &log, int times)
{
    std::vector<BlockTransition> stream = readTraceLog(log);
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    for (int i = 0; i < times; ++i)
        for (const BlockTransition &tr : stream)
            writer.append(tr);
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

// ---------------------------------------------------------------- framing

TEST(Endpoint, ParsesTcpAndUnix)
{
    Endpoint tcp = Endpoint::parse("tcp:127.0.0.1:7654");
    EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp.host, "127.0.0.1");
    EXPECT_EQ(tcp.port, 7654);
    EXPECT_EQ(tcp.str(), "tcp:127.0.0.1:7654");

    Endpoint ux = Endpoint::parse("unix:/tmp/tead.sock");
    EXPECT_EQ(ux.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ux.path, "/tmp/tead.sock");
    EXPECT_EQ(ux.str(), "unix:/tmp/tead.sock");

    EXPECT_THROW(Endpoint::parse("http:foo"), FatalError);
    EXPECT_THROW(Endpoint::parse("tcp:nohost"), FatalError);
    EXPECT_THROW(Endpoint::parse("tcp::123"), FatalError);
    EXPECT_THROW(Endpoint::parse("tcp:h:70000"), FatalError);
    EXPECT_THROW(Endpoint::parse("tcp:h:-1"), FatalError);
    EXPECT_THROW(Endpoint::parse("unix:"), FatalError);
    EXPECT_THROW(Endpoint::parse(""), FatalError);
}

// ---------------------------------------------------------------- sockets

/** TCP_NODELAY as getsockopt reads it back; -1 when the read fails. */
int
noDelay(const Socket &s)
{
    int on = 0;
    socklen_t len = sizeof(on);
    if (::getsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &on, &len) != 0)
        return -1;
    return on;
}

TEST(Socket, TcpTurnsNagleOffOnBothEnds)
{
    // Every request and reply ends in a small frame; with Nagle on,
    // that tail waits for the peer's delayed ACK. The dialing and the
    // accepting end must both turn it off.
    Listener l = Listener::open(Endpoint::parse("tcp:127.0.0.1:0"));
    Socket client = Socket::connectTo(l.local());
    // The listener is still blocking and the connect has completed, so
    // this accept returns the connection at once.
    Socket server;
    ASSERT_EQ(l.acceptNb(server).n, 1u);
    EXPECT_GT(noDelay(client), 0);
    EXPECT_GT(noDelay(server), 0);
}

TEST(Socket, UnixEndpointsStillConnectAndAccept)
{
    std::string ep =
        "unix:/tmp/tead-sock-" + std::to_string(::getpid()) + ".sock";
    Listener l = Listener::open(Endpoint::parse(ep));
    Socket client = Socket::connectTo(l.local());
    Socket server;
    ASSERT_EQ(l.acceptNb(server).n, 1u);
    // No TCP option is set on a Unix-domain socket.
    EXPECT_LE(noDelay(client), 0);
    EXPECT_LE(noDelay(server), 0);
    const uint8_t ping = 0x5a;
    client.sendAll(&ping, 1);
    uint8_t got = 0;
    ASSERT_EQ(server.recvSome(&got, 1), 1u);
    EXPECT_EQ(got, ping);
}

TEST(Frame, RoundTripsThroughDecoder)
{
    std::vector<uint8_t> wire;
    PayloadWriter w;
    w.u32(Wire::kMagic);
    w.u32(Wire::kVersion);
    appendFrame(wire, MsgType::Hello, w.out());
    appendFrame(wire, MsgType::List, nullptr, 0);

    FrameDecoder dec;
    // Feed byte-by-byte: partial frames must simply report "not yet".
    Frame f;
    std::vector<Frame> got;
    for (uint8_t b : wire) {
        dec.feed(&b, 1);
        while (dec.poll(f))
            got.push_back(f);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, MsgType::Hello);
    EXPECT_EQ(got[0].payload.size(), 8u);
    EXPECT_EQ(got[1].type, MsgType::List);
    EXPECT_TRUE(got[1].payload.empty());
    EXPECT_TRUE(dec.atBoundary());
}

TEST(Frame, CrcMismatchIsFatalAndPoisons)
{
    std::vector<uint8_t> wire;
    PayloadWriter w;
    w.u64(0x1122334455667788ull);
    appendFrame(wire, MsgType::ReplayChunk, w.out());
    wire[6] ^= 0x01; // flip one payload bit

    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame f;
    EXPECT_THROW(dec.poll(f), FatalError);
    // Poisoned: later polls rethrow instead of resyncing on garbage.
    EXPECT_THROW(dec.poll(f), FatalError);
}

TEST(Frame, OversizeLengthIsFatalWithoutAllocating)
{
    // A length word claiming a 4 GiB body must be rejected from the
    // 4 header bytes alone — no buffering until it "arrives".
    std::vector<uint8_t> wire{0xff, 0xff, 0xff, 0xff};
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame f;
    EXPECT_THROW(dec.poll(f), FatalError);
}

TEST(Frame, ZeroLengthBodyIsFatal)
{
    std::vector<uint8_t> wire{0, 0, 0, 0};
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame f;
    EXPECT_THROW(dec.poll(f), FatalError);
}

TEST(Frame, StatsCodecRoundTrips)
{
    ReplayStats st;
    st.blocks = 1;
    st.insnsTotal = 2;
    st.insnsInTrace = 3;
    st.transitions = 4;
    st.intraTraceHits = 5;
    st.traceExits = 6;
    st.exitsToCold = 7;
    st.nteBlocks = 8;
    st.localCacheHits = 9;
    st.globalLookups = 10;
    st.globalHits = 11;
    PayloadWriter w;
    encodeStats(w, st);
    PayloadReader r(w.out());
    EXPECT_EQ(decodeStats(r), st);
    r.expectEnd();
}

// ---------------------------------------------------------------- session

/** Drive a session with whole frames; collect reply frames. */
struct SessionHarness
{
    AutomatonRegistry registry;
    Session session{registry};
    FrameDecoder replyDec;
    bool open = true;

    std::vector<Frame>
    send(MsgType type, const PayloadWriter &w)
    {
        std::vector<uint8_t> wire;
        appendFrame(wire, type, w.out());
        std::vector<uint8_t> out;
        open = session.consume(wire.data(), wire.size(), out);
        replyDec.feed(out.data(), out.size());
        std::vector<Frame> replies;
        Frame f;
        while (replyDec.poll(f))
            replies.push_back(f);
        return replies;
    }

    std::vector<Frame>
    hello()
    {
        PayloadWriter w;
        w.u32(Wire::kMagic);
        w.u32(Wire::kVersion);
        return send(MsgType::Hello, w);
    }
};

TEST(Session, HelloHandshake)
{
    SessionHarness h;
    EXPECT_FALSE(h.session.handshaken());
    auto replies = h.hello();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::HelloOk);
    EXPECT_TRUE(h.open);
    EXPECT_TRUE(h.session.handshaken());
}

TEST(Session, RequestBeforeHelloClosesWithFatalError)
{
    SessionHarness h;
    auto replies = h.send(MsgType::List, PayloadWriter{});
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::Error);
    PayloadReader r(replies[0].payload);
    EXPECT_EQ(r.u8(), 1u); // fatal
    EXPECT_FALSE(h.open);
}

TEST(Session, BadMagicClosesConnection)
{
    SessionHarness h;
    PayloadWriter w;
    w.u32(0xdeadbeef);
    w.u32(Wire::kVersion);
    auto replies = h.send(MsgType::Hello, w);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::Error);
    EXPECT_FALSE(h.open);
}

TEST(Session, PutListEvictFlow)
{
    Workload wl = Workloads::build("syn.gzip", InputSize::Test);
    Tea tea = recordTea(wl.program);
    std::vector<uint8_t> teaImage = saveTea(tea);

    SessionHarness h;
    h.hello();

    PayloadWriter put;
    put.str("gzip");
    put.raw(teaImage.data(), teaImage.size());
    auto replies = h.send(MsgType::PutAutomaton, put);
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_EQ(replies[0].type, MsgType::PutOk);
    PayloadReader r(replies[0].payload);
    EXPECT_EQ(r.u32(), tea.numStates());
    EXPECT_EQ(h.registry.size(), 1u);

    replies = h.send(MsgType::List, PayloadWriter{});
    ASSERT_EQ(replies[0].type, MsgType::ListOk);
    PayloadReader lr(replies[0].payload);
    ASSERT_EQ(lr.u32(), 1u);
    EXPECT_EQ(lr.str(Wire::kMaxName), "gzip");

    PayloadWriter ev;
    ev.str("gzip");
    replies = h.send(MsgType::Evict, ev);
    ASSERT_EQ(replies[0].type, MsgType::EvictOk);
    PayloadReader er(replies[0].payload);
    EXPECT_EQ(er.u8(), 1u);
    EXPECT_EQ(h.registry.size(), 0u);
    EXPECT_TRUE(h.open);
}

TEST(Session, CorruptTeaBytesFailTheRequestNotTheSession)
{
    SessionHarness h;
    h.hello();
    PayloadWriter put;
    put.str("bad");
    std::vector<uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
    put.raw(junk.data(), junk.size());
    auto replies = h.send(MsgType::PutAutomaton, put);
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_EQ(replies[0].type, MsgType::Error);
    PayloadReader r(replies[0].payload);
    EXPECT_EQ(r.u8(), 0u); // non-fatal: session survives
    EXPECT_TRUE(h.open);
    EXPECT_EQ(h.registry.size(), 0u);

    // The session is still usable afterwards.
    replies = h.send(MsgType::List, PayloadWriter{});
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::ListOk);
}

TEST(Session, ReplayOfUnknownNameFailsCleanly)
{
    SessionHarness h;
    h.hello();
    PayloadWriter begin;
    begin.str("nope");
    begin.u8(0);
    auto replies = h.send(MsgType::ReplayBegin, begin);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::Error);
    EXPECT_TRUE(h.open);
    // Still Ready, not Streaming: a REPLAY_END now is a violation.
    replies = h.send(MsgType::ReplayEnd, PayloadWriter{});
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::Error);
    EXPECT_FALSE(h.open);
}

TEST(Session, PingAnswersWithStatusPayload)
{
    SessionHarness h;
    h.hello();
    auto replies = h.send(MsgType::Ping, PayloadWriter{});
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_EQ(replies[0].type, MsgType::Pong);
    PayloadReader r(replies[0].payload);
    // A bare Session has no status provider; the PONG still carries a
    // well-formed (all-zero) status record.
    ServerStatus st = decodeStatus(r);
    r.expectEnd();
    EXPECT_EQ(st.queueDepth, 0u);
    EXPECT_EQ(st.activeSessions, 0u);
    EXPECT_EQ(st.uptimeMs, 0u);
    EXPECT_TRUE(h.open);
}

TEST(Frame, StatusCodecRoundTrips)
{
    ServerStatus st;
    st.queueDepth = 7;
    st.activeSessions = 3;
    st.uptimeMs = 123456789ull;
    PayloadWriter w;
    encodeStatus(w, st);
    PayloadReader r(w.out());
    ServerStatus back = decodeStatus(r);
    r.expectEnd();
    EXPECT_EQ(back.queueDepth, 7u);
    EXPECT_EQ(back.activeSessions, 3u);
    EXPECT_EQ(back.uptimeMs, 123456789ull);
}

// ------------------------------------------------------------ integration

class NetLoopback : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Workload w = Workloads::build("syn.gzip", InputSize::Test);
        tea = std::make_shared<const Tea>(recordTea(w.program));
        log = recordLog(w.program);
        Workload w2 = Workloads::build("syn.bzip2", InputSize::Test);
        foreignLog = recordLog(w2.program); // mostly NTE on gzip's TEA
    }

    std::shared_ptr<const Tea> tea;
    std::vector<uint8_t> log;
    std::vector<uint8_t> foreignLog;
};

TEST_F(NetLoopback, FourConcurrentClientsMatchLocalBatchBitForBit)
{
    constexpr int kClients = 4;
    constexpr int kStreamsPerClient = 2;

    ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0"; // ephemeral
    cfg.workers = kClients;
    TeaServer server(cfg);
    server.start();
    std::string ep = server.endpoint();

    // Local reference over the same inputs, same stream order:
    // client c's stream s replays (c+s even ? log : foreignLog).
    std::vector<ReplayJob> jobs;
    for (int c = 0; c < kClients; ++c)
        for (int s = 0; s < kStreamsPerClient; ++s)
            jobs.push_back(ReplayJob{
                tea, "", (c + s) % 2 == 0 ? &log : &foreignLog});
    ReplayService local(1);
    BatchResult reference = local.runBatch(jobs);
    ASSERT_EQ(reference.failures, 0u);

    // Remote: every client uploads (replaces) the automaton, then
    // replays its streams with the per-TBB profile requested.
    std::vector<std::vector<RemoteReplayResult>> results(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                TeaClient client = TeaClient::connect(ep);
                client.putAutomaton("gzip", *tea);
                RemoteReplayOptions opt;
                opt.wantProfile = true;
                for (int s = 0; s < kStreamsPerClient; ++s) {
                    const auto &bytes =
                        (c + s) % 2 == 0 ? log : foreignLog;
                    results[c].push_back(
                        client.replay("gzip", bytes, opt));
                }
            } catch (const FatalError &e) {
                errors[c] = e.what();
            }
        });
    }
    for (auto &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(errors[c], "") << "client " << c;

    // Per-stream stats and profiles: bit-identical to the local batch.
    std::vector<uint64_t> merged(tea->numStates(), 0);
    for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(results[c].size(), size_t{kStreamsPerClient});
        for (int s = 0; s < kStreamsPerClient; ++s) {
            size_t j = static_cast<size_t>(c * kStreamsPerClient + s);
            const RemoteReplayResult &remote = results[c][s];
            EXPECT_EQ(remote.stats, reference.streams[j].stats)
                << "client " << c << " stream " << s;
            EXPECT_EQ(remote.execCounts, reference.streams[j].execCounts)
                << "client " << c << " stream " << s;
            for (size_t i = 0; i < remote.execCounts.size(); ++i)
                merged[i] += remote.execCounts[i];
        }
    }
    // The merged per-TBB profile equals the local batch's merge.
    EXPECT_EQ(merged, reference.mergedExecCounts);

    server.stop();
    EXPECT_EQ(server.sessionsServed(), static_cast<uint64_t>(kClients));
    EXPECT_EQ(server.busyRejected(), 0u);
}

TEST_F(NetLoopback, UnixSocketRoundTrip)
{
    ServerConfig cfg;
    cfg.endpoint =
        "unix:/tmp/tead-test-" + std::to_string(::getpid()) + ".sock";
    cfg.workers = 1;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(cfg.endpoint);
    client.putAutomaton("gzip", *tea);
    EXPECT_EQ(client.list(), (std::vector<std::string>{"gzip"}));
    RemoteReplayResult res = client.replay("gzip", log);
    TeaReplayer reference(*tea, LookupConfig{});
    for (const BlockTransition &tr : readTraceLog(log))
        reference.feed(tr);
    EXPECT_EQ(res.stats, reference.stats());
    EXPECT_TRUE(res.execCounts.empty()); // profile not requested
    EXPECT_TRUE(client.evict("gzip"));
    EXPECT_FALSE(client.evict("gzip"));
}

TEST_F(NetLoopback, LookupFlagsChangeTheLookupPathNotTheResult)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TeaServer server(cfg);
    server.start();
    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("gzip", *tea);

    RemoteReplayOptions plain;
    RemoteReplayOptions noAccel;
    noAccel.noGlobal = true;
    noAccel.noLocal = true;
    RemoteReplayResult a = client.replay("gzip", log, plain);
    RemoteReplayResult b = client.replay("gzip", log, noAccel);
    // Same coverage; different lookup counters.
    EXPECT_EQ(a.stats.insnsInTrace, b.stats.insnsInTrace);
    EXPECT_EQ(a.stats.transitions, b.stats.transitions);
    EXPECT_EQ(b.stats.localCacheHits, 0u);
    EXPECT_GT(a.stats.localCacheHits, 0u);
}

TEST_F(NetLoopback, V2LogsCostAtMostHalfTheWireBytesOfV1)
{
    // The same stream uploaded from a v1 and a v2 container, one
    // request each over a fresh connection, counting both directions
    // so the (identical) replies are charged equally to both. Byte
    // counts are deterministic, so the 2x bound is exact, not a timing.
    std::vector<uint8_t> logV1 =
        recordLog(Workloads::build("syn.gzip", InputSize::Test).program,
                  TraceLogFormat::kVersionV1);
    ServerConfig cfg;
    cfg.workers = 1;
    TeaServer server(cfg);
    server.start();
    TeaClient::connect(server.endpoint()).putAutomaton("gzip", *tea);

    const std::vector<uint8_t> *logs[2] = {&logV1, &log};
    uint64_t wire[2] = {0, 0};
    ReplayStats stats[2];
    for (int v = 0; v < 2; ++v) {
        TeaClient client = TeaClient::connect(server.endpoint());
        RemoteReplayOptions opt;
        opt.wantProfile = true;
        stats[v] = client.replay("gzip", *logs[v], opt).stats;
        wire[v] = client.bytesSent() + client.bytesReceived();
    }
    server.stop();
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_GE(wire[0], 2 * wire[1])
        << "v1 " << wire[0] << " bytes, v2 " << wire[1] << " bytes";
}

TEST_F(NetLoopback, AdmissionQueueOverflowRepliesBusy)
{
    ServerConfig cfg;
    cfg.workers = 1;  // one consume task at a time
    cfg.maxQueue = 1; // one task may wait for the worker
    TeaServer server(cfg);
    server.start();
    std::string ep = server.endpoint();
    obs::Counter &replaysBegun = server.metrics().counter("svc.streams");

    // ~100 copies of the stream: one REPLAY_END that keeps the single
    // worker busy for tens of milliseconds.
    std::vector<uint8_t> longLog = repeatLog(log, 100);
    TeaClient a = TeaClient::connect(ep);
    a.putAutomaton("gzip", *tea);
    TeaClient b = TeaClient::connect(ep);

    // The queue drains when the replay ends, so a round whose third
    // connect lands after that is inconclusive and runs again.
    bool bounced = false;
    uint64_t admitted = 0; // third connects that landed after the drain
    for (int round = 0; round < 10 && !bounced; ++round) {
        // 1. Hold the worker: wait until A's REPLAY_END is running.
        uint64_t begun = replaysBegun.value();
        std::atomic<bool> held{true};
        std::thread holder([&] {
            try {
                a.replay("gzip", longLog);
            } catch (const FatalError &e) {
                ADD_FAILURE() << "holder: " << e.what();
            }
            held.store(false);
        });
        while (replaysBegun.value() == begun && held.load())
            std::this_thread::yield();

        // 2. Queue B's request behind it.
        std::atomic<bool> queued{true};
        std::thread pinger([&] {
            try {
                b.ping();
            } catch (const FatalError &e) {
                ADD_FAILURE() << "pinger: " << e.what();
            }
            queued.store(false);
        });

        // 3. Wait until the loop has handed B's bytes to the pool.
        while (server.queueDepth() < 1 && held.load() && queued.load())
            std::this_thread::yield();

        // 4. Worker busy and queue full: a third connect must bounce,
        //    and its BUSY frame names the depth that rejected it.
        if (server.queueDepth() >= 1) {
            try {
                TeaClient::connect(ep);
                ++admitted;
            } catch (const ServerBusy &busy) {
                EXPECT_GE(busy.queueDepth, 1u);
                bounced = true;
            }
        }
        holder.join();
        pinger.join();
    }
    EXPECT_TRUE(bounced) << "no third connect bounced off a full queue";
    EXPECT_GE(server.busyRejected(), 1u);

    a.close();
    b.close();
    server.stop();
    // A, B and every admitted third connect were served; a bounced
    // connection is not a session.
    EXPECT_EQ(server.sessionsServed(), 2u + admitted);
}

TEST_F(NetLoopback, BusyFrameCarriesQueueDepthAndSessionCap)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxSessions = 1; // one live connection, no queueing past it
    TeaServer server(cfg);
    server.start();
    std::string ep = server.endpoint();

    TeaClient a = TeaClient::connect(ep);
    try {
        TeaClient::connect(ep);
        FAIL() << "second connection must bounce off the session cap";
    } catch (const ServerBusy &busy) {
        // The BUSY payload names the cap that rejected us.
        EXPECT_EQ(busy.maxSessions, 1u);
    }
    EXPECT_GE(server.busyRejected(), 1u);
    a.close();
    server.stop();
}

TEST_F(NetLoopback, RetryRidesOutABusyServer)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxSessions = 1; // one live connection; the next one bounces
    TeaServer server(cfg);
    server.start();
    std::string ep = server.endpoint();
    std::vector<uint8_t> teaImage = saveTea(*tea);

    // A holds the only session slot and hangs up shortly; until then
    // every connect bounces.
    TeaClient a = TeaClient::connect(ep);
    // An HTTP GET bounces too: BUSY goes out at admission, before the
    // loop sniffs the protocol, and the helper refuses a non-HTTP reply.
    EXPECT_THROW(httpGet(ep, "/healthz"), FatalError);
    EXPECT_EQ(server.busyRejected(), 1u);
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        a.close();
    });

    RemoteReplayJob job;
    job.endpoint = ep;
    job.name = "gzip";
    job.log = log.data();
    job.len = log.size();
    job.teaImage = &teaImage; // re-uploaded on every attempt
    RetryPolicy policy;
    policy.retries = 10;
    policy.backoffMs = 10;
    uint32_t attempts = 0;
    RemoteReplayResult res = replayWithRetry(job, policy, &attempts);
    releaser.join();

    // It took more than one attempt, and the final result is the real
    // replay — identical to a local run over the same log.
    EXPECT_GT(attempts, 1u);
    TeaReplayer reference(*tea, LookupConfig{});
    for (const BlockTransition &tr : readTraceLog(log))
        reference.feed(tr);
    EXPECT_EQ(res.stats, reference.stats());
    server.stop();
}

TEST_F(NetLoopback, IdleTimeoutEvictsAStalledClient)
{
    using namespace std::chrono;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.idleTimeoutMs = 200;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    auto t0 = steady_clock::now();
    // Stall: send nothing. The server must evict the connection within
    // 2x the idle timeout (the timer wheel rounds up by one tick; the
    // margin covers scheduling).
    while (server.sessionsEvicted() == 0 &&
           steady_clock::now() - t0 < milliseconds(2 * 200))
        std::this_thread::sleep_for(milliseconds(5));
    auto elapsed =
        duration_cast<milliseconds>(steady_clock::now() - t0).count();
    EXPECT_EQ(server.sessionsEvicted(), 1u);
    EXPECT_LE(elapsed, 2 * 200);

    // The evicted connection is dead from the client's side: the next
    // exchange fails cleanly instead of hanging.
    EXPECT_THROW(client.list(), FatalError);
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 1u);
}

TEST_F(NetLoopback, RequestDeadlineEvictsASlowlorisMidFrame)
{
    using namespace std::chrono;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.requestDeadlineMs = 200; // idle clock off: only the request
    TeaServer server(cfg);      // deadline can trip
    server.start();

    // Raw socket: handshake, then park three bytes of a frame header
    // on the wire and stall. An idle-only server would wait forever —
    // the request deadline must not.
    Socket s = Socket::connectTo(Endpoint::parse(server.endpoint()));
    std::vector<uint8_t> hello;
    PayloadWriter w;
    w.u32(Wire::kMagic);
    w.u32(Wire::kVersion);
    appendFrame(hello, MsgType::Hello, w.out());
    s.sendAll(hello.data(), hello.size());

    FrameDecoder dec;
    Frame f;
    uint8_t buf[4096];
    while (!dec.poll(f)) {
        size_t n = s.recvSome(buf, sizeof(buf));
        ASSERT_GT(n, 0u) << "EOF before HELLO_OK";
        dec.feed(buf, n);
    }
    ASSERT_EQ(f.type, MsgType::HelloOk);

    auto t0 = steady_clock::now();
    uint8_t partial[3] = {0x10, 0x00, 0x00}; // length word, cut short
    s.sendAll(partial, sizeof(partial));

    // The server answers with a fatal ERROR naming the deadline, then
    // closes. Drain until EOF, collecting the frame.
    bool sawError = false;
    std::string message;
    for (;;) {
        size_t n = s.recvSome(buf, sizeof(buf));
        if (n == 0)
            break;
        dec.feed(buf, n);
        while (dec.poll(f)) {
            if (f.type == MsgType::Error) {
                PayloadReader r(f.payload);
                EXPECT_EQ(r.u8(), 1u); // fatal
                message = r.str(64 * 1024);
                sawError = true;
            }
        }
    }
    auto elapsed =
        duration_cast<milliseconds>(steady_clock::now() - t0).count();
    EXPECT_TRUE(sawError);
    EXPECT_NE(message.find("request deadline"), std::string::npos)
        << message;
    EXPECT_LE(elapsed, 2 * 200);
    server.stop();
    EXPECT_EQ(server.sessionsEvicted(), 1u);
}

TEST_F(NetLoopback, PingReportsLoadAndUptime)
{
    ServerConfig cfg;
    cfg.workers = 2;
    TeaServer server(cfg);
    server.start();
    TeaClient client = TeaClient::connect(server.endpoint());

    ServerStatus st = client.ping();
    EXPECT_EQ(st.activeSessions, 1u); // us
    EXPECT_EQ(st.queueDepth, 0u);

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ServerStatus later = client.ping();
    EXPECT_GT(later.uptimeMs, st.uptimeMs);
    server.stop();
}

TEST_F(NetLoopback, GracefulShutdownDrainsAndUnblocksClients)
{
    ServerConfig cfg;
    cfg.workers = 2;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    client.putAutomaton("gzip", *tea);
    // A completed request's reply must have been flushed before stop.
    RemoteReplayResult res = client.replay("gzip", log);
    EXPECT_GT(res.stats.blocks, 0u);

    // stop() with a connected-but-idle client: the drain closes the
    // connection; stop must not hang.
    server.stop();
    // The next request on the dead connection fails cleanly.
    EXPECT_THROW(client.list(), FatalError);
    // Idempotent.
    server.stop();
}

TEST(NetServer, StartStopWithNoClients)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TeaServer server(cfg);
    server.start();
    EXPECT_NE(server.port(), 0);
    server.stop();
}

TEST(NetServer, ConnectToUnboundPortFails)
{
    EXPECT_THROW(TeaClient::connect("tcp:127.0.0.1:1"), FatalError);
}

} // namespace
} // namespace tea
