/**
 * @file
 * Chaos differential suite: the full PUT + REPLAY exchange over a
 * loopback server, with deterministic faults injected into the
 * client's socket (net/fault.hh), swept across hundreds of seeds at
 * several fault-rate mixes.
 *
 * The invariant under test is all-or-nothing: every attempt either
 * fails *cleanly* — one typed FatalError, no hang, no leak (the
 * sanitizer CI job runs this suite under ASan/UBSan) — or it succeeds
 * with results bit-identical to a local runReplayJob over the same
 * inputs. There is no third outcome: no silently wrong stats, no
 * half-poisoned session, no stuck worker.
 *
 * Benign faults (short reads/writes, EINTR, latency) only reshape
 * delivery, so under a benign-only mix every seed must succeed AND
 * match. Destructive faults (mid-frame resets, byte corruption) may
 * kill an attempt, but the frame CRC plus the typed error paths must
 * turn every one into a clean failure — and because replay is
 * idempotent, a bounded destructive rate must converge to success
 * under replayWithRetry.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/fault.hh"
#include "net/server.hh"
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

/**
 * Chaos server config: deadlines armed. Without them a corrupted
 * length prefix deadlocks the exchange — the server waits for frame
 * bytes that never come while the client waits for a reply that never
 * forms. The idle/request deadlines turn that into an eviction, which
 * the client sees as a clean typed failure. (The first run of this
 * suite with deadlines off found exactly that hang.)
 *
 * The server's own sockets are faulted too: EAGAIN storms, partial
 * nonblocking writes, and spurious readiness on the loop's sockets.
 * All benign by construction (delivery is deferred, never lost), so
 * every all-or-nothing invariant below holds unchanged — the
 * client-side fault mixes do the destructive work.
 */
ServerConfig
chaosServerConfig()
{
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.idleTimeoutMs = 300;
    cfg.requestDeadlineMs = 1500;
    cfg.loopFaults.nbEagainRead = 0.1;
    cfg.loopFaults.nbEagainWrite = 0.1;
    cfg.loopFaults.nbPartialWrite = 0.2;
    cfg.loopFaults.spuriousReady = 0.05;
    cfg.loopFaultSeed = 77;
    return cfg;
}

class Chaos : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Workload w = Workloads::build("syn.gzip", InputSize::Test);
        tea = new std::shared_ptr<const Tea>(std::make_shared<const Tea>(
            buildTea(DbtRuntime(w.program).record("mret").traces)));
        log = new std::vector<uint8_t>(recordLog(w.program));
        teaImage = new std::vector<uint8_t>(saveTea(**tea));

        // The local ground truth every successful remote attempt must
        // match bit for bit.
        ReplayJob job{*tea, "", log};
        reference = new StreamResult(runReplayJob(job, LookupConfig{}));
        ASSERT_TRUE(reference->ok());
    }

    static void
    TearDownTestSuite()
    {
        delete reference;
        delete teaImage;
        delete log;
        delete tea;
    }

    struct Outcome
    {
        bool ok = false;
        std::string error;
        RemoteReplayResult res;
        uint64_t injected = 0;
    };

    /** One full PUT + REPLAY attempt through a faulty client socket. */
    static Outcome
    attempt(const std::string &ep, const FaultConfig &faults,
            uint64_t seed)
    {
        Outcome out;
        try {
            TeaClient c = TeaClient::connect(ep, faults, seed);
            c.putAutomaton("gzip", *teaImage);
            RemoteReplayOptions opt;
            opt.wantProfile = true;
            out.res = c.replay("gzip", *log, opt);
            out.injected = c.faultsInjected();
            out.ok = true;
        } catch (const FatalError &e) {
            // The clean-failure arm: exactly one typed error. Anything
            // else (PanicError, a crash, a hang) fails the suite.
            out.error = e.what();
        }
        return out;
    }

    /** Sweep `seeds` seeds; return how many attempts succeeded. */
    static size_t
    sweep(const std::string &ep, const FaultConfig &faults,
          uint64_t seedBase, size_t seeds, uint64_t *injectedOut)
    {
        size_t succeeded = 0;
        uint64_t injected = 0;
        for (size_t i = 0; i < seeds; ++i) {
            Outcome out = attempt(ep, faults, seedBase + i);
            if (out.ok) {
                ++succeeded;
                injected += out.injected;
                // Bit-identical to the local kernel: stats and the
                // per-TBB profile.
                EXPECT_EQ(out.res.stats, reference->stats)
                    << "seed " << seedBase + i;
                EXPECT_EQ(out.res.execCounts, reference->execCounts)
                    << "seed " << seedBase + i;
            } else {
                EXPECT_FALSE(out.error.empty());
            }
        }
        if (injectedOut != nullptr)
            *injectedOut = injected;
        return succeeded;
    }

    static std::shared_ptr<const Tea> *tea;
    static std::vector<uint8_t> *log;
    static std::vector<uint8_t> *teaImage;
    static StreamResult *reference;
};

std::shared_ptr<const Tea> *Chaos::tea = nullptr;
std::vector<uint8_t> *Chaos::log = nullptr;
std::vector<uint8_t> *Chaos::teaImage = nullptr;
StreamResult *Chaos::reference = nullptr;

TEST_F(Chaos, BenignFaultsNeverChangeAnyResult)
{
    TeaServer server(chaosServerConfig());
    server.start();

    // Short reads/writes, EINTR, and latency only reshape delivery:
    // every seed must succeed and match, and the sweep must actually
    // have injected faults (pass-through would test nothing).
    FaultConfig faults;
    faults.shortRead = 0.3;
    faults.shortWrite = 0.3;
    faults.eintr = 0.2;
    faults.delay = 0.02;
    faults.delayMaxMs = 1;

    uint64_t injected = 0;
    size_t ok = sweep(server.endpoint(), faults, 1000, 80, &injected);
    EXPECT_EQ(ok, 80u);
    EXPECT_GT(injected, 0u);
    server.stop();
    // The loop-side faults armed by chaosServerConfig() are exported:
    // each connection adds its socket's count when it is torn down.
    EXPECT_GT(server.metrics().snapshot().counterValue(
                  "loop.faults_injected"),
              0u);
}

TEST_F(Chaos, MixedFaultsFailCleanOrMatchExactly)
{
    TeaServer server(chaosServerConfig());
    server.start();

    FaultConfig faults;
    faults.shortRead = 0.2;
    faults.shortWrite = 0.2;
    faults.reset = 0.01;
    faults.corrupt = 0.01;

    // All-or-nothing is asserted inside sweep(); at these rates both
    // arms must be exercised — some attempts die, some survive.
    size_t ok = sweep(server.endpoint(), faults, 2000, 80, nullptr);
    EXPECT_GT(ok, 0u) << "every attempt died: rates too hot to test "
                         "the success arm";
    EXPECT_LT(ok, 80u) << "every attempt survived: rates too cold to "
                          "test the failure arm";
    server.stop();
}

TEST_F(Chaos, DestructiveFaultsAlwaysFailCleanly)
{
    TeaServer server(chaosServerConfig());
    server.start();

    FaultConfig faults;
    faults.reset = 0.08;
    faults.corrupt = 0.08;
    faults.shortRead = 0.2;

    size_t ok = sweep(server.endpoint(), faults, 3000, 60, nullptr);
    // Survivors are legitimate (the dice may miss every call); the
    // point is that the ~destroyed majority all failed cleanly, which
    // sweep() has already asserted per seed.
    EXPECT_LT(ok, 60u);
    server.stop();

    // The server itself shrugged the carnage off: it served every
    // session to completion or EOF and is still draining cleanly.
}

TEST_F(Chaos, RetriesConvergeUnderBoundedDestructiveRate)
{
    TeaServer server(chaosServerConfig());
    server.start();

    // Low destructive rate + benign noise: each attempt fails with
    // small probability, so six retries drive the residual failure
    // rate to negligible — every seed must converge to a result
    // bit-identical to the local kernel.
    FaultConfig faults;
    faults.shortRead = 0.2;
    faults.shortWrite = 0.2;
    faults.reset = 0.002;
    faults.corrupt = 0.002;

    RetryPolicy policy;
    policy.retries = 6;
    policy.backoffMs = 1;
    policy.maxBackoffMs = 8;

    for (uint64_t seed = 0; seed < 20; ++seed) {
        RemoteReplayJob job;
        job.endpoint = server.endpoint();
        job.name = "gzip";
        job.log = log->data();
        job.len = log->size();
        job.opt.wantProfile = true;
        job.teaImage = teaImage;
        job.faults = faults;
        job.faultSeed = 4000 + seed * 100;
        policy.seed = seed + 1;
        RemoteReplayResult res = replayWithRetry(job, policy);
        EXPECT_EQ(res.stats, reference->stats) << "seed " << seed;
        EXPECT_EQ(res.execCounts, reference->execCounts)
            << "seed " << seed;
    }
    server.stop();
}

TEST_F(Chaos, UnarmedFaultySocketIsExactPassThrough)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TeaServer server(cfg);
    server.start();

    // The default client path now routes through FaultySocket; with no
    // faults configured it must behave exactly as the bare socket did.
    Outcome out = attempt(server.endpoint(), FaultConfig{}, 1);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.injected, 0u);
    EXPECT_EQ(out.res.stats, reference->stats);
    EXPECT_EQ(out.res.execCounts, reference->execCounts);
    server.stop();
}

} // namespace
} // namespace tea
