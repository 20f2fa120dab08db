/**
 * @file
 * Concurrency stress for the AutomatonRegistry: threads racing
 * put/snapshot/evict/list must never corrupt the store, and — the contract
 * the whole replay service leans on — evicting a name must never
 * invalidate a snapshot a replay already holds. Run in the sanitize CI
 * job (ASan/UBSan) where a dangling snapshot or a data race in the
 * shard locking would be caught, not just flaky.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "dbt/runtime.hh"
#include "svc/registry.hh"
#include "tea/compiled.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
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

TEST(RegistryStress, RacingPutGetEvictListStaysConsistent)
{
    // One real automaton, cloned under many names by re-serializing:
    // registry values are moved in, so each put needs its own copy.
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    const Tea master = recordTea(w.program);
    const size_t masterStates = master.numStates();

    AutomatonRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kNames = 16;
    constexpr int kOpsPerThread = 400;
    std::atomic<bool> failed{false};

    auto nameOf = [](int i) { return "tea-" + std::to_string(i); };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Deterministic per-thread op mix; different phase per
            // thread so puts, gets, and evicts interleave.
            for (int op = 0; op < kOpsPerThread; ++op) {
                int name = (op * 7 + t * 3) % kNames;
                switch ((op + t) % 4) {
                case 0: {
                    auto snap = reg.put(nameOf(name), Tea(master));
                    // put returns the stored image, never null.
                    if (!snap || snap->numStates() != masterStates)
                        failed = true;
                    break;
                }
                case 1: {
                    auto snap = reg.snapshot(nameOf(name)).compiled;
                    // A hit must be a complete automaton — a torn or
                    // half-constructed value would trip this (or ASan).
                    if (snap && snap->numStates() != masterStates)
                        failed = true;
                    break;
                }
                case 2:
                    reg.evict(nameOf(name));
                    break;
                case 3: {
                    std::vector<std::string> names = reg.list();
                    if (names.size() > static_cast<size_t>(kNames))
                        failed = true;
                    // list() is sorted even while writers race.
                    if (!std::is_sorted(names.begin(), names.end()))
                        failed = true;
                    break;
                }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(failed.load());

    // Quiescent state is sane: every surviving name resolves to a
    // complete automaton and size() agrees with list().
    std::vector<std::string> names = reg.list();
    EXPECT_EQ(names.size(), reg.size());
    for (const std::string &n : names) {
        auto snap = reg.snapshot(n).compiled;
        ASSERT_NE(snap, nullptr) << n;
        EXPECT_EQ(snap->numStates(), masterStates);
    }
}

TEST(RegistryStress, EvictionNeverInvalidatesInFlightReplays)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    const Tea master = recordTea(w.program);
    std::vector<uint8_t> log = recordLog(w.program);

    // Reference result, replayed against a private copy.
    StreamResult reference = runReplayJob(
        ReplayJob{std::make_shared<const Tea>(Tea(master)), "", &log},
        LookupConfig{});
    ASSERT_TRUE(reference.ok());

    AutomatonRegistry reg;
    std::atomic<bool> stop{false};

    // Churner: relentlessly replaces and evicts the name the replay
    // threads are using. If eviction freed the automaton out from
    // under a pinned snapshot, the replays below would read freed
    // memory (ASan) or produce different stats.
    std::thread churner([&] {
        while (!stop.load()) {
            reg.put("gzip", Tea(master));
            reg.evict("gzip");
        }
    });

    constexpr int kReplayers = 4;
    constexpr int kRounds = 25;
    std::vector<std::string> errors(kReplayers);
    std::vector<std::thread> replayers;
    for (int t = 0; t < kReplayers; ++t) {
        replayers.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                // Pin the compiled image the way Session::ReplayBegin
                // does; the churner may evict it at any point after.
                std::shared_ptr<const CompiledTea> snap =
                    reg.snapshot("gzip").compiled;
                if (!snap) {
                    // Lost the race with evict; next round.
                    continue;
                }
                StreamResult res = runReplayJob(
                    ReplayJob{nullptr, "", &log, std::move(snap)},
                    LookupConfig{});
                if (!res.ok()) {
                    errors[t] = res.error;
                    return;
                }
                if (!(res.stats == reference.stats) ||
                    res.execCounts != reference.execCounts) {
                    errors[t] = "replay diverged from reference";
                    return;
                }
            }
        });
    }
    for (auto &t : replayers)
        t.join();
    stop = true;
    churner.join();

    for (int t = 0; t < kReplayers; ++t)
        EXPECT_EQ(errors[t], "") << "replayer " << t;
}

TEST(RegistryStress, ConcurrentStreamsCompileExactlyOnce)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    const Tea master = recordTea(w.program);
    std::vector<uint8_t> log = recordLog(w.program);

    AutomatonRegistry reg;
    const uint64_t before = CompiledTea::compileCount();
    reg.put("gzip", Tea(master));
    // put() is the one compilation point: one put, one compile.
    EXPECT_EQ(CompiledTea::compileCount(), before + 1);

    AutomatonSnapshot snap = reg.snapshot("gzip");
    ASSERT_TRUE(snap);
    ASSERT_NE(snap.compiled, nullptr);

    // Reference outcome on the same shared snapshot.
    StreamResult reference = runReplayJob(
        ReplayJob{snap.tea, "", &log, snap.compiled}, LookupConfig{});
    ASSERT_TRUE(reference.ok());

    constexpr int kStreams = 8;
    std::vector<std::string> errors(kStreams);
    std::vector<std::thread> threads;
    for (int t = 0; t < kStreams; ++t) {
        threads.emplace_back([&, t] {
            // Every stream replays the registry's snapshot the way svc
            // workers and net sessions do: compiled passed through the
            // job, never rebuilt.
            StreamResult res = runReplayJob(
                ReplayJob{snap.tea, "", &log, snap.compiled},
                LookupConfig{});
            if (!res.ok())
                errors[t] = res.error;
            else if (!(res.stats == reference.stats) ||
                     res.execCounts != reference.execCounts)
                errors[t] = "replay diverged from reference";
        });
    }
    for (auto &t : threads)
        t.join();
    for (int t = 0; t < kStreams; ++t)
        EXPECT_EQ(errors[t], "") << "stream " << t;

    // The concurrent streams shared put()'s compilation: zero
    // recompiles, no matter how many replayers raced.
    EXPECT_EQ(CompiledTea::compileCount(), before + 1);
}

} // namespace
} // namespace tea
