/**
 * @file
 * The parallel replay service: registry semantics, batch replay
 * correctness against a directly-fed sequential TeaReplayer, and the
 * determinism contract — a --jobs N batch must produce byte-identical
 * merged profiles and summed stats to a --jobs 1 batch.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "dbt/runtime.hh"
#include "svc/registry.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
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

/** Record a workload's stream into an in-memory log that elides every
 *  transition `automaton` predicts (v2 Elided chunks). */
std::vector<uint8_t>
recordElidedLog(const Program &prog,
                std::shared_ptr<const CompiledTea> automaton)
{
    std::vector<uint8_t> bytes;
    TraceLogOptions opts;
    opts.elideWith = std::move(automaton);
    TraceLogWriter writer(&bytes, opts);
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

// ---------------------------------------------------------------- registry

TEST(AutomatonRegistry, PutGetEvictList)
{
    AutomatonRegistry reg;
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_FALSE(reg.snapshot("gzip"));

    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    auto snap = reg.put("gzip", recordTea(w.program));
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(reg.snapshot("gzip").compiled, snap);
    EXPECT_EQ(reg.snapshot("gzip").tea, nullptr);
    EXPECT_EQ(reg.size(), 1u);

    reg.put("mcf", Tea{});
    EXPECT_EQ(reg.list(), (std::vector<std::string>{"gzip", "mcf"}));

    EXPECT_TRUE(reg.evict("gzip"));
    EXPECT_FALSE(reg.evict("gzip"));
    EXPECT_FALSE(reg.snapshot("gzip"));
    EXPECT_EQ(reg.size(), 1u);

    // The snapshot survives eviction: replays in flight keep theirs.
    EXPECT_GT(snap->numStates(), 1u);
}

TEST(AutomatonRegistry, LoadFileRoundTrips)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    Tea tea = recordTea(w.program);
    std::string path = "test_svc_registry.tea";
    saveTeaFile(tea, path);

    AutomatonRegistry reg;
    auto snap = reg.loadFile("gzip", path);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->numStates(), tea.numStates());
    EXPECT_EQ(saveTea(snap->rehydrateTea()), saveTea(tea));
    std::remove(path.c_str());

    EXPECT_THROW(reg.loadFile("nope", "no-such-file.tea"), FatalError);
}

TEST(AutomatonRegistry, ConcurrentReadersAndWriters)
{
    // Hammer one registry from several threads; run under ASan/UBSan
    // in CI. Correctness assertion is just "no crash, sane results".
    AutomatonRegistry reg(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&reg, t] {
            for (int i = 0; i < 200; ++i) {
                std::string name =
                    "tea-" + std::to_string((t * 7 + i) % 10);
                if (i % 3 == 0)
                    reg.put(name, Tea{});
                else if (i % 3 == 1)
                    (void)reg.snapshot(name);
                else
                    (void)reg.evict(name);
                if (i % 50 == 0)
                    (void)reg.list();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_LE(reg.size(), 10u);
}

// ------------------------------------------------------------- replay svc

TEST(ReplayStatsMerge, OperatorPlusEqualsSumsEveryField)
{
    ReplayStats a;
    a.blocks = 1;
    a.insnsTotal = 2;
    a.insnsInTrace = 3;
    a.transitions = 4;
    a.intraTraceHits = 5;
    a.traceExits = 6;
    a.exitsToCold = 7;
    a.nteBlocks = 8;
    a.localCacheHits = 9;
    a.globalLookups = 10;
    a.globalHits = 11;
    ReplayStats b = a;
    b += a;
    EXPECT_EQ(b.blocks, 2u);
    EXPECT_EQ(b.insnsTotal, 4u);
    EXPECT_EQ(b.insnsInTrace, 6u);
    EXPECT_EQ(b.transitions, 8u);
    EXPECT_EQ(b.intraTraceHits, 10u);
    EXPECT_EQ(b.traceExits, 12u);
    EXPECT_EQ(b.exitsToCold, 14u);
    EXPECT_EQ(b.nteBlocks, 16u);
    EXPECT_EQ(b.localCacheHits, 18u);
    EXPECT_EQ(b.globalLookups, 20u);
    EXPECT_EQ(b.globalHits, 22u);
}

TEST(ReplayService, MatchesDirectSequentialReplay)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    auto tea = std::make_shared<const Tea>(recordTea(w.program));
    auto log = recordLog(w.program);

    // Reference: feed the log into a replayer by hand.
    TeaReplayer reference(*tea, LookupConfig{});
    for (const BlockTransition &tr : readTraceLog(log))
        reference.feed(tr);

    ReplayService service(3);
    std::vector<ReplayJob> jobs{ReplayJob{tea, "", &log}};
    BatchResult batch = service.runBatch(jobs);

    ASSERT_EQ(batch.streams.size(), 1u);
    ASSERT_TRUE(batch.streams[0].ok());
    EXPECT_EQ(batch.streams[0].stats, reference.stats());
    EXPECT_EQ(batch.total, reference.stats());
    ASSERT_EQ(batch.mergedExecCounts.size(), tea->numStates());
    for (StateId id = 0; id < tea->numStates(); ++id)
        EXPECT_EQ(batch.mergedExecCounts[id], reference.execCount(id));
}

TEST(ReplayService, ParallelBatchIsByteIdenticalToSequential)
{
    // The ISSUE determinism criterion: N logs, --jobs 4 vs --jobs 1.
    Workload gzip = Workloads::build("syn.gzip", InputSize::Test);
    Workload bzip = Workloads::build("syn.bzip2", InputSize::Test);
    auto tea = std::make_shared<const Tea>(recordTea(gzip.program));
    auto log_gzip = recordLog(gzip.program);
    auto log_bzip = recordLog(bzip.program); // foreign stream, mostly NTE

    std::vector<ReplayJob> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(ReplayJob{tea, "", &log_gzip});
    jobs.push_back(ReplayJob{tea, "", &log_bzip});
    jobs.push_back(ReplayJob{tea, "", &log_gzip});

    ReplayService parallel(4);
    ReplayService sequential(1);
    BatchResult p = parallel.runBatch(jobs);
    BatchResult s = sequential.runBatch(jobs);

    EXPECT_EQ(p.failures, 0u);
    EXPECT_EQ(s.failures, 0u);
    EXPECT_EQ(p.total, s.total);
    EXPECT_EQ(p.mergedExecCounts, s.mergedExecCounts);
    ASSERT_EQ(p.streams.size(), s.streams.size());
    for (size_t i = 0; i < p.streams.size(); ++i) {
        EXPECT_EQ(p.streams[i].stats, s.streams[i].stats) << "stream " << i;
        EXPECT_EQ(p.streams[i].execCounts, s.streams[i].execCounts)
            << "stream " << i;
    }
    // Identical streams must produce identical per-stream profiles.
    EXPECT_EQ(p.streams[0].execCounts, p.streams[3].execCounts);
}

TEST(ReplayService, PerJobFailuresDoNotPoisonTheBatch)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    auto tea = std::make_shared<const Tea>(recordTea(w.program));
    auto log = recordLog(w.program);
    auto corrupt = log;
    corrupt[corrupt.size() / 2] ^= 0x40; // payload bit flip

    std::vector<ReplayJob> jobs{
        ReplayJob{tea, "", &log},
        ReplayJob{tea, "", &corrupt},
        ReplayJob{tea, "no-such-file.tlog", nullptr},
        ReplayJob{tea, "", &log},
    };
    ReplayService service(2);
    BatchResult batch = service.runBatch(jobs);

    EXPECT_EQ(batch.failures, 2u);
    EXPECT_TRUE(batch.streams[0].ok());
    EXPECT_FALSE(batch.streams[1].ok());
    EXPECT_FALSE(batch.streams[2].ok());
    EXPECT_TRUE(batch.streams[3].ok());
    // Totals cover exactly the successful streams.
    ReplayStats expect = batch.streams[0].stats;
    expect += batch.streams[3].stats;
    EXPECT_EQ(batch.total, expect);
}

TEST(ReplayService, ReferenceBatchDecodesElidedLogs)
{
    // A Tea-only job carries no decode automaton: the batch compiles
    // one whatever the kernel, so the reference kernel replays an
    // elided log exactly as the compiled one does.
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    auto tea = std::make_shared<const Tea>(recordTea(w.program));
    auto log = recordElidedLog(w.program, CompiledTea::compile(tea));
    ASSERT_GT(inspectTraceLog(log.data(), log.size()).elidedRecords, 0u);

    ReplayJob job;
    job.tea = tea;
    job.logBytes = &log;
    std::vector<ReplayJob> jobs{job, job};
    LookupConfig reference;
    reference.useCompiled = false;
    BatchResult fast = ReplayService(2).runBatch(jobs);
    BatchResult ref = ReplayService(2, reference).runBatch(jobs);
    ASSERT_EQ(fast.failures, 0u) << fast.streams[0].error;
    ASSERT_EQ(ref.failures, 0u) << ref.streams[0].error;
    EXPECT_GT(ref.total.transitions, 0u);
    EXPECT_EQ(ref.total, fast.total);
    EXPECT_EQ(ref.mergedExecCounts, fast.mergedExecCounts);
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(ref.streams[i].stats, fast.streams[i].stats);
        EXPECT_EQ(ref.streams[i].execCounts, fast.streams[i].execCounts);
    }
}

TEST(ReplayService, MixedAutomataSkipProfileMerge)
{
    Workload gzip = Workloads::build("syn.gzip", InputSize::Test);
    Workload mcf = Workloads::build("syn.mcf", InputSize::Test);
    auto teaA = std::make_shared<const Tea>(recordTea(gzip.program));
    auto teaB = std::make_shared<const Tea>(recordTea(mcf.program));
    auto log = recordLog(gzip.program);

    ReplayService service(2);
    BatchResult batch = service.runBatch(
        {ReplayJob{teaA, "", &log}, ReplayJob{teaB, "", &log}});
    EXPECT_EQ(batch.failures, 0u);
    // State ids from different automata are not comparable: no merge.
    EXPECT_TRUE(batch.mergedExecCounts.empty());
    // Totals still accumulate.
    EXPECT_GT(batch.total.blocks, 0u);
}

} // namespace
} // namespace tea
