/**
 * @file
 * Locks the bench-harness API: the experiment drivers behind the
 * Table 1-4 binaries must produce sane, self-consistent results at test
 * scale (the ref-scale numbers are recorded in EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include "bench/harness.hh"
#include "tea/builder.hh"
#include "util/logging.hh"

namespace tea {
namespace bench {
namespace {

TEST(Harness, BaselineMeasuresRealWork)
{
    Workload w = Workloads::build("syn.mcf", InputSize::Test);
    Baseline base = measureBaseline(w);
    EXPECT_GT(base.icount, 100'000u);
    EXPECT_GT(base.interpMs, 0.0);
    EXPECT_GT(base.modeledNativeMs(), 0.0);
    // The model: reported time is never below the modeled native time.
    EXPECT_GE(modeledMillis(base, 0.0), base.modeledNativeMs());
    EXPECT_GE(modeledMillis(base, base.interpMs + 5.0),
              base.modeledNativeMs() + 5.0 - 1e-9);
}

TEST(Harness, MemoryExperimentIsInternallyConsistent)
{
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    MemoryCell cell = memoryExperiment(w, "mret");
    EXPECT_GT(cell.traces, 0u);
    EXPECT_GE(cell.tbbs, cell.traces);
    EXPECT_GT(cell.dbtBytes, cell.teaSerialBytes)
        << "replication must cost more than the automaton";
    EXPECT_GT(cell.savings(), 0.5);
    EXPECT_LT(cell.savings(), 0.99);

    // The TEA side must equal the real serializer's output.
    TraceSet traces = recordWithDbt(w, "mret");
    EXPECT_EQ(cell.teaSerialBytes, buildTea(traces).serializedBytes());
}

TEST(Harness, ReplayAndRecordCoverageAgree)
{
    Workload w = Workloads::build("syn.crafty", InputSize::Test);
    Baseline base = measureBaseline(w);
    TraceSet traces = recordWithDbt(w, "mret");
    RunOutcome replay = replayExperiment(w, base, traces, LookupConfig{});
    RunOutcome dbt = dbtExperiment(w, base, "mret");
    RunOutcome online = teaRecordExperiment(w, base, "mret");

    EXPECT_GT(replay.coverage, 0.5);
    EXPECT_GE(replay.coverage + 1e-9, dbt.coverage)
        << "Table 2 invariant: replay coverage >= recording coverage";
    EXPECT_GT(online.coverage, 0.5);
    EXPECT_GT(online.traces, 0u);
    EXPECT_GT(replay.millis, 0.0);
    EXPECT_GT(dbt.millis, 0.0);
}

TEST(Harness, OverheadRowOrderings)
{
    Workload w = Workloads::build("syn.mcf", InputSize::Test);
    OverheadRow row = overheadExperiment(w, "mret");
    EXPECT_GT(row.nativeMs, 0.0);
    // Instrumented configurations can never be reported faster than the
    // modeled native time.
    for (double ms : {row.withoutToolMs, row.emptyMs, row.noGlobalLocalMs,
                      row.globalNoLocalMs, row.globalLocalMs})
        EXPECT_GE(ms + 1e-9, row.nativeMs);
}

TEST(Harness, SizeFromArgs)
{
    const char *argv1[] = {"bench", "--size=ref"};
    EXPECT_EQ(sizeFromArgs(2, const_cast<char **>(argv1)),
              InputSize::Ref);
    const char *argv2[] = {"bench", "--size", "test"};
    EXPECT_EQ(sizeFromArgs(3, const_cast<char **>(argv2)),
              InputSize::Test);
    const char *argv3[] = {"bench"};
    EXPECT_EQ(sizeFromArgs(1, const_cast<char **>(argv3)),
              InputSize::Train);
    const char *argv4[] = {"bench", "--size=bogus"};
    EXPECT_THROW(sizeFromArgs(2, const_cast<char **>(argv4)),
                 FatalError);
}

} // namespace
} // namespace bench
} // namespace tea
