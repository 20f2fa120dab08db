/**
 * @file
 * Ablation: the hot-threshold knob of the selection strategies.
 *
 * Dynamo's "less is more" insight is that very small thresholds work;
 * this sweep shows why on our suite: lowering the threshold brings
 * coverage up (traces form before the warm-up ends) at the cost of more
 * traces — and therefore more memory on both the DBT and the TEA side,
 * with the savings ratio staying flat. Not a paper table; it ablates a
 * design choice DESIGN.md calls out.
 */

#include <cstdio>

#include "bench/harness.hh"
#include "tea/builder.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::bench;

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);
    const uint32_t thresholds[] = {10, 25, 50, 100, 200, 400};
    const char *workloads[] = {"syn.gzip", "syn.gcc", "syn.mcf",
                               "syn.crafty"};

    std::printf("Ablation: MRET hot threshold sweep\n");
    for (const char *name : workloads) {
        Workload w = Workloads::build(name, size);
        Baseline base = measureBaseline(w);

        TextTable table({"threshold", "traces", "TBBs", "coverage",
                         "DBT bytes", "TEA bytes", "savings"});
        for (uint32_t threshold : thresholds) {
            SelectorConfig cfg;
            cfg.hotThreshold = threshold;
            cfg.extensionThreshold = threshold;

            MemoryCell cell = memoryExperiment(w, "mret", cfg);
            TraceSet traces = recordWithDbt(w, "mret", cfg);
            RunOutcome replay =
                replayExperiment(w, base, traces, LookupConfig{});

            table.addRow({TextTable::num(uint64_t{threshold}),
                          TextTable::num(uint64_t{cell.traces}),
                          TextTable::num(uint64_t{cell.tbbs}),
                          TextTable::pct(replay.coverage, 1),
                          TextTable::num(uint64_t{cell.dbtBytes}),
                          TextTable::num(uint64_t{cell.teaSerialBytes}),
                          TextTable::pct(cell.savings())});
        }
        std::printf("\n%s:\n%s", name, table.render().c_str());
    }
    std::printf("\ninvariant: the TEA savings ratio is insensitive to "
                "the threshold; coverage falls once the threshold "
                "approaches the loop trip counts.\n");
    return 0;
}
