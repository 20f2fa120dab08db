/**
 * @file
 * Ablation: the four trace-selection strategies side by side.
 *
 * Extends Table 1 with MFET (the related-work strategy the paper cites
 * but does not evaluate) and adds the replay-coverage dimension: how
 * much of execution each strategy's traces capture, at what memory
 * cost, and what TEA saves on each.
 */

#include <cstdio>

#include "bench/harness.hh"
#include "trace/factory.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::bench;

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);

    std::printf("Ablation: selection strategies across the suite "
                "(coverage via TEA replay)\n");
    for (const std::string &selector : selectorNames()) {
        TextTable table({"benchmark", "traces", "TBBs", "coverage",
                         "DBT bytes", "TEA bytes", "savings"});
        std::vector<double> savings, coverage;
        for (const std::string &name : Workloads::names()) {
            Workload w = Workloads::build(name, size);
            Baseline base = measureBaseline(w);
            MemoryCell cell = memoryExperiment(w, selector);
            TraceSet traces = recordWithDbt(w, selector);
            RunOutcome replay =
                replayExperiment(w, base, traces, LookupConfig{});

            table.addRow({w.specName,
                          TextTable::num(uint64_t{cell.traces}),
                          TextTable::num(uint64_t{cell.tbbs}),
                          TextTable::pct(replay.coverage, 1),
                          TextTable::num(uint64_t{cell.dbtBytes}),
                          TextTable::num(uint64_t{cell.teaSerialBytes}),
                          TextTable::pct(cell.savings())});
            savings.push_back(cell.savings());
            coverage.push_back(replay.coverage);
        }
        table.addSeparator();
        table.addRow({"GeoMean", "", "",
                      TextTable::pct(geomean(coverage), 1), "", "",
                      TextTable::pct(geomean(savings))});
        std::printf("\nselector: %s\n%s", selector.c_str(),
                    table.render().c_str());
    }
    return 0;
}
