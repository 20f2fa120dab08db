/**
 * @file
 * Table 1 — "Size Savings with TEA".
 *
 * For every workload and each of the paper's three selection strategies
 * (MRET, CTT, TT), record traces with the DBT and report the bytes
 * needed to represent them by code replication (DBT) versus as a TEA.
 * The paper reports KB and a ~77-79% geomean saving for all three
 * strategies; the invariant under test is the savings band, not the
 * absolute sizes.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::bench;

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);
    const std::vector<std::string> selectors = {"mret", "ctt", "tt"};

    TextTable table({"benchmark", "MRET DBT", "MRET TEA", "MRET sav",
                     "CTT DBT", "CTT TEA", "CTT sav", "TT DBT", "TT TEA",
                     "TT sav"});
    std::vector<std::vector<double>> savings(selectors.size());

    std::printf("Table 1: trace representation size, DBT (replication) "
                "vs TEA [bytes]\n");
    for (const std::string &name : Workloads::names()) {
        Workload w = Workloads::build(name, size);
        std::vector<std::string> row = {w.specName + " (" + w.name + ")"};
        for (size_t s = 0; s < selectors.size(); ++s) {
            MemoryCell cell = memoryExperiment(w, selectors[s]);
            row.push_back(TextTable::num(
                static_cast<uint64_t>(cell.dbtBytes)));
            row.push_back(TextTable::num(
                static_cast<uint64_t>(cell.teaSerialBytes)));
            row.push_back(TextTable::pct(cell.savings()));
            savings[s].push_back(cell.savings());
        }
        table.addRow(row);
    }
    table.addSeparator();
    table.addRow({"GeoMean", "", "", TextTable::pct(geomean(savings[0])),
                  "", "", TextTable::pct(geomean(savings[1])), "", "",
                  TextTable::pct(geomean(savings[2]))});
    std::fputs(table.render().c_str(), stdout);

    std::printf("\npaper: geomean savings MRET 77%%, CTT 79%%, TT 79%% "
                "(all rows 73-86%%)\n");
    return 0;
}
