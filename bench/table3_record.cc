/**
 * @file
 * Table 3 — "TEA Runtime Aspects - Recording".
 *
 * TEA records traces *online* (Algorithm 2, MRET policy) under the
 * Pin-analogue, with Pin's own dynamic-block discovery (CPUID/REP
 * splitting, per-iteration REP counts). The paper's invariants: coverage
 * close to — and on several rows slightly different from — the
 * StarDBT-side numbers (block identification and instruction counting
 * differ, §4.1), and recording time of the same order as replay time,
 * an order of magnitude above the DBT.
 */

#include <cstdio>

#include "bench/harness.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::bench;

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);

    TextTable table({"benchmark", "TEA cover", "TEA ms", "TEA traces",
                     "DBT cover", "DBT ms"});
    std::vector<double> tea_cov, dbt_cov, tea_ms, dbt_ms;

    std::printf("Table 3: recording traces online with TEA "
                "(selector: mret)\n");
    for (const std::string &name : Workloads::names()) {
        Workload w = Workloads::build(name, size);

        Baseline base = measureBaseline(w);
        RunOutcome dbt = dbtExperiment(w, base, "mret");
        RunOutcome tea = teaRecordExperiment(w, base, "mret");

        table.addRow({w.specName,
                      TextTable::pct(tea.coverage, 1),
                      TextTable::num(tea.millis, 1),
                      TextTable::num(static_cast<uint64_t>(tea.traces)),
                      TextTable::pct(dbt.coverage, 1),
                      TextTable::num(dbt.millis, 1)});
        tea_cov.push_back(tea.coverage);
        dbt_cov.push_back(dbt.coverage);
        tea_ms.push_back(tea.millis);
        dbt_ms.push_back(dbt.millis);
    }
    table.addSeparator();
    table.addRow({"GeoMean", TextTable::pct(geomean(tea_cov), 1),
                  TextTable::num(geomean(tea_ms), 1), "",
                  TextTable::pct(geomean(dbt_cov), 1),
                  TextTable::num(geomean(dbt_ms), 1)});
    std::fputs(table.render().c_str(), stdout);

    std::printf("\npaper: geomean coverage TEA 99.6%% vs DBT 97.4%%; "
                "TEA time ~13x DBT time\n");
    return 0;
}
