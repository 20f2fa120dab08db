#include "bench/harness.hh"

#include <algorithm>
#include <cstring>

#include "dbt/runtime.hh"
#include "tea/builder.hh"
#include "tea/recorder.hh"
#include "trace/factory.hh"
#include "util/timer.hh"
#include "vm/block.hh"
#include "vm/machine.hh"

namespace tea {
namespace bench {

namespace {

/**
 * Wall-clock of a deterministic run, minimum over a few repetitions
 * (the runs are identical, so the minimum is the least-noisy estimate).
 */
template <typename F>
double
minWallMs(F &&run, int reps = 3)
{
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        Stopwatch timer;
        run();
        best = std::min(best, timer.elapsedMillis());
    }
    return best;
}

} // namespace

Baseline
measureBaseline(const Workload &w)
{
    Baseline base;
    base.interpMs = minWallMs([&] {
        Machine machine(w.program);
        machine.run();
        base.icount = machine.icountRepPerIter();
    });
    return base;
}

double
modeledMillis(const Baseline &base, double host_ms)
{
    double overhead = std::max(0.0, host_ms - base.interpMs);
    return base.modeledNativeMs() + overhead;
}

TraceSet
recordWithDbt(const Workload &w, const std::string &selector,
              SelectorConfig config)
{
    DbtRuntime dbt(w.program);
    return dbt.record(selector, config).traces;
}

MemoryCell
memoryExperiment(const Workload &w, const std::string &selector,
                 SelectorConfig config)
{
    TraceSet traces = recordWithDbt(w, selector, config);

    MemoryCell cell;
    cell.traces = traces.size();
    cell.tbbs = traces.totalBlocks();
    for (const TraceMemory &m : accountTraces(w.program, traces))
        cell.dbtBytes += m.total();
    cell.teaSerialBytes = buildTea(traces).serializedBytes();
    return cell;
}

RunOutcome
replayExperiment(const Workload &w, const Baseline &base,
                 const TraceSet &traces, LookupConfig config)
{
    Tea tea = buildTea(traces);
    RunOutcome out;
    // Edge instrumentation (§4.1): the replayer must see exactly the
    // transitions the StarDBT recorder saw, so no CPUID/REP splitting;
    // Pin's per-iteration REP counting still applies.
    out.hostMillis = minWallMs([&] {
        TeaReplayer replayer(tea, config);
        Machine machine(w.program);
        BlockTracker tracker(
            w.program,
            [&replayer](const BlockTransition &tr) { replayer.feed(tr); },
            /*rep_per_iteration=*/true, /*collect_blocks=*/false);
        machine.runHooked(
            [&tracker](const EdgeEvent &ev) { tracker.onEdge(ev); },
            /*split_at_special=*/false);
        out.stats = replayer.stats();
    });
    out.millis = modeledMillis(base, out.hostMillis);
    out.coverage = out.stats.coverage();
    out.traces = traces.size();
    return out;
}

RunOutcome
teaRecordExperiment(const Workload &w, const Baseline &base,
                    const std::string &selector, SelectorConfig config)
{
    RunOutcome out;
    // Pin's own dynamic blocks: split at CPUID/REP, count per iteration.
    out.hostMillis = minWallMs([&] {
        TeaRecorder recorder(makeSelector(selector, config));
        Machine machine(w.program);
        BlockTracker tracker(
            w.program,
            [&recorder](const BlockTransition &tr) { recorder.feed(tr); },
            /*rep_per_iteration=*/true, /*collect_blocks=*/false);
        machine.runHooked(
            [&tracker](const EdgeEvent &ev) { tracker.onEdge(ev); },
            /*split_at_special=*/true);
        out.stats = recorder.stats();
        out.traces = recorder.traces().size();
    });
    out.millis = modeledMillis(base, out.hostMillis);
    out.coverage = out.stats.coverage();
    return out;
}

RunOutcome
dbtExperiment(const Workload &w, const Baseline &base,
              const std::string &selector, SelectorConfig config)
{
    DbtRuntime dbt(w.program);
    auto rec = dbt.record(selector, config);
    RunOutcome out;
    out.stats = rec.stats;
    out.coverage = rec.stats.coverage();
    out.traces = rec.traces.size();
    out.hostMillis = minWallMs([&] {
        Machine machine(w.program);
        uint64_t edges = 0;
        machine.runHooked([&edges](const EdgeEvent &) { ++edges; },
                          /*split_at_special=*/false);
    });
    out.millis = modeledMillis(base, out.hostMillis);
    return out;
}

OverheadRow
overheadExperiment(const Workload &w, const std::string &selector,
                   SelectorConfig config)
{
    Baseline base = measureBaseline(w);
    OverheadRow row;
    row.nativeMs = base.modeledNativeMs();

    { // Under the runtime with no tool loaded: edge dispatch only, with
      // the same hook policy as the replay runs for comparability.
        double host = minWallMs([&] {
            Machine machine(w.program);
            uint64_t edges = 0;
            machine.runHooked([&edges](const EdgeEvent &) { ++edges; },
                              /*split_at_special=*/false);
        });
        row.withoutToolMs = modeledMillis(base, host);
    }
    { // TEA with an empty trace set: B+ tree on, no local caches.
        TraceSet empty;
        LookupConfig cfg;
        cfg.useLocalCache = false;
        cfg.useCompiled = false;
        row.emptyMs = replayExperiment(w, base, empty, cfg).millis;
    }

    TraceSet traces = recordWithDbt(w, selector, config);
    auto run = [&](bool global, bool local, bool compiled) {
        LookupConfig cfg;
        cfg.useGlobalBTree = global;
        cfg.useLocalCache = local;
        cfg.useCompiled = compiled;
        return replayExperiment(w, base, traces, cfg).millis;
    };
    // The paper's three points, on the paper's structures.
    row.noGlobalLocalMs = run(false, true, false);
    row.globalNoLocalMs = run(true, false, false);
    row.globalLocalMs = run(true, true, false);
    // Ours: the same Global/Local function on the flat kernel.
    row.compiledMs = run(true, true, true);
    return row;
}

InputSize
sizeFromArgs(int argc, char **argv, InputSize fallback)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--size=", 7) == 0)
            return parseInputSize(arg + 7);
        if (std::strcmp(arg, "--size") == 0 && i + 1 < argc)
            return parseInputSize(argv[i + 1]);
    }
    return fallback;
}

} // namespace bench
} // namespace tea
