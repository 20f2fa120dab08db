/**
 * @file
 * Shared types of the servebench program: generated inputs and their
 * oracles, run options, sample statistics and the per-run report.
 *
 * The benchmark is one process. It generates (or loads from its cache)
 * the workload inputs, spawns the shipped `teadbt serve` as a child,
 * drives it through the public TeaClient, checks every result against
 * a local oracle, and prints one JSON result line. See README.md in
 * this directory for the workloads, metrics and layer table.
 */

#ifndef SERVEBENCH_COMMON_HH
#define SERVEBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tea/replayer.hh"
#include "vm/block.hh"

namespace sb {

using tea::BlockTransition;
using tea::ReplayStats;

/** Monotonic nanoseconds (steady_clock). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The four trace-selection policies of the fleet, in Table 1 order. */
inline const std::array<const char *, 4> kSelectors = {"mret", "tt", "ctt",
                                                       "mfet"};

/** A replay's expected outcome: stats and per-TBB profile. */
struct ReplayOracle
{
    ReplayStats stats;
    std::vector<uint64_t> execCounts;
};

/** A recording's expected RECORD_RESULT (offline TeaRecorder). */
struct RecordOracle
{
    uint64_t transitions = 0;
    uint64_t traces = 0;
    uint64_t states = 0;
    ReplayStats stats;
};

/** One suite program's generated inputs. */
struct ProgramInputs
{
    std::string name;
    std::vector<uint8_t> bulkLog;  ///< whole-run `.tlog` (bulk size)
    std::vector<uint8_t> bulkTea;  ///< its MRET automaton, serialized
    ReplayOracle bulkOracle;       ///< bulkLog against bulkTea
    std::vector<uint8_t> fleetLog; ///< short `.tlog` (fleet size)
    /** Fleet automata from the fleet-size run, one per kSelectors. */
    std::array<std::vector<uint8_t>, 4> fleetTea;
    std::array<ReplayOracle, 4> fleetOracle; ///< fleetLog against each
};

/** Everything a run needs; a pure function of the input config. */
struct Inputs
{
    std::vector<ProgramInputs> programs;
    /** The record stream (syn.gcc at bulk size) as a `.tlog`. */
    std::vector<uint8_t> recordLog;
    /** recordLog decoded: what RECORD streams. */
    std::vector<BlockTransition> recordStream;
    RecordOracle recordOracle;
    /** The recorded automaton (the oracle recorder's), serialized. */
    std::vector<uint8_t> recordTea;
    /** The log replayed against `live` (syn.gcc, live size). */
    std::vector<uint8_t> liveLog;
    /** Automaton-independent counters of liveLog. */
    ReplayStats liveOracle;
};

/** Which inputs to generate. */
struct InputConfig
{
    std::vector<std::string> programs; ///< suite program names
    std::string bulkSize = "ref";      ///< bulk logs and record stream
    std::string fleetSize = "test";    ///< fleet logs and automata
    std::string liveSize = "train";    ///< log replayed against `live`
    std::string recordProgram = "syn.gcc";

    /** Stable text form; part of the cache key. */
    std::string describe() const;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selfTest = false;
    bool corruptOracle = false;
    std::string teadbt; ///< path to the teadbt binary
    std::string work;   ///< scratch directory (cache, stores, spans)
    int setups = 5;     ///< set-ups per run (setup_s is their median)
};

/** Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One named metric value. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a run reports. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Noise diagnostics, printed beside the metrics. */
    std::map<std::string, std::string> diagnostics;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Generate the inputs, or load them from `cacheDir` when cached. */
Inputs loadInputs(const InputConfig &cfg, const std::string &cacheDir,
                  bool useCache);

/** Corrupt one oracle of every kind (the self-test's negative case). */
void corruptOracles(Inputs &in);

} // namespace sb

#endif // SERVEBENCH_COMMON_HH
