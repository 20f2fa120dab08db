/**
 * @file
 * The three workloads: set-up, timed phase, record probe and the
 * traced run.
 */

#ifndef SERVEBENCH_WORKLOADS_HH
#define SERVEBENCH_WORKLOADS_HH

#include "common.hh"

namespace sb {

/** Workload names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload against freshly spawned servers and fill `rep`:
 * end-to-end metrics, or per-layer metrics with `opt.trace`. Every
 * operation is checked against `in`'s oracles.
 */
void runWorkload(const Options &opt, const Inputs &in, Report &rep);

} // namespace sb

#endif // SERVEBENCH_WORKLOADS_HH
