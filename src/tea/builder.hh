/**
 * @file
 * Algorithm 1: converting a set of traces into a TEA.
 */

#ifndef TEA_TEA_BUILDER_HH
#define TEA_TEA_BUILDER_HH

#include "tea/automaton.hh"
#include "trace/trace.hh"

namespace tea {

/**
 * Run Algorithm 1 for one trace, growing `tea` in place.
 *
 * Step 2 appends one state per TBB (Property 1), numbered after every
 * state already present; step 3 adds the TBB's transitions to its
 * intra-trace successors, labeled with the successor's start address,
 * and wires NTE to the trace entry (Property 2). Transitions to
 * non-trace successors stay implicit (they fall back to NTE).
 *
 * Edges never cross traces, so appending trace after trace yields
 * exactly the automaton buildTea() produces for the whole set — the
 * online recorder grows its live TEA this way, one trace per install.
 *
 * `trace` must have passed Trace::validate() (every TraceSet member
 * has), which makes each new state deterministic: its out-labels are
 * unique.
 *
 * @throws PanicError on an entry address another trace already owns.
 */
void appendTrace(Tea &tea, const Trace &trace);

/**
 * Build the whole-program TEA for a trace set (Algorithm 1): the NTE
 * state (implicit in Tea's constructor), then appendTrace() for every
 * trace in id order.
 *
 * The result is validated against the input before being returned.
 */
Tea buildTea(const TraceSet &traces);

} // namespace tea

#endif // TEA_TEA_BUILDER_HH
