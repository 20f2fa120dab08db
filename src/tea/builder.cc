#include "tea/builder.hh"

namespace tea {

void
appendTrace(Tea &tea, const Trace &t)
{
    // Lines 3-5: one state per TBB, numbered after every existing state.
    StateId first = static_cast<StateId>(tea.numStates());
    for (uint32_t b = 0; b < t.blocks.size(); ++b) {
        const TraceBasicBlock &tbb = t.blocks[b];
        tea.addState(t.id, b, tbb.start, tbb.end, tbb.loopHeader);
    }

    // Lines 6-14: transitions out of TBBs. Successors that are trace
    // blocks get explicit transitions labeled with the successor's start
    // address; all other successors fall back to NTE implicitly.
    for (const Trace::Edge &e : t.edges)
        tea.addTransition(first + e.from, first + e.to);

    // Lines 15-17: NTE -> trace entry, labeled with the start address.
    tea.addEntry(first);
}

Tea
buildTea(const TraceSet &traces)
{
    Tea tea; // line 1-2: {NTE}, no transitions
    for (const Trace &t : traces.all())
        appendTrace(tea, t);
    tea.validate(traces);
    return tea;
}

} // namespace tea
