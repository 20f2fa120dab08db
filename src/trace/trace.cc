#include "trace/trace.hh"

#include <set>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace tea {

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Superblock: return "superblock";
      case TraceKind::TraceTree: return "trace-tree";
      case TraceKind::CompactTraceTree: return "compact-trace-tree";
      case TraceKind::FrequentPath: return "frequent-path";
    }
    return "?";
}

Addr
Trace::entry() const
{
    TEA_ASSERT(!blocks.empty(), "trace %u has no blocks", id);
    return blocks[0].start;
}

uint64_t
Trace::staticInsnCount(
    const std::function<uint64_t(Addr, Addr)> &counter) const
{
    uint64_t total = 0;
    for (const TraceBasicBlock &tbb : blocks)
        total += counter(tbb.start, tbb.end);
    return total;
}

bool
Trace::containsBlock(Addr start, Addr end) const
{
    for (const TraceBasicBlock &tbb : blocks)
        if (tbb.start == start && tbb.end == end)
            return true;
    return false;
}

int
Trace::successorOn(uint32_t from, Addr label) const
{
    for (const Edge &e : edges)
        if (e.from == from && blocks[e.to].start == label)
            return static_cast<int>(e.to);
    return -1;
}

void
Trace::validate() const
{
    if (blocks.empty())
        fatal("trace %u has no blocks", id);
    for (const TraceBasicBlock &tbb : blocks) {
        if (tbb.end < tbb.start)
            fatal("trace %u: block end %s before start %s", id,
                  hex32(tbb.end).c_str(), hex32(tbb.start).c_str());
    }
    // Edges must reference valid blocks, and the automaton the trace
    // implies must be deterministic: a (from, label) pair appears at
    // most once. A repeated identical edge counts too, since the TEA
    // state would get the same out-label twice.
    std::set<std::pair<uint32_t, Addr>> seen;
    for (const Edge &e : edges) {
        if (e.from >= blocks.size() || e.to >= blocks.size())
            fatal("trace %u: edge (%u -> %u) out of range", id, e.from,
                  e.to);
        Addr label = blocks[e.to].start;
        if (!seen.insert({e.from, label}).second)
            fatal("trace %u: nondeterministic edges from TBB %u on %s", id,
                  e.from, hex32(label).c_str());
    }
}

TraceId
TraceSet::add(Trace trace)
{
    trace.id = static_cast<TraceId>(traces.size());
    trace.validate();
    Addr entry = trace.entry();
    if (entryIndex.count(entry))
        fatal("a trace starting at %s already exists",
              hex32(entry).c_str());
    entryIndex[entry] = trace.id;
    traces.push_back(std::move(trace));
    return traces.back().id;
}

void
TraceSet::replace(TraceId id, Trace trace)
{
    TEA_ASSERT(id < traces.size(), "replace of unknown trace %u", id);
    trace.id = id;
    trace.validate();
    Addr old_entry = traces[id].entry();
    Addr new_entry = trace.entry();
    if (old_entry != new_entry) {
        auto it = entryIndex.find(new_entry);
        if (it != entryIndex.end() && it->second != id)
            fatal("a trace starting at %s already exists",
                  hex32(new_entry).c_str());
        entryIndex.erase(old_entry);
        entryIndex[new_entry] = id;
    }
    traces[id] = std::move(trace);
}

const Trace &
TraceSet::at(TraceId id) const
{
    TEA_ASSERT(id < traces.size(), "unknown trace %u", id);
    return traces[id];
}

int
TraceSet::traceAtEntry(Addr addr) const
{
    auto it = entryIndex.find(addr);
    return it == entryIndex.end() ? -1 : static_cast<int>(it->second);
}

size_t
TraceSet::totalBlocks() const
{
    size_t n = 0;
    for (const Trace &t : traces)
        n += t.blocks.size();
    return n;
}

size_t
TraceSet::totalEdges() const
{
    size_t n = 0;
    for (const Trace &t : traces)
        n += t.edges.size();
    return n;
}

void
TraceSet::clear()
{
    traces.clear();
    entryIndex.clear();
}

} // namespace tea
