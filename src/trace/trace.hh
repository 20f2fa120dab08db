/**
 * @file
 * The trace model: Definitions 1-3 of the paper.
 *
 * - A *Basic Block* (BB) is a single-entry single-exit instruction
 *   sequence, identified here by its (start, end) instruction addresses.
 * - A *Trace Basic Block* (TBB) is an **instance** of a BB inside a trace;
 *   the same BB occurring in two traces (or twice in one trace tree)
 *   yields two distinct TBBs ($$T1.next vs $$T2.next in Figure 2).
 * - A *Trace* is a collection of TBBs plus the control-flow edges between
 *   them — general enough to cover MRET superblocks and (compact) trace
 *   trees.
 */

#ifndef TEA_TRACE_TRACE_HH
#define TEA_TRACE_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/types.hh"

namespace tea {

/** Identifies a trace within a TraceSet. */
using TraceId = uint32_t;

/** Which selection strategy produced a trace. */
enum class TraceKind : uint8_t
{
    Superblock,       ///< MRET / NET linear trace
    TraceTree,        ///< TT (Gal & Franz)
    CompactTraceTree, ///< CTT (Porto et al.)
    FrequentPath,     ///< MFET-style most-frequent path
};

/** Name of a trace kind ("superblock", ...). */
const char *traceKindName(TraceKind kind);

/**
 * One TBB: an instance of the basic block [start, end] inside a trace.
 */
struct TraceBasicBlock
{
    Addr start;          ///< first instruction address
    Addr end;            ///< last instruction address
    bool loopHeader = false; ///< recorded as a backward-branch target

    bool operator==(const TraceBasicBlock &) const = default;
};

/**
 * A recorded hot trace.
 *
 * Blocks are indexed 0..n-1 with block 0 as the trace entry. Edges are
 * intra-trace control flow; the DFA transition label of edge (u, v) is
 * implicitly blocks[v].start — the program counter that triggers it.
 */
struct Trace
{
    /** An intra-trace control-flow edge between TBB indices. */
    struct Edge
    {
        uint32_t from;
        uint32_t to;

        bool operator==(const Edge &) const = default;
    };

    TraceId id = 0;
    TraceKind kind = TraceKind::Superblock;
    std::vector<TraceBasicBlock> blocks;
    std::vector<Edge> edges;

    /** The trace's entry address (start of TBB 0). */
    Addr entry() const;

    /** Total static instruction count over all TBBs. */
    uint64_t staticInsnCount(
        const std::function<uint64_t(Addr, Addr)> &counter) const;

    /** True when some TBB is the block [start, end]. */
    bool containsBlock(Addr start, Addr end) const;

    /** Successor TBB of from under label addr, or -1 when none. */
    int successorOn(uint32_t from, Addr label) const;

    /**
     * Validate indices and determinism: no (from, label) pair twice,
     * a repeated identical edge included. @throws FatalError on
     * corruption.
     */
    void validate() const;
};

/**
 * The program's set of recorded traces.
 *
 * Keeps an entry-address index: at most one trace may be entered at a
 * given address (matching both StarDBT's dispatch table and TEA's NTE
 * out-transitions, which must stay deterministic).
 */
class TraceSet
{
  public:
    /** Add a trace, assigning it the next TraceId. @return its id. */
    TraceId add(Trace trace);

    /** Replace an existing trace (used when a trace tree is extended). */
    void replace(TraceId id, Trace trace);

    /** Number of traces. */
    size_t size() const { return traces.size(); }

    bool empty() const { return traces.empty(); }

    /** Trace by id. */
    const Trace &at(TraceId id) const;

    /** All traces. */
    const std::vector<Trace> &all() const { return traces; }

    /** Trace whose entry is addr, or -1. */
    int traceAtEntry(Addr addr) const;

    /** True when some trace starts at addr. */
    bool hasEntry(Addr addr) const { return traceAtEntry(addr) >= 0; }

    /** Total number of TBBs across all traces. */
    size_t totalBlocks() const;

    /** Total number of intra-trace edges. */
    size_t totalEdges() const;

    /** Drop everything. */
    void clear();

  private:
    std::vector<Trace> traces;
    std::unordered_map<Addr, TraceId> entryIndex;
};

} // namespace tea

#endif // TEA_TRACE_TRACE_HH
