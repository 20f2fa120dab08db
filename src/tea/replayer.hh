/**
 * @file
 * TEA replay: the optimized transition function of §4.2.
 *
 * The replayer consumes the block-transition stream of an *unmodified*
 * program execution and keeps the automaton state synchronized, gathering
 * per-TBB profile data on the way. Its hot path is the transition
 * function; per the paper it is layered as
 *
 *   1. the current state's own transition list (intra-trace, common case),
 *   2. a per-state local cache of recent (address -> state) resolutions,
 *   3. a global container over trace entry addresses.
 *
 * Two kernels implement that same function:
 *
 * - the **compiled kernel** (default): walks a CompiledTea — CSR
 *   successor arrays with inlined labels, flat open-addressed entry
 *   hash (tea/compiled.hh). The fast path for production replay.
 * - the **reference kernel**: walks the pointer-based `Tea` directly
 *   with the paper's node B+ tree or linked trace list. This is the
 *   §4.2 reproduction the Table 4 ablation measures, and the oracle
 *   the compiled kernel is differentially tested against.
 *
 * Both kernels are bit-identical in every observable: ReplayStats,
 * per-TBB profiles, and the state sequence (tests/test_compiled.cc).
 *
 * The four Table 4 configurations are obtained from LookupConfig with
 * `useCompiled = false`: {No-Global/Local, Global/No-Local,
 * Global/Local} plus the "Empty" run (an automaton with no traces,
 * global tree on, caches off).
 */

#ifndef TEA_TEA_REPLAYER_HH
#define TEA_TEA_REPLAYER_HH

#include <forward_list>
#include <memory>
#include <vector>

#include "btree/bptree.hh"
#include "btree/local_cache.hh"
#include "tea/automaton.hh"
#include "tea/compiled.hh"
#include "vm/block.hh"

/**
 * Force a per-record helper into its caller's loop: at -O2 GCC outlines
 * the kernel step and the codec's record decoders (their cold fatal()
 * and panic() paths inflate the size estimate), and the call/return
 * alone costs a measurable share of a few-ns-per-record budget.
 */
#if defined(__GNUC__)
#define TEA_HOT_INLINE inline __attribute__((always_inline))
#else
#define TEA_HOT_INLINE inline
#endif

namespace tea {

/** Which lookup accelerators the transition function may use (§4.2). */
struct LookupConfig
{
    /**
     * Use an indexed global container over trace entries vs a linear
     * list. Under the compiled kernel the index is the flat hash and
     * the list is the flat entry array; under the reference kernel
     * they are the paper's node B+ tree and linked list.
     */
    bool useGlobalBTree = true;
    bool useLocalCache = true;  ///< per-state caches on the exit path
    /**
     * Verify on every transition that the automaton state matches the
     * executing block (the paper's "precise map" property). Used by the
     * test suite; adds overhead, so benches leave it off.
     */
    bool checkConsistency = false;
    /**
     * Replay on the cache-flat CompiledTea kernel (default) instead of
     * the pointer-chasing reference structures. Observable results are
     * identical either way; only speed differs.
     */
    bool useCompiled = true;
};

/** Counters gathered during a replay (or an online recording) run. */
struct ReplayStats
{
    uint64_t blocks = 0;        ///< block executions observed
    uint64_t insnsTotal = 0;    ///< dynamic instructions observed
    uint64_t insnsInTrace = 0;  ///< of those, executed inside a trace
    uint64_t transitions = 0;   ///< automaton transitions processed
    uint64_t intraTraceHits = 0;///< resolved by the state's own list
    uint64_t traceExits = 0;    ///< transitions that left a trace
    uint64_t exitsToCold = 0;   ///< of those, landing in cold code (NTE)
    uint64_t nteBlocks = 0;     ///< block executions attributed to NTE
    uint64_t localCacheHits = 0;
    uint64_t globalLookups = 0;
    uint64_t globalHits = 0;

    /** Fraction of dynamic instructions inside traces (Tables 2/3). */
    double
    coverage() const
    {
        return insnsTotal == 0
                   ? 0.0
                   : static_cast<double>(insnsInTrace) /
                         static_cast<double>(insnsTotal);
    }

    /**
     * Accumulate another run's counters (batch replay, svc). Pure
     * integer sums, so folding per-stream stats in a fixed order yields
     * bit-identical totals no matter which threads produced them.
     */
    ReplayStats &
    operator+=(const ReplayStats &o)
    {
        blocks += o.blocks;
        insnsTotal += o.insnsTotal;
        insnsInTrace += o.insnsInTrace;
        transitions += o.transitions;
        intraTraceHits += o.intraTraceHits;
        traceExits += o.traceExits;
        exitsToCold += o.exitsToCold;
        nteBlocks += o.nteBlocks;
        localCacheHits += o.localCacheHits;
        globalLookups += o.globalLookups;
        globalHits += o.globalHits;
        return *this;
    }

    bool operator==(const ReplayStats &) const = default;
};

/**
 * Replays a TEA against a running program.
 *
 * Feed it every BlockTransition produced by a BlockTracker; it attributes
 * the completed block to the current state (profiling) and then applies
 * the transition function on the next block's start address.
 */
class TeaReplayer
{
  public:
    /**
     * @param tea    the automaton to replay (must outlive the replayer)
     * @param config kernel and accelerator selection
     * @param precompiled an existing compiled snapshot of `tea` to
     *        share (svc/net replay against one registry-owned
     *        CompiledTea). When null and the config selects the
     *        compiled kernel, the replayer compiles its own copy.
     */
    TeaReplayer(const Tea &tea, LookupConfig config,
                std::shared_ptr<const CompiledTea> precompiled = nullptr);

    /**
     * Tea-less construction: replay a compiled snapshot alone — the
     * store's mapped `.teac` images never materialize a Tea at all.
     * A CompiledTea is self-describing (SoA metadata carries each
     * state's identity), so profiles and consistency checks work as
     * usual; only the reference kernel needs the source automaton,
     * hence `config.useCompiled` must be set.
     *
     * @param snapshot the compiled automaton (shared, kept alive)
     * @param config   accelerator selection; `useCompiled` required
     * @throws FatalError when config selects the reference kernel
     */
    TeaReplayer(std::shared_ptr<const CompiledTea> snapshot,
                LookupConfig config);

    /** Process one completed block execution. */
    void
    feed(const BlockTransition &tr)
    {
        if (compiled)
            feedCompiled(tr);
        else
            feedReference(tr);
    }

    /**
     * Process a contiguous run of block executions: feedFrom() over
     * an array. Batch-replay paths (benches, salvage jobs) should
     * prefer this over per-record feed().
     */
    void feedAll(const BlockTransition *begin,
                 const BlockTransition *end);

    /**
     * Pull `n` records from `src`, anything with a `BlockTransition
     * next()`, and process them in order. Result-identical to feeding
     * each one; on the compiled kernel the walk keeps the current
     * state and the hot counters in registers and stores them back
     * once, which is where most of the kernel's throughput edge comes
     * from. feedAll() pulls from an array; the trace-log reader's
     * strict chunk walk (svc/tracelog.hh) pulls from the codec, so
     * each record reaches the kernel as it is decoded and no decoded
     * chunk is ever stored. The reference kernel takes the records
     * one feed() at a time. When `src.next()` throws, the exception
     * propagates and the replayer's counters are left unspecified
     * (storing them back on the way out costs the loop ~4%): a caller
     * that must keep them decodes before it feeds, as the reader's
     * salvage mode does.
     */
    template <class Source>
    void feedFrom(Source &src, size_t n);

    /** The automaton state of the block currently executing. */
    StateId currentState() const { return cur; }

    /** Accumulated counters. */
    const ReplayStats &stats() const { return st; }

    /** Executions attributed to a state (NTE included at index 0). */
    uint64_t execCount(StateId id) const;

    /** Executions of (trace, tbb) — the per-copy profile of Figure 1. */
    uint64_t execCountFor(TraceId trace, uint32_t tbb) const;

    /**
     * Memory used by the lookup structures: the global container
     * (compiled arrays, or tree/list on the reference kernel) plus only
     * the local caches actually materialized — caches allocate lazily
     * on the first exit-path miss of their state, so an automaton with
     * a million states costs nothing until states actually exit.
     */
    size_t lookupFootprintBytes() const;

    /** Per-state local caches materialized so far. */
    size_t materializedCaches() const { return cachePool.size(); }

    /** Total automaton states including NTE. */
    uint32_t numStates() const { return nStatesTotal; }

    /** Return to NTE and zero all statistics. */
    void reset();

    /**
     * Start over on `snapshot`: become TeaReplayer(snapshot, config)
     * in the storage this replayer already holds. The per-state arrays
     * and the local-cache pool keep their capacity, so an owner that
     * replays stream after stream (a server session) allocates only
     * when an automaton outgrows the ones before it. A null snapshot
     * drops the automaton and keeps the storage: the replayer is then
     * empty (numStates() == 0) and must not be fed until the next
     * rebind().
     * @throws FatalError when config selects the reference kernel
     */
    void rebind(std::shared_ptr<const CompiledTea> snapshot,
                LookupConfig config);

    /**
     * Force the automaton position. Used by the online recorder to
     * place the fresh replayer it seats after every trace install.
     */
    void setCurrentState(StateId id);

  private:
    /** cacheSlot sentinel: no cache materialized for the state yet. */
    static constexpr uint32_t kNoCacheSlot = 0xffffffffu;

    void feedReference(const BlockTransition &tr);
    void feedCompiled(const BlockTransition &tr);
    /**
     * The compiled kernel's transition step, the one loop body of
     * feed(), feedAll() and the fused chunk walk: attribute the block
     * `tr` finished to state `c`, then follow `tr.toStart` through
     * the CSR successors, the local cache and the flat entry index.
     * `c` and `s` are the replayer's own `cur` and `st` on feed(),
     * and locals the compiler keeps in registers on feedFrom().
     */
    TEA_HOT_INLINE void stepCompiled(StateId &c, ReplayStats &s,
                                     uint64_t *exec,
                                     const BlockTransition &tr);
    StateId resolveEntry(Addr addr);
    StateId
    resolveEntryCompiled(ReplayStats &s, Addr addr) const
    {
        ++s.globalLookups;
        StateId id = cfg.useGlobalBTree ? compiled->entryAt(addr)
                                        : compiled->entryLinear(addr);
        if (id != Tea::kNteState)
            ++s.globalHits;
        return id;
    }
    bool
    cacheLookup(StateId state, Addr label, StateId &out) const
    {
        uint32_t slot = cacheSlot[state];
        if (slot == kNoCacheSlot)
            return false;
        uint32_t v;
        if (!cachePool[slot].lookup(label, v))
            return false;
        out = static_cast<StateId>(v);
        return true;
    }
    void cacheFill(StateId state, Addr label, StateId value);
    [[noreturn]] void desync(StateId state, Addr executed) const;

    /** The source automaton; null when replaying a compiled snapshot
     *  alone (the reference kernel is unavailable then). */
    const Tea *tea = nullptr;
    LookupConfig cfg;
    uint32_t nStatesTotal = 0;
    StateId cur = Tea::kNteState;

    /** The compiled kernel's flat snapshot; null on the reference path. */
    const CompiledTea *compiled = nullptr;
    std::shared_ptr<const CompiledTea> compiledShared; ///< ownership

    BPlusTree globalTree;
    /**
     * The unindexed fallback container. The paper's first implementation
     * "kept the traces in a linked list" (§4.2); a real node-per-entry
     * list is used here so the pathological configurations pay the same
     * pointer-chasing cost the paper measured.
     */
    std::forward_list<std::pair<Addr, StateId>> globalList;

    /**
     * Lazy per-state caches: cacheSlot maps a state to its slot in
     * cachePool, kNoCacheSlot until the state's first exit-path fill.
     */
    std::vector<uint32_t> cacheSlot;
    std::vector<LocalCache> cachePool;

    std::vector<uint64_t> execCounts;
    ReplayStats st;
};

TEA_HOT_INLINE void
TeaReplayer::stepCompiled(StateId &c, ReplayStats &s, uint64_t *exec,
                          const BlockTransition &tr)
{
    // Walks only flat arrays: CSR succ entries with inlined labels,
    // then (on the exit path) the lazy local cache, then the flat
    // global entry index.
    const CompiledTea &ct = *compiled;
    ++s.blocks;
    ++exec[c];
    s.insnsTotal += tr.from.icount;
    if (c == Tea::kNteState) {
        ++s.nteBlocks;
        if (tr.toStart == kNoAddr)
            return; // program halted; stay put
        ++s.transitions;
        // From NTE only the global container applies ("local caches
        // are pointless outside of traces").
        c = resolveEntryCompiled(s, tr.toStart);
        return;
    }

    s.insnsInTrace += tr.from.icount;
    if (cfg.checkConsistency && ct.stateStartOf(c) != tr.from.start)
        desync(c, tr.from.start);
    if (tr.toStart == kNoAddr)
        return;
    ++s.transitions;
    const Addr label = tr.toStart;

    // 1. one contiguous run of (label, target) pairs.
    const CompiledTea::Succ *end = ct.succEnd(c);
    for (const CompiledTea::Succ *p = ct.succBegin(c); p != end; ++p) {
        if (p->label == label) {
            ++s.intraTraceHits;
            c = p->target;
            return;
        }
    }
    ++s.traceExits;
    // 2. the per-state local cache, 3. the global container.
    if (cfg.useLocalCache) {
        StateId v;
        if (cacheLookup(c, label, v)) {
            ++s.localCacheHits;
            c = v;
        } else {
            StateId next = resolveEntryCompiled(s, label);
            cacheFill(c, label, next);
            c = next;
        }
    } else {
        c = resolveEntryCompiled(s, label);
    }
    if (c == Tea::kNteState)
        ++s.exitsToCold;
}

template <class Source>
void
TeaReplayer::feedFrom(Source &src, size_t n)
{
    if (compiled == nullptr) {
        for (size_t i = 0; i < n; ++i)
            feedReference(src.next());
        return;
    }
    // The current state and every counter live in locals for the whole
    // walk and are stored back once: per-record memory traffic shrinks
    // to the execCounts bump plus the CSR probe itself.
    ReplayStats local = st;
    StateId c = cur;
    uint64_t *exec = execCounts.data();
    for (size_t i = 0; i < n; ++i)
        stepCompiled(c, local, exec, src.next());
    st = local;
    cur = c;
}

} // namespace tea

#endif // TEA_TEA_REPLAYER_HH
