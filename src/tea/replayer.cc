#include "tea/replayer.hh"

#include "util/logging.hh"
#include "util/strutil.hh"

namespace tea {

TeaReplayer::TeaReplayer(const Tea &automaton, LookupConfig config,
                         std::shared_ptr<const CompiledTea> precompiled)
    : tea(&automaton), cfg(config)
{
    if (cfg.useCompiled) {
        if (precompiled) {
            TEA_ASSERT(precompiled->numStates() == tea->numStates(),
                       "compiled snapshot does not match the automaton");
            compiledShared = std::move(precompiled);
        } else {
            compiledShared = std::make_shared<const CompiledTea>(*tea);
        }
        compiled = compiledShared.get();
    } else {
        for (const auto &[addr, id] : tea->entries()) {
            if (cfg.useGlobalBTree)
                globalTree.insert(addr, id);
            else
                globalList.emplace_front(addr, id);
        }
    }
    nStatesTotal = static_cast<uint32_t>(tea->numStates());
    if (cfg.useLocalCache)
        cacheSlot.assign(nStatesTotal, kNoCacheSlot);
    execCounts.assign(nStatesTotal, 0);
}

TeaReplayer::TeaReplayer(std::shared_ptr<const CompiledTea> snapshot,
                         LookupConfig config)
{
    TEA_ASSERT(snapshot != nullptr, "replaying a null compiled snapshot");
    rebind(std::move(snapshot), config);
}

void
TeaReplayer::rebind(std::shared_ptr<const CompiledTea> snapshot,
                    LookupConfig config)
{
    if (snapshot != nullptr && !config.useCompiled)
        fatal("the reference replay kernel needs the source automaton; "
              "a compiled snapshot alone cannot serve it");
    // Only the reference kernel fills the pointer-based containers.
    if (!cfg.useCompiled) {
        globalTree.clear();
        globalList.clear();
    }
    tea = nullptr;
    cfg = config;
    compiledShared = std::move(snapshot);
    compiled = compiledShared.get();
    nStatesTotal = compiled != nullptr ? compiled->numStates() : 0;
    cacheSlot.clear();
    reset();
}

uint64_t
TeaReplayer::execCount(StateId id) const
{
    TEA_ASSERT(id < execCounts.size(), "bad state id %u", id);
    return execCounts[id];
}

uint64_t
TeaReplayer::execCountFor(TraceId trace, uint32_t tbb) const
{
    // The compiled snapshot carries every state's identity, so the
    // per-copy profile works even without a source Tea (mapped images).
    StateId id = tea ? tea->stateFor(trace, tbb)
                     : compiled->stateFor(trace, tbb);
    return id == Tea::kNteState ? 0 : execCounts[id];
}

size_t
TeaReplayer::lookupFootprintBytes() const
{
    size_t bytes = 0;
    if (compiled) {
        bytes += compiled->footprintBytes();
    } else if (cfg.useGlobalBTree) {
        bytes += globalTree.footprintBytes();
    } else {
        for (const auto &entry : globalList)
            bytes += sizeof(entry) + sizeof(void *);
    }
    // Only materialized caches are charged (plus their slot index);
    // states that never missed on the exit path cost nothing.
    bytes += cachePool.size() * LocalCache::footprintBytes();
    bytes += cacheSlot.size() * sizeof(uint32_t);
    return bytes;
}

void
TeaReplayer::cacheFill(StateId state, Addr label, StateId value)
{
    uint32_t slot = cacheSlot[state];
    if (slot == kNoCacheSlot) {
        // First exit-path miss of this state: materialize its cache.
        slot = static_cast<uint32_t>(cachePool.size());
        cachePool.emplace_back();
        cacheSlot[state] = slot;
    }
    cachePool[slot].fill(label, value);
}

StateId
TeaReplayer::resolveEntry(Addr addr)
{
    ++st.globalLookups;
    if (cfg.useGlobalBTree) {
        BPlusTree::Value v;
        if (globalTree.find(addr, v)) {
            ++st.globalHits;
            return static_cast<StateId>(v);
        }
        return Tea::kNteState;
    }
    // The un-indexed fallback the paper started from: walk the trace
    // list. Pathological when there are many traces (gcc, vortex).
    for (const auto &[entry, id] : globalList) {
        if (entry == addr) {
            ++st.globalHits;
            return id;
        }
    }
    return Tea::kNteState;
}

void
TeaReplayer::feedReference(const BlockTransition &tr)
{
    // Attribute the block that just finished to the current state.
    ++st.blocks;
    ++execCounts[cur];
    st.insnsTotal += tr.from.icount;
    if (cur == Tea::kNteState)
        ++st.nteBlocks;
    if (cur != Tea::kNteState) {
        st.insnsInTrace += tr.from.icount;
        if (cfg.checkConsistency && tea->state(cur).start != tr.from.start)
            desync(cur, tr.from.start);
    }

    if (tr.toStart == kNoAddr)
        return; // program halted; stay put
    ++st.transitions;
    Addr label = tr.toStart;

    if (cur != Tea::kNteState) {
        // 1. the state's own transition list (intra-trace).
        const TeaState &s = tea->state(cur);
        for (StateId t : s.succs) {
            if (tea->state(t).start == label) {
                ++st.intraTraceHits;
                cur = t;
                return;
            }
        }
        ++st.traceExits;
        // 2. the per-state local cache (covers trace -> trace and
        //    trace -> cold resolutions; a cached 0 means "cold").
        if (cfg.useLocalCache) {
            StateId v;
            if (cacheLookup(cur, label, v)) {
                ++st.localCacheHits;
                cur = v;
                if (cur == Tea::kNteState)
                    ++st.exitsToCold;
                return;
            }
            StateId next = resolveEntry(label);
            cacheFill(cur, label, next);
            cur = next;
            if (cur == Tea::kNteState)
                ++st.exitsToCold;
            return;
        }
        cur = resolveEntry(label);
        if (cur == Tea::kNteState)
            ++st.exitsToCold;
        return;
    }

    // From NTE: only the global container can get us into a trace
    // ("local caches are pointless outside of traces").
    cur = resolveEntry(label);
}

void
TeaReplayer::feedCompiled(const BlockTransition &tr)
{
    stepCompiled(cur, st, execCounts.data(), tr);
}

namespace {

/** feedAll()'s record source: a pointer walk over the caller's array. */
struct ArraySource
{
    const BlockTransition *p;

    BlockTransition next() { return *p++; }
};

} // namespace

void
TeaReplayer::feedAll(const BlockTransition *begin,
                     const BlockTransition *end)
{
    ArraySource src{begin};
    feedFrom(src, static_cast<size_t>(end - begin));
}

void
TeaReplayer::desync(StateId state, Addr executed) const
{
    Addr start = compiled ? compiled->stateStartOf(state)
                          : tea->state(state).start;
    panic("replay desync: state %u maps %s but %s executed", state,
          hex32(start).c_str(), hex32(executed).c_str());
}

void
TeaReplayer::setCurrentState(StateId id)
{
    TEA_ASSERT(id < nStatesTotal, "bad state id %u", id);
    cur = id;
}

void
TeaReplayer::reset()
{
    cur = Tea::kNteState;
    st = ReplayStats{};
    execCounts.assign(nStatesTotal, 0);
    cachePool.clear();
    if (cfg.useLocalCache)
        cacheSlot.assign(nStatesTotal, kNoCacheSlot);
}

} // namespace tea
