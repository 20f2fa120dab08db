#include "tea/compiled.hh"

#include <atomic>

#include "tea/teac.hh"
#include "util/logging.hh"
#include "util/mmap.hh"

namespace tea {

namespace {

std::atomic<uint64_t> compileCounter{0};

/** Smallest power of two >= 2 * n (min 8): keeps the open-addressed
 *  table at most half full, so probe chains stay short. */
uint32_t
hashCapacity(size_t n)
{
    uint32_t cap = 8;
    while (cap < 2 * n)
        cap *= 2;
    return cap;
}

} // namespace

CompiledTea::CompiledTea(const Tea &tea)
{
    compileCounter.fetch_add(1, std::memory_order_relaxed);
    nStates = static_cast<uint32_t>(tea.numStates());
    nEntries_ = static_cast<uint32_t>(tea.entries().size());

    uint64_t succTotal = 0;
    for (StateId id = 1; id < nStates; ++id)
        succTotal += tea.state(id).succs.size();
    TEA_ASSERT(succTotal <= 0xffffffffull, "transition count overflow");
    nSuccs_ = static_cast<uint32_t>(succTotal);

    uint32_t cap = hashCapacity(nEntries_);
    hashMask = cap - 1;

    // Build every section in place inside one arena laid out exactly as
    // the .teac payload, so serialize() is a verbatim copy and a mapped
    // image is indistinguishable from a fresh compile.
    TeacLayout lay = TeacLayout::compute(nStates, nSuccs_, nEntries_, cap);
    arena.assign(lay.payloadBytes, 0);
    uint8_t *base = arena.data();
    auto *succOffset = reinterpret_cast<uint32_t *>(base + lay.offSuccOffset);
    auto *succsOut = reinterpret_cast<Succ *>(base + lay.offSuccs);
    auto *stateStart = reinterpret_cast<Addr *>(base + lay.offStateStart);
    auto *stateMeta = reinterpret_cast<StateMeta *>(base + lay.offStateMeta);
    auto *hashSlots = reinterpret_cast<HashSlot *>(base + lay.offHashSlots);
    auto *entriesOut = reinterpret_cast<Entry *>(base + lay.offEntries);
    auto *stateBlock =
        reinterpret_cast<StateBlock *>(base + lay.offStateBlock);

    // SoA state metadata. NTE (slot 0) keeps kNoAddr / ~0u identity.
    stateStart[0] = kNoAddr;
    stateMeta[0] = StateMeta{~0u, ~0u};
    stateBlock[0] = StateBlock{kNoAddr, 0};
    for (StateId id = 1; id < nStates; ++id) {
        const TeaState &st = tea.state(id);
        stateStart[id] = st.start;
        stateMeta[id] = StateMeta{st.trace, st.tbb};
        stateBlock[id] =
            StateBlock{st.end, st.loopHeader ? kLoopHeaderFlag : 0};
    }

    // CSR successor arrays, labels inlined. NTE's run is empty (its
    // out-transitions are the entry index below).
    succOffset[0] = 0;
    succOffset[1] = 0;
    for (StateId id = 1; id < nStates; ++id)
        succOffset[id + 1] =
            succOffset[id] +
            static_cast<uint32_t>(tea.state(id).succs.size());
    for (StateId id = 1; id < nStates; ++id) {
        uint32_t at = succOffset[id];
        for (StateId t : tea.state(id).succs)
            succsOut[at++] = Succ{stateStart[t], t};
    }

    // Entry index: flat sorted array + open-addressed hash.
    for (uint32_t i = 0; i < cap; ++i)
        hashSlots[i] = HashSlot{kNoAddr, Tea::kNteState};
    uint32_t at = 0;
    for (const auto &[addr, id] : tea.entries()) {
        TEA_ASSERT(addr != kNoAddr, "entry at the invalid address");
        entriesOut[at++] = Entry{addr, id};
        uint32_t slot = hashOf(addr) & hashMask;
        while (hashSlots[slot].addr != kNoAddr)
            slot = (slot + 1) & hashMask;
        hashSlots[slot] = HashSlot{addr, id};
    }

    payloadP = base;
    payloadLen = lay.payloadBytes;
    succOffsetP = succOffset;
    succsP = succsOut;
    stateStartP = stateStart;
    stateMetaP = stateMeta;
    hashSlotsP = hashSlots;
    entriesP = entriesOut;
    stateBlockP = stateBlock;
}

std::shared_ptr<const CompiledTea>
CompiledTea::compile(std::shared_ptr<const Tea> tea)
{
    TEA_ASSERT(tea != nullptr, "compiling a null automaton snapshot");
    return std::make_shared<const CompiledTea>(*tea);
}

std::shared_ptr<const CompiledTea>
CompiledTea::fromMapped(std::shared_ptr<const MappedFile> file,
                        bool verifyPayload)
{
    TEA_ASSERT(file != nullptr, "loading a null mapping");
    CompiledTeaView view =
        CompiledTeaView::parse(file->data(), file->size(), verifyPayload);
    std::shared_ptr<CompiledTea> compiled(new CompiledTea());
    compiled->adoptView(view);
    compiled->mapped = std::move(file);
    return compiled;
}

std::shared_ptr<const CompiledTea>
CompiledTea::fromFile(const std::string &path, bool verifyPayload)
{
    return fromMapped(MappedFile::openShared(path), verifyPayload);
}

void
CompiledTea::adoptView(const CompiledTeaView &view)
{
    nStates = view.header.nStates;
    nSuccs_ = view.header.nSuccs;
    nEntries_ = view.header.nEntries;
    hashMask = view.header.hashCap - 1;
    succOffsetP = view.succOffset;
    succsP = view.succs;
    stateStartP = view.stateStart;
    stateMetaP = view.stateMeta;
    hashSlotsP = view.hashSlots;
    entriesP = view.entries;
    stateBlockP = view.stateBlock;
    payloadP = view.payload;
    payloadLen = view.header.payloadBytes;
}

StateId
CompiledTea::stateFor(uint32_t trace, uint32_t tbb) const
{
    for (StateId id = 1; id < nStates; ++id)
        if (stateMetaP[id].trace == trace && stateMetaP[id].tbb == tbb)
            return id;
    return Tea::kNteState;
}

Tea
CompiledTea::rehydrateTea() const
{
    // Every TeaState field lives in some section. A parsed image is
    // memory-safe, but the audit guards the kernel, not Tea's own
    // invariants (nor, in the serving tier, the block records): what it
    // leaves open fails here as bad data.
    Tea tea;
    for (StateId id = 1; id < nStates; ++id) {
        const StateMeta &m = stateMetaP[id];
        const StateBlock &b = stateBlockP[id];
        if (tea.stateFor(m.trace, m.tbb) != Tea::kNteState)
            fatal("teac: two states claim trace %u tbb %u", m.trace, m.tbb);
        if ((b.flags & ~kLoopHeaderFlag) != 0)
            fatal("teac: state %u has unknown block flags 0x%08x", id,
                  b.flags);
        tea.addState(m.trace, m.tbb, stateStartP[id], b.end,
                     (b.flags & kLoopHeaderFlag) != 0);
    }
    for (StateId id = 1; id < nStates; ++id)
        for (const Succ *p = succBegin(id); p != succEnd(id); ++p)
            tea.addTransition(id, p->target);
    // Entries are strictly sorted by address (audited), so matching
    // each to its state's start also rules out a duplicate entry.
    for (const Entry *e = entriesP; e != entriesP + nEntries_; ++e) {
        if (e->addr != stateStartP[e->state])
            fatal("teac: entry 0x%08x names state %u, which starts at "
                  "0x%08x",
                  e->addr, e->state, stateStartP[e->state]);
        tea.addEntry(e->state);
    }
    return tea;
}

size_t
CompiledTea::footprintBytes() const
{
    return (size_t(nStates) + 1) * sizeof(uint32_t) + // succOffset
           size_t(nSuccs_) * sizeof(Succ) +
           size_t(nStates) * sizeof(Addr) +           // stateStart
           size_t(nStates) * sizeof(StateMeta) +
           (size_t(hashMask) + 1) * sizeof(HashSlot) +
           size_t(nEntries_) * sizeof(Entry);
}

uint64_t
CompiledTea::compileCount()
{
    return compileCounter.load(std::memory_order_relaxed);
}

} // namespace tea
