/**
 * @file
 * CompiledTea: an immutable, cache-flat snapshot of a frozen Tea.
 *
 * The mutable `Tea` is built for construction: per-state `succs`
 * vectors (one heap allocation each), an `unordered_map` entry index,
 * and a node-based B+ tree bolted on at replay time. Every transition
 * of the reference replay path therefore chases at least two pointers
 * — the succs vector's buffer, then the target `TeaState` to read its
 * start address — before it can even compare a label.
 *
 * Compilation freezes the automaton into contiguous arrays once, so the
 * hot transition function of §4.2 touches only flat memory:
 *
 * - **CSR successor arrays**: one `Succ {label, target}` stream for the
 *   whole automaton, indexed by a `numStates()+1` offset table. The
 *   transition label (the target's start address) is inlined next to
 *   the target id, so the common-case intra-trace probe is a scan over
 *   one contiguous run of 8-byte entries — no per-target state loads.
 * - **Flat open-addressed hash** over the NTE trace-entry addresses
 *   (power-of-two table, multiplicative hashing, linear probing): the
 *   default global lookup, replacing the node B+ tree's pointer walk
 *   with at most a few probes in one array. The B+ tree and the linked
 *   list survive as `LookupConfig` ablation modes (Table 4).
 * - **Flat sorted entry array**: the compiled stand-in for the paper's
 *   linear trace list, used when the global index is ablated away.
 * - **SoA state metadata** (`stateStart`, plus the `(trace, tbb)`
 *   identity of every state): the consistency check, profile mapping,
 *   and per-TBB reporting read plain arrays instead of `TeaState`
 *   records — which also makes a compiled image self-describing, so a
 *   replay needs no `Tea` at all.
 * - **Per-state block records** (block end address, loop-header bit):
 *   the two `TeaState` fields no lookup reads. With them the arena
 *   holds the whole automaton, and rehydrateTea() rebuilds the exact
 *   `Tea` from any snapshot — the reference-kernel escape hatch.
 *
 * Every array lives in ONE contiguous, offset-addressed arena laid out
 * exactly as the persistent `.teac` payload (tea/teac.hh): serializing
 * a compiled automaton is a header plus a verbatim copy of the arena,
 * and loading one is an mmap plus validation — the bytes on disk are
 * byte-for-byte the live lookup structures, so a mapped snapshot
 * replays with zero deserialization. The serialized TEA byte format
 * itself is untouched (docs/FORMATS.md).
 *
 * The compiled kernel's observable behaviour — `ReplayStats`, per-TBB
 * profiles, the state sequence — is bit-identical to the reference
 * path whether it walks a RAM-built arena or a mapped file
 * (tests/test_compiled.cc and tests/test_store.cc prove it
 * differentially).
 *
 * Immutability makes snapshots shareable: the registry compiles each
 * automaton once at put(), the online recorder once per install, and
 * every svc worker and net session replays against the same
 * `shared_ptr<const CompiledTea>` lock-free. A snapshot never retains
 * the `Tea` it was compiled from, and the registry and the store keep
 * only the snapshot; rehydrateTea() rebuilds the Tea for the one
 * caller that needs it, the reference kernel. A mapped CompiledTea
 * co-owns its MappedFile, so LRU eviction in the store can never unmap
 * an image a replay still walks.
 */

#ifndef TEA_TEA_COMPILED_HH
#define TEA_TEA_COMPILED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "tea/automaton.hh"

namespace tea {

class MappedFile;
struct CompiledTeaView;

class CompiledTea
{
  public:
    /** One CSR successor entry: the transition label inlined next to
     *  the target state id (8 bytes, no padding). */
    struct Succ
    {
        Addr label;     ///< start address of the target TBB
        StateId target; ///< the state the transition enters
    };

    /** One trace entry of the flat sorted array (NTE out-transition). */
    struct Entry
    {
        Addr addr;     ///< trace entry address
        StateId state; ///< the entry TBB's state
    };

    /** One slot of the open-addressed entry hash. */
    struct HashSlot
    {
        Addr addr; ///< kNoAddr marks an empty slot
        StateId state;
    };

    /** The (trace, tbb) identity of a state (slot 0 = NTE, both ~0u). */
    struct StateMeta
    {
        uint32_t trace;
        uint32_t tbb;
    };

    /** The rest of a state's TBB: no lookup reads it, rehydrateTea()
     *  does (slot 0 = NTE: end kNoAddr, no flags). */
    struct StateBlock
    {
        Addr end;       ///< block end address
        uint32_t flags; ///< kLoopHeaderFlag or 0
    };

    /** StateBlock::flags bit: the TBB is a loop header. */
    static constexpr uint32_t kLoopHeaderFlag = 1;

    /** Compile a frozen automaton (does not retain `tea`). */
    explicit CompiledTea(const Tea &tea);

    /** Compile a shared snapshot into a shared one (does not retain
     *  `tea`). */
    static std::shared_ptr<const CompiledTea>
    compile(std::shared_ptr<const Tea> tea);

    /**
     * Zero-copy load: validate `file` as a `.teac` image (tea/teac.hh)
     * and serve replay directly from the mapped bytes. The returned
     * snapshot co-owns the mapping, so it stays valid after the store
     * evicts (or even deletes) the file. No deserialization happens —
     * construction cost is header validation plus the structural
     * audit (plus one CRC pass over the payload in strict mode).
     *
     * @param verifyPayload when false, skip the payload CRC pass (the
     *        structural audit still runs; see the "Integrity tiers"
     *        note in tea/teac.hh) — the store's
     *        serving default, and right for callers that trust the
     *        file (e.g. one they just wrote).
     * @throws FatalError on any corruption — never returns a view that
     *         could crash or silently misreplay
     */
    static std::shared_ptr<const CompiledTea>
    fromMapped(std::shared_ptr<const MappedFile> file,
               bool verifyPayload = true);

    /** Map `path` and fromMapped() it. @throws FatalError. */
    static std::shared_ptr<const CompiledTea>
    fromFile(const std::string &path, bool verifyPayload = true);

    /**
     * The relocatable on-disk form: a `.teac` header followed by the
     * arena verbatim (see tea/teac.hh for the exact layout).
     */
    std::vector<uint8_t> serialize() const;

    /** Total states including NTE (slot 0). */
    uint32_t numStates() const { return nStates; }

    /** Trace entries indexed by the flat hash. */
    size_t numEntries() const { return nEntries_; }

    /** Total CSR transitions. */
    size_t numSuccs() const { return nSuccs_; }

    /** The contiguous successor run of a state. */
    const Succ *
    succBegin(StateId id) const
    {
        return succsP + succOffsetP[id];
    }
    const Succ *
    succEnd(StateId id) const
    {
        return succsP + succOffsetP[id + 1];
    }

    /** Start address of a state (kNoAddr for NTE). */
    Addr stateStartOf(StateId id) const { return stateStartP[id]; }

    /** Owning trace of a state (~0u for NTE). */
    uint32_t stateTraceOf(StateId id) const { return stateMetaP[id].trace; }

    /** TBB index of a state within its trace (~0u for NTE). */
    uint32_t stateTbbOf(StateId id) const { return stateMetaP[id].tbb; }

    /**
     * State representing (trace, tbb), or Tea::kNteState when absent.
     * A linear scan — profile reporting only, never the replay path.
     */
    StateId stateFor(uint32_t trace, uint32_t tbb) const;

    /**
     * Global lookup, flat-hash mode: the compiled default. At most a
     * handful of linear probes in one power-of-two array.
     * @return the entry state, or Tea::kNteState when no trace starts
     *         at `addr`
     */
    StateId
    entryAt(Addr addr) const
    {
        uint32_t slot = hashOf(addr) & hashMask;
        for (;;) {
            const HashSlot &h = hashSlotsP[slot];
            if (h.addr == addr)
                return h.state;
            if (h.addr == kNoAddr)
                return Tea::kNteState;
            slot = (slot + 1) & hashMask;
        }
    }

    /**
     * Global lookup, linear mode: scan the flat entry array. The
     * compiled counterpart of the paper's unindexed trace list — still
     * O(entries), kept as the "No Global" ablation.
     */
    StateId
    entryLinear(Addr addr) const
    {
        for (const Entry *p = entriesP; p != entriesP + nEntries_; ++p)
            if (p->addr == addr)
                return p->state;
        return Tea::kNteState;
    }

    /** Trace entries, sorted by address (mirrors Tea::entries()). */
    const Entry *entriesBegin() const { return entriesP; }
    const Entry *entriesEnd() const { return entriesP + nEntries_; }

    /**
     * Resident bytes of the lookup structures (memory accounting for
     * Table 1/4 comparisons). Excludes the block records — only
     * rehydrateTea() reads them, never the kernel.
     */
    size_t footprintBytes() const;

    /** The whole arena (payload) size: every section. */
    size_t arenaBytes() const { return static_cast<size_t>(payloadLen); }

    /**
     * Rebuild the exact Tea this snapshot was compiled from: states in
     * id order with their identity, start, block end and loop-header
     * bit, successors in CSR order, and the entry list — so
     * saveTea(rehydrateTea()) == saveTea(tea). The slow path that makes
     * the reference kernel (and consistency ablations) available for a
     * snapshot that carries no Tea: a mapped image, or one the recorder
     * published.
     * @throws FatalError when a (tampered, parseable) image is no Tea:
     *         two states claim one (trace, tbb), or an entry's address
     *         is not its state's start
     */
    Tea rehydrateTea() const;

    /** True when this snapshot serves replay out of a mapped file. */
    bool isMapped() const { return mapped != nullptr; }

    /**
     * Total CompiledTea *compilations* (constructions from a Tea) since
     * process start. Mapped loads do not count — that is the point of
     * the store: the compile-once contract and the mmap-never-compiles
     * contract are both asserted against this counter.
     */
    static uint64_t compileCount();

    static uint32_t
    hashOf(Addr addr)
    {
        // Fibonacci multiplicative hash; entry addresses are
        // word-aligned, so mix the high bits back down.
        uint32_t h = addr * 0x9e3779b9u;
        return h ^ (h >> 16);
    }

  private:
    friend struct CompiledTeaView;

    CompiledTea() = default;

    /** Point the typed section pointers into `payload`. */
    void adoptView(const CompiledTeaView &view);

    uint32_t nStates = 0;
    uint32_t nSuccs_ = 0;
    uint32_t nEntries_ = 0;
    uint32_t hashMask = 0;      ///< hash capacity - 1

    // Typed views into the arena; identical whether the payload is the
    // owned vector below or a mapped file.
    const uint32_t *succOffsetP = nullptr; ///< CSR offsets, nStates + 1
    const Succ *succsP = nullptr;          ///< transitions, state-major
    const Addr *stateStartP = nullptr;     ///< per-state start address
    const StateMeta *stateMetaP = nullptr; ///< per-state (trace, tbb)
    const HashSlot *hashSlotsP = nullptr;  ///< open-addressed index
    const Entry *entriesP = nullptr;       ///< sorted entries
    const StateBlock *stateBlockP = nullptr; ///< per-state end + flags

    const uint8_t *payloadP = nullptr; ///< the whole arena
    uint64_t payloadLen = 0;

    std::vector<uint8_t> arena; ///< owned payload (RAM compilation)
    std::shared_ptr<const MappedFile> mapped; ///< mapped payload
};

static_assert(sizeof(CompiledTea::Succ) == 8 &&
              sizeof(CompiledTea::Entry) == 8 &&
              sizeof(CompiledTea::HashSlot) == 8 &&
              sizeof(CompiledTea::StateMeta) == 8 &&
              sizeof(CompiledTea::StateBlock) == 8,
              "the .teac sections are arrays of packed 8-byte records");

} // namespace tea

#endif // TEA_TEA_COMPILED_HH
