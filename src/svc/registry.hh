/**
 * @file
 * A named, sharded store of immutable TEA automata.
 *
 * The replay service resolves jobs against automata by name. Automata
 * are held as `shared_ptr<const Tea>` snapshots: a `Tea` is immutable
 * after construction, so any number of worker threads may replay
 * against the same snapshot lock-free, and evicting a name never
 * invalidates replays already in flight — they keep their reference
 * until the batch drains.
 *
 * put() also compiles the snapshot into a CompiledTea exactly once, so
 * every replay against a registered automaton — svc batch jobs and net
 * sessions alike — shares one flat kernel image instead of each stream
 * re-walking (or re-flattening) the mutable Tea. Each name holds an
 * AutomatonSnapshot pair, so the same eviction guarantee holds for
 * both halves.
 *
 * The name map itself is sharded: each shard has its own mutex, so
 * concurrent lookups of different names do not serialize. Lock scope is
 * a single shard for every operation except list()/size(), which sweep
 * the shards one at a time (they never hold two shard locks at once,
 * so no lock-order issues).
 */

#ifndef TEA_SVC_REGISTRY_HH
#define TEA_SVC_REGISTRY_HH

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tea/automaton.hh"
#include "tea/compiled.hh"

namespace tea {

/**
 * A pinned (automaton, compiled image) pair, safe across eviction.
 *
 * `tea` may be null while `compiled` is set: automatons faulted in from
 * a persistent store (store/store.hh) are mapped `.teac` images, and a
 * recording publishes its recorder's compiled snapshot; neither
 * materializes a Tea. A CompiledTea is self-describing, so every replay
 * path except the reference kernel works from `compiled` alone; the
 * reference kernel rehydrates the Tea on demand (rehydrateTea()).
 */
struct AutomatonSnapshot
{
    std::shared_ptr<const Tea> tea;
    std::shared_ptr<const CompiledTea> compiled;

    explicit operator bool() const
    {
        return tea != nullptr || compiled != nullptr;
    }
};

class AutomatonRegistry
{
  public:
    static constexpr size_t kDefaultShards = 16;

    explicit AutomatonRegistry(size_t shard_count = kDefaultShards);

    /** Install (or replace) an automaton. @return the stored snapshot. */
    std::shared_ptr<const Tea> put(const std::string &name, Tea tea);

    /**
     * Install an already-compiled snapshot: a mapped `.teac` image
     * (`snap.tea` null) or a compiled automaton with its Tea (the
     * store's write-through PUT). `snap.compiled` must be set.
     * @return the stored snapshot
     */
    AutomatonSnapshot putCompiled(const std::string &name,
                                  AutomatonSnapshot snap);

    /**
     * Atomic hot-swap: install `compiled` (with no Tea) under `name`
     * and return the snapshot it displaced (empty when the name was
     * new). The swap is one pointer assignment under the shard lock —
     * a concurrent snapshot() observes either the old snapshot or the
     * new one, never a mix — and replays that pinned the old snapshot
     * keep it alive through their shared_ptr until they drain, exactly
     * like eviction. This is the recording service's publish step: new
     * requests resolve the grown automaton while in-flight replays
     * finish against the version they started with.
     */
    AutomatonSnapshot replace(const std::string &name,
                              std::shared_ptr<const CompiledTea> compiled);

    /**
     * Load a serialized TEA (tea/serialize.hh) and install it.
     * @throws FatalError on unreadable or corrupt files.
     */
    std::shared_ptr<const Tea> loadFile(const std::string &name,
                                        const std::string &path);

    /** Snapshot by name, or nullptr when absent. */
    std::shared_ptr<const Tea> get(const std::string &name) const;

    /**
     * Automaton plus its shared CompiledTea (compiled once at put()).
     * Both empty when the name is absent. The fields co-own the
     * underlying automaton: replays keep them until done, so eviction
     * never invalidates an in-flight stream.
     */
    AutomatonSnapshot snapshot(const std::string &name) const;

    /** Drop a name. @return false when it was not registered. */
    bool evict(const std::string &name);

    /** Registered names, sorted. */
    std::vector<std::string> list() const;

    /** Number of registered automata. */
    size_t size() const;

    /**
     * Resident bytes of every registered compiled image (the lookup
     * structures a replay walks; tea/compiled.hh footprintBytes()).
     * This is the number the store's `maxResidentBytes` budget caps and
     * the `registry.footprint_bytes` gauge exports.
     */
    size_t footprintBytes() const;

  private:
    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, AutomatonSnapshot> map;
    };

    Shard &shardFor(const std::string &name) const;

    mutable std::vector<Shard> shards;
};

} // namespace tea

#endif // TEA_SVC_REGISTRY_HH
