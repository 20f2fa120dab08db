/**
 * @file
 * A named, sharded store of immutable compiled TEA automata.
 *
 * The replay service resolves jobs against automata by name. Each name
 * holds one `shared_ptr<const CompiledTea>` and nothing else: a
 * compiled image is immutable and self-describing, so any number of
 * worker threads may replay against the same snapshot lock-free, and
 * evicting a name never invalidates replays already in flight — they
 * keep their reference until the batch drains.
 *
 * put() compiles a `Tea` exactly once and drops it, so every replay
 * against a registered automaton — svc batch jobs and net sessions
 * alike — shares one flat kernel image, and the registry's memory is
 * what footprintBytes() reports. The one path that needs the
 * pointer-based form, the reference kernel, rebuilds it from the image
 * on demand (CompiledTea::rehydrateTea()).
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
 * A pinned compiled image, safe across eviction.
 *
 * The registry and the store fill `compiled` only: a put's image, a
 * mapped `.teac` image faulted in from a persistent store
 * (store/store.hh), or a recording's published snapshot. Every replay
 * path except the reference kernel works from `compiled` alone; the
 * reference kernel rehydrates a Tea on demand (rehydrateTea()). `tea`
 * stays for callers outside the registry that pair a Tea with its
 * image; nothing here sets it.
 */
struct AutomatonSnapshot
{
    std::shared_ptr<const Tea> tea;
    std::shared_ptr<const CompiledTea> compiled;

    explicit operator bool() const { return compiled != nullptr; }
};

class AutomatonRegistry
{
  public:
    static constexpr size_t kDefaultShards = 16;

    explicit AutomatonRegistry(size_t shard_count = kDefaultShards);

    /**
     * Compile `tea` and install (or replace) the image; the Tea is
     * dropped. @return the stored image
     */
    std::shared_ptr<const CompiledTea> put(const std::string &name,
                                           Tea tea);

    /**
     * Atomic hot-swap, and the one install of an already-compiled
     * image (a mapped `.teac`, a store PUT, a recording's publish):
     * install `compiled` under `name` and return the image it
     * displaced (null when the name was new). The swap is one pointer
     * assignment under the shard lock — a concurrent snapshot()
     * observes either the old image or the new one, never a mix — and
     * replays that pinned the old image keep it alive through their
     * shared_ptr until they drain, exactly like eviction. This is the
     * recording service's publish step: new requests resolve the grown
     * automaton while in-flight replays finish against the version they
     * started with.
     */
    std::shared_ptr<const CompiledTea>
    replace(const std::string &name,
            std::shared_ptr<const CompiledTea> compiled);

    /**
     * Load a serialized TEA (tea/serialize.hh) and install it.
     * @return the stored image
     * @throws FatalError on unreadable or corrupt files.
     */
    std::shared_ptr<const CompiledTea> loadFile(const std::string &name,
                                                const std::string &path);

    /**
     * The compiled image by name (empty when absent). The snapshot
     * co-owns the image: replays keep it until done, so eviction never
     * invalidates an in-flight stream.
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
        std::unordered_map<std::string, std::shared_ptr<const CompiledTea>>
            map;
    };

    Shard &shardFor(const std::string &name) const;

    mutable std::vector<Shard> shards;
};

} // namespace tea

#endif // TEA_SVC_REGISTRY_HH
