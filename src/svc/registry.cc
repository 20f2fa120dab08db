#include "svc/registry.hh"

#include <algorithm>
#include <functional>

#include "tea/serialize.hh"
#include "util/logging.hh"

namespace tea {

AutomatonRegistry::AutomatonRegistry(size_t shard_count)
    : shards(shard_count == 0 ? 1 : shard_count)
{
}

AutomatonRegistry::Shard &
AutomatonRegistry::shardFor(const std::string &name) const
{
    return shards[std::hash<std::string>{}(name) % shards.size()];
}

std::shared_ptr<const Tea>
AutomatonRegistry::put(const std::string &name, Tea tea)
{
    auto snapshot = std::make_shared<const Tea>(std::move(tea));
    // Compile outside the shard lock: one flat image per put, shared
    // by every replay that later pins this name.
    auto compiled = CompiledTea::compile(snapshot);
    putCompiled(name, AutomatonSnapshot{snapshot, std::move(compiled)});
    return snapshot;
}

AutomatonSnapshot
AutomatonRegistry::putCompiled(const std::string &name,
                               AutomatonSnapshot snap)
{
    TEA_ASSERT(snap.compiled != nullptr,
               "registering a null compiled image");
    Shard &shard = shardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map[name] = snap;
    return snap;
}

AutomatonSnapshot
AutomatonRegistry::replace(const std::string &name,
                           std::shared_ptr<const CompiledTea> compiled)
{
    TEA_ASSERT(compiled != nullptr, "swapping in a null compiled image");
    AutomatonSnapshot next{nullptr, std::move(compiled)};
    Shard &shard = shardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    AutomatonSnapshot &slot = shard.map[name];
    AutomatonSnapshot prev = slot;
    slot = std::move(next);
    return prev;
}

std::shared_ptr<const Tea>
AutomatonRegistry::loadFile(const std::string &name,
                            const std::string &path)
{
    return put(name, loadTeaFile(path));
}

std::shared_ptr<const Tea>
AutomatonRegistry::get(const std::string &name) const
{
    return snapshot(name).tea;
}

AutomatonSnapshot
AutomatonRegistry::snapshot(const std::string &name) const
{
    Shard &shard = shardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(name);
    return it == shard.map.end() ? AutomatonSnapshot{} : it->second;
}

bool
AutomatonRegistry::evict(const std::string &name)
{
    Shard &shard = shardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.map.erase(name) != 0;
}

std::vector<std::string>
AutomatonRegistry::list() const
{
    std::vector<std::string> names;
    for (Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[name, tea] : shard.map)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

size_t
AutomatonRegistry::size() const
{
    size_t n = 0;
    for (Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        n += shard.map.size();
    }
    return n;
}

size_t
AutomatonRegistry::footprintBytes() const
{
    size_t bytes = 0;
    for (Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[name, snap] : shard.map)
            if (snap.compiled)
                bytes += snap.compiled->footprintBytes();
    }
    return bytes;
}

} // namespace tea
