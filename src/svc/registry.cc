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

std::shared_ptr<const CompiledTea>
AutomatonRegistry::put(const std::string &name, Tea tea)
{
    // Compile outside the shard lock: one flat image per put, shared
    // by every replay that later pins this name. The Tea dies here.
    auto compiled = std::make_shared<const CompiledTea>(tea);
    replace(name, compiled);
    return compiled;
}

std::shared_ptr<const CompiledTea>
AutomatonRegistry::replace(const std::string &name,
                           std::shared_ptr<const CompiledTea> compiled)
{
    TEA_ASSERT(compiled != nullptr, "installing a null compiled image");
    Shard &shard = shardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    compiled.swap(shard.map[name]);
    return compiled;
}

std::shared_ptr<const CompiledTea>
AutomatonRegistry::loadFile(const std::string &name,
                            const std::string &path)
{
    return put(name, loadTeaFile(path));
}

AutomatonSnapshot
AutomatonRegistry::snapshot(const std::string &name) const
{
    Shard &shard = shardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(name);
    return it == shard.map.end() ? AutomatonSnapshot{}
                                 : AutomatonSnapshot{nullptr, it->second};
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
        for (const auto &[name, compiled] : shard.map)
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
        for (const auto &[name, compiled] : shard.map)
            bytes += compiled->footprintBytes();
    }
    return bytes;
}

} // namespace tea
