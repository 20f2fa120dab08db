#include "store/store.hh"

#include <algorithm>
#include <filesystem>
#include <set>
#include <system_error>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tea/teac.hh"
#include "util/logging.hh"
#include "util/mmap.hh"

namespace fs = std::filesystem;

namespace tea {

AutomatonStore::AutomatonStore(AutomatonRegistry &registry_,
                               StoreConfig config)
    : registry(registry_), cfg(std::move(config))
{
    if (cfg.dir.empty())
        fatal("store: no directory configured");
    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    if (ec)
        fatal("store: cannot create directory '%s': %s", cfg.dir.c_str(),
              ec.message().c_str());
}

bool
AutomatonStore::validName(const std::string &name)
{
    if (name.empty() || name.size() > 255 || name[0] == '.')
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
AutomatonStore::pathFor(const std::string &name) const
{
    return cfg.dir + "/" + name + ".teac";
}

AutomatonSnapshot
AutomatonStore::get(const std::string &name)
{
    // Invalid names can never have been stored; treating them as
    // absent (rather than probing the filesystem) also keeps path
    // traversal out by construction.
    if (!validName(name))
        return {};

    AutomatonSnapshot snap = registry.snapshot(name);
    if (snap) {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (resident.count(name))
                touchLocked(name);
        }
        if (hits)
            hits->inc();
        if (hitsBy)
            hitsBy->at(name).inc();
        return snap;
    }

    if (misses)
        misses->inc();
    std::string path = pathFor(name);
    if (!fs::exists(path))
        return {};

    // Fault-in, outside the store lock: mmap + validate, no recompile.
    // A concurrent GET of the same name may race us here; both loads
    // are valid and the last registry insert wins.
    uint64_t t0 = trace != nullptr ? obs::monotonicNanos() : 0;
    auto compiled =
        CompiledTea::fromMapped(MappedFile::openShared(path),
                                cfg.verifyPayload);
    if (trace != nullptr) {
        obs::Span s;
        s.phase = obs::SpanPhase::StoreFaultIn;
        s.startNs = t0;
        s.durNs = obs::monotonicNanos() - t0;
        trace->push(s);
    }
    if (mmapLoads)
        mmapLoads->inc();
    if (faultsBy)
        faultsBy->at(name).inc();
    registry.replace(name, compiled);
    {
        std::lock_guard<std::mutex> lock(mu);
        insertLocked(name, compiled->footprintBytes());
        enforceBudgetLocked(name);
    }
    return AutomatonSnapshot{nullptr, std::move(compiled)};
}

AutomatonSnapshot
AutomatonStore::put(const std::string &name,
                    std::shared_ptr<const Tea> tea)
{
    if (!validName(name))
        fatal("store: invalid automaton name '%s'", name.c_str());
    TEA_ASSERT(tea != nullptr, "storing a null automaton");

    // Compile and write through before anything becomes visible: if
    // the disk write fails, neither tier changes. Only the image goes
    // resident; the caller's Tea is not retained.
    auto compiled = CompiledTea::compile(std::move(tea));
    saveTeacFile(*compiled, pathFor(name));
    registry.replace(name, compiled);
    {
        std::lock_guard<std::mutex> lock(mu);
        insertLocked(name, compiled->footprintBytes());
        enforceBudgetLocked(name);
    }
    return AutomatonSnapshot{nullptr, std::move(compiled)};
}

std::shared_ptr<const CompiledTea>
AutomatonStore::replaceResident(const std::string &name,
                                std::shared_ptr<const CompiledTea> compiled)
{
    if (!validName(name))
        fatal("store: invalid automaton name '%s'", name.c_str());
    TEA_ASSERT(compiled != nullptr, "swapping in a null compiled image");
    size_t bytes = compiled->footprintBytes();
    auto prev = registry.replace(name, std::move(compiled));
    {
        std::lock_guard<std::mutex> lock(mu);
        insertLocked(name, bytes);
        enforceBudgetLocked(name);
    }
    return prev;
}

void
AutomatonStore::writeThrough(const std::string &name,
                             const CompiledTea &compiled)
{
    if (!validName(name))
        fatal("store: invalid automaton name '%s'", name.c_str());
    saveTeacFile(compiled, pathFor(name));
}

bool
AutomatonStore::evictResident(const std::string &name)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = resident.find(name);
        if (it == resident.end())
            return false;
        residentBytes_ -= it->second.bytes;
        lru.erase(it->second.lruIt);
        resident.erase(it);
    }
    registry.evict(name);
    return true;
}

std::vector<StoreEntry>
AutomatonStore::list() const
{
    std::set<std::string> onDisk;
    std::error_code ec;
    for (fs::directory_iterator it(cfg.dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path &p = it->path();
        if (p.extension() != ".teac")
            continue; // skips atomic-write temp files too
        std::string stem = p.stem().string();
        if (validName(stem))
            onDisk.insert(stem);
    }

    std::vector<StoreEntry> out;
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string &name : onDisk)
        out.push_back(StoreEntry{name, resident.count(name) != 0, true});
    for (const auto &[name, r] : resident)
        if (!onDisk.count(name))
            out.push_back(StoreEntry{name, true, false});
    std::sort(out.begin(), out.end(),
              [](const StoreEntry &a, const StoreEntry &b) {
                  return a.name < b.name;
              });
    return out;
}

size_t
AutomatonStore::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return residentBytes_;
}

size_t
AutomatonStore::residentCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return resident.size();
}

void
AutomatonStore::bindMetrics(obs::MetricsRegistry &metrics)
{
    hits = &metrics.counter("store.hits");
    misses = &metrics.counter("store.misses");
    mmapLoads = &metrics.counter("store.mmap_loads");
    evictions = &metrics.counter("store.evictions");
    hitsBy = &metrics.labeledCounter("store.hits_by_automaton");
    faultsBy = &metrics.labeledCounter("store.faults_by_automaton");
    metrics.gaugeFn("store.resident", [this] {
        return static_cast<int64_t>(residentCount());
    });
    metrics.gaugeFn("store.resident_bytes", [this] {
        return static_cast<int64_t>(residentBytes());
    });
}

void
AutomatonStore::touchLocked(const std::string &name)
{
    auto it = resident.find(name);
    lru.splice(lru.end(), lru, it->second.lruIt);
}

void
AutomatonStore::insertLocked(const std::string &name, size_t bytes)
{
    auto it = resident.find(name);
    if (it != resident.end()) {
        // Replacement (re-PUT or fault-in race): swap the charge.
        residentBytes_ -= it->second.bytes;
        it->second.bytes = bytes;
        residentBytes_ += bytes;
        lru.splice(lru.end(), lru, it->second.lruIt);
        return;
    }
    lru.push_back(name);
    resident[name] = Resident{std::prev(lru.end()), bytes};
    residentBytes_ += bytes;
}

void
AutomatonStore::enforceBudgetLocked(const std::string &keep)
{
    auto overBudget = [&] {
        return (cfg.maxResident != 0 && resident.size() > cfg.maxResident) ||
               (cfg.maxResidentBytes != 0 &&
                residentBytes_ > cfg.maxResidentBytes);
    };
    while (overBudget()) {
        auto it = lru.begin();
        // Never thrash out the name that triggered enforcement: a
        // budget smaller than one automaton still serves that one.
        if (*it == keep && ++it == lru.end())
            break;
        std::string victim = *it;
        residentBytes_ -= resident[victim].bytes;
        resident.erase(victim);
        lru.erase(it);
        // Only the references are dropped here: any replay that pinned
        // this snapshot keeps it (and its mapping) alive until done.
        registry.evict(victim);
        if (evictions)
            evictions->inc();
    }
}

} // namespace tea
