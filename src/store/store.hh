/**
 * @file
 * AutomatonStore: the disk-backed tier behind the AutomatonRegistry.
 *
 * The registry is RAM-only: every process restart pays a full
 * rebuild+recompile of every automaton it serves. The store turns the
 * registry into the *resident tier* of a two-level hierarchy:
 *
 *   resident:  AutomatonRegistry — mmap'd (or RAM-compiled) snapshots,
 *              pinned by replays through shared_ptr
 *   cold:      <dir>/<name>.teac — relocatable compiled images
 *              (tea/teac.hh), one file per name
 *
 * GET of a resident name is exactly the registry's sharded lookup plus
 * an LRU touch. GET of a cold name faults the image in: one mmap, one
 * validation pass, zero deserialization — no Tea is ever built, and
 * CompiledTea::compileCount() provably does not move. PUT compiles,
 * writes through to disk (atomic tmp+rename, so a crash or concurrent
 * reader never sees a torn file), and installs only the compiled image
 * resident; no Tea stays beside it.
 *
 * Eviction: when `maxResidentBytes` or `maxResident` is exceeded, the
 * least-recently-used names are dropped from the registry (their files
 * remain — a later GET faults them back in). "Dropped" means only the
 * store's and registry's references go away: a replay that pinned the
 * snapshot keeps its mapping alive through shared_ptr until it drains,
 * so eviction can NEVER unmap memory a kernel still walks
 * (tests/test_store.cc races GET/replay/evict under TSan to pin this).
 *
 * Thread safety: all store state (LRU list, residency index) sits
 * behind one mutex; the expensive steps — mmap+validate on fault-in,
 * compile+serialize+write on PUT — run outside it. Concurrent cold GETs
 * of the same name may both load the image; both results are valid and
 * the loser's mapping is dropped harmlessly (last insert wins).
 */

#ifndef TEA_STORE_STORE_HH
#define TEA_STORE_STORE_HH

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/registry.hh"

namespace tea {

namespace obs {
class MetricsRegistry;
class Counter;
class LabeledCounter;
class SpanRing;
} // namespace obs

/** Store placement and budget knobs. */
struct StoreConfig
{
    std::string dir; ///< directory of `<name>.teac` images

    /**
     * Resident-tier budgets; 0 means unlimited. Bytes are compiled
     * footprint bytes (the same number `registry.footprint_bytes`
     * exports), counted against automatons the *store* manages — both
     * caps are enforced by LRU eviction after every fault-in and PUT.
     */
    size_t maxResidentBytes = 0;
    size_t maxResident = 0;

    /**
     * Run the strict integrity tier (payload CRC + source hash) on
     * every fault-in. Off by default: the header CRC and the full
     * structural audit always run and are what make a mapped image
     * safe to replay; the CRC pass roughly doubles cold-start cost and
     * only adds detection of bit rot in bytes the audit cannot fully
     * constrain (see "Integrity tiers" in tea/teac.hh). Turn it on for
     * media you do not trust.
     */
    bool verifyPayload = false;
};

/** One name known to the store: resident, on disk, or both. */
struct StoreEntry
{
    std::string name;
    bool resident = false; ///< pinned in the registry right now
    bool onDisk = false;   ///< a `.teac` image exists in the directory
};

class AutomatonStore
{
  public:
    /**
     * @param registry the resident tier (not owned; must outlive the
     *        store)
     * @param config   directory and budgets; the directory is created
     *        if absent. @throws FatalError when it cannot be
     */
    AutomatonStore(AutomatonRegistry &registry, StoreConfig config);

    /**
     * Resolve a name: registry hit, or fault the `.teac` image in from
     * disk (mmap + validate, no recompile), or an empty snapshot when
     * the name exists nowhere. @throws FatalError when the image on
     * disk is corrupt — a damaged file must fail loudly, not read as
     * absent.
     */
    AutomatonSnapshot get(const std::string &name);

    /**
     * Install an automaton: compile, write `<dir>/<name>.teac` through
     * atomically, and make the compiled image resident (`tea` is not
     * retained). @return the resident snapshot (`compiled` only).
     * @throws FatalError on invalid names or I/O failure
     */
    AutomatonSnapshot put(const std::string &name,
                          std::shared_ptr<const Tea> tea);

    /**
     * Hot-swap the resident snapshot of `name` without touching disk:
     * an atomic registry replace plus budget re-accounting (the new
     * compiled footprint takes over the old charge and the name moves
     * to MRU). The recording service calls this on every publish;
     * writeThrough() persists a swapped snapshot when it is worth a
     * disk write. @return the displaced image (null when the name was
     * new). @throws FatalError on invalid names
     */
    std::shared_ptr<const CompiledTea>
    replaceResident(const std::string &name,
                    std::shared_ptr<const CompiledTea> compiled);

    /**
     * Persist `compiled` as `<dir>/<name>.teac` through the atomic
     * tmp+rename path; readers (and crashes) see the old image or the
     * new one, never a torn file. Every snapshot of one automaton
     * serializes to the same bytes, so a recorder-grown image on disk
     * is bit-identical to an offline compile.
     * @throws FatalError on invalid names or I/O failure
     */
    void writeThrough(const std::string &name, const CompiledTea &compiled);

    /**
     * Drop a name from the resident tier (its file remains, so a later
     * GET faults it back in). In-flight replays keep their snapshot.
     * @return false when the name was not resident
     */
    bool evictResident(const std::string &name);

    /**
     * Every name the store knows: the union of the resident tier and
     * the directory scan, sorted, with residency markers (the LIST
     * wire response's resident/cold flags come from here).
     */
    std::vector<StoreEntry> list() const;

    /** Resident compiled bytes the store accounts against its budget. */
    size_t residentBytes() const;

    /** Resident automaton count under store management. */
    size_t residentCount() const;

    /**
     * Valid store names: nonempty, at most 255 bytes, characters from
     * [A-Za-z0-9._-], not starting with a dot. Everything else is
     * rejected up front so a name can never escape the store directory
     * or collide with the atomic-write temp files.
     */
    static bool validName(const std::string &name);

    /** `<dir>/<name>.teac`. */
    std::string pathFor(const std::string &name) const;

    /**
     * Register the `store.*` instruments in `metrics` and start
     * counting against them (hits, misses, mmap_loads, evictions, plus
     * resident/resident_bytes callback gauges, plus the per-automaton
     * store.{hits,faults}_by_automaton labeled families).
     */
    void bindMetrics(obs::MetricsRegistry &metrics);

    /**
     * Trace cold fault-ins into `ring` as `store.fault_in` spans (the
     * mmap + validate window of a cold GET). Borrowed; null (the
     * default) skips the clock reads entirely.
     */
    void bindTrace(obs::SpanRing *ring) { trace = ring; }

    const StoreConfig &config() const { return cfg; }

  private:
    struct Resident
    {
        std::list<std::string>::iterator lruIt; ///< position in `lru`
        size_t bytes = 0; ///< compiled footprint charged to the budget
    };

    /** Move `name` to the MRU end; caller holds `mu`. */
    void touchLocked(const std::string &name);

    /** Account a newly resident name; caller holds `mu`. */
    void insertLocked(const std::string &name, size_t bytes);

    /**
     * Evict LRU names until both budgets hold, never evicting `keep`
     * (the name just faulted in — a budget smaller than one automaton
     * must not thrash it out immediately). Caller holds `mu`.
     */
    void enforceBudgetLocked(const std::string &keep);

    AutomatonRegistry &registry;
    StoreConfig cfg;

    mutable std::mutex mu;
    std::list<std::string> lru; ///< front = LRU, back = MRU
    std::unordered_map<std::string, Resident> resident;
    size_t residentBytes_ = 0;

    obs::Counter *hits = nullptr;
    obs::Counter *misses = nullptr;
    obs::Counter *mmapLoads = nullptr;
    obs::Counter *evictions = nullptr;
    obs::LabeledCounter *hitsBy = nullptr;   ///< store.hits_by_automaton
    obs::LabeledCounter *faultsBy = nullptr; ///< store.faults_by_automaton
    obs::SpanRing *trace = nullptr; ///< store.fault_in span sink
};

} // namespace tea

#endif // TEA_STORE_STORE_HH
