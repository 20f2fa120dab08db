/**
 * @file
 * AutomatonStore and `.teac` round-trip tests.
 *
 * Three layers under test, matching the store's promises:
 *
 * 1. Round trip: a snapshot serialized to disk and mapped back must be
 *    *undetectably* the same automaton — ReplayStats, the state
 *    sequence, and the per-TBB profile bit-identical to the in-RAM
 *    CompiledTea and the reference kernel, in every LookupConfig
 *    ablation mode, with zero recompiles on the mmap path.
 * 2. The resident tier: PUT/GET/LIST/EVICT semantics, LRU + byte
 *    budgets, and the contract the replay service leans on — eviction
 *    under a hostile budget must never invalidate a snapshot a replay
 *    already pinned (raced under ASan/TSan in CI).
 * 3. Cold start through the server: a TeaServer pointed at a directory
 *    of precompiled images serves its first REPLAY of a cold name by
 *    mmap, provably without recompiling, and reports it via the
 *    store.* metrics and the LIST residency markers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "rec/recording.hh"
#include "store/store.hh"
#include "svc/registry.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/replayer.hh"
#include "tea/serialize.hh"
#include "tea/teac.hh"
#include "trace/factory.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

/** A fresh per-test directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    static std::atomic<int> seq{0};
    std::string dir = ::testing::TempDir() + "store_" + tag + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(seq.fetch_add(1));
    std::filesystem::remove_all(dir);
    return dir;
}

/** A small automaton: `traces` two-block cyclic loops. */
Tea
makeSyntheticTea(size_t traces)
{
    TraceSet set;
    for (size_t t = 0; t < traces; ++t) {
        Trace trace;
        Addr base = 0x1000 + static_cast<Addr>(t) * 64;
        trace.blocks.push_back({base, base + 12, true});
        trace.blocks.push_back({base + 16, base + 28, false});
        trace.edges.push_back({0, 1});
        trace.edges.push_back({1, 0});
        set.add(std::move(trace));
    }
    return buildTea(set);
}

/** A transition stream ping-ponging inside trace `t`, then exiting. */
std::vector<BlockTransition>
syntheticStream(size_t t, int rounds)
{
    std::vector<BlockTransition> stream;
    Addr base = 0x1000 + static_cast<Addr>(t) * 64;
    BlockTransition tr{};
    tr.kind = EdgeKind::BranchTaken;
    tr.from.icount = 3;
    tr.from.start = 0x500;
    tr.from.end = 0x50c;
    tr.toStart = base; // cold code enters the trace
    stream.push_back(tr);
    for (int i = 0; i < rounds; ++i) {
        bool atHead = (i % 2) == 0;
        tr.from.start = atHead ? base : base + 16;
        tr.from.end = atHead ? base + 12 : base + 28;
        tr.toStart = atHead ? base + 16 : base;
        stream.push_back(tr);
    }
    // Exit to cold code, so NTE time accrues on both ends.
    tr.from.start = base + 16;
    tr.from.end = base + 28;
    tr.toStart = 0x500;
    stream.push_back(tr);
    return stream;
}

/** The synthetic stream as a serialized trace log (for the server). */
std::vector<uint8_t>
syntheticLog(size_t t, int rounds)
{
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    for (const BlockTransition &tr : syntheticStream(t, rounds))
        writer.append(tr);
    writer.finish();
    return bytes;
}

/** Record a workload's transition stream (a realistic input). */
std::vector<BlockTransition>
recordStream(const Program &prog)
{
    std::vector<BlockTransition> stream;
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { stream.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return stream;
}

/** Record traces with the DBT side and build the automaton. */
Tea
recordTea(const Program &prog, const std::string &selector = "mret")
{
    DbtRuntime dbt(prog);
    return buildTea(dbt.record(selector).traces);
}

/** Everything a kernel run exposes, for bit-identity comparison. */
struct Observation
{
    ReplayStats stats;
    std::vector<StateId> sequence;
    std::vector<uint64_t> execCounts;
    std::vector<uint64_t> execByTraceTbb;
};

Observation
drive(TeaReplayer &replayer, const Tea &meta,
      const std::vector<BlockTransition> &stream)
{
    Observation obs;
    for (const BlockTransition &tr : stream) {
        replayer.feed(tr);
        obs.sequence.push_back(replayer.currentState());
    }
    obs.stats = replayer.stats();
    for (StateId id = 0; id < replayer.numStates(); ++id)
        obs.execCounts.push_back(replayer.execCount(id));
    for (StateId id = 1; id < meta.numStates(); ++id) {
        const TeaState &s = meta.state(id);
        obs.execByTraceTbb.push_back(
            replayer.execCountFor(s.trace, s.tbb));
    }
    return obs;
}

/** Serialize to a file and map it back, the way the store loads. */
std::shared_ptr<const CompiledTea>
roundTrip(const CompiledTea &compiled, const std::string &tag)
{
    std::string path = freshDir(tag) + ".teac";
    saveTeacFile(compiled, path);
    auto mapped = CompiledTea::fromFile(path);
    std::remove(path.c_str());
    return mapped;
}

TEST(TeacRoundTrip, MappedReplayBitIdenticalInAllModes)
{
    // A realistic automaton and stream, then the full differential:
    // reference kernel vs in-RAM compiled vs mmap'd snapshot, across
    // every global/local ablation. The mapped runs replay *without the
    // Tea* — the tea-less TeaReplayer path the server's cold loads use.
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    Tea tea = recordTea(w.program);
    std::vector<BlockTransition> stream = recordStream(w.program);
    ASSERT_FALSE(stream.empty());

    CompiledTea ram(tea);
    auto mapped = roundTrip(ram, "diff");
    ASSERT_TRUE(mapped->isMapped());

    for (int global = 0; global < 2; ++global) {
        for (int local = 0; local < 2; ++local) {
            SCOPED_TRACE("global=" + std::to_string(global) +
                         " local=" + std::to_string(local));
            LookupConfig cfg;
            cfg.useGlobalBTree = global != 0;
            cfg.useLocalCache = local != 0;
            cfg.checkConsistency = true;

            LookupConfig refCfg = cfg;
            refCfg.useCompiled = false;
            TeaReplayer refK(tea, refCfg);
            Observation ref = drive(refK, tea, stream);

            TeaReplayer ramK(tea, cfg);
            Observation fast = drive(ramK, tea, stream);

            // Consistency checking needs the source automaton; the
            // tea-less mapped replayer runs the production shape.
            LookupConfig mapCfg = cfg;
            mapCfg.checkConsistency = false;
            TeaReplayer mapK(mapped, mapCfg);
            Observation cold = drive(mapK, tea, stream);

            EXPECT_EQ(fast.stats, ref.stats);
            EXPECT_EQ(cold.stats, ref.stats);
            EXPECT_EQ(fast.sequence, ref.sequence);
            EXPECT_EQ(cold.sequence, ref.sequence);
            EXPECT_EQ(fast.execCounts, ref.execCounts);
            EXPECT_EQ(cold.execCounts, ref.execCounts);
            EXPECT_EQ(fast.execByTraceTbb, ref.execByTraceTbb);
            EXPECT_EQ(cold.execByTraceTbb, ref.execByTraceTbb);
        }
    }
}

TEST(TeacRoundTrip, SerializeOfMappedIsBitIdentical)
{
    for (size_t traces : {0u, 1u, 3u, 17u, 300u}) {
        Tea tea = makeSyntheticTea(traces);
        CompiledTea ram(tea);
        std::vector<uint8_t> bytes = ram.serialize();

        uint64_t before = CompiledTea::compileCount();
        auto mapped = roundTrip(ram, "bits");
        // The mmap path provably compiles nothing...
        EXPECT_EQ(CompiledTea::compileCount(), before);
        // ...and re-serializing the mapped view reproduces the file
        // byte for byte: disk bytes ARE the live structures.
        EXPECT_EQ(mapped->serialize(), bytes);
        EXPECT_EQ(mapped->numStates(), ram.numStates());
        EXPECT_EQ(mapped->numEntries(), ram.numEntries());
        EXPECT_EQ(mapped->footprintBytes(), ram.footprintBytes());
    }
}

TEST(TeacRoundTrip, RehydratedTeaMatchesSource)
{
    // The image encodes the automaton once: the RAM compile and the
    // mapped file both rebuild a Tea whose `.tea` bytes (block ends and
    // loop-header bits included) and entry list match the source, for
    // the synthetic automaton and every suite workload's under every
    // selector.
    auto check = [](const Tea &tea, const std::string &what) {
        SCOPED_TRACE(what);
        std::vector<uint8_t> want = saveTea(tea);
        CompiledTea ram(tea);
        auto mapped = roundTrip(ram, "rehydrate");
        const CompiledTea *images[] = {&ram, mapped.get()};
        for (const CompiledTea *c : images) {
            Tea back = c->rehydrateTea();
            EXPECT_TRUE(saveTea(back) == want);
            EXPECT_EQ(back.entries(), tea.entries());
        }
    };
    check(makeSyntheticTea(7), "synthetic");
    for (const std::string &name : Workloads::names()) {
        Workload w = Workloads::build(name, InputSize::Test);
        for (const std::string &sel : selectorNames())
            check(recordTea(w.program, sel), name + "/" + sel);
    }
}

/** The whole file at `path`, or empty when it cannot be opened. */
std::vector<uint8_t>
readWholeFile(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

TEST(TeacFile, SameNameSavesNeverFailOrTear)
{
    // Two writers save different images to one name (two PUTs, or a
    // PUT racing a recording's write-through) while a reader keeps
    // reading it. Each save must land whole, and the reader must only
    // ever see one image or the other.
    std::string dir = freshDir("race");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/race.teac";
    CompiledTea a(makeSyntheticTea(40));
    CompiledTea b(makeSyntheticTea(90));
    const std::vector<uint8_t> imageA = a.serialize();
    const std::vector<uint8_t> imageB = b.serialize();
    saveTeacFile(a, path);

    constexpr int kSaves = 300;
    std::atomic<int> writersLeft{2};
    std::atomic<int> failedSaves{0};
    auto writer = [&](const CompiledTea &image) {
        for (int i = 0; i < kSaves; ++i) {
            try {
                saveTeacFile(image, path);
            } catch (const FatalError &) {
                failedSaves.fetch_add(1);
            }
        }
        writersLeft.fetch_sub(1);
    };

    int reads = 0, torn = 0;
    std::thread wa(writer, std::cref(a));
    std::thread wb(writer, std::cref(b));
    while (writersLeft.load() > 0) {
        std::vector<uint8_t> seen = readWholeFile(path);
        ++reads;
        if (seen != imageA && seen != imageB)
            ++torn;
    }
    wa.join();
    wb.join();

    EXPECT_EQ(failedSaves.load(), 0);
    EXPECT_EQ(torn, 0) << "of " << reads << " reads";
    std::vector<uint8_t> last = readWholeFile(path);
    EXPECT_TRUE(last == imageA || last == imageB);
    // No temp file outlives its save.
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path(), std::filesystem::path(path));
    std::filesystem::remove_all(dir);
}

TEST(TeacFile, SaveStepsOverTempFilesACrashLeftBehind)
{
    // A save that died between creating its temp file and renaming it
    // leaves `<path>.tmp.<pid>.<seq>` behind, and a restarted server
    // can run under the same pid and save in the same order. Plant
    // such leftovers at the next sequence numbers this process draws:
    // the save must step past them and leave them alone.
    std::string dir = freshDir("stale");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/stale.teac";
    CompiledTea image(makeSyntheticTea(40));
    const std::string marker = ".tmp." + std::to_string(::getpid()) + ".";

    // A save into a missing directory fails at the create and names
    // the temp file it tried, which gives away the next number.
    uint64_t next = 0;
    try {
        saveTeacFile(image, dir + "/missing/probe.teac");
        FAIL() << "a save into a missing directory succeeded";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        size_t at = msg.find(marker);
        ASSERT_NE(at, std::string::npos) << msg;
        next = std::stoull(msg.substr(at + marker.size())) + 1;
    }

    const std::vector<uint8_t> stale = {'h', 'a', 'l', 'f'};
    std::vector<std::string> leftovers;
    for (uint64_t seq = next; seq < next + 8; ++seq) {
        leftovers.push_back(path + marker + std::to_string(seq));
        std::FILE *f = std::fopen(leftovers.back().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(stale.data(), 1, stale.size(), f);
        std::fclose(f);
    }

    EXPECT_NO_THROW(saveTeacFile(image, path));
    EXPECT_EQ(readWholeFile(path), image.serialize());
    for (const std::string &leftover : leftovers)
        EXPECT_EQ(readWholeFile(leftover), stale) << leftover;
    std::filesystem::remove_all(dir);
}

TEST(Store, PutGetEvictListRoundTrip)
{
    std::string dir = freshDir("basic");
    AutomatonRegistry reg;
    AutomatonStore store(reg, StoreConfig{dir});

    auto snapA = store.put(
        "alpha", std::make_shared<const Tea>(makeSyntheticTea(3)));
    ASSERT_TRUE(snapA);
    ASSERT_NE(snapA.compiled, nullptr);
    EXPECT_TRUE(std::filesystem::exists(dir + "/alpha.teac"));

    store.put("beta", std::make_shared<const Tea>(makeSyntheticTea(5)));
    EXPECT_EQ(store.residentCount(), 2u);
    EXPECT_GT(store.residentBytes(), 0u);

    // GET of a resident name is the registry's snapshot.
    AutomatonSnapshot hit = store.get("alpha");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit.compiled->numStates(), snapA.compiled->numStates());

    // Evict drops the resident tier only; the file survives, and a
    // later GET faults it back in by mmap with zero recompiles.
    EXPECT_TRUE(store.evictResident("alpha"));
    EXPECT_FALSE(store.evictResident("alpha"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/alpha.teac"));
    EXPECT_FALSE(reg.snapshot("alpha"));

    uint64_t compiles = CompiledTea::compileCount();
    AutomatonSnapshot cold = store.get("alpha");
    ASSERT_TRUE(cold);
    ASSERT_NE(cold.compiled, nullptr);
    EXPECT_TRUE(cold.compiled->isMapped());
    EXPECT_EQ(CompiledTea::compileCount(), compiles);
    EXPECT_EQ(cold.compiled->numStates(), snapA.compiled->numStates());

    // list() is the union of disk and resident tiers, sorted.
    std::vector<StoreEntry> entries = store.list();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].name, "alpha");
    EXPECT_TRUE(entries[0].resident);
    EXPECT_TRUE(entries[0].onDisk);
    EXPECT_EQ(entries[1].name, "beta");

    // Unknown names resolve to an empty snapshot, not an error.
    EXPECT_FALSE(store.get("gamma"));
    std::filesystem::remove_all(dir);
}

TEST(Store, InvalidNamesAreRejected)
{
    EXPECT_TRUE(AutomatonStore::validName("a"));
    EXPECT_TRUE(AutomatonStore::validName("syn.gzip-42_x"));
    EXPECT_FALSE(AutomatonStore::validName(""));
    EXPECT_FALSE(AutomatonStore::validName(".hidden"));
    EXPECT_FALSE(AutomatonStore::validName("../escape"));
    EXPECT_FALSE(AutomatonStore::validName("a/b"));
    EXPECT_FALSE(AutomatonStore::validName("sp ace"));
    EXPECT_FALSE(AutomatonStore::validName(std::string(300, 'x')));

    std::string dir = freshDir("names");
    AutomatonRegistry reg;
    AutomatonStore store(reg, StoreConfig{dir});
    EXPECT_THROW(store.put("../escape", std::make_shared<const Tea>(
                                            makeSyntheticTea(1))),
                 FatalError);
    // GET of an invalid name is a miss, never a path traversal.
    EXPECT_FALSE(store.get("../../etc/passwd"));
    std::filesystem::remove_all(dir);
}

TEST(Store, CorruptImageFailsClosedOnGet)
{
    std::string dir = freshDir("corrupt");
    AutomatonRegistry reg;
    StoreConfig cfg{dir};
    // The strict tier: ANY flipped payload byte must fail the CRC,
    // even one in a section the structural audit cannot constrain.
    cfg.verifyPayload = true;
    AutomatonStore store(reg, cfg);
    store.put("ok", std::make_shared<const Tea>(makeSyntheticTea(2)));
    ASSERT_TRUE(store.evictResident("ok"));

    // Damage the image on disk; the cold GET must throw, not serve it.
    std::string path = store.pathFor("ok");
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 200, SEEK_SET);
    int was = std::fgetc(f);
    ASSERT_NE(was, EOF);
    std::fseek(f, 200, SEEK_SET);
    std::fputc(was ^ 0xff, f);
    std::fclose(f);
    EXPECT_THROW(store.get("ok"), FatalError);
    std::filesystem::remove_all(dir);
}

TEST(Store, StructuralDamageFailsClosedInFastMode)
{
    // The serving default skips the payload CRC, so the always-on
    // structural audit is the line of defense: wreck a state's start
    // address (located through the header, not a hard-coded offset)
    // and the cold GET must still throw.
    std::string dir = freshDir("corrupt_fast");
    AutomatonRegistry reg;
    AutomatonStore store(reg, StoreConfig{dir});
    ASSERT_FALSE(store.config().verifyPayload);
    store.put("ok", std::make_shared<const Tea>(makeSyntheticTea(2)));
    ASSERT_TRUE(store.evictResident("ok"));

    std::string path = store.pathFor("ok");
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    TeacHeader h{};
    ASSERT_EQ(std::fread(&h, 1, sizeof(h), f), sizeof(h));
    long statePos = static_cast<long>(sizeof(TeacHeader) +
                                      h.offStateStart + sizeof(Addr));
    std::fseek(f, statePos, SEEK_SET);
    int was = std::fgetc(f);
    ASSERT_NE(was, EOF);
    std::fseek(f, statePos, SEEK_SET);
    std::fputc(was ^ 0xff, f);
    std::fclose(f);
    EXPECT_THROW(store.get("ok"), FatalError);
    std::filesystem::remove_all(dir);
}

TEST(Store, LruBudgetEvictsColdestFirst)
{
    std::string dir = freshDir("lru");
    AutomatonRegistry reg;
    StoreConfig cfg{dir};
    cfg.maxResident = 2;
    AutomatonStore store(reg, cfg);

    for (const char *name : {"a", "b", "c", "d"})
        store.put(name,
                  std::make_shared<const Tea>(makeSyntheticTea(2)));
    // Only the two most recently used stay resident. (Residency is
    // probed through snapshot(): a fault-in is compiled-only, so the
    // Tea-returning get() would be null even while resident.)
    EXPECT_EQ(store.residentCount(), 2u);
    EXPECT_FALSE(reg.snapshot("a"));
    EXPECT_FALSE(reg.snapshot("b"));
    EXPECT_TRUE(reg.snapshot("c"));
    EXPECT_TRUE(reg.snapshot("d"));

    // Touch order matters: GET c, then fault a back in — d (now LRU)
    // is the victim.
    ASSERT_TRUE(store.get("c"));
    ASSERT_TRUE(store.get("a"));
    EXPECT_EQ(store.residentCount(), 2u);
    EXPECT_TRUE(reg.snapshot("a"));
    EXPECT_TRUE(reg.snapshot("c"));
    EXPECT_FALSE(reg.snapshot("d"));

    // All four files survive every eviction.
    EXPECT_EQ(store.list().size(), 4u);
    for (const StoreEntry &e : store.list())
        EXPECT_TRUE(e.onDisk) << e.name;
    std::filesystem::remove_all(dir);
}

TEST(Store, ByteBudgetNeverThrashesTheNameJustLoaded)
{
    std::string dir = freshDir("bytes");
    AutomatonRegistry reg;
    StoreConfig cfg{dir};
    cfg.maxResidentBytes = 1; // smaller than any single automaton
    AutomatonStore store(reg, cfg);

    store.put("one", std::make_shared<const Tea>(makeSyntheticTea(4)));
    // Over budget, but the just-installed name is exempt — a budget
    // smaller than one automaton degrades to "resident set of one",
    // not an unusable store.
    EXPECT_EQ(store.residentCount(), 1u);
    store.put("two", std::make_shared<const Tea>(makeSyntheticTea(4)));
    EXPECT_EQ(store.residentCount(), 1u);
    EXPECT_TRUE(reg.snapshot("two"));
    EXPECT_FALSE(reg.snapshot("one"));
    std::filesystem::remove_all(dir);
}

TEST(Store, EveryResidentPathHoldsOnlyTheCompiledImage)
{
    // Whichever path makes a name resident, the registry holds its
    // CompiledTea and no Tea. A put compiles once and drops its Tea; a
    // cold fault-in maps an image and a recording publishes its
    // recorder's, so neither compiles.
    std::string dir = freshDir("oneform");
    std::string teaPath = freshDir("oneform_src") + ".tea";
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    const Tea tea = recordTea(w.program);
    saveTeaFile(tea, teaPath);
    std::vector<BlockTransition> stream = recordStream(w.program);

    uint64_t compiles = CompiledTea::compileCount();
    auto compilesSince = [&compiles] {
        uint64_t now = CompiledTea::compileCount();
        uint64_t moved = now - compiles;
        compiles = now;
        return moved;
    };
    auto holdsOnlyCompiled = [](const AutomatonRegistry &reg,
                                const std::string &name) {
        AutomatonSnapshot snap = reg.snapshot(name);
        EXPECT_NE(snap.compiled, nullptr) << name;
        EXPECT_EQ(snap.tea, nullptr) << name;
    };

    AutomatonRegistry reg;
    AutomatonStore store(reg, StoreConfig{dir});

    reg.put("put", Tea(tea));
    EXPECT_EQ(compilesSince(), 1u);
    holdsOnlyCompiled(reg, "put");

    // `teadbt serve name=tea` preloads through loadFile().
    auto loaded = reg.loadFile("file", teaPath);
    EXPECT_EQ(compilesSince(), 1u);
    holdsOnlyCompiled(reg, "file");
    EXPECT_EQ(saveTea(loaded->rehydrateTea()), saveTea(tea));

    store.put("stored", std::make_shared<const Tea>(tea));
    EXPECT_EQ(compilesSince(), 1u);
    holdsOnlyCompiled(reg, "stored");

    ASSERT_TRUE(store.evictResident("stored"));
    ASSERT_TRUE(store.get("stored")); // cold: mmap fault-in
    EXPECT_EQ(compilesSince(), 0u);
    holdsOnlyCompiled(reg, "stored");
    EXPECT_TRUE(reg.snapshot("stored").compiled->isMapped());

    // A recording compiles at its installs; the publish in finish()
    // swaps in the recorder's own image and compiles nothing.
    for (AutomatonStore *via : {static_cast<AutomatonStore *>(nullptr),
                                &store}) {
        std::string name = via != nullptr ? "rec-store" : "rec";
        rec::RecordingConfig cfg;
        cfg.swapInterval = 1u << 30; // publish only at finish()
        rec::RecordingSession session(name, reg, via, cfg);
        for (const BlockTransition &tr : stream)
            session.feed(tr);
        EXPECT_FALSE(reg.snapshot(name)) << name;
        compilesSince();
        session.finish();
        EXPECT_EQ(compilesSince(), 0u) << name;
        holdsOnlyCompiled(reg, name);
        EXPECT_EQ(reg.snapshot(name).compiled, session.current());
    }

    // A wire PUT, with and without a store behind the server.
    for (bool withStore : {false, true}) {
        ServerConfig cfg;
        cfg.workers = 1;
        if (withStore)
            cfg.storeDir = dir;
        TeaServer server(cfg);
        server.start();
        TeaClient client = TeaClient::connect(server.endpoint());
        compilesSince();
        client.putAutomaton("wire", tea);
        EXPECT_EQ(compilesSince(), 1u) << withStore;
        holdsOnlyCompiled(server.registry(), "wire");
        client.close();
        server.stop();
    }
    std::filesystem::remove_all(dir);
    std::remove(teaPath.c_str());
}

TEST(Store, MetricsCountHitsMissesLoadsEvictions)
{
    std::string dir = freshDir("metrics");
    AutomatonRegistry reg;
    obs::MetricsRegistry metrics;
    StoreConfig cfg{dir};
    cfg.maxResident = 1;
    AutomatonStore store(reg, cfg);
    store.bindMetrics(metrics);

    store.put("x", std::make_shared<const Tea>(makeSyntheticTea(2)));
    store.put("y", std::make_shared<const Tea>(makeSyntheticTea(2)));
    store.get("y");  // hit
    store.get("x");  // miss -> mmap load (evicts y)
    store.get("zz"); // miss, nowhere

    obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counterValue("store.hits"), 1u);
    EXPECT_EQ(snap.counterValue("store.misses"), 2u);
    EXPECT_EQ(snap.counterValue("store.mmap_loads"), 1u);
    EXPECT_GE(snap.counterValue("store.evictions"), 2u);
    int64_t residentGauge = -1, residentBytes = -1;
    for (const auto &[name, v] : snap.gauges) {
        if (name == "store.resident")
            residentGauge = v;
        if (name == "store.resident_bytes")
            residentBytes = v;
    }
    EXPECT_EQ(residentGauge, 1);
    EXPECT_GT(residentBytes, 0);
    std::filesystem::remove_all(dir);
}

TEST(Store, EvictionNeverInvalidatesPinnedSnapshots)
{
    // The TSan/ASan contract test: replayers pin snapshots (the way
    // Session::ReplayBegin does) while a churner evicts and re-faults
    // relentlessly under a budget of ONE resident automaton. If
    // eviction unmapped memory a kernel still walks, the replays below
    // would fault or diverge.
    std::string dir = freshDir("race");
    AutomatonRegistry reg;
    StoreConfig cfg{dir};
    cfg.maxResident = 1;
    AutomatonStore store(reg, cfg);

    constexpr size_t kNames = 4;
    std::vector<std::string> names;
    for (size_t i = 0; i < kNames; ++i) {
        names.push_back("tea-" + std::to_string(i));
        store.put(names.back(),
                  std::make_shared<const Tea>(makeSyntheticTea(3 + i)));
    }

    // Reference stats per name, computed before the race.
    std::vector<uint8_t> log = syntheticLog(1, 400);
    std::vector<ReplayStats> want;
    for (size_t i = 0; i < kNames; ++i) {
        AutomatonSnapshot snap = store.get(names[i]);
        ASSERT_TRUE(snap);
        StreamResult res = runReplayJob(
            ReplayJob{snap.tea, "", &log, snap.compiled}, LookupConfig{});
        ASSERT_TRUE(res.ok()) << res.error;
        want.push_back(res.stats);
    }

    std::atomic<bool> stop{false};
    std::thread churner([&] {
        size_t i = 0;
        while (!stop.load()) {
            store.evictResident(names[i % kNames]);
            store.get(names[(i + 1) % kNames]);
            ++i;
        }
    });

    constexpr int kReplayers = 4;
    constexpr int kRounds = 60;
    std::vector<std::string> errors(kReplayers);
    std::vector<std::thread> replayers;
    for (int t = 0; t < kReplayers; ++t) {
        replayers.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                size_t i = (round + t) % kNames;
                AutomatonSnapshot snap = store.get(names[i]);
                if (!snap) {
                    errors[t] = "store lost " + names[i];
                    return;
                }
                // The tea-less production path: compiled only, which
                // for a cold fault-in means replaying straight off the
                // mapping the churner is trying to kill.
                LookupConfig cfg2;
                StreamResult res = runReplayJob(
                    ReplayJob{snap.tea, "", &log, snap.compiled}, cfg2);
                if (!res.ok()) {
                    errors[t] = res.error;
                    return;
                }
                if (!(res.stats == want[i])) {
                    errors[t] = "replay diverged on " + names[i];
                    return;
                }
            }
        });
    }
    for (auto &th : replayers)
        th.join();
    stop = true;
    churner.join();
    for (int t = 0; t < kReplayers; ++t)
        EXPECT_EQ(errors[t], "") << "replayer " << t;
    std::filesystem::remove_all(dir);
}

TEST(StoreServer, ColdStartServesByMmapWithoutRecompile)
{
    // Precompile a fleet of automatons straight to disk — no server,
    // no registry — then boot a store-backed server over the directory
    // and replay cold names. The acceptance bar: first REPLAY of a
    // cold name goes through mmap, bit-identical stats, and the
    // process provably never compiles.
    std::string dir = freshDir("coldstart");
    std::filesystem::create_directories(dir);
    constexpr size_t kFleet = 100;
    for (size_t i = 0; i < kFleet; ++i) {
        Tea tea = makeSyntheticTea(2 + (i % 7));
        CompiledTea compiled(tea);
        saveTeacFile(compiled, dir + "/fleet-" + std::to_string(i) +
                                   ".teac");
    }

    // Expected stats, computed locally on an in-RAM automaton.
    std::vector<uint8_t> log = syntheticLog(1, 300);
    Tea local = makeSyntheticTea(2 + (42 % 7));
    StreamResult want = runReplayJob(
        ReplayJob{std::make_shared<const Tea>(std::move(local)), "",
                  &log},
        LookupConfig{});
    ASSERT_TRUE(want.ok()) << want.error;

    ServerConfig cfg;
    cfg.workers = 2;
    cfg.storeDir = dir;
    TeaServer server(cfg);
    server.start();

    uint64_t compiles = CompiledTea::compileCount();
    TeaClient client = TeaClient::connect(server.endpoint());

    // Everything is visible before any load, and everything is cold.
    std::vector<TeaClient::ListEntry> listing = client.listEntries();
    ASSERT_EQ(listing.size(), kFleet);
    for (const auto &e : listing)
        EXPECT_FALSE(e.resident) << e.name;

    RemoteReplayResult got = client.replay("fleet-42", log);
    EXPECT_EQ(got.stats, want.stats);
    // Served off the mapping: zero compiles in the whole process.
    EXPECT_EQ(CompiledTea::compileCount(), compiles);

    // The replayed name is now resident; the rest stay cold.
    listing = client.listEntries();
    size_t residentNames = 0;
    for (const auto &e : listing) {
        if (e.resident) {
            ++residentNames;
            EXPECT_EQ(e.name, "fleet-42");
        }
    }
    EXPECT_EQ(residentNames, 1u);

    // store.* metrics tell the same story.
    obs::MetricsSnapshot snap = server.metrics().snapshot();
    EXPECT_EQ(snap.counterValue("store.mmap_loads"), 1u);
    EXPECT_EQ(snap.counterValue("store.misses"), 1u);

    // A second replay of the same name is a pure registry hit.
    got = client.replay("fleet-42", log);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(CompiledTea::compileCount(), compiles);
    snap = server.metrics().snapshot();
    EXPECT_EQ(snap.counterValue("store.hits"), 1u);
    EXPECT_EQ(snap.counterValue("store.mmap_loads"), 1u);

    // EVICT drops the resident mapping; the next replay faults it back
    // in from disk — still no compile anywhere.
    EXPECT_TRUE(client.evict("fleet-42"));
    got = client.replay("fleet-42", log);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(CompiledTea::compileCount(), compiles);

    // The reference-kernel flag forces a rehydrated Tea (the one path
    // that reads the block records) — results stay identical.
    RemoteReplayOptions ropt;
    ropt.reference = true;
    got = client.replay("fleet-42", log, ropt);
    EXPECT_EQ(got.stats, want.stats);

    client.close();
    server.stop();
    std::filesystem::remove_all(dir);
}

TEST(StoreServer, PutWritesThroughAndSurvivesRestart)
{
    // A PUT on a store-backed server lands on disk; a *new* server
    // over the same directory serves it cold, without a recompile.
    std::string dir = freshDir("restart");
    std::vector<uint8_t> log = syntheticLog(0, 200);
    ReplayStats want;
    {
        ServerConfig cfg;
        cfg.workers = 2;
        cfg.storeDir = dir;
        TeaServer server(cfg);
        server.start();
        TeaClient client = TeaClient::connect(server.endpoint());
        client.putAutomaton("persisted", makeSyntheticTea(4));
        want = client.replay("persisted", log).stats;
        client.close();
        server.stop();
    }
    EXPECT_TRUE(std::filesystem::exists(dir + "/persisted.teac"));
    {
        ServerConfig cfg;
        cfg.workers = 2;
        cfg.storeDir = dir;
        TeaServer server(cfg);
        server.start();
        uint64_t compiles = CompiledTea::compileCount();
        TeaClient client = TeaClient::connect(server.endpoint());
        RemoteReplayResult got = client.replay("persisted", log);
        EXPECT_EQ(got.stats, want);
        EXPECT_EQ(CompiledTea::compileCount(), compiles);
        client.close();
        server.stop();
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace tea
