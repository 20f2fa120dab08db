/**
 * @file
 * Tests for the TEA core: the automaton, Algorithm 1 (builder),
 * Algorithm 2 (recorder), the replayer's transition function under all
 * lookup configurations, and TEA serialization.
 *
 * The parameterized suites sweep (workload x selector) and assert the
 * paper's properties on every combination:
 *  - Property 1/2 (via Tea::validate, called inside buildTea),
 *  - determinism,
 *  - the "precise map" (replay state always matches the executing block),
 *  - lookup-configuration equivalence (all four configs of §4.2 compute
 *    the same state sequence; they only differ in speed).
 *
 * The recorder's in-place growth is pinned two ways over every
 * (workload x selector) pair: after each install the live automaton,
 * the compiled snapshot the recorder replays on (and publishes), and
 * the Tea rehydrated from that snapshot must all serialize exactly
 * like buildTea() over the recorded traces, and each run's trace
 * count, counters and `.tea` CRC must match a table captured from the
 * rebuild-per-install recorder this one replaced.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/recorder.hh"
#include "tea/replayer.hh"
#include "tea/serialize.hh"
#include "trace/factory.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "vm/block.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {

/** gtest printer: counters by name, so a mismatch reads as numbers. */
void
PrintTo(const ReplayStats &s, std::ostream *os)
{
    *os << "{blocks " << s.blocks << ", insnsTotal " << s.insnsTotal
        << ", insnsInTrace " << s.insnsInTrace << ", transitions "
        << s.transitions << ", intraTraceHits " << s.intraTraceHits
        << ", traceExits " << s.traceExits << ", exitsToCold "
        << s.exitsToCold << ", nteBlocks " << s.nteBlocks
        << ", localCacheHits " << s.localCacheHits << ", globalLookups "
        << s.globalLookups << ", globalHits " << s.globalHits << "}";
}

namespace {

TraceSet
record(const Program &prog, const std::string &selector)
{
    TeaRecorder recorder(makeSelector(selector));
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { recorder.feed(tr); });
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return recorder.traces();
}

TEST(Automaton, EmptyTeaHasOnlyNte)
{
    Tea tea;
    EXPECT_EQ(tea.numStates(), 1u);
    EXPECT_EQ(tea.numTbbStates(), 0u);
    EXPECT_EQ(tea.numTransitions(), 0u);
    EXPECT_EQ(tea.entryAt(0x1000), Tea::kNteState);
    EXPECT_EQ(tea.nextState(Tea::kNteState, 0x1000), Tea::kNteState);
}

TEST(Automaton, HandBuiltTransitions)
{
    // Two-trace automaton mirroring Figure 3: T1 = {A, B}, T2 = {C}.
    Tea tea;
    StateId a = tea.addState(0, 0, 0x1000, 0x1008, true);
    StateId b = tea.addState(0, 1, 0x1010, 0x1018, false);
    StateId c = tea.addState(1, 0, 0x2000, 0x2008, true);
    tea.addTransition(a, b);
    tea.addTransition(b, a);
    tea.addEntry(a);
    tea.addEntry(c);

    // NTE enters traces only at their entries.
    EXPECT_EQ(tea.nextState(Tea::kNteState, 0x1000), a);
    EXPECT_EQ(tea.nextState(Tea::kNteState, 0x2000), c);
    EXPECT_EQ(tea.nextState(Tea::kNteState, 0x1010), Tea::kNteState)
        << "mid-trace blocks are not entry points";

    // Intra-trace transitions follow the labels.
    EXPECT_EQ(tea.nextState(a, 0x1010), b);
    EXPECT_EQ(tea.nextState(b, 0x1000), a);

    // Leaving a trace falls back to NTE or into another trace's entry.
    EXPECT_EQ(tea.nextState(a, 0x3000), Tea::kNteState);
    EXPECT_EQ(tea.nextState(a, 0x2000), c) << "trace-to-trace";

    EXPECT_EQ(tea.stateFor(0, 1), b);
    EXPECT_EQ(tea.stateFor(9, 0), Tea::kNteState);
    EXPECT_EQ(tea.numTransitions(), 4u); // 2 intra + 2 entries
}

TEST(Automaton, DuplicateEntriesRejected)
{
    Tea tea;
    StateId a = tea.addState(0, 0, 0x1000, 0x1008, false);
    StateId b = tea.addState(1, 0, 0x1000, 0x100c, false);
    tea.addEntry(a);
    EXPECT_THROW(tea.addEntry(b), PanicError);
}

TEST(Builder, Figure2Example)
{
    // T1 = {begin, header, next}, T2 = {inc, next}: the paper's traces.
    TraceSet traces;
    Trace t1;
    t1.blocks.push_back({0x1000, 0x1004, true});  // $$T1.begin
    t1.blocks.push_back({0x1008, 0x100c, false}); // $$T1.header
    t1.blocks.push_back({0x1014, 0x1018, false}); // $$T1.next
    t1.edges.push_back({0, 1});
    t1.edges.push_back({1, 2});
    t1.edges.push_back({2, 0});
    traces.add(t1);
    Trace t2;
    t2.blocks.push_back({0x1010, 0x1010, false}); // $$T2.inc
    t2.blocks.push_back({0x1014, 0x1018, false}); // $$T2.next
    t2.edges.push_back({0, 1});
    traces.add(t2);

    Tea tea = buildTea(traces); // validates Properties 1 and 2
    EXPECT_EQ(tea.numTbbStates(), 5u);

    // The paper's precision claim: the two instances of block "next"
    // are distinct states, distinguishable by the current state.
    StateId t1_next = tea.stateFor(0, 2);
    StateId t2_next = tea.stateFor(1, 1);
    EXPECT_NE(t1_next, t2_next);
    EXPECT_EQ(tea.state(t1_next).start, tea.state(t2_next).start);

    // From $$T1.header, PC 0x1014 means $$T1.next...
    EXPECT_EQ(tea.nextState(tea.stateFor(0, 1), 0x1014), t1_next);
    // ...but from $$T2.inc it means $$T2.next.
    EXPECT_EQ(tea.nextState(tea.stateFor(1, 0), 0x1014), t2_next);

    std::string dot = tea.toDot("fig3");
    EXPECT_NE(dot.find("NTE"), std::string::npos);
    EXPECT_NE(dot.find("$$T1."), std::string::npos);
    EXPECT_NE(dot.find("$$T2."), std::string::npos);
}

TEST(Serialize, EmptyAndRoundTrip)
{
    Tea empty;
    auto bytes = saveTea(empty);
    EXPECT_EQ(bytes.size(), empty.serializedBytes());
    Tea loaded = loadTea(bytes);
    EXPECT_EQ(loaded.numTbbStates(), 0u);

    EXPECT_THROW(loadTea({1, 2, 3, 4}), FatalError);
}

TEST(Serialize, CorruptionDetected)
{
    Tea tea;
    tea.addState(0, 0, 0x1000, 0x1008, true);
    tea.addEntry(1);
    auto bytes = saveTea(tea);
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW(loadTea(truncated), FatalError);
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_THROW(loadTea(padded), FatalError);
}

/** (workload, selector) sweep fixture. */
class TeaPipeline
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
  protected:
    void
    SetUp() override
    {
        workload = Workloads::build(std::get<0>(GetParam()),
                                    InputSize::Test);
        traces = record(workload.program, std::get<1>(GetParam()));
    }

    Workload workload;
    TraceSet traces;
};

TEST_P(TeaPipeline, BuilderSatisfiesPaperProperties)
{
    Tea tea = buildTea(traces); // throws if Property 1/2 violated
    EXPECT_EQ(tea.numTbbStates(), traces.totalBlocks());
    // Every trace entry reachable from NTE.
    for (const Trace &t : traces.all())
        EXPECT_EQ(tea.entryAt(t.entry()), tea.stateFor(t.id, 0));
}

TEST_P(TeaPipeline, SerializationRoundTripsExactly)
{
    Tea tea = buildTea(traces);
    auto bytes = saveTea(tea);
    EXPECT_EQ(bytes.size(), tea.serializedBytes());
    Tea loaded = loadTea(bytes);
    ASSERT_EQ(loaded.numStates(), tea.numStates());
    ASSERT_EQ(loaded.numTransitions(), tea.numTransitions());
    for (StateId id = 1; id < tea.numStates(); ++id) {
        const TeaState &a = tea.state(id);
        const TeaState &b = loaded.state(id);
        EXPECT_EQ(a.trace, b.trace);
        EXPECT_EQ(a.tbb, b.tbb);
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.loopHeader, b.loopHeader);
        EXPECT_EQ(a.succs, b.succs);
    }
    loaded.validate(traces);
}

TEST_P(TeaPipeline, ReplayKeepsThePreciseMap)
{
    Tea tea = buildTea(traces);
    LookupConfig cfg;
    cfg.checkConsistency = true; // panics on any state/PC divergence
    TeaReplayer replayer(tea, cfg);
    Machine m(workload.program);
    BlockTracker tracker(
        workload.program,
        [&](const BlockTransition &tr) { replayer.feed(tr); });
    EXPECT_EQ(m.runHooked(
                  [&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false),
              RunExit::Halted);
    if (!traces.empty()) {
        EXPECT_GT(replayer.stats().insnsInTrace, 0u);
    }
    // Edge instrumentation sees no intra-REP boundaries, so the replay
    // counts each REP once (the StarDBT convention).
    EXPECT_EQ(replayer.stats().insnsTotal, m.icountRepAsOne());
}

TEST_P(TeaPipeline, AllLookupConfigsComputeTheSameStateSequence)
{
    Tea tea = buildTea(traces);
    const LookupConfig configs[] = {
        {true, true, false},
        {true, false, false},
        {false, true, false},
        {false, false, false},
    };
    std::vector<std::vector<StateId>> sequences;
    for (const LookupConfig &cfg : configs) {
        TeaReplayer replayer(tea, cfg);
        std::vector<StateId> seq;
        Machine m(workload.program);
        BlockTracker tracker(workload.program,
                             [&](const BlockTransition &tr) {
                                 replayer.feed(tr);
                                 seq.push_back(replayer.currentState());
                             });
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    false);
        sequences.push_back(std::move(seq));
    }
    for (size_t i = 1; i < std::size(configs); ++i)
        EXPECT_EQ(sequences[i], sequences[0])
            << "lookup structures must only affect speed, config " << i;
}

TEST_P(TeaPipeline, OnlineRecordingMatchesItsOwnReplay)
{
    // Record online (Algorithm 2), then replay the resulting automaton:
    // replay coverage must be at least the recording coverage.
    TeaRecorder recorder(makeSelector(std::get<1>(GetParam())));
    Machine m(workload.program);
    BlockTracker rec_tracker(
        workload.program,
        [&](const BlockTransition &tr) { recorder.feed(tr); });
    m.runHooked([&](const EdgeEvent &ev) { rec_tracker.onEdge(ev); },
                false);

    Tea tea = buildTea(recorder.traces());
    TeaReplayer replayer(tea, LookupConfig{});
    Machine m2(workload.program);
    BlockTracker replay_tracker(
        workload.program,
        [&](const BlockTransition &tr) { replayer.feed(tr); });
    m2.runHooked([&](const EdgeEvent &ev) { replay_tracker.onEdge(ev); },
                 false);

    EXPECT_GE(replayer.stats().coverage() + 1e-9,
              recorder.stats().coverage());
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsBySelectors, TeaPipeline,
    ::testing::Combine(::testing::Values("syn.mcf", "syn.gzip",
                                         "syn.crafty", "syn.mesa",
                                         "syn.perlbmk", "syn.swim"),
                       ::testing::Values("mret", "tt", "ctt", "mfet")),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param);
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

TEST(Recorder, StartsEmptyAndGrows)
{
    Workload w = Workloads::build("syn.mcf", InputSize::Test);
    TeaRecorder recorder(makeSelector("mret"));
    EXPECT_EQ(recorder.traces().size(), 0u);
    EXPECT_EQ(recorder.tea().numTbbStates(), 0u);
    EXPECT_FALSE(recorder.creating());

    Machine m(w.program);
    BlockTracker tracker(
        w.program, [&](const BlockTransition &tr) { recorder.feed(tr); });
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);

    EXPECT_GT(recorder.traces().size(), 0u);
    EXPECT_GT(recorder.installs(), 0u);
    EXPECT_EQ(recorder.tea().numTbbStates(),
              recorder.traces().totalBlocks());
    EXPECT_FALSE(recorder.creating()) << "recording must have finished";
    EXPECT_EQ(recorder.stats().insnsTotal, m.icountRepAsOne());
}

/** One recording run the in-place recorder must reproduce exactly. */
struct GoldenRecording
{
    const char *workload;
    const char *selector;
    size_t traces;
    uint32_t teaCrc; ///< CRC-32 of saveTea(recorder.tea())
    ReplayStats stats;
};

/**
 * Test-size recordings, captured from the recorder that rebuilt the
 * automaton and its replayer on every install. Stream: BlockTracker
 * defaults, no splitting at CPUID/REP.
 */
const GoldenRecording kGoldenRecordings[] = {
    {"syn.wupwise", "mret", 5, 0x9de2b4f7,
     {12123, 131275, 129072, 12122, 11698, 170, 54, 255, 161, 263, 55}},
    {"syn.wupwise", "ctt", 4, 0xcd8eea24,
     {12123, 131275, 129086, 12122, 11816, 53, 53, 254, 49, 257, 50}},
    {"syn.wupwise", "tt", 4, 0x74e4ffd4,
     {12123, 131275, 129086, 12122, 11816, 53, 53, 254, 49, 257, 50}},
    {"syn.wupwise", "mfet", 4, 0x0379b4b7,
     {12123, 131275, 129047, 12122, 11701, 132, 92, 290, 127, 294, 89}},
    {"syn.swim", "mret", 4, 0x6d4dfaf2,
     {29053, 218538, 216206, 29052, 28708, 58, 58, 287, 53, 291, 54}},
    {"syn.swim", "ctt", 4, 0x6d4dfaf2,
     {29053, 218538, 216206, 29052, 28708, 58, 58, 287, 53, 291, 54}},
    {"syn.swim", "tt", 4, 0x6d4dfaf2,
     {29053, 218538, 216206, 29052, 28708, 58, 58, 287, 53, 291, 54}},
    {"syn.swim", "mfet", 4, 0x6d4dfaf2,
     {29053, 218538, 216237, 29052, 28712, 58, 58, 283, 53, 287, 54}},
    {"syn.mgrid", "mret", 6, 0xe8516160,
     {40150, 279253, 277304, 40149, 38042, 1789, 110, 319, 1768, 339, 122}},
    {"syn.mgrid", "ctt", 4, 0x899e42d3,
     {40150, 279253, 277162, 40149, 39546, 193, 193, 411, 183, 420, 191}},
    {"syn.mgrid", "tt", 3, 0xff775846,
     {40150, 279253, 277318, 40149, 39729, 104, 104, 317, 98, 322, 102}},
    {"syn.mgrid", "mfet", 4, 0x200305b6,
     {40150, 279253, 276117, 40149, 38044, 1178, 641, 928, 1171, 934, 640}},
    {"syn.applu", "mret", 4, 0x3ef4d60a,
     {17643, 124261, 121896, 17642, 17228, 86, 86, 329, 81, 333, 82}},
    {"syn.applu", "ctt", 4, 0x3ef4d60a,
     {17643, 124261, 121896, 17642, 17228, 86, 86, 329, 81, 333, 82}},
    {"syn.applu", "tt", 4, 0x3ef4d60a,
     {17643, 124261, 121896, 17642, 17228, 86, 86, 329, 81, 333, 82}},
    {"syn.applu", "mfet", 4, 0x3ef4d60a,
     {17643, 124261, 121926, 17642, 17232, 86, 86, 325, 81, 329, 82}},
    {"syn.mesa", "mret", 3, 0xd04c6346,
     {31694, 119790, 118283, 31693, 22377, 8971, 77, 346, 8948, 368, 86}},
    {"syn.mesa", "ctt", 2, 0x0fcf1920,
     {31694, 119790, 118220, 31693, 31253, 77, 77, 364, 73, 367, 75}},
    {"syn.mesa", "tt", 2, 0x0fcf1920,
     {31694, 119790, 118220, 31693, 31253, 77, 77, 364, 73, 367, 75}},
    {"syn.mesa", "mfet", 2, 0xe39a2334,
     {31694, 119790, 87107, 31693, 17924, 4515, 4515, 9255, 4512, 9257, 4513}},
    {"syn.galgel", "mret", 4, 0xaafea267,
     {5651, 95059, 92184, 5650, 5346, 52, 52, 253, 49, 255, 49}},
    {"syn.galgel", "ctt", 3, 0xc0729203,
     {5651, 95059, 92184, 5650, 5346, 52, 52, 253, 49, 255, 49}},
    {"syn.galgel", "tt", 3, 0xc0729203,
     {5651, 95059, 92184, 5650, 5346, 52, 52, 253, 49, 255, 49}},
    {"syn.galgel", "mfet", 3, 0xc0729203,
     {5651, 95059, 92218, 5650, 5349, 52, 52, 250, 49, 252, 49}},
    {"syn.art", "mret", 4, 0xe103c0d7,
     {31017, 125414, 123446, 31016, 30338, 289, 131, 390, 279, 399, 130}},
    {"syn.art", "ctt", 3, 0xdda72843,
     {31017, 125414, 123358, 31016, 30474, 131, 131, 412, 123, 419, 128}},
    {"syn.art", "tt", 3, 0xdda72843,
     {31017, 125414, 123358, 31016, 30474, 131, 131, 412, 123, 419, 128}},
    {"syn.art", "mfet", 3, 0x5487746f,
     {31017, 125414, 123106, 31016, 30342, 199, 199, 476, 193, 481, 196}},
    {"syn.equake", "mret", 5, 0x4e3b3beb,
     {14648, 89116, 87372, 14647, 14328, 65, 54, 255, 56, 263, 55}},
    {"syn.equake", "ctt", 4, 0x0087fc1d,
     {14648, 89116, 87381, 14647, 14341, 53, 53, 254, 49, 257, 50}},
    {"syn.equake", "tt", 3, 0x3ec1ce89,
     {14648, 89116, 87381, 14647, 14341, 53, 53, 254, 49, 257, 50}},
    {"syn.equake", "mfet", 4, 0x10fde318,
     {14648, 89116, 87403, 14647, 14331, 62, 57, 255, 57, 259, 54}},
    {"syn.facerec", "mret", 5, 0x5ab31aa9,
     {23613, 88885, 86682, 23612, 23074, 80, 54, 459, 71, 467, 55}},
    {"syn.facerec", "ctt", 4, 0xe5bcb0bf,
     {23613, 88885, 86696, 23612, 23104, 53, 53, 456, 49, 459, 50}},
    {"syn.facerec", "tt", 3, 0x068e4c07,
     {23613, 88885, 86696, 23612, 23104, 53, 53, 456, 49, 459, 50}},
    {"syn.facerec", "mfet", 4, 0x303dbe01,
     {23613, 88885, 86717, 23612, 23083, 72, 62, 458, 67, 462, 59}},
    {"syn.ammp", "mret", 3, 0x5522cc13,
     {34719, 107903, 106182, 34718, 33866, 485, 81, 368, 479, 373, 81}},
    {"syn.ammp", "ctt", 2, 0x5b247e07,
     {34719, 107903, 106182, 34718, 34270, 81, 81, 368, 77, 371, 79}},
    {"syn.ammp", "tt", 2, 0x5b247e07,
     {34719, 107903, 106182, 34718, 34270, 81, 81, 368, 77, 371, 79}},
    {"syn.ammp", "mfet", 2, 0xbc4acf52,
     {34719, 107903, 104381, 34718, 33870, 283, 283, 566, 280, 568, 281}},
    {"syn.lucas", "mret", 3, 0xbafcac96,
     {12361, 87196, 80338, 12360, 11230, 258, 52, 873, 251, 879, 55}},
    {"syn.lucas", "ctt", 2, 0x9e0d4d14,
     {12361, 87196, 80349, 12360, 11438, 51, 51, 872, 49, 873, 50}},
    {"syn.lucas", "tt", 2, 0xf06e3fc1,
     {12361, 87196, 80349, 12360, 11438, 51, 51, 872, 49, 873, 50}},
    {"syn.lucas", "mfet", 2, 0xc34fac85,
     {12361, 87196, 80227, 12360, 11231, 190, 120, 940, 187, 942, 119}},
    {"syn.fma3d", "mret", 4, 0x4af9428c,
     {27547, 76675, 72698, 27546, 26302, 79, 53, 1166, 71, 1173, 55}},
    {"syn.fma3d", "ctt", 3, 0x1d19cea1,
     {27547, 76675, 72719, 27546, 26336, 52, 52, 1159, 49, 1161, 50}},
    {"syn.fma3d", "tt", 2, 0x19d7af32,
     {27547, 76675, 72719, 27546, 26336, 52, 52, 1159, 49, 1161, 50}},
    {"syn.fma3d", "mfet", 3, 0x23970cca,
     {27547, 76675, 72747, 27546, 26322, 71, 61, 1154, 67, 1157, 59}},
    {"syn.sixtrack", "mret", 4, 0x979d2920,
     {9981, 89206, 87670, 9980, 9698, 79, 53, 204, 71, 211, 55}},
    {"syn.sixtrack", "ctt", 3, 0x5230bfc3,
     {9981, 89206, 87681, 9980, 9726, 52, 52, 203, 49, 205, 50}},
    {"syn.sixtrack", "tt", 3, 0x89714d60,
     {9981, 89206, 87681, 9980, 9726, 52, 52, 203, 49, 205, 50}},
    {"syn.sixtrack", "mfet", 3, 0xb5411082,
     {9981, 89206, 87689, 9980, 9700, 71, 61, 210, 67, 213, 59}},
    {"syn.apsi", "mret", 6, 0x843d5b7d,
     {28927, 256584, 254304, 28926, 27450, 1154, 112, 323, 1133, 343, 124}},
    {"syn.apsi", "ctt", 4, 0x0733f3b6,
     {28927, 256584, 254254, 28926, 28357, 186, 162, 384, 175, 394, 161}},
    {"syn.apsi", "tt", 3, 0xc136e67b,
     {28927, 256584, 254332, 28926, 28503, 104, 104, 320, 98, 325, 102}},
    {"syn.apsi", "mfet", 4, 0x75756529,
     {28927, 256584, 253561, 28926, 27452, 761, 433, 714, 754, 720, 432}},
    {"syn.gzip", "mret", 4, 0xb441ecbb,
     {16961, 73221, 71908, 16960, 4677, 11948, 103, 336, 11923, 360, 121}},
    {"syn.gzip", "ctt", 2, 0x3839b5b2,
     {16961, 73221, 70916, 16960, 15844, 331, 307, 786, 312, 804, 307}},
    {"syn.gzip", "tt", 2, 0x35a37e38,
     {16961, 73221, 69276, 16960, 14659, 1129, 742, 1173, 1014, 1287, 755}},
    {"syn.gzip", "mfet", 2, 0x2404737b,
     {16961, 73221, 57355, 16960, 6293, 4852, 3356, 5816, 4847, 5820, 3355}},
    {"syn.vpr", "mret", 5, 0x31026e3b,
     {17057, 90296, 88571, 17056, 12769, 3977, 102, 311, 3963, 324, 109}},
    {"syn.vpr", "ctt", 3, 0xde0e3c38,
     {17057, 90296, 88307, 17056, 16503, 149, 149, 405, 143, 410, 147}},
    {"syn.vpr", "tt", 3, 0x60734f91,
     {17057, 90296, 88536, 17056, 16653, 99, 99, 305, 95, 308, 96}},
    {"syn.vpr", "mfet", 3, 0x8a07883b,
     {17057, 90296, 83503, 17056, 12160, 2347, 1197, 2550, 2343, 2553, 1195}},
    {"syn.gcc", "mret", 229, 0x244c7a2c,
     {43681, 270685, 155270, 43680, 19744, 4686,
      2685, 19251, 3423, 20513, 2548}},
    {"syn.gcc", "ctt", 207, 0xfa69ff25,
     {43681, 270685, 155401, 43680, 21814, 2643,
      2643, 19224, 1449, 20417, 2437}},
    {"syn.gcc", "tt", 207, 0x9bedfeb3,
     {43681, 270685, 154994, 43680, 21736, 2641,
      2641, 19304, 1448, 20496, 2434}},
    {"syn.gcc", "mfet", 207, 0x33c626d0,
     {43681, 270685, 148779, 43680, 19006, 4157,
      4157, 20518, 2982, 21692, 3950}},
    {"syn.mcf", "mret", 5, 0xc171fbd4,
     {78632, 237018, 235514, 78631, 45149, 33106, 103, 377, 33091, 391, 111}},
    {"syn.mcf", "ctt", 3, 0x77ec478a,
     {78632, 237018, 235269, 78631, 78054, 102, 102, 476, 98, 479, 100}},
    {"syn.mcf", "tt", 2, 0xeba7ab2c,
     {78632, 237018, 235269, 78631, 78054, 102, 102, 476, 98, 479, 100}},
    {"syn.mcf", "mfet", 3, 0x5368b474,
     {78632, 237018, 152831, 78631, 28624, 16550,
      16540, 33458, 16546, 33461, 16538}},
    {"syn.crafty", "mret", 6, 0x3a6ecff3,
     {20001, 91967, 88853, 20000, 7833, 11362, 251, 806, 11296, 871, 293}},
    {"syn.crafty", "ctt", 1, 0x9b91a64d,
     {20001, 91967, 85891, 20000, 17694, 751, 751, 1556, 669, 1637, 750}},
    {"syn.crafty", "tt", 1, 0x9b91a64d,
     {20001, 91967, 85891, 20000, 17694, 751, 751, 1556, 669, 1637, 750}},
    {"syn.crafty", "mfet", 1, 0x74d88bdd,
     {20001, 91967, 47655, 20000, 3952, 3699, 3699, 12350, 3695, 12353, 3698}},
    {"syn.parser", "mret", 7, 0xbf82ce3f,
     {31953, 94977, 90352, 31952, 13419, 17156, 251, 1378, 16713, 1820, 638}},
    {"syn.parser", "ctt", 2, 0xc9ef895d,
     {31953, 94977, 79009, 31952, 26027, 1248, 1198, 4678, 1013, 4912, 1198}},
    {"syn.parser", "tt", 2, 0xc10ab26c,
     {31953, 94977, 78152, 31952, 25879, 1178, 1128, 4896, 946, 5127, 1127}},
    {"syn.parser", "mfet", 2, 0xd0b5d86f,
     {31953, 94977, 38862, 31952, 10270, 2624, 2624, 19059, 2620, 19062, 2622}},
    {"syn.eon", "mret", 2, 0xb5602bf7,
     {25961, 90275, 80517, 25960, 23473, 867, 51, 1621, 863, 1624, 52}},
    {"syn.eon", "ctt", 1, 0x3984520a,
     {25961, 90275, 80517, 25960, 24289, 51, 51, 1621, 49, 1622, 50}},
    {"syn.eon", "tt", 1, 0x3984520a,
     {25961, 90275, 80517, 25960, 24289, 51, 51, 1621, 49, 1622, 50}},
    {"syn.eon", "mfet", 1, 0x9e1c05aa,
     {25961, 90275, 78102, 25960, 22667, 459, 459, 2835, 457, 2836, 458}},
    {"syn.perlbmk", "mret", 9, 0xd8fcaa04,
     {20817, 65630, 63392, 20816, 2824, 17369, 390, 624, 12157, 5835, 5391}},
    {"syn.perlbmk", "ctt", 2, 0xc39b1742,
     {20817, 65630, 63278, 20816, 19765, 390, 390, 662, 189, 862, 388}},
    {"syn.perlbmk", "tt", 2, 0xc39b1742,
     {20817, 65630, 63278, 20816, 19765, 390, 390, 662, 189, 862, 388}},
    {"syn.perlbmk", "mfet", 2, 0xfa639572,
     {20817, 65630, 36240, 20816, 2827, 8841, 8841, 9149, 3666, 14323, 8839}},
    {"syn.gap", "mret", 7, 0x98203b44,
     {21875, 93171, 90848, 21874, 11027, 10166, 205, 682, 10112, 735, 239}},
    {"syn.gap", "ctt", 3, 0x45c010d2,
     {21875, 93171, 90682, 21874, 20762, 300, 300, 813, 275, 837, 299}},
    {"syn.gap", "tt", 3, 0x08ec74d0,
     {21875, 93171, 90932, 21874, 21012, 200, 200, 663, 183, 679, 198}},
    {"syn.gap", "mfet", 3, 0xd3088ff8,
     {21875, 93171, 74861, 21874, 9564, 5187, 4277, 7124, 5173, 7137, 4275}},
    {"syn.vortex", "mret", 32, 0x1c9266fe,
     {19945, 85037, 63521, 19944, 7411, 6498, 1551, 6036, 2765, 9768, 3928}},
    {"syn.vortex", "ctt", 1, 0x3b7d92b6,
     {19945, 85037, 63521, 19944, 12358, 1551, 1551, 6036, 212, 7374, 1550}},
    {"syn.vortex", "tt", 1, 0x3b7d92b6,
     {19945, 85037, 63521, 19944, 12358, 1551, 1551, 6036, 212, 7374, 1550}},
    {"syn.vortex", "mfet", 1, 0xac2d53b6,
     {19945, 85037, 30425, 19944, 500, 4025, 4025, 15420, 526, 18918, 4024}},
    {"syn.bzip2", "mret", 7, 0xb9288f5f,
     {11416, 41821, 39109, 11415, 3791, 6774, 201, 851, 6708, 916, 250}},
    {"syn.bzip2", "ctt", 3, 0x128a2fb1,
     {11416, 41821, 38041, 11415, 8916, 1113, 513, 1387, 983, 1516, 560}},
    {"syn.bzip2", "tt", 3, 0xd4d1ff46,
     {11416, 41821, 38031, 11415, 8914, 1111, 516, 1391, 978, 1523, 563}},
    {"syn.bzip2", "mfet", 3, 0xaf521436,
     {11416, 41821, 31083, 11415, 2597, 3949, 2217, 4870, 3937, 4881, 2217}},
    {"syn.twolf", "mret", 7, 0x826c130b,
     {18233, 95803, 93320, 18232, 11707, 6097, 152, 429, 6071, 454, 165}},
    {"syn.twolf", "ctt", 4, 0x6e3d70c4,
     {18233, 95803, 92706, 18232, 17318, 280, 280, 635, 265, 649, 277}},
    {"syn.twolf", "tt", 4, 0x7b39d55a,
     {18233, 95803, 93612, 18232, 17722, 119, 119, 392, 113, 397, 115}},
    {"syn.twolf", "mfet", 4, 0x8e27d164,
     {18233, 95803, 81824, 18232, 11452, 3256, 2106, 3525, 3249, 3531, 2103}},
};

void
PrintTo(const GoldenRecording &g, std::ostream *os)
{
    *os << g.workload << "/" << g.selector;
}

class RecorderGolden : public ::testing::TestWithParam<GoldenRecording>
{
};

TEST_P(RecorderGolden, InPlaceGrowthMatchesRebuildAndTable)
{
    const GoldenRecording &g = GetParam();
    Workload w = Workloads::build(g.workload, InputSize::Test);
    std::vector<BlockTransition> stream;
    Machine m(w.program);
    BlockTracker tracker(w.program, [&](const BlockTransition &tr) {
        stream.push_back(tr);
    });
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);

    TeaRecorder recorder(makeSelector(g.selector));
    uint64_t installs = 0;
    for (const BlockTransition &tr : stream) {
        recorder.feed(tr);
        if (recorder.installs() == installs)
            continue;
        installs = recorder.installs();
        Tea rebuilt = buildTea(recorder.traces());
        std::vector<uint8_t> want = saveTea(rebuilt);
        ASSERT_TRUE(saveTea(recorder.tea()) == want)
            << "grown automaton diverged from buildTea at install "
            << installs;
        ASSERT_TRUE(recorder.snapshot()->serialize() ==
                    CompiledTea(rebuilt).serialize())
            << "snapshot diverged from a compile of buildTea at install "
            << installs;
        ASSERT_TRUE(saveTea(recorder.snapshot()->rehydrateTea()) == want)
            << "snapshot rehydrated a different Tea at install "
            << installs;
    }

    EXPECT_EQ(recorder.traces().size(), g.traces);
    EXPECT_EQ(recorder.stats(), g.stats);
    std::vector<uint8_t> bytes = saveTea(recorder.tea());
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), g.teaCrc);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsBySelectors, RecorderGolden,
    ::testing::ValuesIn(kGoldenRecordings), [](const auto &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           info.param.selector;
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

TEST(RecorderGoldenTable, CoversEveryWorkloadAndSelector)
{
    std::set<std::pair<std::string, std::string>> rows;
    for (const GoldenRecording &g : kGoldenRecordings)
        EXPECT_TRUE(rows.emplace(g.workload, g.selector).second)
            << g.workload << " " << g.selector << " listed twice";
    std::set<std::pair<std::string, std::string>> expected;
    for (const std::string &w : Workloads::names())
        for (const std::string &sel : selectorNames())
            expected.emplace(w, sel);
    EXPECT_EQ(rows, expected);
}

/**
 * Finishes one trace on the first transition: blocks A -> B with the
 * edge listed twice, so A's state would carry B's label twice.
 */
class RepeatedEdgeSelector : public TraceSelector
{
  public:
    const char *name() const override { return "repeated-edge"; }
    TraceKind kind() const override { return TraceKind::Superblock; }

    ExecutingAction
    onExecuting(const BlockTransition &, const SelectorContext &) override
    {
        return ExecutingAction::FinishImmediately;
    }

    CreatingAction
    onCreating(const BlockTransition &, const SelectorContext &) override
    {
        return CreatingAction::Continue;
    }

    RecordingResult
    finish(const TraceSet &) override
    {
        RecordingResult r;
        r.kind = RecordingResult::Kind::NewTrace;
        r.trace.blocks.push_back({0x1000, 0x1008, true});
        r.trace.blocks.push_back({0x1010, 0x1018, false});
        r.trace.edges.push_back({0, 1});
        r.trace.edges.push_back({0, 1});
        return r;
    }

    void reset() override {}
};

TEST(Recorder, InstallOfNondeterministicTraceThrows)
{
    TeaRecorder recorder(std::make_unique<RepeatedEdgeSelector>());
    BlockTransition tr{};
    tr.from = {0x0500, 0x0504, 2};
    tr.toStart = 0x1000;
    tr.kind = EdgeKind::BranchTaken;
    EXPECT_THROW(recorder.feed(tr), FatalError);
    EXPECT_EQ(recorder.traces().size(), 0u);
    EXPECT_EQ(recorder.tea().numTbbStates(), 0u)
        << "a rejected trace must not grow the automaton";
}

TEST(Replayer, ProfilesPerCopyCounts)
{
    // Duplicated-block profiling: distinct TBB states get distinct bins.
    TraceSet traces;
    Trace t;
    t.blocks.push_back({0x1000, 0x1008, true});
    t.blocks.push_back({0x1010, 0x1018, false});
    t.edges.push_back({0, 1});
    t.edges.push_back({1, 0});
    traces.add(t);
    Tea tea = buildTea(traces);
    TeaReplayer replayer(tea, LookupConfig{});

    auto feed = [&](Addr start, Addr end, Addr to) {
        BlockTransition tr{};
        tr.from = {start, end, 2};
        tr.toStart = to;
        tr.kind = EdgeKind::BranchTaken;
        replayer.feed(tr);
    };
    // NTE -> enter trace -> loop twice -> exit to cold.
    feed(0x0500, 0x0504, 0x1000);
    feed(0x1000, 0x1008, 0x1010);
    feed(0x1010, 0x1018, 0x1000);
    feed(0x1000, 0x1008, 0x1010);
    feed(0x1010, 0x1018, 0x9000);
    feed(0x9000, 0x9004, kNoAddr);

    EXPECT_EQ(replayer.execCountFor(0, 0), 2u);
    EXPECT_EQ(replayer.execCountFor(0, 1), 2u);
    EXPECT_EQ(replayer.stats().traceExits, 1u);
    EXPECT_EQ(replayer.stats().exitsToCold, 1u);
    EXPECT_EQ(replayer.stats().nteBlocks, 2u);
    EXPECT_EQ(replayer.stats().intraTraceHits, 3u);
    EXPECT_DOUBLE_EQ(replayer.stats().coverage(), 8.0 / 12.0);

    replayer.reset();
    EXPECT_EQ(replayer.currentState(), Tea::kNteState);
    EXPECT_EQ(replayer.stats().blocks, 0u);
    EXPECT_EQ(replayer.execCountFor(0, 0), 0u);
}

TEST(Replayer, ConsistencyCheckCatchesDesync)
{
    TraceSet traces;
    Trace t;
    t.blocks.push_back({0x1000, 0x1008, true});
    traces.add(t);
    Tea tea = buildTea(traces);
    LookupConfig cfg;
    cfg.checkConsistency = true;
    TeaReplayer replayer(tea, cfg);
    replayer.setCurrentState(1);

    BlockTransition wrong{};
    wrong.from = {0x2000, 0x2008, 1}; // state says 0x1000 is executing
    wrong.toStart = 0x3000;
    wrong.kind = EdgeKind::Jump;
    EXPECT_THROW(replayer.feed(wrong), PanicError);
}

} // namespace
} // namespace tea
