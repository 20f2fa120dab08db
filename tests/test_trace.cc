/**
 * @file
 * Tests for the trace model (Definitions 1-3), the four selectors
 * (MRET / TT / CTT / MFET), serialization, and trace duplication.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "tea/recorder.hh"
#include "trace/duplicate.hh"
#include "trace/factory.hh"
#include "trace/metrics.hh"
#include "trace/mret.hh"
#include "trace/serialize.hh"
#include "trace/tree.hh"
#include "util/logging.hh"
#include "vm/block.hh"
#include "vm/machine.hh"

namespace tea {
namespace {

/** Record traces on a program with the given selector. */
TraceSet
record(const Program &prog, const std::string &selector,
       SelectorConfig cfg = {})
{
    TeaRecorder recorder(makeSelector(selector, cfg));
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { recorder.feed(tr); });
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return recorder.traces();
}

const char *kSimpleLoop = R"(
    main:
        mov ebp, 500
    head:
        mov eax, ebp
        add eax, 3
        dec ebp
        jne head
        halt
)";

/** A loop with a 50/50 diamond: MRET records one path. */
const char *kDiamondLoop = R"(
    main:
        mov ebp, 600
        mov ebx, 99
    head:
        mul ebx, 1103515245
        add ebx, 12345
        mov eax, ebx
        shr eax, 16
        test eax, 1
        je even_path
        add ecx, 1
        jmp tail
    even_path:
        sub ecx, 1
    tail:
        dec ebp
        jne head
        halt
)";

/** Nested loops: the outer body revisits the inner header. */
const char *kNestedLoop = R"(
    main:
        mov ebp, 300
    outer:
        mov ecx, 4
    inner:
        add eax, ecx
        dec ecx
        jne inner
        dec ebp
        jne outer
        halt
)";

TEST(TraceModel, ValidateRejectsBadTraces)
{
    Trace empty;
    EXPECT_THROW(empty.validate(), FatalError);

    Trace bad_edge;
    bad_edge.blocks.push_back({0x1000, 0x1004, false});
    bad_edge.edges.push_back({0, 5});
    EXPECT_THROW(bad_edge.validate(), FatalError);

    // Nondeterminism: two edges from TBB 0 with the same label.
    Trace nondet;
    nondet.blocks.push_back({0x1000, 0x1004, false});
    nondet.blocks.push_back({0x2000, 0x2004, false});
    nondet.blocks.push_back({0x2000, 0x2008, false}); // same start!
    nondet.edges.push_back({0, 1});
    nondet.edges.push_back({0, 2});
    EXPECT_THROW(nondet.validate(), FatalError);

    // A repeated identical edge gives the TEA state one out-label twice.
    Trace repeated;
    repeated.blocks.push_back({0x1000, 0x1004, false});
    repeated.blocks.push_back({0x2000, 0x2004, false});
    repeated.edges.push_back({0, 1});
    repeated.edges.push_back({0, 1});
    EXPECT_THROW(repeated.validate(), FatalError);
}

TEST(TraceModel, SuccessorOn)
{
    Trace t;
    t.blocks.push_back({0x1000, 0x1008, true});
    t.blocks.push_back({0x1010, 0x1018, false});
    t.edges.push_back({0, 1});
    t.edges.push_back({1, 0});
    EXPECT_EQ(t.successorOn(0, 0x1010), 1);
    EXPECT_EQ(t.successorOn(1, 0x1000), 0);
    EXPECT_EQ(t.successorOn(0, 0x9999), -1);
    EXPECT_EQ(t.entry(), 0x1000u);
}

TEST(TraceSet, EntryIndexIsUnique)
{
    TraceSet set;
    Trace a;
    a.blocks.push_back({0x1000, 0x1004, false});
    set.add(a);
    Trace b;
    b.blocks.push_back({0x1000, 0x1008, false}); // same entry address
    EXPECT_THROW(set.add(b), FatalError);
    EXPECT_EQ(set.traceAtEntry(0x1000), 0);
    EXPECT_EQ(set.traceAtEntry(0x2000), -1);
    EXPECT_TRUE(set.hasEntry(0x1000));
}

TEST(TraceSet, ReplaceRewiresEntryIndex)
{
    TraceSet set;
    Trace a;
    a.blocks.push_back({0x1000, 0x1004, false});
    TraceId id = set.add(a);

    Trace bigger;
    bigger.blocks.push_back({0x1000, 0x1004, false});
    bigger.blocks.push_back({0x2000, 0x2004, false});
    bigger.edges.push_back({0, 1});
    set.replace(id, bigger);
    EXPECT_EQ(set.at(id).blocks.size(), 2u);
    EXPECT_EQ(set.totalBlocks(), 2u);
    EXPECT_EQ(set.totalEdges(), 1u);
}

TEST(Mret, RecordsCyclicLoopTrace)
{
    Program p = assemble(kSimpleLoop);
    TraceSet traces = record(p, "mret");
    ASSERT_GE(traces.size(), 1u);
    int idx = traces.traceAtEntry(p.label("head"));
    ASSERT_GE(idx, 0) << "the hot loop head must start a trace";
    const Trace &t = traces.at(static_cast<TraceId>(idx));
    EXPECT_EQ(t.kind, TraceKind::Superblock);
    ASSERT_EQ(t.blocks.size(), 1u) << "one basic block loop";
    EXPECT_TRUE(t.blocks[0].loopHeader);
    // Cyclic: the block loops back to itself.
    EXPECT_EQ(t.successorOn(0, p.label("head")), 0);
}

TEST(Mret, ExitTargetsBecomeTraceHeads)
{
    Program p = assemble(kDiamondLoop);
    TraceSet traces = record(p, "mret");
    // The first trace follows one arm; the other arm's head must have
    // been promoted by the exit counters (NET behaviour).
    bool even_covered =
        traces.hasEntry(p.label("even_path")) ||
        [&] {
            for (const Trace &t : traces.all())
                for (const TraceBasicBlock &b : t.blocks)
                    if (b.start == p.label("even_path"))
                        return true;
            return false;
        }();
    EXPECT_TRUE(even_covered);
    EXPECT_GE(traces.size(), 2u);
}

TEST(Mret, IsBackEdgeClassifier)
{
    BlockTransition tr{};
    tr.from = {0x1010, 0x1020, 3};
    tr.kind = EdgeKind::BranchTaken;
    tr.toStart = 0x1000;
    EXPECT_TRUE(MretSelector::isBackEdge(tr));
    tr.toStart = 0x2000;
    EXPECT_FALSE(MretSelector::isBackEdge(tr)) << "forward branch";
    tr.toStart = 0x1000;
    tr.kind = EdgeKind::BranchNotTaken;
    EXPECT_FALSE(MretSelector::isBackEdge(tr)) << "not-taken";
    tr.kind = EdgeKind::Halt;
    tr.toStart = kNoAddr;
    EXPECT_FALSE(MretSelector::isBackEdge(tr));
}

TEST(Mret, ThresholdControlsWhenRecordingStarts)
{
    Program p = assemble(kSimpleLoop);
    SelectorConfig eager;
    eager.hotThreshold = 2;
    SelectorConfig lazy;
    lazy.hotThreshold = 1000; // loop runs only 500 times

    EXPECT_GE(record(p, "mret", eager).size(), 1u);
    EXPECT_EQ(record(p, "mret", lazy).size(), 0u);
}

TEST(TraceTree, TrunkClosesAtAnchor)
{
    Program p = assemble(kNestedLoop);
    TraceSet traces = record(p, "tt");
    ASSERT_GE(traces.size(), 1u);
    int idx = traces.traceAtEntry(p.label("inner"));
    ASSERT_GE(idx, 0);
    const Trace &t = traces.at(static_cast<TraceId>(idx));
    EXPECT_EQ(t.kind, TraceKind::TraceTree);
    // Some edge must return to the root (TBB 0).
    bool closes = false;
    for (const Trace::Edge &e : t.edges)
        if (e.to == 0)
            closes = true;
    EXPECT_TRUE(closes);
}

TEST(TraceTree, ExtensionsGrowTheTree)
{
    Program p = assemble(kNestedLoop);
    // Extend side exits faster than new anchors form, so the inner tree
    // grafts the outer return path before an outer tree subsumes it.
    SelectorConfig cfg;
    cfg.extensionThreshold = 10;
    TraceSet traces = record(p, "tt", cfg);
    int idx = traces.traceAtEntry(p.label("inner"));
    ASSERT_GE(idx, 0);
    const Trace &t = traces.at(static_cast<TraceId>(idx));
    EXPECT_GT(t.blocks.size(), 1u)
        << "side exits must graft the outer path onto the tree";
}

TEST(TraceTree, OuterTreeSubsumesFixedTripInnerLoops)
{
    // With equal thresholds the outer loop's tree forms while the inner
    // tree is still counting exits, and — because trace trees record
    // straight through inner loops — one tree ends up covering the
    // whole nest with the inner iterations unrolled.
    Program p = assemble(kNestedLoop);
    TraceSet traces = record(p, "tt");
    int outer_idx = traces.traceAtEntry(p.label("outer"));
    ASSERT_GE(outer_idx, 0);
    const Trace &outer = traces.at(static_cast<TraceId>(outer_idx));
    size_t inner_copies = 0;
    for (const TraceBasicBlock &b : outer.blocks)
        inner_copies += b.start == p.label("inner") ? 1 : 0;
    EXPECT_GE(inner_copies, 2u) << "inner iterations unroll into paths";
}

TEST(Ctt, CompactTreesAreNoBiggerThanTt)
{
    // On the unrolling-prone programs, CTT must not exceed TT in TBBs.
    for (const char *src : {kNestedLoop, kDiamondLoop}) {
        Program p = assemble(src);
        size_t tt_blocks = record(p, "tt").totalBlocks();
        size_t ctt_blocks = record(p, "ctt").totalBlocks();
        EXPECT_LE(ctt_blocks, tt_blocks + 2)
            << "CTT closes paths at on-path loop headers";
    }
}

TEST(Mfet, FollowsTheFrequentPath)
{
    // Diamond biased 15/16 to one arm: MFET must pick the hot arm.
    Program p = assemble(R"(
        main:
            mov ebp, 800
            mov ebx, 7
        head:
            mul ebx, 1103515245
            add ebx, 12345
            mov eax, ebx
            shr eax, 16
            and eax, 15
            je rare
            add ecx, 1
            jmp tail
        rare:
            sub ecx, 3
        tail:
            dec ebp
            jne head
            halt
    )");
    TraceSet traces = record(p, "mfet");
    int idx = traces.traceAtEntry(p.label("head"));
    ASSERT_GE(idx, 0);
    const Trace &t = traces.at(static_cast<TraceId>(idx));
    EXPECT_EQ(t.kind, TraceKind::FrequentPath);
    bool contains_rare = false;
    for (const TraceBasicBlock &b : t.blocks)
        if (b.start == p.label("rare"))
            contains_rare = true;
    EXPECT_FALSE(contains_rare) << "the 1/16 arm is not the MFET tail";
}

TEST(Factory, MakesAllSelectors)
{
    for (const std::string &name : selectorNames()) {
        auto sel = makeSelector(name);
        ASSERT_NE(sel, nullptr);
        EXPECT_EQ(sel->name(), name);
    }
    EXPECT_THROW(makeSelector("nope"), FatalError);
}

TEST(Serialize, TextRoundTrip)
{
    Program p = assemble(kNestedLoop);
    TraceSet traces = record(p, "ctt");
    ASSERT_GT(traces.size(), 0u);

    std::string text = saveTracesText(traces);
    TraceSet loaded = loadTracesText(text);
    ASSERT_EQ(loaded.size(), traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
        const Trace &a = traces.at(static_cast<TraceId>(i));
        const Trace &b = loaded.at(static_cast<TraceId>(i));
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.blocks, b.blocks);
        EXPECT_EQ(a.edges, b.edges);
    }
}

TEST(Serialize, BinaryRoundTrip)
{
    Program p = assemble(kDiamondLoop);
    TraceSet traces = record(p, "mret");
    auto bytes = saveTracesBinary(traces);
    TraceSet loaded = loadTracesBinary(bytes);
    ASSERT_EQ(loaded.size(), traces.size());
    EXPECT_EQ(loaded.totalBlocks(), traces.totalBlocks());
    EXPECT_EQ(loaded.totalEdges(), traces.totalEdges());
}

TEST(Serialize, RejectsCorruptInput)
{
    EXPECT_THROW(loadTracesText("garbage"), FatalError);
    EXPECT_THROW(loadTracesText("teatraces 99 0"), FatalError);
    EXPECT_THROW(loadTracesText("teatraces 1 1\ntrace superblock\n"),
                 FatalError);
    std::vector<uint8_t> junk = {1, 2, 3};
    EXPECT_THROW(loadTracesBinary(junk), FatalError);
}

TEST(Duplicate, DoublesACyclicTrace)
{
    Trace t;
    t.kind = TraceKind::Superblock;
    t.blocks.push_back({0x1000, 0x1008, true});
    t.blocks.push_back({0x1010, 0x1018, false});
    t.edges.push_back({0, 1});
    t.edges.push_back({1, 0});

    Trace d = duplicateTrace(t, 2);
    d.validate();
    ASSERT_EQ(d.blocks.size(), 4u);
    // Copy 0's tail feeds copy 1's head; copy 1's tail closes the loop.
    EXPECT_EQ(d.successorOn(1, 0x1000), 2);
    EXPECT_EQ(d.successorOn(3, 0x1000), 0);
}

TEST(Duplicate, RejectsUnsuitableTraces)
{
    Trace acyclic;
    acyclic.kind = TraceKind::Superblock;
    acyclic.blocks.push_back({0x1000, 0x1008, false});
    acyclic.blocks.push_back({0x1010, 0x1018, false});
    acyclic.edges.push_back({0, 1});
    EXPECT_THROW(duplicateTrace(acyclic, 2), FatalError);

    Trace tree;
    tree.kind = TraceKind::TraceTree;
    tree.blocks.push_back({0x1000, 0x1008, true});
    tree.edges.push_back({0, 0});
    EXPECT_THROW(duplicateTrace(tree, 2), FatalError);

    Trace loop;
    loop.kind = TraceKind::Superblock;
    loop.blocks.push_back({0x1000, 0x1008, true});
    loop.edges.push_back({0, 0});
    EXPECT_THROW(duplicateTrace(loop, 1), FatalError) << "factor >= 2";
    EXPECT_NO_THROW(duplicateTrace(loop, 3));
}


TEST(Metrics, QuantifyDuplication)
{
    TraceSet set;
    Trace t1;
    t1.blocks.push_back({0x1000, 0x1008, true});
    t1.blocks.push_back({0x2000, 0x2008, false});
    t1.edges.push_back({0, 1});
    t1.edges.push_back({1, 0});
    set.add(t1);
    Trace t2;
    t2.blocks.push_back({0x3000, 0x3008, true});
    t2.blocks.push_back({0x2000, 0x2008, false}); // duplicated block
    t2.edges.push_back({0, 1});
    set.add(t2);

    TraceSetMetrics m = computeMetrics(set);
    EXPECT_EQ(m.traces, 2u);
    EXPECT_EQ(m.tbbs, 4u);
    EXPECT_EQ(m.distinctBlocks, 3u);
    EXPECT_DOUBLE_EQ(m.duplicationFactor(), 4.0 / 3.0);
    EXPECT_EQ(m.edges, 3u);
    EXPECT_EQ(m.maxTraceBlocks, 2u);
    EXPECT_EQ(m.cyclicTraces, 1u);
    EXPECT_DOUBLE_EQ(m.avgTraceBlocks(), 2.0);
    EXPECT_NE(m.toString().find("duplication 1.33x"), std::string::npos);
}

TEST(Metrics, EmptySetIsZeroes)
{
    TraceSetMetrics m = computeMetrics(TraceSet{});
    EXPECT_EQ(m.traces, 0u);
    EXPECT_DOUBLE_EQ(m.duplicationFactor(), 0.0);
    EXPECT_DOUBLE_EQ(m.avgTraceBlocks(), 0.0);
}

TEST(Metrics, TtDuplicatesMoreThanCttOnUnrollingCode)
{
    Program p = assemble(R"(
        main:
            mov ebp, 2000
            mov ebx, 21
        outer:
            mul ebx, 1103515245
            add ebx, 12345
            mov edx, ebx
            shr edx, 16
            and edx, 3
            je body
        spin:
            add edi, 1
            dec edx
            jne spin
        body:
            mov ecx, 5
        hot:
            add edi, ecx
            dec ecx
            jne hot
            dec ebp
            jne outer
            halt
    )");
    double tt_dup =
        computeMetrics(record(p, "tt")).duplicationFactor();
    double ctt_dup =
        computeMetrics(record(p, "ctt")).duplicationFactor();
    EXPECT_GT(tt_dup, ctt_dup)
        << "the duplication factor is what CTT exists to reduce";
}

} // namespace
} // namespace tea
