/**
 * @file
 * CompiledTea unit tests plus the compiled-kernel differential suite.
 *
 * The compiled CSR kernel earns its keep only if it is *undetectably*
 * faster: every observable — ReplayStats, per-TBB profiles, the state
 * sequence, the consistency check — must be bit-identical to the
 * reference kernel in every LookupConfig ablation mode. The randomized
 * differential test drives both kernels with the same recorded
 * transition streams (structured random programs, the same generator
 * the pipeline fuzz uses) and a Tea::nextState oracle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "random_program.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/recorder.hh"
#include "tea/replayer.hh"
#include "trace/factory.hh"
#include "vm/block.hh"
#include "vm/machine.hh"

namespace tea {
namespace {

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

TEST(CompiledTea, EntryLookupsMatchTea)
{
    for (size_t traces : {0u, 1u, 3u, 17u, 300u}) {
        Tea tea = makeSyntheticTea(traces);
        CompiledTea compiled(tea);
        ASSERT_EQ(compiled.numStates(), tea.numStates());
        ASSERT_EQ(compiled.numEntries(), tea.entries().size());
        // Every registered entry resolves identically in both global
        // modes; nearby non-entry addresses miss in both.
        for (const auto &[addr, id] : tea.entries()) {
            EXPECT_EQ(compiled.entryAt(addr), id);
            EXPECT_EQ(compiled.entryLinear(addr), id);
            EXPECT_EQ(compiled.entryAt(addr + 4), tea.entryAt(addr + 4));
        }
        for (Addr probe : {0u, 0xfffu, 0x2000'0000u}) {
            EXPECT_EQ(compiled.entryAt(probe), tea.entryAt(probe));
            EXPECT_EQ(compiled.entryLinear(probe), tea.entryAt(probe));
        }
    }
}

TEST(CompiledTea, CsrMirrorsStateSuccessors)
{
    Tea tea = makeSyntheticTea(5);
    CompiledTea compiled(tea);
    // NTE (state 0) has no CSR successors; its transitions live in the
    // entry hash.
    EXPECT_EQ(compiled.succBegin(Tea::kNteState),
              compiled.succEnd(Tea::kNteState));
    for (StateId id = 1; id < tea.numStates(); ++id) {
        const TeaState &st = tea.state(id);
        ASSERT_EQ(compiled.succEnd(id) - compiled.succBegin(id),
                  static_cast<ptrdiff_t>(st.succs.size()));
        EXPECT_EQ(compiled.stateStartOf(id), st.start);
        const CompiledTea::Succ *p = compiled.succBegin(id);
        for (StateId target : st.succs) {
            // Same order, and the label is the target's start address —
            // the CSR inlines exactly the invariant Tea documents.
            EXPECT_EQ(p->target, target);
            EXPECT_EQ(p->label, tea.state(target).start);
            ++p;
        }
    }
}

TEST(CompiledTea, EmptyAutomaton)
{
    Tea tea = buildTea(TraceSet{});
    CompiledTea compiled(tea);
    EXPECT_EQ(compiled.numStates(), 1u);
    EXPECT_EQ(compiled.numEntries(), 0u);
    EXPECT_EQ(compiled.entryAt(0x1234), Tea::kNteState);
    EXPECT_EQ(compiled.entryLinear(0x1234), Tea::kNteState);
    EXPECT_GT(compiled.footprintBytes(), 0u);
}

TEST(CompiledTea, CompileCountAdvancesPerCompilation)
{
    uint64_t before = CompiledTea::compileCount();
    Tea tea = makeSyntheticTea(2);
    CompiledTea a(tea);
    EXPECT_EQ(CompiledTea::compileCount(), before + 1);
    auto source = std::make_shared<const Tea>(makeSyntheticTea(2));
    auto shared = CompiledTea::compile(source);
    EXPECT_EQ(CompiledTea::compileCount(), before + 2);

    // Sharing a precompiled snapshot must not compile again...
    LookupConfig cfg;
    TeaReplayer sharing(*source, cfg, shared);
    EXPECT_EQ(CompiledTea::compileCount(), before + 2);
    // ...while a replayer without one compiles privately.
    TeaReplayer owning(tea, cfg);
    EXPECT_EQ(CompiledTea::compileCount(), before + 3);
}

TEST(LazyCaches, MaterializeOnlyOnExitPathMisses)
{
    Tea tea = makeSyntheticTea(64);
    LookupConfig cfg; // compiled kernel, caches + global hash on
    TeaReplayer replayer(tea, cfg);
    EXPECT_EQ(replayer.materializedCaches(), 0u);
    size_t base_footprint = replayer.lookupFootprintBytes();

    // Stay strictly inside trace 0: every transition resolves on the
    // intra-trace list, so no cache may materialize.
    BlockTransition tr{};
    tr.kind = EdgeKind::BranchTaken;
    tr.from.icount = 4;
    tr.from.start = 0x500; // some cold block jumping into trace 0
    tr.from.end = 0x50c;
    tr.toStart = 0x1000;
    replayer.feed(tr); // NTE -> trace 0 entry (global, not cached)
    for (int i = 0; i < 100; ++i) {
        bool at_block0 = (i % 2) == 0;
        tr.from.start = at_block0 ? 0x1000 : 0x1010;
        tr.from.end = tr.from.start + 12;
        tr.toStart = at_block0 ? 0x1010 : 0x1000;
        replayer.feed(tr);
    }
    EXPECT_GT(replayer.stats().intraTraceHits, 0u);
    EXPECT_EQ(replayer.materializedCaches(), 0u);
    EXPECT_EQ(replayer.lookupFootprintBytes(), base_footprint);

    // One trace exit (0x1000's block jumping to trace 1's entry) must
    // materialize exactly the exiting state's cache — and the footprint
    // must grow by exactly that cache.
    tr.from.start = 0x1000;
    tr.from.end = 0x100c;
    tr.toStart = 0x1040;
    replayer.feed(tr);
    EXPECT_EQ(replayer.materializedCaches(), 1u);
    EXPECT_EQ(replayer.lookupFootprintBytes(),
              base_footprint + LocalCache::footprintBytes());

    // reset() returns to the unmaterialized baseline.
    replayer.reset();
    EXPECT_EQ(replayer.materializedCaches(), 0u);
    EXPECT_EQ(replayer.lookupFootprintBytes(), base_footprint);
}

TEST(LazyCaches, DisabledCachesCostNothing)
{
    Tea tea = makeSyntheticTea(8);
    LookupConfig no_cache;
    no_cache.useLocalCache = false;
    TeaReplayer replayer(tea, no_cache);
    CompiledTea standalone(tea);
    // Without caches the footprint is exactly the compiled arrays.
    EXPECT_EQ(replayer.lookupFootprintBytes(),
              standalone.footprintBytes());
}

/**
 * One full differential run: record a random program's traces, then
 * drive the recorded transition stream through the reference and the
 * compiled kernel in one ablation mode, with consistency checking on,
 * and a Tea::nextState oracle walking alongside.
 */
struct KernelObservation
{
    ReplayStats stats;
    std::vector<StateId> sequence;
    std::vector<uint64_t> execCounts;
    std::vector<uint64_t> execByTraceTbb;
    size_t materialized = 0;
};

KernelObservation
observe(const Tea &tea, const std::vector<BlockTransition> &stream,
        bool global, bool local, bool compiled)
{
    LookupConfig cfg;
    cfg.useGlobalBTree = global;
    cfg.useLocalCache = local;
    cfg.checkConsistency = true;
    cfg.useCompiled = compiled;
    TeaReplayer replayer(tea, cfg);
    KernelObservation obs;
    for (const BlockTransition &tr : stream) {
        replayer.feed(tr);
        obs.sequence.push_back(replayer.currentState());
    }
    obs.stats = replayer.stats();
    for (StateId id = 0; id < tea.numStates(); ++id)
        obs.execCounts.push_back(replayer.execCount(id));
    // The per-copy profile view of Figure 1, via (trace, tbb) keys.
    for (StateId id = 1; id < tea.numStates(); ++id) {
        const TeaState &s = tea.state(id);
        obs.execByTraceTbb.push_back(
            replayer.execCountFor(s.trace, s.tbb));
    }
    obs.materialized = replayer.materializedCaches();
    return obs;
}

class CompiledDifferential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CompiledDifferential, BitIdenticalToReferenceInAllModes)
{
    SelectorConfig sel_cfg;
    sel_cfg.hotThreshold = 8;

    Program prog = test::randomProgram(GetParam());

    // Record traces online, capturing the Pin-analogue transition
    // stream so both kernels can replay the *same* inputs.
    TeaRecorder recorder(makeSelector("mret", sel_cfg));
    std::vector<BlockTransition> stream;
    Machine rec_machine(prog);
    BlockTracker rec_tracker(prog, [&](const BlockTransition &tr) {
        recorder.feed(tr);
        stream.push_back(tr);
    });
    ASSERT_EQ(rec_machine.runHooked(
                  [&](const EdgeEvent &ev) { rec_tracker.onEdge(ev); },
                  /*split_at_special=*/true),
              RunExit::Halted);
    Tea tea = buildTea(recorder.traces());

    for (int global = 0; global < 2; ++global) {
        for (int local = 0; local < 2; ++local) {
            SCOPED_TRACE("global=" + std::to_string(global) +
                         " local=" + std::to_string(local));
            KernelObservation ref =
                observe(tea, stream, global != 0, local != 0, false);
            KernelObservation fast =
                observe(tea, stream, global != 0, local != 0, true);

            // Every counter, the whole state sequence, and the whole
            // per-TBB profile — bit-identical, not approximately equal.
            EXPECT_EQ(fast.stats, ref.stats);
            EXPECT_EQ(fast.sequence, ref.sequence);
            EXPECT_EQ(fast.execCounts, ref.execCounts);
            EXPECT_EQ(fast.execByTraceTbb, ref.execByTraceTbb);
            // Lazy materialization may not change *which* states ever
            // needed a cache.
            EXPECT_EQ(fast.materialized, ref.materialized);

            // Oracle: the canonical transition function agrees with
            // the replayed sequence step by step. The halt record
            // (toStart == kNoAddr) has no destination — the replayer
            // stays put, so the oracle must too.
            StateId cur = Tea::kNteState;
            for (size_t i = 0; i < stream.size(); ++i) {
                if (stream[i].toStart != kNoAddr)
                    cur = tea.nextState(cur, stream[i].toStart);
                ASSERT_EQ(ref.sequence[i], cur) << "step " << i;
            }

            // The batch entry point must be result-identical to the
            // per-record loop on both kernels (it is the production
            // path of runReplayJob and the benches).
            for (bool compiled : {false, true}) {
                LookupConfig cfg;
                cfg.useGlobalBTree = global != 0;
                cfg.useLocalCache = local != 0;
                cfg.checkConsistency = true;
                cfg.useCompiled = compiled;
                TeaReplayer batch(tea, cfg);
                batch.feedAll(stream.data(),
                              stream.data() + stream.size());
                EXPECT_EQ(batch.stats(), ref.stats);
                EXPECT_EQ(batch.currentState(), ref.sequence.back());
                for (StateId id = 0; id < tea.numStates(); ++id)
                    EXPECT_EQ(batch.execCount(id), ref.execCounts[id]);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledDifferential,
                         ::testing::Range<uint64_t>(1, 13));

} // namespace
} // namespace tea
