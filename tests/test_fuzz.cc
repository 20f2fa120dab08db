/**
 * @file
 * Randomized end-to-end property tests over generated programs.
 *
 * For each seed, a structured random program (loop nests, diamonds,
 * CPUID/REP specials) goes through the full pipeline and must satisfy:
 *  - determinism of execution,
 *  - Algorithm 1 validity for every selector,
 *  - the recorder's in-place growth equal to buildTea() after every
 *    install,
 *  - the replay precise-map property (consistency checking on),
 *  - lookup-config equivalence,
 *  - TEA serialization round-tripping,
 *  - translated-code equivalence with native execution.
 */

#include <gtest/gtest.h>

#include "dbt/runtime.hh"
#include "random_program.hh"
#include "tea/builder.hh"
#include "tea/recorder.hh"
#include "tea/replayer.hh"
#include "tea/serialize.hh"
#include "trace/factory.hh"
#include "vm/block.hh"
#include "vm/machine.hh"

namespace tea {
namespace {

class FuzzPipeline : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzPipeline, EndToEnd)
{
    SelectorConfig sel_cfg;
    sel_cfg.hotThreshold = 8; // random loops are short; record eagerly

    Program prog = test::randomProgram(GetParam());
    Machine native(prog);
    ASSERT_EQ(native.run(20'000'000), RunExit::Halted)
        << "generated programs must halt";
    Machine again(prog);
    again.run(20'000'000);
    ASSERT_EQ(native.output(), again.output());

    for (const std::string &selector : selectorNames()) {
        SCOPED_TRACE(selector);

        // Record online under the Pin-analogue. After every install
        // the automaton grown in place must be exactly buildTea() over
        // the traces recorded so far.
        TeaRecorder recorder(makeSelector(selector, sel_cfg));
        uint64_t installs = 0, diverged = 0;
        Machine rec_machine(prog);
        BlockTracker rec_tracker(prog, [&](const BlockTransition &tr) {
            recorder.feed(tr);
            if (recorder.installs() == installs)
                return;
            installs = recorder.installs();
            if (saveTea(recorder.tea()) !=
                saveTea(buildTea(recorder.traces())))
                ++diverged;
        });
        ASSERT_EQ(rec_machine.runHooked(
                      [&](const EdgeEvent &ev) { rec_tracker.onEdge(ev); },
                      /*split_at_special=*/true),
                  RunExit::Halted);
        ASSERT_EQ(diverged, 0u) << "of " << installs << " installs";
        const TraceSet &traces = recorder.traces();

        // Algorithm 1 validity + serialization round trip.
        Tea tea = buildTea(traces);
        Tea loaded = loadTea(saveTea(tea));
        ASSERT_EQ(loaded.numStates(), tea.numStates());
        loaded.validate(traces);

        // Precise-map replay under the same block policy used to
        // record (Pin-analogue), all lookup configurations.
        std::vector<std::vector<StateId>> sequences;
        for (int global = 0; global < 2; ++global) {
            for (int local = 0; local < 2; ++local) {
                LookupConfig cfg;
                cfg.useGlobalBTree = global != 0;
                cfg.useLocalCache = local != 0;
                cfg.checkConsistency = true;
                TeaReplayer replayer(loaded, cfg);
                std::vector<StateId> seq;
                Machine m(prog);
                BlockTracker tracker(
                    prog, [&](const BlockTransition &tr) {
                        replayer.feed(tr);
                        seq.push_back(replayer.currentState());
                    });
                ASSERT_EQ(
                    m.runHooked(
                        [&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                        /*split_at_special=*/true),
                    RunExit::Halted);
                sequences.push_back(std::move(seq));
            }
        }
        for (size_t i = 1; i < sequences.size(); ++i)
            ASSERT_EQ(sequences[i], sequences[0]);

        // Code replication must preserve semantics — with and without
        // the peephole pass.
        for (bool optimized : {false, true}) {
            TranslatedImage image = translate(prog, traces, optimized);
            auto run = DbtRuntime::runTranslated(image, 40'000'000);
            ASSERT_TRUE(run.halted) << "optimized=" << optimized;
            ASSERT_EQ(run.output, native.output())
                << "optimized=" << optimized;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace
} // namespace tea
