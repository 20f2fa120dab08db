#include "tea/recorder.hh"

#include "util/logging.hh"

namespace tea {

TeaRecorder::TeaRecorder(std::unique_ptr<TraceSelector> sel)
    : selector(std::move(sel))
{
    TEA_ASSERT(selector != nullptr, "recorder needs a selector");
    // "Initial": InitializeTEA — an automaton with only the NTE state.
    seatReplayer();
}

TeaRecorder::~TeaRecorder() = default;

void
TeaRecorder::seatReplayer()
{
    // A cold replayer on a fresh snapshot of the automaton as it stands.
    compiled = std::make_shared<const CompiledTea>(automaton);
    replayer = std::make_unique<TeaReplayer>(compiled, LookupConfig{});
}

ReplayStats
TeaRecorder::stats() const
{
    ReplayStats total = accumulated;
    total += replayer->stats();
    return total;
}

void
TeaRecorder::install(RecordingResult result)
{
    if (result.kind == RecordingResult::Kind::Aborted)
        return;

    // A new trace is appended to the live automaton: existing states
    // keep their ids. A tree extension replaces a trace in place,
    // which renumbers every later state, so it rebuilds.
    if (result.kind == RecordingResult::Kind::NewTrace) {
        TraceId id = traceSet.add(std::move(result.trace));
        appendTrace(automaton, traceSet.at(id));
    } else {
        traceSet.replace(result.extends, std::move(result.trace));
        automaton = buildTea(traceSet);
    }
    ++installCount;

    // Re-seat a cold replayer on the grown automaton. Reposition from
    // the address about to execute: entering a trace is only possible
    // at its entry (NTE transitions), so entryAt() is exactly the
    // automaton's answer.
    accumulated += replayer->stats();
    seatReplayer();
    if (lastToStart != kNoAddr)
        replayer->setCurrentState(compiled->entryAt(lastToStart));
}

void
TeaRecorder::feed(const BlockTransition &tr)
{
    // The policy's view of where the automaton was *before* the
    // transition: the Current TBB of Algorithm 2.
    StateId pre = replayer->currentState();
    uint64_t intraBefore = replayer->stats().intraTraceHits;

    // ChangeState(TEA, Current, Next).
    replayer->feed(tr);
    lastToStart = tr.toStart;

    SelectorContext ctx{traceSet, pre != Tea::kNteState, 0, 0, false};
    if (ctx.inTrace) {
        const TeaState &s = automaton.state(pre);
        ctx.curTrace = s.trace;
        ctx.curTbb = s.tbb;
        // The automaton is deterministic, so the step stayed inside the
        // trace iff the replayer resolved it through pre's own
        // successors; a halt (no next block) counts no hit.
        ctx.exitsTrace = replayer->stats().intraTraceHits == intraBefore;
    }

    switch (recState) {
      case RecState::Executing: {
        ExecutingAction action = selector->onExecuting(tr, ctx);
        if (action == ExecutingAction::StartRecording)
            recState = RecState::Creating;
        else if (action == ExecutingAction::FinishImmediately)
            install(selector->finish(traceSet));
        break;
      }
      case RecState::Creating: {
        CreatingAction action = selector->onCreating(tr, ctx);
        if (action != CreatingAction::Continue) {
            install(selector->finish(traceSet));
            recState = RecState::Executing;
        }
        break;
      }
    }
}

} // namespace tea
