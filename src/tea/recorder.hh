/**
 * @file
 * Algorithm 2: recording TEA (and traces) online.
 *
 * The recorder is the paper's three-state machine:
 *
 *   Initial   — set up an empty TEA (just NTE); done in the constructor.
 *   Executing — ChangeState(TEA, Current, Next) on every block
 *               transition; ask the selection policy whether to start
 *               recording (TriggerTraceRecording / StartCreatingTrace).
 *   Creating  — AddTBBToTrace(Current, Next) until the policy declares
 *               the trace done (DoneTraceRecording / FinishTrace).
 *
 * One deliberate refinement over the paper's pseudo-code: ChangeState
 * also runs while Creating, so the automaton position stays valid if a
 * recording aborts into already-hot code.
 *
 * Installing a new trace appends it to the live automaton
 * (appendTrace(), Algorithm 1 for one trace), so recording costs time
 * linear in the traces it installs; only a trace-tree extension, which
 * renumbers states, rebuilds the automaton from the trace set. Each
 * install then compiles one immutable snapshot of the grown automaton
 * and seats a fresh replayer on it; that snapshot is also what a
 * recording session publishes, so a publish compiles nothing.
 */

#ifndef TEA_TEA_RECORDER_HH
#define TEA_TEA_RECORDER_HH

#include <memory>

#include "tea/builder.hh"
#include "tea/replayer.hh"
#include "trace/selector.hh"

namespace tea {

/**
 * Records traces online, maintaining the TEA as it grows.
 */
class TeaRecorder
{
  public:
    /** @param selector the trace-selection policy (owned) */
    explicit TeaRecorder(std::unique_ptr<TraceSelector> selector);

    ~TeaRecorder();

    /** Process one block transition (one invocation of Algorithm 2). */
    void feed(const BlockTransition &tr);

    /** The traces recorded so far. */
    const TraceSet &traces() const { return traceSet; }

    /** The automaton recorded so far. */
    const Tea &tea() const { return automaton; }

    /**
     * The compiled snapshot of tea() the recorder replays on: compiled
     * once per install (and once for the empty automaton), never
     * mutated, so it is safe to publish and to share across threads.
     */
    const std::shared_ptr<const CompiledTea> &snapshot() const
    {
        return compiled;
    }

    /** Whether the state machine is currently creating a trace. */
    bool creating() const { return recState == RecState::Creating; }

    /**
     * Counters accumulated over the whole run, including across trace
     * installs (coverage here is the Table 3 "Recording" coverage).
     */
    ReplayStats stats() const;

    /** Number of traces installed (new + extensions). */
    uint64_t installs() const { return installCount; }

  private:
    enum class RecState { Executing, Creating };

    void install(RecordingResult result);

    /** Compile `automaton` and seat a cold replayer on the snapshot. */
    void seatReplayer();

    std::unique_ptr<TraceSelector> selector;
    TraceSet traceSet;
    Tea automaton;
    std::shared_ptr<const CompiledTea> compiled; ///< of `automaton`
    std::unique_ptr<TeaReplayer> replayer;       ///< walks `compiled`
    RecState recState = RecState::Executing;
    ReplayStats accumulated; ///< stats from replayers retired by installs
    Addr lastToStart = kNoAddr;
    uint64_t installCount = 0;
};

} // namespace tea

#endif // TEA_TEA_RECORDER_HH
