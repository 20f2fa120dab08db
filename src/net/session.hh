/**
 * @file
 * The server side of one tead connection, as a pure state machine.
 *
 * A Session consumes raw wire bytes and produces raw reply bytes; it
 * knows nothing about sockets. The server's event loop
 * (net/event_loop.hh) pumps it from pool tasks fed by the readiness
 * thread — being socket-free is what lets any worker run a
 * connection's next batch of bytes. The fuzz tests
 * (tests/test_net_fuzz.cc) pump it with mutated byte streams directly
 * — the whole protocol surface is exercised in-process.
 *
 * Error containment is the contract:
 *
 * - framing failures (bad length, bad CRC) and protocol-order
 *   violations append one fatal ERROR frame and end the session;
 * - malformed or failing *requests* inside a well-framed stream
 *   (unknown automaton, corrupt TEA bytes, corrupt trace log, bad
 *   payload shape) append a non-fatal ERROR reply and keep the session
 *   alive — the frame boundary is still trustworthy;
 * - consume() and consumeReceived() never throw FatalError: every
 *   failure becomes an ERROR frame or a closed session. (PanicError
 *   still propagates — that is a library bug, not an input.)
 *
 * Replays run inline on the calling thread, and they stream: the
 * server runs consume() on its worker pool, and each REPLAY_CHUNK is
 * walked into the replayer as it arrives (TraceLogPushReader,
 * svc/tracelog.hh) — every chunk of the log its bytes complete, with
 * only an incomplete chunk frame held back for the next one. So an
 * in-flight replay holds about one `.tlog` chunk, never the log, and
 * REPLAY_END only reads the end of the log and answers. A defect found
 * mid-stream is saved and answered at REPLAY_END, like a defect found
 * there; the chunks after it are counted against the stream's byte
 * budget but not decoded. The automaton snapshot is pinned at
 * REPLAY_BEGIN, so a concurrent evict never invalidates the stream
 * being replayed (the registry's immutability contract).
 */

#ifndef TEA_NET_SESSION_HH
#define TEA_NET_SESSION_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rec/service.hh"
#include "store/store.hh"
#include "svc/registry.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"

namespace tea {

/**
 * The observability hookup for one session: a span ring plus the
 * counters the session bumps as it works. All pointers are optional
 * and borrowed (the server owns the registry and the ring); a
 * default-constructed SessionObs means "not instrumented" and the
 * session skips every clock read — the fuzz tests run that way.
 */
struct SessionObs
{
    obs::SpanRing *spans = nullptr;
    uint64_t conn = 0; ///< connection id stamped into every span
    obs::Counter *requests = nullptr;       ///< server.requests
    obs::Counter *replays = nullptr;        ///< svc.streams
    obs::Counter *replayFailures = nullptr; ///< svc.stream_failures
    obs::Counter *transitions = nullptr;    ///< svc.transitions
    /** svc.salvaged. A served replay is strict and never salvages,
     *  so no session bumps it; binding it still registers the counter,
     *  so a server's scrape shows the whole svc family. */
    obs::Counter *salvaged = nullptr;
    obs::Counter *recWireBytes = nullptr;   ///< rec.wire_bytes
    // Per-automaton families (labeled by automaton name). The session
    // resolves one series handle per family at REPLAY_BEGIN — a mutex
    // + map lookup once per stream — so the per-transition path stays
    // one relaxed fetch_add on the resolved handle.
    obs::LabeledCounter *replaysBy = nullptr;     ///< svc.streams_by_automaton
    obs::LabeledCounter *transitionsBy = nullptr; ///< svc.transitions_by_automaton
    obs::LabeledHistogram *replayMsBy = nullptr;  ///< svc.replay_ms_by_automaton
};

class Session
{
  public:
    /**
     * `lookup` is every stream's base configuration. REPLAY_BEGIN's
     * flag bits then pick the global index, the local caches and the
     * kernel per stream; they are the one selector a client has.
     */
    Session(AutomatonRegistry &registry, LookupConfig lookup = {});

    /**
     * Feed wire bytes; append any replies to `out`.
     * @return false when the connection must close (after flushing out)
     */
    bool consume(const uint8_t *data, size_t len,
                 std::vector<uint8_t> &out);

    /**
     * Room for up to `n` wire bytes inside the frame decoder. The
     * server reads its socket straight into it and hands the count to
     * consumeReceived(), so each wire byte is read once and never
     * staged; consume() is the copying form of the same pair.
     */
    uint8_t *receiveBuffer(size_t n) { return decoder.reserve(n); }

    /** consume() for `n` bytes just read into receiveBuffer(). */
    bool consumeReceived(size_t n, std::vector<uint8_t> &out);

    /** True once a HELLO has been accepted. */
    bool handshaken() const { return state != State::ExpectHello; }

    /**
     * True while a request is underway: a partial frame is buffered, or
     * a REPLAY_BEGIN .. REPLAY_END stream is open. The server's
     * per-request deadline (net/server.hh) is armed exactly while this
     * holds — a slowloris trickling one byte per idle-timeout keeps the
     * idle clock happy but not this one.
     *
     * An open RECORD stream deliberately does NOT count: a live
     * recording legitimately runs for as long as the recorded workload
     * does, so it is bounded per-chunk by the idle clock (and by the
     * partial-frame rule here) rather than by one request budget.
     */
    bool midRequest() const
    {
        return state == State::Streaming || !decoder.atBoundary();
    }

    /**
     * Provider for PONG's ServerStatus payload; the server installs
     * one reporting its pool and connection counters. Without a
     * provider PING answers all-zeros (the session alone has no
     * server-wide view).
     */
    void setStatusFn(std::function<ServerStatus()> fn)
    {
        statusFn = std::move(fn);
    }

    /**
     * Provider for the STATS reply body: `text` is true for a format
     * byte of 1, false for an empty payload or any other byte (the JSON
     * report). Without a provider STATS answers an empty JSON object —
     * again, the session alone has no server-wide view.
     */
    void setStatsFn(std::function<std::string(bool text)> fn)
    {
        statsFn = std::move(fn);
    }

    /** Attach metrics counters and the span ring (see SessionObs). */
    void setObs(const SessionObs &o) { ob = o; }

    /**
     * Route automaton resolution through a persistent store
     * (store/store.hh): REPLAY_BEGIN faults cold `.teac` images in by
     * mmap, PUT writes through to disk, EVICT drops residency only
     * (the file stays), and LIST reports cold names with resident
     * markers. Borrowed; nullptr (the default) keeps the RAM-only
     * registry behavior.
     */
    void setStore(AutomatonStore *s) { store = s; }

    /**
     * Enable the RECORD verb family: RECORD_BEGIN claims a name
     * through `svc` (one live recording per name, server-wide) and
     * streams chunks into the RecordingSession it returns. Borrowed;
     * without a recorder, or without RecordFlags::kChunksV2 in its
     * flags, RECORD_BEGIN answers a non-fatal ERROR and claims nothing.
     * `defaultSwapInterval` applies when the client's RECORD_BEGIN
     * leaves the interval at 0.
     */
    void setRecorder(rec::RecordingService *svc,
                     uint32_t defaultSwapInterval = 4096)
    {
        recSvc = svc;
        recSwapInterval = defaultSwapInterval;
    }

    /**
     * Requests begun: frames handled, excluding REPLAY_CHUNK and
     * RECORD_CHUNK (stream payload, not requests). Counted when
     * handling *starts*, so a STATS snapshot rendered mid-request
     * includes the STATS request itself — that makes the wire-visible
     * count deterministic for a scripted exchange (tests/test_obs.cc).
     */
    uint64_t requestsBegun() const { return reqBegun; }

    /** Requests answered: reply frames emitted, error replies included. */
    uint64_t requestsCompleted() const { return reqDone; }

    /**
     * Drain the spans accumulated since the last take — the per-phase
     * breakdown of the request(s) just handled. The server feeds these
     * to the slow-request log. Bounded (old spans are dropped first) so
     * an untaken buffer cannot grow without limit.
     */
    std::vector<obs::Span> takeRequestSpans();

    /**
     * Lower the per-stream byte budget (default Wire::kMaxLogBytes):
     * the REPLAY_CHUNK bytes one stream may send, counted, not held. A
     * testing seam: the fuzz tests prove it trips with kilobytes.
     */
    void setMaxLogBytes(size_t cap) { maxLogBytes = cap; }

  private:
    enum class State { ExpectHello, Ready, Streaming, Recording, Closed };

    bool onFrame(const FrameView &frame, std::vector<uint8_t> &out);
    void handleRequest(const FrameView &frame, std::vector<uint8_t> &out);
    void reply(std::vector<uint8_t> &out, MsgType type,
               const PayloadWriter &w);
    void replyError(std::vector<uint8_t> &out, bool fatal,
                    const std::string &msg);

    /** True when span tracing is wired up (skip clock reads if not). */
    bool traced() const { return ob.spans != nullptr; }

    /** Record a phase of the current request that just ended. */
    void pushSpan(obs::SpanPhase phase, uint64_t startNs);
    /** Record `s`, stamped with this session's connection id. */
    void pushSpan(obs::Span s);

    /**
     * One step of the open stream's walk: push a REPLAY_CHUNK payload,
     * or (`end`) read the end of the log at REPLAY_END. The first step
     * counts the stream (svc.streams). A defect is saved in
     * streamError, and nothing is walked after it. A step that walked
     * a chunk, failed, or ended the log is Replay work: timed into
     * streamReplayNs and, when traced, one Replay span stamped with the
     * stream's REPLAY_BEGIN request ordinal.
     */
    void walkStream(const uint8_t *data, size_t len, bool end);

    /** Drop the stream's snapshot pin and return to Ready. */
    void closeStream();

    AutomatonRegistry &registry;
    AutomatonStore *store = nullptr; ///< optional disk-backed tier
    LookupConfig lookup;
    FrameDecoder decoder;
    std::function<ServerStatus()> statusFn;
    std::function<std::string(bool text)> statsFn;
    SessionObs ob;
    State state = State::ExpectHello;
    uint64_t reqBegun = 0;
    uint64_t reqDone = 0;
    std::vector<obs::Span> reqSpans; ///< since last takeRequestSpans()
    size_t maxLogBytes = Wire::kMaxLogBytes;

    // REPLAY_BEGIN .. REPLAY_END stream in progress. The snapshot
    // pins the registry-shared CompiledTea, so the replay never
    // compiles and eviction never invalidates it; a reference-kernel
    // stream adds the Tea it rehydrated from that image.
    // The reader and the replayer are reused stream after stream:
    // they keep their storage, not the automaton (closeStream()).
    AutomatonSnapshot stream;          ///< pinned snapshot
    uint64_t streamRequest = 0;        ///< REPLAY_BEGIN's request ordinal
    TraceLogPushReader streamReader;   ///< walks chunks as they arrive
    std::optional<TeaReplayer> streamReplayer;
    uint64_t streamBytes = 0;    ///< REPLAY_CHUNK bytes, vs maxLogBytes
    bool streamCounted = false;  ///< svc.streams bumped for it
    std::string streamError;     ///< first defect, answered at END
    uint64_t streamReplayNs = 0; ///< walk time, the Replay spans' sum
    bool streamProfile = false;
    LookupConfig streamCfg;
    // Per-automaton series handles resolved at REPLAY_BEGIN (see
    // SessionObs); null when the family is unbound.
    obs::Counter *streamReplaysBy = nullptr;
    obs::Counter *streamTransitionsBy = nullptr;
    obs::Histogram *streamReplayMsBy = nullptr;

    // RECORD_BEGIN .. RECORD_END recording in progress. Destroying
    // the session mid-recording (disconnect) abandons it: the
    // RecordingSession destructor releases the name and publishes
    // nothing further — the last swapped snapshot stays installed.
    rec::RecordingService *recSvc = nullptr;
    uint32_t recSwapInterval = 4096;
    std::unique_ptr<rec::RecordingSession> recSession;
    std::vector<BlockTransition> recBatch; ///< RECORD_CHUNK decode, reused
};

} // namespace tea

#endif // TEA_NET_SESSION_HH
