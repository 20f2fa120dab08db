/**
 * @file
 * TeaClient: the dialing side of the tead wire protocol.
 *
 * A thin, blocking, single-connection client: connect() performs the
 * versioned HELLO handshake, then each method is one request/response
 * exchange (replay() is one request of many frames). The socket runs
 * with Nagle off (TCP_NODELAY, net/socket.hh), so the client batches
 * its own writes: replay() frames its REPLAY_CHUNKs straight from the
 * caller's log into one buffer, written at every 1 MiB, and
 * REPLAY_END rides the last write; record() sends RECORD_END in the
 * write of its last chunk. The bytes are the same as one write per
 * frame. Server-reported
 * request failures and protocol violations surface as FatalError; a
 * server that answers the handshake with BUSY (admission queue full)
 * throws the ServerBusy subclass — carrying the server's queue depth
 * and session cap when it sent them — so callers can back off and
 * retry without string-matching.
 *
 * The client holds its socket through a FaultySocket, so the chaos
 * suite (tests/test_chaos.cc) exercises the *real* client path with
 * injected faults; unarmed (the default), the wrapper is one branch
 * per call and the client behaves exactly as before.
 *
 * Because a replay is read-only on the server (the registry is only
 * consulted, never modified), the whole exchange is idempotent — which
 * is what makes replayWithRetry() safe: any attempt that dies before,
 * during, or after the result frame can simply be re-run from scratch
 * on a fresh connection.
 *
 * The client is not thread-safe: one connection, one conversation.
 * Open more clients for parallelism — the loopback integration test
 * and bench/net_throughput run one client per thread.
 */

#ifndef TEA_NET_CLIENT_HH
#define TEA_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/fault.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "tea/automaton.hh"
#include "util/logging.hh"

namespace tea {

/**
 * The server refused admission (its session queue or connection cap is
 * full). `queueDepth`/`maxSessions` carry the server's hint when the
 * BUSY frame had one (servers predating the hint send an empty
 * payload; both fields stay 0 then).
 */
class ServerBusy : public FatalError
{
  public:
    using FatalError::FatalError;

    uint32_t queueDepth = 0;  ///< consume tasks waiting for a worker
    uint32_t maxSessions = 0; ///< server's live-connection cap (0 = none)
};

/** Per-replay options, mirroring REPLAY_BEGIN's flag bits. */
struct RemoteReplayOptions
{
    bool wantProfile = false; ///< return per-TBB execution counts
    bool noGlobal = false;    ///< LookupConfig::useGlobalBTree = false
    bool noLocal = false;     ///< LookupConfig::useLocalCache = false
    bool reference = false;   ///< LookupConfig::useCompiled = false
};

/** One remote stream's outcome. */
struct RemoteReplayResult
{
    ReplayStats stats;
    /** Per-state execution counts; empty unless wantProfile was set. */
    std::vector<uint64_t> execCounts;
};

/** Per-recording options, mirroring RECORD_BEGIN's optional fields. */
struct RemoteRecordOptions
{
    /** Hot-swap interval in transitions; 0 = the server's default. */
    uint32_t swapInterval = 0;
    /** Trace-selection policy name; empty = the server's default. */
    std::string selector;
};

/** One remote recording's outcome (the RECORD_RESULT frame). */
struct RemoteRecordResult
{
    uint64_t transitions = 0; ///< transitions the server ingested
    uint64_t traces = 0;      ///< traces in the final automaton
    uint64_t states = 0;      ///< states (incl. NTE) in the final automaton
    uint64_t swaps = 0;       ///< snapshots published (incl. the final)
    ReplayStats stats;        ///< the server-side recorder's counters
};

/**
 * Capped exponential backoff with seeded jitter, for retrying the
 * idempotent remote-replay exchange. Attempt k (0-based) sleeps a
 * uniform draw from [base/2, base] where base = min(maxBackoffMs,
 * backoffMs << k) — jitter keeps a fleet of retrying clients from
 * re-stampeding a BUSY server in lockstep.
 */
struct RetryPolicy
{
    uint32_t retries = 0;       ///< extra attempts after the first
    uint32_t backoffMs = 50;    ///< base delay before the first retry
    uint32_t maxBackoffMs = 2000;
    uint64_t seed = 1;          ///< jitter PRNG seed

    /** Jittered delay before retry number `attempt` (0-based), in ms. */
    uint32_t delayMs(uint32_t attempt, Xorshift64Star &rng) const;
};

class TeaClient
{
  public:
    /**
     * Dial and shake hands. A nonzero `faults` config arms fault
     * injection on the new connection (chaos tests only; the default
     * injects nothing).
     * @throws ServerBusy when the server refuses admission
     * @throws FatalError on connect or protocol failures
     */
    static TeaClient connect(const std::string &endpoint,
                             const FaultConfig &faults = {},
                             uint64_t faultSeed = 1);

    /** Upload a serialized TEA under `name` (replaces an older one). */
    void putAutomaton(const std::string &name,
                      const std::vector<uint8_t> &teaImage);

    /** Serialize and upload an automaton. */
    void putAutomaton(const std::string &name, const Tea &tea);

    /** Names registered on the server, sorted. */
    std::vector<std::string> list();

    /** One name from listEntries(), with its residency marker. */
    struct ListEntry
    {
        std::string name;
        /**
         * True when the automaton is resident in server RAM; false
         * when it is a cold `.teac` image the server will fault in on
         * first replay. Servers predating the store omit the markers —
         * everything reports resident then (which is also true).
         */
        bool resident = true;
    };

    /** Names with resident/cold markers (store-backed servers). */
    std::vector<ListEntry> listEntries();

    /** Drop a name on the server. @return false when it was absent. */
    bool evict(const std::string &name);

    /**
     * Liveness + load probe: PING, wait for PONG. Cheap enough to call
     * between requests; the stats are a snapshot taken server-side.
     */
    ServerStatus ping();

    /**
     * Fetch the server's observability snapshot (the STATS frame).
     * The history and flight-recorder documents are HTTP resources on
     * the same listener instead (httpGet() below).
     * @param text true for the human rendering, false for JSON
     * @return the report bytes, verbatim
     * @throws FatalError from an older server that predates STATS (it
     *         answers unknown types with a fatal ERROR)
     */
    std::string stats(bool text = false);

    /**
     * Stream a trace log and replay it remotely: REPLAY_BEGIN, wait
     * for REPLAY_OK (an unknown name fails before any log bytes go
     * out), then the REPLAY_CHUNKs and REPLAY_END in writes of about
     * 1 MiB, the END in the last one.
     * @throws FatalError when the server rejects the stream (unknown
     *         name, corrupt log) or the connection breaks
     */
    RemoteReplayResult replay(const std::string &name,
                              const uint8_t *log, size_t len,
                              RemoteReplayOptions opt = {});

    RemoteReplayResult
    replay(const std::string &name, const std::vector<uint8_t> &log,
           RemoteReplayOptions opt = {})
    {
        return replay(name, log.data(), log.size(), opt);
    }

    /**
     * Record a whole transition sequence remotely in one call:
     * RECORD_BEGIN, the transitions in RECORD_CHUNK frames of one v2
     * delta chunk each (encodeWireChunk), RECORD_END. Each chunk but
     * the last has its own write, so the server decodes one while the
     * next is encoded; RECORD_END shares the last chunk's write.
     * The server grows (and hot-swaps) the automaton under `name` as
     * the stream arrives; afterwards the name replays like any PUT one.
     * @throws FatalError when the server rejects the recording (name
     *         already being recorded, unknown selector, old server) or
     *         its RECORD_OK does not acknowledge RecordFlags::kChunksV2
     */
    RemoteRecordResult record(const std::string &name,
                              const std::vector<BlockTransition> &trs,
                              RemoteRecordOptions opt = {});

    /**
     * The incremental recording conversation, for live drivers that do
     * not hold the whole sequence: recordBegin() once, recordChunk()
     * per batch, recordEnd() for the result. One recording at a time
     * per client; replay()/record() must not interleave with it.
     */
    void recordBegin(const std::string &name,
                     RemoteRecordOptions opt = {});

    /** Stream one batch (no reply; errors surface at recordEnd). */
    void recordChunk(const BlockTransition *batch, size_t n);

    /** Finish the recording and fetch the RECORD_RESULT summary. */
    RemoteRecordResult recordEnd();

    void close() { sock.close(); }

    /** Raw bytes written to the socket (every frame, HELLO included). */
    uint64_t bytesSent() const { return sock.bytesSent(); }

    /** Raw bytes read from the socket. */
    uint64_t bytesReceived() const { return sock.bytesReceived(); }

    /** Faults the underlying FaultySocket injected (0 when unarmed). */
    uint64_t faultsInjected() const { return sock.faultsInjected(); }

    /** Injected faults of one kind (see FaultKind). */
    uint64_t faultsInjected(FaultKind kind) const
    {
        return sock.faultsInjected(kind);
    }

  private:
    explicit TeaClient(FaultySocket s) : sock(std::move(s)) {}

    void sendFrame(MsgType type, const PayloadWriter &w);
    /** Read and decode the RECORD_RESULT that ends a recording. */
    RemoteRecordResult recordResult();
    /** Blocking read of the next frame. @throws FatalError on EOF. */
    Frame recvFrame();
    /**
     * recvFrame(), then unwrap: BUSY throws ServerBusy, ERROR throws
     * FatalError with the server's message, any type other than `want`
     * throws. @return the frame of type `want`
     */
    Frame expect(MsgType want);

    FaultySocket sock;
    FrameDecoder decoder;
};

/** One HTTP reply from a server's listener, split at the blank line. */
struct HttpReply
{
    int status = 0;      ///< e.g. 200, 404, 503
    std::string headers; ///< status line and header fields
    std::string body;
};

/**
 * GET `target` from a tead listener. The event loop serves HTTP on
 * every listener, `unix:` endpoints included; one request per
 * connection. `teadbt stats --history` and `teadbt flight-dump` fetch
 * `/history.json` and `/flight.json` through here.
 * @throws FatalError on connect or transport failure, and on a reply
 *         that does not start with `HTTP/1.` — such as the binary BUSY
 *         frame a full server sends at admission, before it reads the
 *         request
 */
HttpReply httpGet(const std::string &endpoint, const std::string &target);

/**
 * Everything one self-contained remote replay attempt needs, so a
 * retry can rebuild the conversation from scratch: dial `endpoint`,
 * re-upload `teaImage` when set (the previous attempt may have died
 * before its PUT landed), then stream the log.
 */
struct RemoteReplayJob
{
    std::string endpoint;
    std::string name;
    const uint8_t *log = nullptr;
    size_t len = 0;
    RemoteReplayOptions opt;
    /** When set, PUT these bytes under `name` before each replay. */
    const std::vector<uint8_t> *teaImage = nullptr;
    /** Chaos-test fault injection; per-attempt seed = faultSeed + k. */
    FaultConfig faults;
    uint64_t faultSeed = 1;
};

/**
 * Run `job`, retrying per `policy` on ServerBusy and on transient
 * transport failures (connect refused/reset, connection lost at any
 * point — replay is idempotent, so a blanket retry is safe). The final
 * failure is rethrown when every attempt is spent.
 * @param attemptsOut when non-null, receives the number of attempts
 *        made (1 = first try succeeded)
 */
RemoteReplayResult replayWithRetry(const RemoteReplayJob &job,
                                   const RetryPolicy &policy,
                                   uint32_t *attemptsOut = nullptr);

} // namespace tea

#endif // TEA_NET_CLIENT_HH
