/**
 * @file
 * The traced run's in-process layers and span log.
 *
 * After each remote call the traced run re-runs the request on the
 * identical bytes in-process and times every layer's public call:
 *
 *   request (the remote call, as the client saw it)
 *   ├─ client.encode     PayloadWriter + appendFrame per frame
 *   │  └─ rec.encode     encodeWireChunk (recordings)
 *   ├─ session.consume   Session::consume in world A
 *   │  ├─ registry.pin   AutomatonRegistry::snapshot        (world B)
 *   │  ├─ store.get      AutomatonStore::get                (world B)
 *   │  ├─ tlog.decode    TraceLogReader::nextChunk, per chunk
 *   │  ├─ kernel.feed    TeaReplayer construction + feedAll per chunk
 *   │  ├─ profile.merge  execCount extraction + reply encode
 *   │  ├─ rec.decode     decodeWireChunk, per chunk
 *   │  ├─ rec.feed       RecordingSession::feedBatch (no publish)
 *   │  ├─ rec.publish    feedBatch calls that hot-swapped
 *   │  └─ rec.finish     RecordingSession::finish
 *   └─ client.decode     FrameDecoder::poll + decodeStats + profile
 *
 * World A is a Session over its own registry, store and recording
 * service; world B is a second copy of the same state whose layers
 * the benchmark calls directly. Both receive every PUT and recording the
 * server receives, so they mirror its contents and store budget. A
 * layer's self time is its span minus its on-path children, so for
 * every request the self times plus the remainder (the request's own
 * self time: loopback TCP, loop dispatch, pool queueing, reply flush,
 * delayed-ACK waits) add up to the latency the client saw.
 *
 * Spans marked off-path time a layer on the workload's inputs where
 * the server's request path does not call it (for example
 * registry.pin ahead of store.get, or the store probe on a workload
 * whose server has no store); they never enter that accounting.
 */

#ifndef SERVEBENCH_MIRROR_HH
#define SERVEBENCH_MIRROR_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hh"
#include "net/client.hh"
#include "net/session.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rec/service.hh"
#include "store/store.hh"
#include "svc/registry.hh"

namespace sb {

enum class Layer : uint8_t
{
    Request,
    ClientEncode,
    RecEncode,
    SessionConsume,
    RegistryPin,
    StoreGet,
    TlogDecode,
    KernelFeed,
    ProfileMerge,
    RecDecode,
    RecFeed,
    RecPublish,
    RecFinish,
    ClientDecode,
    StorePut,
};

const char *layerName(Layer l);

/** Request kinds (stamped on Request spans). */
enum class Kind : uint8_t { Replay, Record };

/** store.get outcomes. */
enum class Outcome : uint8_t { None, Hit, Fault };

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t request = 0;
    Layer layer = Layer::Request;
    Kind kind = Kind::Replay;
    bool onPath = true;
    Outcome outcome = Outcome::None;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t items = 0; ///< records/transitions the call handled

    uint64_t dur() const { return endNs - startNs; }
};

/** One thread's spans; merged when the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(uint64_t thread) : tag(thread << 40) {}

    /** Record a finished span. @return its id */
    uint64_t add(Layer layer, uint64_t parent, uint64_t request,
                 uint64_t startNs, uint64_t endNs, uint64_t items = 0,
                 bool onPath = true);

    /** Reserve an id for a span finished later with add(id, ...). */
    uint64_t reserve() { return tag | ++next; }
    void addWithId(uint64_t id, Layer layer, uint64_t parent,
                   uint64_t request, uint64_t startNs, uint64_t endNs);

    Span &back() { return spans.back(); }

    std::vector<Span> spans;

  private:
    uint64_t tag;
    uint64_t next = 0;
};

/** The server state one side of the mirror holds. */
struct World
{
    World(const std::string &storeDir, size_t maxResident);

    tea::obs::MetricsRegistry metrics;
    tea::obs::SpanRing ring{1024};
    tea::AutomatonRegistry registry;
    std::unique_ptr<tea::AutomatonStore> store;
    std::unique_ptr<tea::rec::RecordingService> recsvc;
    tea::SessionObs obs;

    /** A Session wired like the server's (store, recorder, obs). */
    std::unique_ptr<tea::Session> session();

    uint64_t counter(const std::string &name);
};

/** The remote call a traced request mirrors. */
struct RemoteCall
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t sent = 0;     ///< client bytes sent
    uint64_t received = 0; ///< client bytes received
    tea::RemoteReplayResult replay;
    tea::RemoteRecordResult record;
};

/**
 * Drives both worlds. Thread-safe for concurrent requests from
 * different threads, each with its own SpanLog and world-A session.
 */
class Mirror
{
  public:
    /**
     * @param storeOnPath the server runs with `--store`: both worlds
     *        get a store (in the two directories) with `maxResident`
     */
    Mirror(const std::string &storeDirA, const std::string &storeDirB,
           size_t maxResident, bool storeOnPath);

    /** Install an automaton in both worlds as the server's PUT does. */
    void put(SpanLog &log, const std::string &name,
             const std::vector<uint8_t> &teaBytes);

    /**
     * Mirror one replay. `session` is the connection's world-A session
     * (null: a fresh connection, so the request bytes include HELLO).
     * @return empty when the mirror agreed with the remote result and
     *         the oracle, else what disagreed
     */
    std::string replay(SpanLog &log, uint64_t request, const RemoteCall &rc,
                       tea::Session *session, const std::string &name,
                       const std::vector<uint8_t> &tlog,
                       const ReplayOracle *oracle,
                       const ReplayStats *liveOracle);

    /** Mirror one recording on the connection's world-A `session`. */
    std::string record(SpanLog &log, uint64_t request, const RemoteCall &rc,
                       tea::Session &session, const std::string &name,
                       const std::vector<BlockTransition> &stream,
                       const RecordOracle &oracle);

    /** A world-A session that has completed HELLO (persistent conns). */
    std::unique_ptr<tea::Session> connect();

    World &worldB() { return b; }

    /** Summed kernel counters of the mirrored replays. */
    ReplayStats kernelTotals();

  private:
    bool storeOnPath;
    World a;
    World b;
    std::mutex mu;
    ReplayStats kernel;
};

/**
 * Time put / fault-in / hit of each automaton in a scratch store:
 * the store layer measured off-path, on a workload whose server path
 * never calls it.
 */
void storeProbe(SpanLog &log, const std::string &dir,
                const std::vector<const std::vector<uint8_t> *> &teas);

/** Write every span as CSV (one line per span). */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace sb

#endif // SERVEBENCH_MIRROR_HH
