#include "mirror.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/frame.hh"
#include "svc/tracelog.hh"
#include "tea/serialize.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace sb {

using namespace tea;

namespace {

/** The event loop reads into a 64 KiB scratch; consume in such slices. */
constexpr size_t kReadSlice = 64 * 1024;

/** The server's default RECORD swap interval (`--swap-interval`). */
constexpr uint32_t kServerSwapInterval = 4096;

/** Frames of one request, each encoded into its own buffer as
 *  TeaClient::sendFrame does. */
struct Frames
{
    std::vector<std::vector<uint8_t>> frames;

    void
    send(MsgType type, const PayloadWriter &w)
    {
        std::vector<uint8_t> bytes;
        appendFrame(bytes, type, w.out());
        frames.push_back(std::move(bytes));
    }

    std::vector<uint8_t>
    joined() const
    {
        std::vector<uint8_t> out;
        for (const auto &f : frames)
            out.insert(out.end(), f.begin(), f.end());
        return out;
    }
};

void
sendHello(Frames &f)
{
    PayloadWriter w;
    w.u32(Wire::kMagic);
    w.u32(Wire::kVersion);
    f.send(MsgType::Hello, w);
}

/** Feed `req` to `s` in read-sized slices. @throws FatalError on close */
void
consumeAll(Session &s, const std::vector<uint8_t> &req,
           std::vector<uint8_t> &reply)
{
    for (size_t off = 0; off < req.size(); off += kReadSlice) {
        size_t n = std::min(kReadSlice, req.size() - off);
        if (!s.consume(req.data() + off, n, reply))
            fatal("mirror session closed the connection");
    }
}

/** Client-side frame reader over a captured reply. */
struct ReplyReader
{
    explicit ReplyReader(const std::vector<uint8_t> &b) : bytes(b) {}

    const std::vector<uint8_t> &bytes;
    FrameDecoder dec;
    size_t off = 0;

    Frame
    expect(MsgType want)
    {
        Frame f;
        while (!dec.poll(f)) {
            size_t n = std::min(kReadSlice, bytes.size() - off);
            if (n == 0)
                fatal("mirror reply ended early");
            dec.feed(bytes.data() + off, n);
            off += n;
        }
        if (f.type != want) {
            if (f.type == MsgType::Error) {
                PayloadReader r(f.payload);
                r.u8();
                fatal("mirror error: %s", r.str(64 * 1024).c_str());
            }
            fatal("mirror reply type 0x%02x", static_cast<unsigned>(f.type));
        }
        return f;
    }
};

/** The mirror's request must be as long as what TeaClient sent. */
std::string
sameBytes(const std::vector<uint8_t> &req, const RemoteCall &rc,
          const std::string &name)
{
    if (req.size() == rc.sent)
        return {};
    return "mirror request for " + name + " is " +
           std::to_string(req.size()) + " bytes, TeaClient sent " +
           std::to_string(rc.sent);
}

} // namespace

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::Request: return "request";
    case Layer::ClientEncode: return "client.encode";
    case Layer::RecEncode: return "rec.encode";
    case Layer::SessionConsume: return "session.consume";
    case Layer::RegistryPin: return "registry.pin";
    case Layer::StoreGet: return "store.get";
    case Layer::TlogDecode: return "tlog.decode";
    case Layer::KernelFeed: return "kernel.feed";
    case Layer::ProfileMerge: return "profile.merge";
    case Layer::RecDecode: return "rec.decode";
    case Layer::RecFeed: return "rec.feed";
    case Layer::RecPublish: return "rec.publish";
    case Layer::RecFinish: return "rec.finish";
    case Layer::ClientDecode: return "client.decode";
    case Layer::StorePut: return "store.put";
    }
    return "?";
}

uint64_t
SpanLog::add(Layer layer, uint64_t parent, uint64_t request,
             uint64_t startNs, uint64_t endNs, uint64_t items, bool onPath)
{
    Span s;
    s.id = reserve();
    s.parent = parent;
    s.request = request;
    s.layer = layer;
    s.onPath = onPath;
    s.startNs = startNs;
    s.endNs = endNs;
    s.items = items;
    spans.push_back(s);
    return s.id;
}

void
SpanLog::addWithId(uint64_t id, Layer layer, uint64_t parent,
                   uint64_t request, uint64_t startNs, uint64_t endNs)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.request = request;
    s.layer = layer;
    s.startNs = startNs;
    s.endNs = endNs;
    spans.push_back(s);
}

World::World(const std::string &storeDir, size_t maxResident)
{
    if (!storeDir.empty()) {
        fs::remove_all(storeDir);
        StoreConfig sc;
        sc.dir = storeDir;
        sc.maxResident = maxResident;
        store = std::make_unique<AutomatonStore>(registry, sc);
        store->bindMetrics(metrics);
    }
    recsvc = std::make_unique<rec::RecordingService>(registry, store.get());
    recsvc->bindMetrics(metrics);
    // The server's session instruments (net/server.cc), so the mirror
    // session pays the same clock reads and counter bumps.
    obs.spans = &ring;
    obs.requests = &metrics.counter("server.requests");
    obs.replays = &metrics.counter("svc.streams");
    obs.replayFailures = &metrics.counter("svc.stream_failures");
    obs.transitions = &metrics.counter("svc.transitions");
    obs.salvaged = &metrics.counter("svc.salvaged");
    obs.recWireBytes = &metrics.counter("rec.wire_bytes");
    obs.replaysBy = &metrics.labeledCounter("svc.streams_by_automaton");
    obs.transitionsBy =
        &metrics.labeledCounter("svc.transitions_by_automaton");
    obs.replayMsBy =
        &metrics.labeledHistogram("svc.replay_ms_by_automaton");
}

std::unique_ptr<Session>
World::session()
{
    auto s = std::make_unique<Session>(registry, LookupConfig{});
    s->setStore(store.get());
    s->setRecorder(recsvc.get(), kServerSwapInterval);
    s->setObs(obs);
    return s;
}

uint64_t
World::counter(const std::string &name)
{
    return metrics.counter(name).value();
}

Mirror::Mirror(const std::string &storeDirA, const std::string &storeDirB,
               size_t maxResident, bool storeOnPath_)
    : storeOnPath(storeOnPath_),
      a(storeOnPath_ ? storeDirA : "", maxResident),
      b(storeOnPath_ ? storeDirB : "", maxResident)
{
}

std::unique_ptr<Session>
Mirror::connect()
{
    std::unique_ptr<Session> s = a.session();
    Frames f;
    sendHello(f);
    std::vector<uint8_t> reply;
    consumeAll(*s, f.joined(), reply);
    ReplyReader(reply).expect(MsgType::HelloOk);
    return s;
}

void
Mirror::put(SpanLog &log, const std::string &name,
            const std::vector<uint8_t> &teaBytes)
{
    // World A: the PUT frame through a session, as the server does.
    std::unique_ptr<Session> s = connect();
    Frames f;
    PayloadWriter w;
    w.str(name);
    w.raw(teaBytes.data(), teaBytes.size());
    f.send(MsgType::PutAutomaton, w);
    std::vector<uint8_t> reply;
    consumeAll(*s, f.joined(), reply);
    ReplyReader(reply).expect(MsgType::PutOk);

    // World B: the layer call itself.
    auto tea = std::make_shared<const Tea>(loadTea(teaBytes));
    if (b.store) {
        uint64_t t0 = nowNs();
        b.store->put(name, tea);
        log.add(Layer::StorePut, 0, 0, t0, nowNs());
    } else {
        b.registry.put(name, Tea(*tea));
    }
}

std::string
Mirror::replay(SpanLog &log, uint64_t request, const RemoteCall &rc,
               Session *session, const std::string &name,
               const std::vector<uint8_t> &tlog, const ReplayOracle *oracle,
               const ReplayStats *liveOracle)
{
    uint64_t reqId = log.reserve();

    // client encode: the frames TeaClient::replay sends.
    uint64_t t0 = nowNs();
    Frames f;
    if (session == nullptr)
        sendHello(f);
    PayloadWriter begin;
    begin.str(name);
    begin.u8(ReplayFlags::kProfile);
    f.send(MsgType::ReplayBegin, begin);
    for (size_t off = 0; off < tlog.size(); off += Wire::kReplayChunk) {
        size_t n = std::min(Wire::kReplayChunk, tlog.size() - off);
        PayloadWriter chunk;
        chunk.raw(tlog.data() + off, n);
        f.send(MsgType::ReplayChunk, chunk);
    }
    f.send(MsgType::ReplayEnd, PayloadWriter{});
    log.add(Layer::ClientEncode, reqId, request, t0, nowNs());
    std::vector<uint8_t> req = f.joined();
    if (std::string err = sameBytes(req, rc, name); !err.empty())
        return err;

    // session decode in world A (a fresh connection gets a fresh
    // session, as the server builds one per accepted connection).
    std::unique_ptr<Session> fresh;
    if (session == nullptr) {
        fresh = a.session();
        session = fresh.get();
    }
    std::vector<uint8_t> reply;
    t0 = nowNs();
    consumeAll(*session, req, reply);
    uint64_t consumeId =
        log.add(Layer::SessionConsume, reqId, request, t0, nowNs());

    // The session's children, called directly in world B.
    t0 = nowNs();
    AutomatonSnapshot snap = b.registry.snapshot(name);
    log.add(Layer::RegistryPin, consumeId, request, t0, nowNs(), 0,
            !storeOnPath);
    if (storeOnPath) {
        bool resident = static_cast<bool>(snap);
        snap = AutomatonSnapshot{};
        t0 = nowNs();
        snap = b.store->get(name);
        log.add(Layer::StoreGet, consumeId, request, t0, nowNs());
        log.back().outcome = resident ? Outcome::Hit : Outcome::Fault;
    }
    if (!snap)
        return "mirror: no automaton named " + name;

    LookupConfig cfg;
    t0 = nowNs();
    TraceLogReader reader(tlog.data(), tlog.size(),
                          TraceLogReader::Mode::Strict, snap.compiled.get());
    uint64_t t1 = nowNs();
    log.add(Layer::TlogDecode, consumeId, request, t0, t1);
    TeaReplayer rp = snap.tea ? TeaReplayer(*snap.tea, cfg, snap.compiled)
                              : TeaReplayer(snap.compiled, cfg);
    log.add(Layer::KernelFeed, consumeId, request, t1, nowNs());
    for (;;) {
        t0 = nowNs();
        const std::vector<BlockTransition> *buf = reader.nextChunk();
        t1 = nowNs();
        log.add(Layer::TlogDecode, consumeId, request, t0, t1,
                buf ? buf->size() : 0);
        if (buf == nullptr)
            break;
        rp.feedAll(buf->data(), buf->data() + buf->size());
        log.add(Layer::KernelFeed, consumeId, request, t1, nowNs(),
                buf->size());
    }

    t0 = nowNs();
    std::vector<uint64_t> counts(rp.numStates());
    for (StateId id = 0; id < rp.numStates(); ++id)
        counts[id] = rp.execCount(id);
    PayloadWriter w;
    encodeStats(w, rp.stats());
    w.u8(1);
    w.u32(static_cast<uint32_t>(counts.size()));
    for (uint64_t c : counts)
        w.u64(c);
    std::vector<uint8_t> resultFrame;
    appendFrame(resultFrame, MsgType::ReplayResult, w.out());
    log.add(Layer::ProfileMerge, consumeId, request, t0, nowNs());

    // client decode of the captured reply, as TeaClient does it.
    t0 = nowNs();
    RemoteReplayResult local;
    {
        ReplyReader rr(reply);
        if (fresh) {
            Frame hello = rr.expect(MsgType::HelloOk);
            PayloadReader r(hello.payload);
            r.u32();
            r.expectEnd();
        }
        rr.expect(MsgType::ReplayOk);
        Frame result = rr.expect(MsgType::ReplayResult);
        PayloadReader r(result.payload);
        local.stats = decodeStats(r);
        if (r.u8() != 0) {
            uint32_t states = r.u32();
            local.execCounts.reserve(states);
            for (uint32_t i = 0; i < states; ++i)
                local.execCounts.push_back(r.u64());
        }
        r.expectEnd();
    }
    log.add(Layer::ClientDecode, reqId, request, t0, nowNs());
    log.addWithId(reqId, Layer::Request, 0, request, rc.startNs, rc.endNs);

    {
        std::lock_guard<std::mutex> lock(mu);
        kernel += rp.stats();
    }
    // Replays of a name being re-recorded may pin different snapshots
    // here and on the server; only automaton-independent counters must
    // agree then.
    bool agree =
        liveOracle != nullptr
            ? local.stats.transitions == rc.replay.stats.transitions &&
                  local.stats.blocks == rc.replay.stats.blocks &&
                  local.stats.insnsTotal == rc.replay.stats.insnsTotal
            : local.stats == rc.replay.stats &&
                  local.execCounts == rc.replay.execCounts;
    if (!agree)
        return "mirror session disagrees with the server on " + name;
    if (oracle != nullptr &&
        (rp.stats() != oracle->stats || counts != oracle->execCounts))
        return "mirror layers disagree with the oracle on " + name;
    if (liveOracle != nullptr &&
        (rp.stats().transitions != liveOracle->transitions ||
         rp.stats().blocks != liveOracle->blocks ||
         rp.stats().insnsTotal != liveOracle->insnsTotal))
        return "mirror layers disagree with the oracle on " + name;
    return {};
}

std::string
Mirror::record(SpanLog &log, uint64_t request, const RemoteCall &rc,
               Session &session, const std::string &name,
               const std::vector<BlockTransition> &stream,
               const RecordOracle &oracle)
{
    uint64_t reqId = log.reserve();
    uint64_t encodeId = log.reserve();

    // client encode: TeaClient::record's frames, v2 chunks negotiated.
    uint64_t enc0 = nowNs();
    Frames f;
    PayloadWriter begin;
    begin.str(name);
    begin.u8(RecordFlags::kChunksV2);
    begin.u32(0);
    begin.str("");
    f.send(MsgType::RecordBegin, begin);
    std::vector<std::vector<uint8_t>> wire;
    for (size_t off = 0; off < stream.size();
         off += TraceLogFormat::kChunkRecords) {
        size_t n = std::min<size_t>(TraceLogFormat::kChunkRecords,
                                    stream.size() - off);
        uint64_t t0 = nowNs();
        std::vector<uint8_t> bytes;
        encodeWireChunk(bytes, stream.data() + off, n);
        log.add(Layer::RecEncode, encodeId, request, t0, nowNs(), n);
        PayloadWriter chunk;
        chunk.raw(bytes.data(), bytes.size());
        f.send(MsgType::RecordChunk, chunk);
        wire.push_back(std::move(bytes));
    }
    f.send(MsgType::RecordEnd, PayloadWriter{});
    log.addWithId(encodeId, Layer::ClientEncode, reqId, request, enc0,
                  nowNs());
    std::vector<uint8_t> req = f.joined();
    if (std::string err = sameBytes(req, rc, name); !err.empty())
        return err;

    std::vector<uint8_t> reply;
    uint64_t t0 = nowNs();
    consumeAll(session, req, reply);
    uint64_t consumeId =
        log.add(Layer::SessionConsume, reqId, request, t0, nowNs());

    // World B: the recording layers called directly.
    rec::RecordingConfig cfg;
    cfg.swapInterval = kServerSwapInterval;
    std::unique_ptr<rec::RecordingSession> rs = b.recsvc->begin(name, cfg);
    for (const std::vector<uint8_t> &bytes : wire) {
        t0 = nowNs();
        std::vector<BlockTransition> batch =
            decodeWireChunk(bytes.data(), bytes.size());
        uint64_t t1 = nowNs();
        log.add(Layer::RecDecode, consumeId, request, t0, t1, batch.size());
        uint64_t swaps = rs->swaps();
        rs->feedBatch(batch.data(), batch.size());
        log.add(rs->swaps() != swaps ? Layer::RecPublish : Layer::RecFeed,
                consumeId, request, t1, nowNs(), batch.size());
    }
    t0 = nowNs();
    rec::RecordingResultSummary sum = rs->finish();
    log.add(Layer::RecFinish, consumeId, request, t0, nowNs());
    ReplayStats recStats = rs->stats();
    rs.reset();

    t0 = nowNs();
    RemoteRecordResult local;
    {
        ReplyReader rr(reply);
        rr.expect(MsgType::RecordOk);
        Frame result = rr.expect(MsgType::RecordResult);
        PayloadReader r(result.payload);
        local.transitions = r.u64();
        local.traces = r.u64();
        local.states = r.u64();
        local.swaps = r.u64();
        local.stats = decodeStats(r);
        r.expectEnd();
    }
    log.add(Layer::ClientDecode, reqId, request, t0, nowNs());
    log.addWithId(reqId, Layer::Request, 0, request, rc.startNs, rc.endNs);
    log.back().kind = Kind::Record;

    if (local.transitions != rc.record.transitions ||
        local.traces != rc.record.traces ||
        local.states != rc.record.states || local.stats != rc.record.stats)
        return "mirror session disagrees with the server on " + name;
    if (sum.transitions != oracle.transitions ||
        sum.traces != oracle.traces || sum.states != oracle.states ||
        recStats != oracle.stats)
        return "mirror recording disagrees with the oracle on " + name;
    return {};
}

ReplayStats
Mirror::kernelTotals()
{
    std::lock_guard<std::mutex> lock(mu);
    return kernel;
}

void
storeProbe(SpanLog &log, const std::string &dir,
           const std::vector<const std::vector<uint8_t> *> &teas)
{
    fs::remove_all(dir);
    AutomatonRegistry reg;
    StoreConfig sc;
    sc.dir = dir;
    AutomatonStore store(reg, sc);
    for (size_t i = 0; i < teas.size(); ++i) {
        std::string name = "probe-" + std::to_string(i);
        auto tea = std::make_shared<const Tea>(loadTea(*teas[i]));
        uint64_t t0 = nowNs();
        store.put(name, tea);
        log.add(Layer::StorePut, 0, 0, t0, nowNs(), 0, false);
        store.evictResident(name);
        for (Outcome o : {Outcome::Fault, Outcome::Hit}) {
            t0 = nowNs();
            AutomatonSnapshot snap = store.get(name);
            log.add(Layer::StoreGet, 0, 0, t0, nowNs(), 0, false);
            log.back().outcome = o;
            if (!snap)
                fatal("store probe: %s vanished", name.c_str());
        }
    }
    fs::remove_all(dir);
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path, std::ios::trunc);
    out << "id,parent,request,kind,layer,on_path,outcome,start_ns,end_ns,"
           "items\n";
    for (const Span &s : spans)
        out << s.id << ',' << s.parent << ',' << s.request << ','
            << static_cast<int>(s.kind) << ',' << layerName(s.layer) << ','
            << (s.onPath ? 1 : 0) << ',' << static_cast<int>(s.outcome)
            << ',' << s.startNs << ',' << s.endNs << ',' << s.items << '\n';
}

} // namespace sb
