#include "net/session.hh"

#include <algorithm>
#include <set>

#include "svc/tracelog.hh"
#include "tea/serialize.hh"
#include "util/logging.hh"

namespace tea {

Session::Session(AutomatonRegistry &reg, LookupConfig cfg)
    : registry(reg), lookup(cfg)
{
}

void
Session::reply(std::vector<uint8_t> &out, MsgType type,
               const PayloadWriter &w)
{
    appendFrame(out, type, w.out());
    ++reqDone;
}

void
Session::replyError(std::vector<uint8_t> &out, bool fatal,
                    const std::string &msg)
{
    PayloadWriter w;
    w.u8(fatal ? 1 : 0);
    w.str(msg);
    appendFrame(out, MsgType::Error, w.out());
    ++reqDone;
}

void
Session::pushSpan(obs::SpanPhase phase, uint64_t startNs)
{
    obs::Span s;
    s.request = reqBegun;
    s.phase = phase;
    s.startNs = startNs;
    s.durNs = obs::monotonicNanos() - startNs;
    pushSpan(s);
}

void
Session::pushSpan(obs::Span s)
{
    s.conn = ob.conn;
    ob.spans->push(s);
    // Keep a small per-request tail for the slow-request breakdown;
    // cap it so an untaken buffer stays bounded.
    if (reqSpans.size() >= 64)
        reqSpans.erase(reqSpans.begin());
    reqSpans.push_back(s);
}

std::vector<obs::Span>
Session::takeRequestSpans()
{
    std::vector<obs::Span> taken = std::move(reqSpans);
    reqSpans.clear();
    return taken;
}

bool
Session::consume(const uint8_t *data, size_t len,
                 std::vector<uint8_t> &out)
{
    if (state == State::Closed)
        return false;
    decoder.feed(data, len);
    return consumeReceived(0, out);
}

bool
Session::consumeReceived(size_t n, std::vector<uint8_t> &out)
{
    if (state == State::Closed)
        return false;
    decoder.commit(n);
    for (;;) {
        // A view into the decoder's buffer: no bytes arrive until this
        // call returns, so it stays valid through onFrame().
        FrameView frame;
        uint64_t t0 = traced() ? obs::monotonicNanos() : 0;
        try {
            if (!decoder.poll(frame))
                return true;
        } catch (const FatalError &e) {
            // Framing is broken; nothing later can be trusted.
            replyError(out, /*fatal=*/true, e.what());
            state = State::Closed;
            return false;
        }
        // A frame other than stream payload begins a request; counted
        // before handling so an in-flight STATS sees itself.
        if (frame.type != MsgType::ReplayChunk &&
            frame.type != MsgType::RecordChunk) {
            ++reqBegun;
            if (ob.requests != nullptr)
                ob.requests->inc();
        }
        if (traced())
            pushSpan(obs::SpanPhase::Decode, t0);
        if (!onFrame(frame, out)) {
            state = State::Closed;
            return false;
        }
    }
}

bool
Session::onFrame(const FrameView &frame, std::vector<uint8_t> &out)
{
    // Protocol-order checks first: a frame the current state does not
    // admit is a violation, not a failed request.
    switch (state) {
    case State::ExpectHello:
        if (frame.type != MsgType::Hello) {
            replyError(out, true, "expected HELLO");
            return false;
        }
        break;
    case State::Ready:
        if (frame.type != MsgType::PutAutomaton &&
            frame.type != MsgType::List &&
            frame.type != MsgType::Evict &&
            frame.type != MsgType::Ping &&
            frame.type != MsgType::Stats &&
            frame.type != MsgType::ReplayBegin &&
            frame.type != MsgType::RecordBegin) {
            replyError(out, true, "unexpected message type");
            return false;
        }
        break;
    case State::Streaming:
        if (frame.type != MsgType::ReplayChunk &&
            frame.type != MsgType::ReplayEnd) {
            replyError(out, true,
                       "expected REPLAY_CHUNK or REPLAY_END");
            return false;
        }
        break;
    case State::Recording:
        if (frame.type != MsgType::RecordChunk &&
            frame.type != MsgType::RecordEnd) {
            replyError(out, true,
                       "expected RECORD_CHUNK or RECORD_END");
            return false;
        }
        break;
    case State::Closed:
        return false;
    }

    if (frame.type == MsgType::Hello) {
        try {
            PayloadReader r(frame.payload, frame.size);
            uint32_t magic = r.u32();
            uint32_t version = r.u32();
            r.expectEnd();
            if (magic != Wire::kMagic)
                fatal("bad protocol magic 0x%08x", magic);
            if (version != Wire::kVersion)
                fatal("unsupported protocol version %u", version);
        } catch (const FatalError &e) {
            replyError(out, true, e.what());
            return false;
        }
        PayloadWriter w;
        w.u32(Wire::kVersion);
        reply(out, MsgType::HelloOk, w);
        state = State::Ready;
        return true;
    }

    // A stream past its byte budget is a resource violation: close
    // rather than walk (or count) without bound.
    if (frame.type == MsgType::ReplayChunk &&
        streamBytes + frame.size > maxLogBytes) {
        replyError(out, true, "replay stream exceeds the size cap");
        return false;
    }

    // Everything else is a request: failures keep the session open.
    try {
        handleRequest(frame, out);
    } catch (const FatalError &e) {
        if (state == State::Streaming) {
            // Abandon the stream; the client restarts with a new BEGIN.
            closeStream();
        } else if (state == State::Recording) {
            // Abandon the recording: the session destructor releases
            // the name and the last swapped snapshot stays installed.
            recSession.reset();
            state = State::Ready;
        }
        replyError(out, false, e.what());
    }
    return true;
}

void
Session::walkStream(const uint8_t *data, size_t len, bool end)
{
    if (!streamCounted) {
        // A stream counts once its replay starts: at its first chunk,
        // or at REPLAY_END when it sent none.
        streamCounted = true;
        if (ob.replays != nullptr)
            ob.replays->inc();
        if (streamReplaysBy != nullptr)
            streamReplaysBy->inc();
    }
    if (!streamError.empty())
        return; // the walk ended at a defect; later chunks only count
    bool timed = traced() || streamReplayMsBy != nullptr;
    uint64_t t0 = timed ? obs::monotonicNanos() : 0;
    uint64_t chunks = streamReader.times().chunks;
    try {
        if (end)
            streamReader.finish();
        else
            streamReader.push(data, len, *streamReplayer);
    } catch (const FatalError &e) {
        streamError = e.what();
    }
    // A frame that only topped up the held chunk frame did no walk.
    bool walked = end || !streamError.empty() ||
                  streamReader.times().chunks != chunks;
    if (!timed || !walked)
        return;
    uint64_t dur = obs::monotonicNanos() - t0;
    streamReplayNs += dur;
    if (traced()) {
        obs::Span s;
        s.request = streamRequest;
        s.phase = obs::SpanPhase::Replay;
        s.startNs = t0;
        s.durNs = dur;
        pushSpan(s);
    }
}

void
Session::closeStream()
{
    if (streamReplayer)
        streamReplayer->rebind(nullptr, LookupConfig{});
    stream = AutomatonSnapshot{};
    state = State::Ready;
}

void
Session::handleRequest(const FrameView &frame, std::vector<uint8_t> &out)
{
    switch (frame.type) {
    case MsgType::PutAutomaton: {
        PayloadReader r(frame.payload, frame.size);
        std::string name = r.str(Wire::kMaxName);
        if (name.empty())
            fatal("automaton name must not be empty");
        Tea tea = loadTea(r.rest()); // validates; throws on corruption
        // Either way one compile, and only the image stays resident.
        // With a store the .teac also lands on disk atomically.
        std::shared_ptr<const CompiledTea> compiled =
            store != nullptr
                ? store->put(name,
                             std::make_shared<const Tea>(std::move(tea)))
                      .compiled
                : registry.put(name, std::move(tea));
        PayloadWriter w;
        w.u32(compiled->numStates());
        reply(out, MsgType::PutOk, w);
        return;
    }
    case MsgType::List: {
        PayloadReader r(frame.payload, frame.size);
        r.expectEnd();
        // The reply grew a residency marker per name (appended after
        // the name block, so pre-store clients simply ignore it):
        // 1 = resident in RAM, 0 = cold on disk, faulted in on first
        // replay. Without a store everything the registry lists is
        // resident by definition.
        std::vector<std::pair<std::string, bool>> names;
        if (store != nullptr) {
            std::vector<std::string> res = registry.list();
            std::set<std::string> resSet(res.begin(), res.end());
            for (const StoreEntry &e : store->list()) {
                names.emplace_back(e.name, resSet.count(e.name) != 0);
                resSet.erase(e.name);
            }
            // Registry names outside the store dir (direct preloads).
            for (const std::string &n : resSet)
                names.emplace_back(n, true);
            std::sort(names.begin(), names.end());
        } else {
            for (const std::string &n : registry.list())
                names.emplace_back(n, true);
        }
        PayloadWriter w;
        w.u32(static_cast<uint32_t>(names.size()));
        for (const auto &[n, resident] : names)
            w.str(n);
        for (const auto &[n, resident] : names)
            w.u8(resident ? 1 : 0);
        reply(out, MsgType::ListOk, w);
        return;
    }
    case MsgType::Evict: {
        PayloadReader r(frame.payload, frame.size);
        std::string name = r.str(Wire::kMaxName);
        r.expectEnd();
        // With a store, EVICT drops residency only — the .teac image
        // stays, so the name remains replayable (cold). Names the
        // store does not manage (direct preloads) still evict from
        // the registry.
        bool found = store != nullptr
                         ? (store->evictResident(name) ||
                            registry.evict(name))
                         : registry.evict(name);
        PayloadWriter w;
        w.u8(found ? 1 : 0);
        reply(out, MsgType::EvictOk, w);
        return;
    }
    case MsgType::Ping: {
        PayloadReader r(frame.payload, frame.size);
        r.expectEnd();
        PayloadWriter w;
        encodeStatus(w, statusFn ? statusFn() : ServerStatus{});
        reply(out, MsgType::Pong, w);
        return;
    }
    case MsgType::Stats: {
        // Tolerant by design, like BUSY: a leading format byte of 1
        // selects text; an empty payload or any other byte means JSON,
        // and extra bytes are ignored so the request can grow fields
        // without a version bump.
        bool text = frame.size != 0 && frame.payload[0] == 1;
        std::string report =
            statsFn ? statsFn(text) : std::string(text ? "" : "{}");
        PayloadWriter w;
        w.raw(reinterpret_cast<const uint8_t *>(report.data()),
              report.size());
        reply(out, MsgType::StatsOk, w);
        return;
    }
    case MsgType::ReplayBegin: {
        PayloadReader r(frame.payload, frame.size);
        std::string name = r.str(Wire::kMaxName);
        uint8_t flags = r.u8();
        r.expectEnd();
        uint64_t tLookup = traced() ? obs::monotonicNanos() : 0;
        // Through the store a cold name faults its .teac image in by
        // mmap here (no recompile); corruption surfaces as a non-fatal
        // ERROR reply like any other failed request.
        AutomatonSnapshot snap = store != nullptr
                                     ? store->get(name)
                                     : registry.snapshot(name);
        if (traced())
            pushSpan(obs::SpanPhase::Lookup, tLookup);
        if (!snap)
            fatal("no automaton named '%s'", name.c_str());
        // Pin the snapshot now: a concurrent evict cannot touch it,
        // and the replay below reuses the registry's CompiledTea
        // instead of compiling per stream.
        stream = std::move(snap);
        // One interning lookup per stream buys the per-automaton
        // series; the replay loop itself never sees the label map.
        streamReplaysBy =
            ob.replaysBy != nullptr ? &ob.replaysBy->at(name) : nullptr;
        streamTransitionsBy = ob.transitionsBy != nullptr
                                  ? &ob.transitionsBy->at(name)
                                  : nullptr;
        streamReplayMsBy =
            ob.replayMsBy != nullptr ? &ob.replayMsBy->at(name) : nullptr;
        streamProfile = (flags & ReplayFlags::kProfile) != 0;
        streamCfg = lookup;
        streamCfg.useGlobalBTree = (flags & ReplayFlags::kNoGlobal) == 0;
        streamCfg.useLocalCache = (flags & ReplayFlags::kNoLocal) == 0;
        if ((flags & ReplayFlags::kReference) != 0)
            streamCfg.useCompiled = false;
        if (!streamCfg.useCompiled) {
            // The reference kernel walks a Tea; the registry holds
            // only compiled images, so the stream rebuilds one from
            // its sections per request — a diagnostic escape hatch,
            // not a hot path.
            stream.tea = std::make_shared<const Tea>(
                stream.compiled->rehydrateTea());
            streamReplayer.emplace(*stream.tea, streamCfg);
        } else if (streamReplayer) {
            streamReplayer->rebind(stream.compiled, streamCfg);
        } else {
            streamReplayer.emplace(stream.compiled, streamCfg);
        }
        // The pinned snapshot doubles as the decode automaton of
        // elided chunks, as in runReplayJob().
        streamReader.reset(stream.compiled.get());
        streamRequest = reqBegun;
        streamBytes = 0;
        streamCounted = false;
        streamError.clear();
        streamReplayNs = 0;
        state = State::Streaming;
        reply(out, MsgType::ReplayOk, PayloadWriter{});
        return;
    }
    case MsgType::ReplayChunk:
        // Walked where it lies in the decoder's buffer: only the part
        // of a chunk frame the payload leaves incomplete is copied.
        streamBytes += frame.size;
        walkStream(frame.payload, frame.size, /*end=*/false);
        return;
    case MsgType::ReplayEnd: {
        PayloadReader r(frame.payload, frame.size);
        r.expectEnd();
        walkStream(nullptr, 0, /*end=*/true);
        // One observation per stream: the summed walk time.
        if (streamReplayMsBy != nullptr)
            streamReplayMsBy->observe(
                static_cast<double>(streamReplayNs) / 1e6);
        const TeaReplayer &rp = *streamReplayer;
        uint64_t transitions =
            streamError.empty() ? rp.stats().transitions : 0;
        if (ob.transitions != nullptr)
            ob.transitions->inc(transitions);
        if (streamTransitionsBy != nullptr)
            streamTransitionsBy->inc(transitions);
        if (!streamError.empty()) {
            if (ob.replayFailures != nullptr)
                ob.replayFailures->inc();
            closeStream();
            fatal("replay failed: %s", streamError.c_str());
        }
        PayloadWriter w;
        encodeStats(w, rp.stats());
        w.u8(streamProfile ? 1 : 0);
        if (streamProfile) {
            w.u32(rp.numStates());
            for (StateId id = 0; id < rp.numStates(); ++id)
                w.u64(rp.execCount(id));
        }
        closeStream();
        reply(out, MsgType::ReplayResult, w);
        return;
    }
    case MsgType::RecordBegin: {
        if (recSvc == nullptr)
            fatal("recording is not enabled on this server");
        PayloadReader r(frame.payload, frame.size);
        std::string name = r.str(Wire::kMaxName);
        // Bit 0 (v2 delta chunks) is mandatory; other bits are ignored
        // (versionless growth). Checked before begin() so a refused
        // request claims no name.
        if ((r.u8() & RecordFlags::kChunksV2) == 0)
            fatal("RECORD_BEGIN must set the v2 chunk flag");
        // Optional growth fields, decoded tolerantly (cf. BUSY/STATS):
        // a u32 swap interval and a selector name. Extra bytes beyond
        // those are future fields — ignored.
        rec::RecordingConfig rc;
        rc.swapInterval = recSwapInterval;
        if (r.remaining() >= 4) {
            uint32_t interval = r.u32();
            if (interval != 0)
                rc.swapInterval = interval;
        }
        if (r.remaining() >= 4) {
            std::string selector = r.str(Wire::kMaxName);
            if (!selector.empty())
                rc.selector = std::move(selector);
        }
        recSession = recSvc->begin(name, std::move(rc));
        state = State::Recording;
        // The ack byte stays for clients that check it: always 1.
        PayloadWriter w;
        w.u8(1);
        reply(out, MsgType::RecordOk, w);
        return;
    }
    case MsgType::RecordChunk: {
        // Decode the whole chunk before feeding any of it: a malformed
        // record discards the batch atomically instead of leaving the
        // automaton grown by half a chunk.
        if (ob.recWireBytes != nullptr)
            ob.recWireBytes->inc(frame.size);
        // One framed v2 delta chunk (CRC-checked, batch-decoded) into
        // the session's reused buffer.
        decodeWireChunk(frame.payload, frame.size, recBatch);
        recSession->feedBatch(recBatch.data(), recBatch.size());
        return;
    }
    case MsgType::RecordEnd: {
        PayloadReader r(frame.payload, frame.size);
        r.expectEnd();
        rec::RecordingResultSummary summary = recSession->finish();
        ReplayStats st = recSession->stats();
        recSession.reset();
        state = State::Ready;
        PayloadWriter w;
        w.u64(summary.transitions);
        w.u64(summary.traces);
        w.u64(summary.states);
        w.u64(summary.swaps);
        encodeStats(w, st);
        reply(out, MsgType::RecordResult, w);
        return;
    }
    default:
        // onFrame() admits only the cases above per state.
        panic("session: unhandled message type 0x%02x",
              static_cast<unsigned>(frame.type));
    }
}

} // namespace tea
