#include "net/client.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "svc/tracelog.hh"
#include "tea/serialize.hh"

namespace tea {

namespace {

/**
 * A request's stream frames are framed into one buffer and written
 * together once it reaches this size; the END frame rides the last
 * write, so no request ends on a lone small frame.
 */
constexpr size_t kSendBatch = 1u << 20;

/** The most one read of a reply may land in the frame decoder. */
constexpr size_t kRecvRoom = 64u << 10;

/** Encode one v2 delta chunk and append its RECORD_CHUNK frame. */
void
appendRecordChunk(std::vector<uint8_t> &out, const BlockTransition *batch,
                  size_t n)
{
    std::vector<uint8_t> chunk;
    encodeWireChunk(chunk, batch, n);
    appendFrame(out, MsgType::RecordChunk, chunk);
}

} // namespace

uint32_t
RetryPolicy::delayMs(uint32_t attempt, Xorshift64Star &rng) const
{
    uint64_t base = backoffMs == 0 ? 0 : uint64_t(backoffMs)
                                             << std::min(attempt, 20u);
    base = std::min<uint64_t>(base, maxBackoffMs);
    if (base == 0)
        return 0;
    uint64_t half = base / 2;
    return static_cast<uint32_t>(half + rng.nextBelow(base - half + 1));
}

TeaClient
TeaClient::connect(const std::string &endpoint,
                   const FaultConfig &faults, uint64_t faultSeed)
{
    FaultySocket fs(Socket::connectTo(Endpoint::parse(endpoint)));
    if (faults.any())
        fs.arm(faults, faultSeed);
    TeaClient c(std::move(fs));
    PayloadWriter w;
    w.u32(Wire::kMagic);
    w.u32(Wire::kVersion);
    c.sendFrame(MsgType::Hello, w);
    Frame ok = c.expect(MsgType::HelloOk);
    PayloadReader r(ok.payload);
    uint32_t version = r.u32();
    r.expectEnd();
    if (version != Wire::kVersion)
        fatal("server speaks protocol version %u, want %u", version,
              Wire::kVersion);
    return c;
}

void
TeaClient::sendFrame(MsgType type, const PayloadWriter &w)
{
    std::vector<uint8_t> bytes;
    appendFrame(bytes, type, w.out());
    sock.sendAll(bytes.data(), bytes.size());
}

Frame
TeaClient::recvFrame()
{
    Frame frame;
    while (!decoder.poll(frame)) {
        // Read straight into the decoder: no staging buffer, no copy.
        size_t n = sock.recvSome(decoder.reserve(kRecvRoom), kRecvRoom);
        decoder.commit(n);
        if (n == 0)
            fatal("server closed the connection");
    }
    return frame;
}

Frame
TeaClient::expect(MsgType want)
{
    Frame frame = recvFrame();
    if (frame.type == want)
        return frame;
    if (frame.type == MsgType::Busy) {
        ServerBusy busy("server busy: admission queue full");
        // Newer servers attach {queue depth, session cap}; an empty
        // payload from an older server leaves the hints at 0.
        if (frame.payload.size() >= 8) {
            PayloadReader r(frame.payload);
            busy.queueDepth = r.u32();
            busy.maxSessions = r.u32();
        }
        throw busy;
    }
    if (frame.type == MsgType::Error) {
        PayloadReader r(frame.payload);
        r.u8(); // fatal flag; either way this request is over
        fatal("server error: %s", r.str(64 * 1024).c_str());
    }
    fatal("unexpected reply type 0x%02x",
          static_cast<unsigned>(frame.type));
}

void
TeaClient::putAutomaton(const std::string &name,
                        const std::vector<uint8_t> &teaImage)
{
    PayloadWriter w;
    w.str(name);
    w.raw(teaImage.data(), teaImage.size());
    sendFrame(MsgType::PutAutomaton, w);
    expect(MsgType::PutOk);
}

void
TeaClient::putAutomaton(const std::string &name, const Tea &tea)
{
    putAutomaton(name, saveTea(tea));
}

std::vector<std::string>
TeaClient::list()
{
    std::vector<std::string> names;
    for (ListEntry &e : listEntries())
        names.push_back(std::move(e.name));
    return names;
}

std::vector<TeaClient::ListEntry>
TeaClient::listEntries()
{
    sendFrame(MsgType::List, PayloadWriter{});
    Frame ok = expect(MsgType::ListOk);
    PayloadReader r(ok.payload);
    uint32_t count = r.u32();
    std::vector<ListEntry> entries;
    entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        entries.push_back(ListEntry{r.str(Wire::kMaxName), true});
    // Store-backed servers append one residency marker per name; the
    // decode is tolerant (like BUSY's hint fields) so either side may
    // predate the other without a version bump.
    if (r.remaining() >= count)
        for (uint32_t i = 0; i < count; ++i)
            entries[i].resident = r.u8() != 0;
    return entries;
}

ServerStatus
TeaClient::ping()
{
    sendFrame(MsgType::Ping, PayloadWriter{});
    Frame pong = expect(MsgType::Pong);
    PayloadReader r(pong.payload);
    ServerStatus st = decodeStatus(r);
    r.expectEnd();
    return st;
}

std::string
TeaClient::stats(bool text)
{
    PayloadWriter w;
    w.u8(text ? 1 : 0);
    sendFrame(MsgType::Stats, w);
    Frame ok = expect(MsgType::StatsOk);
    return std::string(ok.payload.begin(), ok.payload.end());
}

bool
TeaClient::evict(const std::string &name)
{
    PayloadWriter w;
    w.str(name);
    sendFrame(MsgType::Evict, w);
    Frame ok = expect(MsgType::EvictOk);
    PayloadReader r(ok.payload);
    bool found = r.u8() != 0;
    r.expectEnd();
    return found;
}

RemoteReplayResult
TeaClient::replay(const std::string &name, const uint8_t *log,
                  size_t len, RemoteReplayOptions opt)
{
    PayloadWriter begin;
    begin.str(name);
    uint8_t flags = 0;
    if (opt.wantProfile)
        flags |= ReplayFlags::kProfile;
    if (opt.noGlobal)
        flags |= ReplayFlags::kNoGlobal;
    if (opt.noLocal)
        flags |= ReplayFlags::kNoLocal;
    if (opt.reference)
        flags |= ReplayFlags::kReference;
    begin.u8(flags);
    sendFrame(MsgType::ReplayBegin, begin);
    // Wait for the ack before streaming: an unknown name fails here,
    // with no log bytes wasted on the wire.
    expect(MsgType::ReplayOk);

    // Frame the chunks straight from the caller's log into one send
    // buffer, flushed at kSendBatch; REPLAY_END rides the last write.
    // The largest batch is under kSendBatch plus one chunk frame, plus
    // a few 9-byte frame headers and trailers.
    std::vector<uint8_t> wire;
    wire.reserve(std::min(len, kSendBatch + Wire::kReplayChunk) + 64);
    for (size_t off = 0; off < len;) {
        size_t n = std::min(Wire::kReplayChunk, len - off);
        appendFrame(wire, MsgType::ReplayChunk, log + off, n);
        off += n;
        if (wire.size() >= kSendBatch && off < len) {
            sock.sendAll(wire.data(), wire.size());
            wire.clear();
        }
    }
    appendFrame(wire, MsgType::ReplayEnd, nullptr, 0);
    sock.sendAll(wire.data(), wire.size());

    Frame result = expect(MsgType::ReplayResult);
    PayloadReader r(result.payload);
    RemoteReplayResult out;
    out.stats = decodeStats(r);
    if (r.u8() != 0) {
        uint32_t states = r.u32();
        out.execCounts.reserve(states);
        for (uint32_t i = 0; i < states; ++i)
            out.execCounts.push_back(r.u64());
    }
    r.expectEnd();
    return out;
}

void
TeaClient::recordBegin(const std::string &name, RemoteRecordOptions opt)
{
    PayloadWriter w;
    w.str(name);
    w.u8(RecordFlags::kChunksV2);
    w.u32(opt.swapInterval);
    w.str(opt.selector);
    sendFrame(MsgType::RecordBegin, w);
    // Wait for the ack before streaming: a claimed name or unknown
    // selector fails here, with no transitions wasted on the wire.
    Frame ok = expect(MsgType::RecordOk);
    if (ok.payload.empty() || (ok.payload[0] & 1) == 0)
        fatal("server did not acknowledge v2 record chunks");
}

void
TeaClient::recordChunk(const BlockTransition *batch, size_t n)
{
    std::vector<uint8_t> wire;
    appendRecordChunk(wire, batch, n);
    sock.sendAll(wire.data(), wire.size());
}

RemoteRecordResult
TeaClient::recordEnd()
{
    sendFrame(MsgType::RecordEnd, PayloadWriter{});
    return recordResult();
}

RemoteRecordResult
TeaClient::recordResult()
{
    Frame result = expect(MsgType::RecordResult);
    PayloadReader r(result.payload);
    RemoteRecordResult out;
    out.transitions = r.u64();
    out.traces = r.u64();
    out.states = r.u64();
    out.swaps = r.u64();
    out.stats = decodeStats(r);
    r.expectEnd();
    return out;
}

RemoteRecordResult
TeaClient::record(const std::string &name,
                  const std::vector<BlockTransition> &trs,
                  RemoteRecordOptions opt)
{
    recordBegin(name, opt);
    // A chunk carries a record count, so split on count: a writer-sized
    // chunk encodes far below the frame cap. Each chunk but the last
    // goes out on its own, so the server decodes one while the next is
    // encoded here; the last stays in `wire` for RECORD_END to join.
    constexpr size_t kStep = TraceLogFormat::kChunkRecords;
    std::vector<uint8_t> wire;
    for (size_t off = 0; off < trs.size(); off += kStep) {
        wire.clear();
        appendRecordChunk(wire, trs.data() + off,
                          std::min(kStep, trs.size() - off));
        if (off + kStep < trs.size())
            sock.sendAll(wire.data(), wire.size());
    }
    appendFrame(wire, MsgType::RecordEnd, nullptr, 0);
    sock.sendAll(wire.data(), wire.size());
    return recordResult();
}

HttpReply
httpGet(const std::string &endpoint, const std::string &target)
{
    Socket s = Socket::connectTo(Endpoint::parse(endpoint));
    std::string req = "GET " + target +
                      " HTTP/1.1\r\n"
                      "Host: tead\r\nConnection: close\r\n\r\n";
    s.sendAll(req.data(), req.size());
    std::string resp;
    char buf[4096];
    for (size_t n; (n = s.recvSome(buf, sizeof(buf))) != 0;) {
        resp.append(buf, n);
        // A BUSY frame is known by its first bytes; stop before the
        // server's close can turn into a reset.
        if (resp.size() >= 7 && resp.compare(0, 7, "HTTP/1.") != 0)
            break;
    }
    if (resp.compare(0, 7, "HTTP/1.") != 0)
        fatal("GET %s: reply is not HTTP (%zu bytes)", target.c_str(),
              resp.size());
    size_t end = resp.find("\r\n\r\n");
    if (end == std::string::npos)
        fatal("GET %s: truncated HTTP header block", target.c_str());
    HttpReply reply;
    reply.status = std::atoi(resp.c_str() + resp.find(' ') + 1);
    reply.headers = resp.substr(0, end);
    reply.body = resp.substr(end + 4);
    return reply;
}

RemoteReplayResult
replayWithRetry(const RemoteReplayJob &job, const RetryPolicy &policy,
                uint32_t *attemptsOut)
{
    Xorshift64Star jitter(policy.seed);
    for (uint32_t attempt = 0;; ++attempt) {
        try {
            // A fresh connection per attempt: the previous one may be
            // half-dead, mid-frame, or poisoned by corruption. The
            // fault seed shifts with the attempt so a chaos retry does
            // not deterministically replay the same injected failure.
            TeaClient c = TeaClient::connect(job.endpoint, job.faults,
                                             job.faultSeed + attempt);
            if (job.teaImage != nullptr)
                c.putAutomaton(job.name, *job.teaImage);
            RemoteReplayResult out =
                c.replay(job.name, job.log, job.len, job.opt);
            if (attemptsOut != nullptr)
                *attemptsOut = attempt + 1;
            return out;
        } catch (const FatalError &) {
            // ServerBusy and every transport-level failure land here.
            // Replay never mutates server state, so retrying from
            // scratch is always safe; a *semantic* rejection (unknown
            // name, corrupt log) also lands here and simply fails
            // `retries` more times — acceptable for a bounded count.
            if (attempt >= policy.retries) {
                if (attemptsOut != nullptr)
                    *attemptsOut = attempt + 1;
                throw;
            }
        }
        uint32_t ms = policy.delayMs(attempt, jitter);
        if (ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
}

} // namespace tea
