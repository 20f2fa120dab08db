#include "net/frame.hh"

#include <algorithm>
#include <cstring>

#include "util/crc32.hh"
#include "util/logging.hh"

namespace tea {

namespace {

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t
getU32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace

void
appendFrame(std::vector<uint8_t> &out, MsgType type,
            const uint8_t *payload, size_t len)
{
    if (len > Wire::kMaxPayload)
        panic("frame payload of %zu bytes exceeds the %u cap", len,
              Wire::kMaxPayload);
    size_t start = out.size();
    putU32(out, static_cast<uint32_t>(1 + len));
    out.push_back(static_cast<uint8_t>(type));
    if (len > 0)
        out.insert(out.end(), payload, payload + len);
    uint32_t crc = crc32(out.data() + start, out.size() - start);
    putU32(out, crc);
}

void
FrameDecoder::feed(const uint8_t *data, size_t len)
{
    if (len == 0)
        return;
    std::memcpy(reserve(len), data, len);
    commit(len);
}

uint8_t *
FrameDecoder::reserve(size_t n)
{
    // Keep the buffer bounded by outstanding (not total) bytes: restart
    // at the front once everything is consumed, and compact once the
    // consumed prefix dominates — then only the tail of the last read
    // (the start of the next frame) moves.
    size_t live = tail - head;
    if (live == 0 || (head > 4096 && head > tail / 2)) {
        if (live != 0)
            std::memmove(buf.get(), buf.get() + head, live);
        head = 0;
        tail = live;
    }
    if (cap - tail < n) {
        size_t want = std::max(live + n, 2 * cap);
        auto grown = std::make_unique_for_overwrite<uint8_t[]>(want);
        if (live != 0)
            std::memcpy(grown.get(), buf.get() + head, live);
        buf = std::move(grown);
        cap = want;
        head = 0;
        tail = live;
    }
    reserved = n;
    return buf.get() + tail;
}

void
FrameDecoder::commit(size_t n)
{
    if (n > reserved)
        panic("frame decoder: commit of %zu bytes exceeds the %zu "
              "reserved",
              n, reserved);
    tail += n;
    reserved = 0;
}

bool
FrameDecoder::poll(FrameView &out)
{
    if (poisoned)
        fatal("frame decoder: stream already failed framing");
    if (buffered() < 4)
        return false;
    const uint8_t *p = buf.get() + head;
    uint32_t bodyLen = getU32(p);
    if (bodyLen == 0 || bodyLen > Wire::kMaxPayload + 1) {
        poisoned = true;
        fatal("frame: bad body length %u", bodyLen);
    }
    size_t total = 4 + static_cast<size_t>(bodyLen) + 4;
    if (buffered() < total)
        return false;
    uint32_t want = getU32(p + 4 + bodyLen);
    uint32_t got = crc32(p, 4 + bodyLen);
    if (want != got) {
        poisoned = true;
        fatal("frame: CRC mismatch (stored 0x%08x, computed 0x%08x)",
              want, got);
    }
    out.type = static_cast<MsgType>(p[4]);
    out.payload = p + 5;
    out.size = bodyLen - 1;
    head += total;
    return true;
}

bool
FrameDecoder::poll(Frame &out)
{
    FrameView v;
    if (!poll(v))
        return false;
    out.type = v.type;
    out.payload.assign(v.payload, v.payload + v.size);
    return true;
}

// --------------------------------------------------------- payload codecs

void
PayloadWriter::u32(uint32_t v)
{
    putU32(bytes, v);
}

void
PayloadWriter::u64(uint64_t v)
{
    putU32(bytes, static_cast<uint32_t>(v));
    putU32(bytes, static_cast<uint32_t>(v >> 32));
}

void
PayloadWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
}

void
PayloadWriter::raw(const uint8_t *data, size_t len)
{
    bytes.insert(bytes.end(), data, data + len);
}

const uint8_t *
PayloadReader::need(size_t n)
{
    if (len - pos < n)
        fatal("payload: truncated (need %zu bytes, have %zu)", n,
              len - pos);
    const uint8_t *p = data + pos;
    pos += n;
    return p;
}

uint8_t
PayloadReader::u8()
{
    return *need(1);
}

uint32_t
PayloadReader::u32()
{
    return getU32(need(4));
}

uint64_t
PayloadReader::u64()
{
    uint64_t lo = u32();
    uint64_t hi = u32();
    return lo | (hi << 32);
}

std::string
PayloadReader::str(size_t maxLen)
{
    uint32_t n = u32();
    if (n > maxLen)
        fatal("payload: string of %u bytes exceeds the %zu limit", n,
              maxLen);
    const uint8_t *p = need(n);
    return std::string(reinterpret_cast<const char *>(p), n);
}

std::vector<uint8_t>
PayloadReader::rest()
{
    const uint8_t *p = data + pos;
    std::vector<uint8_t> out(p, p + remaining());
    pos = len;
    return out;
}

void
PayloadReader::expectEnd() const
{
    if (pos != len)
        fatal("payload: %zu trailing bytes", len - pos);
}

void
encodeStats(PayloadWriter &w, const ReplayStats &st)
{
    w.u64(st.blocks);
    w.u64(st.insnsTotal);
    w.u64(st.insnsInTrace);
    w.u64(st.transitions);
    w.u64(st.intraTraceHits);
    w.u64(st.traceExits);
    w.u64(st.exitsToCold);
    w.u64(st.nteBlocks);
    w.u64(st.localCacheHits);
    w.u64(st.globalLookups);
    w.u64(st.globalHits);
}

void
encodeStatus(PayloadWriter &w, const ServerStatus &st)
{
    w.u32(st.queueDepth);
    w.u32(st.activeSessions);
    w.u64(st.uptimeMs);
}

ServerStatus
decodeStatus(PayloadReader &r)
{
    ServerStatus st;
    st.queueDepth = r.u32();
    st.activeSessions = r.u32();
    st.uptimeMs = r.u64();
    return st;
}

ReplayStats
decodeStats(PayloadReader &r)
{
    ReplayStats st;
    st.blocks = r.u64();
    st.insnsTotal = r.u64();
    st.insnsInTrace = r.u64();
    st.transitions = r.u64();
    st.intraTraceHits = r.u64();
    st.traceExits = r.u64();
    st.exitsToCold = r.u64();
    st.nteBlocks = r.u64();
    st.localCacheHits = r.u64();
    st.globalLookups = r.u64();
    st.globalHits = r.u64();
    return st;
}

} // namespace tea
