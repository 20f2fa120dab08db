/**
 * @file
 * The tead wire protocol: length-prefixed, CRC-protected frames.
 *
 * Every message on a connection — in either direction — is one frame:
 *
 *   u32 body length       ; 1 (type byte) + payload bytes, ≤ 64 MiB + 1
 *   u8  message type      ; MsgType
 *   payload               ; message-specific, see docs/FORMATS.md
 *   u32 CRC-32            ; over the length field AND the body
 *
 * All integers are little endian, matching the repo's other formats.
 * The CRC covers the length prefix so a corrupted length cannot
 * reframe the stream undetected: whatever bytes the corrupt length
 * selects as a "frame", the checksum was computed over different ones.
 *
 * The decoder is a pure byte-stream machine with no socket knowledge,
 * which is what makes the protocol fuzzable in-process
 * (tests/test_net_fuzz.cc): feed() any byte salad, poll() either
 * yields intact frames or throws FatalError — never returns a frame
 * whose checksum did not verify, and never allocates more than the
 * frame cap no matter what the length field claims.
 *
 * A session is a conversation of frames:
 *
 *   client: HELLO {magic, version}     server: HELLO_OK | BUSY | ERROR
 *   client: PUT_AUTOMATON {name, tea}  server: PUT_OK | ERROR
 *   client: LIST                       server: LIST_OK
 *   client: EVICT {name}               server: EVICT_OK
 *   client: PING                       server: PONG {status}
 *   client: STATS [format]             server: STATS_OK {report bytes}
 *   client: REPLAY_BEGIN {name, flags} server: REPLAY_OK | ERROR
 *   client: REPLAY_CHUNK {log bytes}*  (no reply per chunk)
 *   client: REPLAY_END                 server: REPLAY_STATS | ERROR
 *   client: RECORD_BEGIN {name, ...}   server: RECORD_OK | ERROR
 *   client: RECORD_CHUNK {v2 chunk}*   (no reply per chunk)
 *   client: RECORD_END                 server: RECORD_RESULT | ERROR
 *
 * RECORD grows an automaton server-side from a streamed transition
 * sequence (rec/recording.hh): BEGIN claims the name (one live
 * recording per name), each CHUNK carries transition records that are
 * decoded and fed as one atomic batch, and END publishes the final
 * snapshot and answers with the recording summary plus the recorder's
 * ReplayStats. The verbs follow the PING/STATS versionless-growth
 * pattern — same protocol version, and an older server answers
 * RECORD_BEGIN with its defined unknown-type fatal ERROR, which the
 * client reports as "server too old". A mid-recording disconnect
 * abandons the session: the last hot-swapped snapshot stays installed
 * and the partial batch is discarded.
 *
 * Each RECORD_CHUNK payload is one framed encodeWireChunk() v2 delta
 * chunk (svc/tracelog.hh) — revisited blocks cost 2-4 wire bytes
 * instead of ~15. RECORD_BEGIN must set RecordFlags::kChunksV2; a
 * server answers a RECORD_BEGIN without it with a non-fatal ERROR and
 * claims no name, and RECORD_OK's ack byte is always 1. Streamed
 * REPLAY needs no flag: REPLAY_CHUNK carries `.tlog` bytes verbatim,
 * so a v2 log shrinks the wire by itself.
 *
 * BUSY may carry a payload (queue depth + max-sessions hint) since the
 * resilience work; it was empty in the first deployment, so readers
 * must tolerate both shapes. PING/PONG are liveness probes for load
 * balancers and the chaos tests: PONG reports queue depth, active
 * sessions, and uptime. Both ride on the unchanged protocol version —
 * an older server answers PING with its defined unknown-type behavior
 * (a fatal ERROR), which a prober treats as "alive, but old".
 *
 * STATS follows the same versionless pattern: its payload is an
 * optional u8 format selector (1 = text; absent or any other byte =
 * JSON; extra bytes are ignored so the request can grow fields), and
 * STATS_OK carries the rendered metrics snapshot as raw bytes. The
 * history and flight-recorder documents are HTTP resources on the same
 * listener (GET /history.json, GET /flight.json), not STATS formats.
 * An old server answers with the unknown-type fatal ERROR, which
 * `teadbt stats` reports as "server too old".
 *
 * ERROR carries a "fatal" flag: requests that merely failed (unknown
 * automaton, corrupt TEA bytes, corrupt log) keep the session alive;
 * protocol violations (bad magic, bad CRC, message out of order) close
 * the connection right after the ERROR frame.
 */

#ifndef TEA_NET_FRAME_HH
#define TEA_NET_FRAME_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tea/replayer.hh"

namespace tea {

/** Protocol constants shared by client, server, and the fuzz tests. */
struct Wire
{
    static constexpr uint32_t kMagic = 0x5445414e; // "TEAN"
    static constexpr uint32_t kVersion = 1;
    /** Hard cap on one frame's payload (PUT_AUTOMATON is the largest). */
    static constexpr uint32_t kMaxPayload = 64u << 20;
    /** Longest accepted automaton name. */
    static constexpr size_t kMaxName = 256;
    /**
     * Per-stream budget of REPLAY_CHUNK payload bytes: counted, not
     * held (the server walks a stream as it arrives and keeps about
     * one `.tlog` chunk); the frame that crosses it closes the session.
     */
    static constexpr uint64_t kMaxLogBytes = 256ull << 20;
    /** Client-side split size for REPLAY_CHUNK frames. */
    static constexpr size_t kReplayChunk = 256u << 10;
};

enum class MsgType : uint8_t {
    Hello = 0x01,
    HelloOk = 0x02,
    Busy = 0x03,
    Error = 0x04,
    Ping = 0x05,
    Pong = 0x06,
    Stats = 0x07,
    StatsOk = 0x08,
    PutAutomaton = 0x10,
    PutOk = 0x11,
    List = 0x12,
    /**
     * u32 count, then `count` names. Store-backed servers append one
     * u8 residency marker per name after the name block (1 = resident
     * in RAM, 0 = cold `.teac` image); decoded tolerantly, like BUSY's
     * hint fields, so the growth needs no version bump.
     */
    ListOk = 0x13,
    Evict = 0x14,
    EvictOk = 0x15,
    ReplayBegin = 0x20,
    ReplayOk = 0x21,
    ReplayChunk = 0x22,
    ReplayEnd = 0x23,
    ReplayResult = 0x24,
    /**
     * str name, u8 flags (RecordFlags; kChunksV2 must be set, other
     * bits are ignored), then optional growth fields decoded tolerantly
     * like BUSY's hints: u32 swap interval (0 = server default) and str
     * selector (empty = server default). Extra bytes are ignored.
     */
    RecordBegin = 0x30,
    /** u8 ack, always 1 (bit 0: v2 chunks accepted). */
    RecordOk = 0x31,
    /** One framed v2 delta chunk (encodeWireChunk, svc/tracelog.hh). */
    RecordChunk = 0x32,
    RecordEnd = 0x33,
    /** u64 transitions, u64 traces, u64 states, u64 swaps, then the
     *  recorder's ReplayStats (encodeStats layout). */
    RecordResult = 0x34,
};

/** REPLAY_BEGIN flag bits. */
struct ReplayFlags
{
    static constexpr uint8_t kProfile = 1u << 0;  ///< return execCounts
    static constexpr uint8_t kNoGlobal = 1u << 1; ///< LookupConfig
    static constexpr uint8_t kNoLocal = 1u << 2;  ///< LookupConfig
    /**
     * Replay on the reference (pointer-chasing) kernel instead of the
     * compiled flat kernel. Results are bit-identical either way; the
     * flag exists for ablation and cross-checking. Absent (the
     * default) means the server replays against its shared CompiledTea.
     */
    static constexpr uint8_t kReference = 1u << 3;
};

/** RECORD_BEGIN flag bits (unknown bits are ignored server-side). */
struct RecordFlags
{
    /**
     * RECORD_CHUNK frames carry framed v2 delta chunks
     * (encodeWireChunk). Mandatory: the server refuses a RECORD_BEGIN
     * without it, and acknowledges it with RECORD_OK's u8 1.
     */
    static constexpr uint8_t kChunksV2 = 1u << 0;
};

/** One decoded frame, owning a copy of its payload. */
struct Frame
{
    MsgType type;
    std::vector<uint8_t> payload;
};

/**
 * One decoded frame, viewed in place in the FrameDecoder's buffer:
 * `payload` stays valid until the next feed() or reserve() on that
 * decoder. Later poll() calls never move it, so several views from
 * one batch of bytes hold their bytes side by side.
 */
struct FrameView
{
    MsgType type;
    const uint8_t *payload = nullptr;
    size_t size = 0;
};

/** Append one encoded frame to `out`. @throws PanicError when oversize. */
void appendFrame(std::vector<uint8_t> &out, MsgType type,
                 const uint8_t *payload, size_t len);

inline void
appendFrame(std::vector<uint8_t> &out, MsgType type,
            const std::vector<uint8_t> &payload)
{
    appendFrame(out, type, payload.data(), payload.size());
}

/**
 * Incremental frame extraction from a byte stream.
 *
 * feed() appends raw bytes; poll() pops the next complete frame.
 * Malformed framing — zero or oversize length, CRC mismatch — throws
 * FatalError and poisons the decoder (every later poll() rethrows),
 * because nothing after a framing error can be trusted.
 *
 * There is one parser with two accessors: poll(FrameView &) hands out
 * a view into the buffer (the server's Session walks a REPLAY_CHUNK
 * into the replayer where it lies), and poll(Frame &) wraps it with an
 * owning copy for callers that keep frames past the next feed()
 * (TeaClient).
 *
 * Bytes enter two ways: feed() copies them in, and the reserve()/
 * commit() pair lets a socket read land in the buffer directly — the
 * read path of the server and of TeaClient, where every wire byte is
 * read once and copied nowhere before it is parsed.
 */
class FrameDecoder
{
  public:
    /** Append bytes. Invalidates every FrameView polled before it. */
    void feed(const uint8_t *data, size_t len);

    /**
     * Room for `n` more bytes at the buffer's tail: write up to `n`
     * bytes there, then commit() how many. Invalidates every FrameView
     * polled before it, as feed() does. The room is uninitialized
     * memory, so an idle connection's unwritten room costs no
     * resident pages.
     */
    uint8_t *reserve(size_t n);

    /** Append the first `n` bytes written into the last reserve(). */
    void commit(size_t n);

    /**
     * @return true and point `out` into the buffer when a complete
     *         frame is buffered; the view lives until the next feed()
     *         or reserve()
     * @throws FatalError on malformed framing
     */
    bool poll(FrameView &out);

    /** poll(FrameView &), then copy the payload into `out`. */
    bool poll(Frame &out);

    /** True when no partial frame is buffered (a clean cut point). */
    bool atBoundary() const { return tail == head; }

    /** Bytes buffered but not yet consumed. */
    size_t buffered() const { return tail - head; }

  private:
    std::unique_ptr<uint8_t[]> buf; ///< uninitialized past `tail`
    size_t cap = 0;      ///< bytes allocated at buf
    size_t head = 0;     ///< consumed prefix of buf
    size_t tail = 0;     ///< end of the buffered bytes
    size_t reserved = 0; ///< room handed out by the last reserve()
    bool poisoned = false;
};

// --------------------------------------------------------- payload codecs

/** Little-endian payload builder for frame payloads. */
class PayloadWriter
{
  public:
    void u8(uint8_t v) { bytes.push_back(v); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    /** u32 length + raw bytes. */
    void str(const std::string &s);
    /** Raw bytes, no length prefix (must be the payload's tail). */
    void raw(const uint8_t *data, size_t len);

    const std::vector<uint8_t> &out() const { return bytes; }

  private:
    std::vector<uint8_t> bytes;
};

/**
 * Little-endian payload parser. Underruns, over-long strings, and
 * trailing garbage (via expectEnd) throw FatalError, so a malformed
 * payload can never be partially applied.
 */
class PayloadReader
{
  public:
    PayloadReader(const uint8_t *payload, size_t size)
        : data(payload), len(size)
    {
    }

    explicit PayloadReader(const std::vector<uint8_t> &payload)
        : PayloadReader(payload.data(), payload.size())
    {
    }

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    /** u32 length + bytes; @throws FatalError when longer than maxLen. */
    std::string str(size_t maxLen);
    /** Everything not yet consumed. */
    std::vector<uint8_t> rest();

    size_t remaining() const { return len - pos; }
    /** @throws FatalError unless the payload was fully consumed. */
    void expectEnd() const;

  private:
    const uint8_t *need(size_t n);

    const uint8_t *data;
    size_t len;
    size_t pos = 0;
};

/** Encode ReplayStats as 11 u64 fields in declaration order. */
void encodeStats(PayloadWriter &w, const ReplayStats &st);

/** Decode the encodeStats() layout. @throws FatalError on underrun. */
ReplayStats decodeStats(PayloadReader &r);

/** The PONG liveness snapshot (and the server-side provider's view). */
struct ServerStatus
{
    uint32_t queueDepth = 0;     ///< consume tasks waiting for a worker
    uint32_t activeSessions = 0; ///< connections currently served
    uint64_t uptimeMs = 0;       ///< since the server started
};

/** Encode ServerStatus as u32, u32, u64. */
void encodeStatus(PayloadWriter &w, const ServerStatus &st);

/** Decode the encodeStatus() layout. @throws FatalError on underrun. */
ServerStatus decodeStatus(PayloadReader &r);

} // namespace tea

#endif // TEA_NET_FRAME_HH
