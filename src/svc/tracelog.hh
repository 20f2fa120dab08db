/**
 * @file
 * The streaming trace-log format: a recorded BlockTransition stream.
 *
 * This is the "record in one system, replay in another" transport: the
 * recording side hooks a TraceLogWriter behind its BlockTracker and
 * ships the resulting file; the replay side streams it back through a
 * TraceLogReader into a TeaReplayer — no guest program, VM, or even ISA
 * required on the replay host.
 *
 * On-disk layout (little endian; varints are LEB128, see
 * docs/FORMATS.md for the normative description):
 *
 *   u32 magic 'TEAL'   u32 version (1 or 2)
 *   chunk*:  u32 record count (> 0)
 *            [v2] u8 encoding   ; 0 raw, 1 delta, 2 elided
 *            u32 payload bytes
 *            payload
 *            u32 CRC-32         ; v1: payload only, v2: header+payload
 *   trailer: u32 0          ; chunk with record count 0 = end marker
 *            u64 total record count
 *
 * Version 1 encodes every record standalone (~15 bytes); the reader
 * accepts it forever, and the writer still emits it as the baseline
 * that compression ratios are measured against. Version 2 — the
 * writer default — compresses three ways, each chunk self-contained
 * (the codec state resets at every chunk boundary, so salvage still
 * recovers whole chunks):
 *
 * - *delta records*: `from.start` is implied by (or a zigzag delta
 *   from) the previous record's `toStart`, and a per-chunk dictionary
 *   keyed by start address replaces the span/icount of a revisited
 *   block, so the steady-state record is 2–4 bytes;
 * - *automaton-predicted elision* (opt-in via
 *   TraceLogOptions::elideWith): the chunk leads with a bitset, one
 *   bit per record; a 1-bit costs no payload at all — the reader
 *   replays the same CompiledTea to reconstruct the record the DFA
 *   fully determines — and a 0-bit falls back to an explicit delta
 *   record (cold blocks, trace entries/exits, halts);
 * - one codec loop per chunk, with one bounds check per record region
 *   instead of one per byte. decodeChunk() stores the records in a
 *   caller-provided vector; TraceLogPushReader hands each one to the
 *   transition kernel as it is decoded, so a strict replay of a
 *   CRC-validated chunk stores no decoded records at all.
 *
 * A strict replay (every served REPLAY, every non-salvage job of the
 * replay service, svc/replay_service.hh) runs through
 * TraceLogPushReader: bytes are pushed as they arrive, each chunk whose
 * frame is complete is checked (framing, CRC) and walked into the
 * replayer where it lies, and only an incomplete chunk frame is held
 * back — a served replay holds about one chunk, never the log. The
 * reader stamps its phase clock around each step: three clock reads
 * per chunk of up to kChunkRecords records, none per record.
 *
 * The explicit trailer makes truncation detectable: a reader that hits
 * EOF before the end marker (or whose summed chunk counts disagree with
 * the trailer) reports FatalError instead of silently replaying a
 * partial stream. Per-chunk CRCs catch payload bit-rot without forcing
 * the reader to buffer the whole file.
 */

#ifndef TEA_SVC_TRACELOG_HH
#define TEA_SVC_TRACELOG_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "vm/block.hh"

namespace tea {

class CompiledTea;
class MappedFile;
class TeaReplayer;

/** Trace-log container constants (shared by writer, reader, tests). */
struct TraceLogFormat
{
    static constexpr uint32_t kMagic = 0x5445414c; // "TEAL"
    /** What the writer emits by default. */
    static constexpr uint32_t kVersion = 2;
    /** The uncompressed legacy container; readable forever. */
    static constexpr uint32_t kVersionV1 = 1;
    /** Writer flushes a chunk at this many records. */
    static constexpr uint32_t kChunkRecords = 4096;
    /**
     * Reader-side cap on one v2 chunk's record count. An elided chunk
     * frames up to 8 records per payload byte, so without a cap a
     * small forged header could demand a multi-gigabyte decode
     * allocation. Writers flush at kChunkRecords; the cap leaves 256x
     * headroom for other producers. (v1 chunks are implicitly bounded:
     * every record costs at least one payload byte.)
     */
    static constexpr uint32_t kMaxChunkRecords = 1u << 20;
};

/** How one v2 chunk's payload encodes its records. */
enum class ChunkEncoding : uint8_t
{
    Raw = 0,   ///< concatenated v1 records
    Delta = 1, ///< delta + dictionary records
    Elided = 2 ///< prediction bitset + explicit delta fallbacks
};

/**
 * A borrowed view of one chunk's decoded framing. The reader,
 * inspectTraceLog() and decodeWireChunk() parse every chunk frame
 * through one function that checks its head, limits and CRC, then hand
 * the payload here for batch decode.
 */
struct TraceChunkView
{
    uint32_t records = 0;
    ChunkEncoding encoding = ChunkEncoding::Raw;
    const uint8_t *payload = nullptr;
    size_t size = 0; ///< payload bytes
};

/**
 * Batch-decode one CRC-validated chunk, appending exactly
 * `chunk.records` transitions to `out`. This is the hot decode kernel:
 * a pointer cursor with a fast varint path that checks bounds once per
 * record region, not per byte. Elided chunks need the same
 * `automaton` the writer was seeded with; passing nullptr for one
 * throws. Every malformed payload — truncation, overlong varints,
 * out-of-range deltas, dictionary misses, reserved tag bits, an
 * elided bit the automaton cannot predict, trailing bytes — throws
 * FatalError with nothing partially appended beyond the failing
 * record.
 */
void decodeChunk(const TraceChunkView &chunk,
                 const CompiledTea *automaton,
                 std::vector<BlockTransition> &out);

/**
 * Encode `n` transitions as one chunk payload (no container header or
 * CRC — the writer and the wire frame it). Elided encoding requires
 * `automaton`; Raw and Delta ignore it.
 */
void encodeChunkPayload(std::vector<uint8_t> &out,
                        ChunkEncoding encoding,
                        const BlockTransition *batch, size_t n,
                        const CompiledTea *automaton = nullptr);

/**
 * The wire RECORD_CHUNK payload (net/frame.hh): one self-contained
 * framed chunk (v2 chunk header + delta payload + CRC-32 over both),
 * so a batch of revisited blocks costs 2–4 bytes each on the wire
 * instead of ~15. The writer frames its chunks with the same code.
 */
void encodeWireChunk(std::vector<uint8_t> &out,
                     const BlockTransition *batch, size_t n);

/**
 * Decode one encodeWireChunk() payload into `out`, replacing what it
 * held (its capacity is kept, so a caller that reuses one buffer
 * decodes without allocating). @throws FatalError on any framing or
 * codec defect (truncation, CRC mismatch, trailing bytes, malformed
 * records); `out` is then unspecified, so a caller feeds it only after
 * a clean return and never sees part of a malformed chunk.
 */
void decodeWireChunk(const uint8_t *data, size_t len,
                     std::vector<BlockTransition> &out);

/** decodeWireChunk() into a fresh vector. */
std::vector<BlockTransition> decodeWireChunk(const uint8_t *data,
                                             size_t len);

/** Writer knobs; the default writes v2 delta chunks. */
struct TraceLogOptions
{
    /** kVersion (2) or kVersionV1 (1). */
    uint32_t version = TraceLogFormat::kVersion;
    /**
     * Seed the writer with a compiled automaton to emit Elided chunks
     * (v2 only): transitions the DFA fully determines cost one bitset
     * bit. The reader must be handed the same automaton to decode.
     */
    std::shared_ptr<const CompiledTea> elideWith;
};

/**
 * Appends BlockTransitions to a chunked log.
 *
 * Hook it behind a BlockTracker callback; call finish() (or let the
 * destructor do it) to emit the trailer. A log without its trailer is
 * deliberately unreadable — crash-truncated recordings must not replay
 * as if complete. File output is buffered: chunks accumulate in
 * memory and reach the OS in >=256 KiB writes (one syscall per many
 * chunks, not three per chunk); finish() drains and flushes.
 */
class TraceLogWriter
{
  public:
    /** Write to a file. @throws FatalError when the file can't open. */
    explicit TraceLogWriter(const std::string &path,
                            TraceLogOptions options = {});

    /** Write into a caller-owned buffer (tests, benches, the wire). */
    explicit TraceLogWriter(std::vector<uint8_t> *sink,
                            TraceLogOptions options = {});

    /** Calls finish() if the caller has not. */
    ~TraceLogWriter();

    TraceLogWriter(const TraceLogWriter &) = delete;
    TraceLogWriter &operator=(const TraceLogWriter &) = delete;

    /** Append one record. @throws PanicError after finish(). */
    void append(const BlockTransition &tr);

    /** Flush the open chunk and write the trailer; idempotent. */
    void finish();

    /** Records appended so far. */
    uint64_t records() const { return total; }

    /**
     * Encoded log bytes produced so far (header + completed chunks;
     * + trailer once finish() ran). Counted as chunks are encoded, so
     * benches and rec.* metrics report bytes without stat-ing the
     * file; bytes still in the write buffer are included.
     */
    uint64_t flushedBytes() const { return flushed; }

    /** The container version being written (1 or 2). */
    uint32_t version() const { return opts.version; }

  private:
    void writeHeader();
    void emit(const uint8_t *data, size_t len);
    void flushChunk();
    void drainToFile(bool force);

    TraceLogOptions opts;
    std::ofstream file;
    std::vector<uint8_t> *mem = nullptr;
    std::string path; ///< for error messages; empty for memory sinks
    std::vector<BlockTransition> pending; ///< open chunk's records
    std::vector<uint8_t> obuf;    ///< buffered file bytes
    std::vector<uint8_t> scratch; ///< encoded-chunk staging
    uint64_t total = 0;
    uint64_t flushed = 0;
    bool finished = false;
};

/**
 * Streams a trace log back, validating as it goes.
 *
 * Decodes one chunk at a time: the CRC of a chunk is checked before any
 * of its records are surfaced, and the trailer is checked when the last
 * chunk is consumed — next() never returns data from a corrupt or
 * truncated region. In the default Strict mode all corruption surfaces
 * as FatalError.
 *
 * Salvage mode recovers what a torn log still proves: the longest
 * prefix of complete, CRC-valid chunks. The first chunk that fails any
 * check (truncated header or payload, CRC mismatch, malformed record,
 * an elided chunk with no automaton to decode it, missing or
 * inconsistent trailer) ends the stream instead of throwing; next()
 * then returns false and torn() reports what happened. Records already
 * surfaced are exactly the strict-mode prefix — salvage never yields a
 * byte strict mode would reject. Because the tail beyond the tear is
 * unframed, the number of *lost* records is unknowable;
 * bytesDiscarded() reports the raw byte count instead. A file that is
 * damaged before any content — bad magic or version — still throws in
 * either mode: there is nothing to salvage.
 *
 * Elided chunks reconstruct through the `automaton` passed at
 * construction, which must be the automaton the writer was seeded
 * with; it is borrowed, so the caller keeps it alive (ReplayJob pins
 * its snapshot for exactly this reason). Logs without elided chunks
 * decode with no automaton at all.
 */
class TraceLogReader
{
  public:
    enum class Mode
    {
        Strict, ///< any defect throws FatalError
        Salvage ///< recover the valid chunk prefix of a torn log
    };

    /** Take ownership of an in-memory log. @throws FatalError. */
    explicit TraceLogReader(std::vector<uint8_t> bytes,
                            Mode mode = Mode::Strict,
                            const CompiledTea *automaton = nullptr);

    /**
     * Borrow an in-memory log (no copy). The buffer must outlive the
     * reader — the replay service reads a salvage job's buffer this way.
     */
    TraceLogReader(const uint8_t *data, size_t len,
                   Mode mode = Mode::Strict,
                   const CompiledTea *automaton = nullptr);

    /** mmap a log file (no read-ahead copy) and open it. */
    static TraceLogReader openFile(const std::string &path,
                                   Mode mode = Mode::Strict,
                                   const CompiledTea *automaton = nullptr);

    /**
     * Fetch the next record.
     * @return false at the end of the log: validated end in Strict
     *         mode, validated end *or* the tear in Salvage mode
     * @throws FatalError on any corruption or truncation (Strict mode)
     */
    bool next(BlockTransition &out);

    /**
     * Batch access: decode and surface the next whole chunk. The
     * returned vector is owned by the reader and valid until the next
     * nextChunk()/next() call. Do not mix with next() mid-chunk (the
     * current chunk must be fully drained first).
     * @return nullptr at the end of the log (or the tear, in Salvage)
     */
    const std::vector<BlockTransition> *nextChunk();

    /**
     * Replay access, step 1: check the next chunk's framing and CRC
     * (at the end, the trailer) without decoding a record. Follow each
     * true return with exactly one replayChunk().
     * @return false at the end of the log (or the tear, in Salvage)
     * @throws FatalError on a framing, CRC or trailer defect (Strict)
     */
    bool validateChunk();

    /**
     * Replay access, step 2: decode the validated chunk whole, then
     * feed it to `replayer`, so a chunk that fails to decode feeds
     * nothing: in Salvage mode it ends the stream, in Strict mode it
     * throws FatalError. This is the salvage replay; a strict replay
     * needs no such atomicity and walks each record into the kernel as
     * it decodes, through TraceLogPushReader.
     * @return false when the chunk tore (Salvage only)
     */
    bool replayChunk(TeaReplayer &replayer);

    /** The container version of the open log (1 or 2). */
    uint32_t version() const { return version_; }

    /** Records surfaced so far (returned, or fed by replayChunk()). */
    uint64_t recordsRead() const { return surfaced; }

    /** Salvage mode only: did the stream end at a tear? */
    bool torn() const { return torn_; }

    /** Why the log tore (empty unless torn()). */
    const std::string &tornReason() const { return tornReason_; }

    /** Bytes after the last valid chunk, dropped by salvage. */
    uint64_t bytesDiscarded() const { return discarded; }

  private:
    void readHeader();
    /** Decode the validated chunk into `chunk`; false on a tear. */
    bool decodeValidated();
    /** Salvage: end the stream at the chunk starting at chunkStart. */
    void tear(const char *why);

    std::vector<uint8_t> owned; ///< backing store for the owning ctor
    std::shared_ptr<const MappedFile> map; ///< backing store, openFile
    const uint8_t *data = nullptr;
    size_t len = 0;
    const CompiledTea *automaton = nullptr;
    uint32_t version_ = 0;
    size_t cursor = 0;
    size_t chunkStart = 0; ///< offset of the chunk being read
    TraceChunkView view;   ///< the validated chunk, not yet decoded
    bool validated = false;
    std::vector<BlockTransition> chunk; ///< decoded records of one chunk
    size_t chunkPos = 0;
    uint64_t surfaced = 0; ///< records returned or replayed
    uint64_t decoded = 0;  ///< records in validated chunks (trailer check)
    bool done = false;
    Mode mode = Mode::Strict;
    bool torn_ = false;
    std::string tornReason_;
    uint64_t discarded = 0;
};

/** Per-phase wall-clock totals of a replay, stamped once per chunk. */
struct ChunkWalkTimes
{
    uint64_t validateNs = 0; ///< chunk framing + CRC, and the trailer
    uint64_t walkNs = 0;     ///< decode + transition walk
    uint64_t chunks = 0;     ///< chunks walked into the replayer
};

/**
 * Replays a log in Strict mode from bytes pushed as they arrive: the
 * served replay pushes each REPLAY_CHUNK payload, and runReplayJob()
 * pushes a strict job's whole buffer at once.
 *
 * push() walks every chunk whose frame is complete within the bytes
 * pushed so far straight into the replayer, where the bytes lie:
 * framing and CRC first, then each record pulled from the codec as the
 * kernel steps (TeaReplayer::feedFrom). It copies aside only the
 * incomplete rest — part of the header, of one chunk frame, or of the
 * trailer — and finish() reads that rest as the end of the log. So a
 * reader holds at most one chunk frame however long the log, and how
 * the bytes are split between pushes changes nothing: every defect
 * throws FatalError with exactly the message TraceLogReader throws on
 * the same bytes joined into one buffer (bad magic or version, a
 * framing or CRC defect, a malformed record, truncation anywhere, a
 * wrong trailer count, trailing bytes). The push that completes the
 * defective header, chunk or trailer throws it, or finish() when the
 * log ends inside one; trailing bytes are counted, not held, and
 * finish() reports them.
 *
 * After a throw the replayer's counters are unspecified (see
 * TeaReplayer::feedFrom) and the reader is spent: reset() it before
 * the next log. Elided chunks decode through the borrowed `automaton`,
 * as TraceLogReader's do.
 */
class TraceLogPushReader
{
  public:
    explicit TraceLogPushReader(const CompiledTea *decodeTea = nullptr)
        : automaton(decodeTea)
    {
    }

    /**
     * Start the next log. The held-bytes buffer keeps its capacity, so
     * a reader reused log after log allocates only when a chunk frame
     * outgrows every one it held before.
     */
    void reset(const CompiledTea *decodeTea = nullptr);

    /** Walk every chunk `data[0..len)` completes. @throws FatalError */
    void push(const uint8_t *data, size_t len, TeaReplayer &replayer);

    /** The log ends here. @throws FatalError unless it ended whole */
    void finish();

    /** Phase clock totals and chunks walked so far. */
    const ChunkWalkTimes &times() const { return times_; }

    /** Bytes held back for the next push (an incomplete frame). */
    size_t heldBytes() const { return held.size(); }

  private:
    size_t extentAt(const uint8_t *p, size_t avail) const;
    void step(const uint8_t *p, size_t n, TeaReplayer &replayer);

    const CompiledTea *automaton = nullptr;
    uint32_t version_ = 0; ///< 0 until the header is read
    bool ended = false;    ///< the trailer has been read
    uint64_t trailing = 0; ///< bytes pushed after the trailer
    uint64_t decoded = 0;  ///< records in validated chunks (trailer check)
    ChunkWalkTimes times_;
    std::vector<uint8_t> held; ///< the incomplete header/chunk/trailer
};

/**
 * Convenience: decode an entire in-memory log. Pass the writer's
 * automaton for logs with elided chunks. @throws FatalError.
 */
std::vector<BlockTransition>
readTraceLog(std::vector<uint8_t> bytes,
             const CompiledTea *automaton = nullptr);

/** Per-chunk accounting from inspectTraceLog(). */
struct TraceLogChunkInfo
{
    ChunkEncoding encoding = ChunkEncoding::Raw;
    uint32_t records = 0;
    uint32_t payloadBytes = 0;
    uint32_t elidedRecords = 0; ///< bitset 1-bits (Elided chunks only)
};

/** Whole-log accounting from inspectTraceLog(). */
struct TraceLogInfo
{
    uint32_t version = 0;
    uint64_t fileBytes = 0;
    uint64_t records = 0;
    uint64_t payloadBytes = 0;   ///< sum of chunk payloads
    uint64_t elidedRecords = 0;  ///< records carried as bitset bits
    uint64_t rawChunks = 0;
    uint64_t deltaChunks = 0;
    uint64_t elidedChunks = 0;
    std::vector<TraceLogChunkInfo> chunks;
};

/**
 * Walk a log's framing — header, every chunk header and CRC, trailer —
 * without decoding records (so no automaton is needed, even for
 * elided chunks: their bitset is counted, not replayed). Strict:
 * @throws FatalError on any framing or CRC defect. `teadbt log-info`
 * is built on this.
 */
TraceLogInfo inspectTraceLog(const uint8_t *data, size_t len);

} // namespace tea

#endif // TEA_SVC_TRACELOG_HH
