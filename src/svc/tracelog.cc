#include "svc/tracelog.hh"

#include <algorithm>
#include <unordered_map>

#include "obs/trace.hh"
#include "tea/compiled.hh"
#include "tea/replayer.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/mmap.hh"
#include "util/varint.hh"

namespace tea {

namespace {

/** File-write buffer: chunks accumulate here between write() calls. */
constexpr size_t kWriteBuffer = 256 * 1024;

void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    put32(out, static_cast<uint32_t>(v));
    put32(out, static_cast<uint32_t>(v >> 32));
}

// putVar/zigzag/unzigzag live in util/varint.hh now, shared with the
// metrics history ring's delta codec (obs/history.cc).

uint8_t
rd8(const uint8_t *data, size_t len, size_t &cursor)
{
    if (cursor >= len)
        fatal("tracelog: truncated input");
    return data[cursor++];
}

uint32_t
rd32(const uint8_t *data, size_t len, size_t &cursor)
{
    uint32_t v = rd8(data, len, cursor);
    v |= static_cast<uint32_t>(rd8(data, len, cursor)) << 8;
    v |= static_cast<uint32_t>(rd8(data, len, cursor)) << 16;
    v |= static_cast<uint32_t>(rd8(data, len, cursor)) << 24;
    return v;
}

uint64_t
rd64(const uint8_t *data, size_t len, size_t &cursor)
{
    uint64_t lo = rd32(data, len, cursor);
    uint64_t hi = rd32(data, len, cursor);
    return lo | (hi << 32);
}

constexpr uint8_t kMaxEdgeKind = static_cast<uint8_t>(EdgeKind::Halt);

/**
 * The decode cursor of the batch kernel: a raw pointer pair. The
 * varint fast path checks bounds once (a varint spans at most 10
 * bytes), not per byte — decodeChunk() runs it for every field of
 * every record except the last few of a chunk.
 */
struct ByteReader
{
    const uint8_t *p;
    const uint8_t *end;

    size_t left() const { return static_cast<size_t>(end - p); }

    uint8_t
    u8()
    {
        if (p == end)
            fatal("transition record: truncated input");
        return *p++;
    }

    uint64_t
    var()
    {
        if (left() >= 10) {
            uint64_t v = 0;
            for (int shift = 0; shift <= 63; shift += 7) {
                uint8_t byte = *p++;
                v |= static_cast<uint64_t>(byte & 0x7f) << shift;
                if (!(byte & 0x80))
                    return v;
            }
            fatal("transition record: varint too long");
        }
        uint64_t v = 0;
        int shift = 0;
        for (;;) {
            uint8_t byte = u8();
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
            shift += 7;
            if (shift > 63)
                fatal("transition record: varint too long");
        }
    }
};

// ------------------------------------------------------ v1/raw records
//
// The standalone record of v1 chunks and Raw v2 chunks:
//
//   varint from.start, varint from.end - from.start, varint icount,
//   u8 edge kind, varint toStart (kNoAddr for the final halt record)

void
encodeRawRecord(std::vector<uint8_t> &out, const BlockTransition &tr)
{
    if (tr.from.end < tr.from.start)
        fatal("transition record: block with end < start");
    putVar(out, tr.from.start);
    putVar(out, tr.from.end - tr.from.start);
    putVar(out, tr.from.icount);
    out.push_back(static_cast<uint8_t>(tr.kind));
    putVar(out, tr.toStart);
}

/** Decode one v1/raw record through the pointer cursor. */
TEA_HOT_INLINE BlockTransition
decodeRawRecord(ByteReader &r)
{
    BlockTransition tr;
    uint64_t start = r.var();
    uint64_t span = r.var();
    if (start > kNoAddr || span > kNoAddr - start)
        fatal("transition record: out-of-range block bounds");
    tr.from.start = static_cast<Addr>(start);
    tr.from.end = static_cast<Addr>(start + span);
    tr.from.icount = r.var();
    uint8_t kind = r.u8();
    if (kind > kMaxEdgeKind)
        fatal("transition record: bad edge kind %u", kind);
    tr.kind = static_cast<EdgeKind>(kind);
    uint64_t to = r.var();
    if (to > kNoAddr)
        fatal("transition record: out-of-range destination");
    tr.toStart = static_cast<Addr>(to);
    return tr;
}

// ------------------------------------------------- v2 delta records
//
// One tag byte, then only the fields the tag says are present:
//
//   bit 0  same-start: from.start == previous record's toStart
//   bit 1  new-block:  explicit varint span + varint icount follow
//                      (and update the chunk dictionary); absent, the
//                      dictionary entry for from.start supplies both
//   bit 2  halt:       toStart = kNoAddr, no destination field
//   bits 3-4           reserved, must be zero
//   bits 5-7           edge kind (0..6)
//
// Field order after the tag: [zigzag from.start delta from the base —
// the previous toStart, or 0 at a chunk start / after a halt] when
// not same-start; [varint span, varint icount] when new-block;
// [zigzag toStart delta from from.start] when not halt. All state is
// per chunk: every chunk decodes standalone, which is what keeps
// salvage's whole-chunk-prefix guarantee intact.

constexpr uint8_t kTagSameStart = 0x01;
constexpr uint8_t kTagNewBlock = 0x02;
constexpr uint8_t kTagHalt = 0x04;
constexpr uint8_t kTagReserved = 0x18;
constexpr int kTagKindShift = 5;

struct DictEntry
{
    Addr span;
    uint64_t icount;
};

/**
 * The chunk dictionary, on the batch kernel's hottest path: one find()
 * per record, one put() per distinct block. Open addressing with
 * linear probing and a multiplicative hash — the per-record cost is
 * one multiply and (almost always) one probe, where unordered_map's
 * bucket chase alone made v2 decode measurably slower than v1.
 */
class BlockDict
{
  public:
    BlockDict() { rehash(1u << 9); }

    /**
     * O(1) between-chunk reset: bumping the generation invalidates
     * every slot without touching the table, and the table keeps its
     * grown capacity — a reused dictionary does no allocation and no
     * memset at a chunk boundary, where assign()-style clearing was a
     * measurable share of the per-record decode budget.
     */
    void
    clear()
    {
        count = 0;
        if (++gen == 0) {
            // Stamp wrap-around: re-zero once every 2^32 clears so a
            // stale stamp can never alias the new generation.
            for (Slot &sl : slots)
                sl.stamp = 0;
            gen = 1;
        }
    }

    const DictEntry *
    find(Addr key) const
    {
        for (size_t i = slot(key);; i = (i + 1) & mask) {
            const Slot &sl = slots[i];
            if (sl.stamp != gen)
                return nullptr;
            if (sl.key == key)
                return &sl.entry;
        }
    }

    void
    put(Addr key, DictEntry v)
    {
        if ((count + 1) * 10 >= capacity * 7)
            grow();
        for (size_t i = slot(key);; i = (i + 1) & mask) {
            Slot &sl = slots[i];
            if (sl.stamp != gen) {
                sl.stamp = gen;
                sl.key = key;
                sl.entry = v;
                ++count;
                return;
            }
            if (sl.key == key) {
                sl.entry = v;
                return;
            }
        }
    }

  private:
    /** One probe touches one cache line: stamp, key, and payload live
     * together rather than in parallel arrays. */
    struct Slot
    {
        uint32_t stamp = 0;
        Addr key = 0;
        DictEntry entry{};
    };

    size_t slot(Addr key) const
    {
        return (static_cast<uint64_t>(key) * 0x9e3779b1u) & mask;
    }

    void
    rehash(size_t cap)
    {
        capacity = cap;
        mask = cap - 1;
        slots.assign(cap, Slot{});
        gen = 1;
        count = 0;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        uint32_t oldGen = gen;
        rehash(capacity * 2);
        for (const Slot &sl : old)
            if (sl.stamp == oldGen)
                put(sl.key, sl.entry);
    }

    std::vector<Slot> slots;
    uint32_t gen = 0;
    size_t capacity = 0;
    size_t mask = 0;
    size_t count = 0;
};

struct DeltaState
{
    Addr prevTo = kNoAddr; ///< previous record's toStart; kNoAddr = none
    BlockDict dict;        ///< by from.start
    StateId pred = Tea::kNteState; ///< elision: the mirrored DFA state
    /** Elision: last kind seen on the (from.start, toStart) edge. */
    std::unordered_map<uint64_t, EdgeKind> edgeKind;
    /** Elision: last label taken out of each automaton state. */
    std::unordered_map<StateId, Addr> lastSucc;

    /**
     * Reset to the chunk-boundary state. Containers keep their
     * capacity, so a thread_local scratch DeltaState makes the codec
     * allocation-free in steady state while every chunk still decodes
     * standalone — exactly the same observable behaviour as a fresh
     * DeltaState.
     */
    void
    reset()
    {
        prevTo = kNoAddr;
        pred = Tea::kNteState;
        dict.clear();
        edgeKind.clear();
        lastSucc.clear();
    }
};

uint64_t
edgeKey(Addr from, Addr to)
{
    return (static_cast<uint64_t>(from) << 32) | to;
}

void
encodeDeltaRecord(std::vector<uint8_t> &out, const BlockTransition &tr,
                  DeltaState &st)
{
    if (tr.from.end < tr.from.start)
        fatal("transition record: block with end < start");
    Addr span = tr.from.end - tr.from.start;
    uint8_t tag = static_cast<uint8_t>(tr.kind) << kTagKindShift;
    bool haveBase = st.prevTo != kNoAddr;
    bool sameStart = haveBase && tr.from.start == st.prevTo;
    if (sameStart)
        tag |= kTagSameStart;
    const DictEntry *it = st.dict.find(tr.from.start);
    bool newBlock =
        it == nullptr || it->span != span || it->icount != tr.from.icount;
    if (newBlock)
        tag |= kTagNewBlock;
    bool halt = tr.toStart == kNoAddr;
    if (halt)
        tag |= kTagHalt;
    out.push_back(tag);
    if (!sameStart)
        putVar(out,
               zigzag(static_cast<int64_t>(tr.from.start) -
                      static_cast<int64_t>(haveBase ? st.prevTo : 0)));
    if (newBlock) {
        putVar(out, span);
        putVar(out, tr.from.icount);
        st.dict.put(tr.from.start, DictEntry{span, tr.from.icount});
    }
    if (!halt)
        putVar(out, zigzag(static_cast<int64_t>(tr.toStart) -
                           static_cast<int64_t>(tr.from.start)));
    st.prevTo = halt ? kNoAddr : tr.toStart;
}

TEA_HOT_INLINE BlockTransition
decodeDeltaRecord(ByteReader &r, DeltaState &st)
{
    uint8_t tag = r.u8();
    if (tag & kTagReserved)
        fatal("transition record: reserved tag bits set");
    uint8_t kind = tag >> kTagKindShift;
    if (kind > kMaxEdgeKind)
        fatal("transition record: bad edge kind %u", kind);
    BlockTransition tr;
    tr.kind = static_cast<EdgeKind>(kind);
    bool haveBase = st.prevTo != kNoAddr;
    int64_t start;
    if (tag & kTagSameStart) {
        if (!haveBase)
            fatal("transition record: same-start without a base");
        start = st.prevTo;
    } else {
        start = static_cast<int64_t>(haveBase ? st.prevTo : 0) +
                unzigzag(r.var());
        if (start < 0 || start > static_cast<int64_t>(kNoAddr))
            fatal("transition record: out-of-range block start");
    }
    tr.from.start = static_cast<Addr>(start);
    if (tag & kTagNewBlock) {
        uint64_t span = r.var();
        if (span > kNoAddr - static_cast<Addr>(start))
            fatal("transition record: out-of-range block bounds");
        tr.from.end = static_cast<Addr>(start + span);
        tr.from.icount = r.var();
        st.dict.put(tr.from.start,
                    DictEntry{static_cast<Addr>(span), tr.from.icount});
    } else {
        const DictEntry *it = st.dict.find(tr.from.start);
        if (it == nullptr)
            fatal("transition record: block 0x%x missing from the "
                  "chunk dictionary",
                  tr.from.start);
        tr.from.end = tr.from.start + it->span;
        tr.from.icount = it->icount;
    }
    if (tag & kTagHalt) {
        tr.toStart = kNoAddr;
        st.prevTo = kNoAddr;
    } else {
        int64_t to = start + unzigzag(r.var());
        if (to < 0 || to >= static_cast<int64_t>(kNoAddr))
            fatal("transition record: out-of-range destination");
        tr.toStart = static_cast<Addr>(to);
        st.prevTo = tr.toStart;
    }
    return tr;
}

// -------------------------------------------------- elision predictor
//
// The writer and reader mirror the replayer's transition function
// exactly (tea/replayer.cc feedCompiled): from a trace state, scan its
// CSR successor run for the label; otherwise — and always from NTE —
// fall back to the global entry index. The state outcome is
// independent of LookupConfig (the local cache is value-transparent
// and the B-tree/flat-hash containers index the same mapping), which
// is what makes one predictor sound for every replay mode.

StateId
predictAdvance(const CompiledTea &ct, StateId s, Addr label)
{
    if (label == kNoAddr)
        return s; // halt: the replayer stays put
    if (s != Tea::kNteState) {
        const CompiledTea::Succ *end = ct.succEnd(s);
        for (const CompiledTea::Succ *p = ct.succBegin(s); p != end; ++p)
            if (p->label == label)
                return p->target;
    }
    return ct.entryAt(label);
}

/**
 * The record the automaton predicts at this point, if any. The
 * destination is the label last taken out of the mirrored state this
 * chunk, defaulting to the state's first CSR successor before the
 * state has fired — last-value prediction anchored on the automaton,
 * so steady-state loop iterations predict perfectly while the
 * automaton prior covers the first visit. The previous destination
 * names the block (so from.start is forced), the dictionary supplies
 * span and icount, and the per-edge kind table supplies the kind the
 * (block, destination) edge carried last. Soundness never rests on a
 * guess being right: the writer compares the prediction against the
 * actual record and sets a bit only on exact equality, so
 * reconstruction is bit-identical by construction.
 */
bool
predictRecord(const CompiledTea &ct, const DeltaState &st,
              BlockTransition &out)
{
    if (st.prevTo == kNoAddr || st.pred == Tea::kNteState)
        return false;
    const DictEntry *it = st.dict.find(st.prevTo);
    if (it == nullptr)
        return false;
    Addr dest;
    auto ls = st.lastSucc.find(st.pred);
    if (ls != st.lastSucc.end()) {
        dest = ls->second;
    } else {
        const CompiledTea::Succ *b = ct.succBegin(st.pred);
        if (ct.succEnd(st.pred) == b)
            return false;
        dest = b->label;
    }
    auto ek = st.edgeKind.find(edgeKey(st.prevTo, dest));
    if (ek == st.edgeKind.end())
        return false;
    out.from.start = st.prevTo;
    out.from.end = st.prevTo + it->span;
    out.from.icount = it->icount;
    out.kind = ek->second;
    out.toStart = dest;
    return true;
}

/**
 * Advance the elision predictor's dynamic tables past one record —
 * writer and reader run this identically, before predictAdvance()
 * moves the mirrored state.
 */
void
notePredictorTables(DeltaState &st, const BlockTransition &tr)
{
    st.edgeKind[edgeKey(tr.from.start, tr.toStart)] = tr.kind;
    if (st.pred != Tea::kNteState && tr.toStart != kNoAddr)
        st.lastSucc[st.pred] = tr.toStart;
}

bool
sameTransition(const BlockTransition &a, const BlockTransition &b)
{
    return a.from.start == b.from.start && a.from.end == b.from.end &&
           a.from.icount == b.from.icount && a.kind == b.kind &&
           a.toStart == b.toStart;
}

// ------------------------------------------------------- the codec loop
//
// One pull cursor per encoding: next() decodes the chunk's next record.
// walkChunk() hands the chunk's cursor to a sink that pulls exactly
// `records` of them — decodeChunk() stores each one, the strict replay
// walk (TraceLogPushReader) feeds each one to the kernel as it comes —
// so every consumer of a chunk runs the same codec.

struct RawCursor
{
    ByteReader r;

    TEA_HOT_INLINE BlockTransition next() { return decodeRawRecord(r); }
};

struct DeltaCursor
{
    ByteReader r;
    DeltaState &st;

    TEA_HOT_INLINE BlockTransition
    next()
    {
        return decodeDeltaRecord(r, st);
    }
};

struct ElidedCursor
{
    ByteReader r;
    DeltaState &st;
    const CompiledTea &ct;
    const uint8_t *bits; ///< one prediction bit per record
    uint32_t i = 0;      ///< index of the next record

    TEA_HOT_INLINE BlockTransition
    next()
    {
        BlockTransition tr;
        if ((bits[i >> 3] >> (i & 7)) & 1) {
            if (!predictRecord(ct, st, tr))
                fatal("tracelog: elided record %u is not predictable", i);
            st.prevTo = tr.toStart;
        } else {
            tr = decodeDeltaRecord(r, st);
        }
        notePredictorTables(st, tr);
        st.pred = predictAdvance(ct, st.pred, tr.toStart);
        ++i;
        return tr;
    }
};

/**
 * The decoder's per-thread codec state. It resets at every chunk and
 * keeps its capacity, so steady-state decode allocates nothing.
 */
DeltaState &
decodeScratch()
{
    thread_local DeltaState st;
    st.reset();
    return st;
}

/**
 * Decode one CRC-validated chunk into `sink(cursor, chunk.records)`,
 * then insist that the records consumed the payload exactly.
 */
template <class Sink>
TEA_HOT_INLINE void
walkChunk(const TraceChunkView &chunk, const CompiledTea *automaton,
          Sink &&sink)
{
    ByteReader r{chunk.payload, chunk.payload + chunk.size};
    switch (chunk.encoding) {
    case ChunkEncoding::Raw: {
        RawCursor cur{r};
        sink(cur, chunk.records);
        r = cur.r;
        break;
    }
    case ChunkEncoding::Delta: {
        DeltaCursor cur{r, decodeScratch()};
        sink(cur, chunk.records);
        r = cur.r;
        break;
    }
    case ChunkEncoding::Elided: {
        if (automaton == nullptr)
            fatal("tracelog: elided chunk needs the recording "
                  "automaton");
        size_t nbits = (static_cast<size_t>(chunk.records) + 7) / 8;
        if (chunk.size < nbits)
            fatal("tracelog: truncated elision bitset");
        ElidedCursor cur{{chunk.payload + nbits, r.end},
                         decodeScratch(),
                         *automaton,
                         chunk.payload};
        sink(cur, chunk.records);
        r = cur.r;
        break;
    }
    default:
        fatal("tracelog: bad chunk encoding %u",
              static_cast<unsigned>(chunk.encoding));
    }
    if (r.p != r.end)
        fatal("tracelog: %zu undecoded payload bytes", r.left());
}

} // namespace

void
encodeChunkPayload(std::vector<uint8_t> &out, ChunkEncoding encoding,
                   const BlockTransition *batch, size_t n,
                   const CompiledTea *automaton)
{
    switch (encoding) {
    case ChunkEncoding::Raw:
        for (size_t i = 0; i < n; ++i)
            encodeRawRecord(out, batch[i]);
        return;
    case ChunkEncoding::Delta: {
        thread_local DeltaState st;
        st.reset();
        for (size_t i = 0; i < n; ++i)
            encodeDeltaRecord(out, batch[i], st);
        return;
    }
    case ChunkEncoding::Elided: {
        if (automaton == nullptr)
            fatal("tracelog: elided encoding needs an automaton");
        const CompiledTea &ct = *automaton;
        size_t base = out.size();
        out.resize(base + (n + 7) / 8, 0);
        std::vector<uint8_t> fallback;
        thread_local DeltaState st;
        st.reset();
        for (size_t i = 0; i < n; ++i) {
            BlockTransition predicted;
            if (predictRecord(ct, st, predicted) &&
                sameTransition(predicted, batch[i])) {
                out[base + (i >> 3)] |=
                    static_cast<uint8_t>(1u << (i & 7));
                // A predicted destination is a successor label, never
                // kNoAddr, so the base always stays valid here.
                st.prevTo = batch[i].toStart;
            } else {
                encodeDeltaRecord(fallback, batch[i], st);
            }
            notePredictorTables(st, batch[i]);
            st.pred = predictAdvance(ct, st.pred, batch[i].toStart);
        }
        out.insert(out.end(), fallback.begin(), fallback.end());
        return;
    }
    }
    fatal("tracelog: bad chunk encoding %u",
          static_cast<unsigned>(encoding));
}

void
decodeChunk(const TraceChunkView &chunk, const CompiledTea *automaton,
            std::vector<BlockTransition> &out)
{
    // Pre-size and write by index: the per-record push_back capacity
    // check and size bump measurably lengthen the kernel's dependency
    // chain. On a decode error the caller discards `out` wholesale, so
    // the default-constructed tail is never observed.
    size_t base = out.size();
    out.resize(base + chunk.records);
    BlockTransition *dst = out.data() + base;
    walkChunk(chunk, automaton, [dst](auto &cur, uint32_t n) {
        for (uint32_t i = 0; i < n; ++i)
            dst[i] = cur.next();
    });
}

// ------------------------------------------------------- chunk frames
//
// One chunk frame, shared by the container and the wire:
//
//   u32 record count, [v2] u8 encoding, u32 payload bytes, payload,
//   u32 CRC-32 (v1: the payload; v2: the head and the payload)

namespace {

/**
 * Append one chunk frame holding `n` transitions encoded as `enc`. The
 * writer and the wire both emit through here.
 */
void
appendChunk(std::vector<uint8_t> &out, uint32_t version, ChunkEncoding enc,
            const BlockTransition *batch, size_t n,
            const CompiledTea *automaton)
{
    size_t head = out.size();
    put32(out, static_cast<uint32_t>(n));
    if (version >= 2)
        out.push_back(static_cast<uint8_t>(enc));
    size_t sizeAt = out.size();
    put32(out, 0); // payload bytes, patched once encoded
    size_t payload = out.size();
    encodeChunkPayload(out, enc, batch, n, automaton);
    uint32_t nbytes = static_cast<uint32_t>(out.size() - payload);
    for (int i = 0; i < 4; ++i)
        out[sizeAt + i] = static_cast<uint8_t>(nbytes >> (8 * i));
    // v2 CRCs cover the chunk head too: a flipped encoding byte or
    // record count must not pass as a valid chunk of another shape.
    put32(out, version >= 2 ? crc32(out.data() + head, out.size() - head)
                            : crc32(out.data() + payload, nbytes));
}

/**
 * Parse a chunk frame's head at data[cursor..len) into `chunk` and
 * return its payload byte count, checking what the head alone decides
 * (the encoding, the record-count limit).
 */
uint32_t
readChunkHead(const uint8_t *data, size_t len, size_t &cursor,
              uint32_t version, TraceChunkView &chunk)
{
    chunk.records = rd32(data, len, cursor);
    if (version >= 2) {
        uint8_t e = rd8(data, len, cursor);
        if (e > static_cast<uint8_t>(ChunkEncoding::Elided))
            fatal("tracelog: bad chunk encoding %u", e);
        chunk.encoding = static_cast<ChunkEncoding>(e);
        if (chunk.records > TraceLogFormat::kMaxChunkRecords)
            fatal("tracelog: chunk record count %u exceeds limit %u",
                  chunk.records, TraceLogFormat::kMaxChunkRecords);
    }
    return rd32(data, len, cursor);
}

/**
 * Parse one chunk frame at data[cursor..len) and leave `cursor` past
 * its CRC word. The head, the record-count limits, the payload bounds
 * and the CRC are all checked here, for the readers, inspectTraceLog()
 * and the wire alike. A zero record count is the container's trailer
 * marker; callers check for it first (readTrailer()).
 */
TraceChunkView
readChunkFrame(const uint8_t *data, size_t len, size_t &cursor,
               uint32_t version)
{
    size_t head = cursor;
    TraceChunkView chunk;
    uint32_t nbytes = readChunkHead(data, len, cursor, version, chunk);
    if (nbytes > len - cursor)
        fatal("tracelog: truncated chunk payload");
    // A raw or delta record costs at least one payload byte, an elided
    // one at least one bitset bit.
    if (chunk.encoding == ChunkEncoding::Elided) {
        if (nbytes < (static_cast<size_t>(chunk.records) + 7) / 8)
            fatal("tracelog: truncated elision bitset");
    } else if (chunk.records > nbytes) {
        fatal("tracelog: chunk record count %u exceeds payload bytes %u",
              chunk.records, nbytes);
    }
    chunk.payload = data + cursor;
    chunk.size = nbytes;
    cursor += nbytes;
    uint32_t stored = rd32(data, len, cursor);
    uint32_t actual = version >= 2 ? crc32(data + head, cursor - 4 - head)
                                   : crc32(chunk.payload, nbytes);
    if (actual != stored)
        fatal("tracelog: chunk CRC mismatch");
    return chunk;
}

/** Check the container header; @return its version. */
uint32_t
readLogHeader(const uint8_t *data, size_t len, size_t &cursor)
{
    if (rd32(data, len, cursor) != TraceLogFormat::kMagic)
        fatal("tracelog: bad magic");
    uint32_t version = rd32(data, len, cursor);
    if (version != TraceLogFormat::kVersion &&
        version != TraceLogFormat::kVersionV1)
        fatal("tracelog: unsupported version");
    return version;
}

/**
 * At a chunk boundary: when the next u32 is the zero end marker, check
 * that the trailer's total equals `records` and that nothing follows,
 * move `cursor` past it and return true. Otherwise leave `cursor` at
 * the chunk and return false.
 */
bool
readTrailer(const uint8_t *data, size_t len, size_t &cursor,
            uint64_t records)
{
    size_t at = cursor;
    if (rd32(data, len, at) != 0)
        return false;
    uint64_t expect = rd64(data, len, at);
    if (expect != records)
        fatal("tracelog: trailer count %llu disagrees with %llu records "
              "in chunks",
              static_cast<unsigned long long>(expect),
              static_cast<unsigned long long>(records));
    if (at != len)
        fatal("tracelog: %zu trailing bytes", len - at);
    cursor = at;
    return true;
}

} // namespace

void
encodeWireChunk(std::vector<uint8_t> &out, const BlockTransition *batch,
                size_t n)
{
    appendChunk(out, TraceLogFormat::kVersion, ChunkEncoding::Delta, batch,
                n, nullptr);
}

void
decodeWireChunk(const uint8_t *data, size_t len,
                std::vector<BlockTransition> &out)
{
    size_t cursor = 0;
    TraceChunkView chunk =
        readChunkFrame(data, len, cursor, TraceLogFormat::kVersion);
    if (chunk.encoding == ChunkEncoding::Elided)
        fatal("tracelog: elided chunks are not valid on the wire");
    if (cursor != len)
        fatal("tracelog: %zu trailing bytes", len - cursor);
    out.clear();
    decodeChunk(chunk, nullptr, out);
}

std::vector<BlockTransition>
decodeWireChunk(const uint8_t *data, size_t len)
{
    std::vector<BlockTransition> out;
    decodeWireChunk(data, len, out);
    return out;
}

// ---------------------------------------------------------------- writer

TraceLogWriter::TraceLogWriter(const std::string &file_path,
                               TraceLogOptions options)
    : opts(std::move(options)), file(file_path, std::ios::binary),
      path(file_path)
{
    if (!file)
        fatal("cannot open '%s' for writing", path.c_str());
    writeHeader();
}

TraceLogWriter::TraceLogWriter(std::vector<uint8_t> *sink,
                               TraceLogOptions options)
    : opts(std::move(options)), mem(sink)
{
    TEA_ASSERT(sink != nullptr, "tracelog: null memory sink");
    writeHeader();
}

void
TraceLogWriter::writeHeader()
{
    if (opts.version != TraceLogFormat::kVersion &&
        opts.version != TraceLogFormat::kVersionV1)
        fatal("tracelog: unsupported writer version %u", opts.version);
    if (opts.elideWith && opts.version == TraceLogFormat::kVersionV1)
        fatal("tracelog: elision needs container version 2");
    std::vector<uint8_t> header;
    put32(header, TraceLogFormat::kMagic);
    put32(header, opts.version);
    emit(header.data(), header.size());
}

TraceLogWriter::~TraceLogWriter()
{
    try {
        finish();
    } catch (...) {
        // Destructors must not throw; an explicit finish() reports
        // write failures to the caller.
    }
}

void
TraceLogWriter::emit(const uint8_t *data, size_t len)
{
    flushed += len;
    if (mem) {
        mem->insert(mem->end(), data, data + len);
        return;
    }
    obuf.insert(obuf.end(), data, data + len);
}

void
TraceLogWriter::drainToFile(bool force)
{
    if (mem || obuf.empty())
        return;
    if (!force && obuf.size() < kWriteBuffer)
        return;
    file.write(reinterpret_cast<const char *>(obuf.data()),
               static_cast<std::streamsize>(obuf.size()));
    if (!file)
        fatal("error writing '%s'", path.c_str());
    obuf.clear();
}

void
TraceLogWriter::append(const BlockTransition &tr)
{
    TEA_ASSERT(!finished, "tracelog: append after finish");
    if (tr.from.end < tr.from.start)
        fatal("transition record: block with end < start");
    pending.push_back(tr);
    ++total;
    if (pending.size() >= TraceLogFormat::kChunkRecords)
        flushChunk();
}

void
TraceLogWriter::flushChunk()
{
    if (pending.empty())
        return;
    ChunkEncoding enc = ChunkEncoding::Raw;
    if (opts.version >= 2)
        enc = opts.elideWith ? ChunkEncoding::Elided
                             : ChunkEncoding::Delta;
    scratch.clear();
    appendChunk(scratch, opts.version, enc, pending.data(), pending.size(),
                opts.elideWith.get());
    emit(scratch.data(), scratch.size());
    pending.clear();
    drainToFile(false);
}

void
TraceLogWriter::finish()
{
    if (finished)
        return;
    flushChunk();
    std::vector<uint8_t> trailer;
    put32(trailer, 0);
    put64(trailer, total);
    emit(trailer.data(), trailer.size());
    drainToFile(true);
    if (file.is_open()) {
        file.flush();
        if (!file)
            fatal("error writing '%s'", path.c_str());
    }
    finished = true;
}

// ---------------------------------------------------------------- reader

TraceLogReader::TraceLogReader(std::vector<uint8_t> bytes, Mode m,
                               const CompiledTea *ct)
    : owned(std::move(bytes))
{
    data = owned.data();
    len = owned.size();
    automaton = ct;
    mode = m;
    readHeader();
}

TraceLogReader::TraceLogReader(const uint8_t *d, size_t n, Mode m,
                               const CompiledTea *ct)
{
    data = d;
    len = n;
    automaton = ct;
    mode = m;
    readHeader();
}

void
TraceLogReader::readHeader()
{
    // Bad magic/version throws even in salvage mode: a log whose first
    // eight bytes are wrong proves nothing, so there is no prefix to
    // recover.
    version_ = readLogHeader(data, len, cursor);
}

TraceLogReader
TraceLogReader::openFile(const std::string &path, Mode m,
                         const CompiledTea *ct)
{
    // mmap instead of a read-ahead copy: the kernel pages the log in
    // as decode walks it, and a multi-gigabyte log costs no heap.
    std::shared_ptr<const MappedFile> mf = MappedFile::openShared(path);
    TraceLogReader reader(mf->data(), mf->size(), m, ct);
    reader.map = std::move(mf);
    return reader;
}

bool
TraceLogReader::validateChunk()
{
    TEA_ASSERT(!validated, "tracelog: chunk validated twice");
    if (done)
        return false;
    chunkStart = cursor;
    try {
        if (readTrailer(data, len, cursor, decoded)) {
            done = true;
            return false;
        }
        view = readChunkFrame(data, len, cursor, version_);
    } catch (const FatalError &e) {
        if (mode == Mode::Strict)
            throw;
        tear(e.what());
        return false;
    }
    // The trailer check counts chunks as they validate: a chunk that
    // then fails to decode fails (or, salvaging, ends) the stream
    // before the trailer is read.
    decoded += view.records;
    validated = true;
    return true;
}

bool
TraceLogReader::decodeValidated()
{
    validated = false;
    chunk.clear();
    chunkPos = 0;
    try {
        // A record that would read past the payload fails as
        // truncation instead of bleeding into the CRC word.
        decodeChunk(view, automaton, chunk);
    } catch (const FatalError &e) {
        if (mode == Mode::Strict)
            throw;
        // Drop the half-decoded records: no record of a malformed
        // chunk is ever surfaced.
        chunk.clear();
        tear(e.what());
        return false;
    }
    return true;
}

void
TraceLogReader::tear(const char *why)
{
    // The chunk starting at chunkStart is torn: end the stream at the
    // last good chunk.
    done = true;
    torn_ = true;
    tornReason_ = why;
    discarded = len - chunkStart;
}

bool
TraceLogReader::replayChunk(TeaReplayer &replayer)
{
    TEA_ASSERT(validated, "tracelog: replayChunk() without a validated "
                          "chunk");
    // Decode the whole chunk before feeding any of it: a chunk that
    // tears mid-way must not have moved the replayer.
    if (!decodeValidated())
        return false;
    replayer.feedAll(chunk.data(), chunk.data() + chunk.size());
    chunkPos = chunk.size();
    surfaced += chunk.size();
    return true;
}

bool
TraceLogReader::next(BlockTransition &out)
{
    while (chunkPos >= chunk.size())
        if (!validateChunk() || !decodeValidated())
            return false;
    out = chunk[chunkPos++];
    ++surfaced;
    return true;
}

const std::vector<BlockTransition> *
TraceLogReader::nextChunk()
{
    TEA_ASSERT(chunkPos >= chunk.size(),
               "tracelog: nextChunk() with records still unread");
    if (!validateChunk() || !decodeValidated())
        return nullptr; // trailer, or the tear in salvage mode
    chunkPos = chunk.size();
    surfaced += chunk.size();
    return &chunk;
}

// ----------------------------------------------------------- push reader
//
// The log as a sequence of elements — the header, each chunk frame, the
// trailer — each read by the same function TraceLogReader reads it
// with, over exactly its own bytes. An element complete within a push
// is read where it lies; only an incomplete one is copied into `held`
// and completed from the next push. Because an element is read only
// once it is whole (or, at finish(), as the end of the log), every
// check sees the bytes the whole-log reader's check sees.

void
TraceLogPushReader::reset(const CompiledTea *decodeTea)
{
    automaton = decodeTea;
    version_ = 0;
    ended = false;
    trailing = 0;
    decoded = 0;
    times_ = ChunkWalkTimes{};
    held.clear();
}

/**
 * The size of the element that starts at p, when its first `avail`
 * bytes tell; otherwise a larger lower bound — the bytes it takes to
 * tell more. A chunk head's own defects (encoding, record limit)
 * throw here, as soon as the head is in, with the whole-log reader's
 * message: the head alone decides them.
 */
size_t
TraceLogPushReader::extentAt(const uint8_t *p, size_t avail) const
{
    if (version_ == 0)
        return 8; // magic + version
    if (avail < 4)
        return 4;
    size_t at = 0;
    if (rd32(p, avail, at) == 0)
        return 12; // end marker + u64 total
    size_t head = version_ >= 2 ? 9 : 8; // count, [encoding], payload size
    if (avail < head)
        return head;
    at = 0;
    TraceChunkView chunk;
    uint32_t nbytes = readChunkHead(p, avail, at, version_, chunk);
    return head + nbytes + 4;
}

/** Read the complete element p[0..n): header, chunk or trailer. */
void
TraceLogPushReader::step(const uint8_t *p, size_t n, TeaReplayer &replayer)
{
    size_t at = 0;
    if (version_ == 0) {
        version_ = readLogHeader(p, n, at);
        return;
    }
    uint64_t t0 = obs::monotonicNanos();
    if (readTrailer(p, n, at, decoded)) {
        ended = true;
        times_.validateNs += obs::monotonicNanos() - t0;
        return;
    }
    TraceChunkView view = readChunkFrame(p, n, at, version_);
    uint64_t t1 = obs::monotonicNanos();
    times_.validateNs += t1 - t0;
    decoded += view.records;
    walkChunk(view, automaton, [&replayer](auto &cur, uint32_t k) {
        replayer.feedFrom(cur, k);
    });
    ++times_.chunks;
    times_.walkNs += obs::monotonicNanos() - t1;
}

void
TraceLogPushReader::push(const uint8_t *data, size_t len,
                         TeaReplayer &replayer)
{
    if (!held.empty()) {
        // Complete the held element, taking no byte past its end.
        for (;;) {
            size_t need = extentAt(held.data(), held.size());
            if (held.size() >= need)
                break;
            if (len == 0)
                return;
            size_t take = std::min(need - held.size(), len);
            held.insert(held.end(), data, data + take);
            data += take;
            len -= take;
        }
        step(held.data(), held.size(), replayer);
        held.clear();
    }
    while (!ended) {
        size_t need = extentAt(data, len);
        if (need > len) {
            held.assign(data, data + len);
            return;
        }
        step(data, need, replayer);
        data += need;
        len -= need;
    }
    trailing += len;
}

void
TraceLogPushReader::finish()
{
    if (ended) {
        if (trailing != 0)
            fatal("tracelog: %zu trailing bytes",
                  static_cast<size_t>(trailing));
        return;
    }
    // The log ended inside the held element (or before the header):
    // read what there is as the end of the log, exactly as the
    // whole-log reader reads its last bytes. That read must fail.
    const uint8_t *p = held.data();
    size_t n = held.size();
    size_t at = 0;
    if (version_ == 0)
        readLogHeader(p, n, at);
    else if (!readTrailer(p, n, at, decoded))
        readChunkFrame(p, n, at, version_);
    panic("tracelog: an incomplete element of %zu bytes read whole", n);
}

std::vector<BlockTransition>
readTraceLog(std::vector<uint8_t> bytes, const CompiledTea *automaton)
{
    TraceLogReader reader(std::move(bytes), TraceLogReader::Mode::Strict,
                          automaton);
    std::vector<BlockTransition> all;
    while (const std::vector<BlockTransition> *c = reader.nextChunk())
        all.insert(all.end(), c->begin(), c->end());
    return all;
}

// ------------------------------------------------------------- inspect

TraceLogInfo
inspectTraceLog(const uint8_t *data, size_t len)
{
    TraceLogInfo info;
    info.fileBytes = len;
    size_t cursor = 0;
    info.version = readLogHeader(data, len, cursor);
    while (!readTrailer(data, len, cursor, info.records)) {
        TraceChunkView view =
            readChunkFrame(data, len, cursor, info.version);
        TraceLogChunkInfo ci;
        ci.encoding = view.encoding;
        ci.records = view.records;
        ci.payloadBytes = static_cast<uint32_t>(view.size);
        switch (ci.encoding) {
        case ChunkEncoding::Raw:
            ++info.rawChunks;
            break;
        case ChunkEncoding::Delta:
            ++info.deltaChunks;
            break;
        case ChunkEncoding::Elided: {
            ++info.elidedChunks;
            size_t nbits = (static_cast<size_t>(ci.records) + 7) / 8;
            for (size_t i = 0; i < nbits; ++i) {
                uint8_t byte = view.payload[i];
                if (i == nbits - 1 && (ci.records & 7) != 0)
                    byte &= static_cast<uint8_t>(
                        (1u << (ci.records & 7)) - 1);
                ci.elidedRecords +=
                    static_cast<uint32_t>(__builtin_popcount(byte));
            }
            break;
        }
        }
        info.records += ci.records;
        info.payloadBytes += ci.payloadBytes;
        info.elidedRecords += ci.elidedRecords;
        info.chunks.push_back(ci);
    }
    return info;
}

} // namespace tea
