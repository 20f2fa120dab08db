/**
 * @file
 * Robustness fuzzing of the trace-log reader, in the style of
 * test_serialize_fuzz.cc: truncated files, corrupt CRCs, and
 * bit-flipped headers must always surface as FatalError — never as a
 * PanicError, a crash, or a silently wrong stream. Every container
 * sweep runs over both versions (v1 raw records, v2 delta chunks) and
 * over elided v2 logs; the batch decode kernel's malformed-payload
 * paths are hit directly; and a randomized differential suite pins
 * v1 <-> v2 <-> elided bit-identity through every lookup mode.
 *
 * The strict replay walk (TraceLogPushReader, which runReplayJob() and
 * the served replay share) walks each record into the kernel as the
 * codec decodes it. Its oracle here is the unfused path —
 * readTraceLog(), then one TeaReplayer::feed() per record — over every
 * encoding and lookup configuration, over corrupt logs (same error
 * message), and over a torn chunk in salvage mode (nothing of it
 * reaches the kernel). However a log is split into pushes, the walk
 * replays it the same and holds at most one chunk frame.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "dbt/runtime.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/recorder.hh"
#include "trace/factory.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

constexpr uint32_t kVersions[] = {TraceLogFormat::kVersionV1,
                                  TraceLogFormat::kVersion};

/** Container chunk-head bytes: v2 adds the encoding byte. */
size_t
chunkHead(uint32_t version)
{
    return version == 1 ? 8 : 9;
}

/** A small but multi-chunk log (forced tiny records). */
std::vector<uint8_t>
sampleLog(size_t records, uint32_t version = TraceLogFormat::kVersion)
{
    std::vector<uint8_t> bytes;
    TraceLogOptions opts;
    opts.version = version;
    TraceLogWriter writer(&bytes, opts);
    Addr pc = 0x400;
    for (size_t i = 0; i < records; ++i) {
        BlockTransition tr;
        tr.from.start = pc;
        tr.from.end = pc + 4 + (i % 9);
        tr.from.icount = 1 + (i % 23);
        tr.kind = static_cast<EdgeKind>(i % 6);
        pc = 0x400 + static_cast<Addr>((i * 7) % 512);
        tr.toStart = pc;
        writer.append(tr);
    }
    writer.finish();
    return bytes;
}

/** Drain a log completely; throws whatever the reader throws. */
size_t
drain(std::vector<uint8_t> bytes, const CompiledTea *automaton = nullptr)
{
    TraceLogReader reader(std::move(bytes), TraceLogReader::Mode::Strict,
                          automaton);
    BlockTransition tr;
    size_t n = 0;
    while (reader.next(tr)) {
        // Whatever survives validation must satisfy the record
        // invariants the reader promises.
        EXPECT_LE(tr.from.start, tr.from.end);
        EXPECT_LE(static_cast<uint8_t>(tr.kind),
                  static_cast<uint8_t>(EdgeKind::Halt));
        ++n;
    }
    return n;
}

TEST(TraceLogFuzz, EveryTruncationIsFatal)
{
    for (uint32_t version : kVersions) {
        const auto good = sampleLog(300, version);
        // A strict prefix can never be a valid log: the trailer (end
        // marker + total count) is mandatory.
        for (size_t keep = 0; keep < good.size(); ++keep) {
            std::vector<uint8_t> bad(
                good.begin(), good.begin() + static_cast<long>(keep));
            EXPECT_THROW(drain(std::move(bad)), FatalError)
                << "v" << version << ": kept " << keep << " of "
                << good.size();
        }
    }
}

class CorruptTraceLog : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CorruptTraceLog, ByteFlipsNeverPanicOrMisread)
{
    for (uint32_t version : kVersions) {
        const auto good = sampleLog(200, version);
        Xorshift64Star rng(GetParam() + version);

        for (int round = 0; round < 200; ++round) {
            auto bad = good;
            int flips = 1 + static_cast<int>(rng.nextBelow(3));
            for (int f = 0; f < flips; ++f) {
                size_t pos = rng.nextBelow(bad.size());
                bad[pos] = static_cast<uint8_t>(rng.next());
            }
            try {
                drain(std::move(bad));
                // Accepted: the flip landed on a byte that either kept
                // the log valid (e.g. rewrote a record to another valid
                // one with a lucky CRC) or restored the original value.
                // Either way drain() has verified the record invariants.
            } catch (const FatalError &) {
                // expected for corrupt data
            }
            // PanicError or a crash fails the test.
        }
    }
}

TEST_P(CorruptTraceLog, CorruptCrcIsFatal)
{
    // Flip payload bytes only (between the first chunk header and its
    // CRC): must always be caught by the CRC check.
    for (uint32_t version : kVersions) {
        const auto good = sampleLog(64, version);
        constexpr size_t kHeader = 8; // magic + version
        const size_t head = chunkHead(version);
        // Payload length is the chunk head's last u32.
        size_t lenAt = kHeader + head - 4;
        size_t payload_len =
            good[lenAt] | (static_cast<size_t>(good[lenAt + 1]) << 8) |
            (static_cast<size_t>(good[lenAt + 2]) << 16) |
            (static_cast<size_t>(good[lenAt + 3]) << 24);
        size_t payload_at = kHeader + head;
        ASSERT_LE(payload_at + payload_len, good.size());

        Xorshift64Star rng(GetParam() + version);
        for (int round = 0; round < 300; ++round) {
            auto bad = good;
            size_t pos = payload_at + rng.nextBelow(payload_len);
            uint8_t flip = static_cast<uint8_t>(1 + rng.nextBelow(255));
            bad[pos] = static_cast<uint8_t>(bad[pos] ^ flip);
            EXPECT_THROW(drain(std::move(bad)), FatalError)
                << "v" << version << ": payload flip at " << pos
                << " escaped the CRC";
        }
    }
}

TEST_P(CorruptTraceLog, BitFlippedHeaderIsFatal)
{
    for (uint32_t version : kVersions) {
        const auto good = sampleLog(32, version);
        Xorshift64Star rng(GetParam() + version);
        for (int round = 0; round < 64; ++round) {
            auto bad = good;
            size_t pos = rng.nextBelow(8); // magic or version word
            uint8_t bit = static_cast<uint8_t>(1u << rng.nextBelow(8));
            bad[pos] = static_cast<uint8_t>(bad[pos] ^ bit);
            EXPECT_THROW(drain(std::move(bad)), FatalError);
        }
    }
}

TEST_P(CorruptTraceLog, FlippedEncodingByteIsFatal)
{
    // The v2 CRC covers the chunk head, so rewriting the encoding byte
    // (which would otherwise mis-decode the payload under another
    // codec) is always caught.
    const auto good = sampleLog(64);
    constexpr size_t kEncodingAt = 8 + 4; // header + record count
    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 32; ++round) {
        auto bad = good;
        bad[kEncodingAt] =
            static_cast<uint8_t>(bad[kEncodingAt] ^
                                 (1 + rng.nextBelow(255)));
        EXPECT_THROW(drain(std::move(bad)), FatalError);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptTraceLog,
                         ::testing::Values(101, 202, 303, 404));

// --------------------------------------------------------------- salvage

struct SalvageOutcome
{
    size_t records = 0;
    bool torn = false;
    std::string reason;
    uint64_t discarded = 0;
};

/** Drain a log in salvage mode; never expected to throw past ctor. */
SalvageOutcome
salvageDrain(std::vector<uint8_t> bytes,
             const CompiledTea *automaton = nullptr)
{
    TraceLogReader reader(std::move(bytes),
                          TraceLogReader::Mode::Salvage, automaton);
    BlockTransition tr;
    SalvageOutcome out;
    while (reader.next(tr)) {
        EXPECT_LE(tr.from.start, tr.from.end);
        ++out.records;
    }
    out.torn = reader.torn();
    out.reason = reader.tornReason();
    out.discarded = reader.bytesDiscarded();
    return out;
}

/**
 * Chunk map of a well-formed log: for every byte offset, how many
 * records the complete-chunk prefix up to that offset holds, and where
 * that prefix ends. Walked independently of TraceLogReader so the test
 * does not trust the code under test.
 */
struct ChunkMap
{
    std::vector<size_t> prefixRecords; ///< by truncation offset
    std::vector<size_t> prefixEnd;     ///< last complete chunk's end
};

ChunkMap
mapChunks(const std::vector<uint8_t> &good, uint32_t version)
{
    auto rd32 = [&](size_t at) {
        return uint32_t(good[at]) | (uint32_t(good[at + 1]) << 8) |
               (uint32_t(good[at + 2]) << 16) |
               (uint32_t(good[at + 3]) << 24);
    };
    const size_t head = chunkHead(version);
    ChunkMap map;
    map.prefixRecords.assign(good.size() + 1, 0);
    map.prefixEnd.assign(good.size() + 1, 8); // header-only prefix
    size_t cursor = 8; // magic + version
    size_t records = 0;
    while (cursor + head <= good.size()) {
        uint32_t nrec = rd32(cursor);
        if (nrec == 0)
            break; // trailer
        size_t chunkEnd =
            cursor + head + rd32(cursor + head - 4) + 4; // + CRC
        for (size_t off = chunkEnd; off <= good.size(); ++off) {
            map.prefixRecords[off] = records + nrec;
            map.prefixEnd[off] = chunkEnd;
        }
        records += nrec;
        cursor = chunkEnd;
    }
    return map;
}

TEST(TraceLogSalvage, TruncationAtEveryOffsetSalvagesTheChunkPrefix)
{
    // Truncate the log at *every* byte offset past the header: salvage
    // must recover exactly the records of the complete, CRC-valid
    // chunk prefix — never one more, never one fewer — account for
    // every discarded byte, and strict mode must still throw
    // (EveryTruncationIsFatal above pins the strict half).
    for (uint32_t version : kVersions) {
        const auto good = sampleLog(300, version);
        ASSERT_EQ(drain(good), 300u);
        const ChunkMap map = mapChunks(good, version);

        for (size_t keep = 8; keep < good.size(); ++keep) {
            std::vector<uint8_t> torn(
                good.begin(), good.begin() + static_cast<long>(keep));
            SalvageOutcome got = salvageDrain(std::move(torn));
            EXPECT_EQ(got.records, map.prefixRecords[keep])
                << "v" << version << " truncated at " << keep;
            EXPECT_TRUE(got.torn)
                << "v" << version << " truncated at " << keep;
            EXPECT_FALSE(got.reason.empty());
            EXPECT_EQ(got.discarded, keep - map.prefixEnd[keep])
                << "v" << version << " truncated at " << keep;
        }
    }
}

TEST(TraceLogSalvage, IntactLogReadsCleanWithNoTearReported)
{
    for (uint32_t version : kVersions) {
        SalvageOutcome got = salvageDrain(sampleLog(100, version));
        EXPECT_EQ(got.records, 100u);
        EXPECT_FALSE(got.torn);
        EXPECT_EQ(got.discarded, 0u);
    }
}

TEST(TraceLogSalvage, CorruptLateChunkKeepsTheEarlierChunks)
{
    // Multi-chunk log (the writer flushes every kChunkRecords); flip a
    // byte near the end: the tear lands in the last chunk or the
    // trailer, so salvage keeps a whole-chunk prefix and drops the
    // poisoned tail.
    for (uint32_t version : kVersions) {
        const auto good =
            sampleLog(3 * TraceLogFormat::kChunkRecords, version);
        auto bad = good;
        bad[bad.size() - 20] ^= 0x40;
        SalvageOutcome got = salvageDrain(std::move(bad));
        EXPECT_TRUE(got.torn);
        EXPECT_LT(got.records,
                  size_t{3} * TraceLogFormat::kChunkRecords);
        EXPECT_EQ(got.records % TraceLogFormat::kChunkRecords, 0u)
            << "salvage must end on a chunk boundary";
        EXPECT_GE(got.records,
                  size_t{2} * TraceLogFormat::kChunkRecords)
            << "the clean leading chunks must survive";
    }
}

TEST(TraceLogSalvage, BadMagicStillThrowsEvenInSalvageMode)
{
    auto bad = sampleLog(16);
    bad[0] ^= 0xff;
    EXPECT_THROW(
        TraceLogReader(bad, TraceLogReader::Mode::Salvage), FatalError);
}

class SalvageFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SalvageFuzz, RandomDamageNeverPanicsAndNeverOverReads)
{
    // Random truncations and byte rewrites across a multi-chunk log:
    // salvage must never panic, crash, or surface more records than
    // the log ever contained; an undamaged read stays complete.
    const size_t records = 2 * TraceLogFormat::kChunkRecords + 100;
    for (uint32_t version : kVersions) {
        const auto good = sampleLog(records, version);
        Xorshift64Star rng(GetParam() + version);
        for (int round = 0; round < 100; ++round) {
            auto bad = good;
            if (rng.nextBool(0.5)) {
                size_t keep = 8 + rng.nextBelow(bad.size() - 8);
                bad.resize(keep);
            } else {
                size_t pos = 8 + rng.nextBelow(bad.size() - 8);
                bad[pos] = static_cast<uint8_t>(rng.next());
            }
            SalvageOutcome got = salvageDrain(std::move(bad));
            EXPECT_LE(got.records, records);
            if (!got.torn) {
                EXPECT_EQ(got.records, records);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SalvageFuzz,
                         ::testing::Values(11, 22, 33));

TEST(TraceLogFuzz, TrailerCountMismatchIsFatal)
{
    for (uint32_t version : kVersions) {
        auto good = sampleLog(16, version);
        // The trailer's u64 total is the last 8 bytes; nudge it.
        good[good.size() - 8] ^= 1;
        EXPECT_THROW(drain(std::move(good)), FatalError);
    }
}

TEST(TraceLogFuzz, TrailingGarbageIsFatal)
{
    for (uint32_t version : kVersions) {
        auto good = sampleLog(16, version);
        good.push_back(0xab);
        EXPECT_THROW(drain(std::move(good)), FatalError);
    }
}

TEST(TraceLogFuzz, OverclaimedRecordCountIsFatalEverywhere)
{
    // One CRC-valid Delta chunk that claims 1000 records in 10 payload
    // bytes, with a trailer that agrees. Every record costs at least a
    // byte, so the reader, the inspector (`teadbt log-info`) and the
    // wire decoder must all refuse the chunk frame itself.
    auto put32 = [](std::vector<uint8_t> &out, uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    std::vector<uint8_t> chunk;
    put32(chunk, 1000);
    chunk.push_back(static_cast<uint8_t>(ChunkEncoding::Delta));
    put32(chunk, 10);
    chunk.insert(chunk.end(), 10, 0x00);
    put32(chunk, crc32(chunk.data(), chunk.size()));

    std::vector<uint8_t> log;
    put32(log, TraceLogFormat::kMagic);
    put32(log, TraceLogFormat::kVersion);
    log.insert(log.end(), chunk.begin(), chunk.end());
    put32(log, 0);
    put32(log, 1000); // u64 trailer total, low word
    put32(log, 0);

    auto message = [](auto &&fn) -> std::string {
        try {
            fn();
        } catch (const FatalError &e) {
            return e.what();
        }
        return "accepted";
    };
    const std::string want =
        "chunk record count 1000 exceeds payload bytes 10";
    std::string inspect =
        message([&] { inspectTraceLog(log.data(), log.size()); });
    std::string read = message([&] { readTraceLog(log); });
    std::string wire =
        message([&] { decodeWireChunk(chunk.data(), chunk.size()); });
    EXPECT_NE(inspect.find(want), std::string::npos) << inspect;
    EXPECT_NE(read.find(want), std::string::npos) << read;
    EXPECT_NE(wire.find(want), std::string::npos) << wire;
}

// --------------------------------------------------- elided-log fuzzing

/** A recorded workload, its automaton, and its elided log. */
struct ElidedSample
{
    std::shared_ptr<const Tea> tea;
    std::shared_ptr<const CompiledTea> automaton;
    std::vector<BlockTransition> live;
    std::vector<uint8_t> bytes;
};

const ElidedSample &
elidedSample()
{
    static const ElidedSample sample = [] {
        ElidedSample s;
        Workload w = Workloads::build("syn.mcf", InputSize::Test);
        DbtRuntime dbt(w.program);
        s.tea = std::make_shared<const Tea>(
            buildTea(dbt.record("mret").traces));
        s.automaton = CompiledTea::compile(s.tea);
        TraceLogOptions opts;
        opts.elideWith = s.automaton;
        TraceLogWriter writer(&s.bytes, opts);
        Machine m(w.program);
        BlockTracker tracker(
            w.program,
            [&](const BlockTransition &tr) {
                s.live.push_back(tr);
                writer.append(tr);
            },
            /*rep_per_iteration=*/false, /*collect_blocks=*/false);
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    false);
        writer.finish();
        return s;
    }();
    return sample;
}

TEST(TraceLogElidedFuzz, TruncationAndByteFlipsNeverPanic)
{
    const ElidedSample &s = elidedSample();
    ASSERT_EQ(drain(s.bytes, s.automaton.get()), s.live.size());

    Xorshift64Star rng(77);
    for (int round = 0; round < 300; ++round) {
        auto bad = s.bytes;
        if (rng.nextBool(0.4)) {
            bad.resize(rng.nextBelow(bad.size()));
            EXPECT_THROW(drain(std::move(bad), s.automaton.get()),
                         FatalError);
        } else {
            size_t pos = rng.nextBelow(bad.size());
            bad[pos] = static_cast<uint8_t>(rng.next());
            try {
                drain(std::move(bad), s.automaton.get());
            } catch (const FatalError &) {
                // expected for most flips; a lucky identity flip or a
                // CRC-colliding rewrite to a valid log is acceptable
            }
        }
        // PanicError or a crash fails the test either way.
    }

    // Salvage over the damaged elided log never over-reads.
    for (int round = 0; round < 100; ++round) {
        auto bad = s.bytes;
        size_t pos = 8 + rng.nextBelow(bad.size() - 8);
        bad[pos] = static_cast<uint8_t>(rng.next());
        SalvageOutcome got =
            salvageDrain(std::move(bad), s.automaton.get());
        EXPECT_LE(got.records, s.live.size());
    }
}

TEST(TraceLogElidedFuzz, BitsetFlipBehindAValidCrcIsStillFatal)
{
    // Forge the CRC after flipping the first bitset bit: record 0 of a
    // chunk can never be predicted (the predictor has no previous
    // destination yet), so the decode itself must reject the claim —
    // the damage is caught by the codec, not just the checksum.
    const ElidedSample &s = elidedSample();
    constexpr size_t kHeadAt = 8;      // first chunk head
    constexpr size_t kPayloadAt = 17;  // head (9 bytes) after container
    auto rd32 = [&](const std::vector<uint8_t> &b, size_t at) {
        return uint32_t(b[at]) | (uint32_t(b[at + 1]) << 8) |
               (uint32_t(b[at + 2]) << 16) | (uint32_t(b[at + 3]) << 24);
    };
    ASSERT_EQ(s.bytes[kHeadAt + 4], 2u) << "first chunk must be Elided";
    size_t payloadLen = rd32(s.bytes, kHeadAt + 5);
    ASSERT_GT(payloadLen, 0u);

    auto bad = s.bytes;
    bad[kPayloadAt] ^= 0x01; // record 0's prediction bit
    uint32_t crc = crc32(bad.data() + kHeadAt, 9 + payloadLen);
    size_t crcAt = kPayloadAt + payloadLen;
    bad[crcAt] = static_cast<uint8_t>(crc);
    bad[crcAt + 1] = static_cast<uint8_t>(crc >> 8);
    bad[crcAt + 2] = static_cast<uint8_t>(crc >> 16);
    bad[crcAt + 3] = static_cast<uint8_t>(crc >> 24);
    EXPECT_THROW(drain(std::move(bad), s.automaton.get()), FatalError);
}

// ------------------------------------------------- batch decode kernel

/** Run the kernel over a hand-crafted delta payload. */
std::vector<BlockTransition>
decodeDelta(const std::vector<uint8_t> &payload, uint32_t records,
            ChunkEncoding enc = ChunkEncoding::Delta,
            const CompiledTea *automaton = nullptr)
{
    TraceChunkView view;
    view.records = records;
    view.encoding = enc;
    view.payload = payload.data();
    view.size = payload.size();
    std::vector<BlockTransition> out;
    decodeChunk(view, automaton, out);
    return out;
}

TEST(TraceLogKernel, ReservedTagBitsAreFatal)
{
    // Tag with a reserved bit set; everything else well-formed.
    for (uint8_t reserved : {0x08, 0x10, 0x18}) {
        std::vector<uint8_t> payload{
            static_cast<uint8_t>(0x02 | reserved), // new-block + junk
            0x02, 0x08, 0x01, 0x02};
        EXPECT_THROW(decodeDelta(payload, 1), FatalError);
    }
}

TEST(TraceLogKernel, SameStartWithoutABaseIsFatal)
{
    // First record of a chunk claims "same start as the previous
    // destination" — but there is no previous destination yet.
    std::vector<uint8_t> payload{0x03, 0x08, 0x01, 0x02};
    EXPECT_THROW(decodeDelta(payload, 1), FatalError);
}

TEST(TraceLogKernel, DictionaryMissIsFatal)
{
    // A non-new-block record for a start address the chunk dictionary
    // has never seen.
    std::vector<uint8_t> payload{0x00, 0x02, 0x02};
    EXPECT_THROW(decodeDelta(payload, 1), FatalError);
}

TEST(TraceLogKernel, OverlongVarintIsFatal)
{
    // 10 continuation bytes exceed a u64 varint's maximum length.
    std::vector<uint8_t> payload{0x02};
    for (int i = 0; i < 10; ++i)
        payload.push_back(0x80);
    payload.push_back(0x01);
    EXPECT_THROW(decodeDelta(payload, 1), FatalError);
}

TEST(TraceLogKernel, TrailingPayloadBytesAreFatal)
{
    // One valid new-block record, then a stray byte: the kernel must
    // insist on exact payload consumption.
    std::vector<uint8_t> good{0x02, 0x02, 0x08, 0x01, 0x02};
    EXPECT_EQ(decodeDelta(good, 1).size(), 1u);
    auto bad = good;
    bad.push_back(0x00);
    EXPECT_THROW(decodeDelta(bad, 1), FatalError);
}

TEST(TraceLogKernel, TruncatedPayloadIsFatalAtEveryCut)
{
    std::vector<uint8_t> good{0x02, 0x02, 0x08, 0x01, 0x02};
    for (size_t keep = 0; keep < good.size(); ++keep) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() + static_cast<long>(keep));
        EXPECT_THROW(decodeDelta(cut, 1), FatalError) << "kept " << keep;
    }
}

TEST(TraceLogKernel, ElidedChunkWithoutAutomatonIsFatal)
{
    std::vector<uint8_t> payload{0x00}; // 1-record bitset, bit clear
    EXPECT_THROW(decodeDelta(payload, 1, ChunkEncoding::Elided),
                 FatalError);
}

// ----------------------------------------------------------- differential

/** A random stream with hot revisits, cold jumps, and odd starts. */
std::vector<BlockTransition>
randomStream(Xorshift64Star &rng, size_t n)
{
    std::vector<BlockTransition> s;
    s.reserve(n + 1);
    Addr pc = 0x1000 + static_cast<Addr>(rng.nextBelow(0x1000));
    for (size_t i = 0; i < n; ++i) {
        BlockTransition tr;
        // Mostly chained from the previous destination (the hot delta
        // path), sometimes a detached start (the explicit-start path).
        tr.from.start =
            rng.nextBool(0.1)
                ? static_cast<Addr>(rng.nextBelow(0xffff0000))
                : pc;
        tr.from.end = tr.from.start + static_cast<Addr>(rng.nextBelow(64));
        tr.from.icount = rng.nextBelow(1u << 20);
        tr.kind = static_cast<EdgeKind>(rng.nextBelow(6));
        // Revisit a small working set often so the dictionary is hot;
        // jump far occasionally so deltas go long and negative.
        pc = rng.nextBool(0.7)
                 ? 0x1000 + static_cast<Addr>(rng.nextBelow(256)) * 16
                 : static_cast<Addr>(rng.nextBelow(0xffff0000));
        tr.toStart = pc;
        s.push_back(tr);
    }
    if (rng.nextBool(0.5)) {
        BlockTransition halt;
        halt.from.start = pc;
        halt.from.end = pc + 4;
        halt.from.icount = 1;
        halt.kind = EdgeKind::Halt;
        halt.toStart = kNoAddr;
        s.push_back(halt);
    }
    return s;
}

bool
identical(const BlockTransition &a, const BlockTransition &b)
{
    return a.from == b.from && a.toStart == b.toStart &&
           a.kind == b.kind;
}

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DifferentialFuzz, V1AndV2DecodeBitIdentically)
{
    Xorshift64Star rng(GetParam());
    const CompiledTea *automaton = elidedSample().automaton.get();
    for (int round = 0; round < 20; ++round) {
        auto stream = randomStream(rng, 50 + rng.nextBelow(3000));
        std::vector<std::vector<uint8_t>> logs(3);
        for (int enc = 0; enc < 3; ++enc) {
            TraceLogOptions opts;
            if (enc == 0)
                opts.version = TraceLogFormat::kVersionV1;
            if (enc == 2)
                opts.elideWith = elidedSample().automaton;
            TraceLogWriter w(&logs[enc], opts);
            for (const auto &tr : stream)
                w.append(tr);
            w.finish();
        }
        for (int enc = 0; enc < 3; ++enc) {
            auto back = readTraceLog(logs[enc], automaton);
            ASSERT_EQ(back.size(), stream.size()) << "encoding " << enc;
            for (size_t i = 0; i < stream.size(); ++i)
                ASSERT_TRUE(identical(back[i], stream[i]))
                    << "encoding " << enc << " record " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Values(5, 55, 555, 5555));

TEST(TraceLogDifferential, ReplayAgreesAcrossEncodingsAndLookupModes)
{
    // The ISSUE acceptance bar: a v2 (and elided) log must replay with
    // ReplayStats bit-identical to the v1 log of the same stream, in
    // every lookup configuration.
    const ElidedSample &s = elidedSample();
    std::vector<std::vector<uint8_t>> logs(3);
    for (int enc = 0; enc < 2; ++enc) {
        TraceLogOptions opts;
        if (enc == 0)
            opts.version = TraceLogFormat::kVersionV1;
        TraceLogWriter w(&logs[enc], opts);
        for (const auto &tr : s.live)
            w.append(tr);
        w.finish();
    }
    logs[2] = s.bytes;

    for (bool useCompiled : {false, true}) {
        for (bool useGlobal : {false, true}) {
            LookupConfig cfg;
            cfg.useCompiled = useCompiled;
            cfg.useGlobalBTree = useGlobal;
            StreamResult ref;
            for (int enc = 0; enc < 3; ++enc) {
                ReplayJob job{s.tea, "", &logs[enc], s.automaton};
                StreamResult res = runReplayJob(job, cfg);
                ASSERT_TRUE(res.ok()) << res.error;
                if (enc == 0) {
                    ref = res;
                    continue;
                }
                EXPECT_EQ(res.stats, ref.stats)
                    << "encoding " << enc << " compiled=" << useCompiled
                    << " global=" << useGlobal;
            }
        }
    }
}

// ------------------------------------------- fused walk vs unfused oracle

/** A block's span and icount are fixed by its address, as in a program. */
BlockRef
blockAt(Addr start)
{
    return BlockRef{start, start + 4 + (start >> 4) % 9,
                    1 + (start >> 4) % 13};
}

/**
 * A random stream a program could have produced: every record starts
 * where the previous one went (so the consistency check holds) over a
 * fixed random CFG of 64 hot blocks, with rare jumps to far cold blocks
 * and, half the time, a final halt.
 */
std::vector<BlockTransition>
chainedStream(Xorshift64Star &rng, size_t n)
{
    constexpr Addr kBase = 0x1000;
    constexpr uint32_t kBlocks = 64;
    std::vector<std::array<Addr, 2>> succ(kBlocks);
    for (auto &pair : succ)
        for (Addr &a : pair)
            a = kBase + 16 * static_cast<Addr>(rng.nextBelow(kBlocks));
    std::vector<BlockTransition> s;
    s.reserve(n + 1);
    Addr pc = kBase;
    for (size_t i = 0; i < n; ++i) {
        BlockTransition tr;
        tr.from = blockAt(pc);
        bool hot = pc < kBase + 16 * kBlocks;
        if (!hot)
            tr.toStart = kBase + 16 * static_cast<Addr>(rng.nextBelow(kBlocks));
        else if (rng.nextBool(0.01))
            tr.toStart = 0x80000 + 16 * static_cast<Addr>(rng.nextBelow(4096));
        else
            tr.toStart = succ[(pc - kBase) / 16][rng.nextBool(0.8) ? 0 : 1];
        tr.kind = tr.toStart <= tr.from.end
                      ? (rng.nextBool(0.5) ? EdgeKind::BranchTaken
                                           : EdgeKind::Jump)
                      : static_cast<EdgeKind>(rng.nextBelow(6));
        s.push_back(tr);
        pc = tr.toStart;
    }
    if (rng.nextBool(0.5))
        s.push_back(BlockTransition{blockAt(pc), kNoAddr, EdgeKind::Halt});
    return s;
}

/** One differential input: a stream and the automaton to replay it on. */
struct FusedCase
{
    std::string name;
    std::shared_ptr<const Tea> tea;
    std::shared_ptr<const CompiledTea> compiled;
    std::vector<BlockTransition> stream;
};

/** A random stream with an automaton MRET recorded over it. */
FusedCase
randomCase(uint64_t seed, size_t n)
{
    Xorshift64Star rng(seed);
    FusedCase c;
    c.name = "random seed " + std::to_string(seed);
    c.stream = chainedStream(rng, n);
    TeaRecorder recorder(makeSelector("mret"));
    for (const BlockTransition &tr : c.stream)
        recorder.feed(tr);
    c.tea = std::make_shared<const Tea>(recorder.tea());
    c.compiled = CompiledTea::compile(c.tea);
    return c;
}

/** A test-size suite program's run with its MRET automaton. */
FusedCase
suiteCase(const std::string &workload)
{
    FusedCase c;
    c.name = workload;
    Workload w = Workloads::build(workload, InputSize::Test);
    c.tea = std::make_shared<const Tea>(
        buildTea(DbtRuntime(w.program).record("mret").traces));
    c.compiled = CompiledTea::compile(c.tea);
    Machine m(w.program);
    BlockTracker tracker(
        w.program, [&](const BlockTransition &tr) { c.stream.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return c;
}

/** The stream as a v1 raw, v2 delta and v2 elided log. */
std::array<std::vector<uint8_t>, 3>
encodings(const FusedCase &c)
{
    std::array<std::vector<uint8_t>, 3> logs;
    for (int enc = 0; enc < 3; ++enc) {
        TraceLogOptions opts;
        if (enc == 0)
            opts.version = TraceLogFormat::kVersionV1;
        if (enc == 2)
            opts.elideWith = c.compiled;
        TraceLogWriter w(&logs[enc], opts);
        for (const BlockTransition &tr : c.stream)
            w.append(tr);
        w.finish();
    }
    return logs;
}

/** The unfused oracle: decode the whole log, then feed() each record. */
StreamResult
oracleReplay(const FusedCase &c, const std::vector<uint8_t> &log,
             LookupConfig cfg)
{
    std::vector<BlockTransition> records =
        readTraceLog(log, c.compiled.get());
    TeaReplayer replayer(*c.tea, cfg,
                         cfg.useCompiled ? c.compiled : nullptr);
    for (const BlockTransition &tr : records)
        replayer.feed(tr);
    StreamResult res;
    res.stats = replayer.stats();
    for (StateId id = 0; id < replayer.numStates(); ++id)
        res.execCounts.push_back(replayer.execCount(id));
    return res;
}

/** Every LookupConfig: kernel x global index x local cache x check. */
std::vector<LookupConfig>
allConfigs()
{
    std::vector<LookupConfig> out;
    for (int bits = 0; bits < 16; ++bits) {
        LookupConfig cfg;
        cfg.useCompiled = (bits & 1) != 0;
        cfg.useGlobalBTree = (bits & 2) != 0;
        cfg.useLocalCache = (bits & 4) != 0;
        cfg.checkConsistency = (bits & 8) != 0;
        out.push_back(cfg);
    }
    return out;
}

std::string
describe(const LookupConfig &cfg)
{
    return strprintf("compiled=%d global=%d local=%d check=%d",
                     cfg.useCompiled, cfg.useGlobalBTree,
                     cfg.useLocalCache, cfg.checkConsistency);
}

TEST(FusedReplay, AgreesWithTheUnfusedOracleEverywhere)
{
    // Multi-chunk random streams (one with a short last chunk) and two
    // suite programs, each in all three encodings, through every
    // lookup configuration: runReplayJob's strict walk must produce
    // the oracle's stats and profile exactly.
    std::vector<FusedCase> cases;
    cases.push_back(randomCase(11, 3 * TraceLogFormat::kChunkRecords));
    cases.push_back(randomCase(23, 2 * TraceLogFormat::kChunkRecords + 777));
    cases.push_back(suiteCase("syn.gzip"));
    cases.push_back(suiteCase("syn.mcf"));
    const char *encName[3] = {"v1 raw", "v2 delta", "v2 elided"};
    for (const FusedCase &c : cases) {
        ASSERT_GT(c.tea->entries().size(), 0u) << c.name;
        auto logs = encodings(c);
        size_t chunks =
            inspectTraceLog(logs[1].data(), logs[1].size()).chunks.size();
        for (int enc = 0; enc < 3; ++enc) {
            for (const LookupConfig &cfg : allConfigs()) {
                SCOPED_TRACE(c.name + ", " + encName[enc] + ", " +
                             describe(cfg));
                StreamResult want = oracleReplay(c, logs[enc], cfg);
                EXPECT_GT(want.stats.intraTraceHits, 0u);
                ReplayJob job{c.tea, "", &logs[enc], c.compiled};
                StreamResult got = runReplayJob(job, cfg);
                ASSERT_TRUE(got.ok()) << got.error;
                EXPECT_FALSE(got.salvaged);
                EXPECT_EQ(got.stats, want.stats);
                EXPECT_EQ(got.execCounts, want.execCounts);
                EXPECT_EQ(got.batches, chunks);
            }
        }
    }
}

uint32_t
get32(const std::vector<uint8_t> &b, size_t at)
{
    return uint32_t(b[at]) | (uint32_t(b[at + 1]) << 8) |
           (uint32_t(b[at + 2]) << 16) | (uint32_t(b[at + 3]) << 24);
}

/** File offset of chunk `k`'s head in a well-formed v2 log. */
size_t
chunkAt(const std::vector<uint8_t> &log, size_t k)
{
    size_t at = 8; // magic + version
    for (size_t i = 0; i < k; ++i)
        at += 9 + get32(log, at + 5) + 4; // head, payload, CRC
    return at;
}

/**
 * Corrupt chunk `k` of a v2 delta log behind a valid CRC: a record in
 * the second half of the chunk that is its block's first visit there
 * loses its new-block tag bit, so the decoder finds no dictionary
 * entry for it — a malformed record in mid-chunk that only the codec
 * can catch.
 */
std::vector<uint8_t>
dictionaryMissLog(const std::vector<BlockTransition> &stream, size_t k)
{
    std::vector<uint8_t> log;
    {
        TraceLogWriter w(&log);
        for (const BlockTransition &tr : stream)
            w.append(tr);
    }
    const size_t first = k * TraceLogFormat::kChunkRecords;
    const BlockTransition *recs = stream.data() + first;
    const size_t n = std::min<size_t>(TraceLogFormat::kChunkRecords,
                                      stream.size() - first);
    size_t j = n / 2;
    auto seenBefore = [&](size_t at) {
        for (size_t i = 0; i < at; ++i)
            if (recs[i].from.start == recs[at].from.start)
                return true;
        return false;
    };
    while (j < n && seenBefore(j))
        ++j;
    EXPECT_LT(j, n) << "no first visit in the second half of chunk " << k;
    // Chunk state resets per chunk, so record j's tag sits where the
    // encoding of the chunk's first j records ends.
    std::vector<uint8_t> prefix;
    encodeChunkPayload(prefix, ChunkEncoding::Delta, recs, j);
    const size_t head = chunkAt(log, k);
    uint8_t &tag = log[head + 9 + prefix.size()];
    EXPECT_NE(tag & 0x02, 0) << "record " << j << " is not a new block";
    tag &= static_cast<uint8_t>(~0x02);
    const uint32_t payload = get32(log, head + 5);
    uint32_t crc = crc32(log.data() + head, 9 + payload);
    for (int i = 0; i < 4; ++i)
        log[head + 9 + payload + i] = static_cast<uint8_t>(crc >> (8 * i));
    return log;
}

std::string
oracleError(const std::vector<uint8_t> &log, const CompiledTea *automaton)
{
    try {
        readTraceLog(log, automaton);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(FusedReplay, CorruptLogFailsWithTheOracleMessage)
{
    FusedCase c = randomCase(31, 4 * TraceLogFormat::kChunkRecords + 100);
    auto good = encodings(c)[1];
    std::vector<std::pair<std::string, std::vector<uint8_t>>> bad;
    bad.emplace_back("dictionary miss in chunk 2",
                     dictionaryMissLog(c.stream, 2));
    auto trailer = good;
    trailer[trailer.size() - 8] ^= 0x01; // trailer total, low byte
    bad.emplace_back("wrong trailer count", trailer);
    for (size_t cut : {chunkAt(good, 3), chunkAt(good, 3) + 20,
                       good.size() - 3}) {
        bad.emplace_back("truncated at " + std::to_string(cut),
                         std::vector<uint8_t>(good.begin(),
                                              good.begin() +
                                                  static_cast<long>(cut)));
    }
    for (const auto &[what, log] : bad) {
        std::string want = oracleError(log, c.compiled.get());
        ASSERT_FALSE(want.empty()) << what << " decoded cleanly";
        for (const LookupConfig &cfg : allConfigs()) {
            ReplayJob job{c.tea, "", &log, c.compiled};
            StreamResult got = runReplayJob(job, cfg);
            EXPECT_EQ(got.error, want) << what << ", " << describe(cfg);
            EXPECT_EQ(got.stats, ReplayStats{}) << what;
        }
    }
    EXPECT_NE(oracleError(bad[0].second, nullptr)
                  .find("missing from the chunk dictionary"),
              std::string::npos);
}

TEST(PushReader, AnySplitReplaysAsOnePushAndHoldsOneChunkFrameAtMost)
{
    // Push each encoding in pieces from 1 byte to a few KiB: the walk
    // equals runReplayJob()'s single push, and between pushes the
    // reader holds less than the largest chunk frame — never the log.
    FusedCase c = randomCase(41, 3 * TraceLogFormat::kChunkRecords + 555);
    auto logs = encodings(c);
    for (int enc = 0; enc < 3; ++enc) {
        const std::vector<uint8_t> &log = logs[enc];
        TraceLogInfo info = inspectTraceLog(log.data(), log.size());
        size_t largest = 0;
        for (const TraceLogChunkInfo &ci : info.chunks)
            largest = std::max<size_t>(
                largest, chunkHead(info.version) + ci.payloadBytes + 4);
        ReplayJob job{c.tea, "", &log, c.compiled};
        StreamResult want = runReplayJob(job, LookupConfig{});
        ASSERT_TRUE(want.ok()) << want.error;
        for (size_t step : {1, 3, 64, 1000, 4096}) {
            SCOPED_TRACE(std::to_string(enc) + ", pushes of " +
                         std::to_string(step));
            TeaReplayer replayer(c.compiled, LookupConfig{});
            TraceLogPushReader reader(c.compiled.get());
            size_t held = 0;
            for (size_t at = 0; at < log.size(); at += step) {
                reader.push(log.data() + at,
                            std::min(step, log.size() - at), replayer);
                held = std::max(held, reader.heldBytes());
            }
            reader.finish();
            EXPECT_LT(held, largest);
            EXPECT_EQ(reader.heldBytes(), 0u);
            EXPECT_EQ(reader.times().chunks, info.chunks.size());
            EXPECT_EQ(replayer.stats(), want.stats);
            for (StateId id = 0; id < replayer.numStates(); ++id)
                ASSERT_EQ(replayer.execCount(id), want.execCounts[id]);
        }
    }
}

TEST(PushReader, ResetReadsTheNextLogAfterADefect)
{
    // A reader spent by a defect reads a good log after reset(), and a
    // replayer rebound to another automaton — across kernels, and
    // after being emptied — replays as a fresh one.
    FusedCase a = randomCase(43, 2 * TraceLogFormat::kChunkRecords + 9);
    FusedCase b = randomCase(47, TraceLogFormat::kChunkRecords + 300);
    auto logsA = encodings(a);
    auto logsB = encodings(b);
    std::vector<uint8_t> torn(logsA[1].begin(), logsA[1].end() - 1);
    LookupConfig reference;
    reference.useCompiled = false;
    TraceLogPushReader reader(a.compiled.get());
    TeaReplayer replayer(*a.tea, reference);
    reader.push(torn.data(), torn.size(), replayer);
    EXPECT_THROW(reader.finish(), FatalError);

    ReplayJob job{b.tea, "", &logsB[2], b.compiled};
    StreamResult want = runReplayJob(job, LookupConfig{});
    ASSERT_TRUE(want.ok()) << want.error;
    replayer.rebind(nullptr, LookupConfig{});
    EXPECT_EQ(replayer.numStates(), 0u);
    replayer.rebind(b.compiled, LookupConfig{});
    reader.reset(b.compiled.get());
    reader.push(logsB[2].data(), logsB[2].size(), replayer);
    reader.finish();
    EXPECT_EQ(replayer.stats(), want.stats);
    ASSERT_EQ(replayer.numStates(), want.execCounts.size());
    for (StateId id = 0; id < replayer.numStates(); ++id)
        ASSERT_EQ(replayer.execCount(id), want.execCounts[id]);
    EXPECT_THROW(replayer.rebind(b.compiled, reference), FatalError);
}

TEST(FusedReplay, SalvageDropsATornChunkWhole)
{
    // Chunk 2 is CRC-valid but malformed mid-way. A salvage job must
    // replay exactly chunks [0, 2) — the stats and profile of a strict
    // job over those chunks with a valid trailer — and feed nothing of
    // chunk 2, even though its first half decodes.
    constexpr size_t k = 2;
    FusedCase c = randomCase(47, 4 * TraceLogFormat::kChunkRecords);
    std::vector<uint8_t> bad = dictionaryMissLog(c.stream, k);
    const size_t tornAt = chunkAt(bad, k);
    std::vector<uint8_t> prefix(bad.begin(),
                                bad.begin() + static_cast<long>(tornAt));
    const uint64_t kept = k * TraceLogFormat::kChunkRecords;
    for (int i = 0; i < 4; ++i)
        prefix.push_back(0); // end marker
    for (int i = 0; i < 8; ++i)
        prefix.push_back(static_cast<uint8_t>(kept >> (8 * i)));

    for (bool useCompiled : {true, false}) {
        LookupConfig cfg;
        cfg.useCompiled = useCompiled;
        cfg.checkConsistency = true;
        ReplayJob strict{c.tea, "", &prefix, c.compiled};
        StreamResult want = runReplayJob(strict, cfg);
        ASSERT_TRUE(want.ok()) << want.error;
        ASSERT_EQ(want.stats.blocks, kept);

        ReplayJob salvage{c.tea, "", &bad, c.compiled};
        salvage.salvage = true;
        StreamResult got = runReplayJob(salvage, cfg);
        ASSERT_TRUE(got.ok()) << got.error;
        EXPECT_TRUE(got.salvaged);
        EXPECT_NE(got.salvageReason.find("missing from the chunk dictionary"),
                  std::string::npos)
            << got.salvageReason;
        EXPECT_EQ(got.salvageBytesDropped, bad.size() - tornAt);
        EXPECT_EQ(got.stats, want.stats) << "compiled=" << useCompiled;
        EXPECT_EQ(got.execCounts, want.execCounts)
            << "compiled=" << useCompiled;
        EXPECT_EQ(got.batches, k);
    }
}

} // namespace
} // namespace tea
