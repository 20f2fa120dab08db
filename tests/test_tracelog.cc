/**
 * @file
 * Trace-log round trips: writer/reader agreement on synthetic streams,
 * chunk-boundary behavior, file-backed logs, and real recorded
 * workload streams.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dbt/runtime.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

BlockTransition
makeTr(Addr start, Addr end, uint64_t icount, EdgeKind kind, Addr to)
{
    BlockTransition tr;
    tr.from.start = start;
    tr.from.end = end;
    tr.from.icount = icount;
    tr.kind = kind;
    tr.toStart = to;
    return tr;
}

bool
sameTr(const BlockTransition &a, const BlockTransition &b)
{
    return a.from == b.from && a.toStart == b.toStart && a.kind == b.kind;
}

std::vector<BlockTransition>
syntheticStream(size_t n)
{
    std::vector<BlockTransition> stream;
    stream.reserve(n);
    Addr pc = 0x1000;
    for (size_t i = 0; i < n; ++i) {
        // A working set well under one chunk's worth of records, so
        // revisits land in the chunk dictionary — the steady state a
        // real DBT loop produces.
        Addr next = 0x1000 + static_cast<Addr>((i * 13) % 128) * 16;
        auto kind = static_cast<EdgeKind>(i % 6); // everything but Halt
        // Span and icount are properties of the block, so revisits
        // repeat them exactly.
        Addr block = (pc - 0x1000) / 16;
        stream.push_back(makeTr(pc, pc + 8 + (block % 5),
                                1 + (block % 17), kind, next));
        pc = next;
    }
    // Final halt record: no successor block.
    stream.push_back(
        makeTr(pc, pc + 4, 3, EdgeKind::Halt, kNoAddr));
    return stream;
}

TEST(TraceLog, MemoryRoundTrip)
{
    auto stream = syntheticStream(100);
    std::vector<uint8_t> bytes;
    {
        TraceLogWriter writer(&bytes);
        for (const auto &tr : stream)
            writer.append(tr);
        writer.finish();
        EXPECT_EQ(writer.records(), stream.size());
    }
    auto back = readTraceLog(bytes);
    ASSERT_EQ(back.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i)
        EXPECT_TRUE(sameTr(back[i], stream[i])) << "record " << i;
}

TEST(TraceLog, EmptyLogIsValid)
{
    std::vector<uint8_t> bytes;
    {
        TraceLogWriter writer(&bytes);
        writer.finish();
    }
    TraceLogReader reader(bytes);
    BlockTransition tr;
    EXPECT_FALSE(reader.next(tr));
    EXPECT_FALSE(reader.next(tr)); // idempotent at end
    EXPECT_EQ(reader.recordsRead(), 0u);
}

TEST(TraceLog, MultiChunkStreamsCleanly)
{
    // Cross several chunk boundaries and end mid-chunk.
    size_t n = TraceLogFormat::kChunkRecords * 3 + 123;
    auto stream = syntheticStream(n);
    std::vector<uint8_t> bytes;
    {
        TraceLogWriter writer(&bytes);
        for (const auto &tr : stream)
            writer.append(tr);
        writer.finish();
    }
    TraceLogReader reader(std::move(bytes));
    BlockTransition tr;
    size_t i = 0;
    while (reader.next(tr)) {
        ASSERT_LT(i, stream.size());
        EXPECT_TRUE(sameTr(tr, stream[i])) << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, stream.size());
    EXPECT_EQ(reader.recordsRead(), stream.size());
}

TEST(TraceLog, DestructorFinishesUnfinishedLog)
{
    std::vector<uint8_t> bytes;
    {
        TraceLogWriter writer(&bytes);
        writer.append(makeTr(0x100, 0x108, 4, EdgeKind::Jump, 0x100));
        // No explicit finish(): the destructor must emit the trailer.
    }
    auto back = readTraceLog(bytes);
    EXPECT_EQ(back.size(), 1u);
}

TEST(TraceLog, AppendAfterFinishPanics)
{
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    writer.finish();
    EXPECT_THROW(
        writer.append(makeTr(0x100, 0x108, 4, EdgeKind::Jump, 0x100)),
        PanicError);
}

TEST(TraceLog, FileRoundTrip)
{
    std::string path = "test_tracelog_roundtrip.tlog";
    auto stream = syntheticStream(500);
    {
        TraceLogWriter writer(path);
        for (const auto &tr : stream)
            writer.append(tr);
        writer.finish();
    }
    TraceLogReader reader = TraceLogReader::openFile(path);
    BlockTransition tr;
    size_t i = 0;
    while (reader.next(tr))
        EXPECT_TRUE(sameTr(tr, stream[i++]));
    EXPECT_EQ(i, stream.size());
    std::remove(path.c_str());
}

TEST(TraceLog, UnopenableFileIsFatal)
{
    EXPECT_THROW(TraceLogWriter("/nonexistent-dir/x.tlog"), FatalError);
    EXPECT_THROW(TraceLogReader::openFile("no-such-file.tlog"),
                 FatalError);
}

TEST(TraceLog, RecordedWorkloadRoundTrips)
{
    // The real producer: a hooked VM run through a BlockTracker.
    Workload w = Workloads::build("syn.mcf", InputSize::Test);
    std::vector<BlockTransition> live;
    std::vector<uint8_t> bytes;
    {
        TraceLogWriter writer(&bytes);
        Machine m(w.program);
        BlockTracker tracker(w.program, [&](const BlockTransition &tr) {
            live.push_back(tr);
            writer.append(tr);
        });
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    false);
        writer.finish();
    }
    ASSERT_FALSE(live.empty());
    auto back = readTraceLog(bytes);
    ASSERT_EQ(back.size(), live.size());
    for (size_t i = 0; i < live.size(); ++i)
        ASSERT_TRUE(sameTr(back[i], live[i])) << "record " << i;
    // The last record of a halted run carries no successor.
    EXPECT_EQ(back.back().toStart, kNoAddr);
}

// ------------------------------------------------------------------ v2

/** Encode a stream into a container of the given options. */
std::vector<uint8_t>
encodeLog(const std::vector<BlockTransition> &stream,
          TraceLogOptions opts = {})
{
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes, opts);
    for (const auto &tr : stream)
        writer.append(tr);
    writer.finish();
    return bytes;
}

TEST(TraceLogV2, WriterDefaultsToV2AndV1StaysReadable)
{
    auto stream = syntheticStream(200);
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    EXPECT_EQ(writer.version(), TraceLogFormat::kVersion);
    for (const auto &tr : stream)
        writer.append(tr);
    writer.finish();
    TraceLogReader v2(bytes);
    EXPECT_EQ(v2.version(), 2u);

    TraceLogOptions v1opt;
    v1opt.version = TraceLogFormat::kVersionV1;
    auto v1bytes = encodeLog(stream, v1opt);
    TraceLogReader v1(v1bytes);
    EXPECT_EQ(v1.version(), 1u);

    // Both containers carry the identical stream.
    auto backV2 = readTraceLog(bytes);
    auto backV1 = readTraceLog(v1bytes);
    ASSERT_EQ(backV2.size(), stream.size());
    ASSERT_EQ(backV1.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_TRUE(sameTr(backV2[i], stream[i])) << "v2 record " << i;
        EXPECT_TRUE(sameTr(backV1[i], stream[i])) << "v1 record " << i;
        EXPECT_EQ(backV2[i].from.icount, stream[i].from.icount);
    }
}

TEST(TraceLogV2, DeltaContainerIsAtLeastTwiceAsSmall)
{
    // Steady-state revisited blocks: the v2 dictionary and delta tags
    // shrink each record from ~15 bytes toward 2-4.
    auto stream = syntheticStream(20000);
    TraceLogOptions v1opt;
    v1opt.version = TraceLogFormat::kVersionV1;
    auto v1 = encodeLog(stream, v1opt);
    auto v2 = encodeLog(stream);
    EXPECT_GE(static_cast<double>(v1.size()),
              2.0 * static_cast<double>(v2.size()))
        << "v1 " << v1.size() << " bytes vs v2 " << v2.size();
}

TEST(TraceLogV2, FlushedBytesTracksTheContainer)
{
    auto stream = syntheticStream(TraceLogFormat::kChunkRecords + 10);
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    // The 8-byte container header goes out eagerly at construction;
    // records buffer until a chunk fills.
    EXPECT_EQ(writer.flushedBytes(), 8u);
    for (const auto &tr : stream)
        writer.append(tr);
    // One full chunk flushed; the open chunk is not yet counted.
    uint64_t mid = writer.flushedBytes();
    EXPECT_GT(mid, 0u);
    EXPECT_LT(mid, bytes.size() + 1);
    writer.finish();
    EXPECT_EQ(writer.flushedBytes(), bytes.size());
}

TEST(TraceLogV2, UnsupportedWriterConfigsThrow)
{
    std::vector<uint8_t> bytes;
    TraceLogOptions bad;
    bad.version = 3;
    EXPECT_THROW(TraceLogWriter(&bytes, bad), FatalError);

    // Elision needs the v2 container.
    Workload w = Workloads::build("syn.mcf", InputSize::Test);
    DbtRuntime dbt(w.program);
    auto tea =
        std::make_shared<const Tea>(buildTea(dbt.record("mret").traces));
    TraceLogOptions v1elide;
    v1elide.version = TraceLogFormat::kVersionV1;
    v1elide.elideWith = CompiledTea::compile(tea);
    EXPECT_THROW(TraceLogWriter(&bytes, v1elide), FatalError);
}

TEST(TraceLogV2, NextChunkAgreesWithNext)
{
    size_t n = TraceLogFormat::kChunkRecords * 2 + 77;
    auto stream = syntheticStream(n);
    auto bytes = encodeLog(stream);

    TraceLogReader batched(bytes);
    std::vector<BlockTransition> viaChunks;
    const std::vector<BlockTransition> *buf;
    size_t chunks = 0;
    while ((buf = batched.nextChunk()) != nullptr) {
        viaChunks.insert(viaChunks.end(), buf->begin(), buf->end());
        ++chunks;
    }
    EXPECT_EQ(chunks, 3u);
    EXPECT_EQ(batched.recordsRead(), stream.size());

    TraceLogReader single(bytes);
    BlockTransition tr;
    size_t i = 0;
    while (single.next(tr)) {
        ASSERT_LT(i, viaChunks.size());
        EXPECT_TRUE(sameTr(tr, viaChunks[i])) << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, viaChunks.size());
}

TEST(TraceLogV2, InspectAccountsEveryChunkAndByte)
{
    size_t n = TraceLogFormat::kChunkRecords + 500;
    auto stream = syntheticStream(n);
    auto bytes = encodeLog(stream);
    TraceLogInfo info = inspectTraceLog(bytes.data(), bytes.size());
    EXPECT_EQ(info.version, 2u);
    EXPECT_EQ(info.fileBytes, bytes.size());
    EXPECT_EQ(info.records, stream.size());
    EXPECT_EQ(info.chunks.size(), 2u);
    EXPECT_EQ(info.deltaChunks, 2u);
    EXPECT_EQ(info.rawChunks, 0u);
    EXPECT_EQ(info.elidedChunks, 0u);

    TraceLogOptions v1opt;
    v1opt.version = TraceLogFormat::kVersionV1;
    auto v1 = encodeLog(stream, v1opt);
    TraceLogInfo v1info = inspectTraceLog(v1.data(), v1.size());
    EXPECT_EQ(v1info.version, 1u);
    EXPECT_EQ(v1info.records, stream.size());
    EXPECT_EQ(v1info.rawChunks, 2u);

    // Inspection is strict about framing: a truncated log throws.
    EXPECT_THROW(inspectTraceLog(bytes.data(), bytes.size() - 1),
                 FatalError);
}

// -------------------------------------------------------------- elision

/** A recorded workload with the automaton its writer predicts with. */
struct ElisionFixture
{
    std::vector<BlockTransition> live;
    std::shared_ptr<const CompiledTea> automaton;
    std::vector<uint8_t> elided; ///< the elided log
};

const ElisionFixture &
elisionFixture()
{
    static const ElisionFixture fx = [] {
        ElisionFixture f;
        Workload w = Workloads::build("syn.gzip", InputSize::Test);
        DbtRuntime dbt(w.program);
        auto tea = std::make_shared<const Tea>(
            buildTea(dbt.record("mret").traces));
        f.automaton = CompiledTea::compile(tea);
        TraceLogOptions opts;
        opts.elideWith = f.automaton;
        TraceLogWriter writer(&f.elided, opts);
        Machine m(w.program);
        BlockTracker tracker(
            w.program,
            [&](const BlockTransition &tr) {
                f.live.push_back(tr);
                writer.append(tr);
            },
            /*rep_per_iteration=*/false, /*collect_blocks=*/false);
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    false);
        writer.finish();
        return f;
    }();
    return fx;
}

TEST(TraceLogElide, ReconstructsTheStreamBitIdentically)
{
    const ElisionFixture &fx = elisionFixture();
    ASSERT_FALSE(fx.live.empty());
    auto back = readTraceLog(fx.elided, fx.automaton.get());
    ASSERT_EQ(back.size(), fx.live.size());
    for (size_t i = 0; i < fx.live.size(); ++i) {
        EXPECT_TRUE(sameTr(back[i], fx.live[i])) << "record " << i;
        EXPECT_EQ(back[i].from.icount, fx.live[i].from.icount)
            << "record " << i;
    }
}

TEST(TraceLogElide, ElisionActuallyElidesAndShrinksTheLog)
{
    const ElisionFixture &fx = elisionFixture();
    TraceLogInfo info =
        inspectTraceLog(fx.elided.data(), fx.elided.size());
    EXPECT_GT(info.elidedChunks, 0u);
    // A hot loop replays inside the automaton: most transitions are
    // DFA-determined and ride in the bitset.
    EXPECT_GT(info.elidedRecords, info.records / 2)
        << info.elidedRecords << " of " << info.records << " elided";

    auto delta = encodeLog(fx.live);
    EXPECT_LT(fx.elided.size(), delta.size());
}

TEST(TraceLogElide, ReaderWithoutTheAutomatonFailsCleanly)
{
    const ElisionFixture &fx = elisionFixture();
    // Strict: typed error. Salvage: a tear at the first elided chunk.
    EXPECT_THROW(readTraceLog(fx.elided), FatalError);
    TraceLogReader salvage(fx.elided.data(), fx.elided.size(),
                           TraceLogReader::Mode::Salvage);
    BlockTransition tr;
    size_t n = 0;
    while (salvage.next(tr))
        ++n;
    EXPECT_TRUE(salvage.torn());
    EXPECT_EQ(n, 0u);
}

TEST(TraceLogElide, FileRoundTripsThroughMmap)
{
    const ElisionFixture &fx = elisionFixture();
    std::string path = "test_tracelog_elided.tlog";
    {
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char *>(fx.elided.data()),
                static_cast<std::streamsize>(fx.elided.size()));
    }
    TraceLogReader reader = TraceLogReader::openFile(
        path, TraceLogReader::Mode::Strict, fx.automaton.get());
    BlockTransition tr;
    size_t i = 0;
    while (reader.next(tr))
        EXPECT_TRUE(sameTr(tr, fx.live[i++]));
    EXPECT_EQ(i, fx.live.size());
    std::remove(path.c_str());
}

// ----------------------------------------------------------- wire chunks

TEST(TraceLogWire, WireChunkRoundTrips)
{
    auto stream = syntheticStream(777);
    std::vector<uint8_t> wire;
    encodeWireChunk(wire, stream.data(), stream.size());
    auto back = decodeWireChunk(wire.data(), wire.size());
    ASSERT_EQ(back.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i)
        EXPECT_TRUE(sameTr(back[i], stream[i])) << "record " << i;

    // The wire chunk is the same delta codec the container uses:
    // dramatically smaller than the Raw encoding of the same records.
    std::vector<uint8_t> raw;
    encodeChunkPayload(raw, ChunkEncoding::Raw, stream.data(),
                       stream.size());
    EXPECT_LT(wire.size(), raw.size());
}

TEST(TraceLogWire, CorruptionAndTrailingBytesAreFatal)
{
    auto stream = syntheticStream(64);
    std::vector<uint8_t> wire;
    encodeWireChunk(wire, stream.data(), stream.size());

    for (size_t pos = 0; pos < wire.size(); ++pos) {
        auto bad = wire;
        bad[pos] ^= 0x10;
        EXPECT_THROW(decodeWireChunk(bad.data(), bad.size()), FatalError)
            << "flip at " << pos;
    }
    auto trailing = wire;
    trailing.push_back(0x00);
    EXPECT_THROW(decodeWireChunk(trailing.data(), trailing.size()),
                 FatalError);
    EXPECT_THROW(decodeWireChunk(wire.data(), wire.size() - 1),
                 FatalError);
}

TEST(TraceLogWire, ElidedEncodingIsRejectedOnTheWire)
{
    // Forge an Elided wire chunk with a correct CRC: decode must refuse
    // by policy (the peer has no automaton), not by luck of the CRC.
    auto stream = syntheticStream(4);
    std::vector<uint8_t> wire;
    encodeWireChunk(wire, stream.data(), stream.size());
    ASSERT_GT(wire.size(), 13u);
    wire[4] = 2; // encoding byte: Delta -> Elided
    uint32_t crc = crc32(wire.data(), wire.size() - 4);
    wire[wire.size() - 4] = static_cast<uint8_t>(crc);
    wire[wire.size() - 3] = static_cast<uint8_t>(crc >> 8);
    wire[wire.size() - 2] = static_cast<uint8_t>(crc >> 16);
    wire[wire.size() - 1] = static_cast<uint8_t>(crc >> 24);
    EXPECT_THROW(decodeWireChunk(wire.data(), wire.size()), FatalError);
}

} // namespace
} // namespace tea
