/**
 * @file
 * Online recording service tests (rec/ + the RECORD wire verbs).
 *
 * The promises under test, matching docs/DESIGN.md §5f:
 *
 * 1. Bit identity: an automaton grown online — through a
 *    RecordingSession or over the wire — is *indistinguishable* from
 *    one an offline TeaRecorder grew from the same transitions: same
 *    serialized Tea bytes, same ReplayStats, same compiled `.teac`
 *    image byte for byte.
 * 2. One compile per install: a publish hands the registry the
 *    recorder's own snapshot, so a session compiles exactly once per
 *    install (plus the empty automaton) however often it swaps, and a
 *    `--reference` replay of a recording — mid-stream or finished —
 *    rehydrates its Tea from that snapshot and matches the compiled
 *    kernel.
 * 3. Hot swap: registry replace() is atomic — a replay that pinned a
 *    snapshot keeps it while the name is swapped under it, raced under
 *    TSan in CI.
 * 4. Abandonment: a mid-RECORD disconnect leaves the registry
 *    consistent (the last published snapshot, or nothing) and the name
 *    immediately reusable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/client.hh"
#include "net/frame.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "rec/recording.hh"
#include "rec/service.hh"
#include "store/store.hh"
#include "svc/registry.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/recorder.hh"
#include "tea/serialize.hh"
#include "tea/teac.hh"
#include "trace/factory.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

/** A fresh per-test directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    static std::atomic<int> seq{0};
    std::string dir = ::testing::TempDir() + "rec_" + tag + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(seq.fetch_add(1));
    std::filesystem::remove_all(dir);
    return dir;
}

/** Capture a program's full block-transition stream. */
std::vector<BlockTransition>
captureTransitions(const Program &prog)
{
    std::vector<BlockTransition> out;
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { out.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    return out;
}

std::vector<BlockTransition>
workloadTransitions(const std::string &name)
{
    return captureTransitions(
        Workloads::build(name, InputSize::Test).program);
}

/** An automaton of `traces` synthetic two-block loops (cf. test_store). */
Tea
makeSyntheticTea(size_t traces)
{
    TraceSet set;
    for (size_t t = 0; t < traces; ++t) {
        Trace trace;
        Addr base = 0x1000 + static_cast<Addr>(t) * 64;
        trace.blocks.push_back({base, base + 12, true});
        trace.blocks.push_back({base + 16, base + 28, false});
        trace.edges.push_back({0, 1});
        trace.edges.push_back({1, 0});
        set.add(std::move(trace));
    }
    return buildTea(set);
}

/** A transition stream ping-ponging inside trace `t`, then exiting. */
std::vector<BlockTransition>
syntheticStream(size_t t, int rounds)
{
    std::vector<BlockTransition> stream;
    Addr base = 0x1000 + static_cast<Addr>(t) * 64;
    BlockTransition tr{};
    tr.kind = EdgeKind::BranchTaken;
    tr.from.icount = 3;
    tr.from.start = 0x500;
    tr.from.end = 0x50c;
    tr.toStart = base;
    stream.push_back(tr);
    for (int i = 0; i < rounds; ++i) {
        bool atHead = (i % 2) == 0;
        tr.from.start = atHead ? base : base + 16;
        tr.from.end = atHead ? base + 12 : base + 28;
        tr.toStart = atHead ? base + 16 : base;
        stream.push_back(tr);
    }
    tr.from.start = base + 16;
    tr.from.end = base + 28;
    tr.toStart = 0x500;
    stream.push_back(tr);
    return stream;
}

/** ReplayStats as comparable bytes (all 11 fields, via the wire codec). */
std::vector<uint8_t>
statsBytes(const ReplayStats &st)
{
    PayloadWriter w;
    encodeStats(w, st);
    return w.out();
}

std::vector<uint8_t>
readAllBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

// --------------------------------------------------- raw transition codec

/** Decode one Raw chunk payload claiming `records` records. */
std::vector<BlockTransition>
decodeRaw(const uint8_t *payload, size_t size, uint32_t records)
{
    TraceChunkView view;
    view.records = records;
    view.encoding = ChunkEncoding::Raw;
    view.payload = payload;
    view.size = size;
    std::vector<BlockTransition> out;
    decodeChunk(view, nullptr, out);
    return out;
}

TEST(TransitionCodec, RoundTripsEveryShape)
{
    std::vector<BlockTransition> in;
    BlockTransition tr{};
    // One record per edge kind, with assorted address shapes.
    for (uint8_t k = 0; k <= static_cast<uint8_t>(EdgeKind::Halt); ++k) {
        tr.kind = static_cast<EdgeKind>(k);
        tr.from.start = 0x1000 + k * 129u;
        tr.from.end = tr.from.start + 7u * (k + 1u);
        tr.from.icount = k * 1000u + 1;
        tr.toStart = (static_cast<EdgeKind>(k) == EdgeKind::Halt)
                         ? kNoAddr
                         : 0xdeadbe00u + k;
        in.push_back(tr);
    }
    // Extremes: zero-length block, huge addresses, huge icount.
    tr.kind = EdgeKind::Jump;
    tr.from.start = 0;
    tr.from.end = 0;
    tr.from.icount = 0;
    tr.toStart = 0;
    in.push_back(tr);
    tr.from.start = 0xfffffff0u;
    tr.from.end = 0xfffffffeu;
    tr.from.icount = 0xffffffffu;
    tr.toStart = 0xfffffffeu;
    in.push_back(tr);

    std::vector<uint8_t> bytes;
    encodeChunkPayload(bytes, ChunkEncoding::Raw, in.data(), in.size());
    std::vector<BlockTransition> out =
        decodeRaw(bytes.data(), bytes.size(),
                  static_cast<uint32_t>(in.size()));
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].from.start, in[i].from.start) << i;
        EXPECT_EQ(out[i].from.end, in[i].from.end) << i;
        EXPECT_EQ(out[i].from.icount, in[i].from.icount) << i;
        EXPECT_EQ(out[i].kind, in[i].kind) << i;
        EXPECT_EQ(out[i].toStart, in[i].toStart) << i;
    }
}

TEST(TransitionCodec, RejectsMalformedRecords)
{
    BlockTransition tr{};
    tr.kind = EdgeKind::Call;
    tr.from.start = 0x4000;
    tr.from.end = 0x4010;
    tr.from.icount = 5;
    tr.toStart = 0x5000;
    std::vector<uint8_t> bytes;
    encodeChunkPayload(bytes, ChunkEncoding::Raw, &tr, 1);

    // Every proper prefix is a truncation.
    for (size_t cut = 0; cut < bytes.size(); ++cut)
        EXPECT_THROW(decodeRaw(bytes.data(), cut, 1), FatalError)
            << "cut at " << cut;
    // An out-of-range edge kind must be rejected, not cast through.
    std::vector<uint8_t> bad = bytes;
    decodeRaw(bad.data(), bad.size(), 1); // sanity: intact
    // The kind byte sits right before the trailing toStart varint;
    // corrupt it by re-encoding with a patched payload instead of
    // guessing the offset: find it by scanning for the Call value.
    bool patched = false;
    for (size_t i = 0; i < bad.size() && !patched; ++i) {
        if (bad[i] == static_cast<uint8_t>(EdgeKind::Call)) {
            bad[i] = 0xee;
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    EXPECT_THROW(decodeRaw(bad.data(), bad.size(), 1), FatalError);

    // An inverted block (end < start) is unencodable.
    tr.from.start = 0x4010;
    tr.from.end = 0x4000;
    std::vector<uint8_t> sink;
    EXPECT_THROW(encodeChunkPayload(sink, ChunkEncoding::Raw, &tr, 1),
                 FatalError);
}

TEST(TransitionCodec, TraceLogChunkIsTheWireChunk)
{
    // The writer and the wire frame chunks with one emitter: a v2 log
    // of one chunk is its 8-byte header, exactly the RECORD_CHUNK
    // payload of the same records, and the 12-byte trailer.
    std::vector<BlockTransition> in = syntheticStream(0, 31);
    std::vector<uint8_t> logBytes;
    TraceLogWriter writer(&logBytes);
    for (const BlockTransition &t : in)
        writer.append(t);
    writer.finish();

    std::vector<uint8_t> wire;
    encodeWireChunk(wire, in.data(), in.size());
    ASSERT_EQ(logBytes.size(), 8 + wire.size() + 12);
    EXPECT_TRUE(std::equal(wire.begin(), wire.end(), logBytes.begin() + 8));

    // Both decode to the records that went in.
    std::vector<BlockTransition> fromLog = readTraceLog(logBytes);
    std::vector<BlockTransition> fromWire =
        decodeWireChunk(wire.data(), wire.size());
    ASSERT_EQ(fromLog.size(), in.size());
    ASSERT_EQ(fromWire.size(), in.size());
    std::vector<uint8_t> a, b, c;
    encodeChunkPayload(a, ChunkEncoding::Raw, in.data(), in.size());
    encodeChunkPayload(b, ChunkEncoding::Raw, fromLog.data(),
                       fromLog.size());
    encodeChunkPayload(c, ChunkEncoding::Raw, fromWire.data(),
                       fromWire.size());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

// ------------------------------------------------------- recording session

TEST(RecordingSession, OnlineGrowthIsBitIdenticalToOffline)
{
    std::vector<BlockTransition> stream = workloadTransitions("syn.gzip");
    ASSERT_FALSE(stream.empty());

    // Offline reference: the paper's Algorithm 2, default policy.
    TeaRecorder offline(makeSelector("mret"));
    for (const BlockTransition &tr : stream)
        offline.feed(tr);
    auto offlineCompiled = CompiledTea::compile(
        std::make_shared<const Tea>(offline.tea()));

    // Publishing every transition, every 500, or only at finish():
    // the swap count varies, the compile count does not.
    for (uint32_t interval : {1u, 500u, 1u << 30}) {
        SCOPED_TRACE("swap interval " + std::to_string(interval));
        AutomatonRegistry registry;
        rec::RecordingConfig cfg;
        cfg.swapInterval = interval;
        uint64_t compilesBefore = CompiledTea::compileCount();
        rec::RecordingSession session("gzip", registry, nullptr, cfg);
        for (const BlockTransition &tr : stream)
            session.feed(tr);
        rec::RecordingResultSummary sum = session.finish();

        EXPECT_EQ(sum.transitions, stream.size());
        EXPECT_EQ(sum.traces, offline.traces().size());
        EXPECT_EQ(sum.states, offline.tea().numStates());
        // One compile per install plus the empty automaton's: a publish
        // swaps in the recorder's own snapshot and compiles nothing.
        EXPECT_EQ(CompiledTea::compileCount() - compilesBefore,
                  offline.installs() + 1)
            << sum.swaps << " swaps";

        // The automaton, its counters, and the compiled image are all
        // bit-identical to the offline run.
        EXPECT_EQ(saveTea(session.tea()), saveTea(offline.tea()));
        EXPECT_EQ(statsBytes(session.stats()), statsBytes(offline.stats()));
        ASSERT_NE(session.current(), nullptr);
        EXPECT_EQ(session.current()->serialize(),
                  offlineCompiled->serialize());

        // The registry serves the published snapshot.
        AutomatonSnapshot snap = registry.snapshot("gzip");
        ASSERT_TRUE(static_cast<bool>(snap));
        EXPECT_EQ(snap.compiled.get(), session.current().get());
    }
}

TEST(RecordingSession, SwapsPublishGrowthAndDriveMetrics)
{
    obs::MetricsRegistry metrics;
    AutomatonRegistry registry;
    rec::RecordingService service(registry);
    service.bindMetrics(metrics);

    rec::RecordingConfig cfg;
    cfg.swapInterval = 16; // tiny: force many publish attempts
    auto session = service.begin("grow", cfg);
    EXPECT_TRUE(service.recording("grow"));
    EXPECT_THROW(service.begin("grow", cfg), FatalError);

    uint64_t fed = 0;
    size_t lastFootprint = 0;
    // 150 rounds: enough head executions to cross the selector's
    // hotThreshold (50) so each region installs a trace.
    for (size_t t = 0; t < 12; ++t) {
        for (const BlockTransition &tr : syntheticStream(t, 150)) {
            session->feed(tr);
            ++fed;
        }
        if (registry.footprintBytes() > 0) {
            // The footprint gauge tracks the grown image on each swap.
            EXPECT_GE(registry.footprintBytes(), lastFootprint);
            lastFootprint = registry.footprintBytes();
        }
    }
    rec::RecordingResultSummary sum = session->finish();
    EXPECT_EQ(sum.transitions, fed);
    EXPECT_GE(sum.swaps, 2u);
    EXPECT_GT(registry.footprintBytes(), 0u);
    session.reset();
    EXPECT_FALSE(service.recording("grow"));

    obs::MetricsSnapshot snap = metrics.snapshot();
    std::string report = snap.toText();
    EXPECT_NE(report.find("rec.sessions"), std::string::npos);
    EXPECT_EQ(metrics.counter("rec.sessions").value(), 1u);
    EXPECT_EQ(metrics.counter("rec.transitions").value(), fed);
    EXPECT_EQ(metrics.counter("rec.swaps").value(), sum.swaps);
    EXPECT_EQ(metrics.counter("rec.aborted").value(), 0u);

    // Finished and released: the name records again from scratch.
    auto again = service.begin("grow", cfg);
    again->feed(syntheticStream(0, 4).front());
    again->finish();
}

TEST(RecordingSession, BatchedFeedCountsPerBatchAndSwapsPerTransition)
{
    // The same stream fed one transition at a time and in batches
    // straddling the 500-transition swap grid: the batch path counts
    // once per batch, yet every counter reads what the per-transition
    // path read at the same count, and both grow the same automaton.
    std::vector<BlockTransition> stream = workloadTransitions("syn.gzip");
    rec::RecordingConfig cfg;
    cfg.swapInterval = 500;

    obs::MetricsRegistry oneMetrics;
    AutomatonRegistry oneRegistry;
    rec::RecordingService oneService(oneRegistry);
    oneService.bindMetrics(oneMetrics);
    auto one = oneService.begin("gzip", cfg);
    // swapsAt[k]: rec.swaps after k transitions fed one at a time.
    std::vector<uint64_t> swapsAt{0};
    for (const BlockTransition &tr : stream) {
        one->feed(tr);
        swapsAt.push_back(oneMetrics.counter("rec.swaps").value());
    }
    ASSERT_GE(swapsAt.back(), 2u) << "the stream must install traces";

    obs::MetricsRegistry metrics;
    AutomatonRegistry registry;
    rec::RecordingService service(registry);
    service.bindMetrics(metrics);
    auto batched = service.begin("gzip", cfg);
    obs::Counter &fedTotal = metrics.counter("rec.transitions");
    obs::Counter &fedByName =
        metrics.labeledCounter("rec.transitions_by_automaton").at("gzip");
    const size_t sizes[] = {1, 7, 499, 500, 501, 4096};
    size_t fed = 0;
    for (size_t b = 0; fed < stream.size(); ++b) {
        size_t n = std::min(sizes[b % std::size(sizes)],
                            stream.size() - fed);
        batched->feedBatch(stream.data() + fed, n);
        fed += n;
        ASSERT_EQ(fedTotal.value(), fed) << "batch " << b;
        ASSERT_EQ(fedByName.value(), fed) << "batch " << b;
        ASSERT_EQ(metrics.counter("rec.swaps").value(), swapsAt[fed])
            << "batch " << b;
    }

    rec::RecordingResultSummary a = one->finish();
    rec::RecordingResultSummary b = batched->finish();
    EXPECT_EQ(b.transitions, a.transitions);
    EXPECT_EQ(b.traces, a.traces);
    EXPECT_EQ(b.states, a.states);
    EXPECT_EQ(b.swaps, a.swaps);
    EXPECT_EQ(saveTea(batched->tea()), saveTea(one->tea()));
    EXPECT_EQ(statsBytes(batched->stats()), statsBytes(one->stats()));
}

TEST(RecordingSession, AbandonmentReleasesTheNameAndKeepsLastSwap)
{
    obs::MetricsRegistry metrics;
    AutomatonRegistry registry;
    rec::RecordingService service(registry);
    service.bindMetrics(metrics);

    rec::RecordingConfig cfg;
    cfg.swapInterval = 16;
    {
        auto session = service.begin("doomed", cfg);
        for (size_t t = 0; t < 4; ++t)
            for (const BlockTransition &tr : syntheticStream(t, 150))
                session->feed(tr);
        // Destroyed unfinished: the chaos disconnect case.
    }
    EXPECT_FALSE(service.recording("doomed"));
    EXPECT_EQ(metrics.counter("rec.aborted").value(), 1u);

    // Whatever was last published still replays consistently.
    AutomatonSnapshot snap = registry.snapshot("doomed");
    ASSERT_TRUE(static_cast<bool>(snap));
    std::vector<uint8_t> log;
    {
        TraceLogWriter w(&log);
        for (const BlockTransition &tr : syntheticStream(0, 20))
            w.append(tr);
        w.finish();
    }
    ReplayJob job{snap.tea, "", &log, snap.compiled};
    StreamResult res = runReplayJob(job, LookupConfig{});
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.stats.transitions, 22u);

    // The name is free again.
    auto session = service.begin("doomed", cfg);
    session->finish();
}

// ------------------------------------------------------------ hot swapping

TEST(HotSwap, RacedReplaceNeverInvalidatesAPinnedReplay)
{
    // Readers pin a snapshot and replay a stream that only touches
    // trace 0 — present identically in every grown version — while a
    // writer hot-swaps ever-larger images under the name. Every replay
    // must complete with the exact same counters, whichever version it
    // pinned. TSan (CI) watches the handoff.
    AutomatonRegistry registry;
    registry.put("hot", makeSyntheticTea(2));

    std::vector<uint8_t> log;
    {
        TraceLogWriter w(&log);
        for (const BlockTransition &tr : syntheticStream(0, 30))
            w.append(tr);
        w.finish();
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> replaysDone{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                AutomatonSnapshot snap = registry.snapshot("hot");
                ASSERT_TRUE(static_cast<bool>(snap));
                ReplayJob job{snap.tea, "", &log, snap.compiled};
                StreamResult res = runReplayJob(job, LookupConfig{});
                ASSERT_TRUE(res.ok()) << res.error;
                ASSERT_EQ(res.stats.transitions, 32u);
                replaysDone.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Writer: publish growing (and, on wrap, shrinking) automata the
    // way a live RecordingSession does: one compile, one replace.
    std::shared_ptr<const CompiledTea> prev;
    for (int round = 0; round < 60; ++round) {
        size_t n = 2 + static_cast<size_t>(round % 20);
        prev = CompiledTea::compile(
            std::make_shared<const Tea>(makeSyntheticTea(n + 1)));
        registry.replace("hot", prev);
    }
    // Let the readers race the final image for a moment, then stop.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
    for (std::thread &t : readers)
        t.join();
    EXPECT_GT(replaysDone.load(), 0u);

    AutomatonSnapshot fin = registry.snapshot("hot");
    ASSERT_TRUE(static_cast<bool>(fin));
    EXPECT_EQ(fin.compiled->serialize(), prev->serialize());
}

// ------------------------------------------------------------ wire protocol

TEST(RecordWire, EndToEndMatchesOfflineRecorder)
{
    std::vector<BlockTransition> stream = workloadTransitions("syn.gzip");
    TeaRecorder offline(makeSelector("mret"));
    for (const BlockTransition &tr : stream)
        offline.feed(tr);

    ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.workers = 2;
    cfg.recordSwapInterval = 500;
    TeaServer server(cfg);
    server.start();

    // Mid-recording: stream about half, wait until the server has
    // ingested it, and replay the name through both kernels from a
    // second connection. The cut sits off the 500-transition swap
    // grid, so the last transition ingested publishes nothing and the
    // snapshot both replays resolve holds still.
    RemoteReplayOptions reference;
    reference.wantProfile = true;
    reference.reference = true;
    RemoteReplayOptions compiledK;
    compiledK.wantProfile = true;
    std::vector<uint8_t> log;
    {
        TraceLogWriter w(&log);
        for (const BlockTransition &tr : stream)
            w.append(tr);
        w.finish();
    }
    TeaClient client = TeaClient::connect(server.endpoint());
    client.recordBegin("gzip");
    size_t half = stream.size() / 2 / 500 * 500 + 250;
    client.recordChunk(stream.data(), half);
    obs::Counter &ingested = server.metrics().counter("rec.transitions");
    for (int spin = 0; spin < 1000 && ingested.value() < half; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(ingested.value(), half);
    ASSERT_GE(server.metrics().counter("rec.swaps").value(), 1u);
    {
        TeaClient reader = TeaClient::connect(server.endpoint());
        RemoteReplayResult midRef = reader.replay("gzip", log, reference);
        RemoteReplayResult midFast = reader.replay("gzip", log, compiledK);
        EXPECT_EQ(statsBytes(midRef.stats), statsBytes(midFast.stats));
        EXPECT_EQ(midRef.execCounts, midFast.execCounts);
        EXPECT_FALSE(midFast.execCounts.empty());
    }
    client.recordChunk(stream.data() + half, stream.size() - half);
    RemoteRecordResult res = client.recordEnd();
    EXPECT_EQ(res.transitions, stream.size());
    EXPECT_EQ(res.traces, offline.traces().size());
    EXPECT_EQ(res.states, offline.tea().numStates());
    EXPECT_GE(res.swaps, 1u);
    EXPECT_EQ(statsBytes(res.stats), statsBytes(offline.stats()));

    // The recorded name replays like a PUT automaton — and the stats
    // match a local replay against the offline-grown automaton.
    RemoteReplayResult remote = client.replay("gzip", log);
    auto offlineTea = std::make_shared<const Tea>(offline.tea());
    ReplayJob job{offlineTea, "", &log, CompiledTea::compile(offlineTea)};
    StreamResult local = runReplayJob(job, LookupConfig{});
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(statsBytes(remote.stats), statsBytes(local.stats));
    // The published snapshot carries no Tea; the reference kernel
    // rehydrates one and must match the compiled kernel exactly.
    RemoteReplayResult finishedRef = client.replay("gzip", log, reference);
    EXPECT_EQ(statsBytes(finishedRef.stats), statsBytes(local.stats));
    EXPECT_EQ(finishedRef.execCounts, local.execCounts);

    // rec.* metrics surface through the STATS verb.
    std::string stats = client.stats(/*text=*/false);
    EXPECT_NE(stats.find("rec.sessions"), std::string::npos);
    EXPECT_NE(stats.find("rec.swaps"), std::string::npos);
    client.close();
    server.stop();
}

TEST(RecordWire, StoreWriteThroughIsBitIdenticalToOfflineCompile)
{
    std::vector<BlockTransition> stream = workloadTransitions("syn.mcf");
    TeaRecorder offline(makeSelector("mret"));
    for (const BlockTransition &tr : stream)
        offline.feed(tr);
    auto offlineImage = CompiledTea::compile(
        std::make_shared<const Tea>(offline.tea()));

    std::string dir = freshDir("wt");
    ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.workers = 2;
    cfg.storeDir = dir;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    RemoteRecordOptions opt;
    opt.swapInterval = 400;
    client.record("mcf", stream, opt);

    // finish() wrote the final image through tmp+rename: the on-disk
    // bytes are exactly what an offline compile serializes.
    EXPECT_EQ(readAllBytes(dir + "/mcf.teac"), offlineImage->serialize());

    // Evict residency, replay cold: the recorded automaton round-trips
    // through its own .teac image.
    EXPECT_TRUE(client.evict("mcf"));
    std::vector<uint8_t> log;
    {
        TraceLogWriter w(&log);
        for (const BlockTransition &tr : stream)
            w.append(tr);
        w.finish();
    }
    RemoteReplayResult cold = client.replay("mcf", log);
    EXPECT_GT(cold.stats.transitions, 0u);
    client.close();
    server.stop();
    std::filesystem::remove_all(dir);
}

TEST(RecordWire, MidRecordDisconnectLeavesTheServerConsistent)
{
    // Chaos sweep: cut the connection at varied points of the RECORD
    // conversation. Whatever the cut, the server must release the name
    // (so it records again) and keep the registry consistent.
    std::vector<BlockTransition> stream;
    for (size_t t = 0; t < 8; ++t)
        for (const BlockTransition &tr : syntheticStream(t, 150))
            stream.push_back(tr);

    ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.workers = 2;
    cfg.recordSwapInterval = 64;
    TeaServer server(cfg);
    server.start();

    const size_t cuts[] = {0, 1, 3, 7}; // chunks sent before the cut
    for (size_t cut : cuts) {
        {
            TeaClient client = TeaClient::connect(server.endpoint());
            client.recordBegin("flaky");
            size_t per = stream.size() / 8;
            for (size_t c = 0; c < cut; ++c)
                client.recordChunk(stream.data() + c * per, per);
            client.close(); // no RECORD_END: abandoned
        }
        // The session unwinds on a worker thread; wait for the release.
        bool released = false;
        for (int spin = 0; spin < 500; ++spin) {
            if (!server.recorder().recording("flaky")) {
                released = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ASSERT_TRUE(released) << "cut after " << cut << " chunks";
    }

    // The name is reusable and a full recording still lands.
    TeaClient client = TeaClient::connect(server.endpoint());
    RemoteRecordResult res = client.record("flaky", stream);
    EXPECT_EQ(res.transitions, stream.size());
    EXPECT_GT(res.traces, 0u);
    EXPECT_GE(server.metrics().counter("rec.aborted").value(),
              static_cast<uint64_t>(std::size(cuts) - 1));
    client.close();
    server.stop();
}

TEST(RecordWire, ConflictsAndBadSelectorsAreNonFatal)
{
    ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.workers = 2;
    TeaServer server(cfg);
    server.start();

    TeaClient first = TeaClient::connect(server.endpoint());
    first.recordBegin("dup");

    // A second recording of the same name is refused, but the refused
    // session survives the error and keeps working.
    TeaClient second = TeaClient::connect(server.endpoint());
    EXPECT_THROW(second.recordBegin("dup"), FatalError);
    EXPECT_GE(second.ping().uptimeMs, 0u);

    // An unknown selector is refused without leaking the name claim.
    RemoteRecordOptions bad;
    bad.selector = "no-such-policy";
    EXPECT_THROW(second.recordBegin("fresh", bad), FatalError);
    EXPECT_FALSE(server.recorder().recording("fresh"));
    second.recordBegin("fresh");
    RemoteRecordResult res = second.recordEnd(); // empty recording
    EXPECT_EQ(res.transitions, 0u);
    EXPECT_EQ(res.traces, 0u);

    first.close();
    second.close();
    server.stop();
}

TEST(RecordWire, V2ChunksAreSmallerThanRawAndBitIdentical)
{
    // One stream recorded over the wire's v2 delta chunks. The result
    // must be bit-identical to the offline recorder, and the upload
    // must be at most half the stream's Raw chunk encoding (~15 bytes
    // a record, what every chunk cost before delta coding).
    std::vector<BlockTransition> stream = workloadTransitions("syn.gzip");

    ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.workers = 2;
    TeaServer server(cfg);
    server.start();

    TeaClient client = TeaClient::connect(server.endpoint());
    uint64_t handshake = client.bytesSent();
    RemoteRecordResult res = client.record("enc-v2", stream);
    uint64_t uploadBytes = client.bytesSent() - handshake;
    EXPECT_GT(client.bytesReceived(), 0u);
    client.close();

    std::vector<uint8_t> raw;
    encodeChunkPayload(raw, ChunkEncoding::Raw, stream.data(),
                       stream.size());
    EXPECT_LT(uploadBytes * 2, raw.size())
        << "delta chunks should at least halve the upload";

    TeaRecorder offline(makeSelector("mret"));
    for (const BlockTransition &tr : stream)
        offline.feed(tr);
    EXPECT_EQ(res.transitions, stream.size());
    EXPECT_EQ(res.traces, offline.traces().size());
    EXPECT_EQ(res.states, offline.tea().numStates());
    EXPECT_EQ(statsBytes(res.stats), statsBytes(offline.stats()));

    // The traffic shows up in the rec.wire_bytes counter.
    EXPECT_GT(server.metrics().snapshot().counterValue("rec.wire_bytes"),
              0u);
    server.stop();
}

} // namespace
} // namespace tea
