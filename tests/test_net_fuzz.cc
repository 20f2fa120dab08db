/**
 * @file
 * Robustness fuzzing of the wire-protocol surface, in the style of
 * test_tracelog_fuzz.cc: truncated streams, corrupt CRCs, and
 * bit-flipped frames fed to the FrameDecoder and to a full Session
 * must always surface as a FatalError (decoder) or a clean ERROR
 * reply / session close (Session::consume, which never throws
 * FatalError) — never as a PanicError, a crash, or a leak.
 *
 * The Session is a socket-free byte-stream machine precisely so these
 * tests can drive the whole server protocol in-process; the sanitize
 * CI job runs them under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "dbt/runtime.hh"
#include "net/frame.hh"
#include "net/session.hh"
#include "rec/service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/serialize.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

/** Record a workload's transition stream into an in-memory log. */
std::vector<uint8_t>
recordLog(const Program &prog)
{
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { writer.append(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    writer.finish();
    return bytes;
}

/**
 * A golden client byte stream exercising every message type: HELLO,
 * PUT_AUTOMATON, LIST, a full replay stream, EVICT. Built once per
 * suite (recording the workload dominates the cost).
 */
const std::vector<uint8_t> &
goldenStream()
{
    static const std::vector<uint8_t> wire = [] {
        Workload w = Workloads::build("syn.gzip", InputSize::Test);
        DbtRuntime dbt(w.program);
        Tea tea = buildTea(dbt.record("mret").traces);
        std::vector<uint8_t> teaImage = saveTea(tea);
        std::vector<uint8_t> log = recordLog(w.program);

        std::vector<uint8_t> out;
        PayloadWriter hello;
        hello.u32(Wire::kMagic);
        hello.u32(Wire::kVersion);
        appendFrame(out, MsgType::Hello, hello.out());

        PayloadWriter put;
        put.str("gzip");
        put.raw(teaImage.data(), teaImage.size());
        appendFrame(out, MsgType::PutAutomaton, put.out());

        appendFrame(out, MsgType::List, nullptr, 0);

        PayloadWriter begin;
        begin.str("gzip");
        begin.u8(ReplayFlags::kProfile);
        appendFrame(out, MsgType::ReplayBegin, begin.out());
        // Stream the log in two chunks to cross a frame boundary.
        size_t half = log.size() / 2;
        appendFrame(out, MsgType::ReplayChunk, log.data(), half);
        appendFrame(out, MsgType::ReplayChunk, log.data() + half,
                    log.size() - half);
        appendFrame(out, MsgType::ReplayEnd, nullptr, 0);

        PayloadWriter ev;
        ev.str("gzip");
        appendFrame(out, MsgType::Evict, ev.out());
        return out;
    }();
    return wire;
}

/**
 * Feed a byte stream to a fresh Session in randomly sized slices.
 * @return the number of reply frames produced before close (or end of
 *         input). Throws whatever escapes consume() — nothing should.
 */
size_t
driveSession(const std::vector<uint8_t> &wire, Xorshift64Star &rng)
{
    AutomatonRegistry registry;
    Session session(registry);
    FrameDecoder replyDec;
    size_t frames = 0;
    size_t pos = 0;
    bool open = true;
    while (open && pos < wire.size()) {
        size_t n = 1 + rng.nextBelow(4096);
        n = std::min(n, wire.size() - pos);
        std::vector<uint8_t> out;
        open = session.consume(wire.data() + pos, n, out);
        pos += n;
        // Replies must themselves be well-framed.
        replyDec.feed(out.data(), out.size());
        Frame f;
        while (replyDec.poll(f))
            ++frames;
    }
    EXPECT_TRUE(replyDec.atBoundary());
    return frames;
}

TEST(NetFuzz, GoldenStreamProducesOneReplyPerRequest)
{
    Xorshift64Star rng(7);
    // HELLO_OK, PUT_OK, LIST_OK, REPLAY_OK, REPLAY_RESULT, EVICT_OK.
    EXPECT_EQ(driveSession(goldenStream(), rng), 6u);
}

TEST(NetFuzz, EveryTruncationIsHandledCleanly)
{
    const auto &good = goldenStream();
    Xorshift64Star rng(11);
    // The golden stream is large (it embeds a trace log); sample
    // truncation points densely at the front — where all the framing
    // lives — and sparsely through the bulk.
    for (size_t keep = 0; keep < good.size();
         keep += (keep < 4096 ? 1 : 997)) {
        std::vector<uint8_t> bad(good.begin(),
                                 good.begin() + static_cast<long>(keep));
        driveSession(bad, rng); // must not throw or crash
    }
}

class CorruptWire : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CorruptWire, ByteFlipsNeverEscapeTheSession)
{
    const auto &good = goldenStream();
    Xorshift64Star rng(GetParam());

    for (int round = 0; round < 60; ++round) {
        auto bad = good;
        int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f) {
            size_t pos = rng.nextBelow(bad.size());
            bad[pos] = static_cast<uint8_t>(rng.next());
        }
        // Any outcome except a throw/crash is acceptable: a clean
        // ERROR + close, a non-fatal ERROR, or (lucky flip) success.
        driveSession(bad, rng);
    }
}

TEST_P(CorruptWire, DecoderRejectsCorruptFramesAsFatal)
{
    // One small frame; every single-byte change must be caught —
    // in the length word, the type+payload (CRC-covered), or the CRC
    // itself.
    std::vector<uint8_t> good;
    PayloadWriter w;
    w.u32(Wire::kMagic);
    w.u32(Wire::kVersion);
    appendFrame(good, MsgType::Hello, w.out());

    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 200; ++round) {
        auto bad = good;
        size_t pos = rng.nextBelow(bad.size());
        uint8_t flip = static_cast<uint8_t>(1 + rng.nextBelow(255));
        bad[pos] = static_cast<uint8_t>(bad[pos] ^ flip);

        FrameDecoder dec;
        dec.feed(bad.data(), bad.size());
        Frame f;
        try {
            if (dec.poll(f)) {
                // A corrupted length word can claim a longer frame and
                // leave the decoder waiting — that is safe — but a
                // *decoded* frame with a wrong body means the CRC
                // failed to catch the flip.
                ADD_FAILURE() << "flip at " << pos << " decoded";
            }
        } catch (const FatalError &) {
            // expected: bad length, or CRC mismatch
        }
    }
}

/**
 * Feed `wire` to a fresh decoder one byte at a time and drain it after
 * every byte, through the view accessor (`views`) or the owning one.
 * @param threwAt set to the number of bytes fed when poll() threw, or
 *        to SIZE_MAX when it never did
 * @return the frames decoded before that
 */
std::vector<Frame>
drainByteWise(const std::vector<uint8_t> &wire, bool views,
              size_t &threwAt)
{
    FrameDecoder dec;
    std::vector<Frame> got;
    threwAt = SIZE_MAX;
    for (size_t i = 0; i < wire.size(); ++i) {
        dec.feed(&wire[i], 1);
        try {
            if (views) {
                FrameView v;
                while (dec.poll(v))
                    got.push_back(Frame{
                        v.type, std::vector<uint8_t>(
                                    v.payload, v.payload + v.size)});
            } else {
                Frame f;
                while (dec.poll(f))
                    got.push_back(f);
            }
        } catch (const FatalError &) {
            threwAt = i + 1;
            break;
        }
    }
    return got;
}

TEST(NetFuzz, ViewsFromOneFeedHoldTheirBytesSideBySide)
{
    // Two frames in one feed(): polling the second must not move the
    // first view's bytes — the contract is "valid until the next feed".
    std::vector<uint8_t> a(5000, 0xa1);
    std::vector<uint8_t> b(300, 0xb2);
    std::vector<uint8_t> wire;
    appendFrame(wire, MsgType::ReplayChunk, a);
    appendFrame(wire, MsgType::ReplayChunk, b);

    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    FrameView first;
    FrameView second;
    ASSERT_TRUE(dec.poll(first));
    ASSERT_TRUE(dec.poll(second));
    EXPECT_EQ(first.type, MsgType::ReplayChunk);
    EXPECT_EQ(std::vector<uint8_t>(first.payload,
                                   first.payload + first.size),
              a);
    EXPECT_EQ(std::vector<uint8_t>(second.payload,
                                   second.payload + second.size),
              b);
    FrameView none;
    EXPECT_FALSE(dec.poll(none));
    EXPECT_TRUE(dec.atBoundary());
}

TEST_P(CorruptWire, BothAccessorsFailAtTheSameByte)
{
    // poll(Frame &) wraps poll(FrameView &): over a torn (truncated) or
    // corrupted stream both must decode the same frames and throw after
    // the same number of fed bytes.
    std::vector<uint8_t> good;
    PayloadWriter hello;
    hello.u32(Wire::kMagic);
    hello.u32(Wire::kVersion);
    appendFrame(good, MsgType::Hello, hello.out());
    std::vector<uint8_t> chunk(700);
    for (size_t i = 0; i < chunk.size(); ++i)
        chunk[i] = static_cast<uint8_t>(i * 7);
    appendFrame(good, MsgType::ReplayChunk, chunk);
    appendFrame(good, MsgType::ReplayEnd, nullptr, 0);

    Xorshift64Star rng(GetParam());
    size_t threw = 0;
    for (int round = 0; round < 200; ++round) {
        auto bad = good;
        if (round % 2 == 0) {
            size_t pos = rng.nextBelow(bad.size());
            bad[pos] ^= static_cast<uint8_t>(1 + rng.nextBelow(255));
        } else {
            bad.resize(rng.nextBelow(bad.size()));
        }
        size_t atView = 0;
        size_t atOwned = 0;
        std::vector<Frame> viaView = drainByteWise(bad, true, atView);
        std::vector<Frame> viaOwned = drainByteWise(bad, false, atOwned);
        EXPECT_EQ(atView, atOwned) << "round " << round;
        ASSERT_EQ(viaView.size(), viaOwned.size()) << "round " << round;
        for (size_t i = 0; i < viaView.size(); ++i) {
            EXPECT_EQ(viaView[i].type, viaOwned[i].type);
            EXPECT_EQ(viaView[i].payload, viaOwned[i].payload);
        }
        threw += atView != SIZE_MAX ? 1 : 0;
    }
    EXPECT_GT(threw, 0u) << "no corrupted stream ever threw";
}

TEST_P(CorruptWire, RandomGarbageNeverPanics)
{
    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 40; ++round) {
        std::vector<uint8_t> junk(rng.nextBelow(2048));
        for (auto &b : junk)
            b = static_cast<uint8_t>(rng.next());
        driveSession(junk, rng);

        FrameDecoder dec;
        dec.feed(junk.data(), junk.size());
        Frame f;
        try {
            while (dec.poll(f)) {
            }
        } catch (const FatalError &) {
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptWire,
                         ::testing::Values(101, 202, 303, 404));

TEST(NetFuzz, OversizeChunkStreamIsRefusedNotBuffered)
{
    // A session caps the bytes it accumulates for one replay stream,
    // replying with a fatal ERROR and closing rather than buffering
    // unboundedly. Lower the cap through the testing seam so the test
    // trips it with kilobytes, not Wire::kMaxLogBytes (256 MiB).
    Workload w = Workloads::build("syn.gzip", InputSize::Test);
    DbtRuntime dbt(w.program);
    Tea tea = buildTea(dbt.record("mret").traces);

    AutomatonRegistry registry;
    registry.put("gzip", std::move(tea));
    Session session(registry);
    session.setMaxLogBytes(4096);

    std::vector<uint8_t> wire;
    PayloadWriter hello;
    hello.u32(Wire::kMagic);
    hello.u32(Wire::kVersion);
    appendFrame(wire, MsgType::Hello, hello.out());
    PayloadWriter begin;
    begin.str("gzip");
    begin.u8(0);
    appendFrame(wire, MsgType::ReplayBegin, begin.out());
    std::vector<uint8_t> out;
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));

    // Feed 1 KiB chunks until the cap trips: the session must close
    // at the cap, not accept the stream indefinitely.
    std::vector<uint8_t> chunk;
    std::vector<uint8_t> payload(1024, 0xee);
    appendFrame(chunk, MsgType::ReplayChunk, payload.data(),
                payload.size());
    bool open = true;
    size_t sent = 0;
    while (open && sent < 100) {
        out.clear();
        open = session.consume(chunk.data(), chunk.size(), out);
        ++sent;
    }
    EXPECT_FALSE(open) << "session accepted " << sent
                       << " KiB against a 4 KiB cap";
    EXPECT_EQ(sent, 5u); // 4 fit, the 5th crosses the cap
    // The refusal is a fatal ERROR frame.
    FrameDecoder dec;
    dec.feed(out.data(), out.size());
    Frame f;
    ASSERT_TRUE(dec.poll(f));
    EXPECT_EQ(f.type, MsgType::Error);
    PayloadReader r(f.payload);
    EXPECT_EQ(r.u8(), 1u); // fatal
}

// ------------------------------------- streamed replay: split points

/**
 * One served automaton with its transition stream as a v1 raw, a v2
 * delta and a v2 elided log. The elided log is written with the
 * registry's own CompiledTea, the snapshot the session replays, so the
 * session, runReplayJob() and readTraceLog() all decode through the
 * same automaton.
 */
struct SplitCase
{
    std::string name;
    AutomatonSnapshot snap;
    std::vector<BlockTransition> stream;
    std::array<std::vector<uint8_t>, 3> logs;
};

const char *const encName[3] = {"v1 raw", "v2 delta", "v2 elided"};

SplitCase
splitCase(AutomatonRegistry &registry, const std::string &workload)
{
    Workload w = Workloads::build(workload, InputSize::Test);
    DbtRuntime dbt(w.program);
    SplitCase c;
    c.name = workload;
    registry.put(workload, buildTea(dbt.record("mret").traces));
    c.snap = registry.snapshot(workload);
    Machine m(w.program);
    BlockTracker tracker(
        w.program, [&](const BlockTransition &tr) { c.stream.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    for (int enc = 0; enc < 3; ++enc) {
        TraceLogOptions opts;
        if (enc == 0)
            opts.version = TraceLogFormat::kVersionV1;
        if (enc == 2)
            opts.elideWith = c.snap.compiled;
        TraceLogWriter writer(&c.logs[enc], opts);
        for (const BlockTransition &tr : c.stream)
            writer.append(tr);
    }
    return c;
}

uint32_t
get32(const std::vector<uint8_t> &b, size_t at)
{
    return uint32_t(b[at]) | (uint32_t(b[at + 1]) << 8) |
           (uint32_t(b[at + 2]) << 16) | (uint32_t(b[at + 3]) << 24);
}

/** Chunk-head bytes of a well-formed log: v2 adds the encoding byte. */
size_t
headBytes(const std::vector<uint8_t> &log)
{
    return get32(log, 4) == TraceLogFormat::kVersionV1 ? 8 : 9;
}

/** Offset of chunk `k`'s head (k = chunk count: the trailer's). */
size_t
chunkAt(const std::vector<uint8_t> &log, size_t k)
{
    size_t at = 8; // magic + version
    for (size_t i = 0; i < k; ++i)
        at += headBytes(log) + get32(log, at + headBytes(log) - 4) + 4;
    return at;
}

/** Payload bytes of chunk `k`. */
size_t
payloadOf(const std::vector<uint8_t> &log, size_t k)
{
    return get32(log, chunkAt(log, k) + headBytes(log) - 4);
}

/**
 * Where a well-formed log's regions begin: the end of the header; per
 * chunk, its head, its payload and its CRC word; the trailer, its
 * count, and the end of the log.
 */
std::vector<size_t>
regionStarts(const std::vector<uint8_t> &log)
{
    std::vector<size_t> at{8};
    size_t p = 8;
    while (get32(log, p) != 0) {
        size_t payload = get32(log, p + headBytes(log) - 4);
        at.push_back(p);
        at.push_back(p + headBytes(log));
        at.push_back(p + headBytes(log) + payload);
        p += headBytes(log) + payload + 4;
    }
    at.push_back(p);
    at.push_back(p + 4);
    at.push_back(log.size());
    return at;
}

/**
 * Corrupt chunk `k` of a v2 delta log behind a valid CRC: the chunk's
 * last record that is its block's first visit in the chunk loses its
 * new-block tag bit, so the codec finds no dictionary entry for it in
 * mid-chunk, after the records before it have been walked.
 */
std::vector<uint8_t>
dictionaryMiss(const SplitCase &c, size_t k)
{
    std::vector<uint8_t> log = c.logs[1];
    const BlockTransition *recs =
        c.stream.data() + k * TraceLogFormat::kChunkRecords;
    const size_t n = std::min<size_t>(TraceLogFormat::kChunkRecords,
                                      c.stream.size() -
                                          k * TraceLogFormat::kChunkRecords);
    auto seenBefore = [&](size_t at) {
        for (size_t i = 0; i < at; ++i)
            if (recs[i].from.start == recs[at].from.start)
                return true;
        return false;
    };
    size_t j = n - 1;
    while (j > 0 && seenBefore(j))
        --j;
    EXPECT_GT(j, 0u) << c.name << ": one block fills chunk " << k;
    std::vector<uint8_t> prefix;
    encodeChunkPayload(prefix, ChunkEncoding::Delta, recs, j);
    const size_t head = chunkAt(log, k);
    log[head + 9 + prefix.size()] &= static_cast<uint8_t>(~0x02);
    const size_t payload = payloadOf(log, k);
    uint32_t crc = crc32(log.data() + head, 9 + payload);
    for (int i = 0; i < 4; ++i)
        log[head + 9 + payload + i] = static_cast<uint8_t>(crc >> (8 * i));
    return log;
}

/** A served replay's answer: the ERROR text, or the stats and profile. */
struct Outcome
{
    std::string error;
    ReplayStats stats;
    std::vector<uint64_t> profile;
};

/**
 * What the session must answer for `log`: the local oracle's stats and
 * profile (runReplayJob), or — for a log the whole-log reader rejects —
 * an ERROR carrying readTraceLog()'s message.
 */
Outcome
oracle(const SplitCase &c, const std::vector<uint8_t> &log)
{
    Outcome want;
    try {
        readTraceLog(log, c.snap.compiled.get());
    } catch (const FatalError &e) {
        want.error = std::string("replay failed: ") + e.what();
        return want;
    }
    ReplayJob job{c.snap.tea, "", &log, c.snap.compiled};
    StreamResult res = runReplayJob(job, LookupConfig{});
    EXPECT_TRUE(res.ok()) << res.error;
    want.stats = res.stats;
    want.profile = res.execCounts;
    return want;
}

/**
 * Replay `log` on `session` as REPLAY_CHUNK frames cut at `cuts`
 * (ascending offsets inside the log), profile requested.
 */
Outcome
streamReplay(Session &session, const std::string &name,
             const std::vector<uint8_t> &log,
             const std::vector<size_t> &cuts, uint8_t flags = 0)
{
    std::vector<uint8_t> wire;
    PayloadWriter begin;
    begin.str(name);
    begin.u8(ReplayFlags::kProfile | flags);
    appendFrame(wire, MsgType::ReplayBegin, begin.out());
    size_t from = 0;
    for (size_t to : cuts) {
        appendFrame(wire, MsgType::ReplayChunk, log.data() + from, to - from);
        from = to;
    }
    appendFrame(wire, MsgType::ReplayChunk, log.data() + from,
                log.size() - from);
    appendFrame(wire, MsgType::ReplayEnd, nullptr, 0);

    Outcome got;
    std::vector<uint8_t> out;
    EXPECT_TRUE(session.consume(wire.data(), wire.size(), out));
    FrameDecoder dec;
    dec.feed(out.data(), out.size());
    Frame f;
    if (!dec.poll(f) || f.type != MsgType::ReplayOk) {
        got.error = "no REPLAY_OK";
        return got;
    }
    if (!dec.poll(f)) {
        got.error = "no answer to REPLAY_END";
        return got;
    }
    PayloadReader r(f.payload);
    if (f.type == MsgType::Error) {
        EXPECT_EQ(r.u8(), 0u) << "a failed replay must keep the session";
        got.error = r.str(64 * 1024);
    } else if (f.type == MsgType::ReplayResult) {
        got.stats = decodeStats(r);
        EXPECT_EQ(r.u8(), 1u);
        uint32_t states = r.u32();
        for (uint32_t i = 0; i < states; ++i)
            got.profile.push_back(r.u64());
        r.expectEnd();
    } else {
        got.error = "unexpected reply type";
    }
    EXPECT_FALSE(dec.poll(f)) << "one answer per replay";
    return got;
}

/**
 * The split plans for a log of `n` bytes: for every shift d in
 * [-16, 16], one cut at each region start plus d — so every offset
 * within 16 bytes of every boundary is a frame edge in some plan —
 * then `randomPlans` seeded random cut sets and, when `fine`, a plan
 * of 7-byte frames.
 */
std::vector<std::vector<size_t>>
splitPlans(const std::vector<size_t> &starts, size_t n, uint64_t seed,
           int randomPlans, bool fine)
{
    std::vector<std::vector<size_t>> plans;
    auto add = [&](std::vector<size_t> cuts) {
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        plans.push_back(std::move(cuts));
    };
    for (int d = -16; d <= 16; ++d) {
        std::vector<size_t> cuts;
        for (size_t b : starts) {
            long c = static_cast<long>(b) + d;
            if (c > 0 && c < static_cast<long>(n))
                cuts.push_back(static_cast<size_t>(c));
        }
        add(std::move(cuts));
    }
    Xorshift64Star rng(seed);
    for (int round = 0; round < randomPlans && n > 1; ++round) {
        std::vector<size_t> cuts;
        size_t k = 1 + rng.nextBelow(32);
        for (size_t i = 0; i < k; ++i)
            cuts.push_back(1 + rng.nextBelow(n - 1));
        add(std::move(cuts));
    }
    if (fine) {
        std::vector<size_t> cuts;
        for (size_t c = 7; c < n; c += 7)
            cuts.push_back(c);
        add(std::move(cuts));
    }
    return plans;
}

/**
 * Replay `log` under every split plan on one session, each replay
 * followed by a good one: the answer must not depend on where the
 * frames cut the log, and no answer may leave state behind.
 */
void
checkSplits(AutomatonRegistry &registry, const SplitCase &c,
            const std::string &what, const std::vector<uint8_t> &log,
            std::vector<size_t> starts, const Outcome &good,
            bool corrupt)
{
    SCOPED_TRACE(c.name + ", " + what);
    Outcome want = oracle(c, log);
    ASSERT_EQ(want.error.empty(), !corrupt) << want.error;
    // The well-formed log's region starts that this log still has,
    // and its own end (a truncation point, for a cut log).
    starts.erase(std::remove_if(starts.begin(), starts.end(),
                                [&](size_t b) { return b > log.size(); }),
                 starts.end());
    starts.push_back(log.size());
    Session session(registry);
    std::vector<uint8_t> out;
    PayloadWriter hello;
    hello.u32(Wire::kMagic);
    hello.u32(Wire::kVersion);
    std::vector<uint8_t> wire;
    appendFrame(wire, MsgType::Hello, hello.out());
    ASSERT_TRUE(session.consume(wire.data(), wire.size(), out));

    int i = 0;
    for (const std::vector<size_t> &cuts :
         splitPlans(starts, log.size(), /*seed=*/log.size(),
                    corrupt ? 4 : 8, /*fine=*/!corrupt)) {
        Outcome got = streamReplay(session, c.name, log, cuts);
        EXPECT_EQ(got.error, want.error) << "plan " << i;
        EXPECT_EQ(got.stats, want.stats) << "plan " << i;
        EXPECT_EQ(got.profile, want.profile) << "plan " << i;
        // Every third follow-up runs the reference kernel, so the
        // session's replayer also moves between kernels.
        uint8_t flags = i % 3 == 0 ? ReplayFlags::kReference : 0;
        Outcome next = streamReplay(session, c.name, c.logs[1], {}, flags);
        EXPECT_EQ(next.error, "") << "after plan " << i;
        EXPECT_EQ(next.stats, good.stats) << "after plan " << i;
        EXPECT_EQ(next.profile, good.profile) << "after plan " << i;
        ++i;
    }
}

TEST(NetReplaySplit, AnswerIsTheLocalOracleWhereverFramesCutTheLog)
{
    AutomatonRegistry registry;
    for (const char *workload : {"syn.gzip", "syn.vpr"}) {
        SplitCase c = splitCase(registry, workload);
        ASSERT_GT(inspectTraceLog(c.logs[1].data(), c.logs[1].size())
                      .chunks.size(),
                  2u)
            << workload;
        Outcome good = oracle(c, c.logs[1]);
        for (int enc = 0; enc < 3; ++enc)
            checkSplits(registry, c, encName[enc], c.logs[enc],
                        regionStarts(c.logs[enc]), good, false);
    }
}

TEST(NetReplaySplit, DefectsAnswerTheWholeLogReadersMessage)
{
    // Every defect in the v2 delta logs of both workloads; the framing
    // defects also in syn.gzip's v1 raw and v2 elided logs.
    AutomatonRegistry registry;
    for (const char *workload : {"syn.gzip", "syn.vpr"}) {
        SplitCase c = splitCase(registry, workload);
        Outcome goodResult = oracle(c, c.logs[1]);
        for (int enc : {0, 1, 2}) {
            if (enc != 1 && c.name != "syn.gzip")
                continue;
            const std::vector<uint8_t> &good = c.logs[enc];
            const std::vector<size_t> starts = regionStarts(good);
            const size_t head = headBytes(good);
            const size_t chunk1 = chunkAt(good, 1);
            const size_t payload1 = payloadOf(good, 1);
            std::vector<std::pair<std::string, std::vector<uint8_t>>> bad;
            auto flipped = good;
            flipped[chunk1 + head + payload1 / 2] ^= 0x40;
            bad.emplace_back("CRC flip in chunk 1", flipped);
            std::pair<const char *, size_t> cuts[] = {
                {"in the header", 6},
                {"at a chunk head", chunkAt(good, 2)},
                {"in a chunk head", chunk1 + 5},
                {"in a payload", chunk1 + head + payload1 / 2},
                {"in a CRC word", chunk1 + head + payload1 + 2},
                {"in the trailer", good.size() - 5},
            };
            for (const auto &[where, at] : cuts)
                bad.emplace_back(
                    std::string("truncated ") + where,
                    std::vector<uint8_t>(good.begin(),
                                         good.begin() +
                                             static_cast<long>(at)));
            auto trailing = good;
            trailing.insert(trailing.end(), {0xde, 0xad, 0xbe});
            bad.emplace_back("trailing bytes", trailing);
            auto count = good;
            count[count.size() - 8] ^= 0x01; // trailer total, low byte
            bad.emplace_back("wrong trailer count", count);
            if (enc == 1)
                bad.emplace_back("dictionary miss in chunk 1",
                                 dictionaryMiss(c, 1));
            for (const auto &[what, log] : bad)
                checkSplits(registry, c, std::string(encName[enc]) + ", " +
                                             what,
                            log, starts, goodResult, true);
        }
        // The dictionary miss is the codec's catch, in mid-chunk.
        EXPECT_NE(oracle(c, dictionaryMiss(c, 1))
                      .error.find("missing from the chunk dictionary"),
                  std::string::npos);
    }
}

TEST(NetFuzz, PayloadReaderUnderrunAndTrailingBytesAreFatal)
{
    PayloadWriter w;
    w.u32(42);
    PayloadReader r(w.out());
    EXPECT_EQ(r.u32(), 42u);
    EXPECT_THROW(r.u8(), FatalError); // underrun

    PayloadReader r2(w.out());
    EXPECT_THROW(r2.expectEnd(), FatalError); // trailing bytes

    // A string whose length word overruns the payload.
    PayloadWriter w3;
    w3.u32(1000);
    PayloadReader r3(w3.out());
    EXPECT_THROW(r3.str(Wire::kMaxName), FatalError);

    // A string longer than the caller's limit.
    PayloadWriter w4;
    w4.str(std::string(300, 'x'));
    PayloadReader r4(w4.out());
    EXPECT_THROW(r4.str(Wire::kMaxName), FatalError);
}

// ------------------------------------------------ RECORD_CHUNK v2 fuzz

/**
 * A golden recording conversation over v2 chunks. `refusedFirst` puts
 * a RECORD_BEGIN for the same name without the v2 flag ahead of it.
 */
std::vector<uint8_t>
goldenRecordStream(const std::vector<BlockTransition> &stream,
                   bool refusedFirst = false)
{
    std::vector<uint8_t> out;
    PayloadWriter hello;
    hello.u32(Wire::kMagic);
    hello.u32(Wire::kVersion);
    appendFrame(out, MsgType::Hello, hello.out());

    if (refusedFirst) {
        PayloadWriter noV2;
        noV2.str("fuzz");
        noV2.u8(0);
        appendFrame(out, MsgType::RecordBegin, noV2.out());
    }
    PayloadWriter begin;
    begin.str("fuzz");
    begin.u8(RecordFlags::kChunksV2);
    appendFrame(out, MsgType::RecordBegin, begin.out());

    size_t per = TraceLogFormat::kChunkRecords;
    for (size_t at = 0; at < stream.size(); at += per) {
        size_t n = std::min(per, stream.size() - at);
        std::vector<uint8_t> chunk;
        encodeWireChunk(chunk, stream.data() + at, n);
        appendFrame(out, MsgType::RecordChunk, chunk.data(),
                    chunk.size());
    }
    appendFrame(out, MsgType::RecordEnd, nullptr, 0);
    return out;
}

/**
 * Drive a recorder-enabled Session with the byte stream; returns the
 * reply frames seen. Nothing may escape consume().
 */
std::vector<uint8_t>
driveRecordSession(const std::vector<uint8_t> &wire, Xorshift64Star &rng)
{
    AutomatonRegistry registry;
    rec::RecordingService recSvc(registry);
    Session session(registry);
    session.setRecorder(&recSvc);
    std::vector<uint8_t> replies;
    size_t pos = 0;
    bool open = true;
    while (open && pos < wire.size()) {
        size_t n = 1 + rng.nextBelow(8192);
        n = std::min(n, wire.size() - pos);
        std::vector<uint8_t> out;
        open = session.consume(wire.data() + pos, n, out);
        pos += n;
        replies.insert(replies.end(), out.begin(), out.end());
    }
    return replies;
}

const std::vector<BlockTransition> &
fuzzStream()
{
    static const std::vector<BlockTransition> stream = [] {
        Workload w = Workloads::build("syn.gzip", InputSize::Test);
        std::vector<BlockTransition> s;
        Machine m(w.program);
        BlockTracker tracker(
            w.program,
            [&](const BlockTransition &tr) { s.push_back(tr); },
            /*rep_per_iteration=*/false, /*collect_blocks=*/false);
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    false);
        return s;
    }();
    return stream;
}

TEST(NetRecordFuzz, GoldenV2RecordingCompletesWithAResult)
{
    // The second input leads with a RECORD_BEGIN for the same name
    // without the v2 flag: a non-fatal ERROR, and no name claimed —
    // had it claimed "fuzz", the real BEGIN would draw an ERROR too.
    for (bool refusedFirst : {false, true}) {
        Xorshift64Star rng(3);
        std::vector<uint8_t> replies = driveRecordSession(
            goldenRecordStream(fuzzStream(), refusedFirst), rng);
        // HELLO_OK, [ERROR], RECORD_OK (with the ack byte),
        // RECORD_RESULT.
        FrameDecoder dec;
        dec.feed(replies.data(), replies.size());
        Frame f;
        ASSERT_TRUE(dec.poll(f));
        EXPECT_EQ(f.type, MsgType::HelloOk);
        if (refusedFirst) {
            ASSERT_TRUE(dec.poll(f));
            ASSERT_EQ(f.type, MsgType::Error);
            PayloadReader err(f.payload);
            EXPECT_EQ(err.u8(), 0u) << "the refusal must not be fatal";
            EXPECT_NE(err.str(1024).find("v2"), std::string::npos);
        }
        ASSERT_TRUE(dec.poll(f));
        ASSERT_EQ(f.type, MsgType::RecordOk);
        PayloadReader r(f.payload);
        EXPECT_EQ(r.u8(), 1u) << "the ack byte is always 1";
        r.expectEnd();
        ASSERT_TRUE(dec.poll(f));
        ASSERT_EQ(f.type, MsgType::RecordResult);
        PayloadReader res(f.payload);
        EXPECT_EQ(res.u64(), fuzzStream().size()); // transitions
        EXPECT_FALSE(dec.poll(f));
    }
}

class CorruptRecordWire : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CorruptRecordWire, DamagedV2ChunksNeverPanicTheSession)
{
    // Flip bytes anywhere in the recording conversation — frame
    // headers, the v2 chunk head, the delta payload, the CRC.
    // Every outcome must be a clean reply stream (possibly containing
    // an ERROR and a close) — never an exception out of consume(), a
    // panic, or a crash. ASan/UBSan sharpen this in the sanitize job.
    const std::vector<uint8_t> good = goldenRecordStream(fuzzStream());
    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 120; ++round) {
        auto bad = good;
        int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f) {
            size_t pos = rng.nextBelow(bad.size());
            bad[pos] = static_cast<uint8_t>(rng.next());
        }
        std::vector<uint8_t> replies = driveRecordSession(bad, rng);
        // Replies must themselves be well-framed.
        FrameDecoder dec;
        dec.feed(replies.data(), replies.size());
        Frame f;
        while (dec.poll(f)) {
        }
        EXPECT_TRUE(dec.atBoundary());
    }
}

TEST_P(CorruptRecordWire, TruncatedV2ChunkPayloadDrawsAnError)
{
    // Cut the RECORD_CHUNK payload short (reframed, so the frame CRC is
    // valid and the damage reaches the chunk decoder): the session must
    // answer with an ERROR frame, not die or accept half a batch.
    const std::vector<BlockTransition> &stream = fuzzStream();
    Xorshift64Star rng(GetParam());

    std::vector<uint8_t> chunk;
    size_t n = std::min<size_t>(stream.size(), 600);
    encodeWireChunk(chunk, stream.data(), n);

    for (int round = 0; round < 40; ++round) {
        std::vector<uint8_t> wire;
        PayloadWriter hello;
        hello.u32(Wire::kMagic);
        hello.u32(Wire::kVersion);
        appendFrame(wire, MsgType::Hello, hello.out());
        PayloadWriter begin;
        begin.str("cut");
        begin.u8(RecordFlags::kChunksV2);
        appendFrame(wire, MsgType::RecordBegin, begin.out());
        size_t keep = rng.nextBelow(chunk.size());
        appendFrame(wire, MsgType::RecordChunk, chunk.data(), keep);
        std::vector<uint8_t> replies = driveRecordSession(wire, rng);

        FrameDecoder dec;
        dec.feed(replies.data(), replies.size());
        Frame f;
        bool sawError = false;
        while (dec.poll(f))
            sawError = sawError || f.type == MsgType::Error;
        EXPECT_TRUE(sawError) << "kept " << keep << " of "
                              << chunk.size();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptRecordWire,
                         ::testing::Values(17, 34, 51));

} // namespace
} // namespace tea
