/**
 * @file
 * Robustness fuzzing of the `.teac` snapshot loader, in the style of
 * test_tracelog_fuzz.cc: truncations, header and payload byte flips,
 * bad magic/version/flags, wrong checksums, and structural tampering
 * with *recomputed* CRCs must always surface as FatalError — never as
 * a PanicError, a crash, or a silently wrong replay. The loader is the
 * store's trust boundary: a serving process maps whatever bytes sit in
 * the store directory, so validation has to carry the whole weight.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/teac.hh"
#include "trace/factory.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace tea {
namespace {

/** A small automaton: `traces` two-block cyclic loops. */
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

/** A well-formed serialized snapshot. */
std::vector<uint8_t>
goodImage(size_t traces)
{
    Tea tea = makeSyntheticTea(traces);
    CompiledTea compiled(tea);
    return compiled.serialize();
}

/** Full-strictness parse; throws whatever the validator throws. */
void
parseImage(const std::vector<uint8_t> &bytes)
{
    CompiledTeaView::parse(bytes.data(), bytes.size());
}

/** Recompute headerCrc after tampering with header fields. */
void
fixupHeaderCrc(std::vector<uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), sizeof(TeacHeader));
    TeacHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    h.headerCrc = 0;
    h.headerCrc = crc32(reinterpret_cast<const uint8_t *>(&h), sizeof h);
    std::memcpy(bytes.data(), &h, sizeof h);
}

/** Recompute payloadCrc (and then headerCrc) after payload tampering. */
void
fixupAllCrcs(std::vector<uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), sizeof(TeacHeader));
    TeacHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    h.payloadCrc =
        crc32(bytes.data() + sizeof h, bytes.size() - sizeof h);
    std::memcpy(bytes.data(), &h, sizeof h);
    fixupHeaderCrc(bytes);
}

/** Tamper with one named header field, then make the CRC look right. */
template <typename Fn>
std::vector<uint8_t>
withHeader(const std::vector<uint8_t> &good, Fn mutate)
{
    std::vector<uint8_t> bad = good;
    TeacHeader h;
    std::memcpy(&h, bad.data(), sizeof h);
    mutate(h);
    std::memcpy(bad.data(), &h, sizeof h);
    fixupHeaderCrc(bad);
    return bad;
}

TEST(TeacFuzz, GoodImageParses)
{
    for (size_t traces : {0u, 1u, 3u, 17u})
        EXPECT_NO_THROW(parseImage(goodImage(traces)));
}

TEST(TeacFuzz, EveryTruncationIsFatal)
{
    // Every strict prefix — which includes every section boundary —
    // must be rejected: the header's payloadBytes pins the exact file
    // length, so there is no shorter valid encoding to mistake it for.
    const auto good = goodImage(9);
    for (size_t keep = 0; keep < good.size(); ++keep) {
        std::vector<uint8_t> bad(good.begin(),
                                 good.begin() + static_cast<long>(keep));
        EXPECT_THROW(parseImage(bad), FatalError)
            << "kept " << keep << " of " << good.size();
    }
}

TEST(TeacFuzz, TrailingGarbageIsFatal)
{
    auto bad = goodImage(5);
    bad.push_back(0x00);
    EXPECT_THROW(parseImage(bad), FatalError);
}

TEST(TeacFuzz, MisalignedBufferIsFatal)
{
    // The zero-copy view aliases the bytes directly, so an unaligned
    // base would make every u32 access UB; the loader must refuse it.
    const auto good = goodImage(3);
    std::vector<uint8_t> shifted(good.size() + 1);
    std::memcpy(shifted.data() + 1, good.data(), good.size());
    EXPECT_THROW(
        CompiledTeaView::parse(shifted.data() + 1, good.size()),
        FatalError);
}

TEST(TeacFuzz, EveryHeaderByteFlipIsFatal)
{
    // Any single-bit damage inside the header is caught by the version
    // check or headerCrc — before any field is trusted for sizing or
    // offsets.
    const auto good = goodImage(7);
    for (size_t pos = 0; pos < sizeof(TeacHeader); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            auto bad = good;
            bad[pos] = static_cast<uint8_t>(bad[pos] ^ (1u << bit));
            EXPECT_THROW(parseImage(bad), FatalError)
                << "header flip at byte " << pos << " bit " << bit;
        }
    }
}

TEST(TeacFuzz, EveryPayloadByteFlipIsFatal)
{
    // Any single-byte damage past the header — including the alignment
    // padding between sections — is caught by payloadCrc.
    const auto good = goodImage(7);
    for (size_t pos = sizeof(TeacHeader); pos < good.size(); ++pos) {
        auto bad = good;
        bad[pos] = static_cast<uint8_t>(bad[pos] ^ 0x20);
        EXPECT_THROW(parseImage(bad), FatalError)
            << "payload flip at " << pos << " escaped the CRC";
    }
}

TEST(TeacFuzz, BadMagicIsFatalEvenWithValidCrc)
{
    const auto good = goodImage(4);
    EXPECT_THROW(
        parseImage(withHeader(good, [](TeacHeader &h) { h.magic ^= 1; })),
        FatalError);
}

TEST(TeacFuzz, UnknownVersionIsFatalEvenWithValidCrc)
{
    const auto good = goodImage(4);
    EXPECT_THROW(parseImage(withHeader(
                     good, [](TeacHeader &h) { h.version += 1; })),
                 FatalError);
    EXPECT_THROW(
        parseImage(withHeader(good, [](TeacHeader &h) { h.version = 0; })),
        FatalError);
    // Version 1 (an embedded `.tea` copy, another header layout) is
    // rejected, not migrated.
    EXPECT_THROW(
        parseImage(withHeader(good, [](TeacHeader &h) { h.version = 1; })),
        FatalError);
}

TEST(TeacFuzz, UnknownFlagsAndReservedBitsAreFatal)
{
    // Readers must reject sections they do not understand (the format's
    // forward-compat rule), and the reserved word must stay zero.
    const auto good = goodImage(4);
    EXPECT_THROW(parseImage(withHeader(
                     good, [](TeacHeader &h) { h.flags = 1; })),
                 FatalError);
    EXPECT_THROW(parseImage(withHeader(
                     good, [](TeacHeader &h) { h.reserved = 1; })),
                 FatalError);
}

TEST(TeacFuzz, GeometryTamperingIsFatalEvenWithValidCrc)
{
    // Counts and offsets must match the one canonical layout; any
    // resized or shifted geometry — even self-consistent-looking — is
    // rejected before a single section pointer is formed.
    const auto good = goodImage(6);
    auto tamper = [&](auto mutate) {
        EXPECT_THROW(parseImage(withHeader(good, mutate)), FatalError);
    };
    tamper([](TeacHeader &h) { h.nStates += 1; });
    tamper([](TeacHeader &h) { h.nStates = 0; });
    tamper([](TeacHeader &h) { h.nSuccs += 1; });
    tamper([](TeacHeader &h) { h.nEntries += 1; });
    tamper([](TeacHeader &h) { h.hashCap *= 2; });
    tamper([](TeacHeader &h) { h.hashCap = 0; });
    tamper([](TeacHeader &h) { h.hashCap = h.hashCap + 1; }); // not pow2
    tamper([](TeacHeader &h) { h.nEntries = h.hashCap; }); // probe loop
    tamper([](TeacHeader &h) { h.payloadBytes += 8; });
    tamper([](TeacHeader &h) { h.offSuccs += 8; });
    tamper([](TeacHeader &h) { h.offStateStart -= 8; });
    tamper([](TeacHeader &h) { h.offStateMeta += 8; });
    tamper([](TeacHeader &h) { h.offHashSlots += 8; });
    tamper([](TeacHeader &h) { h.offEntries += 8; });
    tamper([](TeacHeader &h) { h.offStateBlock -= 8; });
}

/** Write bytes to a temp path and load through the store's file path. */
std::shared_ptr<const CompiledTea>
loadViaFile(const std::vector<uint8_t> &bytes, const std::string &tag,
            bool verifyPayload = true)
{
    std::string path = ::testing::TempDir() + "teac_fuzz_" + tag +
                       "_" + std::to_string(::getpid()) + ".teac";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        fatal("cannot write '%s'", path.c_str());
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
        std::fclose(f);
        fatal("short write to '%s'", path.c_str());
    }
    std::fclose(f);
    auto compiled = CompiledTea::fromFile(path, verifyPayload);
    std::remove(path.c_str());
    return compiled;
}

/** Tamper with payload words at byte `off`, then fix every CRC. */
template <typename Fn>
std::vector<uint8_t>
withPayload(const std::vector<uint8_t> &good, uint64_t off, Fn mutate)
{
    std::vector<uint8_t> bad = good;
    mutate(reinterpret_cast<uint32_t *>(bad.data() + sizeof(TeacHeader) +
                                        off));
    fixupAllCrcs(bad);
    return bad;
}

TEST(TeacFuzz, TamperedBlockRecordIsFatalEvenWithValidCrc)
{
    // The per-state block records (end address, flags) are read only
    // by rehydrateTea(), but the strict tier still pins their shape:
    // NTE has none, and flags carry the loop-header bit alone. A record
    // with a recomputed CRC that breaks either rule is rejected; the
    // serving tier leaves their pages alone, so rehydrateTea() rejects
    // the unknown flag itself.
    const auto good = goodImage(4);
    TeacHeader h;
    std::memcpy(&h, good.data(), sizeof h);
    uint64_t nte = h.offStateBlock;
    uint64_t first = h.offStateBlock + sizeof(CompiledTea::StateBlock);
    EXPECT_NO_THROW(parseImage(withPayload(good, first, [](uint32_t *w) {
        w[1] ^= CompiledTea::kLoopHeaderFlag; // a legal (CRC-only) flip
    })));
    EXPECT_THROW(parseImage(withPayload(good, nte,
                                        [](uint32_t *w) { w[0] = 0x40; })),
                 FatalError);
    EXPECT_THROW(parseImage(withPayload(good, nte,
                                        [](uint32_t *w) { w[1] = 1; })),
                 FatalError);
    auto unknownFlag =
        withPayload(good, first, [](uint32_t *w) { w[1] = 2; });
    EXPECT_THROW(parseImage(unknownFlag), FatalError);
    EXPECT_THROW(loadViaFile(unknownFlag, "flag", false)->rehydrateTea(),
                 FatalError);

    // A state identity the audit leaves to the CRC: two states claiming
    // one (trace, tbb) parse, but can never rehydrate into a Tea.
    uint64_t second = h.offStateMeta + 2 * sizeof(CompiledTea::StateMeta);
    auto twin = withPayload(good, second, [](uint32_t *w) { w[1] = 0; });
    EXPECT_THROW(loadViaFile(twin, "twin")->rehydrateTea(), FatalError);
}

class TeacStructuralFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TeacStructuralFuzz, RecomputedCrcsNeverPanicOrMisload)
{
    // The hard adversary: flip payload bytes, then *fix every
    // checksum*, so only the structural audit stands between the bytes
    // and the replay kernel. Most flips must be rejected (CSR
    // monotonicity, succ-label cross-checks, hash/entry agreement);
    // whatever survives must load into a snapshot whose lookup
    // structures still agree with each other — never crash, never
    // probe out of bounds, never let the two lookup modes diverge —
    // and must rehydrate into a Tea or fail with a FatalError.
    const auto good = goodImage(11);
    const Tea source = makeSyntheticTea(11);
    Xorshift64Star rng(GetParam());

    int survived = 0;
    for (int round = 0; round < 300; ++round) {
        auto bad = good;
        int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f) {
            size_t pos =
                sizeof(TeacHeader) +
                rng.nextBelow(bad.size() - sizeof(TeacHeader));
            bad[pos] = static_cast<uint8_t>(rng.next());
        }
        fixupAllCrcs(bad);
        try {
            auto compiled = loadViaFile(bad, "structural");
            ++survived;
            // Accepted: the audit admitted it, so its invariants must
            // hold operationally — both global lookup modes agree on
            // every probe, and every CSR successor is a real state.
            for (const auto &[addr, id] : source.entries()) {
                (void)id;
                EXPECT_EQ(compiled->entryAt(addr),
                          compiled->entryLinear(addr));
            }
            for (StateId s = 0; s < compiled->numStates(); ++s)
                for (const CompiledTea::Succ *p = compiled->succBegin(s);
                     p != compiled->succEnd(s); ++p) {
                    ASSERT_GT(p->target, Tea::kNteState);
                    ASSERT_LT(p->target, compiled->numStates());
                }
            Tea back = compiled->rehydrateTea();
            EXPECT_EQ(back.numStates(), compiled->numStates());
        } catch (const FatalError &) {
            // expected for corrupt data
        }
        // PanicError or a crash fails the test.
    }
    // The audit must actually bite: random damage to the section data
    // cannot be routinely acceptable.
    EXPECT_LT(survived, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TeacStructuralFuzz,
                         ::testing::Values(101, 202, 303, 404));

TEST(TeacFuzz, FromFileRejectsDamagedImagesToo)
{
    // The mmap path (what the store actually runs) applies the same
    // validation as the in-memory parse.
    const auto good = goodImage(5);
    EXPECT_NO_THROW(loadViaFile(good, "ok"));

    auto truncated = good;
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(loadViaFile(truncated, "trunc"), FatalError);

    auto flipped = good;
    flipped[sizeof(TeacHeader) + 4] ^= 0xff;
    EXPECT_THROW(loadViaFile(flipped, "flip"), FatalError);

    EXPECT_THROW(loadViaFile({}, "empty"), FatalError);
}

} // namespace
} // namespace tea
