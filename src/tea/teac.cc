#include "tea/teac.hh"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "util/crc32.hh"
#include "util/logging.hh"

namespace tea {

// The format is little-endian only (see the header comment); this
// library targets little-endian hosts, so a big-endian port must add
// byte-swapping rather than silently writing a foreign byte order.
static_assert(std::endian::native == std::endian::little,
              "the .teac format requires a little-endian host");

namespace {

uint64_t
align8(uint64_t v)
{
    return (v + 7) & ~uint64_t(7);
}

/** Payload ceiling: u32 counts bound every section below 2^35 bytes,
 *  so anything past this is a corrupt header, not a big automaton. */
constexpr uint64_t kMaxPayload = uint64_t(1) << 38;

/**
 * Cold path of the structural audit: the fast pass below only
 * accumulates a did-anything-fail flag (so it stays branch-light and
 * auto-vectorizable on the hot mmap-load path); when it trips, this
 * walk re-runs every check one element at a time to name the culprit
 * in the FatalError. Never returns.
 */
[[noreturn]] [[gnu::noinline]] void
auditDiagnose(const CompiledTeaView &view, const TeacHeader &h)
{
    if (view.succOffset[0] != 0)
        fatal("teac: CSR offset table does not start at 0");
    for (uint32_t i = 0; i < h.nStates; ++i)
        if (view.succOffset[i + 1] < view.succOffset[i])
            fatal("teac: CSR offset table is not monotone at state %u", i);
    if (view.succOffset[h.nStates] != h.nSuccs)
        fatal("teac: CSR offset table ends at %u, want %u transitions",
              view.succOffset[h.nStates], h.nSuccs);
    if (view.succOffset[1] != 0)
        fatal("teac: the NTE state has explicit successors");

    if (view.stateStart[0] != kNoAddr)
        fatal("teac: the NTE state has a start address");
    if (view.stateMeta[0].trace != ~0u || view.stateMeta[0].tbb != ~0u)
        fatal("teac: the NTE state has a trace identity");
    for (uint32_t i = 1; i < h.nStates; ++i) {
        if (view.stateStart[i] == kNoAddr)
            fatal("teac: state %u has no start address", i);
        if (view.stateMeta[i].trace == ~0u)
            fatal("teac: state %u has no owning trace", i);
    }

    for (uint32_t i = 0; i < h.nSuccs; ++i) {
        const CompiledTea::Succ &s = view.succs[i];
        if (s.target == Tea::kNteState || s.target >= h.nStates)
            fatal("teac: transition %u targets invalid state %u", i,
                  s.target);
        if (s.label != view.stateStart[s.target])
            fatal("teac: transition %u label 0x%08x disagrees with its "
                  "target's start 0x%08x",
                  i, s.label, view.stateStart[s.target]);
    }

    uint32_t occupied = 0;
    for (uint32_t i = 0; i < h.hashCap; ++i) {
        const CompiledTea::HashSlot &slot = view.hashSlots[i];
        if (slot.addr == kNoAddr)
            continue;
        ++occupied;
        if (slot.state == Tea::kNteState || slot.state >= h.nStates)
            fatal("teac: hash slot %u holds invalid state %u", i,
                  slot.state);
    }
    if (occupied != h.nEntries)
        fatal("teac: hash table holds %u entries, header promises %u",
              occupied, h.nEntries);

    Addr prevAddr = 0;
    for (uint32_t i = 0; i < h.nEntries; ++i) {
        const CompiledTea::Entry &e = view.entries[i];
        if (e.addr == kNoAddr)
            fatal("teac: entry %u at the invalid address", i);
        if (i > 0 && e.addr <= prevAddr)
            fatal("teac: entry array is not strictly sorted at index %u", i);
        prevAddr = e.addr;
        if (e.state == Tea::kNteState || e.state >= h.nStates)
            fatal("teac: entry %u maps to invalid state %u", i, e.state);
    }

    // The fast pass saw a violation the loops above cannot reproduce —
    // impossible unless they ever fall out of sync; fail closed anyway.
    fatal("teac: structural audit failed");
}

} // namespace

TeacLayout
TeacLayout::compute(uint32_t nStates, uint32_t nSuccs, uint32_t nEntries,
                    uint32_t hashCap)
{
    TeacLayout lay{};
    uint64_t off = 0;
    lay.offSuccOffset = off;
    off = align8(off + (uint64_t(nStates) + 1) * sizeof(uint32_t));
    lay.offSuccs = off;
    off += uint64_t(nSuccs) * sizeof(CompiledTea::Succ);
    lay.offStateStart = off;
    off = align8(off + uint64_t(nStates) * sizeof(Addr));
    lay.offStateMeta = off;
    off += uint64_t(nStates) * sizeof(CompiledTea::StateMeta);
    lay.offHashSlots = off;
    off += uint64_t(hashCap) * sizeof(CompiledTea::HashSlot);
    lay.offEntries = off;
    off += uint64_t(nEntries) * sizeof(CompiledTea::Entry);
    lay.offStateBlock = off;
    off += uint64_t(nStates) * sizeof(CompiledTea::StateBlock);
    lay.payloadBytes = off;
    if (off > kMaxPayload)
        fatal("teac: implausible payload size %llu",
              static_cast<unsigned long long>(off));
    return lay;
}

CompiledTeaView
CompiledTeaView::parse(const uint8_t *data, size_t len, bool verifyPayload)
{
    if (data == nullptr || len < sizeof(TeacHeader))
        fatal("teac: truncated image: %zu bytes, header needs %zu", len,
              sizeof(TeacHeader));
    if ((reinterpret_cast<uintptr_t>(data) & 7) != 0)
        fatal("teac: image base is not 8-byte aligned");

    TeacHeader h;
    std::memcpy(&h, data, sizeof(h));
    if (h.magic != kTeacMagic)
        fatal("teac: bad magic 0x%08x (want 0x%08x)", h.magic, kTeacMagic);
    // The version fixes the header layout (including where headerCrc
    // sits), so it is the one field read before authentication: an
    // image of another version fails as exactly that.
    if (h.version != kTeacVersion)
        fatal("teac: unsupported format version %u (this reader speaks %u)",
              h.version, kTeacVersion);

    // Authenticate the header before trusting any other field.
    TeacHeader crcView = h;
    crcView.headerCrc = 0;
    uint32_t wantHeaderCrc = crc32(&crcView, sizeof(crcView));
    if (h.headerCrc != wantHeaderCrc)
        fatal("teac: header CRC mismatch (stored 0x%08x, computed 0x%08x)",
              h.headerCrc, wantHeaderCrc);

    if (h.flags != 0)
        fatal("teac: unknown flag bits 0x%08x", h.flags);
    if (h.reserved != 0)
        fatal("teac: nonzero reserved field 0x%08x", h.reserved);
    if (h.nStates == 0)
        fatal("teac: zero states (the NTE state must exist)");
    if (h.hashCap < 8 || (h.hashCap & (h.hashCap - 1)) != 0)
        fatal("teac: hash capacity %u is not a power of two >= 8",
              h.hashCap);
    // A strictly under-full table guarantees every probe chain hits an
    // empty slot, so entryAt() terminates on any address.
    if (h.nEntries >= h.hashCap)
        fatal("teac: hash table overfull: %u entries in %u slots",
              h.nEntries, h.hashCap);

    // The offsets are a pure function of the counts: recompute and
    // require an exact match, so there is one valid geometry and no
    // section can alias or escape the payload.
    TeacLayout lay =
        TeacLayout::compute(h.nStates, h.nSuccs, h.nEntries, h.hashCap);
    if (h.payloadBytes != lay.payloadBytes)
        fatal("teac: payload size %llu does not match the declared shape "
              "(canonical %llu)",
              static_cast<unsigned long long>(h.payloadBytes),
              static_cast<unsigned long long>(lay.payloadBytes));
    if (len != sizeof(TeacHeader) + h.payloadBytes)
        fatal("teac: image is %zu bytes but the header promises %llu", len,
              static_cast<unsigned long long>(sizeof(TeacHeader) +
                                              h.payloadBytes));
    if (h.offSuccOffset != lay.offSuccOffset || h.offSuccs != lay.offSuccs ||
        h.offStateStart != lay.offStateStart ||
        h.offStateMeta != lay.offStateMeta ||
        h.offHashSlots != lay.offHashSlots ||
        h.offEntries != lay.offEntries ||
        h.offStateBlock != lay.offStateBlock)
        fatal("teac: non-canonical section offsets");

    const uint8_t *payload = data + sizeof(TeacHeader);
    if (verifyPayload) {
        uint32_t wantPayloadCrc = crc32(payload, h.payloadBytes);
        if (h.payloadCrc != wantPayloadCrc)
            fatal("teac: payload CRC mismatch (stored 0x%08x, computed "
                  "0x%08x)",
                  h.payloadCrc, wantPayloadCrc);
    }

    CompiledTeaView view;
    view.header = h;
    view.payload = payload;
    view.succOffset =
        reinterpret_cast<const uint32_t *>(payload + lay.offSuccOffset);
    view.succs = reinterpret_cast<const CompiledTea::Succ *>(
        payload + lay.offSuccs);
    view.stateStart =
        reinterpret_cast<const Addr *>(payload + lay.offStateStart);
    view.stateMeta = reinterpret_cast<const CompiledTea::StateMeta *>(
        payload + lay.offStateMeta);
    view.hashSlots = reinterpret_cast<const CompiledTea::HashSlot *>(
        payload + lay.offHashSlots);
    view.entries = reinterpret_cast<const CompiledTea::Entry *>(
        payload + lay.offEntries);
    view.stateBlock = reinterpret_cast<const CompiledTea::StateBlock *>(
        payload + lay.offStateBlock);

    // Structural audit: after this pass the zero-copy kernel can walk
    // the image with no per-access bounds checks. Each section is
    // scanned with a branch-free accumulator (this is the hot part of
    // every store fault-in, so the good path must not branch per
    // element); any violation drops to auditDiagnose() for the exact
    // per-element error message.
    uint32_t bad = 0;

    // CSR offsets: monotone, 0-based, NTE succ-free, total == nSuccs.
    bad |= static_cast<uint32_t>(view.succOffset[0] != 0);
    bad |= static_cast<uint32_t>(view.succOffset[1] != 0);
    bad |= static_cast<uint32_t>(view.succOffset[h.nStates] != h.nSuccs);
    for (uint32_t i = 0; i < h.nStates; ++i)
        bad |= static_cast<uint32_t>(view.succOffset[i + 1] <
                                     view.succOffset[i]);

    // Per-state SoA: only NTE may lack a start address or an owning
    // trace, and NTE must lack both.
    bad |= static_cast<uint32_t>(view.stateStart[0] != kNoAddr);
    bad |= static_cast<uint32_t>(view.stateMeta[0].trace != ~0u ||
                                 view.stateMeta[0].tbb != ~0u);
    for (uint32_t i = 1; i < h.nStates; ++i) {
        bad |= static_cast<uint32_t>(view.stateStart[i] == kNoAddr);
        bad |= static_cast<uint32_t>(view.stateMeta[i].trace == ~0u);
    }

    // Transitions: in-range non-NTE targets whose start address equals
    // the inlined label. The gather index is clamped to 0 once the
    // bounds bit is set, so a corrupt target can never read OOB.
    for (uint32_t i = 0; i < h.nSuccs; ++i) {
        uint32_t t = view.succs[i].target;
        uint32_t oob = static_cast<uint32_t>(t == Tea::kNteState ||
                                             t >= h.nStates);
        bad |= oob;
        bad |= static_cast<uint32_t>(
            view.stateStart[oob != 0 ? 0 : t] != view.succs[i].label);
    }

    // Hash slots: occupied count matches the header, every occupied
    // slot holds an in-range non-NTE state.
    uint32_t occupied = 0;
    for (uint32_t i = 0; i < h.hashCap; ++i) {
        uint32_t occ =
            static_cast<uint32_t>(view.hashSlots[i].addr != kNoAddr);
        occupied += occ;
        bad |= occ & static_cast<uint32_t>(
                         view.hashSlots[i].state == Tea::kNteState ||
                         view.hashSlots[i].state >= h.nStates);
    }
    bad |= static_cast<uint32_t>(occupied != h.nEntries);

    // Entries: strictly sorted, valid addresses, in-range states.
    Addr prevAddr = 0;
    for (uint32_t i = 0; i < h.nEntries; ++i) {
        const CompiledTea::Entry &e = view.entries[i];
        bad |= static_cast<uint32_t>(e.addr == kNoAddr);
        bad |= static_cast<uint32_t>(i > 0 && e.addr <= prevAddr);
        bad |= static_cast<uint32_t>(e.state == Tea::kNteState ||
                                     e.state >= h.nStates);
        prevAddr = e.addr;
    }
    if (bad != 0)
        auditDiagnose(view, h);

    // Cross-check the hash: every entry address must probe to the same
    // state, so the "No Global" ablation and the default lookup can
    // never diverge. Probes terminate because the table is under-full
    // (checked above); with occupancy == nEntries and the entry array
    // strictly sorted, a full bijection follows.
    uint32_t mask = h.hashCap - 1;
    for (uint32_t i = 0; i < h.nEntries; ++i) {
        const CompiledTea::Entry &e = view.entries[i];
        uint32_t slot = CompiledTea::hashOf(e.addr) & mask;
        for (;;) {
            const CompiledTea::HashSlot &hs = view.hashSlots[slot];
            if (hs.addr == e.addr) {
                if (hs.state != e.state)
                    fatal("teac: hash and entry array disagree at address "
                          "0x%08x",
                          e.addr);
                break;
            }
            if (hs.addr == kNoAddr)
                fatal("teac: entry address 0x%08x is missing from the "
                      "hash table",
                      e.addr);
            slot = (slot + 1) & mask;
        }
    }

    // Block records: no lookup reads them, so the serving tier leaves
    // their pages untouched (rehydrateTea() checks the flags it
    // decodes); the strict tier, whose CRC pass has just read them,
    // pins their shape: NTE has none, flags hold the loop-header bit.
    if (verifyPayload) {
        const CompiledTea::StateBlock *blocks = view.stateBlock;
        if (blocks[0].end != kNoAddr || blocks[0].flags != 0)
            fatal("teac: the NTE state has a block record");
        for (uint32_t i = 1; i < h.nStates; ++i)
            if ((blocks[i].flags & ~CompiledTea::kLoopHeaderFlag) != 0)
                fatal("teac: state %u has unknown block flags 0x%08x", i,
                      blocks[i].flags);
    }

    return view;
}

std::vector<uint8_t>
CompiledTea::serialize() const
{
    TeacHeader h{};
    h.magic = kTeacMagic;
    h.version = kTeacVersion;
    h.flags = 0;
    h.nStates = nStates;
    h.nSuccs = nSuccs_;
    h.nEntries = nEntries_;
    h.hashCap = hashMask + 1;
    h.payloadBytes = payloadLen;
    TeacLayout lay =
        TeacLayout::compute(nStates, nSuccs_, nEntries_, hashMask + 1);
    TEA_ASSERT(lay.payloadBytes == payloadLen,
               "compiled arena disagrees with the canonical layout");
    h.offSuccOffset = lay.offSuccOffset;
    h.offSuccs = lay.offSuccs;
    h.offStateStart = lay.offStateStart;
    h.offStateMeta = lay.offStateMeta;
    h.offHashSlots = lay.offHashSlots;
    h.offEntries = lay.offEntries;
    h.offStateBlock = lay.offStateBlock;
    h.payloadCrc = crc32(payloadP, payloadLen);
    h.reserved = 0;
    h.headerCrc = 0;
    h.headerCrc = crc32(&h, sizeof(h));

    std::vector<uint8_t> out(sizeof(TeacHeader) + payloadLen);
    std::memcpy(out.data(), &h, sizeof(h));
    std::memcpy(out.data() + sizeof(h), payloadP, payloadLen);
    return out;
}

void
saveTeacFile(const CompiledTea &compiled, const std::string &path)
{
    std::vector<uint8_t> bytes = compiled.serialize();
    // Write-then-rename so a concurrent reader (or a crash mid-write)
    // sees either the old image or the new one, never a torn file.
    // Each write gets its own temp file (pid plus a process-wide
    // sequence number, created exclusively), so two saves of one name
    // never write into, or rename, each other's file. A name that
    // already exists is a crashed save's leftover (a restarted server
    // can reuse the pid) or another pid namespace's: skip to the next
    // sequence number.
    static std::atomic<uint64_t> writeSeq{0};
    const std::string prefix =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        ".";
    std::string tmp;
    FILE *f;
    do {
        tmp = prefix + std::to_string(writeSeq.fetch_add(1));
        f = std::fopen(tmp.c_str(), "wbx"); // x: O_EXCL
    } while (f == nullptr && errno == EEXIST);
    if (f == nullptr)
        fatal("cannot create '%s'", tmp.c_str());
    size_t put = std::fwrite(bytes.data(), 1, bytes.size(), f);
    int flushed = std::fflush(f);
    if (std::fclose(f) != 0 || put != bytes.size() || flushed != 0) {
        std::remove(tmp.c_str());
        fatal("short write to '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename '%s' into place", tmp.c_str());
    }
}

} // namespace tea
