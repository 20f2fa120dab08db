/**
 * @file
 * `.teac` — the persistent, relocatable form of a CompiledTea.
 *
 * A `.teac` file is a fixed 104-byte header followed by the compiled
 * arena verbatim: CSR successor arrays, SoA state metadata, the flat
 * entry hash, the sorted entry array, and the per-state block records
 * (end address, loop-header bit) that complete the automaton. Every
 * section is addressed by an offset from the start of the *payload*
 * (byte 104), so the image is position-independent: mmap it anywhere,
 * validate, and replay straight out of the mapping — the disk bytes
 * are byte-for-byte the live lookup structures of tea/compiled.hh.
 * The image encodes the automaton once: CompiledTea::rehydrateTea()
 * rebuilds the exact `Tea` from these sections, so no `.tea` copy
 * rides along.
 *
 * Header (all fields little endian; offsets/sizes in bytes):
 *
 *   off  size  field          meaning
 *     0     4  magic          'TEAC' (0x43414554)
 *     4     4  version        format version; readers reject != 2
 *     8     4  flags          reserved, must be 0
 *    12     4  nStates        states incl. NTE (>= 1)
 *    16     4  nSuccs         total CSR transitions
 *    20     4  nEntries       trace entries (hash occupancy)
 *    24     4  hashCap        hash slots; power of two >= 8, > nEntries
 *    28     4  payloadCrc     CRC-32 of the payload
 *    32     8  payloadBytes   everything after the header
 *    40     8  offSuccOffset  CSR offsets    (nStates+1) x u32
 *    48     8  offSuccs       transitions    nSuccs x {u32 label, u32 id}
 *    56     8  offStateStart  start addrs    nStates x u32
 *    64     8  offStateMeta   identities     nStates x {u32 trace, u32 tbb}
 *    72     8  offHashSlots   entry hash     hashCap x {u32 addr, u32 id}
 *    80     8  offEntries     sorted entries nEntries x {u32 addr, u32 id}
 *    88     8  offStateBlock  block records  nStates x {u32 end, u32 flags}
 *    96     4  headerCrc      CRC-32 of the header with this field zero
 *   100     4  reserved       must be 0
 *
 * A block record's flags hold the loop-header bit (bit 0) and nothing
 * else; NTE's record is {0xffffffff, 0}.
 *
 * Alignment & endianness rules: sections are laid out in the order
 * above, each starting at an offset that is a multiple of 8, with the
 * canonical (gap-free up to padding) offsets computed by
 * TeacLayout::compute() — a reader rejects any header whose offsets
 * deviate, so there is exactly one valid encoding of a given automaton.
 * The format is little-endian only and 32-bit-field based; writers and
 * readers on big-endian hosts fail closed rather than byte-swap.
 *
 * Versioning policy: `version` is bumped on ANY incompatible change
 * (field meaning, section order, record shape, header layout). The
 * version fixes the header layout, so a reader checks magic and
 * version before the header CRC: an image of another version fails as
 * exactly that. New optional sections must be appended and described
 * by new header fields taken from `flags` bits — readers reject
 * unknown flag bits, so old readers can never misparse a new image.
 * There is no in-place migration: a version-N reader rejects
 * version-M != N files (version 1 carried an embedded `.tea` copy and
 * is rejected, not migrated), and the caller recompiles from the
 * automaton's `.tea`. For any image the reader accepts,
 * CompiledTea::rehydrateTea() recovers that `.tea`.
 *
 * Failure discipline: every validation failure throws a typed
 * FatalError (util/logging.hh). A `.teac` that parses is safe to replay
 * — bounds, monotonicity, hash agreement, and CRC integrity are all
 * checked up front, so the zero-copy kernel needs no per-access checks.
 *
 * Integrity tiers: the header CRC and the full structural audit are
 * unconditional — they are what make a parsed image memory-safe and
 * keep both global-lookup modes in agreement. The whole-payload CRC is
 * a second, optional tier (`verifyPayload`, on by default) that
 * additionally detects bit rot in bytes the audit cannot fully
 * constrain (e.g. state identities used for profile attribution, or
 * block end addresses) and checks the block records' shape; the
 * serving tier never touches the block records, which only
 * rehydrateTea() reads (and checks). The store's serving fault-in path turns the optional
 * tier off by default (StoreConfig::verifyPayload) because it doubles
 * cold-start cost for corruption classes the audit already catches;
 * `teadbt inspect` and the fuzz suite always run the strict tier.
 */

#ifndef TEA_TEA_TEAC_HH
#define TEA_TEA_TEAC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tea/compiled.hh"

namespace tea {

/** 'TEAC' little-endian. */
constexpr uint32_t kTeacMagic = 0x43414554u;
constexpr uint32_t kTeacVersion = 2;

/** The on-disk `.teac` header; see the file comment for field docs. */
struct TeacHeader
{
    uint32_t magic;
    uint32_t version;
    uint32_t flags;
    uint32_t nStates;
    uint32_t nSuccs;
    uint32_t nEntries;
    uint32_t hashCap;
    uint32_t payloadCrc;
    uint64_t payloadBytes;
    uint64_t offSuccOffset;
    uint64_t offSuccs;
    uint64_t offStateStart;
    uint64_t offStateMeta;
    uint64_t offHashSlots;
    uint64_t offEntries;
    uint64_t offStateBlock;
    uint32_t headerCrc;
    uint32_t reserved;
};

static_assert(sizeof(TeacHeader) == 104,
              "the .teac header is a fixed 104-byte record");

/**
 * The canonical payload layout for a given shape: section offsets (from
 * payload start) and total payload size, 8-aligned, in header order.
 * Shared by the arena builder (tea/compiled.cc) and the validator, so
 * writer and reader can never disagree about geometry.
 * @throws FatalError when the sizes overflow
 */
struct TeacLayout
{
    uint64_t offSuccOffset;
    uint64_t offSuccs;
    uint64_t offStateStart;
    uint64_t offStateMeta;
    uint64_t offHashSlots;
    uint64_t offEntries;
    uint64_t offStateBlock;
    uint64_t payloadBytes;

    static TeacLayout compute(uint32_t nStates, uint32_t nSuccs,
                              uint32_t nEntries, uint32_t hashCap);
};

/**
 * A validated zero-copy view over a `.teac` image.
 *
 * parse() performs the complete fail-closed validation pass: header
 * shape, CRCs, canonical geometry, and a structural audit of every
 * kernel section (CSR monotonicity, target bounds, label/start
 * agreement, entry ordering, hash/entry cross-check), plus the block
 * records' shape under verifyPayload. On success the typed pointers
 * below alias `data` directly — no bytes are copied — and replay
 * through them is guaranteed in-bounds and terminating. The view does not own `data`; CompiledTea::fromMapped()
 * pairs it with the owning MappedFile.
 */
struct CompiledTeaView
{
    TeacHeader header;
    const uint8_t *payload = nullptr;
    const uint32_t *succOffset = nullptr;
    const CompiledTea::Succ *succs = nullptr;
    const Addr *stateStart = nullptr;
    const CompiledTea::StateMeta *stateMeta = nullptr;
    const CompiledTea::HashSlot *hashSlots = nullptr;
    const CompiledTea::Entry *entries = nullptr;
    const CompiledTea::StateBlock *stateBlock = nullptr;

    /**
     * Validate `len` bytes at `data` as a `.teac` image.
     * @param verifyPayload when false, skip the payload CRC pass (the
     *        header CRC and the full structural audit still run; see
     *        "Integrity tiers" above)
     * @throws FatalError on any corruption, truncation, or version
     *         mismatch — never returns a partially valid view
     */
    static CompiledTeaView parse(const uint8_t *data, size_t len,
                                 bool verifyPayload = true);
};

/**
 * Atomically write `compiled.serialize()` to `path`: the bytes land in
 * a temp file of their own, `path + ".tmp.<pid>.<seq>"` with `<seq>` a
 * process-wide counter (a name left by a crashed save is skipped, not
 * reused), and are renamed into place, so a reader (or a crash) never
 * observes a torn image, and concurrent saves of one name in one
 * process each land whole. @throws FatalError on I/O failure.
 */
void saveTeacFile(const CompiledTea &compiled, const std::string &path);

} // namespace tea

#endif // TEA_TEA_TEAC_HH
