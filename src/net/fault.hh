/**
 * @file
 * Deterministic fault injection for the tead wire stack.
 *
 * FaultySocket wraps a connected Socket and implements the same
 * read/write surface, injecting the faults a replay service meets in
 * the wild — short reads and writes, interrupted calls, artificial
 * latency, mid-frame connection resets, and byte corruption — at
 * per-call probabilities drawn from a seeded Xorshift64Star. Every
 * decision is a pure function of (seed, call sequence), so any chaos
 * failure replays exactly from its seed; no fault depends on the wall
 * clock or the scheduler.
 *
 * With no faults configured (a default FaultConfig, or a FaultySocket
 * never arm()ed) every call forwards straight to the wrapped Socket
 * behind a single branch — the pass-through overhead is unmeasurable
 * next to a syscall, which bench/net_throughput confirms.
 *
 * The injected faults split into two classes:
 *
 * - *benign* shapes the peer must absorb without noticing: short reads
 *   and writes fragment the byte stream across syscalls (frames arrive
 *   in pieces), simulated EINTR forces an internal retry, latency
 *   stretches the exchange. None of these may change any result.
 * - *destructive* faults that must surface as one typed, clean error:
 *   an injected reset closes the socket and throws FatalError exactly
 *   like a peer RST; corruption flips one byte so the far end's frame
 *   CRC (net/frame.hh) trips. tests/test_chaos.cc sweeps seeds and
 *   asserts every outcome is either a clean typed failure or a replay
 *   bit-identical to the local kernel.
 */

#ifndef TEA_NET_FAULT_HH
#define TEA_NET_FAULT_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/socket.hh"
#include "util/random.hh"

namespace tea {

/** The injectable fault classes, for per-kind accounting. */
enum class FaultKind : uint8_t {
    ShortRead = 0,
    ShortWrite,
    Eintr,
    Delay,
    Reset,
    Corrupt,
    // Nonblocking-only kinds (the server event loop's I/O surface): the
    // blocking calls never roll these.
    NbEagainRead,   ///< recvNb reports wouldBlock without reading
    NbEagainWrite,  ///< sendNb reports wouldBlock without writing
    NbPartialWrite, ///< sendNb moves fewer bytes than offered
    SpuriousReady,  ///< the loop treats an un-ready fd as readable
};

constexpr size_t kFaultKinds = 10;

const char *faultKindName(FaultKind kind);

/**
 * Per-call fault probabilities, all 0 by default (no faults). A
 * probability applies independently at each recvSome()/sendAll() call.
 */
struct FaultConfig
{
    // Benign: reshape delivery, never change bytes or outcomes.
    double shortRead = 0.0;  ///< read fewer bytes than asked
    double shortWrite = 0.0; ///< split one write into two sends
    double eintr = 0.0;      ///< simulate an interrupted, retried call
    double delay = 0.0;      ///< sleep before the call
    uint32_t delayMaxMs = 2; ///< sleep duration bound (uniform 1..max)

    // Destructive: the call fails; the connection is gone or poisoned.
    double reset = 0.0;   ///< close the socket mid-call, throw
    double corrupt = 0.0; ///< flip one byte of the data in flight

    // Nonblocking (event-loop) faults, all benign by construction: the
    // readiness loop must absorb every one of these without changing
    // any result — EAGAIN storms and spurious wakeups are exactly what
    // epoll is allowed to do to a correct server. Rolled only by
    // recvNb/sendNb (and SpuriousReady by the loop itself); the
    // blocking calls the client uses never see them.
    double nbEagainRead = 0.0;   ///< recvNb: spurious wouldBlock
    double nbEagainWrite = 0.0;  ///< sendNb: spurious wouldBlock
    double nbPartialWrite = 0.0; ///< sendNb: truncate the attempt
    double spuriousReady = 0.0;  ///< loop: phantom readable event

    /** True when any probability is nonzero. */
    bool any() const
    {
        return shortRead > 0 || shortWrite > 0 || eintr > 0 ||
               delay > 0 || reset > 0 || corrupt > 0 ||
               nbEagainRead > 0 || nbEagainWrite > 0 ||
               nbPartialWrite > 0 || spuriousReady > 0;
    }
};

/**
 * A Socket wrapper that injects configured faults deterministically.
 * Implements the Socket I/O surface, so TeaClient can hold one in
 * place of a bare Socket.
 */
class FaultySocket
{
  public:
    FaultySocket() = default;
    explicit FaultySocket(Socket s) : sock(std::move(s)) {}

    FaultySocket(Socket s, const FaultConfig &config, uint64_t seed)
        : sock(std::move(s))
    {
        arm(config, seed);
    }

    /** Enable fault injection; a no-fault config disarms. */
    void arm(const FaultConfig &config, uint64_t seed);

    /**
     * recvSome with faults: possible delay, simulated EINTR (a retried
     * wait), short read, injected reset (closes + throws FatalError),
     * or one received byte flipped.
     */
    size_t recvSome(void *buf, size_t len);

    /**
     * sendAll with faults: possible delay, short write (the data still
     * all goes out, in two sends — the peer sees a split frame),
     * injected reset, or one outgoing byte flipped (the peer's CRC
     * check trips).
     */
    void sendAll(const void *buf, size_t len);

    /**
     * recvNb with faults: an armed nbEagainRead probability turns the
     * attempt into a spurious wouldBlock (no bytes consumed) — the
     * EAGAIN storm a level-triggered loop must simply re-poll through.
     * Benign by construction: nothing is lost, delivery is only
     * deferred. Corrupt/reset faults apply as in recvSome.
     */
    Socket::IoResult recvNb(void *buf, size_t len);

    /**
     * sendNb with faults: nbEagainWrite defers the whole attempt
     * (wouldBlock, nothing sent); nbPartialWrite truncates it to a
     * random prefix — the loop's write queue must carry the remainder
     * across watermark boundaries. Corrupt faults poison one byte of
     * whatever does go out.
     */
    Socket::IoResult sendNb(const void *buf, size_t len);

    /**
     * A Bernoulli draw on SpuriousReady, for the event loop to consult
     * before treating a connection as readable without a poller event.
     * Always false when unarmed — and free: the rng does not advance.
     */
    bool rollSpuriousReady();

    void setNonBlocking(bool on) { sock.setNonBlocking(on); }
    int fd() const { return sock.fd(); }
    void close() { sock.close(); }
    bool valid() const { return sock.valid(); }

    /** Raw bytes written through sendAll(), for wire accounting. */
    uint64_t bytesSent() const { return sent; }

    /** Raw bytes surfaced by recvSome(). */
    uint64_t bytesReceived() const { return received; }

    /** Faults injected so far (all classes), for tests and reports. */
    uint64_t faultsInjected() const { return injected; }

    /**
     * Faults injected of one kind — the per-kind breakdown the chaos
     * report and the `fault.*` metrics export (tests/test_obs.cc).
     */
    uint64_t
    faultsInjected(FaultKind kind) const
    {
        return byKind[static_cast<size_t>(kind)];
    }

  private:
    /** Bernoulli draw; false (and no rng advance) when disarmed. */
    bool roll(double p, FaultKind kind);
    void maybeDelay();
    [[noreturn]] void injectReset(const char *where);

    Socket sock;
    FaultConfig cfg;
    Xorshift64Star rng;
    bool armed = false;
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t injected = 0;
    std::array<uint64_t, kFaultKinds> byKind{};
};

} // namespace tea

#endif // TEA_NET_FAULT_HH
