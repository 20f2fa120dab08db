/**
 * @file
 * TeaServer's connection engine: one thread, epoll (or poll)
 * readiness, nonblocking sockets, bounded write queues, and a timer
 * wheel.
 *
 * The loop thread owns every socket, all accept and write I/O, every
 * read that starts a consume task, and the whole connection lifecycle;
 * the ThreadPool runs Session::consume() — the CPU work — and hands the
 * result back through a completion queue drained on a wakeup
 * eventfd/pipe. An idle or hostile connection therefore holds no
 * thread. Session is a socket-free byte-stream state machine, which is
 * exactly the shape a readiness loop schedules.
 *
 * Threading rules (the whole contract):
 *
 * - every Conn field is owned by the loop thread, EXCEPT while a
 *   consume task is in flight (`processing == true`), when the worker
 *   exclusively owns `session`, `replies`, and the task* result fields
 *   — the loop does not touch them until the completion is dequeued
 *   (the completion mutex orders the handoff both ways);
 * - the pool touches a socket only to read on: a task dispatched with
 *   no bytes queued for its peer reads more from its own socket while
 *   its session owes no reply, so a streamed request is one task, not
 *   one loop round trip per read; the loop does no I/O on that socket
 *   until the completion. The loop never runs a replay;
 * - reads are never staged: the loop's read that starts a task and the
 *   task's reads on both land in the session's frame decoder
 *   (Session::receiveBuffer), so each wire byte is read once, and a
 *   REPLAY_CHUNK is walked into the replayer where it lies — only the
 *   incomplete `.tlog` chunk frame at its end is ever copied.
 *
 * Robustness mechanics, all loop-local and lock-free:
 *
 * - *bounded write queues*: replies append to a per-connection queue
 *   flushed opportunistically and on EPOLLOUT. Past the high watermark
 *   the loop stops reading from that connection (a peer that won't
 *   drain its replies can't make us buffer its next requests); below
 *   the low watermark reading resumes; past the hard cap
 *   (maxWriteQueueBytes) the connection is fatally closed — memory is
 *   bounded per connection, no matter how hostile the peer;
 * - *timer wheel*: idle timeouts, mid-request deadlines, and drain
 *   deadlines are hashed-wheel timers (net/timer_wheel.hh) — O(1)
 *   arm/cancel, and the firing cost scales with expirations, not
 *   connections;
 * - *overload shedding*: admission is checked at accept — pool backlog
 *   past maxQueue or live connections past maxSessions answer one BUSY
 *   frame (with the queue depth and cap, so clients back off smart)
 *   and close after it flushes;
 * - *graceful drain*: stop() quiesces accepts, stops reading, lets
 *   in-flight consume tasks finish, flushes every queued reply, and
 *   evicts stragglers when the drain deadline fires.
 *
 * Fault injection: connections are held through FaultySocket, so the
 * chaos config (ServerConfig::loopFaults) can inject EAGAIN storms,
 * partial writes, and spurious readiness — the nonblocking failure
 * shapes epoll may legally produce. Unarmed (the default) every call
 * passes straight through.
 */

#ifndef TEA_NET_EVENT_LOOP_HH
#define TEA_NET_EVENT_LOOP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/fault.hh"
#include "net/socket.hh"
#include "net/timer_wheel.hh"

namespace tea {

class TeaServer;
class Session;

/**
 * One readiness-poll backend: epoll on Linux, poll(2) everywhere else
 * (and on Linux when forcePoll says so — the fallback is tested, not
 * decorative). Level-triggered semantics on both backends. Tags are
 * opaque caller tokens delivered back with each event.
 */
class Poller
{
  public:
    explicit Poller(bool forcePoll);
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    struct Event
    {
        uint64_t tag = 0;
        bool in = false;
        bool out = false;
        bool err = false; ///< HUP/ERR: read to collect EOF/reset
    };

    void add(int fd, bool in, bool out, uint64_t tag);
    void mod(int fd, bool in, bool out, uint64_t tag);
    void del(int fd);

    /** Wait up to timeoutMs (-1 = forever); fills `out`. */
    void wait(std::vector<Event> &out, int timeoutMs);

    /** True when the epoll backend is active (reporting/tests). */
    bool usingEpoll() const { return epfd_ >= 0; }

  private:
    int epfd_ = -1; ///< epoll instance; -1 = poll backend

    struct PollEntry
    {
        bool in = false;
        bool out = false;
        uint64_t tag = 0;
    };
    std::unordered_map<int, PollEntry> pollSet_; ///< poll backend state
};

/**
 * A self-wakeup fd for the loop: eventfd on Linux, a pipe elsewhere.
 * signal() is async-signal-safe-ish (one write syscall) and callable
 * from any thread; drain() resets it on the loop thread.
 */
class WakeupFd
{
  public:
    WakeupFd();
    ~WakeupFd();

    WakeupFd(const WakeupFd &) = delete;
    WakeupFd &operator=(const WakeupFd &) = delete;

    int fd() const { return rfd_; }
    void signal();
    void drain();

  private:
    int rfd_ = -1;
    int wfd_ = -1; ///< == rfd_ for eventfd
};

class EventLoop
{
  public:
    /** `server` outlives the loop and owns the listener. */
    explicit EventLoop(TeaServer &server);
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Put the listener in nonblocking mode and spawn the loop thread. */
    void start();

    /**
     * Graceful drain: no new accepts or reads, in-flight consume tasks
     * finish, queued replies flush, stragglers are evicted at the
     * drain deadline. Returns after the loop thread joined; idempotent.
     */
    void stop();

    /** Live admitted connections (excludes BUSY-bounced ones). */
    size_t liveConns() const { return live_.load(); }

  private:
    struct Conn;

    void run();
    void handleAccept();
    void admit(Socket sock);
    void handleReadable(Conn *c);
    void handleWritable(Conn *c);
    /**
     * Sniff the connection's first bytes: `GET ` switches it to HTTP
     * mode (the exposition endpoints share the wire listener — see
     * docs/DESIGN.md §5i); anything else replays the buffered prefix
     * into the normal frame path. Returns false while fewer than four
     * bytes have arrived (keep buffering) or when c was destroyed.
     */
    bool classifyProtocol(Conn *c, const uint8_t *data, size_t n);
    /** Accumulate HTTP bytes; serve and begin closing when complete. */
    void handleHttpBytes(Conn *c, const uint8_t *data, size_t n);
    /** Route one parsed request target and queue the response. */
    void serveHttp(Conn *c, const std::string &target);
    /** Hand the `n` bytes just read into c's session to a worker. */
    void dispatchConsume(Conn *c, size_t n);
    void drainCompletions();
    void completeConsume(Conn *c);
    void handleTimer(uint64_t key);
    void beginDrain();

    /** Append bytes to c's write queue; may fatally close c (returns
     *  false then). Applies the hard cap and the high watermark. */
    bool queueBytes(Conn *c, const uint8_t *data, size_t len);
    /** Push queued bytes at the socket until empty or EAGAIN. */
    void flushWrites(Conn *c);
    /** Queue a fatal ERROR frame and begin closing c. */
    void evict(Conn *c, const char *why, bool deadline);
    /** Deregister, cancel timers, count, and destroy c. */
    void destroy(Conn *c);
    void updateInterest(Conn *c);
    void armIdle(Conn *c, uint64_t nowMs);
    void armRequestDeadline(Conn *c);

    TeaServer &srv;
    std::unique_ptr<Poller> poller_;
    WakeupFd wakeup_;
    TimerWheel wheel_;
    Xorshift64Star loopRng_; ///< spurious-readiness draws (chaos only)
    /**
     * The loop's single read scratch, for a connection's first bytes
     * (the protocol sniff) and for HTTP requests; wire-protocol reads
     * land in the session's frame decoder instead. A connection that
     * never sends therefore holds no read buffer at all — the 10k-
     * connection smoke test depends on that.
     */
    std::vector<uint8_t> readScratch_;

    std::thread thread_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> stopped_{false};
    bool draining_ = false; ///< loop-thread view of stopRequested_

    uint64_t nextConnId_ = 2; ///< 0 = listener tag, 1 = wakeup tag
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    std::atomic<size_t> live_{0};

    std::mutex doneMu_;
    std::vector<uint64_t> doneIds_; ///< completed consume tasks
};

} // namespace tea

#endif // TEA_NET_EVENT_LOOP_HH
