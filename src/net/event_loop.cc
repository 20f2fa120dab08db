#include "net/event_loop.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "net/frame.hh"
#include "net/server.hh"
#include "net/session.hh"
#include "obs/flightrec.hh"
#include "util/logging.hh"

namespace tea {

namespace {

uint64_t
steadyMs()
{
    using namespace std::chrono;
    return static_cast<uint64_t>(duration_cast<milliseconds>(
                                     steady_clock::now().time_since_epoch())
                                     .count());
}

/** Timer-wheel key packing: one wheel, three clocks per connection. */
enum TimerKind : uint64_t {
    kTimerIdle = 0,
    kTimerRequest = 1,
    kTimerDrain = 2,
};

constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;

uint64_t
timerKey(uint64_t connId, TimerKind kind)
{
    return (connId << 2) | kind;
}

uint64_t
timerConn(uint64_t key)
{
    return key >> 2;
}

TimerKind
timerKind(uint64_t key)
{
    return static_cast<TimerKind>(key & 3);
}

/** How long the poll may sleep with no timer armed (ms). */
constexpr uint64_t kIdlePollMs = 200;

/** Timer-wheel granularity (ms); deadlines round up to it. */
constexpr uint64_t kTickMs = 4;

constexpr size_t kReadChunk = 64 * 1024;

/**
 * Bytes one consume task may read on from its socket past the bytes it
 * was dispatched with (see dispatchConsume): a streamed RECORD or
 * REPLAY of a few MB fits in one task, and drain, doom and the request
 * deadline still get a look between tasks of a longer stream.
 */
constexpr size_t kReadOnBytes = 4 * 1024 * 1024;

} // namespace

// ------------------------------------------------------------------ Poller

Poller::Poller(bool forcePoll)
{
#if defined(__linux__)
    if (!forcePoll) {
        epfd_ = ::epoll_create1(0);
        if (epfd_ < 0)
            fatal("epoll_create1: %s", std::strerror(errno));
        return;
    }
#else
    (void)forcePoll;
#endif
    // poll(2) backend: pollSet_ is the registration table; each wait
    // builds the pollfd array from it. O(n) per wait, which is the
    // price of portability — the epoll backend is the scale path.
}

Poller::~Poller()
{
#if defined(__linux__)
    if (epfd_ >= 0)
        ::close(epfd_);
#endif
}

void
Poller::add(int fd, bool in, bool out, uint64_t tag)
{
#if defined(__linux__)
    if (epfd_ >= 0) {
        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = (in ? EPOLLIN : 0u) | (out ? EPOLLOUT : 0u);
        ev.data.u64 = tag;
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            fatal("epoll_ctl(ADD): %s", std::strerror(errno));
        return;
    }
#endif
    pollSet_[fd] = PollEntry{in, out, tag};
}

void
Poller::mod(int fd, bool in, bool out, uint64_t tag)
{
#if defined(__linux__)
    if (epfd_ >= 0) {
        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = (in ? EPOLLIN : 0u) | (out ? EPOLLOUT : 0u);
        ev.data.u64 = tag;
        if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0)
            fatal("epoll_ctl(MOD): %s", std::strerror(errno));
        return;
    }
#endif
    pollSet_[fd] = PollEntry{in, out, tag};
}

void
Poller::del(int fd)
{
#if defined(__linux__)
    if (epfd_ >= 0) {
        // Ignore failures: the fd may already be gone (closed first).
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
        return;
    }
#endif
    pollSet_.erase(fd);
}

void
Poller::wait(std::vector<Event> &out, int timeoutMs)
{
    out.clear();
#if defined(__linux__)
    if (epfd_ >= 0) {
        epoll_event evs[256];
        int n;
        do {
            n = ::epoll_wait(epfd_, evs, 256, timeoutMs);
        } while (n < 0 && errno == EINTR);
        if (n < 0)
            fatal("epoll_wait: %s", std::strerror(errno));
        out.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            Event e;
            e.tag = evs[i].data.u64;
            e.in = (evs[i].events & EPOLLIN) != 0;
            e.out = (evs[i].events & EPOLLOUT) != 0;
            e.err = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
            out.push_back(e);
        }
        return;
    }
#endif
    std::vector<pollfd> pfds;
    std::vector<uint64_t> tags;
    pfds.reserve(pollSet_.size());
    tags.reserve(pollSet_.size());
    for (const auto &kv : pollSet_) {
        pollfd p;
        p.fd = kv.first;
        p.events = static_cast<short>((kv.second.in ? POLLIN : 0) |
                                      (kv.second.out ? POLLOUT : 0));
        p.revents = 0;
        pfds.push_back(p);
        tags.push_back(kv.second.tag);
    }
    int n;
    do {
        n = ::poll(pfds.data(), pfds.size(), timeoutMs);
    } while (n < 0 && errno == EINTR);
    if (n < 0)
        fatal("poll: %s", std::strerror(errno));
    for (size_t i = 0; i < pfds.size() && n > 0; ++i) {
        if (pfds[i].revents == 0)
            continue;
        --n;
        Event e;
        e.tag = tags[i];
        e.in = (pfds[i].revents & POLLIN) != 0;
        e.out = (pfds[i].revents & POLLOUT) != 0;
        e.err = (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
        out.push_back(e);
    }
}

// ---------------------------------------------------------------- WakeupFd

WakeupFd::WakeupFd()
{
#if defined(__linux__)
    rfd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (rfd_ < 0)
        fatal("eventfd: %s", std::strerror(errno));
    wfd_ = rfd_;
#else
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("pipe: %s", std::strerror(errno));
    rfd_ = fds[0];
    wfd_ = fds[1];
    // Nonblocking both ends: a full pipe just means "already signaled".
    for (int fd : fds) {
        int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
#endif
}

WakeupFd::~WakeupFd()
{
    if (rfd_ >= 0)
        ::close(rfd_);
    if (wfd_ >= 0 && wfd_ != rfd_)
        ::close(wfd_);
}

void
WakeupFd::signal()
{
    uint64_t one = 1;
    ssize_t rv;
    do {
        rv = ::write(wfd_, &one, sizeof(one));
    } while (rv < 0 && errno == EINTR);
    // EAGAIN means the counter/pipe is already pending: good enough.
}

void
WakeupFd::drain()
{
    uint8_t buf[512];
    ssize_t rv;
    do {
        rv = ::read(rfd_, buf, sizeof(buf));
    } while (rv > 0 || (rv < 0 && errno == EINTR));
}

// --------------------------------------------------------------- EventLoop

/**
 * One connection's loop-side state. Ownership: the loop thread, except
 * the fields a running consume task exclusively writes (see file
 * comment in event_loop.hh).
 */
struct EventLoop::Conn
{
    uint64_t id = 0;
    FaultySocket sock;
    std::unique_ptr<Session> session; ///< null for BUSY-bounced conns

    // Write queue: one flat buffer consumed from wqOff. Compacted when
    // fully drained, so steady-state request/reply traffic never
    // reallocates.
    std::vector<uint8_t> wq;
    size_t wqOff = 0;

    // Consume-task handoff (worker-owned while processing). Read bytes
    // have no buffer here: they land in the session's frame decoder.
    std::vector<uint8_t> replies;
    bool taskKeep = true;
    bool taskMid = false;
    uint64_t taskCompleted = 0;

    bool processing = false; ///< consume task in flight
    bool stalled = false;    ///< reads paused by the high watermark
    bool closing = false;    ///< flush the queue, then destroy
    bool doomed = false;     ///< destroy at next completion
    bool peerGone = false;   ///< EOF/reset seen on the read side
    bool busyReject = false; ///< admission bounce: BUSY then close
    bool wantIn = false;     ///< current poller interest
    bool wantOut = false;

    uint64_t lastActivityMs = 0; ///< feeds the idle clock
    uint64_t requestStartMs = 0; ///< feeds the request clock
    uint64_t requestStartNs = 0;
    uint64_t readyNs = 0; ///< read-to-dispatch stamp (Dispatch span)
    bool midRequest = false;
    uint64_t lastCompleted = 0;

    // HTTP exposition on the shared listener: the first bytes of every
    // connection are sniffed once; a `GET ` prefix switches the conn to
    // HTTP mode, where the loop itself parses one request and queues
    // the response (no Session, no pool task). Everything else replays
    // the sniffed prefix into the normal frame path.
    bool protoKnown = false; ///< first-bytes classification done
    bool isHttp = false;
    std::vector<uint8_t> httpBuf; ///< pre-classification + HTTP request
};

/** One HTTP request's headers may not exceed this (scrapers are tiny). */
constexpr size_t kMaxHttpRequest = 8 * 1024;

EventLoop::EventLoop(TeaServer &server)
    : srv(server),
      poller_(new Poller(server.cfg.loopForcePoll)),
      wheel_(kTickMs),
      loopRng_(server.cfg.loopFaultSeed ^ 0x9e3779b97f4a7c15ull),
      readScratch_(kReadChunk)
{
}

EventLoop::~EventLoop()
{
    stop();
}

void
EventLoop::start()
{
    if (started_.exchange(true))
        panic("event loop: started twice");
    srv.listener.setNonBlocking(true);
    poller_->add(srv.listener.fd(), /*in=*/true, /*out=*/false,
                 kListenerTag);
    poller_->add(wakeup_.fd(), /*in=*/true, /*out=*/false, kWakeupTag);
    thread_ = std::thread([this] { run(); });
}

void
EventLoop::stop()
{
    if (!started_.load() || stopped_.exchange(true))
        return;
    stopRequested_.store(true);
    wakeup_.signal();
    if (thread_.joinable())
        thread_.join();
}

void
EventLoop::run()
{
    std::vector<Poller::Event> events;
    std::vector<uint64_t> expired;
    for (;;) {
        uint64_t now = steadyMs();

        // Fire due timers first: a poll that slept exactly one budget
        // wakes into the expirations that budget was computed for.
        expired.clear();
        wheel_.advance(now, expired);
        for (uint64_t key : expired) {
            srv.mLoopTimers->inc();
            handleTimer(key);
        }

        if (draining_ && conns_.empty())
            break;

        uint64_t budget = wheel_.pollBudgetMs(now, kIdlePollMs);
        poller_->wait(events,
                      static_cast<int>(std::min<uint64_t>(budget, 1000)));
        uint64_t t0 = obs::monotonicNanos();
        srv.mLoopIterations->inc();

        for (const Poller::Event &ev : events) {
            if (ev.tag == kListenerTag) {
                handleAccept();
                continue;
            }
            if (ev.tag == kWakeupTag) {
                srv.mLoopWakeups->inc();
                wakeup_.drain();
                continue;
            }
            auto it = conns_.find(ev.tag);
            if (it == conns_.end())
                continue; // destroyed earlier this same batch
            Conn *c = it->second.get();
            // Write first: draining the queue may unstall the read
            // side, and an errored fd surfaces EOF through the read.
            if (ev.out)
                handleWritable(c);
            if (conns_.count(ev.tag) == 0)
                continue; // handleWritable may destroy
            if (ev.in || ev.err)
                handleReadable(c);
        }

        // Chaos only: phantom readiness on a random armed connection.
        // A correct loop treats it as any level-triggered wakeup — the
        // recvNb comes back wouldBlock and nothing changes. A
        // connection whose consume task runs is skipped: that task may
        // be reading its socket, fault rolls included.
        if (srv.cfg.loopFaults.spuriousReady > 0 && !conns_.empty() &&
            loopRng_.nextBool(srv.cfg.loopFaults.spuriousReady)) {
            auto it = conns_.begin();
            std::advance(it, loopRng_.nextBelow(conns_.size()));
            Conn *c = it->second.get();
            if (!c->processing && c->sock.rollSpuriousReady())
                srv.mLoopFaults->inc();
            if (c->wantIn)
                handleReadable(c);
        }

        drainCompletions();

        if (stopRequested_.load() && !draining_)
            beginDrain();

        srv.hLoopMs->observe(
            static_cast<double>(obs::monotonicNanos() - t0) / 1e6);
    }
}

void
EventLoop::handleAccept()
{
    for (;;) {
        if (draining_)
            return;
        Socket sock;
        Socket::IoResult res = srv.listener.acceptNb(sock);
        if (res.wouldBlock)
            return;
        admit(std::move(sock));
    }
}

void
EventLoop::admit(Socket sock)
{
    size_t depth = srv.pool.pending();
    bool busy =
        depth >= srv.cfg.maxQueue ||
        (srv.cfg.maxSessions != 0 && live_.load() >= srv.cfg.maxSessions);

    sock.setNonBlocking(true);
    auto conn = std::make_unique<Conn>();
    Conn *c = conn.get();
    c->id = nextConnId_++;
    c->sock = FaultySocket(std::move(sock));
    if (srv.cfg.loopFaults.any())
        c->sock.arm(srv.cfg.loopFaults, srv.cfg.loopFaultSeed + c->id);
    uint64_t now = steadyMs();
    c->lastActivityMs = now;
    conns_.emplace(c->id, std::move(conn));

    if (busy) {
        // Backpressure at the door: one BUSY frame naming the queue
        // depth and the cap, then close once it flushes. No Session is
        // built, nothing of the client's is buffered.
        c->busyReject = true;
        c->closing = true;
        srv.mBusy->inc();
        PayloadWriter w;
        w.u32(static_cast<uint32_t>(std::min<size_t>(depth, UINT32_MAX)));
        w.u32(static_cast<uint32_t>(
            std::min<size_t>(srv.cfg.maxSessions, UINT32_MAX)));
        std::vector<uint8_t> frame;
        appendFrame(frame, MsgType::Busy, w.out());
        poller_->add(c->sock.fd(), /*in=*/false, /*out=*/false, c->id);
        if (!queueBytes(c, frame.data(), frame.size()))
            return; // already destroyed (cap — cannot happen, frame is tiny)
        // A peer that never reads its BUSY must not leak the conn.
        wheel_.schedule(timerKey(c->id, kTimerDrain), now + 1000);
        flushWrites(c);
        return;
    }

    live_.fetch_add(1);
    c->session = srv.makeSession(c->id);
    c->wantIn = true;
    poller_->add(c->sock.fd(), /*in=*/true, /*out=*/false, c->id);
    armIdle(c, now);

    if (srv.svcObs_.spans != nullptr) {
        obs::Span accept;
        accept.conn = c->id;
        accept.phase = obs::SpanPhase::Accept;
        accept.startNs = obs::monotonicNanos();
        accept.durNs = 0; // admission is immediate on the loop
        srv.spans_.push(accept);
    }
}

void
EventLoop::handleReadable(Conn *c)
{
    // While a consume runs, or while backpressure has us deliberately
    // not reading, readable events are ignored (interest should be off;
    // spurious/level-triggered leftovers land here harmlessly).
    if (c->processing || c->stalled || c->closing || c->peerGone)
        return;
    // A wire-protocol connection reads straight into its session's
    // frame decoder; the first bytes (the protocol sniff) and HTTP
    // requests land in the loop's scratch.
    bool direct = c->protoKnown && !c->isHttp;
    uint8_t *dst = direct ? c->session->receiveBuffer(kReadChunk)
                          : readScratch_.data();
    Socket::IoResult res = c->sock.recvNb(dst, kReadChunk);
    if (res.wouldBlock)
        return; // spurious readiness: nothing was there after all
    if (res.closed || res.n == 0) {
        c->peerGone = true;
        // EOF with replies still queued: flush them, then close — the
        // peer may have half-closed and still be reading.
        if (c->wq.size() - c->wqOff == 0)
            destroy(c);
        else {
            c->closing = true;
            c->wantIn = false;
            updateInterest(c);
        }
        return;
    }
    srv.mBytesIn->inc(res.n);
    uint64_t now = steadyMs();
    c->lastActivityMs = now;
    size_t received = res.n;
    if (!c->protoKnown) {
        if (!classifyProtocol(c, readScratch_.data(), res.n))
            return; // fewer than four bytes so far; keep buffering
        // The sniffed prefix is in httpBuf either way: an HTTP request
        // head, or wire-protocol bytes to replay into the frame path.
        std::vector<uint8_t> prefix = std::move(c->httpBuf);
        c->httpBuf = {};
        if (c->isHttp) {
            handleHttpBytes(c, prefix.data(), prefix.size());
            return;
        }
        std::memcpy(c->session->receiveBuffer(prefix.size()),
                    prefix.data(), prefix.size());
        received = prefix.size();
    } else if (c->isHttp) {
        handleHttpBytes(c, readScratch_.data(), res.n);
        return;
    }
    if (!c->midRequest) {
        c->requestStartMs = now;
        c->requestStartNs = obs::monotonicNanos();
    }
    dispatchConsume(c, received);
}

bool
EventLoop::classifyProtocol(Conn *c, const uint8_t *data, size_t n)
{
    c->httpBuf.insert(c->httpBuf.end(), data, data + n);
    if (c->httpBuf.size() < 4)
        return false; // not enough to tell; wait for more bytes
    c->protoKnown = true;
    c->isHttp = std::memcmp(c->httpBuf.data(), "GET ", 4) == 0;
    return true;
}

void
EventLoop::handleHttpBytes(Conn *c, const uint8_t *data, size_t n)
{
    if (c->httpBuf.size() + n > kMaxHttpRequest) {
        destroy(c); // a scraper's request never approaches the cap
        return;
    }
    c->httpBuf.insert(c->httpBuf.end(), data, data + n);
    // One request per connection (Connection: close): serve once the
    // header block is complete, ignore anything after it.
    static const char kEnd[] = "\r\n\r\n";
    auto it = std::search(c->httpBuf.begin(), c->httpBuf.end(), kEnd,
                          kEnd + 4);
    if (it == c->httpBuf.end())
        return; // headers still arriving
    // Request line: "GET <target> HTTP/1.1". The target ends at the
    // first space or CR after the method.
    std::string head(c->httpBuf.begin(), it);
    std::string target;
    size_t start = 4; // past "GET "
    size_t end = head.find_first_of(" \r\n", start);
    target = head.substr(start, (end == std::string::npos
                                     ? head.size()
                                     : end) -
                                    start);
    c->httpBuf.clear();
    c->httpBuf.shrink_to_fit();
    srv.mHttpRequests->inc();
    serveHttp(c, target);
}

void
EventLoop::serveHttp(Conn *c, const std::string &target)
{
    // Strip any query string: /metrics?x=y scrapes /metrics.
    std::string path = target.substr(0, target.find('?'));
    int status = 200;
    const char *statusText = "OK";
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
    if (path == "/metrics") {
        contentType = "application/openmetrics-text; version=1.0.0; "
                      "charset=utf-8";
        body = srv.openMetricsText();
    } else if (path == "/healthz") {
        if (draining_ || srv.draining()) {
            status = 503;
            statusText = "Service Unavailable";
            body = "draining\n";
        } else {
            body = "ok\n";
        }
    } else if (path == "/history.json") {
        contentType = "application/json";
        body = srv.historyJson();
    } else if (path == "/flight.json") {
        contentType = "application/json";
        body = obs::FlightRecorder::instance().toJson("http");
    } else {
        status = 404;
        statusText = "Not Found";
        body = "not found\n";
    }
    std::string resp = strprintf("HTTP/1.1 %d %s\r\n"
                                 "Content-Type: %s\r\n"
                                 "Content-Length: %zu\r\n"
                                 "Connection: close\r\n\r\n",
                                 status, statusText, contentType.c_str(),
                                 body.size());
    resp += body;
    // Reply, then close — exactly the eviction-frame flush discipline:
    // queue, stop reading, cut at the drain deadline if never drained.
    c->closing = true;
    c->wantIn = false;
    updateInterest(c);
    if (!queueBytes(c, reinterpret_cast<const uint8_t *>(resp.data()),
                    resp.size()))
        return; // hard cap tripped: connection destroyed
    wheel_.schedule(timerKey(c->id, kTimerDrain),
                    steadyMs() +
                        std::max<uint32_t>(srv.cfg.drainDeadlineMs, 100));
    flushWrites(c);
}

void
EventLoop::dispatchConsume(Conn *c, size_t n)
{
    c->processing = true;
    c->wantIn = false; // no reads until the session is ours again
    updateInterest(c);
    c->readyNs = obs::monotonicNanos();
    // With nothing queued for the peer the loop does not touch this
    // socket again until the completion, so the task may read on.
    bool mayReadOn = c->wq.size() == c->wqOff;
    srv.pool.submit([this, c, n, mayReadOn] {
        if (srv.svcObs_.spans != nullptr) {
            obs::Span d;
            d.conn = c->id;
            d.phase = obs::SpanPhase::Dispatch;
            d.startNs = c->readyNs;
            d.durNs = obs::monotonicNanos() - c->readyNs;
            srv.spans_.push(d);
        }
        c->replies.clear();
        bool keep = false;
        try {
            keep = c->session->consumeReceived(n, c->replies);
            // Read on while the peer streams and is owed nothing. Handing
            // the connection back to the loop after each 64 KiB read
            // costs two cross-thread wakeups (44-48 round trips for a
            // 2.8 MB RECORD), and what a wakeup costs swings with how
            // idle the host's CPUs are. A reply, the byte budget, a
            // draining server or a read that returns nothing hands the
            // connection back.
            size_t budget = mayReadOn ? kReadOnBytes : 0;
            while (keep && c->replies.empty() && budget > 0 &&
                   !srv.draining()) {
                Socket::IoResult res = c->sock.recvNb(
                    c->session->receiveBuffer(kReadChunk), kReadChunk);
                if (res.n == 0)
                    break; // would-block, EOF or reset: the loop's next
                           // read sees the same and handles it
                srv.mBytesIn->inc(res.n);
                budget -= std::min(budget, res.n);
                keep = c->session->consumeReceived(res.n, c->replies);
            }
        } catch (const FatalError &) {
            // Session::consumeReceived contractually does not throw
            // FatalError; if a library bug ever breaks that, fail the
            // connection, not the server.
        }
        c->taskKeep = keep;
        c->taskMid = c->session->midRequest();
        c->taskCompleted = c->session->requestsCompleted();
        {
            std::lock_guard<std::mutex> lock(doneMu_);
            doneIds_.push_back(c->id);
        }
        wakeup_.signal();
    });
}

void
EventLoop::drainCompletions()
{
    std::vector<uint64_t> done;
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        done.swap(doneIds_);
    }
    for (uint64_t id : done) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue; // destroyed while the task ran (cannot happen:
                      // destruction is deferred via doomed)
        completeConsume(it->second.get());
    }
}

void
EventLoop::completeConsume(Conn *c)
{
    c->processing = false;
    if (c->doomed) {
        destroy(c);
        return;
    }
    uint64_t now = steadyMs();
    uint64_t id = c->id; // flushWrites below may destroy (free) c
    c->lastActivityMs = now; // the server worked: that is activity

    if (!c->replies.empty()) {
        uint64_t tReply = obs::monotonicNanos();
        if (!queueBytes(c, c->replies.data(), c->replies.size()))
            return; // hard cap tripped: connection gone
        flushWrites(c);
        if (conns_.count(id) == 0)
            return; // write side died during the flush
        if (srv.svcObs_.spans != nullptr) {
            obs::Span rep;
            rep.conn = c->id;
            rep.request = c->session->requestsBegun();
            rep.phase = obs::SpanPhase::Reply;
            rep.startNs = tReply;
            rep.durNs = obs::monotonicNanos() - tReply;
            srv.spans_.push(rep);
        }
    }

    if (c->taskCompleted != c->lastCompleted) {
        // One or more requests finished in this consume: end-to-end
        // latency, Request span, slow-request log.
        c->lastCompleted = c->taskCompleted;
        uint64_t endNs = obs::monotonicNanos();
        uint64_t durNs = endNs - c->requestStartNs;
        double durMs = static_cast<double>(durNs) / 1e6;
        srv.hRequestMs->observe(durMs);
        if (srv.svcObs_.spans != nullptr) {
            obs::Span req;
            req.conn = c->id;
            req.request = c->session->requestsBegun();
            req.phase = obs::SpanPhase::Request;
            req.startNs = c->requestStartNs;
            req.durNs = durNs;
            srv.spans_.push(req);
        }
        std::vector<obs::Span> phases = c->session->takeRequestSpans();
        if (srv.cfg.slowRequestMs != 0 &&
            durMs >= static_cast<double>(srv.cfg.slowRequestMs)) {
            srv.mSlow->inc();
            RateLimiter &limiter = sharedWarnLimiter();
            if (limiter.allow()) {
                limiter.suppressedAndReset();
                std::string breakdown;
                for (const obs::Span &s : phases)
                    breakdown += strprintf(
                        " %s=%.2fms", obs::spanPhaseName(s.phase),
                        static_cast<double>(s.durNs) / 1e6);
                warn("tead: slow request on conn %llu: %.1f ms "
                     "(threshold %u ms)%s",
                     static_cast<unsigned long long>(c->id), durMs,
                     srv.cfg.slowRequestMs, breakdown.c_str());
            }
        }
    }

    c->midRequest = c->taskMid;
    armRequestDeadline(c);

    if (!c->taskKeep || draining_ || c->peerGone) {
        // The session ended (fatal protocol error), the server is
        // draining, or the peer already hung up: flush and close.
        c->closing = true;
        c->wantIn = false;
        updateInterest(c);
        if (c->wq.size() - c->wqOff == 0)
            destroy(c);
        return;
    }

    armIdle(c, now);
    if (!c->stalled) {
        c->wantIn = true;
        updateInterest(c);
        // Bytes that arrived while we were busy are sitting in the
        // kernel buffer; level-triggered readiness re-offers them on
        // the next wait, so no explicit re-read is needed here.
    }
}

bool
EventLoop::queueBytes(Conn *c, const uint8_t *data, size_t len)
{
    size_t pending = c->wq.size() - c->wqOff;
    if (pending + len > srv.cfg.maxWriteQueueBytes) {
        // The peer demanded more output than it is willing to drain.
        // There is no way to tell it (the pipe is exactly what is
        // full), so: count, log rate-limited, close.
        srv.mLoopOverflow->inc();
        srv.mEvictDeadline->inc();
        RateLimiter &limiter = sharedWarnLimiter();
        if (limiter.allow()) {
            limiter.suppressedAndReset();
            warn("tead: closing conn %llu: write queue over hard cap "
                 "(%zu + %zu > %zu bytes)",
                 static_cast<unsigned long long>(c->id), pending, len,
                 srv.cfg.maxWriteQueueBytes);
        }
        destroy(c);
        return false;
    }
    if (c->wqOff > 0 && c->wqOff == c->wq.size()) {
        c->wq.clear();
        c->wqOff = 0;
    }
    c->wq.insert(c->wq.end(), data, data + len);
    pending += len;
    if (!c->stalled && pending > srv.cfg.writeHighWatermark) {
        // Stop reading: the peer's unread replies, not our memory, are
        // now the bottleneck.
        c->stalled = true;
        srv.mLoopStalls->inc();
        c->wantIn = false;
        updateInterest(c);
    }
    return true;
}

void
EventLoop::flushWrites(Conn *c)
{
    while (c->wq.size() - c->wqOff > 0) {
        Socket::IoResult res =
            c->sock.sendNb(c->wq.data() + c->wqOff, c->wq.size() - c->wqOff);
        if (res.n > 0) {
            srv.mBytesOut->inc(res.n);
            c->wqOff += res.n;
            continue;
        }
        if (res.wouldBlock) {
            srv.mLoopDeferred->inc();
            if (!c->wantOut) {
                c->wantOut = true;
                updateInterest(c);
            }
            break;
        }
        // closed: the write side is dead; nothing more can reach the
        // peer, so the connection is over regardless of what's queued.
        destroy(c);
        return;
    }
    size_t pending = c->wq.size() - c->wqOff;
    if (pending == 0) {
        c->wq.clear();
        c->wqOff = 0;
        if (c->wantOut) {
            c->wantOut = false;
            updateInterest(c);
        }
        if (c->closing) {
            destroy(c);
            return;
        }
    }
    if (c->stalled && pending <= srv.cfg.writeLowWatermark) {
        // Recovered: the peer drained below the low watermark, reads
        // may resume (unless something else holds them off).
        c->stalled = false;
        if (!c->processing && !c->closing && !c->peerGone) {
            c->wantIn = true;
            updateInterest(c);
        }
    }
}

void
EventLoop::handleWritable(Conn *c)
{
    flushWrites(c);
}

void
EventLoop::evict(Conn *c, const char *why, bool deadline)
{
    (deadline ? srv.mEvictDeadline : srv.mEvictIdle)->inc();
    PayloadWriter w;
    w.u8(1); // fatal: the connection closes after this frame
    w.str(strprintf("connection evicted: %s", why));
    std::vector<uint8_t> frame;
    appendFrame(frame, MsgType::Error, w.out());
    RateLimiter &limiter = sharedWarnLimiter();
    if (limiter.allow()) {
        uint64_t dropped = limiter.suppressedAndReset();
        if (dropped > 0)
            warn("tead: evicted connection (%s); %llu similar warnings "
                 "suppressed",
                 why, static_cast<unsigned long long>(dropped));
        else
            warn("tead: evicted connection (%s)", why);
    }
    c->closing = true;
    c->wantIn = false;
    updateInterest(c);
    if (!queueBytes(c, frame.data(), frame.size()))
        return; // queue full: destroyed already, eviction still counted
    // Give the eviction frame a bounded shot at flushing, then cut.
    wheel_.schedule(timerKey(c->id, kTimerDrain),
                    steadyMs() + std::max<uint32_t>(
                                     srv.cfg.drainDeadlineMs, 100));
    flushWrites(c);
}

void
EventLoop::handleTimer(uint64_t key)
{
    auto it = conns_.find(timerConn(key));
    if (it == conns_.end())
        return; // connection already gone; stale by construction
    Conn *c = it->second.get();
    uint64_t now = steadyMs();
    switch (timerKind(key)) {
    case kTimerIdle: {
        if (srv.cfg.idleTimeoutMs == 0 || c->closing)
            return;
        uint64_t deadline = c->lastActivityMs + srv.cfg.idleTimeoutMs;
        if (c->processing || now < deadline) {
            // Activity moved the goalposts (or a consume is running,
            // which counts as activity): re-arm for the real deadline.
            wheel_.schedule(key, std::max(deadline, now + 1));
            return;
        }
        evict(c, "idle timeout", /*deadline=*/false);
        return;
    }
    case kTimerRequest: {
        if (srv.cfg.requestDeadlineMs == 0 || c->closing)
            return;
        if (!c->midRequest)
            return; // request finished since arming; clock disarmed
        uint64_t deadline = c->requestStartMs + srv.cfg.requestDeadlineMs;
        if (c->processing || now < deadline) {
            wheel_.schedule(key, std::max(deadline, now + 1));
            return;
        }
        evict(c, "request deadline exceeded", /*deadline=*/true);
        return;
    }
    case kTimerDrain: {
        // Patience exhausted: BUSY bounce unread, eviction frame
        // unflushed, or stop() drain overdue. Cut the connection; if a
        // consume still runs, defer destruction to its completion.
        if (c->processing) {
            c->doomed = true;
            return;
        }
        destroy(c);
        return;
    }
    }
}

void
EventLoop::armIdle(Conn *c, uint64_t nowMs)
{
    if (srv.cfg.idleTimeoutMs == 0)
        return;
    wheel_.schedule(timerKey(c->id, kTimerIdle),
                    nowMs + srv.cfg.idleTimeoutMs);
}

void
EventLoop::armRequestDeadline(Conn *c)
{
    if (srv.cfg.requestDeadlineMs == 0)
        return;
    uint64_t key = timerKey(c->id, kTimerRequest);
    if (c->midRequest)
        wheel_.schedule(key,
                        c->requestStartMs + srv.cfg.requestDeadlineMs);
    else
        wheel_.cancel(key);
}

void
EventLoop::updateInterest(Conn *c)
{
    poller_->mod(c->sock.fd(), c->wantIn, c->wantOut, c->id);
}

void
EventLoop::destroy(Conn *c)
{
    if (c->processing) {
        // A worker still owns the session: defer to completion.
        c->doomed = true;
        return;
    }
    wheel_.cancel(timerKey(c->id, kTimerIdle));
    wheel_.cancel(timerKey(c->id, kTimerRequest));
    wheel_.cancel(timerKey(c->id, kTimerDrain));
    poller_->del(c->sock.fd());
    srv.mLoopFaults->inc(c->sock.faultsInjected());
    if (!c->busyReject) {
        live_.fetch_sub(1);
        srv.mSessions->inc();
    }
    conns_.erase(c->id); // frees c
}

void
EventLoop::beginDrain()
{
    draining_ = true;
    poller_->del(srv.listener.fd());
    uint64_t now = steadyMs();
    // Snapshot ids: destroy() mutates conns_ under us otherwise.
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto &kv : conns_)
        ids.push_back(kv.first);
    for (uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn *c = it->second.get();
        c->wantIn = false;
        if (c->processing) {
            // In-flight replay: its completion sees draining_ and
            // closes after flushing the reply, so a running replay's
            // result still reaches the client.
            updateInterest(c);
            wheel_.schedule(timerKey(c->id, kTimerDrain),
                            now + srv.cfg.drainDeadlineMs);
            continue;
        }
        c->closing = true;
        updateInterest(c);
        if (c->wq.size() - c->wqOff == 0) {
            destroy(c);
            continue;
        }
        wheel_.schedule(timerKey(c->id, kTimerDrain),
                        now + srv.cfg.drainDeadlineMs);
        flushWrites(c);
    }
}

} // namespace tea
