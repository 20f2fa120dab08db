/**
 * @file
 * Minimal portable sockets for the replay server: endpoints, a
 * connected stream socket, and a listening socket.
 *
 * Two transports, chosen by the endpoint spec:
 *
 *   tcp:<host>:<port>   TCP; port 0 binds an ephemeral port (tests
 *                       read it back from Listener::local())
 *   unix:<path>         a Unix-domain stream socket
 *
 * TCP sockets run with Nagle off: Socket::connectTo and
 * Listener::acceptNb set TCP_NODELAY. Every request and reply ends in
 * a small frame, and with Nagle on that tail waits for the peer's
 * delayed ACK (~40 ms). Callers batch their own writes instead (see
 * TeaClient). Unix-domain sockets have no such option.
 *
 * Two I/O surfaces share the fd:
 *
 * - the blocking calls (recvSome/sendAll) used by the client; errors
 *   surface as FatalError, EOF is an in-band return value
 *   (recvSome() == 0), because a peer hanging up is a normal protocol
 *   event;
 * - the nonblocking calls (recvNb/sendNb, after setNonBlocking) used
 *   by the server's event loop (net/event_loop.hh): would-block and
 *   peer-gone are in-band IoResult fields — the readiness loop treats
 *   both as ordinary scheduling events — and only programming errors
 *   (EBADF and kin) still throw.
 */

#ifndef TEA_NET_SOCKET_HH
#define TEA_NET_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace tea {

/** A parsed dialable/bindable address. */
struct Endpoint
{
    enum class Kind { Tcp, Unix };

    Kind kind = Kind::Tcp;
    std::string host; ///< TCP only
    uint16_t port = 0; ///< TCP only; 0 = ephemeral (bind only)
    std::string path; ///< Unix only

    /**
     * Parse "tcp:host:port" or "unix:/path".
     * @throws FatalError on any other shape.
     */
    static Endpoint parse(const std::string &spec);

    /** Render back to the canonical spec string. */
    std::string str() const;
};

/** A connected stream socket (RAII over the fd). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket &operator=(Socket &&o) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    /**
     * Dial an endpoint; a TCP socket comes back with TCP_NODELAY set.
     * @throws FatalError when the connect fails.
     */
    static Socket connectTo(const Endpoint &ep);

    bool valid() const { return fd_ >= 0; }

    /**
     * Read up to `len` bytes.
     * @return bytes read; 0 means the peer closed the connection
     * @throws FatalError on socket errors
     */
    size_t recvSome(void *buf, size_t len);

    /** Write all of `len` bytes. @throws FatalError on errors. */
    void sendAll(const void *buf, size_t len);

    /**
     * One nonblocking I/O attempt's outcome. Exactly one of the three
     * cases holds: `n > 0` (bytes moved), `wouldBlock` (retry on the
     * next readiness event), or `closed` (EOF on read; EPIPE/RST on
     * write — the peer is gone either way).
     */
    struct IoResult
    {
        size_t n = 0;
        bool wouldBlock = false;
        bool closed = false;
    };

    /** Toggle O_NONBLOCK on the fd. @throws FatalError on fcntl errors. */
    void setNonBlocking(bool on);

    /**
     * One nonblocking read attempt (the fd must be nonblocking).
     * @throws FatalError only on programming errors (EBADF etc.);
     * resets from the peer come back as `closed`, not an exception —
     * the event loop retires the connection, it does not unwind.
     */
    IoResult recvNb(void *buf, size_t len);

    /** One nonblocking write attempt; may move fewer than `len` bytes. */
    IoResult sendNb(const void *buf, size_t len);

    /** The raw descriptor, for poller registration; -1 when invalid. */
    int fd() const { return fd_; }

    void close();

  private:
    int fd_ = -1;
};

/** A listening socket bound to an endpoint. */
class Listener
{
  public:
    Listener() = default;
    ~Listener() { release(); }

    Listener(Listener &&o) noexcept;
    Listener &operator=(Listener &&o) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind and listen. For Unix endpoints a stale socket file at the
     * path is removed first. @throws FatalError on bind failures.
     */
    static Listener open(const Endpoint &ep);

    /**
     * One nonblocking accept attempt, for the server's event loop: the
     * caller must have registered fd() with its poller and put the
     * listener in nonblocking mode via setNonBlocking(). Exactly one of
     * the IoResult cases holds: `n == 1` (a connection landed in `out`)
     * or `wouldBlock` (the backlog is drained — wait for the next
     * readiness event). Transient per-connection errors (ECONNABORTED
     * and kin) come back as wouldBlock so the loop simply moves on.
     * On a `tcp:` listener the accepted socket has TCP_NODELAY set.
     */
    Socket::IoResult acceptNb(Socket &out);

    /** Toggle O_NONBLOCK on the listening fd. */
    void setNonBlocking(bool on);

    /** The listening descriptor, for poller registration; -1 if unbound. */
    int fd() const { return fd_; }

    /** The bound endpoint, with any ephemeral TCP port resolved. */
    const Endpoint &local() const { return local_; }

    /**
     * Stop accepting: shut the socket down so new connects are refused.
     * Call it once no poller watches fd(); the fd itself is released by
     * the destructor, so no poller ever holds a recycled descriptor.
     */
    void close();

  private:
    void release();

    int fd_ = -1;
    Endpoint local_;
};

} // namespace tea

#endif // TEA_NET_SOCKET_HH
