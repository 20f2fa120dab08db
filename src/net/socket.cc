#include "net/socket.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/logging.hh"
#include "util/strutil.hh"

// Linux suppresses SIGPIPE per send; platforms without the flag get
// the signal's default disposition changed by the caller if needed.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace tea {

// ---------------------------------------------------------------- Endpoint

Endpoint
Endpoint::parse(const std::string &spec)
{
    Endpoint ep;
    if (startsWith(spec, "tcp:")) {
        ep.kind = Kind::Tcp;
        std::string rest = spec.substr(4);
        size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0)
            fatal("endpoint '%s': want tcp:<host>:<port>", spec.c_str());
        ep.host = rest.substr(0, colon);
        int64_t port = 0;
        if (!parseInt(rest.substr(colon + 1), port) || port < 0 ||
            port > 65535)
            fatal("endpoint '%s': bad port", spec.c_str());
        ep.port = static_cast<uint16_t>(port);
        return ep;
    }
    if (startsWith(spec, "unix:")) {
        ep.kind = Kind::Unix;
        ep.path = spec.substr(5);
        sockaddr_un sa;
        if (ep.path.empty() || ep.path.size() >= sizeof(sa.sun_path))
            fatal("endpoint '%s': bad socket path", spec.c_str());
        return ep;
    }
    fatal("endpoint '%s': want tcp:<host>:<port> or unix:<path>",
          spec.c_str());
}

std::string
Endpoint::str() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

namespace {

/** Resolve a TCP endpoint; the caller frees with freeaddrinfo. */
addrinfo *
resolveTcp(const Endpoint &ep, bool forBind)
{
    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    if (forBind)
        hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    int rv = ::getaddrinfo(ep.host.c_str(),
                           std::to_string(ep.port).c_str(), &hints, &res);
    if (rv != 0)
        fatal("resolve '%s': %s", ep.str().c_str(), ::gai_strerror(rv));
    return res;
}

/**
 * Turn Nagle off on a TCP socket. Every request and reply here ends in
 * a small frame (REPLAY_END, an ERROR, a result); with Nagle on, that
 * tail waits for the peer's delayed ACK, ~40 ms on Linux. Best effort:
 * a socket that refuses the option still works, only slower.
 */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un
unixAddr(const Endpoint &ep)
{
    sockaddr_un sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, ep.path.c_str(), sizeof(sa.sun_path) - 1);
    return sa;
}

} // namespace

// ------------------------------------------------------------------ Socket

Socket &
Socket::operator=(Socket &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

Socket
Socket::connectTo(const Endpoint &ep)
{
    if (ep.kind == Endpoint::Kind::Unix) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("socket: %s", std::strerror(errno));
        sockaddr_un sa = unixAddr(ep);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                      sizeof(sa)) != 0) {
            int err = errno;
            ::close(fd);
            fatal("connect '%s': %s", ep.str().c_str(),
                  std::strerror(err));
        }
        return Socket(fd);
    }

    addrinfo *res = resolveTcp(ep, /*forBind=*/false);
    int fd = -1;
    int err = 0;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            err = errno;
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        err = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        fatal("connect '%s': %s", ep.str().c_str(), std::strerror(err));
    setNoDelay(fd);
    return Socket(fd);
}

size_t
Socket::recvSome(void *buf, size_t len)
{
    for (;;) {
        ssize_t n = ::recv(fd_, buf, len, 0);
        if (n >= 0)
            return static_cast<size_t>(n);
        if (errno == EINTR)
            continue;
        fatal("recv: %s", std::strerror(errno));
    }
}

void
Socket::sendAll(const void *buf, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(buf);
    while (len > 0) {
        ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("send: %s", std::strerror(errno));
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
}

void
Socket::setNonBlocking(bool on)
{
    int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0)
        fatal("fcntl(F_GETFL): %s", std::strerror(errno));
    int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (want != flags && ::fcntl(fd_, F_SETFL, want) < 0)
        fatal("fcntl(F_SETFL): %s", std::strerror(errno));
}

Socket::IoResult
Socket::recvNb(void *buf, size_t len)
{
    IoResult res;
    for (;;) {
        ssize_t n = ::recv(fd_, buf, len, 0);
        if (n > 0) {
            res.n = static_cast<size_t>(n);
            return res;
        }
        if (n == 0) {
            res.closed = true; // orderly EOF
            return res;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            res.wouldBlock = true;
            return res;
        }
        if (errno == ECONNRESET || errno == EPIPE ||
            errno == ETIMEDOUT || errno == ECONNABORTED) {
            // The peer is gone: a scheduling event for the event loop,
            // not an exception — the connection simply retires.
            res.closed = true;
            return res;
        }
        fatal("recv (nonblocking): %s", std::strerror(errno));
    }
}

Socket::IoResult
Socket::sendNb(const void *buf, size_t len)
{
    IoResult res;
    for (;;) {
        ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
        if (n >= 0) {
            res.n = static_cast<size_t>(n);
            return res;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            res.wouldBlock = true;
            return res;
        }
        if (errno == ECONNRESET || errno == EPIPE ||
            errno == ETIMEDOUT || errno == ECONNABORTED) {
            res.closed = true;
            return res;
        }
        fatal("send (nonblocking): %s", std::strerror(errno));
    }
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// ---------------------------------------------------------------- Listener

Listener::Listener(Listener &&o) noexcept
    : fd_(o.fd_), local_(std::move(o.local_))
{
    o.fd_ = -1;
}

Listener &
Listener::operator=(Listener &&o) noexcept
{
    if (this != &o) {
        release();
        fd_ = o.fd_;
        local_ = std::move(o.local_);
        o.fd_ = -1;
    }
    return *this;
}

Listener
Listener::open(const Endpoint &ep)
{
    Listener l;
    l.local_ = ep;
    if (ep.kind == Endpoint::Kind::Unix) {
        ::unlink(ep.path.c_str()); // stale socket file from a crash
        l.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (l.fd_ < 0)
            fatal("socket: %s", std::strerror(errno));
        sockaddr_un sa = unixAddr(ep);
        if (::bind(l.fd_, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0)
            fatal("bind '%s': %s", ep.str().c_str(),
                  std::strerror(errno));
    } else {
        addrinfo *res = resolveTcp(ep, /*forBind=*/true);
        int err = 0;
        for (addrinfo *ai = res; ai; ai = ai->ai_next) {
            l.fd_ = ::socket(ai->ai_family, ai->ai_socktype,
                             ai->ai_protocol);
            if (l.fd_ < 0) {
                err = errno;
                continue;
            }
            int one = 1;
            ::setsockopt(l.fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            if (::bind(l.fd_, ai->ai_addr, ai->ai_addrlen) == 0)
                break;
            err = errno;
            ::close(l.fd_);
            l.fd_ = -1;
        }
        ::freeaddrinfo(res);
        if (l.fd_ < 0)
            fatal("bind '%s': %s", ep.str().c_str(),
                  std::strerror(err));
        // Read back the bound address so port 0 resolves for callers.
        sockaddr_storage ss;
        socklen_t sl = sizeof(ss);
        if (::getsockname(l.fd_, reinterpret_cast<sockaddr *>(&ss),
                          &sl) == 0) {
            if (ss.ss_family == AF_INET)
                l.local_.port = ntohs(
                    reinterpret_cast<sockaddr_in *>(&ss)->sin_port);
            else if (ss.ss_family == AF_INET6)
                l.local_.port = ntohs(
                    reinterpret_cast<sockaddr_in6 *>(&ss)->sin6_port);
        }
    }
    if (::listen(l.fd_, SOMAXCONN) != 0)
        fatal("listen '%s': %s", ep.str().c_str(), std::strerror(errno));
    return l;
}

Socket::IoResult
Listener::acceptNb(Socket &out)
{
    Socket::IoResult res;
    for (;;) {
        int cfd = ::accept(fd_, nullptr, nullptr);
        if (cfd >= 0) {
            if (local_.kind == Endpoint::Kind::Tcp)
                setNoDelay(cfd);
            out = Socket(cfd);
            res.n = 1;
            return res;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED || errno == EMFILE ||
            errno == ENFILE) {
            // Backlog drained, the connection died before we got it,
            // or we are out of descriptors: nothing to accept *now*.
            // (EMFILE as wouldBlock means an fd-exhausted server stops
            // accepting instead of spinning in a fatal loop; pending
            // clients wait in the kernel backlog.)
            res.wouldBlock = true;
            return res;
        }
        fatal("accept: %s", std::strerror(errno));
    }
}

void
Listener::setNonBlocking(bool on)
{
    int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0)
        fatal("fcntl(F_GETFL): %s", std::strerror(errno));
    int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (want != flags && ::fcntl(fd_, F_SETFL, want) < 0)
        fatal("fcntl(F_SETFL): %s", std::strerror(errno));
}

void
Listener::close()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
Listener::release()
{
    close();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (local_.kind == Endpoint::Kind::Unix)
            ::unlink(local_.path.c_str());
    }
}

} // namespace tea
