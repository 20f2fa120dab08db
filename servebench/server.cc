#include "server.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hh"
#include "util/logging.hh"

namespace sb {

using tea::fatal;

namespace {

/** Read one line from `fd` (byte at a time; start-up output is tiny). */
bool
readLine(int fd, std::string &line, uint64_t deadlineNs)
{
    line.clear();
    for (;;) {
        uint64_t now = nowNs();
        if (now >= deadlineNs)
            return false;
        pollfd p{fd, POLLIN, 0};
        int ms = static_cast<int>((deadlineNs - now) / 1000000) + 1;
        if (::poll(&p, 1, ms) <= 0)
            continue;
        char c;
        ssize_t n = ::read(fd, &c, 1);
        if (n <= 0)
            return false;
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

} // namespace

ServerProcess::ServerProcess(const std::string &teadbt,
                             const std::vector<std::string> &extraArgs,
                             const std::string &cwd)
{
    std::vector<std::string> args = {teadbt, "serve", "--listen",
                                     "tcp:127.0.0.1:0"};
    args.insert(args.end(), extraArgs.begin(), extraArgs.end());
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        fatal("servebench: pipe: %s", std::strerror(errno));
    pid_t parent = ::getpid();
    pid = ::fork();
    if (pid < 0)
        fatal("servebench: fork: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: only async-signal-safe calls from here to exec. A
        // benchmark that is killed takes its server with it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(125);
        int devnull = ::open("/dev/null", O_RDONLY);
        if (devnull >= 0)
            ::dup2(devnull, 0);
        ::dup2(fds[1], 1);
        if (::chdir(cwd.c_str()) != 0)
            ::_exit(126);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    outFd = fds[0];

    // The server prints a few lines before it listens; the one that
    // matters names the bound ephemeral port.
    const std::string marker = "tead: serving on ";
    uint64_t deadline = nowNs() + 30ull * 1000000000ull;
    std::string line;
    while (readLine(outFd, line, deadline)) {
        if (line.rfind(marker, 0) == 0) {
            size_t end = line.find(' ', marker.size());
            endpoint_ = line.substr(marker.size(), end - marker.size());
            break;
        }
    }
    if (endpoint_.empty()) {
        stop();
        fatal("servebench: server did not report its endpoint");
    }
    // Keep reading so the server never blocks on a full stdout pipe
    // (its exit report alone is several KiB).
    drain = std::thread([fd = outFd] {
        char buf[4096];
        while (::read(fd, buf, sizeof(buf)) > 0) {
        }
    });
}

ServerProcess::~ServerProcess()
{
    stop();
}

void
ServerProcess::stop()
{
    if (pid > 0) {
        ::kill(pid, SIGTERM);
        int status = 0;
        uint64_t deadline = nowNs() + 20ull * 1000000000ull;
        for (;;) {
            pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid || (r < 0 && errno != EINTR))
                break;
            if (nowNs() > deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            ::usleep(2000);
        }
        pid = -1;
    }
    if (drain.joinable())
        drain.join();
    if (outFd >= 0) {
        ::close(outFd);
        outFd = -1;
    }
}

double
ServerProcess::cpuMs() const
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string s((std::istreambuf_iterator<char>(f)), {});
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    size_t close = s.rfind(')');
    if (close == std::string::npos)
        fatal("servebench: cannot read /proc/%d/stat", pid);
    std::istringstream in(s.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) * 1000.0 /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
ServerProcess::peakRssMib() const
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    fatal("servebench: no VmHWM for pid %d", pid);
}

HostTicks
hostTicks()
{
    std::ifstream f("/proc/stat");
    std::string tag;
    f >> tag; // "cpu"
    // user nice system idle iowait irq softirq steal
    unsigned long long v[8] = {};
    for (unsigned long long &x : v)
        f >> x;
    return HostTicks{v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]};
}

double
stealShare(const HostTicks &from, const HostTicks &to)
{
    uint64_t busy = to.busy - from.busy;
    return busy == 0 ? 0.0
                     : static_cast<double>(to.steal - from.steal) /
                           static_cast<double>(busy);
}

} // namespace sb
