/**
 * @file
 * The server under test as a child process: the shipped
 * `teadbt serve --listen tcp:127.0.0.1:0`, with its CLI defaults.
 *
 * Running the server in its own process keeps its CPU time and peak
 * RSS its own (read from /proc/<pid>/...), and measures the binary and
 * configuration operators run.
 */

#ifndef SERVEBENCH_SERVER_HH
#define SERVEBENCH_SERVER_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace sb {

class ServerProcess
{
  public:
    /**
     * Spawn `teadbt serve --listen tcp:127.0.0.1:0 <extraArgs>` with
     * working directory `cwd`, and block until it prints its
     * `tead: serving on` line.
     * @throws tea::FatalError when it exits or stays silent
     */
    ServerProcess(const std::string &teadbt,
                  const std::vector<std::string> &extraArgs,
                  const std::string &cwd);

    /** Stops the server (SIGTERM, then SIGKILL) and reaps it. */
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** The endpoint from the `serving on` line. */
    const std::string &endpoint() const { return endpoint_; }

    /** User plus system CPU of the server so far, in ms. */
    double cpuMs() const;

    /** Peak resident set (VmHWM) of the server, in MiB. */
    double peakRssMib() const;

    /** Send SIGTERM and wait for exit (idempotent). */
    void stop();

  private:
    pid_t pid = -1;
    int outFd = -1; ///< read end of the child's stdout
    std::thread drain;
    std::string endpoint_;
};

/** Host CPU ticks so far, from the `cpu` line of /proc/stat. */
struct HostTicks
{
    uint64_t steal = 0; ///< time the hypervisor ran someone else
    uint64_t busy = 0;  ///< everything but idle and iowait, steal included
};

HostTicks hostTicks();

/** Steal as a share of busy ticks between two samples (0 when idle). */
double stealShare(const HostTicks &from, const HostTicks &to);

} // namespace sb

#endif // SERVEBENCH_SERVER_HH
