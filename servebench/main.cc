/**
 * @file
 * servebench: the layered service benchmark program.
 *
 * Usage:
 *   servebench --workload W --seed N --seconds S --trace 0|1
 *              --teadbt PATH --work DIR
 *   servebench --self-test [--corrupt-oracle] --teadbt PATH --work DIR
 *
 * W is replay-bulk, replay-fleet or record-mixed. The last line of
 * standard output is one JSON object with the keys correct, attempted,
 * failed and metrics: the end-to-end metrics with --trace 0, the
 * per-layer metrics with --trace 1. Any failed operation makes the
 * exit code 1. --self-test runs all three workloads on tiny inputs
 * (traced, which includes an untraced phase); --corrupt-oracle damages
 * one oracle of every kind first, so every workload must fail.
 */

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

using namespace sb;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "servebench: %s\n"
                 "usage: servebench --workload W --seed N --seconds S "
                 "--trace 0|1 --teadbt PATH --work DIR\n"
                 "       servebench --self-test [--corrupt-oracle] "
                 "--teadbt PATH --work DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--teadbt")
            o.teadbt = value();
        else if (a == "--work")
            o.work = value();
        else if (a == "--self-test")
            o.selfTest = true;
        else if (a == "--corrupt-oracle")
            o.corruptOracle = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.teadbt.empty() || o.work.empty())
        usage("--teadbt and --work are required");
    if (!o.selfTest) {
        bool known = false;
        for (const std::string &w : workloadNames())
            known = known || w == o.workload;
        if (!known)
            usage("unknown --workload");
        if (!haveTrace || !(o.seconds > 0))
            usage("need --trace and a positive --seconds");
    }
    // Absolute, because the server child runs in its own directory.
    o.work = fs::absolute(o.work).string();
    o.teadbt = fs::absolute(o.teadbt).string();
    return o;
}

/** Print the result line; `metrics` rendered with every digit kept. */
void
printResult(const Report &rep)
{
    tea::JsonWriter w;
    w.beginObject();
    w.key("correct").value(rep.failed == 0);
    w.key("attempted").value(rep.attempted);
    w.key("failed").value(rep.failed);
    w.key("metrics").beginObject();
    for (const auto &[name, m] : rep.metrics) {
        w.key(name).beginObject();
        // Every digit: JsonWriter's doubles round to six.
        char num[40];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        w.key("value").rawValue(num);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

void
printDiagnostics(const std::string &workload, const Report &rep)
{
    tea::JsonWriter w;
    w.beginObject();
    w.key("diagnostics").beginObject();
    w.key("workload").value(workload);
    w.key("nproc").value(
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.key("compiler").value(SERVEBENCH_COMPILER);
    w.key("build_type").value(SERVEBENCH_BUILD_TYPE);
    for (const auto &[k, v] : rep.diagnostics)
        w.key(k).value(v);
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

InputConfig
benchInputs()
{
    InputConfig cfg;
    cfg.programs = tea::Workloads::names();
    return cfg;
}

/** Tiny inputs: four programs at test size. */
InputConfig
selfTestInputs()
{
    InputConfig cfg;
    cfg.programs = {"syn.gzip", "syn.mcf", "syn.gcc", "syn.swim"};
    cfg.bulkSize = "test";
    cfg.fleetSize = "test";
    cfg.liveSize = "test";
    return cfg;
}

int
selfTest(Options opt)
{
    Inputs in = loadInputs(selfTestInputs(), opt.work + "/cache", false);
    if (opt.corruptOracle)
        corruptOracles(in);
    opt.seconds = 1;
    opt.setups = 2;
    opt.trace = true;
    Report total;
    for (const std::string &w : workloadNames()) {
        Options o = opt;
        o.workload = w;
        Report rep;
        runWorkload(o, in, rep);
        std::printf("selftest %s: attempted %llu failed %llu\n", w.c_str(),
                    static_cast<unsigned long long>(rep.attempted),
                    static_cast<unsigned long long>(rep.failed));
        total.attempted += rep.attempted;
        total.failed += rep.failed;
        for (const auto &[name, m] : rep.metrics)
            total.metrics[w + "/" + name] = m;
    }
    printResult(total);
    return total.failed == 0 ? 0 : 1;
}

/**
 * Hold the work directory for the life of the process. A run deletes
 * and rewrites the server's store, the mirror stores and the probe
 * store there, so a second run in the same directory would delete the
 * `.teac` files under the first one's server. The lock is released
 * when the process ends, however it ends.
 */
bool
lockWork(const std::string &work)
{
    std::string path = work + "/lock";
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        std::fprintf(stderr, "servebench: cannot open %s: %s\n",
                     path.c_str(), std::strerror(errno));
        return false;
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        std::fprintf(stderr,
                     "servebench: %s is in use by another servebench "
                     "process; runs sharing a work directory cannot "
                     "overlap\n",
                     work.c_str());
        ::close(fd);
        return false;
    }
    return true; // fd stays open until exit
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    try {
        fs::create_directories(opt.work);
        if (!lockWork(opt.work))
            return 1;
        if (opt.selfTest)
            return selfTest(opt);
        uint64_t g0 = sb::nowNs();
        Inputs in = loadInputs(benchInputs(), opt.work + "/cache", true);
        std::fprintf(stderr, "servebench: inputs ready in %.2f s\n",
                     static_cast<double>(sb::nowNs() - g0) / 1e9);
        Report rep;
        runWorkload(opt, in, rep);
        printDiagnostics(opt.workload, rep);
        printResult(rep);
        return rep.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
