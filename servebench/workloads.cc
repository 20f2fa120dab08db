#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "mirror.hh"
#include "net/client.hh"
#include "server.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace fs = std::filesystem;

namespace sb {

using namespace tea;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "replay-bulk", "replay-fleet", "record-mixed"};
    return names;
}

namespace {

enum class W { Bulk, Fleet, RecordMixed };

/** Client threads (and connections) per workload. */
constexpr int kClients = 2;
/** Length of a timed-phase round; steal varies within a second. */
constexpr uint64_t kRoundNs = 500000000;
/** The replay workloads' untraced phase runs in segments of about this
 *  length, each followed by kProbesPerSegment recordings of the record
 *  probe, so the probe samples the host over the whole run. */
constexpr double kSegmentSeconds = 5;
constexpr int kProbesPerSegment = 2;
/** Recordings in the traced record probe (it only feeds rec spans). */
constexpr int kTracedRecordProbes = 3;
/** Fleet popularity: a program's four automata get these weights, in
 *  a seeded order, so every program carries the same total traffic.
 *  Each is four times as popular as the next, which puts the store's
 *  LRU hit ratio near one half at a quarter of the fleet resident. */
constexpr std::array<uint32_t, 4> kFleetWeights = {64, 16, 4, 1};

/** Run fn(0..n-1) on n threads, and `meanwhile` on the calling one;
 *  an escaped exception is a failure. */
template <typename Fn, typename OnError>
void
runThreads(int n, Fn fn, OnError onError, std::function<void()> meanwhile = {})
{
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i)
        threads.emplace_back([&fn, &onError, i] {
            try {
                fn(i);
            } catch (const std::exception &e) {
                onError(e.what());
            }
        });
    if (meanwhile)
        meanwhile();
    for (std::thread &t : threads)
        t.join();
}

/**
 * The items whose host steal is at most the median item's: at least
 * half of them, and every one when the host stole nothing. The host is
 * shared: steal comes in bursts of several seconds to minutes and slows
 * every layer at once, so timings are taken from the quieter half of a
 * run's rounds, recordings and set-ups, with every item tied with that
 * half kept so a quiet run is timed on all its samples. The whole run's
 * steal is printed beside the metrics.
 */
std::vector<size_t>
quieterHalf(const std::vector<double> &steal)
{
    if (steal.empty())
        return {};
    std::vector<double> sorted = steal;
    std::sort(sorted.begin(), sorted.end());
    double cut = sorted[(sorted.size() - 1) / 2];
    std::vector<size_t> idx;
    for (size_t i = 0; i < steal.size(); ++i)
        if (steal[i] <= cut)
            idx.push_back(i);
    return idx;
}

/** A request sequence shared by the client threads. */
struct Schedule
{
    std::vector<uint32_t> seq;
    std::atomic<size_t> next{0};

    uint32_t take() { return seq[next.fetch_add(1) % seq.size()]; }
};

/** A completed operation: when it ran, its figure, its host steal. */
struct Sample
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    double value = 0;
    double steal = 0;
};

/** One round of a timed phase (the last one runs to the final reply). */
struct Round
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    double seconds = 0;
    double steal = 0; ///< host steal share
    double cpuMs = 0; ///< server CPU
};

/** What one timed phase measured. */
struct Phase
{
    std::mutex mu;
    std::vector<Sample> replays; ///< latency in ms
    std::vector<Sample> records; ///< Mtrans/s, steal over the recording
    std::vector<Sample> probes;  ///< record probe between segments
    std::vector<Round> rounds;
    uint64_t sent = 0;     ///< client bytes sent by replays
    uint64_t received = 0; ///< client bytes received by replays
    HostTicks ticks;       ///< host ticks spent in the segments

    double steal() const { return stealShare(HostTicks{}, ticks); }

    void
    addReplay(const RemoteCall &rc)
    {
        std::lock_guard<std::mutex> lock(mu);
        replays.push_back({rc.startNs, rc.endNs,
                           static_cast<double>(rc.endNs - rc.startNs) / 1e6,
                           0});
        sent += rc.sent;
        received += rc.received;
    }

    void
    addRecord(const Sample &s)
    {
        std::lock_guard<std::mutex> lock(mu);
        records.push_back(s);
    }

    std::vector<double>
    replayMs() const
    {
        std::vector<double> v;
        for (const Sample &s : replays)
            v.push_back(s.value);
        return v;
    }

    /** Round index of an operation that ended at `endNs`. */
    size_t
    roundOf(uint64_t endNs) const
    {
        size_t r = 0;
        while (r + 1 < rounds.size() && rounds[r].endNs < endNs)
            ++r;
        return r;
    }
};

struct SetupTimes
{
    double spawnMs = 0;
    double loadMs = 0;
    double warmupMs = 0;
    double totalS = 0;
    double steal = 0; ///< host steal share during the set-up
};

/** The value of counter `name` in a STATS JSON report ("-" if absent). */
std::string
statsCounter(const std::string &json, const std::string &name)
{
    size_t at = json.find("\"" + name + "\"");
    if (at == std::string::npos)
        return "-";
    at = json.find(':', at);
    if (at == std::string::npos)
        return "-";
    size_t begin = json.find_first_not_of(" \t\n", at + 1);
    size_t end = json.find_first_not_of("0123456789", begin);
    return json.substr(begin, end - begin);
}

class Runner
{
  public:
    Runner(const Options &o, const Inputs &i, Report &r);
    void run();

  private:
    SetupTimes setup();
    void load();
    void warmup();
    void phase(Phase &ph, Mirror *mirror, std::vector<SpanLog> *logs,
               double seconds);
    Sample recordSample(const RemoteCall &rc, const HostTicks &before);
    void iteration(int client, Mirror *mirror, SpanLog *log,
                   Session *session, Phase &ph);
    std::vector<Sample> recordProbe(int recordings, Mirror *mirror,
                                    SpanLog *log);
    void endToEnd(const Phase &ph, const std::vector<SetupTimes> &setups,
                  double rss);
    void traced(const Phase &untraced, const std::vector<SetupTimes> &st);
    void layerMetrics(const std::vector<Span> &spans, Mirror &mirror,
                      uint64_t evictions, double untracedP50,
                      const Phase &tph);

    bool replayOp(TeaClient *conn, const std::string &name,
                  const std::vector<uint8_t> &log, RemoteCall &rc);
    bool recordOp(TeaClient &conn, const std::string &name, RemoteCall &rc);
    bool checkReplay(const RemoteCall &rc, const std::string &name,
                     const ReplayOracle *oracle);
    bool checkRecord(const RemoteCall &rc);
    void fail(const std::string &why);
    std::unique_ptr<TeaClient> dial();

    const Options &opt;
    const Inputs &in;
    Report &rep;
    W w;
    bool hasStore = false;
    size_t maxResident = 0;
    std::string serverDir, storeDir;
    std::vector<std::string> serverArgs;

    std::vector<std::string> fleetNames;
    std::vector<uint32_t> fleetProg, fleetSel, fleetHot;
    Schedule bulkSched, fleetSched;

    std::atomic<uint64_t> attempted{0}, failed{0};
    std::atomic<uint64_t> nextRequest{1};
    std::mutex errMu;
    int errorsLogged = 0;

    std::unique_ptr<ServerProcess> srv;
    /** The replay workloads' record probe runs on a server of its own,
     *  so it leaves the measured server's CPU, RSS and store alone. */
    std::unique_ptr<ServerProcess> probeSrv;
    std::vector<std::unique_ptr<TeaClient>> conns;
    RemoteCall setupRecord; ///< the last set-up's recording of `live`
};

Runner::Runner(const Options &o, const Inputs &i, Report &r)
    : opt(o), in(i), rep(r)
{
    w = o.workload == "replay-bulk"    ? W::Bulk
        : o.workload == "replay-fleet" ? W::Fleet
                                       : W::RecordMixed;
    serverDir = opt.work + "/server";
    storeDir = opt.work + "/server-store";
    Xorshift64Star rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
    auto shuffle = [&rng](std::vector<uint32_t> &v) {
        for (size_t k = v.size(); k > 1; --k)
            std::swap(v[k - 1], v[rng.nextBelow(k)]);
    };
    size_t np = in.programs.size();

    // replay-bulk: rounds of seeded permutations, so every run replays
    // the same program mix in a seed-specific order.
    for (int round = 0; round < 400; ++round) {
        std::vector<uint32_t> perm(np);
        for (uint32_t p = 0; p < np; ++p)
            perm[p] = p;
        shuffle(perm);
        bulkSched.seq.insert(bulkSched.seq.end(), perm.begin(), perm.end());
    }

    // replay-fleet: 4 automata per program. The seed decides which of a
    // program's automata is hottest (weights 64/16/4/1), so popularity is
    // skewed across automata while every program, hence every log size,
    // carries the same share of requests whatever the seed.
    std::vector<uint32_t> weight(np * kSelectors.size());
    for (uint32_t p = 0; p < np; ++p) {
        std::vector<uint32_t> order = {0, 1, 2, 3};
        shuffle(order);
        for (uint32_t s = 0; s < kSelectors.size(); ++s) {
            uint32_t k = p * 4 + s;
            fleetNames.push_back(in.programs[p].name + "." + kSelectors[s]);
            fleetProg.push_back(p);
            fleetSel.push_back(s);
            weight[k] = kFleetWeights[order[s]];
            if (order[s] == 0)
                fleetHot.push_back(k);
        }
    }
    std::vector<uint32_t> round;
    for (uint32_t k = 0; k < weight.size(); ++k)
        round.insert(round.end(), weight[k], k);
    for (int r = 0; r < 40; ++r) {
        shuffle(round);
        fleetSched.seq.insert(fleetSched.seq.end(), round.begin(),
                              round.end());
    }

    if (w == W::Fleet) {
        hasStore = true;
        maxResident = fleetNames.size() / 4;
        serverArgs = {"--store", storeDir, "--max-resident",
                      std::to_string(maxResident)};
    } else if (w == W::RecordMixed) {
        hasStore = true;
        serverArgs = {"--store", storeDir};
    }
}

void
Runner::fail(const std::string &why)
{
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(errMu);
    if (errorsLogged < 5) {
        ++errorsLogged;
        std::fprintf(stderr, "servebench: FAILED: %s\n", why.c_str());
        // Kept across runs, so an intermittent failure can be studied
        // after the fact.
        if (FILE *f = std::fopen((opt.work + "/failures.log").c_str(), "a")) {
            std::fprintf(f, "%s seed %llu: %s\n", opt.workload.c_str(),
                         static_cast<unsigned long long>(opt.seed),
                         why.c_str());
            std::fclose(f);
        }
    }
}

std::unique_ptr<TeaClient>
Runner::dial()
{
    return std::make_unique<TeaClient>(TeaClient::connect(srv->endpoint()));
}

bool
Runner::replayOp(TeaClient *conn, const std::string &name,
                 const std::vector<uint8_t> &log, RemoteCall &rc)
{
    attempted.fetch_add(1);
    RemoteReplayOptions ro;
    ro.wantProfile = true;
    try {
        if (conn != nullptr) {
            uint64_t s0 = conn->bytesSent(), r0 = conn->bytesReceived();
            rc.startNs = nowNs();
            rc.replay = conn->replay(name, log, ro);
            rc.endNs = nowNs();
            rc.sent = conn->bytesSent() - s0;
            rc.received = conn->bytesReceived() - r0;
        } else {
            // A fresh connection per request: connect + HELLO, replay,
            // close — all on the client's clock.
            rc.startNs = nowNs();
            TeaClient c = TeaClient::connect(srv->endpoint());
            rc.replay = c.replay(name, log, ro);
            c.close();
            rc.endNs = nowNs();
            rc.sent = c.bytesSent();
            rc.received = c.bytesReceived();
        }
        return true;
    } catch (const FatalError &e) {
        fail("replay " + name + ": " + e.what());
        return false;
    }
}

bool
Runner::recordOp(TeaClient &conn, const std::string &name, RemoteCall &rc)
{
    attempted.fetch_add(1);
    try {
        uint64_t s0 = conn.bytesSent(), r0 = conn.bytesReceived();
        rc.startNs = nowNs();
        rc.record = conn.record(name, in.recordStream);
        rc.endNs = nowNs();
        rc.sent = conn.bytesSent() - s0;
        rc.received = conn.bytesReceived() - r0;
        return true;
    } catch (const FatalError &e) {
        fail("record " + name + ": " + e.what());
        return false;
    }
}

bool
Runner::checkReplay(const RemoteCall &rc, const std::string &name,
                    const ReplayOracle *oracle)
{
    const ReplayStats &st = rc.replay.stats;
    bool ok = oracle != nullptr
                  ? st == oracle->stats &&
                        rc.replay.execCounts == oracle->execCounts
                  : st.transitions == in.liveOracle.transitions &&
                        st.blocks == in.liveOracle.blocks &&
                        st.insnsTotal == in.liveOracle.insnsTotal;
    if (!ok)
        fail("replay " + name + ": result differs from the oracle");
    return ok;
}

bool
Runner::checkRecord(const RemoteCall &rc)
{
    const RecordOracle &o = in.recordOracle;
    const RemoteRecordResult &r = rc.record;
    bool ok = r.transitions == o.transitions && r.traces == o.traces &&
              r.states == o.states && r.stats == o.stats && r.swaps > 0;
    if (!ok)
        fail("record: RECORD_RESULT differs from the offline recorder");
    return ok;
}

SetupTimes
Runner::setup()
{
    conns.clear();
    srv.reset();
    if (hasStore)
        fs::remove_all(storeDir);
    fs::create_directories(serverDir);
    SetupTimes t;
    HostTicks h0 = hostTicks();
    uint64_t t0 = nowNs();
    srv = std::make_unique<ServerProcess>(opt.teadbt, serverArgs, serverDir);
    uint64_t t1 = nowNs();
    load();
    uint64_t t2 = nowNs();
    warmup();
    uint64_t t3 = nowNs();
    t.spawnMs = static_cast<double>(t1 - t0) / 1e6;
    t.loadMs = static_cast<double>(t2 - t1) / 1e6;
    t.warmupMs = static_cast<double>(t3 - t2) / 1e6;
    t.totalS = static_cast<double>(t3 - t0) / 1e9;
    t.steal = stealShare(h0, hostTicks());
    return t;
}

void
Runner::load()
{
    switch (w) {
    case W::Bulk: {
        std::unique_ptr<TeaClient> c = dial();
        for (const ProgramInputs &p : in.programs)
            c->putAutomaton(p.name, p.bulkTea);
        break;
    }
    case W::Fleet: {
        std::unique_ptr<TeaClient> c = dial();
        for (size_t k = 0; k < fleetNames.size(); ++k)
            c->putAutomaton(fleetNames[k],
                            in.programs[fleetProg[k]].fleetTea[fleetSel[k]]);
        break;
    }
    case W::RecordMixed: {
        // One full recording of `live`; its connection is the writer's.
        conns.push_back(dial());
        RemoteCall rc;
        if (recordOp(*conns[0], "live", rc))
            checkRecord(rc);
        setupRecord = rc;
        break;
    }
    }
}

void
Runner::warmup()
{
    auto onError = [this](const char *what) { fail(what); };
    switch (w) {
    case W::Bulk:
        // Open the two persistent connections and replay every program
        // once across them.
        for (int c = 0; c < kClients; ++c)
            conns.push_back(dial());
        runThreads(
            kClients,
            [&](int c) {
                for (size_t p = c; p < in.programs.size(); p += kClients) {
                    RemoteCall rc;
                    const ProgramInputs &pi = in.programs[p];
                    if (replayOp(conns[c].get(), pi.name, pi.bulkLog, rc))
                        checkReplay(rc, pi.name, &pi.bulkOracle);
                }
            },
            onError);
        break;
    case W::Fleet:
        // One request to each program's hottest automaton.
        runThreads(
            kClients,
            [&](int c) {
                for (size_t h = c; h < fleetHot.size(); h += kClients) {
                    uint32_t k = fleetHot[h];
                    const ProgramInputs &pi = in.programs[fleetProg[k]];
                    RemoteCall rc;
                    if (replayOp(nullptr, fleetNames[k], pi.fleetLog, rc))
                        checkReplay(rc, fleetNames[k],
                                    &pi.fleetOracle[fleetSel[k]]);
                }
            },
            onError);
        break;
    case W::RecordMixed: {
        conns.push_back(dial());
        RemoteCall rc;
        if (replayOp(conns[1].get(), "live", in.liveLog, rc))
            checkReplay(rc, "live", nullptr);
        break;
    }
    }
}

void
Runner::iteration(int client, Mirror *mirror, SpanLog *log,
                  Session *session, Phase &ph)
{
    RemoteCall rc;
    std::string err;
    uint64_t request = nextRequest.fetch_add(1);
    switch (w) {
    case W::Bulk: {
        const ProgramInputs &p = in.programs[bulkSched.take()];
        if (!replayOp(conns[client].get(), p.name, p.bulkLog, rc) ||
            !checkReplay(rc, p.name, &p.bulkOracle))
            return;
        ph.addReplay(rc);
        if (mirror)
            err = mirror->replay(*log, request, rc, session, p.name,
                                 p.bulkLog, &p.bulkOracle, nullptr);
        break;
    }
    case W::Fleet: {
        uint32_t k = fleetSched.take();
        const ProgramInputs &p = in.programs[fleetProg[k]];
        const ReplayOracle &o = p.fleetOracle[fleetSel[k]];
        if (!replayOp(nullptr, fleetNames[k], p.fleetLog, rc) ||
            !checkReplay(rc, fleetNames[k], &o))
            return;
        ph.addReplay(rc);
        if (mirror)
            err = mirror->replay(*log, request, rc, nullptr, fleetNames[k],
                                 p.fleetLog, &o, nullptr);
        break;
    }
    case W::RecordMixed:
        if (client == 0) {
            HostTicks h0 = hostTicks();
            if (!recordOp(*conns[0], "live", rc) || !checkRecord(rc))
                return;
            ph.addRecord(recordSample(rc, h0));
            if (mirror)
                err = mirror->record(*log, request, rc, *session, "live",
                                     in.recordStream, in.recordOracle);
        } else {
            if (!replayOp(conns[1].get(), "live", in.liveLog, rc) ||
                !checkReplay(rc, "live", nullptr))
                return;
            ph.addReplay(rc);
            if (mirror)
                err = mirror->replay(*log, request, rc, session, "live",
                                     in.liveLog, nullptr, &in.liveOracle);
        }
        break;
    }
    if (!err.empty())
        fail(err);
}

void
Runner::phase(Phase &ph, Mirror *mirror, std::vector<SpanLog> *logs,
              double seconds)
{
    HostTicks start = hostTicks();
    uint64_t startNs = nowNs();
    uint64_t deadline = startNs + static_cast<uint64_t>(seconds * 1e9);
    // Rounds, each with its host steal and server CPU.
    uint64_t roundNs = startNs;
    HostTicks roundTicks = start;
    double roundCpu = srv->cpuMs();
    auto closeRound = [&] {
        uint64_t now = nowNs();
        HostTicks t = hostTicks();
        double cpu = srv->cpuMs();
        ph.rounds.push_back({roundNs, now,
                             static_cast<double>(now - roundNs) / 1e9,
                             stealShare(roundTicks, t), cpu - roundCpu});
        roundNs = now;
        roundTicks = t;
        roundCpu = cpu;
    };
    runThreads(
        kClients,
        [&](int c) {
            SpanLog *log = logs ? &(*logs)[c] : nullptr;
            // Persistent connections get one mirror session each, as
            // the server holds one Session per connection.
            std::unique_ptr<Session> session;
            if (mirror != nullptr && w != W::Fleet)
                session = mirror->connect();
            while (nowNs() < deadline) {
                try {
                    iteration(c, mirror, log, session.get(), ph);
                } catch (const FatalError &e) {
                    fail(std::string("mirror: ") + e.what());
                }
            }
        },
        [this](const char *what) { fail(what); },
        [&] {
            for (uint64_t next = startNs + kRoundNs; next < deadline;
                 next += kRoundNs) {
                uint64_t now = nowNs();
                if (next > now)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(next - now));
                closeRound();
            }
        });
    // The last round runs from the final tick to the last reply.
    closeRound();
    HostTicks end = hostTicks();
    ph.ticks.steal += end.steal - start.steal;
    ph.ticks.busy += end.busy - start.busy;
}

Sample
Runner::recordSample(const RemoteCall &rc, const HostTicks &before)
{
    double secs = static_cast<double>(rc.endNs - rc.startNs) / 1e9;
    return {rc.startNs, rc.endNs,
            static_cast<double>(rc.record.transitions) / secs / 1e6,
            stealShare(before, hostTicks())};
}

std::vector<Sample>
Runner::recordProbe(int recordings, Mirror *mirror, SpanLog *log)
{
    // The replay workloads have no recordings of their own; measure
    // RECORD on the probe server, over one fresh connection, while the
    // replay clients wait.
    if (!probeSrv) {
        std::string dir = opt.work + "/record-probe-server";
        std::vector<std::string> args = serverArgs;
        if (hasStore) {
            // The same flags as the measured server, its own store.
            args[1] = opt.work + "/record-probe-store";
            fs::remove_all(args[1]);
        }
        fs::create_directories(dir);
        probeSrv = std::make_unique<ServerProcess>(opt.teadbt, args, dir);
    }
    std::vector<Sample> mtps;
    TeaClient c = TeaClient::connect(probeSrv->endpoint());
    std::unique_ptr<Session> session;
    if (mirror != nullptr)
        session = mirror->connect();
    for (int r = 0; r < recordings; ++r) {
        RemoteCall rc;
        HostTicks h0 = hostTicks();
        if (!recordOp(c, "probe", rc) || !checkRecord(rc))
            continue;
        mtps.push_back(recordSample(rc, h0));
        if (mirror != nullptr) {
            std::string err =
                mirror->record(*log, nextRequest.fetch_add(1), rc, *session,
                               "probe", in.recordStream, in.recordOracle);
            if (!err.empty())
                fail(err);
        }
    }
    return mtps;
}

void
Runner::run()
{
    std::vector<SetupTimes> setups;
    for (int k = 0; k < opt.setups; ++k)
        setups.push_back(setup());

    Phase ph;
    if (w == W::RecordMixed) {
        phase(ph, nullptr, nullptr, opt.seconds);
    } else {
        // The record probe between segments samples the same stretch
        // of host time as the replays, not only its last seconds.
        int segments = std::max(
            1, static_cast<int>(std::lround(opt.seconds / kSegmentSeconds)));
        for (int s = 0; s < segments; ++s) {
            phase(ph, nullptr, nullptr, opt.seconds / segments);
            std::vector<Sample> p =
                recordProbe(kProbesPerSegment, nullptr, nullptr);
            ph.probes.insert(ph.probes.end(), p.begin(), p.end());
        }
    }
    double rss = srv->peakRssMib();
    {
        std::string js =
            conns.empty() ? dial()->stats() : conns[0]->stats();
        for (const char *name :
             {"server.busy_rejected", "loop.backpressure_stalls",
              "store.mmap_loads", "rec.swaps"})
            rep.diagnostics[name] = statsCounter(js, name);
    }
    rep.diagnostics["host.steal_share"] = std::to_string(ph.steal());
    rep.diagnostics["phase.replays"] = std::to_string(ph.replays.size());
    rep.diagnostics["phase.recordings"] = std::to_string(ph.records.size());

    if (!opt.trace)
        endToEnd(ph, setups, rss);
    else
        traced(ph, setups);
    conns.clear();
    srv->stop();
    if (probeSrv)
        probeSrv->stop();
    rep.attempted = attempted.load();
    rep.failed = failed.load();
}

void
Runner::endToEnd(const Phase &ph, const std::vector<SetupTimes> &setups,
                 double rss)
{
    const std::vector<Sample> &recs =
        w == W::RecordMixed ? ph.records : ph.probes;

    // The quieter half of the rounds: their replays, time, CPU and work.
    std::vector<double> steal;
    for (const Round &r : ph.rounds)
        steal.push_back(r.steal);
    std::vector<size_t> quiet = quieterHalf(steal);
    std::vector<bool> chosen(ph.rounds.size(), false);
    for (size_t i : quiet)
        chosen[i] = true;
    // The unit server CPU is charged to: a replay on the replay
    // workloads; on record-mixed a million transitions handled, replayed
    // or recorded, so the figure does not move with the mix of short
    // replays and long recordings. A replay counts in the round it ends
    // in; a recording is spread over the rounds it overlaps.
    std::vector<double> workIn(ph.rounds.size(), 0.0);
    double replayUnit =
        w == W::RecordMixed
            ? static_cast<double>(in.liveOracle.transitions) / 1e6
            : 1.0;
    std::vector<double> latency;
    uint64_t replays = 0;
    for (const Sample &s : ph.replays) {
        size_t r = ph.roundOf(s.endNs);
        workIn[r] += replayUnit;
        if (chosen[r]) {
            latency.push_back(s.value);
            ++replays;
        }
    }
    double recordMtrans =
        static_cast<double>(in.recordOracle.transitions) / 1e6;
    for (const Sample &s : ph.records) {
        double span = static_cast<double>(s.endNs - s.startNs);
        for (size_t r = 0; r < ph.rounds.size(); ++r) {
            uint64_t lo = std::max(s.startNs, ph.rounds[r].startNs);
            uint64_t hi = std::min(s.endNs, ph.rounds[r].endNs);
            if (hi > lo)
                workIn[r] +=
                    recordMtrans * static_cast<double>(hi - lo) / span;
        }
    }
    double secs = 0, cpuMs = 0, quietSteal = 0, work = 0;
    for (size_t i : quiet) {
        secs += ph.rounds[i].seconds;
        cpuMs += ph.rounds[i].cpuMs;
        work += workIn[i];
        quietSteal += ph.rounds[i].steal / static_cast<double>(quiet.size());
    }

    std::vector<double> recSteal, setupSteal;
    for (const Sample &s : recs)
        recSteal.push_back(s.steal);
    for (const SetupTimes &t : setups)
        setupSteal.push_back(t.steal);
    std::vector<double> mtps, setupS;
    for (size_t i : quieterHalf(recSteal))
        mtps.push_back(recs[i].value);
    for (size_t i : quieterHalf(setupSteal))
        setupS.push_back(setups[i].totalS);

    rep.set("setup_s", median(setupS), "s");
    rep.set("replay_p50_ms", quantile(latency, 0.5), "ms");
    rep.set("replay_p99_ms", quantile(latency, 0.99), "ms");
    rep.set("replay_per_s",
            secs > 0 ? static_cast<double>(replays) / secs : 0.0, "1/s");
    // The lower quartile: a recording runs at one of two host speeds
    // about 1.5x apart, in phases of seconds, so the median jumps
    // between them when about half of a run's recordings are fast; the
    // lower quartile moves only when three quarters are.
    rep.set("record_mtrans_per_s", quantile(mtps, 0.25), "Mtrans/s");
    rep.set("server_cpu_ms_per_op", work > 0 ? cpuMs / work : 0.0, "ms");
    rep.set("peak_rss_mib", rss, "MiB");

    rep.diagnostics["host.steal_share_timed"] = std::to_string(quietSteal);
    std::string roundSteal;
    for (const Round &r : ph.rounds) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.3f", r.steal);
        roundSteal += (roundSteal.empty() ? "" : " ") + std::string(buf);
    }
    rep.diagnostics["rounds.steal_share"] = roundSteal;
    rep.diagnostics["rounds"] = std::to_string(ph.rounds.size());
    rep.diagnostics["rounds.timed"] = std::to_string(quiet.size());
    rep.diagnostics["samples.replay_latency"] = std::to_string(latency.size());
    // Replays that waited out a delayed ACK (about 40 ms) or worse.
    size_t slow = std::count_if(latency.begin(), latency.end(),
                                [](double ms) { return ms >= 30.0; });
    rep.diagnostics["replay.over_30ms_share"] = std::to_string(
        latency.empty() ? 0.0
                        : static_cast<double>(slow) /
                              static_cast<double>(latency.size()));
    rep.diagnostics["samples.record"] = std::to_string(mtps.size());
    std::string all;
    for (const Sample &r : recs)
        all += (all.empty() ? "" : " ") + std::to_string(r.value);
    rep.diagnostics["record.mtrans_per_s_all"] = all;
}

void
Runner::traced(const Phase &untraced, const std::vector<SetupTimes> &st)
{
    // Both mirror worlds receive what the server received in set-up.
    Mirror mirror(opt.work + "/mirror-a", opt.work + "/mirror-b",
                  maxResident, hasStore);
    SpanLog setupLog(90);
    switch (w) {
    case W::Bulk:
        for (const ProgramInputs &p : in.programs)
            mirror.put(setupLog, p.name, p.bulkTea);
        break;
    case W::Fleet:
        for (size_t k = 0; k < fleetNames.size(); ++k)
            mirror.put(setupLog, fleetNames[k],
                       in.programs[fleetProg[k]].fleetTea[fleetSel[k]]);
        break;
    case W::RecordMixed: {
        std::unique_ptr<Session> s = mirror.connect();
        std::string err = mirror.record(setupLog, 0, setupRecord, *s, "live",
                                        in.recordStream, in.recordOracle);
        if (!err.empty())
            fail(err);
        break;
    }
    }

    uint64_t ev0 = hasStore ? mirror.worldB().counter("store.evictions") : 0;
    std::vector<SpanLog> logs = {SpanLog(0), SpanLog(1)};
    Phase tph;
    phase(tph, &mirror, &logs, opt.seconds);
    uint64_t ev1 = hasStore ? mirror.worldB().counter("store.evictions") : 0;

    SpanLog probeLog(91);
    if (w != W::RecordMixed)
        recordProbe(kTracedRecordProbes, &mirror, &probeLog);
    // The store layer, off-path, where the server path never calls it:
    // replay-bulk's own automata, or copies of the recorded `live` one.
    std::vector<const std::vector<uint8_t> *> probeTeas;
    if (w == W::Bulk)
        for (const ProgramInputs &p : in.programs)
            probeTeas.push_back(&p.bulkTea);
    else if (w == W::RecordMixed)
        probeTeas.assign(8, &in.recordTea);
    if (!probeTeas.empty())
        storeProbe(probeLog, opt.work + "/probe-store", probeTeas);

    std::vector<Span> spans;
    for (SpanLog *l : {&setupLog, &logs[0], &logs[1], &probeLog})
        spans.insert(spans.end(), l->spans.begin(), l->spans.end());
    writeSpans(opt.work + "/spans-" + opt.workload + ".csv", spans);

    std::vector<double> spawn, loadMs, warm;
    for (const SetupTimes &s : st) {
        spawn.push_back(s.spawnMs);
        loadMs.push_back(s.loadMs);
        warm.push_back(s.warmupMs);
    }
    rep.set("setup.spawn_ms", median(spawn), "ms");
    rep.set("setup.load_ms", median(loadMs), "ms");
    rep.set("setup.warmup_ms", median(warm), "ms");
    double n = static_cast<double>(untraced.replays.size());
    rep.set("wire.request_kib",
            n > 0 ? static_cast<double>(untraced.sent) / 1024.0 / n : 0.0,
            "KiB");
    rep.set("wire.reply_kib",
            n > 0 ? static_cast<double>(untraced.received) / 1024.0 / n : 0.0,
            "KiB");
    layerMetrics(spans, mirror, ev1 - ev0,
                 quantile(untraced.replayMs(), 0.5), tph);
}

void
Runner::layerMetrics(const std::vector<Span> &spans, Mirror &mirror,
                     uint64_t evictions, double untracedP50,
                     const Phase &tph)
{
    std::unordered_map<uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].push_back(&s);
    auto children = [&](const Span &s) -> const std::vector<const Span *> & {
        static const std::vector<const Span *> none;
        auto it = kids.find(s.id);
        return it == kids.end() ? none : it->second;
    };
    auto onPathSum = [&](const Span &s) {
        uint64_t t = 0;
        for (const Span *k : children(s))
            if (k->onPath)
                t += k->dur();
        return t;
    };
    auto rate = [&](const Span &parent, Layer l) {
        uint64_t ns = 0, items = 0;
        for (const Span *k : children(parent))
            if (k->layer == l) {
                ns += k->dur();
                items += k->items;
            }
        return items ? static_cast<double>(ns) / static_cast<double>(items)
                     : 0.0;
    };

    std::vector<double> encUs, decUs, sessUs, remMs, tlogNs, kernNs, profUs;
    std::vector<double> recEnc, recDec, recFeed, swapMs, finishMs;
    // The remote call and its in-process copy run at different times
    // (and the session's children in another world), so a remainder or
    // a session self time can come out negative; count those.
    uint64_t negRemainder = 0, negSession = 0;
    int64_t minRemainder = INT64_MAX, minSession = INT64_MAX;
    for (const Span &r : spans) {
        if (r.layer != Layer::Request || r.request == 0)
            continue;
        const Span *enc = nullptr, *cons = nullptr, *dec = nullptr;
        for (const Span *k : children(r)) {
            if (k->layer == Layer::ClientEncode)
                enc = k;
            else if (k->layer == Layer::SessionConsume)
                cons = k;
            else if (k->layer == Layer::ClientDecode)
                dec = k;
        }
        if (!enc || !cons || !dec)
            continue;
        // Self times; the request's own self time is the remainder.
        int64_t encSelf = static_cast<int64_t>(enc->dur() - onPathSum(*enc));
        int64_t consSelf =
            static_cast<int64_t>(cons->dur()) -
            static_cast<int64_t>(onPathSum(*cons));
        int64_t remainder = static_cast<int64_t>(r.dur()) -
                            static_cast<int64_t>(onPathSum(r));
        negRemainder += remainder < 0;
        negSession += consSelf < 0;
        minRemainder = std::min(minRemainder, remainder);
        minSession = std::min(minSession, consSelf);
        if (r.kind == Kind::Replay) {
            encUs.push_back(static_cast<double>(encSelf) / 1e3);
            decUs.push_back(static_cast<double>(dec->dur()) / 1e3);
            sessUs.push_back(static_cast<double>(consSelf) / 1e3);
            remMs.push_back(static_cast<double>(remainder) / 1e6);
            tlogNs.push_back(rate(*cons, Layer::TlogDecode));
            kernNs.push_back(rate(*cons, Layer::KernelFeed));
            for (const Span *k : children(*cons))
                if (k->layer == Layer::ProfileMerge)
                    profUs.push_back(static_cast<double>(k->dur()) / 1e3);
        } else {
            recEnc.push_back(rate(*enc, Layer::RecEncode));
            recDec.push_back(rate(*cons, Layer::RecDecode));
            double feed = rate(*cons, Layer::RecFeed);
            recFeed.push_back(feed);
            for (const Span *k : children(*cons)) {
                if (k->layer == Layer::RecPublish)
                    swapMs.push_back((static_cast<double>(k->dur()) -
                                      feed * static_cast<double>(k->items)) /
                                     1e6);
                if (k->layer == Layer::RecFinish)
                    finishMs.push_back(static_cast<double>(k->dur()) / 1e6);
            }
        }
    }

    // Store and registry calls: on-path samples where the workload's
    // server path makes the call, else the off-path probe's.
    std::vector<double> hitOn, faultOn, hitOff, faultOff, putMs, pinUs;
    for (const Span &s : spans) {
        if (s.layer == Layer::StoreGet) {
            bool on = s.onPath && s.parent != 0;
            double us = static_cast<double>(s.dur()) / 1e3;
            if (s.outcome == Outcome::Hit)
                (on ? hitOn : hitOff).push_back(us);
            else
                (on ? faultOn : faultOff).push_back(us);
        } else if (s.layer == Layer::StorePut) {
            putMs.push_back(static_cast<double>(s.dur()) / 1e6);
        } else if (s.layer == Layer::RegistryPin && s.request != 0) {
            pinUs.push_back(static_cast<double>(s.dur()) / 1e3);
        }
    }
    double gets = static_cast<double>(hitOn.size() + faultOn.size());

    rep.set("client.encode_us", median(encUs), "us");
    rep.set("client.decode_us", median(decUs), "us");
    rep.set("session.self_us", median(sessUs), "us");
    rep.set("store.hit_us", median(hitOn.empty() ? hitOff : hitOn), "us");
    rep.set("store.fault_in_us", median(faultOn.empty() ? faultOff : faultOn),
            "us");
    rep.set("store.hit_ratio",
            gets > 0 ? static_cast<double>(hitOn.size()) / gets : 0.0,
            "ratio");
    rep.set("store.evictions_per_kop",
            gets > 0 ? static_cast<double>(evictions) * 1000.0 / gets : 0.0,
            "count");
    rep.set("store.put_ms", median(putMs), "ms");
    rep.set("registry.pin_us", median(pinUs), "us");
    rep.set("tlog.decode_ns_per_rec", median(tlogNs), "ns");
    rep.set("kernel.ns_per_transition", median(kernNs), "ns");
    ReplayStats k = mirror.kernelTotals();
    double resolved = static_cast<double>(k.localCacheHits + k.globalLookups);
    rep.set("kernel.local_cache_hit_ratio",
            resolved > 0 ? static_cast<double>(k.localCacheHits) / resolved
                         : 0.0,
            "ratio");
    rep.set("kernel.global_lookups_per_ktrans",
            k.transitions ? static_cast<double>(k.globalLookups) * 1000.0 /
                                static_cast<double>(k.transitions)
                          : 0.0,
            "count");
    rep.set("profile.us", median(profUs), "us");
    rep.set("rec.encode_ns_per_transition", median(recEnc), "ns");
    rep.set("rec.decode_ns_per_transition", median(recDec), "ns");
    rep.set("rec.feed_ns_per_transition", median(recFeed), "ns");
    rep.set("rec.swap_ms", median(swapMs), "ms");
    World &b = mirror.worldB();
    double inc = static_cast<double>(b.counter("rec.recompiles_incremental"));
    double full = static_cast<double>(b.counter("rec.recompiles_full"));
    rep.set("rec.incremental_share", inc + full > 0 ? inc / (inc + full) : 0.0,
            "ratio");
    rep.set("rec.finish_ms", median(finishMs), "ms");
    rep.set("remainder_p50_ms", quantile(remMs, 0.5), "ms");
    rep.set("remainder_p99_ms", quantile(remMs, 0.99), "ms");
    rep.set("trace.overhead_p50_ms",
            quantile(tph.replayMs(), 0.5) - untracedP50, "ms");
    rep.diagnostics["trace.requests"] =
        std::to_string(encUs.size() + recEnc.size());
    rep.diagnostics["trace.negative_remainder"] = std::to_string(negRemainder);
    rep.diagnostics["trace.negative_session_self"] = std::to_string(negSession);
    if (minRemainder != INT64_MAX) {
        rep.diagnostics["trace.min_remainder_us"] =
            std::to_string(static_cast<double>(minRemainder) / 1e3);
        rep.diagnostics["trace.min_session_self_us"] =
            std::to_string(static_cast<double>(minSession) / 1e3);
    }
    rep.diagnostics["trace.spans"] = std::to_string(spans.size());
}

} // namespace

void
runWorkload(const Options &opt, const Inputs &in, Report &rep)
{
    Runner(opt, in, rep).run();
}

} // namespace sb
