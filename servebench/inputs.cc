/**
 * @file
 * Input generation, oracles and the on-disk input cache.
 *
 * Every input is a pure function of the InputConfig: the suite
 * programs are deterministic, so their logs, automata and oracles are
 * too. The run's seed only orders the requests (workloads.cc), which
 * costs microseconds, so the cache is keyed by the build (a CRC of the
 * servebench binary, which links the same libraries as the server) and the
 * config. Generation runs before any server is spawned and is never
 * part of setup_s.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "common.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/recorder.hh"
#include "tea/serialize.hh"
#include "trace/factory.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace sb {

using namespace tea;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string
InputConfig::describe() const
{
    std::string s = "bulk=" + bulkSize + " fleet=" + fleetSize +
                    " live=" + liveSize + " record=" + recordProgram +
                    " programs=";
    for (const std::string &p : programs)
        s += p + ",";
    return s;
}

namespace {

/** Run `prog` once, handing every block transition to `fn`. */
template <typename Fn>
void
runProgram(const Program &prog, Fn &&fn)
{
    Machine m(prog);
    BlockTracker tracker(prog, fn, /*rep_per_iteration=*/false,
                         /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                /*split_at_special=*/false);
}

/** Replay `log` against serialized automaton `teaBytes` locally. */
ReplayOracle
replayOracle(const std::vector<uint8_t> &teaBytes,
             const std::vector<uint8_t> &log)
{
    // Load the bytes the server receives, so the oracle replays the
    // automaton the server installs from its PUT.
    auto tea = std::make_shared<const Tea>(loadTea(teaBytes));
    ReplayJob job{tea, "", &log, CompiledTea::compile(tea)};
    StreamResult res = runReplayJob(job, LookupConfig{});
    if (!res.ok())
        fatal("oracle replay failed: %s", res.error.c_str());
    return ReplayOracle{res.stats, res.execCounts};
}

/** Record one program's bulk log, fleet log and automata. */
ProgramInputs
generateProgram(const std::string &name, const InputConfig &cfg)
{
    ProgramInputs p;
    p.name = name;
    {
        Workload w = Workloads::build(name, parseInputSize(cfg.bulkSize));
        TraceLogWriter writer(&p.bulkLog);
        TeaRecorder rec(makeSelector("mret"));
        runProgram(w.program, [&](const BlockTransition &tr) {
            writer.append(tr);
            rec.feed(tr);
        });
        writer.finish();
        p.bulkTea = saveTea(buildTea(rec.traces()));
        p.bulkOracle = replayOracle(p.bulkTea, p.bulkLog);
    }
    {
        Workload w = Workloads::build(name, parseInputSize(cfg.fleetSize));
        TraceLogWriter writer(&p.fleetLog);
        std::vector<std::unique_ptr<TeaRecorder>> recs;
        for (const char *sel : kSelectors)
            recs.push_back(std::make_unique<TeaRecorder>(makeSelector(sel)));
        runProgram(w.program, [&](const BlockTransition &tr) {
            writer.append(tr);
            for (auto &r : recs)
                r->feed(tr);
        });
        writer.finish();
        for (size_t s = 0; s < kSelectors.size(); ++s) {
            p.fleetTea[s] = saveTea(buildTea(recs[s]->traces()));
            p.fleetOracle[s] = replayOracle(p.fleetTea[s], p.fleetLog);
        }
    }
    return p;
}

Inputs
generate(const InputConfig &cfg)
{
    Inputs in;
    in.programs.resize(cfg.programs.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < cfg.programs.size();)
            in.programs[i] = generateProgram(cfg.programs[i], cfg);
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    // The record stream: the record program's bulk-size transitions.
    // Its oracle is an offline TeaRecorder with the mret selector over
    // exactly the transitions RECORD streams.
    {
        Workload w = Workloads::build(cfg.recordProgram,
                                      parseInputSize(cfg.bulkSize));
        TraceLogWriter writer(&in.recordLog);
        runProgram(w.program, [&](const BlockTransition &tr) {
            writer.append(tr);
        });
        writer.finish();
    }
    in.recordStream = readTraceLog(in.recordLog);
    TeaRecorder rec(makeSelector("mret"));
    for (const BlockTransition &tr : in.recordStream)
        rec.feed(tr);
    in.recordOracle.transitions = in.recordStream.size();
    in.recordOracle.traces = rec.traces().size();
    in.recordOracle.states = rec.tea().numStates();
    in.recordOracle.stats = rec.stats();
    in.recordTea = saveTea(buildTea(rec.traces()));

    {
        Workload w = Workloads::build(cfg.recordProgram,
                                      parseInputSize(cfg.liveSize));
        TraceLogWriter writer(&in.liveLog);
        runProgram(w.program, [&](const BlockTransition &tr) {
            writer.append(tr);
        });
        writer.finish();
    }
    // transitions/blocks/insnsTotal do not depend on the automaton;
    // the record program's final automaton is as good as any.
    in.liveOracle = replayOracle(in.recordTea, in.liveLog).stats;
    return in;
}

// ------------------------------------------------------------ cache I/O

constexpr uint32_t kCacheMagic = 0x53424931; // "SBI1"

struct Writer
{
    std::vector<uint8_t> out;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    bytes(const std::vector<uint8_t> &b)
    {
        u64(b.size());
        out.insert(out.end(), b.begin(), b.end());
    }
    void
    str(const std::string &s)
    {
        bytes(std::vector<uint8_t>(s.begin(), s.end()));
    }
    void
    stats(const ReplayStats &s)
    {
        for (uint64_t v : {s.blocks, s.insnsTotal, s.insnsInTrace,
                           s.transitions, s.intraTraceHits, s.traceExits,
                           s.exitsToCold, s.nteBlocks, s.localCacheHits,
                           s.globalLookups, s.globalHits})
            u64(v);
    }
    void
    oracle(const ReplayOracle &o)
    {
        stats(o.stats);
        u64(o.execCounts.size());
        for (uint64_t c : o.execCounts)
            u64(c);
    }
};

struct Reader
{
    const std::vector<uint8_t> &in;
    size_t pos = 0;

    uint64_t
    u64()
    {
        if (in.size() - pos < 8)
            fatal("servebench cache: truncated");
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }
    std::vector<uint8_t>
    bytes()
    {
        uint64_t n = u64();
        if (in.size() - pos < n)
            fatal("servebench cache: truncated");
        std::vector<uint8_t> b(in.begin() + static_cast<long>(pos),
                               in.begin() + static_cast<long>(pos + n));
        pos += n;
        return b;
    }
    std::string
    str()
    {
        std::vector<uint8_t> b = bytes();
        return std::string(b.begin(), b.end());
    }
    ReplayStats
    stats()
    {
        ReplayStats s;
        for (uint64_t *f : {&s.blocks, &s.insnsTotal, &s.insnsInTrace,
                            &s.transitions, &s.intraTraceHits,
                            &s.traceExits, &s.exitsToCold, &s.nteBlocks,
                            &s.localCacheHits, &s.globalLookups,
                            &s.globalHits})
            *f = u64();
        return s;
    }
    ReplayOracle
    oracle()
    {
        ReplayOracle o;
        o.stats = stats();
        uint64_t n = u64();
        if (n > in.size())
            fatal("servebench cache: bad profile length");
        o.execCounts.resize(n);
        for (uint64_t &c : o.execCounts)
            c = u64();
        return o;
    }
};

std::vector<uint8_t>
serialize(const Inputs &in, const std::string &describe)
{
    Writer w;
    w.u64(kCacheMagic);
    w.str(describe);
    w.u64(in.programs.size());
    for (const ProgramInputs &p : in.programs) {
        w.str(p.name);
        w.bytes(p.bulkLog);
        w.bytes(p.bulkTea);
        w.oracle(p.bulkOracle);
        w.bytes(p.fleetLog);
        for (size_t s = 0; s < kSelectors.size(); ++s) {
            w.bytes(p.fleetTea[s]);
            w.oracle(p.fleetOracle[s]);
        }
    }
    w.bytes(in.recordLog);
    w.u64(in.recordOracle.transitions);
    w.u64(in.recordOracle.traces);
    w.u64(in.recordOracle.states);
    w.stats(in.recordOracle.stats);
    w.bytes(in.recordTea);
    w.bytes(in.liveLog);
    w.stats(in.liveOracle);
    w.u64(crc32(w.out.data(), w.out.size()));
    return w.out;
}

Inputs
deserialize(const std::vector<uint8_t> &bytes, const std::string &describe)
{
    if (bytes.size() < 16 ||
        crc32(bytes.data(), bytes.size() - 8) !=
            Reader{bytes, bytes.size() - 8}.u64())
        fatal("servebench cache: checksum mismatch");
    Reader r{bytes};
    if (r.u64() != kCacheMagic || r.str() != describe)
        fatal("servebench cache: wrong magic or config");
    Inputs in;
    in.programs.resize(r.u64());
    for (ProgramInputs &p : in.programs) {
        p.name = r.str();
        p.bulkLog = r.bytes();
        p.bulkTea = r.bytes();
        p.bulkOracle = r.oracle();
        p.fleetLog = r.bytes();
        for (size_t s = 0; s < kSelectors.size(); ++s) {
            p.fleetTea[s] = r.bytes();
            p.fleetOracle[s] = r.oracle();
        }
    }
    in.recordLog = r.bytes();
    in.recordOracle.transitions = r.u64();
    in.recordOracle.traces = r.u64();
    in.recordOracle.states = r.u64();
    in.recordOracle.stats = r.stats();
    in.recordTea = r.bytes();
    in.liveLog = r.bytes();
    in.liveOracle = r.stats();
    in.recordStream = readTraceLog(in.recordLog);
    return in;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

} // namespace

Inputs
loadInputs(const InputConfig &cfg, const std::string &cacheDir,
           bool useCache)
{
    std::string describe = cfg.describe();
    if (!useCache)
        return generate(cfg);
    std::vector<uint8_t> exe = readFile("/proc/self/exe");
    uint32_t key = crc32Update(crc32(exe.data(), exe.size()),
                               describe.data(), describe.size());
    char name[32];
    std::snprintf(name, sizeof(name), "inputs-%08x.bin", key);
    std::string path = cacheDir + "/" + name;
    if (fs::exists(path)) {
        try {
            return deserialize(readFile(path), describe);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "servebench: regenerating (%s)\n",
                         e.what());
        }
    }
    Inputs in = generate(cfg);
    fs::create_directories(cacheDir);
    // One cached build at a time: drop entries of older builds.
    for (const auto &e : fs::directory_iterator(cacheDir))
        if (e.path().filename().string().rfind("inputs-", 0) == 0)
            fs::remove(e.path());
    std::vector<uint8_t> bytes = serialize(in, describe);
    std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!f)
            fatal("servebench cache: cannot write %s", tmp.c_str());
    }
    fs::rename(tmp, path);
    return in;
}

void
corruptOracles(Inputs &in)
{
    for (ProgramInputs &p : in.programs) {
        p.bulkOracle.stats.transitions += 1;
        p.fleetOracle[0].execCounts.back() += 1;
    }
    in.recordOracle.traces += 1;
    in.liveOracle.insnsTotal += 1;
}

} // namespace sb
