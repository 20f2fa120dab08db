/**
 * @file
 * teadbt — command-line driver for the TEA/DBT library.
 *
 * Subcommands:
 *   run <prog>                         assemble and execute natively
 *   disasm <prog>                      print the disassembly
 *   record <prog> [--selector S] [--pin] [--traces F] [--tea F]
 *                                      record traces online; export them
 *   record --connect EP <name> <log>...
 *                                      stream saved trace logs to a
 *                                      server, growing (and hot-
 *                                      swapping) the automaton <name>
 *                                      remotely; --live <prog> streams
 *                                      a local execution instead
 *                                      (--swap-interval N overrides
 *                                      the server's publish cadence)
 *   replay <prog> --traces F [--no-global] [--no-local] [--profile]
 *                                      replay saved traces on <prog>
 *   translate <prog> [--selector S] [--optimize]
 *                                      record, replicate code, validate
 *   simulate <prog> [--traces F]       replay on the cycle model with
 *                                      per-trace cycle statistics
 *   info --traces F | --tea F          inspect a saved traces/TEA file
 *   dot <prog> [--selector S]          print the TEA in GraphViz DOT
 *   workloads                          list the synthetic SPEC suite
 *   record-log <prog> --log F [--pin]  record the block-transition
 *                                      stream to a v2 trace log (svc);
 *                                      --elide predicts against a
 *                                      recorded automaton (--teac F
 *                                      saves it alongside)
 *   log-info <file.tlog>               inspect a trace log's framing,
 *                                      per-chunk encodings, and
 *                                      compression ratio (--json;
 *                                      --teac F decodes elided logs)
 *   batch-replay [--jobs N] <tea> <log>...
 *                                      replay many trace logs on a
 *                                      worker pool (svc; N defaults
 *                                      to the hardware threads)
 *   compile <tea>... --out DIR         precompile TEA files into
 *                                      relocatable .teac snapshots
 *                                      (store); names are the input
 *                                      basenames minus ".tea"
 *   inspect <file.teac>                validate and dump a compiled
 *                                      snapshot's header, sections,
 *                                      and checksums (--json)
 *   serve --listen EP [name=tea]...    run the networked replay
 *                                      server (net) until SIGINT on
 *                                      --jobs N workers (default:
 *                                      half the hardware threads);
 *                                      --store DIR backs the registry
 *                                      with a .teac directory
 *                                      (mmap'd cold loads, LRU
 *                                      eviction via
 *                                      --max-resident-bytes /
 *                                      --max-resident)
 *   remote-replay --connect EP <name> <log>...
 *                                      stream trace logs to a server
 *                                      and print each stream's stats
 *                                      (--retries/--backoff-ms retry
 *                                      busy or broken exchanges)
 *   ping --connect EP                  probe a server's liveness and
 *                                      load (queue depth, sessions)
 *   stats --connect EP                 fetch a server's observability
 *                                      snapshot (metrics + recent
 *                                      spans; --json for the raw
 *                                      document, --watch N to poll,
 *                                      --history GETs the time-series
 *                                      ring, /history.json)
 *   flight-dump --connect EP           GET the server's flight-
 *                                      recorder box, /flight.json
 *                                      (--out F writes a file)
 *
 * serve also exposes HTTP on the same listener, tcp: or unix: (GET
 * /metrics, /healthz, /history.json, /flight.json), and arms an
 * always-on flight recorder (--flight-dump PATH, --no-flight) that
 * writes a post-mortem JSON dump on fatal signals and FatalError exits.
 *
 * <prog> is either a TinyX86 assembly file path or a workload name
 * ("syn.gzip"); workload names accept --size test|train|ref.
 * EP is "tcp:host:port" or "unix:/path".
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dbt/runtime.hh"
#include "net/client.hh"
#include "obs/flightrec.hh"
#include "net/server.hh"
#include "store/store.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "sim/cycle_model.hh"
#include "svc/registry.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "tea/profiler.hh"
#include "tea/recorder.hh"
#include "tea/replayer.hh"
#include "tea/serialize.hh"
#include "tea/teac.hh"
#include "trace/factory.hh"
#include "trace/metrics.hh"
#include "trace/serialize.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/mmap.hh"
#include "util/strutil.hh"
#include "vm/block.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

struct Options
{
    std::string command;
    std::string program;
    std::string selector = "mret";
    std::string size = "train";
    std::string tracesFile;
    std::string teaFile;
    std::string logFile;
    std::string teacFile; ///< record-log/log-info: compiled automaton
    std::string endpoint; ///< --listen / --connect
    std::string putFile;  ///< remote-replay: upload this TEA first
    std::string outDir;   ///< compile: .teac output directory
    std::string storeDir; ///< serve: disk-backed automaton store
    std::string flightDump; ///< serve: flight-recorder dump path
    std::vector<std::string> extraArgs; ///< positionals after the first
    int jobs = 0; ///< --jobs; 0 = the library default
    int maxQueue = 64;
    int maxSessions = 0;       ///< serve: live-connection cap (0 = off)
    int idleTimeoutMs = 0;     ///< serve: evict idle connections (0 = off)
    int requestDeadlineMs = 0; ///< serve: per-request budget (0 = off)
    int retries = 0;           ///< remote-replay: extra attempts
    int backoffMs = 50;        ///< remote-replay: base retry delay
    int slowRequestMs = 0;     ///< serve: slow-request log (0 = off)
    int traceRing = 1024;      ///< serve: span ring capacity
    int watch = 0;             ///< stats: poll every N seconds (0 = once)
    int swapInterval = 0;      ///< record: hot-swap cadence (0 = server)
    int statsSpanLimit = 0;    ///< serve: spans per STATS reply (0 = default)
    int historyIntervalMs = -1; ///< serve: sampler cadence (-1 = default)
    int historyFrames = 0;     ///< serve: history ring depth (0 = default)
    long long maxResidentBytes = 0; ///< serve: store byte budget (0 = off)
    long long maxResident = 0;      ///< serve: store count budget (0 = off)
    long long maxWriteQueue = 0;    ///< serve: per-conn reply cap (0 = default)
    long long highWatermark = 0;    ///< serve: pause reads above (0 = default)
    long long lowWatermark = 0;     ///< serve: resume reads below (0 = default)
    int drainDeadlineMs = -1;       ///< serve: stop() patience (-1 = default)
    bool noFlight = false;     ///< serve: skip arming the flight recorder
    bool history = false;      ///< stats: fetch the time-series history
    bool salvage = false;      ///< batch-replay: recover torn logs
    bool elide = false;        ///< record-log: automaton-predicted elision
    bool live = false;         ///< record --connect: stream an execution
    bool pinPolicy = false;
    bool optimize = false;
    bool noGlobal = false;
    bool noLocal = false;
    bool reference = false; ///< reference kernel instead of compiled
    bool profile = false;
    bool json = false;
};

[[noreturn]] void
usage()
{
    std::fputs(
        "usage: teadbt <command> [args]\n"
        "  run <prog> [--size S]\n"
        "  disasm <prog>\n"
        "  record <prog> [--selector mret|tt|ctt|mfet] [--pin]\n"
        "         [--traces out.traces] [--tea out.tea]\n"
        "  record --connect EP <name> <log>... [--selector S]\n"
        "         [--swap-interval N]\n"
        "  record --connect EP <name> --live <prog> [--selector S]\n"
        "         [--swap-interval N] [--size S] [--pin]\n"
        "  replay <prog> --traces in.traces [--no-global] [--no-local]\n"
        "         [--reference] [--profile]\n"
        "  translate <prog> [--selector S] [--optimize]\n"
        "  simulate <prog> [--traces in.traces] [--selector S]\n"
        "  info --traces F | --tea F\n"
        "  dot <prog> [--selector S]\n"
        "  workloads\n"
        "  record-log <prog> --log out.tlog [--pin] [--size S]\n"
        "         [--elide [--teac out.teac] [--selector S]]\n"
        "  log-info <file.tlog> [--json] [--teac file.teac]\n"
        "  batch-replay [--jobs N] [--json] [--salvage] <tea-file> "
        "<log>...\n"
        "         [--no-global] [--no-local] [--reference]\n"
        "  compile <tea-file>... --out DIR\n"
        "  inspect <file.teac> [--json]\n"
        "  serve --listen EP [--jobs N] [--max-queue N]\n"
        "         [--max-sessions N] [--idle-timeout-ms N]\n"
        "         [--request-deadline-ms N] [--slow-request-ms N]\n"
        "         [--trace-ring N] [--store DIR]\n"
        "         [--max-resident-bytes N] [--max-resident N]\n"
        "         [--swap-interval N]\n"
        "         [--max-write-queue-bytes N] [--write-high-watermark N]\n"
        "         [--write-low-watermark N] [--drain-deadline-ms N]\n"
        "         [--stats-span-limit N] [--history-interval-ms N]\n"
        "         [--history-frames N] [--flight-dump PATH] [--no-flight]\n"
        "         [name=tea]...\n"
        "  remote-replay --connect EP [--put tea-file] [--json]\n"
        "         [--retries N] [--backoff-ms N]\n"
        "         [--no-global] [--no-local] [--reference]\n"
        "         <name> <log>...\n"
        "  ping --connect EP [--json]\n"
        "  stats --connect EP [--json] [--watch N] [--history]\n"
        "  flight-dump --connect EP [--out FILE]\n"
        "<prog> is an assembly file or a workload name like syn.gzip\n"
        "EP is tcp:<host>:<port> or unix:<path>\n"
        "--jobs N defaults to half the hardware threads for serve and\n"
        "to all of them for batch-replay\n",
        stderr);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Options opt;
    opt.command = argv[1];
    int positional = 0;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--selector")
            opt.selector = value();
        else if (arg == "--size")
            opt.size = value();
        else if (arg == "--traces")
            opt.tracesFile = value();
        else if (arg == "--tea")
            opt.teaFile = value();
        else if (arg == "--log")
            opt.logFile = value();
        else if (arg == "--teac")
            opt.teacFile = value();
        else if (arg == "--listen" || arg == "--connect")
            opt.endpoint = value();
        else if (arg == "--put")
            opt.putFile = value();
        else if (arg == "--out")
            opt.outDir = value();
        else if (arg == "--store")
            opt.storeDir = value();
        else if (arg == "--max-resident-bytes") {
            opt.maxResidentBytes = std::atoll(value().c_str());
            if (opt.maxResidentBytes < 0)
                usage();
        } else if (arg == "--max-resident") {
            opt.maxResident = std::atoll(value().c_str());
            if (opt.maxResident < 0)
                usage();
        }
        else if (arg == "--jobs") {
            opt.jobs = std::atoi(value().c_str());
            if (opt.jobs < 1)
                usage();
        } else if (arg == "--max-queue") {
            opt.maxQueue = std::atoi(value().c_str());
            if (opt.maxQueue < 1)
                usage();
        } else if (arg == "--max-sessions") {
            opt.maxSessions = std::atoi(value().c_str());
            if (opt.maxSessions < 0)
                usage();
        } else if (arg == "--idle-timeout-ms") {
            opt.idleTimeoutMs = std::atoi(value().c_str());
            if (opt.idleTimeoutMs < 0)
                usage();
        } else if (arg == "--request-deadline-ms") {
            opt.requestDeadlineMs = std::atoi(value().c_str());
            if (opt.requestDeadlineMs < 0)
                usage();
        } else if (arg == "--retries") {
            opt.retries = std::atoi(value().c_str());
            if (opt.retries < 0)
                usage();
        } else if (arg == "--backoff-ms") {
            opt.backoffMs = std::atoi(value().c_str());
            if (opt.backoffMs < 0)
                usage();
        } else if (arg == "--slow-request-ms") {
            opt.slowRequestMs = std::atoi(value().c_str());
            if (opt.slowRequestMs < 0)
                usage();
        } else if (arg == "--trace-ring") {
            opt.traceRing = std::atoi(value().c_str());
            if (opt.traceRing < 1)
                usage();
        } else if (arg == "--watch") {
            opt.watch = std::atoi(value().c_str());
            if (opt.watch < 1)
                usage();
        } else if (arg == "--swap-interval") {
            opt.swapInterval = std::atoi(value().c_str());
            if (opt.swapInterval < 0)
                usage();
        } else if (arg == "--max-write-queue-bytes") {
            opt.maxWriteQueue = std::atoll(value().c_str());
            if (opt.maxWriteQueue < 1)
                usage();
        } else if (arg == "--write-high-watermark") {
            opt.highWatermark = std::atoll(value().c_str());
            if (opt.highWatermark < 1)
                usage();
        } else if (arg == "--write-low-watermark") {
            opt.lowWatermark = std::atoll(value().c_str());
            if (opt.lowWatermark < 1)
                usage();
        } else if (arg == "--drain-deadline-ms") {
            opt.drainDeadlineMs = std::atoi(value().c_str());
            if (opt.drainDeadlineMs < 0)
                usage();
        } else if (arg == "--stats-span-limit") {
            opt.statsSpanLimit = std::atoi(value().c_str());
            if (opt.statsSpanLimit < 1)
                usage();
        } else if (arg == "--history-interval-ms") {
            // 0 is meaningful: it disables the sampler entirely.
            opt.historyIntervalMs = std::atoi(value().c_str());
            if (opt.historyIntervalMs < 0)
                usage();
        } else if (arg == "--history-frames") {
            opt.historyFrames = std::atoi(value().c_str());
            if (opt.historyFrames < 2)
                usage();
        } else if (arg == "--flight-dump")
            opt.flightDump = value();
        else if (arg == "--no-flight")
            opt.noFlight = true;
        else if (arg == "--history")
            opt.history = true;
        else if (arg == "--live")
            opt.live = true;
        else if (arg == "--elide")
            opt.elide = true;
        else if (arg == "--salvage")
            opt.salvage = true;
        else if (arg == "--json")
            opt.json = true;
        else if (arg == "--pin")
            opt.pinPolicy = true;
        else if (arg == "--no-global")
            opt.noGlobal = true;
        else if (arg == "--no-local")
            opt.noLocal = true;
        else if (arg == "--reference")
            opt.reference = true;
        else if (arg == "--profile")
            opt.profile = true;
        else if (arg == "--optimize")
            opt.optimize = true;
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (positional++ == 0)
            opt.program = arg;
        else
            opt.extraArgs.push_back(arg);
    }
    return opt;
}

Program
loadProgram(const Options &opt)
{
    if (opt.program.empty())
        usage();
    if (startsWith(opt.program, "syn."))
        return Workloads::build(opt.program, parseInputSize(opt.size))
            .program;
    std::ifstream in(opt.program);
    if (!in)
        fatal("cannot open '%s'", opt.program.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return assemble(buf.str());
}

int
cmdRun(const Options &opt)
{
    Program prog = loadProgram(opt);
    Machine m(prog);
    RunExit exit = m.run();
    std::printf("%s after %llu instructions (%llu with REP expansion)\n",
                exit == RunExit::Halted ? "halted" : "step limit",
                static_cast<unsigned long long>(m.icountRepAsOne()),
                static_cast<unsigned long long>(m.icountRepPerIter()));
    for (uint32_t v : m.output())
        std::printf("out: %u (0x%x)\n", v, v);
    return exit == RunExit::Halted ? 0 : 1;
}

int
cmdDisasm(const Options &opt)
{
    Program prog = loadProgram(opt);
    std::fputs(disassemble(prog).c_str(), stdout);
    std::printf("; %zu instructions, %zu code bytes, entry %s\n",
                prog.size(), prog.codeBytes(),
                hex32(prog.entry()).c_str());
    return 0;
}

int
cmdRecordRemote(const Options &opt)
{
    // First positional is the automaton name; the rest are trace logs
    // (or, with --live, the one program to run while streaming).
    if (opt.program.empty() || opt.extraArgs.empty())
        usage();
    const std::string &name = opt.program;

    RemoteRecordOptions ropt;
    ropt.swapInterval = static_cast<uint32_t>(opt.swapInterval);
    ropt.selector = opt.selector;

    TeaClient client = TeaClient::connect(opt.endpoint);
    client.recordBegin(name, ropt);

    // Batch locally so each RECORD_CHUNK carries a few thousand
    // records rather than one frame per transition.
    constexpr size_t kBatch = 4096;
    std::vector<BlockTransition> batch;
    batch.reserve(kBatch);
    uint64_t streamed = 0;
    auto flush = [&] {
        if (batch.empty())
            return;
        client.recordChunk(batch.data(), batch.size());
        streamed += batch.size();
        batch.clear();
    };
    auto push = [&](const BlockTransition &tr) {
        batch.push_back(tr);
        if (batch.size() >= kBatch)
            flush();
    };

    if (opt.live) {
        if (opt.extraArgs.size() != 1)
            usage();
        Options progOpt = opt;
        progOpt.program = opt.extraArgs[0];
        Program prog = loadProgram(progOpt);
        Machine m(prog);
        BlockTracker tracker(
            prog, [&](const BlockTransition &tr) { push(tr); },
            /*rep_per_iteration=*/opt.pinPolicy);
        m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                    /*split_at_special=*/opt.pinPolicy);
    } else {
        for (const std::string &log : opt.extraArgs) {
            TraceLogReader reader = TraceLogReader::openFile(log);
            BlockTransition tr;
            while (reader.next(tr))
                push(tr);
        }
    }
    flush();

    RemoteRecordResult res = client.recordEnd();
    std::printf("recorded '%s' via %s: %llu transitions streamed, "
                "%llu traces, %llu states, %llu hot-swaps; coverage "
                "%.2f%%\n",
                name.c_str(), opt.endpoint.c_str(),
                static_cast<unsigned long long>(res.transitions),
                static_cast<unsigned long long>(res.traces),
                static_cast<unsigned long long>(res.states),
                static_cast<unsigned long long>(res.swaps),
                res.stats.coverage() * 100.0);
    return 0;
}

int
cmdRecord(const Options &opt)
{
    if (!opt.endpoint.empty())
        return cmdRecordRemote(opt);
    if (!opt.extraArgs.empty())
        usage(); // local record takes exactly one positional
    Program prog = loadProgram(opt);
    TeaRecorder recorder(makeSelector(opt.selector));
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { recorder.feed(tr); },
        /*rep_per_iteration=*/opt.pinPolicy);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                /*split_at_special=*/opt.pinPolicy);

    const TraceSet &traces = recorder.traces();
    Tea tea = buildTea(traces);
    ReplayStats st = recorder.stats();
    std::printf("%zu traces, %zu TBBs; coverage %.1f%%; TEA %zu states, "
                "%zu bytes serialized\n",
                traces.size(), traces.totalBlocks(),
                st.coverage() * 100.0, tea.numStates(),
                tea.serializedBytes());

    if (!opt.tracesFile.empty()) {
        saveTracesFile(traces, opt.tracesFile);
        std::printf("wrote %s\n", opt.tracesFile.c_str());
    }
    if (!opt.teaFile.empty()) {
        saveTeaFile(tea, opt.teaFile);
        std::printf("wrote %s\n", opt.teaFile.c_str());
    }
    return 0;
}

int
cmdReplay(const Options &opt)
{
    if (opt.tracesFile.empty())
        usage();
    Program prog = loadProgram(opt);
    TraceSet traces = loadTracesFile(opt.tracesFile);
    Tea tea = buildTea(traces);

    LookupConfig cfg;
    cfg.useGlobalBTree = !opt.noGlobal;
    cfg.useLocalCache = !opt.noLocal;
    cfg.useCompiled = !opt.reference;
    TeaReplayer replayer(tea, cfg);
    TeaProfiler profiler(tea, replayer);

    Machine m(prog);
    BlockTracker tracker(prog, [&](const BlockTransition &tr) {
        if (opt.profile)
            profiler.observe(tr);
        replayer.feed(tr);
    });
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);

    const ReplayStats &st = replayer.stats();
    std::printf("coverage %.2f%% (%llu of %llu instructions)\n",
                st.coverage() * 100.0,
                static_cast<unsigned long long>(st.insnsInTrace),
                static_cast<unsigned long long>(st.insnsTotal));
    std::printf("transitions %llu: intra %llu, exits %llu (%llu cold), "
                "cache hits %llu, global lookups %llu\n",
                static_cast<unsigned long long>(st.transitions),
                static_cast<unsigned long long>(st.intraTraceHits),
                static_cast<unsigned long long>(st.traceExits),
                static_cast<unsigned long long>(st.exitsToCold),
                static_cast<unsigned long long>(st.localCacheHits),
                static_cast<unsigned long long>(st.globalLookups));
    if (opt.profile)
        std::fputs(profiler.report(&prog).c_str(), stdout);
    return 0;
}

int
cmdTranslate(const Options &opt)
{
    Program prog = loadProgram(opt);
    DbtRuntime dbt(prog);
    auto rec = dbt.record(opt.selector);
    TranslatedImage image = translate(prog, rec.traces, opt.optimize);
    if (opt.optimize)
        std::printf("peephole: %llu const operands, %llu memory folds, "
                    "%llu dead movs, %llu strength reductions\n",
                    static_cast<unsigned long long>(
                        image.optStats.constOperands),
                    static_cast<unsigned long long>(
                        image.optStats.memFolds),
                    static_cast<unsigned long long>(
                        image.optStats.deadMovs),
                    static_cast<unsigned long long>(
                        image.optStats.strengthReduced));

    Machine native(prog);
    native.run();
    auto run = DbtRuntime::runTranslated(image);
    bool ok = run.halted && run.output == native.output();

    size_t code = 0, stubs = 0, meta = 0;
    for (const EmittedTrace &t : image.traces) {
        code += t.memory.codeBytes;
        stubs += t.memory.stubBytes;
        meta += t.memory.headerBytes + t.memory.metaBytes;
    }
    std::printf("%zu traces replicated: %zu code bytes + %zu stub bytes "
                "+ %zu metadata = %zu total\n",
                image.traces.size(), code, stubs, meta,
                image.totalBytes());
    std::printf("TEA equivalent: %zu bytes (%.0f%% smaller)\n",
                buildTea(rec.traces).serializedBytes(),
                100.0 *
                    (1.0 - static_cast<double>(
                               buildTea(rec.traces).serializedBytes()) /
                               static_cast<double>(image.totalBytes())));
    std::printf("translated execution %s (%llu of %llu steps in cache)\n",
                ok ? "matches native" : "DIVERGED",
                static_cast<unsigned long long>(run.cacheSteps),
                static_cast<unsigned long long>(run.steps));
    return ok ? 0 : 1;
}

int
cmdSimulate(const Options &opt)
{
    Program prog = loadProgram(opt);
    TraceSet traces;
    if (!opt.tracesFile.empty()) {
        traces = loadTracesFile(opt.tracesFile);
    } else {
        DbtRuntime dbt(prog);
        traces = dbt.record(opt.selector).traces;
        std::printf("(recorded %zu traces with %s)\n", traces.size(),
                    opt.selector.c_str());
    }
    Tea tea = buildTea(traces);
    TeaReplayer replayer(tea, LookupConfig{});
    CycleModel model(prog);

    std::vector<uint64_t> cycles_per_trace(traces.size(), 0);
    std::vector<uint64_t> insns_per_trace(traces.size(), 0);
    uint64_t cold_cycles = 0;

    Machine m(prog);
    BlockTracker tracker(prog, [&](const BlockTransition &tr) {
        StateId state = replayer.currentState();
        uint64_t charged = model.feed(tr);
        if (state == Tea::kNteState) {
            cold_cycles += charged;
        } else {
            const TeaState &s = tea.state(state);
            cycles_per_trace[s.trace] += charged;
            insns_per_trace[s.trace] += tr.from.icount;
        }
        replayer.feed(tr);
    });
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);

    std::printf("%llu cycles total, CPI %.2f, branch accuracy %.1f%%, "
                "cold share %.1f%%\n",
                static_cast<unsigned long long>(model.cycles()),
                model.cpi(), model.predictor().accuracy() * 100.0,
                100.0 * static_cast<double>(cold_cycles) /
                    static_cast<double>(std::max<uint64_t>(
                        model.cycles(), 1)));
    for (TraceId t = 0; t < traces.size(); ++t) {
        if (cycles_per_trace[t] == 0)
            continue;
        double trace_cpi =
            insns_per_trace[t]
                ? static_cast<double>(cycles_per_trace[t]) /
                      static_cast<double>(insns_per_trace[t])
                : 0.0;
        std::printf("  T%-4u entry %s: %12llu cycles, CPI %.2f\n", t + 1,
                    hex32(traces.at(t).entry()).c_str(),
                    static_cast<unsigned long long>(cycles_per_trace[t]),
                    trace_cpi);
    }
    return 0;
}

int
cmdInfo(const Options &opt)
{
    if (!opt.tracesFile.empty()) {
        TraceSet traces = loadTracesFile(opt.tracesFile);
        Tea tea = buildTea(traces);
        std::printf("%s: %s\n", opt.tracesFile.c_str(),
                    computeMetrics(traces).toString().c_str());
        for (const Trace &t : traces.all()) {
            std::printf("  T%-4u %-20s entry %s: %zu blocks, %zu "
                        "edges\n",
                        t.id + 1, traceKindName(t.kind),
                        hex32(t.entry()).c_str(), t.blocks.size(),
                        t.edges.size());
        }
        std::printf("as TEA: %zu states, %zu transitions, %zu bytes\n",
                    tea.numStates(), tea.numTransitions(),
                    tea.serializedBytes());
        return 0;
    }
    if (!opt.teaFile.empty()) {
        Tea tea = loadTeaFile(opt.teaFile);
        std::printf("%s: %zu TBB states + NTE, %zu transitions, %zu "
                    "entries, %zu bytes\n",
                    opt.teaFile.c_str(), tea.numTbbStates(),
                    tea.numTransitions(), tea.entries().size(),
                    tea.serializedBytes());
        return 0;
    }
    usage();
}

int
cmdDot(const Options &opt)
{
    Program prog = loadProgram(opt);
    DbtRuntime dbt(prog);
    auto rec = dbt.record(opt.selector);
    Tea tea = buildTea(rec.traces);
    std::fputs(tea.toDot("tea", &prog).c_str(), stdout);
    return 0;
}

int
cmdRecordLog(const Options &opt)
{
    if (opt.logFile.empty())
        usage();
    if (!opt.teacFile.empty() && !opt.elide)
        usage(); // --teac is the elision automaton's output path
    Program prog = loadProgram(opt);

    TraceLogOptions lopt;
    if (opt.elide) {
        // Record the automaton in a first pass, then write the log with
        // the writer predicting against it. A tracker-config mismatch
        // between the passes is safe — mispredicted transitions just
        // fall back to explicit delta records.
        DbtRuntime dbt(prog);
        auto rec = dbt.record(opt.selector);
        auto tea = std::make_shared<const Tea>(buildTea(rec.traces));
        lopt.elideWith = CompiledTea::compile(tea);
        if (!opt.teacFile.empty()) {
            saveTeacFile(*lopt.elideWith, opt.teacFile);
            std::printf("wrote %s: elision automaton (%u states)\n",
                        opt.teacFile.c_str(),
                        lopt.elideWith->numStates());
        }
    }

    TraceLogWriter writer(opt.logFile, lopt);
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { writer.append(tr); },
        /*rep_per_iteration=*/opt.pinPolicy,
        /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                /*split_at_special=*/opt.pinPolicy);
    writer.finish();
    std::printf("wrote %s: %llu block transitions, %llu bytes (v%u%s)\n",
                opt.logFile.c_str(),
                static_cast<unsigned long long>(writer.records()),
                static_cast<unsigned long long>(writer.flushedBytes()),
                writer.version(), opt.elide ? ", elided" : "");
    return 0;
}

const char *
chunkEncodingName(ChunkEncoding e)
{
    switch (e) {
    case ChunkEncoding::Raw:
        return "raw";
    case ChunkEncoding::Delta:
        return "delta";
    case ChunkEncoding::Elided:
        return "elided";
    }
    return "?";
}

int
cmdLogInfo(const Options &opt)
{
    if (opt.program.empty())
        usage();
    auto file = MappedFile::openShared(opt.program);
    TraceLogInfo info = inspectTraceLog(file->data(), file->size());

    // The v1-equivalent size needs the records themselves, so it is
    // computable exactly when the log is: always for raw/delta logs,
    // and for elided ones only with the recording automaton (--teac).
    std::shared_ptr<const CompiledTea> automaton;
    if (!opt.teacFile.empty())
        automaton = CompiledTea::fromFile(opt.teacFile);
    bool haveRatio = info.elidedChunks == 0 || automaton != nullptr;
    uint64_t v1Bytes = 0;
    if (haveRatio) {
        TraceLogReader reader(file->data(), file->size(),
                              TraceLogReader::Mode::Strict,
                              automaton.get());
        std::vector<uint8_t> v1;
        TraceLogOptions v1opt;
        v1opt.version = TraceLogFormat::kVersionV1;
        TraceLogWriter w(&v1, v1opt);
        const std::vector<BlockTransition> *buf;
        while ((buf = reader.nextChunk()) != nullptr)
            for (const BlockTransition &tr : *buf)
                w.append(tr);
        w.finish();
        v1Bytes = v1.size();
    }
    double ratio =
        info.fileBytes > 0 && haveRatio
            ? static_cast<double>(v1Bytes) /
                  static_cast<double>(info.fileBytes)
            : 0.0;

    if (opt.json) {
        JsonWriter w;
        w.beginObject();
        w.key("file").value(opt.program);
        w.key("version").value(info.version);
        w.key("fileBytes").value(info.fileBytes);
        w.key("records").value(info.records);
        w.key("payloadBytes").value(info.payloadBytes);
        w.key("elidedRecords").value(info.elidedRecords);
        w.key("rawChunks").value(info.rawChunks);
        w.key("deltaChunks").value(info.deltaChunks);
        w.key("elidedChunks").value(info.elidedChunks);
        if (haveRatio) {
            w.key("v1Bytes").value(v1Bytes);
            w.key("v1Ratio").value(ratio);
        }
        w.key("chunks").beginArray();
        for (const TraceLogChunkInfo &c : info.chunks) {
            w.beginObject();
            w.key("encoding").value(chunkEncodingName(c.encoding));
            w.key("records").value(c.records);
            w.key("payloadBytes").value(c.payloadBytes);
            if (c.encoding == ChunkEncoding::Elided)
                w.key("elidedRecords").value(c.elidedRecords);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::printf("%s\n", w.str().c_str());
        return 0;
    }

    std::printf("%s: valid v%u trace log (%llu bytes)\n",
                opt.program.c_str(), info.version,
                static_cast<unsigned long long>(info.fileBytes));
    std::printf("  records     %llu in %zu chunks (%llu raw, %llu "
                "delta, %llu elided)\n",
                static_cast<unsigned long long>(info.records),
                info.chunks.size(),
                static_cast<unsigned long long>(info.rawChunks),
                static_cast<unsigned long long>(info.deltaChunks),
                static_cast<unsigned long long>(info.elidedChunks));
    std::printf("  payload     %llu bytes (%.2f bytes/record)\n",
                static_cast<unsigned long long>(info.payloadBytes),
                info.records
                    ? static_cast<double>(info.payloadBytes) /
                          static_cast<double>(info.records)
                    : 0.0);
    if (info.elidedChunks > 0)
        std::printf("  elision     %llu of %llu records carried as "
                    "bitset bits (%.1f%%)\n",
                    static_cast<unsigned long long>(info.elidedRecords),
                    static_cast<unsigned long long>(info.records),
                    info.records ? 100.0 *
                                       static_cast<double>(
                                           info.elidedRecords) /
                                       static_cast<double>(info.records)
                                 : 0.0);
    if (haveRatio)
        std::printf("  v1 size     %llu bytes (this log is %.2fx "
                    "smaller)\n",
                    static_cast<unsigned long long>(v1Bytes), ratio);
    else
        std::printf("  v1 size     unknown (elided chunks; pass --teac "
                    "to decode)\n");
    return 0;
}

// ---- shared reporting for batch-replay / remote-replay ----

/** One replayed stream, normalized across local and remote replay. */
struct StreamReport
{
    std::string log;
    bool ok;
    std::string error;
    ReplayStats stats;
};

/** Append one ReplayStats as a JSON object value. */
void
writeStatsJson(JsonWriter &w, const ReplayStats &st)
{
    w.beginObject();
    w.key("blocks").value(st.blocks);
    w.key("insnsTotal").value(st.insnsTotal);
    w.key("insnsInTrace").value(st.insnsInTrace);
    w.key("transitions").value(st.transitions);
    w.key("intraTraceHits").value(st.intraTraceHits);
    w.key("traceExits").value(st.traceExits);
    w.key("exitsToCold").value(st.exitsToCold);
    w.key("nteBlocks").value(st.nteBlocks);
    w.key("localCacheHits").value(st.localCacheHits);
    w.key("globalLookups").value(st.globalLookups);
    w.key("globalHits").value(st.globalHits);
    w.key("coverage").value(st.coverage());
    w.endObject();
}

void
printStreamsText(const std::vector<StreamReport> &reports)
{
    for (const StreamReport &rep : reports) {
        if (!rep.ok) {
            std::printf("%-24s FAILED: %s\n", rep.log.c_str(),
                        rep.error.c_str());
            continue;
        }
        std::printf("%-24s coverage %6.2f%%  %10llu blocks  %9llu "
                    "transitions\n",
                    rep.log.c_str(), rep.stats.coverage() * 100.0,
                    static_cast<unsigned long long>(rep.stats.blocks),
                    static_cast<unsigned long long>(
                        rep.stats.transitions));
    }
}

/**
 * Machine-readable run report (--json): one object on stdout, so CI
 * and the benches can diff runs without scraping the text output.
 * `executed`/`queueDepth` are worker-pool telemetry; pass -1 to omit
 * (remote replay has no local pool).
 */
void
printStreamsJson(const char *command, size_t workers,
                 const std::vector<StreamReport> &reports,
                 const ReplayStats &total, size_t failures,
                 long long executed, long long queueDepth)
{
    JsonWriter w;
    w.beginObject();
    w.key("command").value(command);
    w.key("workers").value(uint64_t(workers));
    if (executed >= 0) {
        w.key("executedTasks").value(int64_t(executed));
        w.key("queueDepth").value(int64_t(queueDepth));
    }
    w.key("failures").value(uint64_t(failures));
    w.key("streams").beginArray();
    for (const StreamReport &rep : reports) {
        w.beginObject();
        w.key("log").value(rep.log);
        w.key("ok").value(rep.ok);
        if (rep.ok) {
            w.key("stats");
            writeStatsJson(w, rep.stats);
        } else {
            w.key("error").value(rep.error);
        }
        w.endObject();
    }
    w.endArray();
    w.key("total");
    writeStatsJson(w, total);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

int
cmdBatchReplay(const Options &opt)
{
    // First positional is the serialized TEA; the rest are trace logs.
    if (opt.program.empty() || opt.extraArgs.empty())
        usage();
    auto tea = std::make_shared<const Tea>(loadTeaFile(opt.program));

    LookupConfig cfg;
    cfg.useGlobalBTree = !opt.noGlobal;
    cfg.useLocalCache = !opt.noLocal;
    cfg.useCompiled = !opt.reference;
    ReplayService service(static_cast<size_t>(opt.jobs), cfg);

    std::vector<ReplayJob> jobsVec;
    jobsVec.reserve(opt.extraArgs.size());
    for (const std::string &log : opt.extraArgs) {
        ReplayJob job;
        job.tea = tea;
        job.logPath = log;
        job.salvage = opt.salvage;
        jobsVec.push_back(std::move(job));
    }

    BatchResult batch = service.runBatch(jobsVec);
    std::vector<StreamReport> reports;
    for (size_t i = 0; i < batch.streams.size(); ++i) {
        const StreamResult &res = batch.streams[i];
        reports.push_back(StreamReport{opt.extraArgs[i], res.ok(),
                                       res.error, res.stats});
        if (res.salvaged && !opt.json)
            std::printf("%-24s salvaged: %llu records recovered, %llu "
                        "bytes dropped (%s)\n",
                        opt.extraArgs[i].c_str(),
                        static_cast<unsigned long long>(res.stats.blocks),
                        static_cast<unsigned long long>(
                            res.salvageBytesDropped),
                        res.salvageReason.c_str());
    }
    if (opt.json) {
        printStreamsJson("batch-replay", service.workers(), reports,
                         batch.total, batch.failures,
                         static_cast<long long>(service.executedJobs()),
                         static_cast<long long>(service.pendingJobs()));
        return batch.failures == 0 ? 0 : 1;
    }
    printStreamsText(reports);
    std::printf("batch: %zu streams on %zu workers, %zu failed; total "
                "coverage %.2f%% (%llu of %llu instructions)\n",
                batch.streams.size(), service.workers(), batch.failures,
                batch.total.coverage() * 100.0,
                static_cast<unsigned long long>(batch.total.insnsInTrace),
                static_cast<unsigned long long>(batch.total.insnsTotal));
    std::printf("pool: %llu tasks executed, queue depth %zu\n",
                static_cast<unsigned long long>(service.executedJobs()),
                service.pendingJobs());
    return batch.failures == 0 ? 0 : 1;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

int
cmdCompile(const Options &opt)
{
    // Positionals are .tea files; each becomes <out>/<basename>.teac.
    if (opt.program.empty() || opt.outDir.empty())
        usage();
    std::vector<std::string> inputs;
    inputs.push_back(opt.program);
    for (const std::string &s : opt.extraArgs)
        inputs.push_back(s);

    std::filesystem::create_directories(opt.outDir);
    for (const std::string &in : inputs) {
        std::string name = std::filesystem::path(in).stem().string();
        if (!AutomatonStore::validName(name))
            fatal("'%s' does not yield a usable automaton name",
                  in.c_str());
        auto tea = std::make_shared<const Tea>(loadTeaFile(in));
        auto compiled = CompiledTea::compile(tea);
        std::string out = opt.outDir + "/" + name + ".teac";
        saveTeacFile(*compiled, out);
        std::printf("%-24s -> %s (%u states, %zu entries, %zu bytes)\n",
                    in.c_str(), out.c_str(), compiled->numStates(),
                    compiled->numEntries(),
                    compiled->arenaBytes() + sizeof(TeacHeader));
    }
    return 0;
}

int
cmdInspect(const Options &opt)
{
    if (opt.program.empty())
        usage();
    // Map and fully validate — header CRC, canonical layout, payload
    // CRC, structural audit — exactly as a serving load would.
    auto file = MappedFile::openShared(opt.program);
    CompiledTeaView view =
        CompiledTeaView::parse(file->data(), file->size());
    const TeacHeader &h = view.header;

    if (opt.json) {
        JsonWriter w;
        w.beginObject();
        w.key("file").value(opt.program);
        w.key("fileBytes").value(static_cast<uint64_t>(file->size()));
        w.key("magic").value(h.magic);
        w.key("version").value(h.version);
        w.key("flags").value(h.flags);
        w.key("states").value(h.nStates);
        w.key("succs").value(h.nSuccs);
        w.key("entries").value(h.nEntries);
        w.key("hashCap").value(h.hashCap);
        w.key("payloadBytes").value(h.payloadBytes);
        w.key("offSuccOffset").value(h.offSuccOffset);
        w.key("offSuccs").value(h.offSuccs);
        w.key("offStateStart").value(h.offStateStart);
        w.key("offStateMeta").value(h.offStateMeta);
        w.key("offHashSlots").value(h.offHashSlots);
        w.key("offEntries").value(h.offEntries);
        w.key("offStateBlock").value(h.offStateBlock);
        w.key("payloadCrc").value(h.payloadCrc);
        w.key("headerCrc").value(h.headerCrc);
        w.key("valid").value(true);
        w.endObject();
        std::printf("%s\n", w.str().c_str());
        return 0;
    }

    std::printf("%s: valid .teac snapshot (%zu bytes)\n",
                opt.program.c_str(), file->size());
    std::printf("  format      version %u, flags 0x%08x\n", h.version,
                h.flags);
    std::printf("  automaton   %u states (incl. NTE), %u transitions, "
                "%u trace entries\n",
                h.nStates, h.nSuccs, h.nEntries);
    std::printf("  hash table  %u slots (%.0f%% full)\n", h.hashCap,
                h.hashCap ? 100.0 * h.nEntries / h.hashCap : 0.0);
    std::printf("  payload     %llu bytes (+%zu header)\n",
                static_cast<unsigned long long>(h.payloadBytes),
                sizeof(TeacHeader));
    std::printf("  sections    succOffset@%llu succs@%llu "
                "stateStart@%llu stateMeta@%llu\n",
                static_cast<unsigned long long>(h.offSuccOffset),
                static_cast<unsigned long long>(h.offSuccs),
                static_cast<unsigned long long>(h.offStateStart),
                static_cast<unsigned long long>(h.offStateMeta));
    std::printf("              hashSlots@%llu entries@%llu "
                "stateBlock@%llu\n",
                static_cast<unsigned long long>(h.offHashSlots),
                static_cast<unsigned long long>(h.offEntries),
                static_cast<unsigned long long>(h.offStateBlock));
    std::printf("  checksums   header 0x%08x, payload 0x%08x "
                "(both verified)\n",
                h.headerCrc, h.payloadCrc);
    return 0;
}

int
cmdServe(const Options &opt)
{
    // Lookup flags are per stream: remote-replay sends them in each
    // REPLAY_BEGIN, and a server has no default of its own.
    if (opt.endpoint.empty() || opt.noGlobal || opt.noLocal ||
        opt.reference)
        usage();
    // Positionals preload the registry: each is name=tea-file.
    // Validate the shape before binding anything.
    std::vector<std::pair<std::string, std::string>> preloads;
    auto addPreload = [&](const std::string &s) {
        size_t eq = s.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == s.size())
            usage();
        preloads.emplace_back(s.substr(0, eq), s.substr(eq + 1));
    };
    if (!opt.program.empty())
        addPreload(opt.program);
    for (const std::string &s : opt.extraArgs)
        addPreload(s);

    ServerConfig cfg;
    cfg.endpoint = opt.endpoint;
    if (opt.maxWriteQueue > 0)
        cfg.maxWriteQueueBytes = static_cast<size_t>(opt.maxWriteQueue);
    if (opt.highWatermark > 0)
        cfg.writeHighWatermark = static_cast<size_t>(opt.highWatermark);
    if (opt.lowWatermark > 0)
        cfg.writeLowWatermark = static_cast<size_t>(opt.lowWatermark);
    if (opt.drainDeadlineMs >= 0)
        cfg.drainDeadlineMs = static_cast<uint32_t>(opt.drainDeadlineMs);
    cfg.workers = static_cast<size_t>(opt.jobs);
    cfg.maxQueue = static_cast<size_t>(opt.maxQueue);
    cfg.maxSessions = static_cast<size_t>(opt.maxSessions);
    cfg.idleTimeoutMs = static_cast<uint32_t>(opt.idleTimeoutMs);
    cfg.requestDeadlineMs = static_cast<uint32_t>(opt.requestDeadlineMs);
    cfg.slowRequestMs = static_cast<uint32_t>(opt.slowRequestMs);
    cfg.traceRing = static_cast<size_t>(opt.traceRing);
    cfg.storeDir = opt.storeDir;
    cfg.storeMaxResidentBytes =
        static_cast<size_t>(opt.maxResidentBytes);
    cfg.storeMaxResident = static_cast<size_t>(opt.maxResident);
    if (opt.swapInterval > 0)
        cfg.recordSwapInterval = static_cast<uint32_t>(opt.swapInterval);
    if (opt.statsSpanLimit > 0)
        cfg.statsSpanLimit = static_cast<size_t>(opt.statsSpanLimit);
    if (opt.historyIntervalMs >= 0)
        cfg.historyIntervalMs = static_cast<uint32_t>(opt.historyIntervalMs);
    if (opt.historyFrames > 0)
        cfg.historyFrames = static_cast<size_t>(opt.historyFrames);
    TeaServer server(cfg);
    if (!opt.noFlight) {
        // Always-on black box: arm before start() so a crash anywhere
        // in the server's lifetime leaves a dump behind. The default
        // path lands in the working directory next to the operator.
        obs::FlightRecorder &fr = obs::FlightRecorder::instance();
        fr.setFingerprint(strprintf(
            "teadbt serve %s workers=%zu max-queue=%d "
            "store=%s trace-ring=%d history-interval-ms=%u "
            "history-frames=%zu stats-span-limit=%zu",
            opt.endpoint.c_str(), server.workers(), opt.maxQueue,
            opt.storeDir.empty() ? "-" : opt.storeDir.c_str(),
            opt.traceRing, cfg.historyIntervalMs, cfg.historyFrames,
            cfg.statsSpanLimit));
        fr.attachSpans(&server.spans());
        fr.arm(opt.flightDump.empty() ? "tead-flight.json"
                                      : opt.flightDump);
        std::printf("flight recorder armed: %s\n", fr.path().c_str());
    }
    if (server.store() != nullptr)
        std::printf("store: %s (%zu .teac images on disk)\n",
                    opt.storeDir.c_str(), server.store()->list().size());
    for (const auto &[name, path] : preloads) {
        auto compiled = server.registry().loadFile(name, path);
        std::printf("loaded '%s' from %s (%u states)\n", name.c_str(),
                    path.c_str(), compiled->numStates());
    }

    // Block the shutdown signals before starting, so every thread the
    // server spawns inherits the mask and sigwait() below gets them.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    server.start();
    std::printf("tead: serving on %s (%zu workers, queue limit %d)\n",
                server.endpoint().c_str(), server.workers(), opt.maxQueue);
    std::fflush(stdout);

    int sig = 0;
    sigwait(&set, &sig);
    std::printf("tead: caught signal %d, draining in-flight replays\n",
                sig);
    std::fflush(stdout);
    server.stop();
    std::printf("tead: served %llu sessions, rejected %llu as busy, "
                "evicted %llu, %llu slow requests\n",
                static_cast<unsigned long long>(server.sessionsServed()),
                static_cast<unsigned long long>(server.busyRejected()),
                static_cast<unsigned long long>(server.sessionsEvicted()),
                static_cast<unsigned long long>(server.slowRequests()));
    // The full catalog, so a Ctrl-C'd serve leaves its numbers behind.
    std::fputs(server.statsReport(/*text=*/true).c_str(), stdout);
    return 0;
}

/** GET one of the server's JSON documents; non-200 is fatal. */
std::string
httpDocument(const std::string &endpoint, const std::string &path)
{
    HttpReply reply = httpGet(endpoint, path);
    if (reply.status != 200)
        fatal("GET %s: HTTP %d", path.c_str(), reply.status);
    return reply.body;
}

int
cmdStats(const Options &opt)
{
    if (opt.endpoint.empty())
        usage();
    for (int round = 0;; ++round) {
        if (round > 0) {
            std::fflush(stdout);
            std::this_thread::sleep_for(
                std::chrono::seconds(opt.watch));
            if (!opt.json)
                std::printf("---\n");
        }
        // A fresh connection per round: --watch keeps working across
        // server restarts, and a one-shot fetch stays a clean
        // connect/exchange/close.
        // --history GETs the delta-compressed time-series ring,
        // rendered as JSON (--json is implied).
        std::string report;
        if (opt.history) {
            report = httpDocument(opt.endpoint, "/history.json");
        } else {
            TeaClient client = TeaClient::connect(opt.endpoint);
            report = client.stats(/*text=*/!opt.json);
            client.close();
        }
        std::fputs(report.c_str(), stdout);
        if (opt.json || opt.history)
            std::printf("\n");
        if (opt.watch <= 0)
            break;
    }
    return 0;
}

int
cmdFlightDump(const Options &opt)
{
    if (opt.endpoint.empty())
        usage();
    // The server renders its flight recorder — same document a crash
    // would have written, minus the crash.
    std::string doc = httpDocument(opt.endpoint, "/flight.json");
    if (opt.outDir.empty()) {
        std::fputs(doc.c_str(), stdout);
        std::printf("\n");
        return 0;
    }
    std::ofstream out(opt.outDir, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("flight-dump: cannot write %s", opt.outDir.c_str());
    out << doc << '\n';
    out.close();
    std::printf("wrote flight dump to %s (%zu bytes)\n",
                opt.outDir.c_str(), doc.size());
    return 0;
}

int
cmdPing(const Options &opt)
{
    if (opt.endpoint.empty())
        usage();
    TeaClient client = TeaClient::connect(opt.endpoint);
    ServerStatus st = client.ping();
    if (opt.json) {
        JsonWriter w;
        w.beginObject();
        w.key("queueDepth").value(st.queueDepth);
        w.key("activeSessions").value(st.activeSessions);
        w.key("uptimeMs").value(st.uptimeMs);
        w.endObject();
        std::printf("%s\n", w.str().c_str());
        return 0;
    }
    std::printf("tead at %s: up %llu ms, %u active sessions, queue "
                "depth %u\n",
                opt.endpoint.c_str(),
                static_cast<unsigned long long>(st.uptimeMs),
                st.activeSessions, st.queueDepth);
    return 0;
}

int
cmdRemoteReplay(const Options &opt)
{
    // First positional is the automaton name; the rest are trace logs.
    if (opt.endpoint.empty() || opt.program.empty() ||
        opt.extraArgs.empty())
        usage();
    const std::string &name = opt.program;

    RemoteReplayOptions ropt;
    ropt.noGlobal = opt.noGlobal;
    ropt.noLocal = opt.noLocal;
    ropt.reference = opt.reference;

    std::vector<uint8_t> teaImage;
    if (!opt.putFile.empty())
        teaImage = readFileBytes(opt.putFile);

    std::vector<StreamReport> reports;
    ReplayStats total;
    size_t failures = 0;

    if (opt.retries > 0) {
        // Retry mode: each stream is a self-contained attempt chain —
        // fresh connection per attempt, TEA re-uploaded when --put was
        // given (the previous attempt may have died before it landed).
        RetryPolicy policy;
        policy.retries = static_cast<uint32_t>(opt.retries);
        policy.backoffMs = static_cast<uint32_t>(opt.backoffMs);
        for (const std::string &log : opt.extraArgs) {
            StreamReport rep{log, true, "", ReplayStats{}};
            try {
                std::vector<uint8_t> bytes = readFileBytes(log);
                RemoteReplayJob job;
                job.endpoint = opt.endpoint;
                job.name = name;
                job.log = bytes.data();
                job.len = bytes.size();
                job.opt = ropt;
                if (!teaImage.empty())
                    job.teaImage = &teaImage;
                rep.stats = replayWithRetry(job, policy).stats;
                total += rep.stats;
            } catch (const FatalError &e) {
                rep.ok = false;
                rep.error = e.what();
                ++failures;
            }
            reports.push_back(std::move(rep));
        }
    } else {
        TeaClient client = TeaClient::connect(opt.endpoint);
        if (!teaImage.empty()) {
            client.putAutomaton(name, teaImage);
            if (!opt.json)
                std::printf("uploaded %s as '%s'\n", opt.putFile.c_str(),
                            name.c_str());
        }
        for (const std::string &log : opt.extraArgs) {
            StreamReport rep{log, true, "", ReplayStats{}};
            try {
                rep.stats = client.replay(name, readFileBytes(log), ropt)
                                .stats;
                total += rep.stats;
            } catch (const FatalError &e) {
                rep.ok = false;
                rep.error = e.what();
                ++failures;
            }
            reports.push_back(std::move(rep));
        }
    }

    if (opt.json) {
        printStreamsJson("remote-replay", 0, reports, total, failures,
                         -1, -1);
        return failures == 0 ? 0 : 1;
    }
    printStreamsText(reports);
    std::printf("remote: %zu streams via %s, %zu failed; total "
                "coverage %.2f%% (%llu of %llu instructions)\n",
                reports.size(), opt.endpoint.c_str(), failures,
                total.coverage() * 100.0,
                static_cast<unsigned long long>(total.insnsInTrace),
                static_cast<unsigned long long>(total.insnsTotal));
    return failures == 0 ? 0 : 1;
}

int
cmdWorkloads()
{
    std::printf("%-14s %-14s %-5s\n", "name", "substitutes", "kind");
    for (const std::string &name : Workloads::names()) {
        Workload w = Workloads::build(name, InputSize::Test);
        std::printf("%-14s %-14s %-5s\n", w.name.c_str(),
                    w.specName.c_str(), w.fp ? "CFP" : "CINT");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        // Only the multi-input subcommands take more than one
        // positional argument.
        if (opt.command != "batch-replay" && opt.command != "serve" &&
            opt.command != "remote-replay" && opt.command != "compile" &&
            opt.command != "record" && !opt.extraArgs.empty())
            usage();
        if (opt.command == "run")
            return cmdRun(opt);
        if (opt.command == "disasm")
            return cmdDisasm(opt);
        if (opt.command == "record")
            return cmdRecord(opt);
        if (opt.command == "replay")
            return cmdReplay(opt);
        if (opt.command == "translate")
            return cmdTranslate(opt);
        if (opt.command == "simulate")
            return cmdSimulate(opt);
        if (opt.command == "info")
            return cmdInfo(opt);
        if (opt.command == "dot")
            return cmdDot(opt);
        if (opt.command == "workloads")
            return cmdWorkloads();
        if (opt.command == "record-log")
            return cmdRecordLog(opt);
        if (opt.command == "log-info")
            return cmdLogInfo(opt);
        if (opt.command == "batch-replay")
            return cmdBatchReplay(opt);
        if (opt.command == "compile")
            return cmdCompile(opt);
        if (opt.command == "inspect")
            return cmdInspect(opt);
        if (opt.command == "serve")
            return cmdServe(opt);
        if (opt.command == "remote-replay")
            return cmdRemoteReplay(opt);
        if (opt.command == "ping")
            return cmdPing(opt);
        if (opt.command == "stats")
            return cmdStats(opt);
        if (opt.command == "flight-dump")
            return cmdFlightDump(opt);
        usage();
    } catch (const FatalError &e) {
        // An armed recorder (serve) leaves its black box behind even
        // when the exit is a clean throw rather than a signal.
        if (obs::FlightRecorder::instance().armed())
            obs::FlightRecorder::instance().dumpNow("fatal-error");
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 70;
    }
}
