/**
 * @file
 * Online recording throughput.
 *
 * Two measurements, matching the rec/ subsystem's promises:
 *
 *   ingest    —  transitions/sec through a RecordingSession doing the
 *                full online loop: Algorithm 2 growth, one compile per
 *                install, atomic registry hot-swap of the recorder's
 *                snapshot. This is the rate a live RECORD stream can
 *                sustain.
 *   real      —  the same loop over a suite program's whole-run
 *                stream at ref size (default syn.gcc, the stream
 *                servebench's record probe sends), once per selector
 *                (mret, tt, ctt): the bare TeaRecorder, a
 *                RecordingSession fed 4096-transition batches, and the
 *                same session bound to the rec.* metrics through
 *                RecordingService::bindMetrics, as TeaServer binds it.
 *                Unlike the synthetic ingest stream, it installs
 *                hundreds of traces into a growing automaton, so it
 *                shows what an install costs as the automaton grows;
 *                the bound leg's overhead over the unbound one is the
 *                cost of the recording's instruments.
 *
 * Asserts bit identity between every leg's automaton on the real
 * stream, and that the bound leg counted every transition; --json
 * dumps everything machine-readably. Every time is the minimum over 5
 * runs, the legs alternating within each run.
 *
 * Usage: rec_throughput [--workload NAME|all] [--json FILE]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "rec/recording.hh"
#include "rec/service.hh"
#include "svc/registry.hh"
#include "tea/recorder.hh"
#include "tea/serialize.hh"
#include "trace/factory.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

/**
 * A recording workload: per region, enter cold, ping-pong past the
 * selector's hot threshold so a trace installs, then exit. Appended
 * to `out`; returns the record count added.
 */
size_t
appendRegionStream(std::vector<BlockTransition> &out, size_t region,
                   int rounds)
{
    size_t before = out.size();
    Addr base = 0x1000 + static_cast<Addr>(region) * 64;
    BlockTransition tr{};
    tr.kind = EdgeKind::BranchTaken;
    tr.from.icount = 3;
    tr.from.start = 0x500;
    tr.from.end = 0x50c;
    tr.toStart = base;
    out.push_back(tr);
    for (int i = 0; i < rounds; ++i) {
        bool atHead = (i % 2) == 0;
        tr.from.start = atHead ? base : base + 16;
        tr.from.end = atHead ? base + 12 : base + 28;
        tr.toStart = atHead ? base + 16 : base;
        out.push_back(tr);
    }
    tr.from.start = base + 16;
    tr.from.end = base + 28;
    tr.toStart = 0x500;
    out.push_back(tr);
    return out.size() - before;
}

/** Every time below is the best of this many runs. */
constexpr int kReps = 5;

/** The selectors each real stream is recorded with. */
const char *const kSelectors[] = {"mret", "tt", "ctt"};

/** One suite program's whole-run recording, best of kReps. */
struct RealStreamRow
{
    std::string workload;
    std::string selector;
    size_t transitions = 0;
    size_t traces = 0;
    uint64_t installs = 0;
    uint64_t swaps = 0;
    double recorderMs = 1e300; ///< bare TeaRecorder
    double sessionMs = 1e300;  ///< RecordingSession, batched feed
    double boundMs = 1e300;    ///< the same session, rec.* bound

    /** The bound leg's time over the unbound one's, in percent. */
    double
    boundOverheadPct() const
    {
        return (boundMs / sessionMs - 1.0) * 100.0;
    }
};

/** A program's block transitions as servebench records and streams
 *  them: REP counted once, no splitting at CPUID/REP. */
std::vector<BlockTransition>
programStream(const Program &prog)
{
    std::vector<BlockTransition> stream;
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { stream.push_back(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); },
                /*split_at_special=*/false);
    return stream;
}

/** Feed `stream` to `session` in RECORD_CHUNK-sized batches. */
void
feedChunks(rec::RecordingSession &session,
           const std::vector<BlockTransition> &stream)
{
    constexpr size_t kBatch = 4096; // one RECORD_CHUNK's worth
    for (size_t i = 0; i < stream.size(); i += kBatch)
        session.feedBatch(stream.data() + i,
                          std::min(kBatch, stream.size() - i));
}

/**
 * Record `stream` (program `name`) with `selector`, alternating the
 * bare recorder, an unbound session and a bound session in every rep.
 * @return false (after printing why) when the legs grow different
 * automata or the bound leg miscounts.
 */
bool
measureRealStream(const std::string &name, const std::string &selector,
                  const std::vector<BlockTransition> &stream,
                  RealStreamRow &row)
{
    row.workload = name;
    row.selector = selector;
    row.transitions = stream.size();
    rec::RecordingConfig cfg;
    cfg.selector = selector;
    std::vector<uint8_t> recorderTea, sessionTea, boundTea;
    uint64_t counted = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        {
            Stopwatch timer;
            TeaRecorder recorder(makeSelector(selector));
            for (const BlockTransition &tr : stream)
                recorder.feed(tr);
            row.recorderMs = std::min(row.recorderMs, timer.elapsedMillis());
            row.traces = recorder.traces().size();
            row.installs = recorder.installs();
            recorderTea = saveTea(recorder.tea());
        }
        {
            AutomatonRegistry registry;
            Stopwatch timer;
            rec::RecordingSession session(name, registry, nullptr, cfg);
            feedChunks(session, stream);
            rec::RecordingResultSummary sum = session.finish();
            row.sessionMs = std::min(row.sessionMs, timer.elapsedMillis());
            row.swaps = sum.swaps;
            sessionTea = saveTea(session.tea());
        }
        {
            obs::MetricsRegistry metrics;
            AutomatonRegistry registry;
            rec::RecordingService service(registry);
            service.bindMetrics(metrics);
            Stopwatch timer;
            std::unique_ptr<rec::RecordingSession> session =
                service.begin(name, cfg);
            feedChunks(*session, stream);
            session->finish();
            row.boundMs = std::min(row.boundMs, timer.elapsedMillis());
            boundTea = saveTea(session->tea());
            counted = metrics.counter("rec.transitions").value();
        }
    }
    if (sessionTea != recorderTea || boundTea != recorderTea) {
        std::fprintf(stderr, "FAIL: %s/%s: the recorder and the sessions "
                     "grew different automata\n", name.c_str(),
                     selector.c_str());
        return false;
    }
    if (counted != stream.size()) {
        std::fprintf(stderr, "FAIL: %s/%s: the bound session counted %llu "
                     "of %zu transitions\n", name.c_str(), selector.c_str(),
                     static_cast<unsigned long long>(counted),
                     stream.size());
        return false;
    }
    return true;
}

double
mtransPerSec(size_t transitions, double ms)
{
    return ms > 0 ? static_cast<double>(transitions) / ms / 1e3 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string workload = "syn.gcc";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[i + 1];
        else if (!std::strcmp(argv[i], "--workload") && i + 1 < argc)
            workload = argv[i + 1];
    }

    // ------------------------------------------------ ingest throughput
    // One stream visiting 64 regions, hot enough that each installs a
    // trace: the session pays growth, compiles, and hot-swaps along
    // the way, exactly like a live RECORD stream.
    std::vector<BlockTransition> stream;
    constexpr size_t kRegions = 64;
    for (size_t r = 0; r < kRegions; ++r)
        appendRegionStream(stream, r, 150);

    double ingest_ms = 1e300;
    uint64_t swaps = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        AutomatonRegistry registry;
        rec::RecordingConfig cfg;
        cfg.swapInterval = 1024;
        rec::RecordingSession session("bench", registry, nullptr, cfg);
        Stopwatch timer;
        for (const BlockTransition &tr : stream)
            session.feed(tr);
        rec::RecordingResultSummary sum = session.finish();
        ingest_ms = std::min(ingest_ms, timer.elapsedMillis());
        swaps = sum.swaps;
    }
    double per_sec =
        static_cast<double>(stream.size()) / (ingest_ms / 1e3);

    // ------------------------------------------------ real-stream rows
    std::vector<RealStreamRow> real;
    std::vector<std::string> names = workload == "all"
                                         ? Workloads::names()
                                         : std::vector<std::string>{
                                               workload};
    for (const std::string &name : names) {
        std::vector<BlockTransition> stream =
            programStream(Workloads::build(name, InputSize::Ref).program);
        for (const char *selector : kSelectors) {
            real.emplace_back();
            if (!measureRealStream(name, selector, stream, real.back()))
                return 1;
        }
    }

    std::printf("rec_throughput: %zu-transition stream over %zu "
                "regions\n",
                stream.size(), kRegions);
    TextTable table({"measurement", "best ms", "rate"});
    table.addRow({"online ingest", TextTable::num(ingest_ms, 2),
                  TextTable::num(per_sec / 1e6, 2) + " M trans/s"});
    std::fputs(table.render().c_str(), stdout);
    std::printf("session published %llu hot-swaps while ingesting\n",
                static_cast<unsigned long long>(swaps));

    std::printf("\nreal streams (ref size, best of %d; sessions fed "
                "4096-transition batches, the bound one counting rec.*):\n",
                kReps);
    TextTable realTable({"workload", "selector", "transitions", "installs",
                         "recorder ms", "session ms", "bound ms",
                         "bound overhead", "session rate"});
    for (const RealStreamRow &r : real)
        realTable.addRow(
            {r.workload, r.selector,
             TextTable::num(static_cast<uint64_t>(r.transitions)),
             TextTable::num(r.installs), TextTable::num(r.recorderMs, 2),
             TextTable::num(r.sessionMs, 2), TextTable::num(r.boundMs, 2),
             TextTable::num(r.boundOverheadPct(), 1) + "%",
             TextTable::num(mtransPerSec(r.transitions, r.sessionMs), 2) +
                 " M trans/s"});
    std::fputs(realTable.render().c_str(), stdout);

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"rec_throughput\",\n");
        std::fprintf(f, "  \"streamTransitions\": %zu,\n", stream.size());
        std::fprintf(f, "  \"ingestMs\": %.3f,\n", ingest_ms);
        std::fprintf(f, "  \"transitionsPerSec\": %.0f,\n", per_sec);
        std::fprintf(f, "  \"swaps\": %llu,\n",
                     static_cast<unsigned long long>(swaps));
        std::fprintf(f, "  \"realStreams\": [\n");
        for (size_t i = 0; i < real.size(); ++i) {
            const RealStreamRow &r = real[i];
            std::fprintf(
                f,
                "    {\"workload\": \"%s\", \"selector\": \"%s\", "
                "\"transitions\": %zu, \"traces\": %zu, "
                "\"installs\": %llu, \"recorderMs\": %.3f, "
                "\"sessionMs\": %.3f, \"boundSessionMs\": %.3f, "
                "\"boundOverheadPct\": %.2f, "
                "\"sessionMtransPerSec\": %.3f, \"swaps\": %llu}%s\n",
                r.workload.c_str(), r.selector.c_str(), r.transitions,
                r.traces, static_cast<unsigned long long>(r.installs),
                r.recorderMs, r.sessionMs, r.boundMs, r.boundOverheadPct(),
                mtransPerSec(r.transitions, r.sessionMs),
                static_cast<unsigned long long>(r.swaps),
                i + 1 < real.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
