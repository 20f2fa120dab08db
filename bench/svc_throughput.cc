/**
 * @file
 * Replay-service throughput: streams/sec of batch replay at 1, 2, 4,
 * ... hardware_concurrency workers.
 *
 * Records one trace log per workload in a small `syn.gzip`-class set,
 * replicates the logs into a batch of streams, and replays the batch at
 * each worker count. Reports streams/sec, speedup over one worker, and
 * verifies at every scale that the merged profile is bit-identical to
 * the single-worker merge (the svc determinism contract) AND to a
 * reference-kernel (non-compiled) batch at the same worker count — the
 * compiled CSR kernel must not change a single counter.
 *
 * Also times the two replay kernels single-threaded over the recorded
 * logs and reports ns/transition; --min-speedup turns that comparison
 * into a CI gate, and --json dumps everything machine-readably.
 *
 * The trace-log codec section encodes every recorded stream in all
 * three containers (v1 raw, v2 delta, v2 elided), verifies each one
 * decodes back bit-identically, and reports bytes/record plus decode
 * ns/transition per encoding. --min-compression X gates the v1/v2
 * size ratio (CI pins it at 2); --max-decode-ratio Y gates v2 decode
 * time against v1 (CI pins it at 1.0 — the batch kernel must not be
 * slower than the raw parse). Next to each decode rate it reports the
 * served path's: runReplayJob() ns/record over the same container —
 * chunk validation, decode and the compiled kernel together, the walk
 * every served REPLAY makes. No gate reads that column.
 *
 * The observability guard: a third single-threaded timing runs the
 * compiled kernel under the service's kind of instrumentation (feeds
 * in kFeedBatch-record slices with a clock stamp on each side, batch
 * counter bumps, and the per-automaton labeled series the session
 * resolves once per stream) and reports the ns/transition delta
 * against the bare kernel. --max-overhead X fails the run when
 * metrics add more than X percent — CI pins it at 3.
 *
 * Note the speedup column measures the *host*: on a single-core
 * container every worker count necessarily lands near 1.0x.
 *
 * Usage: svc_throughput [--size test|train|ref] [--streams N]
 *                       [--json FILE] [--min-speedup X]
 *                       [--max-overhead X] [--min-compression X]
 *                       [--max-decode-ratio X]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench/harness.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
#include "tea/compiled.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "vm/machine.hh"

using namespace tea;
using namespace tea::bench;

namespace {

/** Record a workload's transition stream into an in-memory log. */
std::vector<uint8_t>
recordLog(const Program &prog)
{
    std::vector<uint8_t> bytes;
    TraceLogWriter writer(&bytes);
    Machine m(prog);
    BlockTracker tracker(
        prog, [&](const BlockTransition &tr) { writer.append(tr); },
        /*rep_per_iteration=*/false, /*collect_blocks=*/false);
    m.runHooked([&](const EdgeEvent &ev) { tracker.onEdge(ev); }, false);
    writer.finish();
    return bytes;
}

/** One pre-decoded stream paired with its automaton. */
struct DecodedStream
{
    std::shared_ptr<const Tea> tea;
    std::shared_ptr<const CompiledTea> compiled;
    std::vector<BlockTransition> transitions;
};

/**
 * Single-threaded ns/transition of one replay kernel over every
 * pre-decoded stream, minimum of `reps` identical runs. The logs are
 * decoded up front so the measurement isolates the transition function
 * — the quantity the two kernels actually differ in — rather than the
 * trace-log parser both share.
 */
double
kernelNsPerTransition(const std::vector<DecodedStream> &streams,
                      LookupConfig cfg, int reps = 5)
{
    double best = 1e300;
    uint64_t transitions = 0;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        uint64_t total = 0;
        for (const DecodedStream &s : streams) {
            TeaReplayer replayer(*s.tea, cfg,
                                 cfg.useCompiled ? s.compiled : nullptr);
            replayer.feedAll(s.transitions.data(),
                             s.transitions.data() + s.transitions.size());
            total += replayer.stats().transitions;
        }
        double ms = timer.elapsedMillis();
        if (ms < best) {
            best = ms;
            transitions = total;
        }
    }
    return transitions ? best * 1e6 / static_cast<double>(transitions)
                       : 0.0;
}

/**
 * The same measurement under the service's instrumentation: the
 * transitions go through feedAll() in kFeedBatch-sized slices with a
 * monotonic clock stamp on each side of every slice and the per-batch
 * counters bumped per stream — the shape runReplayJob() and
 * ReplayService::setMetrics() impose, at a finer slice, plus the
 * per-automaton labeled attribution the network session adds (one
 * at() intern per stream, one labeled counter add and one labeled
 * histogram observe per stream). The delta against
 * kernelNsPerTransition() therefore bounds the price the replay hot
 * path pays for observability.
 */
double
instrumentedNsPerTransition(const std::vector<DecodedStream> &streams,
                            LookupConfig cfg, int reps = 5)
{
    // runReplayJob() stamps its clock once per log chunk (up to
    // TraceLogFormat::kChunkRecords = 4096 records from the writer);
    // slicing at 1024 stamps four times as often, so the guard bounds
    // the served path's clock cost from above.
    constexpr size_t kFeedBatch = 1024;
    obs::MetricsRegistry reg;
    obs::Counter &batches = reg.counter("svc.batches");
    obs::Counter &fed = reg.counter("svc.transitions");
    obs::LabeledCounter &transitionsBy =
        reg.labeledCounter("svc.transitions_by_automaton");
    obs::LabeledHistogram &replayMsBy =
        reg.labeledHistogram("svc.replay_ms_by_automaton");
    double best = 1e300;
    uint64_t transitions = 0;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        uint64_t total = 0;
        size_t streamIdx = 0;
        for (const DecodedStream &s : streams) {
            TeaReplayer replayer(*s.tea, cfg,
                                 cfg.useCompiled ? s.compiled : nullptr);
            // The session resolves labeled handles once per stream
            // (net/session.cc ReplayBegin); the intern mutex is paid
            // here, never per transition.
            std::string name =
                "wl-" + std::to_string(streamIdx++ % 2);
            obs::Counter &labTransitions = transitionsBy.at(name);
            obs::Histogram &labReplayMs = replayMsBy.at(name);
            const BlockTransition *p = s.transitions.data();
            const BlockTransition *end = p + s.transitions.size();
            uint64_t replayNs = 0, nbatches = 0;
            while (p < end) {
                size_t n = static_cast<size_t>(end - p);
                const BlockTransition *stop =
                    p + (n < kFeedBatch ? n : kFeedBatch);
                uint64_t t0 = obs::monotonicNanos();
                replayer.feedAll(p, stop);
                replayNs += obs::monotonicNanos() - t0;
                ++nbatches;
                p = stop;
            }
            batches.inc(nbatches);
            fed.inc(replayer.stats().transitions);
            labTransitions.inc(replayer.stats().transitions);
            labReplayMs.observe(static_cast<double>(replayNs) / 1e6);
            total += replayer.stats().transitions;
        }
        double ms = timer.elapsedMillis();
        if (ms < best) {
            best = ms;
            transitions = total;
        }
    }
    return transitions ? best * 1e6 / static_cast<double>(transitions)
                       : 0.0;
}

/**
 * Decode ns/transition of one encoded container through
 * TraceLogReader (headers, CRCs, and the batch kernel included),
 * minimum of `reps` full drains.
 */
double
decodeNsPerTransition(const std::vector<uint8_t> &bytes,
                      const CompiledTea *automaton, int reps = 5)
{
    double best = 1e300;
    uint64_t records = 0;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        TraceLogReader reader(bytes.data(), bytes.size(),
                              TraceLogReader::Mode::Strict, automaton);
        BlockTransition tr;
        uint64_t n = 0;
        while (reader.next(tr))
            ++n;
        double ms = timer.elapsedMillis();
        if (ms < best) {
            best = ms;
            records = n;
        }
    }
    return records ? best * 1e6 / static_cast<double>(records) : 0.0;
}

/**
 * The served path's ns/record over one encoded container: a strict
 * runReplayJob() on the compiled kernel — chunk validation, decode and
 * transition walk together, as a served REPLAY runs them — minimum of
 * `reps` runs.
 */
double
servedNsPerRecord(const std::vector<uint8_t> &bytes,
                  const DecodedStream &s, int reps = 5)
{
    ReplayJob job{s.tea, "", &bytes, s.compiled};
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        StreamResult res = runReplayJob(job, LookupConfig{});
        double ms = timer.elapsedMillis();
        if (!res.ok())
            fatal("served replay failed: %s", res.error.c_str());
        best = std::min(best, ms);
    }
    return s.transitions.empty()
               ? 0.0
               : best * 1e6 / static_cast<double>(s.transitions.size());
}

} // namespace

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);
    size_t streams = 32;
    std::string json_path;
    double min_speedup = 0.0;
    double max_overhead = 0.0;
    double min_compression = 0.0;
    double max_decode_ratio = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--streams") && i + 1 < argc)
            streams = static_cast<size_t>(std::atoi(argv[i + 1]));
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[i + 1];
        else if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc)
            min_speedup = std::atof(argv[i + 1]);
        else if (!std::strcmp(argv[i], "--max-overhead") && i + 1 < argc)
            max_overhead = std::atof(argv[i + 1]);
        else if (!std::strcmp(argv[i], "--min-compression") &&
                 i + 1 < argc)
            min_compression = std::atof(argv[i + 1]);
        else if (!std::strcmp(argv[i], "--max-decode-ratio") &&
                 i + 1 < argc)
            max_decode_ratio = std::atof(argv[i + 1]);
    }

    // The syn.gzip-class set: data-dependent compression-loop CFGs.
    const std::vector<std::string> names{"syn.gzip", "syn.bzip2"};
    std::vector<std::shared_ptr<const Tea>> teas;
    std::vector<std::vector<uint8_t>> logs;
    uint64_t log_bytes = 0, log_records = 0;
    for (const std::string &name : names) {
        Workload w = Workloads::build(name, size);
        teas.push_back(std::make_shared<const Tea>(
            buildTea(recordWithDbt(w, "mret"))));
        logs.push_back(recordLog(w.program));
        log_bytes += logs.back().size();
        {
            TraceLogReader probe(logs.back());
            BlockTransition tr;
            while (probe.next(tr))
                ;
            log_records += probe.recordsRead();
        }
    }

    // One batch = `streams` jobs round-robined over the workload logs.
    // Jobs alternate automata, so the merge check below uses per-stream
    // profiles (cross-automaton merged profiles are deliberately empty).
    // The compiled snapshot is shared per automaton, as the registry
    // would share it — kernel timings measure replay, not compilation.
    std::vector<std::shared_ptr<const CompiledTea>> compiled;
    for (const auto &tea : teas)
        compiled.push_back(CompiledTea::compile(tea));
    std::vector<ReplayJob> jobs;
    for (size_t i = 0; i < streams; ++i) {
        size_t k = i % names.size();
        jobs.push_back(ReplayJob{teas[k], "", &logs[k], compiled[k]});
    }
    // Pre-decoded streams for the single-threaded kernel timing.
    std::vector<DecodedStream> decoded;
    for (size_t k = 0; k < names.size(); ++k) {
        DecodedStream s{teas[k], compiled[k], {}};
        TraceLogReader reader(logs[k]);
        BlockTransition tr;
        while (reader.next(tr))
            s.transitions.push_back(tr);
        decoded.push_back(std::move(s));
    }

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("svc_throughput: %zu streams (%llu records, %.1f MiB of "
                "logs), host has %u hardware threads\n",
                streams, static_cast<unsigned long long>(
                             log_records * (streams / names.size())),
                static_cast<double>(log_bytes) / (1 << 20), hw);

    // Kernel-vs-kernel: same logs, same stats, different inner loop.
    LookupConfig compiled_cfg; // defaults: compiled CSR + flat hash
    LookupConfig reference_cfg;
    reference_cfg.useCompiled = false;
    double compiled_ns = kernelNsPerTransition(decoded, compiled_cfg);
    double reference_ns = kernelNsPerTransition(decoded, reference_cfg);
    double kernel_speedup =
        compiled_ns > 0 ? reference_ns / compiled_ns : 0.0;
    std::printf("kernel ns/transition: compiled %.2f, reference %.2f "
                "(speedup %.2fx)\n",
                compiled_ns, reference_ns, kernel_speedup);

    // Observability guard: the compiled kernel with the service's
    // metrics/timing instrumentation applied, against the bare kernel.
    double instrumented_ns =
        instrumentedNsPerTransition(decoded, compiled_cfg);
    double overhead_pct =
        compiled_ns > 0 ? (instrumented_ns / compiled_ns - 1.0) * 100.0
                        : 0.0;
    std::printf("instrumented ns/transition: %.2f (metrics overhead "
                "%+.2f%%)\n",
                instrumented_ns, overhead_pct);

    // Trace-log codec: the same streams in all three containers, each
    // verified to decode back bit-identically before it is timed.
    std::vector<std::vector<uint8_t>> logs_v1(names.size());
    std::vector<std::vector<uint8_t>> logs_elided(names.size());
    for (size_t k = 0; k < names.size(); ++k) {
        TraceLogOptions v1opt;
        v1opt.version = TraceLogFormat::kVersionV1;
        TraceLogWriter w1(&logs_v1[k], v1opt);
        TraceLogOptions eopt;
        eopt.elideWith = compiled[k];
        TraceLogWriter we(&logs_elided[k], eopt);
        for (const BlockTransition &tr : decoded[k].transitions) {
            w1.append(tr);
            we.append(tr);
        }
        w1.finish();
        we.finish();
    }
    uint64_t total_records = 0;
    for (const DecodedStream &s : decoded)
        total_records += s.transitions.size();
    const char *enc_name[3] = {"v1 raw", "v2 delta", "v2 elided"};
    uint64_t enc_bytes[3] = {0, 0, 0};
    double enc_ns[3] = {0, 0, 0};
    double served_ns[3] = {0, 0, 0};
    for (int enc = 0; enc < 3; ++enc) {
        double weighted_ns = 0, weighted_served = 0;
        for (size_t k = 0; k < names.size(); ++k) {
            const std::vector<uint8_t> &b = enc == 0   ? logs_v1[k]
                                            : enc == 1 ? logs[k]
                                                       : logs_elided[k];
            const CompiledTea *aut =
                enc == 2 ? compiled[k].get() : nullptr;
            std::vector<BlockTransition> back = readTraceLog(b, aut);
            const std::vector<BlockTransition> &want =
                decoded[k].transitions;
            bool same = back.size() == want.size();
            for (size_t i = 0; same && i < back.size(); ++i)
                same = back[i].from == want[i].from &&
                       back[i].toStart == want[i].toStart &&
                       back[i].kind == want[i].kind;
            if (!same) {
                std::fprintf(stderr,
                             "%s container of %s does not decode back "
                             "to the recorded stream\n",
                             enc_name[enc], names[k].c_str());
                return 1;
            }
            enc_bytes[enc] += b.size();
            weighted_ns +=
                decodeNsPerTransition(b, aut) *
                static_cast<double>(want.size());
            weighted_served += servedNsPerRecord(b, decoded[k]) *
                               static_cast<double>(want.size());
        }
        if (total_records != 0) {
            enc_ns[enc] = weighted_ns / static_cast<double>(total_records);
            served_ns[enc] =
                weighted_served / static_cast<double>(total_records);
        }
    }
    double compression_v2 =
        enc_bytes[1] ? static_cast<double>(enc_bytes[0]) /
                           static_cast<double>(enc_bytes[1])
                     : 0.0;
    double compression_elided =
        enc_bytes[2] ? static_cast<double>(enc_bytes[0]) /
                           static_cast<double>(enc_bytes[2])
                     : 0.0;
    double decode_ratio = enc_ns[0] > 0 ? enc_ns[1] / enc_ns[0] : 0.0;
    TextTable codec({"encoding", "bytes", "B/record", "vs v1",
                     "decode ns/rec", "served ns/rec"});
    for (int enc = 0; enc < 3; ++enc)
        codec.addRow(
            {enc_name[enc], std::to_string(enc_bytes[enc]),
             TextTable::num(static_cast<double>(enc_bytes[enc]) /
                                static_cast<double>(total_records),
                            2),
             TextTable::num(static_cast<double>(enc_bytes[0]) /
                                static_cast<double>(enc_bytes[enc]),
                            2),
             TextTable::num(enc_ns[enc], 2),
             TextTable::num(served_ns[enc], 2)});
    std::fputs(codec.render().c_str(), stdout);
    std::printf("log codec: v2 %.2fx smaller than v1 (elided %.2fx), "
                "v2 decode at %.2fx the v1 time; all three decode "
                "bit-identically\n",
                compression_v2, compression_elided, decode_ratio);

    TextTable table({"workers", "batch ms", "streams/s", "speedup"});
    double base_sps = 0.0;
    BatchResult reference;
    std::vector<std::pair<unsigned, double>> worker_sps;
    for (unsigned workers = 1; workers <= std::max(4u, hw);
         workers *= 2) {
        ReplayService service(workers, compiled_cfg);
        service.runBatch(jobs); // warm-up: page in logs, fault stacks
        Stopwatch timer;
        BatchResult batch = service.runBatch(jobs);
        double ms = timer.elapsedMillis();
        if (batch.failures != 0) {
            std::fprintf(stderr, "%zu streams failed\n", batch.failures);
            return 1;
        }
        double sps = ms > 0 ? 1e3 * static_cast<double>(streams) / ms : 0;
        if (workers == 1) {
            base_sps = sps;
            reference = batch;
        } else {
            // Determinism across worker counts, checked at every scale.
            if (batch.total != reference.total) {
                std::fprintf(stderr,
                             "summed stats diverge at %u workers\n",
                             workers);
                return 1;
            }
            for (size_t i = 0; i < batch.streams.size(); ++i) {
                if (batch.streams[i].execCounts !=
                    reference.streams[i].execCounts) {
                    std::fprintf(stderr,
                                 "stream %zu profile diverges at %u "
                                 "workers\n", i, workers);
                    return 1;
                }
            }
        }
        // Kernel bit-identity, re-checked at every worker count: the
        // same batch on the reference kernel must match counter for
        // counter — stats, per-stream profiles, everything.
        {
            ReplayService ref_service(workers, reference_cfg);
            BatchResult ref_batch = ref_service.runBatch(jobs);
            if (ref_batch.failures != 0 ||
                ref_batch.total != batch.total) {
                std::fprintf(stderr,
                             "compiled/reference stats diverge at %u "
                             "workers\n", workers);
                return 1;
            }
            for (size_t i = 0; i < batch.streams.size(); ++i) {
                if (ref_batch.streams[i].execCounts !=
                    batch.streams[i].execCounts) {
                    std::fprintf(stderr,
                                 "compiled/reference profile of stream "
                                 "%zu diverges at %u workers\n", i,
                                 workers);
                    return 1;
                }
            }
        }
        worker_sps.emplace_back(workers, sps);
        table.addRow({std::to_string(workers), TextTable::num(ms, 1),
                      TextTable::num(sps, 1),
                      TextTable::num(base_sps > 0 ? sps / base_sps : 0.0,
                                     2)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("(profiles bit-identical across all worker counts and "
                "both kernels)\n");

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"svc_throughput\",\n");
        std::fprintf(f, "  \"streams\": %zu,\n", streams);
        std::fprintf(f, "  \"nsPerTransitionCompiled\": %.4f,\n",
                     compiled_ns);
        std::fprintf(f, "  \"nsPerTransitionReference\": %.4f,\n",
                     reference_ns);
        std::fprintf(f, "  \"nsPerTransitionInstrumented\": %.4f,\n",
                     instrumented_ns);
        std::fprintf(f, "  \"metricsOverheadPct\": %.4f,\n",
                     overhead_pct);
        std::fprintf(f, "  \"kernelSpeedup\": %.4f,\n", kernel_speedup);
        std::fprintf(f, "  \"logBytesV1\": %llu,\n",
                     static_cast<unsigned long long>(enc_bytes[0]));
        std::fprintf(f, "  \"logBytesV2\": %llu,\n",
                     static_cast<unsigned long long>(enc_bytes[1]));
        std::fprintf(f, "  \"logBytesElided\": %llu,\n",
                     static_cast<unsigned long long>(enc_bytes[2]));
        std::fprintf(f, "  \"compressionV2\": %.4f,\n", compression_v2);
        std::fprintf(f, "  \"compressionElided\": %.4f,\n",
                     compression_elided);
        std::fprintf(f, "  \"decodeNsPerRecordV1\": %.4f,\n", enc_ns[0]);
        std::fprintf(f, "  \"decodeNsPerRecordV2\": %.4f,\n", enc_ns[1]);
        std::fprintf(f, "  \"decodeNsPerRecordElided\": %.4f,\n",
                     enc_ns[2]);
        std::fprintf(f, "  \"decodeRatioV2\": %.4f,\n", decode_ratio);
        std::fprintf(f, "  \"servedNsPerRecordV1\": %.4f,\n",
                     served_ns[0]);
        std::fprintf(f, "  \"servedNsPerRecordV2\": %.4f,\n",
                     served_ns[1]);
        std::fprintf(f, "  \"servedNsPerRecordElided\": %.4f,\n",
                     served_ns[2]);
        std::fprintf(f, "  \"streamsPerSec\": [\n");
        for (size_t i = 0; i < worker_sps.size(); ++i)
            std::fprintf(f,
                         "    {\"workers\": %u, \"streamsPerSec\": "
                         "%.2f}%s\n",
                         worker_sps[i].first, worker_sps[i].second,
                         i + 1 < worker_sps.size() ? "," : "");
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (min_speedup > 0.0 && kernel_speedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: compiled kernel speedup %.2fx below the "
                     "required %.2fx\n", kernel_speedup, min_speedup);
        return 1;
    }
    if (max_overhead > 0.0 && overhead_pct > max_overhead) {
        std::fprintf(stderr,
                     "FAIL: metrics overhead %.2f%% exceeds the "
                     "allowed %.2f%%\n", overhead_pct, max_overhead);
        return 1;
    }
    if (min_compression > 0.0 && compression_v2 < min_compression) {
        std::fprintf(stderr,
                     "FAIL: v2 compression %.2fx below the required "
                     "%.2fx\n", compression_v2, min_compression);
        return 1;
    }
    if (max_decode_ratio > 0.0 && decode_ratio > max_decode_ratio) {
        std::fprintf(stderr,
                     "FAIL: v2 decode at %.2fx the v1 time exceeds "
                     "the allowed %.2fx\n", decode_ratio,
                     max_decode_ratio);
        return 1;
    }
    return 0;
}
