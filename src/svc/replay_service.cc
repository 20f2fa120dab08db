#include "svc/replay_service.hh"

#include <thread>
#include <unordered_map>

#include "obs/trace.hh"
#include "svc/tracelog.hh"
#include "util/logging.hh"
#include "util/mmap.hh"

namespace tea {

ReplayService::ReplayService(size_t workers, LookupConfig config)
    : cfg(config),
      pool(workers != 0 ? workers
                        : std::max(1u, std::thread::hardware_concurrency()))
{
}

namespace {

/**
 * A salvage job: each chunk is validated, then decoded whole before any
 * of it is fed (TraceLogReader::replayChunk), so a torn chunk feeds
 * nothing and ends the stream.
 */
void
replaySalvage(const uint8_t *log, size_t logLen,
              const CompiledTea *decodeTea, TeaReplayer &replayer,
              StreamResult &res)
{
    TraceLogReader reader(log, logLen, TraceLogReader::Mode::Salvage,
                          decodeTea);
    for (;;) {
        uint64_t t0 = obs::monotonicNanos();
        bool more = reader.validateChunk();
        uint64_t t1 = obs::monotonicNanos();
        res.validateNs += t1 - t0;
        if (!more)
            break;
        if (reader.replayChunk(replayer))
            ++res.batches;
        res.walkNs += obs::monotonicNanos() - t1;
    }
    if (reader.torn()) {
        res.salvaged = true;
        res.salvageReason = reader.tornReason();
        res.salvageBytesDropped = reader.bytesDiscarded();
    }
}

} // namespace

StreamResult
runReplayJob(const ReplayJob &job, LookupConfig cfg)
{
    StreamResult res;
    try {
        if (!job.tea && !job.compiled)
            fatal("replay job without an automaton");
        // The job's pinned snapshot doubles as the decode automaton:
        // elided v2 chunks reconstruct through the same CompiledTea
        // the replay walks (null for reference-kernel jobs without a
        // snapshot, which then decode every non-elided log as before).
        const CompiledTea *decodeTea = job.compiled.get();
        // The log, borrowed or mmapped: no copy either way.
        std::shared_ptr<const MappedFile> map;
        const uint8_t *log = nullptr;
        size_t logLen = 0;
        if (job.logBytes) {
            log = job.logBytes->data();
            logLen = job.logBytes->size();
        } else {
            map = MappedFile::openShared(job.logPath);
            log = map->data();
            logLen = map->size();
        }
        // Compiled-only jobs (registry names never carry a Tea)
        // replay on the snapshot alone; the tea-less constructor
        // rejects configs that need the source automaton.
        TeaReplayer replayer =
            job.tea ? TeaReplayer(*job.tea, cfg, job.compiled)
                    : TeaReplayer(job.compiled, cfg);
        if (job.salvage) {
            replaySalvage(log, logLen, decodeTea, replayer, res);
        } else {
            // The served replay's reader, pushed the whole log at once:
            // each chunk is checked, then walked straight into the
            // kernel where it lies, and the phase clock is stamped
            // only at chunk boundaries — three reads per chunk, nothing
            // in the transition loop (the ≤3% instrumentation budget
            // bench/svc_throughput enforces).
            TraceLogPushReader reader(decodeTea);
            reader.push(log, logLen, replayer);
            reader.finish();
            res.validateNs = reader.times().validateNs;
            res.walkNs = reader.times().walkNs;
            res.batches = reader.times().chunks;
        }
        res.stats = replayer.stats();
        res.execCounts.resize(replayer.numStates());
        for (StateId id = 0; id < replayer.numStates(); ++id)
            res.execCounts[id] = replayer.execCount(id);
    } catch (const FatalError &e) {
        res = StreamResult{};
        res.error = e.what();
    }
    return res;
}

void
ReplayService::setMetrics(obs::MetricsRegistry *m)
{
    if (m == nullptr) {
        mBatches = mStreams = mFailures = mTransitions = mSalvaged =
            nullptr;
        return;
    }
    mBatches = &m->counter("svc.batches");
    mStreams = &m->counter("svc.streams");
    mFailures = &m->counter("svc.stream_failures");
    mTransitions = &m->counter("svc.transitions");
    mSalvaged = &m->counter("svc.salvaged");
}

BatchResult
ReplayService::runBatch(const std::vector<ReplayJob> &jobs)
{
    BatchResult batch;
    batch.streams.resize(jobs.size());

    // Compile each distinct automaton exactly once, on the calling
    // thread, before any job runs: N streams over one snapshot must
    // share one CompiledTea, not build N (test_registry_stress pins
    // this with CompiledTea::compileCount()). Jobs that arrive with a
    // compiled snapshot (registry names) keep it. The reference kernel
    // needs the snapshot too: it is the decode automaton of elided
    // logs.
    std::vector<ReplayJob> staged(jobs);
    std::unordered_map<const Tea *, std::shared_ptr<const CompiledTea>>
        compiledBy;
    for (ReplayJob &job : staged) {
        if (!job.tea || job.compiled)
            continue;
        auto &slot = compiledBy[job.tea.get()];
        if (!slot)
            slot = CompiledTea::compile(job.tea);
        job.compiled = slot;
    }

    for (size_t i = 0; i < staged.size(); ++i) {
        const ReplayJob &job = staged[i];
        StreamResult &slot = batch.streams[i];
        pool.submit(
            [&job, &slot, cfg = cfg] { slot = runReplayJob(job, cfg); });
    }
    pool.drain();

    // Merge on the calling thread, in job order: bit-identical to a
    // sequential run no matter how the pool scheduled the jobs.
    bool one_tea = !jobs.empty() && jobs.front().tea != nullptr;
    for (const ReplayJob &job : jobs)
        one_tea = one_tea && job.tea == jobs.front().tea;
    if (one_tea)
        batch.mergedExecCounts.assign(jobs.front().tea->numStates(), 0);

    uint64_t salvaged = 0;
    for (const StreamResult &res : batch.streams) {
        if (res.salvaged)
            ++salvaged;
        if (!res.ok()) {
            ++batch.failures;
            continue;
        }
        batch.total += res.stats;
        if (one_tea)
            for (size_t s = 0; s < res.execCounts.size(); ++s)
                batch.mergedExecCounts[s] += res.execCounts[s];
    }

    // Metric updates ride on the merge, on the calling thread — the
    // workers never touch the registry.
    if (mBatches != nullptr) {
        mBatches->inc();
        mStreams->inc(batch.streams.size());
        mFailures->inc(batch.failures);
        mTransitions->inc(batch.total.transitions);
        mSalvaged->inc(salvaged);
    }
    return batch;
}

} // namespace tea
