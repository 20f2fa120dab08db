/**
 * @file
 * Networked replay under load: 8 concurrent loopback clients against a
 * TeaServer, with idle connections parked on it or a /metrics scraper
 * sharing its listener.
 *
 * Records one `syn.gzip` trace log, uploads the automaton once, then
 * replays a fixed batch of streams through 8 client threads (server
 * sized to 8 workers). In every row the client-side results are
 * checked bit-identical to a local ReplayService::runBatch over the
 * same jobs: per-stream stats, per-stream profiles, and the merged
 * per-TBB profile — the wire adds framing, never drift.
 *
 * The `held` row opens that many extra connections and parks them idle
 * on the server for the whole batch. An idle connection costs the
 * event loop a few hundred bytes and no thread, so the batch runs at
 * full speed with 512+ spectators.
 *
 * There is no client-count sweep: an 8-client speedup over one client
 * read 1.96x in one run and 3.95x in another on the same binary, so it
 * measured connect jitter, not replay throughput. Remote/local bit
 * identity at many clients is what tests/test_net.cc and
 * tests/test_chaos.cc assert.
 *
 * The wire KB/req column counts both directions of every client's
 * socket, divided by the number of replay requests. (The v1-vs-v2
 * wire-size bound is a byte count, not a timing, so tests/test_net.cc
 * asserts it.)
 *
 * The scrape rows re-run the 8-client event-loop configuration with a
 * concurrent HTTP scraper hammering GET /metrics on the same listener
 * at 1 Hz — the Prometheus-shaped workload the exposition endpoint
 * invites — interleaved with as many unscraped ("quiet") rows, so host
 * drift lands on both sides alike. `--min-scrape-ratio X` gates the
 * median scraped throughput at X times the median quiet one (CI pins
 * it at 0.95), so a scrape can never quietly tax the replay path.
 *
 * Usage: net_throughput [--size test|train|ref] [--streams N]
 *                       [--held-open N] [--min-scrape-ratio X]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "svc/replay_service.hh"
#include "svc/tracelog.hh"
#include "tea/builder.hh"
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

/** Client threads (and server workers) of every row. */
constexpr unsigned kClients = 8;

/** Scraped and quiet 8-client batches the scrape gate compares. */
constexpr int kScrapeRounds = 9;

/**
 * Streams in each of those batches (at least --streams). On a 4-thread
 * host a batch of 8 test-size streams lasts 2-5 ms, mostly thread
 * start and connect, and its throughput varied by ±15% round to round;
 * 256 streams last ~100 ms, long enough that the scrape is what
 * differs.
 */
constexpr size_t kScrapeStreams = 256;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t mid = v.size() / 2;
    return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

} // namespace

int
main(int argc, char **argv)
{
    InputSize size = sizeFromArgs(argc, argv);
    size_t streams = 32;
    size_t held_open = 512;
    double min_scrape_ratio = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--streams") && i + 1 < argc)
            streams = static_cast<size_t>(std::atoi(argv[i + 1]));
        if (!std::strcmp(argv[i], "--held-open") && i + 1 < argc)
            held_open = static_cast<size_t>(std::atoi(argv[i + 1]));
        if (!std::strcmp(argv[i], "--min-scrape-ratio") && i + 1 < argc)
            min_scrape_ratio = std::atof(argv[i + 1]);
    }
    if (streams == 0)
        streams = 1;

    // One workload so the merged per-TBB profile is populated (the
    // batch merge is only defined when every stream shares a TEA).
    Workload w = Workloads::build("syn.gzip", size);
    auto tea = std::make_shared<const Tea>(
        buildTea(recordWithDbt(w, "mret")));
    std::vector<uint8_t> log = recordLog(w.program);

    // Local references: the same batches through ReplayService.
    std::vector<ReplayJob> jobs(streams, ReplayJob{tea, "", &log});
    ReplayService local(1);
    BatchResult reference = local.runBatch(jobs);
    BatchResult scrapeReference = local.runBatch(std::vector<ReplayJob>(
        std::max(streams, kScrapeStreams), jobs.front()));
    if (reference.failures != 0 || scrapeReference.failures != 0) {
        std::fprintf(stderr, "local reference batch failed\n");
        return 1;
    }

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("net_throughput: %zu streams of %.1f MiB over loopback "
                "TCP from %u clients, host has %u hardware threads\n",
                streams, static_cast<double>(log.size()) / (1 << 20),
                kClients, hw);

    TextTable table({"run", "held", "batch ms", "streams/s",
                     "wire KB/req"});

    // One measured configuration, a table row labelled `run`:
    // kClients threads splitting the batch of `ref` round-robin
    // against a fresh server, with `heldOpen` extra idle connections
    // parked on it and (when `scrape` is set) a concurrent 1 Hz HTTP
    // /metrics scraper on the same listener for the duration. Every
    // result must equal `ref`'s. Returns streams/sec, or a negative
    // value after printing the failure.
    auto runRow = [&](const char *run, size_t heldOpen, bool scrape,
                      const BatchResult &ref) -> double {
        size_t batch = ref.streams.size();
        ServerConfig cfg;
        cfg.endpoint = "tcp:127.0.0.1:0";
        cfg.workers = kClients;
        TeaServer server(cfg);
        server.start();
        std::string ep = server.endpoint();
        {
            TeaClient admin = TeaClient::connect(ep);
            admin.putAutomaton("gzip", *tea);
        }

        // The idle pile goes up before the clock starts; pacing keeps
        // the connect burst inside the listener backlog.
        std::vector<Socket> held;
        held.reserve(heldOpen);
        for (size_t i = 0; i < heldOpen; ++i) {
            held.push_back(Socket::connectTo(Endpoint::parse(ep)));
            if ((i & 0xff) == 0xff)
                while (server.activeSessions() + 256 < held.size())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
        }

        // The scraper starts before the clock and runs for the whole
        // batch: one GET /metrics immediately and then once per
        // second, so even a sub-second batch is scraped at least once.
        std::atomic<bool> scrapeStop{false};
        std::atomic<uint64_t> scrapes{0};
        std::atomic<int> scrapeFailed{0};
        std::thread scraper;
        if (scrape)
            scraper = std::thread([&] {
                try {
                    do {
                        HttpReply resp = httpGet(ep, "/metrics");
                        if (resp.status != 200 ||
                            resp.body.find("# EOF") == std::string::npos) {
                            scrapeFailed.store(1);
                            return;
                        }
                        scrapes.fetch_add(1);
                        for (int tick = 0;
                             tick < 100 && !scrapeStop.load(); ++tick)
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(10));
                    } while (!scrapeStop.load());
                } catch (const FatalError &e) {
                    std::fprintf(stderr, "scraper: %s\n", e.what());
                    scrapeFailed.store(1);
                }
            });

        // Streams round-robined over the clients; every client keeps
        // its connection for its whole share of the batch.
        std::vector<StreamResult> results(batch);
        std::vector<int> failed(kClients, 0);
        std::vector<uint64_t> wire(kClients, 0);
        Stopwatch timer;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    TeaClient client = TeaClient::connect(ep);
                    RemoteReplayOptions opt;
                    opt.wantProfile = true;
                    for (size_t s = c; s < batch; s += kClients) {
                        RemoteReplayResult r =
                            client.replay("gzip", log, opt);
                        results[s].stats = r.stats;
                        results[s].execCounts = std::move(r.execCounts);
                    }
                    wire[c] =
                        client.bytesSent() + client.bytesReceived();
                } catch (const FatalError &e) {
                    std::fprintf(stderr, "client %u: %s\n", c, e.what());
                    failed[c] = 1;
                }
            });
        }
        for (auto &t : threads)
            t.join();
        double ms = timer.elapsedMillis();
        if (scraper.joinable()) {
            scrapeStop.store(true);
            scraper.join();
            if (scrapeFailed.load() != 0 || scrapes.load() == 0) {
                std::fprintf(stderr,
                             "scraper failed or never completed a "
                             "scrape (%llu ok)\n",
                             static_cast<unsigned long long>(
                                 scrapes.load()));
                return -1.0;
            }
        }
        for (unsigned c = 0; c < kClients; ++c)
            if (failed[c])
                return -1.0;
        held.clear();
        server.stop();

        // Bit-identical to the local batch: per-stream and merged.
        std::vector<uint64_t> merged(tea->numStates(), 0);
        for (size_t s = 0; s < batch; ++s) {
            if (!(results[s].stats == ref.streams[s].stats) ||
                results[s].execCounts != ref.streams[s].execCounts) {
                std::fprintf(stderr,
                             "stream %zu diverges from the local batch "
                             "(%s row)\n",
                             s, run);
                return -1.0;
            }
            for (size_t i = 0; i < results[s].execCounts.size(); ++i)
                merged[i] += results[s].execCounts[i];
        }
        if (merged != ref.mergedExecCounts) {
            std::fprintf(stderr, "merged profile diverges (%s row)\n",
                         run);
            return -1.0;
        }

        double sps = ms > 0 ? 1e3 * static_cast<double>(batch) / ms : 0;
        uint64_t wire_total = 0;
        for (uint64_t b : wire)
            wire_total += b;
        table.addRow({run, std::to_string(heldOpen), TextTable::num(ms, 1),
                      TextTable::num(sps, 1),
                      TextTable::num(static_cast<double>(wire_total) /
                                         static_cast<double>(batch) /
                                         1024.0,
                                     1)});
        return sps;
    };

    // The held-open pile: 8 clients replaying past the idle spectators.
    if (held_open > 0 && runRow("held", held_open, false, reference) < 0)
        return 1;

    // The scrape gate's rounds: the same 8-client batch without and
    // with the 1 Hz /metrics scraper sharing the listener, alternated.
    std::vector<double> quiet;
    std::vector<double> scraped;
    for (int round = 0; round < kScrapeRounds; ++round) {
        quiet.push_back(runRow("quiet", 0, false, scrapeReference));
        scraped.push_back(runRow("scrape", 0, true, scrapeReference));
        if (quiet.back() < 0 || scraped.back() < 0)
            return 1;
    }

    std::fputs(table.render().c_str(), stdout);
    std::printf("(remote results bit-identical to the local batch in "
                "every row; held = idle connections parked "
                "on the server for the whole batch)\n");

    double scraped_sps = median(scraped);
    double quiet_sps = median(quiet);
    double scrape_ratio = quiet_sps > 0 ? scraped_sps / quiet_sps : 0.0;
    std::printf("scraped vs unscraped at 8 clients, medians of %d "
                "interleaved rounds: %.1f vs %.1f streams/s (%.2fx under "
                "a 1 Hz /metrics scraper)\n",
                kScrapeRounds, scraped_sps, quiet_sps, scrape_ratio);
    if (min_scrape_ratio > 0 && scrape_ratio < min_scrape_ratio) {
        std::printf("FAIL: scraped throughput only %.2fx of unscraped, "
                    "gate requires %.2fx\n",
                    scrape_ratio, min_scrape_ratio);
        return 1;
    }
    if (min_scrape_ratio > 0)
        std::printf("PASS: scrape ratio %.2fx >= %.2fx\n", scrape_ratio,
                    min_scrape_ratio);
    return 0;
}
