/**
 * @file
 * asim-serve pipelined stepping: one RUN round trip at a time
 * (ping-pong) versus batches of kDepth queued RUNs, against an
 * in-process ServeServer on a Unix-domain socket — the same code path
 * as the daemon binary minus process startup. Rates are single-cycle
 * steps per second of wall time (the daemon works on its own
 * connection threads, so this thread's CPU time would flatter both
 * legs). README's claim that pipelined stepping is over 10x
 * ping-pong on the counter spec rests on this pair; perfbench's
 * `serve` workload never pipelines.
 *
 * Each leg steps for at least kMinSeconds, kReps times, and prints
 * the median rate with the range. Takes no flags:
 *
 *     build/bench_serve
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "machines/counter.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace {

using namespace asim;
using namespace asim::serve;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;
constexpr double kMinSeconds = 0.5;
constexpr int kDepth = 64;

/** Steps per second of `batch` (which takes `steps` steps), sorted,
 *  one per repetition. */
template <typename F>
std::vector<double>
stepsPerSecond(int steps, F &&batch)
{
    std::vector<double> rates;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = Clock::now();
        double seconds = 0;
        uint64_t done = 0;
        do {
            batch();
            done += static_cast<uint64_t>(steps);
            seconds =
                std::chrono::duration<double>(Clock::now() - t0).count();
        } while (seconds < kMinSeconds);
        rates.push_back(static_cast<double>(done) / seconds);
    }
    std::sort(rates.begin(), rates.end());
    return rates;
}

void
report(const char *leg, const std::vector<double> &r)
{
    std::printf("  %-22s %9.0f steps/s (%.0f-%.0f)\n", leg, r[kReps / 2],
                r[0], r[kReps - 1]);
}

} // namespace

int
main()
{
    ServeOptions o;
    o.unixPath = "/tmp/asim_bench_serve_" + std::to_string(::getpid());
    o.stateDir = o.unixPath + ".state";
    std::vector<double> pingPong, pipelined;
    {
        ServeServer server(o);
        server.start();
        ServeClient client(o.unixPath);
        ServeClient::OpenOptions open;
        open.name = "counter";
        open.specText = counterSpec(8, 1000);
        const uint64_t id = client.open(open).id;

        // One cycle per round trip: the protocol floor interactive
        // debuggers pay without pipelining.
        pingPong = stepsPerSecond(1, [&] { client.run(id, 1); });
        // kDepth queued RUNs per flush: requests coalesce into one
        // write, responses into few — the round trip amortizes away.
        pipelined = stepsPerSecond(kDepth, [&] {
            for (int i = 0; i < kDepth; ++i)
                client.sendRun(id, 1);
            for (int i = 0; i < kDepth; ++i)
                client.readRunReply();
        });
        client.closeSession(id);
        server.stop(false);
    }
    std::filesystem::remove_all(o.stateDir);
    std::filesystem::remove(o.unixPath);

    std::printf("serve stepping on counterSpec(8, 1000), median of %d "
                "repetitions (range)\n",
                kReps);
    report("ping-pong", pingPong);
    report(("pipelined, depth " + std::to_string(kDepth)).c_str(),
           pipelined);
    std::printf("  pipelined / ping-pong  %.1fx\n",
                pipelined[kReps / 2] / pingPong[kReps / 2]);
    return 0;
}
