/**
 * @file
 * asim-serve pipelined stepping: one RUN round trip at a time
 * (ping-pong) versus batches of kDepth queued RUNs, against an
 * in-process ServeServer on a Unix-domain socket — the same code path
 * as the daemon binary minus process startup. Rates are single-cycle
 * steps per second of wall time (the daemon works on its own
 * connection threads, so this thread's CPU time would flatter both
 * legs). README's pipelining figure rests on this pair; perfbench's
 * `serve` workload never pipelines.
 *
 * The legs alternate: one ping-pong repetition, then one pipelined
 * repetition, kReps pairs, each repetition stepping for at least
 * kMinSeconds. A shared host's slow spells then fall on both legs of
 * a pair, so the per-pair ratio is steadier than a ratio of medians
 * taken minutes apart. Prints each leg's median rate with the range,
 * and the median and range of the per-pair ratios. Takes no flags:
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

/** Steps per second of one repetition of `batch` (which takes
 *  `steps` steps), repeated for at least kMinSeconds. */
template <typename F>
double
stepsPerSecond(int steps, F &&batch)
{
    const auto t0 = Clock::now();
    double seconds = 0;
    uint64_t done = 0;
    do {
        batch();
        done += static_cast<uint64_t>(steps);
        seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (seconds < kMinSeconds);
    return static_cast<double>(done) / seconds;
}

/** Print `what`'s median and range over the kReps values of `v`,
 *  with `digits` decimals. */
void
report(const char *what, std::vector<double> v, int digits,
       const char *unit)
{
    std::sort(v.begin(), v.end());
    std::printf("  %-22s %9.*f %s (%.*f-%.*f)\n", what, digits,
                v[kReps / 2], unit, digits, v[0], digits, v[kReps - 1]);
}

} // namespace

int
main()
{
    ServeOptions o;
    o.unixPath = "/tmp/asim_bench_serve_" + std::to_string(::getpid());
    o.stateDir = o.unixPath + ".state";
    std::vector<double> pingPong, pipelined, ratios;
    {
        ServeServer server(o);
        server.start();
        ServeClient client(o.unixPath);
        ServeClient::OpenOptions open;
        open.name = "counter";
        open.specText = counterSpec(8, 1000);
        const uint64_t id = client.open(open).id;

        for (int rep = 0; rep < kReps; ++rep) {
            // One cycle per round trip: the protocol floor interactive
            // debuggers pay without pipelining.
            pingPong.push_back(stepsPerSecond(1, [&] { client.run(id, 1); }));
            // kDepth queued RUNs per flush: requests coalesce into one
            // write, responses into few — the round trip amortizes
            // away.
            pipelined.push_back(stepsPerSecond(kDepth, [&] {
                for (int i = 0; i < kDepth; ++i)
                    client.sendRun(id, 1);
                for (int i = 0; i < kDepth; ++i)
                    client.readRunReply();
            }));
            ratios.push_back(pipelined.back() / pingPong.back());
        }
        client.closeSession(id);
        server.stop(false);
    }
    std::filesystem::remove_all(o.stateDir);
    std::filesystem::remove(o.unixPath);

    std::printf("serve stepping on counterSpec(8, 1000), %d alternating "
                "pairs: median (range)\n",
                kReps);
    report("ping-pong", pingPong, 0, "steps/s");
    report(("pipelined, depth " + std::to_string(kDepth)).c_str(),
           pipelined, 0, "steps/s");
    report("pipelined / ping-pong", ratios, 1, "x per pair");
    return 0;
}
