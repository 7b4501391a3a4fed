/**
 * @file
 * asim-serve pipelined stepping: one RUN round trip at a time
 * (ping-pong) versus batches of queued RUNs, against an in-process
 * ServeServer on a Unix-domain socket — the same code path as the
 * daemon binary minus process startup. items_per_second is
 * single-cycle steps per second. README's claim that pipelined
 * stepping is >= 10x ping-pong on the counter spec rests on this
 * pair; perfbench's `serve` workload never pipelines.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include <unistd.h>

#include "machines/counter.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace {

using namespace asim;
using namespace asim::serve;

/** One shared daemon + connection for every benchmark in this
 *  binary; sessions are per-benchmark. */
struct Harness
{
    Harness()
    {
        ServeOptions o;
        o.unixPath =
            "/tmp/asim_bench_serve_" + std::to_string(::getpid());
        o.stateDir = o.unixPath + ".state";
        server = std::make_unique<ServeServer>(o);
        server->start();
        client = std::make_unique<ServeClient>(o.unixPath);
    }

    uint64_t
    openCounter(const std::string &name)
    {
        ServeClient::OpenOptions open;
        open.name = name;
        open.specText = counterSpec(8, 1000);
        return client->open(open).id;
    }

    std::unique_ptr<ServeServer> server;
    std::unique_ptr<ServeClient> client;
};

Harness &
harness()
{
    static Harness h;
    return h;
}

/** One cycle per round trip: the protocol floor interactive
 *  debuggers pay without pipelining. */
void
BM_ServeStepPingPong(benchmark::State &state)
{
    Harness &h = harness();
    uint64_t id = h.openCounter("pingpong");
    for (auto _ : state) {
        auto r = h.client->run(id, 1);
        benchmark::DoNotOptimize(r.cycle);
    }
    state.SetItemsProcessed(state.iterations());
    h.client->closeSession(id);
}

/** `depth` queued RUNs per flush: requests coalesce into one write,
 *  responses into few — the round trip amortizes away. */
void
BM_ServeStepPipelined(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    Harness &h = harness();
    uint64_t id = h.openCounter("pipelined");
    for (auto _ : state) {
        for (int i = 0; i < depth; ++i)
            h.client->sendRun(id, 1);
        uint64_t cycle = 0;
        for (int i = 0; i < depth; ++i)
            cycle = h.client->readRunReply().cycle;
        benchmark::DoNotOptimize(cycle);
    }
    state.SetItemsProcessed(state.iterations() * depth);
    state.SetLabel("depth " + std::to_string(depth));
    h.client->closeSession(id);
}

// The daemon does the work on its own connection threads, so the
// benchmark thread's CPU time would flatter every leg: time the wall.
BENCHMARK(BM_ServeStepPingPong)->UseRealTime();
BENCHMARK(BM_ServeStepPipelined)->Arg(64)->UseRealTime();

} // namespace
