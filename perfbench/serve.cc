/**
 * @file
 * Workload `serve`: the real asim-serve daemon on a Unix socket with a
 * fresh state directory, loaded by a closed loop of 2 connections (half
 * of a 4-core host; the daemon's per-connection threads get the other
 * half). Each connection owns a vm and a native sieve session and
 * sends a seeded mix: RUN of 1-64 cycles, VALUE, SNAPSHOT then
 * RESTORE, and EVICT followed by a RUN that resumes the session. A
 * session that reaches HALT restarts from its cycle-0 snapshot. The
 * protocol, the socket hop, session park/resume and checkpoint
 * encode/decode do the work; the engine loop does little. The
 * untraced run's vm rate comes from whole-episode RUNs instead (see
 * vmEpisodes).
 */

#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "machines/stack_machine.hh"
#include "serve/client.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/rand.hh"
#include "support/subprocess.hh"
#include "support/tracing.hh"

namespace perfbench {

using namespace asim;
using asim::serve::ServeClient;

namespace {

enum Op
{
    kRun,
    kValue,
    kSnapshot,
    kRestore,
    kEvict,
    kResume,
    kOpCount
};

const char *const kOpNames[kOpCount] = {"run",     "value", "snapshot",
                                        "restore", "evict", "resume"};

struct Sample
{
    Op op;
    double us; ///< client-side round trip
};

struct Session
{
    bool vm = true;
    uint64_t id = 0;
    std::string restartBlob; ///< checkpoint at cycle 0
    uint64_t cycle = 0;      ///< cycles run in the current episode
    std::string out;         ///< RUN output of the current episode
    std::vector<std::pair<uint64_t, std::string>> episodes;
};

/** One closed-loop client: a connection and its two sessions. */
struct Conn
{
    std::unique_ptr<ServeClient> client;
    Session sessions[2];
    SplitMix64 rng{0};
    std::vector<Sample> samples;
    Report report; ///< this thread's operations
};

/** The daemon process; Subprocess kills and reaps it on every path. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &sock,
           const std::string &stateDir)
        : sock_(sock)
    {
        std::filesystem::remove(sock);
        std::filesystem::remove_all(stateDir);
        proc_.start({bin, "--socket=" + sock, "--state-dir=" + stateDir,
                     "--quiet"});
    }

    /** Connect, retrying while the daemon binds its socket. */
    std::unique_ptr<ServeClient> connect() const
    {
        const auto t0 = Clock::now();
        for (;;) {
            try {
                return std::make_unique<ServeClient>("unix:" + sock_);
            } catch (const SimError &) {
                if (secondsSince(t0) > 30)
                    throw;
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
    }

    /** Ask the daemon to exit and wait for it. */
    void shutdown(ServeClient &client)
    {
        client.shutdownServer();
        proc_.waitExit();
    }

  private:
    std::string sock_;
    Subprocess proc_;
};

constexpr int kConnections = 2;

/** Start a daemon and open every session: the serve set-up. */
std::unique_ptr<Daemon>
startServing(const Args &args, const SieveMachine &m,
             std::vector<Conn> &conns)
{
    auto daemon = std::make_unique<Daemon>(
        args.serveBin, args.outDir + "/serve.sock",
        args.outDir + "/serve-state");
    for (int c = 0; c < kConnections; ++c) {
        conns[c].client = daemon->connect();
        for (int s = 0; s < 2; ++s) {
            ServeClient::OpenOptions o;
            o.name = "c" + std::to_string(c) + (s == 0 ? "-vm" : "-native");
            o.specText = m.specText;
            o.engine = s == 0 ? "vm" : "native";
            o.io = serve::SessionIo::Script;
            conns[c].sessions[s].vm = s == 0;
            conns[c].sessions[s].id = conns[c].client->open(o).id;
        }
    }
    return daemon;
}

/** Output length after each cycle of an in-process run, up to the
 *  longest episode a session can run (HALT + one maximal RUN). */
std::vector<size_t>
outputPrefixLengths(const SieveMachine &m)
{
    std::ostringstream out;
    SimulationOptions o;
    o.specText = m.specText;
    o.ioMode = IoMode::Script;
    o.ioOut = &out;
    Simulation sim(o);
    std::vector<size_t> len{0};
    for (uint64_t c = 0; c < m.haltCycle + 64; ++c) {
        sim.step();
        len.push_back(out.str().size());
    }
    return len;
}

/**
 * One request of the seeded mix (two for SNAPSHOT+RESTORE and
 * EVICT+resume). The weights are an assumption, not a measured tenant
 * mix: the repo holds no recorded serve traffic. RUN leads (60%)
 * because stepping is what a session exists for; VALUE (20%) is the
 * debugger-style probe between steps; SNAPSHOT+RESTORE (12%) and
 * EVICT+resume (8%) are sized so the checkpoint encode/decode and the
 * park/resume paths each run hundreds of times a second, enough for a
 * steady resume_p50_us.
 */
void
oneStep(Conn &conn, const SieveMachine &m, bool spans)
{
    Session &s = conn.sessions[conn.rng.below(2)];
    ServeClient &cl = *conn.client;
    auto timed = [&](Op op, auto &&call) {
        const uint64_t spanStart = spans ? metrics::nowNs() : 0;
        const auto t0 = Clock::now();
        call();
        const double us = secondsSince(t0) * 1e6;
        conn.samples.push_back({op, us});
        if (spans)
            tracing::completeEvent(kOpNames[op], "bench.serve", spanStart,
                                   metrics::nowNs() - spanStart);
    };
    auto run = [&](Op op) {
        const uint64_t k = 1 + conn.rng.below(64);
        ServeClient::RunResult r;
        timed(op, [&] { r = cl.run(s.id, k); });
        s.cycle += k;
        s.out += r.output;
        conn.report.op(r.cycle == s.cycle, "RUN reply at the wrong cycle");
    };

    try {
        if (s.cycle >= m.haltCycle) {
            // Episode over: restart the program from cycle 0.
            s.episodes.emplace_back(s.cycle, std::move(s.out));
            s.out.clear();
            s.cycle = 0;
            uint64_t at = 1;
            timed(kRestore, [&] { at = cl.restore(s.id, s.restartBlob); });
            conn.report.op(at == 0, "restart RESTORE at the wrong cycle");
            return;
        }
        const uint64_t r = conn.rng.below(100);
        if (r < 60) {
            run(kRun);
        } else if (r < 80) {
            int32_t v = -1;
            timed(kValue, [&] { v = cl.value(s.id, "state"); });
            conn.report.op(v >= 0, "VALUE out of range");
        } else if (r < 92) {
            std::string blob;
            timed(kSnapshot, [&] { blob = cl.snapshot(s.id); });
            uint64_t at = 0;
            timed(kRestore, [&] { at = cl.restore(s.id, blob); });
            conn.report.op(at == s.cycle, "RESTORE at the wrong cycle");
        } else {
            // One operation with the resuming RUN, which gates it.
            timed(kEvict, [&] { cl.evict(s.id); });
            run(kResume);
        }
    } catch (const SimError &e) {
        conn.report.op(false, std::string("serve: ") + e.what());
    }
}

/** Run every connection's closed loop on its own thread, until
 *  `seconds` pass or (when `requests` holds counts) exactly that many
 *  loop steps each. Returns the steps each connection made. */
std::vector<size_t>
closedLoop(std::vector<Conn> &conns, const SieveMachine &m,
           double seconds, const std::vector<size_t> &requests,
           bool spans)
{
    std::vector<size_t> steps(conns.size(), 0);
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (size_t c = 0; c < conns.size(); ++c) {
        threads.emplace_back([&, c] {
            try {
                // Spans for the first requests only, to bound the trace.
                while (requests.empty() ? secondsSince(t0) < seconds
                                        : steps[c] < requests[c]) {
                    oneStep(conns[c], m, spans && steps[c] < 5000);
                    ++steps[c];
                }
            } catch (const std::exception &e) {
                conns[c].report.op(false, std::string("serve: ") + e.what());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return steps;
}

/**
 * The vm throughput a client gets from the daemon: one connection
 * replays whole sieve episodes on its vm session (RESTORE to cycle 0,
 * then one RUN to HALT), so the engine loop, not the socket hop, sets
 * the rate. Every episode's output must be the sieve's. Returns the
 * rate over client-side RUN time, at reference speed (see
 * CalibratedRate).
 */
double
vmEpisodes(Conn &conn, const SieveMachine &m, double seconds)
{
    Session &s = conn.sessions[0];
    s.episodes.emplace_back(s.cycle, std::move(s.out));
    s.out.clear();
    s.cycle = 0;
    CalibratedRate rate;
    const auto t0 = Clock::now();
    try {
        while (secondsSince(t0) < seconds) {
            const uint64_t at = conn.client->restore(s.id, s.restartBlob);
            const auto r0 = Clock::now();
            const ServeClient::RunResult r =
                conn.client->run(s.id, m.haltCycle);
            rate.add(double(m.haltCycle), secondsSince(r0));
            conn.report.op(at == 0 && r.cycle == m.haltCycle &&
                               r.output == m.expected,
                           "serve vm episode diverged");
        }
        conn.client->restore(s.id, s.restartBlob);
    } catch (const SimError &e) {
        conn.report.op(false, std::string("serve: ") + e.what());
    }
    return vmRate("serve", rate);
}

/** Every session's RUN output, episode by episode, against an
 *  in-process run of the same cycles. */
void
verifyOutputs(std::vector<Conn> &conns, const SieveMachine &m,
              const std::vector<size_t> &prefix, Report &report)
{
    for (auto &conn : conns) {
        for (auto &s : conn.sessions) {
            s.episodes.emplace_back(s.cycle, s.out);
            for (const auto &[cycles, out] : s.episodes) {
                if (cycles == 0)
                    continue; // nothing ran: nothing to check
                const size_t n =
                    prefix[std::min<uint64_t>(cycles, prefix.size() - 1)];
                report.op(out == m.expected.substr(0, n),
                          std::string("serve ") + (s.vm ? "vm" : "native") +
                              " output differs from an in-process run "
                              "after " + std::to_string(cycles) +
                              " cycles");
            }
            s.episodes.clear();
        }
    }
}

/** Latency and throughput figures over `samples`. */
struct Figures
{
    double reqPerS = 0, p50 = 0, p90 = 0, resumeP50 = 0;
    double opP50[kOpCount] = {};
    double valueMeanUs = 0;
};

Figures
figures(const std::vector<Conn> &conns, double wall)
{
    Figures f;
    std::vector<double> all, perOp[kOpCount];
    for (const auto &conn : conns) {
        for (const Sample &s : conn.samples) {
            all.push_back(s.us);
            perOp[s.op].push_back(s.us);
        }
    }
    f.reqPerS = double(all.size()) / wall;
    f.p50 = quantile(all, 0.5);
    f.p90 = quantile(all, 0.9);
    f.resumeP50 = median(perOp[kResume]);
    for (int op = 0; op < kOpCount; ++op)
        f.opP50[op] = median(perOp[op]);
    for (double us : perOp[kValue])
        f.valueMeanUs += us / double(perOp[kValue].size());
    return f;
}

/** Mean of histogram `name` in a METRICS scrape (0 when absent). */
double
scrapeHistogramMean(const std::string &scrape, const std::string &name)
{
    const std::string key = "\"" + name + "\":{\"count\":";
    auto at = scrape.find(key);
    if (at == std::string::npos)
        return 0;
    const double count =
        std::strtod(scrape.c_str() + at + key.size(), nullptr);
    auto sum = scrape.find("\"sum\":", at);
    if (count <= 0 || sum == std::string::npos)
        return 0;
    return std::strtod(scrape.c_str() + sum + 6, nullptr) / count;
}

double
scrapeCounter(const std::string &scrape, const std::string &name)
{
    const std::string key = "\"" + name + "\":";
    auto at = scrape.find(key);
    return at == std::string::npos
               ? 0
               : std::strtod(scrape.c_str() + at + key.size(), nullptr);
}

/** The layers under the daemon's checkpoint and native paths, timed
 *  in-process on the served machine: codegen and host compile (a
 *  native OPEN), checkpoint encode/decode and vm/native snapshot and
 *  restore (SNAPSHOT, RESTORE, park and resume). */
void
probeLayers(const Args &args, const SieveMachine &m, Report &report)
{
    std::ostringstream vmIo, nativeIo;
    SimulationOptions o;
    o.specText = m.specText;
    o.ioMode = IoMode::Script;
    o.ioOut = &vmIo;
    o.engine = "vm";
    Simulation vm(o);
    Layers layers;
    codegenProbe(vm.resolved(), args.outDir + "/serve-codegen-probe",
                 layers, report);
    const std::string dir = args.outDir + "/serve-native-probe";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    o.ioOut = &nativeIo;
    o.engine = "native";
    o.workDir = dir;
    Simulation native(o);
    checkpointProbe(vm, &native, m.haltCycle / 2, report);
}

} // namespace

void
runServe(const Args &args, Report &report)
{
    const SieveMachine m = makeSieve(
        args.smoke ? 10 + int(args.seed % 5) : sieveSizeForSeed(args.seed));
    const std::vector<size_t> prefix = outputPrefixLengths(m);
    std::cout << "serve: sieve size " << m.size << ", HALT at cycle "
              << m.haltCycle << ", " << kConnections << " connections\n";

    const std::string traceFile = args.outDir + "/trace-serve.json";
    if (args.trace && !startTrace(traceFile))
        throw SimError("cannot write " + traceFile);

    // Set-up: daemon start until every session is open; the median of
    // several, each a fresh daemon (so a fresh native build).
    std::vector<Conn> conns(kConnections);
    std::unique_ptr<Daemon> daemon;
    std::vector<double> setups;
    const int setupReps = args.trace || args.smoke ? 1 : 5;
    for (int i = 0; i < setupReps; ++i) {
        if (daemon) {
            daemon->shutdown(*conns[0].client);
            daemon.reset();
            for (auto &c : conns)
                c.client.reset();
        }
        const SetupTimer setup;
        daemon = startServing(args, m, conns);
        setups.push_back(setup.stop());
    }
    report.metric("setup_s", median(setups), "s");

    for (int c = 0; c < kConnections; ++c) {
        conns[c].rng = SplitMix64::forIndex(args.seed, uint64_t(c));
        for (auto &s : conns[c].sessions)
            s.restartBlob = conns[c].client->snapshot(s.id);
    }

    if (!args.trace) {
        // A third of the window runs the gated mix; the rest replays
        // whole episodes on one vm session. RUNs of the mix last a
        // few microseconds, so a vm rate taken from them would measure
        // the socket hop and the host's wake-up latency instead.
        closedLoop(conns, m, args.seconds / 3, {}, false);
        report.metric("cycles_per_s.vm",
                      vmEpisodes(conns[0], m, args.seconds * 2 / 3),
                      "cycles/s");
    } else {
        const auto phase0 = Clock::now();
        const std::vector<size_t> steps =
            closedLoop(conns, m, args.seconds, {}, true);
        const double tracedWall = secondsSince(phase0);
        const Figures traced = figures(conns, tracedWall);
        const std::string scrape = conns[0].client->metricsJson();
        for (int op = 0; op < kOpCount; ++op)
            report.metric(std::string("serve.rtt_us.") + kOpNames[op],
                          traced.opP50[op], "us");
        for (const char *op :
             {"open", "run", "value", "snapshot", "restore", "evict"})
            report.metric(std::string("serve.request_ns.") + op,
                          scrapeHistogramMean(
                              scrape, std::string("serve.request_ns.") + op),
                          "ns");
        // Means on both sides: the daemon's histograms keep only
        // coarse buckets, so their quantiles cannot be paired with the
        // client's.
        report.metric("serve.hop_us",
                      traced.valueMeanUs -
                          scrapeHistogramMean(scrape,
                                              "serve.request_ns.value") /
                              1e3,
                      "us");
        // Per request, so the figures do not grow with throughput.
        double requests = 0;
        for (const auto &c : conns)
            requests += double(c.samples.size());
        report.metric("serve.evictions",
                      scrapeCounter(scrape, "serve.evictions") / requests,
                      "1/req");
        report.metric("serve.resumes",
                      scrapeCounter(scrape, "serve.resumes") / requests,
                      "1/req");
        probeLayers(args, m, report);
        stopTrace();

        // The same request counts again, untraced.
        for (auto &c : conns)
            c.samples.clear();
        const auto untraced0 = Clock::now();
        closedLoop(conns, m, 0, steps, false);
        const double untracedWall = secondsSince(untraced0);
        const Figures plain = figures(conns, untracedWall);
        report.metric("bench.trace_overhead", tracedWall / untracedWall,
                      "ratio");
        report.metric("req_per_s", plain.reqPerS, "req/s");
        report.metric("req_p50_us", plain.p50, "us");
        report.metric("req_p90_us", plain.p90, "us");
        report.metric("resume_p50_us", plain.resumeP50, "us");
    }

    verifyOutputs(conns, m, prefix, report);
    daemon->shutdown(*conns[0].client);
    for (auto &c : conns)
        report.merge(c.report);
    std::filesystem::remove_all(args.outDir + "/serve-state");
}

} // namespace perfbench
