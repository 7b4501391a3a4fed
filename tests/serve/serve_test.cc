/** @file
 * asim-serve tests: protocol round trips against an in-process
 * ServeServer, byte-identity of session output versus direct
 * Simulation runs, concurrent multi-tenant sessions, pipelined
 * stepping, explicit and idle-sweep eviction with transparent
 * resume, daemon-restart (and simulated-kill) recovery, the error
 * surface, and end-to-end runs of the real `asim-serve` and
 * `asim-run --connect` binaries.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "machines/counter.hh"
#include "machines/synthetic.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "support/metrics.hh"
#include "sim/checkpoint.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"

namespace asim::serve {
namespace {

const char *kEchoSpec = "# integer echo\n"
                        "= 9\n"
                        "in out .\n"
                        "M in 1 0 2 1\n"
                        "M out 1 in 3 1\n"
                        ".\n";

const std::vector<int32_t> kEchoInputs = {11, 22, 33, 44, 55,
                                          66, 77, 88, 99, 110};

/** The session's byte stream, computed the direct way: one stream
 *  takes both scripted-I/O rendering and (optionally) the trace. */
std::string
directOutput(const ServeClient::OpenOptions &o, uint64_t cycles)
{
    std::ostringstream os;
    SimulationOptions opts;
    opts.specText = o.specText;
    opts.ioMode =
        o.io == SessionIo::Script ? IoMode::Script : IoMode::Null;
    opts.scriptInputs = o.inputs;
    opts.config.aluSemantics =
        o.aluFixed ? AluSemantics::Fixed : AluSemantics::Thesis;
    opts.ioOut = &os;
    if (o.trace)
        opts.traceStream = &os;
    Simulation sim(opts);
    sim.run(cycles);
    return os.str();
}

ServeClient::OpenOptions
echoOpen(const std::string &name)
{
    ServeClient::OpenOptions o;
    o.name = name;
    o.specText = kEchoSpec;
    o.io = SessionIo::Script;
    o.inputs = kEchoInputs;
    return o;
}

ServeClient::OpenOptions
counterOpen(const std::string &name)
{
    ServeClient::OpenOptions o;
    o.name = name;
    o.specText = counterSpec(4, 100);
    o.trace = true;
    return o;
}

/** Scripted echo beside a traced counter: a session whose byte
 *  stream interleaves I/O and trace. */
ServeClient::OpenOptions
tracedEchoOpen(const std::string &name)
{
    ServeClient::OpenOptions o = echoOpen(name);
    o.specText = "# echo beside a traced counter\n"
                 "= 9\n"
                 "in out count* next .\n"
                 "A next 4 count.0.3 1\n"
                 "M count 0 next 1 1\n"
                 "M in 1 0 2 1\n"
                 "M out 1 in 3 1\n"
                 ".\n";
    o.trace = true;
    return o;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, std::string_view bytes)
{
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Scratch area + short socket path (sockaddr_un caps paths at
 *  ~108 bytes, so everything lives directly under /tmp). */
class Serve : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *test = ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        base_ = "/tmp/asrv_" + std::to_string(::getpid()) + "_" +
                test;
        std::filesystem::remove_all(base_);
        std::filesystem::create_directories(base_);
        sock_ = base_ + "/s";
    }

    void TearDown() override { std::filesystem::remove_all(base_); }

    std::string stateDir() const { return base_ + "/state"; }

    /** File names in the state directory, sorted. */
    std::vector<std::string>
    stateFiles() const
    {
        std::vector<std::string> names;
        for (const auto &e :
             std::filesystem::directory_iterator(stateDir()))
            names.push_back(e.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    }

    /** Empty the state directory, as before a daemon (re)start. */
    void
    resetState() const
    {
        std::filesystem::remove_all(stateDir());
        std::filesystem::create_directories(stateDir());
    }

    ServeOptions
    serveOpts() const
    {
        ServeOptions o;
        o.unixPath = sock_;
        o.stateDir = stateDir();
        return o;
    }

    std::string base_;
    std::string sock_;
};

// ---------------------------------------------------------------------
// Round trips and byte-identity against direct runs.
// ---------------------------------------------------------------------

TEST_F(Serve, RoundTripMatchesDirectSimulation)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto open = echoOpen("echo");
    auto session = client.open(open);
    EXPECT_NE(session.id, 0u);
    EXPECT_EQ(session.cycle, 0u);
    EXPECT_FALSE(session.resumed);
    // "= 9" is 10 thesis iterations (Simulation::defaultCycles).
    EXPECT_EQ(session.defaultCycles, 10);

    auto run = client.run(session.id, 9);
    EXPECT_EQ(run.cycle, 9u);
    EXPECT_EQ(run.output, directOutput(open, 9));
    EXPECT_EQ(client.value(session.id, "out"), 99);
    client.closeSession(session.id);
    EXPECT_THROW(client.run(session.id, 1), SimError);
}

TEST_F(Serve, TracedSessionStreamsTheTrace)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto open = counterOpen("counter");
    auto session = client.open(open);
    auto run = client.run(session.id, 6);
    std::string expect = directOutput(open, 6);
    ASSERT_FALSE(expect.empty());
    EXPECT_EQ(run.output, expect);
}

TEST_F(Serve, SplitRunsStreamDeltas)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto open = echoOpen("echo");
    auto session = client.open(open);
    std::string total;
    total += client.run(session.id, 3).output;
    total += client.run(session.id, 2).output;
    auto last = client.run(session.id, 4);
    total += last.output;
    EXPECT_EQ(last.cycle, 9u);
    EXPECT_EQ(total, directOutput(open, 9));
}

TEST_F(Serve, PipelinedSteppingMatchesOneAtATime)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto open = echoOpen("echo");
    auto session = client.open(open);
    for (int i = 0; i < 9; ++i)
        client.sendRun(session.id, 1);
    std::string total;
    uint64_t cycle = 0;
    for (int i = 0; i < 9; ++i) {
        auto reply = client.readRunReply();
        EXPECT_EQ(reply.cycle, static_cast<uint64_t>(i + 1));
        cycle = reply.cycle;
        total += reply.output;
    }
    EXPECT_EQ(cycle, 9u);
    EXPECT_EQ(total, directOutput(open, 9));
}

TEST_F(Serve, ReopeningAttachesToTheLiveSession)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient a(sock_);
    auto open = echoOpen("shared");
    auto first = a.open(open);
    a.run(first.id, 4);

    // Another connection attaches by name — with or without the
    // spec text — and sees the same session mid-flight.
    ServeClient b(sock_);
    ServeClient::OpenOptions attach;
    attach.name = "shared";
    auto second = b.open(attach);
    EXPECT_EQ(second.id, first.id);
    EXPECT_EQ(second.cycle, 4u);
    auto third = b.open(open);
    EXPECT_EQ(third.id, first.id);
}

// ---------------------------------------------------------------------
// Concurrency: many clients, many sessions, one daemon.
// ---------------------------------------------------------------------

TEST_F(Serve, ConcurrentClientsKeepSessionsByteIdentical)
{
    ServeServer server(serveOpts());
    server.start();

    constexpr int kClients = 4;
    constexpr int kSessionsEach = 2;
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                ServeClient client(sock_);
                for (int s = 0; s < kSessionsEach; ++s) {
                    std::string name = "t" + std::to_string(c) +
                                       "_" + std::to_string(s);
                    // Alternate tenants between the scripted echo
                    // and the traced counter.
                    auto open = (c + s) % 2 ? counterOpen(name)
                                            : echoOpen(name);
                    auto session = client.open(open);
                    std::string total;
                    for (int chunk = 0; chunk < 3; ++chunk)
                        total +=
                            client.run(session.id, 3).output;
                    if (total != directOutput(open, 9))
                        throw SimError(name + ": output diverged");
                    client.closeSession(session.id);
                }
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(errors[c], "") << "client " << c;
}

// ---------------------------------------------------------------------
// Eviction: explicit, idle-sweep, and resume across restarts.
// ---------------------------------------------------------------------

TEST_F(Serve, ExplicitEvictThenContinueIsByteIdentical)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto open = echoOpen("parked");
    auto session = client.open(open);
    std::string total = client.run(session.id, 4).output;

    client.evict(session.id);
    // One file per parked session: the checkpoint, no sidecar.
    EXPECT_EQ(stateFiles(), std::vector<std::string>{"parked.ckpt"});

    // Any command transparently resumes the parked session.
    auto run = client.run(session.id, 5);
    total += run.output;
    EXPECT_EQ(run.cycle, 9u);
    EXPECT_EQ(total, directOutput(open, 9));

    std::string stats = server.statsJson();
    EXPECT_NE(stats.find("\"evictions\":1"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"resumes\":1"), std::string::npos)
        << stats;
}

TEST_F(Serve, IdleSweepParksSessionsAutomatically)
{
    ServeOptions o = serveOpts();
    o.evictAfterMs = 50;
    o.sweepIntervalMs = 10;
    ServeServer server(o);
    server.start();

    ServeClient client(sock_);
    auto open = counterOpen("idle");
    auto session = client.open(open);
    std::string total = client.run(session.id, 2).output;

    // The sweep parks the idle session without any client action.
    std::string ckpt = stateDir() + "/idle.ckpt";
    for (int i = 0; i < 200 && !std::filesystem::exists(ckpt); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(std::filesystem::exists(ckpt)) << "never swept";
    EXPECT_FALSE(std::filesystem::exists(stateDir() + "/idle.meta"));

    total += client.run(session.id, 4).output;
    EXPECT_EQ(total, directOutput(open, 6));
}

TEST_F(Serve, GracefulRestartResumesSessionsByName)
{
    auto open = echoOpen("durable");
    std::string total;
    uint64_t firstHash = 0;
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        auto session = client.open(open);
        firstHash = session.specHash;
        total += client.run(session.id, 4).output;
        server.stop(/*parkSessions=*/true);
    }
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        // Attach without re-uploading the spec: the parked
        // checkpoint carries the full rebuild recipe.
        ServeClient::OpenOptions attach;
        attach.name = "durable";
        auto session = client.open(attach);
        EXPECT_TRUE(session.resumed);
        EXPECT_EQ(session.cycle, 4u);
        EXPECT_EQ(session.specHash, firstHash);
        auto run = client.run(session.id, 5);
        total += run.output;
        EXPECT_EQ(run.cycle, 9u);
    }
    EXPECT_EQ(total, directOutput(open, 9));
}

TEST_F(Serve, HardKillKeepsParkedSessionsLosesLiveOnes)
{
    auto openA = echoOpen("evicted");
    auto openB = echoOpen("live");
    std::string totalA;
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        auto a = client.open(openA);
        totalA += client.run(a.id, 4).output;
        client.evict(a.id);
        auto b = client.open(openB);
        client.run(b.id, 4);
        server.stop(/*parkSessions=*/false); // simulated SIGKILL
    }
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        ServeClient::OpenOptions attach;
        attach.name = "evicted";
        auto a = client.open(attach);
        EXPECT_TRUE(a.resumed);
        EXPECT_EQ(a.cycle, 4u);
        totalA += client.run(a.id, 5).output;
        EXPECT_EQ(totalA, directOutput(openA, 9));

        attach.name = "live";
        EXPECT_THROW(client.open(attach), SimError);
    }
}

// ---------------------------------------------------------------------
// Kill at every write point. Parking is one atomic write (temp file +
// rename) and CLOSE one unlink, so a kill leaves the previous parked
// generation (or nothing) plus `<name>.ckpt.tmp` cut at any length,
// or the new generation in place. A restarted daemon must resume
// every such state to a byte stream identical to an uninterrupted
// run's.
// ---------------------------------------------------------------------

TEST_F(Serve, KillAtEveryParkWritePointResumesByteIdentically)
{
    const auto open = tracedEchoOpen("k");
    const std::string want = directOutput(open, 9);
    const std::string ckpt = stateDir() + "/k.ckpt";
    std::string returned4; // output RUN returned before each park
    std::string returned6;
    std::string genA; // parked at cycle 4
    std::string genB; // parked at cycle 6
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        auto s = client.open(open);
        returned4 = client.run(s.id, 4).output;
        client.evict(s.id);
        genA = readBytes(ckpt);
        returned6 = returned4 + client.run(s.id, 2).output;
        client.evict(s.id);
        genB = readBytes(ckpt);
        server.stop(/*parkSessions=*/false);
    }
    ASSERT_FALSE(genA.empty());
    ASSERT_FALSE(genB.empty());

    // Restart the daemon over the state directory as it stands and
    // continue session "k" to cycle 9.
    auto resume = [&](const std::string &state, const std::string &returned,
                      uint64_t cycle) {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        ServeClient::OpenOptions attach;
        attach.name = "k";
        auto s = client.open(attach);
        EXPECT_TRUE(s.resumed) << state;
        EXPECT_EQ(s.cycle, cycle) << state;
        EXPECT_EQ(returned + client.run(s.id, 9 - cycle).output, want)
            << state;
        server.stop(/*parkSessions=*/false);
    };

    // Killed during the first park: nothing was committed, so the
    // session was still live and is lost; a fresh OPEN starts over.
    for (size_t len = 0; len <= genA.size(); ++len) {
        resetState();
        writeBytes(ckpt + ".tmp", genA.substr(0, len));
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        ServeClient::OpenOptions attach;
        attach.name = "k";
        EXPECT_THROW(client.open(attach), SimError) << len;
        auto s = client.open(open);
        EXPECT_FALSE(s.resumed);
        EXPECT_EQ(client.run(s.id, 9).output, want) << len;
        server.stop(/*parkSessions=*/false);
    }
    // Killed during the second park: the first generation resumes.
    for (size_t len = 0; len <= genB.size(); ++len) {
        resetState();
        writeBytes(ckpt, genA);
        writeBytes(ckpt + ".tmp", genB.substr(0, len));
        resume("temp file cut at " + std::to_string(len), returned4, 4);
    }
    resetState();
    writeBytes(ckpt, genB);
    resume("second generation in place", returned6, 6);
}

TEST_F(Serve, KillAroundCloseLeavesAResumableOrAbsentSession)
{
    const auto open = tracedEchoOpen("c");
    const std::string want = directOutput(open, 9);
    const std::string ckpt = stateDir() + "/c.ckpt";
    std::string returned;
    std::string parked;
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        auto s = client.open(open);
        returned = client.run(s.id, 4).output;
        client.evict(s.id);
        parked = readBytes(ckpt);
        client.closeSession(s.id);
        EXPECT_TRUE(stateFiles().empty()) << "CLOSE removes the file";
    }

    // Killed before CLOSE's unlink: the parked session resumes.
    resetState();
    writeBytes(ckpt, parked);
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        ServeClient::OpenOptions attach;
        attach.name = "c";
        auto s = client.open(attach);
        EXPECT_TRUE(s.resumed);
        EXPECT_EQ(returned + client.run(s.id, 5).output, want);
        server.stop(/*parkSessions=*/false);
    }

    // Killed after it: the session is gone; a fresh OPEN starts over.
    resetState();
    {
        ServeServer server(serveOpts());
        server.start();
        ServeClient client(sock_);
        ServeClient::OpenOptions attach;
        attach.name = "c";
        EXPECT_THROW(client.open(attach), SimError);
        auto s = client.open(open);
        EXPECT_FALSE(s.resumed);
        EXPECT_EQ(client.run(s.id, 9).output, want);
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore over the wire.
// ---------------------------------------------------------------------

TEST_F(Serve, SnapshotBlobIsACheckpointFile)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto session = client.open(echoOpen("snap"));
    client.run(session.id, 4);
    std::string blob = client.snapshot(session.id);

    CheckpointInfo info;
    EngineSnapshot snap = decodeCheckpoint(blob, "mem", &info);
    EXPECT_EQ(info.cycle, 4u);
    EXPECT_EQ(info.specHash, session.specHash);
    EXPECT_EQ(snap.cycle, 4u);

    // ... and round-trips back through RESTORE.
    client.run(session.id, 5);
    EXPECT_EQ(client.restore(session.id, blob), 4u);
    EXPECT_EQ(client.run(session.id, 5).cycle, 9u);
}

TEST_F(Serve, RestoreRejectsBlobsFromAnotherSpec)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto counter = client.open(counterOpen("counter"));
    client.run(counter.id, 3);
    std::string blob = client.snapshot(counter.id);

    auto echo = client.open(echoOpen("echo"));
    EXPECT_THROW(client.restore(echo.id, blob), SimError);
}

// ---------------------------------------------------------------------
// The error surface: hostile or confused clients get diagnostics,
// never a dead daemon.
// ---------------------------------------------------------------------

TEST_F(Serve, ErrorsAreDiagnosticAndNonFatal)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto bad = echoOpen("../evil");
    EXPECT_THROW(client.open(bad), SimError);

    ServeClient::OpenOptions attach;
    attach.name = "nosuch";
    EXPECT_THROW(client.open(attach), SimError);

    EXPECT_THROW(client.run(12345, 1), SimError);
    EXPECT_THROW(client.value(12345, "out"), SimError);

    auto broken = echoOpen("broken");
    broken.specText = "this is not a spec";
    EXPECT_THROW(client.open(broken), SimError);

    // A session name can't be reused for a different spec.
    auto first = client.open(echoOpen("taken"));
    auto conflict = counterOpen("taken");
    EXPECT_THROW(client.open(conflict), SimError);

    // The connection survives every error above.
    EXPECT_EQ(client.run(first.id, 9).cycle, 9u);
}

TEST_F(Serve, OpenRefusesHostileRecipes)
{
    ServeServer server(serveOpts());
    server.start();
    ServeClient client(sock_);

    // 4 billion lanes on a design large enough to partition would
    // size per-lane vectors and a thread pool to match.
    SyntheticOptions wide;
    wide.alus = 200;
    wide.selectors = 40;
    wide.memories = 20;
    auto open = echoOpen("wide");
    open.specText = generateSyntheticText(wide);
    open.partitions = 0xFFFFFFFFu;
    try {
        client.open(open);
        FAIL() << "expected ERR";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_EQ(msg.rfind("server: ", 0), 0u) << msg;
        EXPECT_NE(msg.find("session partitions"), std::string::npos)
            << msg;
    }

    auto badIo = echoOpen("badio");
    badIo.io = static_cast<SessionIo>(7);
    try {
        client.open(badIo);
        FAIL() << "expected ERR";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("session io mode"),
                  std::string::npos)
            << e.what();
    }

    // The daemon lives on, and neither name was taken.
    auto ok = echoOpen("wide");
    auto session = client.open(ok);
    EXPECT_FALSE(session.resumed);
    EXPECT_EQ(client.run(session.id, 9).output, directOutput(ok, 9));
}

TEST_F(Serve, ParkedFileWithBadRecipeIsRefused)
{
    // CRC-valid checkpoints: one whose recipe asks for too many
    // lanes, one with no recipe section at all.
    SimulationOptions o;
    o.specText = kEchoSpec;
    o.ioMode = IoMode::Null;
    Simulation sim(o);
    auto recipe = echoOpen("bad");
    recipe.partitions = 0xFFFFFFFFu;
    ByteWriter w;
    encodeSessionRecipe(w, recipe);
    CheckpointSections sections;
    sections.session = w.take();
    resetState();
    writeBytes(stateDir() + "/bad.ckpt",
               encodeCheckpoint(sim.snapshot(), sim.specHash(), "vm",
                                sections));
    writeBytes(stateDir() + "/bare.ckpt",
               encodeCheckpoint(sim.snapshot(), sim.specHash(), "vm"));

    ServeServer server(serveOpts());
    server.start();
    ServeClient client(sock_);
    ServeClient::OpenOptions attach;
    attach.name = "bad";
    try {
        client.open(attach);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bad.ckpt"), std::string::npos) << msg;
        EXPECT_NE(msg.find("session partitions"), std::string::npos)
            << msg;
    }
    attach.name = "bare";
    try {
        client.open(attach);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("no session recipe"),
                  std::string::npos)
            << e.what();
    }
    auto ok = echoOpen("fine");
    EXPECT_EQ(client.run(client.open(ok).id, 9).output,
              directOutput(ok, 9));
}

TEST_F(Serve, TcpEndpointSpeaksTheSameProtocol)
{
    ServeOptions o = serveOpts();
    o.unixPath.clear();
    o.tcpPort = 0; // ephemeral
    ServeServer server(o);
    server.start();

    ServeClient client("tcp:127.0.0.1:" +
                       std::to_string(server.tcpPort()));
    auto open = echoOpen("tcp");
    auto session = client.open(open);
    EXPECT_EQ(client.run(session.id, 9).output,
              directOutput(open, 9));
}

TEST_F(Serve, StatsJsonReportsThroughputAndCacheHits)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto session = client.open(echoOpen("stats"));
    client.run(session.id, 9);

    std::string stats = client.statsJson();
    EXPECT_NE(stats.find("\"sessions_opened\":1"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"run_commands\":1"), std::string::npos);
    EXPECT_NE(stats.find("\"vm\""), std::string::npos);
    EXPECT_NE(stats.find("\"cycles\":9"), std::string::npos);
    EXPECT_NE(stats.find("native_compile_cache_hits"),
              std::string::npos);
}

TEST_F(Serve, StatsJsonCarriesUptimePeakAndPerOpcodeCounts)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto session = client.open(echoOpen("statsplus"));
    client.run(session.id, 4);
    client.run(session.id, 5);

    std::string stats = client.statsJson();
    EXPECT_NE(stats.find("\"uptime_seconds\":"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"peak_sessions_live\":1"),
              std::string::npos)
        << stats;
    // Per-opcode request counts (DESIGN.md §9): 1 hello, 1 open,
    // 2 runs; the stats request itself is in flight, so its own
    // count was taken before the reply was built.
    EXPECT_NE(stats.find("\"requests\":{"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"hello\":1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"open\":1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"run\":2"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"unknown\":0"), std::string::npos) << stats;
}

// ---------------------------------------------------------------------
// METRICS (protocol v3) and version negotiation.
// ---------------------------------------------------------------------

TEST_F(Serve, MetricsRoundTripExposesTheRegistry)
{
    const bool wasTimed = metrics::timingEnabled();
    metrics::setTimingEnabled(true); // as the daemon binary does

    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    EXPECT_EQ(client.serverVersion(), kProtocolVersion);
    auto open = echoOpen("metrics");
    auto session = client.open(open);
    std::string output = client.run(session.id, 9).output;

    std::string scrape = client.metricsJson();
    EXPECT_NE(scrape.find("\"uptime_seconds\":"), std::string::npos)
        << scrape;
    EXPECT_NE(scrape.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(scrape.find("\"registry\":{"), std::string::npos);
    // Request latencies populate per opcode once timing is on.
    EXPECT_NE(scrape.find("serve.request_ns.run"), std::string::npos)
        << scrape;
    EXPECT_NE(scrape.find("serve.sessions_live"), std::string::npos);
    EXPECT_NE(scrape.find("serve.sessions_opened"),
              std::string::npos);

    // Scraping never disturbs session results.
    EXPECT_EQ(output, directOutput(open, 9));

    metrics::setTimingEnabled(wasTimed);
}

TEST_F(Serve, V2ClientNegotiatesAndIsRefusedMetrics)
{
    ServeServer server(serveOpts());
    server.start();

    // Hand-rolled v2 handshake: the server must echo version 2 (the
    // reply an old client's `version != kProtocolVersion` check
    // accepts) and answer ERR to the v3-only METRICS opcode.
    FrameChannel ch(connectEndpoint(sock_));
    ByteWriter hello;
    hello.u8(static_cast<uint8_t>(Op::Hello));
    hello.str(std::string(kHelloMagic));
    hello.u32(2);
    ASSERT_TRUE(ch.writeFrame(hello.data()));
    std::string resp;
    ASSERT_TRUE(ch.readFrame(resp));
    {
        ByteReader r(resp, "hello reply");
        EXPECT_EQ(r.u8("status"),
                  static_cast<uint8_t>(Status::Ok));
        EXPECT_EQ(r.u32("version"), 2u);
    }

    ByteWriter metricsReq;
    metricsReq.u8(static_cast<uint8_t>(Op::Metrics));
    ASSERT_TRUE(ch.writeFrame(metricsReq.data()));
    ASSERT_TRUE(ch.readFrame(resp));
    {
        ByteReader r(resp, "metrics reply");
        EXPECT_EQ(r.u8("status"),
                  static_cast<uint8_t>(Status::Error));
        EXPECT_NE(r.str("error").find("protocol v3"),
                  std::string::npos);
    }

    // The connection survives; STATS still works at v2.
    ByteWriter stats;
    stats.u8(static_cast<uint8_t>(Op::Stats));
    ASSERT_TRUE(ch.writeFrame(stats.data()));
    ASSERT_TRUE(ch.readFrame(resp));
    {
        ByteReader r(resp, "stats reply");
        EXPECT_EQ(r.u8("status"),
                  static_cast<uint8_t>(Status::Ok));
        EXPECT_NE(r.str("stats json").find("sessions_live"),
                  std::string::npos);
    }
}

TEST_F(Serve, UnsupportedHelloVersionIsRejected)
{
    ServeServer server(serveOpts());
    server.start();

    FrameChannel ch(connectEndpoint(sock_));
    ByteWriter hello;
    hello.u8(static_cast<uint8_t>(Op::Hello));
    hello.str(std::string(kHelloMagic));
    hello.u32(1); // older than kMinProtocolVersion
    ASSERT_TRUE(ch.writeFrame(hello.data()));
    std::string resp;
    ASSERT_TRUE(ch.readFrame(resp));
    ByteReader r(resp, "hello reply");
    EXPECT_EQ(r.u8("status"), static_cast<uint8_t>(Status::Error));
    EXPECT_NE(r.str("error").find("protocol mismatch"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Native sessions: per-session subprocess isolation, shared
// compile cache across tenants.
// ---------------------------------------------------------------------

class ServeNative : public Serve
{
  protected:
    void
    SetUp() override
    {
        if (!NativeEngine::available())
            GTEST_SKIP() << "no host compiler";
        Serve::SetUp();
    }
};

TEST_F(ServeNative, NativeTenantsShareTheCompileCache)
{
    ServeServer server(serveOpts());
    server.start();

    ServeClient client(sock_);
    auto openOne = counterOpen("native1");
    openOne.engine = "native";
    auto openTwo = counterOpen("native2");
    openTwo.engine = "native";

    auto one = client.open(openOne);
    auto two = client.open(openTwo);
    EXPECT_EQ(client.run(one.id, 6).output,
              directOutput(openOne, 6));
    EXPECT_EQ(client.run(two.id, 6).output,
              directOutput(openTwo, 6));

    // Two native OPENs of one spec: the second hits the cache.
    std::string stats = client.statsJson();
    EXPECT_NE(stats.find("\"native_compile_requests\":2"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"native_compile_cache_hits\":1"),
              std::string::npos)
        << stats;
}

// ---------------------------------------------------------------------
// The real binaries, end to end.
// ---------------------------------------------------------------------

#if defined(ASIM_SERVE_BIN) && defined(ASIM_RUN_BIN)

TEST_F(Serve, DaemonBinaryServesAndShutsDownCleanly)
{
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::string sockArg = "--socket=" + sock_;
        std::string stateArg = "--state-dir=" + base_ + "/state";
        ::execl(ASIM_SERVE_BIN, "asim-serve", sockArg.c_str(),
                stateArg.c_str(), "--quiet", (char *)nullptr);
        ::_exit(127);
    }

    // The daemon binds before serving; retry until it's up.
    std::unique_ptr<ServeClient> client;
    for (int i = 0; i < 100 && !client; ++i) {
        try {
            client = std::make_unique<ServeClient>(sock_);
        } catch (const SimError &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }
    ASSERT_TRUE(client) << "daemon never came up";

    auto open = echoOpen("e2e");
    auto session = client->open(open);
    EXPECT_EQ(client->run(session.id, 9).output,
              directOutput(open, 9));
    client->shutdownServer();

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon exit status " << status;
}

TEST_F(Serve, AsimRunConnectMatchesDirectRun)
{
    ServeServer server(serveOpts());
    server.start();

    std::string specFile = base_ + "/counter.spec";
    std::ofstream(specFile) << counterSpec(4, 100);
    std::string outFile = base_ + "/out.txt";

    std::string cmd = std::string(ASIM_RUN_BIN) +
                      " --connect=unix:" + sock_ +
                      " --cycles=6 " + specFile + " > " + outFile +
                      " 2> " + base_ + "/err.txt";
    int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << "asim-run --connect failed, rc=" << rc;

    std::ifstream got(outFile);
    std::string output{std::istreambuf_iterator<char>(got),
                       std::istreambuf_iterator<char>()};
    // The CLI opens with trace on by default; the counter's starred
    // component makes the trace the whole output.
    auto open = counterOpen("ignored");
    EXPECT_EQ(output, directOutput(open, 6));

    // Admin mode: --server-stats without a spec.
    std::string statsFile = base_ + "/stats.json";
    cmd = std::string(ASIM_RUN_BIN) + " --connect=unix:" + sock_ +
          " --server-stats > " + statsFile + " 2> /dev/null";
    rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0);
    std::ifstream sf(statsFile);
    std::string stats{std::istreambuf_iterator<char>(sf),
                      std::istreambuf_iterator<char>()};
    EXPECT_NE(stats.find("\"sessions_opened\":1"),
              std::string::npos)
        << stats;
}

#endif // ASIM_SERVE_BIN && ASIM_RUN_BIN

} // namespace
} // namespace asim::serve
