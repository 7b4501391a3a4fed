/** @file
 * Tests of the BatchRunner subsystem: shared immutable artifacts
 * (one resolve, one vm program) across a batch, per-instance I/O
 * scripts and watchpoints, fault isolation, manifest loading, the
 * out-of-process refusal — and the headline determinism property:
 * batch results are byte-identical across thread counts for both
 * in-process engine families.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fault.hh"
#include "machines/counter.hh"
#include "machines/tiny_computer.hh"
#include "sim/batch.hh"
#include "sim/compiler.hh"
#include "sim/native_engine.hh"
#include "sim/vm.hh"
#include "support/thread_pool.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

std::string
specPath(const std::string &name)
{
    return std::string(ASIM_SPECS_DIR) + "/" + name;
}

/** Integer-echo machine (same shape as specs/echo.asim). */
const char *kEchoSpec = "# integer echo\n"
                        "= 4\n"
                        "in out .\n"
                        "M in 1 0 2 1\n"
                        "M out 1 in 3 1\n"
                        ".\n";

/** A machine that faults at cycle 11: a counter addressing a 10-cell
 *  memory with its own value. */
const char *kFaultSpec = "# walks off the end of mem at cycle 11\n"
                         "count* next .\n"
                         "A next 4 count 1\n"
                         "M count 0 next 1 1\n"
                         "M mem count count 1 10\n"
                         ".\n";

TEST(BatchRunnerTest, HomogeneousBatchSharesResolveAndProgram)
{
    BatchJob job;
    job.options.specFile = specPath("gcd.asim");
    BatchRunner runner;
    runner.addBatch(job, 4);
    EXPECT_EQ(runner.jobCount(), 4u);

    BatchResult result = runner.run();
    ASSERT_EQ(result.instances.size(), 4u);
    for (const auto &r : result.instances) {
        EXPECT_FALSE(r.faulted) << r.fault;
        EXPECT_EQ(r.cyclesRun, 41u); // `= 40` is inclusive
    }
    // gcd(1071, 462) = 21 in every instance's final state.
    const ResolvedSpec rs =
        Simulation::loadSpec([&] {
            SimulationOptions o;
            o.specFile = specPath("gcd.asim");
            return o;
        }());
    int aSlot = rs.memIndex("a");
    ASSERT_GE(aSlot, 0);
    for (const auto &r : result.instances)
        EXPECT_EQ(r.state.latches()[aSlot], 21);
}

/** `count` instances built off one shareBatchArtifacts(opts). */
std::vector<std::unique_ptr<Simulation>>
sharedInstances(const SimulationOptions &opts, size_t count)
{
    const SimulationOptions shared = Simulation::shareBatchArtifacts(opts);
    std::vector<std::unique_ptr<Simulation>> sims;
    for (size_t i = 0; i < count; ++i)
        sims.push_back(std::make_unique<Simulation>(shared));
    return sims;
}

TEST(BatchRunnerTest, VmInstancesShareOneCompiledProgram)
{
    SimulationOptions opts;
    opts.specText = counterSpec(6, 100);
    auto sims = sharedInstances(opts, 3);
    ASSERT_EQ(sims.size(), 3u);

    const auto *first = dynamic_cast<const Vm *>(&sims[0]->engine());
    ASSERT_NE(first, nullptr);
    for (auto &sim : sims) {
        EXPECT_EQ(&sim->resolved(), &sims[0]->resolved());
        const auto *vm = dynamic_cast<const Vm *>(&sim->engine());
        ASSERT_NE(vm, nullptr);
        EXPECT_EQ(vm->programShared().get(),
                  first->programShared().get())
            << "batch must share one compiled program";
    }
}

TEST(BatchRunnerTest, SharedProgramKeepsTraceChecksForCaptureTrace)
{
    // fig43_memory traces memory reads and writes; the shared vm
    // program of a homogeneous batch must keep those trace checks
    // when captureTrace attaches its sink only at run time.
    BatchJob job;
    job.options.specFile = specPath("fig43_memory.asim");
    job.captureTrace = true;

    BatchRunner viaJob;
    viaJob.addJob(job);
    std::string single = viaJob.run().instances[0].traceText;
    ASSERT_NE(single.find("Write to memory at"), std::string::npos)
        << single;
    ASSERT_NE(single.find("Read from memory at"), std::string::npos);

    BatchRunner viaBatch;
    viaBatch.addBatch(job, 3);
    BatchResult result = viaBatch.run();
    for (const auto &r : result.instances)
        EXPECT_EQ(r.traceText, single) << r.index;
}

TEST(BatchRunnerTest, CaptureTraceRefusesAnUntracedSharedProgram)
{
    // A program shared without trace checks would drop every memory
    // trace line from the captured trace; the instance refuses it.
    BatchJob job;
    job.options.specFile = specPath("fig43_memory.asim");
    job.options = Simulation::shareBatchArtifacts(job.options, false);
    job.captureTrace = true;
    BatchRunner runner;
    runner.addJob(job);
    try {
        runner.run();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_STREQ(e.what(), "shared vm program was compiled without "
                               "trace checks but a trace sink is "
                               "configured");
    }
}

// ---------------------------------------------------------------------
// Native batches: one compiled and loaded library, every instance
// running on its own state (skipped without a host compiler).
// ---------------------------------------------------------------------

class NativeBatch : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!NativeEngine::available())
            GTEST_SKIP() << "no host compiler";
    }
};

TEST_F(NativeBatch, InstancesShareOneCompiledBinary)
{
    SimulationOptions opts;
    opts.specText = counterSpec(6, 100);
    opts.engine = "native";
    auto sims = sharedInstances(opts, 3);
    ASSERT_EQ(sims.size(), 3u);

    const auto *first =
        dynamic_cast<const NativeEngine *>(&sims[0]->engine());
    ASSERT_NE(first, nullptr);
    for (auto &sim : sims) {
        const auto *ne =
            dynamic_cast<const NativeEngine *>(&sim->engine());
        ASSERT_NE(ne, nullptr);
        EXPECT_EQ(&ne->build(), &first->build())
            << "batch must share one compiled library";
    }
    // Each instance advances its own state off the one shared build.
    for (size_t i = 0; i < sims.size(); ++i)
        sims[i]->run(10 * (i + 1));
    for (size_t i = 0; i < sims.size(); ++i) {
        EXPECT_EQ(sims[i]->value("count"),
                  static_cast<int32_t>(10 * (i + 1)));
    }
}

TEST_F(NativeBatch, MatchesVmBatchOnEveryChannel)
{
    auto runEngine = [&](const char *engine) {
        BatchJob job;
        job.options.specFile = specPath("gcd.asim");
        job.options.engine = engine;
        job.captureTrace = true;
        BatchRunner runner;
        runner.addBatch(job, 3);
        return runner.run();
    };
    BatchResult native = runEngine("native");
    BatchResult vm = runEngine("vm");
    ASSERT_EQ(native.instances.size(), vm.instances.size());
    for (size_t i = 0; i < native.instances.size(); ++i) {
        EXPECT_FALSE(native.instances[i].faulted)
            << native.instances[i].fault;
        EXPECT_EQ(native.instances[i].traceText,
                  vm.instances[i].traceText)
            << i;
        EXPECT_EQ(native.instances[i].ioText, vm.instances[i].ioText);
        EXPECT_TRUE(native.instances[i].state == vm.instances[i].state)
            << "instance " << i << " final state differs";
        EXPECT_EQ(native.instances[i].cyclesRun,
                  vm.instances[i].cyclesRun);
    }
}

TEST(BatchRunnerTest, RefusesInteractiveIo)
{
    BatchJob job;
    job.options.specText = kEchoSpec;
    job.options.ioMode = IoMode::Interactive;
    BatchRunner runner;
    EXPECT_THROW(runner.addJob(job), SimError);
}

TEST(BatchRunnerTest, PerInstanceIoScripts)
{
    BatchRunner runner;
    for (int i = 0; i < 3; ++i) {
        BatchJob job;
        job.options.specText = kEchoSpec;
        job.options.ioMode = IoMode::Script;
        for (int k = 0; k < 5; ++k)
            job.options.scriptInputs.push_back(100 * i + k);
        job.label = "echo" + std::to_string(i);
        runner.addJob(std::move(job));
    }
    BatchResult result = runner.run();
    ASSERT_EQ(result.instances.size(), 3u);
    EXPECT_EQ(result.instances[0].ioText, "0\n1\n2\n3\n4\n");
    EXPECT_EQ(result.instances[1].ioText,
              "100\n101\n102\n103\n104\n");
    EXPECT_EQ(result.instances[2].ioText,
              "200\n201\n202\n203\n204\n");
}

TEST(BatchRunnerTest, WatchpointStopsEarly)
{
    BatchJob job;
    job.options.specFile = specPath("gcd.asim");
    job.watchName = "a";
    job.watchValue = 21;
    BatchRunner runner;
    runner.addJob(job);
    BatchResult result = runner.run();
    const InstanceResult &r = result.instances[0];
    EXPECT_TRUE(r.watchpointHit);
    EXPECT_LT(r.cyclesRun, r.cyclesRequested);
    EXPECT_FALSE(r.faulted);
}

TEST(BatchRunnerTest, FaultIsolatedToItsInstance)
{
    BatchRunner runner;
    BatchJob ok;
    ok.options.specText = counterSpec(4, 100);
    ok.cycles = 50;
    runner.addJob(ok);

    BatchJob bad;
    bad.options.specText = kFaultSpec;
    bad.cycles = 50;
    runner.addJob(bad);

    BatchResult result = runner.run();
    EXPECT_FALSE(result.allOk());
    EXPECT_FALSE(result.instances[0].faulted);
    EXPECT_EQ(result.instances[0].cyclesRun, 50u);
    EXPECT_TRUE(result.instances[1].faulted);
    EXPECT_NE(result.instances[1].fault.find("mem"),
              std::string::npos)
        << result.instances[1].fault;
    EXPECT_LT(result.instances[1].cyclesRun, 50u);
    EXPECT_EQ(result.aggregate.faults, 1u);
    EXPECT_NE(result.summaryTable().find("FAULT"),
              std::string::npos);
}

TEST(BatchRunnerTest, MissingCycleBudgetThrows)
{
    BatchJob job;
    job.options.specText = "# no cycle count\n"
                           "count* next .\n"
                           "A next 4 count 1\n"
                           "M count 0 next 1 1\n"
                           ".\n";
    BatchRunner runner;
    runner.addJob(job);
    EXPECT_THROW(runner.run(), SimError);
}

/** Checkpoint files a batch left in `dir` (one per instance that
 *  ran; none when the batch was refused before any ran). */
size_t
checkpointsIn(const std::filesystem::path &dir)
{
    size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++n;
    }
    return n;
}

/** Instances are built on the pool's workers, yet a bad job is a
 *  batch configuration problem, not an instance fault: it reaches
 *  the caller, the lowest failing index's under any thread count.
 *  The jobs share one resolve, so no spec load can refuse them: the
 *  runner's serial checks must, before any instance runs. */
TEST(BatchRunnerTest, ConstructionErrorReachesTheCaller)
{
    SimulationOptions shared;
    shared.specText = counterSpec(4, 100);
    shared = Simulation::shareBatchArtifacts(shared);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "asim_batch_bad_job";
    struct Bad
    {
        const char *fault;
        const char *engine;
        unsigned partitions;
        const char *says;
    };
    for (const Bad &bad :
         {Bad{"nosuch:1:toggle@3", "vm", 0, "nosuch"},
          Bad{"", "nosuch", 0, "nosuch"},
          Bad{"", "vm", 2, "partition"}}) {
        for (unsigned threads : {1u, 2u}) {
            std::filesystem::remove_all(dir);
            BatchOptions opts;
            opts.threads = threads;
            opts.checkpointDir = dir.string();
            BatchRunner runner(opts);
            for (int k = 0; k < 4; ++k) {
                BatchJob job;
                job.options = shared;
                job.cycles = 20;
                if (k % 2 == 1) {
                    job.options.fault = bad.fault;
                    job.options.engine = bad.engine;
                    job.options.partitions = bad.partitions;
                }
                runner.addJob(job);
            }
            try {
                runner.run();
                FAIL() << "expected an error, " << threads << " threads";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find(bad.says),
                          std::string::npos)
                    << e.what();
            }
            EXPECT_EQ(checkpointsIn(dir), 0u) << bad.says;
        }
    }

    // A vm job handed another spec's program passes the serial
    // checks but fails to build: the error still reaches the caller,
    // and no later instance starts.
    SimulationOptions foreign = shared;
    foreign.program = std::make_shared<const Program>(
        compileProgram(resolveText(counterSpec(6, 100))));
    for (unsigned threads : {1u, 2u}) {
        std::filesystem::remove_all(dir);
        BatchOptions opts;
        opts.threads = threads;
        opts.checkpointDir = dir.string();
        BatchRunner runner(opts);
        for (int k = 0; k < 8; ++k) {
            BatchJob job;
            job.options = shared;
            job.cycles = 20;
            if (k == 1)
                job.options = foreign;
            runner.addJob(job);
        }
        try {
            runner.run();
            FAIL() << "expected SimError, " << threads << " threads";
        } catch (const SimError &e) {
            EXPECT_STREQ(e.what(), "shared vm program was compiled from "
                                   "a different specification");
        }
        if (threads == 1) { // inline, in index order: index 0 ran
            EXPECT_EQ(checkpointsIn(dir), 1u);
        }
    }
    std::filesystem::remove_all(dir);
}

/** A watchpoint naming no component is a configuration error, like a
 *  bad fault: the serial checks refuse it before any instance runs. */
TEST(BatchRunnerTest, UnknownWatchIsRefusedBeforeAnyInstanceRuns)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "asim_batch_bad_watch";
    std::filesystem::remove_all(dir);
    BatchOptions opts;
    opts.checkpointDir = dir.string();
    BatchRunner runner(opts);
    BatchJob job;
    job.options.specFile = specPath("counter.asim");
    job.cycles = 5;
    runner.addJob(job);
    job.watchName = "nosuch";
    job.watchValue = 1;
    runner.addJob(job);
    try {
        runner.run();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_STREQ(e.what(), "batch job 1 (counter.asim): unknown "
                               "component <nosuch>");
    }
    EXPECT_EQ(checkpointsIn(dir), 0u);
    std::filesystem::remove_all(dir);
}

TEST(BatchRunnerTest, AggregateMatchesInstanceSums)
{
    BatchJob job;
    job.options.specFile = specPath("multiplier.asim");
    BatchRunner runner;
    runner.addBatch(job, 5);
    BatchResult result = runner.run();

    uint64_t cycles = 0, alu = 0;
    for (const auto &r : result.instances) {
        cycles += r.stats.cycles;
        alu += r.stats.aluEvals;
    }
    EXPECT_EQ(result.aggregate.tasks, 5u);
    EXPECT_EQ(result.aggregate.cycles, cycles);
    EXPECT_EQ(result.aggregate.aluEvals, alu);
    EXPECT_GT(result.aggregate.cycles, 0u);
}

TEST(BatchRunnerTest, JsonReportIsShapedAndEscaped)
{
    BatchJob job;
    job.options.specText = kEchoSpec;
    job.options.ioMode = IoMode::Script;
    job.options.scriptInputs = {1, 2, 3, 4, 5};
    BatchRunner runner;
    runner.addJob(job);
    BatchResult result = runner.run();
    std::string json = result.json();
    EXPECT_NE(json.find("\"instances\": ["), std::string::npos);
    EXPECT_NE(json.find("\"cycles_per_second\""), std::string::npos);
    // Newlines in captured I/O must be escaped, never literal.
    EXPECT_NE(json.find("1\\n2\\n3\\n4\\n5\\n"), std::string::npos)
        << json;
}

// ---------------------------------------------------------------------
// Manifest loading
// ---------------------------------------------------------------------

class ManifestTest : public ::testing::Test
{
  protected:
    /** Per-test file name: CTest runs sibling tests concurrently. */
    std::string
    manifestPath() const
    {
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        return std::string("/tmp/asim_batch_manifest_") +
               info->name() + ".txt";
    }

    std::string
    writeManifest(const std::string &text)
    {
        std::string path = manifestPath();
        std::ofstream f(path);
        f << text;
        return path;
    }

    void
    TearDown() override
    {
        std::remove(manifestPath().c_str());
    }
};

TEST_F(ManifestTest, LoadsJobsWithAllKeys)
{
    std::string specs = ASIM_SPECS_DIR;
    std::string path = writeManifest(
        "# a comment line\n"
        "\n" +
        specs + "/counter.asim count=2  # trailing comment\n" +
        specs + "/gcd.asim watch=a:21 engine=interp\n" +
        specs + "/echo.asim io=" + specs + "/echo.io cycles=5\n");

    BatchRunner runner;
    SimulationOptions defaults;
    EXPECT_EQ(runner.loadManifest(path, defaults), 4u);
    EXPECT_EQ(runner.jobCount(), 4u);

    BatchResult result = runner.run();
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(result.instances[2].engine, "interp");
    EXPECT_TRUE(result.instances[2].watchpointHit);
    EXPECT_EQ(result.instances[3].ioText, "10\n20\n30\n40\n50\n");
}

TEST_F(ManifestTest, DefaultCyclesAppliesToLinesWithoutKey)
{
    std::string specs = ASIM_SPECS_DIR;
    std::string path = writeManifest(specs + "/counter.asim\n" +
                                     specs +
                                     "/counter.asim cycles=3\n");
    BatchRunner runner;
    runner.loadManifest(path, SimulationOptions{},
                        /*defaultCycles=*/7);
    BatchResult result = runner.run();
    // Like the CLI's --cycles: the default overrides the spec's `=`
    // count but never an explicit cycles= key.
    EXPECT_EQ(result.instances[0].cyclesRun, 7u);
    EXPECT_EQ(result.instances[1].cyclesRun, 3u);
}

TEST_F(ManifestTest, RelativePathsResolveAgainstManifestDir)
{
    // The manifest lives in specs/: bare file names must work.
    BatchRunner runner;
    SimulationOptions defaults;
    size_t n = runner.loadManifest(specPath("batch.manifest"),
                                   defaults);
    EXPECT_GE(n, 5u);
    BatchResult result = runner.run();
    EXPECT_TRUE(result.allOk());
}

TEST_F(ManifestTest, FaultKeyInjectsPerJob)
{
    std::string specs = ASIM_SPECS_DIR;
    std::string path = writeManifest(
        specs + "/counter.asim\n" +
        specs + "/counter.asim fault=next:1:set1\n" +
        specs + "/counter.asim fault=count:0:toggle@10\n");
    BatchOptions bo;
    bo.captureState = true;
    BatchRunner withState(bo);
    withState.loadManifest(path, SimulationOptions{});
    BatchResult result = withState.run();
    ASSERT_EQ(result.instances.size(), 3u);
    EXPECT_TRUE(result.allOk());
    // Both injected instances diverge from the healthy one.
    EXPECT_FALSE(result.instances[1].state.mems ==
                 result.instances[0].state.mems);
    EXPECT_FALSE(result.instances[2].state.mems ==
                 result.instances[0].state.mems);
}

TEST_F(ManifestTest, BadFaultTextMatchesTheSharedParsePath)
{
    std::string specs = ASIM_SPECS_DIR;
    std::string path = writeManifest(specs +
                                     "/counter.asim fault=count\n");
    BatchRunner runner;
    try {
        runner.loadManifest(path, SimulationOptions{});
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        // The manifest surfaces the exact parseFaultSite() text.
        std::string expected;
        try {
            parseFaultSite("count");
        } catch (const SpecError &p) {
            expected = p.what();
        }
        EXPECT_EQ(std::string(e.what()), expected);
    }
}

TEST_F(ManifestTest, RestoreKeyResumesFromCheckpoint)
{
    // Save a checkpoint at cycle 10, then resume it via the manifest
    // to the absolute budget of 20 cycles.
    std::string ckpt = manifestPath() + ".ckpt";
    {
        SimulationOptions opts;
        opts.specFile = specPath("counter.asim");
        Simulation sim(opts);
        sim.run(10);
        sim.saveCheckpoint(ckpt);
    }
    std::string path = writeManifest(specPath("counter.asim") +
                                     " restore=" + ckpt +
                                     " cycles=20\n");
    BatchOptions bo;
    bo.captureState = true;
    BatchRunner runner(bo);
    runner.loadManifest(path, SimulationOptions{});
    BatchResult result = runner.run();
    std::remove(ckpt.c_str());
    ASSERT_EQ(result.instances.size(), 1u);
    EXPECT_TRUE(result.allOk());
    // cycles= is an absolute budget: 10 restored + 10 executed.
    EXPECT_EQ(result.instances[0].cyclesRun, 20u);
}

TEST_F(ManifestTest, MalformedLinesThrowWithLineNumbers)
{
    for (const char *line :
         {"counter.asim cycles=0\n", "counter.asim count=0\n",
          "counter.asim watch=nocolon\n", "counter.asim froz=1\n",
          "counter.asim cycles\n"}) {
        std::string path = writeManifest(line);
        BatchRunner runner;
        try {
            runner.loadManifest(path, SimulationOptions{});
            FAIL() << "expected SimError for: " << line;
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find(":1:"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(BatchRunner().loadManifest("/nope/nothing.txt",
                                            SimulationOptions{}),
                 SimError);
}

TEST_F(ManifestTest, HostileValuesThrowNamingFileLineAndKey)
{
    // The same malformed-value matrix the CLI flags face: each must
    // end in a SimError naming file:line and the key, never a partial
    // read or a wrapped value.
    struct Case
    {
        const char *key;
        std::vector<std::string> values;
    };
    const std::vector<std::string> matrix = {
        "", "abc", "5x", "-1", "0", "18446744073709551616"};
    std::vector<Case> cases = {
        {"cycles", matrix},
        {"count", matrix},
        {"partitions", matrix},
        {"watch", matrix},
    };
    cases[0].values.push_back("10x");
    cases[2].values.insert(cases[2].values.end(), {"4294967297", "257"});
    cases[3].values.insert(cases[3].values.end(), {"a:", "a:5x", ":5"});
    for (const Case &c : cases) {
        for (const std::string &value : c.values) {
            const std::string line =
                std::string("counter.asim ") + c.key + "=" + value;
            std::string path = writeManifest("# hostile\n" + line + "\n");
            try {
                BatchRunner().loadManifest(path, SimulationOptions{});
                ADD_FAILURE() << "accepted: " << line;
            } catch (const SimError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(path + ":2: "), std::string::npos)
                    << line << " -> " << what;
                EXPECT_NE(what.find(c.key), std::string::npos)
                    << line << " -> " << what;
            }
        }
    }
}

TEST_F(ManifestTest, CountAboveItsBoundIsRefusedNamingTheLine)
{
    // count= sizes the job list before anything runs: one instance
    // past kMaxManifestCount is refused with file:line and the bound.
    const std::string spec = specPath("counter.asim");
    const std::string over = std::to_string(kMaxManifestCount + 1);
    std::string path = writeManifest(spec + " count=2 cycles=5\n" +
                                     spec + " count=" + over + "\n");
    BatchRunner runner;
    try {
        runner.loadManifest(path, SimulationOptions{});
        FAIL() << "accepted count=" << over;
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path + ":2: count"), std::string::npos)
            << what;
        EXPECT_NE(what.find("up to " + std::to_string(kMaxManifestCount) +
                            ": " + over),
                  std::string::npos)
            << what;
    }
}

// ---------------------------------------------------------------------
// The headline property: byte-identical results across thread counts.
// ---------------------------------------------------------------------

class BatchDeterminism : public ::testing::TestWithParam<const char *>
{};

/** Everything observable about a batch, rendered to one comparable
 *  string (stats summaries included — they fold in every counter). */
std::string
fingerprint(const BatchResult &result)
{
    std::ostringstream os;
    for (const auto &r : result.instances) {
        os << r.index << "|" << r.label << "|" << r.engine << "|"
           << r.cyclesRequested << "|" << r.cyclesRun << "|"
           << r.watchpointHit << "|" << r.faulted << "|" << r.fault
           << "|" << r.ioText << "|" << r.traceText << "|"
           << r.stats.summary() << "#";
        os << r.state.vars.size() << ":";
        for (int32_t v : r.state.vars)
            os << v << ",";
        for (const auto &m : r.state.mems) {
            os << m.adr << ";" << m.opn << ";";
            for (int32_t c : m.cells)
                os << c << ",";
        }
        os << "\n";
    }
    return os.str();
}

/** A diverse workload: homogeneous shards, on-disk specs with
 *  watchpoints, scripted echo instances, and one faulting machine. */
void
buildWorkload(BatchRunner &runner, const char *engine)
{
    BatchJob shard;
    shard.options.specText = counterSpec(6, 100);
    shard.options.engine = engine;
    shard.cycles = 64;
    shard.captureTrace = true;
    shard.label = "counter";
    runner.addBatch(shard, 3);

    BatchJob gcd;
    gcd.options.specFile = specPath("gcd.asim");
    gcd.options.engine = engine;
    gcd.watchName = "a";
    gcd.watchValue = 21;
    runner.addJob(gcd);

    BatchJob mult;
    mult.options.specFile = specPath("multiplier.asim");
    mult.options.engine = engine;
    mult.captureTrace = true;
    runner.addJob(mult);

    for (int i = 0; i < 2; ++i) {
        BatchJob echo;
        echo.options.specText = kEchoSpec;
        echo.options.engine = engine;
        echo.options.ioMode = IoMode::Script;
        for (int k = 0; k < 5; ++k)
            echo.options.scriptInputs.push_back(10 * i + k);
        echo.label = "echo" + std::to_string(i);
        runner.addJob(std::move(echo));
    }

    BatchJob fault;
    fault.options.specText = kFaultSpec;
    fault.options.engine = engine;
    fault.cycles = 50;
    fault.label = "faulty";
    runner.addJob(fault);
}

TEST_P(BatchDeterminism, BitIdenticalAcrossThreadCounts)
{
    const char *engine = GetParam();
    std::string reference;
    unsigned counts[] = {1u, 2u, ThreadPool::hardwareThreads()};
    for (unsigned threads : counts) {
        BatchOptions bopts;
        bopts.threads = threads;
        BatchRunner runner(bopts);
        buildWorkload(runner, engine);
        BatchResult result = runner.run();
        EXPECT_EQ(result.threads, threads);
        std::string fp = fingerprint(result);
        if (reference.empty())
            reference = fp;
        else
            EXPECT_EQ(fp, reference)
                << engine << " diverged at " << threads
                << " threads";
    }
    EXPECT_NE(reference.find("faulty"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Engines, BatchDeterminism,
                         ::testing::Values("interp", "vm",
                                           "symbolic"));

/** The same §7 property for the native engine: shared-library shards,
 *  a scripted echo, and a faulting machine come back byte-identical
 *  at 1/2/hw threads. Artifacts are pre-shared once so the test pays
 *  one compile per job family, not one per thread count. */
TEST_F(NativeBatch, BitIdenticalAcrossThreadCounts)
{
    auto share = [](SimulationOptions opts, bool tracing) {
        opts.engine = "native";
        return Simulation::shareBatchArtifacts(opts, tracing);
    };
    SimulationOptions shardOpts;
    shardOpts.specText = counterSpec(6, 100);
    shardOpts = share(shardOpts, /*tracing=*/true);

    SimulationOptions echoOpts;
    echoOpts.specText = kEchoSpec;
    echoOpts.ioMode = IoMode::Script;
    echoOpts.scriptInputs = {7, 8, 9, 10, 11};
    echoOpts = share(echoOpts, false);

    SimulationOptions faultOpts;
    faultOpts.specText = kFaultSpec;
    faultOpts = share(faultOpts, false);

    std::string reference;
    unsigned counts[] = {1u, 2u, ThreadPool::hardwareThreads()};
    for (unsigned threads : counts) {
        BatchOptions bopts;
        bopts.threads = threads;
        BatchRunner runner(bopts);

        BatchJob shard;
        shard.options = shardOpts;
        shard.cycles = 64;
        shard.captureTrace = true;
        shard.label = "counter";
        runner.addBatch(shard, 3);

        BatchJob echo;
        echo.options = echoOpts;
        echo.label = "echo";
        runner.addJob(echo);

        BatchJob fault;
        fault.options = faultOpts;
        fault.cycles = 50;
        fault.label = "faulty";
        runner.addJob(fault);

        BatchResult result = runner.run();
        EXPECT_EQ(result.threads, threads);
        std::string fp = fingerprint(result);
        if (reference.empty())
            reference = fp;
        else
            EXPECT_EQ(fp, reference)
                << "native diverged at " << threads << " threads";
    }
    EXPECT_NE(reference.find("faulty"), std::string::npos);
}

} // namespace
} // namespace asim
