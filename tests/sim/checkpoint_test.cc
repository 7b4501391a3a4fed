/** @file
 * Checkpoint subsystem tests: binary round trips through memory and
 * disk, format v2 sections and v1 read compatibility, the
 * corrupt-input hardening contract (truncations and bit flips of
 * every byte must raise diagnostic SimErrors, never UB),
 * spec-identity binding, and BatchRunner's checkpoint/resume flow,
 * including resume from every state a kill can leave on disk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "machines/counter.hh"
#include "sim/batch.hh"
#include "sim/checkpoint.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"
#include "support/serialize.hh"

namespace asim {
namespace {

const char *kEchoSpec = "# integer echo\n"
                        "= 9\n"
                        "in out .\n"
                        "M in 1 0 2 1\n"
                        "M out 1 in 3 1\n"
                        ".\n";

/** Write `bytes` to `path` verbatim. */
void
writeBytes(const std::string &path, std::string_view bytes)
{
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The bytes of the file at `path`. */
std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Every section set, for round-trip and fuzz cases. */
CheckpointSections
allSections()
{
    CheckpointSections s;
    s.output = "11\n22\n";
    s.trace = "Cycle   0 count= 0\n";
    s.done = true;
    s.watchpointHit = true;
    s.session = std::string("recipe\0bytes", 12);
    return s;
}

/** Unique scratch path per test; removed by the caller when needed. */
std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("asim_ckpt_test_" + name))
        .string();
}

class CheckpointFormat : public ::testing::Test
{
  protected:
    /** A mid-run snapshot with non-trivial state, stats, and an
     *  input cursor. */
    static Simulation
    makeEchoSim(std::ostream &out)
    {
        SimulationOptions opts;
        opts.specText = kEchoSpec;
        opts.ioMode = IoMode::Script;
        opts.scriptInputs = {11, 22, 33, 44, 55, 66, 77, 88, 99, 110};
        opts.ioOut = &out;
        return Simulation(opts);
    }
};

TEST_F(CheckpointFormat, EncodeDecodeRoundTrip)
{
    std::ostringstream os;
    Simulation sim = makeEchoSim(os);
    sim.run(4);
    EngineSnapshot snap = sim.snapshot();
    EXPECT_EQ(snap.ioValues, 4u);

    std::string blob = encodeCheckpoint(snap, 0x1234, "vm");
    CheckpointInfo info;
    EngineSnapshot back = decodeCheckpoint(blob, "mem", &info);

    EXPECT_EQ(info.version, kCheckpointVersion);
    EXPECT_EQ(info.specHash, 0x1234u);
    EXPECT_EQ(info.savedBy, "vm");
    EXPECT_EQ(info.cycle, 4u);
    EXPECT_TRUE(back.state == snap.state);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_EQ(back.ioValues, snap.ioValues);
    EXPECT_EQ(back.stats.cycles, snap.stats.cycles);
    EXPECT_EQ(back.stats.summary(), snap.stats.summary());
}

TEST_F(CheckpointFormat, SectionsRoundTrip)
{
    std::ostringstream os;
    Simulation sim = makeEchoSim(os);
    sim.run(2);
    const CheckpointSections in = allSections();
    std::string blob =
        encodeCheckpoint(sim.snapshot(), 7, "vm", in);
    CheckpointSections out;
    EngineSnapshot back = decodeCheckpoint(blob, "mem", nullptr, &out);
    EXPECT_EQ(back.cycle, 2u);
    EXPECT_EQ(out.output, in.output);
    EXPECT_EQ(out.trace, in.trace);
    EXPECT_TRUE(out.done);
    EXPECT_TRUE(out.watchpointHit);
    EXPECT_EQ(out.session, in.session);

    // No sections: every one reads back absent.
    decodeCheckpoint(encodeCheckpoint(sim.snapshot(), 7, "vm"), "mem",
                     nullptr, &out);
    EXPECT_FALSE(out.output || out.trace || out.done || out.session);
}

TEST_F(CheckpointFormat, FileRoundTripAndPeek)
{
    const std::string path = tmpPath("file_roundtrip.ckpt");
    std::ostringstream os;
    Simulation sim = makeEchoSim(os);
    sim.run(3);
    sim.saveCheckpoint(path);

    CheckpointInfo info = peekCheckpoint(path);
    EXPECT_EQ(info.cycle, 3u);
    EXPECT_EQ(info.savedBy, "vm");
    EXPECT_EQ(info.specHash, sim.specHash());

    EngineSnapshot snap =
        loadCheckpoint(path, sim.resolved());
    EXPECT_TRUE(snap.state == sim.snapshot().state);
    std::remove(path.c_str());
}

TEST_F(CheckpointFormat, RestoredRunContinuesByteIdentically)
{
    // Reference: uninterrupted 9-cycle scripted run.
    std::ostringstream refOut;
    Simulation ref = makeEchoSim(refOut);
    ref.run(9);

    // Save at cycle 4, restore into a *fresh* process-equivalent
    // simulation (new Simulation, same spec), finish the run: the
    // combined output must be byte-identical, including the input
    // cursor (values 5.. continue, not restart).
    const std::string path = tmpPath("continue.ckpt");
    std::ostringstream aOut;
    Simulation a = makeEchoSim(aOut);
    a.run(4);
    a.saveCheckpoint(path);

    std::ostringstream bOut;
    Simulation b = makeEchoSim(bOut);
    b.restoreCheckpoint(path);
    EXPECT_EQ(b.cycle(), 4u);
    b.run(5);

    EXPECT_EQ(aOut.str() + bOut.str(), refOut.str());
    EXPECT_TRUE(b.engine().state() == ref.engine().state());
    std::remove(path.c_str());
}

TEST_F(CheckpointFormat, WrongSpecRefusedByHash)
{
    const std::string path = tmpPath("wrong_spec.ckpt");
    std::ostringstream os;
    Simulation echo = makeEchoSim(os);
    echo.run(2);
    echo.saveCheckpoint(path);

    SimulationOptions counter;
    counter.specText = counterSpec(4, 100);
    Simulation other(counter);
    try {
        other.restoreCheckpoint(path);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("different specification"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}

TEST_F(CheckpointFormat, UnreadableFileIsDiagnostic)
{
    SimulationOptions opts;
    opts.specText = kEchoSpec;
    Simulation sim(opts);
    EXPECT_THROW(
        sim.restoreCheckpoint("/nonexistent/dir/nothing.ckpt"),
        SimError);
    EXPECT_THROW(peekCheckpoint("/nonexistent/dir/nothing.ckpt"),
                 SimError);
}

// A format-v1 checkpoint written by a v1 build restores under every
// in-process engine, and the continuation's trace and scripted output
// are byte-identical to an uninterrupted run's. The fixture came from
// `asim-run --io=script:ckpt_v1.io --cycles=5
// --save-state=ckpt_v1.ckpt ckpt_v1.asim` (vm) in tests/fixtures.
TEST_F(CheckpointFormat, V1FixtureRestoresUnderEveryInProcessEngine)
{
    const std::string dir = ASIM_FIXTURES_DIR;
    const std::string fixture = dir + "/ckpt_v1.ckpt";
    CheckpointSections sections;
    CheckpointInfo info = peekCheckpoint(fixture, &sections);
    ASSERT_EQ(info.version, 1u);
    ASSERT_EQ(info.cycle, 5u);
    EXPECT_FALSE(sections.output || sections.trace || sections.done ||
                 sections.session);

    auto options = [&](std::ostream &out, const std::string &engine) {
        SimulationOptions o;
        o.specFile = dir + "/ckpt_v1.asim";
        o.engine = engine;
        o.ioMode = IoMode::Script;
        o.scriptInputs = Simulation::loadScript(dir + "/ckpt_v1.io");
        o.ioOut = &out;
        o.traceStream = &out;
        return o;
    };
    std::ostringstream head;
    Simulation ref(options(head, "vm"));
    ref.run(5);
    const size_t prefix = head.str().size();
    ref.run(7);
    const std::string continuation = head.str().substr(prefix);

    for (const char *engine : {"interp", "vm", "symbolic"}) {
        std::ostringstream out;
        Simulation sim(options(out, engine));
        sim.restoreCheckpoint(fixture);
        sim.run(7);
        EXPECT_EQ(out.str(), continuation) << engine;
        EXPECT_TRUE(sim.engine().state() == ref.engine().state())
            << engine;
        EXPECT_EQ(sim.stats().summary(), ref.stats().summary())
            << engine;
    }
}

// A format-v2 checkpoint pins the file layout: each memory's output
// latch sits in its memory record, whatever the engines' in-memory
// layout. The fixture came from `asim-run --batch=1
// --io=script:ckpt_v2.io --cycles=5 --checkpoint-dir=<dir>
// ckpt_v2.asim` (vm; the instance checkpoint, renamed) in
// tests/fixtures: a run stopped at cycle 5 of the spec's 12, with
// output, trace and completion sections.
TEST_F(CheckpointFormat, V2FixtureRoundTripsAndRestoresUnderEveryEngine)
{
    const std::string dir = ASIM_FIXTURES_DIR;
    const std::string fixture = dir + "/ckpt_v2.ckpt";
    const std::string bytes = readBytes(fixture);
    CheckpointInfo info;
    CheckpointSections sections;
    const EngineSnapshot snap =
        decodeCheckpoint(bytes, fixture, &info, &sections);
    ASSERT_EQ(info.version, 2u);
    ASSERT_EQ(info.cycle, 5u);
    ASSERT_TRUE(sections.output.has_value());
    // Re-encoding writes the current version: the same snapshot and
    // sections, without the v2 byte cursor.
    const std::string current =
        encodeCheckpoint(snap, info.specHash, info.savedBy, sections);
    EXPECT_EQ(current.size(), bytes.size() - 8);
    CheckpointInfo currentInfo;
    CheckpointSections currentSections;
    const EngineSnapshot back = decodeCheckpoint(
        current, "re-encoded", &currentInfo, &currentSections);
    EXPECT_EQ(currentInfo.version, kCheckpointVersion);
    EXPECT_TRUE(back.state == snap.state);
    EXPECT_EQ(back.ioValues, snap.ioValues);
    EXPECT_EQ(currentSections.output, sections.output);
    EXPECT_EQ(encodeCheckpoint(back, currentInfo.specHash,
                               currentInfo.savedBy, currentSections),
              current);
    EXPECT_GE(std::count_if(snap.state.latches().begin(),
                            snap.state.latches().end(),
                            [](int32_t v) { return v != 0; }),
              2);

    auto options = [&](std::ostream &out, const std::string &engine) {
        SimulationOptions o;
        o.specFile = dir + "/ckpt_v2.asim";
        o.engine = engine;
        o.ioMode = IoMode::Script;
        o.scriptInputs = Simulation::loadScript(dir + "/ckpt_v2.io");
        o.ioOut = &out;
        o.traceStream = &out;
        return o;
    };
    std::ostringstream head;
    Simulation ref(options(head, "vm"));
    ASSERT_EQ(ref.specHash(), info.specHash);
    ref.run(5);
    const size_t prefix = head.str().size();
    ref.run(7);
    const std::string continuation = head.str().substr(prefix);
    EXPECT_EQ(*sections.output, "0\n3\n8\n15\n26\n");

    std::vector<std::string> engines{"interp", "vm", "symbolic"};
    if (NativeEngine::available())
        engines.push_back("native");
    for (const std::string &engine : engines) {
        std::ostringstream out;
        Simulation sim(options(out, engine));
        sim.restoreCheckpoint(fixture);
        sim.run(7);
        EXPECT_EQ(out.str(), continuation) << engine;
        EXPECT_TRUE(sim.engine().state() == ref.engine().state())
            << engine;
        EXPECT_EQ(sim.stats().summary(), ref.stats().summary())
            << engine;
    }
}

// ---------------------------------------------------------------------
// Corrupt-input hardening: every truncation length and every
// single-byte flip of a real checkpoint must fail with SimError —
// diagnostics, not crashes, and never a silent success.
// ---------------------------------------------------------------------

class CheckpointFuzz : public ::testing::Test
{
  protected:
    /** A real mid-run checkpoint carrying all four v2 sections (or
     *  none, for building hand-made section lists on top). */
    static std::string
    realBlob(bool withSections = true)
    {
        std::ostringstream os;
        SimulationOptions opts;
        opts.specText = kEchoSpec;
        opts.ioMode = IoMode::Script;
        opts.scriptInputs = {1, 2, 3, 4, 5};
        opts.ioOut = &os;
        Simulation sim(opts);
        sim.run(3);
        return encodeCheckpoint(
            sim.snapshot(), sim.specHash(), "vm",
            withSections ? allSections() : CheckpointSections{});
    }

    /** A CRC-valid v2 file whose section list is written by `build`
     *  (after the section count `count`). */
    template <class Build>
    static std::string
    withSectionList(uint32_t count, Build build)
    {
        std::string blob = realBlob(false);
        // Drop the CRC and the empty list's count, then re-seal.
        ByteWriter w;
        w.bytes(std::string_view(blob).substr(0, blob.size() - 8));
        w.u32(count);
        build(w);
        w.u32(crc32(w.data()));
        return w.take();
    }

    /** Decoding `blob` must raise SimError mentioning `what` and the
     *  byte offset. */
    static void
    expectRefused(const std::string &blob, const std::string &what)
    {
        try {
            decodeCheckpoint(blob, "crafted");
            FAIL() << "expected SimError for " << what;
        } catch (const SimError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(what), std::string::npos) << msg;
            EXPECT_NE(msg.find("(offset "), std::string::npos) << msg;
        }
    }
};

TEST_F(CheckpointFuzz, EveryTruncationLengthThrows)
{
    std::string blob = realBlob();
    ASSERT_GT(blob.size(), 40u);
    for (size_t len = 0; len < blob.size(); ++len) {
        EXPECT_THROW(decodeCheckpoint(blob.substr(0, len),
                                      "trunc" + std::to_string(len)),
                     SimError)
            << "length " << len;
    }
    // The untruncated blob still decodes (the harness is honest).
    EXPECT_NO_THROW(decodeCheckpoint(blob, "full"));
}

TEST_F(CheckpointFuzz, EverySingleByteFlipThrows)
{
    std::string blob = realBlob();
    for (size_t i = 0; i < blob.size(); ++i) {
        std::string bad = blob;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        EXPECT_THROW(decodeCheckpoint(bad, "flip"), SimError)
            << "flip at byte " << i;
    }
}

TEST_F(CheckpointFuzz, AppendedGarbageThrows)
{
    std::string blob = realBlob() + "garbage";
    EXPECT_THROW(decodeCheckpoint(blob, "padded"), SimError);
}

TEST_F(CheckpointFuzz, AbsurdCountRejectedBeforeAllocation)
{
    // Handcraft a header whose var count claims 2^40 entries; the
    // decoder must refuse on the count itself (sanity limit /
    // remaining-bytes check), not attempt the allocation. The CRC is
    // made valid so the count check is what fires.
    ByteWriter w;
    w.bytes(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(0);       // spec hash
    w.str("evil");  // saved-by
    w.u64(1);       // cycle
    w.u64(0);       // ioValues
    w.u64(1);       // stats cycles
    w.u64(0);       // stats alu
    w.u64(0);       // stats sel
    w.u64(0);       // stats mem count
    w.u64(1ull << 40); // state var count: absurd
    w.u32(crc32(w.data()));
    try {
        decodeCheckpoint(w.data(), "crafted");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("state var count"), std::string::npos)
            << msg;
    }
}

TEST_F(CheckpointFuzz, UnknownSectionTagIsRefused)
{
    expectRefused(withSectionList(1,
                                  [](ByteWriter &w) {
                                      w.u32(99);
                                      w.str("x");
                                  }),
                  "unknown section tag 99");
}

TEST_F(CheckpointFuzz, DuplicateSectionTagIsRefused)
{
    expectRefused(
        withSectionList(2,
                        [](ByteWriter &w) {
                            w.u32(static_cast<uint32_t>(
                                CheckpointSection::Output));
                            w.str("a");
                            w.u32(static_cast<uint32_t>(
                                CheckpointSection::Output));
                            w.str("b");
                        }),
        "duplicate section tag 1");
}

TEST_F(CheckpointFuzz, SectionLengthPastTheEndIsRefused)
{
    expectRefused(
        withSectionList(1,
                        [](ByteWriter &w) {
                            w.u32(static_cast<uint32_t>(
                                CheckpointSection::Trace));
                            w.u32(1000); // declared, never written
                            w.bytes("short");
                        }),
        "section payload declares 1000 bytes");
}

TEST_F(CheckpointFuzz, FutureVersionRefusedByName)
{
    std::string blob = realBlob();
    // Bump the version field (bytes 8..11) to the next format and
    // re-seal the CRC so only the version gate can object.
    blob[8] = static_cast<char>(kCheckpointVersion + 1);
    uint32_t crc = crc32(
        std::string_view(blob).substr(0, blob.size() - 4));
    for (int i = 0; i < 4; ++i)
        blob[blob.size() - 4 + i] =
            static_cast<char>((crc >> (8 * i)) & 0xff);
    try {
        decodeCheckpoint(blob, "future");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("format version " +
                           std::to_string(kCheckpointVersion + 1) +
                           " is newer"),
                  std::string::npos)
            << msg;
    }
}

// ---------------------------------------------------------------------
// BatchRunner checkpoint/resume: each instance persists one file,
// inst-<i>.ckpt, whose sections carry its output, captured trace and
// done flag. A finished run's files skip instances; a killed run's
// files (no done flag) resume them with byte-identical output.
// ---------------------------------------------------------------------
class BatchResume : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Suffix with the test name: ctest runs each case as its own
        // process, so a shared directory races under parallel runs.
        dir_ = tmpPath(std::string("batch_resume_") +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        std::filesystem::remove_all(dir_);
    }
    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    static BatchJob
    echoJob(uint64_t cycles)
    {
        BatchJob job;
        job.options.specText = kEchoSpec;
        job.options.ioMode = IoMode::Script;
        job.options.scriptInputs = {11, 22, 33, 44, 55,
                                    66, 77, 88, 99, 110};
        job.cycles = cycles;
        job.label = "echo";
        return job;
    }

    std::string dir_;
};

TEST_F(BatchResume, FinishedInstancesAreSkippedOnResume)
{
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    {
        BatchRunner runner(bopts);
        runner.addBatch(echoJob(6), 3);
        BatchResult first = runner.run();
        ASSERT_TRUE(first.allOk());
        EXPECT_FALSE(first.instances[0].resumed);
    }
    BatchRunner again(bopts);
    again.addBatch(echoJob(6), 3);
    EXPECT_EQ(again.resumeFromCheckpoints(), 3u);
    BatchResult second = again.run();
    ASSERT_TRUE(second.allOk());
    for (const auto &r : second.instances) {
        EXPECT_TRUE(r.resumed);
        EXPECT_EQ(r.cyclesRun, 6u);
        EXPECT_EQ(r.ioText, "11\n22\n33\n44\n55\n66\n");
        EXPECT_EQ(r.stats.cycles, 6u);
        EXPECT_FALSE(r.state.mems.empty()) << "state reloaded";
    }
}

TEST_F(BatchResume, KilledRunResumesWithByteIdenticalOutput)
{
    // The file a killed batch leaves: a mid-run checkpoint whose
    // output section holds the text produced so far, no done flag.
    {
        std::ostringstream os;
        SimulationOptions opts = echoJob(0).options;
        opts.ioOut = &os;
        Simulation sim(opts);
        sim.run(4);
        std::filesystem::create_directories(dir_);
        CheckpointSections sections;
        sections.output = os.str();
        sim.saveCheckpoint(dir_ + "/inst-0.ckpt", sections);
    }

    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    BatchRunner runner(bopts);
    runner.addJob(echoJob(9));
    EXPECT_EQ(runner.resumeFromCheckpoints(), 1u);
    BatchResult result = runner.run();
    ASSERT_TRUE(result.allOk());
    const InstanceResult &r = result.instances[0];
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(r.cyclesRun, 9u);

    // Reference: the same job uninterrupted.
    BatchRunner ref;
    ref.addJob(echoJob(9));
    BatchResult refResult = ref.run();
    EXPECT_EQ(r.ioText, refResult.instances[0].ioText)
        << "resumed output must be byte-identical";
    EXPECT_TRUE(r.state == refResult.instances[0].state);

    // And the file now carries the done flag: a third run skips.
    BatchRunner third(bopts);
    third.addJob(echoJob(9));
    EXPECT_EQ(third.resumeFromCheckpoints(), 1u);
    BatchResult done = third.run();
    EXPECT_EQ(done.instances[0].ioText,
              refResult.instances[0].ioText);
}

TEST_F(BatchResume, CheckpointWithoutOutputSectionIsDiagnostic)
{
    // A plain checkpoint (asim-run --save-state) dropped into the
    // directory carries no output section: resuming it would lose
    // the output before the checkpoint, so the runner refuses.
    {
        std::ostringstream os;
        SimulationOptions opts = echoJob(0).options;
        opts.ioOut = &os;
        Simulation sim(opts);
        sim.run(4);
        std::filesystem::create_directories(dir_);
        sim.saveCheckpoint(dir_ + "/inst-0.ckpt");
    }
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    BatchRunner runner(bopts);
    runner.addJob(echoJob(9));
    runner.resumeFromCheckpoints();
    try {
        runner.run();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("output"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(BatchResume, BudgetExtensionContinuesFromDoneMarker)
{
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    bopts.checkpointEvery = 2;
    {
        BatchRunner runner(bopts);
        runner.addJob(echoJob(4));
        ASSERT_TRUE(runner.run().allOk());
    }
    BatchRunner more(bopts);
    more.addJob(echoJob(9));
    EXPECT_EQ(more.resumeFromCheckpoints(), 1u);
    BatchResult result = more.run();
    ASSERT_TRUE(result.allOk());
    EXPECT_TRUE(result.instances[0].resumed);
    EXPECT_EQ(result.instances[0].cyclesRun, 9u);
    EXPECT_EQ(result.instances[0].ioText,
              "11\n22\n33\n44\n55\n66\n77\n88\n99\n");
}

TEST_F(BatchResume, ChecksumedArtifactsRejectForeignSpec)
{
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    {
        BatchRunner runner(bopts);
        runner.addJob(echoJob(4));
        ASSERT_TRUE(runner.run().allOk());
    }
    // Same dir, different machine: the spec-identity hash refuses.
    BatchRunner wrong(bopts);
    BatchJob job;
    job.options.specText = counterSpec(4, 100);
    job.cycles = 10;
    wrong.addJob(std::move(job));
    wrong.resumeFromCheckpoints();
    EXPECT_THROW(wrong.run(), SimError);
}

TEST_F(BatchResume, ResumeRequiresCheckpointDir)
{
    BatchRunner runner;
    runner.addJob(echoJob(4));
    EXPECT_THROW(runner.resumeFromCheckpoints(), SimError);
}

// ---------------------------------------------------------------------
// Captured traces persist in the checkpoint's trace section, so
// resumed instances merge complete traces instead of losing
// everything before the kill.
// ---------------------------------------------------------------------

/** A tracing job: the counter machine stars its count component. */
static BatchJob
tracedCounterJob(uint64_t cycles)
{
    BatchJob job;
    job.options.specText = counterSpec(4, 100);
    job.cycles = cycles;
    job.captureTrace = true;
    job.label = "counter";
    return job;
}

TEST_F(BatchResume, TraceSidecarPersistsAndReloadsWhenSkipping)
{
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    std::string reference;
    {
        BatchRunner runner(bopts);
        runner.addJob(tracedCounterJob(6));
        BatchResult first = runner.run();
        ASSERT_TRUE(first.allOk());
        reference = first.instances[0].traceText;
        ASSERT_FALSE(reference.empty());
        CheckpointSections sections;
        peekCheckpoint(dir_ + "/inst-0.ckpt", &sections);
        EXPECT_EQ(sections.trace, reference);
        EXPECT_TRUE(sections.done);
    }
    // Skipped-as-done instances reload the trace from the section.
    BatchRunner again(bopts);
    again.addJob(tracedCounterJob(6));
    EXPECT_EQ(again.resumeFromCheckpoints(), 1u);
    BatchResult second = again.run();
    ASSERT_TRUE(second.allOk());
    EXPECT_TRUE(second.instances[0].resumed);
    EXPECT_EQ(second.instances[0].traceText, reference);
}

TEST_F(BatchResume, KilledRunMergesTraceAcrossResume)
{
    // The file a kill after the cycle-4 persist leaves: checkpoint
    // with output and trace sections, no done flag.
    {
        std::ostringstream ts;
        SimulationOptions opts = tracedCounterJob(0).options;
        opts.traceStream = &ts;
        Simulation sim(opts);
        sim.run(4);
        std::filesystem::create_directories(dir_);
        CheckpointSections sections;
        sections.output = "";
        sections.trace = ts.str();
        sim.saveCheckpoint(dir_ + "/inst-0.ckpt", sections);
    }
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    BatchRunner runner(bopts);
    runner.addJob(tracedCounterJob(9));
    EXPECT_EQ(runner.resumeFromCheckpoints(), 1u);
    BatchResult result = runner.run();
    ASSERT_TRUE(result.allOk());
    EXPECT_TRUE(result.instances[0].resumed);

    BatchRunner ref;
    ref.addJob(tracedCounterJob(9));
    BatchResult refResult = ref.run();
    EXPECT_EQ(result.instances[0].traceText,
              refResult.instances[0].traceText)
        << "resumed trace must merge to byte-identical";
}

// ---------------------------------------------------------------------
// Kill at every write point. Persisting is one atomic write (temp file
// + rename), so a kill leaves one of two on-disk states: the previous
// generation (or nothing) plus `inst-<i>.ckpt.tmp` truncated at any
// length, or the new generation in place. Every such state must
// resume to output, trace and state byte-identical to an
// uninterrupted run.
// ---------------------------------------------------------------------

/** Scripted echo beside a traced counter: output and trace both. */
const char *kTracedEchoSpec = "# echo beside a traced counter\n"
                              "= 9\n"
                              "in out count* next .\n"
                              "A next 4 count.0.3 1\n"
                              "M count 0 next 1 1\n"
                              "M in 1 0 2 1\n"
                              "M out 1 in 3 1\n"
                              ".\n";

TEST_F(BatchResume, KillAtEveryWritePointResumesByteIdentically)
{
    BatchJob job;
    job.options.specText = kTracedEchoSpec;
    job.options.ioMode = IoMode::Script;
    job.options.scriptInputs = {11, 22, 33, 44, 55, 66, 77, 88, 99};
    job.cycles = 9;
    job.captureTrace = true;
    job.label = "traced-echo";

    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    bopts.checkpointEvery = 2;
    bopts.threads = 1;

    BatchResult reference;
    {
        BatchRunner ref;
        ref.addJob(job);
        reference = ref.run();
        ASSERT_TRUE(reference.allOk());
    }

    // The file the runner writes after `cycle` cycles: the snapshot
    // plus the output and trace so far, done flag on completion.
    auto generation = [&](uint64_t cycle) {
        std::ostringstream io;
        std::ostringstream trace;
        SimulationOptions opts = job.options;
        opts.ioOut = &io;
        opts.traceStream = &trace;
        Simulation sim(opts);
        sim.run(cycle);
        CheckpointSections sections;
        sections.output = io.str();
        sections.trace = trace.str();
        sections.done = cycle == job.cycles;
        return encodeCheckpoint(sim.snapshot(), sim.specHash(), "vm",
                                sections);
    };

    // The helper writes what the runner writes: an uninterrupted
    // checkpointed run leaves exactly the last generation.
    {
        BatchRunner runner(bopts);
        runner.addJob(job);
        ASSERT_TRUE(runner.run().allOk());
        ASSERT_EQ(readBytes(dir_ + "/inst-0.ckpt"), generation(9));
    }

    const std::string ckpt = dir_ + "/inst-0.ckpt";
    auto resumeMatches = [&](const std::string &state) {
        BatchRunner runner(bopts);
        runner.addJob(job);
        runner.resumeFromCheckpoints();
        BatchResult got = runner.run();
        const InstanceResult &r = got.instances[0];
        const InstanceResult &want = reference.instances[0];
        EXPECT_FALSE(r.faulted) << state << ": " << r.fault;
        EXPECT_EQ(r.cyclesRun, want.cyclesRun) << state;
        EXPECT_EQ(r.ioText, want.ioText) << state;
        EXPECT_EQ(r.traceText, want.traceText) << state;
        EXPECT_TRUE(r.state == want.state) << state;
        // The resumed run's own writes consume any stale temp file.
        EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                                std::filesystem::directory_iterator()),
                  1)
            << state;
    };

    std::string previous; // nothing on disk before the first write
    for (uint64_t cycle : {2, 4, 6, 8, 9}) {
        const std::string next = generation(cycle);
        for (size_t len = 0; len <= next.size(); ++len) {
            std::filesystem::remove_all(dir_);
            std::filesystem::create_directories(dir_);
            if (!previous.empty())
                writeBytes(ckpt, previous);
            writeBytes(ckpt + ".tmp", next.substr(0, len));
            resumeMatches("write of cycle " + std::to_string(cycle) +
                          ", temp file cut at " + std::to_string(len));
        }
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        writeBytes(ckpt, next);
        resumeMatches("cycle " + std::to_string(cycle) + " in place");
        previous = next;
    }
}

TEST_F(BatchResume, OnlyCheckpointFilesAreWritten)
{
    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    bopts.checkpointEvery = 2;
    BatchRunner runner(bopts);
    runner.addBatch(tracedCounterJob(9), 3);
    ASSERT_TRUE(runner.run().allOk());
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir_))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "inst-0.ckpt", "inst-1.ckpt", "inst-2.ckpt"}));
}

// ---------------------------------------------------------------------
// Watchpoint jobs honor checkpointEvery: periodic checkpoints during
// the search, and a faulted search resumes from the last one.
// ---------------------------------------------------------------------

/** The batch_test fault machine: walks a counter off a 10-cell
 *  memory at cycle 11. */
static const char *kWalkOffSpec =
    "# walks off the end of mem at cycle 11\n"
    "count* next .\n"
    "A next 4 count 1\n"
    "M count 0 next 1 1\n"
    "M mem count count 1 10\n"
    ".\n";

TEST_F(BatchResume, WatchpointJobsHonorCheckpointEvery)
{
    BatchJob job;
    job.options.specText = kWalkOffSpec;
    job.cycles = 50;
    job.watchName = "count";
    job.watchValue = -1; // unreachable: the fault fires first
    job.label = "walkoff";

    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    bopts.checkpointEvery = 4;
    {
        BatchRunner runner(bopts);
        runner.addJob(job);
        BatchResult result = runner.run();
        ASSERT_TRUE(result.instances[0].faulted);
        EXPECT_EQ(result.instances[0].cyclesRun, 10u);
    }
    // The fault killed the search mid-chunk, so the file is the last
    // *periodic* checkpoint — cycle 8 — without the done flag.
    ASSERT_TRUE(std::filesystem::exists(dir_ + "/inst-0.ckpt"));
    CheckpointSections sections;
    EXPECT_EQ(peekCheckpoint(dir_ + "/inst-0.ckpt", &sections).cycle,
              8u);
    EXPECT_FALSE(sections.done);

    // And the search resumes from it instead of restarting.
    BatchRunner again(bopts);
    again.addJob(job);
    EXPECT_EQ(again.resumeFromCheckpoints(), 1u);
    BatchResult result = again.run();
    EXPECT_TRUE(result.instances[0].resumed);
    EXPECT_TRUE(result.instances[0].faulted);
    EXPECT_EQ(result.instances[0].cyclesRun, 10u);
}

TEST_F(BatchResume, WatchpointHitStopsAtTheSameCycleWhenChunked)
{
    // Chunking the watch search must not move where it stops: hit
    // at cycle 5 with checkpointEvery=2 (chunk boundary at 4).
    BatchJob job;
    job.options.specText = counterSpec(4, 100);
    job.cycles = 20;
    job.watchName = "count";
    job.watchValue = 5;
    job.label = "counter";

    BatchOptions plain;
    BatchRunner ref(plain);
    ref.addJob(job);
    BatchResult refResult = ref.run();
    ASSERT_TRUE(refResult.instances[0].watchpointHit);

    BatchOptions bopts;
    bopts.checkpointDir = dir_;
    bopts.checkpointEvery = 2;
    BatchRunner runner(bopts);
    runner.addJob(job);
    BatchResult result = runner.run();
    ASSERT_TRUE(result.instances[0].watchpointHit);
    EXPECT_EQ(result.instances[0].cyclesRun,
              refResult.instances[0].cyclesRun);
    // Completion set the done flag with the watchpoint bit.
    CheckpointSections sections;
    peekCheckpoint(dir_ + "/inst-0.ckpt", &sections);
    EXPECT_TRUE(sections.done);
    EXPECT_TRUE(sections.watchpointHit);
}

} // namespace
} // namespace asim
