/** @file
 * Tests over the on-disk example specifications in specs/ — the
 * file-loading path plus behavioral checks of each machine.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "sim/engine.hh"
#include "support/logging.hh"

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

TEST(SpecFiles, MissingFileThrows)
{
    EXPECT_THROW(parseSpecFile(specPath("nope.asim")), SpecError);
}

TEST(SpecFiles, CounterFromDisk)
{
    Diagnostics diag;
    ResolvedSpec rs =
        resolve(parseSpecFile(specPath("counter.asim"), &diag), &diag);
    EXPECT_TRUE(diag.clean());
    auto e = makeVm(rs);
    e->run(20);
    EXPECT_EQ(e->value("count") & 0xf, 4); // 20 mod 16
}

TEST(SpecFiles, TrafficLightFromDisk)
{
    ResolvedSpec rs =
        resolve(parseSpecFile(specPath("traffic_light.asim")));
    auto e = makeVm(rs);
    e->run(32);
    int32_t phase = e->value("phase");
    EXPECT_GE(phase, 0);
    EXPECT_LE(phase, 2);
}

TEST(SpecFiles, Fig43MemoryTracesReadsAndWrites)
{
    ResolvedSpec rs =
        resolve(parseSpecFile(specPath("fig43_memory.asim")));
    std::ostringstream os;
    StreamTrace trace(os);
    EngineConfig cfg;
    cfg.trace = &trace;
    auto e = makeVm(rs, cfg);
    e->run(8);
    // Even counter values write (op 13), odd ones read (op 12).
    EXPECT_NE(os.str().find("Write to memory at"), std::string::npos);
    EXPECT_NE(os.str().find("Read from memory at"), std::string::npos);
    // Initialized contents observable through the read path.
    EXPECT_EQ(e->memCell("memory", 3), 78);
}

TEST(SpecFiles, EchoRoundTripsInput)
{
    ResolvedSpec rs = resolve(parseSpecFile(specPath("echo.asim")));
    VectorIo io;
    for (int32_t v : {10, 20, 30, 40, 50})
        io.pushInput(v);
    EngineConfig cfg;
    cfg.io = &io;
    auto e = makeVm(rs, cfg);
    e->run(rs.thesisIterations());
    EXPECT_EQ(io.outputsAt(1),
              (std::vector<int32_t>{10, 20, 30, 40, 50}));
}

TEST(SpecFiles, DualCounterModulesFromDisk)
{
    ResolvedSpec rs =
        resolve(parseSpecFile(specPath("dual_counter.asim")));
    auto e = makeVm(rs);
    e->run(rs.thesisIterations()); // 21 cycles
    EXPECT_EQ(e->value("fast"), 21 & 7);
    EXPECT_EQ(e->value("slow"), 21 & 31);
}

TEST(SpecFiles, GcdConvergesFromDisk)
{
    ResolvedSpec rs = resolve(parseSpecFile(specPath("gcd.asim")));
    auto e = makeVm(rs);
    e->run(rs.thesisIterations());
    EXPECT_EQ(e->value("a"), 21); // gcd(1071, 462)
    EXPECT_EQ(e->value("b"), 21);
    // Converged: one more cycle changes nothing.
    e->step();
    EXPECT_EQ(e->value("a"), 21);
}

TEST(SpecFiles, MultiplierShiftAddFromDisk)
{
    ResolvedSpec rs =
        resolve(parseSpecFile(specPath("multiplier.asim")));
    auto e = makeVm(rs);
    e->run(rs.thesisIterations());
    EXPECT_EQ(e->value("acc"), 143); // 13 * 11
    EXPECT_EQ(e->value("mplier"), 0);
}

TEST(SpecFiles, AllSpecsRunOnAllEngines)
{
    for (const char *name : {"counter.asim", "traffic_light.asim",
                             "fig43_memory.asim", "echo.asim",
                             "dual_counter.asim", "gcd.asim",
                             "multiplier.asim"}) {
        ResolvedSpec rs = resolve(parseSpecFile(specPath(name)));
        for (int engine = 0; engine < 2; ++engine) {
            VectorIo io;
            for (int i = 0; i < 64; ++i)
                io.pushInput(i);
            EngineConfig cfg;
            cfg.io = &io;
            auto e = engine ? makeVm(rs, cfg)
                            : makeInterpreter(rs, cfg);
            EXPECT_NO_THROW(e->run(rs.thesisIterations()))
                << name << " engine " << engine;
        }
    }
}

} // namespace
} // namespace asim
