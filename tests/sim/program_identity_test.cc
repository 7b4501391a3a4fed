/** @file
 * Byte identity of the vm program. The compiler's output is what the
 * vm runs: its word order, its term spans, its case tables and its
 * emit summary. These tests pin the FNV-1a hash of
 * `Program::disassemble()`, with trace checks compiled in and out,
 * for every shipped spec, the `1k`/`10k` presets and 200 synthetic
 * seeds, so a compile speed-up that reorders words, terms or case
 * tables fails here the way a front-end change that moves one byte
 * of canonical text fails FrontEndIdentity.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "analysis/resolve.hh"
#include "machines/synthetic.hh"
#include "sim/compiler.hh"
#include "support/serialize.hh"

namespace asim {
namespace {

/** The hash of the program `text` compiles to, traced and untraced. */
uint64_t
programHash(const std::string &text)
{
    const ResolvedSpec rs = resolveText(text);
    return fnv1a64(compileProgram(rs, CompilerOptions{}, true).disassemble() +
                   compileProgram(rs, CompilerOptions{}, false).disassemble());
}

TEST(ProgramIdentity, ShippedSpecsKeepTheirProgram)
{
    const std::map<std::string, uint64_t> pinned = {
        {"counter.asim", 0x70132ed54fb342c3ull},
        {"dual_counter.asim", 0x333fc59887f7547dull},
        {"echo.asim", 0x701339dc6bd5ca5dull},
        {"fig43_memory.asim", 0x9ca151da39a5b24aull},
        {"gcd.asim", 0xc5f55d34416452c7ull},
        {"multiplier.asim", 0x600672dea5e1f254ull},
        {"traffic_light.asim", 0x1e40200b9f7c46fdull},
    };
    size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(ASIM_SPECS_DIR)) {
        if (entry.path().extension() != ".asim")
            continue;
        const std::string name = entry.path().filename().string();
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        auto it = pinned.find(name);
        ASSERT_NE(it, pinned.end()) << name << " has no pinned program";
        EXPECT_EQ(programHash(text.str()), it->second)
            << name << std::hex << " hashes 0x" << programHash(text.str());
        ++seen;
    }
    EXPECT_EQ(seen, pinned.size());
}

TEST(ProgramIdentity, PresetsKeepTheirProgram)
{
    const uint64_t k1 =
        programHash(generateSyntheticText(syntheticPreset("1k")));
    const uint64_t k10 =
        programHash(generateSyntheticText(syntheticPreset("10k")));
    EXPECT_EQ(k1, 0x676bb98131810ff0ull) << std::hex << "1k: 0x" << k1;
    EXPECT_EQ(k10, 0x3edfb62f87b4caefull) << std::hex << "10k: 0x" << k10;
}

TEST(ProgramIdentity, SyntheticSeedsKeepTheirProgram)
{
    std::string all;
    for (uint32_t seed = 1; seed <= 200; ++seed) {
        SyntheticOptions so;
        so.seed = seed;
        all += std::to_string(programHash(generateSyntheticText(so))) + '\n';
    }
    EXPECT_EQ(fnv1a64(all), 0x36ed5c8afdcaf8adull)
        << std::hex << "0x" << fnv1a64(all);
}

} // namespace
} // namespace asim
