/** @file
 * Byte identity of the front end. The canonical text a spec writes
 * back to (lang/writer.hh) is what checkpoints, serve recipes and the
 * native build cache key on, through its FNV-1a hash `rs.identity`.
 * These tests pin both: canonical text re-parses to itself, and the
 * identity of every shipped spec, of the `1k`/`10k` presets, of 200
 * generated sources that use every front-end construct and of 200
 * synthetic seeds equals the value recorded from the front end that
 * kept one heap object per component, expression, term and name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "lang/writer.hh"
#include "machines/synthetic.hh"
#include "support/serialize.hh"

namespace asim {
namespace {

/** A random specification source that uses every front-end construct:
 *  macros (one built from another), a cycle count, starred and
 *  unstarred declarations, a declared-but-undefined name, a module
 *  with two instances, every number form, subfields, bit strings,
 *  brace comments, memories with init lists, I/O operations and
 *  dynamic operations. Only the standard library: the same source
 *  is fed to any version of the front end. */
std::string
corpusSpec(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    auto num = [](int64_t v) { return std::to_string(v); };
    std::string t = "# corpus seed " + num(seed) + "\n";
    t += "-wa " + num(pick(4)) + "\n";
    t += "-wb ~wa+" + num(1 + pick(3)) + "\n";
    t += "-kc #" + std::string(1 + pick(3), '1') + "\n";
    if (pick(2))
        t += "= " + num(pick(40)) + "\n";

    const int nmem = 1 + pick(3);
    const int ncomb = 2 + pick(8);
    std::vector<std::string> mems, combs;
    for (int i = 0; i < nmem; ++i)
        mems.push_back("m" + num(i));
    for (int i = 0; i < ncomb; ++i)
        combs.push_back((pick(3) ? "c" : "s") + num(i));

    // Declarations: every name, some starred, one that is never
    // defined, and the module instance's memory.
    std::vector<std::string> decls = mems;
    decls.insert(decls.end(), combs.begin(), combs.end());
    decls.push_back("ghost");
    decls.push_back("r1");
    for (size_t i = decls.size(); i > 1; --i)
        std::swap(decls[i - 1], decls[pick(static_cast<int>(i))]);
    for (const auto &d : decls) {
        t += d;
        if (pick(3) == 0)
            t += '*';
        t += pick(4) ? ' ' : '\n';
    }
    t += ".\n";

    // A constant term of `w` bits in one of the number forms.
    auto constant = [&](int w) {
        const int v = pick(1 << std::min(w, 12));
        switch (pick(6)) {
          case 0: return num(v) + "." + num(w);
          case 1: {
            std::string b = "#";
            for (int k = w - 1; k >= 0; --k)
                b += static_cast<char>('0' + ((v >> k) & 1));
            return b;
          }
          case 2: {
            static const char *hex = "0123456789ABCDEF";
            return std::string("$") + hex[v & 15] + "." + num(w);
          }
          case 3: return "%" + std::string(1, '1') + "0." + num(w);
          case 4: return num(v / 2) + "+" + num(v - v / 2) + "." + num(w);
          default: return "^" + num(pick(3)) + "." + num(w);
        }
    };
    // A reference to an earlier comb component (index < limit) or any
    // memory, `w` bits wide, sometimes through a macro.
    auto ref = [&](int limit, int w) {
        std::string name = limit > 0 && pick(2)
                               ? combs[pick(limit)]
                               : mems[pick(nmem)];
        const int from = pick(4);
        if (w == 1 && pick(2))
            return name + "." + (pick(2) ? "~wa" : num(from));
        return name + "." + num(from) + "." + num(from + w - 1);
    };
    // An expression of at most `bits` explicit bits, sometimes led by
    // an unbounded term (a whole reference or a bare constant).
    auto expr = [&](int limit, int bits) {
        std::string e;
        int left = bits;
        while (left > 0) {
            const int w = 1 + pick(std::min(left, 5));
            std::string term = pick(2) ? constant(w) : ref(limit, w);
            e = e.empty() ? term : term + "," + e;
            left -= w;
            if (pick(3) == 0)
                break;
        }
        if (pick(5) == 0)
            e = "~kc," + e;
        if (pick(4) == 0)
            e = (pick(2) ? mems[pick(nmem)] : num(pick(100))) + "," + e;
        return e;
    };

    // The module comes first: a selector's case list runs until the
    // next A, S or M, so a D or U right after one would be read as a
    // case.
    t += "D acc q step .\n"
         "A sum 4 q.0.7 step.0.~wb\n"
         "M q 0 sum 1 -2 3 $F\n"
         "E\n";
    t += "U u1 acc r1 " + combs[0] + "\n";
    t += "U u2 acc r2 " + mems[0] + "\n";
    for (int i = 0; i < ncomb; ++i) {
        if (combs[i][0] == 'c') {
            const std::string funct = pick(3) ? num(pick(14)) : ref(i, 3);
            const std::string left = expr(i, 12);
            const std::string right = expr(i, 12);
            t += "A " + combs[i] + " " + funct + " " + left + " " + right;
        } else {
            const int k = 1 + pick(2);
            t += "S " + combs[i] + " ";
            t += ref(i, k);
            for (int j = 0; j < (1 << k); ++j)
                t += " " + expr(i, 10);
        }
        t += pick(4) == 0 ? " {a comment}\n" : "\n";
    }
    for (int i = 0; i < nmem; ++i) {
        const int bits = 1 + pick(4);
        static const char *ops[] = {"0", "1", "2", "3", "5", "9", "13"};
        const std::string opn = pick(4) == 0 ? ref(ncomb, 2) : ops[pick(7)];
        const std::string addr = ref(ncomb, bits);
        const std::string data = expr(ncomb, 12);
        t += "M " + mems[i] + " " + addr + " " + data + " " + opn;
        if (pick(2)) {
            t += " -" + num(1 << bits);
            for (int j = 0; j < (1 << bits); ++j)
                t += " " + (pick(5) ? num(pick(4096)) : "-" + num(pick(9)));
        } else {
            t += " " + num(1 << bits);
        }
        t += "\n";
    }
    t += ".\n";
    return t;
}

/** Canonical text of `source`; checks that it re-parses to itself and
 *  that resolving `source` hashes it. Returns the identity. */
uint64_t
checkedIdentity(const std::string &source, const std::string &what)
{
    const Spec spec = parseSpec(source);
    const std::string canonical = writeSpec(spec);
    EXPECT_EQ(writeSpec(parseSpec(canonical)), canonical) << what;
    const ResolvedSpec rs = resolve(spec);
    EXPECT_EQ(rs.text, canonical) << what;
    EXPECT_EQ(rs.identity, fnv1a64(canonical)) << what;
    EXPECT_EQ(resolveText(canonical).identity, rs.identity) << what;
    return rs.identity;
}

TEST(FrontEndIdentity, ShippedSpecsKeepTheirIdentity)
{
    const std::map<std::string, uint64_t> pinned = {
        {"counter.asim", 0x068458a93cca241bull},
        {"dual_counter.asim", 0x436fe309bc3438dcull},
        {"echo.asim", 0xb27d3e84d0eeac9cull},
        {"fig43_memory.asim", 0x2d26fc16e68a77feull},
        {"gcd.asim", 0x70acb718107d8e37ull},
        {"multiplier.asim", 0x9acaaa6d3932d682ull},
        {"traffic_light.asim", 0xf17cae389d6cc24bull},
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
        ASSERT_NE(it, pinned.end()) << name << " has no pinned identity";
        EXPECT_EQ(checkedIdentity(text.str(), name), it->second) << name;
        ++seen;
    }
    EXPECT_EQ(seen, pinned.size());
}

TEST(FrontEndIdentity, PresetsKeepTheirIdentity)
{
    EXPECT_EQ(checkedIdentity(generateSyntheticText(syntheticPreset("1k")),
                              "1k"),
              0x5a5ca9bc7079f5f2ull);
    EXPECT_EQ(checkedIdentity(generateSyntheticText(syntheticPreset("10k")),
                              "10k"),
              0xc572bca1f1865eabull);
}

/** Modules, macros, every number form, init lists, I/O operations and
 *  traced declarations, 200 seeds: one hash over their identities. */
TEST(FrontEndIdentity, GeneratedSourcesKeepTheirIdentity)
{
    std::string all;
    for (uint32_t seed = 0; seed < 200; ++seed) {
        all += std::to_string(
                   checkedIdentity(corpusSpec(seed),
                                   "corpus seed " + std::to_string(seed))) +
               '\n';
    }
    EXPECT_EQ(fnv1a64(all), 0xe517042bc3bfa626ull);
}

TEST(FrontEndIdentity, SyntheticSeedsKeepTheirIdentity)
{
    std::string all;
    for (uint32_t seed = 1; seed <= 200; ++seed) {
        SyntheticOptions so;
        so.seed = seed;
        all += std::to_string(checkedIdentity(
                   generateSyntheticText(so),
                   "synthetic seed " + std::to_string(seed))) +
               '\n';
    }
    EXPECT_EQ(fnv1a64(all), 0xa0aacb180a91991dull);
}

} // namespace
} // namespace asim
