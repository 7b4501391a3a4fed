/** @file
 * The front end makes no heap object per component, expression, term
 * or name: parsing and resolving the `10k` synthetic preset (10,008
 * components) stays under 1% of the ~294k allocations the syntax
 * tree and resolved spec made while they kept a heap object per
 * component, expression, term and name (179 now). This binary replaces the global operator new with a counting
 * one, so it lives in its own test file.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/synthetic.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace asim {
namespace {

TEST(FrontEndAllocations, ParseAndResolveOf10kStayUnderOnePercent)
{
    const std::string text = generateSyntheticText(syntheticPreset("10k"));

    const uint64_t before = g_allocations.load();
    Diagnostics diag;
    const Spec spec = parseSpec(text, &diag);
    const uint64_t parsed = g_allocations.load();
    const ResolvedSpec rs = resolve(spec, &diag);
    const uint64_t resolved = g_allocations.load();

    EXPECT_EQ(rs.comb.size() + rs.mems.size(), 10008u);
    EXPECT_TRUE(diag.warnings().empty());
    const uint64_t total = resolved - before;
    EXPECT_LT(total, 2935u) << "parse " << parsed - before << ", resolve "
                            << resolved - parsed;
}

} // namespace
} // namespace asim
