/**
 * @file
 * Front-end throughput: the ASIM "Generate tables" phase (Figure 5.1
 * row 1), parse and resolve across spec sizes. Both curves pass a
 * Diagnostics, as Simulation does, so a per-name scan in the
 * declaration cross-check or module expansion shows up as a
 * super-linear curve: a rate that falls as the spec grows.
 *
 *   checked  synthetic specs at scale 1, 32, 256 and 1024 (~9k
 *            components), in MB/s of spec text;
 *   module   8 to 1024 uses of a 3-component module, chained output
 *            to input, in uses/s;
 *   stage    each layer of loading the `64000` preset on its own:
 *            parseSpec, resolve of the parsed spec and compileProgram
 *            of the resolved one, in MB/s of the spec text.
 *
 * Each point repeats its load for at least kMinSeconds, kReps times,
 * and prints the median rate with the range. Takes no flags:
 *
 *     build/bench_frontend
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/synthetic.hh"
#include "sim/compiler.hh"

namespace {

using namespace asim;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;
constexpr double kMinSeconds = 0.2;

std::string
synthText(int scale)
{
    SyntheticOptions opts;
    opts.seed = 777 + scale;
    opts.alus = scale * 6;
    opts.selectors = scale * 2;
    opts.memories = scale;
    return generateSyntheticText(opts);
}

std::string
moduleChainText(int uses)
{
    std::string text = "# module chain\n"
                       "o0 .\n"
                       "A o0 4 1 1\n"
                       "D cell in out .\n"
                       "A p 4 in 1\n"
                       "A q 2 p in\n"
                       "A out 4 q 1\n"
                       "E\n";
    for (int k = 1; k <= uses; ++k) {
        text += "U u" + std::to_string(k) + " cell o" +
                std::to_string(k - 1) + " o" + std::to_string(k) + "\n";
    }
    return text + ".\n";
}

/** Calls of `work` per second, sorted, one per repetition. */
template <typename F>
std::vector<double>
callsPerSecond(F &&work)
{
    std::vector<double> rates;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = Clock::now();
        double seconds = 0;
        uint64_t calls = 0;
        do {
            work();
            ++calls;
            seconds =
                std::chrono::duration<double>(Clock::now() - t0).count();
        } while (seconds < kMinSeconds);
        rates.push_back(static_cast<double>(calls) / seconds);
    }
    std::sort(rates.begin(), rates.end());
    return rates;
}

/** Loads of `text` per second, timed the way Simulation loads: parse
 *  and resolve with a Diagnostics. */
std::vector<double>
loadsPerSecond(const std::string &text)
{
    return callsPerSecond([&] {
        Diagnostics diag;
        resolveText(text, &diag);
    });
}

void
printMbPerSecond(const std::string &what, const std::string &text,
                 const std::vector<double> &r)
{
    const double mb = static_cast<double>(text.size()) / 1e6;
    std::printf("  %-19s (%7zu bytes): %6.2f MB/s (%.2f-%.2f)\n",
                what.c_str(), text.size(), r[kReps / 2] * mb, r[0] * mb,
                r[kReps - 1] * mb);
}

} // namespace

int
main()
{
    std::printf("parse+resolve with Diagnostics, median of %d "
                "repetitions (range)\n",
                kReps);
    for (int scale : {1, 32, 256, 1024}) {
        const std::string text = synthText(scale);
        printMbPerSecond("checked scale " + std::to_string(scale), text,
                         loadsPerSecond(text));
    }
    for (int uses : {8, 64, 512, 1024}) {
        const std::vector<double> r = loadsPerSecond(moduleChainText(uses));
        std::printf("  module  uses  %4d: %8.0f uses/s (%.0f-%.0f)\n",
                    uses, r[kReps / 2] * uses, r[0] * uses,
                    r[kReps - 1] * uses);
    }

    // One layer at a time on perfbench's synth64k design (seed 1):
    // each stage's input is built once, outside the timed calls, and
    // the rate is of the spec text the design loads from.
    SyntheticOptions opts = syntheticPreset("64000");
    opts.seed = 1;
    const std::string text = generateSyntheticText(opts);
    Diagnostics diag;
    const Spec spec = parseSpec(text, &diag);
    const ResolvedSpec rs = resolve(spec, &diag);
    std::printf("each layer of loading the 64000 preset, median of %d "
                "repetitions (range)\n",
                kReps);
    printMbPerSecond("stage parse", text, callsPerSecond([&] {
                         Diagnostics d;
                         parseSpec(text, &d);
                     }));
    printMbPerSecond("stage resolve", text, callsPerSecond([&] {
                         Diagnostics d;
                         resolve(spec, &d);
                     }));
    printMbPerSecond("stage compile", text, callsPerSecond([&] {
                         compileProgram(rs, CompilerOptions{}, false);
                     }));
    return 0;
}
