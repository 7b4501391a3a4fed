/**
 * @file
 * Entry point of the wall-clock benchmark binary.
 *
 *   perfbench --workload sieve|synth64k|serve|campaign --seed N
 *             --seconds S --trace 0|1 --out-dir DIR --serve-bin PATH
 *             [--smoke]
 *
 * Prints a `host` line (nproc, CPU model, compiler, build type), a
 * human log, and as its last line one JSON object: correct, attempted,
 * failed and every metric measured. A traced run (--trace 1) also
 * writes DIR/trace-<workload>.json. perfbench/run.py builds and runs
 * this, and keeps the metrics BENCHMARK.json lists for the mode.
 */

#include <filesystem>
#include <iostream>

#include "bench.hh"

using namespace perfbench;

namespace {

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out-dir")
            a.outDir = v;
        else if (k == "--serve-bin")
            a.serveBin = v;
        else
            return false;
    }
    return !a.workload.empty() && !a.outDir.empty() && a.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args)) {
            std::cerr << "usage: perfbench --workload W --seed N "
                         "--seconds S --trace 0|1 --out-dir DIR "
                         "--serve-bin PATH [--smoke]\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "bad argument: " << e.what() << "\n";
        return 2;
    }
    if (!releaseBuild()) {
        std::cerr << "perfbench refuses to time a non-Release build\n";
        return 2;
    }
    std::cout << "host " << hostRecordJson() << "\n";
    std::filesystem::create_directories(args.outDir);

    Report report;
    try {
        if (args.workload == "sieve")
            runSieve(args, report);
        else if (args.workload == "synth64k")
            runSynth(args, report);
        else if (args.workload == "serve")
            runServe(args, report);
        else if (args.workload == "campaign")
            runCampaign(args, report);
        else {
            std::cerr << "unknown workload " << args.workload << "\n";
            return 2;
        }
    } catch (const std::exception &e) {
        // Set-up itself failed: no measurement stands.
        std::cerr << "workload aborted: " << e.what() << "\n";
        report.op(false, e.what());
    }
    if (args.trace)
        report.metric("bench.kernel_us", kernelSeconds(9) * 1e6, "us");
    report.metric("peak_rss_mb", peakRssMb(), "MB");

    for (const auto &f : report.failures())
        std::cout << "FAILED: " << f << "\n";

    std::cout << report.json() << std::endl;
    return 0;
}
