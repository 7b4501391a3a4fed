/** @file
 * End-to-end tests of the command-line tools (asim-run, asim2c,
 * asim-serve), driven through the shell exactly as a user would.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#ifndef ASIM_RUN_BIN
#define ASIM_RUN_BIN "asim-run"
#endif
#ifndef ASIM2C_BIN
#define ASIM2C_BIN "asim2c"
#endif
#ifndef ASIM_SERVE_BIN
#define ASIM_SERVE_BIN "asim-serve"
#endif
#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace {

struct CmdResult
{
    int status = -1;
    std::string out;
};

CmdResult
run(const std::string &cmd)
{
    CmdResult r;
    std::string full = cmd + " 2>&1";
    FILE *p = popen(full.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), p)) > 0)
        r.out.append(buf, n);
    r.status = pclose(p);
    return r;
}

std::string
counterSpec()
{
    return std::string(ASIM_SPECS_DIR) + "/counter.asim";
}

TEST(Cli, AsimRunTracesCounter)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " --cycles=5 " +
                      counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("Cycle   0 count= 0"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("Cycle   4 count= 4"),
              std::string::npos);
    EXPECT_NE(r.out.find("components read"), std::string::npos);
}

TEST(Cli, AsimRunEnginesAgree)
{
    auto strip = [](std::string s) {
        // Drop the stderr banner lines (component count).
        std::string out;
        std::istringstream is(s);
        std::string line;
        while (std::getline(is, line)) {
            if (line.rfind("Cycle", 0) == 0)
                out += line + "\n";
        }
        return out;
    };
    CmdResult vm = run(std::string(ASIM_RUN_BIN) +
                       " --engine=vm --cycles=8 " + counterSpec());
    CmdResult in = run(std::string(ASIM_RUN_BIN) +
                       " --engine=interp --cycles=8 " + counterSpec());
    EXPECT_EQ(strip(vm.out), strip(in.out));
    EXPECT_FALSE(strip(vm.out).empty());
}

TEST(Cli, AsimRunStats)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --no-trace --stats --cycles=10 " +
                      counterSpec());
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("cycles: 10"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("memory count: reads=0 writes=10"),
              std::string::npos);
}

TEST(Cli, AsimRunScriptedIo)
{
    std::string script = "/tmp/asim_cli_echo_script.txt";
    {
        std::ofstream f(script);
        f << "# five inputs\n10 20 30 40 50\n";
    }
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --io=script:" + script + " --no-trace " +
                      std::string(ASIM_SPECS_DIR) + "/echo.asim");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("10\n20\n30\n40\n50\n"), std::string::npos)
        << r.out;
    std::remove(script.c_str());
}

TEST(Cli, AsimRunRejectsMissingScript)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --io=script:/nonexistent.txt " +
                      counterSpec());
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.out.find("cannot read"), std::string::npos) << r.out;
}

TEST(Cli, AsimRunBatchHomogeneous)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch=3 --threads=2 --stats " +
                      std::string(ASIM_SPECS_DIR) + "/gcd.asim");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("3 instances, 2 threads"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("gcd.asim#2"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("total cycles: 123"), std::string::npos)
        << r.out; // 3 x 41 inclusive iterations
}

TEST(Cli, AsimRunBatchManifestWithJson)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch-manifest=" +
                      std::string(ASIM_SPECS_DIR) +
                      "/batch.manifest --json=-");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("\"faults\": 0"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("multiplier.asim"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("\"watchpoint_hit\": true"),
              std::string::npos)
        << r.out; // the gcd watch=a:21 line
}

TEST(Cli, AsimRunBatchNative)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";
    // Batch-eligible since the persistent --serve protocol: one
    // compiled binary, one child per instance (DESIGN.md §5/§7).
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch=2 --engine=native --cycles=10 " +
                      counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("2 instances"), std::string::npos) << r.out;
}

TEST(Cli, AsimRunBatchExitsTwoOnFault)
{
    // gcd.asim run on 5 cycles with a watch that can never hit is
    // fine; instead drive a faulting spec through the batch path.
    std::string spec = "/tmp/asim_cli_batch_fault.asim";
    {
        std::ofstream f(spec);
        f << "# walks off a 4-cell memory\n"
             "count* next .\n"
             "A next 4 count 1\n"
             "M count 0 next 1 1\n"
             "M mem count count 1 4\n"
             ".\n";
    }
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch=2 --cycles=20 " + spec);
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << r.out;
    EXPECT_NE(r.out.find("FAULT"), std::string::npos) << r.out;
    std::remove(spec.c_str());
}

TEST(Cli, AsimRunBatchRefusesAnUnknownWatch)
{
    // Like a bad fault= key, a watch= naming no component is refused
    // before any instance runs: exit 1, no summary table.
    const std::string manifest =
        (std::filesystem::temp_directory_path() /
         "asim_cli_bad_watch.manifest")
            .string();
    {
        std::ofstream f(manifest);
        f << counterSpec() << " cycles=5 watch=nosuch:1\n";
    }
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch-manifest=" + manifest);
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << r.out;
    EXPECT_NE(r.out.find("batch job 0 (counter.asim): unknown "
                         "component <nosuch>"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("instances"), std::string::npos) << r.out;
    std::remove(manifest.c_str());
}

TEST(Cli, AsimRunListsEngines)
{
    // Byte for byte: the names, their order and the descriptions are
    // what scripts that pick an engine read.
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " --list-engines");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.out,
              "interp\tslot-resolved table interpreter (ASIM analog); "
              "--partitions=N runs one design bulk-synchronously "
              "across N lanes\n"
              "native\tgenerated C++ host-compiled into a shared "
              "library and run in process (ASIM II pipeline)\n"
              "symbolic\tname-lookup symbolic interpreter (faithful "
              "ASIM baseline)\n"
              "vm\tcompiled bytecode VM (portable ASIM II analog)\n");
}

TEST(Cli, AsimRunDumpBytecode)
{
    // Golden smoke over the compile-only path: the dump starts with
    // the hoisted folds, then the cycle stream and the emit counters.
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --dump-bytecode " + counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_EQ(r.out.rfind("hoisted:\n", 0), 0u) << r.out;
    EXPECT_NE(r.out.find("\ncycle:\n"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("opt: cycle="), std::string::npos) << r.out;
    EXPECT_NE(r.out.find(" dispatched="), std::string::npos) << r.out;
    EXPECT_NE(r.out.find(" terms="), std::string::npos) << r.out;
    // The counter's only bounds check is statically discharged.
    EXPECT_NE(r.out.find("checksElided=1"), std::string::npos)
        << r.out;
}

TEST(Cli, AsimRunRejectsUnknownEngine)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --engine=bogus --cycles=5 " + counterSpec());
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.out.find("unknown engine <bogus>; registered engines: "
                         "interp, native, symbolic, vm\n"),
              std::string::npos)
        << r.out;
}

TEST(Cli, AsimRunOptionsErrorsExitOneLikeTheBatch)
{
    // A bad engine name, or partitions on an engine without lanes, is
    // a bad argument: a single run exits 1 with the batch's text, not
    // a runtime error.
    for (const std::string flags :
         {"--engine=bogus", "--partitions=2 --engine=vm"}) {
        const std::string tail =
            " --cycles=5 --io=null " + flags + " " + counterSpec();
        CmdResult single = run(std::string(ASIM_RUN_BIN) + tail);
        CmdResult batch = run(std::string(ASIM_RUN_BIN) + " --batch=2" + tail);
        EXPECT_EQ(WEXITSTATUS(single.status), 1) << flags << single.out;
        EXPECT_EQ(WEXITSTATUS(batch.status), 1) << flags << batch.out;
        EXPECT_EQ(single.out, batch.out) << flags;
        EXPECT_EQ(single.out.find("runtime error"), std::string::npos)
            << single.out;
    }
}

TEST(Cli, AsimRunNativeEngine)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --engine=native --cycles=5 " + counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("Cycle   4 count= 4"), std::string::npos)
        << r.out;
}

TEST(Cli, AsimRunRejectsBadSpec)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " /dev/null");
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.out.find("Error"), std::string::npos);
}

TEST(Cli, RegressSpecsFailCleanlyAndFast)
{
    // specs/regress/ holds hostile specs that once hung, crashed or
    // ran with a wrong meaning. Each must end in a SpecError: exit 1,
    // an "Error." line, within 2 s. The timeout turns a hang into a
    // failure instead of a stuck test.
    size_t seen = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(ASIM_SPECS_DIR) + "/regress")) {
        if (entry.path().extension() != ".asim")
            continue;
        ++seen;
        const std::string cmd = "timeout 10 " + std::string(ASIM_RUN_BIN) +
                                " " + entry.path().string() + " < /dev/null";
        const auto start = std::chrono::steady_clock::now();
        CmdResult r = run(cmd);
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - start;
        EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
            << cmd << "\n" << r.out;
        EXPECT_NE(("\n" + r.out).find("\nError."), std::string::npos)
            << cmd << "\n" << r.out;
        EXPECT_LT(took.count(), 2.0) << cmd;
    }
    EXPECT_GE(seen, 3u);
}

TEST(Cli, Asim2cGeneratesPascal)
{
    std::string out = "/tmp/asim2c_test_simulator.p";
    CmdResult r = run(std::string(ASIM2C_BIN) + " --lang=pascal -o " +
                      out + " " + counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("Sorting components."), std::string::npos);
    EXPECT_NE(r.out.find("Generating code."), std::string::npos);
    std::ifstream f(out);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("program simulator (input, output);"),
              std::string::npos);
    std::remove(out.c_str());
}

TEST(Cli, Asim2cGeneratedCppCompilesAndRuns)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";
    std::string cc = "/tmp/asim2c_test_simulator.cc";
    std::string bin = "/tmp/asim2c_test_simulator";
    CmdResult gen = run(std::string(ASIM2C_BIN) + " --lang=cpp -o " +
                        cc + " " + counterSpec());
    ASSERT_EQ(gen.status, 0) << gen.out;
    CmdResult compile =
        run("g++ -O2 -fwrapv -o " + bin + " " + cc);
    ASSERT_EQ(compile.status, 0) << compile.out;
    CmdResult sim = run(bin + std::string(" 3"));
    EXPECT_EQ(sim.status, 0);
    EXPECT_NE(sim.out.find("Cycle   0 count= 0"),
              std::string::npos)
        << sim.out;
    EXPECT_NE(sim.out.find("Cycle   3 count= 3"),
              std::string::npos);
    std::remove(cc.c_str());
    std::remove(bin.c_str());
}

TEST(Cli, Asim2cRejectsUnknownLanguage)
{
    CmdResult r = run(std::string(ASIM2C_BIN) + " --lang=cobol " +
                      counterSpec());
    EXPECT_NE(r.status, 0);
}

/** The flag names a binary's --help lists: the spelling column of
 *  every "  -..." line ("--cycles=N" -> "--cycles", "-o FILE" -> "-o",
 *  "--help, -h" -> both). */
std::set<std::string>
helpFlags(const std::string &bin)
{
    CmdResult r = run(bin + " --help");
    EXPECT_EQ(r.status, 0) << r.out;
    std::set<std::string> names;
    std::istringstream is(r.out);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("  -", 0) != 0)
            continue;
        std::string column = line.substr(2, line.find("  ", 2) - 2);
        std::istringstream spellings(column);
        std::string spelling;
        while (std::getline(spellings, spelling, ',')) {
            auto start = spelling.find_first_not_of(' ');
            spelling = spelling.substr(start);
            names.insert(spelling.substr(0, spelling.find_first_of("= ")));
        }
    }
    return names;
}

TEST(Cli, HelpListsEveryFlag)
{
    // The flags each binary accepted before its parser became
    // table-driven, plus --help/-h: the sets must stay equal.
    const std::set<std::string> asimRun = {
        "--help", "-h", "--engine", "--partitions", "--synthetic",
        "--cycles", "--io", "--stats", "--no-trace", "--fixed-shl",
        "--list-engines", "--dump-bytecode", "--inject", "--campaign",
        "--seed", "--golden-cycle", "--injector", "--campaign-watch",
        "--hang-budget", "--campaign-splice", "--list-injectors",
        "--save-state", "--restore-from", "--checkpoint-every",
        "--batch", "--batch-manifest", "--threads", "--json",
        "--checkpoint-dir", "--connect", "--session", "--evict",
        "--close-session", "--server-stats", "--server-metrics",
        "--shutdown-server", "--trace-out"};
    const std::set<std::string> asim2c = {
        "--help", "-h", "--lang", "-o", "--no-trace", "--no-optimize",
        "--fixed-shl", "--serve", "--spec-hash", "--trace-out"};
    const std::set<std::string> asimServe = {
        "--help", "-h", "--socket", "--tcp", "--state-dir",
        "--evict-after-ms", "--trace-out", "--quiet"};
    EXPECT_EQ(helpFlags(ASIM_RUN_BIN), asimRun);
    EXPECT_EQ(helpFlags(ASIM2C_BIN), asim2c);
    EXPECT_EQ(helpFlags(ASIM_SERVE_BIN), asimServe);
}

TEST(Cli, HostileFlagValuesExitOneNamingTheFlag)
{
    // Every flag whose value is parsed (a number, port,
    // component:value, or one of a fixed set of words) against the
    // same malformed values; 0 only where the flag needs a positive
    // value. Free-text flags (paths, engine names) take any text.
    struct ValuedFlag
    {
        const char *bin;
        const char *flag;
        bool zeroIsBad;
    };
    const ValuedFlag flags[] = {
        {ASIM_RUN_BIN, "--partitions", true},
        {ASIM_RUN_BIN, "--synthetic", true},
        {ASIM_RUN_BIN, "--cycles", false},
        {ASIM_RUN_BIN, "--io", true},
        {ASIM_RUN_BIN, "--campaign", true},
        {ASIM_RUN_BIN, "--seed", false},
        {ASIM_RUN_BIN, "--golden-cycle", false},
        {ASIM_RUN_BIN, "--campaign-watch", true},
        {ASIM_RUN_BIN, "--hang-budget", false},
        {ASIM_RUN_BIN, "--checkpoint-every", true},
        {ASIM_RUN_BIN, "--batch", true},
        {ASIM_RUN_BIN, "--threads", true},
        {ASIM2C_BIN, "--lang", true},
        {ASIM_SERVE_BIN, "--tcp", false},
        {ASIM_SERVE_BIN, "--evict-after-ms", false},
    };
    for (const ValuedFlag &f : flags) {
        for (std::string value :
             {"", "abc", "5x", "-1", "0", "18446744073709551616"}) {
            if (value == "0" && !f.zeroIsBad)
                continue;
            // A daemon that accepted the value would never exit: the
            // timeout turns that into a failure instead of a hang.
            std::string cmd = "timeout 10 " + std::string(f.bin) + " '" +
                              f.flag + "=" + value + "'";
            if (std::string(f.bin) != ASIM_SERVE_BIN)
                cmd += " " + counterSpec();
            CmdResult r = run(cmd + " < /dev/null");
            EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
                << cmd << "\n" << r.out;
            // A stderr line that starts with the flag's name.
            EXPECT_NE(("\n" + r.out).find("\n" + std::string(f.flag)),
                      std::string::npos)
                << cmd << "\n" << r.out;
        }
    }
    // Values that used to wrap or parse partially.
    for (const char *args : {"--threads=4294967297", "--cycles=10x",
                             "--partitions=4294967297"}) {
        CmdResult r = run(std::string(ASIM_RUN_BIN) + " " + args + " " +
                          counterSpec() + " < /dev/null");
        EXPECT_EQ(WEXITSTATUS(r.status), 1) << args << "\n" << r.out;
    }
    // One lane past the bound the serve recipe and batch manifests
    // share is refused by name; the bound itself runs.
    const std::string interp = std::string(ASIM_RUN_BIN) +
                               " --engine=interp --no-trace --cycles=2 ";
    CmdResult over =
        run(interp + "--partitions=257 " + counterSpec() + " < /dev/null");
    EXPECT_EQ(WEXITSTATUS(over.status), 1) << over.out;
    EXPECT_NE(("\n" + over.out).find("\n--partitions"), std::string::npos)
        << over.out;
    CmdResult atBound =
        run(interp + "--partitions=256 " + counterSpec() + " < /dev/null");
    EXPECT_EQ(WEXITSTATUS(atBound.status), 0) << atBound.out;
}

} // namespace
