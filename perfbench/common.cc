#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "codegen/native.hh"
#include "machines/stack_machine.hh"
#include "sim/checkpoint.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "support/tracing.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

using namespace asim;

namespace {

#if defined(__clang__)
const std::string kCompiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#else
const std::string kCompiler = "unknown";
#endif

} // namespace

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(what);
    }
}

void
Report::merge(const Report &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &f : other.failures_)
        if (failures_.size() < 20)
            failures_.push_back(f);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = {value, unit};
}

std::string
Report::json() const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true"
                                                               : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << vu.first << ", \"unit\": \""
           << vu.second << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------

Layers::Scope::Scope(Layers &layers, const char *name)
    : layers_(layers), name_(name), t0_(Clock::now()),
      spanStartNs_(tracing::enabled() ? metrics::nowNs() : 0)
{}

Layers::Scope::~Scope() { stop(); }

double
Layers::Scope::stop()
{
    const double s = secondsSince(t0_);
    if (!done_) {
        done_ = true;
        layers_.add(name_, s);
        if (spanStartNs_ != 0) {
            tracing::completeEvent(name_, "bench", spanStartNs_,
                                   metrics::nowNs() - spanStartNs_);
        }
    }
    return s;
}

const std::vector<double> &
Layers::samples(const std::string &name) const
{
    static const std::vector<double> none;
    auto it = samples_.find(name);
    return it == samples_.end() ? none : it->second;
}

double
Layers::median(const std::string &name) const
{
    return perfbench::median(samples(name));
}

void
Layers::add(const std::string &name, double seconds)
{
    samples_[name].push_back(seconds);
}

// ---------------------------------------------------------------------
// Statistics, host record, tracing glue
// ---------------------------------------------------------------------

double
kernelSeconds()
{
    // A fixed pseudo-random program of ALU, compare, load and store
    // operations over eight registers and 64 words, dispatched through
    // a switch: the same mix of indirect branches, L1 traffic and
    // short dependency chains as the engines' cycle loops.
    static const std::vector<uint8_t> program = [] {
        std::vector<uint8_t> ops(256);
        uint64_t x = 7;
        for (auto &op : ops) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            op = static_cast<uint8_t>(x % 6);
        }
        return ops;
    }();
    static std::atomic<uint32_t> sink{0};
    uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint32_t mem[64] = {};
    const auto t0 = Clock::now();
    for (uint32_t i = 0; i < 600000; ++i) {
        const uint32_t k = i & 7;
        switch (program[i & 255]) {
        case 0:
            r[k] += r[(k + 1) & 7];
            break;
        case 1:
            r[k] ^= r[(k + 3) & 7] >> 1;
            break;
        case 2:
            r[k] = mem[r[(k + 2) & 7] & 63];
            break;
        case 3:
            mem[r[k] & 63] = r[(k + 5) & 7];
            break;
        case 4:
            r[k] = r[k] < r[(k + 1) & 7] ? r[k] + 3 : r[k] - 1;
            break;
        default:
            r[k] *= 2654435761u;
            break;
        }
    }
    const double s = secondsSince(t0);
    sink.fetch_add(r[0] + r[3] + mem[5], std::memory_order_relaxed);
    return s;
}

double
kernelSeconds(int n)
{
    std::vector<double> s;
    for (int i = 0; i < n; ++i)
        s.push_back(kernelSeconds());
    return median(s);
}

void
CalibratedRate::add(double work, double busySeconds)
{
    work_ += work;
    busy_ += busySeconds;
    if (busy_ < 0.1)
        return;
    const double k = kernelSeconds();
    raw_.push_back(work_ / busy_);
    scaled_.push_back(work_ / atReferenceSpeed(busy_, k));
    kernel_.push_back(k);
    work_ = busy_ = 0;
}

double
vmRate(const std::string &workload, const CalibratedRate &rate)
{
    std::cout << workload << ": vm " << rate.rawRate()
              << " cycles/s on this host, kernel " << rate.kernel() * 1e3
              << " ms\n";
    return rate.rate();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    // VmHWM, not RUSAGE_SELF: Linux carries ru_maxrss across execve,
    // so the latter would count the launcher's memory too.
    long selfKb = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            selfKb = std::strtol(line.c_str() + 6, nullptr, 10);
    struct rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return double(selfKb + children.ru_maxrss) / 1024.0;
}

bool
releaseBuild()
{
    return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

std::string
hostRecordJson()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" \t",
                                                         colon + 1));
            break;
        }
    }
    return "{\"nproc\": " + std::to_string(ThreadPool::hardwareThreads()) +
           ", \"cpu\": \"" + tracing::jsonEscape(cpu) +
           "\", \"compiler\": \"" + tracing::jsonEscape(kCompiler) +
           "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE + "\"}";
}

bool
startTrace(const std::string &path)
{
    if (!tracing::start(path))
        return false;
    std::string host = hostRecordJson();
    // Span args take an object body: drop the braces.
    tracing::instantEvent("bench.host", "bench",
                          host.substr(1, host.size() - 2));
    return true;
}

void
stopTrace()
{
    tracing::stop();
    metrics::setTimingEnabled(false);
}

double
spanTotalSeconds(const std::string &traceFile, const std::string &name)
{
    // The tracer writes one event object per line.
    const std::string key = "{\"name\":\"" + name + "\",";
    double totalUs = 0;
    std::ifstream in(traceFile);
    for (std::string line; std::getline(in, line);) {
        auto at = line.find(key);
        if (at == std::string::npos ||
            line.find("\"ph\":\"X\"", at) == std::string::npos)
            continue;
        auto dur = line.find("\"dur\":", at);
        if (dur != std::string::npos)
            totalUs += std::strtod(line.c_str() + dur + 6, nullptr);
    }
    return totalUs / 1e6;
}

double
registryCounter(const std::string &name)
{
    auto snap = metrics::Registry::global().snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : double(it->second);
}

double
registryHistogramMean(const std::string &name)
{
    auto snap = metrics::Registry::global().snapshot();
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.mean();
}

double
registryGaugePeak(const std::string &name)
{
    auto snap = metrics::Registry::global().snapshot();
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0 : double(it->second.second);
}

std::string
stateDigest(const Simulation &sim)
{
    EngineSnapshot snap = sim.snapshot();
    EngineSnapshot bare;
    bare.state = std::move(snap.state);
    bare.cycle = snap.cycle;
    bare.ioValues = snap.ioValues;
    return encodeCheckpoint(bare, 0, "perfbench");
}

std::string
fullCheckpoint(const Simulation &sim)
{
    return encodeCheckpoint(sim.snapshot(), 0, "perfbench");
}

void
reportSimStats(const SimStats &st, Report &report)
{
    uint64_t rd = 0, wr = 0, in = 0, out = 0;
    for (const MemStats &ms : st.mems) {
        rd += ms.reads;
        wr += ms.writes;
        in += ms.inputs;
        out += ms.outputs;
    }
    report.metric("sim.stats.cycles", double(st.cycles), "count");
    report.metric("sim.stats.alu_evals", double(st.aluEvals), "count");
    report.metric("sim.stats.sel_evals", double(st.selEvals), "count");
    report.metric("sim.stats.mem_reads", double(rd), "count");
    report.metric("sim.stats.mem_writes", double(wr), "count");
    report.metric("sim.stats.mem_inputs", double(in), "count");
    report.metric("sim.stats.mem_outputs", double(out), "count");
}

bool
sameStatsButAluEvals(const SimStats &a, const SimStats &b)
{
    if (a.cycles != b.cycles || a.selEvals != b.selEvals ||
        a.mems.size() != b.mems.size())
        return false;
    for (size_t i = 0; i < a.mems.size(); ++i) {
        const MemStats &x = a.mems[i], &y = b.mems[i];
        if (x.name != y.name || x.reads != y.reads || x.writes != y.writes ||
            x.inputs != y.inputs || x.outputs != y.outputs)
            return false;
    }
    return true;
}

void
checkpointProbe(Simulation &vm, Simulation *native, uint64_t cycles,
                Report &report)
{
    vm.reset();
    vm.run(cycles);
    EngineSnapshot snap = vm.snapshot();
    std::string bytes;
    report.metric("sim.checkpoint.encode_us", medianUs(500, [&] {
                      bytes = encodeCheckpoint(snap, 0, "perfbench");
                  }),
                  "us");
    report.metric("sim.checkpoint.decode_us",
                  medianUs(500, [&] { decodeCheckpoint(bytes, "probe"); }),
                  "us");
    report.metric("sim.checkpoint.bytes", double(bytes.size()), "bytes");
    report.metric("sim.snapshot_us.vm",
                  medianUs(500, [&] { snap = vm.snapshot(); }), "us");
    report.metric("sim.restore_us.vm",
                  medianUs(500, [&] { vm.restore(snap); }), "us");
    if (!native)
        return;

    native->reset();
    native->run(cycles);
    std::vector<double> snapUs;
    for (int i = 0; i < 100; ++i) {
        native->run(1); // leaves the mirror stale: a real fetch
        snapUs.push_back(medianUs(1, [&] { snap = native->snapshot(); }));
    }
    report.metric("sim.snapshot_us.native", median(snapUs), "us");
    report.metric("sim.restore_us.native",
                  medianUs(100, [&] { native->restore(snap); }), "us");
}

void
codegenProbe(const ResolvedSpec &rs, const std::string &dir, Layers &layers,
             Report &report)
{
    CodegenOptions cg;
    cg.emitTrace = false;
    cg.emitStateDump = true;
    cg.emitServeLoop = true;
    double gen = 0;
    {
        Layers::Scope s(layers, "codegen.generate_cpp");
        generateCpp(rs, cg);
        gen = s.stop();
    }
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Layers::Scope s(layers, "codegen.compile_spec");
    compileSpec(rs, cg, dir);
    report.metric("codegen.generate_cpp_s", gen, "s");
    report.metric("codegen.host_compile_s", s.stop() - gen, "s");
}

// ---------------------------------------------------------------------
// The sieve machine
// ---------------------------------------------------------------------

int
sieveSizeForSeed(uint64_t seed)
{
    return 40 + static_cast<int>(seed % 15);
}

SieveMachine
makeSieve(int size)
{
    SieveMachine m;
    m.size = size;
    m.specText = stackMachineSpec(sieveProgram(size), 1000000, true);
    for (int32_t v : sieveReference(size))
        m.expected += std::to_string(v) + "\n";

    std::ostringstream out;
    SimulationOptions o;
    o.specText = m.specText;
    o.ioMode = IoMode::Script;
    o.ioOut = &out;
    Simulation sim(o);
    m.haltCycle = sim.runUntilValue("state", kStackHaltState, 1000000);
    if (sim.value("state") != kStackHaltState)
        throw SimError("sieve(" + std::to_string(size) + ") never halts");
    if (out.str() != m.expected)
        throw SimError("sieve(" + std::to_string(size) +
                       ") prints the wrong primes");
    return m;
}

} // namespace perfbench
