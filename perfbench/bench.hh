/**
 * @file
 * Shared machinery of the wall-clock benchmark: arguments, the result
 * record (operations, failures, metrics), steady-clock timing with
 * optional span emission, order statistics, the host record, and the
 * sieve machine that three of the four workloads drive.
 *
 * Every duration here is steady_clock wall time. Process CPU time is
 * never used: the native engine and the serve daemon do their work in
 * other processes, where the caller's CPU clock cannot see it.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace asim {
class Simulation;
struct ResolvedSpec;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Seconds since `t0`. */
double secondsSince(Clock::time_point t0);

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /** Short sizes for the smoke run: every gate, far less work. */
    bool smoke = false;

    /** Directory (inside the checkout) for traces, native builds,
     *  daemon state and sockets. */
    std::string outDir;

    /** Path of the asim-serve binary built beside this program. */
    std::string serveBin;
};

/**
 * What one run reports. Every operation a workload attempts goes
 * through op(); a gate that fails, a SimError and an ERR reply all
 * count as a failed operation.
 */
class Report
{
  public:
    /** Count one attempted operation; `ok == false` counts it failed
     *  and keeps `what` for the human log. */
    void op(bool ok, const std::string &what = "");

    /** Fold in another report's operations (a client thread's). */
    void merge(const Report &other);

    /** Record a metric (the last write of a name wins). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /** The result line: {"correct", "attempted", "failed",
     *  "metrics": {name: {"value", "unit"}}} with every metric
     *  recorded. perfbench/run.py keeps the ones BENCHMARK.json lists
     *  for the run's mode. */
    std::string json() const;

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/**
 * Accumulates host wall time per layer name. A Scope times one call
 * into a layer from outside; while a trace is open it also emits a
 * Chrome span named after the layer, so the trace file and the
 * per-layer figures come from the same clock reads.
 */
class Layers
{
  public:
    class Scope
    {
      public:
        /** `name` must be a string literal (it names the span). */
        Scope(Layers &layers, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Stop the clock now; returns the elapsed seconds. */
        double stop();

      private:
        Layers &layers_;
        const char *name_;
        Clock::time_point t0_;
        uint64_t spanStartNs_;
        bool done_ = false;
    };

    /** Every sample recorded under `name`, in seconds. */
    const std::vector<double> &samples(const std::string &name) const;

    double median(const std::string &name) const;

    void add(const std::string &name, double seconds);

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/// @{ Order statistics over unsorted samples (0 for none).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
/// @}

/**
 * The host's speed of the moment, read from a fixed kernel.
 *
 * On a shared host the same code runs faster or slower by a fifth and
 * more as co-tenants come and go, on every vCPU at once and for tens of
 * seconds at a time (measured on a 4-vCPU KVM guest: one seed of
 * synth64k read 440 and 534 vm cycles/s minutes apart, its set-up 23
 * and 17 s). No statistic within one run removes a drift that long,
 * but a fixed piece of work timed right beside the measured work slows
 * down with it, provided it loads the core the way the measured code
 * does: a co-tenant on the same physical core slows a branchy, high-IPC
 * interpreter loop far more than a serial arithmetic chain. So the
 * kernel is a tiny switch-dispatched interpreter running a fixed
 * program. An xorshift read-modify-write chain tracked the sieve's
 * drift between runs no better than no correction at all; this kernel
 * cut the max-min spread of the sieve's vm rate from 7.6% to 0.5% over
 * four runs of one seed, and from 17% to 6% over four seeds. It is
 * this program's own code, so a change to the simulator moves the
 * scaled figures in full; only the host's drift cancels.
 */
double kernelSeconds();

/** Median wall seconds of `n` kernel runs. */
double kernelSeconds(int n);

/** The kernel's wall time on the reference host, an uncontended 4-vCPU
 *  Xeon KVM guest, in seconds. */
constexpr double kKernelReferenceSeconds = 1.8e-3;

/** `seconds` measured while the kernel took `kernel` seconds, scaled to
 *  the reference host's speed. */
inline double
atReferenceSpeed(double seconds, double kernel)
{
    return seconds * kKernelReferenceSeconds / kernel;
}

/** Times one set-up phase at reference speed, with the kernel's median
 *  taken just before and just after it: set-up runs once and cannot be
 *  interleaved with the kernel. */
class SetupTimer
{
  public:
    SetupTimer() : kernel_(kernelSeconds(5)), t0_(Clock::now()) {}

    /** Seconds since construction, at reference speed. */
    double stop() const
    {
        const double s = secondsSince(t0_);
        return atReferenceSpeed(s, (kernel_ + kernelSeconds(5)) / 2);
    }

  private:
    double kernel_;
    Clock::time_point t0_;
};

/**
 * Work done over busy wall time, at reference speed. Every 100 ms of
 * busy time the kernel runs once and closes an interval, whose rate is
 * scaled by that kernel time; the figure is the median over intervals.
 */
class CalibratedRate
{
  public:
    void add(double work, double busySeconds);

    /** Median interval rate scaled to reference speed (0 if none). */
    double rate() const { return median(scaled_); }

    /** Median interval rate as this host delivered it. */
    double rawRate() const { return median(raw_); }

    /** Median kernel seconds over the intervals. */
    double kernel() const { return median(kernel_); }

  private:
    double work_ = 0, busy_ = 0;
    std::vector<double> scaled_, raw_, kernel_;
};

/** `rate` at reference speed, after printing it as this host delivered
 *  it, with the kernel's time beside it, to the workload's log. */
double vmRate(const std::string &workload, const CalibratedRate &rate);

/** Median microseconds of `fn` over `n` calls. */
template <class F>
double
medianUs(int n, F &&fn)
{
    std::vector<double> us;
    for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(std::chrono::duration<double, std::micro>(
                         Clock::now() - t0)
                         .count());
    }
    return median(us);
}

/** Peak resident set of this process plus the largest reaped child
 *  (host compiler, native engine children, the daemon), in MB. */
double peakRssMb();

/** nproc, CPU model, compiler and build type as one JSON object. */
std::string hostRecordJson();

/** True when this program was compiled as a Release build. */
bool releaseBuild();

/// @{ Tracing around a traced run: start writes the host record into
/// the trace; stop closes the file (embedding the registry) and
/// turns timing instrumentation back off, so later phases run as an
/// untraced user's would.
bool startTrace(const std::string &path);
void stopTrace();
/// @}

/** Sum of the durations (seconds) of every complete span named
 *  `name` in a closed trace file. */
double spanTotalSeconds(const std::string &traceFile,
                        const std::string &name);

/// @{ In-process registry reads (0 when the metric does not exist).
double registryCounter(const std::string &name);
double registryHistogramMean(const std::string &name);
double registryGaugePeak(const std::string &name);
/// @}

/** The checkpoint of `sim`'s state, cycle and input cursor only: the
 *  part every engine must agree on. The native engine's SimStats count
 *  cycles only, its snapshot carries a byte cursor in-process engines
 *  lack, and the vm counts fewer ALU evaluations than interp on
 *  designs with constant-function ALUs. */
std::string stateDigest(const asim::Simulation &sim);

/** The full checkpoint of `sim`, SimStats included. */
std::string fullCheckpoint(const asim::Simulation &sim);

/** Record every SimStats field (memory counters summed over the
 *  memories) as sim.stats.* counts. */
void reportSimStats(const asim::SimStats &stats, Report &report);

/** True when `a` and `b` agree on every SimStats field except
 *  aluEvals, which the vm counts lower than interp on designs with
 *  constant-function ALUs. */
bool sameStatsButAluEvals(const asim::SimStats &a, const asim::SimStats &b);

/**
 * The checkpoint layer, timed from outside: reset `vm`, run `cycles`,
 * then median encodeCheckpoint/decodeCheckpoint and snapshot()/restore()
 * times (sim.checkpoint.*, sim.snapshot_us.vm, sim.restore_us.vm).
 * With `native`, the same snapshot()/restore() probe on it
 * (sim.snapshot_us.native, sim.restore_us.native).
 */
void checkpointProbe(asim::Simulation &vm, asim::Simulation *native,
                     uint64_t cycles, Report &report);

/** The codegen layer: generateCpp and compileSpec with the native
 *  engine's options into a fresh `dir` (codegen.generate_cpp_s,
 *  codegen.host_compile_s = compileSpec minus generation). */
void codegenProbe(const asim::ResolvedSpec &rs, const std::string &dir,
                  Layers &layers, Report &report);

/** The thesis Appendix D sieve as one workload input. */
struct SieveMachine
{
    int size = 0;
    std::string specText;     ///< `=` far past HALT, registers starred
    std::string expected;     ///< memory-mapped output of one pass
    uint64_t haltCycle = 0;   ///< first cycle at which state == HALT
};

/** Build the sieve for `size`, find its HALT cycle on the vm and check
 *  the output against sieveReference(size). @throws SimError when the
 *  machine does not halt or prints the wrong primes */
SieveMachine makeSieve(int size);

/** Sieve size for a seed: 40..54, the range the 256-word RAM allows
 *  (size 54 halts at cycle 20,510). */
int sieveSizeForSeed(uint64_t seed);

/// @{ The four workloads.
void runSieve(const Args &args, Report &report);
void runSynth(const Args &args, Report &report);
void runServe(const Args &args, Report &report);
void runCampaign(const Args &args, Report &report);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
