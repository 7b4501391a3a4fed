/**
 * @file
 * Span/event tracer emitting Chrome `trace_event` JSON — loadable in
 * Perfetto (ui.perfetto.dev) and chrome://tracing. See
 * docs/OBSERVABILITY.md for the span taxonomy.
 *
 * Off-path contract: when no trace is active, every instrumentation
 * site costs exactly one relaxed atomic load (tracing::enabled()).
 * Span construction captures that flag once; a disabled Span is two
 * null-pointer-sized stores and no clock reads.
 *
 * The writer appends events to the output file under a mutex as they
 * retire. Instrumented code keeps spans coarse (lifecycle phases,
 * batch instances, serve requests) or sampled (one in 64 cycles for
 * per-lane partition phases), so the mutex is never on a per-cycle
 * path. On stop() the file is closed as a JSON object:
 *   {"traceEvents": [...], "asim_metrics": {...}}
 * with the full metrics-registry exposition embedded, so one artifact
 * carries both spans and histograms.
 */

#ifndef ASIM_SUPPORT_TRACING_HH
#define ASIM_SUPPORT_TRACING_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "support/text.hh"

namespace asim::tracing {

/** Serialized line-oriented writer over a stdio stream. Shared
 *  infrastructure: the tracer writes events through one of these, and
 *  support/logging.cc routes panic/log output through stderrWriter()
 *  so interleaved threads never shear a line. */
class SyncWriter
{
  public:
    /** Does not own `stream`; pass nullptr to discard writes. */
    explicit SyncWriter(std::FILE *stream)
        : stream_(stream)
    {}

    /** Write `text` plus a trailing newline atomically w.r.t. other
     *  writeLine calls on this writer, then flush. */
    void writeLine(const std::string &text);

    /** Write raw text (no newline) under the same mutex. */
    void write(const std::string &text);

    void flush();

  private:
    std::mutex mu_;
    std::FILE *stream_;
};

/** Process-wide writer wrapping stderr. */
SyncWriter &stderrWriter();

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** True while a trace file is open. One relaxed load; instrumentation
 *  sites branch on this and pay nothing else when tracing is off. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Open `path` and start recording. Returns false (and records
 *  nothing) if the file cannot be opened. Starting while already
 *  started is a no-op returning false. Also flips
 *  metrics::setTimingEnabled(true) so duration histograms populate
 *  alongside spans. */
bool start(const std::string &path);

/** Stop recording, embed the metrics exposition, close the file.
 *  No-op when not started. Leaves metrics timing enabled. */
void stop();

/** Small stable id for the calling thread (0 = first thread seen).
 *  Used as the Chrome `tid`; lanes and pool workers name themselves
 *  via setThreadName(). */
uint32_t currentTid();

/** Emit a Chrome metadata event naming the calling thread's track. */
void setThreadName(const std::string &name);

/** Emit a complete ("ph":"X") event. `startNs` from metrics::nowNs();
 *  `argsJson` is either empty or a JSON object body like
 *  "\"cycles\":100" (no braces). `tid` defaults to the caller. */
void completeEvent(const char *name, const char *cat, uint64_t startNs,
                   uint64_t durNs, const std::string &argsJson = "",
                   int64_t tid = -1);

/** Emit an instant ("ph":"i") event at now. */
void instantEvent(const char *name, const char *cat,
                  const std::string &argsJson = "", int64_t tid = -1);

/** Emit a counter ("ph":"C") event: one numeric series sample. */
void counterEvent(const char *name, const char *series, double value);

/** For building span args: the shared escaper of support/text.hh. */
using asim::jsonEscape;

/** RAII complete-event span. Captures enabled() once at construction;
 *  a span built while tracing is off stays inert even if tracing
 *  starts before it closes (and vice versa: a span open across stop()
 *  is dropped by the writer, never torn). */
class Span
{
  public:
    /** `name` and `cat` must outlive the span (string literals). */
    Span(const char *name, const char *cat)
        : name_(enabled() ? name : nullptr), cat_(cat),
          start_(name_ ? nowNsForSpan() : 0)
    {}

    ~Span() { finish(); }

    /** True when the span will be emitted. Build setArgs' string
     *  only then: the off path must not allocate. */
    bool active() const { return name_ != nullptr; }

    /** Attach a JSON args body ("\"k\":v,...") emitted with the span. */
    void setArgs(std::string argsJson)
    {
        if (name_)
            args_ = std::move(argsJson);
    }

    /** Close the span early (idempotent). */
    void finish();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    static uint64_t nowNsForSpan();

    const char *name_;
    const char *cat_;
    uint64_t start_;
    std::string args_;
};

} // namespace asim::tracing

#endif // ASIM_SUPPORT_TRACING_HH
