#include "support/tracing.hh"

#include "support/metrics.hh"

#include <cstring>
#include <memory>
#include <sstream>

namespace asim::tracing {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

// ---------------------------------------------------------------------------
// SyncWriter
// ---------------------------------------------------------------------------

void
SyncWriter::writeLine(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!stream_)
        return;
    std::fwrite(text.data(), 1, text.size(), stream_);
    std::fputc('\n', stream_);
    std::fflush(stream_);
}

void
SyncWriter::write(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!stream_)
        return;
    std::fwrite(text.data(), 1, text.size(), stream_);
}

void
SyncWriter::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stream_)
        std::fflush(stream_);
}

SyncWriter &
stderrWriter()
{
    static SyncWriter *w = new SyncWriter(stderr);
    return *w;
}

// ---------------------------------------------------------------------------
// Tracer state
// ---------------------------------------------------------------------------

namespace {

/** All mutable tracer state behind one mutex. Event emission takes it
 *  once per retired span — instrumentation keeps spans coarse or
 *  sampled, so this is never a per-cycle lock. */
struct Tracer
{
    std::mutex mu;
    std::FILE *file = nullptr;
    std::unique_ptr<SyncWriter> writer;
    uint64_t epochNs = 0; ///< trace timestamps are relative to this
    bool firstEvent = true;

    static Tracer &get()
    {
        static Tracer *t = new Tracer();
        return *t;
    }
};

/** Microsecond timestamp with ns precision, as Chrome expects. */
std::string
fmtTsUs(uint64_t ns)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << double(ns) / 1000.0;
    return os.str();
}

/** Append one event object to the open trace, comma-separated. */
void
emit(const std::string &body)
{
    Tracer &t = Tracer::get();
    std::lock_guard<std::mutex> lock(t.mu);
    if (!t.file)
        return; // stopped while the caller held an active span
    std::string line = t.firstEvent ? "\n" : ",\n";
    t.firstEvent = false;
    line += body;
    std::fwrite(line.data(), 1, line.size(), t.file);
}

std::string
eventJson(const char *ph, const char *name, const char *cat,
          uint64_t tsNs, int64_t tid, const std::string &extra,
          const std::string &argsJson)
{
    std::string out = "{\"name\":\"";
    out += jsonEscape(name);
    out += "\",\"cat\":\"";
    out += jsonEscape(cat);
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"ts\":";
    out += fmtTsUs(tsNs);
    out += extra;
    if (!argsJson.empty()) {
        out += ",\"args\":{";
        out += argsJson;
        out += "}";
    }
    out += "}";
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool
start(const std::string &path)
{
    Tracer &t = Tracer::get();
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.file)
        return false;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    t.file = f;
    t.writer = std::make_unique<SyncWriter>(f);
    t.epochNs = metrics::nowNs();
    t.firstEvent = true;
    const char *head = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::fwrite(head, 1, std::strlen(head), f);
    detail::g_enabled.store(true, std::memory_order_relaxed);
    metrics::setTimingEnabled(true);
    return true;
}

void
stop()
{
    Tracer &t = Tracer::get();
    // Disable first so new spans go inert, then give in-flight spans a
    // benign target: emit() rechecks t.file under the mutex.
    detail::g_enabled.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(t.mu);
    if (!t.file)
        return;
    const std::string tail =
        "\n],\"asim_metrics\":" +
        metrics::Registry::global().jsonExposition() + "}\n";
    std::fwrite(tail.data(), 1, tail.size(), t.file);
    std::fclose(t.file);
    t.file = nullptr;
    t.writer.reset();
}

uint32_t
currentTid()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void
setThreadName(const std::string &name)
{
    if (!enabled())
        return;
    std::string body = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"tid\":";
    body += std::to_string(currentTid());
    body += ",\"args\":{\"name\":\"";
    body += jsonEscape(name);
    body += "\"}}";
    emit(body);
}

void
completeEvent(const char *name, const char *cat, uint64_t startNs,
              uint64_t durNs, const std::string &argsJson, int64_t tid)
{
    if (!enabled())
        return;
    Tracer &t = Tracer::get();
    const uint64_t rel = startNs >= t.epochNs ? startNs - t.epochNs : 0;
    emit(eventJson("X", name, cat, rel,
                   tid < 0 ? currentTid() : tid,
                   ",\"dur\":" + fmtTsUs(durNs), argsJson));
}

void
instantEvent(const char *name, const char *cat,
             const std::string &argsJson, int64_t tid)
{
    if (!enabled())
        return;
    Tracer &t = Tracer::get();
    emit(eventJson("i", name, cat, metrics::nowNs() - t.epochNs,
                   tid < 0 ? currentTid() : tid, ",\"s\":\"t\"",
                   argsJson));
}

void
counterEvent(const char *name, const char *series, double value)
{
    if (!enabled())
        return;
    Tracer &t = Tracer::get();
    std::ostringstream arg;
    arg.setf(std::ios::fixed);
    arg.precision(3);
    arg << "\"" << jsonEscape(series) << "\":" << value;
    emit(eventJson("C", name, "metric", metrics::nowNs() - t.epochNs,
                   currentTid(), "", arg.str()));
}

uint64_t
Span::nowNsForSpan()
{
    return metrics::nowNs();
}

void
Span::finish()
{
    if (!name_)
        return;
    const char *name = name_;
    name_ = nullptr;
    completeEvent(name, cat_, start_, metrics::nowNs() - start_, args_);
}

} // namespace asim::tracing
