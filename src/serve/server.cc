#include "serve/server.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <unistd.h>

#include "codegen/native.hh"
#include "sim/checkpoint.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/text.hh"
#include "support/tracing.hh"

namespace asim::serve {

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Stable lowercase opcode names for the stats/metrics expositions
 *  (slot 0 = anything that is not a known opcode). */
const char *
opName(size_t slot)
{
    switch (static_cast<Op>(slot)) {
    case Op::Hello:
        return "hello";
    case Op::Open:
        return "open";
    case Op::Run:
        return "run";
    case Op::Value:
        return "value";
    case Op::Snapshot:
        return "snapshot";
    case Op::Restore:
        return "restore";
    case Op::Evict:
        return "evict";
    case Op::Close:
        return "close";
    case Op::Stats:
        return "stats";
    case Op::Shutdown:
        return "shutdown";
    case Op::Metrics:
        return "metrics";
    }
    return "unknown";
}

} // namespace

ServeServer::ServeServer(const ServeOptions &opts)
    : opts_(opts)
{
    if (opts_.unixPath.empty() && opts_.tcpPort < 0)
        throw SimError("asim-serve needs a unix path or a tcp port");
    std::error_code ec;
    std::filesystem::create_directories(opts_.stateDir, ec);
    if (ec) {
        throw SimError("cannot create state directory " +
                       opts_.stateDir + ": " + ec.message());
    }
    if (!opts_.unixPath.empty())
        unixListener_ = listenUnix(opts_.unixPath);
    if (opts_.tcpPort >= 0)
        tcpListener_ = listenTcp(static_cast<uint16_t>(opts_.tcpPort));

    int fds[2];
    if (::pipe(fds) != 0)
        throw SimError(std::string("cannot create wake pipe: ") +
                       std::strerror(errno));
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
    nativeCompilesAtStart_ = nativeCompileCount();
}

ServeServer::~ServeServer()
{
    stop(true);
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
}

void
ServeServer::start()
{
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
ServeServer::wake()
{
    char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &b, 1);
}

uint16_t
ServeServer::tcpPort() const
{
    return localPort(tcpListener_);
}

bool
ServeServer::waitForShutdown(int timeoutMs)
{
    std::unique_lock<std::mutex> lock(shutdownMu_);
    shutdownCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                         [this] { return shutdownRequested_.load(); });
    return shutdownRequested_;
}

void
ServeServer::stop(bool parkSessions)
{
    {
        std::lock_guard<std::mutex> lock(stopMu_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    stopping_ = true;
    wake();
    if (acceptThread_.joinable())
        acceptThread_.join();

    // Unblock every connection thread sitting in a read, then join.
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (auto &c : conns_)
            c->channel.socket().shutdownBoth();
    }
    for (;;) {
        std::unique_ptr<Conn> conn;
        {
            std::lock_guard<std::mutex> lock(connsMu_);
            if (conns_.empty())
                break;
            conn = std::move(conns_.back());
            conns_.pop_back();
        }
        if (conn->thread.joinable())
            conn->thread.join();
    }

    unixListener_.close();
    tcpListener_.close();
    if (!opts_.unixPath.empty())
        ::unlink(opts_.unixPath.c_str());

    std::vector<std::shared_ptr<Session>> sessions;
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto &[name, s] : byName_)
            sessions.push_back(s);
        byName_.clear();
        byId_.clear();
    }
    for (auto &s : sessions) {
        std::lock_guard<std::mutex> lock(s->mu);
        if (s->parked || !s->sim)
            continue;
        if (parkSessions) {
            try {
                parkSession(*s);
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "asim-serve: cannot park session %s: %s\n",
                             s->recipe.name.c_str(), e.what());
            }
        } else {
            s->sim.reset(); // dropped, as a killed daemon would
            s->out.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Accept loop + connection threads

void
ServeServer::acceptLoop()
{
    while (!stopping_) {
        std::vector<int> fds{wakeRead_};
        std::vector<Socket *> listeners{nullptr};
        if (unixListener_.valid()) {
            fds.push_back(unixListener_.fd());
            listeners.push_back(&unixListener_);
        }
        if (tcpListener_.valid()) {
            fds.push_back(tcpListener_.fd());
            listeners.push_back(&tcpListener_);
        }
        int idx = pollReadable(fds, opts_.sweepIntervalMs);
        if (stopping_)
            break;
        if (idx == 0) {
            char buf[64];
            [[maybe_unused]] ssize_t n =
                ::read(wakeRead_, buf, sizeof(buf));
        } else if (idx > 0) {
            Socket sock = acceptConnection(*listeners[idx]);
            if (sock.valid()) {
                auto conn = std::make_unique<Conn>();
                conn->channel = FrameChannel(std::move(sock));
                Conn *raw = conn.get();
                {
                    std::lock_guard<std::mutex> lock(connsMu_);
                    conns_.push_back(std::move(conn));
                }
                raw->thread =
                    std::thread([this, raw] { connLoop(raw); });
            }
        }
        sweepIdle();
        reapConns();
    }
}

void
ServeServer::reapConns()
{
    std::vector<std::unique_ptr<Conn>> finished;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            if ((*it)->done) {
                finished.push_back(std::move(*it));
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &c : finished) {
        if (c->thread.joinable())
            c->thread.join();
    }
}

void
ServeServer::connLoop(Conn *conn)
{
    std::string req;
    while (!stopping_ && conn->channel.readFrame(req)) {
        std::string resp = handleRequest(req, *conn);
        conn->channel.queueFrame(resp);
        if (conn->dropAfterReply)
            break;
    }
    conn->channel.flush(); // best effort; the peer may be gone
    if (conn->shutdownAfterReply) {
        // The SHUTDOWN reply is on the wire; now let stop() run.
        shutdownRequested_ = true;
        shutdownCv_.notify_all();
        wake();
    }
    conn->done = true;
}

// ---------------------------------------------------------------------------
// Request dispatch

std::string
ServeServer::handleRequest(std::string_view body, Conn &conn)
{
    // Peek the opcode before dispatch so even malformed requests are
    // counted (slot 0) and timed like any other.
    const uint8_t op =
        body.empty() ? 0 : static_cast<uint8_t>(body[0]);
    const bool timed = metrics::timingEnabled();
    const uint64_t t0 = timed ? nowNs() : 0;
    std::string resp = dispatchRequest(body, conn);
    noteRequest(op, timed, timed ? nowNs() - t0 : 0);
    return resp;
}

void
ServeServer::noteRequest(uint8_t op, bool timed, uint64_t durNs)
{
    const size_t slot = op < kOpSlots ? op : 0;
    opCounts_[slot].fetch_add(1, std::memory_order_relaxed);
    if (!timed)
        return;
    // One latency histogram per opcode, resolved once for the process.
    static const std::array<metrics::Histogram *, kOpSlots> hists = [] {
        std::array<metrics::Histogram *, kOpSlots> h{};
        for (size_t i = 0; i < kOpSlots; ++i) {
            h[i] = &metrics::histogram(
                std::string("serve.request_ns.") + opName(i),
                metrics::Histogram::exponentialBounds(1000, 2.0, 24));
        }
        return h;
    }();
    hists[slot]->record(durNs);
}

std::string
ServeServer::dispatchRequest(std::string_view body, Conn &conn)
{
    try {
        ByteReader r(body, "request");
        auto op = static_cast<Op>(r.u8("opcode"));
        if (!conn.helloDone && op != Op::Hello) {
            conn.dropAfterReply = true;
            return errorResponse("expected HELLO first");
        }
        switch (op) {
        case Op::Hello: {
            std::string magic = r.str("hello magic");
            uint32_t version = r.u32("hello version");
            if (magic != kHelloMagic ||
                version < kMinProtocolVersion ||
                version > kProtocolVersion)
            {
                conn.dropAfterReply = true;
                return errorResponse(
                    "protocol mismatch: want " +
                    std::string(kHelloMagic) + " v" +
                    std::to_string(kMinProtocolVersion) + "-v" +
                    std::to_string(kProtocolVersion) + ", got " +
                    magic + " v" + std::to_string(version));
            }
            conn.helloDone = true;
            // Echo the client's version: an older peer sees exactly
            // the handshake its own kProtocolVersion check expects.
            conn.version = version;
            ByteWriter w;
            w.u8(static_cast<uint8_t>(Status::Ok));
            w.u32(conn.version);
            w.str("asim-serve");
            return std::move(w).take();
        }
        case Op::Open:
            return handleOpen(r);
        case Op::Run:
            return handleRun(r);
        case Op::Value:
            return handleValue(r);
        case Op::Snapshot:
            return handleSnapshot(r);
        case Op::Restore:
            return handleRestore(r);
        case Op::Evict:
            return handleEvict(r);
        case Op::Close:
            return handleClose(r);
        case Op::Stats: {
            ByteWriter w;
            w.u8(static_cast<uint8_t>(Status::Ok));
            w.str(statsJson());
            return std::move(w).take();
        }
        case Op::Metrics: {
            if (conn.version < 3)
                return errorResponse("METRICS needs protocol v3");
            ByteWriter w;
            w.u8(static_cast<uint8_t>(Status::Ok));
            w.str(metricsJson());
            return std::move(w).take();
        }
        case Op::Shutdown: {
            // Don't signal yet: stop() races the reply otherwise.
            // connLoop flushes this frame first, then signals.
            conn.dropAfterReply = true;
            conn.shutdownAfterReply = true;
            ByteWriter w;
            w.u8(static_cast<uint8_t>(Status::Ok));
            return std::move(w).take();
        }
        }
        conn.dropAfterReply = true;
        return errorResponse("unknown opcode");
    } catch (const std::exception &e) {
        return errorResponse(e.what());
    }
}

// ---------------------------------------------------------------------------
// Session helpers

std::string
ServeServer::ckptPath(const std::string &name) const
{
    return opts_.stateDir + "/" + name + ".ckpt";
}

std::shared_ptr<ServeServer::Session>
ServeServer::findSession(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(sessionsMu_);
    auto it = byId_.find(id);
    if (it == byId_.end())
        throw SimError("unknown session id " + std::to_string(id));
    return it->second;
}

std::shared_ptr<ServeServer::Session>
ServeServer::parkedSession(const std::string &name) const
{
    const std::string path = ckptPath(name);
    if (!std::filesystem::exists(path))
        return nullptr;
    CheckpointSections sections;
    peekCheckpoint(path, &sections);
    if (!sections.session)
        throw SimError(path + ": parked file carries no session recipe");
    ByteReader r(*sections.session, path + " session recipe");
    auto s = std::make_shared<Session>();
    s->recipe = decodeSessionRecipe(r);
    if (s->recipe.name != name || !r.atEnd())
        r.fail("recipe does not describe session \"" + name + "\"");
    s->parked = true;
    s->lastUsed = std::chrono::steady_clock::now();
    return s;
}

void
ServeServer::buildSimulation(Session &s, bool fromCheckpoint)
{
    const SessionRecipe &recipe = s.recipe;
    SimulationOptions o;
    o.specText = recipe.specText;
    o.engine = recipe.engine;
    o.config.aluSemantics = recipe.aluFixed ? AluSemantics::Fixed
                                            : AluSemantics::Thesis;
    o.ioMode = recipe.io == SessionIo::Script ? IoMode::Script
                                              : IoMode::Null;
    o.scriptInputs = recipe.inputs;
    o.partitions = recipe.partitions;
    // One stream takes both scripted-I/O rendering and the trace so
    // the session's byte stream is identical to a direct run wired
    // the same way.
    auto out = std::make_unique<std::ostringstream>();
    o.ioOut = out.get();
    if (recipe.trace)
        o.traceStream = out.get();
    if (recipe.engine == "native")
        compileRequests_ += 1;
    auto sim = std::make_unique<Simulation>(o);
    if (fromCheckpoint) {
        // Seed the stream with output a previous incarnation produced
        // but never returned.
        CheckpointSections sections;
        sim->restoreCheckpoint(ckptPath(recipe.name), &sections);
        *out << sections.output.value_or("");
    }
    s.specHash = sim->specHash();
    s.out = std::move(out);
    s.sim = std::move(sim);
    s.parked = false;
}

void
ServeServer::ensureLive(Session &s)
{
    if (s.sim)
        return;
    buildSimulation(s, /*fromCheckpoint=*/true);
    resumes_ += 1;
    static metrics::Counter &resumes = metrics::counter("serve.resumes");
    resumes.add();
    tracing::instantEvent("serve.session_resume", "serve",
                          "\"session\":\"" +
                              jsonEscape(s.recipe.name) + "\"");
    noteSessionCensus();
}

void
ServeServer::parkSession(Session &s)
{
    if (!s.sim)
        return;
    // One atomic write: the checkpoint's sections carry the rebuild
    // recipe and any output not yet returned by a RUN, so a crash
    // leaves the previous parked generation or this one, never a
    // mix of the two.
    CheckpointSections sections;
    sections.output = s.out->str();
    ByteWriter recipe;
    encodeSessionRecipe(recipe, s.recipe);
    sections.session = recipe.take();
    s.sim->saveCheckpoint(ckptPath(s.recipe.name), sections);

    s.sim.reset();
    s.out.reset();
    s.parked = true;
    evictions_ += 1;
    static metrics::Counter &evictions =
        metrics::counter("serve.evictions");
    evictions.add();
    tracing::instantEvent("serve.session_evict", "serve",
                          "\"session\":\"" +
                              jsonEscape(s.recipe.name) + "\"");
    noteSessionCensus();
}

void
ServeServer::noteSessionCensus()
{
    uint64_t live = 0;
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto &[name, s] : byName_)
            if (!s->parked)
                ++live;
    }
    static metrics::Gauge &g = metrics::gauge("serve.sessions_live");
    g.set(static_cast<int64_t>(live));
    uint64_t prev = peakLive_.load(std::memory_order_relaxed);
    while (live > prev &&
           !peakLive_.compare_exchange_weak(prev, live,
                                            std::memory_order_relaxed))
    {}
}

void
ServeServer::sweepIdle()
{
    if (opts_.evictAfterMs <= 0)
        return;
    auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<Session>> sessions;
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto &[name, s] : byName_)
            if (!s->parked)
                sessions.push_back(s);
    }
    for (auto &s : sessions) {
        std::unique_lock<std::mutex> lock(s->mu, std::try_to_lock);
        if (!lock.owns_lock() || s->parked || !s->sim)
            continue; // busy sessions are not idle
        auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - s->lastUsed)
                        .count();
        if (idle < opts_.evictAfterMs)
            continue;
        try {
            parkSession(*s);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "asim-serve: cannot evict session %s: %s\n",
                         s->recipe.name.c_str(), e.what());
            s->lastUsed = now; // back off instead of retrying hot
        }
    }
}

// ---------------------------------------------------------------------------
// Command handlers

std::string
ServeServer::handleOpen(ByteReader &r)
{
    SessionRecipe recipe = decodeSessionRecipe(r);
    const std::string name = recipe.name;

    std::shared_ptr<Session> s;
    bool created = false;
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        auto it = byName_.find(name);
        if (it != byName_.end()) {
            s = it->second;
        } else if ((s = parkedSession(name))) {
            // Parked by a previous daemon incarnation: adopt it.
            s->id = nextId_++;
            byName_[name] = s;
            byId_[s->id] = s;
        } else {
            if (recipe.specText.empty()) {
                throw SimError("unknown session \"" + name +
                               "\" (attach needs an existing session; "
                               "upload a spec to create one)");
            }
            s = std::make_shared<Session>();
            s->id = nextId_++;
            s->recipe = std::move(recipe);
            byName_[name] = s;
            byId_[s->id] = s;
            created = true;
        }
    }

    std::lock_guard<std::mutex> lock(s->mu);
    if (created) {
        try {
            buildSimulation(*s, /*fromCheckpoint=*/false);
            sessionsOpened_ += 1;
            static metrics::Counter &opened =
                metrics::counter("serve.sessions_opened");
            opened.add();
            tracing::instantEvent(
                "serve.session_open", "serve",
                "\"session\":\"" + jsonEscape(name) +
                    "\",\"engine\":\"" +
                    jsonEscape(s->recipe.engine) + "\"");
        } catch (...) {
            // A session that never built must not squat on the name.
            std::lock_guard<std::mutex> mapLock(sessionsMu_);
            byName_.erase(name);
            byId_.erase(s->id);
            throw;
        }
    } else if (!recipe.specText.empty() &&
               recipe.specText != s->recipe.specText) {
        // (Only a session created above took `recipe`'s contents.)
        throw SimError("session \"" + name +
                       "\" already exists with a different spec");
    }
    bool resumed = !created && s->parked;
    ensureLive(*s);
    s->lastUsed = std::chrono::steady_clock::now();
    noteSessionCensus();

    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    w.u64(s->id);
    w.u64(s->specHash);
    w.u64(s->sim->cycle());
    w.u8(resumed ? 1 : 0);
    w.u64(static_cast<uint64_t>(s->sim->defaultCycles()));
    return std::move(w).take();
}

std::string
ServeServer::handleRun(ByteReader &r)
{
    uint64_t id = r.u64("run session id");
    uint64_t cycles = r.u64("run cycles");
    auto s = findSession(id);
    std::lock_guard<std::mutex> lock(s->mu);
    ensureLive(*s);
    s->lastUsed = std::chrono::steady_clock::now();
    runCommands_ += 1;

    uint64_t t0 = nowNs();
    s->sim->run(cycles);
    uint64_t dt = nowNs() - t0;
    {
        std::lock_guard<std::mutex> statsLock(statsMu_);
        auto &use = engineUse_[s->recipe.engine];
        use.cycles += cycles;
        use.ns += dt;
    }
    s->lastUsed = std::chrono::steady_clock::now();

    std::string output = s->out->str();
    s->out->str("");

    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    w.u64(s->sim->cycle());
    w.str(output);
    return std::move(w).take();
}

std::string
ServeServer::handleValue(ByteReader &r)
{
    uint64_t id = r.u64("value session id");
    std::string name = r.str("value component");
    auto s = findSession(id);
    std::lock_guard<std::mutex> lock(s->mu);
    ensureLive(*s);
    s->lastUsed = std::chrono::steady_clock::now();
    int32_t v = s->sim->value(name);
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    w.i32(v);
    return std::move(w).take();
}

std::string
ServeServer::handleSnapshot(ByteReader &r)
{
    uint64_t id = r.u64("snapshot session id");
    auto s = findSession(id);
    std::lock_guard<std::mutex> lock(s->mu);
    ensureLive(*s);
    s->lastUsed = std::chrono::steady_clock::now();
    // The blob IS the checkpoint format — a client may write it to a
    // file and asim-run --restore-from it directly.
    std::string blob = encodeCheckpoint(s->sim->snapshot(),
                                        s->specHash, s->recipe.engine);
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    w.str(blob);
    return std::move(w).take();
}

std::string
ServeServer::handleRestore(ByteReader &r)
{
    uint64_t id = r.u64("restore session id");
    std::string blob = r.str("restore blob");
    auto s = findSession(id);
    std::lock_guard<std::mutex> lock(s->mu);
    ensureLive(*s);
    s->lastUsed = std::chrono::steady_clock::now();
    CheckpointInfo info;
    EngineSnapshot snap =
        decodeCheckpoint(blob, "restore blob", &info);
    if (info.specHash != s->specHash) {
        throw SimError(
            "restore blob belongs to a different specification "
            "(blob hash " +
            std::to_string(info.specHash) + ", session hash " +
            std::to_string(s->specHash) + ")");
    }
    s->sim->restore(snap);
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    w.u64(s->sim->cycle());
    return std::move(w).take();
}

std::string
ServeServer::handleEvict(ByteReader &r)
{
    uint64_t id = r.u64("evict session id");
    auto s = findSession(id);
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->parked)
        parkSession(*s);
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    return std::move(w).take();
}

std::string
ServeServer::handleClose(ByteReader &r)
{
    uint64_t id = r.u64("close session id");
    auto s = findSession(id);
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        byName_.erase(s->recipe.name);
        byId_.erase(s->id);
    }
    std::lock_guard<std::mutex> lock(s->mu);
    s->sim.reset();
    s->out.reset();
    ::unlink(ckptPath(s->recipe.name).c_str());
    tracing::instantEvent("serve.session_close", "serve",
                          "\"session\":\"" +
                              jsonEscape(s->recipe.name) + "\"");
    noteSessionCensus();
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    return std::move(w).take();
}

// ---------------------------------------------------------------------------
// Statistics

std::string
ServeServer::statsJson() const
{
    uint64_t live = 0;
    uint64_t parked = 0;
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto &[name, s] : byName_) {
            if (s->parked)
                ++parked;
            else
                ++live;
        }
    }
    uint64_t requests = compileRequests_;
    uint64_t compiles = nativeCompileCount() - nativeCompilesAtStart_;
    uint64_t hits = requests > compiles ? requests - compiles : 0;
    double uptime =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - startTime_)
            .count();
    uint64_t peak = peakLive_.load(std::memory_order_relaxed);
    if (live > peak)
        peak = live; // census may not have run yet this instant

    std::ostringstream j;
    j << "{\"sessions_live\":" << live
      << ",\"sessions_parked\":" << parked
      << ",\"sessions_opened\":" << sessionsOpened_.load()
      << ",\"peak_sessions_live\":" << peak
      << ",\"uptime_seconds\":" << uptime
      << ",\"evictions\":" << evictions_.load()
      << ",\"resumes\":" << resumes_.load()
      << ",\"run_commands\":" << runCommands_.load()
      << ",\"native_compile_requests\":" << requests
      << ",\"native_compile_cache_hits\":" << hits
      << ",\"requests\":{";
    for (size_t i = 1; i < kOpSlots; ++i) {
        if (i > 1)
            j << ",";
        j << "\"" << opName(i)
          << "\":" << opCounts_[i].load(std::memory_order_relaxed);
    }
    j << ",\"unknown\":" << opCounts_[0].load(std::memory_order_relaxed)
      << "},\"engines\":{";
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        bool first = true;
        for (auto &[engine, use] : engineUse_) {
            if (!first)
                j << ",";
            first = false;
            double perSec =
                use.ns > 0 ? 1e9 * static_cast<double>(use.cycles) /
                                 static_cast<double>(use.ns)
                           : 0.0;
            j << "\"" << engine << "\":{\"cycles\":" << use.cycles
              << ",\"ns\":" << use.ns
              << ",\"cycles_per_sec\":" << perSec << "}";
        }
    }
    j << "}}";
    return j.str();
}

std::string
ServeServer::metricsJson() const
{
    double uptime =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - startTime_)
            .count();
    std::ostringstream j;
    j << "{\"uptime_seconds\":" << uptime
      << ",\"stats\":" << statsJson() << ",\"registry\":"
      << metrics::Registry::global().jsonExposition() << "}";
    return j.str();
}

} // namespace asim::serve
