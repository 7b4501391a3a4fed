/**
 * @file
 * The asim-serve daemon core: a multi-tenant session server over the
 * framed protocol in serve/protocol.hh (DESIGN.md §9).
 *
 * One ServeServer owns the listening sockets (Unix-domain and/or
 * loopback TCP), an accept/sweep thread, and one blocking frame-loop
 * thread per client connection. Sessions are **global** (keyed by
 * client-chosen name and by server-assigned id), so any connection
 * may attach to any session — a client can disconnect, reconnect,
 * and continue where it left off.
 *
 * Session lifecycle:
 *
 *   OPEN(name, spec, engine, ...) → a Simulation built through the
 *   ordinary facade (repeated native specs share one loaded library
 *   through compileSpecCached).
 *   Session output (scripted I/O rendering + optional trace) is
 *   captured into a per-session buffer and streamed back as the
 *   delta of each RUN — byte-identical to a direct Simulation run
 *   wired to one stream.
 *
 *   Idle sessions are **evicted**: serialized to one file,
 *   `<stateDir>/<name>.ckpt` (sim/checkpoint.hh format v2), whose
 *   sections carry the rebuild recipe (spec text, engine, I/O
 *   script, flags) and any output not yet returned by a RUN; the
 *   cursors travel in the checkpoint proper. One atomic write, so a
 *   kill leaves the previous parked generation or the new one. A
 *   parked session holds no Simulation and no buffers — zero RAM
 *   beyond the map entry — and
 *   any later command transparently resumes it. Because the park
 *   artifacts live on disk, OPEN after a daemon restart (even a
 *   SIGKILL) resumes parked sessions by name; graceful stop() parks
 *   every live session first, so a clean shutdown never loses state.
 *
 * Concurrency: the session maps are guarded by one mutex; each
 * session carries its own mutex serializing commands against it, so
 * different sessions execute concurrently while two connections
 * attacking one session are serialized. The idle sweep try-locks and
 * skips busy sessions.
 */

#ifndef ASIM_SERVE_SERVER_HH
#define ASIM_SERVE_SERVER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hh"
#include "sim/simulation.hh"
#include "support/serialize.hh"
#include "support/socket.hh"

namespace asim::serve {

/** Daemon configuration. */
struct ServeOptions
{
    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string unixPath;

    /** Loopback TCP port; -1 disables, 0 picks an ephemeral port
     *  (read it back with ServeServer::tcpPort()). */
    int tcpPort = -1;

    /** Directory for parked sessions, one `<name>.ckpt` each (created
     *  on demand). */
    std::string stateDir = "asim-serve-state";

    /** Park sessions idle for longer than this; <= 0 disables the
     *  automatic sweep (EVICT still parks on demand). */
    int64_t evictAfterMs = 0;

    /** Accept-loop poll timeout — the idle sweep's granularity. */
    int sweepIntervalMs = 200;
};

/** See file comment. */
class ServeServer
{
  public:
    /** Bind the configured listeners and create the state directory.
     *  @throws SimError on bind/listen or directory failure */
    explicit ServeServer(const ServeOptions &opts);

    /** Stops as by stop(true) if still running. */
    ~ServeServer();

    /** Launch the accept/sweep thread. */
    void start();

    /**
     * Stop the daemon: close listeners, drain connection threads,
     * and — when `parkSessions` — evict every live session to disk
     * so a restarted daemon resumes all of them. `parkSessions =
     * false` drops live sessions on the floor (test hook simulating
     * a hard kill: only previously parked sessions survive).
     * Idempotent.
     */
    void stop(bool parkSessions = true);

    /** True after a client issued SHUTDOWN. */
    bool shutdownRequested() const { return shutdownRequested_; }

    /** Block up to `timeoutMs` for a SHUTDOWN request. @return
     *  shutdownRequested() */
    bool waitForShutdown(int timeoutMs);

    /** The bound TCP port (after construction with tcpPort >= 0). */
    uint16_t tcpPort() const;

    const std::string &unixPath() const { return opts_.unixPath; }

    /** The STATS payload: sessions (live/parked/opened/peak),
     *  daemon uptime, per-opcode request counts, evictions/resumes,
     *  per-engine cycle throughput, native compile-cache hits.
     *  Schema: DESIGN.md §9. */
    std::string statsJson() const;

    /** The METRICS payload (protocol v3): uptime plus the full
     *  process metrics-registry exposition (request-latency
     *  histograms, engine counters, pool/partition timing). */
    std::string metricsJson() const;

  private:
    /** One multi-tenant session (see file comment). */
    struct Session
    {
        std::mutex mu; ///< serializes all commands against this session

        uint64_t id = 0;

        /** Rebuild recipe, persisted in the parked checkpoint. */
        SessionRecipe recipe;

        uint64_t specHash = 0;

        /// @{ Live half — both null while parked.
        std::unique_ptr<std::ostringstream> out;
        std::unique_ptr<Simulation> sim;
        /// @}

        std::atomic<bool> parked{false};
        std::chrono::steady_clock::time_point lastUsed;
    };

    /** One client connection and its frame-loop thread. */
    struct Conn
    {
        FrameChannel channel;
        std::thread thread;
        std::atomic<bool> done{false};
        bool helloDone = false;
        bool dropAfterReply = false;
        bool shutdownAfterReply = false;
        /** Negotiated protocol version (the client's HELLO version;
         *  v2 peers get v2 behavior byte for byte). */
        uint32_t version = kProtocolVersion;
    };

    void acceptLoop();
    void connLoop(Conn *conn);
    void wake();
    void reapConns();
    void sweepIdle();

    std::string handleRequest(std::string_view body, Conn &conn);
    std::string dispatchRequest(std::string_view body, Conn &conn);
    std::string handleOpen(ByteReader &r);
    std::string handleRun(ByteReader &r);
    std::string handleValue(ByteReader &r);
    std::string handleSnapshot(ByteReader &r);
    std::string handleRestore(ByteReader &r);
    std::string handleEvict(ByteReader &r);
    std::string handleClose(ByteReader &r);

    std::string ckptPath(const std::string &name) const;

    std::shared_ptr<Session> findSession(uint64_t id) const;

    /** The session an earlier daemon parked under `name` (no id yet),
     *  rebuilt from its checkpoint's recipe; nullptr when no parked
     *  file exists. @throws SimError on a corrupt file or recipe */
    std::shared_ptr<Session>
    parkedSession(const std::string &name) const;

    /** Build (or rebuild) the session's Simulation; restores from the
     *  park checkpoint, and re-seeds the output it carries, when
     *  `fromCheckpoint`. Caller holds s.mu. */
    void buildSimulation(Session &s, bool fromCheckpoint);

    /** Resume a parked session in place. Caller holds s.mu. */
    void ensureLive(Session &s);

    /** Park a live session to disk. Caller holds s.mu. */
    void parkSession(Session &s);

    /** Count one request against `op` and, when timed, record its
     *  latency into the per-opcode histogram. */
    void noteRequest(uint8_t op, bool timed, uint64_t durNs);

    /** Recount live sessions after a lifecycle transition, updating
     *  the serve.sessions_live gauge and the peak high-water mark.
     *  Takes sessionsMu_; safe to call while holding a session's mu
     *  (nothing locks a session's mu under sessionsMu_). */
    void noteSessionCensus();

    ServeOptions opts_;
    Socket unixListener_;
    Socket tcpListener_;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;

    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false;
    std::mutex stopMu_;

    std::atomic<bool> shutdownRequested_{false};
    mutable std::mutex shutdownMu_;
    std::condition_variable shutdownCv_;

    mutable std::mutex connsMu_;
    std::vector<std::unique_ptr<Conn>> conns_;

    mutable std::mutex sessionsMu_;
    std::map<std::string, std::shared_ptr<Session>> byName_;
    std::map<uint64_t, std::shared_ptr<Session>> byId_;
    uint64_t nextId_ = 1;

    /// @{ Statistics (statsMu_ guards the non-atomic aggregates).
    mutable std::mutex statsMu_;

    /** One count slot per request opcode (index = raw opcode value;
     *  slot 0 collects unknown/malformed opcodes). */
    static constexpr size_t kOpSlots =
        static_cast<size_t>(Op::Metrics) + 1;
    std::array<std::atomic<uint64_t>, kOpSlots> opCounts_{};

    std::chrono::steady_clock::time_point startTime_ =
        std::chrono::steady_clock::now();
    std::atomic<uint64_t> peakLive_{0};

    std::atomic<uint64_t> sessionsOpened_{0};
    std::atomic<uint64_t> evictions_{0};
    std::atomic<uint64_t> resumes_{0};
    std::atomic<uint64_t> runCommands_{0};
    std::atomic<uint64_t> compileRequests_{0};
    uint64_t nativeCompilesAtStart_ = 0;
    struct EngineUse
    {
        uint64_t cycles = 0;
        uint64_t ns = 0;
    };
    std::map<std::string, EngineUse> engineUse_;
    /// @}
};

} // namespace asim::serve

#endif // ASIM_SERVE_SERVER_HH
