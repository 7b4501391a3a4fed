/**
 * @file
 * Client library for the asim-serve daemon (DESIGN.md §9).
 *
 * A ServeClient is one connection: it connects to an endpoint
 * (`unix:<path>`, `tcp:<host>:<port>`, or a bare socket path),
 * performs the HELLO handshake, and exposes the protocol as typed
 * calls. Server-side failures (ERR responses) surface as SimError
 * carrying the server's diagnostic; a dead or misbehaving server
 * surfaces as SimError naming the endpoint.
 *
 * Pipelining: run() is one round trip. For interactive stepping at
 * rate, queue requests with sendRun() — nothing hits the wire until
 * readRunReply() flushes the batch — then read the replies in order.
 * The daemon answers strictly in request order per connection, so
 * `k` sendRun() calls pair with the next `k` readRunReply() calls.
 */

#ifndef ASIM_SERVE_CLIENT_HH
#define ASIM_SERVE_CLIENT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.hh"

namespace asim::serve {

/** See file comment. */
class ServeClient
{
  public:
    /** Connect and handshake. @throws SimError on connection or
     *  protocol-version failure */
    explicit ServeClient(const std::string &endpoint);

    /** What OPEN sends: the session's rebuild recipe. */
    using OpenOptions = SessionRecipe;

    struct OpenResult
    {
        uint64_t id = 0;
        uint64_t specHash = 0;
        uint64_t cycle = 0;
        bool resumed = false; ///< continued from a parked checkpoint
        int64_t defaultCycles = -1; ///< the spec's `=` run length
    };

    /** Open, create-or-attach (see OpenOptions::specText). */
    OpenResult open(const OpenOptions &opts);

    struct RunResult
    {
        uint64_t cycle = 0;
        std::string output; ///< I/O + trace produced by this RUN
    };

    /** Execute `cycles` cycles; one round trip. */
    RunResult run(uint64_t id, uint64_t cycles);

    /** Queue a RUN without touching the wire (pipelining; see file
     *  comment). Pair each call with one readRunReply(). */
    void sendRun(uint64_t id, uint64_t cycles);

    /** Flush queued requests and read the next RUN reply. */
    RunResult readRunReply();

    /** Observable value of component `name`. */
    int32_t value(uint64_t id, std::string_view name);

    /** Full session state as a checkpoint blob — valid as an on-disk
     *  checkpoint file (asim-run --restore-from reads it). */
    std::string snapshot(uint64_t id);

    /** Adopt a checkpoint blob. @return the session's cycle */
    uint64_t restore(uint64_t id, std::string_view blob);

    /** Park the session to disk now. */
    void evict(uint64_t id);

    /** Delete the session and its parked artifacts. */
    void closeSession(uint64_t id);

    /** Admin: the server's statistics JSON. */
    std::string statsJson();

    /** Admin: the server's metrics-registry exposition JSON
     *  (protocol v3; a v2 server answers ERR). */
    std::string metricsJson();

    /** Admin: ask the daemon to shut down cleanly. */
    void shutdownServer();

    /** Protocol version negotiated in the HELLO handshake. */
    uint32_t serverVersion() const { return serverVersion_; }

  private:
    /** One request round trip. @throws SimError on transport failure
     *  or an ERR response */
    std::string call(std::string_view request);

    /** Read one response frame, unwrap the status byte. */
    std::string readResponse();

    std::string endpoint_;
    FrameChannel channel_;
    uint32_t serverVersion_ = kProtocolVersion;
};

} // namespace asim::serve

#endif // ASIM_SERVE_CLIENT_HH
