/**
 * @file
 * The asim-serve wire protocol (DESIGN.md §9).
 *
 * Every message — request or response — is one **frame**: a u32
 * little-endian byte length followed by that many body bytes. Frame
 * bodies are encoded/decoded with support/serialize.hh ByteWriter/
 * ByteReader, so the server treats client input with the same
 * hostile-input discipline as checkpoint files: every read is
 * bounds-checked and malformed frames answer ERR, never crash.
 *
 * A request body starts with a u8 opcode; a response body starts
 * with a u8 status (Ok/Error). Responses are returned **in request
 * order per connection**, which is what makes pipelining trivial:
 * a client may send any number of requests before reading replies
 * (FrameChannel buffers writes; the server coalesces response
 * flushes while more requests are already buffered), so interactive
 * stepping stops paying one socket round trip per step.
 *
 * The command vocabulary deliberately mirrors the generated
 * program's `--serve` loop (`asim2c --serve`): OPEN (upload+compile)
 * — RUN — VALUE/SNAPSHOT (state) — RESTORE — EVICT/CLOSE — STATS —
 * SHUTDOWN.
 */

#ifndef ASIM_SERVE_PROTOCOL_HH
#define ASIM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/serialize.hh"
#include "support/socket.hh"

namespace asim::serve {

/** Bumped on any incompatible wire change; HELLO carries it.
 *  v2: OPEN carries a u32 partition-lane count after the alu flag.
 *  v3: adds the METRICS opcode (observability scrape). v3 is a pure
 *  superset of v2: the server accepts HELLOs from kMinProtocolVersion
 *  up, and a v2 peer that never sends METRICS sees v2 behavior
 *  byte for byte. */
inline constexpr uint32_t kProtocolVersion = 3;

/** Oldest client HELLO the server still accepts (and oldest server
 *  HELLO-reply a client accepts). */
inline constexpr uint32_t kMinProtocolVersion = 2;

/** HELLO magic, first field of every connection's first request. */
inline constexpr std::string_view kHelloMagic = "ASRV";

/** Ceiling on one frame's body; a longer declared length is a
 *  protocol violation and drops the connection (there is no way to
 *  resync a corrupt length prefix). Large enough for a big spec
 *  upload or checkpoint blob, small enough to bound a hostile
 *  allocation. */
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/** Request opcodes (first byte of a request body). */
enum class Op : uint8_t
{
    Hello = 1,    ///< magic + protocol version check
    Open = 2,     ///< upload spec, open (or resume) a session
    Run = 3,      ///< execute N cycles, stream the output produced
    Value = 4,    ///< read one component's observable value
    Snapshot = 5, ///< full state as a portable checkpoint blob
    Restore = 6,  ///< adopt a checkpoint blob
    Evict = 7,    ///< park the session to disk now
    Close = 8,    ///< delete the session and its artifacts
    Stats = 9,    ///< admin: server statistics as JSON
    Shutdown = 10, ///< admin: stop the daemon cleanly
    Metrics = 11  ///< admin: metrics-registry exposition (v3+)
};

/** Response status (first byte of a response body). */
enum class Status : uint8_t
{
    Ok = 0,
    Error = 1 ///< followed by str diagnostic
};

/** Session I/O wiring carried in OPEN (interactive I/O cannot be
 *  multiplexed over sessions, exactly like batch instances). */
enum class SessionIo : uint8_t
{
    Null = 0,
    Script = 1
};

/**
 * Everything needed to (re)build a session's Simulation. OPEN carries
 * it as its operands, and a parked session's checkpoint carries it as
 * its Session section (sim/checkpoint.hh); both go through the one
 * codec below.
 */
struct SessionRecipe
{
    std::string name;     ///< session name (required)
    std::string specText; ///< empty = attach to existing session
    std::string engine = "vm";
    SessionIo io = SessionIo::Null;
    std::vector<int32_t> inputs; ///< scripted inputs (io=Script)
    bool trace = false;          ///< capture the thesis trace
    bool aluFixed = false;       ///< AluSemantics::Fixed
    unsigned partitions = 1;     ///< interp worker lanes (>=1)
};

/** Append `recipe` to `w` (no validation: the decoder owns that). */
void encodeSessionRecipe(ByteWriter &w, const SessionRecipe &recipe);

/** Read and validate a recipe: the session name must be 1-64 chars of
 *  [A-Za-z0-9._-] (it names files), the I/O mode Null or Script,
 *  and partitions at most kMaxPartitions (sim/partition.hh; 0 reads
 *  as 1); an
 *  empty engine reads as "vm". @throws SimError naming the field */
SessionRecipe decodeSessionRecipe(ByteReader &r);

/**
 * Framed, buffered message channel over a Socket — both sides of
 * the protocol speak through one of these.
 *
 * Reads are buffered (one read(2) may pull many pipelined frames);
 * writes are queued by queueFrame() and flushed explicitly or by
 * the next readFrame() (so a request/response loop can never
 * deadlock on its own unflushed writes). hasBufferedFrame() lets a
 * server coalesce response flushes while more pipelined requests
 * are already waiting in the buffer.
 */
class FrameChannel
{
  public:
    FrameChannel() = default;
    explicit FrameChannel(Socket sock)
        : sock_(std::move(sock))
    {}

    bool valid() const { return sock_.valid(); }
    Socket &socket() { return sock_; }

    /** Read one frame body (flushing queued writes first). @return
     *  false on EOF, error, or an over-limit length prefix */
    bool readFrame(std::string &body);

    /** Queue one frame for a later flush(). */
    void queueFrame(std::string_view body);

    /** Write out everything queued. @return false on a broken peer */
    bool flush();

    /** queueFrame + flush. */
    bool
    writeFrame(std::string_view body)
    {
        queueFrame(body);
        return flush();
    }

    /** True when a complete frame is already buffered — reading it
     *  will not block. */
    bool hasBufferedFrame() const;

  private:
    bool fill(size_t need);

    Socket sock_;
    std::string rbuf_;
    size_t rpos_ = 0;
    std::string wbuf_;
};

/** Build a HELLO request body. */
std::string helloRequest();

/** Build an ERR response body. */
std::string errorResponse(std::string_view message);

} // namespace asim::serve

#endif // ASIM_SERVE_PROTOCOL_HH
