#include "serve/client.hh"

#include "support/logging.hh"
#include "support/serialize.hh"

namespace asim::serve {

ServeClient::ServeClient(const std::string &endpoint)
    : endpoint_(endpoint), channel_(connectEndpoint(endpoint))
{
    std::string resp = call(helloRequest());
    ByteReader r(resp, "hello response");
    uint32_t version = r.u32("server version");
    if (version < kMinProtocolVersion || version > kProtocolVersion) {
        throw SimError("server at " + endpoint_ +
                       " speaks protocol v" + std::to_string(version) +
                       ", this client wants v" +
                       std::to_string(kMinProtocolVersion) + "-v" +
                       std::to_string(kProtocolVersion));
    }
    serverVersion_ = version;
}

std::string
ServeClient::readResponse()
{
    std::string resp;
    if (!channel_.readFrame(resp)) {
        throw SimError("server at " + endpoint_ +
                       " closed the connection");
    }
    ByteReader r(resp, "response");
    auto status = static_cast<Status>(r.u8("status"));
    if (status == Status::Error)
        throw SimError("server: " + r.str("error message"));
    if (status != Status::Ok)
        throw SimError("server at " + endpoint_ +
                       " sent an unknown status byte");
    return resp.substr(1);
}

std::string
ServeClient::call(std::string_view request)
{
    if (!channel_.writeFrame(request)) {
        throw SimError("cannot write to server at " + endpoint_ +
                       " (connection lost)");
    }
    return readResponse();
}

ServeClient::OpenResult
ServeClient::open(const OpenOptions &opts)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Open));
    encodeSessionRecipe(w, opts);
    std::string resp = call(w.data());
    ByteReader r(resp, "open response");
    OpenResult res;
    res.id = r.u64("session id");
    res.specHash = r.u64("spec hash");
    res.cycle = r.u64("cycle");
    res.resumed = r.u8("resumed flag") != 0;
    res.defaultCycles = static_cast<int64_t>(r.u64("default cycles"));
    return res;
}

ServeClient::RunResult
ServeClient::run(uint64_t id, uint64_t cycles)
{
    sendRun(id, cycles);
    return readRunReply();
}

void
ServeClient::sendRun(uint64_t id, uint64_t cycles)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Run));
    w.u64(id);
    w.u64(cycles);
    channel_.queueFrame(w.data());
}

ServeClient::RunResult
ServeClient::readRunReply()
{
    std::string resp = readResponse(); // readFrame flushes the queue
    ByteReader r(resp, "run response");
    RunResult res;
    res.cycle = r.u64("cycle");
    res.output = r.str("output");
    return res;
}

int32_t
ServeClient::value(uint64_t id, std::string_view name)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Value));
    w.u64(id);
    w.str(name);
    std::string resp = call(w.data());
    ByteReader r(resp, "value response");
    return r.i32("value");
}

std::string
ServeClient::snapshot(uint64_t id)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Snapshot));
    w.u64(id);
    std::string resp = call(w.data());
    ByteReader r(resp, "snapshot response");
    return r.str("snapshot blob");
}

uint64_t
ServeClient::restore(uint64_t id, std::string_view blob)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Restore));
    w.u64(id);
    w.str(blob);
    std::string resp = call(w.data());
    ByteReader r(resp, "restore response");
    return r.u64("cycle");
}

void
ServeClient::evict(uint64_t id)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Evict));
    w.u64(id);
    call(w.data());
}

void
ServeClient::closeSession(uint64_t id)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Close));
    w.u64(id);
    call(w.data());
}

std::string
ServeClient::statsJson()
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Stats));
    std::string resp = call(w.data());
    ByteReader r(resp, "stats response");
    return r.str("stats json");
}

std::string
ServeClient::metricsJson()
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Metrics));
    std::string resp = call(w.data());
    ByteReader r(resp, "metrics response");
    return r.str("metrics json");
}

void
ServeClient::shutdownServer()
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Shutdown));
    call(w.data());
}

} // namespace asim::serve
