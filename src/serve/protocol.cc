#include "serve/protocol.hh"

#include <algorithm>

#include "sim/partition.hh"
#include "support/serialize.hh"

namespace asim::serve {

namespace {

/** Frames arrive as a u32 LE length prefix; decode by hand so a
 *  partial prefix can wait for more bytes without a ByteReader. */
uint32_t
decodeLen(const char *p)
{
    auto b = [&](int i) {
        return static_cast<uint32_t>(static_cast<unsigned char>(p[i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

} // namespace

bool
FrameChannel::fill(size_t need)
{
    while (rbuf_.size() - rpos_ < need) {
        // Compact before growing: pipelined clients push many small
        // frames through this buffer and it must not grow forever.
        if (rpos_ > 0 && rpos_ == rbuf_.size()) {
            rbuf_.clear();
            rpos_ = 0;
        } else if (rpos_ > (64u << 10)) {
            rbuf_.erase(0, rpos_);
            rpos_ = 0;
        }
        char chunk[64 << 10];
        long got = sock_.readSome(chunk, sizeof(chunk));
        if (got <= 0)
            return false;
        rbuf_.append(chunk, static_cast<size_t>(got));
    }
    return true;
}

bool
FrameChannel::readFrame(std::string &body)
{
    // A blocked read with queued writes would deadlock the peer — but
    // when a complete frame is already buffered this read cannot
    // block, so the flush is deferred and pipelined responses
    // coalesce into one write.
    if (!hasBufferedFrame() && !flush())
        return false;
    if (!fill(4))
        return false;
    uint32_t len = decodeLen(rbuf_.data() + rpos_);
    if (len > kMaxFrameBytes)
        return false;
    if (!fill(4 + static_cast<size_t>(len)))
        return false;
    body.assign(rbuf_, rpos_ + 4, len);
    rpos_ += 4 + static_cast<size_t>(len);
    return true;
}

void
FrameChannel::queueFrame(std::string_view body)
{
    uint32_t len = static_cast<uint32_t>(body.size());
    char prefix[4] = {static_cast<char>(len & 0xff),
                      static_cast<char>((len >> 8) & 0xff),
                      static_cast<char>((len >> 16) & 0xff),
                      static_cast<char>((len >> 24) & 0xff)};
    wbuf_.append(prefix, 4);
    wbuf_.append(body.data(), body.size());
}

bool
FrameChannel::flush()
{
    if (wbuf_.empty())
        return true;
    std::string out;
    out.swap(wbuf_);
    return sock_.writeAll(out);
}

bool
FrameChannel::hasBufferedFrame() const
{
    size_t avail = rbuf_.size() - rpos_;
    if (avail < 4)
        return false;
    uint32_t len = decodeLen(rbuf_.data() + rpos_);
    return len <= kMaxFrameBytes && avail >= 4 + static_cast<size_t>(len);
}

void
encodeSessionRecipe(ByteWriter &w, const SessionRecipe &recipe)
{
    w.str(recipe.name);
    w.str(recipe.specText);
    w.str(recipe.engine);
    w.u8(static_cast<uint8_t>(recipe.io));
    w.u8(recipe.trace ? 1 : 0);
    w.u8(recipe.aluFixed ? 1 : 0);
    w.u32(recipe.partitions);
    w.u64(recipe.inputs.size());
    for (int32_t v : recipe.inputs)
        w.i32(v);
}

SessionRecipe
decodeSessionRecipe(ByteReader &r)
{
    SessionRecipe recipe;
    recipe.name = r.str("session name");
    // Session names become file names under the state directory, so
    // the charset is locked down hard (no separators, no empty).
    auto nameChar = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '.' || c == '_' ||
               c == '-';
    };
    if (recipe.name.empty() || recipe.name.size() > 64 ||
        !std::all_of(recipe.name.begin(), recipe.name.end(),
                     nameChar)) {
        r.fail("bad session name (want 1-64 chars of "
               "[A-Za-z0-9._-]): " + recipe.name);
    }
    recipe.specText = r.str("session spec");
    recipe.engine = r.str("session engine");
    if (recipe.engine.empty())
        recipe.engine = "vm";
    uint8_t io = r.u8("session io mode");
    if (io != static_cast<uint8_t>(SessionIo::Null) &&
        io != static_cast<uint8_t>(SessionIo::Script)) {
        r.fail("bad session io mode " + std::to_string(io) +
               " (interactive I/O cannot be multiplexed over "
               "sessions)");
    }
    recipe.io = static_cast<SessionIo>(io);
    recipe.trace = r.u8("session trace flag") != 0;
    recipe.aluFixed = r.u8("session alu flag") != 0;
    uint32_t partitions = r.u32("session partitions");
    if (partitions > kMaxPartitions) {
        r.fail("session partitions is " + std::to_string(partitions) +
               ", above the limit " +
               std::to_string(kMaxPartitions));
    }
    recipe.partitions = partitions == 0 ? 1 : partitions;
    uint64_t n = r.count("session input count", 1u << 24, 4);
    recipe.inputs.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
        recipe.inputs.push_back(r.i32("session input"));
    return recipe;
}

std::string
helloRequest()
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Op::Hello));
    w.str(kHelloMagic);
    w.u32(kProtocolVersion);
    return std::move(w).take();
}

std::string
errorResponse(std::string_view message)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(Status::Error));
    w.str(message);
    return std::move(w).take();
}

} // namespace asim::serve
