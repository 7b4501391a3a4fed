/**
 * @file
 * Binary serialization primitives for on-disk artifacts.
 *
 * A ByteWriter appends fixed-width little-endian integers and length-
 * prefixed byte strings to a growing buffer; a ByteReader reads them
 * back with every access bounds-checked. Readers are built for
 * *hostile* input (a truncated or bit-flipped checkpoint file must
 * fail with a diagnostic, never with undefined behavior): any
 * malformed read raises SimError carrying the reader's context
 * string (typically a file path), the byte offset, and what was
 * being read.
 *
 * The integer encodings are unconditionally little-endian so files
 * written on one machine load on any other.
 */

#ifndef ASIM_SUPPORT_SERIALIZE_HH
#define ASIM_SUPPORT_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "support/logging.hh"

namespace asim {

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }

    /** Raw bytes, no length prefix. */
    void
    bytes(std::string_view data)
    {
        buf_.append(data.data(), data.size());
    }

    /** Length-prefixed (u32) byte string. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(s);
    }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked little-endian decoder. See file comment. */
class ByteReader
{
  public:
    /** @param data the encoded bytes (must outlive the reader)
     *  @param context diagnostic prefix for errors (e.g. file path) */
    ByteReader(std::string_view data, std::string context)
        : data_(data), context_(std::move(context))
    {}

    uint8_t
    u8(const char *what)
    {
        need(1, what);
        return static_cast<uint8_t>(data_[pos_++]);
    }

    uint32_t
    u32(const char *what)
    {
        need(4, what);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    uint64_t
    u64(const char *what)
    {
        need(8, what);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    int32_t
    i32(const char *what)
    {
        return static_cast<int32_t>(u32(what));
    }

    /** Raw bytes, no length prefix. */
    std::string_view
    bytes(size_t n, const char *what)
    {
        need(n, what);
        std::string_view v = data_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    /** Length-prefixed (u32) byte string. The declared length is
     *  validated against the remaining input *before* any allocation,
     *  so a bit-flipped length fails fast instead of allocating. */
    std::string
    str(const char *what)
    {
        uint32_t n = u32(what);
        if (n > remaining())
            fail(std::string(what) + " declares " + std::to_string(n) +
                 " bytes but only " + std::to_string(remaining()) +
                 " remain");
        return std::string(bytes(n, what));
    }

    /** A count that will drive an allocation or loop: validated
     *  against `limit` and against the remaining input assuming at
     *  least `elemSize` encoded bytes per element. */
    uint64_t
    count(const char *what, uint64_t limit, size_t elemSize)
    {
        uint64_t n = u64(what);
        if (n > limit)
            fail(std::string(what) + " is " + std::to_string(n) +
                 ", above the sanity limit " + std::to_string(limit));
        if (elemSize != 0 && n > remaining() / elemSize)
            fail(std::string(what) + " declares " + std::to_string(n) +
                 " elements but only " + std::to_string(remaining()) +
                 " bytes remain");
        return n;
    }

    size_t offset() const { return pos_; }
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /** Raise SimError "<context>: <reason> (offset N)". */
    [[noreturn]] void
    fail(const std::string &reason) const
    {
        throw SimError(context_ + ": " + reason + " (offset " +
                       std::to_string(pos_) + ")");
    }

  private:
    void
    need(size_t n, const char *what)
    {
        if (n > remaining())
            fail("truncated reading " + std::string(what) + ": need " +
                 std::to_string(n) + " bytes, have " +
                 std::to_string(remaining()));
    }

    std::string_view data_;
    std::string context_;
    size_t pos_ = 0;
};

/**
 * Write `data` to `path` atomically and durably: a sibling temp file
 * `<path>.tmp` is written and fsync'd, renamed into place, and the
 * parent directory is fsync'd, so neither a kill nor a power loss
 * can leave a torn file under the final name — the discipline every
 * checkpoint file relies on. A kill leaves `<path>.tmp`; nothing
 * reads it.
 * @throws SimError naming the path on any I/O failure (a temp file
 *         that never reached the final name is removed)
 */
void writeFileAtomic(const std::string &path, std::string_view data);

/** FNV-1a 64-bit hash fed in pieces: after add(a) then add(b),
 *  value() is fnv1a64(a + b). Inline, so a writer can hash each piece
 *  while it is still in cache and its work overlaps the hash's
 *  multiply chain. */
class Fnv1a64
{
  public:
    /** Offset basis mixed with the caller's seed so independent
     *  domains (spec text, option bits) cannot collide trivially. */
    explicit Fnv1a64(uint64_t seed = 0) : h_(14695981039346656037ull ^ seed)
    {}

    void
    add(std::string_view data)
    {
        for (char c : data) {
            h_ ^= static_cast<uint8_t>(c);
            h_ *= 1099511628211ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
};

/** FNV-1a 64-bit hash (stable across platforms and releases; used
 *  for content identity keys, not for untrusted-input integrity). */
uint64_t fnv1a64(std::string_view data, uint64_t seed = 0);

/** CRC-32 (IEEE 802.3, reflected) over `data`. */
uint32_t crc32(std::string_view data);

} // namespace asim

#endif // ASIM_SUPPORT_SERIALIZE_HH
