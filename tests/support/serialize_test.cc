/** @file
 * Binary serialization primitives: writer/reader round trips, the
 * bounds-checking discipline hostile input relies on, the hash
 * functions' reference vectors, and the atomic file writer.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "support/serialize.hh"

namespace asim {
namespace {

TEST(ByteWriterTest, LittleEndianLayout)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0x01020304u);
    w.u64(0x1122334455667788ull);
    w.i32(-1);
    const std::string &d = w.data();
    ASSERT_EQ(d.size(), 1u + 4 + 8 + 4);
    EXPECT_EQ(static_cast<uint8_t>(d[0]), 0xab);
    EXPECT_EQ(static_cast<uint8_t>(d[1]), 0x04); // LSB first
    EXPECT_EQ(static_cast<uint8_t>(d[4]), 0x01);
    EXPECT_EQ(static_cast<uint8_t>(d[5]), 0x88);
    EXPECT_EQ(static_cast<uint8_t>(d[13]), 0xff);
}

TEST(ByteReaderTest, RoundTripsEveryType)
{
    ByteWriter w;
    w.u8(7);
    w.u32(123456789u);
    w.u64(0xdeadbeefcafef00dull);
    w.i32(-42);
    w.str("hello");
    w.str("");

    ByteReader r(w.data(), "test");
    EXPECT_EQ(r.u8("a"), 7);
    EXPECT_EQ(r.u32("b"), 123456789u);
    EXPECT_EQ(r.u64("c"), 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.i32("d"), -42);
    EXPECT_EQ(r.str("e"), "hello");
    EXPECT_EQ(r.str("f"), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteReaderTest, TruncationThrowsWithContextAndOffset)
{
    ByteWriter w;
    w.u32(5);
    ByteReader r(w.data(), "/some/file.ckpt");
    r.u32("first");
    try {
        r.u32("second");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("/some/file.ckpt"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("second"), std::string::npos) << msg;
        EXPECT_NE(msg.find("offset 4"), std::string::npos) << msg;
    }
}

TEST(ByteReaderTest, LyingStringLengthFailsBeforeAllocating)
{
    // A u32 length far beyond the data must be rejected by
    // comparison with the remaining bytes, not attempted.
    ByteWriter w;
    w.u32(0x7fffffffu);
    w.bytes("xy");
    ByteReader r(w.data(), "t");
    EXPECT_THROW(r.str("name"), SimError);
}

TEST(ByteReaderTest, CountEnforcesLimitAndRemainingBytes)
{
    {
        ByteWriter w;
        w.u64(1000);
        ByteReader r(w.data(), "t");
        EXPECT_THROW(r.count("n", 100, 1), SimError) << "above limit";
    }
    {
        ByteWriter w;
        w.u64(50); // 50 elements of 4 bytes, but no payload follows
        ByteReader r(w.data(), "t");
        EXPECT_THROW(r.count("n", 100, 4), SimError)
            << "more elements than bytes";
    }
    {
        ByteWriter w;
        w.u64(3);
        w.bytes("0123456789ab"); // exactly 3 x 4 bytes
        ByteReader r(w.data(), "t");
        EXPECT_EQ(r.count("n", 100, 4), 3u);
    }
}

TEST(HashTest, Fnv1a64ReferenceVectors)
{
    // Standard FNV-1a test vectors (seed 0 keeps the offset basis).
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    // Seeding separates domains.
    EXPECT_NE(fnv1a64("x", 1), fnv1a64("x", 2));
}

TEST(HashTest, Crc32ReferenceVectors)
{
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u); // the classic check
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
              0x414fa339u);
}

TEST(HashTest, Crc32DetectsEverySingleByteFlip)
{
    std::string data = "checkpoint payload bytes";
    uint32_t good = crc32(data);
    for (size_t i = 0; i < data.size(); ++i) {
        std::string bad = data;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        EXPECT_NE(crc32(bad), good) << "flip at " << i;
    }
}

TEST(WriteFileAtomicTest, ReplacesTheFileAndNamesThePathOnFailure)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("asim-write-atomic-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "state.ckpt").string();
    const auto slurp = [&path] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };

    writeFileAtomic(path, "first");
    writeFileAtomic(path, std::string("sec\0nd", 6));
    EXPECT_EQ(slurp(), std::string("sec\0nd", 6));
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    const std::string missing = (dir / "gone" / "state.ckpt").string();
    try {
        writeFileAtomic(missing, "x");
        ADD_FAILURE() << "wrote into a missing directory";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace asim
