/** @file
 * Span tracer: trace-file shape (Chrome trace_event JSON with the
 * metrics registry embedded), start/stop lifecycle, span inertness
 * when disabled, and the jsonEscape helper span args rely on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "support/metrics.hh"
#include "support/tracing.hh"

namespace asim::tracing {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class TracingTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("asim_tracing_test_" +
                  std::to_string(::getpid()) + ".json"))
                    .string();
    }

    void TearDown() override
    {
        stop(); // idempotent; never leave tracing on for other tests
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(TracingTest, DisabledByDefault)
{
    EXPECT_FALSE(enabled());
}

TEST_F(TracingTest, StartStopProducesTraceObject)
{
    ASSERT_TRUE(start(path_));
    EXPECT_TRUE(enabled());
    EXPECT_TRUE(metrics::timingEnabled()); // start flips timing on

    {
        Span s("unit.span", "test");
        s.setArgs("\"k\":1");
    }
    instantEvent("unit.instant", "test");
    counterEvent("unit.counter", "depth", 3.0);
    setThreadName("tester");
    stop();
    EXPECT_FALSE(enabled());

    std::string text = slurp(path_);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(text.find("\"name\":\"unit.span\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"unit.instant\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"args\":{\"k\":1}"), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    // The metrics registry rides along in the same artifact.
    EXPECT_NE(text.find("\"asim_metrics\""), std::string::npos);
    // Well-formed JSON object end to end (braces balance and the
    // text is one object).
    int depth = 0;
    bool inStr = false;
    bool esc = false;
    for (char ch : text) {
        if (esc) {
            esc = false;
            continue;
        }
        if (ch == '\\') {
            esc = true;
            continue;
        }
        if (ch == '"') {
            inStr = !inStr;
            continue;
        }
        if (inStr)
            continue;
        if (ch == '{')
            ++depth;
        if (ch == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST_F(TracingTest, DoubleStartRefused)
{
    ASSERT_TRUE(start(path_));
    EXPECT_FALSE(start(path_)); // already recording
    stop();
}

TEST_F(TracingTest, StartOnUnwritablePathFails)
{
    EXPECT_FALSE(start("/nonexistent-dir-xyz/trace.json"));
    EXPECT_FALSE(enabled());
}

TEST_F(TracingTest, SpansInertWhenDisabled)
{
    ASSERT_FALSE(enabled());
    {
        Span s("never.emitted", "test");
        s.setArgs("\"ignored\":true");
    } // must not crash, must not write anywhere
    completeEvent("also.never", "test", 0, 1);
    instantEvent("also.never", "test");
    EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(TracingTest, SpanOpenAcrossStopIsDropped)
{
    ASSERT_TRUE(start(path_));
    auto s = std::make_unique<Span>("late.span", "test");
    stop();
    s.reset(); // finishes after the file closed: dropped, no crash
    std::string text = slurp(path_);
    EXPECT_EQ(text.find("late.span"), std::string::npos);
}

TEST_F(TracingTest, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape(std::string("a\nb")), "a\\nb");
}

TEST_F(TracingTest, CurrentTidStablePerThread)
{
    uint32_t a = currentTid();
    uint32_t b = currentTid();
    EXPECT_EQ(a, b);
}

TEST_F(TracingTest, SyncWriterDiscardsOnNull)
{
    SyncWriter w(nullptr);
    w.writeLine("dropped");
    w.write("dropped");
    w.flush(); // no crash is the assertion
}

} // namespace
} // namespace asim::tracing
