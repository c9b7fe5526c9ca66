/**
 * @file
 * Machine-protocol unit tests: request parsing (JSON and bare text),
 * decimal argument parsing, ordered JSON rendering, and transcript
 * schema validation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "debug/engine.hh"
#include "debug/protocol.hh"
#include "debug/repl.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::debug;

TEST(ProtocolTest, ParsesBareCommandLines)
{
    Request req = parseRequestLine("break count == 3");
    EXPECT_TRUE(req.error.empty());
    EXPECT_FALSE(req.hasId);
    EXPECT_EQ(req.cmd, "break");
    ASSERT_EQ(req.args.size(), 3u);
    EXPECT_EQ(req.args[0], "count");
    EXPECT_EQ(req.args[2], "3");
}

TEST(ProtocolTest, ParsesJsonRequests)
{
    Request req = parseRequestLine(
        "{\"id\":7,\"cmd\":\"break\",\"args\":[\"count == 3\"]}");
    EXPECT_TRUE(req.error.empty());
    EXPECT_TRUE(req.hasId);
    EXPECT_EQ(req.id, 7);
    EXPECT_EQ(req.cmd, "break");
    // Multi-word argument strings re-tokenize to the bare-line stream.
    ASSERT_EQ(req.args.size(), 3u);
    EXPECT_EQ(req.args[1], "==");
}

TEST(ProtocolTest, SkipsCommentsAndBlanks)
{
    EXPECT_TRUE(parseRequestLine("").cmd.empty());
    EXPECT_TRUE(parseRequestLine("   \t").cmd.empty());
    EXPECT_TRUE(parseRequestLine("# a comment").cmd.empty());
    EXPECT_TRUE(parseRequestLine("# a comment").error.empty());
}

TEST(ProtocolTest, RejectsMalformedRequests)
{
    EXPECT_FALSE(parseRequestLine("{not json").error.empty());
    EXPECT_FALSE(parseRequestLine("{\"id\":1}").error.empty());
    EXPECT_FALSE(
        parseRequestLine("{\"cmd\":\"run\",\"args\":\"x\"}").error.empty());
    EXPECT_FALSE(
        parseRequestLine("{\"cmd\":\"run\",\"args\":[1]}").error.empty());
}

TEST(ProtocolTest, ParseU64AcceptsDigitsUpTo2To64Minus1)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseU64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", &v));
    EXPECT_EQ(v, UINT64_MAX);
    v = 42;
    EXPECT_FALSE(parseU64("18446744073709551616", &v));
    EXPECT_FALSE(parseU64("18446744073709551617", &v));
    EXPECT_FALSE(parseU64("99999999999999999999", &v));
    EXPECT_FALSE(parseU64("-1", &v));
    EXPECT_FALSE(parseU64("+1", &v));
    EXPECT_FALSE(parseU64("", &v));
    EXPECT_FALSE(parseU64("12x", &v));
    EXPECT_EQ(v, 42u); // untouched on failure
}

TEST(ProtocolTest, GotoCycleRejectsOverflowingTargets)
{
    hdl::Design design = hdl::parse(
        "module m(input wire clk, output reg [7:0] count);\n"
        "always @(posedge clk) count <= count + 1;\nendmodule");
    sim::StimulusTape tape;
    for (int i = 0; i < 4; ++i) {
        sim::StimulusStep low, high;
        low.pokes.emplace_back("clk", Bits(1, 0));
        high.pokes.emplace_back("clk", Bits(1, 1));
        tape.steps.push_back(low);
        tape.steps.push_back(high);
    }
    Engine engine(elab::elaborate(design, "m").mod, tape);
    std::istringstream in("goto-cycle 18446744073709551617\n"
                          "goto-cycle -1\n"
                          "goto-cycle 18446744073709551615\n"
                          "quit\n");
    std::ostringstream out;
    SessionOptions opts;
    opts.machine = true;
    EXPECT_EQ(runSession(engine, in, out, opts), 2);

    std::vector<std::string> lines;
    std::istringstream transcript(out.str());
    for (std::string line; std::getline(transcript, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 5u) << out.str(); // hello + 4 responses
    EXPECT_NE(lines[1].find("usage: goto-cycle <n>"), std::string::npos);
    EXPECT_NE(lines[2].find("usage: goto-cycle <n>"), std::string::npos);
    // The largest target is valid: travel runs to the tape's end.
    EXPECT_NE(lines[3].find("\"ok\":true"), std::string::npos)
        << lines[3];
    EXPECT_EQ(engine.cycle(), 4u);
}

TEST(ProtocolTest, JsonObjectPreservesFieldOrderAndEscapes)
{
    JsonObject obj;
    obj.field("id", int64_t(3))
        .field("ok", true)
        .field("cmd", std::string("print"))
        .raw("payload", "{\"x\":1}")
        .field("note", std::string("a\"b\nc"));
    EXPECT_EQ(obj.str(),
              "{\"id\":3,\"ok\":true,\"cmd\":\"print\","
              "\"payload\":{\"x\":1},\"note\":\"a\\\"b\\nc\"}");
    EXPECT_EQ(jsonArray({}), "[]");
    EXPECT_EQ(jsonArray({"1", "\"a\""}), "[1,\"a\"]");
}

namespace
{

const char *kHello =
    "{\"proto\":\"hwdbg-debug\",\"version\":1,\"design\":\"m\","
    "\"steps\":4,\"signals\":2}\n";

std::string
goodResponse()
{
    return "{\"id\":1,\"ok\":true,\"cmd\":\"run\","
           "\"state\":{\"cycle\":4,\"step\":8,\"finished\":false,"
           "\"end\":true}}\n";
}

} // namespace

TEST(ProtocolTest, AcceptsWellFormedTranscript)
{
    std::string text = std::string(kHello) + goodResponse() +
                       "{\"id\":null,\"ok\":false,\"error\":\"no\","
                       "\"cmd\":\"print\",\"state\":{\"cycle\":4,"
                       "\"step\":8,\"finished\":false,\"end\":true}}\n";
    EXPECT_EQ(checkDebugTranscript(text), "");
}

TEST(ProtocolTest, RejectsBadTranscripts)
{
    EXPECT_NE(checkDebugTranscript(""), "");
    // Missing hello.
    EXPECT_NE(checkDebugTranscript(goodResponse()), "");
    // ok:true carrying an error field.
    std::string bad = std::string(kHello) +
                      "{\"id\":1,\"ok\":true,\"error\":\"x\","
                      "\"cmd\":\"run\",\"state\":{\"cycle\":0,"
                      "\"step\":0,\"finished\":false,\"end\":false}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // ok:false without an error field.
    bad = std::string(kHello) +
          "{\"id\":1,\"ok\":false,\"cmd\":\"run\",\"state\":{"
          "\"cycle\":0,\"step\":0,\"finished\":false,\"end\":false}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // Wrong field order (cmd before ok).
    bad = std::string(kHello) +
          "{\"id\":1,\"cmd\":\"run\",\"ok\":true,\"state\":{"
          "\"cycle\":0,\"step\":0,\"finished\":false,\"end\":false}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // Incomplete state object.
    bad = std::string(kHello) +
          "{\"id\":1,\"ok\":true,\"cmd\":\"run\",\"state\":{"
          "\"cycle\":0,\"step\":0}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // Trailing field after state.
    bad = std::string(kHello) +
          "{\"id\":1,\"ok\":true,\"cmd\":\"run\",\"state\":{"
          "\"cycle\":0,\"step\":0,\"finished\":false,\"end\":false},"
          "\"extra\":1}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
}
