/**
 * @file
 * The serve server: scripted channels are byte-deterministic, many
 * concurrent sessions share one design build and dedupe checkpoint
 * snapshots, per-session response streams are byte-identical under
 * both stdio multiplexing and concurrent TCP clients, and routing
 * errors surface as protocol errors rather than channel death.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/jsoncheck.hh"
#include "serve/server.hh"
#include "serve/stats.hh"

using namespace hwdbg;
using namespace hwdbg::serve;

namespace
{

std::string
runScript(Server &server, const std::string &script)
{
    std::istringstream in(script);
    std::ostringstream out;
    server.runChannel(in, out);
    return out.str();
}

/** Split a transcript into lines (no trailing empty line). */
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/** Bucket routed response lines by session id, stripped of the
 *  `{"session":N,` prefix so streams can be compared byte-for-byte. */
void
routedStreams(const std::string &transcript,
              std::map<int64_t, std::vector<std::string>> *buckets)
{
    for (const auto &line : lines(transcript)) {
        std::string error;
        auto root = obs::parseJson(line, &error);
        if (!root || !root->isObject() || root->members.empty() ||
            root->members[0].first != "session")
            continue;
        auto sid =
            static_cast<int64_t>(root->members[0].second->number);
        if (sid == 0)
            continue;
        auto comma = line.find(',');
        ASSERT_NE(comma, std::string::npos);
        (*buckets)[sid].push_back(line.substr(comma + 1));
    }
}

// readLine/writeAll: minimal line framing over a test client socket.
bool
readLine(int fd, std::string *out)
{
    out->clear();
    char ch;
    while (true) {
        ssize_t n = ::read(fd, &ch, 1);
        if (n <= 0)
            return !out->empty();
        if (ch == '\n')
            return true;
        out->push_back(ch);
    }
}

void
writeAll(int fd, const std::string &text)
{
    size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<size_t>(n);
    }
}

int
connectLoopback(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

TEST(ServeServerTest, ScriptedChannelIsByteDeterministic)
{
    const std::string script = "open debug bug=D4\n"
                               "open cover bug=D4\n"
                               "@1 step 3\n"
                               "@1 cover\n"
                               "sessions\n"
                               "stats\n"
                               "quit\n";
    // A huge slow threshold keeps the stats "slow" counter at 0 no
    // matter how slow the machine is; the remaining wall-clock fields
    // all carry the `_us` suffix and scrub to zero.
    ServerOptions opts;
    opts.slowThresholdUs = 600000000;
    Server serverA(opts), serverB(opts);
    std::string runA = runScript(serverA, script);
    std::string runB = runScript(serverB, script);
    EXPECT_EQ(scrubServeTimings(runA), scrubServeTimings(runB));
    EXPECT_EQ(checkServeTranscript(runA), "");
}

TEST(ServeServerTest, EightSessionsShareOneBuildAndDedup)
{
    std::string script;
    for (int i = 0; i < 8; ++i)
        script += "open debug bug=D4\n";
    for (int sid = 1; sid <= 8; ++sid) {
        std::string at = "@";
        at += std::to_string(sid);
        script += at + " step 2\n";
        script += at + " info breakpoints\n";
        script += at + " cover\n";
    }
    script += "quit\n";

    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");

    // One real build; the seven other attaches were cache hits.
    auto cache = server.cache().stats();
    EXPECT_EQ(cache.builds, 1u);
    EXPECT_EQ(cache.hits, 7u);

    // The eight initial checkpoints are one interned snapshot.
    auto snaps = server.snapshots().stats();
    EXPECT_GE(snaps.dedupHits, 7u);
    EXPECT_GT(snaps.dedupBytes, 0u);

    // Identical command streams on identical designs produce
    // byte-identical per-session response streams.
    std::map<int64_t, std::vector<std::string>> buckets;
    routedStreams(transcript, &buckets);
    ASSERT_EQ(buckets.size(), 8u);
    for (int sid = 2; sid <= 8; ++sid)
        EXPECT_EQ(buckets.at(sid), buckets.at(1)) << "session " << sid;
}

TEST(ServeServerTest, RoutingErrorsAreProtocolErrors)
{
    const std::string script = "open cover bug=D4\n"
                               "@99 step\n"
                               "@1 step\n"
                               "@x step\n"
                               "bogus\n"
                               "quit\n";
    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");
    auto all = lines(transcript);
    ASSERT_EQ(all.size(), 7u); // hello + 6 responses
    EXPECT_NE(all[2].find("no session 99"), std::string::npos);
    EXPECT_NE(all[3].find("not interactive"), std::string::npos);
    EXPECT_NE(all[4].find("bad session prefix"), std::string::npos);
    EXPECT_NE(all[5].find("unknown server command"), std::string::npos);
}

TEST(ServeServerTest, BadOpenArgumentsAreProtocolErrors)
{
    // Numbers are digits only and at most 2^64-1: a sign or one past
    // the top is an error, not a wrapped value. stimulus= belongs to
    // file= designs; a bug runs its own workload.
    const std::string script =
        "open trace bug=D3 budget=-1\n"
        "open trace bug=D3 budget=18446744073709551617\n"
        "open debug bug=D4 stimulus=steps.stim\n"
        "open trace bug=D3 budget=18446744073709551615\n"
        "quit\n";
    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");
    auto all = lines(transcript);
    ASSERT_EQ(all.size(), 6u); // hello + 5 responses
    EXPECT_NE(all[1].find("budget=: bad number '-1'"), std::string::npos);
    EXPECT_NE(all[2].find("bad number '18446744073709551617'"),
              std::string::npos);
    EXPECT_NE(all[3].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(all[3].find("stimulus= applies to file= designs"),
              std::string::npos);
    EXPECT_NE(all[4].find("\"ok\":true"), std::string::npos) << all[4];
    EXPECT_NE(all[4].find("\"samples\":"), std::string::npos);
}

TEST(ServeServerTest, RoutedQuitRetiresTheSessionNotTheChannel)
{
    const std::string script = "open debug bug=D4\n"
                               "@1 quit\n"
                               "sessions\n"
                               "quit\n";
    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");
    EXPECT_NE(transcript.find("\"count\":0"), std::string::npos);
    EXPECT_EQ(server.sessions().count(), 0u);
}

TEST(ServeServerTest, ConcurrentTcpClientsGetByteIdenticalSessions)
{
    Server server;
    uint16_t port = 0;
    try {
        port = server.listenTcp(0);
    } catch (const HdlError &e) {
        GTEST_SKIP() << "no loopback TCP in this environment: "
                     << e.what();
    }
    std::thread acceptor([&server] { server.acceptLoop(); });

    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    std::vector<std::vector<std::string>> streams(kClients);
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            int fd = connectLoopback(port);
            if (fd < 0) {
                ++failures;
                return;
            }
            std::string line;
            readLine(fd, &line); // hello
            writeAll(fd, "open debug bug=D4\n");
            readLine(fd, &line);
            std::string error;
            auto root = obs::parseJson(line, &error);
            if (!root || !root->get("payload") ||
                !root->get("payload")->get("session")) {
                ++failures;
                ::close(fd);
                return;
            }
            auto sid = static_cast<int64_t>(
                root->get("payload")->get("session")->number);
            std::string at = "@";
            at += std::to_string(sid);
            at += " ";
            for (const char *cmd :
                 {"step 3", "info checkpoints", "cover", "step 2"}) {
                writeAll(fd, at + cmd + "\n");
                readLine(fd, &line);
                // Strip the `{"session":N,` prefix: the rest must be
                // byte-identical across every client.
                auto comma = line.find(',');
                streams[c].push_back(line.substr(comma + 1));
            }
            writeAll(fd, "quit\n");
            readLine(fd, &line);
            ::close(fd);
        });
    }
    for (auto &client : clients)
        client.join();
    ASSERT_EQ(failures.load(), 0);
    for (int c = 1; c < kClients; ++c)
        EXPECT_EQ(streams[c], streams[0]) << "client " << c;

    // Shared-state accounting across all eight concurrent attaches.
    EXPECT_EQ(server.cache().stats().builds, 1u);
    EXPECT_GE(server.snapshots().stats().dedupHits, 7u);

    int fd = connectLoopback(port);
    ASSERT_GE(fd, 0);
    std::string line;
    readLine(fd, &line);
    writeAll(fd, "shutdown\n");
    readLine(fd, &line);
    ::close(fd);
    acceptor.join();
}
