// In-process transport tests for the daemon's socket layer.
//
// LineServer::serve runs on a test thread with a fake handler that answers
// "ok <line>" and ends the loop on "quit", so the framing rules are pinned
// without a simulation behind them: split lines, CRLF, pipelined bursts,
// the size cap, refusals behind the line that ends the loop, and the
// kernel-bound TCP port. SocketClient's half of the wire is pinned too: a
// send to a closed peer is an exception, never a SIGPIPE.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/codec.h"
#include "service/server.h"

namespace venn::service {
namespace {

// Per-process names: ctest runs each test in its own process, and several
// builds of the suite may run at once.
std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "venn_srv_" + name + "." +
         std::to_string(::getpid()) + ".sock";
}

// LineServer::serve on its own thread. The handler records each line and
// answers "ok <line>"; the line "quit" ends the loop.
class ServerThread {
 public:
  explicit ServerThread(LineServer::Options opts) : server_(std::move(opts)) {
    thread_ = std::thread([this] {
      server_.serve(
          [this](const std::string& line) {
            seen_.push_back(line);
            if (line == "quit") quit_ = true;
            return ok_reply(line);
          },
          [this] { return quit_.load(); });
    });
  }
  ~ServerThread() { finish(); }

  // Ends the loop (sending "quit" on a new connection unless a line already
  // did) and returns every line the handler saw.
  std::vector<std::string> finish() {
    if (thread_.joinable()) {
      if (!quit_) (void)connect().request("quit");
      thread_.join();
    }
    return seen_;
  }

  SocketClient connect() const {
    const std::string& ep = server_.endpoint();
    return ep.rfind("tcp:", 0) == 0
               ? SocketClient::connect_tcp(std::stoi(ep.substr(4)))
               : SocketClient::connect_unix(ep.substr(5));
  }
  [[nodiscard]] const std::string& endpoint() const {
    return server_.endpoint();
  }

 private:
  LineServer server_;
  std::vector<std::string> seen_;  // serve thread only until joined
  std::atomic<bool> quit_{false};  // set before the reply to "quit"
  std::thread thread_;
};

// A raw Unix-socket connection: arbitrary bytes out, reply lines back.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) < 0) {
      throw std::runtime_error("connect(" + path + ") failed");
    }
  }
  ~RawConn() { ::close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  // Reads until `n` lines have arrived or the server hangs up.
  std::vector<std::string> read_lines(std::size_t n) {
    std::vector<std::string> lines;
    while (lines.size() < n) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        lines.push_back(buf_.substr(0, nl));
        buf_.erase(0, nl + 1);
        continue;
      }
      if (!fill()) break;
    }
    return lines;
  }
  // True when the server has closed the connection and nothing is unread.
  bool at_eof() { return buf_.empty() && !fill(); }

 private:
  bool fill() {
    char chunk[8192];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

TEST(LineServer, SplitLinesAndCrlfAreFramed) {
  const std::string path = socket_path("split");
  ServerThread srv({path, -1});
  {
    RawConn conn(path);
    // The reply to "a" proves the server has read the write that also
    // carried "pa", so "rt" completes a line split across reads.
    conn.send_bytes("a\npa");
    EXPECT_EQ(conn.read_lines(1), std::vector<std::string>{"ok a"});
    conn.send_bytes("rt\r\n");
    conn.send_bytes("crlf\r\n");
    EXPECT_EQ(conn.read_lines(2),
              (std::vector<std::string>{"ok part", "ok crlf"}));
  }
  EXPECT_EQ(srv.finish(),
            (std::vector<std::string>{"a", "part", "crlf", "quit"}));
}

TEST(LineServer, PipelinedBurstIsAnsweredInOrder) {
  const std::string path = socket_path("burst");
  ServerThread srv({path, -1});
  constexpr int kLines = 500;
  std::string burst;
  std::vector<std::string> want;
  for (int i = 0; i < kLines; ++i) {
    burst += "line " + std::to_string(i) + "\n";
    want.push_back("ok line " + std::to_string(i));
  }
  {
    RawConn conn(path);
    conn.send_bytes(burst);
    EXPECT_EQ(conn.read_lines(kLines), want);
  }
  EXPECT_EQ(srv.finish().size(), static_cast<std::size_t>(kLines) + 1);
}

TEST(LineServer, LineAtTheCapIsServed) {
  const std::string path = socket_path("cap");
  ServerThread srv({path, -1});
  const std::string line(kMaxLineBytes, 'x');
  {
    RawConn conn(path);
    conn.send_bytes(line + "\r\n");
    EXPECT_EQ(conn.read_lines(1), std::vector<std::string>{"ok " + line});
  }
  EXPECT_EQ(srv.finish().front(), line);
}

TEST(LineServer, OversizeLineIsRefusedAndConnectionDropped) {
  const std::string path = socket_path("oversize");
  ServerThread srv({path, -1});
  // One byte over the cap with its newline, and an unterminated run past it.
  for (const std::string& bytes :
       {std::string(kMaxLineBytes + 1, 'x') + "\n",
        std::string(3 * kMaxLineBytes, 'y')}) {
    RawConn conn(path);
    conn.send_bytes(bytes);
    const auto lines = conn.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], err_reply("request exceeds " +
                                  std::to_string(kMaxLineBytes) + " bytes"));
    EXPECT_TRUE(conn.at_eof());
  }
  // The next connection is served, and the handler never saw either line.
  EXPECT_EQ(srv.connect().request("ping"), "ok ping");
  EXPECT_EQ(srv.finish(), (std::vector<std::string>{"ping", "quit"}));
}

TEST(LineServer, LinesBehindTheFinalLineAreRefused) {
  const std::string path = socket_path("behind");
  ServerThread srv({path, -1});
  {
    RawConn conn(path);
    conn.send_bytes("a\nquit\nb\nc\n");
    const std::string refused = err_reply("daemon is shutting down");
    EXPECT_EQ(conn.read_lines(5), (std::vector<std::string>{
                                      "ok a", "ok quit", refused, refused}));
    EXPECT_TRUE(conn.at_eof());
  }
  EXPECT_EQ(srv.finish(), (std::vector<std::string>{"a", "quit"}));
}

TEST(LineServer, SocketFileIsRemovedOnDestruction) {
  const std::string path = socket_path("cleanup");
  {
    ServerThread srv({path, -1});
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(LineServer, TcpPortZeroReportsTheBoundPort) {
  ServerThread srv({"", 0});
  const std::string& ep = srv.endpoint();
  ASSERT_EQ(ep.rfind("tcp:", 0), 0u) << ep;
  EXPECT_GT(std::stoi(ep.substr(4)), 0) << ep;
  EXPECT_EQ(srv.connect().request("ping"), "ok ping");
}

TEST(SocketClient, SendToClosedPeerThrowsInsteadOfSigpipe) {
  const std::string path = socket_path("epipe");
  ServerThread srv({path, -1});
  auto client = srv.connect();
  ASSERT_EQ(client.request("quit"), "ok quit");
  srv.finish();  // serve() has returned: the server closed its end

  struct sigaction dfl {};
  struct sigaction old {};
  dfl.sa_handler = SIG_DFL;
  ASSERT_EQ(::sigaction(SIGPIPE, &dfl, &old), 0);
  try {
    (void)client.request("ping");
    ADD_FAILURE() << "request to a closed peer returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "connection lost while sending request");
  }
  ::sigaction(SIGPIPE, &old, nullptr);
}

}  // namespace
}  // namespace venn::service
