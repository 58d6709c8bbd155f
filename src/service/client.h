// SocketClient: minimal blocking client for the daemon's line protocol.
// One request line out, one reply line back. Used by `venn_coordinatord
// send`, the crash-recovery differential test and the smoke scripts.
#pragma once

#include <optional>
#include <string>

namespace venn::service {

class SocketClient {
 public:
  // Connects to a Unix socket path or ("" + port) loopback TCP. Throws
  // std::runtime_error when the connection fails.
  static SocketClient connect_unix(const std::string& path);
  static SocketClient connect_tcp(int port);

  ~SocketClient();
  SocketClient(SocketClient&& other) noexcept;
  SocketClient& operator=(SocketClient&& other) noexcept;
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  // Sends `line` (newline appended) and blocks for the reply line.
  // Throws std::runtime_error if the connection dies mid-request, including
  // a peer that closed before the send (never SIGPIPE).
  [[nodiscard]] std::string request(const std::string& line);

 private:
  explicit SocketClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buf_;
};

}  // namespace venn::service
