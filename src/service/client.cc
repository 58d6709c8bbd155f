#include "service/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace venn::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

SocketClient SocketClient::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("connect(" + path + ")");
  }
  return SocketClient(fd);
}

SocketClient SocketClient::connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("connect(127.0.0.1:" + std::to_string(port) + ")");
  }
  return SocketClient(fd);
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

SocketClient::SocketClient(SocketClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_)) {}

SocketClient& SocketClient::operator=(SocketClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

std::string SocketClient::request(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    // MSG_NOSIGNAL: a daemon that died turns into EPIPE and an exception
    // here, not a SIGPIPE that kills the client.
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("connection lost while sending request");
    }
    off += static_cast<std::size_t>(n);
  }
  char chunk[1024];
  while (true) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!reply.empty() && reply.back() == '\r') reply.pop_back();
      return reply;
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("connection lost while awaiting reply");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace venn::service
