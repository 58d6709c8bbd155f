#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <utility>

#include "service/codec.h"

namespace venn::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// send(2) until done; false on a dead peer (the daemon must not care).
// MSG_NOSIGNAL turns a write to a closed connection into EPIPE instead of
// a process-killing SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int bind_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  // A stale socket file from a killed daemon is expected (the crash
  // model); remove it before binding.
  std::filesystem::remove(path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  return fd;
}

int bind_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    *bound_port = ntohs(actual.sin_port);
  } else {
    *bound_port = port;
  }
  return fd;
}

}  // namespace

LineServer::LineServer(Options opts, IngestQueue& queue)
    : opts_(std::move(opts)), queue_(queue) {
  if (!opts_.socket_path.empty()) {
    listen_fd_ = bind_unix(opts_.socket_path);
    endpoint_ = "unix:" + opts_.socket_path;
  } else if (opts_.tcp_port >= 0) {
    int bound = 0;
    listen_fd_ = bind_tcp(opts_.tcp_port, &bound);
    opts_.tcp_port = bound;
    endpoint_ = "tcp:" + std::to_string(bound);
  } else {
    throw std::runtime_error("LineServer: no endpoint configured");
  }
  if (::listen(listen_fd_, 8) < 0) {
    ::close(listen_fd_);
    throw_errno("listen");
  }
  thread_ = std::thread([this] { serve(); });
}

LineServer::~LineServer() {
  stop();
  if (!opts_.socket_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(opts_.socket_path, ec);
  }
}

void LineServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Shutting the listener down kicks accept() out of its blocking call; it
  // is closed only after the serving thread, which reads listen_fd_, has
  // been joined. The live connection is shut for reading only: a blocked
  // read() returns, but a reply the daemon already produced — the ack of
  // the `shutdown` or `drain` that ended the loop — is still written
  // before the serving thread lets go of the socket.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  const int conn = conn_fd_.exchange(-1);
  if (conn >= 0) ::shutdown(conn, SHUT_RD);
  if (thread_.joinable()) thread_.join();
  if (conn >= 0) ::close(conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void LineServer::serve() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop) or fatal
    }
    conn_fd_.store(fd);
    // A stop() that ran before the store above found no connection to
    // shut; it set stopping_ first, so checking it here closes that gap.
    if (!stopping_.load()) serve_connection(fd);
    const int owned = conn_fd_.exchange(-1);
    if (owned >= 0) ::close(owned);
  }
}

void LineServer::serve_connection(int fd) {
  std::string buf;
  char chunk[1024];
  while (!stopping_.load()) {
    // Dispatch every complete line currently buffered.
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      IngestItem item;
      item.line = std::move(line);
      std::future<std::string> reply = item.reply.get_future();
      if (!queue_.push(std::move(item))) {
        (void)write_all(fd, err_reply("daemon is shutting down") + "\n");
        return;
      }
      std::string out;
      try {
        out = reply.get();
      } catch (const std::future_error&) {
        return;  // the daemon loop died without answering
      }
      if (!write_all(fd, out + "\n")) return;
    }
    if (buf.size() > kMaxLineBytes) {
      // Framing violation: never reaches the daemon loop or the journal.
      (void)write_all(fd, err_reply("request exceeds " +
                                    std::to_string(kMaxLineBytes) +
                                    " bytes") +
                              "\n");
      return;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer hung up (or stop() shut the socket down)
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace venn::service
