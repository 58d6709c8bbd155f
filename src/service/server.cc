#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
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

std::string oversize_reply() {
  return err_reply("request exceeds " + std::to_string(kMaxLineBytes) +
                   " bytes") +
         "\n";
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

// Owns an accepted connection for the duration of one serve_connection().
struct ConnFd {
  int fd;
  ~ConnFd() { ::close(fd); }
};

}  // namespace

LineServer::LineServer(Options opts) : opts_(std::move(opts)) {
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
}

LineServer::~LineServer() {
  ::close(listen_fd_);
  if (!opts_.socket_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(opts_.socket_path, ec);
  }
}

void LineServer::serve(const Handler& handle,
                       const std::function<bool()>& done) {
  while (!done()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept");
    }
    const ConnFd conn{fd};
    serve_connection(fd, handle, done);
  }
}

void LineServer::serve_connection(int fd, const Handler& handle,
                                  const std::function<bool()>& done) {
  std::string buf;   // bytes read but not yet consumed: at most a partial line
  std::string line;  // reused across requests, so it stops allocating
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer hung up
    }
    std::size_t from = buf.size();  // the bytes before it hold no newline
    buf.append(chunk, static_cast<std::size_t>(n));
    // Handle every complete line, advancing a cursor; the consumed prefix
    // is erased once per read, not once per line.
    std::size_t start = 0;
    for (std::size_t nl; (nl = buf.find('\n', from)) != std::string::npos;
         start = from = nl + 1) {
      std::size_t len = nl - start;
      if (len > 0 && buf[nl - 1] == '\r') --len;
      if (len > kMaxLineBytes) {
        (void)write_all(fd, oversize_reply());
        return;
      }
      line.assign(buf, start, len);
      std::string reply = handle(line);
      reply += '\n';
      if (!write_all(fd, reply)) return;
      if (done()) {
        // Lines pipelined behind the one that ended the loop.
        const auto behind = std::count(
            buf.begin() + static_cast<std::ptrdiff_t>(nl + 1), buf.end(), '\n');
        std::string refusals;
        for (auto i = behind; i > 0; --i) {
          refusals += err_reply("daemon is shutting down") + "\n";
        }
        (void)write_all(fd, refusals);
        return;
      }
    }
    buf.erase(0, start);
    // The partial line may still end in the CR of a CRLF, hence the + 1.
    if (buf.size() > kMaxLineBytes + 1) {
      (void)write_all(fd, oversize_reply());
      return;
    }
  }
}

}  // namespace venn::service
