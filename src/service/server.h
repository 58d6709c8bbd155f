// LineServer: newline-framed request/reply transport for the daemon.
//
// Listens on a Unix-domain stream socket (preferred: filesystem-scoped,
// no port allocation) or a loopback TCP port (fallback for filesystems
// without AF_UNIX support). serve() runs on the caller's thread — the
// daemon's dispatch thread — so a request line goes from read() to the
// handler and its reply back to send() without crossing threads. One
// connection is served at a time: the coordinator is a single logical
// client surface, and concurrent clients wait at accept(). Each reply is
// written after the handler returns and before the next line is handled,
// so the wire preserves dispatch order.
//
// Framing violations are handled at the transport: a line longer than
// codec::kMaxLineBytes gets an err reply and the connection is dropped
// without the bytes ever reaching the handler.
#pragma once

#include <functional>
#include <string>

namespace venn::service {

class LineServer {
 public:
  struct Options {
    std::string socket_path;  // AF_UNIX path; empty = use tcp_port
    int tcp_port = -1;        // loopback TCP; -1 = use socket_path
  };
  // One request line (CR/LF stripped) -> one reply line (no newline).
  using Handler = std::function<std::string(const std::string&)>;

  // Binds and listens. Throws std::runtime_error when the endpoint cannot
  // be bound.
  explicit LineServer(Options opts);
  // Closes the listener and removes the socket file.
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Accepts connections one at a time and answers each line with
  // `handle`, until `done()` holds after a handled line. Complete lines
  // already read behind that line get an err reply; the connection is then
  // closed and serve() returns. Throws std::runtime_error when accept()
  // fails for good.
  void serve(const Handler& handle, const std::function<bool()>& done);

  // Human-readable endpoint ("unix:<path>" or "tcp:<port>"). For TCP with
  // port 0 the kernel-assigned port is reported.
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

 private:
  void serve_connection(int fd, const Handler& handle,
                        const std::function<bool()>& done);

  Options opts_;
  std::string endpoint_;
  int listen_fd_ = -1;
};

}  // namespace venn::service
