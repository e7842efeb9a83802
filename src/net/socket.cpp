#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <climits>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/file.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"

namespace clear::net {

namespace {

sockaddr_in resolve(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  CLEAR_CHECK_MSG(
      ::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1,
      "not an IPv4 address: '" << endpoint.host
                               << "' (the net layer binds numeric addresses; "
                                  "use 127.0.0.1 for loopback)");
  return addr;
}

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kReadBudget = 16 * kReadChunk;

// Poll `fd` for `events` until `deadline`; false when it passes first. An
// error or hang-up counts as ready: the next IO call reports it.
bool wait_ready(int fd, short events, Deadline deadline) {
  while (true) {
    int ms = -1;
    if (deadline != Deadline::max()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return false;
      ms = static_cast<int>(std::min<std::int64_t>(left, INT_MAX));
    }
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return true;
    CLEAR_CHECK_MSG(rc == 0 || errno == EINTR,
                    "poll failed: " << std::strerror(errno));
  }
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  CLEAR_CHECK_MSG(colon != std::string::npos && colon > 0 &&
                      colon + 1 < spec.size(),
                  "endpoint '" << spec << "' is not HOST:PORT");
  Endpoint endpoint;
  endpoint.host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  std::uint64_t port = 0;
  for (const char c : port_str) {
    CLEAR_CHECK_MSG(c >= '0' && c <= '9', "endpoint '" << spec
                                                       << "' has a non-numeric "
                                                          "port");
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    CLEAR_CHECK_MSG(port <= 65535, "endpoint '" << spec
                                                << "' port exceeds 65535");
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

int listen_tcp(const Endpoint& endpoint, int backlog) {
  const sockaddr_in addr = resolve(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLEAR_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    CLEAR_CHECK_MSG(false, "bind(" << endpoint.host << ":" << endpoint.port
                                   << ") failed: " << std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    CLEAR_CHECK_MSG(false, "listen(" << endpoint.host << ":" << endpoint.port
                                     << ") failed: " << std::strerror(err));
  }
  set_nonblocking(fd, true);
  return fd;
}

int connect_tcp(const Endpoint& endpoint, int timeout_ms) {
  const sockaddr_in addr = resolve(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLEAR_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  // Nonblocking connect + poll: the only portable way to put a deadline on
  // connection establishment.
  set_nonblocking(fd, true);
  int err = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    err = errno;
    if (err == EINPROGRESS || err == EINTR) {
      if (!wait_ready(fd, POLLOUT, deadline_in(timeout_ms))) {
        ::close(fd);
        CLEAR_CHECK_MSG(false, "net.timeout: connect(" << endpoint.host << ":"
                                                       << endpoint.port
                                                       << ") timed out after "
                                                       << timeout_ms << "ms");
      }
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    }
  }
  if (err != 0) {
    ::close(fd);
    CLEAR_CHECK_MSG(false, "connect(" << endpoint.host << ":" << endpoint.port
                                      << ") failed: " << std::strerror(err));
  }
  set_nonblocking(fd, false);
  // Loopback batches of small frames: without TCP_NODELAY, Nagle adds
  // 40ms-class stalls that would swamp the latency histograms.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  CLEAR_CHECK_MSG(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname failed: " << std::strerror(errno));
  return ntohs(addr.sin_port);
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CLEAR_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed: "
                                  << std::strerror(errno));
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  CLEAR_CHECK_MSG(::fcntl(fd, F_SETFL, next) == 0,
                  "fcntl(F_SETFL) failed: " << std::strerror(errno));
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

bool FaultedStream::drop_guard() {
  if (fd_ < 0) return true;
  if (!fault::net_drop_fires(stream_id_)) return false;
  // Sever like a dying peer: abort the connection (RST, not orderly FIN) so
  // the other side sees a hard close, then report closed to our caller.
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
  dropped_ = true;
  return true;
}

IoResult FaultedStream::read_some(void* buf, std::size_t n) {
  IoResult result;
  ++ops_;
  if (drop_guard()) {
    result.closed = true;
    return result;
  }
  ssize_t rc;
  do {
    rc = ::recv(fd_, buf, n, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc > 0)
    result.n = static_cast<std::size_t>(rc);
  else  // EOF, or ECONNRESET and friends: gone. EAGAIN leaves both unset.
    result.closed = rc == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  return result;
}

IoResult FaultedStream::write_some(const void* buf, std::size_t n) {
  IoResult result;
  ++ops_;
  if (drop_guard()) {
    result.closed = true;
    return result;
  }
  const std::size_t cap = fault::net_write_cap(stream_id_, ops_);
  const std::size_t attempt = std::min(n, cap);
  if (attempt == 0) return result;
  ssize_t rc;
  do {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    rc = ::send(fd_, buf, attempt, MSG_NOSIGNAL);
  } while (rc < 0 && errno == EINTR);
  if (rc >= 0)
    result.n = static_cast<std::size_t>(rc);
  else  // EPIPE / ECONNRESET: peer is gone. EAGAIN leaves both unset.
    result.closed = errno != EAGAIN && errno != EWOULDBLOCK;
  return result;
}

void FaultedStream::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Deadline deadline_in(int ms) {
  if (ms <= 0) return Deadline::max();
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

Conn::Conn(int fd, std::uint64_t stream_id) : stream_(fd, stream_id) {
  set_nonblocking(fd, true);
}

IoResult Conn::read_available() {
  char buf[kReadChunk];
  IoResult total;
  while (total.n < kReadBudget) {
    const IoResult r = stream_.read_some(buf, sizeof(buf));
    if (r.n == 0) {
      total.closed = r.closed;
      break;
    }
    decoder_.feed(buf, r.n);
    total.n += r.n;
  }
  return total;
}

IoResult Conn::flush() {
  IoResult total;
  while (pending()) {
    const IoResult r = stream_.write_some(out_.data() + outpos_,
                                          out_.size() - outpos_);
    if (r.closed) {
      total.closed = true;
      out_.clear();
      outpos_ = 0;
      return total;
    }
    if (r.n == 0) break;  // Would block: wait for writability.
    outpos_ += r.n;
    total.n += r.n;
  }
  // The one compaction rule: reset an empty queue; drop the sent prefix
  // once it is more than half the buffer, so a slow reader costs amortized
  // O(1) per byte instead of a memmove per flush.
  if (!pending()) {
    out_.clear();
    outpos_ = 0;
  } else if (outpos_ > out_.size() / 2) {
    out_.erase(0, outpos_);
    outpos_ = 0;
  }
  return total;
}

Conn::Status Conn::write_all(Deadline deadline) {
  while (true) {
    if (flush().closed) return Status::kClosed;
    if (!pending()) return Status::kOk;
    if (!wait_ready(fd(), POLLOUT, deadline)) return Status::kTimeout;
  }
}

Conn::Status Conn::next_frame(Frame& out, Deadline deadline) {
  bool closed = !open();
  while (true) {
    const DecodeStatus status = decoder_.next(out);
    if (status == DecodeStatus::kFrame) return Status::kOk;
    if (status != DecodeStatus::kNeedMore) return Status::kError;
    if (closed) return Status::kClosed;
    if (!wait_ready(fd(), POLLIN, deadline)) return Status::kTimeout;
    closed = read_available().closed;
  }
}

Listener::Listener(const Endpoint& endpoint, std::size_t max_connections)
    : max_connections_(max_connections) {
  fd_ = listen_tcp(endpoint);
  port_ = local_port(fd_);
  if (::pipe(wake_) != 0) {
    const int err = errno;
    close_fd(fd_);
    CLEAR_CHECK_MSG(false, "pipe failed: " << std::strerror(err));
  }
  // Both ends nonblocking: stop() must never block (a full pipe already
  // holds a wake byte), and clear_wake() reads until empty.
  set_nonblocking(wake_[0], true);
  set_nonblocking(wake_[1], true);
}

Listener::~Listener() {
  close_fd(fd_);
  close_fd(wake_[0]);
  close_fd(wake_[1]);
}

void Listener::write_port_file(const std::string& path) const {
  if (!path.empty())
    write_file_atomic(path, std::to_string(port_) + "\n", nullptr);
}

void Listener::stop() {
  const char b = 's';
  [[maybe_unused]] const ssize_t rc = ::write(wake_[1], &b, 1);
}

void Listener::clear_wake() {
  char buf[64];
  while (::read(wake_[0], buf, sizeof(buf)) > 0) {
  }
}

Listener::Accepted Listener::accept_ready(std::size_t live) {
  Accepted out;
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK)
        CLEAR_WARN("net: accept failed: " << std::strerror(errno));
      return out;
    }
    if (live + out.fds.size() >= max_connections_) {
      // Refuse at the door: an immediate close is an unambiguous signal,
      // and cheaper than parsing frames we would shed anyway.
      ++out.rejected;
      CLEAR_OBS_COUNT("net.rejected", 1);
      ::close(fd);
      continue;
    }
    out.fds.push_back(fd);
  }
}

}  // namespace clear::net
