// Thin POSIX TCP helpers for the net layer, and the one connection core
// every wire peer is built on.
//
// Every byte the net layer moves goes through FaultedStream, whose
// read/write ops consult the deterministic network-fault knobs in
// src/common/fault: the short-write spec caps a send at a few bytes
// (forcing callers through their partial-write / backpressure paths), and
// the armed drop countdown severs the connection mid-operation (simulating
// a peer dying mid-request). With the knobs disarmed the guards are two
// branch instructions per syscall.
//
// Conn and Listener sit on top: NetServer (epoll), the fleet Coordinator
// (poll), loadgen and BlockingClient all read, buffer, flush, wait and
// accept through them, so each of those operations exists once.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

namespace clear::net {

/// "HOST:PORT" split into its parts. Port 0 asks the kernel for an
/// ephemeral port when listening.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse "HOST:PORT" (throws clear::Error with the offending spec).
Endpoint parse_endpoint(const std::string& spec);

/// Create a nonblocking listening socket bound to the endpoint
/// (SO_REUSEADDR set). Throws clear::Error on failure.
int listen_tcp(const Endpoint& endpoint, int backlog = 64);

/// TCP connect with a deadline: a connection not established within
/// `timeout_ms` throws an addressed "net.timeout" clear::Error instead of
/// blocking in the kernel; `timeout_ms <= 0` means no deadline. Any other
/// failure throws clear::Error too. The returned fd is blocking.
int connect_tcp(const Endpoint& endpoint, int timeout_ms = 0);

/// The port a bound socket actually landed on (resolves port 0).
std::uint16_t local_port(int fd);

void set_nonblocking(int fd, bool on);
void close_fd(int fd);

/// One IO operation's outcome. Neither bytes moved nor closed means the
/// nonblocking fd would block.
struct IoResult {
  std::size_t n = 0;          ///< Bytes moved.
  bool closed = false;        ///< Peer EOF, hard error, or injected drop.
};

/// A socket whose IO is guarded by the deterministic network-fault knobs.
/// Owns its fd (move-only; the destructor closes it). An injected drop
/// closes it immediately — after that every op reports closed, exactly
/// like a real dead peer.
class FaultedStream {
 public:
  FaultedStream() = default;
  FaultedStream(int fd, std::uint64_t stream_id)
      : fd_(fd), stream_id_(stream_id) {}
  FaultedStream(FaultedStream&& other) noexcept { *this = std::move(other); }
  FaultedStream& operator=(FaultedStream&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
      stream_id_ = other.stream_id_;
      ops_ = other.ops_;
      dropped_ = other.dropped_;
    }
    return *this;
  }
  ~FaultedStream() { close(); }

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  /// True when the armed drop countdown fired on this stream.
  bool dropped() const { return dropped_; }

  IoResult read_some(void* buf, std::size_t n);
  IoResult write_some(const void* buf, std::size_t n);
  void close();

 private:
  /// Consult the drop knob before a syscall; severs the connection when it
  /// fires.
  bool drop_guard();

  int fd_ = -1;
  std::uint64_t stream_id_ = 0;
  std::uint64_t ops_ = 0;  ///< Guarded-op index (read and write share it).
  bool dropped_ = false;
};

/// When a blocking Conn operation gives up. Deadline::max() never passes.
using Deadline = std::chrono::steady_clock::time_point;
/// `ms` milliseconds from now; `ms <= 0` means no deadline.
Deadline deadline_in(int ms);

/// One framed peer connection: a nonblocking FaultedStream, the
/// FrameDecoder fed from it and a write buffer. Four operations move its
/// bytes, and they are the only socket reads and writes in src/net and
/// src/shard outside FaultedStream: read_available() fills the decoder,
/// queue() + flush() send without blocking, write_all() sends with a
/// deadline, next_frame() waits for a frame with a deadline.
///
/// The hang-up rule, the same for every peer: a hang-up or error event
/// (EPOLLHUP, POLLERR, ...) only means "read now". A caller closes when
/// read_available() reports the peer gone, and only after dispatching every
/// complete frame the decoder holds — a kShutdown that arrives just ahead
/// of the peer's RST is still obeyed.
class Conn {
 public:
  enum class Status { kOk, kClosed, kTimeout, kError };

  Conn() = default;
  /// Owns `fd` and makes it nonblocking; `stream_id` keys its fault
  /// decisions.
  Conn(int fd, std::uint64_t stream_id);

  int fd() const { return stream_.fd(); }
  bool open() const { return stream_.open(); }
  bool dropped() const { return stream_.dropped(); }
  FrameDecoder& decoder() { return decoder_; }
  /// Queued bytes the socket has not taken yet.
  bool pending() const { return outpos_ < out_.size(); }

  /// Read what the socket holds into the decoder: until it would block,
  /// the peer is gone, or 1 MiB has been read (level-triggered loops come
  /// back for the rest). `n` is the bytes read; `closed` means EOF, a reset
  /// or an injected drop.
  IoResult read_available();

  void queue(std::string_view bytes) { out_.append(bytes); }
  /// Send queued bytes until the socket would block. `n` is the bytes sent;
  /// `closed` means the peer is gone (the queue is discarded).
  IoResult flush();
  /// Send every queued byte, waiting for writability until `deadline`:
  /// kOk, kClosed or kTimeout.
  Status write_all(Deadline deadline);
  /// The next complete frame, reading as needed until `deadline`. kOk fills
  /// `out`; kClosed once the peer is gone and no complete frame is left;
  /// kTimeout; kError on a framing error (decoder().error() says which).
  Status next_frame(Frame& out, Deadline deadline);

  void close() { stream_.close(); }

 private:
  FaultedStream stream_;
  FrameDecoder decoder_;
  std::string out_;
  std::size_t outpos_ = 0;  ///< Sent prefix of out_.
};

/// A nonblocking listening socket, the self-pipe that wakes its owner's
/// event loop, and the one connection-cap policy: over the cap a
/// connection is accepted and closed at once (counted in `net.rejected`),
/// so the peer reads EOF instead of waiting in the backlog.
class Listener {
 public:
  /// Binds and listens immediately, so port() is valid. Throws
  /// clear::Error on failure.
  Listener(const Endpoint& endpoint, std::size_t max_connections);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }
  /// Turns readable after stop(); the loop then calls clear_wake().
  int wake_fd() const { return wake_[0]; }

  /// Write the bound port (one decimal line) to `path` through the atomic
  /// file writer: a script polling for the file never reads half of it.
  /// An empty path writes nothing.
  void write_port_file(const std::string& path) const;
  /// Async-signal-safe: one byte through the self-pipe.
  void stop();
  void clear_wake();

  struct Accepted {
    std::vector<int> fds;  ///< Admitted connections; the caller owns them.
    std::size_t rejected = 0;
  };
  /// Accept every pending connection. One is admitted while `live` plus
  /// those admitted so far stay below the cap; the rest are refused.
  Accepted accept_ready(std::size_t live);

 private:
  std::size_t max_connections_;
  int fd_ = -1;
  int wake_[2] = {-1, -1};
  std::uint16_t port_ = 0;
};

}  // namespace clear::net
