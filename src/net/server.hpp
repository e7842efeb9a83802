// NetServer: the epoll front end that puts CLEAR-Serve on a wire.
//
// A single-threaded, level-triggered epoll event loop owns every socket.
// Frames arrive on nonblocking connections, are decoded incrementally
// (src/net/protocol), and feed the embedded serve::Server — which keeps its
// virtual-clock determinism: batch release and shedding are driven by the
// arrival timestamps carried *in the frames*, never by wall-clock receive
// times. One connection submitting in order therefore reproduces the
// library-driven serve path bit-for-bit; multiple connections interleave at
// the socket layer, and arrivals that would run the virtual clock backwards
// are clamped to the server's high-water mark (counted, never reordered).
//
// Shutdown is drain-on-shutdown: a kShutdown frame (or stop()) flushes every
// pending batch, delivers every result the wire can still carry, lets the
// write buffers empty, and only then exits the loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"

namespace clear::net {

struct NetServerConfig {
  Endpoint listen;  ///< Port 0 binds an ephemeral port (see port()).
  std::size_t max_connections = 64;
  /// When nonempty, the bound port is written here (a single decimal line)
  /// after listen succeeds — how scripts discover an ephemeral port.
  std::string port_file;
  /// Virtual-time batching is arrival-driven: with no further arrivals (and
  /// no drain frame) the tail of a stream would sit in the batcher forever.
  /// After this many milliseconds of wire silence with requests in flight,
  /// the server drains itself. 0 disables — the deterministic loopback
  /// tests do, so batch composition stays a pure function of the arrival
  /// stream.
  std::uint64_t idle_flush_ms = 50;
};

/// Wire-level counters, deterministic for a deterministic workload (except
/// bytes split across reads, which the kernel decides; byte *totals* are
/// deterministic).
struct NetCounters {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t rejected = 0;  ///< Accepts refused at max_connections.
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t decode_errors = 0;      ///< Framing/payload errors (fatal).
  std::uint64_t partial_drops = 0;      ///< Conn died mid-frame.
  std::uint64_t dropped_responses = 0;  ///< Result outlived its connection.
  std::uint64_t clamped_arrivals = 0;   ///< Arrivals clamped monotonic.
};

class NetServer {
 public:
  /// Binds and listens immediately (so port() is valid before run()).
  /// The serve::Server must outlive the NetServer; the net layer is its
  /// only driver while run() executes.
  NetServer(serve::Server& server, NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  const NetCounters& counters() const { return counters_; }

  /// Run the event loop until a kShutdown frame arrives or stop() is
  /// called. Blocking; call from the thread that owns the server.
  void run();

  /// Thread-safe shutdown request: the loop drains the serve::Server,
  /// flushes write buffers, and exits.
  void stop();

 private:
  struct Connection {
    Conn io;
    std::uint64_t id = 0;
    bool writable_armed = false;  ///< EPOLLOUT interest currently on.
  };

  void accept_ready();
  /// Read, dispatch every complete frame, then close if the peer is gone.
  void handle_readable(Connection& conn);
  /// Decode + dispatch every complete frame buffered on `conn`.
  /// Returns false when the connection must close (framing error).
  bool pump_frames(Connection& conn);
  bool on_request(Connection& conn, const Frame& frame);
  // Shard-coordination handlers (coordinator-driven; see src/shard).
  bool on_export(Connection& conn, const Frame& frame);
  bool on_import(Connection& conn, const Frame& frame);
  bool on_adopt(Connection& conn, const Frame& frame);
  void begin_shutdown();
  /// Pull completed results out of the serve layer and route each to its
  /// connection (or count it dropped).
  void dispatch_results();
  void send_frame(Connection& conn, const std::string& frame);
  void flush(Connection& conn);
  void update_write_interest(Connection& conn);
  void close_connection(std::uint64_t id, const char* why);
  WireDrainAck ack_snapshot() const;

  serve::Server& server_;
  NetServerConfig config_;
  NetCounters counters_;

  Listener listener_;
  int epoll_fd_ = -1;

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  /// Closed connections parked until the next loop iteration, so a close
  /// deep inside flush() cannot free a Connection& still on the stack.
  std::vector<std::unique_ptr<Connection>> graveyard_;
  /// (user_id, request_id) -> connection id, for routing responses.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> routes_;
  bool stopping_ = false;
};

}  // namespace clear::net
