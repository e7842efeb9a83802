// BlockingClient: a simple synchronous peer for the wire protocol.
//
// Used by tests, the loopback harness, and the CLI's client paths. IO goes
// through a Conn (src/net/socket), so the deterministic network-fault knobs
// apply to client traffic too — a test can arm a drop and watch its own
// connection die mid-frame. Decode errors on received frames throw clear::Error
// (a *client* receiving garbage from our own server is a bug, not an input);
// adversarial decoding is exercised directly on FrameDecoder in the tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace clear::net {

/// Deadlines for the client's blocking operations. 0 means no deadline
/// (block indefinitely — the historical behavior, right for tests that own
/// both ends of the wire). Exceeding a deadline throws clear::Error with an
/// addressed "net.timeout: ..." message, so callers talking to a server
/// that may be dead fail fast instead of hanging.
struct ClientDeadlines {
  int connect_ms = 0;  ///< Connection-establishment deadline.
  int io_ms = 0;       ///< Per-operation send/recv progress deadline.
};

class BlockingClient {
 public:
  /// Connects immediately (throws clear::Error on failure, including a
  /// connect deadline miss). `stream_id` keys this connection's fault
  /// decisions.
  explicit BlockingClient(const Endpoint& endpoint,
                          std::uint64_t stream_id = 1,
                          ClientDeadlines deadlines = {});

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  void send_request(const WireRequest& request);
  void send_drain();
  void send_shutdown();
  /// Raw bytes, unframed — for adversarial wire tests.
  void send_bytes(const void* data, std::size_t n);

  /// Block until the next complete frame. False on connection close;
  /// throws the addressed net.timeout error when no frame completes within
  /// io_ms.
  bool recv_frame(Frame& out);
  /// Convenience: next frame must be a kResponse / kDrainAck.
  bool recv_response(WireResponse& out);
  bool recv_drain_ack(WireDrainAck& out);

  void close() { conn_.close(); }
  bool open() const { return conn_.open(); }
  /// True when the armed net-drop fault severed this client's connection.
  bool dropped() const { return conn_.dropped(); }

 private:
  Conn conn_;
  ClientDeadlines deadlines_;
};

}  // namespace clear::net
