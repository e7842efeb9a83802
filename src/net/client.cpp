#include "net/client.hpp"

#include <string>

#include "common/error.hpp"

namespace clear::net {

BlockingClient::BlockingClient(const Endpoint& endpoint,
                               std::uint64_t stream_id,
                               ClientDeadlines deadlines)
    : conn_(connect_tcp(endpoint, deadlines.connect_ms), stream_id),
      deadlines_(deadlines) {}

void BlockingClient::send_bytes(const void* data, std::size_t n) {
  // Ceiling on waiting for a stalled fd to drain; a peer that stays
  // unwritable this long is a harness bug, not backpressure. An explicit
  // io deadline overrides it.
  constexpr int kWriteStallMs = 10000;
  const int wait_ms = deadlines_.io_ms > 0 ? deadlines_.io_ms : kWriteStallMs;
  conn_.queue({static_cast<const char*>(data), n});
  // kClosed is not an error here: the peer (or the drop fault) severed us
  // mid-send, and the next recv reports it.
  CLEAR_CHECK_MSG(conn_.write_all(deadline_in(wait_ms)) !=
                      Conn::Status::kTimeout,
                  "net.timeout: send stalled (fd not writable after "
                      << wait_ms << "ms)");
}

void BlockingClient::send_request(const WireRequest& request) {
  const std::string frame = encode_request(request);
  send_bytes(frame.data(), frame.size());
}

void BlockingClient::send_drain() {
  const std::string frame = encode_drain();
  send_bytes(frame.data(), frame.size());
}

void BlockingClient::send_shutdown() {
  const std::string frame = encode_shutdown();
  send_bytes(frame.data(), frame.size());
}

bool BlockingClient::recv_frame(Frame& out) {
  switch (conn_.next_frame(out, deadline_in(deadlines_.io_ms))) {
    case Conn::Status::kOk:
      return true;
    case Conn::Status::kClosed:
      return false;
    case Conn::Status::kTimeout:
      throw Error("net.timeout: no frame received within " +
                  std::to_string(deadlines_.io_ms) + "ms");
    case Conn::Status::kError:
      break;
  }
  throw Error("client received a malformed frame: " + conn_.decoder().error());
}

bool BlockingClient::recv_response(WireResponse& out) {
  Frame frame;
  if (!recv_frame(frame)) return false;
  CLEAR_CHECK_MSG(frame.type == FrameType::kResponse,
                  "expected a response frame, got "
                      << frame_type_name(frame.type));
  std::string error;
  CLEAR_CHECK_MSG(parse_response(frame, out, error),
                  "bad response payload: " << error);
  return true;
}

bool BlockingClient::recv_drain_ack(WireDrainAck& out) {
  Frame frame;
  while (true) {
    if (!recv_frame(frame)) return false;
    // Responses may still be in flight ahead of the ack; skip past them.
    if (frame.type == FrameType::kResponse) continue;
    CLEAR_CHECK_MSG(frame.type == FrameType::kDrainAck,
                    "expected a drain ack, got "
                        << frame_type_name(frame.type));
    std::string error;
    CLEAR_CHECK_MSG(parse_drain_ack(frame, out, error),
                    "bad drain ack payload: " << error);
    return true;
  }
}

}  // namespace clear::net
