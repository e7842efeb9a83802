// The load generator: one thread, one poll loop, a fixed set of connections
// to a net::NetServer. Each user is pinned to connection user % C, so every
// user's requests reach the server in order.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ledger.hpp"
#include "net/protocol.hpp"
#include "stream.hpp"
#include "wemac/dataset.hpp"

namespace perfbench {

/// kProbe: onboarding users sent after the traffic (see main.cpp).
enum class Phase { kSetup, kOpen, kClosed, kProbe };

/// One request as sent, and what came back.
struct Sent {
  Request request;
  Phase phase = Phase::kOpen;
  std::uint64_t arrival_us = 0;  ///< Virtual arrival carried in the frame.
  std::int64_t due_ns = 0;       ///< When it should have been sent.
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = -1;     ///< -1: never answered.
  int answers = 0;               ///< Responses received for it.
  clear::net::WireResponse response;
};

class Generator {
 public:
  using Clock = std::chrono::steady_clock;

  /// `arrival_base_us` offsets every virtual arrival, so a server that
  /// already saw arrivals (a recovered one) never has to clamp ours.
  Generator(std::uint16_t port, std::size_t connections,
            const Stream& stream, const clear::wemac::WemacDataset& dataset,
            std::uint64_t arrival_base_us, Ledger* ledger);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Nanoseconds since the generator started (the run's traffic clock).
  std::int64_t now_ns() const;

  /// Send `requests` open-loop, each at phase start + due_us, then drain
  /// the server and wait for every answer (or the timeout).
  void open_loop(const std::vector<Request>& requests, Phase phase);

  /// Keep `outstanding` requests in flight per connection for `seconds`,
  /// continuing each user's sequence at `next_k[user]`; then drain.
  void closed_loop(double seconds, std::size_t outstanding,
                   const std::vector<std::uint64_t>& users,
                   std::map<std::uint64_t, std::size_t>& next_k);

  const std::vector<Sent>& sent() const { return sent_; }
  /// Wall span of the closed-loop phase (send of the first request to the
  /// last answer), for its throughput.
  double closed_seconds() const { return closed_seconds_; }
  /// Responses naming a request never sent or already answered.
  std::size_t unexpected() const { return unexpected_; }
  /// Frames the server sent that were not responses or drain acks, or
  /// responses that failed to parse.
  std::size_t bad_frames() const { return bad_frames_; }

 private:
  struct Conn {
    int fd = -1;
    clear::net::FrameDecoder decoder;
    std::string out;
    std::size_t out_pos = 0;
  };

  void send(const Request& request, Phase phase, std::int64_t due_ns);
  void flush(Conn& conn);
  /// Wait up to `timeout_ns` for readable/writable sockets and absorb
  /// every complete response.
  void pump(std::int64_t timeout_ns);
  void on_response(std::size_t conn, const clear::net::Frame& frame);
  /// Drain the server (repeating while answers are missing) until every
  /// request is answered or the timeout passes.
  void settle();

  const Stream& stream_;
  const clear::wemac::WemacDataset& dataset_;
  std::uint64_t arrival_base_us_;
  Ledger* ledger_;
  Clock::time_point origin_;
  std::int64_t ledger_offset_ns_ = 0;  ///< Our clock to the ledger's.
  std::vector<Conn> conns_;
  std::vector<Sent> sent_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< Key -> sent_.
  std::size_t pending_ = 0;  ///< Sent, not yet answered.
  std::size_t unexpected_ = 0;
  std::size_t bad_frames_ = 0;
  double closed_seconds_ = 0.0;
  /// Closed loop only: conn -> what to send when one of its answers lands.
  std::vector<std::size_t> closed_next_;
  bool closed_active_ = false;
  std::int64_t closed_end_ns_ = 0;
  const std::vector<std::vector<std::uint64_t>>* closed_users_ = nullptr;
  std::map<std::uint64_t, std::size_t>* closed_next_k_ = nullptr;
};

}  // namespace perfbench
