#include "wire.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "common/error.hpp"
#include "net/socket.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kSettleTimeoutNs = 30'000'000'000;
constexpr std::int64_t kRedrainNs = 100'000'000;

std::uint64_t key_of(std::uint64_t user, std::uint64_t request_id) {
  return (user << 32) ^ request_id;
}

}  // namespace

Generator::Generator(std::uint16_t port, std::size_t connections,
                     const Stream& stream,
                     const clear::wemac::WemacDataset& dataset,
                     std::uint64_t arrival_base_us, Ledger* ledger)
    : stream_(stream),
      dataset_(dataset),
      arrival_base_us_(arrival_base_us),
      ledger_(ledger),
      origin_(Clock::now()),
      conns_(connections) {
  if (ledger_) ledger_offset_ns_ = ledger_->now_ns() - now_ns();
  clear::net::Endpoint target;
  target.port = port;
  for (Conn& c : conns_) {
    c.fd = clear::net::connect_tcp(target, 5000);
    clear::net::set_nonblocking(c.fd, true);
  }
}

Generator::~Generator() {
  for (Conn& c : conns_) clear::net::close_fd(c.fd);
}

std::int64_t Generator::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Generator::send(const Request& request, Phase phase,
                     std::int64_t due_ns) {
  Conn& conn = conns_[request.user % conns_.size()];
  Sent s;
  s.request = request;
  s.phase = phase;
  s.due_ns = due_ns;
  s.sent_ns = now_ns();
  s.arrival_us = arrival_base_us_ + static_cast<std::uint64_t>(
                                        std::max<std::int64_t>(due_ns, 0) /
                                        1000);
  clear::net::WireRequest wire;
  wire.request_id = request.request_id;
  wire.user_id = request.user;
  wire.arrival_us = s.arrival_us;
  if (request.labelled) wire.label = request.truth;
  wire.map = dataset_.samples()[request.sample].feature_map;
  conn.out += clear::net::encode_request(wire);
  const bool fresh =
      index_.emplace(key_of(request.user, request.request_id), sent_.size())
          .second;
  CLEAR_CHECK_MSG(fresh, "request " << request.request_id << " of user "
                                    << request.user << " generated twice");
  sent_.push_back(std::move(s));
  ++pending_;
}

void Generator::flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CLEAR_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                    "load generator lost its connection to the server");
    break;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
}

void Generator::pump(std::int64_t timeout_ns) {
  for (Conn& c : conns_)
    if (!c.out.empty()) flush(c);
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = POLLIN;
    if (!conns_[i].out.empty()) fds[i].events |= POLLOUT;
  }
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                    static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready <= 0) return;
  char buf[64 * 1024];
  clear::net::Frame frame;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (fds[i].revents & POLLOUT) flush(c);
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      CLEAR_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                      "server closed a load-generator connection");
      break;
    }
    clear::net::DecodeStatus st;
    while ((st = c.decoder.next(frame)) == clear::net::DecodeStatus::kFrame)
      on_response(i, frame);
    CLEAR_CHECK_MSG(st == clear::net::DecodeStatus::kNeedMore,
                    "wire framing error: " << c.decoder.error());
  }
}

void Generator::on_response(std::size_t conn, const clear::net::Frame& frame) {
  if (frame.type == clear::net::FrameType::kDrainAck) return;
  clear::net::WireResponse response;
  std::string error;
  if (frame.type != clear::net::FrameType::kResponse ||
      !clear::net::parse_response(frame, response, error)) {
    ++bad_frames_;
    return;
  }
  const std::int64_t t = now_ns();
  const auto it = index_.find(key_of(response.user_id, response.request_id));
  if (it == index_.end()) {
    ++unexpected_;
    return;
  }
  Sent& s = sent_[it->second];
  if (++s.answers > 1) {
    ++unexpected_;
    return;
  }
  s.recv_ns = t;
  s.response = std::move(response);
  --pending_;
  if (ledger_) {
    const std::int64_t off = ledger_offset_ns_;
    const int span = ledger_->add("wire.request", s.due_ns + off, t + off,
                                  -1, s.request.request_id);
    ledger_->add("gen.late", s.due_ns + off,
                 std::max(s.due_ns, s.sent_ns) + off, span,
                 s.request.request_id);
  }
  // Closed loop: an answer frees a slot on this connection.
  if (closed_active_ && t < closed_end_ns_) {
    const auto& users = (*closed_users_)[conn];
    const std::uint64_t user = users[closed_next_[conn]++ % users.size()];
    const std::size_t k = (*closed_next_k_)[user]++;
    send(stream_.request(user, k, 0, false), Phase::kClosed, now_ns());
  }
}

void Generator::settle() {
  const std::int64_t start = now_ns();
  std::int64_t last_drain = -kRedrainNs;
  while (pending_ > 0) {
    const std::int64_t t = now_ns();
    CLEAR_CHECK_MSG(t - start < kSettleTimeoutNs,
                    pending_ << " requests unanswered after "
                             << kSettleTimeoutNs / 1'000'000'000 << " s");
    // A drain releases the batcher's tail; a request still in a socket
    // buffer when it lands needs another one.
    if (t - last_drain >= kRedrainNs) {
      conns_[0].out += clear::net::encode_drain();
      last_drain = t;
    }
    pump(kRedrainNs / 10);
  }
}

void Generator::open_loop(const std::vector<Request>& requests, Phase phase) {
  const std::int64_t phase_start = now_ns();
  std::size_t next = 0;
  while (next < requests.size()) {
    const std::int64_t t = now_ns();
    while (next < requests.size() &&
           phase_start + static_cast<std::int64_t>(requests[next].due_us) *
                                 1000 <=
               t) {
      send(requests[next], phase,
           phase_start + static_cast<std::int64_t>(requests[next].due_us) *
                             1000);
      ++next;
    }
    if (next == requests.size()) break;
    const std::int64_t due =
        phase_start + static_cast<std::int64_t>(requests[next].due_us) * 1000;
    pump(due - now_ns());
  }
  settle();
}

void Generator::closed_loop(double seconds, std::size_t outstanding,
                            const std::vector<std::uint64_t>& users,
                            std::map<std::uint64_t, std::size_t>& next_k) {
  std::vector<std::vector<std::uint64_t>> by_conn(conns_.size());
  for (const std::uint64_t u : users) by_conn[u % conns_.size()].push_back(u);
  closed_users_ = &by_conn;
  closed_next_k_ = &next_k;
  closed_next_.assign(conns_.size(), 0);
  const std::int64_t start = now_ns();
  closed_end_ns_ = start + static_cast<std::int64_t>(seconds * 1e9);
  closed_active_ = true;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (by_conn[c].empty()) continue;
    for (std::size_t i = 0; i < outstanding; ++i) {
      const std::uint64_t user =
          by_conn[c][closed_next_[c]++ % by_conn[c].size()];
      send(stream_.request(user, next_k[user]++, 0, false), Phase::kClosed,
           now_ns());
    }
  }
  while (now_ns() < closed_end_ns_) pump(closed_end_ns_ - now_ns());
  closed_active_ = false;
  settle();
  std::int64_t last = start;
  for (const Sent& s : sent_)
    if (s.phase == Phase::kClosed) last = std::max(last, s.recv_ns);
  closed_seconds_ = static_cast<double>(last - start) / 1e9;
  closed_users_ = nullptr;
  closed_next_k_ = nullptr;
}

}  // namespace perfbench
