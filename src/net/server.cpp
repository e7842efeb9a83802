#include "net/server.hpp"

#include <sys/epoll.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "serve/journal.hpp"

namespace clear::net {

namespace {

// epoll user-data ids for the two non-connection fds.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = ~0ull;

}  // namespace

NetServer::NetServer(serve::Server& server, NetServerConfig config)
    : server_(server),
      config_(std::move(config)),
      listener_(config_.listen, config_.max_connections) {
  epoll_fd_ = ::epoll_create1(0);
  CLEAR_CHECK_MSG(epoll_fd_ >= 0,
                  "epoll_create1 failed: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  CLEAR_CHECK_MSG(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) == 0,
      "epoll_ctl(listen) failed: " << std::strerror(errno));
  ev.data.u64 = kWakeId;
  CLEAR_CHECK_MSG(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.wake_fd(), &ev) == 0,
      "epoll_ctl(wake) failed: " << std::strerror(errno));

  listener_.write_port_file(config_.port_file);
  CLEAR_INFO("net: listening on " << config_.listen.host << ":" << port());
}

NetServer::~NetServer() { close_fd(epoll_fd_); }

void NetServer::stop() { listener_.stop(); }

void NetServer::run() {
  CLEAR_OBS_SPAN("net.run");
  std::vector<epoll_event> events(64);
  while (true) {
    graveyard_.clear();
    // Drain-on-shutdown: once stopping, stay in the loop only to flush
    // write queues; exit when every connection's queue is empty.
    if (stopping_) {
      bool pending = false;
      for (auto& [id, conn] : connections_)
        pending = pending || conn->io.pending();
      if (!pending) break;
    }
    int timeout_ms = -1;
    if (stopping_)
      timeout_ms = 100;
    else if (config_.idle_flush_ms > 0 && server_.in_flight() > 0)
      timeout_ms = static_cast<int>(config_.idle_flush_ms);
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      CLEAR_CHECK_MSG(false, "epoll_wait failed: " << std::strerror(errno));
    }
    if (n == 0) {
      if (stopping_) break;  // Peers never drained us; give up.
      if (server_.in_flight() > 0) {
        // Idle flush: the wire went quiet mid-batch — release the tail.
        CLEAR_OBS_COUNT("net.idle_flushes", 1);
        server_.drain();
        dispatch_results();
      }
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      const std::uint32_t mask = events[i].events;
      if (id == kWakeId) {
        listener_.clear_wake();
        begin_shutdown();
        continue;
      }
      if (id == kListenId) {
        if (!stopping_) accept_ready();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Closed earlier this wake.
      // A hang-up or error is a reason to read, never to close unread.
      if (mask & (EPOLLIN | EPOLLHUP | EPOLLERR))
        handle_readable(*it->second);
      // Re-check: handle_readable may have closed the connection.
      auto again = connections_.find(id);
      if (again == connections_.end()) continue;
      if (mask & EPOLLOUT) flush(*again->second);
    }
  }
}

void NetServer::accept_ready() {
  const Listener::Accepted accepted =
      listener_.accept_ready(connections_.size());
  counters_.rejected += accepted.rejected;
  for (const int fd : accepted.fds) {
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->io = Conn(fd, id);
    conn->id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CLEAR_WARN("net: epoll_ctl(add conn) failed: " << std::strerror(errno));
      continue;
    }
    connections_.emplace(id, std::move(conn));
    ++counters_.accepted;
    CLEAR_OBS_COUNT("net.accepted", 1);
    CLEAR_OBS_GAUGE("net.connections", static_cast<double>(connections_.size()));
  }
}

void NetServer::handle_readable(Connection& conn) {
  const IoResult r = conn.io.read_available();
  if (r.n > 0) {
    counters_.bytes_in += r.n;
    CLEAR_OBS_COUNT("net.bytes_in", static_cast<double>(r.n));
  }
  if (!pump_frames(conn)) {
    close_connection(conn.id, "framing error");
    return;
  }
  if (!r.closed) return;
  // Peer is gone (EOF, reset, or injected drop). Bytes buffered past the
  // last complete frame mean it died mid-request: that request is shed at
  // the wire — count it with the serve layer's sheds so operators see one
  // total, plus the net-level counter that says *why*.
  const FrameDecoder& decoder = conn.io.decoder();
  if (decoder.buffered() > 0) {
    ++counters_.partial_drops;
    CLEAR_OBS_COUNT("net.partial_drops", 1);
    CLEAR_OBS_COUNT("serve.shed", 1);
    CLEAR_WARN("net: connection " << conn.id << " dropped mid-frame ("
                                  << decoder.buffered() << " bytes past frame "
                                  << decoder.frames_decoded() << ")");
  }
  close_connection(conn.id, "peer closed");
}

bool NetServer::pump_frames(Connection& conn) {
  Frame frame;
  FrameDecoder& decoder = conn.io.decoder();
  while (true) {
    const DecodeStatus status = decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) return true;
    if (status != DecodeStatus::kFrame) {
      ++counters_.decode_errors;
      CLEAR_OBS_COUNT("net.decode_errors", 1);
      CLEAR_WARN("net: connection " << conn.id << ": " << decoder.error());
      return false;
    }
    ++counters_.frames_in;
    CLEAR_OBS_COUNT("net.frames_in", 1);
    switch (frame.type) {
      case FrameType::kRequest:
        if (!on_request(conn, frame)) return false;
        break;
      case FrameType::kDrain:
        server_.drain();
        dispatch_results();
        send_frame(conn, encode_drain_ack(ack_snapshot()));
        break;
      case FrameType::kShutdown:
        begin_shutdown();
        send_frame(conn, encode_drain_ack(ack_snapshot()));
        return true;  // No more reads matter; loop now only flushes.
      case FrameType::kPing: {
        std::uint64_t nonce = 0;
        std::string error;
        if (!parse_ping(frame, nonce, error)) {
          ++counters_.decode_errors;
          CLEAR_OBS_COUNT("net.decode_errors", 1);
          CLEAR_WARN("net: connection " << conn.id << ": bad ping: " << error);
          return false;
        }
        if (fault::shard_drop_heartbeat_fires()) {
          // Injected silence: the coordinator sees a missed beat.
          CLEAR_OBS_COUNT("net.heartbeats.dropped", 1);
          break;
        }
        WirePong pong;
        pong.nonce = nonce;
        pong.sessions = server_.sessions().size();
        send_frame(conn, encode_pong(pong));
        break;
      }
      case FrameType::kExport:
        if (!on_export(conn, frame)) return false;
        break;
      case FrameType::kSessionImage:
        if (!on_import(conn, frame)) return false;
        break;
      case FrameType::kAdopt:
        if (!on_adopt(conn, frame)) return false;
        break;
      case FrameType::kMetricsPull:
        send_frame(conn, encode_metrics_json(obs::metrics_json()));
        break;
      case FrameType::kResponse:
      case FrameType::kDrainAck:
      case FrameType::kPong:
      case FrameType::kImportAck:
      case FrameType::kAdoptAck:
      case FrameType::kMetricsJson:
        ++counters_.decode_errors;
        CLEAR_OBS_COUNT("net.decode_errors", 1);
        CLEAR_WARN("net: connection "
                   << conn.id << ": client sent a server-only frame type "
                   << frame_type_name(frame.type));
        return false;
    }
  }
}

bool NetServer::on_request(Connection& conn, const Frame& frame) {
  WireRequest wire;
  std::string error;
  if (!parse_request(frame, wire, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad request payload: "
                                  << error);
    return false;
  }
  // Geometry gate: the serve layer trusts map dimensions (normalization
  // would throw deep inside submit), so a map that doesn't match the
  // deployed model is a protocol violation, not a sheddable request.
  const auto& model = server_.source().config.model;
  if (wire.map.extent(0) != model.feature_dim ||
      wire.map.extent(1) != model.window_count) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection "
               << conn.id << ": request map is " << wire.map.shape_str()
               << ", model expects [" << model.feature_dim << ", "
               << model.window_count << "]");
    return false;
  }
  serve::ServeRequest request;
  request.user_id = wire.user_id;
  request.request_id = wire.request_id;
  request.quality = wire.quality;
  request.label = wire.label;
  request.map = std::move(wire.map);
  // The serve layer's virtual clock must not run backwards. One connection
  // sending in order never trips this; interleaved connections (or a
  // malicious client) get clamped to the high-water mark — the request is
  // still served, just as if it had arrived "now".
  const std::uint64_t floor_us = server_.last_arrival_us();
  if (wire.arrival_us < floor_us) {
    request.arrival_us = floor_us;
    ++counters_.clamped_arrivals;
    CLEAR_OBS_COUNT("net.clamped_arrivals", 1);
  } else {
    request.arrival_us = wire.arrival_us;
  }
  routes_[{request.user_id, request.request_id}] = conn.id;
  server_.submit(std::move(request));
  dispatch_results();
  return true;
}

bool NetServer::on_export(Connection& conn, const Frame& frame) {
  std::uint64_t user = 0;
  std::string error;
  if (!parse_export(frame, user, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad export: " << error);
    return false;
  }
  // Quiesce first: the user's pending rows must complete (and their
  // responses route) before the session freezes — exporting mid-batch
  // would fork the session's history across shards.
  server_.drain();
  dispatch_results();
  WireSessionImage out;
  out.user_id = user;
  if (std::optional<serve::Server::ExportedSession> exp =
          server_.export_session(user)) {
    out.found = true;
    out.image = serve::encode_session_image(exp->image);
    out.checkpoint = std::move(exp->checkpoint);
  }
  send_frame(conn, encode_session_image(out));
  // Retire only after the image is on (or queued for) the wire: a send
  // failure closes the connection, and the coordinator treats the shard as
  // dead — the session must still be in this shard's journal for adoption.
  if (out.found) server_.retire_session(user);
  return true;
}

bool NetServer::on_import(Connection& conn, const Frame& frame) {
  WireSessionImage wire;
  std::string error;
  if (!parse_session_image(frame, wire, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad session image: "
                                  << error);
    return false;
  }
  WireImportAck ack;
  ack.user_id = wire.user_id;
  if (!wire.found) {
    ack.error = "import frame carries no session (found = false)";
  } else {
    try {
      const serve::SessionImage image =
          serve::decode_session_image(wire.image);
      if (image.user_id != wire.user_id) {
        ack.error = "image user does not match the frame header";
      } else {
        ack.ok = server_.import_session(image, wire.checkpoint);
        if (!ack.ok) ack.error = "import failed (see shard log)";
      }
    } catch (const Error& e) {
      ack.error = e.what();
    }
  }
  send_frame(conn, encode_import_ack(ack));
  return true;
}

bool NetServer::on_adopt(Connection& conn, const Frame& frame) {
  std::string dir;
  std::string error;
  if (!parse_adopt(frame, dir, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad adopt: " << error);
    return false;
  }
  WireAdoptAck ack;
  // Rebuild the dead shard's sessions in a scratch server — recover() is
  // snapshot restore + journal replay + checkpoint re-attach, the exact
  // machinery a restart of the dead shard would run — then move each one
  // over with the same export/import path a live migration uses.
  try {
    serve::ServeConfig scratch_config = server_.config();
    scratch_config.journal.directory = dir;
    serve::Server scratch(server_.source(), std::move(scratch_config));
    const serve::RecoveryReport report = scratch.recover();
    CLEAR_INFO("net: adopting " << report.sessions << " sessions from '"
                                << dir << "' (" << report.personalized
                                << " personalized)");
    std::vector<std::uint64_t> users;
    for (const serve::Session* s : scratch.sessions().sessions())
      users.push_back(s->user_id());
    for (const std::uint64_t user : users) {
      std::optional<serve::Server::ExportedSession> exp =
          scratch.export_session(user);
      if (!exp) continue;
      const bool personal = exp->image.has_personal;
      if (server_.import_session(exp->image, exp->checkpoint)) {
        ++ack.sessions;
        if (personal) ++ack.personalized;
        // The dead directory no longer claims the session; a second adopt
        // of the same directory must not double-import it.
        scratch.retire_session(user);
      } else {
        ++ack.failed;
      }
    }
  } catch (const Error& e) {
    CLEAR_WARN("net: adoption of '" << dir << "' failed: " << e.what());
    ++ack.failed;
  }
  send_frame(conn, encode_adopt_ack(ack));
  return true;
}

void NetServer::begin_shutdown() {
  if (stopping_) return;
  stopping_ = true;
  server_.drain();
  dispatch_results();
  // Graceful-shutdown durability: with the batcher flushed and every
  // session mutation applied, a final compacting snapshot means the next
  // start replays nothing. No-op when journaling is off.
  server_.snapshot_now();
}

void NetServer::dispatch_results() {
  for (serve::ServeResult& result : server_.take_results()) {
    const auto key = std::make_pair(result.user_id, result.request_id);
    const auto route = routes_.find(key);
    std::uint64_t conn_id = 0;
    if (route != routes_.end()) {
      conn_id = route->second;
      routes_.erase(route);
    }
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      // The requester hung up before its result completed. The session
      // state is already updated inside the serve layer (that's the
      // point — a dead wire must not corrupt the session); only the
      // reply is lost.
      ++counters_.dropped_responses;
      CLEAR_OBS_COUNT("net.dropped_responses", 1);
      continue;
    }
    WireResponse wire;
    wire.request_id = result.request_id;
    wire.user_id = result.user_id;
    wire.shed = result.status == serve::ServeResult::Status::kShed;
    wire.predicted = result.predicted;
    wire.fear_probability = result.fear_probability;
    wire.session_state = static_cast<std::uint32_t>(result.session_state);
    wire.degraded = result.degraded;
    wire.route_kind = static_cast<std::uint32_t>(result.route.kind);
    wire.route_id = result.route.id;
    wire.batch_rows = static_cast<std::uint32_t>(result.batch_rows);
    wire.arrival_us = result.arrival_us;
    wire.exec_us = result.exec_us;
    wire.error = result.error;
    send_frame(*it->second, encode_response(wire));
  }
}

void NetServer::send_frame(Connection& conn, const std::string& frame) {
  if (!conn.io.open()) return;
  conn.io.queue(frame);
  ++counters_.frames_out;
  CLEAR_OBS_COUNT("net.frames_out", 1);
  flush(conn);
}

void NetServer::flush(Connection& conn) {
  const IoResult r = conn.io.flush();
  if (r.n > 0) {
    counters_.bytes_out += r.n;
    CLEAR_OBS_COUNT("net.bytes_out", static_cast<double>(r.n));
  }
  if (r.closed) {
    close_connection(conn.id, "peer closed during write");
    return;
  }
  update_write_interest(conn);
}

void NetServer::update_write_interest(Connection& conn) {
  if (!conn.io.open()) return;
  const bool want = conn.io.pending();
  if (want == conn.writable_armed) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.io.fd(), &ev) == 0)
    conn.writable_armed = want;
}

void NetServer::close_connection(std::uint64_t id, const char* why) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.io.open()) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.io.fd(), nullptr);
    conn.io.close();
  }
  CLEAR_DEBUG("net: closing connection " << id << " (" << why << ")");
  graveyard_.push_back(std::move(it->second));
  connections_.erase(it);
  ++counters_.closed;
  CLEAR_OBS_COUNT("net.closed", 1);
  CLEAR_OBS_GAUGE("net.connections", static_cast<double>(connections_.size()));
}

WireDrainAck NetServer::ack_snapshot() const {
  const serve::ServeCounters& c = server_.counters();
  WireDrainAck ack;
  ack.requests = c.requests;
  ack.ok = c.ok;
  ack.shed = c.shed;
  return ack;
}

}  // namespace clear::net
