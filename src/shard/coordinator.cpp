#include "shard/coordinator.hpp"

#include <errno.h>
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"

namespace clear::shard {
namespace {

using Clock = std::chrono::steady_clock;

int ms_until(Clock::time_point deadline) {
  const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(0, delta.count()));
}

/// Distinct FaultedStream id namespaces so the deterministic network-fault
/// specs can target coordinator-side shard channels vs client connections.
constexpr std::uint64_t kShardStreamBase = 0x53480000;   // "SH"
constexpr std::uint64_t kClientStreamBase = 0x434F0000;  // "CO"

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      ring_(config_.ring),
      listener_(config_.listen, config_.max_connections) {
  CLEAR_CHECK_MSG(!config_.shards.empty(),
                  "coordinator needs at least one shard");
  shards_.resize(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    Shard& shard = shards_[i];
    shard.index = i;
    shard.spec = config_.shards[i];
    shard.io = net::Conn(
        net::connect_tcp(shard.spec.endpoint, config_.connect_timeout_ms),
        kShardStreamBase + i);
    shard.alive = true;
    ring_.add_shard(static_cast<std::uint32_t>(i));
  }
  CLEAR_OBS_GAUGE("coord.shards", static_cast<double>(shards_.size()));

  // Only now, with every shard reached, does the port file say "ready".
  listener_.write_port_file(config_.port_file);
  CLEAR_INFO("coordinator listening on port " << port() << " with "
                                              << shards_.size() << " shards");
}

void Coordinator::stop() { listener_.stop(); }

void Coordinator::run() {
  const bool beats = config_.heartbeat_ms > 0;
  auto next_beat =
      Clock::now() + std::chrono::milliseconds(config_.heartbeat_ms);
  while (!stopping_) {
    graveyard_.clear();
    // Drain-acked decommissions migrate from the top of the loop, never
    // from inside a nested frame dispatch.
    for (Shard& shard : shards_)
      if (shard.alive && shard.draining && shard.drain_acked)
        finish_decommission(shard);
    if (stopping_) break;

    struct Tag {
      int kind;  // 0 wake, 1 listen, 2 shard, 3 client
      std::uint64_t key;
    };
    std::vector<pollfd> fds;
    std::vector<Tag> tags;
    fds.push_back({listener_.wake_fd(), POLLIN, 0});
    tags.push_back({0, 0});
    // Always polled: over the cap, accept_ready() refuses at the door.
    fds.push_back({listener_.fd(), POLLIN, 0});
    tags.push_back({1, 0});
    for (Shard& shard : shards_) {
      if (!shard.alive || !shard.io.open()) continue;
      fds.push_back({shard.io.fd(), POLLIN, 0});
      tags.push_back({2, shard.index});
    }
    for (auto& [id, client] : clients_) {
      short events = POLLIN;
      if (client->io.pending()) events |= POLLOUT;
      fds.push_back({client->io.fd(), events, 0});
      tags.push_back({3, id});
    }

    const int timeout = beats ? ms_until(next_beat) : -1;
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("coordinator: poll: ") + std::strerror(errno));
    }
    if (beats && Clock::now() >= next_beat) {
      heartbeat_tick();
      next_beat =
          Clock::now() + std::chrono::milliseconds(config_.heartbeat_ms);
    }
    for (std::size_t i = 0; i < fds.size() && !stopping_; ++i) {
      if (fds[i].revents == 0) continue;
      switch (tags[i].kind) {
        case 0: {
          listener_.clear_wake();
          if (!stopping_) {
            shutdown_fleet();
            stopping_ = true;
          }
          break;
        }
        case 1:
          accept_ready();
          break;
        case 2: {
          Shard& shard = shards_[tags[i].key];
          if (shard.alive) handle_shard_readable(shard);
          break;
        }
        case 3: {
          const auto it = clients_.find(tags[i].key);
          if (it == clients_.end()) break;  // closed earlier this iteration
          // A hang-up or error is a reason to read, never to close unread.
          if (fds[i].revents & ~POLLOUT) handle_client_readable(*it->second);
          const auto again = clients_.find(tags[i].key);
          if (again == clients_.end()) break;
          if (fds[i].revents & POLLOUT) flush_client(*again->second);
          break;
        }
      }
    }
  }
  graveyard_.clear();
}

// -- Clients ------------------------------------------------------------------

void Coordinator::accept_ready() {
  const net::Listener::Accepted accepted =
      listener_.accept_ready(clients_.size());
  counters_.rejected += accepted.rejected;
  for (const int fd : accepted.fds) {
    auto client = std::make_unique<Client>();
    client->id = next_client_id_++;
    client->io = net::Conn(fd, kClientStreamBase + client->id);
    clients_.emplace(client->id, std::move(client));
  }
}

void Coordinator::handle_client_readable(Client& client) {
  const std::uint64_t id = client.id;
  const bool closed = client.io.read_available().closed;
  if (!pump_client_frames(client))
    close_client(id, "protocol error");
  else if (closed)
    close_client(id, "peer closed");
}

bool Coordinator::pump_client_frames(Client& client) {
  net::Frame frame;
  while (true) {
    const net::DecodeStatus status = client.io.decoder().next(frame);
    if (status == net::DecodeStatus::kNeedMore) return true;
    if (status != net::DecodeStatus::kFrame) {
      CLEAR_WARN("coordinator: client " << client.id << ": "
                                        << client.io.decoder().error());
      return false;
    }
    switch (frame.type) {
      case net::FrameType::kRequest:
        if (!on_client_request(client, frame)) return false;
        break;
      case net::FrameType::kDrain:
        on_client_drain(client);
        break;
      case net::FrameType::kShutdown:
        on_client_shutdown(client);
        return true;
      default:
        CLEAR_WARN("coordinator: client " << client.id
                                          << " sent unexpected frame type "
                                          << net::frame_type_name(frame.type));
        return false;
    }
    if (stopping_) return true;
  }
}

bool Coordinator::on_client_request(Client& client, const net::Frame& frame) {
  net::WireRequest request;
  std::string error;
  if (!net::parse_request(frame, request, error)) {
    CLEAR_WARN("coordinator: client " << client.id << ": " << error);
    return false;
  }
  ++counters_.requests;
  CLEAR_OBS_COUNT("coord.requests", 1);

  const std::size_t target = resolve_shard(request.user_id);
  routes_[{request.user_id, request.request_id}] = client.id;
  std::string bytes = net::encode_frame(net::FrameType::kRequest,
                                        frame.payload);

  // A frame may only bypass the queue when no earlier frame of the same
  // user is still queued — per-user order is part of the serving contract.
  bool user_queued = false;
  for (const QueuedFrame& q : queue_)
    if (q.user_id == request.user_id) {
      user_queued = true;
      break;
    }
  Shard& shard = shards_[target];
  if (shard_available(shard) && !user_queued) {
    if (!forward_to_shard(shard, bytes)) {
      // The shard died under us: queue the frame (it flushes to the
      // adopting survivor or the user's new ring owner), then heal.
      ++counters_.queued;
      CLEAR_OBS_COUNT("coord.queued", 1);
      queue_.push_back({request.user_id, client.id, std::move(bytes)});
      shard_died(shard);
      heal_after_death(shard);
    }
  } else {
    ++counters_.queued;
    CLEAR_OBS_COUNT("coord.queued", 1);
    queue_.push_back({request.user_id, client.id, std::move(bytes)});
  }
  maybe_start_decommission();
  return true;
}

void Coordinator::on_client_drain(Client& client) {
  // Ack immediately from routing counters and forward the drain to each
  // shard asynchronously (their acks are absorbed by on_shard_frame). A
  // synchronous shard round-trip here would delay the ack past the
  // client's last read: a loadgen that closes right after its final
  // response then RSTs the late ack and the close tears down any
  // not-yet-read frames (including a trailing kShutdown) with it. The
  // forwarded drains still flush every shard's batcher, which is what the
  // client is asking for; the authoritative fleet-summed counters arrive
  // with the shutdown acknowledgement.
  net::WireDrainAck total;
  total.requests = counters_.requests;
  total.ok = counters_.responses;
  send_to_client(client, net::encode_drain_ack(total));
  std::vector<std::size_t> died;
  for (Shard& shard : shards_) {
    if (!shard_available(shard)) continue;
    if (!send_to_shard(shard, net::encode_drain())) died.push_back(shard.index);
  }
  for (const std::size_t index : died) {
    shard_died(shards_[index]);
    heal_after_death(shards_[index]);
  }
}

void Coordinator::on_client_shutdown(Client& client) {
  const net::WireDrainAck total = shutdown_fleet();
  // Blocking flush: the ack (and any responses freed by the final drain)
  // must reach the wire before the process exits.
  client.io.queue(net::encode_drain_ack(total));
  client.io.write_all(net::deadline_in(config_.shard_io_timeout_ms));
  stopping_ = true;
}

// -- Shards -------------------------------------------------------------------

void Coordinator::handle_shard_readable(Shard& shard) {
  const bool closed = shard.io.read_available().closed;
  net::Frame frame;
  net::DecodeStatus status;
  while ((status = shard.io.decoder().next(frame)) ==
         net::DecodeStatus::kFrame) {
    on_shard_frame(shard, frame);
  }
  if (status != net::DecodeStatus::kNeedMore)
    CLEAR_WARN("coordinator: shard " << shard.index << ": "
                                     << shard.io.decoder().error());
  else if (!closed)
    return;
  shard_died(shard);
  heal_after_death(shard);
}

void Coordinator::on_shard_frame(Shard& shard, const net::Frame& frame) {
  std::string error;
  switch (frame.type) {
    case net::FrameType::kResponse:
      route_response(frame);
      break;
    case net::FrameType::kPong: {
      net::WirePong pong;
      if (!net::parse_pong(frame, pong, error)) {
        CLEAR_WARN("coordinator: shard " << shard.index << ": " << error);
        break;
      }
      if (shard.awaiting_pong && pong.nonce == shard.nonce) {
        shard.awaiting_pong = false;
        shard.misses = 0;
        shard.sessions = pong.sessions;
      }
      break;
    }
    case net::FrameType::kDrainAck:
      // Either the decommission drain (main loop runs the migration once
      // drain_acked flips) or the ack to a forwarded client flush-drain,
      // which needs no action beyond having flushed the shard's batcher.
      if (shard.draining && !shard.drain_acked) shard.drain_acked = true;
      break;
    default:
      CLEAR_WARN("coordinator: shard " << shard.index
                                       << " sent unexpected frame type "
                                       << net::frame_type_name(frame.type));
      break;
  }
}

void Coordinator::route_response(const net::Frame& frame) {
  net::WireResponse response;
  std::string error;
  if (!net::parse_response(frame, response, error)) {
    CLEAR_WARN("coordinator: bad response from shard: " << error);
    return;
  }
  const auto route =
      routes_.find({response.user_id, response.request_id});
  if (route == routes_.end()) {
    CLEAR_WARN("coordinator: unrouted response user=" << response.user_id
                                                      << " req="
                                                      << response.request_id);
    return;
  }
  const std::uint64_t client_id = route->second;
  routes_.erase(route);
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;  // client gone; response dropped
  ++counters_.responses;
  CLEAR_OBS_COUNT("coord.responses", 1);
  send_to_client(*it->second,
                 net::encode_frame(net::FrameType::kResponse, frame.payload));
}

std::size_t Coordinator::resolve_shard(std::uint64_t user_id) {
  const auto it = placement_.find(user_id);
  if (it != placement_.end()) return it->second;
  CLEAR_CHECK_MSG(ring_.size() > 0, "coordinator: no live shards remain");
  const std::size_t owner = ring_.owner(user_id);
  placement_.emplace(user_id, owner);
  shards_[owner].users.insert(user_id);
  CLEAR_OBS_GAUGE("coord.sessions", static_cast<double>(placement_.size()));
  std::printf("coord: placement user=%llu shard=%zu\n",
              static_cast<unsigned long long>(user_id), owner);
  std::fflush(stdout);
  return owner;
}

bool Coordinator::forward_to_shard(Shard& shard, const std::string& frame) {
  if (!send_to_shard(shard, frame)) return false;
  ++counters_.forwarded;
  CLEAR_OBS_COUNT("coord.forwarded", 1);
  return true;
}

void Coordinator::flush_queue() {
  // Healing flushes, and a flush that finds another dead shard heals — the
  // guard keeps the two from re-entering each other mid-drain (a nested
  // flush would race this one for queue_ and drop frames).
  if (flushing_) return;
  flushing_ = true;
  std::deque<QueuedFrame> keep;
  std::vector<std::size_t> died;
  while (!queue_.empty()) {
    QueuedFrame q = std::move(queue_.front());
    queue_.pop_front();
    bool user_kept = false;
    for (const QueuedFrame& k : keep)
      if (k.user_id == q.user_id) {
        user_kept = true;
        break;
      }
    const std::size_t target = resolve_shard(q.user_id);
    Shard& shard = shards_[target];
    if (!user_kept && shard_available(shard)) {
      if (!forward_to_shard(shard, q.frame)) {
        shard_died(shard);
        died.push_back(target);
        keep.push_back(std::move(q));
      }
    } else {
      keep.push_back(std::move(q));
    }
  }
  queue_ = std::move(keep);
  flushing_ = false;
  for (const std::size_t index : died) heal_after_death(shards_[index]);
}

bool Coordinator::send_to_shard(Shard& shard, const std::string& frame) {
  shard.io.queue(frame);
  return shard.io.write_all(net::deadline_in(config_.shard_io_timeout_ms)) ==
         net::Conn::Status::kOk;
}

std::optional<net::Frame> Coordinator::transact(Shard& shard,
                                                const std::string& frame,
                                                net::FrameType expect) {
  if (!shard.alive) return std::nullopt;
  if (!send_to_shard(shard, frame)) {
    shard_died(shard);
    return std::nullopt;
  }
  const net::Deadline deadline =
      net::deadline_in(config_.shard_io_timeout_ms);
  net::Frame got;
  while (true) {
    // Interleaved responses and pongs are dispatched on the way: they must
    // reach their clients either way.
    switch (shard.io.next_frame(got, deadline)) {
      case net::Conn::Status::kOk:
        if (got.type == expect) return got;
        on_shard_frame(shard, got);
        continue;
      case net::Conn::Status::kTimeout:
        CLEAR_WARN("coordinator: shard " << shard.index
                                         << ": timed out waiting for "
                                         << net::frame_type_name(expect));
        break;
      case net::Conn::Status::kError:
        CLEAR_WARN("coordinator: shard " << shard.index << ": "
                                         << shard.io.decoder().error());
        break;
      case net::Conn::Status::kClosed:
        break;
    }
    shard_died(shard);
    return std::nullopt;
  }
}

// -- Liveness and healing -----------------------------------------------------

void Coordinator::heartbeat_tick() {
  for (Shard& shard : shards_) {
    if (!shard.alive || !shard.io.open()) continue;
    if (shard.awaiting_pong) {
      ++shard.misses;
      ++counters_.heartbeats_missed;
      CLEAR_OBS_COUNT("coord.heartbeats.missed", 1);
      if (shard.misses >= config_.missed_limit) {
        CLEAR_WARN("coordinator: shard " << shard.index << " missed "
                                         << shard.misses
                                         << " heartbeats, declaring dead");
        shard_died(shard);
        heal_after_death(shard);
      }
      continue;
    }
    shard.nonce = shard.next_nonce++;
    shard.awaiting_pong = true;
    ++counters_.pings;
    CLEAR_OBS_COUNT("coord.heartbeats", 1);
    if (!send_to_shard(shard, net::encode_ping(shard.nonce))) {
      shard_died(shard);
      heal_after_death(shard);
    }
  }
}

void Coordinator::shard_died(Shard& shard) {
  if (!shard.alive) return;
  shard.alive = false;
  shard.draining = false;
  shard.drain_acked = false;
  shard.awaiting_pong = false;
  shard.io.close();
  if (ring_.contains(static_cast<std::uint32_t>(shard.index)))
    ring_.remove_shard(static_cast<std::uint32_t>(shard.index));
  ++counters_.shard_deaths;
  CLEAR_OBS_COUNT("coord.shard_deaths", 1);
  std::size_t live = 0;
  for (const Shard& s : shards_)
    if (s.alive) ++live;
  CLEAR_OBS_GAUGE("coord.shards", static_cast<double>(live));
}

void Coordinator::heal_after_death(Shard& dead) {
  if (dead.healed) {
    flush_queue();
    return;
  }
  dead.healed = true;
  while (true) {
    Shard* survivor = nullptr;
    for (Shard& s : shards_)
      if (s.alive && s.io.open()) {
        survivor = &s;
        break;
      }
    if (survivor == nullptr)
      throw Error("coordinator: no live shards remain to adopt shard " +
                  std::to_string(dead.index));

    if (dead.spec.journal_dir.empty()) {
      // No journal to adopt: the sessions are lost; users re-pin lazily to
      // their new ring owners and start cold there.
      for (const std::uint64_t user : dead.users) placement_.erase(user);
      dead.users.clear();
      std::printf(
          "coord: healed shard=%zu survivor=%zu sessions=0 personalized=0 "
          "failed=0\n",
          dead.index, survivor->index);
      std::fflush(stdout);
      break;
    }

    const auto reply = transact(*survivor,
                                net::encode_adopt(dead.spec.journal_dir),
                                net::FrameType::kAdoptAck);
    if (!reply) {
      // The survivor died mid-adoption. Its own sessions re-pin lazily (its
      // journal is not chained-adopted — logged so operators know); retry
      // the original adoption on the next survivor.
      CLEAR_WARN("coordinator: survivor shard "
                 << survivor->index << " died during adoption of shard "
                 << dead.index << "; its own sessions re-pin cold");
      for (const std::uint64_t user : survivor->users)
        placement_.erase(user);
      survivor->users.clear();
      survivor->healed = true;
      continue;
    }
    net::WireAdoptAck ack;
    std::string error;
    if (!net::parse_adopt_ack(*reply, ack, error)) {
      CLEAR_WARN("coordinator: shard " << survivor->index << ": " << error);
      shard_died(*survivor);
      for (const std::uint64_t user : survivor->users)
        placement_.erase(user);
      survivor->users.clear();
      survivor->healed = true;
      continue;
    }
    ++counters_.adoptions;
    counters_.adopted_sessions += ack.sessions;
    CLEAR_OBS_COUNT("coord.adoptions", 1);
    CLEAR_OBS_COUNT("coord.adopted_sessions", ack.sessions);
    for (const std::uint64_t user : dead.users) {
      placement_[user] = survivor->index;
      survivor->users.insert(user);
    }
    dead.users.clear();
    std::printf(
        "coord: healed shard=%zu survivor=%zu sessions=%llu personalized=%llu "
        "failed=%llu\n",
        dead.index, survivor->index,
        static_cast<unsigned long long>(ack.sessions),
        static_cast<unsigned long long>(ack.personalized),
        static_cast<unsigned long long>(ack.failed));
    std::fflush(stdout);
    break;
  }
  flush_queue();
}

// -- Planned decommission -----------------------------------------------------

void Coordinator::maybe_start_decommission() {
  if (decommission_started_ || config_.decommission_shard < 0) return;
  if (counters_.requests < config_.decommission_after) return;
  const auto index = static_cast<std::size_t>(config_.decommission_shard);
  CLEAR_CHECK_MSG(index < shards_.size(),
                  "decommission shard " << index << " out of range");
  Shard& shard = shards_[index];
  decommission_started_ = true;
  if (!shard.alive) return;  // already dead and healed
  shard.draining = true;
  // Out of the ring first: users first seen during the drain place onto
  // survivors and never touch the dying shard.
  if (ring_.contains(static_cast<std::uint32_t>(index)))
    ring_.remove_shard(static_cast<std::uint32_t>(index));
  std::printf("coord: decommission shard=%zu draining\n", index);
  std::fflush(stdout);
  if (!send_to_shard(shard, net::encode_drain())) {
    shard_died(shard);
    heal_after_death(shard);
  }
}

void Coordinator::finish_decommission(Shard& shard) {
  shard.drain_acked = false;
  std::uint64_t moved = 0;
  std::uint64_t failed = 0;
  // Copy: migration rewrites shard.users via placement updates.
  const std::vector<std::uint64_t> users(shard.users.begin(),
                                         shard.users.end());
  for (const std::uint64_t user : users) {
    const auto reply = transact(shard, net::encode_export(user),
                                net::FrameType::kSessionImage);
    if (!reply) {
      // The draining shard died mid-migration: the remaining users recover
      // from its journal via the ordinary adoption path.
      heal_after_death(shard);
      return;
    }
    net::WireSessionImage image;
    std::string error;
    if (!net::parse_session_image(*reply, image, error)) {
      CLEAR_WARN("coordinator: shard " << shard.index << ": " << error);
      shard_died(shard);
      heal_after_death(shard);
      return;
    }
    shard.users.erase(user);
    if (!image.found) {
      // Queued-but-never-forwarded user (pinned during the drain window):
      // nothing to move, re-place on flush.
      placement_.erase(user);
      continue;
    }
    // The import frame re-uses the export reply's payload bytes verbatim —
    // the coordinator cannot perturb the image or checkpoint in transit.
    const std::string import_frame =
        net::encode_frame(net::FrameType::kSessionImage, reply->payload);
    CLEAR_CHECK_MSG(ring_.size() > 0, "coordinator: no live shards remain");
    const std::size_t target = ring_.owner(user);
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      const auto ack_frame = transact(shards_[target], import_frame,
                                      net::FrameType::kImportAck);
      if (!ack_frame) break;
      net::WireImportAck ack;
      if (!net::parse_import_ack(*ack_frame, ack, error)) break;
      ok = ack.ok;
      if (!ok && attempt == 0)
        CLEAR_WARN("coordinator: import of user " << user << " on shard "
                                                  << target << " failed ("
                                                  << ack.error
                                                  << "), retrying");
    }
    if (ok) {
      placement_[user] = target;
      shards_[target].users.insert(user);
      ++moved;
      ++counters_.migrations;
      CLEAR_OBS_COUNT("coord.migrations", 1);
      std::printf("coord: migrated user=%llu from=%zu to=%zu\n",
                  static_cast<unsigned long long>(user), shard.index, target);
      std::fflush(stdout);
    } else {
      ++failed;
      ++counters_.migrations_failed;
      CLEAR_OBS_COUNT("coord.migrations_failed", 1);
      placement_.erase(user);
      CLEAR_WARN("coordinator: migration of user "
                 << user << " failed; the session restarts cold");
    }
  }
  // The shard is empty: pull its metrics while it can still answer, then
  // shut it down.
  pull_metrics(shard);
  const auto ack = transact(shard, net::encode_shutdown(),
                            net::FrameType::kDrainAck);
  if (!ack)
    CLEAR_WARN("coordinator: shard " << shard.index
                                     << " did not acknowledge shutdown");
  if (shard.alive) {
    shard.alive = false;
    shard.draining = false;
    shard.io.close();
  }
  decommission_done_ = true;
  std::size_t live = 0;
  for (const Shard& s : shards_)
    if (s.alive) ++live;
  CLEAR_OBS_GAUGE("coord.shards", static_cast<double>(live));
  std::printf("coord: decommissioned shard=%zu migrated=%llu failed=%llu\n",
              shard.index, static_cast<unsigned long long>(moved),
              static_cast<unsigned long long>(failed));
  std::fflush(stdout);
  flush_queue();
}

// -- Shutdown and metrics -----------------------------------------------------

void Coordinator::pull_metrics(Shard& shard) {
  if (!obs::enabled()) return;
  const auto reply = transact(shard, net::encode_metrics_pull(),
                              net::FrameType::kMetricsJson);
  if (!reply) return;
  std::string json;
  std::string error;
  if (!net::parse_metrics_json(*reply, json, error)) {
    CLEAR_WARN("coordinator: shard " << shard.index << ": " << error);
    return;
  }
  try {
    obs::merge_snapshot(obs::with_prefix(obs::parse_snapshot(json), "coord."));
  } catch (const Error& e) {
    CLEAR_WARN("coordinator: shard " << shard.index
                                     << ": metrics merge failed: "
                                     << e.what());
  }
}

net::WireDrainAck Coordinator::shutdown_fleet() {
  net::WireDrainAck total;
  for (Shard& shard : shards_) {
    if (!shard.alive) continue;
    const auto drained =
        transact(shard, net::encode_drain(), net::FrameType::kDrainAck);
    if (!drained) continue;
    net::WireDrainAck ack;
    std::string error;
    if (net::parse_drain_ack(*drained, ack, error)) {
      total.requests += ack.requests;
      total.ok += ack.ok;
      total.shed += ack.shed;
    }
    pull_metrics(shard);
    const auto bye = transact(shard, net::encode_shutdown(),
                              net::FrameType::kDrainAck);
    if (!bye)
      CLEAR_WARN("coordinator: shard " << shard.index
                                       << " did not acknowledge shutdown");
    shard.alive = false;
    shard.io.close();
  }
  CLEAR_OBS_GAUGE("coord.shards", 0.0);
  return total;
}

// -- Client IO ----------------------------------------------------------------

void Coordinator::send_to_client(Client& client, const std::string& frame) {
  client.io.queue(frame);
  flush_client(client);
}

void Coordinator::flush_client(Client& client) {
  if (client.io.flush().closed)
    close_client(client.id, "peer closed while writing");
}

void Coordinator::close_client(std::uint64_t id, const char* why) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) return;
  CLEAR_DEBUG("coordinator: closing client " << id << " (" << why << ")");
  it->second->io.close();
  graveyard_.push_back(std::move(it->second));
  clients_.erase(it);
}

}  // namespace clear::shard
