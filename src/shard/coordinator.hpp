// Coordinator: the routing tier that turns N CLEAR-Serve shard processes
// into one logical server.
//
// One single-threaded poll() loop owns every socket. Clients speak the
// ordinary CRC-framed wire protocol (src/net/protocol) — the same frames the
// single-process `serve --listen` accepts — and never learn they are talking
// to a fleet. Shards are plain `serve --listen` processes; the coordinator
// drives them over the same protocol's shard-coordination frames (ping/pong,
// export/import, adopt, metrics pull).
//
// Placement is a deterministic consistent-hash ring (src/shard/ring) over
// the live shard set, pinned per user at first sight: a user's whole session
// lives on one shard, so the shard's virtual-clock batching sees exactly the
// per-user subsequence it would have seen single-process and the replies are
// bit-identical. Requests are forwarded as re-encoded frames carrying the
// *original payload bytes* — the coordinator cannot perturb a prediction.
//
// Failure and rebalance:
//   * heartbeats — every `heartbeat_ms` the coordinator pings each shard; a
//     shard missing `missed_limit` consecutive beats (or hitting EOF) is
//     declared dead, removed from the ring, and its journal directory is
//     adopted by a survivor (kAdopt -> replay -> import), after which the
//     dead shard's users are re-pinned to the survivor and queued traffic
//     flows again ("coord: healed ..." on stdout);
//   * planned decommission — after `decommission_after` routed requests,
//     shard `decommission_shard` is drained, each of its sessions is
//     exported and imported to its new ring owner (CRC-verified, restored
//     bit-identically), and the empty shard is shut down. Frames bound for
//     a draining/migrating shard queue at the coordinator — never dropped —
//     and flush in arrival order once migration completes.
//
// On shutdown the coordinator drains every shard, pulls each shard's metrics
// snapshot and folds it into its own registry under the "coord." prefix
// (exact histogram merge; see obs::merge_snapshot), then shuts the fleet
// down and acknowledges the client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "shard/ring.hpp"

namespace clear::shard {

/// One shard process the coordinator manages.
struct ShardSpec {
  net::Endpoint endpoint;
  /// The shard's --journal-dir. Empty disables crash adoption for this
  /// shard (its sessions are lost to a crash, like an unjournaled serve).
  std::string journal_dir;
};

struct CoordinatorConfig {
  net::Endpoint listen;  ///< Client-facing. Port 0 binds ephemeral.
  std::vector<ShardSpec> shards;
  /// When nonempty, the bound client-facing port is written here (a single
  /// decimal line) after listen succeeds.
  std::string port_file;
  RingConfig ring;
  /// Liveness probe period; 0 disables heartbeats (deterministic tests).
  std::uint64_t heartbeat_ms = 200;
  /// Consecutive missed beats before a shard is declared dead.
  std::size_t missed_limit = 3;
  std::size_t max_connections = 64;
  int connect_timeout_ms = 5000;   ///< Per-shard connect deadline.
  int shard_io_timeout_ms = 60000; ///< Deadline for one awaited shard reply.
  /// Planned decommission: after `decommission_after` routed requests,
  /// drain shard `decommission_shard`, migrate its sessions to the ring
  /// survivors, and shut it down. -1 disables.
  std::int64_t decommission_shard = -1;
  std::uint64_t decommission_after = 0;
};

struct CoordinatorCounters {
  std::uint64_t requests = 0;    ///< Client requests seen.
  std::uint64_t forwarded = 0;   ///< Frames forwarded to shards.
  std::uint64_t queued = 0;      ///< Frames held for an unavailable shard.
  std::uint64_t responses = 0;   ///< Shard responses routed to clients.
  std::uint64_t pings = 0;
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t shard_deaths = 0;
  std::uint64_t adoptions = 0;          ///< Journal-adoption handoffs run.
  std::uint64_t adopted_sessions = 0;   ///< Sessions recovered by adoption.
  std::uint64_t migrations = 0;         ///< Sessions moved shard-to-shard.
  std::uint64_t migrations_failed = 0;  ///< Sessions lost in migration.
  std::uint64_t rejected = 0;  ///< Clients refused at max_connections.
};

class Coordinator {
 public:
  /// Binds the client-facing socket and connects to every shard
  /// immediately (so port() is valid before run(), and a missing shard
  /// fails fast). Throws clear::Error when a shard cannot be reached.
  explicit Coordinator(CoordinatorConfig config);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  const CoordinatorCounters& counters() const { return counters_; }

  /// Run the event loop until a client kShutdown frame arrives or stop()
  /// is called. Shuts the shard fleet down before returning.
  void run();

  /// Thread-safe (and async-signal-safe) shutdown request.
  void stop();

 private:
  struct Shard {
    std::size_t index = 0;
    ShardSpec spec;
    net::Conn io;
    bool alive = false;
    bool draining = false;  ///< Decommission drain in flight; traffic queues.
    /// Drain ack received while draining; the main loop (never a nested
    /// dispatch) runs the migration, avoiding transact() re-entrancy.
    bool drain_acked = false;
    /// Death already handled (adoption run or sessions written off);
    /// guards against adopting the same journal twice.
    bool healed = false;
    bool awaiting_pong = false;
    std::uint64_t nonce = 0;        ///< Nonce of the outstanding ping.
    std::uint64_t next_nonce = 1;
    std::size_t misses = 0;         ///< Consecutive missed heartbeats.
    std::uint64_t sessions = 0;     ///< Last pong's session count.
    std::set<std::uint64_t> users;  ///< Users pinned to this shard.
  };

  struct Client {
    net::Conn io;
    std::uint64_t id = 0;
  };

  struct QueuedFrame {
    std::uint64_t user_id = 0;
    std::uint64_t client_id = 0;
    std::string frame;  ///< Fully encoded kRequest frame bytes.
  };

  void accept_ready();
  /// Read, dispatch every complete frame, then close if the peer is gone.
  void handle_client_readable(Client& client);
  bool pump_client_frames(Client& client);
  bool on_client_request(Client& client, const net::Frame& frame);
  void on_client_drain(Client& client);
  void on_client_shutdown(Client& client);
  void handle_shard_readable(Shard& shard);
  /// Dispatch one asynchronous shard frame (kResponse routing, kPong
  /// bookkeeping). Frames transact() is waiting for never reach this.
  void on_shard_frame(Shard& shard, const net::Frame& frame);
  void route_response(const net::Frame& frame);

  /// Where `user_id` lives: the pinned shard if any, else the ring owner
  /// (pinning it and printing the placement line).
  std::size_t resolve_shard(std::uint64_t user_id);
  bool shard_available(const Shard& shard) const {
    return shard.alive && !shard.draining;
  }
  /// Send a forwarded request; false means the shard died mid-send (the
  /// caller queues the frame and heals — forwarding itself never heals, so
  /// flush_queue() cannot re-enter through it).
  bool forward_to_shard(Shard& shard, const std::string& frame);
  void flush_queue();

  /// Blocking write of fully-encoded frame bytes to a shard, within
  /// shard_io_timeout_ms. Returns false when the shard died or stalled.
  bool send_to_shard(Shard& shard, const std::string& frame);
  /// Send `frame` and wait for a reply of type `expect`, dispatching any
  /// interleaved asynchronous frames (responses, pongs) along the way.
  /// nullopt means the shard died; the caller decides whether that is
  /// fatal (decommission) or recoverable (heartbeat path runs adoption).
  std::optional<net::Frame> transact(Shard& shard, const std::string& frame,
                                     net::FrameType expect);

  void heartbeat_tick();
  void shard_died(Shard& shard);
  /// Adopt `dead`'s journal directory onto a survivor and re-pin its users.
  void heal_after_death(Shard& dead);
  void maybe_start_decommission();
  void finish_decommission(Shard& shard);
  /// Drain every live shard, fold their metrics snapshots into this
  /// process's registry under "coord.", shut the fleet down. Returns the
  /// summed drain-ack counters for the client's acknowledgement.
  net::WireDrainAck shutdown_fleet();
  void pull_metrics(Shard& shard);

  void send_to_client(Client& client, const std::string& frame);
  void flush_client(Client& client);
  void close_client(std::uint64_t id, const char* why);

  CoordinatorConfig config_;
  CoordinatorCounters counters_;
  HashRing ring_;
  std::vector<Shard> shards_;
  net::Listener listener_;

  std::uint64_t next_client_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Client>> graveyard_;
  /// (user_id, request_id) -> client id, for routing responses back.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> routes_;
  /// user id -> shard index. Pinned at first sight; rewritten by migration
  /// and adoption.
  std::map<std::uint64_t, std::size_t> placement_;
  /// Frames bound for an unavailable shard, in arrival order.
  std::deque<QueuedFrame> queue_;

  bool stopping_ = false;
  bool flushing_ = false;  ///< flush_queue() re-entrancy guard.
  bool decommission_started_ = false;
  bool decommission_done_ = false;
};

}  // namespace clear::shard
