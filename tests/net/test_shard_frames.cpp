// Shard-coordination frames over a real loopback socket: ping/pong
// liveness (including the injected heartbeat drop), session export /
// import handoff, and journal adoption — the wire mechanics the
// coordinator (src/shard) drives during rebalances and crash healing —
// plus the coordinator itself in process, in front of one shard: byte-equal
// forwarding, shutdown, the hang-up rule and the connection cap.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/store.hpp"
#include "clear/pipeline.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "loop_thread.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "shard/coordinator.hpp"
#include "wemac/dataset.hpp"

namespace clear::net {
namespace {

namespace fs = std::filesystem;

core::ClearConfig shard_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 77;
  c.data.n_volunteers = 6;
  c.data.trials_per_volunteer = 4;
  c.train.epochs = 1;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

struct ShardFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  serve::ModelSource source;

  ShardFixture()
      : dataset(wemac::generate_wemac(shard_config().data)),
        pipeline(shard_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = serve::ModelSource::from_pipeline(pipeline);
  }
};

ShardFixture& fixture() {
  static ShardFixture f;
  return f;
}

serve::ServeConfig shard_serve_config(const std::string& journal_dir = "") {
  serve::ServeConfig sc;
  sc.session.ca_windows = 2;
  sc.session.ft_maps = 2;
  sc.journal.directory = journal_dir;
  return sc;
}

WireRequest wire_req(std::uint64_t user, std::uint64_t id, std::uint64_t t,
                     std::optional<int> label = std::nullopt) {
  auto& f = fixture();
  const auto& samples = f.dataset.samples_of(f.dataset.n_volunteers() - 1);
  const std::size_t s = samples[id % samples.size()];
  WireRequest r;
  r.user_id = user;
  r.request_id = id;
  r.arrival_us = t;
  r.quality = 1.0;
  r.label = label;
  r.map = f.dataset.samples()[s].feature_map;
  return r;
}

/// One NetServer on an ephemeral port, run on a background thread; the
/// test drives it through a BlockingClient and must send_shutdown before
/// the harness joins.
struct WireHarness {
  serve::Server server;
  NetServer net_server;
  std::thread thread;

  explicit WireHarness(const serve::ServeConfig& sc,
                       std::size_t max_connections = 64)
      : server(fixture().source, sc),
        net_server(server, make_net_config(max_connections)) {
    if (!sc.journal.directory.empty()) server.open_journal();
    thread = std::thread([this] { net_server.run(); });
  }

  static NetServerConfig make_net_config(std::size_t max_connections) {
    NetServerConfig nc;
    nc.listen.port = 0;
    nc.idle_flush_ms = 0;
    nc.max_connections = max_connections;
    return nc;
  }

  ~WireHarness() {
    if (thread.joinable()) thread.join();
  }
};

/// Submit requests [0, n) for `user`, labelling requests 2 and 3 so the
/// session crosses into PERSONALIZED, then collect every response.
void personalize_over_wire(BlockingClient& client, std::uint64_t user) {
  for (std::uint64_t i = 0; i < 5; ++i) {
    std::optional<int> label;
    if (i == 2) label = 0;
    if (i == 3) label = 1;
    client.send_request(wire_req(user, i, i * 1000, label));
  }
  client.send_drain();
  Frame frame;
  std::size_t responses = 0;
  while (client.recv_frame(frame)) {
    if (frame.type == FrameType::kDrainAck) break;
    ASSERT_EQ(frame.type, FrameType::kResponse);
    ++responses;
  }
  ASSERT_EQ(responses, 5u);
}

TEST(ShardFrames, PingPongEchoesNonceAndSessionCount) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});
  personalize_over_wire(client, 1);

  client.send_bytes(encode_ping(0xABCDEF).data(),
                    encode_ping(0xABCDEF).size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kPong);
  WirePong pong;
  std::string error;
  ASSERT_TRUE(parse_pong(frame, pong, error)) << error;
  EXPECT_EQ(pong.nonce, 0xABCDEFu);
  EXPECT_EQ(pong.sessions, 1u);
  client.send_shutdown();
}

TEST(ShardFrames, ArmedHeartbeatDropSwallowsExactlyOnePing) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});
  fault::arm_shard_drop_heartbeat(1);
  const std::string ping1 = encode_ping(111);
  const std::string ping2 = encode_ping(222);
  client.send_bytes(ping1.data(), ping1.size());  // swallowed
  client.send_bytes(ping2.data(), ping2.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kPong);
  WirePong pong;
  std::string error;
  ASSERT_TRUE(parse_pong(frame, pong, error)) << error;
  // The first pong on the wire answers the *second* ping: the armed drop
  // fired once and disarmed itself.
  EXPECT_EQ(pong.nonce, 222u);
  fault::disarm_shard_drop_heartbeat();
  client.send_shutdown();
}

TEST(ShardFrames, ExportImportHandoffOverTheWire) {
  WireHarness losing(shard_serve_config());
  BlockingClient client_a({"127.0.0.1", losing.net_server.port()});
  personalize_over_wire(client_a, 1);

  // Export of a user this shard has never seen: found = false.
  std::string exp = encode_export(99);
  client_a.send_bytes(exp.data(), exp.size());
  Frame frame;
  ASSERT_TRUE(client_a.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kSessionImage);
  WireSessionImage image;
  std::string error;
  ASSERT_TRUE(parse_session_image(frame, image, error)) << error;
  EXPECT_FALSE(image.found);

  // Real export: image + personal checkpoint come back...
  exp = encode_export(1);
  client_a.send_bytes(exp.data(), exp.size());
  ASSERT_TRUE(client_a.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kSessionImage);
  ASSERT_TRUE(parse_session_image(frame, image, error)) << error;
  EXPECT_TRUE(image.found);
  EXPECT_FALSE(image.image.empty());
  EXPECT_FALSE(image.checkpoint.empty());

  // ...and the losing shard retired the session: a second export is empty.
  client_a.send_bytes(exp.data(), exp.size());
  ASSERT_TRUE(client_a.recv_frame(frame));
  WireSessionImage gone;
  ASSERT_TRUE(parse_session_image(frame, gone, error)) << error;
  EXPECT_FALSE(gone.found);
  client_a.send_shutdown();

  // The gaining shard accepts the image once and refuses the duplicate.
  WireHarness gaining(shard_serve_config());
  BlockingClient client_b({"127.0.0.1", gaining.net_server.port()});
  const std::string import_frame = encode_session_image(image);
  client_b.send_bytes(import_frame.data(), import_frame.size());
  ASSERT_TRUE(client_b.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kImportAck);
  WireImportAck ack;
  ASSERT_TRUE(parse_import_ack(frame, ack, error)) << error;
  EXPECT_TRUE(ack.ok) << ack.error;
  EXPECT_EQ(ack.user_id, 1u);

  client_b.send_bytes(import_frame.data(), import_frame.size());
  ASSERT_TRUE(client_b.recv_frame(frame));
  ASSERT_TRUE(parse_import_ack(frame, ack, error)) << error;
  EXPECT_FALSE(ack.ok);
  EXPECT_FALSE(ack.error.empty());

  // The migrated session serves on the gaining shard. (A drain forces the
  // flush — a lone request would otherwise sit in the batcher.)
  client_b.send_request(wire_req(1, 10, 50000));
  client_b.send_drain();
  std::optional<WireResponse> response;
  while (client_b.recv_frame(frame)) {
    if (frame.type == FrameType::kDrainAck) break;
    ASSERT_EQ(frame.type, FrameType::kResponse);
    WireResponse r;
    ASSERT_TRUE(parse_response(frame, r, error)) << error;
    response = r;
  }
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->user_id, 1u);
  client_b.send_shutdown();
}

/// A 133-byte CLRART01 container whose trailer wraps `index_offset +
/// index_size` around u64 (2^40 + (40 - 2^40)).
std::string wrapped_index_container() {
  artifact::Writer writer;
  writer.add_block("a", std::string(64, 'a'));
  std::string bytes = writer.finish();
  const std::size_t trailer = bytes.size() - 28;
  const std::uint64_t offset = std::uint64_t{1} << 40;
  const std::uint64_t size = std::uint64_t{40} - offset;  // mod 2^64
  std::memcpy(&bytes[trailer], &offset, sizeof(offset));
  std::memcpy(&bytes[trailer + 8], &size, sizeof(size));
  return bytes;
}

/// A session image for `user` whose labelled map declares rows x cols
/// extents while carrying a single float.
std::string image_with_map_extents(std::uint64_t user, std::uint64_t rows,
                                   std::uint64_t cols) {
  serve::SessionImage img;
  img.user_id = user;
  img.labelled.push_back({Tensor({1, 1}), 1});
  std::string bytes = serve::encode_session_image(img);
  const std::size_t ctsr = bytes.find("RSTC");  // 'CTSR', little-endian.
  std::memcpy(&bytes[ctsr + 16], &rows, sizeof(rows));
  std::memcpy(&bytes[ctsr + 24], &cols, sizeof(cols));
  return bytes;
}

TEST(ShardFrames, MalformedImportsGetErrorAcksAndTheShardKeepsServing) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});

  std::vector<WireSessionImage> imports;
  {
    // A personal session whose checkpoint is the wrapped container.
    serve::SessionImage img;
    img.user_id = 1;
    img.state = serve::SessionState::kPersonalized;
    img.has_personal = true;
    imports.push_back(
        {1, true, serve::encode_session_image(img), wrapped_index_container()});
  }
  const std::uint64_t big = std::uint64_t{1} << 20;
  const std::uint64_t max32 = (std::uint64_t{1} << 32) - 1;
  imports.push_back({2, true, image_with_map_extents(2, big, big), ""});
  imports.push_back({3, true, image_with_map_extents(3, max32, max32), ""});

  for (const WireSessionImage& import : imports) {
    const std::string bytes = encode_session_image(import);
    client.send_bytes(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(client.recv_frame(frame)) << "user " << import.user_id;
    ASSERT_EQ(frame.type, FrameType::kImportAck);
    WireImportAck ack;
    std::string error;
    ASSERT_TRUE(parse_import_ack(frame, ack, error)) << error;
    EXPECT_EQ(ack.user_id, import.user_id);
    EXPECT_FALSE(ack.ok);
    EXPECT_FALSE(ack.error.empty());
  }

  // Still serving: a ping comes back, and no session was installed.
  const std::string ping = encode_ping(7);
  client.send_bytes(ping.data(), ping.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kPong);
  WirePong pong;
  std::string error;
  ASSERT_TRUE(parse_pong(frame, pong, error)) << error;
  EXPECT_EQ(pong.nonce, 7u);
  EXPECT_EQ(pong.sessions, 0u);
  client.send_shutdown();
}

TEST(ShardFrames, AdoptReplaysADeadShardsJournal) {
  const std::string dir =
      (fs::temp_directory_path() / "clear_shard_adopt_jd").string();
  fs::remove_all(dir);
  {
    // The "dead" shard: personalize one session, then shut down. (recover()
    // reads snapshot + journal the same way after SIGKILL — the soak covers
    // the kill; here the wire mechanics are under test.)
    WireHarness victim(shard_serve_config(dir));
    BlockingClient client({"127.0.0.1", victim.net_server.port()});
    personalize_over_wire(client, 1);
    client.send_shutdown();
  }
  ASSERT_TRUE(fs::exists(dir));

  WireHarness survivor(shard_serve_config());
  BlockingClient client({"127.0.0.1", survivor.net_server.port()});
  const std::string adopt = encode_adopt(dir);
  client.send_bytes(adopt.data(), adopt.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kAdoptAck);
  WireAdoptAck ack;
  std::string error;
  ASSERT_TRUE(parse_adopt_ack(frame, ack, error)) << error;
  EXPECT_EQ(ack.sessions, 1u);
  EXPECT_EQ(ack.personalized, 1u);
  EXPECT_EQ(ack.failed, 0u);

  // The adopted session is live here now.
  client.send_request(wire_req(1, 20, 90000));
  client.send_drain();
  std::optional<WireResponse> response;
  while (client.recv_frame(frame)) {
    if (frame.type == FrameType::kDrainAck) break;
    ASSERT_EQ(frame.type, FrameType::kResponse);
    WireResponse r;
    std::string parse_err;
    ASSERT_TRUE(parse_response(frame, r, parse_err)) << parse_err;
    response = r;
  }
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->user_id, 1u);
  client.send_shutdown();
  fs::remove_all(dir);
}

TEST(ShardFrames, MetricsPullReturnsJson) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});
  const std::string pull = encode_metrics_pull();
  client.send_bytes(pull.data(), pull.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kMetricsJson);
  std::string json;
  std::string error;
  ASSERT_TRUE(parse_metrics_json(frame, json, error)) << error;
  // The payload is the same snapshot `--metrics-out` would write — the
  // coordinator folds it through obs::parse_snapshot / merge_snapshot.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  client.send_shutdown();
}

// -- The coordinator in process ---------------------------------------------

constexpr ClientDeadlines kDeadlines{0, 10000};
constexpr std::chrono::seconds kLoopDeadline{10};

shard::CoordinatorConfig coordinator_config(std::uint16_t shard_port) {
  shard::CoordinatorConfig cc;
  cc.listen.port = 0;
  cc.shards.push_back({Endpoint{"127.0.0.1", shard_port}, ""});
  cc.heartbeat_ms = 0;  // Liveness off: the frame sequence is the test's.
  return cc;
}

/// Three users, eight requests each, interleaved in arrival order; the
/// labels on requests 2 and 3 carry every session into PERSONALIZED.
std::vector<WireRequest> replay_stream() {
  std::vector<WireRequest> stream;
  std::uint64_t t = 0;
  for (std::uint64_t i = 0; i < 8; ++i)
    for (std::uint64_t user = 1; user <= 3; ++user) {
      std::optional<int> label;
      if (i == 2) label = 0;
      if (i == 3) label = 1;
      stream.push_back(wire_req(user, i, t += 1000, label));
    }
  return stream;
}

using ResponseBytes = std::map<std::pair<std::uint64_t, std::uint64_t>,
                               std::string>;

/// Send `stream` and one drain; collect every response's payload bytes by
/// (user, request) and the drain's ack, in whatever order they come.
ResponseBytes replay(BlockingClient& client,
                     const std::vector<WireRequest>& stream) {
  for (const WireRequest& r : stream) client.send_request(r);
  client.send_drain();
  ResponseBytes out;
  bool acked = false;
  Frame frame;
  while (out.size() < stream.size() || !acked) {
    if (!client.recv_frame(frame)) {
      ADD_FAILURE() << "connection closed after " << out.size()
                    << " responses";
      break;
    }
    if (frame.type == FrameType::kDrainAck) {
      acked = true;
      continue;
    }
    EXPECT_EQ(frame.type, FrameType::kResponse);
    WireResponse r;
    std::string error;
    EXPECT_TRUE(parse_response(frame, r, error)) << error;
    out[{r.user_id, r.request_id}] = frame.payload;
  }
  return out;
}

TEST(ShardFrames, CoordinatorForwardsByteEqualResponsesAndShutsTheFleet) {
  const std::vector<WireRequest> stream = replay_stream();

  WireDrainAck direct_ack;
  ResponseBytes direct;
  {
    WireHarness shard(shard_serve_config());
    BlockingClient client({"127.0.0.1", shard.net_server.port()}, 1,
                          kDeadlines);
    direct = replay(client, stream);
    client.send_shutdown();
    ASSERT_TRUE(client.recv_drain_ack(direct_ack));
  }
  ASSERT_EQ(direct.size(), stream.size());

  WireHarness shard(shard_serve_config());
  shard::Coordinator coord(coordinator_config(shard.net_server.port()));
  LoopThread loop([&coord] { coord.run(); }, [&coord] { coord.stop(); });
  BlockingClient client({"127.0.0.1", coord.port()}, 1, kDeadlines);
  EXPECT_EQ(replay(client, stream), direct);

  // The shutdown ack sums the fleet's drain acks: with one shard, exactly
  // what that shard reported straight.
  client.send_shutdown();
  WireDrainAck ack;
  ASSERT_TRUE(client.recv_drain_ack(ack));
  EXPECT_EQ(ack.requests, stream.size());
  EXPECT_EQ(ack.requests, direct_ack.requests);
  EXPECT_EQ(ack.ok, direct_ack.ok);
  EXPECT_EQ(ack.shed, direct_ack.shed);
  EXPECT_TRUE(loop.returned_within(kLoopDeadline));
  shard.thread.join();  // The fleet shutdown stopped the shard too.
  EXPECT_EQ(coord.counters().requests, stream.size());
  EXPECT_EQ(coord.counters().responses, stream.size());
  EXPECT_EQ(shard.net_server.counters().decode_errors, 0u);
}

TEST(ShardFrames, CoordinatorStopsOnAShutdownAheadOfAReset) {
  WireHarness shard(shard_serve_config());
  shard::Coordinator coord(coordinator_config(shard.net_server.port()));
  send_shutdown_then_reset(coord.port());
  LoopThread loop([&coord] { coord.run(); }, [&coord] { coord.stop(); });
  EXPECT_TRUE(loop.returned_within(kLoopDeadline))
      << "run() ignored a shutdown that arrived ahead of a reset";
}

// --max-connections=1: a peer arriving once the first is being served is
// accepted and closed at once, so it reads EOF (not a timeout), and the
// first connection keeps working.
TEST(ShardFrames, NetServerCapClosesTheExtraConnection) {
  WireHarness h(shard_serve_config(), /*max_connections=*/1);
  BlockingClient first({"127.0.0.1", h.net_server.port()}, 1, kDeadlines);
  EXPECT_EQ(replay(first, {wire_req(1, 0, 1000)}).size(), 1u);
  BlockingClient second({"127.0.0.1", h.net_server.port()}, 2, kDeadlines);
  Frame frame;
  EXPECT_FALSE(second.recv_frame(frame));
  EXPECT_EQ(replay(first, {wire_req(1, 1, 2000)}).size(), 1u);

  first.send_shutdown();
  WireDrainAck ack;
  ASSERT_TRUE(first.recv_drain_ack(ack));
  EXPECT_EQ(ack.requests, 2u);
  h.thread.join();
  EXPECT_EQ(h.net_server.counters().rejected, 1u);
  EXPECT_EQ(h.net_server.counters().accepted, 1u);
}

TEST(ShardFrames, CoordinatorCapClosesTheExtraConnection) {
  WireHarness shard(shard_serve_config());
  shard::CoordinatorConfig cc = coordinator_config(shard.net_server.port());
  cc.max_connections = 1;
  shard::Coordinator coord(cc);
  LoopThread loop([&coord] { coord.run(); }, [&coord] { coord.stop(); });
  BlockingClient first({"127.0.0.1", coord.port()}, 1, kDeadlines);
  EXPECT_EQ(replay(first, {wire_req(1, 0, 1000)}).size(), 1u);
  BlockingClient second({"127.0.0.1", coord.port()}, 2, kDeadlines);
  Frame frame;
  EXPECT_FALSE(second.recv_frame(frame));
  EXPECT_EQ(replay(first, {wire_req(1, 1, 2000)}).size(), 1u);

  first.send_shutdown();
  WireDrainAck ack;
  ASSERT_TRUE(first.recv_drain_ack(ack));
  EXPECT_EQ(ack.requests, 2u);
  EXPECT_TRUE(loop.returned_within(kLoopDeadline));
  EXPECT_EQ(coord.counters().rejected, 1u);
}

}  // namespace
}  // namespace clear::net
