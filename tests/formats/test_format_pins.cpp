// Byte-pinning fixture: one deterministic instance of every wire and
// on-disk format, re-encoded and compared byte for byte against the hex in
// format_pins.txt, plus decode-then-encode identity on the pinned bytes.
// The hex was recorded before the formats moved onto the shared byte codec
// (src/common/bytes); a failure here means a format changed on the wire or
// on disk.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "clear/artifacts.hpp"
#include "clear/config.hpp"
#include "clear/pipeline.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "edge/quantize.hpp"
#include "net/protocol.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"
#include "nn/model.hpp"
#include "nn/sequential.hpp"
#include "serve/delta.hpp"
#include "serve/journal.hpp"
#include "tensor/serialize.hpp"

namespace clear {
namespace {

namespace fs = std::filesystem;

std::string to_hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

/// name -> pinned bytes, from tests/formats/format_pins.txt.
const std::map<std::string, std::string>& pins() {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> t;
    std::ifstream is(std::string(CLEAR_SOURCE_DIR) +
                     "/tests/formats/format_pins.txt");
    std::string name, hex;
    while (is >> name >> hex) t[name] = from_hex(hex);
    return t;
  }();
  return table;
}

void expect_pinned(const std::string& name, const std::string& bytes) {
  const auto it = pins().find(name);
  ASSERT_NE(it, pins().end()) << "no pin named " << name;
  const std::string& want = it->second;
  std::size_t first_diff = 0;
  while (first_diff < want.size() && first_diff < bytes.size() &&
         want[first_diff] == bytes[first_diff])
    ++first_diff;
  EXPECT_TRUE(bytes == want)
      << name << ": " << bytes.size() << " bytes vs " << want.size()
      << " pinned; first difference at " << first_diff
      << "\nactual: " << to_hex(bytes);
}

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("clear_pins_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

Tensor ramp(std::vector<std::size_t> shape, float start, float step) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = start + step * static_cast<float>(i);
  return t;
}

// -- Wire frames 1-14 --------------------------------------------------------

net::WireRequest wire_request() {
  net::WireRequest r;
  r.request_id = 7;
  r.user_id = 3;
  r.arrival_us = 1234;
  r.quality = 0.75;
  r.label = 1;
  r.map = ramp({2, 3}, -1.0f, 0.5f);
  return r;
}

net::WireResponse wire_response() {
  net::WireResponse r;
  r.request_id = 7;
  r.user_id = 3;
  r.shed = true;
  r.predicted = 1;
  r.fear_probability = 0.625f;
  r.session_state = 4;
  r.degraded = true;
  r.route_kind = 2;
  r.route_id = 9;
  r.batch_rows = 5;
  r.arrival_us = 1234;
  r.exec_us = 5678;
  r.error = "queue full";
  return r;
}

net::WireSessionImage wire_image() {
  net::WireSessionImage w;
  w.user_id = 42;
  w.found = true;
  w.image = "image-bytes";
  w.checkpoint = "ckpt";
  return w;
}

std::vector<std::pair<std::string, std::string>> wire_frames() {
  return {
      {"wire.01.request", net::encode_request(wire_request())},
      {"wire.02.response", net::encode_response(wire_response())},
      {"wire.03.drain", net::encode_drain()},
      {"wire.04.drain_ack", net::encode_drain_ack({10, 8, 2})},
      {"wire.05.shutdown", net::encode_shutdown()},
      {"wire.06.ping", net::encode_ping(0x1122334455667788ull)},
      {"wire.07.pong", net::encode_pong({0x1122334455667788ull, 5})},
      {"wire.08.export", net::encode_export(42)},
      {"wire.09.session_image", net::encode_session_image(wire_image())},
      {"wire.10.import_ack", net::encode_import_ack({42, false, "nope"})},
      {"wire.11.adopt", net::encode_adopt("/var/lib/clear/shard-2")},
      {"wire.12.adopt_ack", net::encode_adopt_ack({3, 2, 1})},
      {"wire.13.metrics_pull", net::encode_metrics_pull()},
      {"wire.14.metrics_json", net::encode_metrics_json("{\"a\":1}")},
  };
}

/// Re-encode a decoded frame with its typed parser + encoder.
std::string reencode(const net::Frame& f) {
  std::string err;
  switch (f.type) {
    case net::FrameType::kRequest: {
      net::WireRequest r;
      EXPECT_TRUE(net::parse_request(f, r, err)) << err;
      return net::encode_request(r);
    }
    case net::FrameType::kResponse: {
      net::WireResponse r;
      EXPECT_TRUE(net::parse_response(f, r, err)) << err;
      return net::encode_response(r);
    }
    case net::FrameType::kDrainAck: {
      net::WireDrainAck a;
      EXPECT_TRUE(net::parse_drain_ack(f, a, err)) << err;
      return net::encode_drain_ack(a);
    }
    case net::FrameType::kPing: {
      std::uint64_t nonce = 0;
      EXPECT_TRUE(net::parse_ping(f, nonce, err)) << err;
      return net::encode_ping(nonce);
    }
    case net::FrameType::kPong: {
      net::WirePong p;
      EXPECT_TRUE(net::parse_pong(f, p, err)) << err;
      return net::encode_pong(p);
    }
    case net::FrameType::kExport: {
      std::uint64_t user = 0;
      EXPECT_TRUE(net::parse_export(f, user, err)) << err;
      return net::encode_export(user);
    }
    case net::FrameType::kSessionImage: {
      net::WireSessionImage w;
      EXPECT_TRUE(net::parse_session_image(f, w, err)) << err;
      return net::encode_session_image(w);
    }
    case net::FrameType::kImportAck: {
      net::WireImportAck a;
      EXPECT_TRUE(net::parse_import_ack(f, a, err)) << err;
      return net::encode_import_ack(a);
    }
    case net::FrameType::kAdopt: {
      std::string dir;
      EXPECT_TRUE(net::parse_adopt(f, dir, err)) << err;
      return net::encode_adopt(dir);
    }
    case net::FrameType::kAdoptAck: {
      net::WireAdoptAck a;
      EXPECT_TRUE(net::parse_adopt_ack(f, a, err)) << err;
      return net::encode_adopt_ack(a);
    }
    case net::FrameType::kMetricsJson: {
      std::string json;
      EXPECT_TRUE(net::parse_metrics_json(f, json, err)) << err;
      return net::encode_metrics_json(json);
    }
    case net::FrameType::kDrain:
    case net::FrameType::kShutdown:
    case net::FrameType::kMetricsPull:
      return net::encode_frame(f.type, f.payload);
  }
  return {};
}

TEST(FormatPins, WireFramesOneThroughFourteen) {
  for (const auto& [name, bytes] : wire_frames()) {
    SCOPED_TRACE(name);
    expect_pinned(name, bytes);
    net::FrameDecoder decoder;
    const std::string& pinned = pins().at(name);
    decoder.feed(pinned.data(), pinned.size());
    net::Frame frame;
    ASSERT_EQ(decoder.next(frame), net::DecodeStatus::kFrame)
        << decoder.error();
    EXPECT_EQ(reencode(frame), pinned);
  }
}

// -- Journal, snapshot, session image ----------------------------------------

std::vector<serve::JournalRecord> one_record_of_every_kind() {
  using serve::RecordType;
  std::vector<serve::JournalRecord> out;
  const auto add = [&out](RecordType type) -> serve::JournalRecord& {
    serve::JournalRecord r;
    r.type = type;
    r.user_id = 5 + out.size();
    out.push_back(r);
    return out.back();
  };
  auto& req = add(RecordType::kRequest);
  req.time_us = 1000;
  req.quality = 0.8125;
  add(RecordType::kObservation).point = {0.5, -1.25, 3.0};
  add(RecordType::kAssign).cluster = 2;
  auto& lab = add(RecordType::kLabelled);
  lab.label = 1;
  lab.map = ramp({3, 2}, 0.25f, -0.125f);
  auto& ft = add(RecordType::kFinetune);
  ft.ckpt_bytes = 4096;
  ft.ckpt_crc = 0xDEADBEEFu;
  add(RecordType::kFinetuneAbort);
  auto& shed = add(RecordType::kShed);
  shed.shed_charged = true;
  shed.shed_unadmitted = true;
  add(RecordType::kPredict).time_us = 2000;
  add(RecordType::kDriftTick).drifting = true;
  add(RecordType::kReassessObs).point = {-0.5, 2.0};
  add(RecordType::kReassign).cluster = 1;
  add(RecordType::kShadowTick).shadow_won = true;
  add(RecordType::kPromote).cluster = 3;
  add(RecordType::kDemote);
  return out;
}

std::string journal_bytes(const std::string& dir,
                          const std::vector<serve::JournalRecord>& records) {
  {
    serve::JournalConfig jc;
    jc.directory = dir;
    jc.snapshot_every = 0;
    serve::Journal journal(jc);
    for (const serve::JournalRecord& r : records) journal.append(r);
  }
  return file_bytes(serve::journal_log_path(dir));
}

TEST(FormatPins, JournalHeaderAndEveryRecordKind) {
  const std::string dir = temp_dir("journal");
  const std::string bytes = journal_bytes(dir, one_record_of_every_kind());
  expect_pinned("journal.clrwal02", bytes);

  // Decode the pinned log, append what came back to a fresh journal.
  std::ofstream(serve::journal_log_path(dir), std::ios::binary)
      << pins().at("journal.clrwal02");
  const serve::JournalReadResult read = serve::read_journal(dir);
  ASSERT_EQ(read.records.size(), 14u);
  EXPECT_EQ(read.tail_bytes_dropped, 0u);
  const std::string again = temp_dir("journal_again");
  EXPECT_EQ(journal_bytes(again, read.records), pins().at("journal.clrwal02"));
  fs::remove_all(dir);
  fs::remove_all(again);
}

serve::SessionImage session_image(std::uint64_t user) {
  serve::SessionImage img;
  img.user_id = user;
  img.state = serve::SessionState::kShadowing;
  img.saved_state = serve::SessionState::kPersonalized;
  img.bad_streak = 1;
  img.good_streak = 2;
  img.cluster = 3;
  img.observations = {{0.5, 1.5}, {-2.0, 0.25}};
  img.labelled.push_back({ramp({2, 2}, 1.0f, 0.5f), 1});
  img.labelled.push_back({ramp({2, 2}, -1.0f, 0.25f), 0});
  img.finetune_enabled = false;
  img.requests = 40;
  img.shed = 4;
  img.predictions = 30;
  img.first_arrival_us = 100;
  img.first_prediction_us = 250;
  img.has_personal = true;
  img.drift_streak = 6;
  img.reassess_from = serve::SessionState::kPersonalized;
  img.candidate_cluster = 1;
  img.shadow_wins = 7;
  img.shadow_seen = 9;
  return img;
}

TEST(FormatPins, SessionImage) {
  const std::string bytes = serve::encode_session_image(session_image(11));
  expect_pinned("session_image", bytes);
  const std::string& pinned = pins().at("session_image");
  EXPECT_EQ(serve::encode_session_image(serve::decode_session_image(pinned)),
            pinned);
}

TEST(FormatPins, SnapshotClrsnp02) {
  serve::SnapshotData data;
  data.last_seq = 77;
  data.last_arrival_us = 99000;
  std::uint64_t* counters = &data.counters.requests;
  for (std::size_t i = 0; i < sizeof(data.counters) / sizeof(std::uint64_t);
       ++i)
    counters[i] = 100 + i;
  data.sessions.push_back(session_image(11));
  serve::SessionImage cold;
  cold.user_id = 12;
  data.sessions.push_back(cold);

  const std::string dir = temp_dir("snapshot");
  serve::write_snapshot_file(dir, data, false);
  expect_pinned("snapshot.clrsnp02", file_bytes(serve::snapshot_path(dir)));

  std::ofstream(serve::snapshot_path(dir), std::ios::binary)
      << pins().at("snapshot.clrsnp02");
  const auto read = serve::read_snapshot(dir);
  ASSERT_TRUE(read.has_value());
  const std::string again = temp_dir("snapshot_again");
  serve::write_snapshot_file(again, *read, false);
  EXPECT_EQ(file_bytes(serve::snapshot_path(again)),
            pins().at("snapshot.clrsnp02"));
  fs::remove_all(dir);
  fs::remove_all(again);
}

// -- Checkpoints, pipeline.meta, CLRART01, deltas, CTSR ----------------------

std::unique_ptr<nn::Sequential> dense_model(std::uint64_t seed,
                                            std::size_t width) {
  Rng rng(seed);
  auto m = std::make_unique<nn::Sequential>();
  m->add(std::make_unique<nn::Dense>(width, width, rng));
  m->add(std::make_unique<nn::Dense>(width, 2, rng));
  return m;
}

std::string checkpoint_of(nn::Sequential& model, nn::CheckpointFormat f) {
  std::ostringstream os(std::ios::binary);
  nn::save_checkpoint(os, model, f);
  return os.str();
}

TEST(FormatPins, CheckpointV1AndV2) {
  for (const auto& [name, format] :
       {std::pair{"checkpoint.v1", nn::CheckpointFormat::kLegacyV1},
        std::pair{"checkpoint.v2", nn::CheckpointFormat::kCrcV2}}) {
    SCOPED_TRACE(name);
    auto model = dense_model(5, 3);
    expect_pinned(name, checkpoint_of(*model, format));
    auto other = dense_model(6, 3);
    std::istringstream is(pins().at(name), std::ios::binary);
    nn::load_checkpoint(is, *other);
    EXPECT_EQ(checkpoint_of(*other, format), pins().at(name));
  }
}

TEST(FormatPins, PipelineMetaV2) {
  core::ClearConfig config = core::smoke_config();
  config.gc.k = 2;
  config.gc.sub_clusters = 2;
  core::ClearPipeline pipeline(config);
  core::ClearPipeline::State state;
  state.users = {0, 1, 2, 4};
  state.normalizer = features::FeatureNormalizer::from_moments(
      {0.5, -1.0, 2.0}, {1.0, 0.25, 3.0});
  state.clustering.user_cluster = {0, 1, 0, 1};
  for (std::size_t k = 0; k < 2; ++k) {
    cluster::ClusterModel c;
    c.centroid = {0.1 * static_cast<double>(k), 0.2, 0.3};
    c.sub_centroids = {{1.0, 2.0, 3.0}, {-1.0, -2.0, -3.0 - k}};
    c.members = {k, k + 2};
    state.clustering.clusters.push_back(c);
    Rng rng(40 + k);
    auto model = nn::build_cnn_lstm(pipeline.config().model, rng);
    state.checkpoints.push_back(
        checkpoint_of(*model, nn::CheckpointFormat::kCrcV2));
  }
  state.clustering.rounds_run = 3;
  state.clustering.converged = true;
  pipeline.import_state(std::move(state));

  const std::string dir = temp_dir("pipeline");
  core::save_pipeline(pipeline, dir);
  expect_pinned("pipeline.meta.v2", file_bytes(dir + "/pipeline.meta"));

  std::ofstream(dir + "/pipeline.meta", std::ios::binary)
      << pins().at("pipeline.meta.v2");
  core::ClearPipeline loaded = core::load_pipeline(dir);
  const std::string again = temp_dir("pipeline_again");
  core::save_pipeline(loaded, again);
  EXPECT_EQ(file_bytes(again + "/pipeline.meta"), pins().at("pipeline.meta.v2"));
  fs::remove_all(dir);
  fs::remove_all(again);
}

TEST(FormatPins, ArtifactContainer) {
  artifact::Writer writer;
  writer.add_block("alpha", "hello");
  writer.add_block("beta", std::string(1, '\0') + "binary\xff");
  writer.add_block("gamma", "");
  expect_pinned("artifact.clrart01", writer.finish());

  const std::string& pinned = pins().at("artifact.clrart01");
  const artifact::Reader reader(pinned);
  artifact::Writer again;
  for (std::size_t i = 0; i < reader.block_count(); ++i)
    again.add_block(reader.info(i).name, reader.block(i));
  EXPECT_EQ(again.finish(), pinned);
}

/// A base and a fine-tuned checkpoint for one serving tier: only the head
/// layer moves, as under the edge fine-tuning split.
std::pair<std::string, std::string> delta_pair(bool int8) {
  auto base = dense_model(9, 16);
  auto ft = dense_model(9, 16);
  Rng rng(13);
  const std::vector<nn::Param*> params = ft->parameters();
  for (std::size_t i = 2; i < params.size(); ++i)  // The head Dense layer.
    for (float& v : params[i]->value.flat())
      v += v * static_cast<float>(rng.uniform(-3e-3, 3e-3));
  if (int8) {
    for (auto* model : {base.get(), ft.get()})
      for (nn::Param* p : model->parameters()) {
        const edge::QuantParams qp = edge::calibrate_max_abs(p->value.flat());
        for (float& v : p->value.flat())
          v = edge::dequantize_value(edge::quantize_value(v, qp), qp);
      }
  }
  return {checkpoint_of(*base, nn::CheckpointFormat::kCrcV2),
          checkpoint_of(*ft, nn::CheckpointFormat::kCrcV2)};
}

TEST(FormatPins, DeltaBlobsFp32AndInt8) {
  for (const bool int8 : {false, true}) {
    const std::string name = int8 ? "delta.int8" : "delta.fp32";
    SCOPED_TRACE(name);
    const auto [base, ft] = delta_pair(int8);
    const serve::delta::BaseRef ref{serve::delta::BaseRef::Kind::kCluster, 1};
    const auto blob = serve::delta::encode(base, ref, ft);
    ASSERT_TRUE(blob.has_value());
    expect_pinned(name, *blob);

    const std::string& pinned = pins().at(name);
    const std::string full = serve::delta::decode(pinned, base);
    EXPECT_EQ(full, ft);
    EXPECT_EQ(serve::delta::encode(base, ref, full), pinned);
  }
}

TEST(FormatPins, CtsrTensor) {
  std::string bytes;
  put_tensor(bytes, ramp({2, 3, 2}, -2.0f, 0.375f));
  expect_pinned("tensor.ctsr", bytes);

  const std::string& pinned = pins().at("tensor.ctsr");
  ByteCursor in(pinned, "CTSR tensor");
  const Tensor t = get_tensor(in);
  in.done();
  std::string again;
  put_tensor(again, t);
  EXPECT_EQ(again, pinned);
}

}  // namespace
}  // namespace clear
