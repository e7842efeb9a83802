// One structure-aware fuzz harness over every wire and on-disk parser.
//
// Each format contributes valid seed encodings, a parse step that drives
// its public decoder to the end, and a "reseal" step that recomputes the
// format's CRCs after a mutation — so a mutated length or count reaches
// the field parser instead of dying at the CRC check. Mutations: random
// bit flips, every truncation, and every u32/u64 position overwritten with
// 0, max and max minus a small step (every length and count field of the
// format is one of those positions).
//
// The property: nothing but clear::Error escapes a parser (the wire frame
// decoder answers with a DecodeStatus; its typed payload parsers with
// false). Each format runs in a forked child under an RLIMIT_AS cap, so a
// parser that reserves memory for a count it has not checked fails here
// even on a machine with plenty of RAM. AddressSanitizer reserves terabytes
// of shadow memory and so defeats RLIMIT_AS; under ASan the cap comes from
// ASAN_OPTIONS=max_allocation_size_mb instead (tools/run_sanitizer_tests.sh).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "clear/artifacts.hpp"
#include "clear/config.hpp"
#include "clear/pipeline.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
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
#include "wemac/dataset.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CLEAR_FUZZ_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLEAR_FUZZ_UNDER_ASAN 1
#endif
#endif

namespace clear {
namespace {

namespace fs = std::filesystem;

/// Address-space headroom the child gets above what it already maps: far
/// more than any seed needs, far less than an unchecked count reserves.
constexpr std::uint64_t kHeadroomBytes = 256ull << 20;

struct Format {
  std::string name;
  std::vector<std::string> seeds;
  /// Recompute the format's CRCs in place (a no-op for CRC-less formats).
  std::function<void(std::string&)> reseal;
  /// Decode `bytes` completely; may throw only clear::Error.
  std::function<void(const std::string&)> parse;
};

// -- Little-endian patching of test inputs (bounds-checked by the callers) --

std::uint64_t load_le(const std::string& s, std::size_t at, std::size_t n) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data() + at, n);
  return v;
}

void store_le(std::string& s, std::size_t at, std::uint64_t v, std::size_t n) {
  std::memcpy(s.data() + at, &v, n);
}

std::uint32_t crc_of(const std::string& s, std::size_t at, std::size_t n) {
  return crc32(s.data() + at, n);
}

// -- Reseal steps ------------------------------------------------------------

/// Wire frames: header CRC over each frame's payload, walking the stream.
void reseal_wire(std::string& b) {
  std::size_t off = 0;
  while (b.size() - off >= net::kHeaderSize) {
    const std::uint64_t len = load_le(b, off + 8, 4);
    if (len > b.size() - off - net::kHeaderSize) break;
    store_le(b, off + 12, crc_of(b, off + net::kHeaderSize, len), 4);
    off += net::kHeaderSize + len;
  }
}

/// journal.log: [u32 len][u32 crc][payload] frames after a 16-byte header.
void reseal_journal(std::string& b) {
  std::size_t off = 16;
  while (b.size() >= off && b.size() - off >= 8) {
    const std::uint64_t len = load_le(b, off, 4);
    if (len > b.size() - off - 8) break;
    store_le(b, off + 4, crc_of(b, off + 8, len), 4);
    off += 8 + len;
  }
}

/// snapshot.snap: magic, u32 version, u32 len, u32 crc(payload), payload.
void reseal_snapshot(std::string& b) {
  if (b.size() >= 20) store_le(b, 16, crc_of(b, 20, b.size() - 20), 4);
}

/// The CRC envelope of checkpoints v2 and pipeline.meta v2.
void reseal_envelope(std::string& b) {
  if (b.size() >= 32) store_le(b, b.size() - 8, crc_of(b, 24, b.size() - 32), 8);
}

/// CLRART01: every block CRC inside the index, then the index CRC.
void reseal_artifact(std::string& b) {
  if (b.size() < 44) return;
  const std::size_t trailer = b.size() - 28;
  const std::uint64_t index_at = load_le(b, trailer, 8);
  const std::uint64_t index_size = load_le(b, trailer + 8, 8);
  if (index_at > trailer || index_size > trailer - index_at) return;
  const std::size_t end = index_at + index_size;
  std::size_t pos = index_at;
  while (end - pos >= 24) {
    const std::uint64_t name_len = load_le(b, pos, 4);
    if (name_len > end - pos - 24) break;
    const std::size_t entry = pos + 4 + name_len;
    const std::uint64_t off = load_le(b, entry, 8);
    const std::uint64_t size = load_le(b, entry + 8, 8);
    if (off <= b.size() && size <= b.size() - off)
      store_le(b, entry + 16, crc_of(b, off, size), 4);
    pos = entry + 20;
  }
  store_le(b, trailer + 16, crc_of(b, index_at, index_size), 4);
}

void no_reseal(std::string&) {}

// -- Seeds ---------------------------------------------------------------------

Tensor ramp(std::vector<std::size_t> shape, float start, float step) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = start + step * static_cast<float>(i);
  return t;
}

std::string read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("clear_fuzz_" + tag + "_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(dir);
  return dir;
}

/// Where the file-backed parsers read their mutated input; made by the
/// test before it forks, removed after.
std::string& parse_dir() {
  static std::string dir;
  return dir;
}

serve::SessionImage session_image(std::uint64_t user) {
  serve::SessionImage img;
  img.user_id = user;
  img.state = serve::SessionState::kShadowing;
  img.saved_state = serve::SessionState::kPersonalized;
  img.cluster = 2;
  img.observations = {{0.5, 1.5}, {-2.0}};
  img.labelled.push_back({ramp({2, 3}, 1.0f, 0.5f), 1});
  img.first_prediction_us = 250;
  img.has_personal = true;
  img.candidate_cluster = 1;
  return img;
}

std::vector<serve::JournalRecord> records(bool v2_kinds) {
  using serve::RecordType;
  std::vector<serve::JournalRecord> out;
  const auto add = [&out](RecordType type) -> serve::JournalRecord& {
    serve::JournalRecord r;
    r.type = type;
    r.user_id = 3 + out.size() % 2;
    out.push_back(r);
    return out.back();
  };
  add(RecordType::kRequest).time_us = 100;
  add(RecordType::kObservation).point = {0.5, -1.25, 3.0};
  add(RecordType::kAssign).cluster = 1;
  auto& lab = add(RecordType::kLabelled);
  lab.label = 1;
  lab.map = ramp({3, 2}, 0.25f, -0.125f);
  add(RecordType::kFinetune).ckpt_bytes = 4096;
  add(RecordType::kFinetuneAbort);
  add(RecordType::kShed).shed_charged = true;
  add(RecordType::kPredict).time_us = 200;
  if (v2_kinds) {
    add(RecordType::kDriftTick).drifting = true;
    add(RecordType::kReassessObs).point = {-0.5, 2.0};
    add(RecordType::kReassign).cluster = 2;
    add(RecordType::kShadowTick).shadow_won = true;
    add(RecordType::kPromote).cluster = 2;
    add(RecordType::kDemote);
  }
  return out;
}

/// Rewrite a v2 journal as the v1 format an old writer produced: the
/// header echoes version 1 and only v1 record kinds appear.
std::string as_v1_journal(std::string log) {
  log[6] = '0';
  log[7] = '1';
  store_le(log, 8, 1, 4);
  return log;
}

std::string journal_seed(bool v2) {
  const std::string dir = temp_dir("seed_journal");
  {
    serve::JournalConfig jc;
    jc.directory = dir;
    jc.snapshot_every = 0;
    serve::Journal journal(jc);
    for (const serve::JournalRecord& r : records(v2)) journal.append(r);
  }
  std::string log = read_all(serve::journal_log_path(dir));
  fs::remove_all(dir);
  return v2 ? log : as_v1_journal(log);
}

std::string snapshot_seed() {
  serve::SnapshotData data;
  data.last_seq = 9;
  data.counters.requests = 12;
  data.counters.promotions = 1;
  data.sessions.push_back(session_image(3));
  serve::SessionImage cold;
  cold.user_id = 4;
  data.sessions.push_back(cold);
  const std::string dir = temp_dir("seed_snapshot");
  serve::write_snapshot_file(dir, data, false);
  const std::string bytes = read_all(serve::snapshot_path(dir));
  fs::remove_all(dir);
  return bytes;
}

/// A v1 snapshot: the v2 payload minus the adaptation counters and
/// per-session adaptation fields, behind a "CLRSNP01" header.
std::string snapshot_v1_seed() {
  std::string p;
  put_u64(p, 5);     // last_seq
  put_u64(p, 9000);  // last_arrival_us
  for (int i = 0; i < 9; ++i) put_u64(p, 10 + i);  // v1 counters
  put_u64(p, 1);                                   // sessions
  for (const std::uint64_t v : {3, 2, 2, 0, 0, 1}) put_u64(p, v);
  put_u64(p, 1);  // one observation
  put_u64(p, 2);
  put_f64(p, 0.5);
  put_f64(p, -1.5);
  put_u64(p, 1);  // one labelled map
  put_u64(p, 1);
  put_tensor(p, ramp({2, 2}, 0.0f, 1.0f));
  for (const std::uint64_t v : {1, 10, 0, 8, 1000, 1, 1500, 0}) put_u64(p, v);
  std::string b = "CLRSNP01";
  put_u32(b, 1);
  put_u32(b, static_cast<std::uint32_t>(p.size()));
  put_u32(b, crc32(p));
  return b + p;
}

std::unique_ptr<nn::Sequential> dense_model(std::uint64_t seed,
                                            std::size_t width) {
  Rng rng(seed);
  auto m = std::make_unique<nn::Sequential>();
  m->add(std::make_unique<nn::Dense>(width, width, rng));
  m->add(std::make_unique<nn::Dense>(width, 2, rng));
  return m;
}

/// Base + fine-tuned checkpoints where only the head moves by `step`
/// relative; `int8` projects both onto per-tensor int8 grids.
std::pair<std::string, std::string> tuned_pair(double step, bool int8) {
  auto base = dense_model(9, 16);
  auto ft = dense_model(9, 16);
  Rng rng(13);
  const std::vector<nn::Param*> params = ft->parameters();
  for (std::size_t i = 2; i < params.size(); ++i)
    for (float& v : params[i]->value.flat())
      v += v * static_cast<float>(rng.uniform(-step, step));
  if (int8)
    for (auto* model : {base.get(), ft.get()})
      for (nn::Param* p : model->parameters()) {
        const edge::QuantParams qp = edge::calibrate_max_abs(p->value.flat());
        for (float& v : p->value.flat())
          v = edge::dequantize_value(edge::quantize_value(v, qp), qp);
      }
  return {nn::checkpoint_blob(*base), nn::checkpoint_blob(*ft)};
}

wemac::WemacDataset tiny_dataset() {
  wemac::WemacConfig c;
  c.n_volunteers = 2;
  c.trials_per_volunteer = 1;
  c.windows_per_trial = 2;
  std::vector<wemac::VolunteerMeta> volunteers(2);
  volunteers[1].id = 1;
  volunteers[1].archetype_id = 3;
  std::vector<wemac::Sample> samples(3);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].volunteer_id = i % 2;
    samples[i].label = static_cast<int>(i % 2);
    samples[i].feature_map = ramp({3, 2}, static_cast<float>(i), 0.5f);
  }
  return wemac::WemacDataset(c, std::move(volunteers), std::move(samples));
}

// -- Formats -------------------------------------------------------------------

std::vector<Format> formats() {
  std::vector<Format> out;

  {
    net::WireRequest req;
    req.request_id = 1;
    req.user_id = 2;
    req.label = 0;
    req.map = ramp({2, 3}, -1.0f, 0.5f);
    net::WireResponse resp;
    resp.error = "shed: queue full";
    const std::string image = serve::encode_session_image(session_image(5));
    out.push_back(
        {"wire frames",
         {net::encode_request(req), net::encode_response(resp),
          net::encode_drain(), net::encode_drain_ack({3, 2, 1}),
          net::encode_shutdown(), net::encode_ping(7),
          net::encode_pong({7, 2}), net::encode_export(5),
          net::encode_session_image({5, true, image, "ckpt"}),
          net::encode_import_ack({5, false, "refused"}),
          net::encode_adopt("/tmp/shard"), net::encode_adopt_ack({1, 1, 0}),
          net::encode_metrics_pull(), net::encode_metrics_json("{}"),
          net::encode_request(req) + net::encode_ping(8)},
         reseal_wire, [](const std::string& bytes) {
           net::FrameDecoder decoder;
           decoder.feed(bytes.data(), bytes.size());
           net::Frame f;
           std::string e;
           while (decoder.next(f) == net::DecodeStatus::kFrame) {
             net::WireRequest a;
             net::WireResponse b;
             net::WireDrainAck c;
             net::WirePong d;
             net::WireSessionImage g;
             net::WireImportAck h;
             net::WireAdoptAck i;
             std::uint64_t u = 0;
             std::string s;
             (void)(net::parse_request(f, a, e) || net::parse_response(f, b, e) ||
                    net::parse_drain_ack(f, c, e) || net::parse_ping(f, u, e) ||
                    net::parse_pong(f, d, e) || net::parse_export(f, u, e) ||
                    net::parse_session_image(f, g, e) ||
                    net::parse_import_ack(f, h, e) || net::parse_adopt(f, s, e) ||
                    net::parse_adopt_ack(f, i, e) ||
                    net::parse_metrics_json(f, s, e));
           }
         }});
  }

  const auto journal_parse = [](const std::string& bytes) {
    write_all(serve::journal_log_path(parse_dir()), bytes);
    (void)serve::read_journal(parse_dir());
  };
  out.push_back({"CLRWAL02", {journal_seed(true)}, reseal_journal,
                 journal_parse});
  out.push_back({"CLRWAL01", {journal_seed(false)}, reseal_journal,
                 journal_parse});

  const auto snapshot_parse = [](const std::string& bytes) {
    write_all(serve::snapshot_path(parse_dir()), bytes);
    (void)serve::read_snapshot(parse_dir());
  };
  out.push_back({"CLRSNP02", {snapshot_seed()}, reseal_snapshot,
                 snapshot_parse});
  out.push_back({"CLRSNP01", {snapshot_v1_seed()}, reseal_snapshot,
                 snapshot_parse});

  out.push_back({"session image",
                 {serve::encode_session_image(session_image(3))}, no_reseal,
                 [](const std::string& bytes) {
                   (void)serve::decode_session_image(bytes);
                 }});

  {
    auto model = dense_model(5, 3);
    const auto load = [](const std::string& bytes) {
      auto target = dense_model(6, 3);
      nn::load_checkpoint_blob(bytes, *target);
    };
    out.push_back({"checkpoint v1",
                   {nn::checkpoint_blob(*model, nn::CheckpointFormat::kLegacyV1)},
                   no_reseal, load});
    out.push_back({"checkpoint v2", {nn::checkpoint_blob(*model)},
                   reseal_envelope, load});
  }

  {
    core::ClearConfig config = core::smoke_config();
    config.gc.k = 2;
    config.gc.sub_clusters = 2;
    core::ClearPipeline pipeline(config);
    core::ClearPipeline::State state;
    state.users = {0, 1, 2};
    state.normalizer =
        features::FeatureNormalizer::from_moments({0.5, -1.0}, {1.0, 0.25});
    state.clustering.user_cluster = {0, 1, 0};
    for (std::size_t k = 0; k < 2; ++k) {
      cluster::ClusterModel c;
      c.centroid = {0.1, 0.2};
      c.sub_centroids = {{1.0, 2.0}, {-1.0, -2.0}};
      c.members = {k};
      state.clustering.clusters.push_back(c);
      Rng rng(40 + k);
      state.checkpoints.push_back(nn::checkpoint_blob(
          *nn::build_cnn_lstm(pipeline.config().model, rng)));
    }
    pipeline.import_state(std::move(state));
    const std::string dir = temp_dir("seed_meta");
    core::save_pipeline(pipeline, dir);
    const std::string meta = read_all(dir + "/pipeline.meta");
    fs::remove_all(dir);
    out.push_back({"pipeline.meta v2", {meta}, reseal_envelope,
                   [](const std::string& bytes) {
                     write_all(parse_dir() + "/pipeline.meta", bytes);
                     (void)core::load_artifact_meta(parse_dir());
                   }});
  }

  {
    artifact::Writer writer;
    writer.add_block("alpha", "hello");
    writer.add_block("beta", std::string(33, 'b'));
    writer.add_block("c", "");
    out.push_back({"CLRART01", {writer.finish()}, reseal_artifact,
                   [](const std::string& bytes) {
                     const artifact::Reader reader(bytes);
                     for (std::size_t i = 0; i < reader.block_count(); ++i)
                       (void)reader.block(i);
                   }});
  }

  {
    // fp32 (ULP residuals), int8 with sparse grid residuals, and int8 with
    // dense residuals (the rANS-coded mode).
    std::vector<std::string> blobs;
    static std::vector<std::string> bases;
    for (const auto& [step, int8] :
         {std::pair{3e-3, false}, std::pair{3e-3, true},
          std::pair{0.3, true}}) {
      const auto [base, ft] = tuned_pair(step, int8);
      const auto blob = serve::delta::encode(
          base, {serve::delta::BaseRef::Kind::kCluster, blobs.size()}, ft);
      if (!blob) continue;
      blobs.push_back(*blob);
      bases.push_back(base);
    }
    out.push_back({"delta", blobs, reseal_artifact,
                   [](const std::string& bytes) {
                     const serve::delta::BaseRef ref =
                         serve::delta::base_of(bytes);
                     if (ref.id < bases.size())
                       (void)serve::delta::decode(bytes, bases[ref.id]);
                   }});
  }

  {
    std::string tensor;
    put_tensor(tensor, ramp({2, 3, 2}, -2.0f, 0.375f));
    out.push_back({"CTSR tensor", {tensor}, no_reseal,
                   [](const std::string& bytes) {
                     ByteCursor in(bytes, "CTSR tensor");
                     (void)get_tensor(in);
                     in.done();
                   }});
  }

  {
    const std::string dir = temp_dir("seed_wemac");
    wemac::save_dataset(tiny_dataset(), dir + "/cache.bin");
    const std::string cache = read_all(dir + "/cache.bin");
    fs::remove_all(dir);
    out.push_back({"wemac cache", {cache}, no_reseal,
                   [](const std::string& bytes) {
                     write_all(parse_dir() + "/cache.bin", bytes);
                     (void)wemac::load_dataset(parse_dir() + "/cache.bin");
                   }});
  }
  return out;
}

// -- Running the cases --------------------------------------------------------

/// Parse one input; report and exit the child on anything but clear::Error.
void run_case(const Format& f, const std::string& bytes, const char* what,
              std::size_t seed, std::size_t detail) {
  const auto die = [&](const char* kind, const char* msg) {
    std::fprintf(stderr, "%s: %s escaped on seed %zu, %s %zu: %s\n",
                 f.name.c_str(), kind, seed, what, detail, msg);
    std::fflush(stderr);
    ::_exit(3);
  };
  try {
    f.parse(bytes);
  } catch (const Error&) {
    // Rejection is the expected outcome for damaged input.
  } catch (const std::exception& e) {
    die("std::exception", e.what());
  } catch (...) {
    die("a non-standard exception", "?");
  }
}

void mutate_and_parse(const Format& f) {
  Rng rng(0xF0221);
  for (std::size_t s = 0; s < f.seeds.size(); ++s) {
    const std::string& seed = f.seeds[s];
    std::size_t case_no = 0;
    const auto attempt = [&](std::string bytes, const char* what,
                             std::size_t detail) {
      // Every other case is resealed so the mutation reaches the fields
      // behind the CRC; the rest exercise the CRC rejection itself.
      if (case_no++ % 2 == 0) f.reseal(bytes);
      run_case(f, bytes, what, s, detail);
    };
    run_case(f, seed, "intact", s, 0);
    for (std::size_t i = 0; i < 300; ++i) {
      std::string bytes = seed;
      const std::size_t flips = 1 + rng.uniform_index(4);
      for (std::size_t k = 0; k < flips; ++k)
        bytes[rng.uniform_index(bytes.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      attempt(std::move(bytes), "bit flips", i);
    }
    for (std::size_t keep = 0; keep < seed.size(); ++keep)
      attempt(seed.substr(0, keep), "truncation to", keep);
    for (const std::size_t width : {4, 8}) {
      const std::uint64_t max = width == 4 ? 0xFFFFFFFFull : ~0ull;
      for (const std::uint64_t value : {std::uint64_t{0}, max, max - 1,
                                        max - 255, max / 8}) {
        for (std::size_t at = 0; at + width <= seed.size(); ++at) {
          std::string bytes = seed;
          store_le(bytes, at, value, width);
          attempt(std::move(bytes), "field overwrite at", at);
        }
      }
    }
  }
}

std::uint64_t mapped_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  statm >> pages;
  return pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// Run `f` in a forked child whose address space is capped; the child's
/// exit status is the verdict.
void fuzz_in_capped_child(const Format& f) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
#ifndef CLEAR_FUZZ_UNDER_ASAN
    const rlim_t cap = mapped_bytes() + kHeadroomBytes;
    const rlimit limit{cap, cap};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(5);
#endif
    mutate_and_parse(f);
    std::fflush(nullptr);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFSIGNALED(status)) {
    ADD_FAILURE() << f.name << ": fuzz child died of signal "
                  << WTERMSIG(status);
  } else {
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << f.name << ": fuzz child failed (see its stderr above)";
  }
}

TEST(FormatFuzz, OnlyClearErrorEscapesAnyParserUnderAnAllocationCap) {
  const std::vector<Format> all = formats();
  ASSERT_EQ(all.size(), 13u);
  parse_dir() = temp_dir("parse");
  for (const Format& f : all) {
    SCOPED_TRACE(f.name);
    ASSERT_FALSE(f.seeds.empty()) << f.name;
    fuzz_in_capped_child(f);
  }
  fs::remove_all(parse_dir());
}

}  // namespace
}  // namespace clear
