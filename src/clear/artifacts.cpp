#include "clear/artifacts.hpp"

#include <filesystem>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/file.hpp"
#include "common/logging.hpp"

namespace clear::core {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMetaMagic = 0x434C4541524D4554ull;  // "CLEARMET"
// v1: raw field stream after the version word (no integrity check).
// v2: the CRC envelope (common/bytes) around the same field layout, so the
//     parser is shared.
constexpr std::uint64_t kMetaVersion = 2;

void put_index_vector(std::string& out, const std::vector<std::size_t>& v) {
  put_u64(out, v.size());
  for (const std::size_t x : v) put_u64(out, x);
}

std::vector<std::size_t> get_index_vector(ByteCursor& in) {
  std::vector<std::size_t> v(
      in.count(in.u64("index vector length"), 8, "index vector length"));
  for (std::size_t& x : v) x = in.u64("index");
  return v;
}

void put_meta_payload(std::string& out, const ClearConfig& config,
                      const ClearPipeline::State& state) {
  // Configuration needed to rebuild models and reproduce assignment.
  const nn::CnnLstmConfig& m = config.model;
  for (const std::size_t v : {m.feature_dim, m.window_count, m.conv1_channels,
                              m.conv2_channels, m.lstm_hidden, m.n_classes})
    put_u64(out, v);
  put_f64(out, m.dropout);
  put_u64(out, config.gc.k);
  put_u64(out, config.gc.sub_clusters);
  put_f64(out, config.ca_fraction);
  put_f64(out, config.ft_fraction);
  put_u64(out, config.seed);
  put_u64(out, config.finetune.epochs);
  put_f64(out, config.finetune.lr);
  put_u64(out, config.finetune.batch_size);
  // Fitted users.
  put_index_vector(out, state.users);
  // Normalizer moments.
  put_f64_vector(out, state.normalizer.mean());
  put_f64_vector(out, state.normalizer.stddev());
  // Clustering.
  put_index_vector(out, state.clustering.user_cluster);
  put_u64(out, state.clustering.clusters.size());
  for (const cluster::ClusterModel& c : state.clustering.clusters) {
    put_f64_vector(out, c.centroid);
    put_u64(out, c.sub_centroids.size());
    for (const cluster::Point& sc : c.sub_centroids) put_f64_vector(out, sc);
    put_index_vector(out, c.members);
  }
  put_u64(out, state.clustering.rounds_run);
  put_u64(out, state.clustering.converged ? 1 : 0);
}

void get_meta_payload(ByteCursor& in, ClearConfig& config,
                      ClearPipeline::State& state) {
  nn::CnnLstmConfig& m = config.model;
  for (std::size_t* v : {&m.feature_dim, &m.window_count, &m.conv1_channels,
                         &m.conv2_channels, &m.lstm_hidden, &m.n_classes})
    *v = in.u64("model config");
  m.dropout = in.f64("model dropout");
  config.gc.k = in.u64("gc.k");
  config.gc.sub_clusters = in.u64("gc.sub_clusters");
  config.ca_fraction = in.f64("ca_fraction");
  config.ft_fraction = in.f64("ft_fraction");
  config.seed = in.u64("seed");
  config.finetune.epochs = in.u64("finetune.epochs");
  config.finetune.lr = in.f64("finetune.lr");
  config.finetune.batch_size = in.u64("finetune.batch_size");
  // Keep the persisted model geometry (finalize() would overwrite it from
  // the default data config).
  config.data.windows_per_trial = config.model.window_count;

  state.users = get_index_vector(in);
  cluster::Point mean = in.f64_vector("normalizer mean");
  cluster::Point stddev = in.f64_vector("normalizer stddev");
  state.normalizer = features::FeatureNormalizer::from_moments(
      std::move(mean), std::move(stddev));
  state.clustering.user_cluster = get_index_vector(in);
  const std::uint64_t n_clusters = in.u64("cluster count");
  in.expect(n_clusters >= 1 && n_clusters < 256, "cluster count",
            "implausible cluster count");
  for (std::uint64_t k = 0; k < n_clusters; ++k) {
    cluster::ClusterModel c;
    c.centroid = in.f64_vector("centroid");
    const std::uint64_t n_sub = in.u64("sub-cluster count");
    in.expect(n_sub >= 1 && n_sub < 1024, "sub-cluster count",
              "implausible sub-cluster count");
    for (std::uint64_t i = 0; i < n_sub; ++i)
      c.sub_centroids.push_back(in.f64_vector("sub-centroid"));
    c.members = get_index_vector(in);
    state.clustering.clusters.push_back(std::move(c));
  }
  state.clustering.rounds_run = in.u64("rounds_run");
  state.clustering.converged = in.u64("converged") != 0;
}

/// Read a whole file, or return "" when it does not exist / cannot open.
std::string read_or_empty(const fs::path& path) {
  return read_file(path.string()).value_or(std::string());
}

/// Parse and CRC-verify <dir>/pipeline.meta into (config, state). Shared by
/// the full pipeline restore and the metadata-only serving load.
void read_meta_file(const fs::path& dir, ClearConfig& config,
                    ClearPipeline::State& state) {
  const fs::path path = dir / "pipeline.meta";
  const std::optional<std::string> bytes = read_file(path.string());
  CLEAR_CHECK_MSG(bytes.has_value(), "cannot open " << path.string());
  ByteCursor in(*bytes, "pipeline.meta");
  in.expect(in.u64("magic") == kMetaMagic, "magic",
            "bad pipeline.meta magic");
  const std::uint64_t version = in.u64("version");
  if (version == 1) {
    // Legacy format: raw field stream, no CRC. Parse errors are the only
    // corruption signal available.
    get_meta_payload(in, config, state);
    return;
  }
  if (version != kMetaVersion)
    in.fail("version",
            "unsupported pipeline.meta version " + std::to_string(version));
  ByteCursor payload(read_crc_envelope(in), "pipeline.meta");
  get_meta_payload(payload, config, state);
}

}  // namespace

void save_pipeline(ClearPipeline& pipeline, const std::string& directory) {
  CLEAR_CHECK_MSG(pipeline.fitted(), "cannot save an unfitted pipeline");
  const fs::path dir(directory);
  std::error_code ec;
  fs::create_directories(dir, ec);
  CLEAR_CHECK_MSG(!ec, "cannot create artifact directory: " << directory);

  ClearPipeline::State state = pipeline.export_state();
  const ClearConfig& config = pipeline.config();

  std::string meta;
  const std::size_t payload_at =
      begin_crc_envelope(meta, kMetaMagic, kMetaVersion);
  put_meta_payload(meta, config, state);
  end_crc_envelope(meta, payload_at);
  // Each file is written atomically; an injected IO failure before a
  // rename simulates a crashed writer leaving only the stale `.tmp`.
  write_file_atomic((dir / "pipeline.meta").string(), meta, "artifact");

  for (std::size_t k = 0; k < state.checkpoints.size(); ++k)
    write_file_atomic(
        (dir / ("cluster_" + std::to_string(k) + ".ckpt")).string(),
        state.checkpoints[k], "artifact");
  if (!state.general_checkpoint.empty())
    write_file_atomic((dir / "general.ckpt").string(),
                      state.general_checkpoint, "artifact");
}

ClearPipeline load_pipeline(const std::string& directory) {
  const fs::path dir(directory);
  ClearConfig config = default_config();
  ClearPipeline::State state;
  read_meta_file(dir, config, state);

  // Checkpoint blobs. A missing/unreadable file becomes an empty blob;
  // import_state() degrades it to the general fallback or throws.
  for (std::size_t k = 0; k < state.clustering.clusters.size(); ++k)
    state.checkpoints.push_back(
        read_or_empty(dir / ("cluster_" + std::to_string(k) + ".ckpt")));
  state.general_checkpoint = read_or_empty(dir / "general.ckpt");

  ClearPipeline pipeline(config);
  pipeline.import_state(std::move(state));
  if (!pipeline.fallback_clusters().empty())
    CLEAR_WARN("loaded " << directory << " degraded: "
                         << pipeline.fallback_clusters().size()
                         << " cluster(s) running the general model");
  return pipeline;
}

ArtifactMeta load_artifact_meta(const std::string& directory) {
  ClearConfig config = default_config();
  ClearPipeline::State state;
  read_meta_file(fs::path(directory), config, state);
  ArtifactMeta meta;
  meta.config = std::move(config);
  meta.users = std::move(state.users);
  meta.normalizer = std::move(state.normalizer);
  meta.clustering = std::move(state.clustering);
  return meta;
}

std::string read_cluster_checkpoint(const std::string& directory,
                                    std::size_t k) {
  fault::maybe_fail_io("checkpoint read");
  return read_or_empty(fs::path(directory) /
                       ("cluster_" + std::to_string(k) + ".ckpt"));
}

std::string read_general_checkpoint(const std::string& directory) {
  fault::maybe_fail_io("checkpoint read");
  return read_or_empty(fs::path(directory) / "general.ckpt");
}

}  // namespace clear::core
