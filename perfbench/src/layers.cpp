#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "artifact/store.hpp"
#include "cluster/assignment.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "edge/cost_model.hpp"
#include "edge/finetune.hpp"
#include "features/feature_map.hpp"
#include "net/protocol.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "serve/delta.hpp"
#include "serve/journal.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using clear::Tensor;
using clear::edge::Precision;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const char* pname(Precision p) { return clear::edge::precision_name(p); }

std::unique_ptr<clear::edge::EdgeEngine> build_engine(
    const clear::serve::ModelSource& source, const std::string& blob,
    Precision precision) {
  clear::Rng rng(1);  // Weights are overwritten by the checkpoint.
  auto model = clear::nn::build_cnn_lstm(source.config.model, rng);
  std::istringstream is(blob, std::ios::binary);
  clear::nn::load_checkpoint(is, *model);
  clear::edge::EngineConfig ec;
  ec.precision = precision;
  return std::make_unique<clear::edge::EdgeEngine>(std::move(model), ec);
}

std::vector<Tensor> normalized(const LayerInputs& in,
                               const std::vector<Window>& windows) {
  std::vector<Tensor> out;
  for (const Window& w : windows) {
    Tensor m = in.dataset->samples()[w.sample].feature_map;
    in.source->normalizer.apply_map(m);
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<const Tensor*> pointers(const std::vector<Tensor>& maps) {
  std::vector<const Tensor*> out;
  for (const Tensor& m : maps) out.push_back(&m);
  return out;
}

}  // namespace

Metrics measure_layers(const LayerInputs& in) {
  Metrics m;
  const clear::serve::ModelSource& source = *in.source;
  const std::string cluster_blob = source.cluster_blob(0);
  std::vector<Tensor> calib = in.config->calibration_maps;
  const std::vector<const Tensor*> calib_ptrs = pointers(calib);
  std::vector<Tensor> maps;
  for (const auto& v : *in.volunteers)
    for (Tensor& t : normalized(in, v)) maps.push_back(std::move(t));
  const std::vector<const Tensor*> map_ptrs = pointers(maps);

  // edge: engine build, int8 calibration, forward at the run's batch sizes.
  {
    Scope span(in.ledger, "layer.edge", in.parent);
    double build_ms = 0.0;
    std::size_t builds = 0;
    for (const Precision p : in.config->precisions) {
      auto t0 = Clock::now();
      auto engine = build_engine(source, cluster_blob, p);
      build_ms += ms_since(t0);
      ++builds;
      if (p == Precision::kInt8) {
        t0 = Clock::now();
        engine->calibrate(calib_ptrs);
        m["edge.calibrate_ms"] = {ms_since(t0), "ms"};
      }
      const auto found = in.batches.find(p);
      std::vector<std::size_t> rows{1};
      if (found != in.batches.end() && !found->second.empty())
        rows = found->second;
      // At most 2000 batches, spread evenly over the run's list.
      const std::size_t step = std::max<std::size_t>(1, rows.size() / 2000);
      Tensor batch;
      std::vector<std::size_t> idx;
      double fwd_us = 0.0;
      std::size_t calls = 0, total_rows = 0;
      for (std::size_t i = 0; i < rows.size(); i += step) {
        const std::size_t n = rows[i];
        idx.clear();
        for (std::size_t r = 0; r < n; ++r)
          idx.push_back((i + r) % map_ptrs.size());
        clear::nn::stack_batch_into(map_ptrs, idx, batch);
        const auto f0 = Clock::now();
        const Tensor logits = engine->forward(batch);
        fwd_us += ms_since(f0) * 1e3;
        ++calls;
        total_rows += n;
      }
      m[std::string("edge.forward_us.") + pname(p)] = {
          fwd_us / static_cast<double>(calls), "us"};
      // Base: 2 flops per multiply-accumulate of the analytic cost model.
      const double flops =
          2.0 * clear::edge::model_inference_macs(source.config.model) *
          static_cast<double>(total_rows);
      m[std::string("edge.gflops.") + pname(p)] = {flops / (fwd_us * 1e3),
                                                   "GFLOP/s"};
    }
    m["edge.build_ms"] = {build_ms / static_cast<double>(builds), "ms"};
  }

  // edge fine-tuning exactly as the server runs it, per precision; the
  // results feed the delta encoder.
  std::vector<std::string> tuned;
  {
    Scope span(in.ledger, "layer.finetune", in.parent);
    const std::vector<Window>& v0 = in.volunteers->front();
    std::vector<Window> ft_windows(v0.begin(),
                                   v0.begin() + std::min(v0.size(), kFtMaps));
    const std::vector<Tensor> ft_maps = normalized(in, ft_windows);
    clear::nn::MapDataset data;
    for (std::size_t i = 0; i < ft_maps.size(); ++i) {
      data.maps.push_back(&ft_maps[i]);
      data.labels.push_back(ft_windows[i].truth > 0 ? 1 : 0);
    }
    for (const Precision p : in.config->precisions) {
      std::vector<double> times;
      for (int rep = 0; rep < 3; ++rep) {
        auto engine = build_engine(source, cluster_blob, p);
        if (p == Precision::kInt8) engine->calibrate(calib_ptrs);
        clear::edge::EdgeFinetuneConfig fc;
        fc.train = source.config.finetune;
        fc.train.seed = source.config.seed ^ 0x5EEDull ^
                        static_cast<std::uint64_t>(rep);
        fc.freeze_boundary = clear::nn::fine_tune_boundary();
        const auto t0 = Clock::now();
        clear::edge::edge_finetune(*engine, data, fc);
        times.push_back(ms_since(t0));
        if (rep == 0) {
          std::ostringstream os(std::ios::binary);
          clear::nn::save_checkpoint(os, engine->model());
          tuned.push_back(os.str());
        }
      }
      std::sort(times.begin(), times.end());
      m[std::string("edge.finetune_ms.") + pname(p)] = {times[1], "ms"};
    }
  }

  // delta: encode the fresh fine-tunes; decode and open what the run stored.
  {
    Scope span(in.ledger, "layer.delta", in.parent);
    double enc_ms = 0.0;
    for (const std::string& blob : tuned) {
      const auto t0 = Clock::now();
      const auto enc = clear::serve::delta::encode(
          cluster_blob,
          clear::serve::delta::BaseRef{
              clear::serve::delta::BaseRef::Kind::kCluster, 0},
          blob);
      enc_ms += ms_since(t0);
    }
    m["delta.encode_ms"] = {enc_ms / static_cast<double>(tuned.size()), "ms"};

    std::map<Precision, std::pair<double, std::size_t>> ratio;
    double dec_ms = 0.0, open_us = 0.0, write_ms = 0.0;
    std::size_t decoded = 0, written = 0;
    fs::create_directories(in.scratch_dir);
    for (const auto& entry : fs::directory_iterator(in.journal_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("user_", 0) != 0 || entry.path().extension() != ".ckpt")
        continue;
      const std::uint64_t user = std::stoull(name.substr(5));
      const std::string stored =
          clear::serve::read_user_checkpoint(in.journal_dir, user);
      const Precision p =
          in.config->precisions[user % in.config->precisions.size()];
      std::size_t full = stored.size();
      if (clear::serve::delta::is_delta(stored)) {
        auto t0 = Clock::now();
        const clear::artifact::Reader reader(stored);
        open_us += ms_since(t0) * 1e3;
        const clear::serve::delta::BaseRef ref =
            clear::serve::delta::base_of(stored);
        const std::string base =
            ref.kind == clear::serve::delta::BaseRef::Kind::kGeneral
                ? source.general_blob()
                : source.cluster_blob(static_cast<std::size_t>(ref.id));
        t0 = Clock::now();
        full = clear::serve::delta::decode(stored, base).size();
        dec_ms += ms_since(t0);
        ++decoded;
      }
      auto& [sum, count] = ratio[p];
      sum += static_cast<double>(full) / static_cast<double>(stored.size());
      ++count;
      if (written < 32) {
        const auto t0 = Clock::now();
        clear::serve::write_user_checkpoint(in.scratch_dir, user, stored,
                                            false);
        write_ms += ms_since(t0);
        ++written;
      }
    }
    const double d = static_cast<double>(std::max<std::size_t>(decoded, 1));
    m["delta.decode_ms"] = {dec_ms / d, "ms"};
    m["artifact.open_us"] = {open_us / d, "us"};
    m["journal.ckpt_write_ms"] = {
        write_ms / static_cast<double>(std::max<std::size_t>(written, 1)),
        "ms"};
    for (const Precision p : in.config->precisions) {
      const auto& [sum, count] = ratio[p];
      m[std::string("delta.ratio.") + pname(p)] = {
          count ? sum / static_cast<double>(count) : 0.0, "x"};
    }
  }

  // cluster: cold-start assignment from kCaWindows observations.
  {
    Scope span(in.ledger, "layer.cluster", in.parent);
    double us = 0.0;
    std::size_t calls = 0;
    std::vector<std::vector<clear::cluster::Point>> observations;
    std::size_t offset = 0;
    for (const auto& v : *in.volunteers) {
      auto& obs = observations.emplace_back();
      for (std::size_t k = 0; k < kCaWindows && k < v.size(); ++k)
        obs.push_back(clear::features::feature_map_mean(maps[offset + k]));
      offset += v.size();
    }
    for (int rep = 0; rep < 20; ++rep)
      for (const auto& obs : observations) {
        const auto t0 = Clock::now();
        const clear::cluster::AssignmentResult r =
            clear::cluster::assign_new_user(obs, source.clustering);
        us += ms_since(t0) * 1e3;
        ++calls;
        CLEAR_CHECK_MSG(r.cluster < source.n_clusters(),
                        "assignment outside the clustering");
      }
    m["cluster.assign_us"] = {us / static_cast<double>(calls), "us"};
  }

  // net: the protocol codec on the run's own requests.
  {
    Scope span(in.ledger, "layer.net", in.parent);
    double enc_us = 0.0, parse_us = 0.0;
    std::size_t n = 0;
    const std::vector<Sent>& sent = *in.sent;
    const std::size_t step = std::max<std::size_t>(1, sent.size() / 2000);
    for (std::size_t i = 0; i < sent.size(); i += step) {
      const Request& r = sent[i].request;
      clear::net::WireRequest w;
      w.request_id = r.request_id;
      w.user_id = r.user;
      w.arrival_us = sent[i].arrival_us;
      if (r.labelled) w.label = r.truth;
      w.map = in.dataset->samples()[r.sample].feature_map;
      auto t0 = Clock::now();
      const std::string bytes = clear::net::encode_request(w);
      enc_us += ms_since(t0) * 1e3;
      t0 = Clock::now();
      clear::net::FrameDecoder decoder;
      decoder.feed(bytes.data(), bytes.size());
      clear::net::Frame frame;
      clear::net::WireRequest back;
      std::string error;
      const bool ok =
          decoder.next(frame) == clear::net::DecodeStatus::kFrame &&
          clear::net::parse_request(frame, back, error);
      parse_us += ms_since(t0) * 1e3;
      CLEAR_CHECK_MSG(ok && back.request_id == w.request_id,
                      "request frame does not round-trip: " << error);
      ++n;
    }
    const double calls = static_cast<double>(std::max<std::size_t>(n, 1));
    m["net.encode_us"] = {enc_us / calls, "us"};
    m["net.parse_us"] = {parse_us / calls, "us"};
  }
  return m;
}

}  // namespace perfbench
