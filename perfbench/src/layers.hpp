// Outside-in per-layer timings of a traced run: the benchmark calls each
// module's public functions on the run's own inputs (its frames, its batch
// compositions, its stored checkpoints) and times the calls. Nothing inside
// src/ is instrumented.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "metrics.hpp"
#include "serve/server.hpp"
#include "stream.hpp"
#include "wemac/dataset.hpp"
#include "wire.hpp"

namespace perfbench {

struct LayerInputs {
  const clear::serve::ModelSource* source = nullptr;
  const clear::serve::ServeConfig* config = nullptr;
  const clear::wemac::WemacDataset* dataset = nullptr;
  const std::vector<std::vector<Window>>* volunteers = nullptr;
  const std::vector<Sent>* sent = nullptr;  ///< The run's timed requests.
  /// Rows of every batch the run's OK responses rode in, by precision, one
  /// entry per batch (a batch of n rows answers n responses).
  std::map<clear::edge::Precision, std::vector<std::size_t>> batches;
  std::string journal_dir;   ///< The run's live journal (checkpoints).
  std::string scratch_dir;   ///< Where checkpoint writes may go.
  Ledger* ledger = nullptr;
  int parent = -1;
};

/// edge.*, cluster.assign_us, delta.* (timings), artifact.open_us,
/// journal.ckpt_write_ms, net.encode_us and net.parse_us.
Metrics measure_layers(const LayerInputs& in);

}  // namespace perfbench
