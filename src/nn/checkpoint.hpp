// Checkpointing: save / restore the parameter values of a model.
//
// The format stores (name, tensor) pairs in parameter order. Loading
// validates count, names, and shapes against the destination model, so a
// checkpoint can only be restored into an architecturally identical network
// — exactly the contract the CLEAR pipeline needs when shipping per-cluster
// "best checkpoints" to the edge.
//
// Integrity (format v2, the default): the (name, tensor) payload is wrapped
// in a versioned header with its byte length and a CRC-32 footer, so storage
// faults surface as precise errors instead of silently wrong weights:
//   * short file            -> "truncated checkpoint"
//   * bit flip anywhere     -> "checkpoint CRC mismatch" (or a header error)
//   * wrong architecture    -> name/shape/count mismatch (payload parse)
// Legacy v1 checkpoints (unversioned, no CRC) still load. File saves are
// atomic: the blob is written to `<path>.tmp` and renamed into place, so a
// crashed writer can never leave a half-written checkpoint at `path`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nn/sequential.hpp"

namespace clear::nn {

/// On-disk checkpoint flavor. kCrcV2 is the default; kLegacyV1 exists so
/// tests can produce pre-integrity-era files.
enum class CheckpointFormat { kLegacyV1, kCrcV2 };

/// Leading u64 of a v2 blob ("CLEARCK2"); the delta codec sniffs it.
inline constexpr std::uint64_t kCheckpointMagicV2 = 0x434C454152434B32ull;

/// Serialize all parameter values of `model` to a binary stream/file.
void save_checkpoint(std::ostream& os, Sequential& model,
                     CheckpointFormat format = CheckpointFormat::kCrcV2);
void save_checkpoint_file(const std::string& path, Sequential& model);
/// The bytes save_checkpoint writes.
std::string checkpoint_blob(Sequential& model,
                            CheckpointFormat format = CheckpointFormat::kCrcV2);

/// Restore parameter values in place (accepts v1 and v2 blobs). Throws
/// clear::Error on any mismatch, truncation, or CRC failure. The stream
/// form reads exactly one v2 checkpoint and leaves what follows it in the
/// stream; a v1 checkpoint, which has no length field, is read to EOF.
void load_checkpoint(std::istream& is, Sequential& model);
void load_checkpoint_file(const std::string& path, Sequential& model);
void load_checkpoint_blob(std::string_view blob, Sequential& model);

// -- The codec without a model (the serve-side delta store) -----------------

/// One (name, tensor) entry of a checkpoint payload.
struct NamedTensor {
  std::string name;
  Tensor value;
};

/// The checkpoint blob of `params`, in parameter order.
std::string encode_checkpoint(const std::vector<NamedTensor>& params,
                              CheckpointFormat format = CheckpointFormat::kCrcV2);

/// Every entry of a v1 or v2 blob. `verify_crc` false skips the v2 payload
/// CRC pass — only for callers whose own end-to-end check still catches a
/// corrupt input.
std::vector<NamedTensor> decode_checkpoint(std::string_view blob,
                                           bool verify_crc = true);

/// In-memory snapshot of parameter values (used to keep the best epoch).
std::vector<Tensor> snapshot_parameters(Sequential& model);
void restore_parameters(Sequential& model, const std::vector<Tensor>& snap);

}  // namespace clear::nn
