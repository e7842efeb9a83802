#include "nn/checkpoint.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/file.hpp"
#include "tensor/serialize.hpp"

namespace clear::nn {

namespace {

constexpr std::uint64_t kCheckpointMagicV1 = 0x434C454152434B50ull;  // "CLEARCKP"
constexpr std::uint64_t kCheckpointVersion = 2;

/// payload := u64 count, count × (u64 name_len, name bytes, CTSR tensor).
/// Entries point at tensors their caller owns, so encoding a model's
/// weights copies them once, into the blob.
using EntryRef = std::pair<std::string_view, const Tensor*>;

std::string encode_entries(const std::vector<EntryRef>& entries,
                           CheckpointFormat format) {
  std::size_t estimate = 40;
  for (const auto& [name, value] : entries)
    estimate += 32 + name.size() + 8 * value->rank() +
                sizeof(float) * value->numel();
  std::string out;
  out.reserve(estimate);
  std::size_t payload_at = 0;
  if (format == CheckpointFormat::kLegacyV1)
    put_u64(out, kCheckpointMagicV1);
  else
    payload_at = begin_crc_envelope(out, kCheckpointMagicV2,
                                    kCheckpointVersion);
  put_u64(out, entries.size());
  for (const auto& [name, value] : entries) {
    put_blob64(out, name);
    put_tensor(out, *value);
  }
  if (format == CheckpointFormat::kCrcV2) end_crc_envelope(out, payload_at);
  return out;
}

/// Append up to `n` more bytes of `is` to `out`, stopping early at its end.
/// Reads in bounded chunks, so a hostile length costs no more memory than
/// the stream really holds.
void append_from(std::istream& is, std::uint64_t n, std::string& out) {
  constexpr std::uint64_t kChunk = 1u << 20;
  while (n > 0) {
    const std::size_t at = out.size();
    const auto want = static_cast<std::size_t>(std::min(n, kChunk));
    out.resize(at + want);
    is.read(out.data() + at, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is.gcount());
    out.resize(at + got);
    if (got < want) return;
    n -= got;
  }
}

}  // namespace

std::string encode_checkpoint(const std::vector<NamedTensor>& params,
                              CheckpointFormat format) {
  std::vector<EntryRef> entries;
  for (const NamedTensor& p : params) entries.emplace_back(p.name, &p.value);
  return encode_entries(entries, format);
}

std::vector<NamedTensor> decode_checkpoint(std::string_view blob,
                                           bool verify_crc) {
  ByteCursor in(blob, "checkpoint");
  const std::uint64_t magic = in.u64("magic");
  std::string_view payload;
  if (magic == kCheckpointMagicV1) {
    // Pre-integrity format: no length, no CRC. Parse errors are the only
    // corruption signal we can give.
    payload = blob.substr(in.pos());
  } else {
    in.expect(magic == kCheckpointMagicV2, "magic", "bad checkpoint magic");
    const std::uint64_t version = in.u64("version");
    if (version != kCheckpointVersion)
      in.fail("version",
              "unsupported checkpoint version " + std::to_string(version));
    payload = read_crc_envelope(in, verify_crc);
  }
  ByteCursor p(payload, "checkpoint payload");
  // Each entry holds at least a u64 name length and a 16-byte tensor head.
  const std::size_t count = p.count(p.u64("count"), 24, "count");
  std::vector<NamedTensor> out(count);
  for (NamedTensor& e : out) {
    e.name = std::string(p.blob64("parameter name"));
    e.value = get_tensor(p);
  }
  return out;
}

std::string checkpoint_blob(Sequential& model, CheckpointFormat format) {
  std::vector<EntryRef> entries;
  for (const Param* p : model.parameters())
    entries.emplace_back(p->name, &p->value);
  return encode_entries(entries, format);
}

void save_checkpoint(std::ostream& os, Sequential& model,
                     CheckpointFormat format) {
  const std::string blob = checkpoint_blob(model, format);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  CLEAR_CHECK_MSG(os.good(), "IO error writing checkpoint");
}

void save_checkpoint_file(const std::string& path, Sequential& model) {
  // The guarded rename is the commit point: an injected failure there
  // simulates a crash that leaves only the temp file behind.
  write_file_atomic(path, checkpoint_blob(model), "checkpoint");
}

void load_checkpoint_blob(std::string_view blob, Sequential& model) {
  std::vector<NamedTensor> entries = decode_checkpoint(blob);
  const std::vector<Param*> params = model.parameters();
  CLEAR_CHECK_MSG(entries.size() == params.size(),
                  "checkpoint parameter count mismatch: file has "
                      << entries.size() << ", model has " << params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param* p = params[i];
    NamedTensor& e = entries[i];
    CLEAR_CHECK_MSG(e.name == p->name, "checkpoint parameter name mismatch: "
                                           << e.name << " vs " << p->name);
    CLEAR_CHECK_MSG(e.value.same_shape(p->value),
                    "checkpoint shape mismatch for "
                        << e.name << ": " << e.value.shape_str() << " vs "
                        << p->value.shape_str());
    p->value = std::move(e.value);
  }
}

void load_checkpoint(std::istream& is, Sequential& model) {
  // One checkpoint and nothing after it: a v2 frame is its 24-byte head
  // (magic, version, payload_len), the payload and the 8-byte CRC footer.
  // A v1 blob has no length field, so it runs to the end of the stream.
  constexpr std::uint64_t kHead = 24;
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  std::string blob;
  append_from(is, kHead, blob);
  ByteCursor head(blob, "checkpoint");
  const std::uint64_t magic = blob.size() >= 8 ? head.u64("magic") : 0;
  if (magic == kCheckpointMagicV2 && blob.size() == kHead) {
    head.u64("version");
    const std::uint64_t len = head.u64("payload_len");
    append_from(is, len > kAll - 8 ? kAll : len + 8, blob);
  } else if (magic == kCheckpointMagicV1) {
    append_from(is, kAll, blob);
  }
  load_checkpoint_blob(blob, model);
}

void load_checkpoint_file(const std::string& path, Sequential& model) {
  const std::optional<std::string> blob = read_file(path);
  CLEAR_CHECK_MSG(blob.has_value(), "cannot open checkpoint: " << path);
  load_checkpoint_blob(*blob, model);
}

std::vector<Tensor> snapshot_parameters(Sequential& model) {
  std::vector<Tensor> snap;
  for (const Param* p : model.parameters()) snap.push_back(p->value);
  return snap;
}

void restore_parameters(Sequential& model, const std::vector<Tensor>& snap) {
  const std::vector<Param*> params = model.parameters();
  CLEAR_CHECK_MSG(params.size() == snap.size(),
                  "snapshot parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    CLEAR_CHECK_MSG(snap[i].same_shape(params[i]->value),
                    "snapshot shape mismatch");
    params[i]->value = snap[i];
  }
}

}  // namespace clear::nn
