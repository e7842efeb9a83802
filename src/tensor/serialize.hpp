// The CTSR tensor codec: one tensor inside checkpoints (src/nn), journal
// records and session images (src/serve), and the dataset cache
// (src/wemac). Built on the shared byte codec (src/common/bytes).
//
// Wire format (little-endian):
//   u32 magic 'CTSR', u32 version, u64 rank, u64 extents[rank], f32 data[...]
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "tensor/tensor.hpp"

namespace clear {

/// Append one tensor.
void put_tensor(std::string& out, const Tensor& t);

/// Read one tensor. Throws an addressed clear::Error on malformed input —
/// including extents whose element count exceeds the bytes that remain,
/// checked before anything is allocated.
Tensor get_tensor(ByteCursor& in);

}  // namespace clear
