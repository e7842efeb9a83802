#include "tensor/serialize.hpp"

namespace clear {

namespace {
constexpr std::uint32_t kMagic = 0x43545352;  // 'CTSR'
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kMaxRank = 8;
}  // namespace

void put_tensor(std::string& out, const Tensor& t) {
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, t.rank());
  for (std::size_t d = 0; d < t.rank(); ++d) put_u64(out, t.extent(d));
  put_f32s(out, t.data(), t.numel());
}

Tensor get_tensor(ByteCursor& in) {
  in.expect(in.u32("tensor magic") == kMagic, "tensor magic",
            "bad tensor magic");
  in.expect(in.u32("tensor version") == kVersion, "tensor version",
            "unsupported tensor version");
  const std::uint64_t rank = in.u64("tensor rank");
  in.expect(rank <= kMaxRank, "tensor rank", "implausible tensor rank");
  std::vector<std::size_t> shape(rank);
  // numel is bounded by the f32 words left after the extents at every
  // step, so the product can neither overflow nor promise more data than
  // the input holds.
  const std::uint64_t max_numel = in.remaining() / sizeof(float);
  std::uint64_t numel = rank == 0 ? 0 : 1;
  for (std::size_t& e : shape) {
    const std::uint64_t v = in.u64("tensor extent");
    if (v == 0 || v >= (std::uint64_t{1} << 32) || v > max_numel / numel)
      in.fail("tensor extent", "tensor extent " + std::to_string(v) +
                                   " is zero or exceeds the input");
    e = static_cast<std::size_t>(v);
    numel *= v;
  }
  std::vector<float> data(in.count(numel, sizeof(float), "tensor data"));
  in.f32s(data.data(), data.size(), "tensor data");
  return Tensor(std::move(shape), std::move(data));
}

}  // namespace clear
