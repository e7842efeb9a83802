#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace clear {
namespace {

TEST(Serialize, TensorRoundTrip) {
  Rng rng(1);
  Tensor t({3, 4, 5});
  t.fill_normal(rng, 0.0f, 2.0f);
  std::string bytes;
  put_tensor(bytes, t);
  ByteCursor in(bytes, "tensor");
  const Tensor u = get_tensor(in);
  ASSERT_TRUE(u.same_shape(t));
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u[i], t[i]);
}

TEST(Serialize, Rank1RoundTrip) {
  const Tensor t({4}, {1, 2, 3, 4});
  std::string bytes;
  put_tensor(bytes, t);
  ByteCursor in(bytes, "tensor");
  const Tensor u = get_tensor(in);
  EXPECT_EQ(u.rank(), 1u);
  EXPECT_EQ(u[2], 3.0f);
}

TEST(Serialize, MultipleTensorsSequential) {
  std::string bytes;
  put_tensor(bytes, Tensor({2}, {1, 2}));
  put_tensor(bytes, Tensor({3}, {3, 4, 5}));
  ByteCursor in(bytes, "tensors");
  EXPECT_EQ(get_tensor(in).numel(), 2u);
  EXPECT_EQ(get_tensor(in).numel(), 3u);
}

TEST(Serialize, BadMagicThrows) {
  ByteCursor in("garbagegarbage!!", "tensor");
  EXPECT_THROW(get_tensor(in), Error);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::string full;
  put_tensor(full, Tensor({100}));
  const std::string cut = full.substr(0, full.size() / 2);
  ByteCursor in(cut, "tensor");
  EXPECT_THROW(get_tensor(in), Error);
}

TEST(Serialize, StringRoundTrip) {
  std::string bytes;
  put_blob64(bytes, "hello world");
  put_blob64(bytes, "");
  ByteCursor in(bytes, "strings");
  EXPECT_EQ(in.blob64("first"), "hello world");
  EXPECT_EQ(in.blob64("second"), "");
}

TEST(Serialize, ScalarsRoundTrip) {
  std::string bytes;
  put_u64(bytes, 0xDEADBEEFCAFEull);
  put_f64(bytes, 3.14159);
  ByteCursor in(bytes, "scalars");
  EXPECT_EQ(in.u64("u64"), 0xDEADBEEFCAFEull);
  EXPECT_DOUBLE_EQ(in.f64("f64"), 3.14159);
}

}  // namespace
}  // namespace clear
