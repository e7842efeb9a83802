#include "common/bytes.hpp"

#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace clear {

void ByteCursor::fail(const char* field, const std::string& why) const {
  std::ostringstream os;
  os << format_ << ": " << field << " at offset " << pos_ << ": " << why;
  throw Error(os.str());
}

void ByteCursor::fail(const char* field, Why why, std::uint64_t n) const {
  std::ostringstream os;
  switch (why) {
    case Why::kTruncated:
      os << "truncated " << format_ << ": " << field << " needs " << n
         << " byte(s) at offset " << pos_ << ", " << remaining() << " left";
      break;
    case Why::kCount:
      os << format_ << ": " << field << " at offset " << pos_ << ": count "
         << n << " exceeds the " << remaining() << " byte(s) left";
      break;
    case Why::kTrailing:
      os << format_ << ": " << n << " trailing byte(s) at offset " << pos_;
      break;
  }
  throw Error(os.str());
}

std::size_t begin_crc_envelope(std::string& out, std::uint64_t magic,
                               std::uint64_t version) {
  put_u64(out, magic);
  put_u64(out, version);
  put_u64(out, 0);  // payload_len, patched by end_crc_envelope
  return out.size();
}

void end_crc_envelope(std::string& out, std::size_t payload_at) {
  const std::uint64_t length = out.size() - payload_at;
  patch_le(out, payload_at - sizeof(length), length);
  put_u64(out, crc32(out.data() + payload_at, length));
}

std::string_view read_crc_envelope(ByteCursor& in, bool verify_crc) {
  const std::string_view payload = in.blob64("payload");
  in.expect(in.remaining() >= 8, "CRC footer", "missing CRC footer");
  const std::uint64_t stored = in.u64("CRC footer");
  if (verify_crc) {
    const std::uint32_t computed = crc32(payload.data(), payload.size());
    if (stored != computed) {
      std::ostringstream os;
      os << "CRC mismatch: stored " << stored << ", computed " << computed;
      in.fail("CRC footer", os.str());
    }
  }
  return payload;
}

}  // namespace clear
