// The one byte codec behind every wire and on-disk format: a little-endian
// append writer (the put_* functions) and a bounds-checked std::string_view
// cursor (ByteCursor). docs/FORMATS.md states the decoder rules this file
// implements; every format parser in src/ reads through ByteCursor.
//
// Decoder rules, enforced here so no format re-implements them:
//   * Every bounds check is overflow-free: a read of n bytes at `pos` is
//     checked as `n > size - pos`, never `pos + n > size`, so a hostile
//     length near 2^64 cannot wrap around.
//   * A count read from the input must fit in the bytes that remain
//     (count × minimum element size) before anything is reserved or
//     allocated for it — count(), blob32(), blob64().
//   * Every failure throws clear::Error naming the format, the field and
//     the byte offset: "<format>: <field> at offset N: <why>".
//
// Integers and floats are little-endian at their natural width; floats
// move as IEEE-754 bit patterns, so encode then decode is the identity on
// every value, NaN payloads included.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace clear {

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies little-endian words with memcpy");

// -- Writer ------------------------------------------------------------------

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

template <typename T>
inline void put_le(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
inline void put_i32(std::string& out, std::int32_t v) { put_le(out, v); }
inline void put_f32(std::string& out, float v) { put_le(out, v); }
inline void put_f64(std::string& out, double v) { put_le(out, v); }

/// Overwrite a placeholder appended earlier at `at` — lengths and CRCs
/// known only once the payload behind them is written.
template <typename T>
inline void patch_le(std::string& out, std::size_t at, T v) {
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// `n` floats as consecutive f32 words (one bulk copy).
inline void put_f32s(std::string& out, const float* v, std::size_t n) {
  out.append(reinterpret_cast<const char*>(v), n * sizeof(float));
}

/// `u64 count`, then that many f64 words: a cluster::Point, a normalizer
/// row.
inline void put_f64_vector(std::string& out, const std::vector<double>& v) {
  put_u64(out, v.size());
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(double));
}

/// Length-prefixed byte strings: `u32 len` / `u64 len`, then the bytes.
inline void put_blob32(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}
inline void put_blob64(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

// -- Cursor ------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte view. Reads advance the
/// cursor; the view must outlive it. `format` names the bytes in every
/// error ("journal record", "pipeline.meta", ...).
class ByteCursor {
 public:
  ByteCursor(std::string_view bytes, const char* format)
      : bytes_(bytes), format_(format) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  /// The next `n` bytes as a view into the input.
  std::string_view take(std::size_t n, const char* field) {
    need(n, field);
    const std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  std::uint8_t u8(const char* field) { return le<std::uint8_t>(field); }
  std::uint16_t u16(const char* field) { return le<std::uint16_t>(field); }
  std::uint32_t u32(const char* field) { return le<std::uint32_t>(field); }
  std::uint64_t u64(const char* field) { return le<std::uint64_t>(field); }
  std::int32_t i32(const char* field) { return le<std::int32_t>(field); }
  float f32(const char* field) { return le<float>(field); }
  double f64(const char* field) { return le<double>(field); }

  /// Copy `n` f32 words into `out` (one bulk copy). The caller has already
  /// bounded `n` (count()); the read itself is checked again here.
  void f32s(float* out, std::size_t n, const char* field) {
    need_elements(n, sizeof(float), field);
    if (n == 0) return;  // `out` may be null; memcpy must not see it.
    std::memcpy(out, bytes_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
  }

  /// `u64 count`, then that many f64 words (put_f64_vector); the count is
  /// checked against the bytes left before the vector is sized.
  std::vector<double> f64_vector(const char* field) {
    std::vector<double> v(count(u64(field), sizeof(double), field));
    if (!v.empty()) {
      std::memcpy(v.data(), bytes_.data() + pos_, v.size() * sizeof(double));
      pos_ += v.size() * sizeof(double);
    }
    return v;
  }

  /// A count read from the input, checked against the bytes that remain:
  /// `n` elements of at least `min_element_bytes` (> 0) each must fit, so
  /// a caller may reserve `n` elements without trusting the input.
  std::size_t count(std::uint64_t n, std::size_t min_element_bytes,
                    const char* field) {
    need_elements(n, min_element_bytes, field);
    return static_cast<std::size_t>(n);
  }

  /// `u32 len` / `u64 len` followed by that many bytes.
  std::string_view blob32(const char* field) {
    return take(u32(field), field);
  }
  std::string_view blob64(const char* field) {
    const std::uint64_t n = u64(field);
    if (n > remaining()) fail(field, Why::kTruncated, n);
    return take(static_cast<std::size_t>(n), field);
  }

  /// Throw unless every byte was consumed.
  void done() const {
    if (remaining() != 0) fail("end", Why::kTrailing, remaining());
  }

  /// Throw an addressed clear::Error unless `ok` (semantic field checks).
  /// `why` is a literal so a passing check allocates nothing; build a
  /// formatted message only on the failure path, through fail().
  void expect(bool ok, const char* field, const char* why) const {
    if (!ok) fail(field, why);
  }

  /// "<format>: <field> at offset <pos>: <why>".
  [[noreturn]] void fail(const char* field, const std::string& why) const;

 private:
  enum class Why { kTruncated, kCount, kTrailing };

  template <typename T>
  T le(const char* field) {
    need(sizeof(T), field);
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n, const char* field) const {
    if (n > bytes_.size() - pos_) fail(field, Why::kTruncated, n);
  }

  void need_elements(std::uint64_t n, std::size_t element_bytes,
                     const char* field) const {
    if (n > (bytes_.size() - pos_) / element_bytes)
      fail(field, Why::kCount, n);
  }

  [[noreturn]] void fail(const char* field, Why why, std::uint64_t n) const;

  std::string_view bytes_;
  const char* format_;
  std::size_t pos_ = 0;
};

// -- CRC envelope ------------------------------------------------------------
//
// [u64 magic][u64 version][u64 payload_len][payload][u64 crc32(payload)]:
// the frame shared by nn checkpoints (v2) and pipeline.meta (v2).

/// Append magic, version and a length placeholder; returns where the
/// payload starts. Append the payload, then call end_crc_envelope().
std::size_t begin_crc_envelope(std::string& out, std::uint64_t magic,
                               std::uint64_t version);
/// Patch the payload length and append the CRC footer.
void end_crc_envelope(std::string& out, std::size_t payload_at);

/// Read payload_len, payload and footer after the caller consumed magic and
/// version; returns the payload. `verify_crc` false skips the CRC pass (the
/// footer must still be present).
std::string_view read_crc_envelope(ByteCursor& in, bool verify_crc = true);

}  // namespace clear
