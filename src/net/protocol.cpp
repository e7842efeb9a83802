#include "net/protocol.hpp"

#include <sstream>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace clear::net {

namespace {

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         t <= static_cast<std::uint8_t>(FrameType::kMetricsJson);
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kDrain: return "drain";
    case FrameType::kDrainAck: return "drain-ack";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kExport: return "export";
    case FrameType::kSessionImage: return "session-image";
    case FrameType::kImportAck: return "import-ack";
    case FrameType::kAdopt: return "adopt";
    case FrameType::kAdoptAck: return "adopt-ack";
    case FrameType::kMetricsPull: return "metrics-pull";
    case FrameType::kMetricsJson: return "metrics-json";
  }
  return "?";
}

const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadHeader: return "bad-header";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "?";
}

std::string encode_frame(FrameType type, const std::string& payload) {
  CLEAR_CHECK_MSG(payload.size() <= kMaxPayload,
                  "frame payload too large: " << payload.size());
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.append(payload);
  return out;
}

std::string encode_request(const WireRequest& request) {
  CLEAR_CHECK_MSG(request.map.rank() == 2,
                  "wire request map must be [F, W], got "
                      << request.map.shape_str());
  std::string p;
  const std::size_t f = request.map.extent(0);
  const std::size_t w = request.map.extent(1);
  p.reserve(44 + 4 * f * w);
  put_u64(p, request.request_id);
  put_u64(p, request.user_id);
  put_u64(p, request.arrival_us);
  put_f64(p, request.quality);
  put_i32(p, request.label.has_value() ? *request.label : -1);
  put_u32(p, static_cast<std::uint32_t>(f));
  put_u32(p, static_cast<std::uint32_t>(w));
  put_f32s(p, request.map.data(), request.map.numel());
  return encode_frame(FrameType::kRequest, p);
}

std::string encode_response(const WireResponse& response) {
  std::string p;
  p.reserve(72 + response.error.size());
  put_u64(p, response.request_id);
  put_u64(p, response.user_id);
  put_u32(p, response.shed ? 1 : 0);
  put_i32(p, response.predicted);
  put_f32(p, response.fear_probability);
  put_u32(p, response.session_state);
  put_u32(p, response.degraded ? 1 : 0);
  put_u32(p, response.route_kind);
  put_u64(p, response.route_id);
  put_u32(p, response.batch_rows);
  put_u64(p, response.arrival_us);
  put_u64(p, response.exec_us);
  put_blob32(p, response.error);
  return encode_frame(FrameType::kResponse, p);
}

std::string encode_drain() {
  return encode_frame(FrameType::kDrain, std::string());
}

std::string encode_drain_ack(const WireDrainAck& ack) {
  std::string p;
  p.reserve(24);
  put_u64(p, ack.requests);
  put_u64(p, ack.ok);
  put_u64(p, ack.shed);
  return encode_frame(FrameType::kDrainAck, p);
}

std::string encode_shutdown() {
  return encode_frame(FrameType::kShutdown, std::string());
}

std::string encode_ping(std::uint64_t nonce) {
  std::string p;
  put_u64(p, nonce);
  return encode_frame(FrameType::kPing, p);
}

std::string encode_pong(const WirePong& pong) {
  std::string p;
  put_u64(p, pong.nonce);
  put_u64(p, pong.sessions);
  return encode_frame(FrameType::kPong, p);
}

std::string encode_export(std::uint64_t user_id) {
  std::string p;
  put_u64(p, user_id);
  return encode_frame(FrameType::kExport, p);
}

std::string encode_session_image(const WireSessionImage& image) {
  std::string p;
  p.reserve(20 + image.image.size() + image.checkpoint.size());
  put_u64(p, image.user_id);
  put_u32(p, image.found ? 1 : 0);
  put_blob32(p, image.image);
  put_blob32(p, image.checkpoint);
  // encode_frame enforces kMaxPayload: a session image plus a smoke-scale
  // personal checkpoint is tens of KiB, far below the 1 MiB frame bound.
  return encode_frame(FrameType::kSessionImage, p);
}

std::string encode_import_ack(const WireImportAck& ack) {
  std::string p;
  p.reserve(16 + ack.error.size());
  put_u64(p, ack.user_id);
  put_u32(p, ack.ok ? 1 : 0);
  put_blob32(p, ack.error);
  return encode_frame(FrameType::kImportAck, p);
}

std::string encode_adopt(const std::string& journal_dir) {
  std::string p;
  p.reserve(4 + journal_dir.size());
  put_blob32(p, journal_dir);
  return encode_frame(FrameType::kAdopt, p);
}

std::string encode_adopt_ack(const WireAdoptAck& ack) {
  std::string p;
  p.reserve(24);
  put_u64(p, ack.sessions);
  put_u64(p, ack.personalized);
  put_u64(p, ack.failed);
  return encode_frame(FrameType::kAdoptAck, p);
}

std::string encode_metrics_pull() {
  return encode_frame(FrameType::kMetricsPull, std::string());
}

std::string encode_metrics_json(const std::string& json) {
  return encode_frame(FrameType::kMetricsJson, json);
}

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(max_payload) {}

void FrameDecoder::feed(const void* data, std::size_t n) {
  if (latched_ != DecodeStatus::kNeedMore) return;  // Framing already lost.
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), n);
}

DecodeStatus FrameDecoder::fail(DecodeStatus status, const std::string& why) {
  latched_ = status;
  std::ostringstream os;
  os << "frame " << frames_ << ": " << why;
  error_ = os.str();
  return status;
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (latched_ != DecodeStatus::kNeedMore) return latched_;
  if (buffered() < kHeaderSize) return DecodeStatus::kNeedMore;
  const char* h = buf_.data() + pos_;
  ByteCursor header(std::string_view(h, kHeaderSize), "frame header");
  const std::uint32_t magic = header.u32("magic");
  if (magic != kMagic) {
    std::ostringstream os;
    os << "bad magic 0x" << std::hex << magic << " (expected 0x" << kMagic
       << ")";
    return fail(DecodeStatus::kBadMagic, os.str());
  }
  const std::uint8_t version = header.u8("version");
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported version " << static_cast<int>(version) << " (speak "
       << static_cast<int>(kVersion) << ")";
    return fail(DecodeStatus::kBadVersion, os.str());
  }
  const std::uint8_t type = header.u8("type");
  if (!known_type(type)) {
    std::ostringstream os;
    os << "unknown frame type " << static_cast<int>(type);
    return fail(DecodeStatus::kBadHeader, os.str());
  }
  if (header.u16("reserved") != 0)
    return fail(DecodeStatus::kBadHeader, "reserved header bytes are nonzero");
  const std::uint32_t len = header.u32("payload length");
  if (len > max_payload_) {
    std::ostringstream os;
    os << "declared payload length " << len << " exceeds the bound "
       << max_payload_;
    return fail(DecodeStatus::kBadLength, os.str());
  }
  if (buffered() < kHeaderSize + len) return DecodeStatus::kNeedMore;

  const std::uint32_t declared_crc = header.u32("payload crc");
  const std::uint32_t actual_crc = crc32(h + kHeaderSize, len);
  if (declared_crc != actual_crc) {
    std::ostringstream os;
    os << "payload CRC mismatch: declared 0x" << std::hex << declared_crc
       << ", computed 0x" << actual_crc;
    return fail(DecodeStatus::kBadCrc, os.str());
  }

  out.type = static_cast<FrameType>(type);
  out.payload.assign(h + kHeaderSize, len);
  pos_ += kHeaderSize + len;
  ++frames_;
  return DecodeStatus::kFrame;
}

namespace {

/// Run one typed payload parser. The cursor throws an addressed
/// clear::Error at the first malformed field; the wire contract is a bool
/// plus that message, never a throw.
template <typename Parse>
bool parse_payload(const Frame& frame, FrameType type, std::string& error,
                   Parse parse) {
  if (frame.type != type) {
    error = std::string("expected a frame of type ") + frame_type_name(type) +
            ", got " + frame_type_name(frame.type);
    return false;
  }
  try {
    ByteCursor in(frame.payload, frame_type_name(type));
    parse(in);
    in.done();
    return true;
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
}

bool get_flag(ByteCursor& in, const char* field) {
  const std::uint32_t v = in.u32(field);
  if (v > 1) {
    std::ostringstream os;
    os << field << " must be 0 or 1; got " << v;
    in.fail(field, os.str());
  }
  return v == 1;
}

}  // namespace

bool parse_request(const Frame& frame, WireRequest& out, std::string& error) {
  return parse_payload(frame, FrameType::kRequest, error, [&](ByteCursor& in) {
    out.request_id = in.u64("request_id");
    out.user_id = in.u64("user_id");
    out.arrival_us = in.u64("arrival_us");
    out.quality = in.f64("quality");
    const std::int32_t label = in.i32("label");
    if (label < -1 || label > 1)
      in.fail("label", "label must be -1 (none), 0, or 1; got " +
                           std::to_string(label));
    out.label = label < 0 ? std::nullopt : std::optional<int>(label);
    const std::uint32_t rows = in.u32("rows");
    const std::uint32_t cols = in.u32("cols");
    in.expect(rows != 0 && cols != 0, "map",
              "map dimensions must be nonzero");
    // Bound cells by the bytes actually present before any size
    // arithmetic: rows*cols reaches 2^62, where 4*cells wraps modulo 2^64
    // and a short payload would masquerade as an astronomically sized map.
    const std::uint64_t cells =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    if (in.remaining() % 4 != 0 || cells != in.remaining() / 4) {
      std::ostringstream os;
      os << "map declared " << rows << "x" << cols << " (" << cells
         << " cells) but frame carries " << in.remaining() << " map byte(s)";
      in.fail("map", os.str());
    }
    out.map = Tensor({rows, cols});
    in.f32s(out.map.data(), out.map.numel(), "map");
  });
}

bool parse_response(const Frame& frame, WireResponse& out,
                    std::string& error) {
  return parse_payload(frame, FrameType::kResponse, error, [&](ByteCursor& in) {
    out.request_id = in.u64("request_id");
    out.user_id = in.u64("user_id");
    const std::uint32_t status = in.u32("status");
    if (status > 1)
      in.fail("status", "status must be 0 (ok) or 1 (shed); got " +
                            std::to_string(status));
    out.shed = status == 1;
    out.predicted = in.i32("predicted");
    out.fear_probability = in.f32("fear_probability");
    out.session_state = in.u32("session_state");
    out.degraded = get_flag(in, "degraded");
    out.route_kind = in.u32("route_kind");
    out.route_id = in.u64("route_id");
    out.batch_rows = in.u32("batch_rows");
    out.arrival_us = in.u64("arrival_us");
    out.exec_us = in.u64("exec_us");
    out.error = in.blob32("error");
  });
}

bool parse_drain_ack(const Frame& frame, WireDrainAck& out,
                     std::string& error) {
  return parse_payload(frame, FrameType::kDrainAck, error, [&](ByteCursor& in) {
    out.requests = in.u64("requests");
    out.ok = in.u64("ok");
    out.shed = in.u64("shed");
  });
}

bool parse_ping(const Frame& frame, std::uint64_t& nonce, std::string& error) {
  return parse_payload(frame, FrameType::kPing, error,
                       [&](ByteCursor& in) { nonce = in.u64("nonce"); });
}

bool parse_pong(const Frame& frame, WirePong& out, std::string& error) {
  return parse_payload(frame, FrameType::kPong, error, [&](ByteCursor& in) {
    out.nonce = in.u64("nonce");
    out.sessions = in.u64("sessions");
  });
}

bool parse_export(const Frame& frame, std::uint64_t& user_id,
                  std::string& error) {
  return parse_payload(frame, FrameType::kExport, error,
                       [&](ByteCursor& in) { user_id = in.u64("user_id"); });
}

bool parse_session_image(const Frame& frame, WireSessionImage& out,
                         std::string& error) {
  return parse_payload(
      frame, FrameType::kSessionImage, error, [&](ByteCursor& in) {
        out.user_id = in.u64("user_id");
        out.found = get_flag(in, "found");
        out.image = in.blob32("image");
        out.checkpoint = in.blob32("checkpoint");
        in.expect(!out.found || !out.image.empty(), "image",
                  "found session carries no image bytes");
      });
}

bool parse_import_ack(const Frame& frame, WireImportAck& out,
                      std::string& error) {
  return parse_payload(frame, FrameType::kImportAck, error, [&](ByteCursor& in) {
    out.user_id = in.u64("user_id");
    out.ok = get_flag(in, "ok");
    out.error = in.blob32("error");
  });
}

bool parse_adopt(const Frame& frame, std::string& journal_dir,
                 std::string& error) {
  return parse_payload(frame, FrameType::kAdopt, error, [&](ByteCursor& in) {
    journal_dir = in.blob32("journal_dir");
    in.expect(!journal_dir.empty(), "journal_dir",
              "adopt names an empty journal directory");
  });
}

bool parse_adopt_ack(const Frame& frame, WireAdoptAck& out,
                     std::string& error) {
  return parse_payload(frame, FrameType::kAdoptAck, error, [&](ByteCursor& in) {
    out.sessions = in.u64("sessions");
    out.personalized = in.u64("personalized");
    out.failed = in.u64("failed");
  });
}

bool parse_metrics_json(const Frame& frame, std::string& json,
                        std::string& error) {
  return parse_payload(frame, FrameType::kMetricsJson, error,
                       [&](ByteCursor& in) {
                         json = in.take(in.remaining(), "json");
                       });
}

}  // namespace clear::net
