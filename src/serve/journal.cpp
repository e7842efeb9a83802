#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/file.hpp"
#include "tensor/serialize.hpp"

namespace clear::serve {

namespace fs = std::filesystem;

namespace {

// 8-byte file magics: a 6-byte prefix ("CLRWAL" for the log, "CLRSNP" for
// snapshots) plus two ASCII digits echoing the on-disk format version.
// v2 ("CLRWAL02"/"CLRSNP02") added the online-adaptation record kinds
// and session/counter fields; v1 files are still read (their drift fields
// default to zero), while a v1 reader refuses a v2 file wholesale at the
// header — which is exactly how pre-v2 binaries fail cleanly on the new
// record kinds.
constexpr char kJournalMagicPrefix[6] = {'C', 'L', 'R', 'W', 'A', 'L'};
constexpr char kSnapshotMagicPrefix[6] = {'C', 'L', 'R', 'S', 'N', 'P'};
constexpr std::uint64_t kFormatVersion = kJournalFormatVersion;
constexpr std::uint64_t kMinFormatVersion = kJournalMinFormatVersion;
/// Sanity cap on one record's payload: a labelled 17x6 map is ~500 bytes,
/// so anything near this is a corrupt length field, not a real record.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

SessionState get_state(ByteCursor& in, std::uint64_t version) {
  const std::uint64_t raw = in.u64("session state");
  // v1 predates the adaptation states, so 6/7 in a v1 file is corruption.
  const std::uint64_t bound = static_cast<std::uint64_t>(
      version >= 2 ? SessionState::kShadowing : SessionState::kDegraded);
  if (raw > bound) {
    in.fail("session state", "invalid session state " + std::to_string(raw) +
                                 " in a v" + std::to_string(version) +
                                 " file");
  }
  return static_cast<SessionState>(raw);
}

void put_label(std::string& out, std::int64_t label) {
  put_u64(out, static_cast<std::uint64_t>(label));
}

std::int64_t get_label(ByteCursor& in) {
  return static_cast<std::int64_t>(in.u64("label"));
}

void encode_record(std::string& out, const JournalRecord& r) {
  put_u64(out, r.seq);
  put_u64(out, static_cast<std::uint64_t>(r.type));
  put_u64(out, r.user_id);
  switch (r.type) {
    case RecordType::kRequest:
      put_u64(out, r.time_us);
      put_f64(out, r.quality);
      break;
    case RecordType::kObservation:
    case RecordType::kReassessObs:
      put_f64_vector(out, r.point);
      break;
    case RecordType::kAssign:
    case RecordType::kReassign:
    case RecordType::kPromote:
      put_u64(out, r.cluster);
      break;
    case RecordType::kLabelled:
      put_label(out, r.label);
      put_tensor(out, r.map);
      break;
    case RecordType::kFinetune:
      put_u64(out, r.ckpt_bytes);
      put_u64(out, r.ckpt_crc);
      break;
    case RecordType::kShed:
      put_u64(out, (r.shed_charged ? 1u : 0u) | (r.shed_unadmitted ? 2u : 0u));
      break;
    case RecordType::kPredict:
      put_u64(out, r.time_us);
      break;
    case RecordType::kDriftTick:
      put_u64(out, r.drifting ? 1u : 0u);
      break;
    case RecordType::kShadowTick:
      put_u64(out, r.shadow_won ? 1u : 0u);
      break;
    case RecordType::kFinetuneAbort:
    case RecordType::kDemote:
      break;
    case RecordType::kUnknown:
      CLEAR_CHECK_MSG(false, "kUnknown is a read-side sentinel, never written");
      break;
  }
}

/// Bytes after the fields a record kind defines are ignored, so a newer
/// writer may append fields to a known kind.
JournalRecord decode_record(std::string_view payload) {
  ByteCursor in(payload, "journal record");
  JournalRecord r;
  r.seq = in.u64("seq");
  const std::uint64_t type = in.u64("kind");
  r.user_id = in.u64("user_id");
  if (type < 1 || type > static_cast<std::uint64_t>(RecordType::kDemote)) {
    // A CRC-intact frame of a kind this reader does not know (written by a
    // newer format). The (seq, type, user_id) prefix is stable across
    // versions, so the session it names can be quarantined — keep reading
    // rather than distrusting every record after it.
    r.type = RecordType::kUnknown;
    r.raw_kind = type;
    return r;
  }
  r.type = static_cast<RecordType>(type);
  switch (r.type) {
    case RecordType::kRequest:
      r.time_us = in.u64("time_us");
      r.quality = in.f64("quality");
      break;
    case RecordType::kObservation:
    case RecordType::kReassessObs:
      r.point = in.f64_vector("point");
      break;
    case RecordType::kAssign:
    case RecordType::kReassign:
    case RecordType::kPromote:
      r.cluster = in.u64("cluster");
      break;
    case RecordType::kLabelled:
      r.label = static_cast<std::int32_t>(get_label(in));
      r.map = get_tensor(in);
      break;
    case RecordType::kFinetune:
      r.ckpt_bytes = in.u64("ckpt_bytes");
      r.ckpt_crc = static_cast<std::uint32_t>(in.u64("ckpt_crc"));
      break;
    case RecordType::kShed: {
      const std::uint64_t flags = in.u64("shed flags");
      r.shed_charged = (flags & 1) != 0;
      r.shed_unadmitted = (flags & 2) != 0;
      break;
    }
    case RecordType::kPredict:
      r.time_us = in.u64("time_us");
      break;
    case RecordType::kDriftTick:
      r.drifting = in.u64("drifting") != 0;
      break;
    case RecordType::kShadowTick:
      r.shadow_won = in.u64("shadow_won") != 0;
      break;
    case RecordType::kFinetuneAbort:
    case RecordType::kDemote:
    case RecordType::kUnknown:
      break;
  }
  return r;
}

void put_image(std::string& out, const SessionImage& img) {
  put_u64(out, img.user_id);
  put_u64(out, static_cast<std::uint64_t>(img.state));
  put_u64(out, static_cast<std::uint64_t>(img.saved_state));
  put_u64(out, img.bad_streak);
  put_u64(out, img.good_streak);
  put_u64(out, img.cluster);
  put_u64(out, img.observations.size());
  for (const cluster::Point& p : img.observations) put_f64_vector(out, p);
  put_u64(out, img.labelled.size());
  for (const LabelledMap& m : img.labelled) {
    put_label(out, m.label);
    put_tensor(out, m.map);
  }
  put_u64(out, img.finetune_enabled ? 1 : 0);
  put_u64(out, img.requests);
  put_u64(out, img.shed);
  put_u64(out, img.predictions);
  put_u64(out, img.first_arrival_us);
  put_u64(out, img.first_prediction_us.has_value() ? 1 : 0);
  put_u64(out, img.first_prediction_us.value_or(0));
  put_u64(out, img.has_personal ? 1 : 0);
  // v2: online-adaptation bookkeeping.
  put_u64(out, img.drift_streak);
  put_u64(out, static_cast<std::uint64_t>(img.reassess_from));
  put_u64(out, img.candidate_cluster);
  put_u64(out, img.shadow_wins);
  put_u64(out, img.shadow_seen);
}

SessionImage get_image(ByteCursor& in, std::uint64_t version) {
  SessionImage img;
  img.user_id = in.u64("user_id");
  img.state = get_state(in, version);
  img.saved_state = get_state(in, version);
  img.bad_streak = in.u64("bad_streak");
  img.good_streak = in.u64("good_streak");
  img.cluster = in.u64("cluster");
  // An observation is at least its u64 size; a labelled map at least its
  // u64 label plus a 16-byte tensor head.
  img.observations.resize(
      in.count(in.u64("observation count"), 8, "observation count"));
  for (cluster::Point& p : img.observations) p = in.f64_vector("observation");
  img.labelled.resize(
      in.count(in.u64("labelled-map count"), 24, "labelled-map count"));
  for (LabelledMap& m : img.labelled) {
    m.label = static_cast<int>(get_label(in));
    m.map = get_tensor(in);
  }
  img.finetune_enabled = in.u64("finetune_enabled") != 0;
  img.requests = in.u64("requests");
  img.shed = in.u64("shed");
  img.predictions = in.u64("predictions");
  img.first_arrival_us = in.u64("first_arrival_us");
  const bool has_first_pred = in.u64("has_first_prediction") != 0;
  const std::uint64_t first_pred = in.u64("first_prediction_us");
  if (has_first_pred) img.first_prediction_us = first_pred;
  img.has_personal = in.u64("has_personal") != 0;
  if (version >= 2) {
    img.drift_streak = in.u64("drift_streak");
    img.reassess_from = get_state(in, version);
    img.candidate_cluster = in.u64("candidate_cluster");
    img.shadow_wins = in.u64("shadow_wins");
    img.shadow_seen = in.u64("shadow_seen");
  }
  return img;
}

/// The snapshot counters in on-disk order; v1 files stop after the first
/// kV1Counters (the rest are the v2 online-adaptation counters).
constexpr std::size_t kV1Counters = 9;
std::array<std::uint64_t*, 16> counter_fields(SnapshotCounters& c) {
  return {&c.requests,     &c.ok,           &c.shed,
          &c.assignments,  &c.finetunes,    &c.finetune_failures,
          &c.sanitized,    &c.degraded,     &c.recovered,
          &c.drift_ticks,  &c.drift_detected, &c.reassessments,
          &c.drift_false_alarms, &c.shadow_ticks, &c.promotions,
          &c.demotions};
}

void encode_snapshot(std::string& out, const SnapshotData& data) {
  put_u64(out, data.last_seq);
  put_u64(out, data.last_arrival_us);
  SnapshotCounters counters = data.counters;
  for (const std::uint64_t* c : counter_fields(counters)) put_u64(out, *c);
  put_u64(out, data.sessions.size());
  for (const SessionImage& img : data.sessions) put_image(out, img);
}

SnapshotData decode_snapshot(std::string_view payload, std::uint64_t version) {
  ByteCursor in(payload, "snapshot");
  SnapshotData data;
  data.last_seq = in.u64("last_seq");
  data.last_arrival_us = in.u64("last_arrival_us");
  const auto counters = counter_fields(data.counters);
  for (std::size_t i = 0; i < (version >= 2 ? counters.size() : kV1Counters);
       ++i)
    *counters[i] = in.u64("counter");
  // A session image is at least its sixteen v1 u64 fields.
  const std::size_t n = in.count(in.u64("session count"), 16 * 8,
                                 "session count");
  data.sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    data.sessions.push_back(get_image(in, version));
  return data;
}

/// Write every byte or throw (retrying EINTR); one call site per frame so a
/// record hits the kernel in a single write() whenever the OS allows.
void write_all(int fd, const char* data, std::size_t n, const char* what) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      CLEAR_CHECK_MSG(false, what << " failed: " << std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

/// " (this reader supports v1-v2)".
std::string supported_versions() {
  return " (this reader supports v" + std::to_string(kMinFormatVersion) +
         "-v" + std::to_string(kFormatVersion) + ")";
}

/// The 8-byte magic for a format version: 6-byte prefix + 2 ASCII digits.
std::string magic_bytes(const char (&prefix)[6], std::uint64_t version) {
  std::string m(prefix, sizeof(prefix));
  m.push_back(static_cast<char>('0' + (version / 10) % 10));
  m.push_back(static_cast<char>('0' + version % 10));
  return m;
}

std::string header_bytes(std::uint64_t version) {
  std::string h = magic_bytes(kJournalMagicPrefix, version);
  put_u32(h, static_cast<std::uint32_t>(version));
  put_u32(h, 0);  // Reserved; keeps the header at 16 bytes.
  return h;
}

}  // namespace

const char* record_type_name(RecordType t) {
  switch (t) {
    case RecordType::kUnknown: return "unknown";
    case RecordType::kRequest: return "request";
    case RecordType::kObservation: return "observation";
    case RecordType::kAssign: return "assign";
    case RecordType::kLabelled: return "labelled";
    case RecordType::kFinetune: return "finetune";
    case RecordType::kFinetuneAbort: return "finetune_abort";
    case RecordType::kShed: return "shed";
    case RecordType::kPredict: return "predict";
    case RecordType::kDriftTick: return "drift_tick";
    case RecordType::kReassessObs: return "reassess_obs";
    case RecordType::kReassign: return "reassign";
    case RecordType::kShadowTick: return "shadow_tick";
    case RecordType::kPromote: return "promote";
    case RecordType::kDemote: return "demote";
  }
  return "?";
}

std::string journal_log_path(const std::string& directory) {
  return (fs::path(directory) / "journal.log").string();
}

std::string snapshot_path(const std::string& directory) {
  return (fs::path(directory) / "snapshot.snap").string();
}

std::string user_checkpoint_path(const std::string& directory,
                                 std::uint64_t user_id) {
  return (fs::path(directory) / ("user_" + std::to_string(user_id) + ".ckpt"))
      .string();
}

bool journal_state_exists(const std::string& directory) {
  std::error_code ec;
  return fs::exists(journal_log_path(directory), ec) ||
         fs::exists(snapshot_path(directory), ec);
}

Journal::Journal(JournalConfig config, std::uint64_t first_seq)
    : config_(std::move(config)), next_seq_(first_seq) {
  CLEAR_CHECK_MSG(!config_.directory.empty(), "journal directory is empty");
  CLEAR_CHECK_MSG(first_seq >= 1, "journal sequence numbers start at 1");
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  CLEAR_CHECK_MSG(!ec, "cannot create journal directory "
                           << config_.directory << ": " << ec.message());
  open_truncated();
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::open_truncated() {
  fault::maybe_fail_journal_io("journal open");
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(journal_log_path(config_.directory).c_str(),
               O_WRONLY | O_CREAT | O_TRUNC, 0644);
  CLEAR_CHECK_MSG(fd_ >= 0, "cannot open " << journal_log_path(
                                                  config_.directory)
                                           << ": " << std::strerror(errno));
  const std::string header = header_bytes(kFormatVersion);
  write_all(fd_, header.data(), header.size(), "journal header write");
  since_snapshot_ = 0;
}

std::size_t Journal::append(JournalRecord record) {
  CLEAR_CHECK_MSG(fd_ >= 0, "journal is not open");
  fault::maybe_fail_journal_io("journal append");
  record.seq = next_seq_;
  // [u32 len][u32 crc32(payload)][payload], built in place.
  std::string frame(8, '\0');
  encode_record(frame, record);
  const std::size_t len = frame.size() - 8;
  CLEAR_CHECK_MSG(len < kMaxRecordBytes, "journal record too big");
  patch_le(frame, 0, static_cast<std::uint32_t>(len));
  patch_le(frame, 4, crc32(frame.data() + 8, len));

  const std::size_t cap = fault::journal_torn_write_cap();
  if (cap < frame.size()) {
    // Injected torn write: persist a prefix, then fail — indistinguishable
    // on disk from a crash mid-append.
    write_all(fd_, frame.data(), cap, "journal append");
    CLEAR_CHECK_MSG(false, "injected torn journal write (kept " << cap
                                                                << " bytes)");
  }
  write_all(fd_, frame.data(), frame.size(), "journal append");
  if (config_.fsync) {
    CLEAR_CHECK_MSG(::fsync(fd_) == 0,
                    "journal fsync: " << std::strerror(errno));
  }
  ++next_seq_;
  ++records_;
  ++since_snapshot_;
  bytes_ += frame.size();
  return frame.size();
}

void Journal::write_snapshot(const SnapshotData& data) {
  write_snapshot_file(config_.directory, data, config_.fsync);
  // The snapshot is committed; dropping the journal prefix is now safe. A
  // crash before this truncate leaves stale records that replay skips by
  // sequence number.
  open_truncated();
}

bool Journal::due_for_snapshot() const {
  return config_.snapshot_every > 0 &&
         since_snapshot_ >= config_.snapshot_every;
}

void write_snapshot_file(const std::string& directory,
                         const SnapshotData& data, bool do_fsync) {
  // magic, u32 version, u32 payload_len, u32 crc32(payload), payload.
  std::string bytes = magic_bytes(kSnapshotMagicPrefix, kFormatVersion);
  put_u32(bytes, static_cast<std::uint32_t>(kFormatVersion));
  const std::size_t header = bytes.size() + 8;
  bytes.resize(header);
  encode_snapshot(bytes, data);
  const std::size_t len = bytes.size() - header;
  patch_le(bytes, header - 8, static_cast<std::uint32_t>(len));
  patch_le(bytes, header - 4, crc32(bytes.data() + header, len));
  write_file_atomic(snapshot_path(directory), bytes, "snapshot", do_fsync);
}

std::optional<SnapshotData> read_snapshot(const std::string& directory) {
  const std::string path = snapshot_path(directory);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;
  const std::string what = "snapshot " + path;
  ByteCursor in(*bytes, what.c_str());
  const std::string_view magic = in.take(8, "magic");
  const std::uint32_t version = in.u32("version");
  if (version < kMinFormatVersion || version > kFormatVersion) {
    in.fail("version", "unsupported format version " +
                           std::to_string(version) + supported_versions());
  }
  in.expect(magic == magic_bytes(kSnapshotMagicPrefix, version), "magic",
            "bad magic");
  const std::uint32_t len = in.u32("payload_len");
  const std::uint32_t crc = in.u32("crc");
  in.expect(in.remaining() == len, "payload_len", "length mismatch");
  const std::string_view payload = in.take(len, "payload");
  in.expect(crc32(payload.data(), payload.size()) == crc, "crc",
            "failed its CRC check");
  return decode_snapshot(payload, version);
}

JournalReadResult read_journal(const std::string& directory) {
  JournalReadResult result;
  const std::optional<std::string> file = read_file(journal_log_path(directory));
  if (!file) {
    result.missing = true;
    return result;
  }
  const std::string& bytes = *file;
  ByteCursor in(bytes, "journal.log");
  constexpr std::size_t kHeaderLen = 16;
  if (bytes.size() < kHeaderLen ||
      std::memcmp(bytes.data(), kJournalMagicPrefix,
                  sizeof(kJournalMagicPrefix)) != 0) {
    // A bad header means nothing in the file can be trusted.
    result.tail_bytes_dropped = bytes.size();
    return result;
  }
  in.take(8, "magic");
  const std::uint32_t version = in.u32("version");
  in.u32("reserved");
  if (version < kMinFormatVersion || version > kFormatVersion) {
    // A future format: the framing itself may have changed, so the whole
    // file is untrusted — the versioned refusal a v1 reader gives v2 logs.
    result.header_error = "journal.log has unsupported format version " +
                          std::to_string(version) + supported_versions() +
                          "; refusing the whole file";
    result.tail_bytes_dropped = bytes.size();
    return result;
  }
  if (bytes.compare(0, kHeaderLen, header_bytes(version)) != 0) {
    result.tail_bytes_dropped = bytes.size();  // Magic/version echo mismatch.
    return result;
  }
  // Torn-tail scan: the first frame that is short, oversized, fails its
  // CRC or does not decode ends the trusted prefix.
  std::size_t good_end = kHeaderLen;
  while (in.remaining() >= 8) {
    const std::uint32_t len = in.u32("record length");
    const std::uint32_t crc = in.u32("record crc");
    if (len >= kMaxRecordBytes || len > in.remaining()) break;
    const std::string_view payload = in.take(len, "record payload");
    if (crc32(payload.data(), payload.size()) != crc) break;
    try {
      JournalRecord rec = decode_record(payload);
      rec.file_offset = good_end;
      result.records.push_back(std::move(rec));
    } catch (const Error&) {
      break;  // Intact CRC but undecodable: treat like any corrupt tail.
    }
    good_end = in.pos();
  }
  result.tail_bytes_dropped = bytes.size() - good_end;
  return result;
}

void write_user_checkpoint(const std::string& directory,
                           std::uint64_t user_id, const std::string& blob,
                           bool do_fsync) {
  fault::maybe_fail_journal_io("checkpoint store write");
  write_file_atomic(user_checkpoint_path(directory, user_id), blob,
                    "snapshot", do_fsync);
}

std::string read_user_checkpoint(const std::string& directory,
                                 std::uint64_t user_id) {
  return read_file(user_checkpoint_path(directory, user_id))
      .value_or(std::string());
}

std::string encode_session_image(const SessionImage& image) {
  std::string out;
  put_image(out, image);
  return out;
}

SessionImage decode_session_image(const std::string& bytes) {
  ByteCursor in(bytes, "session image");
  SessionImage img = get_image(in, kFormatVersion);
  in.done();
  return img;
}

}  // namespace clear::serve
