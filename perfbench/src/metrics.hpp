// Pure metric arithmetic of the benchmark, kept apart from the I/O so the
// self-tests can pin every rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// A latency distribution reported by the percentile rule: the median and
/// the highest percentile of {99.9, 99, 95, 90, 50} that has at least ten
/// samples beyond it.
struct Tail {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< Which percentile `tail` is (0 when empty).
  double tail = 0.0;
  std::size_t beyond = 0;  ///< Samples strictly above the tail rank.
};

/// Nearest-rank percentile of an ascending vector (q in (0, 1]).
double percentile(const std::vector<double>& sorted, double q);

Tail tail_of(std::vector<double> samples);

/// The fate of one sent request, as the wire reported it.
struct Outcome {
  bool answered = false;
  bool ok = false;           ///< Answered and not shed.
  double latency_ms = 0.0;   ///< From due send to receipt (answered only).
};

struct Delivery {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t dropped = 0;   ///< Never answered.
  std::size_t within_slo = 0;
  double slo_frac = 0.0;     ///< OK within the limit, over sent.
  double fail_frac = 0.0;    ///< (shed + dropped + errors) / sent.
};

inline constexpr double kSloMs = 100.0;

/// `errors` counts answered requests the response check rejected.
Delivery delivery(const std::vector<Outcome>& outcomes, std::size_t errors,
                  double slo_ms = kSloMs);

/// Time to personal model of one user: from the due send of their first
/// request to receipt of their first response routed to a personal engine.
struct UserTimeline {
  std::optional<double> first_due_ms;
  std::optional<double> first_personal_ms;
};

struct Ttp {
  std::size_t users = 0;          ///< Users with a first request.
  std::size_t personalized = 0;   ///< Of those, reached a personal engine.
  double p50_ms = 0.0;            ///< Median over the personalized ones.
};

Ttp ttp_of(const std::map<std::uint64_t, UserTimeline>& timelines);

/// F1 of the fear class (label 1) through nn::binary_metrics; 0 when there
/// are no predictions.
double fear_f1(const std::vector<std::size_t>& predictions,
               const std::vector<std::size_t>& truths);

/// What one Server::submit call did, read from the counter deltas it
/// caused. A call that fine-tuned is `kFinetune` even if it also assigned
/// or snapshotted; then assignment, then snapshot.
enum class SubmitClass { kPlain, kAssign, kFinetune, kSnapshot };
inline constexpr SubmitClass kSubmitClasses[] = {
    SubmitClass::kPlain, SubmitClass::kAssign, SubmitClass::kFinetune,
    SubmitClass::kSnapshot};

const char* submit_class_name(SubmitClass c);
SubmitClass classify_submit(const clear::serve::ServeCounters& before,
                            const clear::serve::ServeCounters& after);

/// Response check of one OK wire response against the library replay's
/// result for the same request. The route must match exactly; so must the
/// predicted class and the probability bits, except on int8 engines: their
/// forward pass depends on which rows share the batch (a defect of the
/// program), and the wire batches differently from the replay. An int8
/// answer whose probability is within kInt8Tolerance of the replay's and
/// whose class agrees (or the replay's probability is within the tolerance
/// of the decision boundary) is `kInt8Drift`: counted, not failed.
enum class Verdict { kExact, kInt8Drift, kMismatch };
inline constexpr float kInt8Tolerance = 0.02f;

Verdict check_response(const clear::net::WireResponse& wire,
                       const clear::serve::ServeResult& reference,
                       bool int8);

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The last line the benchmark prints: {"correct", "attempted", "failed",
/// "metrics"}. Values keep all their digits.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& metrics);

}  // namespace perfbench
