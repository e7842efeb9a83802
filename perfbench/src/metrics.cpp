#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "nn/metrics.hpp"

namespace perfbench {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps q * n from rounding up past an exact rank.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[idx - 1];
}

Tail tail_of(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = percentile(samples, 0.50);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(samples.size()) - 1e-9);
    const std::size_t beyond =
        samples.size() - static_cast<std::size_t>(rank);
    if (beyond >= 10 || pct == 50.0) {
      t.tail_pct = pct;
      t.tail = percentile(samples, pct / 100.0);
      t.beyond = beyond;
      break;
    }
  }
  return t;
}

Delivery delivery(const std::vector<Outcome>& outcomes, std::size_t errors,
                  double slo_ms) {
  Delivery d;
  d.sent = outcomes.size();
  for (const Outcome& o : outcomes) {
    if (!o.answered) {
      ++d.dropped;
    } else if (!o.ok) {
      ++d.shed;
    } else {
      ++d.ok;
      if (o.latency_ms <= slo_ms) ++d.within_slo;
    }
  }
  // A request the check rejected was answered OK on the wire but wrongly;
  // it counts as a failure and as an SLO miss.
  errors = std::min(errors, d.ok);
  const std::size_t good_in_slo =
      d.within_slo >= errors ? d.within_slo - errors : 0;
  if (d.sent > 0) {
    const double sent = static_cast<double>(d.sent);
    d.slo_frac = static_cast<double>(good_in_slo) / sent;
    d.fail_frac = static_cast<double>(d.shed + d.dropped + errors) / sent;
  }
  return d;
}

Ttp ttp_of(const std::map<std::uint64_t, UserTimeline>& timelines) {
  Ttp t;
  std::vector<double> values;
  for (const auto& [user, tl] : timelines) {
    if (!tl.first_due_ms) continue;
    ++t.users;
    if (!tl.first_personal_ms) continue;
    ++t.personalized;
    values.push_back(*tl.first_personal_ms - *tl.first_due_ms);
  }
  std::sort(values.begin(), values.end());
  t.p50_ms = percentile(values, 0.5);
  return t;
}

double fear_f1(const std::vector<std::size_t>& predictions,
               const std::vector<std::size_t>& truths) {
  if (predictions.empty()) return 0.0;
  return clear::nn::binary_metrics(predictions, truths, 1).f1;
}

const char* submit_class_name(SubmitClass c) {
  switch (c) {
    case SubmitClass::kPlain: return "plain";
    case SubmitClass::kAssign: return "assign";
    case SubmitClass::kFinetune: return "finetune";
    case SubmitClass::kSnapshot: return "snapshot";
  }
  return "?";
}

SubmitClass classify_submit(const clear::serve::ServeCounters& before,
                            const clear::serve::ServeCounters& after) {
  if (after.finetunes != before.finetunes ||
      after.finetune_failures != before.finetune_failures)
    return SubmitClass::kFinetune;
  if (after.assignments != before.assignments) return SubmitClass::kAssign;
  if (after.journal_snapshots != before.journal_snapshots)
    return SubmitClass::kSnapshot;
  return SubmitClass::kPlain;
}

Verdict check_response(const clear::net::WireResponse& wire,
                       const clear::serve::ServeResult& reference,
                       bool int8) {
  if (reference.status != clear::serve::ServeResult::Status::kOk ||
      static_cast<std::uint32_t>(reference.route.kind) != wire.route_kind ||
      reference.route.id != wire.route_id)
    return Verdict::kMismatch;
  std::uint32_t a = 0, b = 0;
  std::memcpy(&a, &wire.fear_probability, sizeof a);
  std::memcpy(&b, &reference.fear_probability, sizeof b);
  if (a == b && wire.predicted == reference.predicted) return Verdict::kExact;
  if (!int8) return Verdict::kMismatch;
  const float p = reference.fear_probability;
  if (std::fabs(wire.fear_probability - p) > kInt8Tolerance)
    return Verdict::kMismatch;
  if (wire.predicted != reference.predicted &&
      std::fabs(p - 0.5f) > kInt8Tolerance)
    return Verdict::kMismatch;
  return Verdict::kInt8Drift;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    // %.17g round-trips a double; non-finite values are not JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
