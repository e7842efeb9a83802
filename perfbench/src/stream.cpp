#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace perfbench {

namespace {

// Hash-kind tags of the independent decision streams.
constexpr std::uint64_t kKindRotate = 0x0A1;
constexpr std::uint64_t kKindOrder = 0x0A2;
constexpr std::uint64_t kKindGap = 0x0A3;
constexpr std::uint64_t kKindUser = 0x0A4;

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "cold-start") return Workload::kColdStart;
  if (name == "assigned-mix") return Workload::kAssignedMix;
  if (name == "restart") return Workload::kRestart;
  return std::nullopt;
}

Shape workload_shape(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kColdStart:
      // ~120 rps of assigned background plus one new user every 600 ms,
      // each onboarding over ~14 requests 30 ms apart (~23 rps).
      // Fine-tuning (~0.1 s each) then fills under a fifth of one core.
      s.steady_users = 48;
      s.steady_rps = 120.0;
      s.new_user_gap_ms = 600.0;
      s.closed_outstanding = 8;
      break;
    case Workload::kAssignedMix:
      // 96 users = 8 held-out volunteers x 12, spread over 3 precisions,
      // at ~40 % of the measured open-loop capacity.
      s.steady_users = 96;
      s.steady_rps = 700.0;
      s.closed_outstanding = 8;
      break;
    case Workload::kRestart:
      // Half the restored users are personalized (one engine each), half
      // share the cluster engines.
      s.steady_users = 96;
      s.personal_users = 48;
      s.steady_rps = 500.0;
      s.closed_outstanding = 8;
      break;
  }
  return s;
}

Stream::Stream(Workload workload, std::uint64_t seed,
               std::vector<std::vector<Window>> volunteers)
    : workload_(workload),
      seed_(seed),
      shape_(workload_shape(workload)),
      volunteers_(std::move(volunteers)) {
  CLEAR_CHECK_MSG(!volunteers_.empty(), "stream needs held-out volunteers");
  for (const auto& v : volunteers_)
    CLEAR_CHECK_MSG(!v.empty(), "held-out volunteer without windows");
}

Request Stream::request(std::uint64_t user, std::size_t k,
                        std::uint64_t due_us, bool labelled) const {
  // Users spread over the held-out volunteers round-robin (rotated by the
  // seed), so every volunteer, and with user % 3 every precision, carries
  // the same share of traffic on every seed.
  const std::uint64_t ordinal =
      user >= kNewUserBase ? user - kNewUserBase : user;
  const std::size_t n_vol = volunteers_.size();
  const std::size_t rot = static_cast<std::size_t>(
      clear::fault::mix(seed_, kKindRotate, 0, 0) % n_vol);
  const std::vector<Window>& windows = volunteers_[(ordinal + rot) % n_vol];
  // A per-user shuffle of the volunteer's windows (Fisher-Yates on hashed
  // draws), replayed cyclically.
  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        clear::fault::mix(seed_, kKindOrder, user, i) % i);
    std::swap(order[i - 1], order[j]);
  }
  const Window& w = windows[order[k % order.size()]];
  Request r;
  r.user = user;
  r.request_id = static_cast<std::uint64_t>(k) + 1;
  r.due_us = due_us;
  r.sample = w.sample;
  r.truth = w.truth;
  r.labelled = labelled;
  return r;
}

std::vector<Request> Stream::warmup(std::uint64_t gap_us) const {
  std::vector<Request> out;
  if (workload_ == Workload::kRestart) return out;  // Set-up is population().
  std::uint64_t t = 0;
  for (std::size_t k = 0; k < kCaWindows; ++k)
    for (std::uint64_t u = 0; u < shape_.steady_users; ++u) {
      out.push_back(request(u, k, t, false));
      t += gap_us;
    }
  return out;
}

std::size_t Stream::onboarding_requests(std::uint64_t user) const {
  // The server fine-tunes once kFtMaps labelled windows hold both classes.
  bool seen[2] = {false, false};
  std::size_t k = kCaWindows;
  for (std::size_t labelled = 0;; ++k) {
    seen[request(user, k, 0, true).truth > 0 ? 1 : 0] = true;
    if (++labelled >= kFtMaps && seen[0] && seen[1]) return k + 1;
    CLEAR_CHECK_MSG(labelled < 64, "user " << user
                                           << " never sees both classes");
  }
}

std::vector<Request> Stream::arrival(std::uint64_t user,
                                     double start_us) const {
  std::vector<Request> out;
  const std::size_t n = onboarding_requests(user) + kRequestsAfterFt;
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(request(
        user, k,
        static_cast<std::uint64_t>(start_us + kArrivalPeriodMs * 1e3 *
                                                  static_cast<double>(k)),
        k >= kCaWindows));
  return out;
}

std::vector<Request> Stream::population() const {
  std::vector<Request> out;
  if (workload_ != Workload::kRestart) return out;
  std::uint64_t t = 0;
  for (std::uint64_t u = 0; u < shape_.steady_users; ++u)
    for (std::size_t k = 0; k < setup_requests(u); ++k) {
      out.push_back(request(u, k, t, k >= kCaWindows));
      t += 1000;
    }
  return out;
}

std::size_t Stream::setup_requests(std::uint64_t user) const {
  if (user >= kNewUserBase) return 0;
  if (workload_ == Workload::kRestart && user < shape_.personal_users)
    return onboarding_requests(user);
  return kCaWindows;
}

std::vector<Request> Stream::open_loop(double seconds) const {
  const double horizon_us = seconds * 1e6;
  std::vector<Request> out;
  // Steady users: one Poisson stream, each request to a hashed user.
  std::map<std::uint64_t, std::size_t> next_k;
  double t = 0.0;
  const double mean_gap_us = 1e6 / shape_.steady_rps;
  for (std::size_t i = 0;; ++i) {
    const double u =
        clear::fault::uniform01(clear::fault::mix(seed_, kKindGap, i, 0));
    t += -mean_gap_us * std::log(1.0 - u);
    if (t >= horizon_us) break;
    const std::uint64_t user =
        clear::fault::mix(seed_, kKindUser, i, 0) % shape_.steady_users;
    auto [it, fresh] = next_k.try_emplace(user, setup_requests(user));
    out.push_back(request(user, it->second++,
                          static_cast<std::uint64_t>(t), false));
  }
  // Arriving users (cold-start): a fixed arrival rate and request period,
  // every user whose requests all fit in the phase.
  if (shape_.new_user_gap_ms > 0.0) {
    for (std::size_t i = 0;; ++i) {
      const std::vector<Request> user = arrival(
          kNewUserBase + i,
          shape_.new_user_gap_ms * 1e3 * (static_cast<double>(i) + 0.5));
      if (static_cast<double>(user.back().due_us) >= horizon_us) break;
      out.insert(out.end(), user.begin(), user.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_us < b.due_us;
                   });
  return out;
}

}  // namespace perfbench
