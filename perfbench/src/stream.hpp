// Workload streams: every request the benchmark sends, as a pure function of
// (workload, seed, held-out windows). The server only ever sees the frames
// built from these; the library-path replay is fed the same requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kColdStart, kAssignedMix, kRestart };

std::optional<Workload> parse_workload(std::string_view name);

/// One held-out window a virtual user replays: a dataset sample index and
/// its ground-truth label (1 = fear).
struct Window {
  std::size_t sample = 0;
  int truth = 0;
};

/// One generated request. `request_id` is the user's 1-based sequence
/// number, so (user, request_id) names a request uniquely.
struct Request {
  std::uint64_t user = 0;
  std::uint64_t request_id = 0;
  std::uint64_t due_us = 0;  ///< Scheduled send, from the phase start.
  std::size_t sample = 0;
  int truth = 0;
  bool labelled = false;  ///< Carries its ground truth to the server.

  friend bool operator==(const Request&, const Request&) = default;
};

/// Traffic shape of one workload. The numbers are part of the benchmark
/// definition (BENCHMARK.json records why each workload exists).
struct Shape {
  std::size_t steady_users = 0;  ///< Users present from the start.
  double steady_rps = 0.0;       ///< Their aggregate Poisson rate.
  std::size_t personal_users = 0;  ///< restart: personalized in set-up.
  double new_user_gap_ms = 0.0;    ///< cold-start: one new user per gap.
  std::size_t closed_outstanding = 0;  ///< Per connection, closed loop.
};

Shape workload_shape(Workload w);

/// First user id of cold-start's arriving users (steady users count up
/// from 0), so the two populations never collide.
inline constexpr std::uint64_t kNewUserBase = 100000;

/// Per-user unlabelled windows before cluster assignment and labelled ones
/// before fine-tuning: the serve::SessionPolicy defaults.
inline constexpr std::size_t kCaWindows = 6;
inline constexpr std::size_t kFtMaps = 4;

/// An arriving user sends one request every kArrivalPeriodMs until the
/// server fine-tunes, then kRequestsAfterFt more.
inline constexpr double kArrivalPeriodMs = 30.0;
inline constexpr std::size_t kRequestsAfterFt = 4;

/// Deterministic request generator for one (workload, seed).
class Stream {
 public:
  /// `volunteers[v]` lists held-out volunteer v's windows.
  Stream(Workload workload, std::uint64_t seed,
         std::vector<std::vector<Window>> volunteers);

  const Shape& shape() const { return shape_; }

  /// The k-th (0-based) request of `user`, due at `due_us`.
  Request request(std::uint64_t user, std::size_t k, std::uint64_t due_us,
                  bool labelled) const;

  /// Untimed set-up traffic over the wire: every steady user's cluster-
  /// assignment windows, round-robin, `gap_us` apart.
  std::vector<Request> warmup(std::uint64_t gap_us) const;

  /// Requests `user` sends until the server fine-tunes: kCaWindows
  /// unlabelled, then labelled until kFtMaps of them hold both classes.
  std::size_t onboarding_requests(std::uint64_t user) const;

  /// Every request of an arriving `user` whose first is due at `start_us`.
  std::vector<Request> arrival(std::uint64_t user, double start_us) const;

  /// restart set-up on the library path: each personal user onboards to a
  /// personal model, each other steady user sends its CA windows.
  std::vector<Request> population() const;

  /// The open-loop phase, `seconds` long, sorted by due time.
  std::vector<Request> open_loop(double seconds) const;

  /// Requests `user` sent before the timed part (warm-up or population).
  std::size_t setup_requests(std::uint64_t user) const;

 private:
  Workload workload_;
  std::uint64_t seed_;
  Shape shape_;
  std::vector<std::vector<Window>> volunteers_;
};

}  // namespace perfbench
