// In-memory span ledger of a traced run. Spans are recorded by the
// benchmark around its own calls into the program (nothing inside src/ is
// instrumented) and written out once, at the end, as Chrome-trace JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< Index of the causing span, -1 for roots.
  std::uint64_t request = 0;   ///< Request id the span serves (0: none).
};

class Ledger {
 public:
  using Clock = std::chrono::steady_clock;

  Ledger() : origin_(Clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Open a span now; close it with end().
  int begin(std::string name, int parent = -1, std::uint64_t request = 0);
  void end(int span);
  /// Record an already-measured span.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of it covered by
  /// the union of its children.
  std::vector<std::int64_t> self_ns() const;

  /// Chrome-trace ("traceEvents", complete events in microseconds).
  std::string chrome_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Ledger* ledger, std::string name, int parent = -1,
        std::uint64_t request = 0)
      : ledger_(ledger),
        id_(ledger ? ledger->begin(std::move(name), parent, request) : -1) {}
  ~Scope() {
    if (ledger_) ledger_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Ledger* ledger_;
  int id_;
};

}  // namespace perfbench
