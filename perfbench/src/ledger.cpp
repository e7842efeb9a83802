#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {

int Ledger::begin(std::string name, int parent, std::uint64_t request) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, t, parent, request);
}

void Ledger::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

int Ledger::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::uint64_t request) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> Ledger::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::string Ledger::chrome_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, " << buf << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

}  // namespace perfbench
