// Self-tests of the benchmark's own rules: percentiles, delivery fractions,
// time to personal model, F1, stream determinism, submit classification and
// the span ledger's self times.
#include <gtest/gtest.h>

#include "ledger.hpp"
#include "metrics.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

std::vector<std::vector<Window>> toy_volunteers() {
  std::vector<std::vector<Window>> v(3);
  for (std::size_t i = 0; i < v.size(); ++i)
    for (std::size_t w = 0; w < 17; ++w)
      v[i].push_back(Window{i * 100 + w, static_cast<int>(w % 2)});
  return v;
}

TEST(PercentileRule, PicksHighestPercentileWithTenBeyond) {
  std::vector<double> s;
  for (int i = 1; i <= 1000; ++i) s.push_back(i);
  Tail t = tail_of(s);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.tail_pct, 99.0);  // p99.9 has one sample beyond it.
  EXPECT_EQ(t.tail, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.p50, 500.0);

  s.resize(150);  // p99 and p95 leave too few beyond; p90 leaves 15.
  t = tail_of(s);
  EXPECT_EQ(t.tail_pct, 90.0);
  EXPECT_EQ(t.tail, 135.0);
  EXPECT_EQ(t.beyond, 15u);

  s.resize(10000);
  for (int i = 1001; i <= 10000; ++i) s[static_cast<std::size_t>(i - 1)] = i;
  EXPECT_EQ(tail_of(s).tail_pct, 99.9);
  EXPECT_EQ(tail_of({}).samples, 0u);
}

TEST(Delivery, ShedsDropsAndErrorsFailAndMissTheSlo) {
  std::vector<Outcome> o(10);
  for (auto& x : o) x = Outcome{true, true, 5.0};
  o[0] = Outcome{true, false, 1.0};    // Shed.
  o[1] = Outcome{false, false, 0.0};   // Dropped.
  o[2] = Outcome{true, true, 250.0};   // OK but slow.
  const Delivery d = delivery(o, /*errors=*/1);
  EXPECT_EQ(d.sent, 10u);
  EXPECT_EQ(d.ok, 8u);
  EXPECT_EQ(d.shed, 1u);
  EXPECT_EQ(d.dropped, 1u);
  EXPECT_DOUBLE_EQ(d.fail_frac, 0.3);  // (1 shed + 1 dropped + 1 error) / 10
  EXPECT_DOUBLE_EQ(d.slo_frac, 0.6);   // 7 fast OKs, one of them wrong.
}

TEST(Ttp, UsersWhoNeverPersonalizeAreCountedNotTimed) {
  std::map<std::uint64_t, UserTimeline> tl;
  tl[1] = UserTimeline{10.0, 110.0};
  tl[2] = UserTimeline{20.0, std::nullopt};
  tl[3] = UserTimeline{0.0, 300.0};
  Ttp t = ttp_of(tl);
  EXPECT_EQ(t.users, 3u);
  EXPECT_EQ(t.personalized, 2u);
  EXPECT_DOUBLE_EQ(t.p50_ms, 100.0);  // Nearest rank of {100, 300}.
  tl.erase(1);
  tl.erase(3);
  t = ttp_of(tl);
  EXPECT_EQ(t.personalized, 0u);
  EXPECT_DOUBLE_EQ(t.p50_ms, 0.0);
}

TEST(FearF1, MatchesHandComputedValue) {
  // tp = 2, fp = 1, fn = 1: precision = recall = 2/3.
  EXPECT_NEAR(fear_f1({1, 1, 1, 0, 0}, {1, 1, 0, 1, 0}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(fear_f1({}, {}), 0.0);
}

TEST(StreamSeed, SameSeedSameStreamOtherSeedDiffers) {
  for (const Workload w :
       {Workload::kColdStart, Workload::kAssignedMix, Workload::kRestart}) {
    const Stream a(w, 7, toy_volunteers()), b(w, 7, toy_volunteers()),
        c(w, 8, toy_volunteers());
    EXPECT_EQ(a.open_loop(2.0), b.open_loop(2.0));
    EXPECT_NE(a.open_loop(2.0), c.open_loop(2.0));
    EXPECT_EQ(a.warmup(1000), b.warmup(1000));
    EXPECT_EQ(a.population(), b.population());
    EXPECT_EQ(a.arrival(kNewUserBase, 0.0), b.arrival(kNewUserBase, 0.0));
    EXPECT_EQ(a.request(5, 40, 0, false), b.request(5, 40, 0, false));
  }
}

TEST(StreamShape, ColdStartUsersOnboardInOrder) {
  const Stream s(Workload::kColdStart, 3, toy_volunteers());
  std::map<std::uint64_t, std::vector<Request>> by_user;
  for (const Request& r : s.open_loop(3.0)) by_user[r.user].push_back(r);
  std::size_t arriving = 0;
  for (const auto& [user, reqs] : by_user) {
    for (std::size_t i = 1; i < reqs.size(); ++i)
      EXPECT_GT(reqs[i].request_id, reqs[i - 1].request_id);
    if (user < kNewUserBase) {
      EXPECT_EQ(reqs.front().request_id, kCaWindows + 1);  // After warm-up.
      continue;
    }
    ++arriving;
    ASSERT_EQ(reqs.size(), s.onboarding_requests(user) + kRequestsAfterFt);
    bool seen[2] = {false, false};
    std::size_t labelled = 0;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      EXPECT_EQ(reqs[k].labelled, k >= kCaWindows);
      if (k >= kCaWindows && k + kRequestsAfterFt < reqs.size()) {
        seen[reqs[k].truth] = true;
        ++labelled;
      }
    }
    // Fine-tuning fires on the last onboarding request, not before.
    EXPECT_GE(labelled, kFtMaps);
    EXPECT_TRUE(seen[0] && seen[1]);
  }
  EXPECT_GE(arriving, 4u);  // One per 600 ms whose requests fit in 3 s.
  EXPECT_LE(arriving, 5u);
}

TEST(SubmitClass, ReadFromCounterDeltas) {
  clear::serve::ServeCounters a, b;
  EXPECT_EQ(classify_submit(a, b), SubmitClass::kPlain);
  b.journal_snapshots = 1;
  EXPECT_EQ(classify_submit(a, b), SubmitClass::kSnapshot);
  b.assignments = 1;
  EXPECT_EQ(classify_submit(a, b), SubmitClass::kAssign);
  b.finetunes = 1;
  EXPECT_EQ(classify_submit(a, b), SubmitClass::kFinetune);
  clear::serve::ServeCounters c;
  c.finetune_failures = 1;
  EXPECT_EQ(classify_submit(a, c), SubmitClass::kFinetune);
  c = a;
  c.requests = 5;  // Counters every submit moves do not change the class.
  c.ok = 4;
  EXPECT_EQ(classify_submit(a, c), SubmitClass::kPlain);
}

TEST(ResponseCheck, ExactExceptBoundedInt8Drift) {
  clear::serve::ServeResult ref;
  ref.predicted = 1;
  ref.fear_probability = 0.80f;
  ref.route.kind = clear::serve::BatchKey::Kind::kCluster;
  ref.route.id = 2;
  clear::net::WireResponse wire;
  wire.predicted = 1;
  wire.fear_probability = 0.80f;
  wire.route_kind = 1;
  wire.route_id = 2;
  EXPECT_EQ(check_response(wire, ref, false), Verdict::kExact);
  wire.fear_probability = 0.81f;
  EXPECT_EQ(check_response(wire, ref, false), Verdict::kMismatch);
  EXPECT_EQ(check_response(wire, ref, true), Verdict::kInt8Drift);
  wire.fear_probability = 0.90f;  // Beyond the tolerance.
  EXPECT_EQ(check_response(wire, ref, true), Verdict::kMismatch);
  wire.fear_probability = 0.80f;
  wire.route_id = 3;  // Routed elsewhere: never tolerated.
  EXPECT_EQ(check_response(wire, ref, true), Verdict::kMismatch);
  wire.route_id = 2;
  wire.predicted = 0;  // Class flip away from the boundary.
  EXPECT_EQ(check_response(wire, ref, true), Verdict::kMismatch);
  ref.fear_probability = 0.505f;  // Near the boundary a flip is drift.
  wire.fear_probability = 0.495f;
  EXPECT_EQ(check_response(wire, ref, true), Verdict::kInt8Drift);
  ref.status = clear::serve::ServeResult::Status::kShed;
  EXPECT_EQ(check_response(wire, ref, true), Verdict::kMismatch);
}

TEST(Ledger, SelfTimeSubtractsTheUnionOfChildren) {
  Ledger l;
  const int root = l.add("root", 0, 100);
  l.add("a", 10, 40, root);
  l.add("b", 30, 50, root);   // Overlaps a: union 10..50.
  l.add("c", 90, 120, root);  // Clipped to the parent: 90..100.
  const int d = l.add("d", 200, 260);
  const std::vector<std::int64_t> self = l.self_ns();
  EXPECT_EQ(self[static_cast<std::size_t>(root)], 100 - 40 - 10);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[static_cast<std::size_t>(d)], 60);
  EXPECT_NE(l.chrome_json().find("\"traceEvents\""), std::string::npos);
}

TEST(ResultJson, KeepsAllDigits) {
  Metrics m;
  m["p50_ms"] = {1.2345678901234567, "ms"};
  const std::string j = result_json(true, 3, 0, m);
  EXPECT_NE(j.find("1.2345678901234567"), std::string::npos);
  EXPECT_NE(j.find("\"attempted\": 3"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
