// perfbench — the CLEAR-Serve benchmark.
//
//   perfbench --workload cold-start|assigned-mix|restart --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// One process fits the cloud stage (core::default_config() on the WEMAC
// volunteers minus a held-out set), serves it over the real wire
// (net::NetServer around serve::Server on a loopback port, its event loop
// on its own thread) and drives it from a one-thread load generator that
// replays the held-out volunteers' windows as many virtual users. Every
// response is checked against a library-path replay of the same requests.
// The last stdout line is the JSON result; --trace 1 reports the per-layer
// numbers instead of the end-to-end ones and writes a Chrome trace.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clear/config.hpp"
#include "clear/pipeline.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "net/server.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "stream.hpp"
#include "wemac/dataset.hpp"
#include "wire.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
using clear::serve::ServeCounters;

namespace {

using Clock = std::chrono::steady_clock;

/// Volunteers served as new users and never seen by the cloud stage.
constexpr std::size_t kHeldOut[] = {3, 9, 15, 21, 27, 33, 39, 45};
/// Share of --seconds spent in the open loop; the rest is the closed loop,
/// whose throughput settles within a couple of seconds.
constexpr double kOpenShare = 0.85;
/// Arriving users onboarded after the traffic on workloads whose traffic
/// has none (so time-to-personal-model and checkpoint size are measured
/// everywhere), four per precision, one every 250 ms so that their
/// fine-tunes do not overlap.
constexpr std::size_t kProbeUsers = 12;
constexpr double kProbeGapMs = 250.0;
constexpr std::uint64_t kProbeBase = 200000;
/// Crash-restarts timed per run (recover_s is their median): at least 3,
/// and more while they have taken under 2 s, up to 15.
constexpr std::size_t kMinRecoveries = 3;
constexpr std::size_t kMaxRecoveries = 15;
constexpr double kRecoveryBudgetS = 2.0;
/// The generator may run this late (p99) before the run is invalid.
constexpr double kMaxLateP99Ms = 10.0;
/// Unattributed share of the replay's wall time the ledger tolerates.
constexpr double kMaxUnattributed = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      CLEAR_CHECK_MSG(i + 1 < argc, "flag " << key << " needs a value");
      value = argv[++i];
    }
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--out") a.out = value;
    else CLEAR_CHECK_MSG(false, "unknown flag " << key);
  }
  CLEAR_CHECK_MSG(parse_workload(a.workload).has_value(),
                  "--workload must be cold-start, assigned-mix or restart");
  CLEAR_CHECK_MSG(a.seconds > 0.0, "--seconds must be positive");
  return a;
}

/// A serve::Server listening on a loopback port, its event loop on its own
/// thread until stop().
class Listening {
 public:
  explicit Listening(clear::serve::Server& server)
      : net_(server, [] {
          clear::net::NetServerConfig nc;
          nc.listen.port = 0;
          return nc;
        }()),
        loop_([this] { net_.run(); }) {}
  ~Listening() { stop(); }
  Listening(const Listening&) = delete;
  Listening& operator=(const Listening&) = delete;

  std::uint16_t port() const { return net_.port(); }
  /// Drain, flush and join; counters are safe to read afterwards.
  void stop() {
    if (!loop_.joinable()) return;
    net_.stop();
    loop_.join();
  }
  const clear::net::NetCounters& counters() const { return net_.counters(); }

 private:
  clear::net::NetServer net_;
  std::thread loop_;
};

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(fs::path(to).parent_path());
  fs::copy(from, to, fs::copy_options::recursive);
}

struct Recovery {
  double seconds = 0.0;
  clear::serve::RecoveryReport report;
};

/// Crash-restart from `dir`: construct, recover(), listen. The server is
/// discarded unless `keep` receives it.
Recovery timed_recover(const clear::serve::ModelSource& source,
                       clear::serve::ServeConfig config, const std::string& dir,
                       std::unique_ptr<clear::serve::Server>* keep = nullptr) {
  config.journal.directory = dir;
  const auto t0 = Clock::now();
  auto server = std::make_unique<clear::serve::Server>(source, config);
  Recovery r;
  r.report = server->recover();
  {
    clear::net::NetServerConfig nc;
    nc.listen.port = 0;
    clear::net::NetServer bound(*server, nc);  // LISTENING once bound.
    r.seconds = seconds_since(t0);
  }
  if (keep) *keep = std::move(server);
  return r;
}

clear::serve::ServeRequest to_serve(const clear::wemac::WemacDataset& d,
                                    const Request& r,
                                    std::uint64_t arrival_us) {
  clear::serve::ServeRequest s;
  s.user_id = r.user;
  s.request_id = r.request_id;
  s.arrival_us = arrival_us;
  s.map = d.samples()[r.sample].feature_map;
  if (r.labelled) s.label = r.truth;
  return s;
}

std::uint64_t result_key(std::uint64_t user, std::uint64_t request_id) {
  return (user << 32) ^ request_id;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  const Workload workload = *parse_workload(args.workload);
  const std::string run_dir = args.out + "/" + args.workload + "-" +
                              std::to_string(args.seed) +
                              (args.trace ? "-trace" : "");
  const std::string untraced_file = args.out + "/" + args.workload + "-" +
                                    std::to_string(args.seed) + ".untraced";
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);

  // Threads: the generator (this thread) + the event loop + runtime workers
  // must fit the cores, and so must the connections.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const std::size_t nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&cpus))
          : clear::hardware_threads();
  const std::size_t connections = std::min<std::size_t>(4, nproc);
  const std::size_t serve_threads = nproc >= 2 ? nproc - 1 : 1;
  CLEAR_CHECK_MSG(1 + serve_threads <= nproc && connections <= nproc,
                  "needs at least 2 cores (generator + event loop), found "
                      << nproc);

  std::unique_ptr<Ledger> ledger_owner =
      args.trace ? std::make_unique<Ledger>() : nullptr;
  Ledger* ledger = ledger_owner.get();

  // ---- Set-up: dataset, cloud stage, warm-up or population --------------
  const auto setup_t0 = Clock::now();
  clear::set_num_threads(nproc);
  clear::core::ClearConfig config = clear::core::default_config();
  double generate_s = 0.0, fit_s = 0.0;
  auto t0 = Clock::now();
  clear::wemac::WemacDataset dataset;
  {
    Scope span(ledger, "setup.generate");
    dataset = clear::wemac::generate_wemac(config.data);
  }
  generate_s = seconds_since(t0);
  std::vector<std::size_t> train;
  std::vector<std::vector<Window>> volunteers;
  const std::set<std::size_t> held(std::begin(kHeldOut), std::end(kHeldOut));
  for (std::size_t v = 0; v < dataset.n_volunteers(); ++v) {
    if (!held.count(v)) {
      train.push_back(v);
      continue;
    }
    auto& windows = volunteers.emplace_back();
    for (const std::size_t s : dataset.samples_of(v))
      windows.push_back(Window{s, dataset.samples()[s].label});
  }
  t0 = Clock::now();
  clear::core::ClearPipeline pipeline(config);
  {
    Scope span(ledger, "setup.fit");
    pipeline.fit(dataset, train);
  }
  fit_s = seconds_since(t0);
  const clear::serve::ModelSource source =
      clear::serve::ModelSource::from_pipeline(pipeline);

  clear::serve::ServeConfig sc;  // Batch policy and cache at defaults.
  sc.precisions = {clear::edge::Precision::kFp32,
                   clear::edge::Precision::kFp16,
                   clear::edge::Precision::kInt8};
  // int8 activation statistics from one training volunteer's maps.
  for (const std::size_t s : dataset.samples_of(train.front())) {
    clear::Tensor m = dataset.samples()[s].feature_map;
    source.normalizer.apply_map(m);
    sc.calibration_maps.push_back(std::move(m));
  }
  const std::string live_dir = run_dir + "/journal";
  sc.journal.directory = live_dir;  // fsync off: the default.

  const Stream stream(workload, args.seed, volunteers);
  const Shape& shape = stream.shape();
  const double open_s = args.seconds * kOpenShare;
  const double closed_s = args.seconds - open_s;
  clear::set_num_threads(serve_threads);

  std::unique_ptr<clear::serve::Server> server;
  std::vector<Sent> setup_sent;  // Warm-up over the wire.
  std::uint64_t arrival_base_us = 0;
  const std::string pop_dir = run_dir + "/population";
  if (workload == Workload::kRestart) {
    // Personalize the population on the library path, then drop the server
    // without a final snapshot, as a crash would.
    Scope span(ledger, "setup.population");
    const std::vector<Request> population = stream.population();
    clear::serve::ServeConfig pc = sc;
    pc.journal.directory = pop_dir;
    clear::serve::Server pop(source, pc);
    pop.open_journal();
    std::vector<clear::serve::ServeRequest> reqs;
    for (const Request& r : population)
      reqs.push_back(to_serve(dataset, r, r.due_us));
    pop.run(std::move(reqs));
    arrival_base_us = population.back().due_us + 1'000'000;
  } else {
    Scope span(ledger, "setup.warmup");
    server = std::make_unique<clear::serve::Server>(source, sc);
    server->open_journal();
    Listening net(*server);
    Generator gen(net.port(), connections, stream, dataset, 0, nullptr);
    gen.open_loop(stream.warmup(1000), Phase::kSetup);
    net.stop();
    setup_sent = gen.sent();
    for (const Sent& s : setup_sent)
      CLEAR_CHECK_MSG(s.answers == 1, "warm-up request went unanswered");
    arrival_base_us = setup_sent.back().arrival_us + 1'000'000;
  }
  const double setup_s = seconds_since(setup_t0);

  // ---- Timed part ---------------------------------------------------------
  std::vector<double> recover_samples;
  clear::serve::RecoveryReport recovery_report;
  // The journal a crash would leave: restart's population, or for the other
  // workloads a copy taken after the traffic.
  const std::string crash_dir =
      workload == Workload::kRestart ? pop_dir : run_dir + "/crash";
  if (workload == Workload::kRestart) {
    copy_dir(pop_dir, run_dir + "/reference");
    copy_dir(pop_dir, live_dir);
    Scope span(ledger, "restart.recover");
    const Recovery r = timed_recover(source, sc, live_dir, &server);
    recover_samples.push_back(r.seconds);
    recovery_report = r.report;
  }
  const ServeCounters base = server->counters();
  const clear::serve::CacheStats cache_base = server->cache().stats();

  std::vector<Sent> sent;
  clear::net::NetCounters net_counters;
  double closed_seconds = 0.0;
  std::size_t unexpected = 0;
  {
    Listening net(*server);
    Generator gen(net.port(), connections, stream, dataset, arrival_base_us,
                  ledger);
    // The closed loop runs first, so that restart pays its cold engine
    // cache there and the open loop measures steady serving. Its request
    // ids follow the open loop's, so the ids stay unique per user.
    const std::vector<Request> open = stream.open_loop(open_s);
    std::vector<std::uint64_t> users;
    std::map<std::uint64_t, std::size_t> next_k;
    for (std::uint64_t u = 0; u < shape.steady_users; ++u) {
      users.push_back(u);
      next_k[u] = stream.setup_requests(u);
    }
    for (const Request& r : open)
      if (r.user < kNewUserBase)
        next_k[r.user] = std::max<std::size_t>(next_k[r.user], r.request_id);
    {
      Scope span(ledger, "traffic.closed");
      gen.closed_loop(closed_s, shape.closed_outstanding, users, next_k);
    }
    {
      Scope span(ledger, "traffic.open");
      gen.open_loop(open, Phase::kOpen);
    }
    if (shape.new_user_gap_ms == 0.0) {
      // Onboard the probe cohort on the cold-start per-user schedule.
      Scope span(ledger, "traffic.probe");
      std::vector<Request> probe;
      for (std::size_t i = 0; i < kProbeUsers; ++i) {
        const std::vector<Request> user = stream.arrival(
            kProbeBase + i, kProbeGapMs * 1e3 * static_cast<double>(i));
        probe.insert(probe.end(), user.begin(), user.end());
      }
      std::stable_sort(probe.begin(), probe.end(),
                       [](const Request& a, const Request& b) {
                         return a.due_us < b.due_us;
                       });
      gen.open_loop(probe, Phase::kProbe);
    }
    if (workload != Workload::kRestart) {
      // The crash image: the journal as it stands with every request
      // answered and no final snapshot (stop() would write one).
      copy_dir(live_dir, crash_dir);
    }
    net.stop();
    net_counters = net.counters();
    sent = gen.sent();
    closed_seconds = gen.closed_seconds();
    unexpected = gen.unexpected() + gen.bad_frames();
  }
  const double rss_mb = peak_rss_mb();
  const ServeCounters after = server->counters();
  const clear::serve::CacheStats cache_after = server->cache().stats();

  // recover_s: restart downtime. restart already timed one recovery; the
  // other workloads crash-restart the state their traffic left.
  const auto rec_t0 = Clock::now();
  while (recover_samples.size() < kMinRecoveries ||
         (recover_samples.size() < kMaxRecoveries &&
          seconds_since(rec_t0) < kRecoveryBudgetS)) {
    const std::string dir = run_dir + "/recover";
    copy_dir(crash_dir, dir);
    Scope span(ledger, "recover");
    const Recovery r = timed_recover(source, sc, dir);
    if (recover_samples.empty()) recovery_report = r.report;
    recover_samples.push_back(r.seconds);
  }
  const double recover_s = median(recover_samples);
  double recovery_read_ms = 0.0;
  {
    Scope span(ledger, "recovery.read");
    const auto r0 = Clock::now();
    clear::serve::read_snapshot(crash_dir);
    clear::serve::read_journal(crash_dir);
    recovery_read_ms = seconds_since(r0) * 1e3;
  }

  // ---- Response check: library-path replay of the same requests ---------
  clear::set_num_threads(nproc);
  std::map<SubmitClass, std::pair<double, std::size_t>> submit_us;
  std::map<std::uint64_t, clear::serve::ServeResult> reference;
  double unattributed = 0.0;
  {
    clear::serve::ServeConfig rc = sc;
    rc.journal.directory = run_dir + "/reference";
    clear::serve::Server ref(source, rc);
    if (workload == Workload::kRestart)
      ref.recover();
    else
      ref.open_journal();
    std::vector<const Sent*> order;
    for (const Sent& s : setup_sent) order.push_back(&s);
    for (const Sent& s : sent) order.push_back(&s);
    std::stable_sort(order.begin(), order.end(),
                     [](const Sent* a, const Sent* b) {
                       return a->arrival_us < b->arrival_us;
                     });
    const int root = ledger ? ledger->begin("replay") : -1;
    for (const Sent* s : order) {
      clear::serve::ServeRequest req;
      {
        Scope build(ledger, "replay.build", root, s->request.request_id);
        req = to_serve(dataset, s->request, s->arrival_us);
      }
      const ServeCounters before = ref.counters();
      const std::int64_t a = ledger ? ledger->now_ns() : 0;
      ref.submit(std::move(req));
      if (!ledger) continue;
      const std::int64_t b = ledger->now_ns();
      const SubmitClass cls = classify_submit(before, ref.counters());
      ledger->add(std::string("serve.submit.") + submit_class_name(cls), a, b,
                  root, s->request.request_id);
      auto& [sum, count] = submit_us[cls];
      sum += static_cast<double>(b - a) / 1e3;
      ++count;
    }
    {
      Scope drain(ledger, "serve.drain", root);
      ref.drain();
    }
    for (clear::serve::ServeResult& r : ref.take_results())
      reference.emplace(result_key(r.user_id, r.request_id), std::move(r));
    if (ledger) {
      ledger->end(root);
      // Self times of the replay's spans must add up to its wall time; the
      // replay's own self time is what no call accounts for.
      const std::vector<std::int64_t> self = ledger->self_ns();
      const Span& total = ledger->spans()[static_cast<std::size_t>(root)];
      std::int64_t sum = self[static_cast<std::size_t>(root)];
      for (std::size_t i = 0; i < self.size(); ++i)
        if (ledger->spans()[i].parent == root) sum += self[i];
      const std::int64_t wall = total.end_ns - total.start_ns;
      CLEAR_CHECK_MSG(sum == wall, "replay self times sum to "
                                       << sum << " ns, wall " << wall);
      unattributed = static_cast<double>(self[static_cast<std::size_t>(root)]) /
                     static_cast<double>(wall);
    }
  }

  // ---- Compare, and compute the metrics -----------------------------------
  std::size_t mismatches = 0, dropped = 0, int8_drift = 0;
  std::vector<Outcome> open_outcomes;
  std::vector<Outcome> timed_outcomes;
  std::vector<std::size_t> preds, truths;
  std::vector<double> late_ms, open_latency_ms;
  std::size_t closed_ok = 0;
  std::map<std::uint64_t, UserTimeline> timelines;
  std::map<clear::edge::Precision, std::vector<std::size_t>> batches;
  double wait_vus = 0.0;
  std::size_t wait_n = 0;
  const bool cold_start = workload == Workload::kColdStart;
  for (const std::vector<Sent>* list : {&setup_sent, &sent})
    for (const Sent& s : *list) {
      const bool timed = list == &sent;
      const bool probe = s.phase == Phase::kProbe;
      Outcome o;
      o.answered = s.answers == 1;
      o.ok = o.answered && !s.response.shed;
      o.latency_ms = static_cast<double>(s.recv_ns - s.due_ns) / 1e6;
      if (!o.answered) ++dropped;
      if (o.ok) {
        const auto it =
            reference.find(result_key(s.request.user, s.request.request_id));
        const bool int8 =
            sc.precisions[s.request.user % sc.precisions.size()] ==
            clear::edge::Precision::kInt8;
        const Verdict v = it == reference.end()
                              ? Verdict::kMismatch
                              : check_response(s.response, it->second, int8);
        if (v == Verdict::kInt8Drift) ++int8_drift;
        if (v == Verdict::kMismatch && ++mismatches <= 5)
          std::fprintf(stderr, "mismatch: user %llu request %llu\n",
                       static_cast<unsigned long long>(s.request.user),
                       static_cast<unsigned long long>(s.request.request_id));
      }
      if (!timed) continue;
      timed_outcomes.push_back(o);
      // Time to personal model: cold-start's arriving users, or the probe
      // cohort where the traffic has none.
      const bool onboarding = cold_start ? s.request.user >= kNewUserBase &&
                                               s.phase == Phase::kOpen
                                         : probe;
      if (onboarding) {
        UserTimeline& tl = timelines[s.request.user];
        const double due_ms = static_cast<double>(s.due_ns) / 1e6;
        if (!tl.first_due_ms || due_ms < *tl.first_due_ms)
          tl.first_due_ms = due_ms;
        if (o.ok && s.response.route_kind ==
                        static_cast<std::uint32_t>(
                            clear::serve::BatchKey::Kind::kPersonal)) {
          const double recv_ms = static_cast<double>(s.recv_ns) / 1e6;
          if (!tl.first_personal_ms || recv_ms < *tl.first_personal_ms)
            tl.first_personal_ms = recv_ms;
        }
      }
      if (probe) continue;
      if (o.ok) {
        preds.push_back(static_cast<std::size_t>(s.response.predicted));
        truths.push_back(static_cast<std::size_t>(s.request.truth > 0 ? 1 : 0));
        wait_vus += static_cast<double>(s.response.exec_us -
                                        s.response.arrival_us);
        ++wait_n;
        // One entry per batch: a batch of n rows contributes 1/n per row.
        batches[sc.precisions[s.request.user % sc.precisions.size()]]
            .push_back(s.response.batch_rows);
      }
      if (s.phase == Phase::kOpen) {
        open_outcomes.push_back(o);
        late_ms.push_back(static_cast<double>(std::max<std::int64_t>(
                              0, s.sent_ns - s.due_ns)) /
                          1e6);
        if (o.ok) open_latency_ms.push_back(o.latency_ms);
      } else if (o.ok) {
        ++closed_ok;
      }
    }
  // A batch of n rows appears n times above; keep every n-th.
  for (auto& [p, rows] : batches) {
    std::sort(rows.begin(), rows.end());
    std::vector<std::size_t> one_per_batch;
    for (std::size_t i = 0; i < rows.size(); i += rows[i])
      one_per_batch.push_back(rows[i]);
    rows = std::move(one_per_batch);
  }

  const Tail latency = tail_of(open_latency_ms);
  const Delivery open_delivery = delivery(open_outcomes, 0);
  const Delivery timed_delivery = delivery(timed_outcomes, mismatches);
  const Ttp ttp = ttp_of(timelines);
  std::sort(late_ms.begin(), late_ms.end());
  const double late_p99 = percentile(late_ms, 0.99);
  const double f1 = fear_f1(preds, truths);
  const double peak_rps =
      closed_seconds > 0.0 ? static_cast<double>(closed_ok) / closed_seconds
                           : 0.0;
  double ckpt_bytes = 0.0;
  std::size_t ckpts = 0;
  for (const auto& e : fs::directory_iterator(live_dir))
    if (e.path().extension() == ".ckpt") {
      ckpt_bytes += static_cast<double>(e.file_size());
      ++ckpts;
    }

  std::vector<std::string> problems;
  const auto problem = [&](bool failed, std::string what) {
    if (failed) problems.push_back(std::move(what));
  };
  problem(mismatches > 0, std::to_string(mismatches) +
                              " responses differ from the library replay");
  problem(dropped > 0, std::to_string(dropped) + " requests unanswered");
  problem(unexpected > 0, std::to_string(unexpected) +
                              " unexpected or malformed responses");
  problem(late_p99 > kMaxLateP99Ms, "generator fell behind (late p99 " +
                                        std::to_string(late_p99) + " ms)");
  problem(ttp.personalized == 0,
          "no onboarding user reached a personal model");
  problem(ckpts == 0, "no personal checkpoint stored");
  problem(unattributed > kMaxUnattributed,
          "replay ledger leaves " + std::to_string(unattributed) +
              " of its time unattributed");
  problem(!recovery_report.clean(), "recovery lost state");
  for (const std::string& p : problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  std::fprintf(stderr,
               "%s seed %llu: sent %zu (open %zu), ok %zu, shed %zu, "
               "dropped %zu; latency samples %zu, p50 %.3f ms, p%.1f %.3f ms "
               "(%zu beyond); ttp over %zu of %zu users; %zu checkpoints; "
               "recovered %llu personal users; %zu int8 answers differ "
               "from the replay within tolerance\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               timed_delivery.sent, open_delivery.sent, timed_delivery.ok,
               timed_delivery.shed, timed_delivery.dropped, latency.samples,
               latency.p50, latency.tail_pct, latency.tail, latency.beyond,
               ttp.personalized, ttp.users, ckpts,
               static_cast<unsigned long long>(recovery_report.personalized),
               int8_drift);

  Metrics m;
  if (!args.trace) {
    m["setup_s"] = {setup_s, "s"};
    m["p50_ms"] = {latency.p50, "ms"};
    m["p99_ms"] = {latency.tail, "ms"};
    m["slo_frac"] = {open_delivery.slo_frac, "fraction"};
    m["ok_frac"] = {1.0 - timed_delivery.fail_frac, "fraction"};
    m["fear_f1"] = {f1, "f1"};
    m["peak_rss_mb"] = {rss_mb, "MiB"};
    m["peak_rps"] = {peak_rps, "1/s"};
    m["ttp_p50_ms"] = {ttp.p50_ms, "ms"};
    m["ckpt_kb_per_user"] = {
        ckpts ? ckpt_bytes / 1024.0 / static_cast<double>(ckpts) : 0.0, "KiB"};
    m["recover_s"] = {recover_s, "s"};
    // Left for a traced run of the same seed to diff against.
    std::ofstream(untraced_file) << latency.p50 << " " << latency.tail << "\n";
  } else {
    LayerInputs in;
    in.source = &source;
    in.config = &sc;
    in.dataset = &dataset;
    in.volunteers = &volunteers;
    in.sent = &sent;
    in.batches = batches;
    in.journal_dir = live_dir;
    in.scratch_dir = run_dir + "/ckpt-writes";
    in.ledger = ledger;
    in.parent = ledger->begin("layers");
    m = measure_layers(in);
    ledger->end(in.parent);
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto d = [&](std::size_t ServeCounters::*f) {
      return static_cast<double>(after.*f - base.*f);
    };
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    m["setup.generate_s"] = {generate_s, "s"};
    m["setup.fit_s"] = {fit_s, "s"};
    m["net.bytes_per_req"] = {
        ratio(n(net_counters.bytes_in), n(net_counters.frames_in)), "B"};
    m["net.clamped_frac"] = {
        ratio(n(net_counters.clamped_arrivals), n(net_counters.frames_in)),
        "fraction"};
    m["gen.late_p99_ms"] = {late_p99, "ms"};
    for (const SubmitClass c : kSubmitClasses) {
      const auto& [sum, count] = submit_us[c];
      m[std::string("serve.submit_us.") + submit_class_name(c)] = {
          ratio(sum, n(count)), "us"};
      m[std::string("serve.submit_n.") + submit_class_name(c)] = {n(count),
                                                                  "count"};
    }
    m["serve.batch_rows_mean"] = {
        ratio(d(&ServeCounters::rows), d(&ServeCounters::batches)), "rows"};
    m["serve.batch_wait_vus"] = {ratio(wait_vus, n(wait_n)), "virtual_us"};
    m["serve.shed_frac"] = {
        ratio(d(&ServeCounters::shed), d(&ServeCounters::requests)),
        "fraction"};
    const double hits = n(cache_after.hits - cache_base.hits);
    const double misses = n(cache_after.misses - cache_base.misses);
    m["cache.hit_ratio"] = {ratio(hits, hits + misses), "fraction"};
    m["cache.evictions"] = {n(cache_after.evictions - cache_base.evictions),
                            "count"};
    m["delta.fallbacks"] = {d(&ServeCounters::delta_full_fallbacks), "count"};
    m["journal.bytes_per_req"] = {
        ratio(d(&ServeCounters::journal_bytes), d(&ServeCounters::requests)),
        "B"};
    m["journal.records_per_req"] = {
        ratio(d(&ServeCounters::journal_records), d(&ServeCounters::requests)),
        "records"};
    m["recovery.read_ms"] = {recovery_read_ms, "ms"};
    m["recovery.personal_users"] = {n(recovery_report.personalized), "count"};
    m["recovery.ms_per_personal_user"] = {
        ratio(recover_s * 1e3, n(recovery_report.personalized)), "ms"};
    m["traced.p50_ms"] = {latency.p50, "ms"};
    m["traced.p99_ms"] = {latency.tail, "ms"};
    // Tracing overhead: traced minus untraced latency of the same seed, when
    // an untraced run of it left its numbers (0 otherwise).
    double untraced_p50 = latency.p50, untraced_p99 = latency.tail;
    if (std::ifstream in(untraced_file); !(in >> untraced_p50 >> untraced_p99))
      std::fprintf(stderr, "no untraced run of this seed: overhead reads 0\n");
    m["trace.overhead_p50_ms"] = {latency.p50 - untraced_p50, "ms"};
    m["trace.overhead_p99_ms"] = {latency.tail - untraced_p99, "ms"};
    m["check.int8_drift"] = {static_cast<double>(int8_drift), "count"};
    m["trace.replay_unattributed_frac"] = {unattributed, "fraction"};
    std::ofstream(run_dir + ".trace.json") << ledger->chrome_json();
  }

  const bool correct = problems.empty();
  std::cout << result_json(
                   correct, timed_delivery.sent,
                   timed_delivery.shed + timed_delivery.dropped + mismatches, m)
            << std::endl;
  fs::remove_all(run_dir);
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 2;
}
